"""Exact arithmetic in finite fields and their extensions.

One class, `FiniteField`, models every field of the package:

- `FiniteField(p)` is the prime field GF(p);
- `FiniteField(p, h)` is GF(p^h) as a degree-h extension of GF(p);
- `FiniteField(F, n)` is GF(q^n) as a degree-n extension of the field F
  of order q, e.g. GF(16) over GF(4), which the towers of the semifield
  and Hermitian code families need.

No field has more than `errors.FIELD_SIZE_CAP` = 2^20 elements: a larger
one raises FieldSizeError before anything is built.

Element encoding
----------------
Field elements are plain ints.  An element of a prime field is its
residue mod p.  In an extension of degree n over a base field of order q,
the base-q digits of the int are the coordinates of the element in the
power basis 1, t, ..., t^(n-1) of a root t of the modulus, constant term
in the least significant digit: e = sum(c_i * q**i) represents
sum(c_i * t**i).  Each digit c_i is a base-field element, encoded the
same way.  Enumeration order is therefore range(order), which is
canonical and platform-independent.

Addition
--------
q is a power of p, so every base-q digit is itself a block of base-p
digits, and the int read in base p lists the h = [F : GF(p)] coordinates
of the element over GF(p) (in the product of the power bases down the
tower).  Addition is coordinatewise in any basis, so `add` and `neg` work
digitwise mod p on those h digits for every field, towers included, with
no call into the base field; over GF(2) this is XOR.  Products reduce
modulo the defining polynomial over the base field (prime fields: % p).

Modulus choice
--------------
The defining polynomial of every extension is the monic irreducible of the
requested degree whose non-leading coefficients, read as the digits of an
integer (constant term least significant), are smallest, i.e.
`nth_irreducible(base, n, 0)`.  Over GF(2) this reproduces the familiar
table entries (x^2+x+1 = 0b111, x^3+x+1 = 0b1011).  An explicit modulus
may be passed instead, which the test suite uses to check that derived
counts are independent of the field model.

All arithmetic is exact; there is no floating point anywhere in this
module.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .errors import FIELD_SIZE_CAP, FieldSizeError

# exp/log tables are built for orders up to this bound; larger fields fall
# back to direct polynomial arithmetic per operation.
_TABLE_LIMIT = 1 << 13


# No odd composite below _MR_LIMIT is a strong pseudoprime to all of the
# first thirteen prime bases (Sorenson and Webster, 2015), so the
# Miller-Rabin test with these bases decides primality below it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test.  Raises ValueError for p >= 3.3e24
    with no factor among the bases, where the test is not known to
    decide."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    if p >= _MR_LIMIT:
        raise ValueError(f"cannot decide whether {p} is prime (above {_MR_LIMIT})")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, h) with q = p^h and p prime, or None if q is not a prime power
    or not an int (4.0 and "4" give None).

    The largest h with an exact h-th root r is the one to test: if q is a
    prime power, r is that prime; otherwise no smaller h gives a prime."""
    if not isinstance(q, int) or q < 2:
        return None
    for h in range(q.bit_length() - 1, 0, -1):
        r = _iroot(q, h)
        if r**h == q:
            return (r, h) if is_prime(r) else None
    return None


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorisation of n >= 1 as ((p, e), ...), p ascending, by
    trial division; () for n = 1."""
    if n < 1:
        raise ValueError(f"can only factor n >= 1, got {n}")
    out = []
    f = 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            out.append((f, e))
        f += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


# ----------------------------------------------------------------------
# polynomial helpers over a base field (coefficient lists, constant first)
# ----------------------------------------------------------------------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: Sequence[int], b: Sequence[int], fld: "FiniteField") -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = fld.add(out[i + j], fld.mul(ai, bj))
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], fld: "FiniteField") -> list[int]:
    # m monic
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for k in range(dm + 1):
                r[shift + k] = fld.sub(r[shift + k], fld.mul(lead, m[k]))
        _poly_trim(r)
    return r


def _monics(q: int, deg: int) -> Iterator[list[int]]:
    """The monic polynomials of degree deg over a field of order q, as
    coefficient lists (constant first), in the canonical order: their
    non-leading coefficients, read as base-q digits, count up from 0."""
    for enc in range(q**deg):
        coeffs = []
        for _ in range(deg):
            coeffs.append(enc % q)
            enc //= q
        yield coeffs + [1]


def _is_irreducible(base: "FiniteField", coeffs: Sequence[int]) -> bool:
    """Trial division of a monic polynomial by every monic of degree
    1..n//2; exact and fast for the degrees (<= 16) this package uses."""
    n = len(coeffs) - 1
    if n == 1:
        return True
    if coeffs[0] == 0:
        return False  # divisible by x
    for deg in range(1, n // 2 + 1):
        for d in _monics(base.order, deg):
            if not _poly_mod(coeffs, d, base):
                return False
    return True


def _irreducibles(base: "FiniteField", n: int) -> Iterator[tuple[int, ...]]:
    """The monic irreducibles of degree n over base, in canonical order."""
    for cand in _monics(base.order, n):
        if _is_irreducible(base, cand):
            yield tuple(cand)


class FiniteField:
    """A finite field with int-encoded elements (see module docstring).

    - p: the characteristic;
    - h: the degree over GF(p);
    - base: the base field, None for a prime field;
    - n: the degree over base (1 for a prime field);
    - q: the order of base (p for a prime field);
    - order: the number of elements, q**n;
    - modulus: the defining polynomial over base (None for a prime field).

    FiniteField(p, h) and FiniteField(FiniteField(p), h) are equal: same
    base, degree, modulus and encoding.  Immutable after construction;
    safe to share between workers.
    """

    def __init__(
        self,
        base: "int | FiniteField",
        n: int = 1,
        modulus: Sequence[int] | None = None,
    ):
        if n < 1:
            raise ValueError(f"degree must be >= 1, got {n}")
        if isinstance(base, FiniteField):
            p, q, h = base.p, base.order, base.h * n
        else:
            p, q, h = base, base, n
        order = q**n
        if order > FIELD_SIZE_CAP:
            raise FieldSizeError(f"|GF({q}^{n})| = {order} exceeds cap {FIELD_SIZE_CAP}")
        if not isinstance(base, FiniteField):
            if not is_prime(p):
                raise ValueError(f"p = {p} is not prime")
            base = FiniteField(p) if n > 1 else None
        if base is None:
            if modulus is not None:
                raise ValueError("a prime field takes no modulus")
        elif modulus is None:
            modulus = next(_irreducibles(base, n))
        else:
            modulus = tuple(modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree n")
            if not _is_irreducible(base, modulus):
                raise ValueError("modulus is not irreducible over the base field")
        self.p = p
        self.h = h
        self.base = base
        self.n = n
        self.q = q
        self.order = order
        self.modulus: tuple[int, ...] | None = modulus
        self._key = (p, base, n, modulus)
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if h > 1 and order <= _TABLE_LIMIT:
            self._build_tables()

    # representation -----------------------------------------------------
    def coords(self, a: int) -> tuple[int, ...]:
        """Coordinates over the base field in the power basis: the n
        base-q digits of a, constant term first."""
        out = []
        for _ in range(self.n):
            out.append(a % self.q)
            a //= self.q
        return tuple(out)

    def from_coords(self, coords: Sequence[int]) -> int:
        a = 0
        for c in reversed(coords):
            a = a * self.q + c % self.q
        return a

    def elements(self) -> range:
        return range(self.order)

    def units(self) -> range:
        return range(1, self.order)

    def basis(self) -> list[int]:
        """Power-basis elements 1, t, ..., t^(n-1)."""
        return [self.q**i for i in range(self.n)]

    # arithmetic ---------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.h == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        out = 0
        mult = 1
        for _ in range(self.h):
            out += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return out

    def neg(self, a: int) -> int:
        if self.h == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        out = 0
        mult = 1
        for _ in range(self.h):
            out += ((-a) % self.p) * mult
            a //= self.p
            mult *= self.p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_poly(self, a: int, b: int) -> int:
        base = self.base
        prod = _poly_mod(_poly_mul(self.coords(a), self.coords(b), base), self.modulus, base)
        return self.from_coords(prod)

    def mul(self, a: int, b: int) -> int:
        if self.h == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.h == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is not None:
            return self._exp[(self.order - 1) - self._log[a]]
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.h == 1:
            return pow(a, e, self.p) if a or e == 0 else 0
        if a == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # field-theoretic maps over the base field ---------------------------
    def frobenius(self, a: int, i: int = 1) -> int:
        """a^(q^i).  frobenius(a, n) == a for all a."""
        if i < 0:
            raise ValueError("frobenius power must be >= 0")
        e = self.q ** (i % self.n)
        if e == 1 or a == 0:
            return a
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        return self.pow(a, e)

    def trace(self, a: int) -> int:
        """Tr to the base field: sum of a^(q^i) for i = 0..n-1, as a
        base-field int."""
        s = 0
        for i in range(self.n):
            s = self.add(s, self.frobenius(a, i))
        coords = self.coords(s)
        if any(coords[1:]):
            raise AssertionError("trace left the base field")
        return coords[0]

    def rel_norm(self, a: int, ell: int = 1) -> int:
        """Norm to the subfield GF(q^ell); ell defaults to 1 (norm to GF(q))."""
        if ell < 1 or self.n % ell != 0:
            raise ValueError(f"ell = {ell} does not divide n = {self.n}")
        if a == 0:
            return 0
        e = (self.order - 1) // (self.q**ell - 1)
        return self.pow(a, e)

    def in_subfield(self, a: int, ell: int) -> bool:
        """True iff a lies in GF(q^ell) (requires ell | n)."""
        if self.n % ell != 0:
            raise ValueError(f"ell = {ell} does not divide n = {self.n}")
        return self.frobenius(a, ell) == a

    def generator(self) -> int:
        """A primitive element, of multiplicative order `order - 1`: the
        base of the log tables when they exist, else the first one found
        by `_find_generator`."""
        if self._exp is not None:
            return self._exp[1]
        return _find_generator(self)

    def _build_tables(self) -> None:
        g = _find_generator(self)
        exp = [0] * (2 * self.order)
        log = [0] * self.order
        v = 1
        for i in range(self.order - 1):
            exp[i] = v
            log[v] = i
            v = self._mul_poly(g, v)
        for i in range(self.order - 1, 2 * self.order):
            exp[i] = exp[i - (self.order - 1)]
        self._exp = exp
        self._log = log

    def __repr__(self) -> str:
        if self.base is None:
            return f"GF({self.p})"
        return f"GF({self.q}^{self.n})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteField) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __reduce__(self):
        # Pickled as its parameters: the default pickling reads __dict__,
        # which turns the attributes into a plain dict and slows every later
        # operation on this (cached, shared) field by about a fifth.
        base = self.p if self.base is None else self.base
        return (FiniteField, (base, self.n, self.modulus))


def _find_generator(fld: FiniteField) -> int:
    order = fld.order - 1
    if order == 1:
        return 1
    factors = [p for p, _ in factorize(order)]
    for g in range(2, fld.order):
        if all(fld.pow(g, order // f) != 1 for f in factors):
            return g
    raise AssertionError("no multiplicative generator found")


def __getattr__(name: str):
    # The package's former name for FiniteField(base, n), resolved on
    # lookup only, so that the class is bound once in this module.
    if name == "ExtField":
        return FiniteField
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@lru_cache(maxsize=None)
def make_field(p: int, h: int = 1) -> FiniteField:
    """Field handle for GF(p^h) over GF(p).  Cached; handles are immutable."""
    return FiniteField(p, h)


@lru_cache(maxsize=None)
def make_ext_field(base: FiniteField, n: int) -> FiniteField:
    """Field handle for GF(|base|^n) over base.  Cached."""
    return FiniteField(base, n)


def nth_irreducible(base: FiniteField, n: int, index: int) -> tuple[int, ...]:
    """The index-th (0-based) monic irreducible of degree n in the canonical
    order; index 0 is the default modulus.  Used by tests to rebuild a
    field under a second modulus."""
    for i, cand in enumerate(_irreducibles(base, n)):
        if i == index:
            return cand
    raise ValueError(f"fewer than {index + 1} irreducibles of degree {n}")
