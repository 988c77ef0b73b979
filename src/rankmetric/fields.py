"""Exact arithmetic in GF(q), q = p^h, and in extension fields GF(q^n).

Element encoding
----------------
Field elements are plain ints.  For a prime field the int is the residue
mod p.  For GF(p^h) with h > 1 the base-p digits of the int are the
coefficients of a polynomial in the generator, constant term in the least
significant digit: e = sum(c_i * p**i) represents sum(c_i * t**i).
Extension fields GF(q^n) over a base GF(q) use the same scheme with base-q
digits.  Enumeration order is therefore range(order), which is canonical
and platform-independent.

Modulus choice
--------------
The defining polynomial of every extension is the monic irreducible of the
requested degree whose non-leading coefficients, read as the digits of an
integer (constant term least significant), are smallest.  Over GF(2) this
reproduces the familiar table entries (x^2+x+1 = 0b111, x^3+x+1 = 0b1011).
An explicit modulus may be passed instead, which the test suite uses to
check that derived counts are independent of the field model.

All arithmetic is exact; there is no floating point anywhere in this
module.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import FIELD_SIZE_CAP, FieldSizeError

# exp/log tables are built for orders up to this bound; larger fields fall
# back to direct polynomial arithmetic per operation.
_TABLE_LIMIT = 1 << 13


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


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


def _poly_divides(d: Sequence[int], a: Sequence[int], fld: "FiniteField") -> bool:
    return not _poly_mod(a, _monicize(d, fld), fld)


def _monicize(a: Sequence[int], fld: "FiniteField") -> list[int]:
    inv = fld.inv(a[-1])
    return [fld.mul(inv, c) for c in a]


class FiniteField:
    """The field GF(p^h) with int-encoded elements (see module docstring).

    Immutable after construction; safe to share between workers.
    """

    def __init__(self, p: int, h: int = 1, cap: int = FIELD_SIZE_CAP):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if h < 1:
            raise ValueError(f"h must be >= 1, got {h}")
        order = p**h
        if order > cap:
            raise FieldSizeError(f"|GF({p}^{h})| = {order} exceeds cap {cap}")
        self.p = p
        self.h = h
        self.q = order
        self.order = order
        self.modulus: tuple[int, ...] | None = None
        self._prime: FiniteField | None = None
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if h > 1:
            self._prime = FiniteField(p, 1)
            self.modulus = _first_irreducible(self._prime, h)
            self._build_tables()

    # representation helpers -------------------------------------------
    def coords(self, a: int) -> tuple[int, ...]:
        """Base-p digit vector of a (constant term first), length h."""
        out = []
        for _ in range(self.h):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coords(self, coords: Sequence[int]) -> int:
        a = 0
        for c in reversed(coords):
            a = a * self.p + c % self.p
        return a

    def elements(self) -> range:
        return range(self.order)

    def units(self) -> range:
        return range(1, self.order)

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
        prime = self._prime
        pa = list(self.coords(a))
        pb = list(self.coords(b))
        prod = _poly_mod(_poly_mul(pa, pb, prime), self.modulus, prime)
        prod += [0] * (self.h - len(prod))
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

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

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

    def _build_tables(self) -> None:
        if self.order > _TABLE_LIMIT:
            return
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
        if self.h == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.h})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.h == other.h
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.h, self.modulus))


def _find_generator(fld) -> int:
    order = fld.order - 1
    if order == 1:
        return 1
    factors = [p for p, _ in factorize(order)]
    for g in range(2, fld.order):
        if all(fld.pow(g, order // f) != 1 for f in factors):
            return g
    raise AssertionError("no multiplicative generator found")


def _first_irreducible(base: FiniteField, n: int) -> tuple[int, ...]:
    """Monic irreducible of degree n over `base` with the smallest integer
    encoding of its non-leading coefficients (constant digit least
    significant).  Irreducibility by trial division against every monic
    polynomial of degree 1..n//2; exact and fast for the degrees (<= 16)
    this package supports."""
    q = base.order
    divisor_coeffs: list[list[int]] = []
    for deg in range(1, n // 2 + 1):
        for enc in range(q**deg):
            c = []
            e = enc
            for _ in range(deg):
                c.append(e % q)
                e //= q
            divisor_coeffs.append(c + [1])
    for enc in range(q**n):
        coeffs = []
        e = enc
        for _ in range(n):
            coeffs.append(e % q)
            e //= q
        cand = coeffs + [1]
        if cand[0] == 0:
            continue  # divisible by x
        if all(not _poly_divides(d, cand, base) for d in divisor_coeffs):
            return tuple(cand)
    raise AssertionError(f"no irreducible of degree {n} over {base}")


@lru_cache(maxsize=None)
def make_field(p: int, h: int = 1) -> FiniteField:
    """Field handle for GF(p^h).  Cached; handles are immutable."""
    return FiniteField(p, h)


class ExtField:
    """GF(q^n) over a base GF(q), elements int-encoded in base q.

    The power basis {1, t, ..., t^(n-1)} of the modulus root t is the fixed
    basis used by every matrix representation in this package.
    """

    def __init__(
        self,
        base: FiniteField,
        n: int,
        modulus: tuple[int, ...] | None = None,
        cap: int = FIELD_SIZE_CAP,
    ):
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n}")
        order = base.order**n
        if order > cap:
            raise FieldSizeError(f"|GF({base.order}^{n})| = {order} exceeds cap {cap}")
        self.base = base
        self.n = n
        self.q = base.order
        self.order = order
        if modulus is None:
            modulus = (
                _first_irreducible(base, n) if n > 1 else (base.neg(1), 1)
            )
        else:
            modulus = tuple(modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree n")
            if n > 1 and not _is_irreducible(base, modulus):
                raise ValueError("modulus is not irreducible over the base field")
        self.modulus = modulus
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._frob1: list[int] | None = None
        if order <= _TABLE_LIMIT:
            self._build_tables()

    # representation ---------------------------------------------------
    def coords(self, a: int) -> tuple[int, ...]:
        """Coordinates over GF(q) w.r.t. the power basis, length n."""
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
        return [self.q**i for i in range(self.n)] if self.n > 1 else [1]

    # arithmetic ---------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        base = self.base
        out = 0
        mult = 1
        for _ in range(self.n):
            out += base.add(a % self.q, b % self.q) * mult
            a //= self.q
            b //= self.q
            mult *= self.q
        return out

    def neg(self, a: int) -> int:
        if self.q == 2:
            return a
        base = self.base
        out = 0
        mult = 1
        for _ in range(self.n):
            out += base.neg(a % self.q) * mult
            a //= self.q
            mult *= self.q
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_poly(self, a: int, b: int) -> int:
        pa = list(self.coords(a))
        pb = list(self.coords(b))
        prod = _poly_mod(_poly_mul(pa, pb, self.base), self.modulus, self.base)
        prod += [0] * (self.n - len(prod))
        return self.from_coords(prod)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self._exp is not None:
            return self._exp[(self.order - 1) - self._log[a]]
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
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

    def scalar_mul(self, c: int, a: int) -> int:
        """Multiply by c in GF(q) (embedded as the constant element c)."""
        return self.mul(c, a)

    # field-theoretic maps ---------------------------------------------
    def frobenius(self, a: int, i: int = 1) -> int:
        """a^(q^i).  frobenius(a, n) == a for all a."""
        if i < 0:
            raise ValueError("frobenius power must be >= 0")
        i %= self.n
        if i == 0:
            return a
        if self._frob1 is not None:
            for _ in range(i):
                a = self._frob1[a]
            return a
        return self.pow(a, self.q**i)

    def trace(self, a: int) -> int:
        """Tr to GF(q): sum of a^(q^i) for i = 0..n-1, as a base-field int."""
        s = 0
        for i in range(self.n):
            s = self.add(s, self.frobenius(a, i))
        coords = self.coords(s)
        if any(coords[1:]):
            raise AssertionError("trace left the base field")
        return coords[0]

    def rel_norm(self, a: int, ell: int | None = None) -> int:
        """Norm to the subfield GF(q^ell); ell defaults to 1 (norm to GF(q))."""
        if ell is None:
            ell = 1
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
        self._frob1 = [self.pow(a, self.q) for a in range(self.order)]

    def __repr__(self) -> str:
        return f"GF({self.q}^{self.n})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExtField)
            and self.base == other.base
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.base, self.n, self.modulus))


def _is_irreducible(base: FiniteField, coeffs: Sequence[int]) -> bool:
    n = len(coeffs) - 1
    if n == 1:
        return True
    if coeffs[0] == 0:
        return False
    q = base.order
    for deg in range(1, n // 2 + 1):
        for enc in range(q**deg):
            c = []
            e = enc
            for _ in range(deg):
                c.append(e % q)
                e //= q
            if _poly_divides(c + [1], coeffs, base):
                return False
    return True


@lru_cache(maxsize=None)
def make_ext_field(p_or_field, h_or_n=None, n=None) -> ExtField:
    """GF(q^n) handle.  Accepts (base_field, n) or (p, h, n)."""
    if isinstance(p_or_field, FiniteField):
        return ExtField(p_or_field, h_or_n)
    return ExtField(make_field(p_or_field, h_or_n), n)


def nth_irreducible(base: FiniteField, n: int, index: int) -> tuple[int, ...]:
    """The index-th (0-based) monic irreducible of degree n in the canonical
    order.  Used by tests to rebuild a field under a second modulus."""
    q = base.order
    found = 0
    for enc in range(q**n):
        coeffs = []
        e = enc
        for _ in range(n):
            coeffs.append(e % q)
            e //= q
        cand = tuple(coeffs + [1])
        if n > 1 and not _is_irreducible(base, cand):
            continue
        if found == index:
            return cand
        found += 1
    raise ValueError(f"fewer than {index + 1} irreducibles of degree {n}")
