"""Finite (pre)semifields on GF(q^n), their codes of right-multiplication
maps, generalized twisted fields, and exhaustive equivalence machinery.

A multiplication is stored by its bilinear coefficient array:
x * y = sum_{i,j} c[i][j] x^(q^i) y^(q^j), evaluated as R_y(x), R_y the
right multiplication by y as a q-polynomial; full multiplication tables
are only materialized on demand.  Codes of q-polynomials are
canonicalized through their matrix representation (RREF of flattened
images), so equivalence tests reduce to set equality of canonical forms.
A code converts its basis polynomials to matrices once, when it is built:
`basis_matrices()` returns those, and `matrix_code.basis` is the
canonical RREF form.  The linear algebra derived from a code, its check
rows, its right-idealizer rows and its right idealizer, is made once, on
first use, and kept by the code.

The equivalence and automorphism searches are exhaustive over
(rho in Aut(GF(q)), g in GL_n(q)): hits(g), the number of invertible f
with f o C2^rho o g = C1, comes from solving the space
{f : f o C2^rho o g inside C1} exactly by linear algebra.  One solve
decides a whole double coset L . g . H:
  - L = R*(C2^rho), the unit group of the right idealizer
    {A : M . A in C2^rho for all M} of C2^rho, acts on the left:
    C2^rho . r = C2^rho, so hits(r . g) = hits(g);
  - H acts on the right and starts as R*(C1): C1 . s = C1, so
    hits(g . s) = hits(g).
Four facts make the count exact:
  (i) hits(g) is 0 or |L*(C1)|, L*(C1) being the unit group of C1's left
      idealizer: if f0 o C2^rho o g = C1, then f works exactly when
      f . f0^-1 fixes C1;
  (ii) hits(g . s) = hits(g) for every s with C1 . s = C1, and more
      generally for every s with C1 . s = f0 . C1 (f <-> f0^-1 . f);
  (iii) in an automorphism scan (C1 == C2) the rho = 0 hit set is a group
      G0 that contains R*(C1), each of whose elements satisfies (ii), and
      each rho > 0 hit set is a left coset of G0;
  (iv) at rho = 0 of an automorphism scan G0 also acts on the left: for
      u in G0 with f_u . C1 . u = C1, hits(u . g) = hits(g) by
      f <-> f . f_u^-1.
So at rho = 0 of an automorphism scan L and H are one group K, which
starts as R*(C1) and every hit joins; the rho > 0 passes reuse K as H.
An equivalence scan keeps H = R*(C1).  The count is hits x (the number
of g with a hit), which equals the unreduced per-g sweep (the tests
check this against a per-g loop).  No classification result is assumed.

G0 is found late in GL order: a twisted code's R* is often just the
scalars.  So an automorphism scan first decides two seeds, elements of
G0 for the field code and the twisted codes: multiplication by a
primitive element of GF(q^n) (`FiniteField.generator`), and the
q-Frobenius x -> x^q.  The seeds that hit join R*(C1) in K, and K's
generators are chosen seeds first, so the scans of one field take the
same ones.

Each solve runs in the k coordinates of C1, not the n^2 entries of f:
with an invertible anchor M0 in C2^rho, f . M0 . g lies in C1 iff f =
X . (M0 . g)^-1 for some X in C1, so hits(g) counts the invertible X of
a kernel with k columns (`_LeftSolver`).  A C2^rho with no invertible
element is solved on the n^2 entries (`_left_multiplier_space`).

A verdict spreads over its double coset through the partition of GL_n(q)
into the double cosets L . g . H (`_double_cosets`), walked through
permutation tables, one list over all of GL per generator of L or H
mapping each element x to u . x or x . s.  A pass decides its known
verdicts, then solves one representative of each undecided class; when K
grows it reads the partition of the larger K, joined from the smaller
K's.  The GL_n(q) of a field is one object (`_gl`), which keeps every
table and partition its scans build for the life of the process, so each
is built once per field: the class census's automorphism scans take the
same generators, and a repeated census walks no coset.  A rho whose
twisted code C2^rho equals an earlier pass's has that pass's hits, so it
adds that pass's count and runs no solve: the field code over a
non-prime base is its own twist.

The class census takes the class of the field-multiplication code from
the closed form equiv_to_c0_predicate and decides every other pair of
twisted codes by this exact scan; there is no second equivalence test.
Its classes are semilinear (rho ranges over Aut(GF(q))), so over a
non-prime base field it can find fewer than `class_count_formula`, which
counts GF(q)-linear classes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, repeat
from operator import add
from typing import Iterable, Iterator, Sequence

from . import linalg
from .errors import charge, resolve_budget
from .fields import FiniteField
from .linpoly import LinearizedPoly, from_matrix, interpolate
from .qcomb import gl_order


# ----------------------------------------------------------------------
# semifields
# ----------------------------------------------------------------------

class Semifield:
    """Multiplication x*y = sum c[i][j] x^(q^i) y^(q^j) on GF(q^n).

    Bilinearity (both distributive laws) holds by construction; absence of
    zero divisors and existence of an identity are checked, not assumed.
    """

    __slots__ = ("field", "coeffs", "_table")

    def __init__(self, field: FiniteField, coeffs: Sequence[Sequence[int]]):
        n = field.n
        coeffs = tuple(tuple(row) for row in coeffs)
        if len(coeffs) != n or any(len(row) != n for row in coeffs):
            raise ValueError(f"coefficient array must be {n}x{n}")
        self.field = field
        self.coeffs = coeffs
        self._table: list[list[int]] | None = None

    @classmethod
    def field_multiplication(cls, field: FiniteField) -> "Semifield":
        coeffs = [[0] * field.n for _ in range(field.n)]
        coeffs[0][0] = 1
        return cls(field, coeffs)

    def star(self, x: int, y: int) -> int:
        return self.right_mult_poly(y).evaluate(x)

    def mult_table(self, budget: int | None = None) -> list[list[int]]:
        if self._table is None:
            E = self.field
            charge(E.order**2, resolve_budget(budget), "semifield multiplication table")
            R = self._right_mult_polys()
            self._table = [[R_y.evaluate(x) for R_y in R] for x in E.elements()]
        return self._table

    def is_presemifield(self, budget: int | None = None) -> bool:
        """No zero divisors, by exhaustive search over nonzero pairs."""
        E = self.field
        charge(E.order**2, resolve_budget(budget), "zero-divisor search")
        for y in E.units():
            R_y = self.right_mult_poly(y)
            if any(R_y.evaluate(x) == 0 for x in E.units()):
                return False
        return True

    def identity(self, budget: int | None = None) -> int | None:
        """The two-sided identity element, or None."""
        E = self.field
        charge(2 * E.order**2, resolve_budget(budget), "identity search")
        R = self._right_mult_polys()
        for e in E.units():
            if all(R[x].evaluate(e) == x and R[e].evaluate(x) == x for x in E.elements()):
                return e
        return None

    def is_semifield(self, budget: int | None = None) -> bool:
        return self.is_presemifield(budget=budget) and self.identity(budget=budget) is not None

    def right_mult_poly(self, y: int) -> LinearizedPoly:
        """R_y: x -> x*y as a q-polynomial: coeff_i = sum_j c[i][j] y^(q^j)."""
        E = self.field
        powers = [E.frobenius(y, j) for j in range(E.n)]
        return LinearizedPoly(E, linalg.mat_vec(self.coeffs, powers, E))

    def _right_mult_polys(self) -> list[LinearizedPoly]:
        """R_y for every y, indexed by the element y."""
        return [self.right_mult_poly(y) for y in self.field.elements()]


@dataclass(frozen=True)
class NucleiResult:
    left: frozenset[int]
    middle: frozenset[int]
    right: frozenset[int]
    nucleus: frozenset[int]
    center: frozenset[int]


def nuclei(S: Semifield, budget: int | None = None) -> NucleiResult:
    """Left/middle/right nuclei, nucleus and center of a (pre)semifield by
    exhaustive associativity tests (triple loops over the ground set)."""
    E = S.field
    order = E.order
    charge(3 * order**3, resolve_budget(budget), "nuclei triple loops")
    t = S.mult_table(budget=budget)
    rng = range(order)
    left = frozenset(
        x for x in rng if all(t[x][t[y][z]] == t[t[x][y]][z] for y in rng for z in rng)
    )
    middle = frozenset(
        y for y in rng if all(t[x][t[y][z]] == t[t[x][y]][z] for x in rng for z in rng)
    )
    right = frozenset(
        z for z in rng if all(t[x][t[y][z]] == t[t[x][y]][z] for x in rng for y in rng)
    )
    nucleus = left & middle & right
    center = frozenset(x for x in nucleus if all(t[x][y] == t[y][x] for y in rng))
    return NucleiResult(left, middle, right, nucleus, center)


# ----------------------------------------------------------------------
# generalized twisted fields
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TwistedFieldSpec:
    """x*y = xy - c * x^(q^i) * y^(q^j) on GF(q^n).

    Valid when N_{q^n/q^ell}(c) != 1 for ell = gcd(i, j, n); the fixed
    field of (alpha, beta) jointly is then GF(q^ell) and the product has
    no zero divisors.
    """

    field: FiniteField
    c: int
    i: int
    j: int

    @property
    def ell(self) -> int:
        return math.gcd(math.gcd(self.i, self.j), self.field.n)

    def is_valid(self) -> bool:
        return self.field.rel_norm(self.c, self.ell) != 1

    def validate(self) -> None:
        if not self.is_valid():
            raise ValueError(
                f"norm of c over GF(q^{self.ell}) is 1; the product has zero divisors"
            )

    def semifield(self) -> Semifield:
        self.validate()
        E = self.field
        coeffs = [[0] * E.n for _ in range(E.n)]
        coeffs[0][0] = 1
        i, j = self.i % E.n, self.j % E.n
        coeffs[i][j] = E.sub(coeffs[i][j], self.c)
        return Semifield(E, coeffs)

    def code(self) -> "LinPolyCode":
        return twisted_code(self)

    def to_json(self) -> dict:
        E = self.field
        return {
            "q": E.q,
            "n": E.n,
            "l": self.ell,
            "i": self.i,
            "j": self.j,
            "c_coords": list(E.coords(self.c)),
        }


def equiv_to_c0_predicate(spec: TwistedFieldSpec) -> bool:
    """Closed form for equivalence with the field-multiplication code:
    true iff alpha = id, beta = id, or alpha = beta."""
    n = spec.field.n
    i, j = spec.i % n, spec.j % n
    return i == 0 or j == 0 or i == j


def class_count_formula(n: int, q) -> int:
    """Number of GF(q)-linear equivalence classes (f o C2 o g = C1, rho =
    id) among the twisted-field-type codes: 1 + (q-2)*C(n-1,2).

    The scans and `twisted_class_census` also allow rho in Aut(GF(q)),
    which can merge linear classes when q is not prime: over GF(64) with
    base GF(4) the formula gives 3, but the (1, 2) codes with N(c) = w
    and N(c) = w^2 are equivalent through rho (the twist of the code of
    c is the code of c^2), so the census finds 2 classes.  Over a prime
    base field the two notions agree."""
    q = getattr(q, "order", q)
    if n < 2:
        raise ValueError("need n >= 2")
    return 1 + (q - 2) * math.comb(n - 1, 2)


def valid_twisted_specs(field: FiniteField) -> Iterator[TwistedFieldSpec]:
    """All TwistedFieldSpec over the field with c nonzero, deterministic
    order."""
    n = field.n
    for i in range(n):
        for j in range(n):
            for c in field.units():
                spec = TwistedFieldSpec(field, c, i, j)
                if spec.is_valid():
                    yield spec


# ----------------------------------------------------------------------
# codes of q-polynomials
# ----------------------------------------------------------------------

class LinPolyCode:
    """A GF(q)-subspace of linearized polynomials, canonicalized through
    the matrix representation of its basis.  The basis polynomials are
    converted to matrices once, here: `basis_matrices()` returns those,
    and `matrix_code.basis` is the canonical RREF form of their span.
    The linear algebra the scans and `idealizers` read is derived once,
    on first use: `check_rows()`, `right_idealizer_rows()` and
    `right_idealizer_space()`."""

    __slots__ = ("field", "basis", "_mats", "_canon", "_checks", "_weights", "_right")

    def __init__(self, field: FiniteField, polys: Sequence[LinearizedPoly]):
        from .codes import MatrixCode

        mats = tuple(p.to_matrix() for p in polys)
        canon = MatrixCode(field.base, field.n, field.n, [sum(M, ()) for M in mats])
        if canon.dim != len(mats):
            raise ValueError("basis polynomials are linearly dependent")
        self.field = field
        self.basis = tuple(polys)
        self._mats = mats
        self._canon = canon
        self._checks = self._weights = self._right = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def matrix_code(self):
        return self._canon

    def basis_matrices(self) -> list[linalg.Matrix]:
        """The matrices of the basis polynomials, in basis order."""
        return list(self._mats)

    def check_rows(self) -> linalg.Matrix:
        """Rows spanning the orthogonal complement of the code in the
        flattened n x n matrices."""
        if self._checks is None:
            E = self.field
            self._checks = linalg.solution_space(self._canon.basis, E.n * E.n, E.base)
        return self._checks

    def right_idealizer_rows(self) -> list[linalg.Vector]:
        """The constraint rows of the right idealizer {A : M . A in C for
        all M in C}, one per check and canonical basis matrix: the weights
        of a `_LeftSolver` into this code."""
        if self._weights is None:
            E = self.field
            mats = self._canon.basis_matrices()
            self._weights = _right_idealizer_rows(self.check_rows(), mats, E.n, E.base)
        return self._weights

    def right_idealizer_space(self) -> linalg.Matrix:
        """Basis of the right idealizer, flattened."""
        if self._right is None:
            E = self.field
            self._right = linalg.solution_space(self.right_idealizer_rows(), E.n * E.n, E.base)
        return self._right

    def contains(self, f: LinearizedPoly) -> bool:
        vec = tuple(x for row in f.to_matrix() for x in row)
        basis = self._canon.basis  # canonical rref: a pivot is a row's first nonzero
        pivots = [next(c for c, x in enumerate(row) if x) for row in basis]
        return linalg.in_rowspan(basis, pivots, vec, self.field.base)

    def contains_x(self) -> bool:
        return self.contains(LinearizedPoly.x(self.field))

    def min_distance(self, budget: int | None = None) -> int:
        return self._canon.min_distance(budget=budget)

    def is_mrd(self) -> bool:
        return self._canon.is_mrd()

    def twist(self, rho: int) -> "LinPolyCode":
        return LinPolyCode(self.field, [p.rho_twist(rho) for p in self.basis])

    def compose_right(self, g: Sequence[Sequence[int]]) -> "LinPolyCode":
        """C o g for an invertible matrix g (as p o g for each basis p)."""
        E = self.field
        mats = [linalg.mat_mul(M, g, E.base) for M in self._mats]
        return LinPolyCode(E, [from_matrix(E, m) for m in mats])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinPolyCode) and self._canon == other._canon

    def __hash__(self) -> int:
        return hash(self._canon)

    def __repr__(self) -> str:
        return f"LinPolyCode(GF({self.field.q}^{self.field.n}), dim={self.dim})"


def c0_code(field: FiniteField) -> LinPolyCode:
    """The field-multiplication code {x*y | y}, basis {b*x : b power basis}."""
    return LinPolyCode(field, [LinearizedPoly.scalar(field, b) for b in field.basis()])


def _right_mult_code(S: Semifield) -> LinPolyCode:
    """{R_y | y}, spanned by the R_b of the power basis b."""
    E = S.field
    return LinPolyCode(E, [S.right_mult_poly(b) for b in E.basis()])


def twisted_code(spec: TwistedFieldSpec) -> LinPolyCode:
    """{xy - c alpha(x) beta(y) | y in GF(q^n)} as an n-dim code: the
    right-multiplication code of spec.semifield(), whose basis polynomials
    are b x - c b^(q^j) x^(q^i)."""
    return _right_mult_code(spec.semifield())


def semifield_to_code(S: Semifield, budget: int | None = None) -> LinPolyCode:
    """The code {R_y | y} of right multiplications; MRD with d = n when S
    is a presemifield, which is checked first."""
    if not S.is_presemifield(budget=budget):
        raise ValueError("multiplication has zero divisors")
    return _right_mult_code(S)


def normalize_contains_x(C: LinPolyCode, budget: int | None = None) -> LinPolyCode:
    """Replace C by C o g^-1 for the first invertible element g of C in
    span-enumeration order; the result contains the polynomial x.  The
    walk over the span, q^k matrices, is charged to the budget first."""
    E = C.field
    fld = E.base
    space = C.matrix_code.basis
    g = next(_invertible_in_space(space, E.n, fld, resolve_budget(budget)), None)
    if g is None:
        raise ValueError("code has no invertible element")
    out = C.compose_right(linalg.mat_inv(g, fld))
    if not out.contains_x():
        raise AssertionError("C o g^-1 must contain x")
    return out


def code_to_semifield(C: LinPolyCode, budget: int | None = None) -> Semifield:
    """Inverse of semifield_to_code on full-rank MRD codes containing x:
    x*y = L(y)(x) where L(y) is the unique element of C with L(y)(1) = y."""
    E = C.field
    n = E.n
    if C.dim != n:
        raise ValueError(f"need an n-dimensional code, got dim {C.dim}")
    if not C.contains_x():
        raise ValueError("code does not contain the polynomial x")
    if C.min_distance(budget=budget) != n:
        raise ValueError("code is not full-rank MRD (min distance < n)")
    fld = E.base
    # evaluation-at-1 matrix: column t = coords of basis_t(1), column 0 of
    # its matrix (the power basis starts at 1)
    eval1 = tuple(tuple(M[r][0] for M in C.basis_matrices()) for r in range(n))
    inv = linalg.mat_inv(eval1, fld)
    if inv is None:
        raise AssertionError("evaluation at 1 must be bijective on an MRD code")

    def L(y: int) -> LinearizedPoly:
        lam = linalg.mat_vec(inv, E.coords(y), fld)
        out = LinearizedPoly.zero(E)
        for c, p in zip(lam, C.basis):
            if c:
                out = out + p.scale(c)
        return out

    # interpolate c[i][j] from the coefficient functionals y -> L(y).coeffs[i],
    # each a q-polynomial in y, through its values on the power basis
    images = [L(b) for b in E.basis()]
    S = Semifield(
        E, [interpolate(E, [img.coeffs[i] for img in images]).coeffs for i in range(n)]
    )
    R = S._right_mult_polys()
    if not all(R[y].evaluate(1) == y and R[1].evaluate(y) == y for y in E.elements()):
        raise AssertionError("1 must be a two-sided identity of the recovered product")
    return S


# ----------------------------------------------------------------------
# equivalence and automorphisms (exhaustive, one solve per double coset)
# ----------------------------------------------------------------------

def _gl_codes(fld, n: int) -> tuple[list[int], tuple[list[int], ...], tuple[list[int], ...]]:
    """(where, rows, cols): GL_n(q) enumerated in increasing order of the
    codes of its matrices, the code of a matrix being sum of
    mat[r][c] * q^(r*n + c).
      - where[code] is the index of the element of that code, for each of
        the q^(n^2) codes (0 off GL);
      - rows[r][i] is digit r of the code of element i in base Q = q^n,
        the code of its row r, a vector v of GF(q)^n having the code sum
        of v[k] * q^k;
      - cols[c][i] is the code of its column c.

    The rows are chosen from the most significant down, each from the row
    codes range(Q) outside the span of the rows above it, that span a set
    of row codes grown by `linalg.grow_span`; so the codes come out
    sorted, with their row and column digits, and no rank is computed."""
    q = fld.order
    Q = q**n
    add_tab, scale = linalg.row_arithmetic(fld, n)
    digit = [[v // q**c % q for v in range(Q)] for c in range(n)]
    codes: list[int] = []
    rows: tuple[list[int], ...] = tuple([] for _ in range(n))
    cols: tuple[list[int], ...] = tuple([] for _ in range(n))
    chosen = [0] * n

    def extend(prefix: int, span: set[int], r: int, col_prefix: list[int]) -> None:
        free = [v for v in range(Q) if v not in span]
        if r == 0:
            codes.extend([prefix + v for v in free])
            rows[0].extend(free)
            for k in range(1, n):
                rows[k].extend(repeat(chosen[k], len(free)))
            for c in range(n):
                cols[c].extend(map(add, repeat(col_prefix[c]), map(digit[c].__getitem__, free)))
            return
        for v in free:
            chosen[r] = v
            grown = linalg.grow_span(span, v, add_tab, scale)
            col_next = [x + digit[c][v] * q**r for c, x in enumerate(col_prefix)]
            extend((prefix + v) * Q, grown, r - 1, col_next)

    extend(0, {0}, n - 1, [0] * n)
    if len(codes) != gl_order(n, fld):
        raise AssertionError("GL_n(q) enumeration must match |GL_n(q)|")
    where = [0] * q ** (n * n)
    for i, code in enumerate(codes):
        where[code] = i
    return where, rows, cols


def _matrix_code(mat: linalg.Matrix, q: int) -> int:
    """The enumeration code of mat: sum of mat[r][c] * q^(r*n + c)."""
    code = 0
    for row in reversed(mat):
        for x in reversed(row):
            code = code * q + x
    return code


def _pair_budget(C: LinPolyCode) -> int:
    """The worst case of one scan: the |GL_n(q)| codes of its build, then
    one `_LeftSolver.hits` per (rho, g); or the row-code tables of the
    build, when they are larger (n = 1, or n = 2 with q <= 3)."""
    fld, n = C.field.base, C.field.n
    return max((1 + fld.h) * gl_order(n, fld), linalg.row_arithmetic_size(fld.order, n))


def _left_multiplier_rows(
    checks: Sequence[Sequence[int]], dmats: Sequence[linalg.Matrix], n: int, fld
) -> Iterator[linalg.Vector]:
    """The constraint rows of {A : A . D in span(C) for all D in dmats}:
    <H, A . D> = <H . D^T, A> for each check H, read as an n x n matrix.
    A generator: each row is made when `linalg.solution_space` pulls it."""
    dts = [tuple(zip(*D)) for D in dmats]
    for H in ([h[r * n : (r + 1) * n] for r in range(n)] for h in checks):
        for Dt in dts:
            yield sum(linalg.mat_mul(H, Dt, fld), ())


def _right_idealizer_rows(
    checks: Sequence[Sequence[int]], cmats: Sequence[linalg.Matrix], n: int, fld
) -> list[linalg.Vector]:
    """The constraint rows of {A : M . A in span(C) for all M in cmats},
    `checks` spanning the orthogonal complement of C (flattened):
    <H, M . A> = <M^T . H, A> for each check H, read as an n x n matrix.
    `LinPolyCode.right_idealizer_rows` keeps them for the canonical basis."""
    mts = [tuple(zip(*M)) for M in cmats]
    return [
        sum(linalg.mat_mul(Mt, H, fld), ())
        for H in ([h[r * n : (r + 1) * n] for r in range(n)] for h in checks)
        for Mt in mts
    ]


def _left_multiplier_space(
    checks: Sequence[Sequence[int]], dmats: Sequence[linalg.Matrix], n: int, fld
) -> linalg.Matrix:
    """Basis of {A in GF(q)^(n x n) : A . D in span(C) for all D in dmats},
    where `checks` spans the orthogonal complement of C (flattened): the
    left idealizer, and a scan's solve when C2^rho has no invertible
    element."""
    return linalg.solution_space(_left_multiplier_rows(checks, dmats, n, fld), n * n, fld)


def _invertible_in_space(
    space: linalg.Matrix, n: int, fld, budget: int
) -> Iterator[linalg.Matrix]:
    """The invertible n x n matrices in the span of `space` (flattened)."""
    size = fld.order ** len(space)
    charge(size, budget, f"{size} matrices of a {len(space)}-dim space")
    for vec in linalg.span_elements(space, fld):
        if not any(vec):
            continue
        mat = tuple(vec[r * n : (r + 1) * n] for r in range(n))
        if linalg.rank(mat, fld) == n:
            yield mat


class _LeftSolver:
    """hits(g), the number of invertible A with A . M . g in C1 for every
    basis matrix M of C2^rho, for one (scan, rho).

    An anchor M0, an invertible element of C2^rho (a basis matrix if one
    is invertible, else the first in span order), makes D0 = M0 . g
    invertible, and A . D0 lies in C1 iff A = X . D0^-1 for some X in C1;
    A <-> X keeps invertibility.  So hits(g) counts the invertible X =
    sum_j x_j B_j, B_j the canonical basis of C1, with X . Y in C1 for
    each Y = g^-1 . N . g, N = M0^-1 . M for every basis matrix M other
    than M0: a kernel in the k coordinates x, whose constraint rows are
    <H, B_j . Y> = <B_j^T . H, Y> over j, one per check H of C1 and Y.
    The N are made once per solver, and the B_j^T . H once per code C1
    (`LinPolyCode.right_idealizer_rows`); a g costs one inverse and the
    conjugates Y the kernel pulls, and the kernel is usually {0} after
    about k rows.  A code with no invertible element has no anchor, and
    each g is then solved on the n^2 entries of A (`_left_multiplier_space`)."""

    def __init__(self, C1: LinPolyCode, mats: Sequence[linalg.Matrix], budget: int):
        fld, n = C1.field.base, C1.field.n
        self.fld, self.n, self.budget = fld, n, budget
        self.C1, self.mats = C1, mats
        anchor = next((M for M in mats if linalg.rank(M, fld) == n), None)
        if anchor is None:
            flat = [sum(M, ()) for M in mats]
            anchor = next(_invertible_in_space(flat, n, fld, budget), None)
        self.anchor = anchor
        if anchor is None:
            return
        inv = linalg.mat_inv(anchor, fld)
        self.others = [linalg.mat_mul(inv, M, fld) for M in mats if M != anchor]
        # row (h, j) of weights is B_j^T . H_h flattened, B_j the canonical
        # basis, sparser than the basis polynomials' matrices; columns maps
        # x to X flattened
        canon = C1.matrix_code
        self.k = canon.dim
        self.weights = C1.right_idealizer_rows()
        self.columns = tuple(zip(*canon.basis))

    def _rows(self, g: linalg.Matrix) -> Iterator[linalg.Vector]:
        """The constraint rows on x, one per check and conjugate Y: the
        entries of all checks are one product of the weights with Y, each Y
        made when `linalg.solution_space` first pulls one of its rows."""
        fld, k = self.fld, self.k
        g_inv = linalg.mat_inv(g, fld)
        for N in self.others:
            y = sum(linalg.mat_mul(linalg.mat_mul(g_inv, N, fld), g, fld), ())
            entries = linalg.mat_vec(self.weights, y, fld)
            for i in range(0, len(entries), k):
                yield entries[i : i + k]

    def hits(self, g: linalg.Matrix) -> int:
        fld, n = self.fld, self.n
        if self.anchor is None:
            dmats = [linalg.mat_mul(M, g, fld) for M in self.mats]
            space = _left_multiplier_space(self.C1.check_rows(), dmats, n, fld)
        else:
            kernel = linalg.solution_space(self._rows(g), self.k, fld)
            space = [linalg.mat_vec(self.columns, x, fld) for x in kernel]
        return sum(1 for _ in _invertible_in_space(space, n, fld, self.budget))


class _GLProducts:
    """GL_n(q) and its products on the indices of its enumeration
    `_gl_codes`, with the permutation tables and the double-coset
    partitions (`_double_cosets`) made so far, kept in `tables` by
    (side, element) and by ("cosets", generators).

    Only the digit lists of rows and columns are kept; a matrix is decoded
    where one is needed.  A product by a fixed element is a permutation
    table, a list whose entry x is the index of the product with x:
      - x . s: row r of x . s is (row r of x) . s, so one image table on
        GF(q)^n maps each row digit of x;
      - u . x: column c of u . x is u . (column c of x), so one image
        table maps each column digit.
    A table sums the images to codes by C-level `map` over the digit lists
    of all of GL, and reads their indices off `where`."""

    def __init__(self, fld, n: int):
        self.where, self.rows, self.cols = _gl_codes(fld, n)
        self.fld, self.n = fld, n
        self.tables: dict = {}
        self.q = q = fld.order
        self.Q = Q = q**n
        self.add, self.scale = linalg.row_arithmetic(fld, n)
        self.vectors = [tuple(v // q**c % q for c in range(n)) for v in range(Q)]
        # spread[w]: what a column of code w adds to the code of a matrix
        # when it is column 0
        self.spread = [sum(x * Q**r for r, x in enumerate(v)) for v in self.vectors]
        self.identity = self.index(linalg.identity(n))

    def matrix(self, i: int) -> linalg.Matrix:
        """The matrix of index i, decoded from its row digits."""
        return tuple(self.vectors[row[i]] for row in self.rows)

    def index(self, mat: linalg.Matrix) -> int:
        """The index of mat; ValueError if mat is not an element of GL_n(q)
        (singular, of another shape, or with entries outside range(q))."""
        code = _matrix_code(mat, self.q)
        i = self.where[code] if 0 <= code < len(self.where) else 0
        if self.matrix(i) != tuple(map(tuple, mat)):
            raise ValueError(f"{mat} is not an element of GL_{self.n}({self.q})")
        return i

    def _image(self, vecs: Sequence[int]) -> list[int]:
        """image[v], the code of sum_k v[k] * vecs[k], for every v in
        GF(q)^n; the vectors vecs are given by their codes."""
        add_tab, scale, Q = self.add, self.scale, self.Q
        image = []
        for v in self.vectors:
            acc = 0
            for a, w in zip(v, vecs):
                if a:
                    acc = add_tab[acc * Q + scale[a][w]]
            image.append(acc)
        return image

    def _right_parts(self, s: int) -> list[list[int]]:
        """parts[r][v] = (v . s) * Q^r, what row r = v of x adds to the code
        of x . s; v . s is sum_k v[k] * (row k of s)."""
        image = self._image([row[s] for row in self.rows])
        return [[t * self.Q**r for t in image] for r in range(self.n)]

    def _table(self, parts: Sequence[Sequence[int]], digits: Sequence[Sequence[int]]) -> list[int]:
        """The permutation x -> the index of the code sum_k
        parts[k][digits[k][x]], summed over all of GL at C level."""
        codes = map(parts[0].__getitem__, digits[0])
        for part, column in zip(parts[1:], digits[1:]):
            codes = map(add, codes, map(part.__getitem__, column))
        return list(map(self.where.__getitem__, codes))

    def right_table(self, s: int) -> list[int]:
        """The permutation x -> the index of x . s."""
        key = ("right", s)
        if key not in self.tables:
            self.tables[key] = self._table(self._right_parts(s), self.rows)
        return self.tables[key]

    def left_table(self, u: int) -> list[int]:
        """The permutation x -> the index of u . x: column c = w of x
        becomes u . w = sum_k w[k] * (column k of u)."""
        key = ("left", u)
        if key not in self.tables:
            image = self._image([col[u] for col in self.cols])
            parts = [[self.spread[t] * self.q**c for t in image] for c in range(self.n)]
            self.tables[key] = self._table(parts, self.cols)
        return self.tables[key]

    def generators(self, elements: Iterable[int], first: Sequence[int] = ()) -> list[int]:
        """Generators of the group generated by `first` and `elements`
        (indices).  The elements of `first` are tried in their order, then
        the others by decreasing order, and each one outside the group
        generated by those kept so far is kept, so a cyclic group gets one
        generator.  The group, small, is closed through each kept
        generator's row table, one product at a time."""
        where, rows, identity = self.where, self.rows, self.identity
        parts = {x: self._right_parts(x) for x in chain(first, elements)}

        def times(y: int, x: int) -> int:
            return where[sum(part[row[y]] for part, row in zip(parts[x], rows))]

        def order(x: int) -> int:
            k, y = 1, x
            while y != identity:
                k, y = k + 1, times(y, x)
            return k

        rest = sorted((x for x in parts if x not in first), key=order, reverse=True)
        group, gens = {identity}, []
        for x in chain(first, rest):
            if x in group:
                continue
            gens.append(x)
            frontier = list(group)
            while frontier:
                y = frontier.pop()
                for s in gens:
                    z = times(y, s)
                    if z not in group:
                        group.add(z)
                        frontier.append(z)
        return gens


@lru_cache(maxsize=None)
def _gl(E: FiniteField) -> _GLProducts:
    """The GL_n(q) of E = GF(q^n) over GF(q): one object per field, its
    modulus included, so every scan over E shares its tables and
    partitions, and those of another field are never read."""
    return _GLProducts(E.base, E.n)


def _unit_generators(
    gl: _GLProducts, C: LinPolyCode, budget: int, first: Sequence[int] = ()
) -> list[int]:
    """GL indices of generators of the group generated by `first` and
    R*(C), the unit group of the right idealizer of C; the elements of
    `first` are tried first."""
    space = C.right_idealizer_space()
    return gl.generators(map(gl.index, _invertible_in_space(space, gl.n, gl.fld, budget)), first)


def _seeds(E: FiniteField) -> list[linalg.Matrix]:
    """The seeds of an automorphism scan, as matrices over GF(q):
    multiplication by a primitive element of E, and x -> x^q."""
    return [
        LinearizedPoly.scalar(E, E.generator()).to_matrix(),
        LinearizedPoly.monomial(E, 1, 1).to_matrix(),
    ]


def _equivalence_scan(
    C1: LinPolyCode,
    C2: LinPolyCode,
    budget: int | None,
    count_all: bool,
    chunk: tuple[int, int] | None = None,
) -> int:
    """Shared kernel: the number of triples (f, rho, g) of invertible f, g
    and rho in Aut(GF(q)) with f o C2^rho o g = C1; with count_all=False,
    1 at the first hit.

    For each rho, one solve (`_LeftSolver.hits`, in the k coordinates of
    C1) gives hits(g), the number of f with f o C2^rho o g = C1, for the
    whole double coset L . g . H, where L = R*(C2^rho) acts on the left
    and H, starting as R*(C1), on the right; facts (i)-(iv) of the module
    docstring make this exact, and the count is hits x (the number of g
    with a hit).  So at rho = 0 of an automorphism scan L = H = K, the
    group of R*(C1) and the seeds that hit, and every later hit joins K on
    both sides; the rho > 0 passes reuse K as H.  An equivalence scan
    keeps H = R*(C1), since the hits of C2 say nothing about C1's
    automorphisms.

    A pass first takes its known verdicts: the identity's, solved first
    in every pass (at rho = 0 before any unit group or table is built,
    so an equivalence that holds at g = 1 costs one kernel solve), and
    the seeds' at rho = 0 of an automorphism scan.  It then reads the
    partition of GL into the double cosets of the generators of L and H
    (`_double_cosets`, kept with the permutation tables by the field's
    GL, `_gl`, for every scan over the field) and solves the least index
    of each undecided class that meets the slice, in order of least
    index in the slice.  At rho = 0 of an automorphism scan the
    identity's class is K, so a hit is a new generator of K: it is
    appended, the partition of the larger K is read, and the verdicts
    carry over through one index of each decided class.  Since verdicts
    are exact per double coset of any subgroup of G0, the order changes
    no verdict and no count.  A rho whose C2^rho equals an earlier
    pass's has that pass's hits and runs no solve.  Most g give the
    kernel {0}, and `linalg.solution_space` stops pulling constraint
    rows at full rank k, usually after about k rows.

    chunk=(lo, hi) restricts the count to a slice of the GL enumeration;
    counting over a partition of [0, |GL|) sums to the full count, and hit
    existence is independent of the split, so parallel reductions stay
    deterministic.  The identity and the seeds are decided even outside
    the slice, but only indices inside it are counted."""
    E = C1.field
    fld = E.base
    n = E.n
    if C2.field != E:
        raise ValueError("codes live over different fields")
    if C1.dim != C2.dim:
        return 0
    budget = resolve_budget(budget)
    charge(_pair_budget(C1), budget, "equivalence triple search")
    size = gl_order(n, fld)
    lo, hi = chunk if chunk is not None else (0, size)
    if not 0 <= lo <= hi <= size:
        raise ValueError(f"chunk {chunk} is not a slice of the {size} elements of GL")
    whole = (lo, hi) == (0, size)

    # the identity's solve, then an automorphism scan's seeds, before any
    # unit group or table is built
    solver = _LeftSolver(C1, C2.basis_matrices(), budget)
    one = linalg.identity(n)
    first = solver.hits(one)
    if first and not count_all:
        return 1
    aut = C1 == C2
    known = {one: first}
    for seed in _seeds(E) if aut else ():
        if seed not in known:
            known[seed] = solver.hits(seed)
    gl = _gl(E)
    known = {gl.index(g): count for g, count in known.items()}
    seeds = [i for i, count in known.items() if count and i != gl.identity]
    h_gens = _unit_generators(gl, C1, budget, seeds)
    total = 0
    passes: dict[LinPolyCode, int] = {}  # the count of each pass, by C2^rho
    for rho in range(fld.h):
        Crho = C2.twist(rho) if rho else C2
        if Crho in passes:  # the same hits as that earlier pass
            total += passes[Crho]
            continue
        if rho:
            solver = _LeftSolver(C1, Crho.basis_matrices(), budget)
            known = {gl.identity: solver.hits(one)}
            if known[gl.identity] and not count_all:
                return 1
        l_gens = h_gens if Crho == C1 else _unit_generators(gl, Crho, budget)
        while True:
            cls, reps, sizes = _double_cosets(gl, l_gens, h_gens)
            if not whole:
                sizes = Counter(islice(cls, lo, hi))
            verdicts = [None] * len(reps)  # the hits of each class
            for i, count in known.items():
                verdicts[cls[i]] = count
            for c in sizes:
                if verdicts[c] is None:
                    verdicts[c] = count = solver.hits(gl.matrix(reps[c]))
                    if count and not count_all:
                        return 1
                    if count and rho == 0 and aut:  # reps[c] joins K on both sides
                        h_gens.append(reps[c])
                        break
            else:
                break
            # the verdicts carry over to the classes of the larger K
            known = {reps[c]: count for c, count in enumerate(verdicts) if count is not None}
        passes[Crho] = sum(verdicts[c] * k for c, k in sizes.items())
        total += passes[Crho]
    return total


def _double_cosets(
    gl: _GLProducts, l_gens: Sequence[int], h_gens: Sequence[int]
) -> tuple[list[int], list[int], Counter]:
    """The partition of GL_n(q) into the double cosets L . g . H of the
    groups generated by the indices l_gens and h_gens, kept in `gl.tables`
    by generators: (cls, reps, sizes), cls[x] the class of x, reps[c] the
    least index of class c and sizes[c] its size, classes numbered by least
    index.  Each class is walked from its least index through the
    generators' permutation tables.  If `gl.tables` holds the partition of
    one generator fewer on each side, as when a scan's K has grown, its
    classes are joined instead along the last generators' two tables:
    x joins u . x and x . s."""
    key = ("cosets", tuple(l_gens), tuple(h_gens))
    if key in gl.tables:
        return gl.tables[key]
    finer = l_gens and h_gens and gl.tables.get(("cosets", key[1][:-1], key[2][:-1]))
    if finer:
        cls, reps = finer[:2]
        root = list(range(len(reps)))  # union-find over the finer classes
        for table in (gl.left_table(l_gens[-1]), gl.right_table(h_gens[-1])):
            for a, b in set(zip(cls, map(cls.__getitem__, table))):
                while root[a] != a:
                    root[a] = a = root[root[a]]
                while root[b] != b:
                    root[b] = b = root[root[b]]
                root[max(a, b)] = min(a, b)  # a root is the least class of its set
        label, merged = [], []  # the new class of each finer class, the new reps
        for c, r in enumerate(root):  # r <= c: label[r] is known
            label.append(len(merged) if r == c else label[r])
            if r == c:
                merged.append(reps[c])
        cls, reps = list(map(label.__getitem__, cls)), merged
    else:
        perms = [gl.left_table(u) for u in l_gens] + [gl.right_table(s) for s in h_gens]
        cls = [None] * len(gl.rows[0])
        reps = []
        for i in range(len(cls)):
            if cls[i] is None:
                cls[i] = len(reps)
                reps.append(i)
                _walk_cosets(cls, [i], perms)
    gl.tables[key] = cls, reps, Counter(cls)
    return gl.tables[key]


def _walk_cosets(cls: list, queue: list[int], perms: Sequence[Sequence[int]]) -> None:
    """Close the classes under the permutation tables: each index reached
    from one in the queue that has no class yet (None) joins its class."""
    while queue:
        x = queue.pop()
        c = cls[x]
        for table in perms:
            if cls[y := table[x]] is None:
                cls[y] = c
                queue.append(y)


def is_equivalent_bruteforce(C1: LinPolyCode, C2: LinPolyCode, budget: int | None = None) -> bool:
    """Exhaustive equivalence test: exists (f, rho, g) with invertible f, g
    and C1 = f o C2^rho o g.  Deterministic regardless of early exit.  The
    permutation tables of GL_n(q) and the double-coset partitions a scan
    builds stay with the field's GL_n(q), so every scan over the field
    builds each once."""
    return _equivalence_scan(C1, C2, budget, count_all=False) > 0


def aut_group_size_bruteforce(
    C: LinPolyCode, budget: int | None = None, chunk: tuple[int, int] | None = None
) -> int:
    """|Aut(C)|: the exact number of triples (f, rho, g) fixing C.  An
    optional chunk=(lo, hi) slice of the GL sweep supports deterministic
    parallel splitting (chunk counts sum to the total); the tables and
    partitions are shared as in `is_equivalent_bruteforce`."""
    return _equivalence_scan(C, C, budget, count_all=True, chunk=chunk)


# ----------------------------------------------------------------------
# idealizers, centralizer, center
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SubalgebraResult:
    """A subspace of n x n matrices: basis plus its cardinality q^dim."""

    basis: tuple[linalg.Matrix, ...]
    size: int

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class IdealizerResult:
    left: SubalgebraResult
    right: SubalgebraResult
    centralizer: SubalgebraResult
    center: SubalgebraResult


def idealizers(C: LinPolyCode) -> IdealizerResult:
    """Left/right idealizers, centralizer and center of the code, by exact
    linear algebra (no search)."""
    E = C.field
    fld = E.base
    n = E.n
    q = fld.order
    cmats = C.basis_matrices()

    left_space = _left_multiplier_space(C.check_rows(), cmats, n, fld)

    # right idealizer: {A : M . A in C for all basis M}
    right_space = C.right_idealizer_space()

    # centralizer: <H, A M - M A> = 0 for every unit check H and basis M
    units = linalg.identity(n * n)
    rows = [
        tuple(map(fld.sub, a, b))
        for a, b in zip(
            _left_multiplier_rows(units, cmats, n, fld),
            _right_idealizer_rows(units, cmats, n, fld),
        )
    ]
    cent_space = linalg.solution_space(rows, n * n, fld)

    # center = left idealizer meet centralizer: (U cap W)^perp = U^perp + W^perp
    stacked_checks = []
    for space in (left_space, cent_space):
        stacked_checks.extend(linalg.solution_space(space, n * n, fld))
    center_space = linalg.solution_space(stacked_checks, n * n, fld)

    def pack(space: linalg.Matrix) -> SubalgebraResult:
        mats = tuple(
            tuple(tuple(v[r * n : (r + 1) * n]) for r in range(n)) for v in space
        )
        return SubalgebraResult(mats, q ** len(space))

    return IdealizerResult(
        pack(left_space), pack(right_space), pack(cent_space), pack(center_space)
    )


# ----------------------------------------------------------------------
# class census
# ----------------------------------------------------------------------

def twisted_class_census(
    field: FiniteField, budget: int | None = None, aut_sizes: bool = True
) -> list[dict]:
    """Equivalence classes among all twisted-type codes over the field,
    as JSON-able dicts: representative spec, number of distinct codes in
    the class, and (optionally) the brute-forced automorphism group size
    of the representative.

    The class of the field code is given by equiv_to_c0_predicate; the
    test suite checks it against the exact scan.  Every other code is
    tested against the accumulated representatives by
    is_equivalent_bruteforce(representative, code), over any base field,
    so a representative's derived linear algebra serves all its tests.
    Classes are under semilinear equivalence (f, rho, g), so over GF(64)
    with base GF(4) there are 2, not the 3 GF(q)-linear classes of
    class_count_formula.
    """
    classes: list[dict] = []
    reps: list[tuple[LinPolyCode, bool]] = []
    seen: dict[LinPolyCode, int] = {}
    for spec in valid_twisted_specs(field):
        code = spec.code()
        if code in seen:
            continue  # members counts distinct codes, not spec tuples
        is_c0_class = equiv_to_c0_predicate(spec)
        for idx, (rep_code, rep_is_c0) in enumerate(reps):
            if rep_is_c0 == is_c0_class and (
                rep_is_c0
                or is_equivalent_bruteforce(rep_code, code, budget=budget)
            ):
                seen[code] = idx
                classes[idx]["members"] += 1
                break
        else:
            seen[code] = len(reps)
            reps.append((code, is_c0_class))
            classes.append(
                {
                    "spec": spec.to_json(),
                    "equivalent_to_field_code": is_c0_class,
                    "members": 1,
                }
            )
    if aut_sizes:
        for entry, (rep_code, _) in zip(classes, reps):
            entry["aut_size"] = aut_group_size_bruteforce(rep_code, budget=budget)
    return classes
