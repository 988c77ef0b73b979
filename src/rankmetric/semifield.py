"""Finite (pre)semifields on GF(q^n), their codes of right-multiplication
maps, generalized twisted fields, and exhaustive equivalence machinery.

A multiplication is stored by its bilinear coefficient array:
x * y = sum_{i,j} c[i][j] x^(q^i) y^(q^j); full multiplication tables are
only materialized on demand.  Codes of q-polynomials are canonicalized
through their matrix representation (RREF of flattened images), so
equivalence tests reduce to set equality of canonical forms.

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
Three facts make the count exact:
  (i) hits(g) is 0 or |L*(C1)|, L*(C1) being the unit group of C1's left
      idealizer: if f0 o C2^rho o g = C1, then f works exactly when
      f . f0^-1 fixes C1;
  (ii) hits(g . s) = hits(g) for every s with C1 . s = C1, and more
      generally for every s with C1 . s = f0 . C1 (f <-> f0^-1 . f);
  (iii) in an automorphism scan (C1 == C2) the rho = 0 hit set is a group
      G0 that contains R*(C1), each of whose elements satisfies (ii), and
      each rho > 0 hit set is a left coset of G0.
So at rho = 0 of an automorphism scan every hit joins H, and the rho > 0
passes reuse that H; an equivalence scan keeps H = R*(C1).  The count is
hits x (the number of g with a hit), which equals the unreduced per-g
sweep (the tests check this against a per-g loop).  No classification
result is assumed.  The monomial search of is_equivalent_monomial is a
documented pruning for twisted-vs-twisted tests only, never the source of
truth.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterator, Sequence

from . import linalg
from .errors import charge, resolve_budget
from .fields import FiniteField
from .linpoly import LinearizedPoly, from_matrix
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
        E = self.field
        n = E.n
        out = 0
        fx = x
        for i in range(n):
            row = self.coeffs[i]
            if any(row):
                fy = y
                for j in range(n):
                    c = row[j]
                    if c:
                        out = E.add(out, E.mul(E.mul(c, fx), fy))
                    fy = E.frobenius(fy, 1)
            fx = E.frobenius(fx, 1)
        return out

    def mult_table(self, budget: int | None = None) -> list[list[int]]:
        if self._table is None:
            E = self.field
            charge(E.order**2, resolve_budget(budget), "semifield multiplication table")
            self._table = [[self.star(x, y) for y in E.elements()] for x in E.elements()]
        return self._table

    def is_presemifield(self, budget: int | None = None) -> bool:
        """No zero divisors, by exhaustive search over nonzero pairs."""
        E = self.field
        charge(E.order**2, resolve_budget(budget), "zero-divisor search")
        for x in E.units():
            for y in E.units():
                if self.star(x, y) == 0:
                    return False
        return True

    def identity(self, budget: int | None = None) -> int | None:
        """The two-sided identity element, or None."""
        E = self.field
        charge(2 * E.order**2, resolve_budget(budget), "identity search")
        for e in E.units():
            if all(self.star(e, x) == x and self.star(x, e) == x for x in E.elements()):
                return e
        return None

    def is_semifield(self, budget: int | None = None) -> bool:
        return self.is_presemifield(budget=budget) and self.identity(budget=budget) is not None

    def right_mult_poly(self, y: int) -> LinearizedPoly:
        """R_y: x -> x*y as a q-polynomial: coeff_i = sum_j c[i][j] y^(q^j)."""
        E = self.field
        n = E.n
        out = []
        for i in range(n):
            acc = 0
            fy = y
            for j in range(n):
                c = self.coeffs[i][j]
                if c:
                    acc = E.add(acc, E.mul(c, fy))
                fy = E.frobenius(fy, 1)
            out.append(acc)
        return LinearizedPoly(E, out)


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
    """Number of equivalence classes among the twisted-field-type codes:
    1 + (q-2)*C(n-1,2)."""
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
    the matrix representation of its basis."""

    __slots__ = ("field", "basis", "_canon")

    def __init__(self, field: FiniteField, polys: Sequence[LinearizedPoly]):
        from .codes import MatrixCode

        flat = [tuple(x for row in p.to_matrix() for x in row) for p in polys]
        rows, _ = linalg.rref(flat, field.base)
        if len(rows) != len(polys):
            raise ValueError("basis polynomials are linearly dependent")
        self.field = field
        self.basis = tuple(polys)
        self._canon = MatrixCode(field.base, field.n, field.n, rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def matrix_code(self):
        return self._canon

    def basis_matrices(self) -> list[linalg.Matrix]:
        return self._canon.basis_matrices()

    def contains(self, f: LinearizedPoly) -> bool:
        vec = tuple(x for row in f.to_matrix() for x in row)
        reduced, pivots = linalg.rref(self._canon.basis, self.field.base)
        return linalg.in_rowspan(reduced, pivots, vec, self.field.base)

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
        mats = [linalg.mat_mul(p.to_matrix(), g, E.base) for p in self.basis]
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


def twisted_code(spec: TwistedFieldSpec) -> LinPolyCode:
    """{xy - c alpha(x) beta(y) | y in GF(q^n)} as an n-dim code."""
    spec.validate()
    E = spec.field
    n = E.n
    polys = []
    for b in E.basis():
        coeffs = [0] * n
        coeffs[0] = b
        i = spec.i % n
        coeffs[i] = E.sub(coeffs[i], E.mul(spec.c, E.frobenius(b, spec.j)))
        polys.append(LinearizedPoly(E, coeffs))
    return LinPolyCode(E, polys)


def semifield_to_code(S: Semifield, check: bool = True, budget: int | None = None) -> LinPolyCode:
    """The code {R_y | y} of right multiplications; MRD with d = n when S
    is a presemifield."""
    if check and not S.is_presemifield(budget=budget):
        raise ValueError("multiplication has zero divisors")
    E = S.field
    return LinPolyCode(E, [S.right_mult_poly(b) for b in E.basis()])


def normalize_contains_x(C: LinPolyCode) -> LinPolyCode:
    """Replace C by C o g^-1 for the first invertible element g of C in
    span-enumeration order; the result contains the polynomial x."""
    E = C.field
    fld = E.base
    for vec in linalg.span_elements(C.matrix_code.basis, fld):
        if not any(vec):
            continue
        n = E.n
        mat = tuple(tuple(vec[r * n : (r + 1) * n]) for r in range(n))
        inv = linalg.mat_inv(mat, fld)
        if inv is not None:
            out = C.compose_right(inv)
            if not out.contains_x():
                raise AssertionError("C o g^-1 must contain x")
            return out
    raise ValueError("code has no invertible element")


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
    # evaluation-at-1 matrix: column t = coords of basis_t(1)
    eval1 = tuple(
        tuple(E.coords(p.evaluate(1))[r] for p in C.basis) for r in range(n)
    )
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
    # each a q-polynomial in y: solve the Moore system over GF(q^n).
    basis = E.basis()
    moore = tuple(tuple(E.frobenius(b, j) for j in range(n)) for b in basis)
    moore_inv = linalg.mat_inv(moore, E)
    if moore_inv is None:
        raise AssertionError("Moore matrix of the power basis must be invertible")
    images = [L(b) for b in basis]
    coeffs = []
    for i in range(n):
        values = tuple(img.coeffs[i] for img in images)
        coeffs.append(linalg.mat_vec(moore_inv, values, E))
    S = Semifield(E, coeffs)
    if not all(S.star(1, y) == y and S.star(y, 1) == y for y in E.elements()):
        raise AssertionError("1 must be a two-sided identity of the recovered product")
    return S


# ----------------------------------------------------------------------
# equivalence and automorphisms (exhaustive, one solve per double coset)
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _invertible_matrices(fld, n: int) -> tuple[tuple[linalg.Matrix, ...], tuple[int, ...]]:
    """All of GL_n(q) in increasing order of their base-q codes, the code
    of a matrix being sum of mat[r][c] * q^(r*n + c), and those codes.
    Cached per (field, n)."""
    q = fld.order
    mats = []
    codes = []
    for code in range(q ** (n * n)):
        e = code
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                row.append(e % q)
                e //= q
            rows.append(tuple(row))
        mat = tuple(rows)
        if linalg.is_invertible(mat, fld):
            mats.append(mat)
            codes.append(code)
    if len(mats) != gl_order(n, fld):
        raise AssertionError("GL_n(q) enumeration must match |GL_n(q)|")
    return tuple(mats), tuple(codes)


def _matrix_code(mat: linalg.Matrix, q: int) -> int:
    """The enumeration code of mat: sum of mat[r][c] * q^(r*n + c)."""
    code = 0
    for row in reversed(mat):
        for x in reversed(row):
            code = code * q + x
    return code


def _pair_budget(C: LinPolyCode) -> int:
    n = C.field.n
    return C.field.base.h * gl_order(n, C.field.base) ** 2


def _left_multiplier_space(
    checks: Sequence[Sequence[int]], dmats: Sequence[linalg.Matrix], n: int, fld
) -> linalg.Matrix:
    """Basis of {A in GF(q)^(n x n) : A . D in span(C) for all D in dmats},
    where `checks` spans the orthogonal complement of C (flattened)."""
    rows = []
    for h in checks:
        hrows = [h[r * n : (r + 1) * n] for r in range(n)]
        for D in dmats:
            row = [0] * (n * n)
            for r in range(n):
                hr = hrows[r]
                for s in range(n):
                    acc = 0
                    Ds = D[s]
                    for c in range(n):
                        if hr[c] and Ds[c]:
                            acc = fld.add(acc, fld.mul(hr[c], Ds[c]))
                    row[r * n + s] = acc
            rows.append(tuple(row))
    return linalg.solution_space(rows, n * n, fld)


def _right_idealizer_space(
    checks: Sequence[Sequence[int]], cmats: Sequence[linalg.Matrix], n: int, fld
) -> linalg.Matrix:
    """Basis of {A in GF(q)^(n x n) : M . A in span(C) for all M in cmats},
    where `checks` spans the orthogonal complement of C (flattened)."""
    rows = []
    for h in checks:
        for M in cmats:
            row = [0] * (n * n)
            for s in range(n):
                for c in range(n):
                    acc = 0
                    for r in range(n):
                        hv = h[r * n + c]
                        if hv and M[r][s]:
                            acc = fld.add(acc, fld.mul(hv, M[r][s]))
                    row[s * n + c] = acc
            rows.append(tuple(row))
    return linalg.solution_space(rows, n * n, fld)


def _invertible_in_space(space: linalg.Matrix, n: int, fld) -> Iterator[linalg.Matrix]:
    """The invertible n x n matrices in the span of `space` (flattened)."""
    for vec in linalg.span_elements(space, fld):
        if not any(vec):
            continue
        mat = tuple(vec[r * n : (r + 1) * n] for r in range(n))
        if linalg.rank(mat, fld) == n:
            yield mat


class _GLProducts:
    """Products in GL_n(q) on the indices of its enumeration.

    Row r of a matrix is digit r of its code in base q^n, a row vector v
    having the code sum of v[c] * q^c.  A product is computed from the row
    codes through addition and scaling tables on GF(q)^n and located by
    bisecting on the sorted codes; nothing is tabulated over all of GL."""

    def __init__(self, fld, n: int):
        self.mats, self.codes = _invertible_matrices(fld, n)
        self.n = n
        self.q = fld.order
        self.Q = fld.order**n
        self.add, self.scale = _row_arithmetic(fld, n)
        self.identity = self.index(linalg.identity(n))

    def index(self, mat: linalg.Matrix) -> int:
        return bisect_left(self.codes, _matrix_code(mat, self.q))

    def _rows(self, code: int) -> list[int]:
        out = []
        for _ in range(self.n):
            code, v = divmod(code, self.Q)
            out.append(v)
        return out

    def _combine(self, coeffs: Sequence[int], rows: Sequence[int]) -> int:
        """The code of sum_k coeffs[k] * rows[k], rows given by their codes."""
        add, scale, Q = self.add, self.scale, self.Q
        acc = 0
        for a, v in zip(coeffs, rows):
            if a:
                acc = add[acc * Q + scale[a][v]]
        return acc

    def right_mul(self, s: int):
        """x -> the index of mats[x] . mats[s]: one table maps each row v
        of mats[x] to v . mats[s]."""
        Q, codes = self.Q, self.codes
        srows = self._rows(codes[s])
        q, n = self.q, self.n
        table = [self._combine([v // q**c % q for c in range(n)], srows) for v in range(Q)]
        shifted = [[t * Q**r for t in table] for r in range(n)]

        def act(x: int) -> int:
            code, out = codes[x], 0
            for tab in shifted:
                code, v = divmod(code, Q)
                out += tab[v]
            return bisect_left(codes, out)

        return act

    def left_mul(self, u: int):
        """x -> the index of mats[u] . mats[x]: row r of the product
        combines the rows of mats[x] by the entries of row r of mats[u]."""
        Q, codes, combine = self.Q, self.codes, self._combine
        urows = self.mats[u][::-1]

        def act(x: int) -> int:
            rows, out = self._rows(codes[x]), 0
            for coeffs in urows:
                out = out * Q + combine(coeffs, rows)
            return bisect_left(codes, out)

        return act

    def generators(self, elements: Iterator[int]) -> list[int]:
        """Generators of the group formed by `elements` (indices): each
        element outside the group generated by those kept so far is kept."""
        group, gens, acts = {self.identity}, [], []
        for x in elements:
            if x in group:
                continue
            gens.append(x)
            acts.append(self.right_mul(x))
            frontier = list(group)
            while frontier:
                y = frontier.pop()
                for act in acts:
                    z = act(y)
                    if z not in group:
                        group.add(z)
                        frontier.append(z)
        return gens


@lru_cache(maxsize=None)
def _row_arithmetic(fld, n: int) -> tuple[list[int], list[list[int]]]:
    """Addition and scaling on the codes of GF(q)^n, the code of v being
    sum of v[c] * q^c: add[v * q^n + w] is the code of v + w and
    scale[a][v] that of a * v.  Cached per (field, n)."""
    q = fld.order
    vecs = [[(v // q**c) % q for c in range(n)] for v in range(q**n)]

    def code(vec) -> int:
        return sum(x * q**c for c, x in enumerate(vec))

    add = [code(map(fld.add, v, w)) for v in vecs for w in vecs]
    scale = [[code(fld.mul(a, x) for x in v) for v in vecs] for a in range(q)]
    return add, scale


def _unit_generators(
    gl: _GLProducts, checks: Sequence[Sequence[int]], mats: Sequence[linalg.Matrix], n: int, fld
) -> list[int]:
    """GL indices of generators of R*, the unit group of the right
    idealizer of the code with basis matrices `mats` and check rows
    `checks`."""
    space = _right_idealizer_space(checks, mats, n, fld)
    return gl.generators(map(gl.index, _invertible_in_space(space, n, fld)))


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

    For each rho, one left-multiplier solve gives hits(g), the number of f
    with f o C2^rho o g = C1, for the whole double coset L . g . H, where
    L = R*(C2^rho) acts on the left and H, starting as R*(C1), on the
    right.  It is exact by the facts of the module docstring:
      (i) hits(g) is 0 or |L*(C1)| (f works iff f . f0^-1 fixes C1), the
          same for every rho, so the count is hits x (the number of g
          with a hit);
      (ii) hits(g . s) = hits(g) whenever C1 . s = f0 . C1;
      (iii) in an automorphism scan the rho = 0 hit set is a group G0
          containing R*(C1), each rho > 0 hit set a left coset of G0.
    So at rho = 0 of an automorphism scan every hit joins H, and the
    rho > 0 passes reuse that H.  The identity is decided first there: its
    double coset contains the group H generates, so every later hit lies
    outside it and is a new generator.  An equivalence scan keeps
    H = R*(C1), since the hits of C2 say nothing about C1's automorphisms.

    Indices are decided in GL order, the state of each kept in a
    bytearray over GL: a solve's verdict is spread along the generators of
    L and H over its double coset, and when H gains a generator every
    index already decided is spread along it too.

    chunk=(lo, hi) restricts the count to a slice of the GL enumeration;
    counting over a partition of [0, |GL|) sums to the full count, and hit
    existence is independent of the split, so parallel reductions stay
    deterministic.  A pass ends as soon as every index of the slice is
    decided."""
    E = C1.field
    fld = E.base
    n = E.n
    if C2.field != E:
        raise ValueError("codes live over different fields")
    if C1.dim != C2.dim:
        return 0
    charge(_pair_budget(C1), resolve_budget(budget), "equivalence triple search")
    checks = linalg.solution_space(C1.matrix_code.basis, n * n, fld)
    gl = _GLProducts(fld, n)
    size = len(gl.codes)
    lo, hi = chunk if chunk is not None else (0, size)
    if not 0 <= lo <= hi <= size:
        raise ValueError(f"chunk {chunk} is not a slice of the {size} elements of GL")
    h_gens = _unit_generators(gl, checks, [p.to_matrix() for p in C1.basis], n, fld)
    rights = [gl.right_mul(s) for s in h_gens]
    hits = total = 0
    for rho in range(fld.h):
        Crho = C2.twist(rho) if rho else C2
        base_mats = [p.to_matrix() for p in Crho.basis]
        if Crho == C1:
            l_gens = h_gens
        else:
            rho_checks = linalg.solution_space(Crho.matrix_code.basis, n * n, fld)
            l_gens = _unit_generators(gl, rho_checks, base_mats, n, fld)
        acts = [gl.left_mul(u) for u in l_gens] + rights
        grow = rho == 0 and C1 == C2
        state = bytearray(size)  # 0 undecided, 1 no hit, 2 hit
        remaining, positives = hi - lo, 0

        def mark(x: int, verdict: int) -> None:
            nonlocal remaining, positives
            state[x] = verdict
            if lo <= x < hi:
                remaining -= 1
                positives += verdict == 2

        for i in chain((gl.identity,) if grow else (), range(lo, hi)):
            if not remaining:
                break
            if state[i]:
                continue
            dmats = [linalg.mat_mul(M, gl.mats[i], fld) for M in base_mats]
            space = _left_multiplier_space(checks, dmats, n, fld)
            count = sum(1 for _ in _invertible_in_space(space, n, fld))
            if count and not count_all:
                return 1
            hits = hits or count
            mark(i, 2 if count else 1)
            queue = [i]
            if count and grow and i != gl.identity:
                act = gl.right_mul(i)
                acts.append(act)
                rights.append(act)
                for x, verdict in enumerate(bytes(state)):
                    if verdict and not state[y := act(x)]:
                        mark(y, verdict)
                        queue.append(y)
            while queue and remaining:
                x = queue.pop()
                verdict = state[x]
                for act in acts:
                    if not state[y := act(x)]:
                        mark(y, verdict)
                        queue.append(y)
        total += hits * positives
    return total


def is_equivalent_bruteforce(
    C1: LinPolyCode, C2: LinPolyCode, budget: int | None = None
) -> bool:
    """Exhaustive equivalence test: exists (f, rho, g) with invertible f, g
    and C1 = f o C2^rho o g.  Deterministic regardless of early exit."""
    return _equivalence_scan(C1, C2, budget, count_all=False) > 0


def aut_group_size_bruteforce(
    C: LinPolyCode, budget: int | None = None, chunk: tuple[int, int] | None = None
) -> int:
    """|Aut(C)|: the exact number of triples (f, rho, g) fixing C.  An
    optional chunk=(lo, hi) slice of the GL sweep supports deterministic
    parallel splitting (chunk counts sum to the total)."""
    return _equivalence_scan(C, C, budget, count_all=True, chunk=chunk)


def is_equivalent_monomial(
    C1: LinPolyCode, C2: LinPolyCode, budget: int | None = None
) -> bool:
    """Pruned twisted-vs-twisted test: search only monomial factors
    f = a x^(q^s), g = b x^(q^t).  Complete for pairs of twisted codes not
    equivalent to the field-multiplication code (and prime fields, h = 1);
    a miss here is NOT a proof of inequivalence in general."""
    E = C1.field
    if E.base.h != 1:
        raise ValueError("monomial pruning implemented for prime fields only")
    n = E.n
    charge(
        (E.order - 1) ** 2 * n * n,
        resolve_budget(budget),
        "monomial equivalence search",
    )
    target = C2.matrix_code
    basis_coeffs = [p.coeffs for p in C1.basis]
    for s in range(n):
        # precompute p-th powers of coefficients once per s
        twisted = [
            [E.frobenius(ck, s) for ck in coeffs] for coeffs in basis_coeffs
        ]
        for t in range(n):
            for a in E.units():
                for b in E.units():
                    polys = []
                    for coeffs_s in twisted:
                        out = [0] * n
                        for k, cks in enumerate(coeffs_s):
                            if cks:
                                pos = (k + t + s) % n
                                val = E.mul(E.mul(a, cks), E.frobenius(b, (k + s) % n))
                                out[pos] = E.add(out[pos], val)
                        polys.append(LinearizedPoly(E, out))
                    try:
                        cand = LinPolyCode(E, polys)
                    except ValueError:
                        continue
                    if cand.matrix_code == target:
                        return True
    return False


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
    cmats = [p.to_matrix() for p in C.basis]
    checks = linalg.solution_space(C.matrix_code.basis, n * n, fld)

    left_space = _left_multiplier_space(checks, cmats, n, fld)

    # right idealizer: {A : M . A in C for all basis M}
    right_space = _right_idealizer_space(checks, cmats, n, fld)

    # centralizer: A M = M A for all basis M
    rows = []
    for M in cmats:
        for r in range(n):
            for c in range(n):
                row = [0] * (n * n)
                for s in range(n):
                    row[r * n + s] = fld.add(row[r * n + s], M[s][c])
                    row[s * n + c] = fld.sub(row[s * n + c], M[r][s])
                rows.append(tuple(row))
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

    Classes are separated by the field-code predicate and, among the
    remaining codes, by monomial equivalence to the accumulated
    representatives (prime fields) or the unpruned search otherwise.  The
    test suite cross-validates this split against the unpruned search.
    """
    classes: list[dict] = []
    reps: list[tuple[LinPolyCode, bool]] = []
    seen: dict[LinPolyCode, int] = {}
    for spec in valid_twisted_specs(field):
        code = spec.code()
        if code in seen:
            continue  # members counts distinct codes, not spec tuples
        is_c0_class = equiv_to_c0_predicate(spec)
        placed = False
        for idx, (rep_code, rep_is_c0) in enumerate(reps):
            if rep_is_c0 != is_c0_class:
                continue
            if rep_is_c0:
                equivalent = True  # both equivalent to the field code
            elif field.base.h == 1:
                equivalent = is_equivalent_monomial(code, rep_code, budget=budget)
            else:
                equivalent = is_equivalent_bruteforce(code, rep_code, budget=budget)
            if equivalent:
                seen[code] = idx
                classes[idx]["members"] += 1
                placed = True
                break
        if not placed:
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
