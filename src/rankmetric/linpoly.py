"""The algebra of linearized polynomials sum_i f_i x^(q^i) over GF(q^n).

A polynomial is stored by its unique representative of q-degree < n, i.e.
a coefficient vector of length exactly n (composition is taken modulo
x^(q^n) - x).  Matrix representations are with respect to the power basis
{1, t, ..., t^(n-1)} of the field's modulus root t; this basis is fixed so
that canonical forms and golden values are stable.  Counts and densities
derived from these matrices are basis-independent, which the test suite
checks by recomputing one of them under a second modulus.

`to_matrix` is GF(q)-linear in the coefficients: the matrix of f is the
sum over GF(q) of the matrices of its monomials c x^(q^i).  Each of those
is made once per field, from the images of the power basis under
`evaluate`, and cached; `to_matrix` itself evaluates nothing.  The
inverse map, `from_matrix`, goes through `interpolate`, which solves the
Moore system of the power basis with one inverse cached per field.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Sequence

from . import linalg
from .fields import FiniteField


class LinearizedPoly:
    """f = sum_{i=0}^{n-1} coeffs[i] * x^(q^i) over the given field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: Sequence[int]):
        coeffs = tuple(coeffs)
        if len(coeffs) != field.n:
            raise ValueError(
                f"need exactly n = {field.n} coefficients, got {len(coeffs)}"
            )
        self.field = field
        self.coeffs = coeffs

    # constructors -------------------------------------------------------
    @classmethod
    def zero(cls, field: FiniteField) -> "LinearizedPoly":
        return cls(field, (0,) * field.n)

    @classmethod
    def x(cls, field: FiniteField) -> "LinearizedPoly":
        return cls(field, (1,) + (0,) * (field.n - 1))

    @classmethod
    def monomial(cls, field: FiniteField, c: int, i: int) -> "LinearizedPoly":
        """c * x^(q^i)."""
        coeffs = [0] * field.n
        coeffs[i % field.n] = c
        return cls(field, coeffs)

    @classmethod
    def scalar(cls, field: FiniteField, c: int) -> "LinearizedPoly":
        """The multiplication map x -> c*x."""
        return cls.monomial(field, c, 0)

    # algebra ------------------------------------------------------------
    def __add__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        self._check(other)
        E = self.field
        return LinearizedPoly(E, tuple(E.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        self._check(other)
        E = self.field
        return LinearizedPoly(E, tuple(E.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c: int) -> "LinearizedPoly":
        """Multiply every coefficient by c in GF(q^n)."""
        E = self.field
        return LinearizedPoly(E, tuple(E.mul(c, a) for a in self.coeffs))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearizedPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"LinearizedPoly({self.field!r}, {self.coeffs})"

    def _check(self, other: "LinearizedPoly") -> None:
        if self.field != other.field:
            raise ValueError("field mismatch")

    # the operations of the algebra --------------------------------------
    def evaluate(self, a: int) -> int:
        """f(a); GF(q)-linear in a."""
        E = self.field
        out = 0
        v = a
        for c in self.coeffs:
            if c:
                out = E.add(out, E.mul(c, v))
            v = E.frobenius(v, 1)
        return out

    def compose(self, g: "LinearizedPoly") -> "LinearizedPoly":
        """f o g modulo x^(q^n) - x:  coeff_k = sum_{i+j=k mod n} f_i g_j^(q^i)."""
        self._check(g)
        E = self.field
        n = E.n
        out = [0] * n
        for i, fi in enumerate(self.coeffs):
            if not fi:
                continue
            for j, gj in enumerate(g.coeffs):
                if not gj:
                    continue
                k = (i + j) % n
                out[k] = E.add(out[k], E.mul(fi, E.frobenius(gj, i)))
        return LinearizedPoly(E, out)

    def to_matrix(self) -> linalg.Matrix:
        """Matrix of a -> f(a) over GF(q) w.r.t. the power basis; an algebra
        isomorphism: to_matrix(f o g) == to_matrix(f) . to_matrix(g).  The
        sum over GF(q) of the cached matrices of the monomials of f."""
        E = self.field
        made = _monomial_matrices(E)
        mats = []
        for i, c in enumerate(self.coeffs):
            if c:
                if (c, i) not in made:
                    made[c, i] = _evaluation_matrix(LinearizedPoly.monomial(E, c, i))
                mats.append(made[c, i])
        if not mats:
            return ((0,) * E.n,) * E.n
        if len(mats) == 1:
            return mats[0]
        fld = E.base
        if fld.h == 1:
            p = fld.p
            return tuple(tuple(sum(xs) % p for xs in zip(*rows)) for rows in zip(*mats))
        return tuple(tuple(reduce(fld.add, xs) for xs in zip(*rows)) for rows in zip(*mats))

    def rank(self) -> int:
        """Rank of the induced GF(q)-linear map; n iff f is invertible."""
        return linalg.rank(self.to_matrix(), self.field.base)

    def adjoint(self) -> "LinearizedPoly":
        """sum_i f_i^(q^(n-i)) x^(q^(n-i)): the transpose under the trace
        form, i.e. Tr(f(a)b) == Tr(a adj(f)(b)) for all a, b."""
        E = self.field
        n = E.n
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            if c:
                k = (n - i) % n
                out[k] = E.add(out[k], E.frobenius(c, (n - i) % n))
        return LinearizedPoly(E, out)

    def rho_twist(self, rho: int) -> "LinearizedPoly":
        """Apply the base-field automorphism x -> x^(p^rho) to every
        coefficient (its minimal extension to GF(q^n)); 0 <= rho < h."""
        E = self.field
        h = E.base.h
        if not 0 <= rho < h:
            raise ValueError(f"rho must lie in [0, {h}), got {rho}")
        if rho == 0:
            return self
        e = E.base.p**rho
        return LinearizedPoly(E, tuple(E.pow(c, e) for c in self.coeffs))


def _evaluation_matrix(f: LinearizedPoly) -> linalg.Matrix:
    """The matrix of f from its values: column j is the coordinates of
    f(b_j), b the power basis."""
    E = f.field
    cols = [E.coords(f.evaluate(b)) for b in E.basis()]
    return tuple(tuple(col[r] for col in cols) for r in range(E.n))


@lru_cache(maxsize=None)
def _monomial_matrices(field: FiniteField) -> dict[tuple[int, int], linalg.Matrix]:
    """The matrices of the monomials c x^(q^i) made so far over the field,
    by (c, i); `to_matrix` fills it, each on first use."""
    return {}


@lru_cache(maxsize=None)
def _moore_inverse(field: FiniteField) -> linalg.Matrix:
    """The inverse over GF(q^n) of the Moore matrix M[i][j] = b_i^(q^j) of
    the power basis b, cached per field: f = sum_j c_j x^(q^j) maps b_i to
    (M . c)_i, so c = M^-1 . (f(b_0), ..., f(b_(n-1)))."""
    n = field.n
    moore = tuple(tuple(field.frobenius(b, j) for j in range(n)) for b in field.basis())
    inv = linalg.mat_inv(moore, field)
    if inv is None:
        raise ValueError("Moore matrix of the power basis is singular")
    return inv


def interpolate(field: FiniteField, images: Sequence[int]) -> LinearizedPoly:
    """The unique q-polynomial f with f(b_j) = images[j] on the power basis
    b, solving the Moore system exactly."""
    return LinearizedPoly(field, linalg.mat_vec(_moore_inverse(field), images, field))


def from_matrix(field: FiniteField, mat: Sequence[Sequence[int]]) -> LinearizedPoly:
    """Inverse of to_matrix: the unique q-polynomial inducing the given
    GF(q)-linear map, column j of mat being the coordinates of the image
    of basis element j."""
    return interpolate(field, [field.from_coords(col) for col in zip(*mat)])
