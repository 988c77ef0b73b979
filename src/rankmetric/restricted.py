"""Density machinery for symmetric, alternating and Hermitian matrix
spaces, the exact 2-dimensional square-code density, and the tensor-ratio
identity between square and rectangular densities.

Rank stratification counts come in two flavors for the Hermitian ambient:
the 'printed' variant of the classical formula, with factors q^j - (-1)^j,
and the 'validated' variant with q^j + (-1)^j.  Direct enumeration (the
arbiter in this package) confirms the validated variant -- already at
(q, n, i) = (2, 1, 1) the printed one counts 3 instead of the enumerated
1 -- so the validated variant is the default everywhere, and the printed
one stays callable for comparison tables.  Both have the same leading
q-power, so every asymptotic statement is unaffected.  The enumeration
counts every rank in one walk of the ambient (`linalg.span_ranks`), row
by row on row-code spans, with no elimination.

The density sweeps of alternating and Hermitian ambients are seeded by
rank, as in `codes._sweep`: X -> AXA^T (alternating) and X -> AXA*
(Hermitian, A invertible over GF(q^2)) preserve the ambient and the rank,
and each is transitive on the matrices of one rank, so `rank_count`
gives the weights A_r.  Symmetric forms stay on the flat sweep: under
X -> AXA^T the symmetric matrices of one rank fall into two orbits (by
the square class of the discriminant for odd q; alternating or not for
even q), whose sizes the seeded identity would need separately and which
are not derived here.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .codes import (
    DensityResult,
    _sweep,
    field_for_order,
    spectrum_free_count,
)
from .errors import charge, resolve_budget
from .fields import FiniteField, make_ext_field
from .qcomb import AsymptoticEstimate, binom, gl_order, matrix_rank_count, qbinom

KINDS = ("symmetric", "alternating", "hermitian", "full")


def ambient_dim(kind: str, n: int, m: int | None = None) -> int:
    """Dimension over GF(q) of the ambient matrix space."""
    if kind == "symmetric":
        return n * (n + 1) // 2
    if kind == "alternating":
        return n * (n - 1) // 2
    if kind == "hermitian":
        return n * n
    if kind == "full":
        return n * (m if m is not None else n)
    raise ValueError(f"unknown kind {kind!r}")


@lru_cache(maxsize=None)
def hermitian_field(q: int) -> FiniteField:
    """GF(q^2) as a degree-2 extension of GF(q); conjugation is x -> x^q."""
    return make_ext_field(field_for_order(q), 2)


@lru_cache(maxsize=None)
def ambient_basis(kind: str, n: int, q: int) -> tuple[linalg.Matrix, ...]:
    """A fixed GF(q)-basis of the ambient, as matrices.

    symmetric:  E_ii, then E_ij + E_ji (i < j);
    alternating: E_ij - E_ji (i < j), zero diagonal in every characteristic;
    hermitian:  E_ii, then w^e E_ij + conj(w^e) E_ji (i < j, e in {0, 1})
                with w the power-basis generator of GF(q^2);
    full:       E_ij in row-major order, the coordinates of
                `codes.density_bruteforce`;
    entries of hermitian matrices live in GF(q^2), all others in GF(q).
    """
    if kind == "symmetric":
        out = []
        for i in range(n):
            out.append(_single(n, i, i, 1))
        for i in range(n):
            for j in range(i + 1, n):
                m = [[0] * n for _ in range(n)]
                m[i][j] = 1
                m[j][i] = 1
                out.append(tuple(tuple(r) for r in m))
        return tuple(out)
    if kind == "alternating":
        fld = field_for_order(q)
        out = []
        for i in range(n):
            for j in range(i + 1, n):
                m = [[0] * n for _ in range(n)]
                m[i][j] = 1
                m[j][i] = fld.neg(1)
                out.append(tuple(tuple(r) for r in m))
        return tuple(out)
    if kind == "hermitian":
        E = hermitian_field(q)
        gen = E.basis()[1] if E.n > 1 else 1
        out = []
        for i in range(n):
            out.append(_single(n, i, i, 1))
        for i in range(n):
            for j in range(i + 1, n):
                for w in (1, gen):
                    m = [[0] * n for _ in range(n)]
                    m[i][j] = w
                    m[j][i] = E.frobenius(w, 1)
                    out.append(tuple(tuple(r) for r in m))
        return tuple(out)
    if kind == "full":
        return tuple(_single(n, i, j, 1) for i in range(n) for j in range(n))
    raise ValueError(f"no coordinate basis for kind {kind!r}")


def _single(n: int, i: int, j: int, v: int) -> linalg.Matrix:
    m = [[0] * n for _ in range(n)]
    m[i][j] = v
    return tuple(tuple(r) for r in m)


def _entry_field(kind: str, q: int):
    return hermitian_field(q) if kind == "hermitian" else field_for_order(q)


def is_member(kind: str, mat: linalg.Matrix, q: int) -> bool:
    """Membership predicate of the ambient (symmetric / alternating with
    zero diagonal / Hermitian conjugate-transpose fixed)."""
    n = len(mat)
    if kind == "symmetric":
        return all(mat[i][j] == mat[j][i] for i in range(n) for j in range(n))
    if kind == "alternating":
        fld = field_for_order(q)
        return all(mat[i][i] == 0 for i in range(n)) and all(
            mat[i][j] == fld.neg(mat[j][i]) for i in range(n) for j in range(n)
        )
    if kind == "hermitian":
        E = hermitian_field(q)
        return all(
            mat[i][j] == E.frobenius(mat[j][i], 1) for i in range(n) for j in range(n)
        )
    if kind == "full":
        return True
    raise ValueError(f"unknown kind {kind!r}")


# ----------------------------------------------------------------------
# rank stratification
# ----------------------------------------------------------------------

def rank_count(kind: str, n: int, i: int, q, variant: str = "validated") -> int:
    """Exact number of rank-i matrices in the ambient.

    symmetric:   prod_{s<=i/2} q^(2s)/(q^(2s)-1) * prod_{s<i} (q^(n-s)-1);
    alternating: C(n,i)_q * sum_s (-1)^(i-s) q^(C(s,2)+C(i-s,2)) C(i,s)_q
                 (zero for odd i);
    hermitian:   C(n,i)_{q^2} * q^(i(i-1)/2) * prod_{j<=i} (q^j +/- (-1)^j),
                 '+' for the enumeration-validated variant (default),
                 '-' for the printed classical form;
    full:        qcomb.matrix_rank_count(n, n, i, q).
    """
    q = getattr(q, "order", q)
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}")
    if kind == "symmetric":
        out = Fraction(1)
        for s in range(1, i // 2 + 1):
            out *= Fraction(q ** (2 * s), q ** (2 * s) - 1)
        for s in range(i):
            out *= q ** (n - s) - 1
        if out.denominator != 1:
            raise AssertionError("symmetric rank count must be integral")
        return out.numerator
    if kind == "alternating":
        acc = 0
        for s in range(i + 1):
            acc += (-1) ** (i - s) * q ** (binom(s, 2) + binom(i - s, 2)) * qbinom(i, s, q)
        return qbinom(n, i, q) * acc
    if kind == "hermitian":
        if variant == "validated":
            sign = 1
        elif variant == "printed":
            sign = -1
        else:
            raise ValueError(f"variant must be 'validated' or 'printed', got {variant!r}")
        prod = 1
        for j in range(1, i + 1):
            prod *= q**j + sign * (-1) ** j
        return qbinom(n, i, q * q) * q ** (i * (i - 1) // 2) * prod
    if kind == "full":
        return matrix_rank_count(n, n, i, q)
    raise ValueError(f"unknown kind {kind!r}")


def rank_distribution_exhaustive(
    kind: str, n: int, q, budget: int | None = None
) -> tuple[int, ...]:
    """Oracle: the number of ambient matrices of each rank 0..n, the
    histogram of one `linalg.span_ranks` walk of the ambient.  q is
    checked first and the budget charged once, before any table or field
    is built: the larger of q^dim, the ambient, and the row-code tables
    over the entry field (GF(q^2) for Hermitian matrices).  An empty
    basis (alternating n = 1) spans the zero matrix alone, of rank 0."""
    q = getattr(q, "order", q)
    if n < 0:
        raise ValueError(f"need n >= 0, got n = {n}")
    field_for_order(q)
    entry_order = q * q if kind == "hermitian" else q
    cost = max(q ** ambient_dim(kind, n), linalg.row_arithmetic_size(entry_order, n))
    charge(cost, resolve_budget(budget), f"enumerating {kind} ambient")
    basis = ambient_basis(kind, n, q)
    counts = [0] * (n + 1)
    for rank, _ in linalg.span_ranks(basis, _entry_field(kind, q), q):
        counts[rank] += 1
    return tuple(counts)


# ----------------------------------------------------------------------
# dimension bounds and densities
# ----------------------------------------------------------------------

def dim_bound(kind: str, n: int, d: int) -> int:
    """An upper bound on the dimension of a code in the ambient with min
    distance d, attained by the restricted MRD codes where any exist.
    None does for alternating forms with n >= 4 even and d = n: on an
    (n-1)-dim code the Pfaffian is a form of degree n/2 in n - 1 > n/2
    variables, with a nontrivial zero by Chevalley-Warning, a word of
    rank <= n - 2.  At n = 4 the largest attained dimension is 2 (q = 2, 3)."""
    if not 2 <= d <= n:
        raise ValueError("need 2 <= d <= n")
    if kind == "symmetric":
        if (n - d) % 2 == 0:
            return n * (n - d + 2) // 2
        return (n + 1) * (n - d + 1) // 2
    if kind == "alternating":
        if d % 2 != 0:
            raise ValueError("alternating ranks are even; d must be even")
        e = d // 2
        t = n // 2
        value = n * (n - 1) * (t - e + 1)
        if value % (2 * t):
            raise AssertionError("alternating dimension bound must be integral")
        return value // (2 * t)
    if kind == "hermitian":
        return n * (n - d + 1)
    if kind == "full":
        return n * (n - d + 1)
    raise ValueError(f"unknown kind {kind!r}")


def _rank_strata(kind: str, n: int, d: int, q: int) -> list | None:
    """(r, A_r, seed) for every rank r >= d held by A_r > 0 alternating or
    Hermitian n x n matrices, the seed being the coordinates over
    ambient_basis of one rank-r matrix: E_r = sum_{i<r} E_ii for
    Hermitian forms, the r/2 blocks E_{2t,2t+1} - E_{2t+1,2t} (t < r/2)
    for alternating ones.  None for symmetric forms (see the module
    docstring)."""
    if kind not in ("alternating", "hermitian"):
        return None
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    strata = []
    for r in range(max(d, 1), n + 1):
        count = rank_count(kind, n, r, q)
        if not count:
            continue  # odd alternating ranks
        if kind == "alternating":
            seed = [int(i % 2 == 0 and j == i + 1 < r) for i, j in pairs]
        else:
            seed = [int(i < r) for i in range(n)] + [0] * (2 * len(pairs))
        strata.append((r, count, seed))
    return strata


def restricted_density_bruteforce(
    kind: str, n: int, k: int, d: int, q, budget: int | None = None
) -> DensityResult:
    """Exact density of k-dim GF(q)-subspaces of the ambient whose nonzero
    elements all have rank >= d, over the coordinate Grassmannian of the
    fixed ambient basis.  Alternating and Hermitian sweeps are seeded by
    rank (see `codes._sweep`), symmetric and full ones flat; the seeded
    sweep of full matrices is `codes.density_bruteforce`."""
    q = getattr(q, "order", q)
    basis = ambient_basis(kind, n, q)
    if not 1 <= k <= len(basis):
        raise ValueError(f"need 1 <= k <= {len(basis)}")
    # coordinate vector e_i stands for basis matrix i
    flat = [[x for row in bm for x in row] for bm in basis]
    t0 = time.perf_counter()
    count, total = _sweep(
        _entry_field(kind, q), q, n, n, flat, k, d, budget, f"{kind} Grassmannian sweep",
        strata=_rank_strata(kind, n, d, q),
    )
    elapsed = (time.perf_counter() - t0) * 1000.0
    return DensityResult(q, n, n, k, d, count, total, "brute_force", elapsed, kind=kind)


# ----------------------------------------------------------------------
# asymptotics
# ----------------------------------------------------------------------

def ball_asymptotic_exponent(kind: str, n: int, r: int, m: int | None = None) -> int:
    """Leading q-exponent of the radius-r ball in the ambient; n x m
    matrices (m = n by default) for `full`, whose ranks are at most
    min(n, m)."""
    m = n if m is None else m
    if not 0 <= r <= (min(n, m) if kind == "full" else n):
        raise ValueError("need 0 <= r <= n, and r <= m for full matrices")
    if kind == "symmetric":
        return n * r - r * (r - 1) // 2
    if kind == "alternating":
        if r % 2 == 0:
            return r * n - r * (r + 1) // 2
        return (r - 1) * n - (r - 1) * r // 2
    if kind == "hermitian":
        return r * (2 * n - r)
    if kind == "full":
        return r * (m + n - r)
    raise ValueError(f"unknown kind {kind!r}")


def sparseness_exponent(
    kind: str, n: int, k: int, d: int, variant: str = "validated"
) -> tuple[AsymptoticEstimate, int | None]:
    """The O(q^E) exponent of the density of k-dim distance->=d codes in
    the ambient as q grows, and the 0/1 limit classification (None on the
    threshold).

    symmetric:   E = n(n+1)/2 - k + 1 - n(d-1) + (d-1)(d-2)/2;
    alternating: E = n(n-1)/2 - k + 1 - (d-2)n + (d-1)(d-2)/2  (d even;
                 an empty family at n >= 4 even, d = n, k = n - 1);
    hermitian:   E = n^2 - k + 1 - (d-1)(2n-d+1) by default; the printed
                 variant (d-1)(2n+d-1) disagrees with the ball exponent
                 r(2n-r) at r = d-1 and with the resulting MRD rate
                 -(d-1)(n-d+1)+1, and is kept only for comparison.
    """
    bound = dim_bound(kind, n, d)  # raises on d, an unknown kind, odd alternating d
    if not 1 <= k <= bound:
        raise ValueError(f"need 1 <= k <= {bound}, the {kind} dimension bound")
    if kind == "symmetric":
        E = n * (n + 1) // 2 - k + 1 - n * (d - 1) + (d - 1) * (d - 2) // 2
    elif kind == "alternating":
        E = n * (n - 1) // 2 - k + 1 - (d - 2) * n + (d - 1) * (d - 2) // 2
    elif kind == "hermitian":
        if variant == "validated":
            E = n * n - k + 1 - (d - 1) * (2 * n - d + 1)
        elif variant == "printed":
            E = n * n - k + 1 - (d - 1) * (2 * n + d - 1)
        else:
            raise ValueError(f"variant must be 'validated' or 'printed', got {variant!r}")
    else:  # full
        E = n * n - k + 1 - (d - 1) * (2 * n - d + 1)
    threshold = E + k  # limit is 1 for k < threshold, 0 for k > threshold
    if k < threshold:
        limit = 1
    elif k > threshold:
        limit = 0
    else:
        limit = None
    return AsymptoticEstimate(Fraction(1), "q", E), limit


# ----------------------------------------------------------------------
# square two-dimensional codes and the tensor identity
# ----------------------------------------------------------------------

def density_2dim_formula(
    n: int, q, s_value: int | None = None, budget: int | None = None
) -> Fraction:
    """Exact density of 2-dimensional full-rank codes in GF(q)^(n x n):
    s_q(n) * |GL_n(q)| / ((q^(n^2)-1)(q^(n^2)-q)).

    s_value may supply a precomputed spectrum-free count; otherwise it is
    obtained by enumeration (budgeted)."""
    q = getattr(q, "order", q)
    if n < 1:
        raise ValueError(f"need n >= 1, got n = {n}")
    if s_value is None:
        s_value = spectrum_free_count(n, q, budget=budget)
    num = s_value
    for i in range(n):
        num *= q**n - q**i
    return Fraction(num, (q ** (n * n) - 1) * (q ** (n * n) - q))


def tensor_ratio(r: int, n: int, q) -> Fraction:
    """|GL_r(q)|/|GL_n(q)| * C(n^2, r)_q / C(rn, n)_q: the exact ratio
    delta(r x n, n, r) / delta(n x n, r, n)."""
    q = getattr(q, "order", q)
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    return Fraction(gl_order(r, q), gl_order(n, q)) * Fraction(
        qbinom(n * n, r, q), qbinom(r * n, n, q)
    )
