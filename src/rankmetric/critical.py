"""Point sets in GF(q)^N, distinguishing subspaces, exact and average
densities, the rank-constrained average via Moebius inversion, and the
bridge to block-code weight distributions.

A point set stores one canonical vector per 1-dimensional subspace (first
nonzero coordinate normalized to 1).  All averages are exact Fractions;
asymptotic limit expressions are evaluated as floats.

`delta_bruteforce` is the density sweep of `codes` with another notion
of a bad word: a word whose projective point lies in P, where the sweep
asks for a word of rank < d.  That is the paper's bridge as code: a
code has minimum distance >= d iff it distinguishes the rank-ball point
set of radius d - 1, and the two counts run on one pruned traversal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import exp
from typing import Iterable, Sequence

from . import linalg
from .codes import Grassmannian, _sweep, field_for_order
from .errors import charge, resolve_budget
from .qcomb import binom, qbinom


def canonical_point(vec: Sequence[int], fld) -> tuple[int, ...]:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    for x in vec:
        if x:
            if x == 1:
                return tuple(vec)
            inv = fld.inv(x)
            return tuple(fld.mul(inv, y) for y in vec)
    raise ValueError("zero vector spans no point")


@lru_cache(maxsize=None)
def all_points(N: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Every projective point of GF(q)^N as a canonical vector: the
    vectors of GF(q)^N, in the order linalg.span_elements walks them,
    whose first nonzero entry is 1."""
    walk = linalg.span_elements(linalg.identity(N), field_for_order(q))
    return tuple(v for v in walk if next((x for x in v if x), 0) == 1)


class PointSet:
    """A set of 1-dimensional subspaces of GF(q)^N, canonically stored."""

    __slots__ = ("N", "q", "field", "points", "_span_dim")

    def __init__(self, N: int, q, points: Iterable[Sequence[int]]):
        q = getattr(q, "order", q)
        fld = field_for_order(q)
        canon = {canonical_point(p, fld) for p in points}
        if not canon:
            raise ValueError("a point set must be non-empty")
        if any(len(p) != N for p in canon):
            raise ValueError(f"points must have length N = {N}")
        self.N = N
        self.q = q
        self.field = fld
        self.points = frozenset(canon)
        self._span_dim: int | None = None

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def span_dim(self) -> int:
        if self._span_dim is None:
            self._span_dim = linalg.rank(sorted(self.points), self.field)
        return self._span_dim

    def sorted_points(self) -> list[tuple[int, ...]]:
        return sorted(self.points)

    def __repr__(self) -> str:
        return f"PointSet(N={self.N}, q={self.q}, size={self.size}, rank={self.span_dim})"


def distinguishes(V_rows: Sequence[Sequence[int]], P: PointSet) -> bool:
    """True iff no point of P lies in the row space of V_rows (any
    spanning rows of the subspace)."""
    if not V_rows or len(V_rows[0]) != P.N:
        raise ValueError("subspace and point set live in different spaces")
    rows, pivots = linalg.rref(V_rows, P.field)
    return not any(linalg.in_rowspan(rows, pivots, p, P.field) for p in P.points)


def _subspace_point_masks(N: int, k: int, q: int) -> list[int]:
    """For every k-dim subspace V (canonical order), the bitmask over the
    point index of all_points(N, q) of the points inside V."""
    g = Grassmannian(N, k, q)
    fld = g.field
    points = all_points(N, q)
    masks = []
    for rows in g.iter_range():
        pivots = tuple(next(j for j, x in enumerate(row) if x) for row in rows)
        mask = 0
        for idx, p in enumerate(points):
            if linalg.in_rowspan(rows, pivots, p, fld):
                mask |= 1 << idx
        masks.append(mask)
    return masks


def delta_bruteforce(P: PointSet, k: int, budget: int | None = None) -> Fraction:
    """Exact fraction of k-dim subspaces of GF(q)^N distinguishing P.

    The sweep is the pruned one of the density sweeps in `codes`, with a
    word bad when its projective point lies in P: a partial subspace
    that already holds a point of P is skipped with all its
    completions."""
    N, q = P.N, P.q
    count, total = _sweep(
        P.field, q, 1, N, linalg.identity(N), k, 1, budget,
        f"G_{q}({N},{k}) distinguishing sweep", points=P.points,
    )
    return Fraction(count, total)


def rank_ball_pointset(n: int, m: int, r: int, q, budget: int | None = None) -> PointSet:
    """The point set spanned by the nonzero matrices of rank <= r in
    GF(q)^(n x m), flattened row-major into GF(q)^(nm).  The matrices are
    ranked by one `linalg.span_ranks` walk of GF(q)^(n x m), charged once
    before it starts: the larger of q^(nm) and the row-code tables of
    GF(q)^m.  Of each point only the matrix whose first nonzero entry is
    1, its canonical vector, is decoded."""
    q = getattr(q, "order", q)
    if not 1 <= r <= min(n, m):
        raise ValueError("need 1 <= r <= min(n, m)")
    fld = field_for_order(q)
    cost = max(q ** (n * m), linalg.row_arithmetic_size(q, m))
    charge(cost, resolve_budget(budget), "rank-ball point scan")
    # E_ij in row-major order, and the entries of each row code
    basis = [[e[i * m : (i + 1) * m] for i in range(n)] for e in linalg.identity(n * m)]
    row = [tuple(v // q**c % q for c in range(m)) for v in range(q**m)]
    # one matrix per point, the one whose first nonzero entry is 1: the
    # lowest nonzero digit of its first nonzero row code
    monic = {v for v, entries in enumerate(row) if next(filter(None, entries), 0) == 1}
    pts = [
        tuple(itertools.chain.from_iterable(map(row.__getitem__, codes)))
        for rank, codes in linalg.span_ranks(basis, fld)
        if 0 < rank <= r and next(filter(None, codes)) in monic
    ]
    return PointSet(n * m, q, pts)


# ----------------------------------------------------------------------
# size-constrained averages
# ----------------------------------------------------------------------

def avg_density_formula(N: int, k: int, ell: int, q) -> Fraction:
    """Average of delta over all point sets of size ell:
    C((q^N-q^k)/(q-1), ell) / C((q^N-1)/(q-1), ell)."""
    q = getattr(q, "order", q)
    if N < 1 or not 0 <= k <= N:
        raise ValueError(f"need N >= 1 and 0 <= k <= N, got N={N}, k={k}")
    npoints = (q**N - 1) // (q - 1)
    if not 1 <= ell <= npoints:
        raise ValueError(f"need 1 <= ell <= {npoints}, got {ell}")
    outside = (q**N - q**k) // (q - 1)
    return Fraction(binom(outside, ell), binom(npoints, ell))


def avg_density_exhaustive(
    N: int, k: int, ell: int, q, budget: int | None = None
) -> Fraction:
    """Oracle for avg_density_formula: the exact mean of delta over every
    point set of size ell, by full enumeration."""
    q = field_for_order(getattr(q, "order", q)).order
    npoints = (q**N - 1) // (q - 1)
    if not 1 <= ell <= npoints:
        raise ValueError(f"need 1 <= ell <= {npoints}, got ell = {ell}")
    nsets = binom(npoints, ell)
    total = qbinom(N, k, q)
    # one membership test per (subspace, point), one mask test per
    # (point set, subspace)
    charge(
        total * (npoints + nsets),
        resolve_budget(budget),
        f"{total} subspaces against {npoints} points and {nsets} point sets",
    )
    points = all_points(N, q)
    masks = _subspace_point_masks(N, k, q)
    acc = Fraction(0)
    for combo in itertools.combinations(range(len(points)), ell):
        sub = 0
        for i in combo:
            sub |= 1 << i
        good = sum(1 for m in masks if not (m & sub))
        acc += Fraction(good, total)
    return acc / nsets


def avg_density_limit_qlarge(N: int, k: int, s: int, q) -> float:
    """Limit expression exp(-q^(k+s-N)) for point sets of size ~ q^s."""
    q = getattr(q, "order", q)
    if not 1 <= s < N - 1:
        raise ValueError("need 1 <= s < N-1")
    return exp(-float(q) ** (k + s - N))

def avg_density_limit_mlarge(
    n: int, k_prime: int, r: int, ell_prime: float, m: int, q
) -> float:
    """Limit expression exp(-ell' q^(m(k'+r-n))) for the column-scaling
    regime."""
    q = getattr(q, "order", q)
    if not (1 <= k_prime < n and 1 <= r < n):
        raise ValueError("need 1 <= k', r < n")
    return exp(-ell_prime * float(q) ** (m * (k_prime + r - n)))


def ball_avg_limit(n: int, d: int, q, regime: str) -> float:
    """The two limit values of the average density at the rank-ball's
    cardinality: exp(-q^(d(n-d+2)-n-2)) as q grows, and
    exp(-qbinom(n,d-1,q)/(q-1)) as the column length grows."""
    q = getattr(q, "order", q)
    if regime == "q_large":
        return exp(-float(q) ** (d * (n - d + 2) - n - 2))
    if regime == "m_large":
        return exp(-qbinom(n, d - 1, q) / (q - 1))
    raise ValueError(f"unknown regime {regime!r}")


def avg_asymptotics(regime: str, **params) -> float:
    """Dispatcher over the limit expressions above.

    regime='q_large': (N, k, s, q) or the ball instance (n, d, q);
    regime='m_large': (n, k_prime, r, ell_prime, m, q) or (n, d, q).
    """
    if regime not in ("q_large", "m_large"):
        raise ValueError(f"unknown regime {regime!r}")
    if "d" in params:
        return ball_avg_limit(params["n"], params["d"], params["q"], regime)
    if regime == "q_large":
        return avg_density_limit_qlarge(
            params["N"], params["k"], params["s"], params["q"]
        )
    return avg_density_limit_mlarge(
        params["n"],
        params["k_prime"],
        params["r"],
        params["ell_prime"],
        params["m"],
        params["q"],
    )


# ----------------------------------------------------------------------
# rank-constrained averages (Moebius inversion)
# ----------------------------------------------------------------------

def lambda_count(N: int, s: int, ell: int, rho: int, q) -> int:
    """Number of point sets of size ell and span dimension rho that a fixed
    s-dimensional subspace distinguishes.

    Double sum with Moebius sign (-1)^(rho-i) q^C(rho-i,2); binomials of
    deficient arguments are zero, and every t > i term is killed by the
    vanishing q-binomial C(N-s, i-t) before the ordinary binomial of a
    negative integer could contribute.
    """
    q = getattr(q, "order", q)
    if not 2 <= rho <= N:
        raise ValueError("need 2 <= rho <= N")
    if not rho <= ell <= (q**rho - 1) // (q - 1):
        raise ValueError("need rho <= ell <= (q^rho-1)/(q-1)")
    if not 0 <= s <= N:
        raise ValueError("need 0 <= s <= N")
    total = 0
    for i in range(rho + 1):
        inner = 0
        for t in range(s + 1):
            qb = qbinom(s, t, q) * qbinom(N - s, i - t, q)
            if qb == 0:
                continue
            sets = binom((q**i - q**t) // (q - 1), ell)
            if sets == 0:
                continue
            inner += sets * qb * q ** ((s - t) * (i - t))
        if inner:
            sign = (-1) ** (rho - i)
            total += sign * q ** binom(rho - i, 2) * qbinom(N - i, rho - i, q) * inner
    return total


@lru_cache(maxsize=None)
def _pointset_histogram(N: int, ell: int, q: int) -> dict[tuple[int, int], int]:
    """Histogram over (span rank, min over points of the largest nonzero
    coordinate index) of all point sets of size ell in GF(q)^N.

    A point lies in the coordinate subspace V_s = <e_0..e_(s-1)> iff its
    largest nonzero index is < s, so V_s distinguishes the set iff
    s <= min_maxidx.

    The ell-subsets of `all_points` are walked depth-first, in
    itertools.combinations order.  Each prefix carries the row codes of
    its span (`linalg.grow_span`), its rank and its min max-index, and a
    new point raises the rank iff its code is not in the span; no rank
    is computed.  The caller charges the row-code tables."""
    fld = field_for_order(q)
    add, scale = linalg.row_arithmetic(fld, N)
    points = all_points(N, q)
    codes = [sum(x * q**c for c, x in enumerate(p)) for p in points]
    maxidx = [max(j for j, x in enumerate(p) if x) for p in points]
    hist: dict[tuple[int, int], int] = {}

    def walk(start: int, depth: int, span: set[int], rank: int, low: int) -> None:
        last = depth == ell - 1
        for i in range(start, len(points) - (ell - 1 - depth)):
            code, m = codes[i], min(low, maxidx[i])
            grows = code not in span
            if last:
                key = (rank + grows, m)
                hist[key] = hist.get(key, 0) + 1
            elif grows:
                walk(i + 1, depth + 1, linalg.grow_span(span, code, add, scale), rank + 1, m)
            else:
                walk(i + 1, depth + 1, span, rank, m)

    walk(0, 0, {0}, 0, N)
    return hist


def lambda_exhaustive(
    N: int, s: int, ell: int, rho: int, q, budget: int | None = None
) -> int:
    """Oracle for lambda_count: direct enumeration of all point sets of
    size ell, counting those of rank rho avoided by the coordinate
    subspace <e_0, ..., e_(s-1)>.  (The count is the same for every
    s-dimensional subspace; the test suite cross-checks this.)  rho is
    not restricted: the oracle answers outside the formula's domain too.
    The budget is charged the larger of the number of point sets and the
    size of the row-code tables of GF(q)^N."""
    q = field_for_order(getattr(q, "order", q)).order
    if N < 1:
        raise ValueError(f"need N >= 1, got N = {N}")
    if not 0 <= s <= N:
        raise ValueError(f"need 0 <= s <= N, got s = {s}, N = {N}")
    npoints = (q**N - 1) // (q - 1)
    if not 1 <= ell <= npoints:
        raise ValueError(f"need 1 <= ell <= {npoints}, got ell = {ell}")
    cost = max(binom(npoints, ell), linalg.row_arithmetic_size(q, N))
    charge(cost, resolve_budget(budget), "point-set enumeration")
    hist = _pointset_histogram(N, ell, q)
    return sum(
        count for (r, m), count in hist.items() if r == rho and s <= m
    )


def avg_density_rank_formula(N: int, k: int, ell: int, rho: int, q) -> Fraction:
    """Average density of k-dim distinguishing subspaces over all point
    sets of size ell and rank rho: lambda(N,k,ell,rho)/lambda(N,0,ell,rho)."""
    q = getattr(q, "order", q)
    den = lambda_count(N, 0, ell, rho, q)
    if den == 0:
        raise ValueError(
            f"no point sets of size {ell} and rank {rho} exist in GF({q})^{N}"
        )
    return Fraction(lambda_count(N, k, ell, rho, q), den)


# ----------------------------------------------------------------------
# structured hyperplane-density families
# ----------------------------------------------------------------------

def hyperplane_density_collinear(N: int, i: int, q) -> Fraction:
    """Density of hyperplanes avoiding i points spanning a fixed plane
    (all on one projective line): (q+1-i)(q-1) q^(N-2) / (q^N - 1)."""
    q = getattr(q, "order", q)
    if N < 2 or not 2 <= i <= q + 1:
        raise ValueError("need N >= 2 and 2 <= i <= q+1 collinear points")
    return Fraction((q + 1 - i) * (q - 1) * q ** (N - 2), q**N - 1)


def hyperplane_density_independent(N: int, i: int, q) -> Fraction:
    """Density of hyperplanes avoiding i linearly independent points:
    (q-1)^i q^(N-i) / (q^N - 1)."""
    q = getattr(q, "order", q)
    if not 2 <= i <= N - 1:
        raise ValueError("need 2 <= i <= N-1 independent points")
    return Fraction((q - 1) ** i * q ** (N - i), q**N - 1)


def collinear_pointset(N: int, i: int, q) -> PointSet:
    """i points inside the plane <e_0, e_1>: e_0, e_1, e_0 + c e_1, ..."""
    q = field_for_order(getattr(q, "order", q)).order
    pts = [
        (1,) + (0,) * (N - 1),
        (0, 1) + (0,) * (N - 2),
    ]
    for c in range(1, q):
        pts.append((1, c) + (0,) * (N - 2))
    if i > len(pts):
        raise ValueError(f"a line carries only {q + 1} points")
    return PointSet(N, q, pts[:i])


def independent_pointset(N: int, i: int, q) -> PointSet:
    pts = [tuple(1 if j == t else 0 for j in range(N)) for t in range(i)]
    return PointSet(N, q, pts)


# ----------------------------------------------------------------------
# block-code bridge
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BlockCode:
    """Row space of a full-row-rank N x ell generator matrix over GF(q)."""

    q: int
    generator: linalg.Matrix

    def __post_init__(self):
        fld = field_for_order(self.q)
        if linalg.rank(self.generator, fld) != len(self.generator):
            raise ValueError("generator must have full row rank")
        if any(not any(col) for col in zip(*self.generator)):
            raise ValueError("generator has a zero column")

    @property
    def length(self) -> int:
        return len(self.generator[0])

    @property
    def dim(self) -> int:
        return len(self.generator)


def code_from_pointset(P: PointSet) -> BlockCode:
    """The block code generated by the canonical point representatives as
    columns (deterministic column order).  Requires dim(P) = N."""
    if P.span_dim != P.N:
        raise ValueError("the point set must span the ambient space")
    cols = P.sorted_points()
    gen = tuple(tuple(col[r] for col in cols) for r in range(P.N))
    return BlockCode(P.q, gen)


def weight_distribution(C: BlockCode, budget: int | None = None) -> tuple[int, ...]:
    """(W_0, ..., W_ell) by enumerating all q^N codewords x . G."""
    fld = field_for_order(C.q)
    charge(C.q**C.dim, resolve_budget(budget), "codeword enumeration")
    out = [0] * (C.length + 1)
    for word in linalg.span_elements(C.generator, fld):
        out[sum(1 for w in word if w)] += 1
    return tuple(out)


def hyperplane_density_via_weights(P: PointSet, budget: int | None = None) -> Fraction:
    """delta(X, N-1, P) computed through the associated block code:
    W_ell(C_P) / (q^N - 1)."""
    C = code_from_pointset(P)
    W = weight_distribution(C, budget=budget)
    return Fraction(W[C.length], P.q**P.N - 1)


# ----------------------------------------------------------------------
# arcs and MDS-type formulas
# ----------------------------------------------------------------------

def mds_arc_density(N: int, ell: int, q) -> Fraction:
    """Density of hyperplanes avoiding an arc of ell points:
    (q-1)/(q^N-1) * sum_j (-1)^j C(ell-1, j) q^(N-1-j)."""
    q = getattr(q, "order", q)
    if N < 1 or ell < 2 or ell < N:
        raise ValueError("need N >= 1 and ell >= max(2, N) for an arc spanning the space")
    acc = 0
    for j in range(N):
        acc += (-1) ** j * binom(ell - 1, j) * q ** (N - 1 - j)
    return Fraction((q - 1) * acc, q**N - 1)


def moment_curve_arc(N: int, ell: int, q) -> PointSet:
    """An arc of size ell <= q+1: points (1, t, t^2, ..., t^(N-1)) for the
    first field elements t, plus (0, ..., 0, 1) when ell = q+1.  Any N of
    these columns form a Vandermonde block, hence span."""
    fld = field_for_order(getattr(q, "order", q))
    q = fld.order
    if not N <= ell <= q + 1:
        raise ValueError(f"moment-curve arc needs N <= ell <= q+1 = {q + 1}")
    pts = []
    for t in range(min(ell, q)):
        pts.append(tuple(fld.pow(t, e) for e in range(N)))
    if ell == q + 1:
        pts.append((0,) * (N - 1) + (1,))
    return PointSet(N, q, pts)


def arc_plus_point_density(N: int, ell: int, q) -> Fraction:
    """Closed form for the point set 'arc of ell-1 points in a coordinate
    hyperplane, plus the last basis vector':
    (q-1)^2/(q^N-1) * sum_j (-1)^j C(ell-2, j) q^(N-2-j)."""
    q = getattr(q, "order", q)
    if N < 2 or not 2 <= ell <= q - 1:
        raise ValueError("construction needs N >= 2 and 2 <= ell <= q-1")
    acc = 0
    for j in range(N - 1):
        acc += (-1) ** j * binom(ell - 2, j) * q ** (N - 2 - j)
    return Fraction((q - 1) ** 2 * acc, q**N - 1)


def arc_plus_point_gap(N: int, ell: int, q) -> Fraction:
    """arc_plus_point_density - mds_arc_density in closed form:
    (q-1)/(q^N-1) * (-1)^N * C(ell-2, N-1); positive iff N is even and
    ell >= N+1."""
    q = getattr(q, "order", q)
    if N < 2:
        raise ValueError(f"need N >= 2, got N = {N}")
    return Fraction((q - 1) * (-1) ** N * binom(ell - 2, N - 1), q**N - 1)


def arc_plus_point_pointset(N: int, ell: int, q) -> PointSet:
    """The concrete construction behind arc_plus_point_density."""
    q = getattr(q, "order", q)
    if not (N >= 2 and N <= ell <= q - 1):
        raise ValueError("need N <= ell <= q-1 for the concrete construction")
    inner = moment_curve_arc(N - 1, ell - 1, q)
    pts = [p + (0,) for p in inner.sorted_points()]
    pts.append((0,) * (N - 1) + (1,))
    return PointSet(N, q, pts)


# ----------------------------------------------------------------------
# the worked six-row table
# ----------------------------------------------------------------------

def rank_average_table(
    N: int = 10, k: int = 6, ell: int = 31, q: int = 2, rhos: Sequence[int] = (10, 9, 8, 7, 6, 5)
) -> list[tuple[int, Fraction]]:
    """Exact rank-constrained averages for the worked example parameters."""
    return [(rho, avg_density_rank_formula(N, k, ell, rho, q)) for rho in rhos]
