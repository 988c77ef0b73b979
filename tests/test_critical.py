"""Point sets, distinguishing densities, averages (size- and
rank-constrained) and the block-code bridge, all against brute force."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmetric import linalg
from rankmetric.codes import Grassmannian, _SpanMinRank, density_bruteforce, field_for_order
from rankmetric.critical import (
    PointSet,
    _pointset_histogram,
    all_points,
    arc_plus_point_density,
    arc_plus_point_gap,
    arc_plus_point_pointset,
    avg_asymptotics,
    avg_density_exhaustive,
    avg_density_formula,
    avg_density_limit_qlarge,
    avg_density_rank_formula,
    ball_avg_limit,
    code_from_pointset,
    collinear_pointset,
    delta_bruteforce,
    distinguishes,
    hyperplane_density_collinear,
    hyperplane_density_independent,
    hyperplane_density_via_weights,
    independent_pointset,
    lambda_count,
    lambda_exhaustive,
    mds_arc_density,
    moment_curve_arc,
    rank_average_table,
    rank_ball_pointset,
    weight_distribution,
)
from rankmetric.errors import BudgetExceededError
from rankmetric.qcomb import binom, qbinom


# ------------------------------------------------------- basic objects

def test_pointset_canonicalization():
    P = PointSet(2, 3, [(2, 1), (1, 2)])
    # (2,1) ~ (1,2) projectively over GF(3): 2*(2,1) = (4,2) = (1,2)
    assert P.size == 1
    assert P.span_dim == 1
    with pytest.raises(ValueError):
        PointSet(2, 2, [])
    with pytest.raises(ValueError):
        PointSet(2, 2, [(0, 0)])


def test_all_points_count():
    assert len(all_points(3, 2)) == 7
    assert len(all_points(2, 3)) == 4
    assert len(all_points(4, 2)) == 15
    assert len(set(all_points(3, 3))) == 13


def test_distinguishes_basics():
    P_inside = PointSet(2, 2, [(1, 0)])
    assert not distinguishes(((1, 0),), P_inside)
    P_outside = PointSet(2, 2, [(0, 1), (1, 1)])
    assert distinguishes(((1, 0),), P_outside)
    # rows that span the space without being in RREF, and a zero row
    assert not distinguishes(((0, 1), (1, 1)), P_inside)
    assert not distinguishes(((1, 0), (0, 0)), P_inside)
    assert distinguishes(((0, 0),), P_inside)
    with pytest.raises(ValueError):
        distinguishes(((1, 0, 0),), P_inside)
    with pytest.raises(ValueError):
        distinguishes((), P_inside)


def test_delta_bruteforce_examples():
    # one point, hyperplanes of GF(2)^2: 2 of the 3 lines avoid it
    P = PointSet(2, 2, [(1, 1)])
    assert delta_bruteforce(P, 1) == Fraction(2, 3)
    # all points: nothing avoids them
    full = PointSet(2, 2, all_points(2, 2))
    assert delta_bruteforce(full, 1) == 0


# (n, m, r) -> the number of 3-dim codes of GF(q)^(n x m) with minimum
# distance >= r + 1, by q
RANK_BALL_K3 = {2: {(3, 3, 1): 382056, (3, 3, 2): 192}, 3: {(2, 3, 1): 3456}}


@pytest.mark.parametrize("q", [2, 3])
def test_rank_ball_instance_matches_matrix_density(q):
    # the 2x2 rank-metric instance: avoiding the radius-1 ball equals
    # having min distance >= 2
    P = rank_ball_pointset(2, 2, 1, q)
    from rankmetric.qcomb import pointset_size

    assert P.size == pointset_size(2, 2, 1, q)
    for k in range(1, 5):
        lhs = delta_bruteforce(P, k)
        rhs = density_bruteforce(2, 2, k, 2, q).density
        assert lhs == rhs
    for (n, m, r), count in RANK_BALL_K3[q].items():
        expected = Fraction(count, qbinom(n * m, 3, q))
        assert delta_bruteforce(rank_ball_pointset(n, m, r, q), 3) == expected
        assert density_bruteforce(n, m, 3, r + 1, q).density == expected


def flat_rank_ball_points(n, m, r, q):
    """The flat walk: every matrix of GF(q)^(n x m) by `span_elements`,
    ranked by elimination, the nonzero ones of rank <= r kept."""
    fld = field_for_order(q)
    return [
        flat
        for flat in linalg.span_elements(linalg.identity(n * m), fld)
        if any(flat) and linalg.rank([flat[i * m : (i + 1) * m] for i in range(n)], fld) <= r
    ]


@pytest.mark.parametrize(
    "n,m,r,q",
    [(1, 1, 1, 2), (1, 3, 1, 3), (3, 1, 1, 4), (2, 2, 1, 2), (2, 2, 2, 3), (2, 2, 1, 4),
     (2, 3, 1, 3), (3, 2, 2, 3), (3, 3, 1, 2), (3, 3, 2, 2), (2, 2, 1, 5)],
)
def test_rank_ball_pointset_matches_the_flat_walk(n, m, r, q):
    P = rank_ball_pointset(n, m, r, q)
    assert P.points == PointSet(n * m, q, flat_rank_ball_points(n, m, r, q)).points


def test_rank_ball_pointset_charges_once_before_the_walk(monkeypatch):
    # GF(3)^(2 x 3) has 3^6 matrices and GF(3)^3 tables of 3^6 + 3^4
    # entries: one charge of 810, and no walk under a smaller budget
    from rankmetric import critical

    charges = []
    real_charge = critical.charge

    def recording_charge(cost, budget, what):
        charges.append(cost)
        real_charge(cost, budget, what)

    monkeypatch.setattr(critical, "charge", recording_charge)
    assert rank_ball_pointset(2, 3, 1, 3).size == 52
    assert charges == [810]

    def tripwire(*args):
        raise AssertionError("walk started before the budget charge")

    monkeypatch.setattr(linalg, "span_ranks", tripwire)
    monkeypatch.setattr(linalg, "row_arithmetic", tripwire)
    with pytest.raises(BudgetExceededError, match="810 steps"):
        rank_ball_pointset(2, 3, 1, 3, budget=809)


def reference_distinguishing_counts(P, k, bounds):
    """For each chunk [bounds[i], bounds[i+1]) of the canonical order, the
    number of its k-dim subspaces that distinguish P, one membership test
    per subspace; the zero subspace (k = 0) distinguishes every set."""
    g = Grassmannian(P.N, k, P.q)
    return [
        sum(1 for rows in g.iter_range(lo, hi) if not rows or distinguishes(rows, P))
        for lo, hi in zip(bounds, bounds[1:])
    ]


# (q, N, k) with at most 1,000 subspaces; q = 2 and 4 sum words by XOR,
# q = 3 and 5 by the odd-characteristic arm (q = 4 has a non-prime field)
DELTA_SHAPES = [
    (q, N, k)
    for q in (2, 3, 4, 5)
    for N in range(1, 7)
    for k in range(N + 1)
    if qbinom(N, k, q) <= 1000
]


@st.composite
def delta_cases(draw):
    q, N, k = draw(st.sampled_from(DELTA_SHAPES))
    fld = field_for_order(q)
    pts = draw(st.lists(st.sampled_from(all_points(N, q)), min_size=1, max_size=12))
    # scale each point by a random unit, so P is not given canonically
    units = st.integers(1, q - 1)
    P = PointSet(N, q, [tuple(fld.mul(draw(units), x) for x in p) for p in pts])
    total = qbinom(N, k, q)
    cuts = draw(st.lists(st.integers(0, total), max_size=5))
    return P, k, [0] + sorted(cuts) + [total]


@given(delta_cases())
@settings(max_examples=120, deadline=None)
def test_delta_bruteforce_matches_flat_reference(case):
    P, k, bounds = case
    expected = reference_distinguishing_counts(P, k, bounds)
    g = Grassmannian(P.N, k, P.q)
    kernel = _SpanMinRank(g.field, P.q, 1, P.N, P.points)
    units = [kernel.vec(row) for row in linalg.identity(P.N)]
    chunks = [kernel.count(g, units, 1, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert chunks == expected
    assert delta_bruteforce(P, k) == Fraction(sum(expected), g.total)


# ------------------------------------------------------- averages

@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("N", [2, 3])
def test_avg_density_formula_equals_exhaustive(N, q):
    npoints = (q**N - 1) // (q - 1)
    for k in range(1, N):
        for ell in range(1, min(6, npoints) + 1):
            assert avg_density_formula(N, k, ell, q) == avg_density_exhaustive(
                N, k, ell, q
            )


def test_avg_density_examples():
    assert avg_density_formula(2, 1, 1, 2) == Fraction(2, 3)
    # oversize point sets cannot be avoided
    assert avg_density_formula(3, 2, 5, 2) == 0
    # the corrected worked example: every pair of points of PG(2,2) is
    # avoided by exactly 5 of the 7 lines
    assert avg_density_formula(3, 1, 2, 2) == Fraction(5, 7)


def test_avg_density_limit_instances():
    # hyperplanes vs point sets of size ~ q: limit 1/e, independent of q
    assert avg_asymptotics("q_large", N=3, k=2, s=1, q=5) == pytest.approx(
        math.exp(-1)
    )
    # the matrix-ball instance at n=d=2 for growing column count
    assert ball_avg_limit(2, 2, 3, "m_large") == pytest.approx(math.exp(-2))
    assert avg_asymptotics("m_large", n=2, d=2, q=3) == pytest.approx(math.exp(-2))
    assert ball_avg_limit(2, 2, 2, "q_large") == pytest.approx(math.exp(-1))
    with pytest.raises(ValueError):
        avg_asymptotics("sideways", n=2, d=2, q=2)


def test_avg_density_approaches_limit_monotonically():
    # hyperplane case ell = q in dimension 3: |avg - 1/e| strictly decreasing
    errors = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        value = float(avg_density_formula(3, 2, q, q))
        errors.append(abs(value - math.exp(-1)))
    assert all(a > b for a, b in zip(errors, errors[1:]))


# ---------------------------------------------- rank-constrained averages

def test_lambda_examples():
    assert lambda_count(2, 0, 2, 2, 2) == 3
    assert lambda_count(2, 1, 2, 2, 2) == 1
    with pytest.raises(ValueError):
        lambda_count(2, 0, 2, 1, 2)
    with pytest.raises(ValueError):
        lambda_count(3, 0, 8, 2, 2)


def test_lambda_oracle_full_grid():
    for Nmax, q, ellmax in ((4, 2, 5), (3, 3, 4)):
        for N in range(2, Nmax + 1):
            for rho in range(2, N + 1):
                top = min(ellmax, (q**rho - 1) // (q - 1))
                for ell in range(rho, top + 1):
                    for s in range(N + 1):
                        assert lambda_count(N, s, ell, rho, q) == lambda_exhaustive(
                            N, s, ell, rho, q
                        ), (N, s, ell, rho, q)


def reference_pointset_histogram(N, ell, q):
    """The histogram of `_pointset_histogram` with one rank per point set."""
    fld = field_for_order(q)
    hist = {}
    for combo in itertools.combinations(all_points(N, q), ell):
        low = min(max(j for j, x in enumerate(p) if x) for p in combo)
        key = (linalg.rank(combo, fld), low)
        hist[key] = hist.get(key, 0) + 1
    return hist


# every (N, ell, q) of the lambda grid above and of `verify lambda`
LAMBDA_GRID = sorted(
    {
        (N, ell, q)
        for Nmax, q, ellmax in ((4, 2, 5), (3, 3, 4))
        for N in range(2, Nmax + 1)
        for rho in range(2, N + 1)
        for ell in range(rho, min(ellmax, (q**rho - 1) // (q - 1)) + 1)
    }
)


@pytest.mark.parametrize(
    "N,ell,q",
    LAMBDA_GRID + [(1, 1, 4), (2, 3, 4), (3, 2, 4), (2, 4, 5), (3, 2, 5), (2, 6, 5)],
)
def test_pointset_histogram_matches_rank_reference(N, ell, q):
    assert _pointset_histogram.__wrapped__(N, ell, q) == reference_pointset_histogram(N, ell, q)


def test_pointset_histogram_runs_no_elimination(monkeypatch):
    def tripwire(*args):
        raise AssertionError("row reduction in the point-set histogram")

    for name in ("reduce", "rref", "rank", "row_sub", "row_scale"):
        monkeypatch.setattr(linalg, name, tripwire)
    assert sum(_pointset_histogram.__wrapped__(4, 5, 2).values()) == binom(15, 5)
    assert sum(_pointset_histogram.__wrapped__(3, 3, 3).values()) == binom(13, 3)


def test_lambda_exhaustive_rejects_bad_sizes():
    with pytest.raises(ValueError, match="N >= 1"):
        lambda_exhaustive(0, 0, 1, 1, 2)
    for s in (-1, 3):
        with pytest.raises(ValueError, match="0 <= s <= N"):
            lambda_exhaustive(2, s, 2, 2, 2)
    for ell in (0, 4):  # GF(2)^2 has 3 points
        with pytest.raises(ValueError, match="1 <= ell <= 3"):
            lambda_exhaustive(2, 0, ell, 2, 2)
    with pytest.raises(ValueError, match="not a prime power"):
        lambda_exhaustive(2, 0, 2, 2, 6)
    # rho is not restricted: outside the formula's domain the oracle counts
    assert lambda_exhaustive(2, 0, 2, 1, 2) == 0
    assert lambda_exhaustive(2, 0, 1, 1, 2) == 3


def test_lambda_exhaustive_refuses_a_q_that_is_not_an_int():
    for q in (2.0, "3"):
        with pytest.raises(ValueError, match="not a prime power"):
            lambda_exhaustive(3, 0, 3, 2, q)


def test_lambda_exhaustive_charges_the_row_tables(monkeypatch):
    def tripwire(*args):
        raise AssertionError("row-code tables built before the budget charge")

    monkeypatch.setattr(linalg, "row_arithmetic", tripwire)
    # 4095 point sets of one point, but tables of 2^24 + 2^13 entries
    with pytest.raises(BudgetExceededError, match="point-set enumeration needs 16785408 steps"):
        lambda_exhaustive(12, 0, 1, 1, 2)


def test_lambda_is_independent_of_the_fixed_subspace():
    # recount against a non-coordinate 2-dim subspace of GF(2)^4
    from rankmetric import linalg
    from rankmetric.codes import field_for_order

    fld = field_for_order(2)
    V = ((1, 0, 1, 0), (0, 1, 1, 1))
    reduced, pivots = linalg.rref(V, fld)
    points = all_points(4, 2)
    for ell, rho in ((3, 3), (4, 3), (4, 4), (5, 4)):
        direct = 0
        for combo in itertools.combinations(points, ell):
            if linalg.rank(combo, fld) != rho:
                continue
            if any(linalg.in_rowspan(reduced, pivots, p, fld) for p in combo):
                continue
            direct += 1
        assert direct == lambda_count(4, 2, ell, rho, 2)


def test_lambda_zero_s_sums_to_all_point_sets():
    for N, q in ((3, 2), (4, 2), (3, 3)):
        npoints = (q**N - 1) // (q - 1)
        for ell in range(2, 6):
            if ell > npoints:
                continue
            total = sum(
                lambda_count(N, 0, ell, rho, q)
                for rho in range(2, min(N, ell) + 1)
                if ell <= (q**rho - 1) // (q - 1)
            )
            assert total == binom(npoints, ell)


def test_rank_average_worked_table():
    # exact rationals; the printed reference values are truncations
    table = rank_average_table()
    floats = [float(v) for _, v in table]
    truncated = [math.floor(v * 10**4) / 10**4 for v in floats]
    assert truncated == [0.1352, 0.1333, 0.1295, 0.1211, 0.1003, 0.0]
    # the density decreases with the span dimension on this parameter set
    values = [v for _, v in table]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] == 0
    # one fewer point makes rank-5 sets avoidable
    assert avg_density_rank_formula(10, 6, 30, 5, 2) > 0


def test_rank_average_empty_family_rejected():
    with pytest.raises(ValueError):
        # rank-2 point sets of size 8 need (q^2-1)/(q-1) >= 8
        avg_density_rank_formula(4, 1, 8, 2, 2)


# ------------------------------------------------- structured families

def test_structured_hyperplane_families_against_bruteforce():
    for q, N in ((2, 3), (3, 3), (3, 4)):
        for i in range(2, min(q, 4) + 1):
            formula = hyperplane_density_collinear(N, i, q)
            brute = delta_bruteforce(collinear_pointset(N, i, q), N - 1)
            assert formula == brute, ("collinear", N, i, q)
        for i in range(2, N):
            formula = hyperplane_density_independent(N, i, q)
            brute = delta_bruteforce(independent_pointset(N, i, q), N - 1)
            assert formula == brute, ("independent", N, i, q)
    assert hyperplane_density_collinear(4, 4, 3) == 0  # the full line
    assert hyperplane_density_independent(3, 2, 2) == Fraction(2, 7)


def test_large_span_beats_small_span():
    # (q-1)^i q^(N-i) > (q+1-i)(q-1) q^(N-2) for i >= 3 on the tested grid
    for q in (2, 3, 4, 5, 7, 8, 9):
        for i in range(3, q + 2):
            N = max(i + 1, 4)
            lhs = (q - 1) ** i * q ** (N - i)
            rhs = (q + 1 - i) * (q - 1) * q ** (N - 2)
            assert lhs > rhs, (q, i)


# ------------------------------------------------- block-code bridge

def test_weight_distribution_and_bridge():
    P = independent_pointset(3, 3, 2)
    C = code_from_pointset(P)
    W = weight_distribution(C)
    assert sum(W) == 2**3
    assert W[3] == 1  # only the all-ones message hits full weight
    assert hyperplane_density_via_weights(P) == Fraction(1, 7)
    assert delta_bruteforce(P, 2) == Fraction(1, 7)
    # the full projective line supports no avoiding hyperplane
    full_line = PointSet(2, 2, all_points(2, 2))
    Cf = code_from_pointset(full_line)
    assert weight_distribution(Cf)[full_line.size] == 0


def test_code_from_pointset_requires_spanning():
    with pytest.raises(ValueError):
        code_from_pointset(PointSet(3, 2, [(1, 0, 0)]))


def test_cw_bridge_on_seeded_point_sets():
    rng = random.Random(0)
    for _ in range(20):
        N = rng.choice([3, 4])
        q = rng.choice([2, 3])
        pts = all_points(N, q)
        while True:
            ell = rng.randint(N, min(len(pts), 8))
            P = PointSet(N, q, rng.sample(pts, ell))
            if P.span_dim == N:
                break
        assert delta_bruteforce(P, N - 1) == hyperplane_density_via_weights(P)


# ------------------------------------------------- arcs

def test_mds_arc_density_examples():
    assert mds_arc_density(2, 3, 2) == 0
    assert mds_arc_density(2, 2, 3) == Fraction(1, 2)


@pytest.mark.parametrize("N,ell,q", [(2, 2, 3), (2, 3, 3), (3, 3, 3), (3, 4, 3), (2, 3, 2), (3, 4, 4), (4, 5, 4)])
def test_mds_arc_density_matches_moment_curve_bruteforce(N, ell, q):
    P = moment_curve_arc(N, ell, q)
    assert P.size == ell and P.span_dim == N
    # every N points of the arc span (Vandermonde): verify directly
    from rankmetric import linalg
    from rankmetric.codes import field_for_order

    fld = field_for_order(q)
    for combo in itertools.combinations(P.sorted_points(), N):
        assert linalg.rank(combo, fld) == N
    assert delta_bruteforce(P, N - 1) == mds_arc_density(N, ell, q)


def test_mds_arc_limit_value():
    # at ell = q+1, N = 4, large q the density approaches 1 - 1 + 1/2 - 1/6
    target = sum((-1) ** j / math.factorial(j) for j in range(4))
    value = float(mds_arc_density(4, 102, 101))
    assert abs(value - target) <= 0.05 * target


def test_arc_plus_point_identity_and_sign():
    for q in (7, 8, 9):
        for N in range(2, 7):
            for ell in range(max(2, N), q):
                gap = arc_plus_point_gap(N, ell, q)
                assert arc_plus_point_density(N, ell, q) - mds_arc_density(N, ell, q) == gap
                assert (gap > 0) == (N % 2 == 0 and ell >= N + 1)
                if N % 2 == 1:
                    assert gap <= 0
    # explicit positive case: N=4, ell=5: gap = (q-1)/(q^4-1) * C(3,3)
    for q in (7, 8, 9):
        assert arc_plus_point_gap(4, 5, q) == Fraction(q - 1, q**4 - 1)


def test_arc_plus_point_construction_matches_formula():
    P = arc_plus_point_pointset(3, 4, 7)
    assert delta_bruteforce(P, 2) == arc_plus_point_density(3, 4, 7)
    P2 = arc_plus_point_pointset(4, 5, 7)
    assert delta_bruteforce(P2, 3) == arc_plus_point_density(4, 5, 7)


# ------------------------------------------------- budget behaviour

def test_budget_errors():
    P = PointSet(2, 2, [(1, 1)])
    with pytest.raises(BudgetExceededError):
        delta_bruteforce(P, 1, budget=1)
    with pytest.raises(BudgetExceededError):
        lambda_exhaustive(4, 2, 5, 4, 2, budget=10)


def test_delta_charges_the_words_of_a_span(monkeypatch):
    # G_4(4, 4) is one subspace, but the sweep holds all 4^3 words of a
    # 3-dim span: 1 + 64 steps, charged before the sweep starts
    from rankmetric import codes

    def tripwire(*args):
        raise AssertionError("sweep built before the budget charge")

    monkeypatch.setattr(codes, "Grassmannian", tripwire)
    monkeypatch.setattr(codes, "_SpanMinRank", tripwire)
    with pytest.raises(BudgetExceededError, match="65 steps"):
        delta_bruteforce(PointSet(4, 4, [(1, 0, 0, 0)]), 4, budget=1)


def test_avg_density_exhaustive_charges_the_subspace_sweep(monkeypatch):
    # 255 point sets fit in the budget, but every one is tested against
    # all 200,787 subspaces of G_2(8, 4), which are first matched against
    # all 255 points: the charge covers both loops and comes before either
    from rankmetric import critical

    def tripwire(*args):
        raise AssertionError("work started before the budget charge")

    monkeypatch.setattr(critical, "all_points", tripwire)
    monkeypatch.setattr(critical, "_subspace_point_masks", tripwire)
    with pytest.raises(BudgetExceededError, match="102401370 steps"):
        avg_density_exhaustive(8, 4, 1, 2, budget=300)


def test_avg_density_exhaustive_refuses_an_ell_outside_the_points():
    # GF(2)^2 has 3 points: no point set of 0 or 10 points to average over
    for ell in (0, 10):
        with pytest.raises(ValueError, match="1 <= ell <= 3"):
            avg_density_exhaustive(2, 1, ell, 2)


def test_avg_density_exhaustive_refuses_a_q_that_is_not_an_int():
    for q in (4.0, "3"):
        with pytest.raises(ValueError, match="not a prime power"):
            avg_density_exhaustive(2, 1, 2, q)


def test_collinear_pointset_refuses_a_q_that_is_not_an_int():
    for q in (3.0, "3"):
        with pytest.raises(ValueError, match="not a prime power"):
            collinear_pointset(3, 2, q)


def test_moment_curve_arc_refuses_a_q_that_is_not_an_int():
    for q in (3.0, "3"):
        with pytest.raises(ValueError, match="not a prime power"):
            moment_curve_arc(3, 3, q)
