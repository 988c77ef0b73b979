"""Symmetric / alternating / Hermitian stratifications and densities."""

import itertools
from fractions import Fraction

import pytest

from rankmetric import linalg
from rankmetric.codes import density_bruteforce, field_for_order, spectrum_free_count
from rankmetric.errors import BudgetExceededError
from rankmetric.restricted import (
    ambient_basis,
    ambient_dim,
    ball_asymptotic_exponent,
    density_2dim_formula,
    dim_bound,
    hermitian_field,
    is_member,
    rank_count,
    rank_distribution_exhaustive,
    restricted_density_bruteforce,
    sparseness_exponent,
    tensor_ratio,
)

STRATA_GRID = [
    ("symmetric", n, q) for n in (1, 2, 3) for q in (2, 3)
] + [
    ("alternating", n, q) for n in (1, 2, 3) for q in (2, 3)
] + [
    ("hermitian", n, q) for n in (1, 2) for q in (2, 3)
] + [
    ("full", n, q) for n in (1, 2, 3) for q in (2, 3)
]


def test_ambient_dims():
    assert ambient_dim("symmetric", 3) == 6
    assert ambient_dim("alternating", 3) == 3
    assert ambient_dim("hermitian", 3) == 9
    assert ambient_dim("full", 2, 3) == 6


@pytest.mark.parametrize("kind,n,q", STRATA_GRID)
def test_ambient_basis_members_and_independence(kind, n, q):
    basis = ambient_basis(kind, n, q)
    assert len(basis) == ambient_dim(kind, n)
    for mat in basis:
        assert is_member(kind, mat, q)
    flat = [tuple(x for row in m for x in row) for m in basis]
    fld = hermitian_field(q) if kind == "hermitian" else field_for_order(q)
    assert linalg.rank(flat, fld) == len(basis)


@pytest.mark.parametrize("kind,n,q", STRATA_GRID)
def test_rank_count_matches_enumeration_and_sums(kind, n, q):
    strata = [rank_count(kind, n, i, q) for i in range(n + 1)]
    assert rank_distribution_exhaustive(kind, n, q) == tuple(strata), (kind, n, q)
    assert sum(strata) == q ** ambient_dim(kind, n)


def flat_rank_distribution(kind, n, q):
    """The flat walk: every ambient matrix by `span_elements` on the
    flattened basis, ranked by elimination."""
    fld = hermitian_field(q) if kind == "hermitian" else field_for_order(q)
    counts = [0] * (n + 1)
    flat = [[x for row in bm for x in row] for bm in ambient_basis(kind, n, q)]
    for vec in linalg.span_elements(flat, fld, q):
        counts[linalg.rank([vec[i * n : (i + 1) * n] for i in range(n)], fld)] += 1
    return tuple(counts)


@pytest.mark.parametrize("kind,n,q", STRATA_GRID + [("alternating", 4, 2), ("full", 2, 4)])
def test_rank_distribution_matches_the_flat_walk(kind, n, q):
    assert rank_distribution_exhaustive(kind, n, q) == flat_rank_distribution(kind, n, q)


def test_rank_distribution_charges_the_ambient_once_before_the_walk(monkeypatch):
    # the symmetric 3 x 3 ambient over GF(3) has dimension 6 and its
    # row-code tables over GF(3)^3 3^6 + 3^4 entries: one charge of the
    # larger, 810, covers every rank, and a budget below it stops the walk
    # unstarted
    from rankmetric import restricted

    charges = []
    real_charge = restricted.charge

    def recording_charge(cost, budget, what):
        charges.append(cost)
        real_charge(cost, budget, what)

    monkeypatch.setattr(restricted, "charge", recording_charge)
    assert sum(rank_distribution_exhaustive("symmetric", 3, 3)) == 3**6
    assert charges == [810]

    def tripwire(*args):
        raise AssertionError("walk started before the budget charge")

    monkeypatch.setattr(linalg, "span_ranks", tripwire)
    monkeypatch.setattr(linalg, "row_arithmetic", tripwire)
    with pytest.raises(BudgetExceededError, match="810 steps"):
        rank_distribution_exhaustive("symmetric", 3, 3, budget=809)
    # the Hermitian 3 x 3 ambient over GF(4) has 4^9 matrices over tables
    # of 16^6 + 16^4 entries; GF(16) is not built before the charge
    monkeypatch.setattr(restricted, "hermitian_field", tripwire)
    with pytest.raises(BudgetExceededError, match=f"{16**6 + 16**4} steps"):
        rank_distribution_exhaustive("hermitian", 3, 4, budget=10**7)


def test_rank_distribution_exhaustive_refuses_a_q_that_is_not_an_int():
    for kind in ("symmetric", "alternating", "hermitian", "full"):
        for q in (3.0, "3"):
            with pytest.raises(ValueError, match="not a prime power"):
                rank_distribution_exhaustive(kind, 2, q)


def test_rank_count_examples():
    assert rank_count("symmetric", 2, 1, 2) == 3
    assert rank_count("alternating", 2, 2, 2) == 1
    assert rank_count("alternating", 3, 1, 2) == 0  # odd ranks vanish
    assert rank_count("alternating", 3, 3, 3) == 0
    assert rank_count("hermitian", 2, 2, 2) == 10
    assert rank_count("hermitian", 2, 1, 2) == 5


def test_hermitian_printed_variant_discrepancy_pinned():
    # the printed classical formula disagrees with enumeration at
    # (q, n, i) = (2, 1, 1): 3 vs the enumerated 1; the validated variant
    # is the package default
    assert rank_count("hermitian", 1, 1, 2, variant="printed") == 3
    assert rank_count("hermitian", 1, 1, 2, variant="validated") == 1
    assert rank_distribution_exhaustive("hermitian", 1, 2)[1] == 1
    with pytest.raises(ValueError):
        rank_count("hermitian", 1, 1, 2, variant="guessy")


def test_full_kind_rank_count():
    # cross-check against the unrestricted census via the ball boundary
    from rankmetric.qcomb import ball_size

    for n, q in ((2, 2), (2, 3), (3, 2)):
        for i in range(n + 1):
            expected = ball_size(n, n, i, q) - (ball_size(n, n, i - 1, q) if i else 0)
            assert rank_count("full", n, i, q) == expected


def test_dim_bounds():
    assert dim_bound("symmetric", 3, 3) == 3  # n-d even
    assert dim_bound("symmetric", 3, 2) == 4  # n-d odd: (n+1)(n-d+1)/2
    assert dim_bound("alternating", 4, 4) == 3
    assert dim_bound("hermitian", 2, 2) == 2
    assert dim_bound("full", 3, 3) == 3
    with pytest.raises(ValueError):
        dim_bound("alternating", 4, 3)
    with pytest.raises(ValueError):
        dim_bound("symmetric", 3, 1)


def test_restricted_densities():
    assert restricted_density_bruteforce("symmetric", 2, 1, 2, 2).density == Fraction(4, 7)
    assert restricted_density_bruteforce("hermitian", 2, 1, 2, 2).density == Fraction(2, 3)
    # minimum distance 2 is free for alternating codes
    for k in (1, 2, 3):
        assert restricted_density_bruteforce("alternating", 3, k, 2, 2).density == 1
    r = restricted_density_bruteforce("symmetric", 2, 2, 2, 3)
    assert r.kind == "symmetric"
    assert r.to_json()["kind"] == "symmetric"
    # the distance must lie in 1..n, as for the full matrix space
    for d in (0, 3):
        with pytest.raises(ValueError):
            restricted_density_bruteforce("symmetric", 2, 1, d, 2)


def test_restricted_density_charges_the_words_of_a_span(monkeypatch):
    # the symmetric 3 x 3 ambient over GF(4) has dimension 6: one 6-dim
    # subspace, but the sweep holds all 4^5 words of a 5-dim span
    from rankmetric import codes

    def tripwire(*args):
        raise AssertionError("sweep built before the budget charge")

    monkeypatch.setattr(codes, "Grassmannian", tripwire)
    monkeypatch.setattr(codes, "_SpanMinRank", tripwire)
    with pytest.raises(BudgetExceededError, match="1025 steps"):
        restricted_density_bruteforce("symmetric", 3, 6, 1, 4, budget=1)


def test_symmetric_optimal_3x3_pins():
    # 3-dim symmetric 3 x 3 codes of full rank: 8 of 1395 over GF(2), 288 of
    # 33880 over GF(3) (the GF(4) count, 960 of 376805, runs in CI)
    for q, want in ((2, (8, 1395)), (3, (288, 33880))):
        r = restricted_density_bruteforce("symmetric", 3, 3, 3, q)
        assert (r.count, r.total) == want


def test_even_alternating_bound_is_not_attained():
    # n = 4, d = 4: dim_bound is 3, but on a 3-dim code the Pfaffian is a
    # quadratic form in 3 variables, which has a nontrivial zero
    # (Chevalley-Warning), so no 3-dim code has full rank; the largest
    # attained dimension is 2
    assert dim_bound("alternating", 4, 4) == 3
    for k, q, want in (
        (3, 2, (0, 1395)), (3, 3, (0, 33880)), (2, 2, (56, 651)), (2, 3, (2106, 11011))
    ):
        r = restricted_density_bruteforce("alternating", 4, k, 4, q)
        assert (r.count, r.total) == want, (k, q)


def test_optimal_restricted_pins_over_gf2():
    # alternating 5 x 5 words lie past the GF(2) rank table (nm = 25) and
    # are looked up in the set of the ambient's rank < 4 words, listed by
    # one pruned walk, symmetric 4 x 4 words (nm = 16) are ranked by the
    # table, and Hermitian 3 x 3 words over GF(4) are summed by XOR with
    # two bits per entry (the Hermitian count over GF(9) runs in CI)
    for args, want in (
        (("alternating", 5, 5, 4), (129024, 109221651)),
        (("symmetric", 4, 4, 4), (336, 53743987)),
        (("hermitian", 3, 3, 3), (6720, 788035)),
    ):
        r = restricted_density_bruteforce(*args, 2, budget=10**9)
        assert (r.count, r.total) == want, args


def test_full_ambient_density_is_the_full_matrix_sweep():
    # the unit matrices E_ij are the coordinates of density_bruteforce, whose
    # sweep is seeded by rank; the full ambient's sweep is flat
    for q in (2, 3):
        for k in (1, 2, 3, 4):
            for d in (1, 2):
                r = restricted_density_bruteforce("full", 2, k, d, q)
                want = density_bruteforce(2, 2, k, d, q)
                assert (r.count, r.total) == (want.count, want.total), (q, k, d)


def test_restricted_density_against_independent_count():
    # 1-dim symmetric codes of distance 2 over GF(3): count invertible
    # symmetric matrices directly
    invertible = rank_distribution_exhaustive("symmetric", 2, 3)[2]
    lines = invertible // 2  # q - 1 = 2 nonzero scalars per line
    r = restricted_density_bruteforce("symmetric", 2, 1, 2, 3)
    assert r.count == lines


def test_ball_asymptotic_exponents():
    assert ball_asymptotic_exponent("symmetric", 3, 3) == 6
    assert ball_asymptotic_exponent("alternating", 4, 3) == 2 * 4 - 3
    assert ball_asymptotic_exponent("alternating", 4, 2) == 2 * 4 - 3
    assert ball_asymptotic_exponent("hermitian", 3, 3) == 9
    assert ball_asymptotic_exponent("full", 2, 1, m=5) == 6


@pytest.mark.parametrize("kind,n,r", [("symmetric", 3, 2), ("alternating", 4, 2), ("hermitian", 2, 1)])
def test_ball_exponent_sanity_ratio_stabilizes(kind, n, r):
    # exact ball size / q^exponent stays bounded away from 0 and infinity
    exponent = ball_asymptotic_exponent(kind, n, r)
    ratios = []
    for q in (2, 3, 5, 9):
        ball = sum(rank_count(kind, n, i, q) for i in range(r + 1))
        ratios.append(ball / q**exponent)
    assert all(0.25 < x < 4 for x in ratios)
    # the leading coefficient is 1 in all three ambients
    dists = [abs(x - 1) for x in ratios]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 0.25


def test_sparseness_exponents():
    est, limit = sparseness_exponent("symmetric", 4, 4, 4)
    assert est.exponent == -4 + 2 and limit == 0
    # full-rank symmetric: O(q^(2-n)) in general
    for n in (3, 4, 5):
        est, _ = sparseness_exponent("symmetric", n, n, n)
        assert est.exponent == 2 - n
    # hermitian MRD matches the unrestricted MRD exponent
    for n in (3, 4):
        for d in range(2, n + 1):
            k = n * (n - d + 1)
            est, _ = sparseness_exponent("hermitian", n, k, d)
            assert est.exponent == -(d - 1) * (n - d + 1) + 1
    # printed variant retained for comparison
    est_printed, _ = sparseness_exponent("hermitian", 3, 6, 2, variant="printed")
    assert est_printed.exponent == 9 - 6 + 1 - 1 * (6 + 1)
    # below-threshold k is classified as dense (limit 1)
    est, limit = sparseness_exponent("symmetric", 4, 1, 2)
    assert limit == 1
    # alternating exponent exactly as printed
    est, _ = sparseness_exponent("alternating", 4, 3, 4)
    assert est.exponent == 6 - 3 + 1 - 2 * 4 + 3
    with pytest.raises(ValueError):
        sparseness_exponent("alternating", 4, 3, 3)


@pytest.mark.parametrize("kind", ["symmetric", "alternating", "hermitian", "full"])
def test_sparseness_exponent_needs_k_within_the_dimension_bound(kind):
    n, d = 4, 2
    bound = dim_bound(kind, n, d)
    sparseness_exponent(kind, n, bound, d)  # the bound itself is allowed
    for k in (0, bound + 1):
        with pytest.raises(ValueError, match="dimension bound"):
            sparseness_exponent(kind, n, k, d)
    # d and the kind are checked by dim_bound
    for args, message in (
        (("full", 3, 1, 1), "2 <= d <= n"),
        (("alternating", 4, 1, 3), "d must be even"),
        (("skew", 3, 1, 2), "unknown kind"),
    ):
        with pytest.raises(ValueError, match=message):
            sparseness_exponent(*args)


@pytest.mark.parametrize("n, m", [(4, 2), (2, 4), (3, 2), (2, 3), (3, 3)])
def test_full_ball_exponent_is_log_of_the_exact_ball(n, m):
    # the radius-r ball of n x m matrices holds sum_{i <= r} of the exact
    # rank counts, whose q-logarithm tends to r(n + m - r); a radius past
    # min(n, m) is refused, since no matrix has a larger rank
    from rankmetric.qcomb import matrix_rank_count

    for r in range(min(n, m) + 1):
        exponent = ball_asymptotic_exponent("full", n, r, m=m)
        for q in (2, 3, 5):
            ball = sum(matrix_rank_count(n, m, i, q) for i in range(r + 1))
            assert q ** exponent <= ball < 4 * q ** exponent
    for r in (min(n, m) + 1, -1):
        with pytest.raises(ValueError):
            ball_asymptotic_exponent("full", n, r, m=m)


def test_alternating_sparseness_trend_report():
    # the alternating exponent carries no exact finite-q guarantee, so this
    # only records that small-case densities stay in range
    dens = [
        float(restricted_density_bruteforce("alternating", 3, 2, 2, q).density)
        for q in (2, 3)
    ]
    assert all(0 <= x <= 1 for x in dens)


def test_density_2dim_formula():
    assert density_2dim_formula(2, 2) == Fraction(2, 35)
    assert density_2dim_formula(2, 3) == Fraction(18 * 48, 6240)
    # equals the brute-force Grassmannian sweep
    for q in (2, 3):
        assert density_2dim_formula(2, q) == density_bruteforce(2, 2, 2, 2, q).density
    # supplying a precomputed spectrum-free count must agree
    s = spectrum_free_count(2, 3)
    assert density_2dim_formula(2, 3, s_value=s) == density_2dim_formula(2, 3)


def test_density_2dim_limit_toward_alternating_sum():
    # q-sweep at n=2 approaches 1 - 1 + 1/2 within the alternating-series gap
    from rankmetric.qcomb import alt_exp_sum

    target = float(alt_exp_sum(2))
    prev = None
    for q in (2, 3, 4, 5, 7):
        s = spectrum_free_count(2, q)
        val = float(density_2dim_formula(2, q, s_value=s))
        err = abs(val - target)
        if prev is not None:
            assert err < prev
        prev = err
    assert prev < 0.2  # convergence is O(1/q); q = 7 is already inside


@pytest.mark.parametrize("r,n,q", [(1, 2, 2), (1, 2, 3), (2, 3, 2)])
def test_tensor_ratio_identity(r, n, q):
    formula = tensor_ratio(r, n, q)
    num = density_bruteforce(r, n, n, r, q).density
    den = density_bruteforce(n, n, r, n, q).density
    assert num / den == formula


def test_tensor_ratio_trivial_and_example():
    assert tensor_ratio(3, 3, 5) == 1
    assert tensor_ratio(1, 2, 2) == Fraction(5, 2)
