"""Matrix codes, Grassmannian enumeration, brute-force densities and the
closed counting formulas, each checked against an independent path."""

import itertools
import math
from fractions import Fraction

import pytest

from rankmetric import linalg
from rankmetric.codes import (
    Grassmannian,
    MatrixCode,
    _sweep,
    asymptotic_constants,
    density_3x3_formula,
    density_bruteforce,
    enumerate_subspaces,
    field_for_order,
    spectrum_free_identity_check,
    kantor_lowerbound,
    mrd_lowerbound_formula,
    prime_factor_count,
    spectrum_free_count,
)
from rankmetric.errors import BudgetExceededError
from rankmetric.fields import make_field
from rankmetric.qcomb import gl_order, qbinom

F2 = make_field(2)
F3 = make_field(3)


# ---------------------------------------------------------------- codes

def companion_code_f4_model():
    """span{I, companion matrix of x^2+x+1} inside GF(2)^(2x2)."""
    ident = ((1, 0), (0, 1))
    comp = ((0, 1), (1, 1))
    return MatrixCode.from_matrices(F2, [ident, comp])


def test_matrix_code_canonical_and_dim():
    C = companion_code_f4_model()
    assert C.dim == 2
    # same code from a different spanning set
    other = MatrixCode.from_matrices(F2, [((0, 1), (1, 1)), ((1, 1), (1, 0))])
    assert C == other
    with pytest.raises(ValueError):
        MatrixCode.from_matrices(F2, [((0, 0), (0, 0))])


def test_min_distance_examples():
    ident = MatrixCode.from_matrices(F3, [((1, 0), (0, 1))])
    assert ident.min_distance() == 2
    full = MatrixCode(F2, 2, 2, [tuple(1 if i == j else 0 for j in range(4)) for i in range(4)])
    assert full.min_distance() == 1
    assert companion_code_f4_model().min_distance() == 2


def test_min_distance_generic_matches_packed():
    # every 2-dim code in GF(2)^(2x2): the kernel's rank table agrees
    # with elimination
    g = Grassmannian(4, 2, 2)
    for rows in g.iter_range():
        C = MatrixCode(F2, 2, 2, rows)
        generic = min(
            linalg.rank([v[0:2], v[2:4]], F2)
            for v in linalg.span_elements(C.basis, F2)
            if any(v)
        )
        assert C.min_distance() == generic


def test_is_mrd():
    assert companion_code_f4_model().is_mrd()  # k=2=m(n-d+1), d=2
    full = MatrixCode(F2, 2, 2, [tuple(1 if i == j else 0 for j in range(4)) for i in range(4)])
    assert full.is_mrd()  # d=1, k=4=m*n
    singular = MatrixCode.from_matrices(F2, [((1, 0), (0, 0))])
    assert singular.min_distance() == 1
    assert not singular.is_mrd()  # k=1 < m(n-d+1)=4


# ------------------------------------------------------- enumeration

@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_stream_length_is_qbinom(N, q):
    for k in range(N + 1):
        assert sum(1 for _ in enumerate_subspaces(N, k, q)) == qbinom(N, k, q)


def test_stream_yields_distinct_rref_bases():
    seen = set()
    for rows in enumerate_subspaces(4, 2, 3):
        assert rows not in seen
        seen.add(rows)
        # rows are in reduced echelon form: leading ones, cleared pivot columns
        pivots = [next(j for j, x in enumerate(r) if x) for r in rows]
        assert pivots == sorted(pivots)
        for r, p in zip(rows, pivots):
            assert r[p] == 1
            assert all(other[p] == 0 for other in rows if other is not r)
    assert len(seen) == qbinom(4, 2, 3)


def test_chunked_enumeration_is_a_partition():
    g = Grassmannian(6, 3, 2)
    whole = list(g.iter_range())
    for parts in (2, 3, 8):
        bounds = [g.total * i // parts for i in range(parts + 1)]
        glued = []
        for lo, hi in zip(bounds, bounds[1:]):
            glued.extend(g.iter_range(lo, hi))
        assert glued == whole


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_subspaces(9, 3, 2, budget=1000))


# ------------------------------------------------------- densities

def test_enumerate_subspaces_charges_before_building(monkeypatch):
    # G_2(22, 11) has C(22, 11) = 705432 pivot patterns; the budget check
    # must come first, so the enumerator is never even constructed
    from rankmetric import codes

    def tripwire(*args):
        raise AssertionError("Grassmannian built before the budget charge")

    monkeypatch.setattr(codes, "Grassmannian", tripwire)
    with pytest.raises(BudgetExceededError):
        enumerate_subspaces(22, 11, 2, budget=10)


def test_density_2x2_value_and_monotonicity():
    r = density_bruteforce(2, 2, 2, 2, 2)
    assert (r.count, r.total) == (2, 35)
    assert r.density == Fraction(2, 35)
    # trivially all codes have distance >= 1
    assert density_bruteforce(2, 2, 2, 1, 2).density == 1
    # monotone non-increasing in d
    for k in (1, 2, 3):
        densities = [density_bruteforce(2, 2, k, d, 2).density for d in (1, 2)]
        assert densities[0] >= densities[1]


@pytest.mark.parametrize(
    "shape,q,count",
    # GF(2) ranked by the table; GF(3) and GF(4) by elimination, with the
    # kernel and field pickled into the pool workers
    [((2, 3, 3, 2), 2, 48), ((2, 2, 2, 2), 3, 18), ((2, 2, 2, 2), 4, 72)],
    ids=["gf2", "gf3", "gf4"],
)
def test_density_parallel_chunking_identical(shape, q, count):
    for jobs in (1, 2, 5):
        assert density_bruteforce(*shape, q, jobs=jobs).count == count


@pytest.fixture
def fake_pool(monkeypatch):
    """A function of the CPU count to report: it replaces
    multiprocessing.Pool by a pool that maps in-process and returns the
    list of the worker counts of the pools started.  No sweep counts
    in-process first (codes._POOL_AFTER_S = 0), so every sweep with more
    than one worker maps its chunks on the pool."""
    import multiprocessing
    import os

    from rankmetric import codes

    seen = []

    class FakePool:
        def __init__(self, processes):
            seen.append(processes)

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

        def close(self):
            pass

        def terminate(self):
            pass

        def join(self):
            pass

    def install(cpus):
        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(codes, "_POOL_AFTER_S", 0)
        return seen

    return install


@pytest.mark.parametrize(
    "shape,cpus,workers",
    [
        ((3, 3, 1, 1), 4, 3),
        ((2, 2, 2, 2), 4, 4),
        ((2, 2, 2, 2), None, 1),
        ((1, 1, 1, 1), 4, 1),
        ((1, 2, 1, 1), 4, 1),
    ],
)
def test_density_pool_is_clamped(fake_pool, shape, cpus, workers):
    # jobs=64 still sets the chunk bounds of every plan entry; the pool
    # gets at most one worker per task and per CPU, and one worker (one
    # CPU, or a single subspace) runs the sweep in-process with no pool.
    # (3, 3, 1, 1) is seeded at ranks 1, 2 and 3, one subspace each: three
    # tasks.  (1, 2, 1, 1) is one seeded subspace, (1, 1, 1, 1) one flat
    # one.
    seen = fake_pool(cpus)
    n, m, k, d = shape
    r = density_bruteforce(n, m, k, d, 2, jobs=64)
    assert seen == ([workers] if workers > 1 else [])
    assert r.count == density_bruteforce(n, m, k, d, 2).count


@pytest.mark.parametrize("jobs,workers", [(1, 1), (2, 2), (3, 3), (64, 3)])
def test_density_pool_is_capped_by_jobs(fake_pool, jobs, workers):
    # (3, 3, 1, 1) has three seeded entries of one subspace each, so three
    # tasks at every jobs; the pool never has more than `jobs` workers,
    # and jobs=1 runs in-process
    seen = fake_pool(4)
    assert density_bruteforce(3, 3, 1, 1, 2, jobs=jobs).count == 511
    assert seen == ([workers] if workers > 1 else [])


def test_restricted_sweep_starts_no_pool(fake_pool):
    # Hermitian 2 x 2 at k = d = 1 is seeded at ranks 1 and 2: two tasks,
    # run in-process, since the restricted sweeps take no jobs
    from rankmetric.restricted import restricted_density_bruteforce

    seen = fake_pool(4)
    assert restricted_density_bruteforce("hermitian", 2, 1, 1, 2).count == 15
    assert seen == []


def test_one_pool_serves_mixed_sweeps(monkeypatch):
    # jobs 2 with no in-process part: each sweep forks a 2-worker Pool of
    # its own and sends it a GF(2) rank-table, a GF(3) or GF(4), a
    # flat d = 1 or a point-set kernel; every count is the in-process one,
    # and no worker or unclosed Pool is left after any sweep returns
    import multiprocessing
    import os
    import warnings

    from rankmetric import codes, critical

    real_pool, started = multiprocessing.Pool, []

    def counting_pool(processes):
        started.append(processes)
        return real_pool(processes=processes)

    P = critical.rank_ball_pointset(2, 2, 1, 3)

    def point_sweep(jobs):
        # the sweep of critical.delta_bruteforce(P, 2), which takes no jobs
        return _sweep(
            P.field, 3, 1, 4, linalg.identity(4), 2, 1, None, "point-set sweep",
            points=P.points, jobs=jobs,
        )

    sweeps = [
        lambda jobs: density_bruteforce(2, 3, 3, 2, 2, jobs=jobs).count,  # rank table, seeded
        lambda jobs: density_bruteforce(2, 2, 2, 2, 3, jobs=jobs).count,  # odd sum arm
        lambda jobs: density_bruteforce(2, 2, 2, 2, 4, jobs=jobs).count,  # GF(4), XOR
        lambda jobs: density_bruteforce(3, 3, 8, 1, 2, jobs=jobs).count,  # flat plan, d = 1
        point_sweep,
    ]
    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(codes, "_POOL_AFTER_S", 0)
    shared, alive = [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for sweep in sweeps:
            shared.append(sweep(2))
            alive.append(multiprocessing.active_children())
    assert started == [2] * len(sweeps)
    assert alive == [[]] * len(sweeps)
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert shared == [sweep(1) for sweep in sweeps]
    assert shared[:4] == [48, 18, 72, 511]
    assert Fraction(*shared[4]) == critical.delta_bruteforce(P, 2)
    assert started == [2] * len(sweeps)  # jobs 1 starts none


def test_density_generic_path_q3():
    r = density_bruteforce(2, 2, 2, 2, 3)
    assert r.count == spectrum_free_count(2, 3)


def test_density_result_json():
    r = density_bruteforce(2, 2, 2, 2, 2)
    d = r.to_json()
    assert d["density_num"] == "2" and d["density_den"] == "35"
    assert "elapsed_ms" not in d
    assert "elapsed_ms" in r.to_json(include_timing=True)


def test_density_budget_error():
    with pytest.raises(BudgetExceededError):
        density_bruteforce(3, 3, 3, 3, 2, budget=10)


def test_density_charges_the_words_of_a_span(monkeypatch):
    # G_4(9, 9) is one subspace, but the sweep holds all 4^8 words of an
    # 8-dim span: 1 + 65536 steps, charged before the sweep starts
    from rankmetric import codes

    def tripwire(*args):
        raise AssertionError("sweep built before the budget charge")

    monkeypatch.setattr(codes, "Grassmannian", tripwire)
    monkeypatch.setattr(codes, "_SpanMinRank", tripwire)
    with pytest.raises(BudgetExceededError, match="65537 steps"):
        density_bruteforce(3, 3, 9, 1, 4, budget=1)


def test_density_charges_the_seeded_plan(monkeypatch):
    # (3, 3, 3, 3, 3) is seeded at rank 3 alone: qbinom(8, 2, 3) = 896260
    # subspaces of the hyperplane plus the 3^2 words of a 2-dim span, far
    # below the flat qbinom(9, 3, 3) = 678468820
    from rankmetric import codes

    def tripwire(*args):
        raise AssertionError("sweep built before the budget charge")

    monkeypatch.setattr(codes, "Grassmannian", tripwire)
    monkeypatch.setattr(codes, "_SpanMinRank", tripwire)
    with pytest.raises(BudgetExceededError, match="896269 steps"):
        density_bruteforce(3, 3, 3, 3, 3, budget=896268)


def test_sweep_charges_its_bad_word_walk_before_walking(monkeypatch):
    # (2, 2, 1, 2, 3) is seeded at rank 2, one subspace: 1 + 3^0 = 2 steps.
    # Its rank < 2 words are walked next, charged the larger of min(3^4,
    # the 33 matrices of rank < 2) and the 3^4 + 3^3 entries of the
    # row-code tables of GF(3)^2, before those tables, the walk or the
    # kernel exist
    from rankmetric import codes

    def tripwire(*args, **kwargs):
        raise AssertionError("walked before the budget charge")

    for where, name in ((linalg, "row_arithmetic"), (linalg, "span_ranks"), (codes, "_SpanMinRank")):
        monkeypatch.setattr(where, name, tripwire)
    with pytest.raises(BudgetExceededError, match=r"sweep: the ambient's rank < 2 words needs 108 steps"):
        density_bruteforce(2, 2, 1, 2, 3, budget=107)
    monkeypatch.undo()
    assert density_bruteforce(2, 2, 1, 2, 3, budget=108).count == 24


def test_sweep_charges_a_walk_only_off_the_table(monkeypatch):
    # d = 1 (no word has rank < 1 but 0), GF(2) with nm <= 16 (the rank
    # table) and point sets charge the sweep alone; GF(3) at d = 2 and
    # GF(2) 3 x 6 (nm = 18) charge the walk second
    from rankmetric import codes, critical

    charged = []
    monkeypatch.setattr(codes, "charge", lambda cost, budget, what: charged.append(what))
    for run, walks in (
        (lambda: density_bruteforce(2, 2, 2, 1, 3), False),
        (lambda: density_bruteforce(2, 3, 3, 2, 2), False),
        (lambda: density_bruteforce(4, 4, 1, 2, 2), False),
        (lambda: critical.delta_bruteforce(critical.rank_ball_pointset(2, 2, 1, 3), 2), False),
        (lambda: density_bruteforce(2, 2, 2, 2, 3), True),
        (lambda: density_bruteforce(3, 6, 1, 3, 2), True),
    ):
        charged.clear()
        run()
        assert len(charged) == 1 + walks
        assert ("rank <" in charged[-1]) == walks


def test_sweep_counts_the_2dim_full_rank_3x3_codes():
    # the sweep against the spectrum-free closed form, at the shapes the
    # bad-word set speeds up most (q = 5 runs in CI)
    from rankmetric import restricted

    for q in (3, 4):
        assert density_bruteforce(3, 3, 2, 3, q).density == restricted.density_2dim_formula(3, q)


def _sweep_2x2(strata, points=()):
    fld = field_for_order(3)
    return _sweep(fld, 3, 2, 2, linalg.identity(4), 2, 2, None, "test sweep", points, 1, strata)


@pytest.mark.parametrize(
    "seed,message",
    [
        ([1, 0, 0, 0], "does not have rank 2"),
        ([0, 0, 0, 0], "zero seed"),
        ([1, 0, 0, 3], r"not a vector of GF\(3\)\^4"),
        ([1, 0, 0], r"not a vector of GF\(3\)\^4"),
    ],
    ids=["rank", "zero", "entry", "length"],
)
def test_sweep_checks_its_seeds(seed, message):
    # every seed must lie in the ambient, be nonzero and have its rank
    assert _sweep_2x2([(2, 48, [1, 0, 0, 1])]) == (18, 130)
    with pytest.raises(ValueError, match=message):
        _sweep_2x2([(2, 48, seed)])
    # at k = 4 the flat plan (one subspace) wins and the seed goes unused
    fld = field_for_order(3)
    strata = [(2, 48, seed)]
    assert _sweep(fld, 3, 2, 2, linalg.identity(4), 4, 2, None, "k = N", (), 1, strata) == (0, 1)


def test_sweep_refuses_seeds_on_a_point_set_and_a_wrong_weight():
    with pytest.raises(ValueError, match="point-set"):
        _sweep_2x2([(2, 48, [1, 0, 0, 1])], points=[(1, 0, 0, 0)])
    # 48 rank-2 words, f_2 = 18 * 8 / 48 = 3: a weight of 47 leaves a
    # remainder mod 3^2 - 1 and must not be rounded away
    with pytest.raises(AssertionError, match="not divisible by 8"):
        _sweep_2x2([(2, 47, [1, 0, 0, 1])])


# ------------------------------------------------- spectrum-free counts

def test_spectrum_free_values():
    assert spectrum_free_count(1, 2) == 0
    assert spectrum_free_count(1, 3) == 0
    assert spectrum_free_count(2, 2) == 2
    assert spectrum_free_count(2, 3) == 18
    assert spectrum_free_count(3, 2) == 48


def test_spectrum_free_oracle_q3():
    # independent oracle: direct eigenvalue test via determinant over GF(3)
    fld = field_for_order(3)
    count = 0
    for flat in itertools.product(range(3), repeat=4):
        ok = True
        for lam in range(3):
            m = [
                [fld.sub(flat[0], lam), flat[1]],
                [flat[2], fld.sub(flat[3], lam)],
            ]
            det = fld.sub(fld.mul(m[0][0], m[1][1]), fld.mul(m[0][1], m[1][0]))
            if det == 0:
                ok = False
                break
        if ok:
            count += 1
    assert count == spectrum_free_count(2, 3) == 18


@pytest.mark.parametrize("m,q", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_spectrum_free_identity(m, q):
    assert spectrum_free_identity_check(m, q)


def flat_spectrum_free(m, q):
    """Reference: test every matrix of GF(q)^(m x m), flattened row by
    row, and every lambda by the rank of M - lambda*I; yield the
    spectrum-free ones."""
    fld = field_for_order(q)
    for flat in itertools.product(range(q), repeat=m * m):
        ok = True
        for lam in range(q):
            mat = [
                [
                    fld.sub(flat[i * m + j], lam) if i == j else flat[i * m + j]
                    for j in range(m)
                ]
                for i in range(m)
            ]
            if linalg.rank(mat, fld) < m:
                ok = False
                break
        if ok:
            yield flat


def flat_spectrum_free_count(m, q):
    return sum(1 for _ in flat_spectrum_free(m, q))


# every (m, q) with q^(m^2) <= 20,000 for m >= 2; m = 1 has count 0 for
# every q, checked over the same fields
@pytest.mark.parametrize(
    "m,q",
    [(1, q) for q in (2, 3, 4, 5, 7, 8, 9, 11)]
    + [(2, q) for q in (2, 3, 4, 5, 7, 8, 9, 11)]
    + [(3, 2), (3, 3)],
)
def test_spectrum_free_traversal_matches_flat_loop(m, q):
    assert spectrum_free_count(m, q) == flat_spectrum_free_count(m, q)


@pytest.mark.parametrize(
    "m,q", [(2, q) for q in (2, 3, 4, 5, 7, 8, 9)] + [(3, q) for q in (2, 3, 4)]
)
def test_spectrum_free_closed_form(m, q):
    # For m in {2, 3} a characteristic polynomial of degree m with no root
    # in GF(q) is irreducible, so a spectrum-free matrix is regular and its
    # class has centraliser GF(q^m)*, of size q^m - 1.  There are
    # (q^m - q)/m monic irreducibles of degree m, one class each.
    irreducibles = (q**m - q) // m
    assert spectrum_free_count(m, q, budget=10**6) == irreducibles * gl_order(m, q) // (q**m - 1)


def cycle_index_spectrum_free(M, q):
    """s_q(m) for m <= M from the cycle index of GL_m(q):
    sum_m s_q(m) u^m/|GL_m(q)| = A(u) / B(u)^q with A = sum q^(m^2) u^m/|GL_m(q)|
    (all matrices) and B = sum q^(m^2-m) u^m/|GL_m(q)| (nilpotent ones,
    Fine-Herstein), as power series truncated above u^M."""

    def mul(f, g):
        return [sum(f[i] * g[k - i] for i in range(k + 1)) for k in range(M + 1)]

    gl = [1] + [gl_order(m, q) for m in range(1, M + 1)]  # |GL_0(q)| = 1
    A = [Fraction(q ** (m * m), gl[m]) for m in range(M + 1)]
    B = [Fraction(q ** (m * m - m), gl[m]) for m in range(M + 1)]
    Bq = [Fraction(1)] + [Fraction(0)] * M
    for _ in range(q):
        Bq = mul(Bq, B)
    # A / Bq, Bq[0] = 1
    ratio = []
    for k in range(M + 1):
        ratio.append(A[k] - sum(ratio[i] * Bq[k - i] for i in range(k)))
    return [r * gl[m] for m, r in enumerate(ratio)]


def test_spectrum_free_matches_the_cycle_index():
    for q in (2, 3, 4, 5, 7):
        series = cycle_index_spectrum_free(4, q)
        assert all(s.denominator == 1 for s in series)
        assert series[0] == 1
        for m in (1, 2, 3):
            assert spectrum_free_count(m, q, budget=10**8) == series[m], (m, q)
    assert spectrum_free_count(4, 2) == cycle_index_spectrum_free(4, 2)[4] == 5824
    # the larger counts are pinned in CI; the series gives
    assert cycle_index_spectrum_free(4, 3)[4] == 7619508
    assert cycle_index_spectrum_free(3, 7)[3] == 11063808
    assert cycle_index_spectrum_free(3, 8)[3] == 37933056
    assert cycle_index_spectrum_free(3, 9)[3] == 111974400


def in_documented_slice(row):
    """Row 0 of the traversal's slice: M[0][0] = 0 and the first nonzero
    entry of the rest of the row is 1."""
    rest = [x for x in row[1:] if x]
    return row[0] == 0 and bool(rest) and rest[0] == 1


# (3, 3) is the smallest size whose slice tells the lowest nonzero entry
# of a row from the highest
@pytest.mark.parametrize("m,q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)])
def test_spectrum_free_slice_is_a_transversal(monkeypatch, m, q):
    # the rows 0 the traversal walks, read off its first grow_span calls:
    # at row 0 every span is {0}, and the lambda = 0 candidate is r_x itself
    walked = set()
    real = linalg.grow_span

    def record(span, v, add, scale):
        if span == {0} and v % q == 0:
            walked.add(v)
        return real(span, v, add, scale)

    monkeypatch.setattr(linalg, "grow_span", record)
    count = spectrum_free_count(m, q)
    slice_codes = {
        sum(x * q**j for j, x in enumerate(row))
        for row in itertools.product(range(q), repeat=m)
        if in_documented_slice(row)
    }
    assert walked == slice_codes
    # every spectrum-free M has exactly one (a, b) with aM + bI in the slice
    fld = field_for_order(q)
    in_slice = 0
    for flat in flat_spectrum_free(m, q):
        row = flat[:m]
        hits = [
            (a, b)
            for a in range(1, q)
            for b in range(q)
            if in_documented_slice([fld.add(fld.mul(a, x), b if j == 0 else 0) for j, x in enumerate(row)])
        ]
        assert len(hits) == 1, (flat, hits)
        in_slice += in_documented_slice(row)
    assert count == q * (q - 1) * in_slice


def test_spectrum_free_charges_before_traversal(monkeypatch):
    calls = []
    real = linalg.row_arithmetic

    def tripwire(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "row_arithmetic", tripwire)
    with pytest.raises(BudgetExceededError, match=r"enumerating GF\(3\)\^\(3x3\) needs 19683 steps"):
        spectrum_free_count(3, 3, budget=19682)
    with pytest.raises(BudgetExceededError):
        spectrum_free_count(12, 2)  # 2^144 steps: refused at once
    # 65537 matrices, but row-code tables of 2 * 65537^2 entries
    with pytest.raises(BudgetExceededError, match=r"GF\(65537\)\^\(1x1\) needs 8590196738 steps"):
        spectrum_free_count(1, 65537)
    assert calls == []
    assert spectrum_free_count(3, 3, budget=19683) == 3456
    assert calls


def test_spectrum_free_count_runs_no_elimination(monkeypatch):
    def tripwire(*args):
        raise AssertionError("row reduction in the spectrum-free count")

    for name in ("reduce", "rref", "rank", "row_sub", "row_scale"):
        monkeypatch.setattr(linalg, name, tripwire)
    assert spectrum_free_count(3, 3) == 3456
    assert spectrum_free_count(2, 4) == 72


def test_spectrum_free_rejects_bad_sizes():
    for m in (0, -2):
        with pytest.raises(ValueError, match="m >= 1"):
            spectrum_free_count(m, 5)


def test_spectrum_free_refuses_a_q_that_is_not_an_int():
    for q in (4.0, "3"):
        with pytest.raises(ValueError, match="not a prime power"):
            spectrum_free_count(2, q)


# ------------------------------------------------- closed formulas

def test_density_3x3_formula_values():
    assert density_3x3_formula(2) == Fraction(192, 788035)
    # agrees with the counting lower bound at n = 3 for several q
    for q in (2, 3, 4, 5):
        count, density = mrd_lowerbound_formula(3, q)
        assert density_3x3_formula(q) == density
        assert density_3x3_formula(q) * qbinom(9, 3, q) == count


def test_density_3x3_asymptotic_constant():
    v = float(density_3x3_formula(101)) * 101**3
    assert abs(v - 1 / 3) <= 0.05 * (1 / 3)


def test_mrd_lowerbound_values():
    assert mrd_lowerbound_formula(3, 2)[0] == 192
    # n = 2: the bracket collapses to 1
    for q in (2, 3, 4):
        count, _ = mrd_lowerbound_formula(2, q)
        assert count == gl_order(2, q) ** 2 // (2 * (q**2 - 1) ** 2)
    # the bound is a lower bound on the brute-force count where computable
    assert mrd_lowerbound_formula(2, 2)[0] <= density_bruteforce(2, 2, 2, 2, 2).count


def test_prime_factor_count():
    assert prime_factor_count(4) == 2
    assert prime_factor_count(12) == 3
    assert prime_factor_count(7) == 1


def test_kantor_lowerbound():
    assert kantor_lowerbound(15) == gl_order(15, 2) ** 2 * 2**15 // 30  # gamma(15) = 2
    assert (
        kantor_lowerbound(45)
        == gl_order(45, 2) ** 2 * 2**45 * (2**45 - 1) // 90  # gamma(45) = 3
    )
    # even n is outside the domain: at n = 4 the formula would give
    # 812,851,200, above the exact count 26,793,984
    for n in (4, 6, 8):
        with pytest.raises(ValueError):
            kantor_lowerbound(n)
    with pytest.raises(ValueError):
        kantor_lowerbound(9)
    with pytest.raises(ValueError):
        kantor_lowerbound(5)


def test_asymptotic_constants():
    out = asymptotic_constants(3, 3, q=2, eps=1e-9)
    lower = out["lower_q"]
    assert lower.constant == Fraction(1, 3)
    assert lower.exponent == -(3**3) + 3 * 9 - 3
    assert out["upper_q"].exponent == -(3 - 1) * (3 - 3 + 1) + 1 == -1
    # both m->inf branches present with certified pi truncation
    out2 = asymptotic_constants(2, 2, q=2, eps=1e-9)
    assert out2["pi_q_bound"] < 1e-9
    b1, b2 = out2["upper_m_branch1"], out2["upper_m_branch2"]
    assert abs(b1 - 1 / 3.4627466 ** 3) < 1e-4
    assert abs(b2 - 1 / (3 * 2.4627466 + 1)) < 1e-4
    assert out2["upper_m"] == min(b1, b2)
    # d outside 2..n, the domain of sparseness_exponent and dim_bound
    for n, d in ((3, 9), (3, 1), (3, 4)):
        with pytest.raises(ValueError):
            asymptotic_constants(n, d, q=2)


def test_asymptotic_upper_exponent_example():
    out = asymptotic_constants(3, 3)
    assert float(out["upper_q"].evaluate(q=2)) == 0.5
