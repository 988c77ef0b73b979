"""The codeword-sweep kernel against a brute-force reference.

`MatrixCode.min_distance`, `density_bruteforce`,
`restricted_density_bruteforce` and `critical.delta_bruteforce` all run
on the one kernel in `codes`.  It holds every word as an int with a
slot per base-p digit of each entry, sums words by XOR in characteristic
2 and by a slotwise add and correct in odd characteristic, and ranks a
word by one table probe when its entries are in GF(2) and nm <= 16, by
`linalg.rank` otherwise.  The word arithmetic is checked against the
entrywise field arithmetic over prime fields, GF(p^h), the GF(16)/GF(4)
tower and the Hermitian entry fields GF(q^2).  The three
Grassmannian sweeps go through one driver, `codes._sweep`, which checks
d, charges the budget and splits the sweep into chunks, each one
`_SpanMinRank.count` call that skips every subspace containing an
already rejected partial subcode; the chunks are counted here through
`count` directly.  The point-set predicate of `delta_bruteforce` is
checked against its flat reference in test_critical.py.  The references here
enumerate every subspace with `Grassmannian.iter_range` and every word of
its span with `linalg.span_elements`, and rank each word with
`linalg.rank`, with no pruning, no early exit and no word packing.

The driver seeds full, alternating and Hermitian sweeps by rank: it
counts the good codes through one rank-r word E_r (f_r) on the
hyperplane of a coordinate where E_r is nonzero, and divides
sum_r A_r * f_r by q^k - 1.  Each f_r is checked here against the
reference codes that contain E_r, and the driver's count against the
reference count.

Off the rank table a rank sweep decides every word by one lookup in a
frozenset: the words of every matrix of rank < d in the ambient, listed
once per sweep as one span per (d-1)-dim row space, or column space
when n < m.  The tests below check that set against every matrix of the
ambient ranked by `linalg.rank`, over full, symmetric, alternating and
Hermitian ambients of up to 20,000 matrices, GF(2) to GF(5) and
GF(q^2); that the tasks a Pool receives carry the kernel with that set
and no state of their own; that a generic sweep runs no elimination but
the check of its seed; and that a sweep gives the same count at jobs 1
and 2.

With more than one worker the driver counts in-process, in doubling
index ranges, until a deadline, and maps only the rest on a Pool.  A
fake clock that expires after any number of those ranges checks that
the count is the one-worker count and that the Pool receives exactly
the untouched tail, in 4 chunks per worker; the tests that pin the Pool
path itself set the deadline to 0.
"""

import multiprocessing
import os
import pickle
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankmetric import codes, linalg
from rankmetric.codes import (
    Grassmannian,
    MatrixCode,
    _seed_word,
    _by_table,
    _SpanMinRank,
    _sweep,
    density_bruteforce,
    field_for_order,
)
from rankmetric.critical import PointSet, all_points
from rankmetric.fields import make_ext_field
from rankmetric.qcomb import matrix_rank_count, qbinom
from rankmetric.restricted import (
    _rank_strata,
    ambient_basis,
    hermitian_field,
    restricted_density_bruteforce,
)


def reference_min_rank(words, n, m, fld):
    """Minimum rank over the nonzero flattened n x m words."""
    return min(
        linalg.rank([w[i * m : (i + 1) * m] for i in range(n)], fld)
        for w in words
        if any(w)
    )


@st.composite
def small_codes(draw):
    # GF(2) shapes up to 4 x 5 reach both the rank table (nm <= 16) and
    # linalg.rank.
    q = draw(st.sampled_from((2, 3, 4, 5)))
    n = draw(st.integers(1, 4 if q == 2 else 3))
    m = draw(st.integers(1, 5 if q == 2 else 3))
    k = draw(st.integers(1, 3))
    entries = st.integers(0, q - 1)
    vectors = draw(
        st.lists(st.lists(entries, min_size=n * m, max_size=n * m), min_size=k, max_size=k)
    )
    if draw(st.booleans()):
        # Plant the rank-1 word u v^T at a random combination sum c_i v_i
        # (c_0 = 1), so the minimum sits on one specific word of the span.
        fld = field_for_order(q)
        u = draw(st.lists(entries, min_size=n, max_size=n))
        v = draw(st.lists(entries, min_size=m, max_size=m))
        coeffs = draw(st.lists(entries, min_size=k - 1, max_size=k - 1))
        word = [fld.mul(a, b) for a in u for b in v]
        for c, vec in zip(coeffs, vectors[1:]):
            word = [fld.sub(w, fld.mul(c, x)) for w, x in zip(word, vec)]
        vectors[0] = word
    return q, n, m, vectors


@given(small_codes())
@settings(max_examples=150, deadline=None)
def test_min_distance_matches_reference(case):
    q, n, m, vectors = case
    fld = field_for_order(q)
    if not any(any(v) for v in vectors):
        return  # the zero code is rejected by MatrixCode
    C = MatrixCode(fld, n, m, vectors)
    expected = reference_min_rank(linalg.span_elements(C.basis, fld), n, m, fld)
    assert C.min_distance() == expected


# (entry field, coefficient order q) of every word layout: prime fields,
# GF(p^h) over GF(p), the GF(16)/GF(4) tower and the Hermitian entry
# fields GF(q^2) over GF(q)
WORD_FIELDS = (
    [(field_for_order(q), q) for q in (2, 3, 4, 5, 7, 9, 16, 27, 81)]
    + [(make_ext_field(field_for_order(4), 2), 4)]
    + [(hermitian_field(q), q) for q in (2, 3, 4, 5)]
)


@st.composite
def word_cases(draw):
    fld, q = draw(st.sampled_from(WORD_FIELDS))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    flat = st.lists(st.integers(0, fld.order - 1), min_size=n * m, max_size=n * m)
    return fld, q, n, m, draw(flat), draw(st.lists(flat, max_size=4))


@given(word_cases())
@settings(max_examples=300, deadline=None)
def test_word_arithmetic_matches_field_arithmetic(case):
    fld, q, n, m, a, others = case
    kernel = _SpanMinRank(fld, q, n, m)
    vec = kernel.vec
    x = vec(a)
    assert kernel.entries(x) == a
    sums = [vec(list(map(fld.add, a, b))) for b in others]
    assert list(kernel.sums(x, [vec(b) for b in others])) == sums
    for c in range(q):
        assert kernel.scale(c, x) == vec(linalg.row_scale(c, a, fld))
    if fld.order == 2:
        # entry j at bit j: the index of the rank table
        assert x == sum(e << j for j, e in enumerate(a))
        rows = [a[i * m : (i + 1) * m] for i in range(n)]
        assert linalg.gf2_rank_table(n, m)[x] == linalg.rank(rows, fld)


def ambient(kind, n, m, d, q):
    """(entry field, coordinate vectors, strata at d) of a full n x m or
    a symmetric, alternating or Hermitian n x n ambient.  The full strata
    are built here: E_r, the rank-r partial identity, with A_r words of
    rank r."""
    if kind == "full":
        strata = []
        for r in range(d, min(n, m) + 1):
            E_r = [[int(i == j and i < r) for j in range(m)] for i in range(n)]
            strata.append((r, matrix_rank_count(n, m, r, q), [x for row in E_r for x in row]))
        return field_for_order(q), linalg.identity(n * m), strata
    fld = hermitian_field(q) if kind == "hermitian" else field_for_order(q)
    vectors = [[x for row in mat for x in row] for mat in ambient_basis(kind, n, q)]
    return fld, vectors, _rank_strata(kind, n, d, q)


def reference_verdicts(fld, q, n, m, vectors, k, d):
    """(RREF basis over GF(q), verdict) for every k-dim coordinate
    subspace in the canonical order, the verdict being whether all its
    nonzero words, mapped through vectors, have rank >= d.  Each word is
    mapped and ranked once, on its first appearance."""
    coord = field_for_order(q)
    ranks = {}
    out = []
    for rows in Grassmannian(len(vectors), k, q).iter_range():
        nonzero = [c for c in linalg.span_elements(rows, coord) if any(c)]
        for coeffs in nonzero:
            if coeffs not in ranks:
                word = [0] * (n * m)
                for c, vec in zip(coeffs, vectors):
                    word = [fld.add(w, fld.mul(c, x)) for w, x in zip(word, vec)]
                ranks[coeffs] = reference_min_rank([word], n, m, fld)
        out.append((rows, min(ranks[c] for c in nonzero) >= d))
    return out


def reference_good_codes(fld, q, n, m, vectors, k, d):
    """The RREF bases of the subspaces with a good verdict."""
    return [rows for rows, good in reference_verdicts(fld, q, n, m, vectors, k, d) if good]


def dim_of(kind, n, m, q):
    """N, the dimension over GF(q) of the ambient."""
    return len(ambient(kind, n, m, 1, q)[1])


# (kind, n, m, k, q) with at most 20,000 words over the reference sweep;
# GF(2) full shapes are ranked by the table, every other one by
# elimination, Hermitian ones with entries in GF(q^2), GF(4) to GF(16)
SWEEP_SHAPES = [
    (kind, n, m, k, q)
    for kind, n, m, q in (
        [("full", n, m, q) for q in (2, 3, 4, 5) for n in (1, 2, 3) for m in (1, 2, 3)]
        + [("hermitian", n, n, q) for n in (2, 3) for q in (2, 3, 4)]
    )
    for k in range(1, dim_of(kind, n, m, q) + 1)
    if qbinom(dim_of(kind, n, m, q), k, q) * q**k <= 20000
]


@st.composite
def sweep_cases(draw):
    kind, n, m, k, q = draw(st.sampled_from(SWEEP_SHAPES))
    d = draw(st.integers(1, min(n, m)))
    total = qbinom(dim_of(kind, n, m, q), k, q)
    cuts = draw(st.lists(st.integers(0, total), max_size=5))
    return kind, n, m, k, d, q, [0] + sorted(cuts) + [total]


def sweep_density(kind, n, m, k, d, q):
    """The count of the driver's public sweep of the ambient."""
    if kind == "full":
        return density_bruteforce(n, m, k, d, q).count
    return restricted_density_bruteforce(kind, n, k, d, q).count


@given(sweep_cases())
@settings(max_examples=80, deadline=None)
def test_pruned_sweep_matches_flat_reference(case):
    kind, n, m, k, d, q, bounds = case
    fld, vectors, _ = ambient(kind, n, m, d, q)
    ok = [good for _, good in reference_verdicts(fld, q, n, m, vectors, k, d)]
    expected = [sum(ok[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    g = Grassmannian(len(vectors), k, q)
    kernel = _SpanMinRank(fld, q, n, m, ambient=vectors, d=d)
    units = [kernel.vec(v) for v in vectors]
    chunks = [kernel.count(g, units, d, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert chunks == expected
    assert sweep_density(kind, n, m, k, d, q) == sum(expected)


@st.composite
def restricted_cases(draw):
    # GF(2) symmetric and alternating (n <= 3) are ranked by the table;
    # Hermitian matrices have entries in GF(q^2), GF(4) to GF(16), and
    # are ranked by elimination, with coefficients in the subfield GF(q).
    q = draw(st.sampled_from((2, 3, 4)))
    kind = draw(st.sampled_from(("symmetric", "alternating", "hermitian")))
    n = draw(st.integers(2, 3 if q == 2 and kind != "hermitian" else 2))
    dim = len(ambient_basis(kind, n, q))
    k = draw(st.integers(1, dim))
    d = draw(st.integers(1, n))
    return kind, n, k, d, q


@given(restricted_cases())
@settings(max_examples=80, deadline=None)
def test_restricted_density_matches_reference(case):
    kind, n, k, d, q = case
    res = restricted_density_bruteforce(kind, n, k, d, q)
    fld, vectors, _ = ambient(kind, n, n, d, q)
    assert res.count == len(reference_good_codes(fld, q, n, n, vectors, k, d))


# (kind, n, m, k, q) with at most 20,000 words over the reference sweep;
# GF(2) full and alternating shapes with nm <= 16 are ranked by the table
SEEDED_SHAPES = [
    (kind, n, m, k, q)
    for kind, n, m, q in (
        [("full", n, m, q) for q in (2, 3, 4, 5) for n in (1, 2, 3) for m in (1, 2, 3)]
        + [("alternating", n, n, q) for n in (2, 3, 4) for q in (2, 3)]
        + [("hermitian", n, n, q) for n in (2, 3) for q in (2, 3, 4)]
    )
    for k in range(1, dim_of(kind, n, m, q) + 1)
    if qbinom(dim_of(kind, n, m, q), k, q) * q**k <= 20000
]


@st.composite
def seeded_cases(draw):
    kind, n, m, k, q = draw(st.sampled_from(SEEDED_SHAPES))
    d = draw(st.integers(1, min(n, m)))
    return kind, n, m, k, d, q


@given(seeded_cases(), st.lists(st.integers(0, 1000), max_size=4))
@settings(max_examples=60, deadline=None)
def test_seeded_strata_match_flat_reference(case, cuts):
    # f_r, counted in chunks at random bounds of G(N-1, k-1) from the
    # seed's span, is the number of good codes that contain the seed
    kind, n, m, k, d, q = case
    fld, vectors, strata = ambient(kind, n, m, d, q)
    N = len(vectors)
    coord = field_for_order(q)
    good = reference_good_codes(fld, q, n, m, vectors, k, d)
    g = Grassmannian(N - 1, k - 1, q)
    kernel = _SpanMinRank(fld, q, n, m, ambient=vectors, d=d)
    units = [kernel.vec(v) for v in vectors]
    bounds = [0] + sorted(c * g.total // 1000 for c in cuts) + [g.total]
    pairs = 0
    for r, a, seed in strata:
        word, p = _seed_word(fld, q, n, m, vectors, r, seed)
        rest = units[:p] + units[p + 1 :]
        f = sum(
            kernel.count(g, rest, d, lo, hi, kernel.vec(word)) for lo, hi in zip(bounds, bounds[1:])
        )
        holding = sum(
            linalg.in_rowspan(rows, [row.index(1) for row in rows], seed, coord) for rows in good
        )
        assert f == holding, (r, seed)
        pairs += a * f
    assert pairs == len(good) * (q**k - 1)


class InProcessPool:
    """A stand-in for multiprocessing.Pool that maps in-process."""

    def __init__(self, processes):
        pass

    def map(self, fn, tasks):
        return [fn(t) for t in tasks]

    def close(self):
        pass

    terminate = join = close


@given(seeded_cases(), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_seeded_driver_matches_flat_reference(case, jobs):
    # the driver's chunks (4 per worker and plan entry, at most jobs
    # workers, no in-process part) run in-process on a stand-in Pool
    kind, n, m, k, d, q = case
    fld, vectors, strata = ambient(kind, n, m, d, q)
    expected = len(reference_good_codes(fld, q, n, m, vectors, k, d))
    with mock.patch.object(os, "cpu_count", return_value=jobs), mock.patch.object(
        multiprocessing, "Pool", InProcessPool
    ), mock.patch.object(codes, "_POOL_AFTER_S", 0):
        count, total = _sweep(
            fld, q, n, m, vectors, k, d, None, "test sweep", jobs=jobs, strata=strata
        )
        assert (count, total) == (expected, qbinom(len(vectors), k, q))
        if kind == "full":
            assert density_bruteforce(n, m, k, d, q, jobs=jobs).count == expected


def test_seeded_restricted_pins():
    # counts of the flat sweep, before the rank seeding
    assert restricted_density_bruteforce("alternating", 5, 2, 4, 2).count == 105896
    assert restricted_density_bruteforce("hermitian", 3, 2, 3, 2).count == 6720


class PicklingPool(InProcessPool):
    """An in-process stand-in for multiprocessing.Pool that pickles each
    task before and after running it."""

    sent = []

    def map(self, fn, tasks):
        out = []
        for task in tasks:
            before = pickle.dumps(task)
            out.append(fn(task))
            self.sent.append((before, pickle.dumps(task), task))
        return out


def test_generic_sweep_eliminates_only_its_seed():
    # (2, 3, 3, 2, 3) is one seeded count at jobs 1: its words are decided
    # by the set of rank < 2 words, so the one rank call is the check of
    # the seed
    with mock.patch.object(linalg, "rank", wraps=linalg.rank) as spy:
        assert density_bruteforce(2, 3, 3, 2, 3).count == 3456
    assert spy.call_count == 1


# (kind, n, m, q) of every ambient with n, m <= 5 and at most 20,000
# matrices: full n x m shapes with n < m are listed by columns, GF(2)
# alternating 5 x 5 (nm = 25) lies past the rank table, Hermitian
# matrices have entries in GF(q^2)
LOW_RANK_AMBIENTS = [
    (kind, n, m, q)
    for kind, n, m, q in (
        [("full", n, m, q) for q in (2, 3, 4, 5) for n in (1, 2, 3, 4) for m in (1, 2, 3, 4)]
        + [(kind, n, n, q) for kind in ("symmetric", "alternating", "hermitian")
           for n in (1, 2, 3, 4, 5) for q in (2, 3, 4, 5)]
    )
    if 0 < dim_of(kind, n, m, q) and q ** dim_of(kind, n, m, q) <= 20000
]

# the ambients of at most 4,096 matrices that the sweeps below run on
SWEPT_AMBIENTS = [
    (kind, n, m, q)
    for kind, n, m, q in LOW_RANK_AMBIENTS
    if q ** dim_of(kind, n, m, q) <= 4096
]


@st.composite
def low_rank_cases(draw):
    kind, n, m, q = draw(st.sampled_from(SWEPT_AMBIENTS))
    k = draw(st.integers(1, min(2, dim_of(kind, n, m, q))))
    d = draw(st.integers(1, min(n, m)))
    return kind, n, m, k, d, q


def reference_bad_words(kernel, vectors, d):
    """The words of the matrices of rank < d in the GF(q)-span of the
    flattened vectors, each ranked by elimination."""
    fld, n, m = kernel.fld, kernel.n, kernel.m
    return {
        kernel.vec(w)
        for w in linalg.span_elements(vectors, fld, kernel.q)
        if linalg.rank([w[i * m : (i + 1) * m] for i in range(n)], fld) < d
    }


class RecordingKernel(_SpanMinRank):
    """The kernel, keeping every instance made in this process."""

    __slots__ = ()
    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        RecordingKernel.made.append(self)


def assert_holds_the_bad_words(kernel, vectors, d):
    """A rank kernel of a sweep at d keeps the table over GF(2) with
    nm <= 16 and otherwise the set of the ambient's rank < d words."""
    fld, n, m = kernel.fld, kernel.n, kernel.m
    if _by_table(fld, n, m):
        assert kernel.bad is None and kernel.table == linalg.gf2_rank_table(n, m)
    else:
        assert kernel.table is None and kernel.bad == reference_bad_words(kernel, vectors, d)


@given(low_rank_cases())
@settings(max_examples=80, deadline=None)
def test_sweep_lists_the_ambient_words_of_rank_below_d(case):
    # the set comes from the whole ambient, also for a seeded plan, whose
    # counts run on a hyperplane
    kind, n, m, k, d, q = case
    fld, vectors, strata = ambient(kind, n, m, d, q)
    RecordingKernel.made = []
    with mock.patch.object(codes, "_SpanMinRank", RecordingKernel):
        _sweep(fld, q, n, m, vectors, k, d, None, "test sweep", strata=strata)
    (kernel,) = RecordingKernel.made
    assert_holds_the_bad_words(kernel, vectors, d)


@given(st.sampled_from(LOW_RANK_AMBIENTS), st.data())
@settings(max_examples=100, deadline=None)
def test_bad_words_are_the_ambient_words_of_rank_below_d(case, data):
    # the listing itself, also on the shapes the table serves
    kind, n, m, q = case
    d = data.draw(st.integers(1, min(n, m)), label="d")
    fld, vectors, _ = ambient(kind, n, m, d, q)
    kernel = _SpanMinRank(fld, q, n, m)
    assert kernel.bad_words(vectors, d) == reference_bad_words(kernel, vectors, d)


@given(low_rank_cases())
@settings(max_examples=40, deadline=None)
def test_pool_tasks_carry_the_kernel_and_its_bad_words(case):
    # every task is (kernel, Grassmannian, units, seed, d, lo, hi), the
    # kernel holds the sweep's table or set and nothing else that a count
    # could fill, and it pickles to the same bytes after a chunk has run
    kind, n, m, k, d, q = case
    fld, vectors, strata = ambient(kind, n, m, d, q)
    expected = _sweep(fld, q, n, m, vectors, k, d, None, "test sweep", strata=strata)
    PicklingPool.sent = []
    with mock.patch.object(os, "cpu_count", return_value=2), mock.patch.object(
        multiprocessing, "Pool", PicklingPool
    ), mock.patch.object(codes, "_POOL_AFTER_S", 0):
        got = _sweep(fld, q, n, m, vectors, k, d, None, "test sweep", jobs=2, strata=strata)
    assert got == expected
    assume(PicklingPool.sent)  # a plan of one subspace runs in-process
    (kernel,) = {id(task[0]): task[0] for _, _, task in PicklingPool.sent}.values()
    assert_holds_the_bad_words(kernel, vectors, d)
    for before, after, task in PicklingPool.sent:
        assert before == after == pickle.dumps(task)
        assert len(task) == 7 and task[4] == d
        assert not any(isinstance(item, (dict, set)) for item in task)
        assert not any(isinstance(getattr(kernel, s, None), (dict, set)) for s in kernel.__slots__)


def test_generic_sweeps_agree_at_jobs_1_and_2():
    # a real two-worker Pool, which counts every subspace, against the
    # in-process sweep
    fld, vectors, strata = ambient("hermitian", 3, 3, 2, 2)
    with mock.patch.object(os, "cpu_count", return_value=2), mock.patch.object(
        codes, "_POOL_AFTER_S", 0
    ):
        for n, m in ((2, 3), (3, 2)):
            counts = [density_bruteforce(n, m, 3, 2, 3, jobs=jobs).count for jobs in (1, 2)]
            assert counts == [3456, 3456]
        hermitian = [
            _sweep(fld, 2, 3, 3, vectors, 3, 2, None, "test sweep", jobs=jobs, strata=strata)
            for jobs in (1, 2)
        ]
        assert hermitian[0] == hermitian[1] == (586680, 788035)


class CountingKernel(_SpanMinRank):
    """The kernel, recording (seed, lo, hi) for every count call made on
    it in this process."""

    __slots__ = ()
    calls = []

    def count(self, g, units, d, lo, hi, seed=None):
        CountingKernel.calls.append((seed, lo, hi))
        return super().count(g, units, d, lo, hi, seed)


class FakeClock:
    """A stand-in for the `time` module of `codes` whose clock reads 0 on
    its first `ticks` reads and 1e9 after."""

    def __init__(self, ticks):
        self.ticks = ticks

    def perf_counter(self):
        self.ticks -= 1
        return 0.0 if self.ticks >= 0 else 1e9


def doubling_split(entries, j, chunks):
    """(in-process ranges, Pool chunks), each a list of (seed, lo, hi), of
    plan entries (seed, size) when the deadline falls after j ranges."""
    ranges, tail = [], []
    for seed, size in entries:
        lo, step = 0, 1
        while lo < size and len(ranges) < j:
            ranges.append((seed, lo, min(lo + step, size)))
            lo, step = min(lo + step, size), 2 * step
        bounds = [lo + (size - lo) * i // chunks for i in range(chunks + 1)]
        tail += [(seed, a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
    return ranges, tail


@st.composite
def split_cases(draw):
    """(_sweep arguments, keyword arguments) of a small sweep on the
    GF(3) bad-word set, the GF(2) rank-table path or a point set."""
    path = draw(st.sampled_from(("gf3", "gf2", "points")))
    if path == "points":
        q, N = draw(st.sampled_from([(2, 3), (2, 4), (3, 3)]))
        k = draw(st.integers(1, N - 1))
        pts = draw(st.lists(st.sampled_from(all_points(N, q)), min_size=1, max_size=6))
        P = PointSet(N, q, pts)
        return (P.field, q, 1, N, linalg.identity(N), k, 1), {"points": P.points}
    q = 3 if path == "gf3" else 2
    _, n, m, k, q = draw(st.sampled_from([s for s in SEEDED_SHAPES if s[0] == "full" and s[4] == q]))
    d = draw(st.integers(1, min(n, m)))
    fld, vectors, strata = ambient("full", n, m, d, q)
    return (fld, q, n, m, vectors, k, d), {"strata": strata}


@given(split_cases(), st.integers(2, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_deadline_splits_sweep_into_ranges_and_pool_tail(case, jobs, data):
    args, kw = case
    CountingKernel.calls = []
    with mock.patch.object(codes, "_SpanMinRank", CountingKernel):
        expected, total = _sweep(*args, None, "test sweep", **kw)
    # one worker: one in-process count per plan entry, over all of it
    entries = [(seed, hi) for seed, lo, hi in CountingKernel.calls]
    assert all(lo == 0 for _, lo, _ in CountingKernel.calls)
    workers = min(jobs, sum(size for _, size in entries))
    assume(workers > 1)
    everything = len(doubling_split(entries, float("inf"), 1)[0])
    j = data.draw(st.integers(0, everything), label="ranges before the deadline")
    ranges, tail = doubling_split(entries, j, 4 * workers)

    CountingKernel.calls = []
    PicklingPool.sent = []
    started = []

    def pool(processes):
        started.append(processes)
        return PicklingPool(processes)

    with mock.patch.object(codes, "_SpanMinRank", CountingKernel), mock.patch.object(
        codes, "time", FakeClock(j + 1)
    ), mock.patch.object(os, "cpu_count", return_value=jobs), mock.patch.object(
        multiprocessing, "Pool", pool
    ):
        assert _sweep(*args, None, "test sweep", jobs=jobs, **kw) == (expected, total)
    # the Pool maps after every in-process range, so its calls come last
    in_process = len(CountingKernel.calls) - len(PicklingPool.sent)
    assert CountingKernel.calls[:in_process] == ranges
    sent = [(task[3], task[5], task[6]) for _, _, task in PicklingPool.sent]
    assert sent == tail == CountingKernel.calls[in_process:]
    assert started == ([workers] if tail else [])
    for before, after, task in PicklingPool.sent:
        assert before == after == pickle.dumps(task)
        assert not any(isinstance(item, dict) for item in task)
        kernel = task[0]
        assert not any(isinstance(getattr(kernel, s, None), dict) for s in kernel.__slots__)
