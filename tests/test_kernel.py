"""The codeword-sweep kernel against a brute-force reference.

`MatrixCode.min_distance`, `density_bruteforce`,
`restricted_density_bruteforce` and `critical.delta_bruteforce` all run
on the one kernel in `codes`, which takes a bit-packed path for GF(2)
entries with nm <= 16 and a generic path otherwise.  The three
Grassmannian sweeps go through one driver, `codes._sweep`, which checks
d, charges the budget and splits the sweep into chunks, each one
`_SpanMinRank.count` call that skips every subspace containing an
already rejected partial subcode; the chunks are counted here through
`count` directly.  The point-set predicate of `delta_bruteforce` is
checked against its flat reference in test_critical.py.  The references here
enumerate every subspace with `Grassmannian.iter_range` and every word of
its span with `linalg.span_elements`, and rank each word with
`linalg.rank`, with no pruning, no early exit and no packing.

The driver seeds full, alternating and Hermitian sweeps by rank: it
counts the good codes through one rank-r word E_r (f_r) on the
hyperplane of a coordinate where E_r is nonzero, and divides
sum_r A_r * f_r by q^k - 1.  Each f_r is checked here against the
reference codes that contain E_r, and the driver's count against the
reference count.
"""

import multiprocessing
import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from rankmetric import linalg
from rankmetric.codes import (
    Grassmannian,
    MatrixCode,
    _seed_word,
    _SpanMinRank,
    _sweep,
    density_bruteforce,
    field_for_order,
)
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
    # GF(2) shapes up to 4 x 5 reach both paths (packed needs nm <= 16).
    q = draw(st.sampled_from((2, 3, 4)))
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


def reference_density_counts(n, m, k, d, q, bounds):
    """For each chunk [bounds[i], bounds[i+1]) of the canonical order, the
    number of its k-dim subspaces of GF(q)^(n x m) with min distance >= d."""
    fld = field_for_order(q)
    g = Grassmannian(n * m, k, q)
    ranks = {}
    ok = []
    for rows in g.iter_range():
        words = [w for w in linalg.span_elements(rows, fld) if any(w)]
        for w in words:
            if w not in ranks:
                ranks[w] = linalg.rank([w[i * m : (i + 1) * m] for i in range(n)], fld)
        ok.append(min(ranks[w] for w in words) >= d)
    return [sum(ok[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


# (q, n, m, k) with at most 20,000 words over the whole reference sweep;
# q = 2 takes the packed path, q = 3 and 4 the generic one
SWEEP_SHAPES = [
    (q, n, m, k)
    for q in (2, 3, 4)
    for n in (1, 2, 3)
    for m in (1, 2, 3)
    for k in range(1, n * m + 1)
    if qbinom(n * m, k, q) * q**k <= 20000
]


@st.composite
def sweep_cases(draw):
    q, n, m, k = draw(st.sampled_from(SWEEP_SHAPES))
    d = draw(st.integers(1, min(n, m)))
    total = qbinom(n * m, k, q)
    cuts = draw(st.lists(st.integers(0, total), max_size=5))
    return n, m, k, d, q, [0] + sorted(cuts) + [total]


@given(sweep_cases())
@settings(max_examples=80, deadline=None)
def test_pruned_sweep_matches_flat_reference(case):
    n, m, k, d, q, bounds = case
    expected = reference_density_counts(n, m, k, d, q, bounds)
    g = Grassmannian(n * m, k, q)
    kernel = _SpanMinRank(g.field, q, n, m)
    units = [kernel.vec(row) for row in linalg.identity(n * m)]
    chunks = [kernel.count(g, units, d, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert chunks == expected
    assert density_bruteforce(n, m, k, d, q).count == sum(expected)


def reference_restricted_count(kind, n, k, d, q):
    """Subspaces of the coordinate Grassmannian whose nonzero words, mapped
    through the ambient basis, all have rank >= d."""
    fld = hermitian_field(q) if kind == "hermitian" else field_for_order(q)
    basis = ambient_basis(kind, n, q)
    coord = field_for_order(q)
    count = 0
    for rows in Grassmannian(len(basis), k, q).iter_range():
        words = []
        for coeffs in linalg.span_elements(rows, coord):
            word = [0] * (n * n)
            for c, mat in zip(coeffs, basis):
                flat = [x for row in mat for x in row]
                word = [fld.add(w, fld.mul(c, x)) for w, x in zip(word, flat)]
            words.append(word)
        if reference_min_rank(words, n, n, fld) >= d:
            count += 1
    return count


@st.composite
def restricted_cases(draw):
    # GF(2) symmetric and alternating (n <= 3) take the packed path;
    # Hermitian matrices have entries in GF(q^2), GF(4) to GF(16), and
    # take the generic one with coefficients in the subfield GF(q).
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
    assert res.count == reference_restricted_count(kind, n, k, d, q)


def ambient(kind, n, m, d, q):
    """(entry field, coordinate vectors, strata at d) of a full n x m or
    an alternating or Hermitian n x n ambient.  The full strata are built
    here: E_r, the rank-r partial identity, with A_r words of rank r."""
    if kind == "full":
        strata = []
        for r in range(d, min(n, m) + 1):
            E_r = [[int(i == j and i < r) for j in range(m)] for i in range(n)]
            strata.append((r, matrix_rank_count(n, m, r, q), [x for row in E_r for x in row]))
        return field_for_order(q), linalg.identity(n * m), strata
    fld = hermitian_field(q) if kind == "hermitian" else field_for_order(q)
    vectors = [[x for row in mat for x in row] for mat in ambient_basis(kind, n, q)]
    return fld, vectors, _rank_strata(kind, n, d, q)


def reference_good_codes(fld, q, n, m, vectors, k, d):
    """The RREF bases over GF(q) of the k-dim coordinate subspaces whose
    nonzero words, mapped through vectors, all have rank >= d."""
    coord = field_for_order(q)
    good = []
    for rows in Grassmannian(len(vectors), k, q).iter_range():
        words = []
        for coeffs in linalg.span_elements(rows, coord):
            word = [0] * (n * m)
            for c, vec in zip(coeffs, vectors):
                word = [fld.add(w, fld.mul(c, x)) for w, x in zip(word, vec)]
            words.append(word)
        if reference_min_rank(words, n, m, fld) >= d:
            good.append(rows)
    return good


# (kind, n, m, k, q) with at most 20,000 words over the reference sweep;
# GF(2) full and alternating shapes with nm <= 16 take the packed path
SEEDED_SHAPES = [
    (kind, n, m, k, q)
    for kind, n, m, q in (
        [("full", n, m, q) for q in (2, 3, 4) for n in (1, 2, 3) for m in (1, 2, 3)]
        + [("alternating", n, n, q) for n in (2, 3, 4) for q in (2, 3)]
        + [("hermitian", n, n, q) for n in (2, 3) for q in (2, 3)]
    )
    for k in range(1, len(ambient(kind, n, m, 1, q)[1]) + 1)
    if qbinom(len(ambient(kind, n, m, 1, q)[1]), k, q) * q**k <= 20000
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
    kernel = _SpanMinRank(fld, q, n, m)
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
    # workers) run in-process on a stand-in Pool
    kind, n, m, k, d, q = case
    fld, vectors, strata = ambient(kind, n, m, d, q)
    expected = len(reference_good_codes(fld, q, n, m, vectors, k, d))
    with mock.patch.object(os, "cpu_count", return_value=jobs), mock.patch.object(
        multiprocessing, "Pool", InProcessPool
    ):
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
