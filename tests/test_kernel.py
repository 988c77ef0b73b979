"""The codeword-sweep kernel against a brute-force reference.

`MatrixCode.min_distance` and `restricted_density_bruteforce` both run on
the one min-rank kernel in `codes`, which takes a bit-packed path for
GF(2) entries with nm <= 16 and a generic path otherwise.  The reference
here enumerates every word of the span with `linalg.span_elements` and
ranks it with `linalg.rank`, with no early exit and no packing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rankmetric import linalg
from rankmetric.codes import Grassmannian, MatrixCode, field_for_order
from rankmetric.restricted import (
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
    # Hermitian over GF(2) has entries in GF(4) and takes the generic one.
    kind = draw(st.sampled_from(("symmetric", "alternating", "hermitian")))
    n = draw(st.integers(2, 2 if kind == "hermitian" else 3))
    dim = len(ambient_basis(kind, n, 2))
    k = draw(st.integers(1, dim))
    d = draw(st.integers(1, n))
    return kind, n, k, d


@given(restricted_cases())
@settings(max_examples=40, deadline=None)
def test_restricted_density_matches_reference(case):
    kind, n, k, d = case
    res = restricted_density_bruteforce(kind, n, k, d, 2)
    assert res.count == reference_restricted_count(kind, n, k, d, 2)
