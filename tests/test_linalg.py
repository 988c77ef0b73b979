"""Internal exact linear algebra: canonical forms and the GF(2) kernels."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankmetric import linalg
from rankmetric.codes import field_for_order
from rankmetric.fields import make_ext_field, make_field


@st.composite
def small_matrix(draw):
    q = draw(st.sampled_from([2, 3, 4]))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 5))
    data = [
        tuple(draw(st.integers(0, q - 1)) for _ in range(cols)) for _ in range(rows)
    ]
    return q, data


@given(small_matrix())
@settings(max_examples=150, deadline=None)
def test_rref_is_canonical_and_preserves_rowspan(mq):
    q, rows = mq
    fld = field_for_order(q)
    reduced, pivots = linalg.rref(rows, fld)
    # idempotent
    again, pivots2 = linalg.rref(reduced, fld)
    assert again == reduced and pivots2 == pivots
    # every original row lies in the reduced span and vice versa
    for r in rows:
        assert linalg.in_rowspan(reduced, pivots, r, fld)
    if reduced:
        full, fp = linalg.rref(list(rows) + list(reduced), fld)
        assert full == reduced
    # pivot structure: strictly increasing, unit leading entries, cleared cols
    assert list(pivots) == sorted(set(pivots))
    for row, p in zip(reduced, pivots):
        assert row[p] == 1
        assert all(other[p] == 0 for other in reduced if other is not row)


@given(small_matrix())
@settings(max_examples=150, deadline=None)
def test_rank_agrees_with_bit_kernel_on_gf2(mq):
    q, rows = mq
    if q != 2:
        return
    n, m = len(rows), len(rows[0])
    if n * m > 16:
        rows, n = rows[: 16 // m], 16 // m
    code = sum(x << j for j, x in enumerate(x for r in rows for x in r))
    assert linalg.gf2_rank_table(n, m)[code] == linalg.rank(rows, field_for_order(2))


def test_gf2_rank_table_agrees_with_elimination():
    table = linalg.gf2_rank_table(2, 3)
    fld = field_for_order(2)
    for code in range(1 << 6):
        rows = [tuple((code >> (3 * i + j)) & 1 for j in range(3)) for i in range(2)]
        assert table[code] == linalg.rank(rows, fld)


def test_nullspace_orthogonal_and_complementary():
    fld = field_for_order(3)
    rows = [(1, 2, 0, 1), (0, 1, 1, 1)]
    null = linalg.solution_space(rows, 4, fld)
    assert len(null) == 2  # 4 - rank
    assert linalg.rank(null, fld) == 2
    for v in null:
        assert linalg.mat_vec(rows, v, fld) == (0, 0)


def test_mat_inv_round_trip():
    fld = field_for_order(3)
    m = ((1, 2), (1, 1))
    inv = linalg.mat_inv(m, fld)
    assert linalg.mat_mul(m, inv, fld) == linalg.identity(2)
    singular = ((1, 2), (2, 1))
    assert linalg.mat_inv(singular, fld) is None


def test_projective_reps_count():
    # one canonical vector per point of PG(2, 3), walked by span_elements
    from rankmetric.critical import all_points

    reps = all_points(3, 3)
    assert len(reps) == 13
    assert len(set(reps)) == 13
    for r in reps:
        first = next(x for x in r if x)
        assert first == 1


# ------------------------------------------- differential test of L1

def reference_rref(rows, fld):
    """Textbook Gauss-Jordan elimination through the field's add/mul."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(work[0])):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = fld.inv(work[r][c])
        work[r] = [fld.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [fld.sub(x, fld.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def reference_in_rowspan(rows, pivots, vec, fld):
    v = list(vec)
    for row, c in zip(rows, pivots):
        f = v[c]
        v = [fld.sub(x, fld.mul(f, y)) for x, y in zip(v, row)]
    return not any(v)


def reference_nullspace(rows, fld):
    reduced, pivots = reference_rref(rows, fld)
    if not reduced:
        raise ValueError("empty")
    ncols = len(reduced[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = fld.neg(row[fc])
        basis.append(tuple(v))
    return tuple(basis)


# GF(2), GF(3), GF(5), GF(7), GF(4), GF(8), GF(9), and GF(16) over GF(4)
L1_FIELDS = [make_field(p, h) for p, h in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2))]
L1_FIELDS.append(make_ext_field(make_field(2, 2), 2))


@st.composite
def field_matrix(draw):
    fld = draw(st.sampled_from(L1_FIELDS))
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 5))  # more rows than columns is drawn too
    entry = st.integers(0, fld.order - 1)
    row = st.one_of(st.just((0,) * ncols), st.tuples(*[entry] * ncols))
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    vec = draw(st.one_of(st.just((0,) * ncols), st.tuples(*[entry] * ncols)))
    return fld, rows, vec


@given(field_matrix())
@settings(max_examples=400, deadline=None)
def test_l1_matches_generic_reference(case):
    fld, rows, vec = case
    reduced, pivots = linalg.rref(rows, fld)
    assert (reduced, pivots) == reference_rref(rows, fld)
    assert linalg.rank(rows, fld) == len(reduced)  # the reference rank
    # an iterator of rows is read once, to the same answers
    assert linalg.rref(iter(rows), fld) == (reduced, pivots)
    assert linalg.rank(iter(rows), fld) == len(reduced)
    # the leading square block: no inverse exactly when its rank is short
    n = min(len(rows), len(vec))
    square = [row[:n] for row in rows[:n]]
    inv = linalg.mat_inv(square, fld)
    if len(reference_rref(square, fld)[0]) < n:
        assert inv is None
    else:
        assert linalg.mat_mul(square, inv, fld) == linalg.identity(n)
    for v in list(rows) + [vec]:
        assert linalg.in_rowspan(reduced, pivots, v, fld) == reference_in_rowspan(
            reduced, pivots, v, fld
        )
    ncols = len(vec)
    assert linalg.solution_space(rows, ncols, fld) == reference_solution_space(rows, ncols, fld)


def test_l1_fields_cover_prime_and_extension_paths():
    assert sorted(f.order for f in L1_FIELDS) == [2, 3, 4, 5, 7, 8, 9, 16]
    assert [f.base.order for f in L1_FIELDS if f.order == 16] == [4]


def reference_dot(x, y, fld):
    """The field sum of x[k] * y[k] through the field's add/mul."""
    s = 0
    for a, b in zip(x, y):
        s = fld.add(s, fld.mul(a, b))
    return s


def reference_mat_mul(a, b, fld):
    """Entry (i, j) of a . b as the dot product of row i of a and column j
    of b.  An empty b carries no column count: the product has no columns."""
    ncols = len(b[0]) if b else 0
    cols = [[row[j] for row in b] for j in range(ncols)]
    return tuple(tuple(reference_dot(row, col, fld) for col in cols) for row in a)


@st.composite
def product_case(draw):
    fld = draw(st.sampled_from(L1_FIELDS))
    nrows, inner, ncols = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.integers(0, fld.order - 1)

    def matrix(r, c):
        return draw(st.lists(st.tuples(*[entry] * c), min_size=r, max_size=r))

    return fld, matrix(nrows, inner), matrix(inner, ncols), draw(st.tuples(*[entry] * inner))


@given(product_case())
@example((make_field(3), [], [], ()))
@example((make_field(5), [(4,)], [(3,)], (2,)))
@example((make_field(2, 2), [(3,)], [(2,)], (3,)))
@settings(max_examples=300, deadline=None)
def test_mat_mul_and_mat_vec_match_generic_reference(case):
    fld, a, b, v = case
    assert linalg.mat_mul(a, b, fld) == reference_mat_mul(a, b, fld)
    assert linalg.mat_vec(a, v, fld) == tuple(reference_dot(row, v, fld) for row in a)


# ------------------------------------------- differential test of the walk

def reference_span(basis, fld, q):
    """Element idx of the GF(q)-span: the combination of the basis whose
    coefficients are the base-q digits of idx, basis[0] least
    significant, each digit an element of GF(q) inside fld."""
    out = []
    for idx in range(q ** len(basis)):
        v = [0] * (len(basis[0]) if basis else 0)
        for j, b in enumerate(basis):
            c = idx // q**j % q
            v = [fld.add(x, fld.mul(c, y)) for x, y in zip(v, b)]
        out.append(tuple(v))
    return out


# GF(2), GF(3), GF(4), GF(5), GF(8), GF(9) and GF(16) over GF(4), each
# spanning over itself, and GF(q)-spans inside GF(q^2) for q = 2, 3, 4
SPAN_CASES = [
    (make_field(p, h), p**h) for p, h in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2))
]
SPAN_CASES.append((make_ext_field(make_field(2, 2), 2), 16))
SPAN_CASES += [(make_ext_field(field_for_order(q), 2), q) for q in (2, 3, 4)]


@st.composite
def span_case(draw):
    fld, q = draw(st.sampled_from(SPAN_CASES))
    k = draw(st.integers(0, 3 if q <= 9 else 2))  # k = 0 is the empty basis
    ncols = draw(st.integers(1, 3))
    entry = st.integers(0, fld.order - 1)
    basis = []
    for _ in range(k):
        if basis and draw(st.booleans()):
            basis.append(draw(st.sampled_from(basis)))  # a dependent basis
        else:
            basis.append(draw(st.one_of(st.just((0,) * ncols), st.tuples(*[entry] * ncols))))
    return fld, q, basis


@given(span_case())
@settings(max_examples=300, deadline=None)
def test_span_elements_matches_reference(case):
    fld, q, basis = case
    assert list(linalg.span_elements(basis, fld, q)) == reference_span(basis, fld, q)


# ------------------------------------ differential test of the kernel solve

def reference_solution_space(rows, ncols, fld):
    """The textbook kernel: GF(q)^ncols when every row is zero, else the
    basis read off the Gauss-Jordan form of all the rows."""
    if not any(any(r) for r in rows):
        return tuple(tuple(int(i == j) for j in range(ncols)) for i in range(ncols))
    return reference_nullspace(rows, fld)


# GF(2), GF(3), GF(4) and GF(9)
SOLVE_FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(3, 2)]


@st.composite
def solve_case(draw):
    fld = draw(st.sampled_from(SOLVE_FIELDS))
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(0, 8))  # more rows than columns is drawn too
    entry = st.integers(0, fld.order - 1)
    row = st.one_of(st.just((0,) * ncols), st.tuples(*[entry] * ncols))
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        # a full-rank system: the identity rows mixed in at random places
        for i in range(ncols):
            rows.insert(draw(st.integers(0, len(rows))), tuple(int(i == j) for j in range(ncols)))
    return fld, ncols, rows


@given(solve_case())
@example((make_field(3), 2, []))
@example((make_field(2, 2), 3, [(0, 0, 0), (0, 0, 0)]))
@settings(max_examples=400, deadline=None)
def test_solution_space_matches_textbook_reference(case):
    fld, ncols, rows = case
    want = reference_solution_space(rows, ncols, fld)
    assert linalg.solution_space(rows, ncols, fld) == want
    # rows pulled from a generator give the same basis, and none is pulled
    # after the rank reaches ncols
    pulled = []

    def lazy():
        for r in rows:
            pulled.append(r)
            yield r

    assert linalg.solution_space(lazy(), ncols, fld) == want
    full = next(
        (k for k in range(1, len(rows) + 1) if len(reference_rref(rows[:k], fld)[0]) == ncols),
        None,
    )
    assert len(pulled) == (len(rows) if full is None else full)


# ---------------------------------------- differential test of the row codes

# GF(2), GF(3), GF(4), GF(5), GF(9) and GF(16) over GF(4)
ROW_CODE_FIELDS = [make_field(p, h) for p, h in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2))]
ROW_CODE_FIELDS.append(make_ext_field(make_field(2, 2), 2))


def row_code(vec, q):
    return sum(x * q**c for c, x in enumerate(vec))


@st.composite
def row_code_case(draw):
    fld = draw(st.sampled_from(ROW_CODE_FIELDS))
    n = draw(st.integers(1, 3 if fld.order <= 5 else 2))
    entry = st.integers(0, fld.order - 1)
    vec = st.tuples(*[entry] * n)
    return fld, n, draw(vec), draw(vec), draw(entry), draw(st.lists(vec, max_size=3))


@given(row_code_case())
@example((make_ext_field(make_field(2, 2), 2), 1, (15,), (9,), 7, [(6,)]))
@settings(max_examples=300, deadline=None)
def test_row_arithmetic_matches_field_add_and_mul(case):
    fld, n, v, w, a, basis = case
    q = fld.order
    add, scale = linalg.row_arithmetic(fld, n)
    assert len(add) + sum(map(len, scale)) == linalg.row_arithmetic_size(q, n)
    assert add[row_code(v, q) * q**n + row_code(w, q)] == row_code(map(fld.add, v, w), q)
    assert scale[a][row_code(v, q)] == row_code([fld.mul(a, x) for x in v], q)
    # grown one row at a time, dependent rows included, the set holds the
    # codes of exactly the span's vectors
    span = {0}
    for b in basis:
        span = linalg.grow_span(span, row_code(b, q), add, scale)
    assert span == {row_code(u, q) for u in reference_span(basis, fld, q)}


def per_entry_row_arithmetic(fld, n):
    """The row-code tables one field call per entry of each sum and
    multiple: add[v * q^n + w] the code of v + w, scale[a][v] that of a*v."""
    q = fld.order
    vecs = [[v // q**c % q for c in range(n)] for v in range(q**n)]
    add = [row_code(map(fld.add, v, w), q) for v in vecs for w in vecs]
    scale = [[row_code([fld.mul(a, x) for x in v], q) for v in vecs] for a in range(q)]
    return add, scale


def test_row_arithmetic_equals_the_per_entry_tables():
    # every field of order <= 9, GF(4) and GF(9) also as extensions of
    # GF(2) and GF(3), and n <= 3; built uncached
    fields = [field_for_order(q) for q in (2, 3, 4, 5, 7, 8, 9)]
    fields += [make_ext_field(field_for_order(p), 2) for p in (2, 3)]
    for fld in fields:
        for n in range(4):
            assert linalg.row_arithmetic.__wrapped__(fld, n) == per_entry_row_arithmetic(fld, n)


# ------------------------------------ differential test of the rank counts

def reference_rank_counts(mats, fld, q):
    """The flat walk: each matrix of the span by `span_elements` on the
    flattened entries, ranked by elimination, and the ranks counted."""
    if not mats:
        return [1]
    n, m = len(mats[0]), len(mats[0][0])
    flat = [[x for row in mat for x in row] for mat in mats]
    counts = [0] * (n + 1)
    for vec in linalg.span_elements(flat, fld, q):
        counts[linalg.rank([vec[i * m : (i + 1) * m] for i in range(n)], fld)] += 1
    return counts


# GF(2), GF(3), GF(4), GF(5) spanning over themselves, and GF(q)-spans
# inside GF(q^2) for q = 2, 3
SPAN_RANK_CASES = [(field_for_order(q), q) for q in (2, 3, 4, 5)]
SPAN_RANK_CASES += [(make_ext_field(field_for_order(q), 2), q) for q in (2, 3)]


@st.composite
def span_rank_case(draw):
    fld, q = draw(st.sampled_from(SPAN_RANK_CASES))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    entry = st.integers(0, fld.order - 1)
    # sparse entries, so that groups by first nonzero row vary
    cell = st.one_of(st.just(0), st.just(0), entry)
    mats = []
    for _ in range(draw(st.integers(0, 4))):  # 0 draws the empty basis
        mat = tuple(tuple(draw(cell) for _ in range(m)) for _ in range(n))
        flat = [[x for row in b for x in row] for b in mats + [mat]]
        if linalg.rank(flat, fld) == len(flat):
            mats.append(mat)  # independent over fld, hence over GF(q)
    return fld, q, mats


@given(span_rank_case())
@example((field_for_order(3), 3, []))
@example((field_for_order(3), 3, [((1, 2),), ((0, 1),)]))  # n = 1
@example((field_for_order(2), 2, [((0, 1), (0, 0), (1, 0)), ((0, 0), (1, 1), (0, 0))]))
@settings(max_examples=200, deadline=None)
def test_rank_counts_matches_the_flat_walk(case):
    fld, q, mats = case
    got = linalg.rank_counts(mats, fld, q)
    assert got == reference_rank_counts(mats, fld, q)
    assert sum(got) == q ** len(mats)


def test_rank_counts_takes_each_branch_of_the_last_rows():
    # alternating 3 x 3 over GF(3): row 2 belongs to no group, so the last
    # level has 1 word, and at row 1 each case occurs: x in S, S = {0}
    # grown by x, and x outside |S| = 3 words tested by lookups; the
    # 3 x 2 matrices over GF(3) grow the span at every level
    fld = field_for_order(3)
    alternating = [
        ((0, 1, 0), (2, 0, 0), (0, 0, 0)),
        ((0, 0, 1), (0, 0, 0), (2, 0, 0)),
        ((0, 0, 0), (0, 0, 1), (0, 2, 0)),
    ]
    full = [
        tuple(tuple(int((i, j) == (r, c)) for j in range(2)) for i in range(3))
        for r in range(3)
        for c in range(2)
    ]
    for mats in (alternating, full):
        assert linalg.rank_counts(mats, fld) == reference_rank_counts(mats, fld, 3)

