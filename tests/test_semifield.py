"""Semifields, twisted fields, the code correspondence and the exhaustive
equivalence machinery."""

from collections import Counter
from functools import lru_cache
from itertools import chain

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from rankmetric import linalg, semifield
from rankmetric.errors import BudgetExceededError
from rankmetric.fields import FiniteField, make_ext_field, make_field, nth_irreducible
from rankmetric.linpoly import LinearizedPoly, from_matrix
from rankmetric.qcomb import gl_order
from rankmetric.semifield import (
    LinPolyCode,
    Semifield,
    TwistedFieldSpec,
    aut_group_size_bruteforce,
    c0_code,
    class_count_formula,
    code_to_semifield,
    equiv_to_c0_predicate,
    idealizers,
    is_equivalent_bruteforce,
    normalize_contains_x,
    nuclei,
    semifield_to_code,
    twisted_class_census,
    twisted_code,
    valid_twisted_specs,
)

E4 = make_ext_field(make_field(2), 2)
E8 = make_ext_field(make_field(2), 3)
E9 = make_ext_field(make_field(3), 2)
E16 = make_ext_field(make_field(2, 2), 2)
E25 = make_ext_field(make_field(5), 2)
E27 = make_ext_field(make_field(3), 3)

BIG = 2 * 10**8


def no_aut_size(code, budget=None):
    """Stands in for aut_group_size_bruteforce in the census tests that
    count the work of the class scans alone."""
    return 0


def nonnorm_element(E):
    """First unit whose norm to the prime-degree subfield is not 1."""
    for c in E.units():
        if E.rel_norm(c, 1) != 1:
            return c
    raise AssertionError("no such element")


# ------------------------------------------------------- semifields

def test_field_multiplication_is_semifield():
    S = Semifield.field_multiplication(E8)
    assert S.is_presemifield()
    assert S.identity() == 1
    assert S.is_semifield()
    for x in E8.elements():
        for y in E8.elements():
            assert S.star(x, y) == E8.mul(x, y)


@given(
    st.sampled_from((E4, E8, E9, E16, E27)),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_star_is_the_bilinear_double_sum(E, rnd):
    # x * y = sum_{i,j} c[i][j] x^(q^i) y^(q^j), term by term
    n = E.n
    coeffs = [[rnd.randrange(E.order) if rnd.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
    S = Semifield(E, coeffs)
    for _ in range(20):
        x, y = rnd.randrange(E.order), rnd.randrange(E.order)
        want = 0
        for i in range(n):
            for j in range(n):
                term = E.mul(E.frobenius(x, i), E.frobenius(y, j))
                want = E.add(want, E.mul(coeffs[i][j], term))
        assert S.star(x, y) == want


def test_zero_divisor_detected():
    # x*y = xy - c x^q y^q over GF(4); every unit has norm 1, so any c != 0
    # produces zero divisors
    coeffs = [[1, 0], [0, E4.neg(2)]]
    S = Semifield(E4, coeffs)
    assert not S.is_presemifield()
    spec = TwistedFieldSpec(E4, 2, 1, 1)
    assert not spec.is_valid()
    with pytest.raises(ValueError):
        spec.validate()


def test_twisted_presemifield_is_presemifield_without_identity():
    spec = TwistedFieldSpec(E27, nonnorm_element(E27), 1, 2)
    S = spec.semifield()
    assert S.is_presemifield()
    assert S.identity() is None  # presemifield only


def test_pair_loops_build_each_right_multiplication_once(monkeypatch):
    # the zero-divisor search, the identity search, the table and the
    # identity check of code_to_semifield build R_y once per y, not once
    # per pair (x, y)
    calls = []
    real = Semifield.right_mult_poly

    def counting(self, y):
        calls.append(y)
        return real(self, y)

    monkeypatch.setattr(Semifield, "right_mult_poly", counting)
    S = Semifield.field_multiplication(E8)
    for run in (S.is_presemifield, S.identity, S.mult_table):
        calls.clear()
        run()
        assert len(calls) <= E8.order, run
    spec = TwistedFieldSpec(E27, nonnorm_element(E27), 1, 2)
    C = normalize_contains_x(twisted_code(spec))
    calls.clear()
    code_to_semifield(C)
    assert len(calls) <= E27.order


def test_twisted_spec_fixed_field():
    spec = TwistedFieldSpec(E27, nonnorm_element(E27), 1, 2)
    assert spec.ell == 1
    spec2 = TwistedFieldSpec(E16, 3, 0, 0)
    assert spec2.ell == 2  # both maps are the identity


def test_twisted_spec_serialization():
    spec = TwistedFieldSpec(E27, nonnorm_element(E27), 1, 2)
    d = spec.to_json()
    assert d["q"] == 3 and d["n"] == 3 and d["l"] == 1
    assert d["i"] == 1 and d["j"] == 2
    assert len(d["c_coords"]) == 3


# ------------------------------------------------------- the code maps

def test_c0_code_properties():
    for E in (E4, E8, E9, E27):
        C0 = c0_code(E)
        assert C0.dim == E.n
        assert C0.min_distance() == E.n
        assert C0.is_mrd()
        assert C0.contains_x()


def test_semifield_to_code_gives_c0_for_field_multiplication():
    for E in (E4, E8, E9):
        S = Semifield.field_multiplication(E)
        assert semifield_to_code(S) == c0_code(E)


def test_twisted_code_is_full_rank_mrd():
    spec = TwistedFieldSpec(E27, nonnorm_element(E27), 1, 2)
    T = twisted_code(spec)
    assert T.dim == 3
    assert T.min_distance() == 3
    assert T.is_mrd()


@pytest.mark.parametrize("E", [E8, E9, E16], ids=repr)
def test_twisted_code_basis_is_the_direct_formula(E):
    # basis polynomial b of the code of (c, i, j): b x - c b^(q^j) x^(q^i)
    for spec in valid_twisted_specs(E):
        want = tuple(
            LinearizedPoly.scalar(E, b)
            - LinearizedPoly.monomial(E, E.mul(spec.c, E.frobenius(b, spec.j)), spec.i)
            for b in E.basis()
        )
        assert twisted_code(spec).basis == want, spec


def test_twisted_code_invalid_spec_rejected():
    # norm-1 c is rejected
    norm_one = next(c for c in E27.units() if E27.rel_norm(c, 1) == 1)
    with pytest.raises(ValueError):
        twisted_code(TwistedFieldSpec(E27, norm_one, 1, 2))


def test_beta_identity_twisted_code_equals_c0_composed():
    # alpha = id makes the code literally equal to the field code
    spec = TwistedFieldSpec(E9, nonnorm_element(E9), 0, 1)
    assert twisted_code(spec) == c0_code(E9)


def test_code_to_semifield_requires_x_and_mrd():
    # a full-rank MRD code without x: {y(x - c x^q)} = C0 composed with a
    # non-scalar map never contains the identity polynomial
    spec = TwistedFieldSpec(E9, nonnorm_element(E9), 1, 0)
    shifted = twisted_code(spec)
    assert shifted.is_mrd() and not shifted.contains_x()
    with pytest.raises(ValueError):
        code_to_semifield(shifted)
    # a non-MRD code containing x
    bad = LinPolyCode(E9, [LinearizedPoly.x(E9), LinearizedPoly(E9, (1, 1))])
    assert bad.contains_x()
    with pytest.raises(ValueError):
        code_to_semifield(bad)


@pytest.mark.parametrize("E", [E4, E8, E9, E16, E25, E27], ids=repr)
def test_round_trip_on_c0(E):
    C0 = c0_code(E)
    S = code_to_semifield(C0)
    assert semifield_to_code(S) == C0
    for x in E.elements():
        for y in E.elements():
            assert S.star(x, y) == E.mul(x, y)


def test_round_trip_on_normalized_twisted_code():
    spec = TwistedFieldSpec(E27, nonnorm_element(E27), 1, 2)
    C = normalize_contains_x(twisted_code(spec))
    assert C.contains_x()
    S = code_to_semifield(C)
    assert S.identity() == 1
    assert semifield_to_code(S) == C


def test_round_trip_on_normalized_twisted_code_over_a_tower():
    # GF(64) over GF(4): the first twisted code outside the field-code class
    E64 = make_ext_field(make_field(2, 2), 3)
    spec = next(s for s in valid_twisted_specs(E64) if not equiv_to_c0_predicate(s))
    assert (spec.i, spec.j) == (1, 2)
    C = normalize_contains_x(spec.code())
    assert semifield_to_code(code_to_semifield(C)) == C


def test_normalize_contains_x_charges_the_budget_before_the_walk(monkeypatch):
    code = twisted_code(TwistedFieldSpec(E27, nonnorm_element(E27), 1, 2))
    monkeypatch.setenv("RANKMETRIC_BUDGET", "1")
    with pytest.raises(BudgetExceededError, match="needs 27 steps"):
        normalize_contains_x(code)


def test_normalize_contains_x_charges_the_budget_it_is_given():
    # the span of a 3-dim code over GF(3) has 27 elements
    code = twisted_code(TwistedFieldSpec(E27, nonnorm_element(E27), 1, 2))
    with pytest.raises(BudgetExceededError, match="needs 27 steps"):
        normalize_contains_x(code, budget=26)
    assert normalize_contains_x(code, budget=27).contains_x()


def test_normalize_contains_x_deterministic():
    spec = TwistedFieldSpec(E27, nonnorm_element(E27), 1, 2)
    a = normalize_contains_x(twisted_code(spec))
    b = normalize_contains_x(twisted_code(spec))
    assert a == b


# ---------------------------------------------- equivalence machinery

@lru_cache(maxsize=None)
def reference_gl(fld, n):
    """GL_n(q) from scratch, as (codes, matrices): every code in
    range(q^(n^2)) whose matrix, entry (r, c) being base-q digit r*n + c
    of the code, has rank n, in increasing order of the codes."""
    q = fld.order
    codes, mats = [], []
    for code in range(q ** (n * n)):
        digits = [code // q**k % q for k in range(n * n)]
        mat = tuple(tuple(digits[r * n : (r + 1) * n]) for r in range(n))
        if linalg.rank(mat, fld) == n:
            codes.append(code)
            mats.append(mat)
    return tuple(codes), tuple(mats)


def naive_aut_count(C):
    """Literal definition: count pairs (f, g) in GL x GL with f.C.g = C
    (prime fields, so the coefficient twist is trivial)."""
    E = C.field
    fld = E.base
    assert fld.h == 1
    target = C.matrix_code.basis
    mats = [p.to_matrix() for p in C.basis]
    count = 0
    _, gl = reference_gl(fld, E.n)
    for f in gl:
        left = [linalg.mat_mul(f, M, fld) for M in mats]
        for g in gl:
            both = [linalg.mat_mul(M, g, fld) for M in left]
            flat = [tuple(x for row in m for x in row) for m in both]
            rows, _ = linalg.rref(flat, fld)
            if rows == target:
                count += 1
    return count


def test_aut_solver_matches_naive_definition():
    # the (rho, g)-loop plus linear solve equals the literal double loop
    assert aut_group_size_bruteforce(c0_code(E4)) == naive_aut_count(c0_code(E4)) == 18
    spec = TwistedFieldSpec(E9, nonnorm_element(E9), 1, 0)
    C = spec.code()
    assert aut_group_size_bruteforce(C) == naive_aut_count(C)


def test_equivalence_solver_matches_naive_search():
    # naive existence search over GL x GL for a pair of (2,3)-codes
    fld = E9.base
    spec = TwistedFieldSpec(E9, nonnorm_element(E9), 1, 0)
    C1, C2 = c0_code(E9), spec.code()
    target = C1.matrix_code.basis
    mats = [p.to_matrix() for p in C2.basis]
    _, gl = reference_gl(fld, 2)
    naive_hit = False
    for f in gl:
        left = [linalg.mat_mul(f, M, fld) for M in mats]
        for g in gl:
            both = [linalg.mat_mul(M, g, fld) for M in left]
            flat = [tuple(x for row in m for x in row) for m in both]
            rows, _ = linalg.rref(flat, fld)
            if rows == target:
                naive_hit = True
                break
        if naive_hit:
            break
    assert naive_hit == is_equivalent_bruteforce(C1, C2)
    assert naive_hit  # beta = id is equivalent to the field code


def test_idealizers_match_naive_subset_scan():
    # literal definition over all 16 matrices of GF(2)^(2x2)
    import itertools as it

    C = c0_code(E4)
    fld = E4.base
    span = {v for v in linalg.span_elements(C.matrix_code.basis, fld)}
    mats = [p.to_matrix() for p in C.basis]
    left = right = cent = 0
    for flat in it.product(range(2), repeat=4):
        A = (flat[0:2], flat[2:4])
        in_left = all(
            tuple(x for row in linalg.mat_mul(A, M, fld) for x in row) in span
            for M in mats
        )
        in_right = all(
            tuple(x for row in linalg.mat_mul(M, A, fld) for x in row) in span
            for M in mats
        )
        in_cent = all(
            linalg.mat_mul(A, M, fld) == linalg.mat_mul(M, A, fld) for M in mats
        )
        left += in_left
        right += in_right
        cent += in_cent
    idl = idealizers(C)
    assert (left, right, cent) == (idl.left.size, idl.right.size, idl.centralizer.size)


def test_equivalence_reflexive():
    C0 = c0_code(E9)
    assert is_equivalent_bruteforce(C0, C0)


def test_norm_condition_equivalence():
    # same (alpha, beta), both c of the same norm class: equivalent
    cs = [c for c in E27.units() if E27.rel_norm(c, 1) != 1]
    specs = [TwistedFieldSpec(E27, c, 1, 2) for c in cs[:3]]
    codes = [s.code() for s in specs]
    assert is_equivalent_bruteforce(codes[0], codes[1], budget=BIG)
    assert is_equivalent_bruteforce(codes[0], codes[2], budget=BIG)


def test_c0_not_equivalent_to_proper_twisted():
    spec = TwistedFieldSpec(E27, nonnorm_element(E27), 1, 2)
    assert not is_equivalent_bruteforce(c0_code(E27), spec.code(), budget=BIG)


def test_c0_equivalent_to_degenerate_twisted():
    # beta = id: equivalent to the field code through a right factor
    spec = TwistedFieldSpec(E27, nonnorm_element(E27), 1, 0)
    assert equiv_to_c0_predicate(spec)
    assert is_equivalent_bruteforce(c0_code(E27), spec.code(), budget=BIG)
    # alpha = beta: equivalent through the adjoint route
    spec2 = TwistedFieldSpec(E27, nonnorm_element(E27), 2, 2)
    assert equiv_to_c0_predicate(spec2)
    assert is_equivalent_bruteforce(c0_code(E27), spec2.code(), budget=BIG)


def test_aut_group_sizes_match_formulas():
    h_n_qn = lambda E: E.base.h * E.n * (E.order - 1) ** 2
    assert aut_group_size_bruteforce(c0_code(E4)) == h_n_qn(E4) == 18
    assert aut_group_size_bruteforce(c0_code(E8)) == h_n_qn(E8) == 147
    assert aut_group_size_bruteforce(c0_code(E9)) == h_n_qn(E9) == 128
    # composite base field: h = 2 contributes
    assert aut_group_size_bruteforce(c0_code(E16), budget=10**6) == 900


def test_aut_group_size_twisted():
    spec = TwistedFieldSpec(E27, nonnorm_element(E27), 1, 2)
    size = aut_group_size_bruteforce(spec.code(), budget=BIG)
    E = E27
    assert size == E.n * (E.order - 1) * (E.q - 1) * E.base.h == 156


def test_orbit_stabilizer_reproduces_192():
    # q=2, n=3: a single class (the field code); |GL|^2 h / |Aut| = 192
    aut = aut_group_size_bruteforce(c0_code(E8))
    assert class_count_formula(3, 2) == 1
    assert gl_order(3, 2) ** 2 * 1 // aut == 192


def test_class_count_formula_values():
    assert class_count_formula(3, 2) == 1
    assert class_count_formula(3, 3) == 2
    assert class_count_formula(2, 7) == 1
    assert class_count_formula(4, 3) == 4


def test_class_count_formula_refuses_a_q_or_n_that_is_not_an_int():
    for q in (3.0, 0, 1, "3"):
        with pytest.raises(ValueError, match="q must be an integer >= 2"):
            class_count_formula(3, q)
    for n in (3.0, "3", 1):
        with pytest.raises(ValueError, match="integer n >= 2"):
            class_count_formula(n, 3)


def test_class_census_f27():
    """All twisted-type codes over GF(27) fall into exactly 2 classes."""
    distinct = {}
    for spec in valid_twisted_specs(E27):
        code = spec.code()
        distinct.setdefault(code, spec)
    # bucket by the idealizer-size invariant
    buckets = {}
    for code, spec in distinct.items():
        idl = idealizers(code)
        buckets.setdefault((idl.left.size, idl.right.size), []).append((code, spec))
    assert set(buckets) == {(27, 27), (3, 3)}
    c0 = c0_code(E27)
    # the predicate agrees with the invariant split
    for code, spec in distinct.items():
        idl_key = (27, 27) if equiv_to_c0_predicate(spec) else (3, 3)
        assert (code, spec) in buckets[idl_key] or any(
            code == c for c, _ in buckets[idl_key]
        )
    # every member of the field-code bucket is equivalent to it (unpruned)
    for code, spec in buckets[(27, 27)]:
        assert is_equivalent_bruteforce(code, c0, budget=BIG), spec
    # every member of the twisted bucket is equivalent to its rep
    rep_code, _ = buckets[(3, 3)][0]
    for code, spec in buckets[(3, 3)][1:]:
        assert is_equivalent_bruteforce(code, rep_code, budget=BIG), spec
    # and the two buckets really are inequivalent (unpruned, full sweep)
    assert not is_equivalent_bruteforce(rep_code, c0, budget=BIG)
    assert len(buckets) == class_count_formula(3, 3) == 2


# ------------------------------------------- idealizers and nuclei

def test_idealizers_of_c0():
    for E in (E4, E9, E27):
        idl = idealizers(c0_code(E))
        assert idl.left.size == E.order
        assert idl.right.size == E.order
        assert idl.centralizer.size == E.order
        assert idl.center.size == E.order
        # the center contains every scalar multiple of x
        scal = LinearizedPoly.scalar(E, 1).to_matrix()
        flat_center = [tuple(x for row in m for x in row) for m in idl.center.basis]
        reduced, pivots = linalg.rref(flat_center, E.base)
        assert linalg.in_rowspan(
            reduced, pivots, tuple(x for row in scal for x in row), E.base
        )


def test_idealizers_of_twisted_match_fixed_fields():
    spec = TwistedFieldSpec(E27, nonnorm_element(E27), 1, 2)
    idl = idealizers(spec.code())
    assert idl.left.size == 3  # |Fix(alpha)| = |GF(3)|
    assert idl.right.size == 3  # |Fix(beta)|


def test_nuclei_of_field_multiplication():
    S = Semifield.field_multiplication(E8)
    nuc = nuclei(S)
    assert len(nuc.left) == len(nuc.middle) == len(nuc.right) == 8
    assert len(nuc.center) == 8  # commutative


def test_nuclei_match_idealizers_for_twisted_semifield():
    spec = TwistedFieldSpec(E27, nonnorm_element(E27), 1, 2)
    C = normalize_contains_x(spec.code())
    S = code_to_semifield(C)
    nuc = nuclei(S, budget=10**7)
    idl = idealizers(C)
    assert len(nuc.left) == idl.left.size == 3
    assert len(nuc.middle) == idl.right.size == 3
    assert len(nuc.right) == idl.centralizer.size == 3
    assert len(nuc.center) <= len(nuc.nucleus)


def test_nuclei_center_of_commutative():
    S = Semifield.field_multiplication(E9)
    nuc = nuclei(S)
    assert nuc.center == nuc.nucleus == frozenset(E9.elements())


def test_aut_count_chunked_splitting():
    # the triple count reduces associatively over any GL partition
    C0 = c0_code(E9)
    total = aut_group_size_bruteforce(C0)
    gl_size = gl_order(2, 3)
    for parts in (2, 5):
        bounds = [gl_size * i // parts for i in range(parts + 1)]
        split = sum(
            aut_group_size_bruteforce(C0, chunk=(lo, hi))
            for lo, hi in zip(bounds, bounds[1:])
        )
        assert split == total == 128
    for bad in ((-1, 5), (5, 4), (0, gl_size + 1)):
        with pytest.raises(ValueError):
            aut_group_size_bruteforce(C0, chunk=bad)


def test_twisted_class_census_json():
    census = twisted_class_census(E27, budget=BIG)
    assert len(census) == class_count_formula(3, 3) == 2
    by_kind = {entry["equivalent_to_field_code"]: entry for entry in census}
    assert by_kind[True]["aut_size"] == 2028  # h n (q^n - 1)^2
    assert by_kind[False]["aut_size"] == 156  # n (q^n - 1)(q - 1) h
    for entry in census:
        spec = entry["spec"]
        assert spec["q"] == 3 and spec["n"] == 3
        assert len(spec["c_coords"]) == 3
    # every distinct code is accounted for exactly once
    distinct = {s.code() for s in valid_twisted_specs(E27)}
    assert sum(e["members"] for e in census) == len(distinct)


def test_norm_classes_over_gf64_merge_under_the_field_automorphism():
    # over GF(64) with base GF(4) = {0, 1, w, w^2} (w encoded 2), the (1, 2)
    # twisted codes split by N(c) into two GF(4)-linear classes, which
    # class_count_formula counts; the twist rho = 1, x -> x^2 on
    # coefficients, maps the code of c to the code of c^2 and N(c) = w^2 to
    # N(c^2) = w, so the scan, which ranges over rho, finds one class.  The
    # full scan of the pair, a whole rho = 0 pass first, is a CI step.
    E = make_ext_field(make_field(2, 2), 3)
    w, w2 = E.from_coords((2, 0, 0)), E.from_coords((3, 0, 0))
    a, b = 4, 5
    assert (E.rel_norm(a, 1), E.rel_norm(b, 1)) == (w, w2)
    A, B = TwistedFieldSpec(E, a, 1, 2).code(), TwistedFieldSpec(E, b, 1, 2).code()
    b2 = E.mul(b, b)
    assert E.rel_norm(b2, 1) == w
    assert B.twist(1) == TwistedFieldSpec(E, b2, 1, 2).code() != A
    # f o B^rho o g = A at rho = 1, g = 1, for 3 invertible f
    mats = [p.to_matrix() for p in B.twist(1).basis]
    assert semifield._LeftSolver(A, mats, BIG).hits(linalg.identity(3)) == 3
    assert is_equivalent_bruteforce(A, B.twist(1))
    assert class_count_formula(3, E.base) == 3


@pytest.mark.parametrize("E, aut", [(E8, 147), (E9, 128), (E16, 900), (E25, 1152)])
def test_class_census_single_class_fields(E, aut):
    # one class, the field code's, with |Aut| = h n (q^n - 1)^2; GF(16)
    # over GF(4) runs the census over a non-prime base field
    census = twisted_class_census(E)
    assert len(census) == class_count_formula(E.n, E.base) == 1
    (entry,) = census
    assert entry["equivalent_to_field_code"]
    assert entry["aut_size"] == E.base.h * E.n * (E.order - 1) ** 2 == aut
    assert entry["members"] == len({s.code() for s in valid_twisted_specs(E)})


# ------------------------------- basis independence of derived counts

def test_count_192_under_second_modulus():
    F2 = make_field(2)
    E8b = FiniteField(F2, 3, modulus=nth_irreducible(F2, 3, 1))
    aut = aut_group_size_bruteforce(c0_code(E8b))
    assert aut == 147
    assert gl_order(3, 2) ** 2 // aut == 192


# ---------------------- the double-coset scan against a per-g reference

def _unit_count(space, n, fld):
    """The number of invertible n x n matrices in the span of `space`
    (flattened rows)."""
    return sum(
        1
        for vec in linalg.span_elements(space, fld)
        if any(vec) and linalg.rank([vec[r * n : (r + 1) * n] for r in range(n)], fld) == n
    )


def reference_scan_hits(C1, C2):
    """Unreduced reference: for every rho and every g of GL_n(q) in order,
    the number of invertible f with f o C2^rho o g inside C1, from one
    left-multiplier solve per (rho, g).  Returns one list per rho."""
    from rankmetric.semifield import _left_multiplier_space

    E = C1.field
    fld, n = E.base, E.n
    _, gl = reference_gl(fld, n)
    if C1.dim != C2.dim:
        return [[0] * len(gl) for _ in range(fld.h)]
    checks = linalg.solution_space(C1.matrix_code.basis, n * n, fld)
    out = []
    for rho in range(fld.h):
        mats = [p.to_matrix() for p in C2.twist(rho).basis]
        row = []
        for g in gl:
            space = _left_multiplier_space(
                checks, [linalg.mat_mul(M, g, fld) for M in mats], n, fld
            )
            row.append(_unit_count(space, n, fld))
        out.append(row)
    return out


@lru_cache(maxsize=None)
def _specs(E):
    return tuple(valid_twisted_specs(E))


def random_code(E, rnd):
    """A code over E whose right idealizer ranges from the scalars to a
    field: the field code, a twisted code, a span of scalar maps or of
    random q-polynomials, optionally composed on the right with a random
    element of GL_n(q), which conjugates the right idealizer."""
    n = E.n
    kind = rnd.choice(("field", "twisted", "scalars", "random"))
    if kind == "field":
        C = c0_code(E)
    elif kind == "twisted":
        C = rnd.choice(_specs(E)).code()
    else:
        k = rnd.randint(1, n)
        while True:
            if kind == "scalars":
                polys = [LinearizedPoly.scalar(E, rnd.randrange(1, E.order)) for _ in range(k)]
            else:
                polys = [
                    LinearizedPoly(E, [rnd.randrange(E.order) for _ in range(n)])
                    for _ in range(k)
                ]
            try:
                C = LinPolyCode(E, polys)
                break
            except ValueError:  # dependent basis: draw again
                continue
    if rnd.random() < 0.5:
        _, gl = reference_gl(E.base, n)
        C = C.compose_right(rnd.choice(gl))
    return C


def equivalent_partner(C, rnd):
    """f o C^rho o g for random invertible f, g and a random rho."""
    E = C.field
    fld = E.base
    _, gl = reference_gl(fld, E.n)
    f, g = rnd.choice(gl), rnd.choice(gl)
    rho = rnd.randrange(fld.h)
    mats = [
        linalg.mat_mul(linalg.mat_mul(f, p.to_matrix(), fld), g, fld)
        for p in C.twist(rho).basis
    ]
    return LinPolyCode(E, [from_matrix(E, m) for m in mats])


@given(
    st.sampled_from((E4, E8, E9, E25, E16)),
    st.randoms(use_true_random=False),
)
# no shrink phase: shrinking a failing draw from st.randoms takes minutes
# and gives no smaller code
@settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_quotiented_scan_matches_per_g_reference(E, rnd):
    C1 = random_code(E, rnd)
    ref = reference_scan_hits(C1, C1)
    gl_size = len(ref[0])
    assert aut_group_size_bruteforce(C1, budget=BIG) == sum(map(sum, ref))
    # any partition of the GL sweep: every chunk is exact on its own
    cuts = sorted(rnd.sample(range(1, gl_size), rnd.randint(1, 3)))
    bounds = [0, *cuts, gl_size]
    for lo, hi in zip(bounds, bounds[1:]):
        expected = sum(sum(row[lo:hi]) for row in ref)
        assert aut_group_size_bruteforce(C1, budget=BIG, chunk=(lo, hi)) == expected
    # equivalence, against a partner that is or may not be equivalent
    if rnd.random() < 0.5:
        C2, known = equivalent_partner(C1, rnd), True
    else:
        C2, known = random_code(E, rnd), None
    triples = sum(map(sum, reference_scan_hits(C1, C2)))
    # the full triple count: an orbit of C2^rho's idealizer on the wrong
    # side of g is exact only where C1 and C2^rho share that idealizer
    assert semifield._equivalence_scan(C1, C2, BIG, count_all=True) == triples
    assert is_equivalent_bruteforce(C1, C2, budget=BIG) == (triples > 0)
    assert known is None or triples > 0


def test_double_coset_scan_solve_counts(monkeypatch):
    # one left-multiplier solve per double coset K . g . K met in GL order
    # after the identity and the two seeds, K growing by every rho = 0 hit;
    # GL_3(3) has 11232 elements.  Both seeds hit for the field code and
    # for the (1, 2) twisted code, and generate G0, of order 78 for both
    solves = []
    original = semifield._LeftSolver.hits

    def counted(self, g):
        solves.append(1)
        return original(self, g)

    monkeypatch.setattr(semifield._LeftSolver, "hits", counted)
    # the default budget covers the scan's real worst case
    assert aut_group_size_bruteforce(c0_code(E27)) == 2028
    assert len(solves) == 10
    solves.clear()
    spec = next(s for s in valid_twisted_specs(E27) if (s.i, s.j) == (1, 2))
    assert aut_group_size_bruteforce(spec.code(), budget=BIG) == 156
    assert len(solves) == 10
    # a one-element chunk: the identity, the two seeds, then that element,
    # which none of their double cosets contains
    size = gl_order(3, 3)
    for chunk in ((0, 1), (size - 1, size)):
        solves.clear()
        assert aut_group_size_bruteforce(c0_code(E27), budget=BIG, chunk=chunk) == 0
        assert len(solves) == 4
    # every scan decides the identity first: the census's 25 twisted-vs-
    # twisted tests over GF(27) each end at that first solve
    solves.clear()
    monkeypatch.setattr(semifield, "aut_group_size_bruteforce", no_aut_size)
    twisted_class_census(E27)
    assert len(solves) == 25


def test_seeds_lie_in_g0_of_the_gf27_class_representatives():
    # multiplication by a primitive element and x -> x^q fix the field code
    # and the (1, 2) twisted code, each with |L*(C)| left multipliers f
    spec = next(s for s in valid_twisted_specs(E27) if (s.i, s.j) == (1, 2))
    for code, left_units in ((c0_code(E27), 26), (spec.code(), 2)):
        solver = semifield._LeftSolver(code, code.basis_matrices(), BIG)
        seeds = semifield._seeds(E27)
        assert len(set(seeds)) == 2 and linalg.identity(3) not in seeds
        assert [solver.hits(seed) for seed in seeds] == [left_units] * 2


@pytest.fixture
def fresh_gl():
    """Each field's GL_n(q) is built anew, with no table or partition, so
    the counts of the tables built and the cosets walked start from an
    empty GL."""
    semifield._gl.cache_clear()


def test_equivalence_at_the_identity_builds_no_unit_group_or_table(monkeypatch, fresh_gl):
    # the census's 25 twisted-vs-twisted tests over GF(27) each hit at the
    # identity, whose solve comes first: one kernel solve per test, the
    # identity's, plus the check rows of the class representative, which
    # is C1 of every test and derives them once; no unit group, no GL table
    counts = {"solves": 0, "kernels": 0, "units": 0, "tables": 0}

    def counting(key, original):
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        semifield._LeftSolver, "hits", counting("solves", semifield._LeftSolver.hits)
    )
    monkeypatch.setattr(linalg, "solution_space", counting("kernels", linalg.solution_space))
    monkeypatch.setattr(
        semifield, "_unit_generators", counting("units", semifield._unit_generators)
    )
    monkeypatch.setattr(
        semifield._GLProducts, "_table", counting("tables", semifield._GLProducts._table)
    )
    monkeypatch.setattr(semifield, "aut_group_size_bruteforce", no_aut_size)
    twisted_class_census(E27)
    assert counts == {"solves": 25, "kernels": 26, "units": 0, "tables": 0}
    # a scan past the identity does build them
    spec = next(s for s in valid_twisted_specs(E27) if (s.i, s.j) == (1, 2))
    assert not is_equivalent_bruteforce(c0_code(E27), spec.code(), budget=BIG)
    assert counts["units"] == 2 and counts["tables"] > 0


def anchored_code(E, rnd, kind):
    """A code over E whose basis matrices set the anchor of a left-
    multiplier solve: "basis", some basis matrix is invertible; "span",
    none is but their sum is (projectors onto the blocks of a split of
    the coordinates, between invertible matrices); "none", every element
    kills the last coordinate vector."""
    fld, n = E.base, E.n
    _, gl = reference_gl(fld, n)
    f, g = rnd.choice(gl), rnd.choice(gl)

    def random_matrix():
        return tuple(tuple(rnd.randrange(fld.order) for _ in range(n)) for _ in range(n))

    while True:
        if kind == "basis":
            mats = [linalg.mat_mul(f, g, fld)]
            mats += [random_matrix() for _ in range(rnd.randrange(n))]
        elif kind == "span":
            cuts = sorted(rnd.sample(range(1, n), rnd.randint(1, n - 1)))
            blocks = [range(a, b) for a, b in zip([0, *cuts], [*cuts, n])]
            projectors = [
                [[int(r == c and r in b) for c in range(n)] for r in range(n)] for b in blocks
            ]
            mats = [linalg.mat_mul(linalg.mat_mul(f, P, fld), g, fld) for P in projectors]
        else:
            kill = [[int(r == c and r < n - 1) for c in range(n)] for r in range(n)]
            mats = [
                linalg.mat_mul(random_matrix(), kill, fld) for _ in range(rnd.randint(1, n))
            ]
        rnd.shuffle(mats)
        try:
            return LinPolyCode(E, [from_matrix(E, M) for M in mats])
        except ValueError:  # dependent basis: draw again
            continue


@given(
    st.sampled_from((E4, E8, E9, E16, E25)),
    st.sampled_from(("basis", "span", "none")),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_left_solver_matches_the_full_solve(E, kind, rnd):
    # hits(g) in the k coordinates of C1 equals the count of the n^2-column
    # solve, for every g of GL_n(q) and every rho, in each anchor case
    fld, n = E.base, E.n
    C2 = anchored_code(E, rnd, kind)
    C1 = rnd.choice((C2, equivalent_partner(C2, rnd), random_code(E, rnd)))
    checks = linalg.solution_space(C1.matrix_code.basis, n * n, fld)
    _, gl = reference_gl(fld, n)
    for rho in range(fld.h):
        mats = [p.to_matrix() for p in C2.twist(rho).basis]
        solver = semifield._LeftSolver(C1, mats, BIG)
        anchor = solver.anchor
        assert {"basis": anchor in mats, "span": anchor not in mats, "none": True}[kind]
        assert (anchor is None) == (kind == "none")
        for g in gl:
            dmats = [linalg.mat_mul(M, g, fld) for M in mats]
            want = _unit_count(semifield._left_multiplier_space(checks, dmats, n, fld), n, fld)
            assert solver.hits(g) == want


def test_cyclic_unit_group_has_one_generator(monkeypatch, fresh_gl):
    # R* of the GF(27) field code is the cyclic group GF(27)*, 26 units:
    # trying elements of larger order first gives it one generator.  The
    # census's scans share the tables of GL_3(3), and both of its
    # automorphism scans take the two seeds as the generators of K, so it
    # builds one left and one right whole-GL table for each seed, 4 tables
    # in all
    code = c0_code(E27)
    fld, n = E27.base, E27.n
    gl = semifield._GLProducts(fld, n)
    checks = linalg.solution_space(code.matrix_code.basis, n * n, fld)
    mats = [p.to_matrix() for p in code.basis]
    units = list(semifield._invertible_in_space(
        linalg.solution_space(semifield._right_idealizer_rows(checks, mats, n, fld), n * n, fld),
        n, fld, BIG,
    ))
    assert len(units) == 26
    assert len(semifield._unit_generators(gl, code, BIG)) == 1
    # in any input order, the one generator's powers are all 26 units
    (gen,) = gl.generators(map(gl.index, reversed(units)))
    times_gen, x, powers = gl.right_table(gen), gl.identity, set()
    for _ in units:
        x = times_gen[x]
        powers.add(x)
    assert powers == {gl.index(u) for u in units}
    tables = []
    original = semifield._GLProducts._table

    def counted(self, *args):
        tables.append(1)
        return original(self, *args)

    monkeypatch.setattr(semifield._GLProducts, "_table", counted)
    twisted_class_census(E27)
    assert len(tables) == 4


def eager_generators(gl, elements, first=()):
    """The generators `_GLProducts.generators` chose when it built every
    element's row table and walked every order up front: `first` in its
    order, then the others by decreasing order, each kept when outside the
    group of those kept so far."""
    where, rows, identity = gl.where, gl.rows, gl.identity
    parts = {x: gl._right_parts(x) for x in chain(first, elements)}

    def times(y, x):
        return where[sum(part[row[y]] for part, row in zip(parts[x], rows))]

    def order(x):
        k, y = 1, x
        while y != identity:
            k, y = k + 1, times(y, x)
        return k

    rest = sorted((x for x in parts if x not in first), key=order, reverse=True)
    group, gens = {identity}, []
    for x in chain(first, rest):
        if x in group:
            continue
        gens.append(x)
        frontier = list(group)
        while frontier:
            y = frontier.pop()
            for s in gens:
                z = times(y, s)
                if z not in group:
                    group.add(z)
                    frontier.append(z)
    return gens


GL_2_3 = semifield._GLProducts(make_field(3), 2)
GL_3_2 = semifield._GLProducts(make_field(2), 3)


@given(st.sampled_from((GL_2_3, GL_3_2)), st.data())
@settings(max_examples=60, deadline=None)
def test_generators_match_the_eager_reference(gl, data):
    # closing the group of `first` before ordering the others, and dropping
    # the ones it holds, keeps the same generators in the same order
    index = st.integers(0, len(gl.rows[0]) - 1)
    elements = data.draw(st.lists(index, max_size=12), label="elements")
    first = data.draw(st.lists(index, max_size=3), label="first")
    assert gl.generators(iter(elements), first) == eager_generators(gl, elements, first)


def test_field_code_scan_builds_row_tables_only_for_the_seeds(monkeypatch, fresh_gl):
    # the two seeds generate a group that holds R* of the GF(27) field code,
    # GF(27)*, so none of its 26 units is ordered or multiplied by: the
    # scan builds row-part tables for the seeds alone, not for 28 elements
    built = []
    original = semifield._GLProducts._right_parts

    def recording(self, s):
        built.append(s)
        return original(self, s)

    monkeypatch.setattr(semifield._GLProducts, "_right_parts", recording)
    assert aut_group_size_bruteforce(c0_code(E27), budget=BIG) == 2028
    gl = semifield._gl(E27)
    assert set(built) == {gl.index(seed) for seed in semifield._seeds(E27)}


def _count_scan_work(monkeypatch):
    """Counters of left-multiplier solvers built, solves, whole-GL tables
    built, double cosets walked, kernels (`linalg.solution_space`),
    q-polynomial evaluations and twisted codes built (`twisted_code`),
    kept while the monkeypatch lasts."""
    counts = {
        "solvers": 0, "solves": 0, "tables": 0, "walks": 0, "kernels": 0, "evaluations": 0,
        "codes": 0,
    }
    walk = semifield._walk_cosets

    def walking(cls, queue, perms):
        counts["walks"] += bool(queue)
        return walk(cls, queue, perms)

    monkeypatch.setattr(semifield, "_walk_cosets", walking)

    def counting(key, original):
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return counted

    for name, key in (("__init__", "solvers"), ("hits", "solves")):
        original = getattr(semifield._LeftSolver, name)
        monkeypatch.setattr(semifield._LeftSolver, name, counting(key, original))
    monkeypatch.setattr(
        semifield._GLProducts, "_table", counting("tables", semifield._GLProducts._table)
    )
    monkeypatch.setattr(linalg, "solution_space", counting("kernels", linalg.solution_space))
    monkeypatch.setattr(
        LinearizedPoly, "evaluate", counting("evaluations", LinearizedPoly.evaluate)
    )
    monkeypatch.setattr(semifield, "twisted_code", counting("codes", semifield.twisted_code))
    return counts


def _gf27(index):
    F3 = make_field(3)
    return FiniteField(F3, 3, modulus=nth_irreducible(F3, 3, index))


@pytest.mark.parametrize("index", range(8))
def test_census_work_at_every_gf27_modulus(monkeypatch, fresh_gl, index):
    # 25 equivalence tests that hit at the identity, and two automorphism
    # scans of 10 solves each, whose 4 tables are those of the two seeds.
    # The seeds generate K, of order 78, and GL_3(3) falls into 8 double
    # cosets K . g . K: the first automorphism scan walks them, and the
    # second, with the same generators, reads its partition.  A repeated
    # census reads the tables and the partition kept by the field's GL,
    # makes its codes from cached monomial matrices, evaluating nothing,
    # and each code derives its check rows and right idealizer once: 49
    # kernels, 26 of them for the 25 tests.  Each census builds 27 of the
    # 129 specs' codes: the field code's representative, and the 26
    # twisted codes outside its class, one representative and 25 tested
    field = _gf27(index)
    counts = _count_scan_work(monkeypatch)
    twisted_class_census(field, budget=BIG)
    assert (counts["solves"], counts["tables"], counts["walks"]) == (45, 4, 8)
    assert counts["codes"] == 27
    counts.update(dict.fromkeys(counts, 0))
    census = twisted_class_census(field, budget=BIG)
    assert sorted(e["aut_size"] for e in census) == [156, 2028]
    assert (counts["solves"], counts["tables"], counts["walks"]) == (45, 0, 0)
    assert (counts["kernels"], counts["evaluations"], counts["codes"]) == (49, 0, 27)


def test_two_gf27_moduli_never_share_a_gl(monkeypatch, fresh_gl):
    # both fields act through the one group GL_3(3), but each keeps its
    # own: the census at a second modulus builds its own tables and
    # partition, and an equal field, made again, reads the first one's
    first, second = _gf27(0), _gf27(1)
    twisted_class_census(first, budget=BIG)
    counts = _count_scan_work(monkeypatch)
    twisted_class_census(second, budget=BIG)
    assert (counts["solves"], counts["tables"], counts["walks"]) == (45, 4, 8)
    assert semifield._gl(first) is not semifield._gl(second)
    assert semifield._gl(_gf27(0)) is semifield._gl(first)


def test_census_builds_each_scanned_code_once(monkeypatch):
    # with every equivalence test failing, each of the 26 distinct codes
    # outside the field code's class is a representative, tested against
    # every earlier one, and still built once; of the field code's class
    # only the first spec's code is built
    built = []
    code_of = semifield.twisted_code

    def recording(spec):
        built.append(spec)
        return code_of(spec)

    monkeypatch.setattr(semifield, "twisted_code", recording)
    monkeypatch.setattr(semifield, "is_equivalent_bruteforce", lambda *args, **kwargs: False)
    monkeypatch.setattr(semifield, "aut_group_size_bruteforce", no_aut_size)
    census = twisted_class_census(E27)
    outside = [s for s in _specs(E27) if not equiv_to_c0_predicate(s)]
    assert len(census) == 1 + len(outside) == 27
    assert len(built) == len(set(built)) == 27
    assert built == [_specs(E27)[0], *outside]


def _code_partition(specs, key):
    """The partition of the indices of `specs` by the value of `key`."""
    blocks = {}
    for idx, spec in enumerate(specs):
        blocks.setdefault(key(spec), set()).add(idx)
    return {frozenset(block) for block in blocks.values()}


@pytest.mark.parametrize(
    "E, distinct",
    [
        (E8, 1),
        (E9, 9),
        (make_ext_field(make_field(2), 4), 21),
        (E16, 21),
        *((_gf27(index), 79) for index in range(8)),
        (make_ext_field(make_field(2, 2), 3), 253),
        (make_ext_field(make_field(3), 4), 541),
        (make_ext_field(make_field(3, 2), 2), 141),
        (make_ext_field(make_field(5), 3), 559),
    ],
    ids=repr,
)
def test_census_key_partitions_specs_as_their_codes(E, distinct):
    # the census's key, computed from (i, j, c) alone, groups the valid
    # specs exactly as equality of their canonical codes does
    by_code = _code_partition(_specs(E), twisted_code)
    assert len(by_code) == distinct
    assert _code_partition(_specs(E), semifield._code_key) == by_code


def _class_representatives(E):
    """The field code and the twisted code of the first valid (1, 2) spec."""
    spec = next(s for s in valid_twisted_specs(E) if (s.i, s.j) == (1, 2))
    return c0_code(E), spec.code()


def _partitions(tables):
    return [key for key in tables if "cosets" in key]


def test_second_automorphism_scan_reads_the_partition_of_the_first(monkeypatch, fresh_gl):
    # the field code and the (1, 2) code over GF(27) take the seeds as the
    # generators of K, so the second scan walks no coset; its count and its
    # solves are those of a scan on a GL of its own
    field_code, twisted = _class_representatives(E27)
    counts = _count_scan_work(monkeypatch)
    tables = semifield._gl(E27).tables
    assert aut_group_size_bruteforce(field_code, budget=BIG) == 2028
    assert (counts["solves"], counts["walks"], len(_partitions(tables))) == (10, 8, 1)
    counts.update(solves=0, walks=0)
    assert aut_group_size_bruteforce(twisted, budget=BIG) == 156
    assert (counts["solves"], counts["walks"], len(_partitions(tables))) == (10, 0, 1)
    counts.update(solves=0, walks=0)
    semifield._gl.cache_clear()
    assert aut_group_size_bruteforce(twisted, budget=BIG) == 156
    assert (counts["solves"], counts["walks"]) == (10, 8)


@pytest.mark.parametrize("E", [E16, E27], ids=repr)
def test_chunked_scans_sharing_tables_sum_to_the_full_count(monkeypatch, fresh_gl, E):
    # every pass builds the whole partition, a chunked one too: chunks in
    # either order, before and after a complete scan, all on one GL, have
    # the counts and the solves of scans on a GL of their own, and the
    # chunks sum to the full count; the first chunk stores the one
    # partition, and the later chunks and the complete scan walk no coset.
    # Over GF(16) with base GF(4) the scans also make rho = 1 passes
    size = gl_order(E.n, E.base)
    bounds = [0, size // 3, size // 3 + 1, size]
    chunks = list(zip(bounds, bounds[1:]))
    specs = _specs(E)
    counts = _count_scan_work(monkeypatch)
    for code in (c0_code(E), specs[len(specs) // 2].code()):
        alone = {}
        for chunk in [*chunks, None]:
            semifield._gl.cache_clear()
            counts.update(solves=0)
            alone[chunk] = (aut_group_size_bruteforce(code, BIG, chunk), counts["solves"])
        assert sum(alone[chunk][0] for chunk in chunks) == alone[None][0]
        for order in (chunks, chunks[::-1]):
            semifield._gl.cache_clear()
            tables = semifield._gl(E).tables
            for step, chunk in enumerate([*order, None, *order]):
                counts.update(solves=0, walks=0)
                count = aut_group_size_bruteforce(code, BIG, chunk)
                assert (count, counts["solves"]) == alone[chunk]
                assert (counts["walks"] > 0, len(_partitions(tables))) == (step == 0, 1)


def test_scan_with_other_generators_builds_its_own_partition(monkeypatch, fresh_gl):
    # the full triple count of the field code against the (1, 2) code keeps
    # L = R*(C2), the scalars, and H = R*(C1), GF(27)*: other generators
    # than the K of the field code's automorphism scan, so it walks GL and
    # stores a partition of its own, which a second such scan reads
    field_code, twisted = _class_representatives(E27)
    tables = semifield._gl(E27).tables
    assert aut_group_size_bruteforce(field_code, budget=BIG) == 2028
    counts = _count_scan_work(monkeypatch)
    assert semifield._equivalence_scan(field_code, twisted, BIG, True) == 0
    solves, walks = counts["solves"], counts["walks"]
    assert walks > 8 and len(_partitions(tables)) == 2
    counts.update(solves=0, walks=0)
    assert semifield._equivalence_scan(field_code, twisted, BIG, True) == 0
    assert (counts["solves"], counts["walks"]) == (solves, 0)
    # a twisted code composed with g has the conjugated right idealizer and
    # neither seed in its G0: its K starts from other generators and grows,
    # each hit adding one generator, and the scan stores one partition per
    # K it passes through
    _, gl = reference_gl(E27.base, 3)
    moved = twisted.compose_right(gl[5000])
    before = set(_partitions(tables))
    counts.update(walks=0)
    assert aut_group_size_bruteforce(moved, budget=BIG) == 156
    new = [key for key in _partitions(tables) if key not in before]
    grown = sorted(key[2] for key in new)
    assert counts["walks"] > 0 and len(grown) > 1 and all(key[1] == key[2] for key in new)
    assert all(big[:-1] == small for small, big in zip(grown, grown[1:]))


@pytest.mark.parametrize(
    "E, kind, g, aut, solves",
    [
        (E27, "field", ((2, 0, 1), (2, 2, 1), (0, 2, 1)), 2028, 35),
        (E27, "twisted", ((2, 0, 1), (2, 2, 1), (0, 2, 1)), 156, 292),
        (E16, "field", ((0, 2), (2, 0)), 900, 7),
    ],
    ids=["gf27-field", "gf27-twisted", "gf16-field"],
)
def test_scans_in_which_k_grows_keep_their_solve_counts(
    monkeypatch, fresh_gl, E, kind, g, aut, solves
):
    # the field code and the (1, 2) code composed on the right with g have
    # G0 and R* conjugated by g, so K grows in the rho = 0 pass: each hit
    # adds a generator, and the scan reads the partition of the larger K,
    # the verdicts carrying over
    code = _class_representatives(E)[1] if kind == "twisted" else c0_code(E)
    code = code.compose_right(g)
    counts = _count_scan_work(monkeypatch)
    assert aut_group_size_bruteforce(code, budget=BIG) == aut
    assert counts["solves"] == solves and len(_partitions(semifield._gl(E).tables)) > 1


@pytest.mark.parametrize("E, aut", [(E16, 900), (make_ext_field(make_field(2, 2), 3), 23814)])
def test_equal_twist_pass_reuses_the_earlier_count(monkeypatch, fresh_gl, E, aut):
    # the field code over a non-prime base equals its twist, so the rho = 1
    # pass adds the rho = 0 count: one solver, whose solves are all of
    # rho = 0, and the 4 tables of the seeds, which generate G0
    code = c0_code(E)
    assert E.base.h == 2 and code.twist(1) == code
    counts = _count_scan_work(monkeypatch)
    assert aut_group_size_bruteforce(code, budget=BIG) == aut
    assert (counts["solvers"], counts["tables"]) == (1, 4)


@given(
    st.sampled_from((E4, E8, E9, E16, E27)),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_contains_matches_rref_membership(E, rnd):
    # the pivots read off the canonical basis give the answers of a fresh rref
    C = random_code(E, rnd)
    fld, n = E.base, E.n
    reduced, pivots = linalg.rref(C.matrix_code.basis, fld)
    words = list(linalg.span_elements(C.matrix_code.basis, fld))
    for _ in range(10):
        kind = rnd.random()
        if kind < 0.1:
            f = LinearizedPoly.x(E)
        elif kind < 0.5:  # a codeword
            word = rnd.choice(words)
            f = from_matrix(E, tuple(tuple(word[r * n : (r + 1) * n]) for r in range(n)))
        else:
            f = LinearizedPoly(E, [rnd.randrange(E.order) for _ in range(n)])
        vec = _flat(f.to_matrix())
        assert C.contains(f) == linalg.in_rowspan(reduced, pivots, vec, fld)


@pytest.mark.parametrize("E", [E8, E9, E16, E25, E27], ids=repr)
def test_shared_partitions_change_no_count_and_no_solve(monkeypatch, E):
    # the field code, the code {c x : c in GF(q)} and up to 12 distinct
    # twisted codes, all on one GL: each count and each number of solves
    # is that of a scan on a GL of its own.  The scalar code is fixed by every g
    # (f = g^-1), so G0 is all of GL; both seeds hit and its R* lies in
    # the field code's K, so its rho = 0 pass reads the field code's
    # partition, and K grows at the first hit outside K: the scan then
    # reads the partition of the larger K, which keeps the solves of a
    # scan alone (4 over GF(27); 10 if the smaller K's cosets were decided
    # one by one)
    counts = _count_scan_work(monkeypatch)
    scalars = LinPolyCode(E, [LinearizedPoly.x(E)])
    twisted = list(dict.fromkeys(s.code() for s in _specs(E)))[:12]
    codes = list(dict.fromkeys([c0_code(E), scalars, *twisted]))
    alone = {}
    for code in codes:
        semifield._gl.cache_clear()
        counts.update(solves=0, walks=0)
        alone[code] = aut_group_size_bruteforce(code, budget=BIG), counts["solves"], counts["walks"]
    semifield._gl.cache_clear()
    for code in codes:
        count, solves, walks = alone[code]
        counts.update(solves=0, walks=0)
        assert aut_group_size_bruteforce(code, budget=BIG) == count
        assert counts["solves"] == solves and counts["walks"] <= walks
        if code == scalars:
            assert count == E.base.h * gl_order(E.n, E.base) * (E.q - 1)
            assert counts["walks"] < walks
            if E == E27:
                assert (solves, counts["solves"]) == (4, 4)


@given(
    st.sampled_from((E4, E8, E9, E16, E25, E27)),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_cached_linear_algebra_matches_a_fresh_derivation(E, rnd):
    # a twisted code, its twists and its compositions with g each keep their
    # own check rows, right-idealizer rows and right idealizer, equal to
    # ones derived here; the idealizer from the basis polynomials' matrices
    fld, n = E.base, E.n
    _, gl = reference_gl(fld, n)
    C = rnd.choice(_specs(E)).code()
    codes = [C, *(C.twist(rho) for rho in range(1, fld.h)), C.compose_right(rnd.choice(gl))]
    for code in codes:
        checks = linalg.solution_space(code.matrix_code.basis, n * n, fld)
        weights = semifield._right_idealizer_rows(
            checks, code.matrix_code.basis_matrices(), n, fld
        )
        rows = semifield._right_idealizer_rows(checks, code.basis_matrices(), n, fld)
        space = linalg.solution_space(rows, n * n, fld)
        for _ in range(2):  # derived on the first call, kept for the second
            assert code.check_rows() == checks
            assert code.right_idealizer_rows() == weights
            assert code.right_idealizer_space() == space
        assert idealizers(code).right.size == fld.order ** len(space)


def test_aut_scan_charges_before_building_gl(monkeypatch, fresh_gl):
    # building GL_3(3) makes its 11232 codes, then the scan makes at most
    # one solve per g in GL_3(3): 11232 + 11232 steps, charged before either
    def tripwire(*args):
        raise AssertionError("GL built before the budget charge")

    monkeypatch.setattr(semifield, "_gl_codes", tripwire)
    with pytest.raises(BudgetExceededError, match="22464 steps"):
        aut_group_size_bruteforce(c0_code(E27), budget=22463)


def test_aut_scan_charges_the_row_tables(monkeypatch, fresh_gl):
    # GL_1(4093) has 4092 elements, but its row-code tables 2 * 4093^2
    # entries
    def tripwire(*args):
        raise AssertionError("row-code tables built before the budget charge")

    monkeypatch.setattr(linalg, "row_arithmetic", tripwire)
    field = FiniteField(make_field(4093), 1)
    with pytest.raises(BudgetExceededError, match="33505298 steps"):
        aut_group_size_bruteforce(c0_code(field))


def _gl_index(fld, n):
    _, gl = reference_gl(fld, n)
    where = {g: i for i, g in enumerate(gl)}
    return gl, lambda a, b: where[linalg.mat_mul(a, b, fld)]


# ------------------------------------------------- GL_n(q) as sorted codes

@lru_cache(maxsize=None)
def _gl_multiplication(q, n):
    """GL_n(q) from scratch and its multiplication table, from explicit
    matrix products: (matrices, times), times[a][b] the index of a . b."""
    from rankmetric.codes import field_for_order

    fld = field_for_order(q)
    _, mats = reference_gl(fld, n)
    where = {g: i for i, g in enumerate(mats)}
    return mats, [[where[linalg.mat_mul(a, b, fld)] for b in mats] for a in mats]


@given(
    st.sampled_from([(2, 2), (3, 2), (4, 2), (5, 2), (2, 3)]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_double_cosets_match_products_of_the_generated_groups(q_n, rnd):
    # L and H generated by random elements, none to three each: the
    # partition of GL into the products L . g . H, numbered by least index,
    # both walked afresh and merged from the partition of one generator
    # fewer on each side, which walks no coset
    from unittest import mock

    from rankmetric.codes import field_for_order

    q, n = q_n
    mats, times = _gl_multiplication(q, n)
    fld = field_for_order(q)
    gl = semifield._GLProducts(fld, n)
    l_gens, h_gens = ([rnd.randrange(len(mats)) for _ in range(rnd.randint(0, 3))] for _ in "LH")

    def group(gens):
        elements, frontier = {gl.identity}, [gl.identity]
        while frontier:
            x = frontier.pop()
            for s in gens:
                if (y := times[x][s]) not in elements:
                    elements.add(y)
                    frontier.append(y)
        return elements

    L, H = group(l_gens), group(h_gens)
    cls, reps = [None] * len(mats), []
    for g in range(len(mats)):
        if cls[g] is None:
            for x in {times[times[u][g]][s] for u in L for s in H}:
                cls[x] = len(reps)
            reps.append(g)
    got = semifield._double_cosets(gl, l_gens, h_gens)
    assert got == (cls, reps, Counter(cls))
    assert semifield._double_cosets(gl, l_gens, h_gens) is got  # kept in gl.tables
    if l_gens and h_gens:
        grown = semifield._GLProducts(fld, n)
        semifield._double_cosets(grown, l_gens[:-1], h_gens[:-1])
        with mock.patch.object(semifield, "_walk_cosets", side_effect=AssertionError):
            assert semifield._double_cosets(grown, l_gens, h_gens) == got



@pytest.mark.parametrize(
    "q, n", [(2, 2), (3, 2), (4, 2), (5, 2), (8, 2), (9, 2), (2, 3), (3, 3), (2, 4)]
)
def test_gl_codes_match_reference(q, n):
    from rankmetric.codes import field_for_order

    fld = field_for_order(q)
    codes, mats = reference_gl(fld, n)
    where, rows, cols = semifield._gl_codes(fld, n)
    assert len(codes) == gl_order(n, fld)
    assert len(where) == q ** (n * n)
    assert all(len(digits) == len(codes) for digits in rows + cols)
    Q = q**n
    for i, (code, mat) in enumerate(zip(codes, mats)):
        assert where[code] == i
        assert [row[i] for row in rows] == [code // Q**r % Q for r in range(n)]
        assert [col[i] for col in cols] == [
            sum(mat[r][c] * q**r for r in range(n)) for c in range(n)
        ]
    gl = semifield._GLProducts(fld, n)
    for i in range(0, len(codes), max(1, len(codes) // 200)):
        assert gl.matrix(i) == mats[i]
        assert gl.index(mats[i]) == i


@pytest.mark.parametrize("E", [E4, E8, E9, E16, E27])
def test_gl_columns_are_the_rows_of_the_transpose(E):
    # column c of element i is row c of its transpose
    fld, n = E.base, E.n
    _, mats = reference_gl(fld, n)
    where = {g: i for i, g in enumerate(mats)}
    _, rows, cols = semifield._gl_codes(fld, n)
    for i, g in enumerate(mats):
        t = where[tuple(zip(*g))]
        assert [col[i] for col in cols] == [row[t] for row in rows]


@given(
    st.sampled_from((E4, E9, E16, E27)),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_gl_products_match_matrix_products(E, rnd):
    # every entry of both permutation tables of a random element u
    fld, n = E.base, E.n
    gl_mats, product = _gl_index(fld, n)
    gl = semifield._GLProducts(fld, n)
    u = rnd.randrange(len(gl_mats))
    left, right = gl.left_table(u), gl.right_table(u)
    assert len(left) == len(right) == len(gl_mats)
    for x, g in enumerate(gl_mats):
        assert left[x] == product(gl_mats[u], g)
        assert right[x] == product(g, gl_mats[u])


def test_gl_index_refuses_non_elements():
    gl = semifield._GLProducts(E9.base, 2)
    assert gl.index(((0, 1), (1, 0))) == reference_gl(E9.base, 2)[1].index(((0, 1), (1, 0)))
    # a singular matrix, a matrix of another shape, and entries outside
    # range(3) whose codes equal those of ((1, 0), (1, 1)) and ((2, 2), (2, 0))
    for mat in (
        ((1, 1), (1, 1)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 3), (0, 1)),
        ((-1, 0), (0, 1)),
    ):
        with pytest.raises(ValueError, match="not an element"):
            gl.index(mat)


def _flat(mat):
    return tuple(x for row in mat for x in row)


@given(
    st.sampled_from((E4, E8, E9, E25, E16)),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_double_coset_facts(E, rnd):
    """The facts that make one solve per double coset exact, checked on
    the per-g reference: (i) every hit count is 0 or |L*(C1)|; (ii) g . s
    has the hits of g for s in G0; (iii) the rho = 0 hit set G0 of an
    automorphism scan contains R*(C1) and is a group, and each rho > 0
    hit set is a left coset of G0; (iv) u . g has the rho = 0 hits of g
    for u in G0."""
    fld, n = E.base, E.n
    gl, product = _gl_index(fld, n)
    C1 = random_code(E, rnd)
    ideal = idealizers(C1)
    left_units = _unit_count([_flat(m) for m in ideal.left.basis], n, fld)
    aut = reference_scan_hits(C1, C1)
    C2 = equivalent_partner(C1, rnd) if rnd.random() < 0.5 else random_code(E, rnd)
    equiv = reference_scan_hits(C1, C2)
    assert {h for rows in (aut, equiv) for row in rows for h in row} <= {0, left_units}
    assert left_units in aut[0]  # the identity is an automorphism
    g0 = {i for i, h in enumerate(aut[0]) if h}
    right = set(linalg.span_elements([_flat(m) for m in ideal.right.basis], fld))
    assert {i for i, g in enumerate(gl) if _flat(g) in right} <= g0
    members = sorted(g0)
    for _ in range(300):
        assert product(gl[rnd.choice(members)], gl[rnd.choice(members)]) in g0
    for _ in range(20):
        g, u = rnd.randrange(len(gl)), rnd.choice(members)
        assert aut[0][product(gl[u], gl[g])] == aut[0][g]
    for row in aut[1:]:
        hit_set = {i for i, h in enumerate(row) if h}
        if hit_set:
            g1 = gl[min(hit_set)]
            assert hit_set == {product(g1, gl[s]) for s in g0}
    for row in equiv:
        for _ in range(20):
            g, s = rnd.randrange(len(gl)), rnd.choice(members)
            assert row[product(gl[g], gl[s])] == row[g]
