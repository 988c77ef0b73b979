"""Semifields, twisted fields, the code correspondence and the exhaustive
equivalence machinery."""

from functools import lru_cache

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from rankmetric import linalg, semifield
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
    is_equivalent_monomial,
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


def test_normalize_contains_x_deterministic():
    spec = TwistedFieldSpec(E27, nonnorm_element(E27), 1, 2)
    a = normalize_contains_x(twisted_code(spec))
    b = normalize_contains_x(twisted_code(spec))
    assert a == b


# ---------------------------------------------- equivalence machinery

def naive_aut_count(C):
    """Literal definition: count pairs (f, g) in GL x GL with f.C.g = C
    (prime fields, so the coefficient twist is trivial)."""
    from rankmetric.semifield import _invertible_matrices

    E = C.field
    fld = E.base
    assert fld.h == 1
    target = C.matrix_code.basis
    mats = [p.to_matrix() for p in C.basis]
    count = 0
    gl, _ = _invertible_matrices(fld, E.n)
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
    from rankmetric.semifield import _invertible_matrices

    fld = E9.base
    spec = TwistedFieldSpec(E9, nonnorm_element(E9), 1, 0)
    C1, C2 = c0_code(E9), spec.code()
    target = C1.matrix_code.basis
    mats = [p.to_matrix() for p in C2.basis]
    gl, _ = _invertible_matrices(fld, 2)
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
    assert is_equivalent_monomial(codes[0], codes[1])
    assert is_equivalent_monomial(codes[0], codes[2])
    # unpruned confirmation on one pair
    assert is_equivalent_bruteforce(codes[0], codes[1], budget=BIG)


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
    # every member of the twisted bucket is monomially equivalent to its rep
    rep_code, _ = buckets[(3, 3)][0]
    for code, spec in buckets[(3, 3)][1:]:
        assert is_equivalent_monomial(code, rep_code), spec
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
    from rankmetric.semifield import _invertible_matrices, _left_multiplier_space

    E = C1.field
    fld, n = E.base, E.n
    gl, _ = _invertible_matrices(fld, n)
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
    from rankmetric.semifield import _invertible_matrices

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
        gl, _ = _invertible_matrices(E.base, n)
        C = C.compose_right(rnd.choice(gl))
    return C


def equivalent_partner(C, rnd):
    """f o C^rho o g for random invertible f, g and a random rho."""
    from rankmetric.semifield import _invertible_matrices

    E = C.field
    fld = E.base
    gl, _ = _invertible_matrices(fld, E.n)
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
    # one left-multiplier solve per double coset R* . g . H met in GL order,
    # H growing by every rho = 0 hit; GL_3(3) has 11232 elements
    solves = []
    original = semifield._left_multiplier_space

    def counted(*args):
        solves.append(1)
        return original(*args)

    monkeypatch.setattr(semifield, "_left_multiplier_space", counted)
    assert aut_group_size_bruteforce(c0_code(E27), budget=BIG) == 2028
    assert len(solves) == 35
    solves.clear()
    spec = next(s for s in valid_twisted_specs(E27) if (s.i, s.j) == (1, 2))
    assert aut_group_size_bruteforce(spec.code(), budget=BIG) == 156
    assert len(solves) == 299
    # a one-element chunk: the identity, then that element at most
    size = gl_order(3, 3)
    for chunk in ((0, 1), (size - 1, size)):
        solves.clear()
        assert aut_group_size_bruteforce(c0_code(E27), budget=BIG, chunk=chunk) == 0
        assert len(solves) <= 2


def _gl_index(fld, n):
    from rankmetric.semifield import _invertible_matrices

    gl, _ = _invertible_matrices(fld, n)
    where = {g: i for i, g in enumerate(gl)}
    return gl, lambda a, b: where[linalg.mat_mul(a, b, fld)]


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
    hit set is a left coset of G0."""
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
    for row in aut[1:]:
        hit_set = {i for i, h in enumerate(row) if h}
        if hit_set:
            g1 = gl[min(hit_set)]
            assert hit_set == {product(g1, gl[s]) for s in g0}
    for row in equiv:
        for _ in range(20):
            g, s = rnd.randrange(len(gl)), rnd.choice(members)
            assert row[product(gl[g], gl[s])] == row[g]
