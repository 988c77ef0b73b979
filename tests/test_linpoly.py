"""Linearized polynomials against their pointwise-evaluation oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fields import DIFF_FIELDS

from rankmetric import linalg
from rankmetric.fields import FiniteField, make_ext_field, make_field, nth_irreducible
from rankmetric.linpoly import LinearizedPoly, from_matrix

E4 = make_ext_field(make_field(2), 2)
E8 = make_ext_field(make_field(2), 3)
E9 = make_ext_field(make_field(3), 2)
E16 = make_ext_field(make_field(2, 2), 2)  # composite base field, h = 2


def random_poly(E, rng):
    return LinearizedPoly(E, [rng.randrange(E.order) for _ in range(E.n)])


def test_identity_and_zero():
    x = LinearizedPoly.x(E8)
    z = LinearizedPoly.zero(E8)
    for a in E8.elements():
        assert x.evaluate(a) == a
        assert z.evaluate(a) == 0
    assert x.to_matrix() == linalg.identity(3)
    assert z.rank() == 0
    assert x.rank() == 3


def test_coefficient_length_enforced():
    with pytest.raises(ValueError):
        LinearizedPoly(E8, (1, 0))


def test_monomial_is_frobenius():
    f = LinearizedPoly.monomial(E4, 1, 1)  # x^q
    w = 2
    assert f.evaluate(w) == E4.mul(w, w)


def test_evaluation_is_linear():
    rng = random.Random(1)
    for E in (E8, E9):
        for _ in range(10):
            f = random_poly(E, rng)
            for lam in range(E.q):
                for a in E.elements():
                    for b in E.elements():
                        lhs = f.evaluate(E.add(E.mul(lam, a), b))
                        rhs = E.add(E.mul(lam, f.evaluate(a)), f.evaluate(b))
                        assert lhs == rhs
                    break


def test_compose_matches_pointwise_composition_exhaustively_f8():
    polys = [
        LinearizedPoly(E8, c) for c in itertools.product(range(8), repeat=3)
    ]
    rng = random.Random(2)
    for _ in range(300):
        f, g = rng.choice(polys), rng.choice(polys)
        fg = f.compose(g)
        assert all(fg.evaluate(a) == f.evaluate(g.evaluate(a)) for a in E8.elements())


def test_compose_identity_and_frobenius():
    x = LinearizedPoly.x(E4)
    xq = LinearizedPoly.monomial(E4, 1, 1)
    g = LinearizedPoly(E4, (2, 3))
    assert x.compose(g) == g
    assert g.compose(x) == g
    assert xq.compose(xq) == x  # n = 2: x^(q^2) == x


def test_compose_associative():
    # exhaustive for the 16-element poly algebra over GF(4)=GF(2^2) model
    polys4 = [LinearizedPoly(E4, c) for c in itertools.product(range(4), repeat=2)]
    for f in polys4:
        for g in polys4:
            fg = f.compose(g)
            for h in polys4:
                assert fg.compose(h) == f.compose(g.compose(h))
    # random triples over larger fields
    rng = random.Random(3)
    for E in (E8, E9, E16):
        for _ in range(60):
            f, g, h = (random_poly(E, rng) for _ in range(3))
            assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_to_matrix_is_algebra_isomorphism():
    rng = random.Random(4)
    for E in (E8, E9, E16):
        for _ in range(40):
            f, g = random_poly(E, rng), random_poly(E, rng)
            assert (
                linalg.mat_mul(f.to_matrix(), g.to_matrix(), E.base)
                == f.compose(g).to_matrix()
            )


@pytest.mark.parametrize("E", [E4, E8, E9, E16, make_ext_field(make_field(3), 3)], ids=repr)
def test_to_matrix_bijective(E):
    seen = set()
    for c in itertools.product(range(E.order), repeat=E.n):
        seen.add(LinearizedPoly(E, c).to_matrix())
    assert len(seen) == E.q ** (E.n * E.n)


def evaluation_matrix(f):
    """Column j is the coordinates of f(b_j), b the power basis."""
    E = f.field
    cols = [E.coords(f.evaluate(b)) for b in E.basis()]
    return tuple(tuple(col[r] for col in cols) for r in range(E.n))


MATRIX_FIELDS = DIFF_FIELDS + [make_ext_field(make_field(5), 3)]  # and GF(125)


@given(st.sampled_from(MATRIX_FIELDS), st.data())
@settings(max_examples=300, deadline=None)
def test_to_matrix_matches_the_evaluation_reference(E, data):
    # the sum of the cached monomial matrices against the images of the
    # power basis, for sparse and dense coefficient vectors
    coeff = st.one_of(st.just(0), st.just(1), st.integers(0, E.order - 1))
    f = LinearizedPoly(E, data.draw(st.lists(coeff, min_size=E.n, max_size=E.n)))
    assert f.to_matrix() == evaluation_matrix(f)


def test_rank_equals_kernel_codimension():
    rng = random.Random(5)
    for E in (E4, E8, E9):
        for _ in range(30):
            f = random_poly(E, rng)
            kernel = sum(1 for a in E.elements() if f.evaluate(a) == 0)
            # kernel size is q^(n - rank)
            assert kernel == E.q ** (E.n - f.rank())
            assert f.rank() == linalg.rank(f.to_matrix(), E.base)


def test_rank_example_xq_minus_x():
    f = LinearizedPoly(E4, (1, 1))  # x + x^q over GF(4): kernel = GF(2)
    assert f.rank() == 1


def test_scalar_multiplication_map_invertible():
    for c in E8.units():
        assert LinearizedPoly.scalar(E8, c).rank() == 3


def test_adjoint_trace_pairing_exhaustive_f8():
    rng = random.Random(6)
    for _ in range(15):
        f = random_poly(E8, rng)
        fa = f.adjoint()
        for a in E8.elements():
            for b in E8.elements():
                assert E8.trace(E8.mul(f.evaluate(a), b)) == E8.trace(
                    E8.mul(a, fa.evaluate(b))
                )


def test_adjoint_involution_and_antihomomorphism():
    rng = random.Random(7)
    for E in (E8, E9, E16):
        for _ in range(30):
            f, g = random_poly(E, rng), random_poly(E, rng)
            assert f.adjoint().adjoint() == f
            assert f.compose(g).adjoint() == g.adjoint().compose(f.adjoint())
    x = LinearizedPoly.x(E8)
    assert x.adjoint() == x
    xq = LinearizedPoly.monomial(E8, 1, 1)
    assert xq.adjoint() == LinearizedPoly.monomial(E8, 1, 2)  # x^(q^(n-1))


def test_rho_twist():
    # trivial over a prime field
    f = LinearizedPoly(E8, (3, 1, 4))
    assert f.rho_twist(0) == f
    with pytest.raises(ValueError):
        f.rho_twist(1)
    # base GF(4): twisting twice fixes every base-field coefficient set
    # (the extension c -> c^p composed with itself is the q-Frobenius, the
    # identity exactly on GF(q)-coefficients)
    for coeffs in itertools.product(range(4), repeat=2):
        g = LinearizedPoly(E16, coeffs)
        assert g.rho_twist(1).rho_twist(1) == g
    # the twist is the p-power Frobenius on coefficients
    rng = random.Random(8)
    p = E16.base.p
    for _ in range(20):
        g = random_poly(E16, rng)
        tw = g.rho_twist(1)
        assert tw.coeffs == tuple(E16.pow(c, p) for c in g.coeffs)
        # the full Galois orbit closes after h*n applications
        v = g
        for _ in range(E16.base.h * E16.n):
            v = v.rho_twist(1)
        assert v == g


def test_from_matrix_inverts_to_matrix():
    rng = random.Random(9)
    for E in (E4, E8, E9, E16):
        for _ in range(25):
            f = random_poly(E, rng)
            assert from_matrix(E, f.to_matrix()) == f


def test_matrix_representation_under_second_modulus():
    # same abstract algebra, different basis: all structural invariants match
    F2 = make_field(2)
    E8b = FiniteField(F2, 3, modulus=nth_irreducible(F2, 3, 1))
    polys = [LinearizedPoly(E8b, c) for c in itertools.product(range(8), repeat=3)]
    assert len({p.to_matrix() for p in polys}) == 512
    ranks = sorted(p.rank() for p in polys)
    polys_a = [LinearizedPoly(E8, c) for c in itertools.product(range(8), repeat=3)]
    assert ranks == sorted(p.rank() for p in polys_a)
