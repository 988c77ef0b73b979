"""q-binomials, group orders, ball sizes and certified limit quantities,
each against an independent enumeration oracle where one exists."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmetric import linalg, qcomb
from rankmetric.codes import Grassmannian, density_3x3_formula, field_for_order
from rankmetric.errors import BudgetExceededError
from rankmetric.fields import make_field
from rankmetric.qcomb import (
    alt_exp_sum,
    ball_size,
    binom,
    comparison_inequality_check,
    gl_order,
    pi_q,
    pi_q_limit,
    pointset_size,
    prime_powers_up_to,
    qbinom,
)


def test_qbinom_edges():
    assert qbinom(5, 0, 2) == 1
    assert qbinom(5, 5, 2) == 1
    assert qbinom(3, 4, 2) == 0
    assert qbinom(3, -1, 2) == 0


def test_qbinom_counts_subspaces():
    # oracle: enumerate all 2-dim subspaces of GF(2)^4 by brute force
    assert qbinom(4, 2, 2) == 35
    assert Grassmannian(4, 2, 2).total == 35
    assert qbinom(9, 3, 2) == 788035


def test_qbinom_against_direct_product_formula():
    for i in range(9):
        for j in range(i + 1):
            for q in (2, 3, 4, 5):
                num = den = 1
                for l in range(j):
                    num *= q**i - q**l
                    den *= q**j - q**l
                assert qbinom(i, j, q) * den == num


@given(
    i=st.integers(min_value=0, max_value=12),
    j=st.integers(min_value=0, max_value=12),
    q=st.sampled_from([2, 3, 4, 5]),
)
@settings(max_examples=200, deadline=None)
def test_qbinom_symmetry(i, j, q):
    if j <= i:
        assert qbinom(i, j, q) == qbinom(i, i - j, q)


def test_qbinom_product_identity():
    # C(a,b)_q C(b,r)_q == C(a,r)_q C(a-r, a-b)_q
    for q in (2, 3):
        for a in range(11):
            for b in range(a + 1):
                for r in range(b + 1):
                    lhs = qbinom(a, b, q) * qbinom(b, r, q)
                    rhs = qbinom(a, r, q) * qbinom(a - r, a - b, q)
                    assert lhs == rhs


def test_binom_degenerate_convention():
    assert binom(5, 2) == 10
    assert binom(1, 2) == 0
    assert binom(-3, 2) == 0
    assert binom(4, -1) == 0


def test_gl_order_exhaustive():
    assert gl_order(1, 5) == 4
    for n, q in ((2, 2), (3, 2), (2, 3)):
        fld = field_for_order(q)
        count = 0
        for flat in itertools.product(range(q), repeat=n * n):
            mat = [flat[i * n : (i + 1) * n] for i in range(n)]
            if linalg.rank(mat, fld) == n:
                count += 1
        assert count == gl_order(n, q)
    assert gl_order(3, 2) == 168


def rank_census(n, m, q):
    fld = field_for_order(q)
    out = [0] * (min(n, m) + 1)
    for flat in itertools.product(range(q), repeat=n * m):
        mat = [flat[i * m : (i + 1) * m] for i in range(n)]
        out[linalg.rank(mat, fld)] += 1
    return out


@pytest.mark.parametrize("n,m,q", [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 3, 2), (2, 2, 4)])
def test_ball_size_matches_rank_census(n, m, q):
    census = rank_census(n, m, q)
    for r in range(min(n, m) + 1):
        assert ball_size(n, m, r, q) == sum(census[: r + 1])
    assert ball_size(n, m, min(n, m), q) == q ** (n * m)
    assert ball_size(n, m, 0, q) == 1


def test_pointset_size_examples():
    assert pointset_size(2, 2, 1, 2) == 9
    assert pointset_size(2, 2, 2, 2) == 15
    b = ball_size(3, 3, 2, 2)
    assert pointset_size(3, 3, 2, 2) == b - 1
    with pytest.raises(ValueError):
        pointset_size(2, 2, 0, 2)


def test_pi_q_exact_and_monotone():
    assert pi_q(2, 1) == 2
    for q in (2, 3, 5):
        prev = Fraction(1)
        for n in range(1, 8):
            cur = pi_q(q, n)
            expected = Fraction(1)
            for i in range(1, n + 1):
                expected *= Fraction(q**i, q**i - 1)
            assert cur == expected
            assert cur > prev
            prev = cur


def test_pi_q_limit_certified():
    value, bound = pi_q_limit(2, 1e-6)
    assert bound < 1e-6
    assert abs(value - 3.462746) < 2e-6
    # certified bound really brackets a later, tighter truncation
    tight, _ = pi_q_limit(2, 1e-12)
    assert abs(value - tight) <= bound


def test_pi_q_limit_rejects_non_finite_eps():
    for eps in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError):
            pi_q_limit(2, eps)


def test_alt_exp_sum():
    assert alt_exp_sum(0) == 1
    assert alt_exp_sum(2) == Fraction(1, 2)
    assert abs(float(alt_exp_sum(10)) - math.exp(-1)) < 3e-8
    # alternating remainder bound
    assert abs(float(alt_exp_sum(10)) - math.exp(-1)) < 1.0 / math.factorial(11)


def test_comparison_inequality_certified_for_all_prime_powers():
    qs = prime_powers_up_to(16)
    assert qs == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
    margins = []
    for q in qs:
        cert = comparison_inequality_check(q)
        assert cert.holds
        assert cert.margin_lower > 0
        assert cert.margin_lower <= Fraction(cert.margin_estimate) <= cert.margin_upper
        margins.append(cert.margin_estimate)
    # the true margin shrinks toward 0 as q grows
    assert all(a > b > 0 for a, b in zip(margins, margins[1:]))


def test_comparison_inequality_inconclusive_raises():
    with pytest.raises(ValueError):
        comparison_inequality_check(2, terms=1)
    for terms in (0, -3):
        with pytest.raises(ValueError):
            comparison_inequality_check(3, terms=terms)


def test_series_are_charged_before_their_loops(monkeypatch):
    # a tripwire on Fraction: a regression fails here instead of summing
    # 10^8 terms
    def tripwire(*args):
        raise AssertionError("series loop started before the budget charge")

    monkeypatch.setattr(qcomb, "Fraction", tripwire)
    with pytest.raises(BudgetExceededError):
        alt_exp_sum(10**8, budget=10)
    with pytest.raises(BudgetExceededError):
        comparison_inequality_check(3, terms=10**8, budget=10)


def test_field_handle_is_read_as_its_order():
    # a GF(p^h) handle has base GF(p), so its .q is p; counts need p^h
    assert gl_order(2, make_field(2, 2)) == gl_order(2, 4) == 180
    assert qbinom(4, 2, make_field(3, 2)) == qbinom(4, 2, 9)
    assert density_3x3_formula(make_field(2, 2)) == density_3x3_formula(4)
