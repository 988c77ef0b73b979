"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured values (run with `pytest -v -s` to see them).

Criterion 5 reproduces the worked six-entry reference table; its printed
digits are four-decimal truncations of the exact rationals (that is the
convention the source table states), and the test asserts exactly that.
"""

import math
import time
from fractions import Fraction

import pytest

from rankmetric.codes import (
    density_3x3_formula,
    density_bruteforce,
    mrd_lowerbound_formula,
    spectrum_free_count,
)
from rankmetric.critical import (
    avg_density_exhaustive,
    avg_density_formula,
    avg_density_rank_formula,
    lambda_count,
    lambda_exhaustive,
    mds_arc_density,
)
from rankmetric.fields import make_ext_field, make_field
from rankmetric.qcomb import (
    comparison_inequality_check,
    prime_powers_up_to,
    qbinom,
)
from rankmetric.restricted import (
    ambient_dim,
    rank_count,
    rank_distribution_exhaustive,
    tensor_ratio,
)
from rankmetric.semifield import (
    aut_group_size_bruteforce,
    c0_code,
    class_count_formula,
    code_to_semifield,
    normalize_contains_x,
    semifield_to_code,
    twisted_code,
    TwistedFieldSpec,
)
from rankmetric.qcomb import gl_order

BIG = 2 * 10**8


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_criterion_01_mrd_192():
    """All 788,035 3-dim subspaces of GF(2)^(3x3): exactly 192 with d=3."""
    t0 = time.perf_counter()
    single = density_bruteforce(3, 3, 3, 3, 2)
    t_single = time.perf_counter() - t0
    t0 = time.perf_counter()
    chunked = density_bruteforce(3, 3, 3, 3, 2, jobs=8)
    t_chunked = time.perf_counter() - t0
    count_formula, _ = mrd_lowerbound_formula(3, 2)
    closed = density_3x3_formula(2) * qbinom(9, 3, 2)
    assert single.total == 788035
    assert single.count == 192
    assert chunked.count == 192
    assert count_formula == 192
    assert closed == 192
    assert t_single <= 600.0
    assert t_chunked <= 120.0
    report(
        f"1 MRD-192 PASS: 192/788035 enumerated (single {t_single:.1f}s, "
        f"8-way {t_chunked:.1f}s), formula and closed form both 192"
    )


def test_criterion_02_spectrum_free_identity():
    """delta * C(2m,m)_q == s_q(m), both sides independent, <= 5 min."""
    t0 = time.perf_counter()
    values = []
    for m, q in ((2, 2), (2, 3), (3, 2)):
        lhs = density_bruteforce(2, m, m, 2, q).count
        rhs = spectrum_free_count(m, q)
        assert lhs == rhs, (m, q, lhs, rhs)
        values.append(f"(m={m},q={q}):{lhs}")
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    report(f"2 spectrum-free identity PASS: {' '.join(values)} in {elapsed:.1f}s")


def test_criterion_03_average_critical_problem():
    """Binomial-ratio average equals the exhaustive mean, exactly."""
    checked = 0
    for q in (2, 3):
        for N in (2, 3):
            npoints = (q**N - 1) // (q - 1)
            for k in range(1, N):
                for ell in range(1, min(6, npoints) + 1):
                    assert avg_density_formula(N, k, ell, q) == avg_density_exhaustive(
                        N, k, ell, q
                    ), (N, k, ell, q)
                    checked += 1
    report(f"3 average critical problem PASS: {checked} exact equalities")


def test_criterion_04_lambda_oracle():
    """Moebius-sum count equals exhaustive point-set counting, <= 10 min."""
    t0 = time.perf_counter()
    checked = 0
    for Nmax, q, ellmax in ((4, 2, 5), (3, 3, 4)):
        for N in range(2, Nmax + 1):
            for rho in range(2, N + 1):
                top = min(ellmax, (q**rho - 1) // (q - 1))
                for ell in range(rho, top + 1):
                    for s in range(N + 1):
                        assert lambda_count(N, s, ell, rho, q) == lambda_exhaustive(
                            N, s, ell, rho, q
                        ), (N, s, ell, rho, q)
                        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    report(f"4 lambda oracle PASS: {checked} parameter points in {elapsed:.1f}s")


def test_criterion_05_reference_table():
    """The six rank-constrained averages match the printed table digits
    (four-decimal truncation, the table's stated convention), <= 1 min."""
    t0 = time.perf_counter()
    values = [avg_density_rank_formula(10, 6, 31, rho, 2) for rho in range(10, 4, -1)]
    elapsed = time.perf_counter() - t0
    printed = ["0.1352", "0.1333", "0.1295", "0.1211", "0.1003", "0.0000"]
    got = []
    for v in values:
        scaled = (v.numerator * 10**4) // v.denominator
        got.append(f"{scaled // 10**4}.{scaled % 10**4:04d}")
    assert got == printed, (got, printed)
    assert values[-1] == 0
    assert elapsed <= 60.0
    report(f"5 reference table PASS: {' '.join(got)} in {elapsed:.2f}s")


def test_criterion_06_rank_stratifications():
    """Formula counts equal enumeration; sums hit q^dim; the Hermitian
    printed-vs-validated discrepancy at (q,n,i)=(2,1,1) stays pinned."""
    checked = 0
    for kind, grid in (
        ("symmetric", [(n, q) for n in (1, 2, 3) for q in (2, 3)]),
        ("alternating", [(n, q) for n in (1, 2, 3) for q in (2, 3)]),
        ("hermitian", [(n, q) for n in (1, 2) for q in (2, 3)]),
    ):
        for n, q in grid:
            strata = []
            enumerated = rank_distribution_exhaustive(kind, n, q)
            for i in range(n + 1):
                f = rank_count(kind, n, i, q)
                assert f == enumerated[i], (kind, n, i, q)
                strata.append(f)
                checked += 1
            assert sum(strata) == q ** ambient_dim(kind, n), (kind, n, q)
    assert rank_count("hermitian", 1, 1, 2, variant="printed") == 3
    assert rank_count("hermitian", 1, 1, 2, variant="validated") == 1
    assert rank_distribution_exhaustive("hermitian", 1, 2)[1] == 1
    report(
        f"6 rank stratifications PASS: {checked} strata enumerated; "
        "hermitian pin printed=3 vs validated=enumerated=1 at (2,1,1)"
    )


def test_criterion_07_tensor_identity():
    """tensor_ratio equals the ratio of brute-force densities, <= 15 min."""
    t0 = time.perf_counter()
    for r, n, q in ((1, 2, 2), (1, 2, 3), (2, 3, 2)):
        formula = tensor_ratio(r, n, q)
        num = density_bruteforce(r, n, n, r, q).density
        den = density_bruteforce(n, n, r, n, q).density
        assert num / den == formula, (r, n, q)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 900.0
    report(f"7 tensor identity PASS: 3 instances exact in {elapsed:.1f}s")


def test_criterion_08_semifield_roundtrip_and_automorphisms():
    """Code<->semifield round trips at q^n <= 27; |Aut| formulas; the
    orbit-stabilizer count reproduces 192 at (q,n) = (2,3)."""
    fields = [
        make_ext_field(make_field(2), 2),
        make_ext_field(make_field(2), 3),
        make_ext_field(make_field(2), 4),
        make_ext_field(make_field(3), 2),
        make_ext_field(make_field(3), 3),
        make_ext_field(make_field(5), 2),
    ]
    for E in fields:
        C0 = c0_code(E)
        assert semifield_to_code(code_to_semifield(C0)) == C0, E
    E27 = fields[4]
    c = next(x for x in E27.units() if E27.rel_norm(x, 1) != 1)
    C = normalize_contains_x(twisted_code(TwistedFieldSpec(E27, c, 1, 2)))
    assert semifield_to_code(code_to_semifield(C)) == C
    auts = {}
    for E, expected in ((fields[0], 18), (fields[1], 147), (fields[3], 128)):
        size = aut_group_size_bruteforce(c0_code(E))
        assert size == expected == E.base.h * E.n * (E.order - 1) ** 2
        auts[(E.q, E.n)] = size
    orbit_sum = gl_order(3, 2) ** 2 * 1 // auts[(2, 3)]
    assert class_count_formula(3, 2) == 1
    assert orbit_sum == 192
    report(
        "8 semifield round trip PASS: 6 field codes + twisted(27) round-trip; "
        f"|Aut| = {auts}; orbit-stabilizer sum = {orbit_sum}"
    )


def test_criterion_09_asymptotic_sanity():
    """(a) 3x3 constant at q=101; (b) monotone approach to exp limit;
    (c) certified comparison margins for q <= 16; (d) arc density limit."""
    # (a)
    v = float(density_3x3_formula(101)) * 101**3
    assert abs(v - 1 / 3) <= 0.05 / 3
    # (b) hyperplane instance ell_q = q, limit 1/e
    errors = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        value = float(avg_density_formula(3, 2, q, q))
        errors.append(abs(value - math.exp(-1)))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    # (c)
    margins = []
    for q in prime_powers_up_to(16):
        cert = comparison_inequality_check(q)
        assert cert.holds and cert.margin_lower > 0, q
        margins.append(float(cert.margin_lower))
    # (d)
    target = sum((-1) ** j / math.factorial(j) for j in range(4))
    arc = float(mds_arc_density(4, 102, 101))
    assert abs(arc - target) <= 0.05 * target
    report(
        f"9 asymptotic sanity PASS: q^3*delta={v:.4f} (~1/3); "
        f"monotone errors {errors[0]:.4f}->{errors[-1]:.4f}; "
        f"margins certified for {len(margins)} prime powers; "
        f"arc limit {arc:.4f} (~{target:.4f})"
    )


def test_criterion_10_determinism(tmp_path):
    """`verify all` reports are byte-identical at parallelism 1 and 8."""
    from rankmetric.cli import main

    a = tmp_path / "jobs1.txt"
    b = tmp_path / "jobs8.txt"
    assert main(["verify", "all", "--out", str(a)]) == 0
    assert main(["verify", "all", "--jobs", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    aj = tmp_path / "jobs1.json"
    bj = tmp_path / "jobs8.json"
    assert main(["verify", "all", "--format", "json", "--out", str(aj)]) == 0
    assert main(["verify", "all", "--jobs", "8", "--format", "json", "--out", str(bj)]) == 0
    assert aj.read_bytes() == bj.read_bytes()
    report("10 determinism PASS: text and json reports byte-identical at jobs 1 and 8")
