"""Tests of the benchmark's tracer: run with `python3 -m pytest bench -q`.

The traced counts are checked against closed forms on instances small
enough to run in a second, and the tracer must leave the package exactly
as it found it.
"""

from __future__ import annotations

import pytest

from worker import import_package

import_package()

from rankmetric import cli, codes, errors, fields, linalg, qcomb, semifield  # noqa: E402

from layertrace import COUNT_METRICS, TIME_METRICS, Tracer, leftover_wrappers  # noqa: E402

BUDGET = 10**9


def traced(fn):
    """Run fn under a fresh tracer; return (result, per-layer metrics)."""
    tracer = Tracer()
    tracer.install()
    try:
        result = fn()
        return result, tracer.layer_metrics()
    finally:
        tracer.uninstall()


def test_uninstall_leaves_no_wrapper_behind():
    originals = {
        "linalg.rref": linalg.rref,
        "codes.charge": codes.charge,
        "semifield.charge": semifield.charge,
        "FiniteField.add": vars(fields.FiniteField)["add"],
        "LinearizedPoly.zero": vars(semifield.LinearizedPoly)["zero"],
        "codes.field_for_order": codes.field_for_order,
        "suite mrd192": cli.SUITES["mrd192"],
    }
    traced(lambda: codes.density_bruteforce(2, 2, 2, 2, 2, budget=BUDGET))
    assert leftover_wrappers() == []
    after = {
        "linalg.rref": linalg.rref,
        "codes.charge": codes.charge,
        "semifield.charge": semifield.charge,
        "FiniteField.add": vars(fields.FiniteField)["add"],
        "LinearizedPoly.zero": vars(semifield.LinearizedPoly)["zero"],
        "codes.field_for_order": codes.field_for_order,
        "suite mrd192": cli.SUITES["mrd192"],
    }
    assert all(after[k] is originals[k] for k in originals)
    assert codes.charge is errors.charge


def test_uninstall_after_a_failing_op():
    def fail():
        codes.density_bruteforce(3, 3, 3, 3, 2, budget=10)

    with pytest.raises(errors.BudgetExceededError):
        traced(fail)
    assert leftover_wrappers() == []


@pytest.mark.parametrize(
    "n, m, k, d, q",
    [(2, 2, 2, 2, 2), (2, 3, 3, 2, 2), (2, 2, 2, 2, 3), (2, 3, 2, 2, 3)],
)
def test_flat_sweep_visits_every_subspace_once(n, m, k, d, q):
    res, layers = traced(lambda: codes.density_bruteforce(n, m, k, d, q, budget=BUDGET))
    assert layers["codes.subspaces"] == qcomb.qbinom(n * m, k, q) == res.total
    assert layers["codes.accepted"] == res.count
    assert layers["codes.accept_ratio"] == res.count / res.total
    assert layers["errors.charges"] >= 1
    assert layers["errors.charged_steps"] >= res.total
    if q == 2:
        assert layers["linalg.rref_calls"] == 0  # packed GF(2) path
    else:
        assert layers["linalg.rref_calls"] > 0
        assert layers["codes.rref_per_subspace"] > 0
    assert layers["semifield.gl_pairs"] == 0


@pytest.mark.parametrize(
    "p, h, n, aut",
    [(2, 1, 3, 147), (3, 1, 2, 128), (2, 2, 2, None)],
    ids=["GF(8)", "GF(9)", "GF(16) over GF(4)"],
)
def test_aut_scan_solves_once_per_rho_and_g(p, h, n, aut):
    base = fields.make_field(p, h)
    code = semifield.c0_code(fields.make_ext_field(base, n))
    size, layers = traced(lambda: semifield.aut_group_size_bruteforce(code, budget=BUDGET))
    if aut is not None:
        assert size == aut
    assert layers["semifield.aut_scans"] == 1
    assert layers["semifield.gl_pairs"] == h * qcomb.gl_order(n, base)
    assert 0 < layers["semifield.hit_ratio"] <= 1
    assert layers["codes.subspaces"] == 0


def test_counts_repeat_and_results_are_unchanged():
    def op():
        return codes.density_bruteforce(2, 2, 2, 2, 3, budget=BUDGET).count

    plain = op()
    first, a = traced(op)
    second, b = traced(op)
    assert plain == first == second
    assert {k: a[k] for k in COUNT_METRICS} == {k: b[k] for k in COUNT_METRICS}
    assert set(a) == set(COUNT_METRICS) | set(TIME_METRICS)


def test_self_time_goes_to_the_layer_doing_the_work():
    _, layers = traced(lambda: codes.density_bruteforce(2, 3, 2, 2, 3, budget=BUDGET))
    assert layers["fields.calls"] > 0
    assert layers["fields.self_s"] > 0
    assert layers["linalg.self_s"] > 0
    assert layers["codes.self_s"] > 0
    assert layers["semifield.self_s"] == 0


def test_verify_suite_times_are_recorded(tmp_path):
    def op():
        out = str(tmp_path / "report.txt")
        return cli.main(["verify", "hejar", "--budget", str(BUDGET), "--out", out])

    rc, layers = traced(op)
    assert rc == 0
    assert layers["cli.suite_s.hejar"] > 0
    assert layers["cli.suite_s.mrd192"] == 0
    assert layers["codes.subspaces"] > 0
