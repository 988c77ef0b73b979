"""CLI contract: formula evaluation, verify suites, tables, exit codes,
and byte-identical reports under parallelism."""

import json
import os

import pytest

from rankmetric.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a bad option value itself
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_formula_qbinom(capsys):
    code, out, _ = run(capsys, "formula", "qbinom", "--i", "4", "--j", "2", "--q", "2")
    assert code == 0
    assert "35" in out


def test_formula_density3x3(capsys):
    code, out, _ = run(capsys, "formula", "density3x3", "--q", "2")
    assert code == 0
    assert "192/788035" in out


def test_formula_avg_rank_table_value(capsys):
    code, out, _ = run(
        capsys, "formula", "avg-rank", "--q", "2", "--N", "10", "--k", "6",
        "--l", "31", "--rho", "10",
    )
    assert code == 0
    assert "0.135219" in out


def test_formula_json_format(capsys):
    code, out, _ = run(
        capsys, "formula", "qbinom", "--i", "9", "--j", "3", "--q", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == "788035"
    assert payload["params"]["i"] == 9


def test_formula_precision_flag(capsys):
    code, short, _ = run(
        capsys, "formula", "density3x3", "--q", "3", "--precision", "3"
    )
    assert code == 0
    code, long, _ = run(
        capsys, "formula", "density3x3", "--q", "3", "--precision", "10"
    )
    assert code == 0
    assert len(long) > len(short)


def test_formula_unknown_name_exits_2(capsys):
    code, _, err = run(capsys, "formula", "no-such-thing", "--q", "2")
    assert code == 2
    assert "unknown formula" in err


def test_formula_missing_parameter_exits_2(capsys):
    code, _, err = run(capsys, "formula", "qbinom", "--i", "4", "--q", "2")
    assert code == 2
    assert "--j" in err


def test_formula_invalid_parameter_exits_2(capsys):
    for argv in [
        ("formula", "kantor-lower", "--n", "9"),
        ("formula", "spectrum-free", "--m", "2", "--q", "1"),
        ("formula", "spectrum-free", "--m", "2", "--q", "3", "--budget", "inf"),
        ("formula", "density3x3", "--q", "1"),
        ("table", "mrd-bounds", "--q", "0", "--n", "3..3"),
        ("formula", "density3x3", "--q", "6"),
        ("verify", "mrd192", "--jobs", "0"),
        ("verify", "mrd192", "--jobs", "-3"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2, (argv, err)
        assert "Traceback" not in err


def test_formula_more_registry_entries(capsys):
    for argv, needle in [
        (("formula", "gl-order", "--n", "3", "--q", "2"), "168"),
        (("formula", "ball-size", "--n", "2", "--m", "2", "--r", "1", "--q", "2"), "10"),
        (("formula", "pointset-size", "--n", "2", "--m", "2", "--r", "1", "--q", "2"), "9"),
        (("formula", "alt-exp-sum", "--m", "2"), "1/2"),
        (("formula", "mrd-lower", "--n", "3", "--q", "2"), "192"),
        (("formula", "class-count", "--n", "3", "--q", "3"), "2"),
        (("formula", "lambda", "--N", "2", "--s", "1", "--l", "2", "--rho", "2", "--q", "2"), "1"),
        (("formula", "avg", "--N", "2", "--k", "1", "--l", "1", "--q", "2"), "2/3"),
        (("formula", "mds-arc", "--N", "2", "--l", "2", "--q", "3"), "1/2"),
        (("formula", "tensor-ratio", "--r", "1", "--n", "2", "--q", "2"), "5/2"),
        (("formula", "rank-count", "--kind", "hermitian", "--n", "2", "--i", "2", "--q", "2"), "10"),
        (("formula", "dim-bound", "--kind", "symmetric", "--n", "3", "--d", "3"), "3"),
        (("formula", "spectrum-free", "--m", "2", "--q", "3"), "18"),
        (("formula", "pi-q", "--q", "2", "--n", "1"), "2"),
        (("formula", "ine-margin", "--q", "2"), "True"),
        (("formula", "sparseness-exponent", "--kind", "hermitian", "--n", "3",
          "--k", "6", "--d", "2"), "-1"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert needle in out, (argv, out)


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "mrd192")
    assert code == 0
    assert "PASS mrd192" in out
    assert "192" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "everything")
    assert code == 2
    assert "unknown suite" in err


def test_verify_budget_exhaustion_is_skipped_not_failed(capsys):
    code, out, _ = run(capsys, "verify", "mrd192", "--budget", "1000")
    assert code == 0  # skipped checks do not fail the run
    assert "SKIPPED" in out and "FAIL" not in out


def test_verify_failure_exit_code(monkeypatch, capsys):
    import rankmetric.cli as cli

    monkeypatch.setitem(cli.SUITES, "mrd192", lambda budget, jobs: (False, "forced"))
    code, out, _ = run(capsys, "verify", "mrd192")
    assert code == 1
    assert "FAIL" in out


def test_verify_budget_accepts_scientific_notation(capsys):
    code, out, _ = run(capsys, "verify", "hejar", "--budget", "1e9")
    assert code == 0
    assert "PASS" in out


def test_verify_all_byte_identical_across_jobs(tmp_path, capsys):
    out1 = tmp_path / "j1.txt"
    out8 = tmp_path / "j8.txt"
    assert main(["verify", "all", "--out", str(out1)]) == 0
    assert main(["verify", "all", "--jobs", "8", "--out", str(out8)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out8.read_bytes()


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "hejar", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert payload["checks"][0]["name"] == "hejar"
    assert payload["checks"][0]["status"] == "PASS"


def test_table_critical_example_golden(capsys):
    code, out, _ = run(capsys, "table", "critical-example")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "rho,density_num,density_den,density_float_4dp"
    floats = [line.split(",")[3] for line in lines[1:]]
    assert floats == ["0.1352", "0.1333", "0.1295", "0.1211", "0.1003", "0.0000"]


def test_table_rank_strata(capsys):
    code, out, _ = run(
        capsys, "table", "rank-strata", "--kind", "hermitian", "--n", "2", "--q", "2"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "i,printed_formula,validated_formula,enumerated"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[2] for r in rows] == [r[3] for r in rows]  # validated == enumerated
    assert rows[1][1:] == ["15", "5", "5"]  # printed disagrees already at i=1
    assert rows[2][1:] == ["18", "10", "10"]


def test_table_mrd_bounds(capsys):
    code, out, _ = run(capsys, "table", "mrd-bounds", "--n", "3..5", "--q", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,q,lower_count,lower_density,upper_exponent"
    assert lines[1].startswith("3,2,192,")
    assert lines[1].endswith("-1")  # -(n-1)+1 at n=3


def test_table_unknown_exits_2(capsys):
    code, _, err = run(capsys, "table", "no-table")
    assert code == 2


def test_table_out_file_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["table", "critical-example", "--out", str(a)]) == 0
    assert main(["table", "critical-example", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_budget_env_var_override(capsys, monkeypatch):
    monkeypatch.setenv("RANKMETRIC_BUDGET", "1000")
    code, out, _ = run(capsys, "verify", "mrd192")
    assert code == 0
    assert "SKIPPED" in out
    monkeypatch.delenv("RANKMETRIC_BUDGET")
