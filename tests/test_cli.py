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
        ("formula", "pi-q", "--q", "2", "--eps", "nan"),
        ("formula", "pi-q", "--q", "2", "--eps", "inf"),
        ("formula", "pi-q", "--q", "2", "--eps", "0"),
        ("formula", "ine-margin", "--q", "3", "--terms", "-3"),
        ("formula", "ine-margin", "--q", "3", "--terms", "0"),
        ("formula", "alt-exp-sum", "--m", "100000000"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2, (argv, err)
        assert "Traceback" not in err


def test_large_q_is_checked_quickly(capsys):
    import time

    for q in (1000000000000037, 2**61 - 1):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "formula", "density3x3", "--q", str(q))
        assert code == 0, err
        assert time.perf_counter() - t0 < 1.0
    code, _, err = run(capsys, "formula", "density3x3", "--q", str(3 * 1000000000000037))
    assert code == 2
    assert "prime power" in err
    # primality above the range the Miller-Rabin bases decide is refused
    code, _, err = run(capsys, "formula", "density3x3", "--q", str(2**89 - 1))
    assert code == 2
    assert "Traceback" not in err


def test_out_to_a_bad_path_exits_2(capsys, tmp_path):
    for target in (tmp_path, tmp_path / "missing" / "report.txt"):
        code, out, err = run(
            capsys, "formula", "density3x3", "--q", "2", "--out", str(target)
        )
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_no_partial_file(capsys, tmp_path, monkeypatch):
    target = tmp_path / "report.txt"

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    code, _, err = run(capsys, "formula", "density3x3", "--q", "2", "--out", str(target))
    assert code == 2
    assert err == "error: disk full\n"
    assert list(tmp_path.iterdir()) == []
    # an existing report is left as it was
    target.write_text("old\n")
    code, _, _ = run(capsys, "formula", "density3x3", "--q", "2", "--out", str(target))
    assert code == 2
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


def test_out_follows_a_symlink_and_keeps_the_mode(capsys, tmp_path):
    target = tmp_path / "report.txt"
    target.write_text("old\n")
    target.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    code, _, err = run(capsys, "formula", "density3x3", "--q", "2", "--out", str(link))
    assert code == 0, err
    assert link.is_symlink()
    assert target.read_text() != "old\n"
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(tmp_path.iterdir()) == [link, target]


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
