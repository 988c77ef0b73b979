"""CLI contract: formula evaluation, verify suites, tables, exit codes,
and byte-identical reports under parallelism."""

import json
import os

import pytest

from rankmetric.cli import FORMULAS, main


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
        ("formula", "spectrum-free", "--m", "-2", "--q", "5"),
        ("formula", "density-2dim", "--n", "-2", "--q", "5"),
        ("formula", "density-2dim", "--n", "0", "--q", "3"),
        ("formula", "density3x3", "--q", "1"),
        ("table", "mrd-bounds", "--q", "0", "--n", "3..3"),
        ("table", "critical-example", "--format", "json"),
        ("table", "critical-example", "--format", "text"),
        ("formula", "density3x3", "--q", "6"),
        ("verify", "mrd192", "--jobs", "0"),
        ("verify", "mrd192", "--jobs", "-3"),
        ("formula", "pi-q", "--q", "2", "--eps", "nan"),
        ("formula", "pi-q", "--q", "2", "--eps", "inf"),
        ("formula", "pi-q", "--q", "2", "--eps", "0"),
        ("formula", "ine-margin", "--q", "3", "--terms", "-3"),
        ("formula", "ine-margin", "--q", "3", "--terms", "0"),
        ("formula", "alt-exp-sum", "--m", "100000000"),
        ("formula", "avg", "--N", "3", "--k", "-1", "--l", "2", "--q", "3"),
        ("formula", "hyperplane-collinear", "--N", "1", "--i", "2", "--q", "3"),
        ("formula", "mds-arc", "--N", "-1", "--l", "2", "--q", "2"),
        ("formula", "arc-plus-point-gap", "--N", "-1", "--l", "2", "--q", "4"),
        ("formula", "avg-limit", "--regime", "m_large", "--N", "4", "--k", "2",
         "--s", "1", "--q", "3"),
        ("formula", "avg-limit", "--N", "4", "--k", "9", "--s", "1", "--q", "2"),
        ("formula", "avg-limit", "--regime", "m_large", "--n", "2", "--d", "3", "--q", "2"),
        ("formula", "kantor-lower", "--n", "4"),
        ("formula", "pi-q", "--q", "2", "--n", "100000000"),
        ("formula", "pi-q", "--q", "2", "--n", "-1"),
        ("formula", "mrd-asymptotics", "--n", "3", "--d", "9"),
        ("formula", "sparseness-exponent", "--kind", "full", "--n", "3", "--k", "100",
         "--d", "2"),
        ("formula", "sparseness-exponent", "--kind", "full", "--n", "3", "--k", "0",
         "--d", "2"),
        ("formula", "ball-exponent", "--kind", "full", "--n", "4", "--r", "3", "--m", "2"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2, (argv, err)
        assert "Traceback" not in err
        # main reports one line; argparse a usage block and one line
        assert err.startswith("usage:") or err.count("\n") == 1, (argv, err)


# limits whose exponents are past the float range: each ended in an
# OverflowError traceback and exit 1, and each value reads 0.0
FLOAT_RANGE_LIMITS = [
    (("avg-limit", "--regime", "m_large", "--n", "300", "--d", "150", "--q", "1024"), None),
    (("avg-limit", "--regime", "q_large", "--n", "300", "--d", "3", "--q", "1048576"), None),
    (("mrd-asymptotics", "--n", "300", "--d", "3", "--q", "1024"), "upper_m_branch2"),
    (("mrd-asymptotics", "--n", "2000", "--d", "1000", "--q", "2"), "upper_m_branch1"),
]


@pytest.mark.parametrize("argv,key", FLOAT_RANGE_LIMITS)
def test_limits_past_the_float_range_exit_0(capsys, argv, key):
    code, out, err = run(capsys, "formula", *argv, "--format", "json")
    assert code == 0, err
    value = json.loads(out)["value"]
    if key is None:
        assert value == "0.0"
    else:
        assert value[key] == value["upper_m"] == 0.0


def test_every_formula_exits_0_or_2(capsys):
    # a fixed seeded sample of small, zero and negative parameters, each
    # option left out a quarter of the time: every registered formula
    # prints a value or one usage line, and no exception escapes main
    import random

    from rankmetric.restricted import KINDS

    rng = random.Random(0)
    options = ("n", "m", "k", "d", "N", "l", "rho", "i", "j", "r", "s")
    for name in sorted(FORMULAS):
        for _ in range(60):
            argv = ["formula", name, "--q", str(rng.choice((2, 3, 4))), "--budget", "20000"]
            for opt in options:
                if rng.random() < 0.75:
                    argv += [f"--{opt}", str(rng.randint(-2, 4))]
            argv += ["--kind", rng.choice(KINDS)]
            argv += ["--variant", rng.choice(("validated", "printed"))]
            if rng.random() < 0.5:
                argv += ["--regime", rng.choice(("q_large", "m_large"))]
            assert main(argv) in (0, 2), argv
    capsys.readouterr()


# one value of every option but q, valid for each formula that needs q
# at q = 4 (mds-arc needs l >= N, arc-plus-point l <= q - 1)
FORMULA_ARGS = {
    "i": 2, "j": 1, "n": 2, "m": 2, "r": 1, "N": 3, "k": 2, "l": 3, "rho": 2, "s": 1,
    "kind": "symmetric",
}


@pytest.mark.parametrize(
    "name", sorted(name for name, (_, needs, _) in FORMULAS.items() if "q" in needs)
)
def test_every_formula_needing_q_refuses_a_q_that_is_not_an_int_of_at_least_2(name):
    func, needs, _ = FORMULAS[name]

    def call(q):
        return func(*(q if opt == "q" else FORMULA_ARGS[opt] for opt in needs))

    call(4)
    for q in (2.0, 1, "3"):
        with pytest.raises(ValueError, match="q must be an integer >= 2"):
            call(q)


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


@pytest.fixture
def pools_started(monkeypatch):
    """The list of the worker counts of the real Pools started, with 2
    CPUs reported."""
    import multiprocessing

    real_pool, started = multiprocessing.Pool, []

    def counting_pool(processes):
        started.append(processes)
        return real_pool(processes=processes)

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return started


@pytest.mark.parametrize(
    "argv,pools",
    [
        (("verify", "all", "--jobs", "2"), [2] * 6),
        (("verify", "all", "--jobs", "1"), []),
        (("verify", "lambda", "--jobs", "2"), []),
        (("formula", "density3x3", "--q", "2"), []),
    ],
    ids=["all-jobs2", "all-jobs1", "lambda-jobs2", "formula"],
)
def test_one_pool_per_command(pools_started, capsys, monkeypatch, argv, pools):
    # with no in-process part, every sweep with more than one subspace
    # maps its chunks on a 2-worker Pool of its own and closes and joins
    # it before it returns, so no worker outlives the sweep and no Pool
    # is dropped unclosed.  verify all at jobs 2 has 6 such sweeps: the
    # three of hejar, mrd192 and two of the six of tensor; the other four
    # count a single subspace each, in-process.
    import multiprocessing
    import warnings

    from rankmetric import codes

    per_sweep, alive = [], []
    real_sweep = codes._sweep

    def sweep(*args, **kwargs):
        before = len(pools_started)
        out = real_sweep(*args, **kwargs)
        per_sweep.append(pools_started[before:])
        alive.append(multiprocessing.active_children())
        return out

    monkeypatch.setattr(codes, "_POOL_AFTER_S", 0)
    monkeypatch.setattr(codes, "_sweep", sweep)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert run(capsys, *argv)[0] == 0
    assert pools_started == pools
    assert all(started in ([], [2]) for started in per_sweep)
    assert sum(per_sweep, []) == pools
    assert not any(alive)
    assert multiprocessing.active_children() == []
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def _failing_chunk(task):
    raise RuntimeError("chunk failed in a worker")


def test_no_worker_outlives_a_failed_sweep(pools_started, capsys, monkeypatch):
    # patched before the fork, so the chunk raises inside a Pool worker;
    # the exception unwinds through the sweep, which terminates its Pool
    import multiprocessing

    from rankmetric import codes

    monkeypatch.setattr(codes, "_POOL_AFTER_S", 0)
    monkeypatch.setattr(codes, "_count_chunk", _failing_chunk)
    with pytest.raises(RuntimeError, match="chunk failed in a worker"):
        main(["verify", "mrd192", "--jobs", "2"])
    assert pools_started == [2]
    assert multiprocessing.active_children() == []


def test_verify_all_byte_identical_across_jobs(pools_started, tmp_path, capsys, monkeypatch):
    # the text and JSON reports at jobs 1, 2 and 8; 2 CPUs are reported and
    # no sweep counts in-process, so jobs 2 and 8 each start one Pool of
    # 2 workers for each of the 6 sweeps with more than one subspace
    from rankmetric import codes

    monkeypatch.setattr(codes, "_POOL_AFTER_S", 0)
    for fmt in ("text", "json"):
        reports = []
        for jobs in ("1", "2", "8"):
            out = tmp_path / f"j{jobs}.{fmt}"
            argv = ["verify", "all", "--jobs", jobs, "--format", fmt, "--out", str(out)]
            assert main(argv) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]
    capsys.readouterr()
    assert pools_started == [2] * 6 * 4


@pytest.mark.parametrize("jobs", ["2", "8"])
def test_verify_all_starts_no_pool_by_default(pools_started, tmp_path, capsys, jobs):
    # every sweep of verify all finishes before codes._POOL_AFTER_S, so at
    # jobs 2 and 8 it runs in-process and writes the bytes of jobs 1
    import multiprocessing

    reports = []
    for j in ("1", jobs):
        out = tmp_path / f"j{j}.txt"
        assert main(["verify", "all", "--jobs", j, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    assert pools_started == []
    assert multiprocessing.active_children() == []


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
    # the full ambient has a coordinate basis too: its unit matrices
    code, out, _ = run(capsys, "table", "rank-strata", "--kind", "full", "--n", "2", "--q", "2")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [r[2:] for r in rows] == [["1", "1"], ["9", "9"], ["6", "6"]]


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


def test_table_bad_n_exits_2_naming_n(capsys):
    # an empty or reversed range, a non-integer, and a range where
    # rank-strata takes one n
    for argv in (
        ("table", "mrd-bounds", "--n", "5..3"),
        ("table", "mrd-bounds", "--n", "3..x"),
        ("table", "rank-strata", "--n", "3..4"),
        ("table", "rank-strata", "--n", "two"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert len(err.splitlines()) == 1 and "--n" in err, (argv, err)


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


@pytest.mark.parametrize("value", ["inf", "nan", "abc", "-5", "0.5"])
def test_bad_budget_env_var_exits_2(capsys, monkeypatch, value):
    # the --budget help no longer reads the variable, so a bad value is
    # one usage line from main, not a traceback while the parser is built
    monkeypatch.setenv("RANKMETRIC_BUDGET", value)
    code, out, err = run(capsys, "formula", "spectrum-free", "--m", "2", "--q", "2")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "RANKMETRIC_BUDGET" in err
    assert "Traceback" not in err


def test_options_a_subcommand_does_not_read_exit_2(capsys):
    for argv in (
        ("verify", "hejar", "--q", "3"),
        ("table", "mrd-bounds", "--jobs", "2"),
        ("table", "mrd-bounds", "--eps", "0.1"),
        ("formula", "density3x3", "--q", "2", "--jobs", "2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "Traceback" not in err


def test_formula_params_list_only_the_options_read(capsys):
    code, out, _ = run(
        capsys, "formula", "qbinom", "--i", "4", "--j", "2", "--q", "2",
        "--n", "3", "--budget", "1000", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["params"] == {"i": 4, "j": 2, "q": 2}
    # an optional option appears only when given
    code, out, _ = run(capsys, "formula", "pi-q", "--q", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == {"q": 2}


def test_every_declared_formula_option_is_a_parser_option():
    from rankmetric.cli import FORMULAS, build_parser

    dests = set(vars(build_parser().parse_args(["formula", "qbinom"])))
    for name, (func, needs, reads) in FORMULAS.items():
        assert callable(func), name
        assert set(needs) | set(reads) <= dests, name
