"""rankmetric benchmark: time to an exact, verified result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh
interpreters (bench/worker.py): one client runs ops back to back for S
seconds (at least three ops), and every op's output is checked against
bench/reference/.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:
  op_s            median wall seconds per op
  cpu_s           median user+sys seconds per op, reaped Pool workers included
  setup_s         median over fresh interpreters of start + imports + inputs
                  + the lazy caches the op fills
  peak_rss_mb     peak resident set of the process or any of its workers
  verified_ratio  ops verified correct over ops attempted

--trace 1 runs ops at --jobs 1 with every public function of the package
wrapped (bench/layertrace.py) and reports the per-layer metrics of one
op: deterministic counts, self seconds (median over traced ops), and
trace.overhead, the traced op time over an untraced op in the same run.

The line before the result records the seed, nproc, the Python version,
the commit (when the checkout is a git repository) and a digest of src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
SETUP_SAMPLES = 5
DEADLINE_S = 175.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("RANKMETRIC_BUDGET", None)
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Run one worker interpreter to completion; returns (wall seconds,
    stdout).  A worker that fails or outlives the deadline is an error."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=_worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args[:2]} exceeded the deadline")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-15:])
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}:\n{tail}")
    return wall, out


def _provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_walls: list[float], res: dict) -> tuple[dict, dict]:
    ops = res["ops"]
    ok = sum(1 for op in ops if op["error"] is None)
    metrics = {
        "op_s": _metric(statistics.median(op["wall_s"] for op in ops), "s"),
        "cpu_s": _metric(statistics.median(op["cpu_s"] for op in ops), "s"),
        "setup_s": _metric(statistics.median(setup_walls), "s"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        "verified_ratio": _metric(ok / len(ops), "ratio"),
    }
    detail = {
        "op_wall_s": [op["wall_s"] for op in ops],
        "op_cpu_s": [op["cpu_s"] for op in ops],
        "setup_wall_s": setup_walls,
    }
    return metrics, detail


def per_layer(res: dict) -> tuple[dict, dict, list[str]]:
    from layertrace import COUNT_METRICS, TIME_METRICS

    traced = res["traced"]
    problems = []
    first = traced[0]["layers"]
    for op in traced[1:]:
        diff = [k for k in COUNT_METRICS if op["layers"][k] != first[k]]
        if diff:
            problems.append(f"counts differ between traced ops: {diff}")
    if res["leftover_wrappers"]:
        problems.append(f"tracer left wrappers behind: {res['leftover_wrappers']}")
    metrics = {}
    for name in COUNT_METRICS:
        unit = "ratio" if name.endswith("_ratio") or name.endswith("_per_subspace") else "count"
        metrics[name] = _metric(first[name], unit)
    for name in TIME_METRICS:
        metrics[name] = _metric(statistics.median(op["layers"][name] for op in traced), "s")
    traced_wall = statistics.median(op["wall_s"] for op in traced)
    metrics["trace.overhead"] = _metric(traced_wall / res["untraced_wall_s"], "ratio")
    detail = {
        "untraced_wall_s": res["untraced_wall_s"],
        "traced_wall_s": [op["wall_s"] for op in traced],
    }
    return metrics, detail, problems


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "rankmetric" / "__init__.py").is_file():
        sys.stderr.write(f"no rankmetric sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        common = [args.workload, str(args.seed), str(work_dir)]
        setup_walls = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setup_walls.append(_spawn(["setup", *common], deadline)[0])
        _, out = _spawn(["run", *common, str(args.seconds), str(args.trace)], deadline)
        res = json.loads(out.strip().splitlines()[-1])
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    errors = [op["error"] for op in res["ops"] if op["error"] is not None]
    if args.trace:
        metrics, detail, problems = per_layer(res)
    else:
        metrics, detail = end_to_end(setup_walls, res)
        problems = []
    for message in errors + problems:
        sys.stderr.write(f"check failed: {message}\n")
    print(json.dumps({**_provenance(args), **detail, "errors": errors + problems}))
    print(json.dumps({
        "correct": not errors and not problems,
        "attempted": len(res["ops"]),
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
