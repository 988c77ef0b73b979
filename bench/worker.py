"""One fresh interpreter of the benchmark; started by bench/run.py.

    python3 bench/worker.py setup WORKLOAD SEED WORK_DIR
    python3 bench/worker.py run WORKLOAD SEED WORK_DIR SECONDS TRACE

`setup` imports the package from the checkout's `src/`, builds the
workload's inputs and fills the lazy caches its op uses, then exits; its
wall time from spawn to exit is one set-up sample.  `run` does the same
set-up, then runs ops back to back (one client, closed loop) for SECONDS
and prints one JSON line with a record per op.

With TRACE=1 it first runs one untraced op at --jobs 1, then installs
the tracer and runs traced ops at --jobs 1, each with its own per-layer
metrics; the untraced op gives the tracing overhead.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
MIN_TIMED_OPS = 3


def import_package() -> None:
    """Import rankmetric from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC_DIR))
    import rankmetric

    if Path(rankmetric.__file__).resolve().parent != SRC_DIR / "rankmetric":
        raise ImportError(f"rankmetric imported from {rankmetric.__file__}, not {SRC_DIR}")


def _cpu_seconds() -> float:
    """User + system time of this process and of every reaped child
    (the Pool workers of a --jobs 2 op)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_op(workload, ctx: dict, jobs: int, reference) -> dict:
    """Run one op; any exception or a result that differs from the
    reference makes it a failed op."""
    error = None
    t0 = time.perf_counter()
    c0 = _cpu_seconds()
    try:
        result = workload.op(ctx, jobs)
    except Exception as exc:  # a failed op is counted, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - c0
    if error is None and result != reference:
        error = "result differs from the stored reference"
    return {"wall_s": wall, "cpu_s": cpu, "error": error}


def run(workload, ctx: dict, seconds: float) -> dict:
    reference = workload.reference()
    ops = []
    start = time.perf_counter()
    while len(ops) < MIN_TIMED_OPS or time.perf_counter() - start < seconds:
        ops.append(timed_op(workload, ctx, workload.jobs, reference))
    return {"ops": ops, "peak_rss_mb": _peak_rss_mb()}


def run_traced(workload, ctx: dict, seconds: float) -> dict:
    from layertrace import Tracer, leftover_wrappers

    reference = workload.reference()
    untraced = timed_op(workload, ctx, 1, reference)
    tracer = Tracer()
    traced = []
    tracer.install()
    try:
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            tracer.reset()
            op = timed_op(workload, ctx, 1, reference)
            op["layers"] = tracer.layer_metrics()
            traced.append(op)
    finally:
        tracer.uninstall()
    return {
        "ops": [untraced] + traced,
        "untraced_wall_s": untraced["wall_s"],
        "traced": traced,
        "leftover_wrappers": leftover_wrappers(),
        "peak_rss_mb": _peak_rss_mb(),
    }


def main(argv: list[str]) -> int:
    mode, name, seed, work_dir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    ctx = workload.setup(seed, work_dir)
    if mode == "setup":
        return 0
    seconds, trace = float(argv[4]), argv[5] == "1"
    out = run_traced(workload, ctx, seconds) if trace else run(workload, ctx, seconds)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
