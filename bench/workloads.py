"""The three benchmark workloads.

An op is one full call of the library, checked against the stored
reference in `bench/reference/`.  The seed only changes inputs whose
result is provably the same, so one reference serves every seed.

- verify-all: `rankmetric verify all` in-process, the user-facing
  command.  Mostly the packed GF(2) sweep of mrd192; the only workload
  that goes through the multiprocessing.Pool path.  The seed changes
  nothing.
- gf3-sweep: the generic (unpacked) sweep over GF(3) plus the
  spectrum-free enumeration; both sides of the 2 x m identity at
  (m=3, q=3), which the CLI's hejar suite does not cover.  The seed picks
  the 2x3 or the 3x2 orientation: transposition maps one set of codes
  onto the other, so count and total agree.
- census27: the GF(27) twisted-field class census with automorphism
  group sizes; the semifield, linpoly and ExtField layers and many small
  kernel solves, no Grassmannian.  The seed picks the GF(27) modulus; the
  class table is independent of the field model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
BUDGET = 10**9


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int  # --jobs of the timed ops; traced ops always run at 1
    setup: Callable[[int, Path], dict]
    op: Callable[[dict, int], object]
    reference: Callable[[], object]


def _json_reference(name: str):
    def load():
        return json.loads((REFERENCE_DIR / f"{name}.json").read_text())
    return load


# ----------------------------------------------------------------------
# verify-all
# ----------------------------------------------------------------------

def _verify_all_setup(seed: int, work_dir: Path) -> dict:
    from rankmetric import cli, linalg

    # Fill the lazy caches the op uses, in this process so that forked
    # Pool workers inherit them: the GF(2) rank tables of every packed
    # sweep shape, and the point-set histograms of the lambda suite.
    for n, m in ((1, 2), (2, 2), (2, 3), (3, 3)):
        linalg.gf2_rank_table(n, m)
    out = work_dir / "verify-all.txt"
    rc = cli.main(["verify", "lambda", "--budget", str(BUDGET), "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"verify lambda exited {rc} during setup")
    return {"out": out}


def _verify_all_op(ctx: dict, jobs: int) -> bytes:
    from rankmetric import cli

    out = ctx["out"]
    if out.exists():
        out.unlink()
    argv = ["verify", "all", "--budget", str(BUDGET), "--jobs", str(jobs), "--out", str(out)]
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"verify all exited {rc}")
    return out.read_bytes()


def _verify_all_reference() -> bytes:
    return (REFERENCE_DIR / "verify-all.txt").read_bytes()


# ----------------------------------------------------------------------
# gf3-sweep
# ----------------------------------------------------------------------

def _gf3_setup(seed: int, work_dir: Path) -> dict:
    from rankmetric import codes

    codes.field_for_order(3)
    return {"shape": (2, 3) if seed % 2 == 0 else (3, 2)}


def _gf3_op(ctx: dict, jobs: int) -> dict:
    from rankmetric import codes

    n, m = ctx["shape"]
    res = codes.density_bruteforce(n, m, 3, 2, 3, budget=BUDGET, jobs=jobs)
    free = codes.spectrum_free_count(3, 3, budget=BUDGET)
    return {"count": res.count, "total": res.total, "spectrum_free": free}


# ----------------------------------------------------------------------
# census27
# ----------------------------------------------------------------------

def _census_setup(seed: int, work_dir: Path) -> dict:
    from rankmetric import fields, semifield

    base = fields.make_field(3)
    modulus = fields.nth_irreducible(base, 3, seed % 8)
    field = fields.ExtField(base, 3, modulus)
    # One-pair automorphism scan: fills the cached list of GL_3(3).
    semifield.aut_group_size_bruteforce(semifield.c0_code(field), budget=BUDGET, chunk=(0, 1))
    return {"field": field}


def _census_op(ctx: dict, jobs: int) -> list:
    from rankmetric import semifield

    return semifield.twisted_class_census(ctx["field"], budget=BUDGET)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-all", 2, _verify_all_setup, _verify_all_op, _verify_all_reference),
        Workload("gf3-sweep", 1, _gf3_setup, _gf3_op, _json_reference("gf3-sweep")),
        Workload("census27", 1, _census_setup, _census_op, _json_reference("census27")),
    )
}
