"""Command-line front end: evaluate formulas, run verification suites,
and emit the package's reference tables.

Each subcommand takes only the options it reads.  `formula` looks its
name up in FORMULAS, which gives the function, the options it needs (an
absent one exits 2) and the options it reads when given; an option left
out takes the function's own default, and the JSON `params` list exactly
the declared options that were given, --budget aside.  `verify` takes
--jobs; `table` takes --q, --n and --kind and writes csv only.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Reports
written to stdout (or --out) are deterministic: identical inputs produce
byte-identical output at any --jobs setting.  Wall-clock timings go to
stderr only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
import tempfile
import time
from fractions import Fraction

from . import codes, critical, fields, qcomb, restricted, semifield
from .errors import BUDGET_ENV_VAR, DEFAULT_BUDGET, BudgetExceededError


def _fmt_float(x: float, precision: int) -> str:
    return f"{x:.{precision}g}"


def _result_payload(name: str, params: dict, value, precision: int) -> dict:
    out = {"formula": name, "params": params}
    if isinstance(value, Fraction):
        out["exact"] = f"{value.numerator}/{value.denominator}"
        out["float"] = _fmt_float(float(value), precision)
    elif isinstance(value, int):
        out["exact"] = str(value)
    elif isinstance(value, dict):
        out["value"] = value
    else:
        out["value"] = str(value)
    return out


def _emit(payload, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, default=str) + "\n"
    elif args.format == "csv":
        if isinstance(payload, dict) and "rows" in payload:
            lines = [",".join(payload["header"])]
            lines += [",".join(str(x) for x in row) for row in payload["rows"]]
            text = "\n".join(lines) + "\n"
        else:
            flat = payload if isinstance(payload, dict) else {"value": payload}
            keys = [k for k in flat if not isinstance(flat[k], (dict, list))]
            text = (
                ",".join(keys)
                + "\n"
                + ",".join(str(flat[k]) for k in keys)
                + "\n"
            )
    else:
        if isinstance(payload, dict) and "rows" in payload:
            lines = [" ".join(payload["header"])]
            lines += [" ".join(str(x) for x in row) for row in payload["rows"]]
            text = "\n".join(lines) + "\n"
        else:
            parts = []
            for k, v in payload.items():
                if k == "params":
                    continue
                parts.append(f"{k}={v}")
            text = "  ".join(parts) + "\n"
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _write_atomic(path: str, text: str) -> None:
    """Write text to a temporary file beside path, then rename it over
    path: a failed write leaves no partial file behind.  A symlink is
    followed, an existing file keeps its mode and a new one gets the mode
    open() would give it."""
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


# ----------------------------------------------------------------------
# formula registry
# ----------------------------------------------------------------------

class SystemExit2(Exception):
    """Usage errors that should exit with status 2."""


def _need(given: dict, names) -> list:
    """The values of the named options, in order; the first one missing
    is a usage error."""
    for name in names:
        if given.get(name) is None:
            raise SystemExit2(f"formula requires --{name}")
    return [given[name] for name in names]


# Adapters for the formulas whose result is reshaped or whose call
# branches on the options given.

def _f_pi_q(q, n=None, eps=1e-9, budget=None):
    if n is not None:
        return qcomb.pi_q(q, n, budget)
    value, bound = qcomb.pi_q_limit(q, eps)
    return {"value": value, "certified_bound": bound}


def _f_ine_margin(q, **given):
    cert = qcomb.comparison_inequality_check(q, **given)
    return {
        "holds": cert.holds,
        "margin_lower": f"{cert.margin_lower.numerator}/{cert.margin_lower.denominator}",
        "margin_estimate": cert.margin_estimate,
        "terms": cert.terms,
    }


def _f_mrd_lower(n, q):
    count, density = codes.mrd_lowerbound_formula(n, q)
    return {
        "count": str(count),
        "density": f"{density.numerator}/{density.denominator}",
        "density_float": float(density),
    }


def _f_sparseness_exponent(kind, n, k, d, **given):
    est, limit = restricted.sparseness_exponent(kind, n, k, d, **given)
    return {"exponent": est.exponent, "limit": "boundary" if limit is None else limit}


def _f_mrd_asymptotics(n, d, **given):
    out = codes.asymptotic_constants(n, d, **given)
    flat = {}
    for key, val in out.items():
        flat[key] = str(val) if isinstance(val, qcomb.AsymptoticEstimate) else val
    return flat


def _f_avg_limit(regime="q_large", **given):
    if given.get("d") is not None:
        return critical.ball_avg_limit(*_need(given, ("n", "d", "q")), regime)
    if regime == "m_large":
        raise SystemExit2("avg-limit --regime m_large needs --d (no option passes k', l', m)")
    return critical.avg_density_limit_qlarge(*_need(given, ("N", "k", "s", "q")))


# name -> (function, the options it needs, passed in this order, the
# options it reads when given, passed by keyword)
FORMULAS = {
    "qbinom": (qcomb.qbinom, ("i", "j", "q"), ()),
    "gl-order": (qcomb.gl_order, ("n", "q"), ()),
    "ball-size": (qcomb.ball_size, ("n", "m", "r", "q"), ()),
    "pointset-size": (qcomb.pointset_size, ("n", "m", "r", "q"), ()),
    "pi-q": (_f_pi_q, ("q",), ("n", "eps", "budget")),
    "alt-exp-sum": (qcomb.alt_exp_sum, ("m",), ("budget",)),
    "ine-margin": (_f_ine_margin, ("q",), ("terms", "budget")),
    "density3x3": (codes.density_3x3_formula, ("q",), ()),
    "mrd-lower": (_f_mrd_lower, ("n", "q"), ()),
    "kantor-lower": (codes.kantor_lowerbound, ("n",), ()),
    "class-count": (semifield.class_count_formula, ("n", "q"), ()),
    "spectrum-free": (codes.spectrum_free_count, ("m", "q"), ("budget",)),
    "avg": (critical.avg_density_formula, ("N", "k", "l", "q"), ()),
    "avg-rank": (critical.avg_density_rank_formula, ("N", "k", "l", "rho", "q"), ()),
    "avg-limit": (_f_avg_limit, (), ("regime", "n", "d", "q", "N", "k", "s")),
    "lambda": (critical.lambda_count, ("N", "s", "l", "rho", "q"), ()),
    "hyperplane-collinear": (critical.hyperplane_density_collinear, ("N", "i", "q"), ()),
    "hyperplane-independent": (critical.hyperplane_density_independent, ("N", "i", "q"), ()),
    "mds-arc": (critical.mds_arc_density, ("N", "l", "q"), ()),
    "arc-plus-point": (critical.arc_plus_point_density, ("N", "l", "q"), ()),
    "arc-plus-point-gap": (critical.arc_plus_point_gap, ("N", "l", "q"), ()),
    "density-2dim": (restricted.density_2dim_formula, ("n", "q"), ("budget",)),
    "tensor-ratio": (restricted.tensor_ratio, ("r", "n", "q"), ()),
    "rank-count": (restricted.rank_count, ("kind", "n", "i", "q"), ("variant",)),
    "dim-bound": (restricted.dim_bound, ("kind", "n", "d"), ()),
    "ball-exponent": (restricted.ball_asymptotic_exponent, ("kind", "n", "r"), ("m",)),
    "sparseness-exponent": (_f_sparseness_exponent, ("kind", "n", "k", "d"), ("variant",)),
    "mrd-asymptotics": (_f_mrd_asymptotics, ("n", "d"), ("q", "eps")),
}


def cmd_formula(args) -> int:
    if args.name not in FORMULAS:
        sys.stderr.write(
            f"unknown formula {args.name!r}; known: {', '.join(sorted(FORMULAS))}\n"
        )
        return 2
    func, needs, reads = FORMULAS[args.name]
    opts = vars(args)
    values = _need(opts, needs)
    given = {name: opts[name] for name in reads if opts[name] is not None}
    params = {
        k: v
        for k, v in opts.items()
        if (k in needs or k in given) and k != "budget"
    }
    value = func(*values, **given)
    _emit(_result_payload(args.name, params, value, args.precision), args)
    return 0


# ----------------------------------------------------------------------
# verify suites
# ----------------------------------------------------------------------

def _check_mrd192(budget, jobs):
    res = codes.density_bruteforce(3, 3, 3, 3, 2, budget=budget, jobs=jobs)
    formula_count, _ = codes.mrd_lowerbound_formula(3, 2)
    closed = codes.density_3x3_formula(2) * qcomb.qbinom(9, 3, 2)
    ok = res.count == 192 == formula_count and closed == 192
    return ok, f"enumerated={res.count} lower-bound={formula_count} closed-form={closed}"


def _check_hejar(budget, jobs):
    details = []
    ok = True
    for m, q in ((2, 2), (2, 3), (3, 2)):
        lhs = codes.density_bruteforce(2, m, m, 2, q, budget=budget, jobs=jobs).count
        rhs = codes.spectrum_free_count(m, q, budget=budget)
        ok &= lhs == rhs
        details.append(f"(m={m},q={q}):{lhs}={rhs}")
    return ok, " ".join(details)


def _check_lambda(budget, jobs):
    checked = 0
    for Nmax, q, ellmax in ((4, 2, 5), (3, 3, 4)):
        for N in range(2, Nmax + 1):
            for rho in range(2, N + 1):
                top = min(ellmax, (q**rho - 1) // (q - 1))
                for ell in range(rho, top + 1):
                    for s in range(N + 1):
                        f = critical.lambda_count(N, s, ell, rho, q)
                        o = critical.lambda_exhaustive(N, s, ell, rho, q, budget=budget)
                        if f != o:
                            return False, f"mismatch at (N={N},s={s},l={ell},rho={rho},q={q}): {f} != {o}"
                        checked += 1
    return True, f"{checked} parameter points, formula == enumeration"


def _check_carlitz(budget, jobs):
    checked = 0
    for kind, grid in (
        ("symmetric", [(n, q) for n in (1, 2, 3) for q in (2, 3)]),
        ("alternating", [(n, q) for n in (1, 2, 3) for q in (2, 3)]),
        ("hermitian", [(n, q) for n in (1, 2) for q in (2, 3)]),
    ):
        for n, q in grid:
            strata = []
            enumerated = restricted.rank_distribution_exhaustive(kind, n, q, budget=budget)
            for i, e in enumerate(enumerated):
                f = restricted.rank_count(kind, n, i, q)
                if f != e:
                    return False, f"{kind} (n={n},i={i},q={q}): {f} != {e}"
                strata.append(f)
                checked += 1
            if sum(strata) != q ** restricted.ambient_dim(kind, n):
                return False, f"{kind} (n={n},q={q}): stratification sum wrong"
    printed = restricted.rank_count("hermitian", 1, 1, 2, variant="printed")
    validated = restricted.rank_count("hermitian", 1, 1, 2)
    if (printed, validated) != (3, 1):
        return False, f"hermitian variant pin broke: printed={printed} validated={validated}"
    return True, (
        f"{checked} strata validated; hermitian uses the enumeration-validated "
        f"variant (printed form gives {printed} instead of {validated} at n=1, i=1, q=2)"
    )


def _check_tensor(budget, jobs):
    details = []
    for r, n, q in ((1, 2, 2), (1, 2, 3), (2, 3, 2)):
        formula = restricted.tensor_ratio(r, n, q)
        num = codes.density_bruteforce(r, n, n, r, q, budget=budget, jobs=jobs).density
        den = codes.density_bruteforce(n, n, r, n, q, budget=budget, jobs=jobs).density
        if num / den != formula:
            return False, f"(r={r},n={n},q={q}): {num / den} != {formula}"
        details.append(f"(r={r},n={n},q={q}):{formula}")
    return True, " ".join(details)


def _check_cw_bridge(budget, jobs):
    import random

    rng = random.Random(0)
    for trial in range(20):
        N = rng.choice([3, 4])
        q = rng.choice([2, 3])
        pts = critical.all_points(N, q)
        while True:
            ell = rng.randint(N, min(len(pts), 8))
            P = critical.PointSet(N, q, rng.sample(pts, ell))
            if P.span_dim == N:
                break
        lhs = critical.delta_bruteforce(P, N - 1, budget=budget)
        rhs = critical.hyperplane_density_via_weights(P, budget=budget)
        if lhs != rhs:
            return False, f"trial {trial} (N={N},q={q},l={ell}): {lhs} != {rhs}"
    return True, "20 seeded point sets, hyperplane sweep == weight enumerator"


SUITES = {
    "mrd192": _check_mrd192,
    "hejar": _check_hejar,
    "lambda": _check_lambda,
    "carlitz": _check_carlitz,
    "tensor": _check_tensor,
    "cw-bridge": _check_cw_bridge,
}
SUITE_ORDER = ("hejar", "mrd192", "lambda", "carlitz", "tensor", "cw-bridge")


def cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        sys.stderr.write(
            f"unknown suite {args.suite!r}; known: {', '.join(SUITE_ORDER)} or 'all'\n"
        )
        return 2
    names = SUITE_ORDER if args.suite == "all" else (args.suite,)
    checks = []
    failed = 0
    for name in names:
        t0 = time.perf_counter()
        try:
            ok, detail = SUITES[name](args.budget, args.jobs)
            status = "PASS" if ok else "FAIL"
        except BudgetExceededError as exc:
            status, detail = "SKIPPED", f"budget: {exc}"
        elapsed = time.perf_counter() - t0
        sys.stderr.write(f"[{elapsed:8.2f}s] {status:7s} {name}\n")
        if status == "FAIL":
            failed += 1
        checks.append({"name": name, "status": status, "detail": detail})
    payload = {
        "suite": args.suite,
        "checks": checks,
        "passed": sum(1 for c in checks if c["status"] == "PASS"),
        "failed": failed,
        "skipped": sum(1 for c in checks if c["status"] == "SKIPPED"),
    }
    if args.format == "json":
        _emit(payload, args)
    else:
        rows = [(c["status"], c["name"], c["detail"]) for c in checks]
        _emit({"header": ("status", "name", "detail"), "rows": rows}, args)
    return 1 if failed else 0


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------

def _truncate4(value: Fraction) -> str:
    scaled = (value.numerator * 10**4) // value.denominator
    return f"{scaled // 10**4}.{scaled % 10**4:04d}"


def _table_critical_example(args):
    rows = []
    for rho, value in critical.rank_average_table():
        rows.append((rho, value.numerator, value.denominator, _truncate4(value)))
    return ("rho", "density_num", "density_den", "density_float_4dp"), rows


def _parse_range(spec: str) -> list[int]:
    """--n of `table`: the integers of lo..hi, lo <= hi, or the one integer
    given; anything else is a usage error."""
    lo, dots, hi = spec.partition("..")
    try:
        ns = list(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError:
        ns = []
    if not ns:
        raise SystemExit2(f"table --n must be an integer or a range lo..hi with lo <= hi, got {spec!r}")
    return ns


def _table_mrd_bounds(args):
    q = args.q or 2
    ns = _parse_range(args.n or "3..7")
    rows = []
    for n in ns:
        count, density = codes.mrd_lowerbound_formula(n, q)
        upper_exp = -(n - 1) + 1  # distance d = n
        rows.append((n, q, count, f"{float(density):.6e}", upper_exp))
    return ("n", "q", "lower_count", "lower_density", "upper_exponent"), rows


def _table_rank_strata(args):
    kind = args.kind or "hermitian"
    if args.n and ".." in args.n:
        raise SystemExit2(f"table rank-strata takes one --n, not the range {args.n!r}")
    (n,) = _parse_range(args.n or "2")
    q = args.q or 2
    rows = []
    enumerated = restricted.rank_distribution_exhaustive(kind, n, q, budget=args.budget)
    for i, e in enumerate(enumerated):
        printed = restricted.rank_count(kind, n, i, q, variant="printed")
        validated = restricted.rank_count(kind, n, i, q)
        rows.append((i, printed, validated, e))
    return ("i", "printed_formula", "validated_formula", "enumerated"), rows


TABLES = {
    "critical-example": _table_critical_example,
    "mrd-bounds": _table_mrd_bounds,
    "rank-strata": _table_rank_strata,
}


def cmd_table(args) -> int:
    if args.name not in TABLES:
        sys.stderr.write(
            f"unknown table {args.name!r}; known: {', '.join(sorted(TABLES))}\n"
        )
        return 2
    header, rows = TABLES[args.name](args)
    _emit({"header": header, "rows": rows}, args)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _budget(text: str) -> int:
    """--budget: a positive finite number of steps; 1e9 is accepted."""
    value = float(text)
    if not math.isfinite(value) or value < 1:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 1, got {text!r}")
    return int(value)


def _prime_power(text: str) -> int:
    """--q: the order of a finite field, a prime power >= 2."""
    q = int(text)
    try:
        ph = fields.prime_power(q)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if ph is None:
        raise argparse.ArgumentTypeError(f"must be a prime power >= 2, got {text!r}")
    return q


def _eps(text: str) -> float:
    """--eps: a precision, a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _jobs(text: str) -> int:
    """--jobs: a number of worker processes >= 1."""
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return jobs


def _terms(text: str) -> int:
    """--terms: a number of series terms, an integer >= 1."""
    terms = int(text)
    if terms < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return terms


def _add_shared(p: argparse.ArgumentParser, formats=("text", "json", "csv")) -> None:
    p.add_argument("--budget", type=_budget, default=None,
                   help=f"enumeration budget (default ${BUDGET_ENV_VAR}, else {DEFAULT_BUDGET})")
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmetric",
        description=(
            "Exact evaluation and brute-force verification of counting "
            "formulas for rank-metric codes, semifields and "
            "subspace-avoidance densities over small finite fields."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pf = sub.add_parser("formula", help="evaluate a registered formula")
    pf.add_argument("name")
    pf.add_argument("--q", type=_prime_power)
    pf.add_argument("--n", type=int)
    pf.add_argument("--m", type=int)
    pf.add_argument("--k", type=int)
    pf.add_argument("--d", type=int)
    pf.add_argument("--N", type=int, dest="N")
    pf.add_argument("--l", type=int, help="point-set size")
    pf.add_argument("--rho", type=int)
    pf.add_argument("--i", type=int)
    pf.add_argument("--j", type=int)
    pf.add_argument("--r", type=int)
    pf.add_argument("--s", type=int)
    pf.add_argument("--kind", choices=restricted.KINDS)
    pf.add_argument("--variant", choices=("validated", "printed"))
    pf.add_argument("--regime", choices=("q_large", "m_large"))
    pf.add_argument("--eps", type=_eps)
    pf.add_argument("--terms", type=_terms)
    _add_shared(pf)
    pf.add_argument("--precision", type=int, default=6,
                    help="significant digits for floats")
    pf.set_defaults(func=cmd_formula)

    pv = sub.add_parser("verify", help="run formula-vs-bruteforce suites")
    pv.add_argument("suite", help=f"one of {', '.join(SUITE_ORDER)} or 'all'")
    pv.add_argument("--jobs", type=_jobs, default=1,
                    help="worker processes for sweeps: a sweep still running "
                         "after 0.05 s in-process maps the rest on a Pool of "
                         "its own")
    _add_shared(pv)
    pv.set_defaults(func=cmd_verify)

    pt = sub.add_parser("table", help="emit a reference table as CSV")
    pt.add_argument("name")
    pt.add_argument("--q", type=_prime_power)
    pt.add_argument("--n", help="an integer or a range like 3..7")
    pt.add_argument("--kind", choices=restricted.KINDS)
    _add_shared(pt, formats=("csv",))
    pt.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except (ValueError, ZeroDivisionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
