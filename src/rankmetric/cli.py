"""Command-line front end: evaluate formulas, run verification suites,
and emit the package's reference tables.

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
from .errors import BudgetExceededError, default_budget


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

def _need(args, *names):
    vals = []
    for name in names:
        v = getattr(args, name.replace("-", "_"), None)
        if v is None:
            raise SystemExit2(f"formula requires --{name}")
        vals.append(v)
    return vals


class SystemExit2(Exception):
    """Usage errors that should exit with status 2."""


def _f_qbinom(a):
    i, j, q = _need(a, "i", "j", "q")
    return qcomb.qbinom(i, j, q)


def _f_gl_order(a):
    n, q = _need(a, "n", "q")
    return qcomb.gl_order(n, q)


def _f_ball_size(a):
    n, m, r, q = _need(a, "n", "m", "r", "q")
    return qcomb.ball_size(n, m, r, q)


def _f_pointset_size(a):
    n, m, r, q = _need(a, "n", "m", "r", "q")
    return qcomb.pointset_size(n, m, r, q)


def _f_pi_q(a):
    (q,) = _need(a, "q")
    if a.n is not None:
        return qcomb.pi_q(q, a.n)
    value, bound = qcomb.pi_q_limit(q, a.eps)
    return {"value": value, "certified_bound": bound}


def _f_alt_exp_sum(a):
    (m,) = _need(a, "m")
    return qcomb.alt_exp_sum(m, budget=a.budget)


def _f_ine_margin(a):
    (q,) = _need(a, "q")
    cert = qcomb.comparison_inequality_check(q, a.terms, budget=a.budget)
    return {
        "holds": cert.holds,
        "margin_lower": f"{cert.margin_lower.numerator}/{cert.margin_lower.denominator}",
        "margin_estimate": cert.margin_estimate,
        "terms": cert.terms,
    }


def _f_density3x3(a):
    (q,) = _need(a, "q")
    return codes.density_3x3_formula(q)


def _f_mrd_lower(a):
    n, q = _need(a, "n", "q")
    count, density = codes.mrd_lowerbound_formula(n, q)
    return {
        "count": str(count),
        "density": f"{density.numerator}/{density.denominator}",
        "density_float": float(density),
    }


def _f_kantor_lower(a):
    (n,) = _need(a, "n")
    return codes.kantor_lowerbound(n)


def _f_class_count(a):
    n, q = _need(a, "n", "q")
    return semifield.class_count_formula(n, q)


def _f_spectrum_free(a):
    m, q = _need(a, "m", "q")
    return codes.spectrum_free_count(m, q, budget=a.budget)


def _f_avg(a):
    N, k, ell, q = _need(a, "N", "k", "l", "q")
    return critical.avg_density_formula(N, k, ell, q)


def _f_avg_rank(a):
    N, k, ell, rho, q = _need(a, "N", "k", "l", "rho", "q")
    return critical.avg_density_rank_formula(N, k, ell, rho, q)


def _f_lambda(a):
    N, s, ell, rho, q = _need(a, "N", "s", "l", "rho", "q")
    return critical.lambda_count(N, s, ell, rho, q)


def _f_hyp_collinear(a):
    N, i, q = _need(a, "N", "i", "q")
    return critical.hyperplane_density_collinear(N, i, q)


def _f_hyp_independent(a):
    N, i, q = _need(a, "N", "i", "q")
    return critical.hyperplane_density_independent(N, i, q)


def _f_mds_arc(a):
    N, ell, q = _need(a, "N", "l", "q")
    return critical.mds_arc_density(N, ell, q)


def _f_arc_plus_point(a):
    N, ell, q = _need(a, "N", "l", "q")
    return critical.arc_plus_point_density(N, ell, q)


def _f_arc_plus_point_gap(a):
    N, ell, q = _need(a, "N", "l", "q")
    return critical.arc_plus_point_gap(N, ell, q)


def _f_density_2dim(a):
    n, q = _need(a, "n", "q")
    return restricted.density_2dim_formula(n, q, budget=a.budget)


def _f_tensor_ratio(a):
    r, n, q = _need(a, "r", "n", "q")
    return restricted.tensor_ratio(r, n, q)


def _f_rank_count(a):
    kind, n, i, q = _need(a, "kind", "n", "i", "q")
    return restricted.rank_count(kind, n, i, q, variant=a.variant)


def _f_dim_bound(a):
    kind, n, d = _need(a, "kind", "n", "d")
    return restricted.dim_bound(kind, n, d)


def _f_ball_exponent(a):
    kind, n, r = _need(a, "kind", "n", "r")
    return restricted.ball_asymptotic_exponent(kind, n, r, m=a.m)


def _f_sparseness_exponent(a):
    kind, n, k, d = _need(a, "kind", "n", "k", "d")
    est, limit = restricted.sparseness_exponent(kind, n, k, d, variant=a.variant)
    return {"exponent": est.exponent, "limit": "boundary" if limit is None else limit}


def _f_mrd_asymptotics(a):
    n, d = _need(a, "n", "d")
    out = codes.asymptotic_constants(n, d, q=a.q, eps=a.eps)
    flat = {}
    for key, val in out.items():
        flat[key] = str(val) if isinstance(val, qcomb.AsymptoticEstimate) else val
    return flat


def _f_avg_limit(a):
    regime = a.regime or "q_large"
    if a.d is not None:
        n, d, q = _need(a, "n", "d", "q")
        return critical.ball_avg_limit(n, d, q, regime)
    if regime == "m_large":
        raise SystemExit2("avg-limit --regime m_large needs --d (no option passes k', l', m)")
    N, k, s, q = _need(a, "N", "k", "s", "q")
    return critical.avg_density_limit_qlarge(N, k, s, q)


FORMULAS = {
    "qbinom": _f_qbinom,
    "gl-order": _f_gl_order,
    "ball-size": _f_ball_size,
    "pointset-size": _f_pointset_size,
    "pi-q": _f_pi_q,
    "alt-exp-sum": _f_alt_exp_sum,
    "ine-margin": _f_ine_margin,
    "density3x3": _f_density3x3,
    "mrd-lower": _f_mrd_lower,
    "kantor-lower": _f_kantor_lower,
    "class-count": _f_class_count,
    "spectrum-free": _f_spectrum_free,
    "avg": _f_avg,
    "avg-rank": _f_avg_rank,
    "avg-limit": _f_avg_limit,
    "lambda": _f_lambda,
    "hyperplane-collinear": _f_hyp_collinear,
    "hyperplane-independent": _f_hyp_independent,
    "mds-arc": _f_mds_arc,
    "arc-plus-point": _f_arc_plus_point,
    "arc-plus-point-gap": _f_arc_plus_point_gap,
    "density-2dim": _f_density_2dim,
    "tensor-ratio": _f_tensor_ratio,
    "rank-count": _f_rank_count,
    "dim-bound": _f_dim_bound,
    "ball-exponent": _f_ball_exponent,
    "sparseness-exponent": _f_sparseness_exponent,
    "mrd-asymptotics": _f_mrd_asymptotics,
}


def cmd_formula(args) -> int:
    if args.name not in FORMULAS:
        sys.stderr.write(
            f"unknown formula {args.name!r}; known: {', '.join(sorted(FORMULAS))}\n"
        )
        return 2
    params = {
        k: v
        for k, v in vars(args).items()
        if k
        not in ("name", "func", "format", "out", "budget", "jobs", "precision")
        and v is not None
    }
    value = FORMULAS[args.name](args)
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
    if ".." in spec:
        lo, hi = spec.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(spec)]


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
    n = int(args.n) if args.n else 2
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
    if args.format != "csv":
        raise SystemExit2(f"table emits csv only, not --format {args.format}")
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


def _add_common(p: argparse.ArgumentParser, n_takes_range: bool = False) -> None:
    p.add_argument("--q", type=_prime_power)
    if n_takes_range:
        p.add_argument("--n", help="an integer or a range like 3..7")
    else:
        p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--N", type=int, dest="N")
    p.add_argument("--l", type=int, help="point-set size")
    p.add_argument("--rho", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--kind", choices=restricted.KINDS)
    p.add_argument("--variant", choices=("validated", "printed"), default="validated")
    p.add_argument("--regime", choices=("q_large", "m_large"))
    p.add_argument("--eps", type=_eps, default=1e-9)
    p.add_argument("--terms", type=_terms, default=40)
    p.add_argument("--budget", type=_budget, default=None,
                   help=f"enumeration budget (default {default_budget()})")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="worker processes for sweeps: one Pool per command, "
                        "started by the first sweep with more than one task")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--precision", type=int, default=6,
                   help="significant digits for floats")


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
    _add_common(pf)
    pf.set_defaults(func=cmd_formula)

    pv = sub.add_parser("verify", help="run formula-vs-bruteforce suites")
    pv.add_argument("suite", help=f"one of {', '.join(SUITE_ORDER)} or 'all'")
    _add_common(pv)
    pv.set_defaults(func=cmd_verify)

    pt = sub.add_parser("table", help="emit a reference table as CSV")
    pt.add_argument("name")
    _add_common(pt, n_takes_range=True)
    pt.set_defaults(func=cmd_table, format="csv")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the sweeps of one command share at most one worker Pool
        with codes._pool_scope():
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
