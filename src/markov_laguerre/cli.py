"""Command-line front end: constants, bound reports, grid sweeps, verification.

Subcommands: constant, bounds, sweep, verify, bessel-zero, figure1.
Output is CSV (default) or JSON (--format json); floats are serialized with
17 significant digits so the decimal form round-trips binary64 exactly.
Every command prints through one emitter: ``_format_rows`` turns rows into
text, ``_emit`` frames the texts with the CSV header or the JSON brackets.
``sweep`` cuts its sorted (alpha, n) grid into contiguous chunks, eight per
job, and ``_sweep_chunk`` computes and formats one chunk; a process pool of
at most one worker per chunk runs them (``--jobs 1``, or a single row, maps
them in this process), and the parent prints the texts in grid order, so
the output does not depend on ``--jobs``.
Exit codes: 0 all checks pass, 1 numeric failure, 2 usage error (an empty
grid among them).  A reader that closes the pipe early ends the command
with exit code 1, quietly.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from fractions import Fraction

from . import bessel, bounds
from .eigen import build_jacobi, smallest_eigenvalue
from .recurrence import _scaled_rows, _split, coeff_a0, reciprocal_b123

SWEEP_COLUMNS = (
    "alpha",
    "n",
    "exact_c",
    "exact_c_sq",
    "linear_lower",
    "linear_upper",
    "quadratic_lower",
    "quadratic_upper",
    "cubic_lower",
    "cubic_upper",
    "refined_lower",
    "refined_upper",
    "refined_lower_valid",
    "dorfler_lower",
    "dorfler_upper",
    "ls_lower",
    "ls_upper",
    "turan",
    "asymptotic_ratio",
    "sandwich_violation",
)

@functools.lru_cache(maxsize=None)
def _asymptotic_cached(alpha: float, tol: float) -> float:
    return bessel.asymptotic_constant(alpha, tol)


def _cell(value) -> str:
    """One CSV cell that is not a float (``_format_rows`` formats those):
    true/false for a bool, empty for None.  No cell holds a comma, quote or
    newline, so none is quoted."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


_JSON_SEP = ",\n  "


def _format_rows(rows, columns, fmt) -> list[str]:
    """The text of each row: a CSV line, or the row's object in a JSON array
    at ``json.dump(..., indent=2)``'s depth.  Kept as one small string per
    row: joined into one string per sweep chunk, they left the process that
    runs the bench's ``sweep`` workload with a heap 9 MiB larger (peak RSS
    117 against 108 MiB on 2 vCPUs)."""
    if fmt == "json":
        return [json.dumps(dict(zip(columns, r)), indent=2).replace("\n", "\n  ") for r in rows]
    return [",".join(["%.17g" % v if v.__class__ is float else _cell(v) for v in r]) + "\n"
            for r in rows]


def _emit(chunks, columns, fmt) -> None:
    """Print the row texts of ``chunks``, lists from ``_format_rows``, in
    order and one write per row, framed by the CSV header or by the JSON
    array's brackets and separators.  The bytes are those of ``csv.writer``
    with the cells above, or of ``json.dump(rows, indent=2)`` and a
    newline.  There is at least one row: every command refuses an empty
    grid."""
    texts = itertools.chain.from_iterable(chunks)
    write = sys.stdout.write
    if fmt != "json":
        write(",".join(columns) + "\n")
        sys.stdout.writelines(texts)
        return
    write("[\n  " + next(texts))
    for text in texts:
        write(_JSON_SEP + text)
    write("\n]\n")


def _print_rows(rows, columns, fmt) -> None:
    _emit([_format_rows(rows, columns, fmt)], columns, fmt)


def _sandwich_violations(rep) -> list[str]:
    """The finite-n claims a bounds report breaks: the strict two-sided
    estimate where it applies (n >= 3 and n > (alpha+1)/6) and the classical
    enclosure.  Behind the CSV's sandwich_violation and the sandwich suite."""
    out = []
    c_sq, refined, dorfler = rep.exact_c_sq, rep.refined, rep.dorfler
    if rep.n >= 3 and refined.lower_valid and not refined.lower < c_sq < refined.upper:
        out.append("two-sided estimate violated")
    if not dorfler.lower <= c_sq <= dorfler.upper:
        out.append("classical enclosure violated")
    return out


def sweep_row(alpha: float, n: int, tol: float) -> tuple:
    """One flattened bounds row; pure function of its arguments."""
    rep = bounds.bounds_report(alpha, n, tol)
    exact_c = math.sqrt(rep.exact_c_sq)
    ratio = None
    if alpha <= bessel._ALPHA_MAX:
        ratio = exact_c / (n * _asymptotic_cached(alpha, tol))
    return (
        rep.alpha,
        rep.n,
        exact_c,
        rep.exact_c_sq,
        rep.linear.lower,
        rep.linear.upper,
        rep.quadratic.lower,
        rep.quadratic.upper,
        rep.cubic.lower,
        rep.cubic.upper,
        rep.refined.lower,
        rep.refined.upper,
        rep.refined.lower_valid,
        rep.dorfler.lower,
        rep.dorfler.upper,
        rep.laguerre_samuelson.lower,
        rep.laguerre_samuelson.upper,
        rep.turan,
        ratio,
        bool(_sandwich_violations(rep)),
    )


def cmd_constant(args) -> int:
    res = smallest_eigenvalue(build_jacobi(args.alpha, args.n), args.tol)
    c_sq = 1.0 / res.value
    row = (
        args.alpha,
        args.n,
        math.sqrt(c_sq),
        c_sq,
        1.0 / res.bracket[1],
        1.0 / res.bracket[0] if res.bracket[0] > 0 else None,
        res.iterations,
        res.tol,
    )
    columns = ("alpha", "n", "c", "c_sq", "c_sq_lower", "c_sq_upper", "iterations", "tol")
    _print_rows([row], columns, args.format)
    return 0


def cmd_bounds(args) -> int:
    row = sweep_row(args.alpha, args.n, args.tol)
    _print_rows([row], SWEEP_COLUMNS, args.format)
    return 0


def _parse_n_list(text: str) -> list[int]:
    """Comma-separated n values; 'a..b' spans an inclusive integer range."""
    out: list[int] = []
    for piece in filter(None, (p.strip() for p in text.split(","))):
        if ".." in piece:
            lo, hi = piece.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(piece))
    return out


def _grid(lo: float, hi: float, step: float) -> list[float]:
    """lo + k*step for k = 0, 1, ... while it stays within hi (+1e-9 steps);
    ValueError where that is no point at all (hi below lo)."""
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"grid bounds and step must be finite, got {lo}, {hi}, {step}")
    if step <= 0:
        raise ValueError(f"grid step must be > 0, got {step}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    if count < 1:
        raise ValueError(f"the grid from {lo} to {hi} is empty")
    return [lo + k * step for k in range(count)]


def _sweep_chunk(tasks, fmt) -> list[str]:
    """Row texts of one contiguous chunk of the sweep grid; the unit of work
    of the process pool.  ``sweep_row`` is looked up as a module global at
    each call."""
    return _format_rows([sweep_row(*t) for t in tasks], SWEEP_COLUMNS, fmt)


# Eight chunks per job let the pool balance rows of unequal cost: one chunk
# per job made a deep grid (one alpha, n = 3..2000) 30% slower on two
# workers.  Chunks have no minimum size, since a row costs from 60 us
# (n <= 10) to tens of ms (n = 20000).
_CHUNKS_PER_JOB = 8


def _chunks(tasks: list, jobs: int) -> list[list]:
    """``tasks`` cut into at most ``_CHUNKS_PER_JOB * jobs`` contiguous
    chunks of equal size, the last one shorter, in order."""
    size = -(-len(tasks) // (_CHUNKS_PER_JOB * jobs))
    return [tasks[i:i + size] for i in range(0, len(tasks), size)]


def cmd_sweep(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.alpha is not None:
        alphas = [args.alpha]
    else:
        alphas = _grid(args.alpha_min, args.alpha_max, args.alpha_step)
    ns = _parse_n_list(args.n_list)
    if not ns:
        raise ValueError("sweep needs at least one alpha and one n")
    tasks = [(a, n, args.tol) for a in sorted(alphas) for n in sorted(ns)]
    jobs = args.jobs or os.cpu_count() or 1
    chunks = _chunks(tasks, jobs)
    workers = min(jobs, len(chunks))
    formats = itertools.repeat(args.format)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only sweeps pay its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            texts = list(pool.map(_sweep_chunk, chunks, formats))
    else:
        texts = list(map(_sweep_chunk, chunks, formats))
    _emit(texts, SWEEP_COLUMNS, args.format)
    return 0


def cmd_bessel_zero(args) -> int:
    zero = bessel.first_zero(args.nu, args.tol)
    lo, hi = bounds.bessel_zero_enclosure(args.nu)
    row = (args.nu, zero, 1.0 / zero, lo, hi)
    columns = ("nu", "first_zero", "inverse", "enclosure_lower", "enclosure_upper")
    _print_rows([row], columns, args.format)
    return 0


def cmd_figure1(args) -> int:
    rows = []
    flagged = 0
    increasing = True
    prev = None
    for a in _grid(args.alpha_min, args.alpha_max, args.alpha_step):
        r = bounds.ratio_r(a)
        rows.append((a, r))
        if r >= 2.0 and a < 500.0:
            flagged += 1
        if prev is not None and a >= 0 and r < prev:
            increasing = False
        if a >= 0:
            prev = r
    _print_rows(rows, ("alpha", "r"), args.format)
    print(
        f"# samples={len(rows)} flagged_r_ge_2={flagged} "
        f"monotone_increasing_for_alpha_ge_0={str(increasing).lower()}",
        file=sys.stderr,
    )
    return 1 if flagged else 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

VERIFY_ALPHAS = (
    Fraction(-1, 2),
    Fraction(-1, 4),
    Fraction(0),
    Fraction(1, 3),
    Fraction(1),
    Fraction(5, 2),
    Fraction(10),
)

_GRID_ALPHAS_EXACT = tuple(
    Fraction(a) for a in ("-9/10", "-1/2", "0", "1/2", "1", "2", "5", "10", "25")
)
GRID_ALPHAS = tuple(float(a) for a in _GRID_ALPHAS_EXACT)
GRID_N = range(3, 101)


def grid_pairs(alphas=GRID_ALPHAS):
    """The standard sweep grid: n in 3..100 by alpha, where the two-sided
    estimate applies (n > (alpha+1)/6)."""
    return [(a, n) for a in alphas for n in GRID_N if n > (a + 1) / 6]


def verify_coeffs() -> list[str]:
    """Exact match of the four closed-form coefficients against the
    recurrence triangle, n <= 60, plus monicity and the a0 step relation.

    Row n of the triangle is R_n / S_n, integers over the scale
    S_n = d^n n! for alpha = p/d, so each check is cross-multiplied on
    integers; a failure prints both sides as Fractions."""
    failures = []
    for a in VERIFY_ALPHAS:
        p, d = _split(a)
        prev_a0 = None
        for n, (row, scale) in enumerate(_scaled_rows(p, d, 60)):
            a0 = coeff_a0(a, n)
            b1, b2, b3 = reciprocal_b123(a, n)
            # row[k] / scale == (-1)^k b_k a0, with b_0 = 1
            for k, b in enumerate((1, b1, b2, b3)[:n + 1]):
                got = row[k] * b.denominator * a0.denominator
                if got != (-1) ** k * b.numerator * a0.numerator * scale:
                    want = (a0, -b1 * a0, b2 * a0, -b3 * a0)[k]
                    failures.append(f"alpha={a} n={n} k={k}: {Fraction(row[k], scale)} != {want}")
            if row[-1] != scale:
                failures.append(f"alpha={a} n={n}: not monic")
            # a0(n) = -(1 + a/n) a0(n-1), and S_n = dn S_{n-1}
            if prev_a0 is not None and row[0] != -(d * n + p) * prev_a0:
                failures.append(f"alpha={a} n={n}: a0 step relation broken")
            prev_a0 = row[0]
    return failures


def verify_sandwich() -> list[str]:
    failures = []
    dominance_exceptions = []
    for a, n in grid_pairs():
        rep = bounds.bounds_report(a, n)
        failures += [f"alpha={a} n={n}: {v}" for v in _sandwich_violations(rep)]
        if not rep.refined.lower >= rep.dorfler.lower:
            dominance_exceptions.append((a, n))
    if dominance_exceptions:
        # Expected exactly where q_alpha(n) < 0, the quadratic in n on
        # bounds.refined_bounds: near alpha = -1 at small n, and in a thin
        # window just above n = (alpha+1)/6 at large alpha.
        print(
            f"note: new lower bound below the classical one at "
            f"{len(dominance_exceptions)} points where q_alpha(n) < 0 "
            f"(first {dominance_exceptions[0]}); both remain valid "
            "lower bounds"
        )
    return failures


def verify_asymptotic() -> list[str]:
    failures = []
    for a in (0.0, 1.0, 2.0, 5.0):
        c_inf = bessel.asymptotic_constant(a)
        ratios = {}
        for n in (512, 4096):
            c_n = 1.0 / math.sqrt(smallest_eigenvalue(build_jacobi(a, n), 1e-13).value)
            ratios[n] = c_n / (n * c_inf)
        if not 0.99 <= ratios[4096] <= 1.01:
            failures.append(f"alpha={a}: ratio at n=4096 is {ratios[4096]}")
        if not abs(ratios[4096] - 1) < abs(ratios[512] - 1):
            failures.append(f"alpha={a}: no monotone approach {ratios}")
    return failures


def verify_bessel() -> list[str]:
    failures = []
    for nu in _grid(-0.75, 25.0, 0.25) + _grid(27.5, 250.0, 2.5):
        lo, hi = bounds.bessel_zero_enclosure(nu)
        z = bessel.first_zero(nu)
        if not lo < z < hi:
            failures.append(f"nu={nu}: zero {z} outside ({lo}, {hi})")
    for nu, want in ((0.5, math.pi), (-0.5, math.pi / 2)):
        if abs(bessel.first_zero(nu) - want) > 1e-12:
            failures.append(f"nu={nu}: half-integer zero off")
    return failures


def verify_identities() -> list[str]:
    failures = []
    for a in _grid(-0.99, 500.0, 0.1):
        idr = bounds.identity_residuals(a)
        if not all(k > 0 for k in idr.lower_gap):
            failures.append(f"alpha={a}: lower-gap coefficient not positive")
        if not all(t > 0 for t in idr.upper_gap_collapsed):
            failures.append(f"alpha={a}: collapsed upper-gap coefficient not positive")
    for a in _GRID_ALPHAS_EXACT:
        lp = bounds.lower_residual_poly(a)
        up = bounds.upper_residual_poly(a)
        idr = bounds.identity_residuals(a)
        if lp[0] != 0 or lp[6] != 0 or lp[1:6] != idr.lower_gap:
            failures.append(f"alpha={a}: lower residual coefficients mismatch")
        if up[6] != 0 or up[:6] != idr.upper_gap:
            failures.append(f"alpha={a}: upper residual coefficients mismatch")
    for a, n in grid_pairs(_GRID_ALPHAS_EXACT):
        lr, ur = bounds.residual_sandwich_check(a, n)
        if lr < 0 or ur < 0:
            failures.append(f"alpha={a} n={n}: residual negative")
    print(
        "note: printed residual coefficient lists match the lower bound "
        "normalized by (alpha+1)(alpha+5); the alternative (alpha+3)(alpha+5) "
        "normalization leaves a degree-6 residual and matches nothing"
    )
    return failures


VERIFY_MODES = {
    "coeffs": ("coefficient closed forms vs recurrence (exact, n<=60)", verify_coeffs),
    "sandwich": ("finite-n sandwich on the standard grid", verify_sandwich),
    "asymptotic": ("c_n/n approaches the inverse first Bessel zero", verify_asymptotic),
    "bessel": ("first-zero enclosure on the nu grid", verify_bessel),
    "identities": ("residual positivity and exact coefficient identities", verify_identities),
}


def cmd_verify(args) -> int:
    name, suite = VERIFY_MODES[args.mode]
    failures = suite()
    if failures:
        print(f"FAIL {name}: {len(failures)} violation(s)")
        for f in failures[:10]:
            print(f"  {f}")
        if len(failures) > 10:
            print(f"  ... and {len(failures) - 10} more")
        return 1
    print(f"PASS {name}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sub, alpha=False, n=False, tol=True):
    if tol:
        sub.add_argument("--tol", type=float, default=1e-13,
                         help="relative width of the solver's bracket, whose ends the "
                         "sign count places but does not prove")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    if alpha:
        sub.add_argument("--alpha", type=float, required=True, help="weight exponent, > -1")
    if n:
        sub.add_argument("--n", type=int, required=True, help="polynomial degree, >= 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markov-laguerre",
        description="Sharp constant and certified bounds for the Laguerre-weight "
        "L2 inequality between a polynomial and its derivative.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constant", help="exact c_n(alpha) with the bracket the sign count places")
    _add_common(p, alpha=True, n=True)
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("bounds", help="full bounds report at one (alpha, n)")
    _add_common(p, alpha=True, n=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="bounds report over an (alpha, n) grid")
    _add_common(p)
    p.add_argument("--alpha", type=float, help="single alpha instead of a range")
    p.add_argument("--alpha-min", type=float, default=0.0)
    p.add_argument("--alpha-max", type=float, default=10.0)
    p.add_argument("--alpha-step", type=float, default=1.0)
    p.add_argument("--n-list", required=True, help="e.g. '1,2,5' or '3..100'")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes, >= 1 (default: one per core)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("--mode", choices=sorted(VERIFY_MODES), required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bessel-zero", help="first positive zero of J_nu")
    _add_common(p)
    p.add_argument("--nu", type=float, required=True, help="order, -1 < nu <= 1000")
    p.set_defaults(func=cmd_bessel_zero)

    p = sub.add_parser("figure1", help="ratio of asymptotic-constant bounds vs alpha")
    _add_common(p, tol=False)
    p.add_argument("--alpha-min", type=float, default=-0.99)
    p.add_argument("--alpha-max", type=float, default=500.0)
    p.add_argument("--alpha-step", type=float, default=0.1)
    p.set_defaults(func=cmd_figure1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left (``... | head``).  Point stdout at devnull so that
        # the flush at exit does not raise again, as the Python docs advise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
