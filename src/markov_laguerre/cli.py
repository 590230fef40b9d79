"""Command-line front end: constants, bound reports, grid sweeps, verification.

Subcommands: constant, bounds, sweep, verify, bessel-zero, figure1.
Output is CSV (default) or JSON (--format json); floats are serialized with
17 significant digits so the decimal form round-trips binary64 exactly.
Every command prints through one emitter: ``_format_rows`` turns rows into
text, ``_emit`` frames the texts with the CSV header or the JSON brackets.
``main`` builds the parser of the invoked subcommand alone, and the full
parser only for help, a missing or an unknown command.
``sweep`` cuts its sorted (alpha, n) grid into contiguous chunks, eight per
job, and ``_sweep_chunk`` computes and formats one chunk; a process pool of
at most one worker per chunk, and per CPU the process may run on, runs
them, and the parent prints the texts in grid order, so the output does
not depend on ``--jobs``.  ``--jobs 1``, or
a single row, computes the whole grid as one chunk in this process.  Each
run of rows that share alpha is one ``_grid_rows`` group: one call of the
bounds engine ``bounds._rows`` (alpha validated, the factor built once,
one c(alpha) for c_n/(n c(alpha))).  Its rows are ``bounds.BoundsReport``
records, whose fields are the sweep's columns.  Of the ``verify`` suites,
``coeffs`` and ``identities`` prove the closed forms and the sandwich
residuals for every alpha and n; the others judge the printed rows, read by
field name: sweep and ``bessel-zero`` rows.
Exit codes: 0 all checks pass, 1 numeric failure, 2 usage error (an empty
grid among them).  A reader that closes the pipe early ends the command
with exit code 1, quietly.
"""

from __future__ import annotations

import argparse
import itertools
import math
import operator
import os
import sys
from fractions import Fraction

from . import bessel, bounds
from .eigen import build_jacobi, smallest_eigenvalue
from .recurrence import _a0_parts, _b123_parts, _next_row, _scaled_rows, _split, coeff_a0

SWEEP_COLUMNS = bounds.BoundsReport._fields


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
        import json  # only JSON output pays its import

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


def _grid_rows(pairs, tol: float):
    """The sweep rows of the sorted (alpha, n) ``pairs``, in order: each run
    of pairs that share alpha is one ``bounds._rows`` group."""
    for alpha, group in itertools.groupby(pairs, lambda p: p[0]):
        yield from bounds._rows(alpha, [n for _, n in group], tol)


def sweep_row(alpha: float, n: int, tol: float) -> bounds.BoundsReport:
    """One bounds row; pure function of its arguments."""
    return bounds.bounds_report(alpha, n, tol)


def cmd_constant(args) -> int:
    res = smallest_eigenvalue(build_jacobi(args.alpha, args.n), args.tol)
    c_sq = 1.0 / res.value
    row = (
        args.alpha,
        args.n,
        math.sqrt(c_sq),
        c_sq,
        1.0 / res.bracket[1],
        1.0 / res.bracket[0],
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
    """Comma-separated n values; 'a..b' spans an inclusive integer range,
    and ValueError where it holds no n (b below a)."""
    out: list[int] = []
    for piece in filter(None, (p.strip() for p in text.split(","))):
        if ".." in piece:
            lo, hi = piece.split("..", 1)
            span = range(int(lo), int(hi) + 1)
            if not span:
                raise ValueError(f"the n range {piece} is empty")
            out.extend(span)
        else:
            out.append(int(piece))
    return out


def _grid(lo: float, hi: float, step: float) -> list[float]:
    """lo + k*step for k = 0, 1, ... while it stays within hi (+1e-9 steps);
    ValueError where that is no point at all (hi below lo), or where the
    span hi - lo or the point count overflows binary64."""
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"grid bounds and step must be finite, got {lo}, {hi}, {step}")
    if step <= 0:
        raise ValueError(f"grid step must be > 0, got {step}")
    steps = (hi - lo) / step + 1e-9
    if steps < 0:
        raise ValueError(f"the grid from {lo} to {hi} is empty")
    if hi - lo == math.inf:
        raise ValueError(f"the span from {lo} to {hi} overflows binary64")
    if steps == math.inf:
        raise ValueError(f"the point count of the grid from {lo} to {hi} by {step} "
                         "overflows binary64")
    return [lo + k * step for k in range(int(steps) + 1)]


def _sweep_chunk(pairs, tol, fmt) -> list[str]:
    """Row texts of one contiguous chunk of the sweep grid, (alpha, n)
    pairs; the unit of work of the process pool.  A chunk may begin or end
    inside an alpha, whose rows then form one group in each chunk."""
    return _format_rows(_grid_rows(pairs, tol), SWEEP_COLUMNS, fmt)


# Eight chunks per job let the pool balance rows of unequal cost: one chunk
# per job made a deep grid (one alpha, n = 3..2000) 30% slower on two
# workers.  Chunks have no minimum size, since a row costs from 45 us
# (n <= 10, in its alpha's group; Python 3.11, 2 vCPUs) to tens of ms
# (n = 20000).
_CHUNKS_PER_JOB = 8


def _chunks(tasks: list, jobs: int) -> list[list]:
    """``tasks`` cut into at most ``_CHUNKS_PER_JOB * jobs`` contiguous
    chunks of equal size, the last one shorter, in order."""
    size = -(-len(tasks) // (_CHUNKS_PER_JOB * jobs))
    return [tasks[i:i + size] for i in range(0, len(tasks), size)]


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    tasks = [(a, n) for a in sorted(alphas) for n in sorted(ns)]
    cpus = _cpus()
    jobs = min(args.jobs or cpus, cpus)
    chunks = _chunks(tasks, jobs)
    workers = min(jobs, len(chunks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only sweeps pay its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            texts = list(pool.map(_sweep_chunk, chunks, itertools.repeat(args.tol),
                                  itertools.repeat(args.format)))
    else:
        texts = [_sweep_chunk(tasks, args.tol, args.format)]
    _emit(texts, SWEEP_COLUMNS, args.format)
    return 0


def _bessel_row(nu: float, tol: float) -> tuple:
    """The ``bessel-zero`` row at nu: J_nu's first zero, its inverse, its enclosure."""
    zero = bessel.first_zero(nu, tol)
    lo, hi = bounds.bessel_zero_enclosure(nu)
    return (nu, zero, 1.0 / zero, lo, hi)


def cmd_bessel_zero(args) -> int:
    columns = ("nu", "first_zero", "inverse", "enclosure_lower", "enclosure_upper")
    _print_rows([_bessel_row(args.nu, args.tol)], columns, args.format)
    return 0


def cmd_figure1(args) -> int:
    rows = [(a, bounds.ratio_r(a)) for a in _grid(args.alpha_min, args.alpha_max, args.alpha_step)]
    flagged = sum(r >= 2.0 and a < 500.0 for a, r in rows)
    tail = [r for a, r in rows if a >= 0]
    increasing = not any(r < prev for prev, r in zip(tail, tail[1:]))
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

# The grid of the induction in ``verify_coeffs``: m = 1..12 by 12 alphas
# with denominators from 1 to 10, so that (p, d) homogeneity is exercised.
_INDUCTION_M = range(1, 13)
_INDUCTION_ALPHAS = tuple(
    Fraction(a) for a in ("-9/10", "-2/3", "-1/3", "1/7", "2/5", "3/4", "3/2", "7/3", "4",
                          "13/2", "12", "50")
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


def _closed_rows(p: int, d: int, m_max: int):
    """(D, rows): entries 0..3 of the rows of Q_0 .. Q_m_max at alpha = p/d
    by the closed forms, as integers over D S_m, S_m the scales of
    ``_scaled_rows``: entry k is (-1)^k num_k (D / den_k) N0(m), where
    b_k = num_k / den_k (``_b123_parts``, b_0 = 1), D is the lcm of the
    denominators, which are free of m, and N0 the numerator of ``_a0_parts``."""
    parts = [((1, 1),) + _b123_parts(p, d, m) for m in range(m_max + 1)]
    a0 = [_a0_parts(p, d, m)[0] for m in range(m_max + 1)]
    lcm = math.lcm(*(den for _, den in parts[0]))
    factors = [(-1) ** k * (lcm // den) for k, (_, den) in enumerate(parts[0])]
    return lcm, [[f * num * n0 for f, (num, _) in zip(factors, part)]
                 for part, n0 in zip(parts, a0)]


def verify_coeffs() -> list[str]:
    """Proves, for every alpha > -1 and n >= 0, that the closed forms of
    a0 (``coeff_a0`` over ``_a0_parts``) and of b1..b3 (``_b123_parts``,
    behind ``reciprocal_b123``) are those of Q_n, by induction on n
    through the triangle's own step, in exact integer arithmetic.

    The base cases are rows 0 and 1 of ``_scaled_rows`` times D against
    ``_closed_rows``, where a0 also meets ``coeff_a0``.  The step is
    ``_next_row``, whose entry k reads entries k-1 and k of row m and k of
    row m-1, so rows cut after entry 3 step exactly.  Divided by N0(m-1),
    nonzero for alpha > -1, entry k of the closed row m+1 and of the step
    from the closed rows m and m-1 are polynomials of degree <= 2k+2
    (<= 8) in m and <= 7 in alpha, by the forms of ``_b123_parts``,
    ``_a0_parts`` and ``_next_row``.  So they agree for every m >= 1 and
    alpha if they agree on 9 values of m by 8 alphas; m = 1..12 by the 12
    ``_INDUCTION_ALPHAS`` are checked.  A failure names row n and entry k
    and prints a[k, n] of the triangle and of the closed form as Fractions."""
    failures = []
    for a in _INDUCTION_ALPHAS:
        p, d = _split(a)
        lcm, closed = _closed_rows(p, d, _INDUCTION_M[-1] + 1)
        triangle = []
        for n, (row, scale) in enumerate(_scaled_rows(p, d, 1)):
            triangle.append([lcm * c for c in row] + [0] * (4 - len(row)))
            a0 = coeff_a0(a, n)
            if a0.numerator * scale != row[0] * a0.denominator:
                failures.append(f"alpha={a} n={n}: coeff_a0 = {a0} != {Fraction(row[0], scale)}")
        triangle += [_next_row(p, d, m, closed[m], closed[m - 1]) for m in _INDUCTION_M]
        for n, (got, want) in enumerate(zip(triangle, closed)):
            if got[:4] != want:
                scale = lcm * d**n * math.factorial(n)
                failures += [f"alpha={a} n={n} k={k}: {Fraction(x, scale)} != {Fraction(y, scale)}"
                             for k, (x, y) in enumerate(zip(got, want)) if x != y]
    return failures


def verify_sandwich() -> list[str]:
    failures = []
    dominance_exceptions = []
    for row in _grid_rows(grid_pairs(), 1e-13):
        a, n = row.alpha, row.n
        refined = (row.refined_lower, row.refined_upper, row.refined_lower_valid)
        failures += [f"alpha={a} n={n}: {v}" for v in bounds._sandwich_violations(
            n, row.exact_c_sq, refined, (row.dorfler_lower, row.dorfler_upper))]
        if not row.refined_lower >= row.dorfler_lower:
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
        ratios = {r.n: r.asymptotic_ratio for r in bounds._rows(a, (512, 4096), 1e-13)}
        if not 0.99 <= ratios[4096] <= 1.01:
            failures.append(f"alpha={a}: ratio at n=4096 is {ratios[4096]}")
        if not abs(ratios[4096] - 1) < abs(ratios[512] - 1):
            failures.append(f"alpha={a}: no monotone approach {ratios}")
    return failures


def verify_bessel() -> list[str]:
    """The zero inside its enclosure on the nu grid, and the half orders,
    whose zeros pi and pi/2 it reads from the grid's own rows."""
    failures = []
    zeros = {}
    for nu in _grid(-0.75, 25.0, 0.25) + _grid(27.5, 250.0, 2.5):
        _, z, _, lo, hi = _bessel_row(nu, 1e-13)
        if nu in (0.5, -0.5):
            zeros[nu] = z
        if not lo < z < hi:
            failures.append(f"nu={nu}: zero {z} outside ({lo}, {hi})")
    for nu, want in ((0.5, math.pi), (-0.5, math.pi / 2)):
        if abs(zeros[nu] - want) > 1e-12:
            failures.append(f"nu={nu}: half-integer zero off")
    return failures


def verify_identities() -> list[str]:
    """Proves the residuals of ``bounds.residual_sandwich_check`` positive
    for every alpha > -1, exactly, in three links; the fourth, the closed
    forms of b1..b3 they are built on, is ``verify_coeffs``.

    (ii) Times (a+1)^3 (a+2)(a+3)(a+4)(a+5) and (a+1)^2 (a+2)...(a+5),
    the residuals of ``bounds._residual_parts`` are the polynomials in n
    that ``bounds._lower_gap_parts`` and ``_upper_gap_parts`` list, with
    no n^0 term in the lower one: both sides, integer numerators over
    denominators, are compared cross-multiplied by value at n = 0..6.
    Both have degree <= 6 in n, and by the forms of ``_b123_parts`` and of
    the refined bounds' parts, degree <= 5 in alpha, over alpha + 1 for
    the upper residual.  So they agree for every n and alpha if they agree
    at n = 0..6 by the 9 alphas of ``_GRID_ALPHAS_EXACT`` (6 would do).

    (iii) Each of the five lower-gap coefficients, of degree <= 5, is fixed
    by its values at t = alpha + 1 = 0..8 and proved positive on
    alpha > -1, with no grid, by a Pólya certificate
    (``bounds._positive_above_minus_one``): the lower residual is positive
    for every n >= 1.

    (iv) At n = m + 2 the upper gap, with coefficients g[i] in n, has the
    six coefficients

        h[j] = sum_{i >= j} g[i] C(i, j) 2^(i-j)

    in m, of degree <= 4 in alpha; each is formed so at each t and proved
    positive the same way: the upper residual is positive for every n >= 2.

    With the power-sum chain p3/p2 <= c_n^2 < p3^(1/3) (n >= 2), it follows
    that refined_lower < c_n^2 < refined_upper for every alpha > -1 and
    n >= 2, which covers the theorem's n >= 3.  The paper's bounds on c(alpha)
    are the n^2 coefficients of that pair, so they bound
    c(alpha)^2 = lim c_n^2 / n^2 for every alpha > -1: ``verify_bessel``
    tests ``first_zero`` against a proved enclosure."""
    failures = []
    # At alpha = t - 1, d = 1 and every denominator is a positive constant:
    # the numerators over their lcm, and the h[j] formed from them, are the
    # values times one positive factor, of the same degree and signs.
    lower = [bounds._numerators(bounds._lower_gap_parts(t - 1, 1)) for t in range(9)]
    upper = [[sum(g[i] * math.comb(i, j) * 2 ** (i - j) for i in range(j, 6)) for j in range(6)]
             for g in (bounds._numerators(bounds._upper_gap_parts(t - 1, 1)) for t in range(9))]
    for name, coeffs in (("lower_gap[{}]", lower), ("upper_gap at n = m + 2, m^{}", upper)):
        for j, values in enumerate(zip(*coeffs)):
            if not bounds._positive_above_minus_one(values):
                failures.append(f"{name.format(j)}: not proved positive for every alpha > -1")
    powers = [[n**i for i in range(6)] for n in range(7)]  # n^0..n^5 at n = 0..6
    for a in _GRID_ALPHAS_EXACT:
        p, d = _split(a)
        # each printed list over its lcm L, and its residual's scale times L d^7
        common = (p + d) ** 2 * (p + 2 * d) * (p + 3 * d) * (p + 4 * d) * (p + 5 * d)
        sides = [(name, bounds._numerators(parts), scale * math.lcm(*(den for _, den in parts)))
                 for name, parts, scale in (
                     ("lower", ((0, 1),) + bounds._lower_gap_parts(p, d), (p + d) * common),
                     ("upper", bounds._upper_gap_parts(p, d), d * common))]
        for n, at_n in enumerate(powers):
            for (name, nums, scale), (num, den) in zip(sides, bounds._residual_parts(p, d, n)):
                if num * scale != sum(map(operator.mul, nums, at_n)) * den * d**7:
                    failures.append(f"alpha={a} n={n}: {name} residual coefficients mismatch")
    print(
        "note: printed residual coefficient lists match the lower bound "
        "normalized by (alpha+1)(alpha+5); the alternative (alpha+3)(alpha+5) "
        "normalization leaves a degree-6 residual and matches nothing"
    )
    return failures


VERIFY_MODES = {
    "coeffs": ("closed forms a0, b1..b3 are those of Q_n, proved for every alpha > -1 "
               "and n >= 0 (exact induction)", verify_coeffs),
    "sandwich": ("finite-n sandwich on the standard grid", verify_sandwich),
    "asymptotic": ("c_n/n approaches the inverse first Bessel zero", verify_asymptotic),
    "bessel": ("first-zero enclosure on the nu grid", verify_bessel),
    "identities": ("sandwich residuals positive, proved for every alpha > -1 and n >= 2 "
                   "(exact identities, Polya certificates): refined_lower < c_n^2 < refined_upper",
                   verify_identities),
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


def _sweep_args(p):
    _add_common(p)
    p.add_argument("--alpha", type=float, help="single alpha instead of a range")
    p.add_argument("--alpha-min", type=float, default=0.0)
    p.add_argument("--alpha-max", type=float, default=10.0)
    p.add_argument("--alpha-step", type=float, default=1.0)
    p.add_argument("--n-list", required=True, help="e.g. '1,2,5' or '3..100'")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes, >= 1 (default: one per core)")


def _bessel_zero_args(p):
    _add_common(p)
    p.add_argument("--nu", type=float, required=True, help="order, -1 < nu <= 1000")


def _figure1_args(p):
    _add_common(p, tol=False)
    p.add_argument("--alpha-min", type=float, default=-0.99)
    p.add_argument("--alpha-max", type=float, default=500.0)
    p.add_argument("--alpha-step", type=float, default=0.1)


# Each subcommand: its help line, its function, and what adds its arguments.
_COMMANDS = {
    "constant": ("exact c_n(alpha) with the bracket the sign count places", cmd_constant,
                 lambda p: _add_common(p, alpha=True, n=True)),
    "bounds": ("full bounds report at one (alpha, n)", cmd_bounds,
               lambda p: _add_common(p, alpha=True, n=True)),
    "sweep": ("bounds report over an (alpha, n) grid", cmd_sweep, _sweep_args),
    "verify": ("run one verification suite", cmd_verify,
               lambda p: p.add_argument("--mode", choices=sorted(VERIFY_MODES), required=True)),
    "bessel-zero": ("first positive zero of J_nu", cmd_bessel_zero, _bessel_zero_args),
    "figure1": ("ratio of asymptotic-constant bounds vs alpha", cmd_figure1, _figure1_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.  Built for
    one, it names all six in its usage line, as the full parser does, so
    its errors print the same bytes."""
    parser = argparse.ArgumentParser(
        prog="markov-laguerre",
        description="Sharp constant and certified bounds for the Laguerre-weight "
        "L2 inequality between a polynomial and its derivative.",
    )
    # None is argparse's default, which spells out the parsers built.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_, func, add_args = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        add_args(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command.  Only the invoked subcommand's parser is built;
    help, a missing or an unknown command take the full parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
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
