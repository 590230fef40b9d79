"""Benchmark workloads: seeded inputs, the operations they issue, and the
checks that decide whether each operation's output is correct.

Three workloads reach the sharp constant c_n(a) the three ways users do:

* ``point``  -- single large-n solves through the library, one caller in a
  closed loop (the next request is sent when the previous one returns);
* ``sweep``  -- one ``sweep`` CLI command over a wide, shallow (alpha, n) grid;
* ``verify`` -- the five exact-arithmetic ``verify`` suites in sequence.

Each workload also runs a seed-independent accuracy probe: c_n(0) at the
ladder n in LADDER_N, through the workload's own entry point, against the
Turan closed form c_n(0) = 1/(2 sin(pi/(4n+2))).

Inputs depend on the seed only; the program sees nothing but the generated
arguments.  Workload objects take the imported package and its ``cli``
module, look functions up on them at call time (so a tracer that rebinds
them sees every call), and keep their own references to the bound checks.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import sys
import time
from typing import NamedTuple

LADDER_N = (200, 1000, 4096, 20000)
# Sanity limit on the probe's relative error.  The accuracy itself is the
# rel_err_max metric; this limit only catches a constant that is plainly wrong.
LADDER_REL_TOL = 1e-5

# markov_constant's default tol, at which every point op is solved.
SOLVE_TOL = 1e-13

POINT_N_RANGE = (500, 20000)
POINT_ALPHA_RANGE = (-1.0, 100.0)
# Requests per round.  Each round draws one n from each of ROUND_SIZE equal
# strata of log n (and likewise for alpha), so every round covers the whole
# range and the latency quantiles barely depend on the seed; with an even
# size whose tenth is whole, p50 and p90 fall on stratum boundaries.
POINT_ROUND_SIZE = 20
POINT_POOL_ROUNDS = 256

SWEEP_ALPHA_BASE = -0.9
SWEEP_ALPHA_MAX = 50.0
SWEEP_ALPHA_STEP = 0.05
SWEEP_N_LIST = "3..10"

VERIFY_MODES = ("coeffs", "sandwich", "asymptotic", "bessel", "identities")


class Op(NamedTuple):
    """One operation's outcome: wall seconds, output rows, error or None."""

    seconds: float
    rows: int
    error: str | None


class Workload:
    """Common shape of a workload.

    ``probe()`` runs the accuracy probe and returns its ops and worst
    relative error; ``round(i)`` runs the i-th round of timed ops.  A traced
    pass is the first ``pass_rounds`` rounds with ``in_process=True``.
    ``span`` is entered around every op; a tracer replaces it with its root
    span.
    """

    name = ""
    pass_rounds = 1
    span = staticmethod(contextlib.nullcontext)

    def inputs(self):
        raise NotImplementedError

    def probe(self) -> tuple[list[Op], float]:
        raise NotImplementedError

    def round(self, i: int, in_process: bool = False) -> list[Op]:
        raise NotImplementedError


def turan(n: int) -> float:
    """Closed form c_n(0), the benchmark's accuracy oracle."""
    return 0.5 / math.sin(math.pi / (4 * n + 2))


def fingerprint(inputs) -> str:
    """Short hash of the generated inputs, to show two runs used the same."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def clear_caches(modules) -> None:
    """Empty every functools cache in ``modules``, so that each CLI command
    pays what a fresh ``markov-laguerre`` process pays."""
    for module in modules:
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def run_cli(cli, argv) -> tuple[int, str]:
    """Run one CLI command in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _timed(span, fn, *args):
    """Run one operation inside ``span()``; return (seconds, result, error)."""
    t0 = time.perf_counter()
    try:
        with span():
            result = fn(*args)
    except Exception as exc:  # an operation that raises is a failed op
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, None


def rel_error_check(n: int, c: float) -> tuple[float, str | None]:
    """Relative error of c against c_n(0); an error past LADDER_REL_TOL fails."""
    err = abs(c - turan(n)) / turan(n)
    if not err <= LADDER_REL_TOL:
        return err, f"c_{n}(0) = {c!r}: relative error {err:.3g} > {LADDER_REL_TOL}"
    return err, None


# ---------------------------------------------------------------------------
# point
# ---------------------------------------------------------------------------


def point_rounds(seed: int, rounds: int = POINT_POOL_ROUNDS,
                 size: int = POINT_ROUND_SIZE,
                 n_range=POINT_N_RANGE) -> list[list[tuple[float, int]]]:
    """Seeded (alpha, n) requests: n log-uniform on n_range, alpha uniform on
    the half-open POINT_ALPHA_RANGE (lo, hi], both stratified within each
    round."""
    rng = random.Random(seed)
    log_lo, log_hi = math.log(n_range[0]), math.log(n_range[1])
    a_lo, a_hi = POINT_ALPHA_RANGE
    out = []
    for _ in range(rounds):
        n_strata = rng.sample(range(size), size)
        a_strata = rng.sample(range(size), size)
        reqs = []
        for sn, sa in zip(n_strata, a_strata):
            n = round(math.exp(log_lo + (sn + rng.random()) / size * (log_hi - log_lo)))
            alpha = a_hi - (sa + rng.random()) / size * (a_hi - a_lo)
            reqs.append((alpha, n))
        out.append(reqs)
    return out


def solver_enclosure(c: float) -> tuple[float, float]:
    """The interval of c^2 that a ``markov_constant`` result c guarantees.

    The solver returns the midpoint of a Sturm-certified bracket on
    lambda = 1/c^2 and stops once the bracket is no wider than
    SOLVE_TOL * max(1, lambda), so the true lambda lies within half that
    width of the returned one.
    """
    lam = c ** -2
    half = 0.5 * SOLVE_TOL * max(1.0, lam)
    return 1.0 / (lam + half), (1.0 / (lam - half) if lam > half else math.inf)


def check_point(alpha, n: int, c, dorfler_bounds, refined_bounds) -> str | None:
    """Check one solve against the proved enclosures of c^2: the classical
    one and, where n >= 3 and the refined lower bound is valid, the refined
    sandwich.  The solve is wrong when the c^2 interval it guarantees
    (``solver_enclosure``) misses a proved enclosure.  Returns an error, or
    None when it meets both."""
    if not (isinstance(c, float) and math.isfinite(c) and c > 0):
        return f"alpha={alpha} n={n}: constant {c!r} is not a positive float"
    lo, hi = solver_enclosure(c)
    d = dorfler_bounds(alpha, n)
    if not (lo <= d.upper and hi >= d.lower):
        return (f"alpha={alpha} n={n}: c^2 in [{lo!r}, {hi!r}] misses "
                f"classical [{d.lower!r}, {d.upper!r}]")
    if n >= 3:
        r = refined_bounds(alpha, n)
        if r.lower_valid and not (lo < r.upper and hi > r.lower):
            return (f"alpha={alpha} n={n}: c^2 in [{lo!r}, {hi!r}] misses "
                    f"refined [{r.lower!r}, {r.upper!r}]")
    return None


class Point(Workload):
    """Large-n single solves: ``markov_constant(alpha, n)`` at the default tol."""

    name = "point"
    pass_rounds = 2

    def __init__(self, pkg, cli, seed: int, ladder=LADDER_N, **round_args):
        self.pkg = pkg
        self.rounds = point_rounds(seed, **round_args)
        self.ladder = ladder
        self._dorfler = pkg.dorfler_bounds
        self._refined = pkg.refined_bounds

    def inputs(self):
        return {"rounds": self.rounds, "ladder": list(self.ladder)}

    def _solve(self, alpha, n) -> tuple[Op, float | None]:
        seconds, c, error = _timed(self.span, self.pkg.markov_constant, alpha, n)
        if error is None:
            error = check_point(alpha, n, c, self._dorfler, self._refined)
        return Op(seconds, 1, error), c

    def probe(self) -> tuple[list[Op], float]:
        ops, worst = [], 0.0
        for n in self.ladder:
            op, c = self._solve(0.0, n)
            if op.error is None:
                err, error = rel_error_check(n, c)
                worst = max(worst, err)
                op = op._replace(error=error)
            ops.append(op)
        return ops, worst

    def round(self, i: int, in_process: bool = False) -> list[Op]:
        return [self._solve(alpha, n)[0] for alpha, n in self.rounds[i % len(self.rounds)]]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_alpha_min(seed: int) -> float:
    return SWEEP_ALPHA_BASE + random.Random(seed).random() * SWEEP_ALPHA_STEP


def sweep_grid(alpha_min: float, alpha_max: float, step: float, n_list: str):
    """The (alphas, ns) a ``sweep`` over these arguments must emit, in order:
    alpha_min + k*step up to alpha_max, and the inclusive n range."""
    count = int(math.floor((alpha_max - alpha_min) / step + 1e-9)) + 1
    lo, hi = n_list.split("..")
    return [alpha_min + k * step for k in range(count)], list(range(int(lo), int(hi) + 1))


def parse_sweep(text: str, alphas, ns) -> tuple[list[dict], list[str]]:
    """Parse sweep CSV output and check it against the requested grid.

    Fails on a row count other than len(alphas) * len(ns), a row out of grid
    order, an unparsable number, a blank asymptotic ratio, or a row flagged
    sandwich_violation=true.
    """
    errors: list[str] = []
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
    except csv.Error as exc:
        return [], [f"CSV does not parse: {exc}"]
    want = [(a, n) for a in alphas for n in ns]
    if len(rows) != len(want):
        errors.append(f"{len(rows)} rows, grid has {len(want)}")
    parsed = []
    for k, (row, (alpha, n)) in enumerate(zip(rows, want)):
        try:
            rec = {
                "alpha": float(row["alpha"]),
                "n": int(row["n"]),
                "exact_c": float(row["exact_c"]),
                "ratio": float(row["asymptotic_ratio"]),
                "violation": row["sandwich_violation"],
            }
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"row {k}: does not parse ({type(exc).__name__}: {exc})")
            continue
        if rec["n"] != n or not math.isclose(rec["alpha"], alpha, rel_tol=0, abs_tol=1e-9):
            errors.append(f"row {k}: ({rec['alpha']}, {rec['n']}) where grid has ({alpha}, {n})")
        if rec["violation"] != "false":
            errors.append(f"row {k}: sandwich_violation={rec['violation']} at alpha={alpha} n={n}")
        parsed.append(rec)
    return parsed, errors


class Sweep(Workload):
    """One ``sweep`` command over about 1,019 alphas by n = 3..10."""

    name = "sweep"
    pass_rounds = 1

    def __init__(self, pkg, cli, seed: int, alpha_max: float = SWEEP_ALPHA_MAX,
                 n_list: str = SWEEP_N_LIST, ladder=LADDER_N):
        self.cli = cli
        self.modules = [m for name, m in sys.modules.items()
                        if name == pkg.__name__ or name.startswith(pkg.__name__ + ".")]
        alpha_min = sweep_alpha_min(seed)
        self.argv = ["sweep", "--alpha-min", repr(alpha_min), "--alpha-max", repr(alpha_max),
                     "--alpha-step", repr(SWEEP_ALPHA_STEP), "--n-list", n_list]
        self.grid = sweep_grid(alpha_min, alpha_max, SWEEP_ALPHA_STEP, n_list)
        self.ladder = ladder

    def inputs(self):
        return {"argv": self.argv, "ladder": list(self.ladder)}

    def _command(self, argv, grid) -> tuple[Op, list[dict]]:
        clear_caches(self.modules)
        seconds, result, error = _timed(self.span, run_cli, self.cli, argv)
        if error is not None:
            return Op(seconds, 0, error), []
        code, text = result
        rows, errors = parse_sweep(text, *grid)
        if code != 0:
            errors.insert(0, f"exit code {code}")
        return Op(seconds, len(rows), "; ".join(errors[:3]) or None), rows

    def probe(self) -> tuple[list[Op], float]:
        argv = ["sweep", "--alpha", "0", "--n-list", ",".join(map(str, self.ladder))]
        op, rows = self._command(argv, ([0.0], list(self.ladder)))
        worst = 0.0
        errors = [op.error] if op.error else []
        for rec in rows:
            err, error = rel_error_check(rec["n"], rec["exact_c"])
            worst = max(worst, err)
            errors += [error] if error else []
        return [op._replace(error="; ".join(errors) or None)], worst

    def round(self, i: int, in_process: bool = False) -> list[Op]:
        # Spans recorded in forked pool workers would be lost, so the traced
        # run sweeps in one process.
        argv = self.argv + ["--jobs", "1"] if in_process else self.argv
        return [self._command(argv, self.grid)[0]]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def check_suite(code: int, text: str) -> str | None:
    """A suite fails when it exits non-zero or prints no PASS line."""
    if code != 0:
        return f"exit code {code}: {text.strip().splitlines()[:1]}"
    if not text.startswith("PASS") and "\nPASS " not in text:
        return f"no PASS line in {text[:80]!r}"
    return None


class Verify(Workload):
    """The five verification suites; fixed content, the seed is unused."""

    name = "verify"
    pass_rounds = 1

    def __init__(self, pkg, cli, seed: int, modes=VERIFY_MODES, ladder=LADDER_N):
        self.cli = cli
        self.modes = modes
        self.ladder = ladder

    def inputs(self):
        return {"modes": list(self.modes), "ladder": list(self.ladder)}

    def probe(self) -> tuple[list[Op], float]:
        # verify prints no number, so accuracy is probed through the CLI's
        # own single-constant path, the ``constant`` command.
        ops, worst = [], 0.0
        for n in self.ladder:
            argv = ["constant", "--alpha", "0", "--n", str(n), "--format", "json"]
            seconds, result, error = _timed(self.span, run_cli, self.cli, argv)
            if error is None:
                code, text = result
                try:
                    c = float(json.loads(text)[0]["c"])
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    error = f"constant output does not parse: {exc}"
                else:
                    err, error = rel_error_check(n, c)
                    worst = max(worst, err)
                if code != 0:
                    error = f"exit code {code}"
            ops.append(Op(seconds, 1, error))
        return ops, worst

    def round(self, i: int, in_process: bool = False) -> list[Op]:
        ops = []
        for mode in self.modes:
            seconds, result, error = _timed(self.span, run_cli, self.cli, ["verify", "--mode", mode])
            if error is None:
                error = check_suite(*result)
            ops.append(Op(seconds, 1, error and f"{mode}: {error}"))
        return ops


WORKLOADS = {cls.name: cls for cls in (Point, Sweep, Verify)}
