import argparse
import collections
import concurrent.futures
import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_laguerre import bessel, bounds, cli, eigen, recurrence
from markov_laguerre.cli import SWEEP_COLUMNS, VERIFY_MODES, _parse_n_list, main, sweep_row
from markov_laguerre.eigen import build_jacobi, markov_constant, smallest_eigenvalue
from markov_laguerre.recurrence import _scaled_rows, _split, coeff_a0, reciprocal_b123

_coeff_a0 = cli.coeff_a0
_b123_parts = recurrence._b123_parts
_alpha_zero = bessel._alpha_zero
_lower_gap_parts = bounds._lower_gap_parts

# One wrong input per verify suite, as (module, attribute, replacement).
BROKEN_INPUTS = {
    "coeffs": (cli, "coeff_a0", lambda a, n: 2 * _coeff_a0(a, n)),
    "sandwich": (bounds, "_dorfler", lambda a, n: (0.0, 0.0)),
    "asymptotic": (bessel, "_alpha_zero", lambda a, tol: _alpha_zero(a, tol) / 1.1),
    "bessel": (bounds, "bessel_zero_enclosure", lambda nu: bounds.BoundPair(0.0, 1e-3)),
    "identities": (
        bounds, "_lower_gap_parts", lambda p, d: ((-1, 1),) + _lower_gap_parts(p, d)[1:]
    ),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def reference_document(rows, columns, fmt) -> str:
    """The CLI's output before its single text emitter: ``csv.writer`` over
    17-digit cells, or ``json.dump`` of the row dicts and a newline."""
    out = io.StringIO()
    if fmt == "json":
        json.dump([dict(zip(columns, r)) for r in rows], out, indent=2)
        out.write("\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_reference_cell(v) for v in r])
    return out.getvalue()


def reference_row(alpha, n, tol=1e-13) -> tuple:
    """A sweep row from the per-point API, not through the sweep's engine:
    ``bounds_report``, with three cells recomputed apart from it: exact_c
    from exact_c_sq, c(alpha) from ``asymptotic_constant`` where alpha lies
    in its domain (alpha <= 2001), and the sandwich verdict."""
    rep = bounds.bounds_report(alpha, n, tol)
    exact_c = math.sqrt(rep.exact_c_sq)
    ratio = exact_c / (n * bessel.asymptotic_constant(alpha, tol)) if alpha <= 2001 else None
    violations = bounds._sandwich_violations(
        rep.n, rep.exact_c_sq, (rep.refined_lower, rep.refined_upper, rep.refined_lower_valid),
        (rep.dorfler_lower, rep.dorfler_upper))
    return rep._replace(exact_c=exact_c, asymptotic_ratio=ratio,
                        sandwich_violation=bool(violations))


def sweep_tasks(argv):
    """The (alpha, n, tol) grid that ``sweep`` with ``argv`` computes, in order."""
    args = cli.build_parser().parse_args(["sweep", *argv])
    alphas = [args.alpha] if args.alpha is not None else cli._grid(
        args.alpha_min, args.alpha_max, args.alpha_step)
    return [(a, n, args.tol) for a in sorted(alphas) for n in sorted(_parse_n_list(args.n_list))]


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of each process pool the CLI starts, as on two CPUs; the
    pools are real."""
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.fixture
def fake_pool_sizes(monkeypatch):
    """max_workers of each process pool the CLI asks for, as on 64 CPUs;
    none is started, the pool's map is the builtin one."""
    monkeypatch.setattr(cli, "_cpus", lambda: 64)
    sizes = []

    class FakePool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return sizes


class TestConstant:
    def test_alpha0_n10_matches_exact_form(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--alpha", "0", "--n", "10")
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        want = 0.5 / math.sin(math.pi / 42)
        assert float(row["c"]) == pytest.approx(want, rel=1e-10)
        assert float(row["c_sq_lower"]) <= want**2 <= float(row["c_sq_upper"])

    def test_alpha3_n1_is_half(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--alpha", "3", "--n", "1")
        _, rows = parse_csv(out)
        assert code == 0
        assert float(rows[0][2]) == 0.5

    def test_alpha0_n2_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--alpha", "0", "--n", "2")
        _, rows = parse_csv(out)
        want = math.sqrt((3 * 2 + math.sqrt(20)) / 4)
        assert float(rows[0][2]) == pytest.approx(want, rel=1e-11)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "constant", "--alpha", "1", "--n", "2", "--format", "json"
        )
        (obj,) = json.loads(out)
        assert obj["n"] == 2
        assert obj["c_sq"] == pytest.approx(
            (3 * 3 + math.sqrt(3 * 11)) / (2 * 2 * 3), rel=1e-11
        )

    def test_invalid_alpha_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "constant", "--alpha", "-1.5", "--n", "3")
        assert code == 2
        assert "alpha" in err

    def test_infinite_alpha_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "constant", "--alpha", "inf", "--n", "3")
        assert code == 2
        assert out == "" and "finite" in err

    def test_invalid_n_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "constant", "--alpha", "0", "--n", "0")
        assert code == 2

    def test_missing_args_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["constant", "--alpha", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_unusable_tol_exits_2(self, capsys, tol):
        code, out, err = run_cli(capsys, "constant", "--alpha", "0", "--n", "10", "--tol", tol)
        assert code == 2
        assert out == "" and "tol" in err


class TestBounds:
    def test_alpha0_n3_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--alpha", "0", "--n", "3")
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["refined_lower"]) == 3.4
        assert 3.4 < float(row["exact_c_sq"]) < float(row["refined_upper"])
        assert row["sandwich_violation"] == "false"
        assert float(row["turan"]) == pytest.approx(0.5 / math.sin(math.pi / 14))

    def test_alpha0_n1_dorfler_upper_attained(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--alpha", "0", "--n", "1")
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["exact_c_sq"]) == float(row["dorfler_upper"]) == 1.0

    def test_turan_blank_when_alpha_nonzero(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--alpha", "2", "--n", "3")
        header, rows = parse_csv(out)
        assert dict(zip(header, rows[0]))["turan"] == ""


    @pytest.mark.parametrize("argv", [("bounds", "--n", "3"),
                                      ("sweep", "--n-list", "3", "--jobs", "1")])
    def test_first_float_above_minus_one(self, capsys, argv):
        # (alpha - 1)/2 rounds to -1 there, and both commands exited 2 with
        # "nu=-1.0 outside the domain" for a valid alpha; as alpha -> -1,
        # c_3^2 -> 6/(a+1) and c(a)^2 -> 1/(2(a+1)), so the ratio -> 2/sqrt(3)
        code, out, err = run_cli(capsys, argv[0], "--alpha", "-0.9999999999999999", *argv[1:])
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        ratio = float(rows[0][header.index("asymptotic_ratio")])
        assert ratio == pytest.approx(2 / math.sqrt(3), rel=1e-12)

    @pytest.mark.parametrize("alpha", ["1e62", "1e160", "1.7e308"])
    def test_overflowing_bounds_exit_1(self, capsys, alpha):
        # past alpha ~ 1.5e61 b3 overflows binary64 (the cubic upper bound
        # came out complex), past ~ 1e154 the refined bounds too
        code, out, err = run_cli(capsys, "bounds", "--alpha", alpha, "--n", "5")
        assert code == 1
        assert out == "" and "overflow" in err and "Traceback" not in err


class TestNList:
    def test_forms(self):
        assert _parse_n_list("1,2,5") == [1, 2, 5]
        assert _parse_n_list("3..6") == [3, 4, 5, 6]
        assert _parse_n_list("1,4..6,9") == [1, 4, 5, 6, 9]
        assert _parse_n_list("") == []

    def test_a_reversed_range_is_an_error(self, capsys):
        # it was dropped: "3,10..5" swept n = 3 only, "10..5" alone said
        # the grid had no n
        with pytest.raises(ValueError, match=r"the n range 10\.\.5 is empty"):
            _parse_n_list("3,10..5")
        for n_list in ("3,10..5", "10..5"):
            assert run_cli(capsys, "sweep", "--alpha", "0", "--n-list", n_list, "--jobs", "1") == (
                2, "", "error: the n range 10..5 is empty\n")
        assert _parse_n_list("5..5") == [5]


class TestSweep:
    def test_lexicographic_order_and_cardinality(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--alpha-min", "0", "--alpha-max", "2", "--alpha-step", "1",
            "--n-list", "5,3,4",
            "--jobs", "1",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert list(header) == list(SWEEP_COLUMNS)
        assert len(rows) == 9
        keys = [(float(r[0]), int(r[1])) for r in rows]
        assert keys == sorted(keys)

    def test_asymptotic_ratio_filled_above_alpha_51(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--alpha-min", "52", "--alpha-max", "152", "--alpha-step", "100",
            "--n-list", "500", "--jobs", "1",
        )
        assert code == 0
        header, rows = parse_csv(out)
        col = header.index("asymptotic_ratio")
        for row in rows:
            a, n, exact_c = float(row[0]), int(row[1]), float(row[2])
            want = exact_c * float(mpmath.besseljzero((a - 1) / 2, 1)) / n
            assert float(row[col]) == pytest.approx(want, rel=1e-12)

    def test_asymptotic_ratio_blank_past_alpha_2001(self, capsys):
        # first_zero's domain ends at nu = 1000, i.e. alpha = 2001
        code, out, _ = run_cli(
            capsys, "sweep", "--alpha-min", "2001", "--alpha-max", "2003", "--alpha-step", "2",
            "--n-list", "500", "--jobs", "1",
        )
        assert code == 0
        header, rows = parse_csv(out)
        col = header.index("asymptotic_ratio")
        assert [row[col] != "" for row in rows] == [True, False]
        want = float(rows[0][2]) * bessel.first_zero(1000.0) / 500
        assert float(rows[0][col]) == pytest.approx(want, rel=1e-15)
        code, out, _ = run_cli(capsys, "sweep", "--alpha", "1e40", "--n-list", "3", "--jobs", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert rows[0][header.index("asymptotic_ratio")] == ""

    def test_round_trip_is_bit_exact(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "sweep",
            "--alpha", "0.1",
            "--n-list", "3,7",
            "--jobs", "1",
        )
        header, rows = parse_csv(out)
        from markov_laguerre.cli import sweep_row

        for parsed in rows:
            fresh = sweep_row(float(parsed[0]), int(parsed[1]), 1e-13)
            for got_text, want in zip(parsed, fresh):
                if isinstance(want, float):
                    assert float(got_text) == want
                elif want is None:
                    assert got_text == ""
                elif isinstance(want, bool):
                    assert got_text == str(want).lower()

    def test_jobs_do_not_change_output(self, capsys):
        argv = ["sweep", "--alpha-min", "0", "--alpha-max", "1", "--alpha-step", "0.5",
                "--n-list", "2,3", "--tol", "1e-10"]
        _, serial, _ = run_cli(capsys, *argv, "--jobs", "1")
        _, parallel, _ = run_cli(capsys, *argv, "--jobs", "2")
        assert serial == parallel

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, capsys, jobs):
        code, out, err = run_cli(capsys, "sweep", "--alpha", "0", "--n-list", "3",
                                 "--jobs", jobs)
        assert code == 2
        assert out == "" and "--jobs" in err

    def test_empty_n_list_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n-list", "", "--jobs", "1")
        assert code == 2

    @pytest.mark.parametrize("bound", ["--alpha-min", "--alpha-max", "--alpha-step"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_grid_exits_2(self, capsys, bound, value):
        code, out, err = run_cli(capsys, "sweep", bound, value, "--n-list", "3", "--jobs", "1")
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_no_violations_on_standard_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--alpha-min", "-0.9", "--alpha-max", "-0.9", "--alpha-step", "1",
            "--n-list", "3..40",
            "--jobs", "1",
            "--tol", "1e-11",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 38
        assert all(r[-1] == "false" for r in rows)


FORMATS = ("csv", "json")
SMALL_GRID = ["--alpha-min", "-0.5", "--alpha-max", "2", "--alpha-step", "0.5",
              "--n-list", "1..12"]


class TestEmitter:
    """Every command prints the bytes of the reference emitter."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_sweep(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "sweep", *SMALL_GRID, "--jobs", "1", "--format", fmt)
        assert code == 0
        rows = [reference_row(*t) for t in sweep_tasks(SMALL_GRID)]
        assert out == reference_document(rows, SWEEP_COLUMNS, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("alpha, n", [("0", "3"), ("2.5", "40"), ("2003", "1")])
    def test_bounds(self, capsys, fmt, alpha, n):
        code, out, _ = run_cli(capsys, "bounds", "--alpha", alpha, "--n", n, "--format", fmt)
        assert code == 0
        row = reference_row(float(alpha), int(n))
        assert out == reference_document([row], SWEEP_COLUMNS, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("alpha, n", [(0.0, 10), (3.0, 1), (-0.9, 250)])
    def test_constant(self, capsys, fmt, alpha, n):
        code, out, _ = run_cli(capsys, "constant", "--alpha", repr(alpha), "--n", str(n),
                               "--format", fmt)
        assert code == 0
        res = smallest_eigenvalue(build_jacobi(alpha, n), 1e-13)
        c_sq = 1.0 / res.value
        lo, hi = res.bracket
        row = (alpha, n, math.sqrt(c_sq), c_sq, 1.0 / hi, 1.0 / lo if lo > 0 else None,
               res.iterations, res.tol)
        columns = ("alpha", "n", "c", "c_sq", "c_sq_lower", "c_sq_upper", "iterations", "tol")
        assert out == reference_document([row], columns, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_bessel_zero_and_figure1(self, capsys, fmt):
        _, out, _ = run_cli(capsys, "bessel-zero", "--nu", "0.5", "--format", fmt)
        lo, hi = bounds.bessel_zero_enclosure(0.5)
        zero = bessel.first_zero(0.5)
        row = (0.5, zero, 1.0 / zero, lo, hi)
        columns = ("nu", "first_zero", "inverse", "enclosure_lower", "enclosure_upper")
        assert out == reference_document([row], columns, fmt)
        _, out, _ = run_cli(capsys, "figure1", "--alpha-max", "3", "--format", fmt)
        rows = [(a, bounds.ratio_r(a)) for a in cli._grid(-0.99, 3.0, 0.1)]
        assert out == reference_document(rows, ("alpha", "r"), fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_empty_document(self, capsys, fmt):
        # An empty grid is a usage error, for figure1 and the range form of
        # sweep alike: no document, not even a header-only one.
        for argv in (["figure1"], ["sweep", "--n-list", "3", "--jobs", "1"]):
            code, out, err = run_cli(capsys, *argv, "--alpha-min", "1", "--alpha-max", "0",
                                     "--format", fmt)
            assert code == 2
            assert out == "" and err == "error: the grid from 1.0 to 0.0 is empty\n"

    @pytest.mark.parametrize("command, step", [("sweep", "1e-320"), ("figure1", "5e-324")])
    def test_uncountable_grid_is_a_usage_error(self, capsys, command, step):
        # (hi - lo)/step overflows: to inf, no point count and no list built;
        # to -inf, an empty grid
        extra = ["--n-list", "3", "--jobs", "1"] if command == "sweep" else []
        code, out, err = run_cli(capsys, command, "--alpha-min", "0", "--alpha-max", "1",
                                 "--alpha-step", step, *extra)
        assert code == 2 and out == ""
        assert err == (f"error: the point count of the grid from 0.0 to 1.0 by {float(step)} "
                       "overflows binary64\n")
        assert run_cli(capsys, command, "--alpha-min", "1e308", "--alpha-max=-1e308",
                       "--alpha-step", step, *extra) == (
            2, "", "error: the grid from 1e+308 to -1e+308 is empty\n")

    @pytest.mark.parametrize("step", ["0", "-1"])
    @pytest.mark.parametrize("command", ["sweep", "figure1"])
    def test_non_positive_step_is_a_usage_error(self, capsys, command, step):
        extra = ["--n-list", "3", "--jobs", "1"] if command == "sweep" else []
        assert run_cli(capsys, command, "--alpha-min", "0", "--alpha-max", "1",
                       "--alpha-step", step, *extra) == (
            2, "", f"error: grid step must be > 0, got {float(step)}\n")

    def test_a_span_past_binary64_is_a_usage_error(self, capsys):
        # hi - lo overflows while the point count, 3, would not: the error
        # names the span, not the count
        assert run_cli(capsys, "figure1", "--alpha-min=-1e308", "--alpha-max", "1e308",
                       "--alpha-step", "1e308") == (
            2, "", "error: the span from -1e+308 to 1e+308 overflows binary64\n")


# 252 rows: several chunks at --jobs 2, with a boundary inside one alpha.
CHUNKED_GRID = ["--alpha-min", "0", "--alpha-max", "4", "--alpha-step", "0.5",
                "--n-list", "3..30", "--tol", "1e-11"]


class TestSweepPool:
    def test_grid_has_a_chunk_boundary_inside_an_alpha(self):
        chunks = cli._chunks(sweep_tasks(CHUNKED_GRID), 2)
        assert len(chunks) >= 3
        assert any(left[-1][0] == right[0][0] for left, right in zip(chunks, chunks[1:]))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_jobs_do_not_change_chunked_output(self, capsys, pool_sizes, fmt):
        argv = ["sweep", *CHUNKED_GRID, "--format", fmt]
        code, serial, _ = run_cli(capsys, *argv, "--jobs", "1")
        assert code == 0 and pool_sizes == []
        code, parallel, _ = run_cli(capsys, *argv, "--jobs", "2")
        assert code == 0 and pool_sizes == [2]
        assert serial == parallel
        rows = [reference_row(*t) for t in sweep_tasks(CHUNKED_GRID)]
        assert serial == reference_document(rows, SWEEP_COLUMNS, fmt)

    @pytest.mark.parametrize("n_list, pools", [("3", []), ("3,4", [2]), ("3..7", [5])])
    def test_pool_is_capped_at_the_work(self, capsys, fake_pool_sizes, n_list, pools):
        # at most one worker per row, and no pool for one row, however many
        # jobs are asked for
        argv = ["sweep", "--alpha", "0", "--n-list", n_list]
        _, serial, _ = run_cli(capsys, *argv, "--jobs", "1")
        assert fake_pool_sizes == []
        code, out, _ = run_cli(capsys, *argv, "--jobs", "64")
        assert code == 0 and out == serial
        assert fake_pool_sizes == pools

    def test_default_jobs_are_capped_too(self, capsys, fake_pool_sizes):
        code, _, _ = run_cli(capsys, "sweep", "--alpha", "0", "--n-list", "3,4")
        assert code == 0 and fake_pool_sizes == [2]

    @pytest.mark.parametrize("jobs", [[], ["--jobs", "3"], ["--jobs", "100000"]])
    def test_pool_is_capped_at_the_cpus(self, capsys, monkeypatch, fake_pool_sizes, jobs):
        # 100000 jobs cut this grid into 18 chunks of one row; no more
        # workers than CPUs are asked for all the same
        monkeypatch.setattr(cli, "_cpus", lambda: 3)
        argv = ["sweep", "--alpha", "0", "--n-list", "3..20"]
        _, serial, _ = run_cli(capsys, *argv, "--jobs", "1")
        code, out, _ = run_cli(capsys, *argv, *jobs)
        assert code == 0 and out == serial
        assert fake_pool_sizes == [3]

    def test_cpus_are_those_the_process_may_run_on(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        assert cli._cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._cpus() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._cpus() == 1

    def test_numeric_failure_in_a_worker_exits_1(self, capsys, pool_sizes):
        # b3 overflows binary64 past alpha ~ 1.5e61 in every row
        code, out, err = run_cli(capsys, "sweep", "--alpha", "1e62", "--n-list", "3..10",
                                 "--jobs", "2")
        assert pool_sizes == [2]
        assert code == 1
        assert out == "" and "numeric failure" in err and "Traceback" not in err

    def test_usage_error_in_a_worker_exits_2(self, capsys, pool_sizes):
        code, out, err = run_cli(capsys, "sweep", "--alpha-min", "0", "--alpha-max", "3",
                                 "--alpha-step", "1", "--n-list", "0..3", "--jobs", "2")
        assert pool_sizes == [2]
        assert code == 2
        assert out == "" and err.startswith("error: ")


def _document(rows, fmt) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit([cli._format_rows(rows, SWEEP_COLUMNS, fmt)], SWEEP_COLUMNS, fmt)
    return out.getvalue()


def _parsed_rows(text, fmt):
    """Rows of a printed document as (column, value) pairs, values parsed back
    to Python: a float from its text, bools and None from their spelling."""
    if fmt == "json":
        return [list(obj.items()) for obj in json.loads(text)]
    header, rows = parse_csv(text)
    spelled = {"": None, "true": True, "false": False}
    return [[(c, spelled[v] if v in spelled else (int(v) if c == "n" else float(v)))
             for c, v in zip(header, r)] for r in rows]


def _assert_round_trip(rows, fmt):
    _assert_cells(_document(rows, fmt), fmt, rows)


def _assert_cells(text, fmt, rows):
    """The printed document ``text`` holds ``rows``: every float to the bit."""
    parsed = _parsed_rows(text, fmt)
    assert len(parsed) == len(rows)
    for row, back in zip(rows, parsed):
        assert [c for c, _ in back] == list(SWEEP_COLUMNS)
        for want, (_, got) in zip(row, back):
            assert type(got) is type(want)
            if isinstance(want, float):
                assert got.hex() == want.hex()
            else:
                assert got == want


class TestRoundTrip:
    """Floats of sweep rows, printed as CSV or JSON, parse back bit-exactly."""

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(-0.99, 2500.0), n=st.integers(1, 40), fmt=st.sampled_from(FORMATS))
    def test_sweep_rows(self, alpha, n, fmt):
        _assert_round_trip([sweep_row(alpha, n, 1e-13), sweep_row(0.0, n, 1e-13)], fmt)

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False), min_size=17, max_size=17),
           fmt=st.sampled_from(FORMATS))
    def test_any_float_in_a_row(self, values, fmt):
        # every float column of a row, whatever its value, -0.0 and inf too
        template = sweep_row(0.0, 3, 1e-13)
        floats = iter(values)
        row = tuple(next(floats) if isinstance(v, float) else v for v in template)
        _assert_round_trip([row], fmt)


REFERENCE_ALPHAS = ("0", repr(-1 + 2**-53), "0.5", "2001", "2003", "1e40")
REFERENCE_GRIDS = [["--alpha", a, "--n-list", ns] for a in REFERENCE_ALPHAS
                   for ns in ("1..12", "5,3,4", "3,3,7")] + [CHUNKED_GRID]


class TestSweepReference:
    """``sweep`` against rows built point by point from ``bounds_report``."""

    @pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=" ".join)
    def test_every_cell_matches_the_per_point_api(self, capsys, grid):
        rows = [reference_row(*t) for t in sweep_tasks(grid)]
        for fmt in FORMATS:
            for jobs in ("1", "2"):
                code, out, err = run_cli(capsys, "sweep", *grid, "--jobs", jobs, "--format", fmt)
                assert code == 0 and err == ""
                _assert_cells(out, fmt, rows)

    def test_the_engine_takes_any_order_of_n(self):
        ns = [5, 3, 4, 3, 1, 7]
        assert bounds._rows(0.5, ns, 1e-13) == [reference_row(0.5, n) for n in ns]

    def test_warm_started_rows_are_the_per_point_rows(self, monkeypatch):
        # The engine starts each n from c at n-1, n-2 and n-3; the close
        # makes the result independent of the start, bit for bit.
        pairs = cli.grid_pairs()
        passes = collections.Counter()

        def counted(name):
            real = getattr(eigen, name)

            def step_pass(q, sigma):
                passes[name] += 1
                return real(q, sigma)
            monkeypatch.setattr(eigen, name, step_pass)

        counted("_laguerre_pass")
        counted("_newton_pass")
        rows = list(cli._grid_rows(pairs, 1e-13))
        # 1.12 Laguerre step passes per row and no Newton pass; 2.26 from
        # cold starts
        assert sum(passes.values()) <= 1.3 * len(pairs)
        assert rows == [bounds.bounds_report(a, n) for a, n in pairs]
        for a in (0.0, 25.0):
            assert bounds._rows(a, range(3, 401), 1e-13) == [
                bounds.bounds_report(a, n) for n in range(3, 401)]

    def test_one_bessel_zero_per_engine_call(self, monkeypatch):
        # c(alpha) is computed once, before the rows, and the start of each
        # n >= 300 reuses it
        zeros = collections.Counter()
        real = bessel._first_zero

        def counted(h, tol):
            zeros[h] += 1
            return real(h, tol)

        for a in (0.0, 1.0, 2.0, 5.0):
            with monkeypatch.context() as m:
                m.setattr(bessel, "_first_zero", counted)
                rows = bounds._rows(a, (512, 4096), 1e-13)
            assert rows == [bounds.bounds_report(a, n) for n in (512, 4096)]
        assert zeros == {0.5 * a + 0.5: 1 for a in (0.0, 1.0, 2.0, 5.0)}

    @pytest.mark.parametrize("alpha", [2, F(5, 2), F(2001) + F(1, 10**30)])
    def test_sweep_row_takes_an_exact_alpha(self, alpha):
        assert sweep_row(alpha, 6, 1e-13) == reference_row(alpha, 6)

    def test_markov_constant_is_the_printed_c(self):
        # it returned value ** -0.5, the CLI prints sqrt(1/value): 57 of
        # these points differed in the last bit
        rng = random.Random(3)
        for _ in range(400):
            alpha, n = rng.uniform(-0.99, 50.0), rng.randint(2, 400)
            assert markov_constant(alpha, n) == sweep_row(alpha, n, 1e-13)[2], (alpha, n)

    def test_an_exact_alpha_reaches_the_factor_unrounded(self):
        # the rows solved build_jacobi(float(alpha), n): 137 of these
        # smallest eigenvalues differed from build_jacobi(alpha, n)'s
        rng = random.Random(11)
        for _ in range(300):
            q = rng.randint(1, 100)
            alpha, n = F(rng.randint(1 - q, 5000), q), rng.randint(2, 500)
            c_sq = 1.0 / smallest_eigenvalue(build_jacobi(alpha, n)).value
            assert bounds.bounds_report(alpha, n).exact_c_sq == c_sq, (alpha, n)
            assert sweep_row(alpha, n, 1e-13)[2:4] == (math.sqrt(c_sq), c_sq), (alpha, n)

    @pytest.mark.parametrize("alpha, n", [(0.0, 3), (2003.0, 1), (2.5, 40)])
    def test_derived_cells_of_the_report(self, alpha, n):
        rep = bounds.bounds_report(alpha, n)
        assert rep.exact_c == math.sqrt(rep.exact_c_sq)
        assert rep.sandwich_violation == bool(bounds._sandwich_violations(
            n, rep.exact_c_sq, (rep.refined_lower, rep.refined_upper, rep.refined_lower_valid),
            (rep.dorfler_lower, rep.dorfler_upper)))
        assert (rep.turan is None) == (alpha != 0.0)

    def test_the_columns_are_the_report_fields(self):
        assert SWEEP_COLUMNS == bounds.BoundsReport._fields

    @pytest.mark.parametrize("alpha", [0.37, F(5, 2), F(2001) + F(1, 10**30), 2003.0])
    def test_the_report_is_the_sweep_row(self, alpha):
        rep, row = bounds.bounds_report(alpha, 7), sweep_row(alpha, 7, 1e-13)
        assert rep._asdict() == dict(zip(SWEEP_COLUMNS, row, strict=True))
        assert (rep.asymptotic_ratio is None) == (alpha > 2001)

    @pytest.mark.parametrize("argv, first, code, err", [
        (["--alpha", "1e62", "--n-list", "3..10"], (1e62, 3), 1,
         "numeric failure: b1..b3 at alpha=1e+62, n=3 overflow binary64\n"),
        (["--alpha", "1e155", "--n-list", "3"], (1e155, 3), 1,
         "numeric failure: the bounds at alpha=1e+155 overflow binary64\n"),
        (["--alpha", "2e102", "--n-list", "2"], (2e102, 2), 1,
         "numeric failure: b1..b3 at alpha=2e+102, n=2 overflow binary64\n"),
        (["--n-list", "0..3"], (0.0, 0), 2, "error: n must be >= 1, got 0\n"),
    ])
    def test_errors_are_those_of_the_first_row(self, capsys, argv, first, code, err):
        with pytest.raises((ValueError, OverflowError)) as exc:
            reference_row(*first)
        assert err.endswith(f": {exc.value}\n")
        for jobs in ("1", "2"):
            assert run_cli(capsys, "sweep", *argv, "--jobs", jobs) == (code, "", err)

    def test_one_factor_and_one_limit_per_alpha_group(self, capsys, monkeypatch,
                                                      fake_pool_sizes):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bounds, "build_jacobi", counted("build", build_jacobi))
        monkeypatch.setattr(bounds, "_smallest", counted("solve", bounds._smallest))
        monkeypatch.setattr(bessel, "_alpha_zero", counted("limit", bessel._alpha_zero))
        code, out, _ = run_cli(capsys, "sweep", "--alpha", "0.5", "--n-list", "3..40",
                               "--jobs", "1")
        assert code == 0 and len(parse_csv(out)[1]) == 38
        assert calls == {"build": 1, "solve": 38, "limit": 1}
        # the pool's chunks, mapped in this process: a chunk boundary inside
        # an alpha splits it into two groups
        calls.clear()
        code, _, _ = run_cli(capsys, "sweep", *CHUNKED_GRID, "--jobs", "2")
        assert code == 0 and fake_pool_sizes == [2]
        groups = sum(len({a for a, _, _ in chunk}) for chunk in
                     cli._chunks(sweep_tasks(CHUNKED_GRID), 2))
        assert groups > 9 and calls == {"build": groups, "solve": 252, "limit": groups}


class TestBesselZero:
    def test_half_integer(self, capsys):
        code, out, _ = run_cli(capsys, "bessel-zero", "--nu", "0.5")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(math.pi, abs=1e-12)

    def test_out_of_envelope_exits_2(self, capsys):
        # the domain is -1 < nu <= 1000, nu = 30 included
        code, out, _ = run_cli(capsys, "bessel-zero", "--nu", "30")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(float(mpmath.besseljzero(30, 1)), rel=1e-13)
        for bad in ("-1", "nan", "inf", "1000.5", "1e40"):
            code, out, _ = run_cli(capsys, "bessel-zero", "--nu", bad)
            assert code == 2
            assert out == ""

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_unusable_tol_exits_2(self, capsys, tol):
        code, out, err = run_cli(capsys, "bessel-zero", "--nu", "0.5", "--tol", tol)
        assert code == 2
        assert out == "" and "tol" in err


class TestFigure1:
    def test_small_window(self, capsys):
        code, out, err = run_cli(
            capsys,
            "figure1",
            "--alpha-min", "-0.99", "--alpha-max", "5", "--alpha-step", "0.5",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["alpha", "r"]
        assert len(rows) == 12
        rs = [float(r[1]) for r in rows]
        assert rs[0] < 1.01
        assert all(r < 2 for r in rs)
        assert "flagged_r_ge_2=0" in err
        assert "monotone_increasing_for_alpha_ge_0=true" in err

    def test_infinite_alpha_max_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "figure1", "--alpha-max", "inf")
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_has_no_tol(self):
        # figure1 solves nothing: no tolerance to set
        with pytest.raises(SystemExit) as exc:
            main(["figure1", "--tol", "1e-9"])
        assert exc.value.code == 2


class TestVerify:
    @pytest.mark.parametrize(
        "mode", ["coeffs", "identities", "bessel", "sandwich", "asymptotic"]
    )
    def test_modes_pass(self, capsys, mode):
        code, out, _ = run_cli(capsys, "verify", "--mode", mode)
        assert code == 0
        assert "PASS" in out

    def test_identities_records_normalization(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--mode", "identities")
        assert "(alpha+1)(alpha+5)" in out

    @pytest.mark.parametrize("mode", sorted(VERIFY_MODES))
    def test_every_suite_can_fail(self, capsys, monkeypatch, mode):
        module, name, broken = BROKEN_INPUTS[mode]
        monkeypatch.setattr(module, name, broken)
        _, suite = VERIFY_MODES[mode]
        assert suite() != []
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "verify", "--mode", mode)
        assert code == 1
        assert any(line.startswith("FAIL ") for line in out.splitlines())
        assert "PASS" not in out

    def test_coeffs_failure_prints_both_sides_as_fractions(self, monkeypatch):
        # The suite compares integer rows; a failure still prints both sides
        # of the failing entry, a[k, n] of the triangle and of the closed
        # form, as Fractions.  b1(5) + 1 at alpha = 3/4 breaks entry 1 of
        # row 5 and the steps that read it: entries 1 and 2 of row 6, where
        # row 5 is the current row, and entry 1 of row 7, where it is the
        # previous one.
        real = cli._b123_parts

        def perturbed(p, d, n):
            (num, den), b2, b3 = real(p, d, n)
            if (p, d, n) == (3, 4, 5):
                num += den
            return (num, den), b2, b3

        monkeypatch.setattr(cli, "_b123_parts", perturbed)
        assert cli.verify_coeffs() == [
            "alpha=3/4 n=5 k=1: 72105/2048 != 322069/8192",
            "alpha=3/4 n=6 k=1: -4206125/65536 != -908523/16384",
            "alpha=3/4 n=6 k=2: 1189951/8192 != 578151/4096",
            "alpha=3/4 n=7 k=1: 5061771/65536 != 1341153/16384",
        ]

    def test_coeffs_checks_the_a0_step(self, monkeypatch):
        # a0(5) doubled scales all of the closed row 5, so it breaks the
        # steps that read row 5, m = 4, 5 and 6 (rows 5, 6 and 7), at every
        # alpha; the base cases read coeff_a0, which stays right
        real = cli._a0_parts

        def perturbed(p, d, m):
            num, den = real(p, d, m)
            return (2 * num if m == 5 else num), den

        monkeypatch.setattr(cli, "_a0_parts", perturbed)
        failures = cli.verify_coeffs()
        assert len(failures) == len(cli._INDUCTION_ALPHAS) * 3 * 4
        assert {f.split(" k=")[0] for f in failures} == {
            f"alpha={a} n={n}" for a in cli._INDUCTION_ALPHAS for n in (5, 6, 7)}

    def test_a_broken_step_fails_the_suite(self, capsys, monkeypatch):
        # The triangle and the suite take one step, _next_row: entry 1 of
        # row 3 off by one changes the triangle's rows, and the suite names
        # row 3, the first wrong one, at every alpha.
        real = recurrence._next_row

        def broken(p, d, m, cur, prev):
            row = real(p, d, m, cur, prev)
            if m == 2:
                row[1] += 1
            return row

        before = list(recurrence.qn_coefficient_rows(F(3, 4), 5))
        monkeypatch.setattr(recurrence, "_next_row", broken)
        monkeypatch.setattr(cli, "_next_row", broken)
        assert list(recurrence.qn_coefficient_rows(F(3, 4), 5)) != before
        failures = cli.verify_coeffs()
        assert [f.split(": ")[0] for f in failures] == [
            f"alpha={a} n=3 k=1" for a in cli._INDUCTION_ALPHAS]
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "verify", "--mode", "coeffs")
        assert code == 1 and out.startswith("FAIL ")

    def test_identities_proves_what_a_grid_scan_misses(self, capsys, monkeypatch):
        # (a - 1/20)^2 - 1e-6 is negative only on (0.049, 0.051), between
        # the points 0.01 and 0.11 of a binary64 scan from -0.99 by 0.1; at
        # a = p/d it is (2500 (20p - d)^2 - d^2) / (10^6 d^2)
        def dipped(p, d):
            dip = (2500 * (20 * p - d) ** 2 - d * d, 10**6 * d * d)
            return (dip,) + _lower_gap_parts(p, d)[1:]

        monkeypatch.setattr(bounds, "_lower_gap_parts", dipped)

        def lower_gap_zero(a):
            return F(*bounds._lower_gap_parts(*F(a).as_integer_ratio())[0])

        assert all(lower_gap_zero(a) > 0 for a in cli._grid(-0.99, 500.0, 0.1))
        assert lower_gap_zero(F(1, 20)) == -F(1, 10**6)
        assert ("lower_gap[0]: not proved positive for every alpha > -1"
                in cli.verify_identities())
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "verify", "--mode", "identities")
        assert code == 1
        assert any(line.startswith("FAIL ") for line in out.splitlines())

    def test_identities_refuses_a_gap_that_dips_below_zero_at_n_2(self, monkeypatch):
        # Lowering upper_gap[0] alone makes the gap at n = 2, h[0] of the
        # shift to n = m + 2, negative at alpha = 0.
        real = bounds._upper_gap_parts

        def lowered(p, d):
            (num, den), *rest = real(p, d)
            return ((num - 1000 * den, den), *rest)  # upper_gap[0] - 1000

        monkeypatch.setattr(bounds, "_upper_gap_parts", lowered)
        assert sum(F(*g) * 2**i for i, g in enumerate(bounds._upper_gap_parts(0, 1))) < 0
        assert ("upper_gap at n = m + 2, m^0: not proved positive for every alpha > -1"
                in cli.verify_identities())

    @pytest.mark.parametrize("side, j, name", [
        ("_lower_gap_parts", 4, "lower_gap[4]"),
        ("_upper_gap_parts", 5, "upper_gap at n = m + 2, m^5"),
    ], ids=["lower", "upper"])
    def test_identities_samples_down_to_alpha_minus_one(self, monkeypatch, side, j, name):
        # Times 2a + 1, the coefficient is negative on (-1, -1/2) only, so
        # samples taken at alpha = 0, 1, ... in place of t = alpha + 1 would
        # certify it.  The upper gap's n^5 coefficient is that of m^5.
        real = getattr(bounds, side)

        def tilted(p, d):
            parts = list(real(p, d))
            num, den = parts[j]
            parts[j] = (num * (2 * p + d), den * d)
            return tuple(parts)

        monkeypatch.setattr(bounds, side, tilted)
        assert F(*tilted(-3, 4)[j]) < 0 < F(*tilted(-1, 4)[j])
        assert f"{name}: not proved positive for every alpha > -1" in cli.verify_identities()

    def test_identities_upper_gap_at_n_plus_two_is_the_binomial_sum(self, monkeypatch):
        # The values certified in (iv) at t = alpha + 1 are
        # h[j] = sum_i g[i] C(i, j) 2^(i-j), the coefficients in m of the
        # upper gap at n = m + 2, times one positive factor: the lcm of the
        # gap's denominators.
        certified = []
        monkeypatch.setattr(bounds, "_positive_above_minus_one",
                            lambda values: certified.append(list(values)) or True)
        assert cli.verify_identities() == []
        assert len(certified) == 11  # the five lower-gap lists, then the six h[j]
        scale = math.lcm(*(den for _, den in bounds._upper_gap_parts(0, 1)))
        for j, values in enumerate(certified[5:]):
            want = []
            for t in range(9):
                g = [F(*part) for part in bounds._upper_gap_parts(t - 1, 1)]
                want.append(scale * sum(g[i] * math.comb(i, j) * 2 ** (i - j)
                                        for i in range(j, 6)))
            assert values == want

    def test_identities_builds_no_fraction(self, monkeypatch):
        # The proofs and the identity check run on integers: no Fraction is
        # constructed, directly or as the result of Fraction arithmetic
        # (Python 3.12 and later build those through _from_coprime_ints).
        built = []
        real_new = F.__new__

        def counted_new(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counted_new)
        if hasattr(F, "_from_coprime_ints"):
            real_coprime = F._from_coprime_ints
            monkeypatch.setattr(F, "_from_coprime_ints", classmethod(
                lambda cls, n, d: built.append((n, d)) or real_coprime(n, d)))
        assert cli.verify_identities() == []
        assert built == []
        assert F(1, 3) + cli._GRID_ALPHAS_EXACT[-1] == F(76, 3)
        assert len(built) >= 2  # the count sees both kinds of construction

    def test_unknown_mode_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mode", "everything"])
        assert exc.value.code == 2

    def test_sandwich_builds_one_factor_and_one_limit_per_grid_alpha(self, capsys,
                                                                       monkeypatch):
        # it called bounds_report at each of the 880 grid points
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bounds, "build_jacobi", counted("build", build_jacobi))
        monkeypatch.setattr(bessel, "_alpha_zero", counted("limit", bessel._alpha_zero))
        assert cli.verify_sandwich() == []
        assert calls == {"build": len(cli.GRID_ALPHAS), "limit": len(cli.GRID_ALPHAS)}


# The alphas of the triangle comparison below; the induction grid of the
# ``coeffs`` suite lies apart from them.
VERIFY_ALPHAS = (F(-1, 2), F(-1, 4), F(0), F(1, 3), F(1), F(5, 2), F(10))


def triangle_mismatches() -> list[str]:
    """The closed-form coefficients against the recurrence triangle,
    n <= 60 at ``VERIFY_ALPHAS``, plus monicity and the a0 step relation, a
    sample of what the induction of the ``coeffs`` suite proves.  Row n of
    the triangle is R_n / S_n, integers over the scale S_n = d^n n! for
    alpha = p/d, so each check is cross-multiplied on integers."""
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
                    failures.append(f"alpha={a} n={n} k={k}: {F(row[k], scale)} != {want}")
            if row[-1] != scale:
                failures.append(f"alpha={a} n={n}: not monic")
            # a0(n) = -(1 + a/n) a0(n-1), and S_n = dn S_{n-1}
            if prev_a0 is not None and row[0] != -(d * n + p) * prev_a0:
                failures.append(f"alpha={a} n={n}: a0 step relation broken")
            prev_a0 = row[0]
    return failures


def grid_residual_failures() -> list[str]:
    """Both residuals at the 880 (alpha, n) pairs of the sandwich grid, in
    exact arithmetic, a sample of what the ``identities`` suite proves."""
    failures = []
    for a, n in cli.grid_pairs(cli._GRID_ALPHAS_EXACT):
        lr, ur = bounds.residual_sandwich_check(a, n)
        if lr < 0 or ur < 0:
            failures.append(f"alpha={a} n={n}: residual negative")
    return failures


def b3_perturbed_at_verify_alphas(p, d, n):
    """``_b123_parts`` with prod_i (alpha - a_i) (n-2)(n-1)n(n+1) added to
    b3's numerator over its denominator, a_i in ``VERIFY_ALPHAS``: the
    same b3 at those alphas and at n <= 2, another one elsewhere.  Kept
    homogeneous in (p, d) by scaling b3's parts by Q d^2, Q the product of
    the a_i's denominators."""
    b1, b2, (num, den) = _b123_parts(p, d, n)
    scale = math.prod(a.denominator for a in VERIFY_ALPHAS) * d * d
    extra = (math.prod(p * a.denominator - a.numerator * d for a in VERIFY_ALPHAS)
             * (n - 2) * (n - 1) * n * (n + 1))
    return b1, b2, (num * scale + extra, den * scale)


class TestSampledChecks:
    """Samples of what the ``coeffs`` and ``identities`` suites prove for
    every alpha and n: the triangle at 7 alphas and the residuals on the
    sandwich grid."""

    def test_closed_forms_match_the_triangle(self):
        assert triangle_mismatches() == []

    def test_residuals_are_nonnegative_on_the_grid(self):
        assert len(cli.grid_pairs(cli._GRID_ALPHAS_EXACT)) == 880
        assert grid_residual_failures() == []

    def test_residual_grid_failure_names_the_pair(self, monkeypatch):
        real = bounds.residual_sandwich_check

        def perturbed(a, n):
            lower, upper = real(a, n)
            return (-lower, upper) if (a, n) == (F(5), 40) else (lower, upper)

        monkeypatch.setattr(bounds, "residual_sandwich_check", perturbed)
        assert grid_residual_failures() == ["alpha=5 n=40: residual negative"]

    def test_induction_alphas_lie_apart_from_the_triangle_alphas(self):
        assert len(set(cli._INDUCTION_ALPHAS)) == 12
        assert not set(cli._INDUCTION_ALPHAS) & set(VERIFY_ALPHAS)
        assert all(a > -1 for a in cli._INDUCTION_ALPHAS)

    def test_a_b3_the_triangle_cannot_see_fails_the_induction(self, monkeypatch):
        real_b3 = reciprocal_b123(F(2), 5)[2]
        monkeypatch.setattr(recurrence, "_b123_parts", b3_perturbed_at_verify_alphas)
        monkeypatch.setattr(cli, "_b123_parts", b3_perturbed_at_verify_alphas)
        assert reciprocal_b123(F(2), 5)[2] != real_b3
        assert triangle_mismatches() == []
        failures = cli.verify_coeffs()
        assert failures and all(" k=3: " in f for f in failures)


def differences(values, order):
    """The forward differences of the given order of ``values``."""
    for _ in range(order):
        values = [y - x for x, y in zip(values, values[1:])]
    return values


class TestProofPremises:
    """The degrees that the proofs of the ``coeffs`` and ``identities``
    suites count from the forms of ``_b123_parts``, ``_a0_parts``,
    ``_next_row`` and ``_refined_lower_parts``, measured: a polynomial of
    degree <= D takes values whose differences of order D + 1 vanish,
    here at 22 equally spaced exact alphas, at m = 1..21 or at n = 0..21.
    An edit that raised a degree past the suite's grid would void its
    proof; these tests fail instead."""

    ALPHAS = [F(k - 2, 3) for k in range(22)]  # -2/3 .. 19/3

    @staticmethod
    def step_sides(a, m_max):
        """For m = 1 .. m_max, the pairs (closed row m+1, step from the
        closed rows m and m-1) of entries 0..3 in ``verify_coeffs`` at
        alpha = a, divided by N0(m-1) d^7: functions of alpha alone, as
        the rows are homogeneous of degree m + 6 in (p, d)."""
        p, d = a.numerator, a.denominator
        _, rows = cli._closed_rows(p, d, m_max + 1)
        out = []
        for m in range(1, m_max + 1):
            scale = recurrence._a0_parts(p, d, m - 1)[0] * d**7
            step = recurrence._next_row(p, d, m, rows[m], rows[m - 1])
            out.append([(F(x, scale), F(y, scale)) for x, y in zip(rows[m + 1], step)])
        return out

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_induction_step_degrees(self, k):
        if k:  # _closed_rows reads b_k's denominator at m = 0
            for a in self.ALPHAS:
                parts = [recurrence._b123_parts(a.numerator, a.denominator, m) for m in range(22)]
                assert len({part[k - 1][1] for part in parts}) == 1, (a, "denominator has m")
        by_alpha = [self.step_sides(a, 21) for a in self.ALPHAS]
        for m in range(1, 22):
            pairs = [sides[m - 1][k] for sides in by_alpha]
            assert all(closed == step for closed, step in pairs)
            for values in zip(*pairs):
                assert not any(differences(values, 8)), (m, "degree in alpha > 7")
        for a in (F(-9, 10), F(7, 3), F(50)):
            pairs = [sides[k] for sides in self.step_sides(a, 21)]
            for values in zip(*pairs):
                assert not any(differences(values, 2 * k + 3)), (a, f"degree in m > {2 * k + 2}")

    @pytest.mark.parametrize("n", [3, 5, 7, 12])
    def test_scaled_residual_degrees(self, n):
        lower, upper = zip(*(bounds.residual_sandwich_check(a, n) for a in self.ALPHAS))
        scaled_lower = [r * (a + 1) ** 3 * (a + 2) * (a + 3) * (a + 4) * (a + 5)
                        for r, a in zip(lower, self.ALPHAS)]
        scaled_upper = [r * (a + 1) ** 2 * (a + 2) * (a + 3) * (a + 4) * (a + 5)
                        for r, a in zip(upper, self.ALPHAS)]
        assert not any(differences(scaled_lower, 6)) and any(differences(scaled_lower, 5))
        assert not any(differences(scaled_upper, 5)) and any(differences(scaled_upper, 4))

    @pytest.mark.parametrize("a", [F(-9, 10), F(1, 3), F(25)])
    def test_residuals_have_degree_six_in_n(self, a):
        # the identities suite compares them by value at n = 0..6
        for residual in zip(*(bounds.residual_sandwich_check(a, n) for n in range(22))):
            assert not any(differences(residual, 7))


def _printed(capsys, *argv) -> dict:
    """The cells of the one CSV row that the command ``argv`` prints."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    return dict(zip(header, rows[0], strict=True))


def _hex(cell: str) -> str:
    return float(cell).hex()


class TestVerifyJudgesThePrintedRows:
    """Every number a suite judges is, to the bit, the cell that ``bounds``,
    ``sweep`` or ``bessel-zero`` prints at that point."""

    SANDWICH_POINTS = [(-0.9, 3), (0.5, 40), (25.0, 5), (25.0, 100)]

    def test_sandwich(self, capsys, monkeypatch):
        # The judged numbers are the arguments of _sandwich_violations;
        # returned as the violation, they reach the suite's failures, which
        # name the point.
        def judged(n, c_sq, refined, dorfler):
            return [" ".join([c_sq.hex(), *(v.hex() for v in refined[:2]), str(refined[2]),
                              *(v.hex() for v in dorfler)])]

        with monkeypatch.context() as m:
            m.setattr(bounds, "_sandwich_violations", judged)
            failures = cli.verify_sandwich()
        capsys.readouterr()
        assert len(failures) == len(cli.grid_pairs())
        for a, n in self.SANDWICH_POINTS:
            assert (a, n) in cli.grid_pairs()
            cells = _printed(capsys, "bounds", "--alpha", repr(a), "--n", str(n))
            want = [_hex(cells["exact_c_sq"]), _hex(cells["refined_lower"]),
                    _hex(cells["refined_upper"]), cells["refined_lower_valid"].title(),
                    _hex(cells["dorfler_lower"]), _hex(cells["dorfler_upper"])]
            assert f"alpha={a} n={n}: {' '.join(want)}" in failures

    def test_asymptotic(self, capsys, monkeypatch):
        rows = {}
        real = bounds._rows

        def recorded(alpha, ns, tol):
            out = real(alpha, ns, tol)
            rows.update(((alpha, r.n), r) for r in out)
            return out

        with monkeypatch.context() as m:
            m.setattr(bounds, "_rows", recorded)
            assert cli.verify_asymptotic() == []
        assert sorted(rows) == [(a, n) for a in (0.0, 1.0, 2.0, 5.0) for n in (512, 4096)]
        for (a, n), row in rows.items():
            cells = _printed(capsys, "bounds", "--alpha", repr(a), "--n", str(n))
            assert row.asymptotic_ratio.hex() == _hex(cells["asymptotic_ratio"]), (a, n)

    def test_bessel(self, capsys, monkeypatch):
        # one row per grid point: the half-order checks read the rows of
        # nu = 1/2 and -1/2, solved once
        rows = {}
        calls = []
        real = cli._bessel_row

        def recorded(nu, tol):
            calls.append(nu)
            rows[nu] = real(nu, tol)
            return rows[nu]

        with monkeypatch.context() as m:
            m.setattr(cli, "_bessel_row", recorded)
            assert cli.verify_bessel() == []
        assert len(calls) == len(rows) == 194
        for nu in (-0.75, 0.5, 250.0):
            cells = _printed(capsys, "bessel-zero", "--nu", repr(nu))
            _, zero, _, lo, hi = rows[nu]
            assert [zero.hex(), lo.hex(), hi.hex()] == [
                _hex(cells[c]) for c in ("first_zero", "enclosure_lower", "enclosure_upper")], nu

    def test_bessel_half_orders_read_the_grid_rows(self, monkeypatch):
        # a zero moved off pi/2 and pi, inside its enclosure, fails the
        # half-order checks with the same texts as before
        real = cli._bessel_row

        def moved(nu, tol):
            row = real(nu, tol)
            return (row[0], row[1] + 1e-9, *row[2:]) if nu in (0.5, -0.5) else row

        monkeypatch.setattr(cli, "_bessel_row", moved)
        assert cli.verify_bessel() == ["nu=0.5: half-integer zero off",
                                       "nu=-0.5: half-integer zero off"]


def _env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def loaded_after_cli_import(*names):
    """Which of ``names`` a fresh interpreter holds after importing the CLI."""
    probe = f"import sys, markov_laguerre.cli; print(sorted(set({names!r}) & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# One valid command line per subcommand.
VALID_ARGV = {
    "constant": ["constant", "--alpha", "0.5", "--n", "10"],
    "bounds": ["bounds", "--alpha", "2.5", "--n", "40", "--format", "json"],
    "sweep": ["sweep", "--alpha-min", "-0.9", "--n-list", "3..10", "--jobs", "1"],
    "verify": ["verify", "--mode", "coeffs"],
    "bessel-zero": ["bessel-zero", "--nu", "0.5", "--tol", "1e-8"],
    "figure1": ["figure1", "--alpha-max", "5", "--format", "json"],
}

# Command lines that argparse answers itself: help, or a usage error.
PARSER_EXITS = [
    [],
    ["frob"],
    ["--help"],
    ["--tol", "1", "constant"],
    *([name, "--help"] for name in VALID_ARGV),
    ["constant", "--alpha", "1", "--n", "3", "extra"],
    ["verify", "--mode", "coeffs", "constant"],
    ["constant", "--alpha", "x", "--n", "3"],
    ["verify", "--mode", "frob"],
    ["sweep", "--n-list", "3", "--jobs", "x"],
    ["bessel-zero"],
    ["bounds", "--n", "3"],
]


def _subparsers(parser) -> dict:
    """The subcommand parsers that ``parser`` holds, by name, in order."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _exit_of(capsys, parse, argv):
    """(exit code, stdout, stderr) of ``parse(argv)``, which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestParser:
    def test_the_full_parser_has_every_subcommand(self):
        assert list(_subparsers(cli.build_parser())) == list(VALID_ARGV)

    @pytest.mark.parametrize("name", list(VALID_ARGV))
    def test_one_command_parses_as_the_full_parser(self, name):
        full, one = cli.build_parser(), cli.build_parser(name)
        assert list(_subparsers(one)) == [name]
        assert one.parse_args(VALID_ARGV[name]) == full.parse_args(VALID_ARGV[name])
        assert _subparsers(one)[name].format_help() == _subparsers(full)[name].format_help()
        assert one.format_usage() == full.format_usage()

    @pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
    def test_main_prints_what_the_full_parser_prints(self, capsys, argv):
        want = _exit_of(capsys, cli.build_parser().parse_args, argv)
        assert _exit_of(capsys, main, argv) == want
        assert want[0] in (0, 2)

    def test_main_builds_the_invoked_subcommand_only(self, capsys, monkeypatch):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def recording(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
        code, out, _ = run_cli(capsys, "verify", "--mode", "coeffs")
        assert code == 0 and out.startswith("PASS ")
        assert built == ["verify"]


def test_closed_pipe_ends_quietly():
    # The reader leaves after one line, as ``sweep ... | head -1`` does; the
    # output is far past a pipe's buffer, so a later write meets the closed
    # pipe.
    argv = ["sweep", "--alpha-min", "0", "--alpha-max", "25", "--alpha-step", "0.05",
            "--n-list", "3..10", "--jobs", "1"]
    proc = subprocess.Popen([sys.executable, "-m", "markov_laguerre.cli", *argv],
                            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().startswith(b"alpha,n,")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_bessel_does_not_import_bounds():
    # The package's __init__ imports every layer, so the probe stands in an
    # empty package for it and imports the bessel layer alone.
    src = Path(__file__).resolve().parent.parent / "src" / "markov_laguerre"
    probe = ("import sys, types; pkg = types.ModuleType('markov_laguerre'); "
             f"pkg.__path__ = [{str(src)!r}]; sys.modules['markov_laguerre'] = pkg; "
             "import markov_laguerre.bessel; print('markov_laguerre.bounds' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], env=_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_the_process_pool_unloaded():
    # only a sweep with more than one job imports it
    assert loaded_after_cli_import("concurrent.futures.process", "multiprocessing") == "[]"


def test_cli_import_leaves_numpy_unloaded():
    assert loaded_after_cli_import("numpy") == "[]"


def test_cli_import_leaves_json_unloaded():
    # only JSON output imports it
    assert loaded_after_cli_import("json") == "[]"


@pytest.mark.parametrize("module", ["logging", "dataclasses", "inspect", "ast", "dis"])
def test_cli_import_leaves_unused_stdlib_unloaded(module):
    # The package uses none of them: its records are NamedTuples and it has
    # no logging layer.  dataclasses alone would load inspect, ast and dis.
    assert loaded_after_cli_import(module) == "[]"
