import concurrent.futures
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_laguerre import bessel, bounds, cli
from markov_laguerre.cli import SWEEP_COLUMNS, VERIFY_MODES, _parse_n_list, main, sweep_row
from markov_laguerre.eigen import build_jacobi, smallest_eigenvalue

_coeff_a0 = cli.coeff_a0
_asymptotic_constant = bessel.asymptotic_constant
_lower_gap_values = bounds._lower_gap_values

# One wrong input per verify suite, as (module, attribute, replacement).
BROKEN_INPUTS = {
    "coeffs": (cli, "coeff_a0", lambda a, n: 2 * _coeff_a0(a, n)),
    "sandwich": (bounds, "dorfler_bounds", lambda a, n: bounds.BoundPair(0.0, 0.0)),
    "asymptotic": (
        bessel, "asymptotic_constant", lambda a, tol=1e-13: 1.1 * _asymptotic_constant(a, tol)
    ),
    "bessel": (bounds, "bessel_zero_enclosure", lambda nu: bounds.BoundPair(0.0, 1e-3)),
    "identities": (bounds, "_lower_gap_values", lambda a: (-1,) + _lower_gap_values(a)[1:]),
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


def sweep_tasks(argv):
    """The (alpha, n, tol) grid that ``sweep`` with ``argv`` computes, in order."""
    args = cli.build_parser().parse_args(["sweep", *argv])
    alphas = [args.alpha] if args.alpha is not None else cli._grid(
        args.alpha_min, args.alpha_max, args.alpha_step)
    return [(a, n, args.tol) for a in sorted(alphas) for n in sorted(_parse_n_list(args.n_list))]


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of each process pool the CLI starts; the pools are real."""
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.fixture
def fake_pool_sizes(monkeypatch):
    """max_workers of each process pool the CLI asks for; none is started,
    the pool's map is the builtin one."""
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
        rows = [sweep_row(*t) for t in sweep_tasks(SMALL_GRID)]
        assert out == reference_document(rows, SWEEP_COLUMNS, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("alpha, n", [("0", "3"), ("2.5", "40"), ("2003", "1")])
    def test_bounds(self, capsys, fmt, alpha, n):
        code, out, _ = run_cli(capsys, "bounds", "--alpha", alpha, "--n", n, "--format", fmt)
        assert code == 0
        row = sweep_row(float(alpha), int(n), 1e-13)
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
        rows = [sweep_row(*t) for t in sweep_tasks(CHUNKED_GRID)]
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

    def test_default_jobs_are_capped_too(self, capsys, monkeypatch, fake_pool_sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        code, _, _ = run_cli(capsys, "sweep", "--alpha", "0", "--n-list", "3,4")
        assert code == 0 and fake_pool_sizes == [2]

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
    parsed = _parsed_rows(_document(rows, fmt), fmt)
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
        # The suite compares cross-multiplied integers; a failure still
        # prints both sides as Fractions.
        real = cli.reciprocal_b123

        def perturbed(a, n):
            b1, b2, b3 = real(a, n)
            return (b1 + 1, b2, b3) if (a, n) == (F(1, 3), 5) else (b1, b2, b3)

        monkeypatch.setattr(cli, "reciprocal_b123", perturbed)
        assert cli.verify_coeffs() == ["alpha=1/3 n=5 k=1: 1820/81 != 17836/729"]

    def test_identities_failure_names_the_pair(self, monkeypatch):
        real = bounds.residual_sandwich_check

        def perturbed(a, n):
            lower, upper = real(a, n)
            return (-lower, upper) if (a, n) == (F(5), 40) else (lower, upper)

        monkeypatch.setattr(bounds, "residual_sandwich_check", perturbed)
        assert cli.verify_identities() == ["alpha=5 n=40: residual negative"]

    def test_unknown_mode_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mode", "everything"])
        assert exc.value.code == 2


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


def test_cli_import_leaves_the_process_pool_unloaded():
    # only a sweep with more than one job imports it
    assert loaded_after_cli_import("concurrent.futures.process", "multiprocessing") == "[]"


def test_cli_import_leaves_numpy_unloaded():
    assert loaded_after_cli_import("numpy") == "[]"


@pytest.mark.parametrize("module", ["logging", "dataclasses", "inspect", "ast", "dis"])
def test_cli_import_leaves_unused_stdlib_unloaded(module):
    # The package uses none of them: its records are NamedTuples and it has
    # no logging layer.  dataclasses alone would load inspect, ast and dis.
    assert loaded_after_cli_import(module) == "[]"
