import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from markov_laguerre import bessel, bounds, cli
from markov_laguerre.cli import SWEEP_COLUMNS, VERIFY_MODES, _parse_n_list, main

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

    def test_unknown_mode_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mode", "everything"])
        assert exc.value.code == 2


class TestLogging:
    def test_env_var_sets_level(self, capsys, monkeypatch):
        monkeypatch.setenv("MARKOV_LAGUERRE_LOG", "debug")
        code, _, _ = run_cli(capsys, "constant", "--alpha", "0", "--n", "2")
        assert code == 0


def test_cli_import_leaves_numpy_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, markov_laguerre.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
