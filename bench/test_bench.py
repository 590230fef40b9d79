"""Tests of the benchmark itself, at toy sizes.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import markov_laguerre as pkg
import markov_laguerre.cli as cli
from markov_laguerre import bounds, eigen, recurrence

import spans
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy_point(seed=3):
    return workloads.Point(pkg, cli, seed, ladder=(200,), rounds=2, size=4, n_range=(20, 60))


def toy_sweep(seed=3):
    return workloads.Sweep(pkg, cli, seed, alpha_max=0.1, n_list="3..4", ladder=(200,))


def toy_verify(modes=("bessel",)):
    return workloads.Verify(pkg, cli, 0, modes=modes, ladder=(200,))


@pytest.mark.parametrize("make", [toy_point, toy_sweep, toy_verify])
def test_workload_runs_clean_at_toy_size(make):
    wl = make()
    probe_ops, rel_err = wl.probe()
    assert [op.error for op in probe_ops] == [None] * len(probe_ops)
    assert 0 < rel_err < 1e-8
    for in_process in (False, True):
        ops = wl.round(0, in_process=in_process)
        assert ops and all(op.error is None and op.seconds > 0 for op in ops)


def test_sweep_round_emits_the_whole_grid():
    wl = toy_sweep()
    alphas, ns = wl.grid
    assert len(alphas) in (20, 21) and ns == [3, 4]
    assert wl.round(0)[0].rows == len(alphas) * len(ns)


def test_point_inputs_stay_in_range_and_strata():
    rounds = workloads.point_rounds(5, rounds=3, size=20)
    for reqs in rounds:
        ns = sorted(n for _, n in reqs)
        assert 500 <= ns[0] and ns[-1] <= 20000
        assert all(-1 < a <= 100 for a, _ in reqs)
        assert ns[9] <= 3162 <= ns[10]  # sqrt(500 * 20000), the middle stratum edge


def test_inputs_depend_on_the_seed_only():
    for make in (toy_point, toy_sweep):
        same = workloads.fingerprint(make(7).inputs())
        assert same == workloads.fingerprint(make(7).inputs())
        assert same != workloads.fingerprint(make(8).inputs())


def test_constant_outside_the_enclosure_is_a_failure():
    c = pkg.markov_constant(0.0, 10)
    check = (pkg.dorfler_bounds, pkg.refined_bounds)
    assert workloads.check_point(0.0, 10, c, *check) is None
    for bad in (c * 1.5, c * 0.5, float("nan"), -c, None):
        assert workloads.check_point(0.0, 10, bad, *check) is not None


def test_constant_past_the_refined_bound_only_is_a_failure():
    # Near alpha = -1 at large n the refined sandwich is far narrower than the
    # classical enclosure; the true c^2 here is 865041420 (from LAPACK).
    alpha, n = -0.9399739313930837, 10266
    check = (pkg.dorfler_bounds, pkg.refined_bounds)
    assert workloads.check_point(alpha, n, 865041420.0 ** 0.5, *check) is None
    r, d = pkg.refined_bounds(alpha, n), pkg.dorfler_bounds(alpha, n)
    # Past the bound, but by less than the solver's guaranteed half-width.
    near = r.upper * (1 + 1e-9)
    assert workloads.check_point(alpha, n, near ** 0.5, *check) is None
    # Past the bound by more than that half-width.
    lam = 1 / r.upper
    above = 1 / (lam - workloads.SOLVE_TOL * max(1.0, lam))
    assert r.lower_valid and d.lower <= above <= d.upper
    assert "misses refined" in workloads.check_point(alpha, n, above ** 0.5, *check)


def test_missing_or_flagged_sweep_row_is_a_failure():
    wl = toy_sweep()
    code, text = workloads.run_cli(cli, wl.argv)
    assert code == 0
    assert workloads.parse_sweep(text, *wl.grid)[1] == []
    lines = text.splitlines(keepends=True)
    missing = "".join(lines[:5] + lines[6:])
    assert any("rows" in e for e in workloads.parse_sweep(missing, *wl.grid)[1])
    flagged = "".join(lines[:3] + [lines[3].replace(",false\n", ",true\n")] + lines[4:])
    assert any("sandwich_violation" in e for e in workloads.parse_sweep(flagged, *wl.grid)[1])
    garbled = text.replace(lines[2].split(",")[2], "x", 1)
    assert workloads.parse_sweep(garbled, *wl.grid)[1]


def test_failing_suite_is_a_failure():
    class FailingCli:
        @staticmethod
        def main(argv):
            print("FAIL coefficient closed forms: 1 violation(s)")
            return 1

    ops = workloads.Verify(pkg, FailingCli, 0, modes=("coeffs",)).round(0)
    assert len(ops) == 1 and "exit code 1" in ops[0].error
    assert workloads.check_suite(0, "note: x\nPASS y\n") is None
    assert workloads.check_suite(0, "") is not None


def test_tracer_rebinds_every_name_and_restores_them():
    originals = (eigen.build_jacobi, cli.build_jacobi, bounds.build_jacobi,
                 pkg.build_jacobi, recurrence.coeff_a0, cli.coeff_a0, bounds.reciprocal_b123)
    tracer = spans.Tracer()
    with tracer:
        assert eigen.build_jacobi is cli.build_jacobi is bounds.build_jacobi is pkg.build_jacobi
        assert eigen.build_jacobi is not originals[0]
        assert cli.coeff_a0 is recurrence.coeff_a0 is not originals[4]
        assert bounds.reciprocal_b123 is not originals[6]
    assert (eigen.build_jacobi, cli.build_jacobi, bounds.build_jacobi, pkg.build_jacobi,
            recurrence.coeff_a0, cli.coeff_a0, bounds.reciprocal_b123) == originals


def test_generator_is_timed_over_its_iteration_only():
    tracer = spans.Tracer()
    mark = tracer.mark()
    with tracer, tracer.op_span():
        for _ in recurrence.qn_coefficient_rows(Fraction(1), 4, recurrence.RATIONAL):
            time.sleep(0.01)
    summary = tracer.summary(mark)
    assert summary["counts"] == {"recurrence.calls": 1, "recurrence.exact_calls": 1}
    assert summary["spans"] == 1 + 6  # the root, five rows and the final resume
    assert summary["self_s"]["recurrence"] < 0.01 <= summary["self_s"]["bench"] / 5


@pytest.mark.parametrize("make", [toy_point, toy_sweep, lambda: toy_verify(("coeffs", "bessel"))])
def test_layer_self_times_sum_to_the_root_span(make):
    wl = make()
    tracer = spans.Tracer()
    mark = tracer.mark()
    wl.span = tracer.op_span
    with tracer:
        ops = wl.round(0, in_process=True)
    summary = tracer.summary(mark)
    assert all(op.error is None for op in ops)
    assert sum(summary["self_s"].values()) == pytest.approx(summary["root_s"], rel=1e-9)
    assert all(v >= 0 for v in summary["self_s"].values())
    assert summary["root_s"] <= sum(op.seconds for op in ops)


def test_point_touches_no_bessel_bounds_or_cli_and_verify_runs_exact():
    tracer = spans.Tracer()
    wl = toy_point()
    wl.span = tracer.op_span
    mark = tracer.mark()
    with tracer:
        wl.round(0)
    counts = tracer.summary(mark)["counts"]
    assert counts["eigen.calls"] == 3 * 4 and counts["eigen.bisect_steps"] > 0
    assert not any(counts.get(k) for k in ("bessel.calls", "bounds.calls", "cli.calls"))
    wl = toy_verify(("coeffs",))
    wl.span = tracer.op_span
    mark = tracer.mark()
    with tracer:
        wl.round(0)
    assert tracer.summary(mark)["counts"]["recurrence.exact_calls"] > 0


def test_worker_reports_every_metric_of_the_spec(tmp_path):
    wl = toy_sweep()
    timed = worker.timed_run(wl, 0)
    assert timed["failed"] == 0
    assert {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"} == set(timed["metrics"])
    traced = worker.traced_run(wl, spans.Tracer(), pkg, cli, 0)
    assert traced["failed"] == 0 and traced["info"]["counts_repeat"]
    metrics = traced["metrics"]
    assert {m["name"] for m in SPEC["per_layer"]} == set(metrics)
    self_s = [metrics[f"{layer}.self_s"] for layer in spans.LAYERS + ("bench",)]
    assert sum(self_s) == pytest.approx(metrics["trace.root_s"], rel=1e-9)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
