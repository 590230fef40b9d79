"""Run one benchmark workload in this interpreter; print its raw result.

``run.py`` starts this script in a fresh interpreter with the package's
``src`` directory on PYTHONPATH:

    python3 bench/worker.py --workload point --seed 1 --seconds 35 --trace 0 --out DIR

The last line of standard output is one JSON object with ``attempted``,
``failed``, ``errors``, ``metrics`` and ``info``.  With ``--trace 0`` the
metrics are the end-to-end ones measured here (``setup_s`` is measured by
``run.py``); with ``--trace 1`` they are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import reference
import spans
import workloads

LADDER_SOLVE_N = (100, 1000, 4096, 20000)
LADDER_MIN_SECONDS = 0.25
LADDER_MIN_REPS = 5


def environment(wl, seed: int) -> dict:
    """Seed, input fingerprint and the machine facts a result depends on."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": wl.name,
        "seed": seed,
        "inputs_sha256": workloads.fingerprint(wl.inputs()),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _outcome(ops) -> dict:
    """Ops attempted and failed, with the first few errors."""
    errors = [op.error for op in ops if op.error]
    return {"attempted": len(ops), "failed": len(errors), "errors": errors[:5]}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (a
    sweep pool worker), in MiB.  Linux reports ru_maxrss in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def timed_run(wl, seconds: float) -> dict:
    """The accuracy probe, then rounds until ``seconds`` have passed (at
    least two), with a reference-kernel timing before and after each round.

    Times cover the program's calls, not the output checks, and are scaled
    to the nominal machine of ``reference``; the unscaled figures go to
    ``info``."""
    probe_ops, rel_err = wl.probe()
    rounds: list[list[workloads.Op]] = []
    refs = [reference.pass_seconds()]
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        rounds.append(wl.round(len(rounds)))
        refs.append(reference.pass_seconds())
    scales = [reference.scale(a, b) for a, b in zip(refs, refs[1:])]
    raw_work = [sum(op.seconds for op in ops) for ops in rounds]
    work = [w * k for w, k in zip(raw_work, scales)]
    latencies = [op.seconds * k for ops, k in zip(rounds, scales) for op in ops]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        **_outcome(probe_ops + [op for ops in rounds for op in ops]),
        "metrics": {
            "wall_s": statistics.median(work),
            "latency_p50_ms": deciles[4] * 1e3,
            "latency_p90_ms": deciles[8] * 1e3,
            "rows_per_s": statistics.median(
                sum(op.rows for op in ops) / w for ops, w in zip(rounds, work)),
            "rel_err_max": rel_err,
            "peak_rss_mb": peak_rss_mb(),
        },
        "info": {
            "rounds": len(rounds),
            "latency_samples": len(latencies),
            "raw_wall_s": statistics.median(raw_work),
            "machine_scale": statistics.median(scales),
        },
    }


def _median_ms(fn, *args) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < LADDER_MIN_REPS or time.perf_counter() - start < LADDER_MIN_SECONDS:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def layer_ladder(pkg, cli) -> dict:
    """Single-layer timings and accuracy at fixed sizes, untraced."""
    m = {}
    for n in LADDER_SOLVE_N:
        m[f"eigen.solve_ms.n{n}"] = _median_ms(pkg.markov_constant, 0.5, n)
    for n in LADDER_SOLVE_N:
        c = pkg.markov_constant(0.0, n)
        m[f"eigen.rel_err.n{n}"] = abs(c - workloads.turan(n)) / workloads.turan(n)
    jacobi = pkg.build_jacobi(0.5, 4096)
    m["eigen.sturm_pass_ms.n4096"] = _median_ms(pkg.sturm_count, jacobi, 1e-3)
    m["recurrence.build_ms.n4096"] = _median_ms(pkg.recurrence_coeffs, 0.5, 4096)
    m["bounds.row_ms.n50"] = _median_ms(cli.sweep_row, 2.0, 50, 1e-13)
    m["bessel.zero_ms.a0.5"] = _median_ms(pkg.asymptotic_constant, 0.5)
    return m


def _pass(wl) -> list[workloads.Op]:
    return [op for r in range(wl.pass_rounds) for op in wl.round(r, in_process=True)]


def traced_run(wl, tracer: spans.Tracer, pkg, cli, seconds: float) -> dict:
    """The layer ladder, then pairs of one untraced and one traced pass of
    the same ops until ``seconds`` have passed.  Per-layer times come from
    the traced pass with the median root time, so that they sum to it;
    counts repeat in every pass."""
    metrics = layer_ladder(pkg, cli)
    plain_walls, summaries, ops = [], [], []
    start = time.perf_counter()
    while not summaries or time.perf_counter() - start < seconds:
        plain = _pass(wl)
        plain_walls.append(sum(op.seconds for op in plain))
        mark = tracer.mark()
        wl.span = tracer.op_span
        with tracer:
            traced = _pass(wl)
        wl.span = workloads.Workload.span
        summary = tracer.summary(mark)
        summary["wall_s"] = sum(op.seconds for op in traced)
        summaries.append(summary)
        ops += plain + traced
    mid = sorted(summaries, key=lambda s: s["root_s"])[(len(summaries) - 1) // 2]
    for layer in spans.LAYERS + ("bench",):
        metrics[f"{layer}.self_s"] = mid["self_s"][layer]
    for key in ("eigen.calls", "eigen.bisect_steps", "recurrence.calls",
                "recurrence.exact_calls", "bounds.calls", "bessel.calls", "bessel.zeros",
                "bessel.j_evals", "cli.calls"):
        metrics[key] = mid["counts"].get(key, 0)
    metrics["trace.root_s"] = mid["root_s"]
    metrics["trace.spans"] = mid["spans"]
    metrics["trace.overhead_frac"] = (
        statistics.median(s["wall_s"] for s in summaries) / statistics.median(plain_walls) - 1)
    return {
        **_outcome(ops),
        "metrics": metrics,
        "info": {
            "passes": len(summaries),
            "counts_repeat": all(s["counts"] == mid["counts"] for s in summaries),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import markov_laguerre as pkg
    import markov_laguerre.cli as cli

    wl = workloads.WORKLOADS[args.workload](pkg, cli, args.seed)
    info = environment(wl, args.seed)
    if args.trace:
        tracer = spans.Tracer()
        result = traced_run(wl, tracer, pkg, cli, args.seconds)
        path = args.out / f"spans-{wl.name}-s{args.seed}.tsv.gz"
        tracer.write(path, wl.name)
        info["spans_file"] = str(path)
    else:
        result = timed_run(wl, args.seconds)
    result["info"] = {**info, **result["info"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
