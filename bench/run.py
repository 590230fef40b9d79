"""Benchmark runner for markov-laguerre.

Run from the root of a source checkout:

    python3 bench/run.py --workload point --seed 1 --seconds 35 --trace 0

Each workload runs in a fresh interpreter (``bench/worker.py``) with
``src`` on PYTHONPATH, so no installed package is needed.  With
``--trace 0`` it first times the import of ``markov_laguerre.cli``
in several more fresh interpreters (``setup_s``) and reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics of
a traced run.  Metric names and units come from ``BENCHMARK.json``.

The report goes to standard output, one metric a line with its unit; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--workload all`` runs every workload in turn and ends
with one combined object whose metric names carry the workload as prefix.
The full record of each run, with the input fingerprint and environment,
is written under ``.bench_out/``.  Exit status is 0 when a result was
printed, 1 when a run broke, 2 when the checkout has no package source.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("point", "sweep", "verify")
SETUP_REPEATS = 7
# Each run must end within 180 s; keep a margin for the report.
RUN_BUDGET_S = 170.0
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import markov_laguerre.cli; "
    "print(time.perf_counter() - t)"
)


class RunError(Exception):
    """A run that produced no usable result."""


def _run(cmd, env, root: Path, deadline: float) -> str:
    """Run cmd to completion in its own process group; return its stdout.

    On timeout the whole group (a sweep's pool workers too) is killed and
    reaped before RunError is raised."""
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"{cmd[1]} timed out") from None
    if proc.returncode != 0:
        raise RunError(f"{' '.join(map(str, cmd[1:3]))} exited {proc.returncode}:\n{err[-2000:]}")
    return out


def setup_seconds(env, root: Path, deadline: float) -> tuple[float, list[float]]:
    """Median import time of the CLI module over fresh interpreters, after
    one warm-up import that also compiles the bytecode.

    Unlike the other times it is not scaled by the reference kernel: a
    kernel timed in a fresh interpreter is itself cold, and one timed here
    tracked the import poorly."""
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    _run(cmd, env, root, deadline)
    samples = [float(_run(cmd, env, root, deadline)) for _ in range(SETUP_REPEATS)]
    return statistics.median(samples), samples


def run_workload(workload: str, args, spec: dict, env, root: Path, out_dir: Path) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    metrics = {}
    setup_samples = None
    if not args.trace:
        metrics["setup_s"], setup_samples = setup_seconds(env, root, deadline)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir)]
    lines = _run(cmd, env, root, deadline).strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise RunError(f"worker printed no result: {exc}") from None
    metrics.update(raw["metrics"])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RunError(f"{workload}: metrics not measured: {missing}")
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    record = {
        "workload": workload,
        "correct": raw["failed"] == 0 and not bad,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "errors": raw["errors"] + [f"{k} is not finite" for k in bad],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        "info": {**raw["info"], "setup_samples_s": setup_samples},
    }
    path = out_dir / f"result-{workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return record


def report(record: dict) -> None:
    info = record["info"]
    print(f"== {record['workload']}  seed={info['seed']}  inputs={info['inputs_sha256']}  "
          f"nproc={info['nproc']}  cpu_count={info['cpu_count']}  "
          f"python={info['python']}  numpy={info['numpy']}")
    for name, m in record["metrics"].items():
        print(f"  {name:28s} {m['value']:<24.6g} {m['unit']}")
    extra = {k: v for k, v in info.items()
             if k in ("rounds", "latency_samples", "passes", "counts_repeat", "spans_file")}
    print(f"  attempted={record['attempted']} failed={record['failed']} "
          + " ".join(f"{k}={v}" for k, v in extra.items()))
    for error in record["errors"]:
        print(f"  FAIL {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="markov-laguerre benchmark runner")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "markov_laguerre" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a markov-laguerre checkout "
              "(src/markov_laguerre and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args, spec, env, root, out_dir) for w in names]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        report(record)
    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}." if prefix else "") + k: v
                    for r in records for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
