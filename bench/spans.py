"""Span tracing of the package's layers, applied from outside the package.

``Tracer.install`` replaces each public function of the five layer modules
with a wrapper that records one span per call, and rebinds the wrapper at
every module of the package that holds the original by name: the defining
module (so internal calls are seen), modules that ``from .x import f`` it,
and the package ``__init__`` re-exports.  ``uninstall`` puts the originals
back.  A generator function is timed over each resumption of its iteration,
not its creation, so the consumer's loop body is not charged to it.

Spans live in flat arrays in memory -- name, start, end, parent and op id --
and are written out once, by ``write``, when the run ends.  A span's self
time is its duration minus the durations of its direct children; calls are
strictly nested in one thread, so the self times of a tree sum to its root.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

LAYER_FUNCTIONS = {
    "recurrence": ("recurrence_coeffs", "qn_coefficient_rows", "coeff_a0", "coeff_a1",
                   "coeff_a2", "coeff_a3", "reciprocal_b123"),
    "eigen": ("build_jacobi", "smallest_eigenvalue", "largest_eigenvalue",
              "markov_constant", "sturm_count"),
    "bounds": None,  # every function in bounds.__all__
    "bessel": ("asymptotic_constant", "first_zero", "bessel_j"),
    "cli": ("main", "sweep_row"),
}
LAYERS = tuple(LAYER_FUNCTIONS)
PACKAGE = "markov_laguerre"
ROOT = "bench.op"


def _is_exact(args, kwargs) -> bool:
    alpha = args[0] if args else kwargs.get("alpha")
    alpha = getattr(alpha, "value", alpha)  # unwrap a WeightAlpha
    return isinstance(alpha, (int, Fraction)) and not isinstance(alpha, bool)


class Tracer:
    """Span recorder for the layers of the imported package."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self.layer_of: list[str] = ["bench"]
        self.name_ = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: Counter = Counter()
        self.current = -1
        self.ops = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}

    # -- recording ---------------------------------------------------------

    def _open(self, name_idx: int, op_id: int) -> int:
        idx = len(self.t0)
        self.name_.append(name_idx)
        self.parent.append(self.current)
        self.op.append(op_id)
        self.t1.append(0.0)
        self.t0.append(perf_counter())
        self.current = idx
        return idx

    def _op_id(self) -> int:
        return self.op[self.current] if self.current >= 0 else -1

    def _close(self, idx: int) -> None:
        self.t1[idx] = perf_counter()
        self.current = self.parent[idx]

    @contextlib.contextmanager
    def op_span(self):
        """Root span of one benchmark operation, with the next op id; the
        spans recorded inside it share that id."""
        self.ops += 1
        idx = self._open(0, self.ops)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, layer: str):
        name_idx = len(self.names)
        self.names.append(f"{layer}.{fn.__name__}")
        self.layer_of.append(layer)
        counts = self.counts
        calls_key = f"{layer}.calls"
        count_exact = layer == "recurrence"
        count_steps = fn.__name__ in ("smallest_eigenvalue", "largest_eigenvalue")
        extra_key = {"first_zero": "bessel.zeros", "bessel_j": "bessel.j_evals"}.get(fn.__name__)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[calls_key] += 1
                if count_exact and _is_exact(args, kwargs):
                    counts["recurrence.exact_calls"] += 1
                return tracer._resumed(fn(*args, **kwargs), name_idx)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[calls_key] += 1
                if count_exact and _is_exact(args, kwargs):
                    counts["recurrence.exact_calls"] += 1
                if extra_key:
                    counts[extra_key] += 1
                idx = tracer._open(name_idx, tracer._op_id())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if count_steps:
                    counts["eigen.bisect_steps"] += result.iterations
                return result

        return wrapper

    def _resumed(self, gen, name_idx: int):
        while True:
            idx = self._open(name_idx, self._op_id())
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx)
            yield item

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            for layer, names in LAYER_FUNCTIONS.items():
                module = sys.modules[f"{PACKAGE}.{layer}"]
                if names is None:
                    names = [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]
                for fname in names:
                    fn = getattr(module, fname)
                    self._wrappers[id(fn)] = (fn, self._wrap(fn, layer))
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reading -----------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to summarise from: span count and a copy of the counters."""
        return len(self.t0), Counter(self.counts)

    def summary(self, since: tuple[int, Counter]) -> dict:
        """Self seconds per layer, root seconds and counters since ``since``.

        ``bench.self_s`` is the time inside root spans that no layer span
        covers, so the layer self times plus it equal ``root_s``."""
        start, counts0 = since
        end = len(self.t0)
        child = [0.0] * (end - start)
        for i in range(start, end):
            p = self.parent[i]
            if p >= start:
                child[p - start] += self.t1[i] - self.t0[i]
        self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
        root = 0.0
        for i in range(start, end):
            dur = self.t1[i] - self.t0[i]
            self_s[self.layer_of[self.name_[i]]] += dur - child[i - start]
            if self.parent[i] < start:
                root += dur
        counts = Counter(self.counts)
        counts.subtract(counts0)
        return {"self_s": self_s, "root_s": root, "counts": dict(counts),
                "spans": end - start}

    def write(self, path, workload: str) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tname\tparent\tworkload\top\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.t0)):
                f.write(f"{i}\t{names[self.name_[i]]}\t{self.parent[i]}\t{workload}\t"
                        f"{self.op[i]}\t{self.t0[i]:.9f}\t{self.t1[i]:.9f}\n")
