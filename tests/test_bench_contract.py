"""The names the benchmark harness under ``bench/`` takes from the package.

``bench/spans.py`` traces the functions its ``LAYER_FUNCTIONS`` lists,
``bench/worker.py`` and ``bench/workloads.py`` call package and CLI
attributes by name, and ``bench/test_bench.py`` takes names from the package
and its modules.  A name that left the package would break a traced or
timed run, or the benchmark's own tests, without failing any other test.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import markov_laguerre as pkg
from markov_laguerre import bounds, cli, eigen, recurrence

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def harness_attributes(filename, owners=("pkg", "cli")):
    """(owner, name) for each ``owner.name`` and ``self.owner.name`` in a
    harness file, for the owner names in ``owners``."""
    found = set()
    for node in ast.walk(ast.parse((BENCH / filename).read_text())):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name) \
                and owner.value.id == "self":
            owner_name = owner.attr
        elif isinstance(owner, ast.Name):
            owner_name = owner.id
        else:
            continue
        if owner_name in owners:
            found.add((owner_name, node.attr))
    return found


def test_traced_layer_functions_exist():
    spans = load_spans()
    assert set(spans.LAYER_FUNCTIONS) == {"recurrence", "eigen", "bounds", "bessel", "cli"}
    for layer, names in spans.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"{spans.PACKAGE}.{layer}")
        if names is None:
            # every name in __all__, of which the tracer takes the functions
            assert all(hasattr(module, name) for name in module.__all__), layer
            names = [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]
            assert names, layer
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{layer}.{name}"


def test_names_the_harness_calls_exist():
    owners = {"pkg": pkg, "cli": cli}
    found = harness_attributes("worker.py") | harness_attributes("workloads.py")
    assert {("pkg", "markov_constant"), ("cli", "main"), ("cli", "sweep_row")} <= found
    for owner, name in sorted(found):
        assert hasattr(owners[owner], name), f"{owner}.{name}"


def test_names_the_benchmark_tests_take_exist():
    owners = {"pkg": pkg, "cli": cli, "recurrence": recurrence, "bounds": bounds,
              "eigen": eigen}
    found = harness_attributes("test_bench.py", tuple(owners))
    assert {("cli", "coeff_a0"), ("recurrence", "qn_coefficient_rows"),
            ("recurrence", "RATIONAL"), ("bounds", "reciprocal_b123")} <= found
    for owner, name in sorted(found):
        assert hasattr(owners[owner], name), f"{owner}.{name}"


def test_sweep_with_one_job_parses():
    args = cli.build_parser().parse_args(
        ["sweep", "--alpha-min", "-0.9", "--alpha-max", "50.0", "--alpha-step", "0.05",
         "--n-list", "3..10", "--jobs", "1"])
    assert args.command == "sweep" and args.jobs == 1
