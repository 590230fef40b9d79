"""The README's library example runs and gives the values its comments
state, and the names that README and the package's docstrings and comments
cite exist.

It needs no test dependency, so interpreters without pytest run it as a
script: ``PYTHONPATH=src python tests/test_readme.py``.
"""

import importlib
import re
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "markov_laguerre"

# A name in single or double backticks, such as `bounds._rows` or ``_emit``.
BACKTICKED = re.compile(r"`+([A-Za-z_][\w.]*)`+")


def library_example() -> str:
    """The ```python block under the README's "Library example" heading."""
    section = README.read_text().split("\n## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_gives_the_values_in_its_comments():
    names = {}
    exec(library_example(), names)
    assert names["c"] == 6.690744999827386
    assert round(names["lo"], 2) == 39.33 and round(names["hi"], 2) == 46.39
    assert names["lo"] < names["c"] ** 2 < names["hi"] and names["ok"]
    assert names["b"] == (10, 15, 7)
    assert all(isinstance(x, Fraction) for x in names["b"])
    gaps = names["lower_gap"], names["upper_gap"]
    assert all(isinstance(gap, Fraction) and gap >= 0 for gap in gaps)


def stale_names() -> list[str]:
    """The backticked names in README.md and in the package's sources
    that name nothing: a ``module.name`` whose module is one of the
    package's and that is no attribute chain of it, or a ``_name`` that no
    module of the package has.  File names such as ``eigen.py`` and ranges
    such as ``b1..b3`` are not names."""
    modules = {path.stem: importlib.import_module(f"markov_laguerre.{path.stem}")
               for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    modules["markov_laguerre"] = importlib.import_module("markov_laguerre")
    stale = []
    for path in [README, *sorted(PACKAGE.glob("*.py"))]:
        for name in BACKTICKED.findall(path.read_text()):
            head, *rest = name.split(".")
            if ".." in name or name.endswith(".py"):
                continue
            if head in modules:
                found = _has_chain(modules[head], rest)
            elif head.startswith("_"):
                found = any(_has_chain(module, [head, *rest]) for module in modules.values())
            else:  # a public name, or another module's, such as csv.writer
                continue
            if not found:
                stale.append(f"{path.name}: {name}")
    return stale


def _has_chain(obj, names) -> bool:
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_the_cited_names_exist():
    assert stale_names() == []


if __name__ == "__main__":
    test_library_example_gives_the_values_in_its_comments()
    test_the_cited_names_exist()
