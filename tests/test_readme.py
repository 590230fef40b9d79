"""The README's library example runs and gives the values its comments state.

It needs no test dependency, so interpreters without pytest run it as a
script: ``PYTHONPATH=src python tests/test_readme.py``.
"""

from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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


if __name__ == "__main__":
    test_library_example_gives_the_values_in_its_comments()
