"""The sites and mutants of ``tools/mutate.py``, on a small module.

The script is loaded by path; no test run is started.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "mutate", Path(__file__).resolve().parent.parent / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutate)

MODULE = """\
def f(x):
    if x < 0:
        return x + 1
    return x * 2 == 0.5
"""
# (line, description) of every site, in ast.walk order
SITES = [(2, "< -> <="), (4, "== -> !="), (2, "0 -> 1"), (3, "+ -> -"),
         (4, "* -> /"), (4, "0.5 -> 0.75"), (3, "1 -> 2"), (4, "2 -> 3")]


@pytest.fixture
def module(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    return path


def describe(old, new):
    """The script's description of the change from node old to node new."""
    if isinstance(old, ast.Constant):
        return f"{old.value!r} -> {new.value!r}"
    return f"{mutate.SYMBOLS[type(old)]} -> {mutate.SYMBOLS[type(new)]}"


def test_sites_in_walk_order(module):
    found = mutate.sites(module)
    assert [(line, text) for _, _, line, _, text in found] == SITES
    assert all(path == module and last == line
               for path, _, line, last, _ in found)


def test_each_mutant_changes_its_site_only(module):
    original = ast.parse(MODULE)
    for _, index, line, _, text in mutate.sites(module):
        source = mutate.mutant_source(module, index)
        rows = source.splitlines()
        assert len(rows) == MODULE.count("\n")
        changed = [i for i, (a, b) in enumerate(zip(MODULE.splitlines(), rows),
                                                start=1) if a != b]
        assert changed == [line], text
        diffs = [(a, b) for a, b in zip(ast.walk(original),
                                        ast.walk(ast.parse(source)))
                 if type(a) is not type(b)
                 or isinstance(a, ast.Constant) and a.value != b.value]
        assert [describe(a, b) for a, b in diffs] == [text]
