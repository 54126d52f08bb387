"""The sites and mutants of ``tools/mutate.py``, on a small module.

The script is loaded by path; no test run is started, as the test of
``main`` replaces its ``run_tests``.
"""

import ast
import importlib.util
import subprocess
from pathlib import Path

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
PATH = Path("mod.py")  # the module's label; its text is MODULE


def describe(old, new):
    """The script's description of the change from node old to node new."""
    if isinstance(old, ast.Constant):
        return f"{old.value!r} -> {new.value!r}"
    return f"{mutate.SYMBOLS[type(old)]} -> {mutate.SYMBOLS[type(new)]}"


def assert_changes_its_site_only(source, line, text):
    """``source`` is MODULE with only the site (line, text) mutated."""
    rows = source.splitlines()
    assert len(rows) == MODULE.count("\n")
    changed = [i for i, (a, b) in enumerate(zip(MODULE.splitlines(), rows),
                                            start=1) if a != b]
    assert changed == [line], text
    diffs = [(a, b) for a, b in zip(ast.walk(ast.parse(MODULE)),
                                    ast.walk(ast.parse(source)))
             if type(a) is not type(b)
             or isinstance(a, ast.Constant) and a.value != b.value]
    assert [describe(a, b) for a, b in diffs] == [text]


def test_sites_in_walk_order():
    found = mutate.sites(PATH, MODULE)
    assert [(line, text) for _, _, line, _, text in found] == SITES
    assert all(path == PATH and last == line
               for path, _, line, last, _ in found)


def test_each_mutant_changes_its_site_only():
    for _, index, line, _, text in mutate.sites(PATH, MODULE):
        assert_changes_its_site_only(mutate.mutant_source(MODULE, index),
                                     line, text)


def test_run_ignores_edits_after_start(tmp_path, monkeypatch, capsys):
    # every test run edits the working tree; each mutant is still made
    # from, and every module restored to, the text read at the start
    package = tmp_path / mutate.PACKAGE
    package.mkdir(parents=True)
    names = ("a.py", "b.py")
    for name in names:
        (package / name).write_text(MODULE)
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    monkeypatch.setattr(mutate, "ROOT", tmp_path)
    runs = []

    def run_tests(tree, files, timeout=None):
        runs.append({name: (tree / mutate.PACKAGE / name).read_text()
                     for name in names})
        for name in names:
            (package / name).write_text('"""Edited."""\n' + MODULE)
        return True, "", 0.0

    monkeypatch.setattr(mutate, "run_tests", run_tests)
    assert mutate.main(["--sample", str(2 * len(SITES))]) == 0
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert len(runs) == len(rows) == 2 * len(SITES)
    for texts, row in zip(runs, rows):
        where, text, _ = row.split("  ")
        name, line = where.split(":")
        name = Path(name).name
        assert_changes_its_site_only(texts[name], int(line), text)
        assert [texts[other] for other in names if other != name] == [MODULE]
