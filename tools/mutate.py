"""Seeded mutation run: how much of ``src/arflow`` do the tests see?

Each site is one small fault put into one module: a binary ``+ - * /``
swapped (+ with -, * with /), the boundary of a single comparison flipped
(< with <=, > with >=), == swapped with !=, or a numeric constant c changed
to c + 1 (for 0 and 1) or to 1.5 c.  Each mutant is written, with
``ast.unparse``, into a temporary copy of the tree, never into the working
tree, and the tests run on it in one pytest process with ``-x``, the
fastest test files first.  A mutant is killed if a test fails (or the run
times out) and survives if the tests pass.

    python tools/mutate.py --base HEAD~1        # the sites on changed lines
    python tools/mutate.py --sample 60 --seed 1 # a seeded sample of sites

Each mutant costs one full test run (about 16 s on one core), so the
script is not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "arflow"

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
         ast.Div: ast.Mult, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!="}


def mutation(node):
    """(first line, last line, description, apply) of the site at ``node``,
    or None.  The lines span the operator or the constant."""
    if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
        old, new = type(node.op), SWAPS[type(node.op)]
        lines = (node.left.end_lineno, node.right.lineno)

        def apply():
            node.op = new()
    elif (isinstance(node, ast.Compare) and len(node.ops) == 1
          and type(node.ops[0]) in SWAPS):
        old, new = type(node.ops[0]), SWAPS[type(node.ops[0])]
        lines = (node.left.end_lineno, node.comparators[0].lineno)

        def apply():
            node.ops = [new()]
    elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
          and node.value == node.value):
        c = node.value
        value = c + 1 if c in (0, 1) else type(c)(1.5 * c)
        if value == c:  # 1.5 c rounds back to c for an int
            value = c + 1

        def apply():
            node.value = value
        return node.lineno, node.end_lineno, f"{c!r} -> {value!r}", apply
    else:
        return None
    return (*lines, f"{SYMBOLS[old]} -> {SYMBOLS[new]}", apply)


def sites(path, source):
    """Every site of ``source``, the text of the module at ``path``, as
    (path, index, line, last line, text): ``index`` counts the nodes of
    ``ast.walk``, which is deterministic."""
    tree = ast.parse(source, filename=str(path))
    found = []
    for index, node in enumerate(ast.walk(tree)):
        site = mutation(node)
        if site is not None:
            found.append((path, index, *site[:3]))
    return found


def mutant_source(source, index):
    """``source`` with its site ``index`` of ``sites`` mutated."""
    tree = ast.parse(source)
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    mutation(node)[3]()
    return ast.unparse(tree) + "\n"


def changed_lines(base):
    """{module path: set of new-side line numbers} of ``git diff -U0 base``."""
    diff = subprocess.run(["git", "diff", "-U0", base, "--", str(PACKAGE)],
                          cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout
    lines, current = {}, None
    for row in diff.splitlines():
        if row.startswith("+++ "):
            current = None if row == "+++ /dev/null" else ROOT / row[6:]
        hunk = re.match(r"@@ -\S+ \+(\d+)(?:,(\d+))? @@", row)
        if hunk and current is not None:
            start, count = int(hunk[1]), int(hunk[2] or 1)
            lines.setdefault(current, set()).update(range(start,
                                                          start + count))
    return lines


def copy_tree(dest):
    """Copy the tracked and untracked, not ignored, files of the repo."""
    files = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    for name in files.splitlines():
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_tests(tree, files, timeout=None):
    """(passed, first failing test, seconds) of one ``pytest -x`` process."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}

    def cap():
        # a mutated block size fails with MemoryError instead of paging
        resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32))

    start = time.perf_counter()
    try:
        # -B: a .pyc matches its source by size and mtime in whole seconds,
        # so a mutant written within a second of another of the same size
        # would run the other's code
        done = subprocess.run(
            [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *files], cwd=tree, env=env,
            capture_output=True, text=True, timeout=timeout, preexec_fn=cap)
    except subprocess.TimeoutExpired:
        return False, "(timeout)", time.perf_counter() - start
    first = next((row.split(" - ")[0].split(None, 1)[1]
                  for row in done.stdout.splitlines()
                  if row.startswith(("FAILED ", "ERROR "))), "(no test named)")
    return done.returncode == 0, first, time.perf_counter() - start


def fastest_first(tree):
    """The test files, fastest first, each timed once on the unmutated tree;
    exits if any of them fails there."""
    timed = []
    for path in sorted((tree / "tests").glob("test_*.py")):
        passed, first, seconds = run_tests(tree, [str(path)])
        if not passed:
            sys.exit(f"unmutated tree fails: {first}")
        timed.append((seconds, str(path.relative_to(tree))))
    return [name for _, name in sorted(timed)], sum(s for s, _ in timed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    pick = parser.add_mutually_exclusive_group(required=True)
    pick.add_argument("--base", help="mutate the lines changed since this "
                      "git revision")
    pick.add_argument("--sample", type=int, help="mutate this many sites, "
                      "drawn with random.Random(--seed)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    modules = sorted(p for p in (ROOT / PACKAGE).glob("*.py")
                     if p.name != "__init__.py")
    killed = 0
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        copy_tree(tree)
        # each module's text, read once from the copy: every mutant is made
        # from it and the module restored to it, whatever later edits the
        # working tree sees
        sources = {path: (tree / path.relative_to(ROOT)).read_text()
                   for path in modules}
        every = [site for path in modules for site in sites(path,
                                                              sources[path])]
        if args.base:
            changed = changed_lines(args.base)
            chosen = [s for s in every if changed.get(s[0], set())
                      & set(range(s[2], s[3] + 1))]
        else:
            chosen = random.Random(args.seed).sample(
                every, min(args.sample, len(every)))
        print(f"{len(chosen)} of {len(every)} sites", flush=True)
        files, total = fastest_first(tree)
        for path, index, line, _, text in chosen:
            target = tree / path.relative_to(ROOT)
            target.write_text(mutant_source(sources[path], index))
            try:
                passed, first, _ = run_tests(tree, files,
                                             timeout=10 * total + 60)
            finally:
                target.write_text(sources[path])
            killed += not passed
            verdict = "survived" if passed else f"killed    {first}"
            print(f"{path.relative_to(ROOT)}:{line}  {text}  {verdict}",
                  flush=True)
    print(f"score: {killed} of {len(chosen)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
