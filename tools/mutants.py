"""Mutation probe: which operator swaps in one module do its tests miss?

    python tools/mutants.py src/curvlab/oracle.py tests/test_oracle.py \
        tests/test_acceptance.py tests/test_cli.py

The repository is copied to a temporary directory, so the checkout is
never edited.  In the copy, each comparison or arithmetic operator of the
module is swapped in turn (< and <=, > and >=, == and !=, + and -, * and /,
and the augmented += -= *= /=), and the given test files run with
--hypothesis-seed=0 and no hypothesis database.  A mutant survives when
they pass.  Each survivor is printed as
module:line: swap: source line.

Mutants named in tools/equivalent_mutants.txt are not run: each line there
is `module | source line, stripped | swap | why it cannot change a result`.
Operators inside f-strings (error messages) are not swapped.  Standard
library only.
"""

import argparse
import ast
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = Path(__file__).resolve().parent / "equivalent_mutants.txt"
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+": "-", "-": "+", "*": "/", "/": "*",
         "+=": "-=", "-=": "+=", "*=": "/=", "/=": "*="}
SEED = 0  # the fixed hypothesis seed, so a run is repeatable
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                              ".pytest_cache", "results", ".work")


def operator_spans(tree):
    """(end of the left operand, start of the right one) for each binary,
    augmented or chained comparison operator, as (line, byte column)."""
    skip = {id(n) for j in ast.walk(tree) if isinstance(j, ast.JoinedStr)
            for n in ast.walk(j)}
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.BinOp):
            pairs = [(node.left, node.right)]
        elif isinstance(node, ast.AugAssign):
            pairs = [(node.target, node.value)]
        elif isinstance(node, ast.Compare):
            pairs = list(zip([node.left] + node.comparators[:-1],
                             node.comparators))
        else:
            continue
        for left, right in pairs:
            yield ((left.end_lineno, left.end_col_offset),
                   (right.lineno, right.col_offset))


def mutants(source):
    """(line, start column, end column, operator) of each swappable
    operator, columns in characters, in source order."""
    lines = source.splitlines(keepends=True)

    def chars(line, byte_col):
        return len(lines[line - 1].encode()[:byte_col].decode())

    ops = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
           if tok.type == tokenize.OP and tok.string in SWAPS]
    found = set()
    for (l0, c0), (l1, c1) in operator_spans(ast.parse(source)):
        lo, hi = (l0, chars(l0, c0)), (l1, chars(l1, c1))
        found.update((tok.start[0], tok.start[1], tok.end[1], tok.string)
                     for tok in ops if lo <= tok.start and tok.end <= hi)
    return sorted(found)


def read_equivalent(path):
    named = set()
    if path.exists():
        for line in path.read_text().splitlines():
            if line.strip() and not line.startswith("#"):
                module, text, swap, _why = line.split(" | ", 3)
                named.add((module.strip(), text.strip(), swap.strip()))
    return named


def run_tests(root, tests, timeout):
    """True when the tests pass in the copy at root."""
    shutil.rmtree(root / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         f"--hypothesis-seed={SEED}", *tests],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False  # a mutant that hangs is caught by its timeout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("module", help="module path, relative to the repo")
    parser.add_argument("tests", nargs="+", help="test files to run")
    args = parser.parse_args(argv)

    source = (ROOT / args.module).read_text()
    name = Path(args.module).name
    lines = source.splitlines(keepends=True)
    named = read_equivalent(EQUIVALENT)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(ROOT, root, ignore=SKIP)
        target = root / args.module
        start = time.monotonic()
        if not run_tests(root, args.tests, timeout=None):
            sys.exit("the tests fail on the unmutated module")
        timeout = 30.0 + 4.0 * (time.monotonic() - start)
        survivors, skipped, total = [], 0, 0
        for line, c0, c1, op in mutants(source):
            text = lines[line - 1]
            swap = f"{op} -> {SWAPS[op]}"
            if (name, text.strip(), swap) in named:
                skipped += 1
                continue
            total += 1
            mutated = lines.copy()
            mutated[line - 1] = text[:c0] + SWAPS[op] + text[c1:]
            target.write_text("".join(mutated))
            if run_tests(root, args.tests, timeout):
                survivors.append(f"{name}:{line}: {swap}: {text.strip()}")
            print(f"{total}: {name}:{line}: {swap}", file=sys.stderr, flush=True)
    for survivor in survivors:
        print(survivor)
    print(f"{len(survivors)} of {total} survived; {skipped} named equivalent "
          f"not run ({time.monotonic() - start:.0f} s)")


if __name__ == "__main__":
    main()
