"""Print the size of maglab's source in each tree: lines and defaulted parameters.

    python3 tools/src_stats.py [TREE ...]

A TREE is a repository root (holding src/maglab) or its src directory; with
none, the repository this script sits in.  For each tree it prints one line:

* the lines of src/maglab/*.py (what `cat src/maglab/*.py | wc -l` reads), and
* the defaulted parameters: over every function, method and lambda, the
  positional defaults plus the keyword-only parameters with a default.

These are the two numbers that track "the same numbers from less code", so a
simplification can quote them for the parent tree and the change.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def source_files(tree):
    """The sorted src/maglab/*.py files of a tree root or a src directory."""
    tree = os.path.abspath(tree)
    for cand in (os.path.join(tree, "src"), tree):
        if os.path.isdir(os.path.join(cand, "maglab")):
            return sorted(glob.glob(os.path.join(cand, "maglab", "*.py")))
    raise SystemExit(f"no maglab package under {tree}")


def defaulted_parameters(source):
    """Defaults of every function and lambda in a module's source."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _FUNCTIONS):
            args = node.args
            count += len(args.defaults)
            count += sum(d is not None for d in args.kw_defaults)
    return count


def stats(tree):
    """(lines, defaulted parameters) of a tree's src/maglab/*.py."""
    lines = params = 0
    for path in source_files(tree):
        with open(path) as fh:
            source = fh.read()
        lines += source.count("\n")
        params += defaulted_parameters(source)
    return lines, params


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="TREE", default=[ROOT])
    args = parser.parse_args(argv)
    for tree in args.trees:
        lines, params = stats(tree)
        print(f"{tree}: {lines:,} lines, {params} defaulted parameters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
