"""Print the lines, defaulted parameters and uncalled definitions of maglab.

    python3 tools/src_stats.py [TREE ...]

A TREE is a repository root (holding src/maglab) or its src directory; with
none, the repository this script sits in.  For each tree it prints one line of

* the lines of src/maglab/*.py (what `cat src/maglab/*.py | wc -l` reads),
* the defaulted parameters: over every function, method and lambda, the
  positional defaults plus the keyword-only parameters with a default;
  they follow as `module.function(param, ...)` on a line of their own, a
  lambda named `<lambda>` within its enclosing definition, and
* the uncalled definitions: top-level functions and classes and the methods
  of top-level classes (dunder methods left out) whose name no module but
  `__init__.py` reads, as a name, an attribute or a string outside `__all__`;
  their names follow on a line of their own.

These numbers track "the same numbers from less code", so a simplification
can quote them for the parent tree and the change.  A definition counts as
called when anything of its name is read, so the third is a lower bound.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def source_files(tree):
    """The sorted src/maglab/*.py files of a tree root or a src directory."""
    tree = os.path.abspath(tree)
    for cand in (os.path.join(tree, "src"), tree):
        if os.path.isdir(os.path.join(cand, "maglab")):
            return sorted(glob.glob(os.path.join(cand, "maglab", "*.py")))
    raise SystemExit(f"no maglab package under {tree}")


def _defaulted(node, prefix):
    """(qualified name, defaulted parameter names) of every function and
    lambda under a node that has a default, in source order."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (*_DEFS, ast.Lambda)):
            name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
        if isinstance(child, _FUNCTIONS):
            args = child.args
            positional = args.posonlyargs + args.args
            params = [a.arg for a in positional[len(positional) - len(args.defaults):]]
            params += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            if params:
                yield name, params
        yield from _defaulted(child, name)


def _tree_defaults(tree):
    """`_defaulted` over each module of a tree's src/maglab/*.py."""
    for path in source_files(tree):
        with open(path) as fh:
            parsed = ast.parse(fh.read())
        yield from _defaulted(parsed, os.path.basename(path)[:-3])


def defaulted(tree):
    """`module.function(param, ...)` for each function and lambda of a tree's
    src/maglab/*.py with defaulted parameters."""
    return [f"{qual}({', '.join(params)})" for qual, params in _tree_defaults(tree)]


def stats(tree):
    """(lines, defaulted parameters) of a tree's src/maglab/*.py."""
    lines = 0
    for path in source_files(tree):
        with open(path) as fh:
            lines += fh.read().count("\n")
    return lines, sum(len(params) for _, params in _tree_defaults(tree))


def _definitions(module, tree):
    """(qualified name, name) of a module's top-level definitions and of the
    methods of its top-level classes, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _reads(tree):
    """Every name, attribute and string a module reads, `__all__` left out."""
    listed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            listed.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in listed):
            yield node.value


def uncalled(tree):
    """Sorted qualified names of a tree's definitions that no module but
    `__init__.py` reads."""
    defs, reads = [], set()
    for path in source_files(tree):
        module = os.path.basename(path)[:-3]
        if module == "__init__":
            continue
        with open(path) as fh:
            parsed = ast.parse(fh.read())
        defs += _definitions(module, parsed)
        reads.update(_reads(parsed))
    return sorted(qual for qual, name in defs if name not in reads)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="TREE", default=[ROOT])
    args = parser.parse_args(argv)
    for tree in args.trees:
        lines, params = stats(tree)
        names = uncalled(tree)
        print(f"{tree}: {lines:,} lines, {params} defaulted parameters, "
              f"{len(names)} uncalled definitions")
        for label, listed in (("defaulted", defaulted(tree)), ("uncalled", names)):
            if listed:
                print(f"  {label}: " + ", ".join(listed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
