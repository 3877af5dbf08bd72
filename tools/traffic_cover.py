"""Print the statements of maglab that no run of tools/diff_reports.py reaches.

    python3 tools/traffic_cover.py TREE

TREE is a repository root (holding src/maglab) or its src directory.  In
one process, every case of diff_reports.py's `cases(src)` (the bundled
scenarios and their single-stage runs, the configs held there and the
benchmark workloads at its seeds) runs through
`maglab.cli.main([command, "--config", ..., "--out", ...])` in a fresh
temporary directory, under `sys.settrace` limited to the files of
TREE/src/maglab; the runs' output is discarded.

It then prints, per function (`module.qualname`, nested functions by their
own name), the lines of the statements in its body that no case executed,
and a total.  A statement counts as executed when a line event falls on one
of its own lines (for a compound statement, its header up to its first body
statement); statements whose lines hold no code (docstrings, `else:`) are
left out, and so are module and class bodies.  The import of maglab is
traced too, so a function that only runs at import (the integrator's
generated code) counts as executed.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import glob
import importlib
import io
import json
import os
import sys
import tempfile

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _code_lines(code):
    """The lines that hold instructions of a code object and of the code
    objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_lines(stmt):
    """The lines of a statement that are not those of a statement in its
    body: the whole statement, or a compound statement's header."""
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(start, body[0].lineno)
    return range(start, stmt.end_lineno + 1)


def _body_statements(body):
    """The statements of a function body, those of nested compound statements
    included and those of nested function and class bodies left out."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (*_FUNCS, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _body_statements(getattr(stmt, field, ()))
        for handler in getattr(stmt, "handlers", ()):
            yield handler
            yield from _body_statements(handler.body)
        for case in getattr(stmt, "cases", ()):
            yield from _body_statements(case.body)


def statements(path):
    """{qualname: [own-line ranges of its statements]} of every function in a
    module, the statements without code left out."""
    with open(path) as fh:
        source = fh.read()
    code_lines = _code_lines(compile(source, path, "exec"))
    module = os.path.basename(path)[:-3]
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*_FUNCS, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if isinstance(child, _FUNCS):
                    own = [_own_lines(s) for s in _body_statements(child.body)]
                    out[name] = [r for r in own if code_lines.intersection(r)]
                visit(child, name)

    visit(ast.parse(source), module)
    return out


def unexecuted(src, cases):
    """{qualname: [first lines of the statements no case executed]} over the
    maglab package of a src directory, whose maglab must be the one this
    process imports; each case (name, command, config) runs through
    `maglab.cli.main` in a fresh directory.  The import is traced too when
    this process has not imported maglab yet."""
    pkg = os.path.join(os.path.abspath(src), "maglab")
    files = sorted(glob.glob(os.path.join(pkg, "*.py")))
    hits = {path: set() for path in files}

    def trace(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    @contextlib.contextmanager
    def traced():
        sys.settrace(trace)
        try:
            yield
        finally:
            sys.settrace(None)

    if src not in sys.path:
        sys.path.insert(0, src)
    with traced():
        cli = importlib.import_module("maglab.cli")
    if os.path.dirname(os.path.abspath(cli.__file__)) != pkg:
        raise SystemExit(f"this process imports maglab from {cli.__file__}")
    with tempfile.TemporaryDirectory(prefix="traffic_cover_") as tmp:
        for name, command, cfg in cases:
            work = os.path.join(tmp, name)
            os.makedirs(work)
            config = os.path.join(work, "config.json")
            with open(config, "w") as fh:
                json.dump(cfg, fh)
            argv = [command, "--config", config, "--out", os.path.join(work, "out")]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink), traced():
                cli.main(argv)
    out = {}
    for path in files:
        for name, ranges in statements(path).items():
            missed = [r[0] for r in ranges if not hits[path].intersection(r)]
            if missed:
                out[name] = missed
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree")
    args = parser.parse_args(argv)
    import diff_reports  # beside this script, on sys.path when it runs
    src = diff_reports.source_dir(args.tree)
    cases = diff_reports.cases(src)
    missed = unexecuted(src, cases)
    for name, lines in missed.items():
        print(f"{name}: {len(lines)} ({', '.join(map(str, lines))})")
    total = sum(map(len, missed.values()))
    print(f"{total} statements in {len(missed)} functions never executed "
          f"over {len(cases)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
