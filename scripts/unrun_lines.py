#!/usr/bin/env python3
"""List the lines of the `tractfuse` package that no given CLI stage runs.

Each argument is one `tractfuse` command line. They run in order, in this
process, through `cli.main` under a `sys.settrace` line collector:

    python3 scripts/unrun_lines.py "--config tube.cfg --out run phantom" \\
        "--config tube.cfg --out run train-rl --algo td3"

Prints `path:line: source` for each executable line of a function body
(a line that `dis.findlinestarts` gives) that none of the stages ran.
Module and class bodies run on import and are not listed; a function that
runs only while the package is imported, before the collector starts, is.
Exits 1, listing nothing, if a stage exits non-zero.
"""

import dis
import inspect
import linecache
import os
import shlex
import sys
from pathlib import Path

import tractfuse
from tractfuse import cli

PACKAGE = Path(tractfuse.__file__).parent


def function_lines(path):
    """The first line of each instruction run in a function body of `path`."""
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
    return lines


def unrun_lines(invocations):
    """Run each argv list through `cli.main`; returns (exit codes, sorted
    (path, line) pairs of function lines in the package that none ran)."""
    ran, prefix = {}, str(PACKAGE) + os.sep

    def trace_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = ran.setdefault(frame.f_code.co_filename, set())

        def trace_line(frame, event, arg):
            lines.add(frame.f_lineno)
            return trace_line
        return trace_line(frame, event, arg)

    previous = sys.gettrace()
    sys.settrace(trace_call)
    try:
        codes = [cli.main(argv) for argv in invocations]
    finally:
        sys.settrace(previous)
    unrun = [(path, line) for path in sorted(PACKAGE.glob("*.py"))
             for line in sorted(function_lines(path) - ran.get(str(path), set()))]
    return codes, unrun


def main(args):
    if not args:
        sys.exit(__doc__.strip())
    codes, unrun = unrun_lines([shlex.split(a) for a in args])
    if any(codes):
        sys.exit(f"a stage failed (exit codes {codes}); no lines listed")
    for path, line in unrun:
        print(f"{os.path.relpath(path)}:{line}: {linecache.getline(str(path), line).strip()}")


if __name__ == "__main__":
    main(sys.argv[1:])
