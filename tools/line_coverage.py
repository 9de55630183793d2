#!/usr/bin/env python3
"""List the lines of ``groundcap`` that a pytest run never executes.

Runs pytest in this process with the given arguments, under ``sys.settrace``
and ``threading.settrace``, so test code and the threads it starts are both
traced.  Then, for each module of the ``groundcap`` package, it prints the
executable lines (the line numbers of its compiled code, read with
``co_lines()``) that never ran, and exits with pytest's exit code.  Run from
the repository root:

    PYTHONPATH=src python tools/line_coverage.py -q tests/test_llm.py

Only this process is traced: a test that runs groundcap in a child process
(a CLI subprocess, the memory tests, the benchmark) adds nothing, so the
lines only such tests reach are listed as never run.  Tracing makes the run
several times slower.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest


def executable_lines(code: CodeType) -> set[int]:
    """Every line number that ``code`` or a code object nested in it maps an instruction to."""
    lines = {line for _start, _end, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def spans(lines: list[int]) -> str:
    """Sorted line numbers as ``3, 7-9, 12``."""
    parts: list[list[int]] = []
    for line in lines:
        if parts and line == parts[-1][1] + 1:
            parts[-1][1] = line
        else:
            parts.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in parts)


def main(argv: list[str]) -> int:
    spec = importlib.util.find_spec("groundcap")  # found, not imported, so its import is traced too
    if spec is None or not spec.submodule_search_locations:
        print("groundcap is not importable; put src on PYTHONPATH", file=sys.stderr)
        return 2
    package = Path(spec.submodule_search_locations[0])
    modules = {str(path): path for path in sorted(package.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in modules}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, _event, _arg):
        return local if frame.f_code.co_filename in ran else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    missed_total = lines_total = 0
    for name, path in modules.items():
        lines = executable_lines(compile(path.read_text("utf-8"), name, "exec"))
        missed = sorted(lines - ran[name])
        missed_total += len(missed)
        lines_total += len(lines)
        listed = f": {spans(missed)}" if missed else ""
        print(f"{path.name}: {len(missed)} of {len(lines)} lines never ran{listed}")
    print(f"total: {missed_total} of {lines_total} executable lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
