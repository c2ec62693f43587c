"""Statement check of the test suite: every statement of the package must run in tier-1.

Run from anywhere as ``python tests/lines.py``.  It runs tier-1 in this
process under a sys.settrace tracer that records the lines run in frames of
src/fisherinfo only, then prints every statement of the package that never
ran.  Hypothesis draws from a fixed seed and no example database, so one
tree runs the same statements every time.  A statement is a simple
statement, or the header of a compound one (its decorators and the lines
before its body); it ran when the interpreter reported any of its lines.
Lines the compiler emits no code for, such as docstrings, are no statements
here.  Code that runs only in a child process is not seen, since the tracer
does not follow it, so every statement must also run in this process.

Exits 0 only when tier-1 passes and every statement ran.  pytest does not
collect this file: its name does not start with test_.
"""
import ast
import os
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fisherinfo"


def code_lines(code) -> set[int]:
    """Every line the compiler emitted an instruction for, in code and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= code_lines(const)
    return lines


def statements(path: Path):
    """Yield (lines, text) for each statement of path with code: a compound one by its header."""
    source = path.read_text(encoding="utf-8")
    text_lines = source.splitlines()
    executable = code_lines(compile(source, str(path), "exec"))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        lines = set(range(first, last + 1))
        if lines & executable:
            yield lines, " ".join(line.strip() for line in text_lines[first - 1:last])


def traced_tier1(hits: set[tuple[str, int]]) -> int:
    """Run tier-1 here, adding (file, line) to hits for each line run in the package."""
    prefix = str(PACKAGE) + os.sep

    def in_package(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return in_package

    def on_call(frame, event, arg):
        return in_package if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        return pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "--hypothesis-seed=0"])
    finally:
        sys.settrace(None)
        threading.settrace(None)


def main() -> int:
    started = time.perf_counter()
    hits: set[tuple[str, int]] = set()
    status = traced_tier1(hits)
    if status != 0:
        print(f"tier-1 fails (status {status}) under the tracer")
        return 1

    unrun = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE).as_posix()
        for lines, text in statements(path):
            if not any((str(path), line) in hits for line in lines):
                unrun += 1
                print(f"never ran: {name}:{min(lines)}: {text}")
    print(f"{unrun} statement(s) never ran in {time.perf_counter() - started:.0f} s")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
