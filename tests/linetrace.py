"""The statements of the package that the test suite never runs.

Runs the tier-1 suite in this process under a line trace (``sys.settrace``, and
``threading.settrace`` for threads) that records only frames of ``src/tracebundle``, then
prints every statement inside a function body that no line event reached, as
``path:line`` with its first source line, and their count.  Statements of a module or
class body run at import, before the trace starts, so they are left aside, and so is
every statement that compiles to no bytecode.  A statement has run when a line event
fired on one of its own lines: for a compound statement, the lines of its header before
its first child.  Work done in subprocesses is not traced.  Not part of tier-1::

    python tests/linetrace.py

Its exit status is pytest's when that is not 0, else 1 when a statement never ran, else 0,
so it can gate a change.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tracebundle"


def function_statements(tree) -> list:
    """``(first, last)`` own lines of every statement inside a function body of ``tree``."""
    out = []

    def walk(node, inside):
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for child in getattr(node, field, None) or []:
                if isinstance(child, ast.stmt) and inside:
                    first_child = next((c for f in ("body", "handlers", "cases")
                                        for c in getattr(child, f, None) or []), None)
                    last = first_child.lineno - 1 if first_child else child.end_lineno
                    out.append((child.lineno, max(last, child.lineno)))
                walk(child, inside or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    walk(tree, False)
    return out


def code_lines(code) -> set:
    """The source lines that carry bytecode in ``code`` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def traced_suite(args) -> tuple[int, dict]:
    """Pytest's exit code and, per package file, the lines a line event fired on."""
    import pytest

    prefix = str(PACKAGE) + "/"
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def never_ran(hits) -> tuple[list, int]:
    """``(path, line, source)`` of every statement of ``function_statements`` with bytecode
    on its own lines and no line event there, and the count of statements with bytecode."""
    out, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        compiled = code_lines(compile(text, str(path), "exec"))
        seen = hits.get(str(path), set())
        for first, last in function_statements(ast.parse(text)):
            own = set(range(first, last + 1))
            if not own & compiled:
                continue
            total += 1
            if not own & seen:
                out.append((path.relative_to(ROOT), first, source[first - 1].strip()))
    return out, total


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    status, fired = traced_suite(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    missed, total = never_ran(fired)
    for path, line, text in missed:
        print(f"{path}:{line}: {text}")
    print(f"{len(missed)} of {total} statements in function bodies of {PACKAGE.name}/ never ran "
          f"(pytest exit code {status})")
    sys.exit(status or int(bool(missed)))
