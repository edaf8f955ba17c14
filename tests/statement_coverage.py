"""Statement coverage of ``src/mgshare`` by tier-1, with the standard library only.

    python tests/statement_coverage.py [extra pytest arguments]

runs the tier-1 tests in this process under ``sys.settrace`` and
``threading.settrace``, records every line that runs in ``src/mgshare/*.py``,
and lists each ``ast`` statement of those files that never ran. A statement
ran when any of its own lines did: a simple statement's lines, or a compound
statement's header up to its body. Docstrings, ``def``/``class`` and import
headers, and ``try:`` lines (judged by their bodies) do not count. Exits 1 if
pytest fails or any statement never ran. Line tables differ between Python
versions; the listing is checked on 3.11.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mgshare"
FILES = {str(path): path for path in sorted(SRC.glob("*.py"))}
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Try)


def statements(source: str) -> dict[int, range]:
    """First line -> own lines of every statement that counts."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        end = max(body[0].lineno, node.lineno + 1) if body else node.end_lineno + 1
        out[node.lineno] = range(node.lineno, end)
    return out


def main(argv: list[str]) -> int:
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, _event, _arg):
        return local if frame.f_code.co_filename in FILES else None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main([str(ROOT / "tests"), "-q", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    for name, path in FILES.items():
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for first, own in sorted(statements(source).items()):
            if hits[name].isdisjoint(own):
                missed.append(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print("\n".join(missed) if missed else f"every statement of {len(FILES)} files ran")
    return 1 if status != 0 or missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
