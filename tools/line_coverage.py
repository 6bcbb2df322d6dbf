"""List the statements of src/finestruct that neither the test suite nor
`verify --suite all` at seeds 7 and 14 runs.

    python tools/line_coverage.py

A local `sys.settrace` tracer records every line run in a frame of a file
under src/finestruct.  It is installed before finestruct is imported, and it
stays on through `pytest.main` over tests/ and then `harness.main` at each
seed, all in one process.  Each statement (by `ast`) none of whose lines ran
is printed as `path:line: statement`.  A statement inside one never run is
not listed again, and statements that run no code (docstrings, `global`) are
never listed.  pytest's output goes to stderr, the report of each `verify`
run nowhere.  Exits 0 whatever the tests or the checks report.  Tracing
makes the run about three times slower than the plain suite, enough for
criterion 04 to miss its wall-clock gate.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "finestruct"
SEEDS = (7, 14)

_NO_CODE = (ast.Global, ast.Nonlocal)


def _runs_code(node: ast.stmt) -> bool:
    return not (isinstance(node, _NO_CODE) or (
        isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)))


def _children(node: ast.AST):
    """The statements directly inside node, in source order."""
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, field, ()):
            if isinstance(child, ast.stmt):
                yield child
            else:  # an except handler or a match case holds statements
                yield from child.body


def _never_run(node: ast.AST, seen: set):
    """The outermost statements under node none of whose lines is in seen."""
    for child in _children(node):
        first = min([d.lineno for d in getattr(child, "decorator_list", ())]
                    + [child.lineno])
        if not seen.isdisjoint(range(first, child.end_lineno + 1)):
            yield from _never_run(child, seen)
        elif _runs_code(child):
            yield child


def _trace(lines: dict):
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename.startswith(prefix):
            lines.setdefault(filename, set())
            return local
        return None

    return call


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    lines: dict = {}
    sys.settrace(_trace(lines))
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider",
                                  str(ROOT / "tests")])
        from finestruct import harness

        for seed in SEEDS:
            with contextlib.redirect_stdout(io.StringIO()):
                harness.main(["--suite", "all", "--seed", str(seed)])
    finally:
        sys.settrace(None)
    print(f"pytest exit status {int(status)}", file=sys.stderr)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        seen = lines.get(str(path), set())
        for node in _never_run(ast.parse(source), seen):
            print(f"{path.relative_to(ROOT)}:{node.lineno}: "
                  f"{text[node.lineno - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
