"""A line-coverage gate for ``src/sortweaver``, from the standard library only.

Run from the repository root with Python 3.12 or later:

    PYTHONPATH=src python tests/linecov.py [pytest arguments]

It records the executed lines of the package with ``sys.monitoring`` (one
LINE event per line, each disabled after its first hit), runs the Tier-1
pytest command in the same process, and prints every executable line that
did not run.  It exits with pytest's status if pytest fails, else with 1 if
any line did not run, else with 0.
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sortweaver"


def executable_lines(path: Path) -> dict[int, str]:
    """Line number -> the qualified name of the code that holds it, for
    every line of the file that compiles to an instruction."""
    lines: dict[int, str] = {}
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        for _, _, line in code.co_lines():
            if line:  # a module starts with an instruction on line 0
                lines.setdefault(line, code.co_qualname)
        pending.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    if sys.version_info < (3, 12):
        sys.exit("linecov.py needs sys.monitoring (Python 3.12 or later)")
    monitoring = sys.monitoring
    root = str(PACKAGE) + os.sep
    real: dict[str, str] = {}  # a code object's file name -> its real path
    hits: set[tuple[str, int]] = set()

    def on_line(code, line):
        name = code.co_filename
        path = real.get(name) or real.setdefault(name, os.path.realpath(name))
        if path.startswith(root):
            hits.add((path, line))
        return monitoring.DISABLE

    tool = monitoring.COVERAGE_ID
    monitoring.use_tool_id(tool, "linecov")
    monitoring.register_callback(tool, monitoring.events.LINE, on_line)
    monitoring.set_events(tool, monitoring.events.LINE)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        monitoring.set_events(tool, 0)
        monitoring.free_tool_id(tool)

    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, qualname in sorted(executable_lines(path).items()):
            if (str(path), line) not in hits:
                missed += 1
                print(f"{path.relative_to(PACKAGE).as_posix()}:{line}: not run: {qualname}: "
                      f"{source[line - 1].strip()}")
    print(f"linecov: {missed} executable lines of src/sortweaver did not run")
    return int(status) or (1 if missed else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
