"""Run the tier-1 suite under a line tracer and list the library lines it never runs.

    PYTHONPATH=src python tools/line_coverage.py [pytest arguments]

The tracer is ``sys.settrace``, installed before ``qbdpoisson`` is imported,
so module-level lines count too.  A module's executable lines are those
that the ``co_lines()`` of its code objects name.  Every unrun line of
``src/qbdpoisson/*.py`` is printed, and appended as Markdown to the file
that ``$GITHUB_STEP_SUMMARY`` names, if set.  The exit code is pytest's when
the suite fails.  Otherwise it is 1 if an unrun line lies outside the
console-script entry (the body of ``cli.main`` and of the ``__main__``
guard, which only an installed console script runs), and 0 if none does.
It needs nothing beyond pytest and the standard library.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qbdpoisson"
PREFIX = str(SRC) + os.sep


def executable_lines(path: Path) -> set[int]:
    """Line numbers any code object compiled from ``path`` can run."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def console_entry(path: Path) -> set[int]:
    """The body lines of ``main`` and of the ``__main__`` guard in ``path``."""
    entry = set()
    for node in ast.parse(path.read_text()).body:
        is_main = isinstance(node, ast.FunctionDef) and node.name == "main"
        is_guard = isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)
        if is_main or is_guard:
            entry.update(range(node.body[0].lineno, node.end_lineno + 1))
    return entry


def main(argv: list[str]) -> int:
    ran: set[tuple[str, int]] = set()
    source: dict[str, str | None] = {}     # co_filename -> library path or None

    def local(frame, event, arg):
        if event == "line":
            ran.add((source[frame.f_code.co_filename], frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in source:
            path = os.path.realpath(name)
            source[name] = path if path.startswith(PREFIX) else None
        return local if source[name] else None

    sys.settrace(tracer)
    import pytest
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)

    report, outside = [], False
    for path in sorted(SRC.glob("*.py")):
        unrun = sorted(executable_lines(path) - {n for f, n in ran if f == str(path)})
        exempt = console_entry(path) if path.name == "cli.py" else set()
        outside |= any(n not in exempt for n in unrun)
        for lines, note in (([n for n in unrun if n not in exempt], ""),
                            ([n for n in unrun if n in exempt], " (console-script entry)")):
            if lines:
                report.append(f"- `{path.name}`: {', '.join(map(str, lines))}{note}")
    text = "\n".join(["### Lines of src/qbdpoisson no tier-1 test runs", "",
                      *(report or ["none"])]) + "\n"
    print(text)
    if summary := os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(summary, "a") as out:
            out.write(text)
    return int(status) or int(outside)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
