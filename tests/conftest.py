"""Shared pytest config: collect acceptance pass/fail lines and print them in
the terminal summary so they are visible regardless of capture mode.

pyproject.toml puts ``src`` on this process's path; it is also put on
PYTHONPATH so that tests which start a fresh interpreter import the same
checkout."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path)

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
