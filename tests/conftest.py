"""Shared pytest config: load the one hypothesis profile of every property test
(derandomized, no example database, no deadline), and collect acceptance
pass/fail lines and print them in the terminal summary so they are visible
regardless of capture mode.

pyproject.toml puts ``src`` on this process's path; it is also put on
PYTHONPATH so that tests which start a fresh interpreter import the same
checkout."""

import os
from pathlib import Path

from hypothesis import settings

# every property test draws the same examples on each run, and keeps no example database
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

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
