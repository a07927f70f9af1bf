"""Run the tier-1 suite and check that only the known failures fail.

    python3 tools/tier1.py

Runs pytest in-process from the repository root, as
``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``
does.  Acceptance criteria 2, 8 and 9 assert that the audited claim has no
counterexample, and the audit finds real ones (README, "A note on the
audited claim"), so they must fail.  Exits 0 when exactly those three fail
and every other test passes; otherwise names each test that broke the rule
and exits 1, or passes on pytest's own exit code when it could not run.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXPECTED_FAILURES = frozenset(
    f"tests/test_acceptance.py::test_criterion_{name}"
    for name in ("2_theorem_d7_audit", "8_generalized_theorem", "9_d_2d_audit"))


class FailedIds:
    """pytest plugin that collects the node id of every failed test or file."""

    def __init__(self) -> None:
        self.ids: set[str] = set()

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.ids.add(report.nodeid)

    pytest_collectreport = pytest_runtest_logreport


def main() -> int:
    os.chdir(ROOT)  # pyproject.toml puts src/ on the path and names tests/
    failed = FailedIds()
    code = pytest.main(["-q", "--continue-on-collection-errors"], plugins=[failed])
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        return int(code)
    unexpected = sorted(failed.ids - EXPECTED_FAILURES)
    not_failed = sorted(EXPECTED_FAILURES - failed.ids)
    for nodeid in unexpected:
        print(f"tier1: unexpected failure: {nodeid}")
    for nodeid in not_failed:
        print(f"tier1: expected to fail, did not: {nodeid}")
    if unexpected or not_failed:
        return 1
    print(f"tier1: ok, only the {len(EXPECTED_FAILURES)} known acceptance failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
