import os

import pytest

from gmforms import classgroup
from gmforms.gm import scan_exponents
from gmforms.verify import run_suite


@pytest.fixture(scope="session")
def scan_to_600():
    return scan_exponents(3, 600)


@pytest.fixture(scope="session")
def suite_600_d7():
    return run_suite(600, [7])


@pytest.fixture(scope="session")
def suite_600_generalized():
    return run_suite(600, [7, 31, 55, 79, 103, 127])


@pytest.fixture(scope="session")
def suite_2000_eight_d():
    return run_suite(2000, [7, 31, 55, 79, 103, 127, 151, 199])


@pytest.fixture
def stuck_compose(monkeypatch):
    """classgroup.compose that returns its first argument, so no power of a
    non-identity class reaches the identity.  Past 10*h(-56) = 40 calls it
    raises AssertionError, so an unbounded order loop fails, not hangs."""
    calls = []

    def stuck(f, g):
        calls.append((f, g))
        if len(calls) > 40:
            raise AssertionError("compose called more than 10*h times")
        return f

    monkeypatch.setattr(classgroup, "compose", stuck)
    return calls


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"test left a child process behind (waitpid gave pid {pid})")
