"""Suite-wide checks shared by every tier-1 test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves more threads alive than it found: a fabric run
    starts no thread, and a test's own helper threads must be joined."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    assert not leaked, f"threads left alive: {leaked}"
