"""Suite-wide checks shared by every tier-1 test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves more threads alive than it found: a fabric run
    must join every rank thread it starts, on success and on failure."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    assert not leaked, f"threads left alive: {leaked}"
