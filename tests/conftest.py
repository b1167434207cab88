"""Shared fixtures for the test suite."""

import pytest


@pytest.fixture
def fast_retries(monkeypatch):
    """Crash-retry backoff ceilings of 10 ms, 20 ms, ... instead of the
    runner's 0.25 s base, so retrying tests stay quick."""
    from repro.core import runner

    monkeypatch.setattr(runner, "BACKOFF_S", 0.01)
