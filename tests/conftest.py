"""Fixtures shared by the test modules."""

import pytest

from thermo_transfer import thermo


@pytest.fixture
def pools_entered(monkeypatch):
    """A list that gets one entry, the worker count, per thread pool a
    sweep enters."""
    entered = []

    class CountingPool(thermo.ThreadPoolExecutor):
        def __enter__(self):
            entered.append(self._max_workers)
            return super().__enter__()

    monkeypatch.setattr(thermo, "ThreadPoolExecutor", CountingPool)
    return entered
