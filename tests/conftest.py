"""Fixtures shared by the test modules."""

import pytest

from thermo_transfer import models, thermo


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


@pytest.fixture
def solved_stacks(monkeypatch):
    """A list that gets each matrix or (B, m, m) stack a model hands to
    its eigensolve, the entries array itself."""
    stacks = []
    real = models.dominant_eigenvalue

    def spy(T):
        stacks.append(T)
        return real(T)

    monkeypatch.setattr(models, "dominant_eigenvalue", spy)
    return stacks
