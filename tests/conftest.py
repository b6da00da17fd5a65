"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from thermo_transfer import models, nystrom, thermo


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
    """A list that gets a copy of each matrix or (B, m, m) stack a model
    hands to its eigensolve: the entries live in the thread's held
    stack memory, which the next solve overwrites."""
    stacks = []
    real = models.dominant_eigenvalue

    def spy(T):
        stacks.append(T.copy())
        return real(T)

    monkeypatch.setattr(models, "dominant_eigenvalue", spy)
    return stacks


@pytest.fixture
def spoil_rayleigh_product(monkeypatch):
    """spoil(entry): from then on, the product T v of the eigensolve's
    residual check hands back all ones for each matrix whose (0, 1)
    entry is `entry`, so that matrix never passes the check and fails
    at the squaring cap with a finite residual, alone or in any stack.
    The fault is keyed on the matrix, never on a call count or a stack
    position; only that product sees T itself, the squarings see T
    scaled by its largest entry."""
    real = np.matmul

    def spoil(entry):
        def matmul(a, b, *args, **kwargs):
            out = real(a, b, *args, **kwargs)
            if np.ndim(a) == 3:
                out[a[:, 0, 1] == entry] = 1.0
            return out

        monkeypatch.setattr(nystrom.np, "matmul", matmul)

    return spoil
