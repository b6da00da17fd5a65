"""Free-energy sweeps over beta, and the observables at one point.

A sweep cuts its beta grid into blocks of rows and solves each block
as one stack through its model's `block` (see `models`): one rule
stack, one (B, m, m) assembly and one stacked eigensolve, with F, the
marginals and the observables computed for the whole block along its
leading beta axis.  A row is beta, F and, if asked for, all of the
model's `observables` columns in their order.  The one-point routes
are a block of one (`models._point`), so they give the same bits and
errors as the sweep's row, whatever the block split or thread count;
`models._solve_block` names a failure's beta, m and grid row.
`fd_derivative` is an independent route to the observables, for tests
and selftest.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .models import (CylinderParams, DnlsParams, ParticleChainParams,
                     _point, _solve_block)
from .nystrom import _block_rows
from .quadrature import _check_m
# not called here: the benchmark tracer wraps these names on this module
from .models import (_chain_free_energy_raw, _dnls_free_energy_raw,  # noqa: F401
                     cylinder_free_energy, dnls_free_energy,
                     particle_chain_free_energy)

__all__ = ["MODELS", "SweepSpec", "SweepResult",
           "fd_derivative", "particle_chain_observables", "dnls_observables",
           "free_energy_sweep"]


def fd_derivative(f, x, *, h):
    """First derivative of f at x by the order-6 central stencil, exact
    on polynomials through degree 6 with O(h^6) error on smooth f."""
    if not (h > 0.0) or not math.isfinite(h):
        raise DomainError(f"stencil step h must be positive, got {h!r}")
    vals = np.array([f(x + k * h) for k in range(-3, 4)], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError(
            f"non-finite function value on the stencil around x={x!r}")
    # antisymmetric pairing: exact zero on constants and even functions,
    # and the differences cancel before any scaling
    d = (45.0 * (vals[4] - vals[2])
         - 9.0 * (vals[5] - vals[1])
         + (vals[6] - vals[0])) / 60.0
    return float(d) / h


def particle_chain_observables(p, beta, m):
    """(dF/dgamma, d(beta F)/dbeta) at one point = (<(q - q')^2/2>_bond,
    1/beta - <mu3 q^3/12 + lam q^4/24>_site)."""
    values = _point(p, beta, m, observables=True)[1]
    return values["stretch_sq"], values["energy"]


def dnls_observables(p, beta, m):
    """(-dF/dmu, d(beta F)/dbeta + mu <rho>) at one point = (<rho>_site,
    <rho + g rho^2/2>_site - <sqrt(rho rho') I1/I0(beta sqrt(rho rho'))>_bond)."""
    values = _point(p, beta, m, observables=True)[1]
    return values["density"], values["energy"]


# the models by CLI name; each params class is its model
MODELS = {cls.name: cls for cls in (ParticleChainParams, DnlsParams,
                                    CylinderParams)}


@dataclass(frozen=True)
class SweepSpec:
    """A free-energy sweep: model parameters, beta grid, quadrature size.

    `observables` asks for all of the model's observable columns, in
    its `observables` order, or none; the cylinder has none.
    """

    params: object
    beta_grid: np.ndarray
    m: int
    observables: bool = False

    def __post_init__(self):
        grid = np.atleast_1d(np.asarray(self.beta_grid, dtype=float))
        object.__setattr__(self, "beta_grid", grid)
        if grid.ndim != 1:
            raise DomainError(f"beta grid must be 1-D, got shape {grid.shape}")
        if grid.size == 0:
            raise DomainError("empty beta grid")
        if np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
            raise DomainError("beta grid must be positive and finite")
        if np.any(np.diff(grid) <= 0.0):
            raise DomainError("beta grid must be strictly increasing")
        if not isinstance(self.params, tuple(MODELS.values())):
            raise DomainError(
                f"unknown model parameter type {type(self.params).__name__}")
        _check_m(self.m)
        if not isinstance(self.observables, bool):
            raise DomainError(f"observables must be True or False, "
                              f"got {self.observables!r}")
        if self.observables and not self.params.observables:
            raise DomainError(f"observables are not defined for the "
                              f"{self.params.name} model")


@dataclass(frozen=True)
class SweepResult:
    """One row per grid point: beta, F, and the observables if asked for."""

    spec: SweepSpec
    free_energy: np.ndarray
    observables: dict = field(default_factory=dict)

    @property
    def betas(self):
        return self.spec.beta_grid

    def columns(self):
        """(header, column arrays) in CSV order."""
        names = ["beta", "free_energy"] + list(self.observables)
        return names, [self.betas, self.free_energy, *self.observables.values()]


def _sweep_row(spec, betas, start):
    """F and the observables at each beta of one block, the block whose
    first row is grid row `start`."""
    return _solve_block(spec.params, betas, spec.m, spec.observables, start)


def free_energy_sweep(spec, threads=None):
    """Evaluate the sweep one block of grid rows at a time, each block
    one stacked solve, on a thread pool over blocks when threads > 1
    (BLAS `matmul` releases the GIL, and each thread squares in its own
    held stack memory); threads is None or a positive integer."""
    if threads is not None:
        _check_m(threads, "threads")
    grid = spec.beta_grid
    rows = _block_rows(spec.m)
    starts = range(0, grid.size, rows)
    # _sweep_row stays, looked up by name at each call, so that a
    # harness that rebinds thermo._sweep_row (the benchmark's row timer
    # and tracer) sees every block
    block = lambda i: _sweep_row(spec, grid[i:i + rows], i)
    if threads is not None and threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            solved = list(pool.map(block, starts))
    else:
        solved = [block(i) for i in starts]
    free = np.concatenate([f for f, _ in solved])
    obs = {k: np.concatenate([o[k] for _, o in solved]) for k in solved[0][1]}
    return SweepResult(spec=spec, free_energy=free, observables=obs)
