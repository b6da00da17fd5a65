"""Free-energy sweeps over beta and finite-difference observables.

Observables are first derivatives of the free energy surface:

    particle chain:  <(q_l - q_{l+1})^2 / 2> = dF/dgamma
                     <e_l> = d(beta F)/dbeta
    DNLS:            <rho_l> = -dF/dmu
                     <e_l> = d(beta F)/dbeta + mu <rho_l>

They are computed with the order-6 central 7-point stencil; every
stencil point is a full transfer-operator solve (the DNLS quadrature
rule depends on mu and beta, so it is rebuilt per evaluation).  The
default steps h = 1e-3 max(1, |x|) balance the O(h^6) truncation error
against the ~eps/h roundoff amplification; the optimum sits near
eps^(1/7) and is flat over a couple of decades.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (AssemblyError, ConvergenceError, DomainError,
                     ResourceLimitError)
# the free-energy, observable and reference routes are called through
# this module's globals by the names in MODELS
from .models import (CylinderParams, DnlsParams, ParticleChainParams,
                     _chain_free_energy_raw, _dnls_free_energy_raw,
                     cylinder_free_energy, dnls_free_energy,
                     particle_chain_free_energy, reference_cylinder_ax0,
                     reference_particle_chain_gamma0)

__all__ = ["Model", "MODELS", "SweepSpec", "SweepResult",
           "fd_derivative", "particle_chain_observables", "dnls_observables",
           "map_rows", "free_energy_sweep", "OBSERVABLE_COLUMNS"]

# canonical CSV column order; each model supports a subset
OBSERVABLE_COLUMNS = ("stretch_sq", "energy", "density")


def default_step(x):
    """Default stencil step 1e-3 max(1, |x|)."""
    return 1e-3 * max(1.0, abs(x))


def fd_derivative(f, x, order=1, accuracy=6, *, h):
    """First derivative of f at x by the order-6 central stencil.

    Only (order=1, accuracy=6) is implemented; the stencil is exact on
    polynomials through degree 6 and has O(h^6) error on smooth f.
    """
    if order != 1 or accuracy != 6:
        raise DomainError(
            f"only the (order=1, accuracy=6) stencil is available, "
            f"got order={order!r}, accuracy={accuracy!r}")
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


def _check_beta_stencil(beta, h_beta):
    if beta - 3.0 * h_beta <= 0.0:
        raise DomainError(
            f"beta stencil leaves the domain: beta={beta!r}, h={h_beta!r}")


def particle_chain_observables(p, beta, m, h_gamma=None, h_beta=None):
    """(<stretch^2/...>, <e>) = (dF/dgamma, d(beta F)/dbeta) at one point.

    The gamma stencil straddles gamma=0 for the default parameters;
    the raw kernel path accepts that (the matrix stays positive).
    """
    if h_gamma is None:
        h_gamma = default_step(p.gamma)
    if h_beta is None:
        h_beta = default_step(beta)
    _check_beta_stencil(beta, h_beta)
    m = int(m)

    def f_of_gamma(g):
        return _chain_free_energy_raw(p.eta, p.mu3, p.lam, g, beta, m)

    def betaf_of_beta(b):
        return b * _chain_free_energy_raw(p.eta, p.mu3, p.lam, p.gamma, b, m)

    stretch_sq = fd_derivative(f_of_gamma, p.gamma, h=h_gamma)
    energy = fd_derivative(betaf_of_beta, beta, h=h_beta)
    return stretch_sq, energy


def dnls_observables(p, beta, m, h_mu=None, h_beta=None):
    """(<rho>, <e>) = (-dF/dmu, d(beta F)/dbeta + mu <rho>) at one point."""
    if h_mu is None:
        h_mu = default_step(p.mu_c)
    if h_beta is None:
        h_beta = default_step(beta)
    _check_beta_stencil(beta, h_beta)
    m = int(m)

    def f_of_mu(u):
        return _dnls_free_energy_raw(p.g, u, beta, m)

    def betaf_of_beta(b):
        return b * _dnls_free_energy_raw(p.g, p.mu_c, b, m)

    density = -fd_derivative(f_of_mu, p.mu_c, h=h_mu)
    energy = fd_derivative(betaf_of_beta, beta, h=h_beta) + p.mu_c * density
    return density, energy


@dataclass(frozen=True)
class Model:
    """One model's entry points: name, params class, size flag, routes.

    Routes are names of functions in this module, looked up when
    called, so a wrapper installed on the module attribute (a
    profiler's, a test's) is the function that runs.  `observe` returns
    the `observables` columns in that order; `reference` is the
    factorized-limit free energy, defined when the params field named
    by `reference_zero` is 0.
    """

    name: str
    params: type
    size: str
    free_energy: str
    observables: tuple = ()
    observe: str = None
    reference: str = None
    reference_zero: str = None

    def _route(self, attr):
        return globals()[getattr(self, attr)]

    def free_energy_at(self, params, beta, m):
        return self._route("free_energy")(params, beta, m)

    def observe_at(self, params, beta, m):
        """{column: value} for every observable of the model."""
        values = self._route("observe")(params, beta, m)
        return dict(zip(self.observables, values))

    def factorized_at(self, params, beta):
        """Factorized-limit free energy, or None away from that limit."""
        if self.reference is None or getattr(params, self.reference_zero) != 0.0:
            return None
        return self._route("reference")(params, beta)


MODELS = {model.name: model for model in (
    Model("chain", ParticleChainParams, size="m",
          free_energy="particle_chain_free_energy",
          observables=("stretch_sq", "energy"),
          observe="particle_chain_observables",
          reference="reference_particle_chain_gamma0", reference_zero="gamma"),
    Model("dnls", DnlsParams, size="m", free_energy="dnls_free_energy",
          observables=("density", "energy"), observe="dnls_observables"),
    Model("cylinder", CylinderParams, size="m0",
          free_energy="cylinder_free_energy",
          reference="reference_cylinder_ax0", reference_zero="ax"),
)}


def _model_of(params):
    """The MODELS entry for a params object."""
    for model in MODELS.values():
        if isinstance(params, model.params):
            return model
    raise DomainError(f"unknown model parameter type {type(params).__name__}")


@dataclass(frozen=True)
class SweepSpec:
    """A free-energy sweep: model parameters, beta grid, quadrature size.

    `observables` is a subset of the model's observable columns (chain:
    stretch_sq/energy, DNLS: energy/density, cylinder: none), kept in
    OBSERVABLE_COLUMNS order.
    """

    params: object
    beta_grid: np.ndarray
    m: int
    observables: tuple = ()

    def __post_init__(self):
        grid = np.atleast_1d(np.asarray(self.beta_grid, dtype=float))
        object.__setattr__(self, "beta_grid", grid)
        if grid.size == 0:
            raise DomainError("empty beta grid")
        if np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
            raise DomainError("beta grid must be positive and finite")
        if np.any(np.diff(grid) <= 0.0):
            raise DomainError("beta grid must be strictly increasing")
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise DomainError(f"m must be a positive integer, got {self.m!r}")
        supported = _model_of(self.params).observables
        obs = tuple(self.observables)
        for name in obs:
            if name not in supported:
                raise DomainError(
                    f"observable {name!r} not available for "
                    f"{type(self.params).__name__} (supported: {supported})")
        # keep canonical column order regardless of request order
        obs = tuple(c for c in OBSERVABLE_COLUMNS if c in obs)
        object.__setattr__(self, "observables", obs)


@dataclass(frozen=True)
class SweepResult:
    """One row per grid point: beta, F, and any requested observables."""

    spec: SweepSpec
    free_energy: np.ndarray
    observables: dict = field(default_factory=dict)

    @property
    def betas(self):
        return self.spec.beta_grid

    def columns(self):
        """(header, column arrays) in CSV order."""
        names = ["beta", "free_energy"] + list(self.spec.observables)
        cols = [self.betas, self.free_energy]
        cols += [self.observables[k] for k in self.spec.observables]
        return names, cols


def _sweep_row(spec, beta):
    model = _model_of(spec.params)
    try:
        f = model.free_energy_at(spec.params, beta, spec.m)
        obs = {}
        if spec.observables:
            available = model.observe_at(spec.params, beta, spec.m)
            obs = {k: available[k] for k in spec.observables}
    except (AssemblyError, ConvergenceError, ResourceLimitError) as exc:
        # keep the exception type, name the grid point that failed
        raise type(exc)(f"at beta={float(beta)!r}, m={spec.m}: {exc}") from exc
    return f, obs


def map_rows(fn, items, threads=None):
    """[fn(x) for x in items], on a thread pool when threads > 1.

    Results come back in input order regardless of completion order;
    the calls must be independent (numpy linear algebra releases the
    GIL, so threads give real parallelism for the matrix work).
    """
    if threads is not None and threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def free_energy_sweep(spec, threads=None):
    """Evaluate the sweep, optionally on a thread pool over grid points."""
    rows = map_rows(lambda b: _sweep_row(spec, b), spec.beta_grid, threads)
    free = np.array([r[0] for r in rows])
    obs = {k: np.array([r[1][k] for r in rows]) for k in spec.observables}
    return SweepResult(spec=spec, free_energy=free, observables=obs)
