"""Free-energy sweeps over beta and Hellmann-Feynman observables.

Observables are first derivatives of the free energy surface:

    particle chain:  <(q_l - q_{l+1})^2 / 2> = dF/dgamma
                     <e_l> = d(beta F)/dbeta
    DNLS:            <rho_l> = -dF/dmu
                     <e_l> = d(beta F)/dbeta + mu <rho_l>

By Hellmann-Feynman (d log lambda_1 = v.(dT)v / lambda_1, v the unit
Perron vector) each is an expectation over the marginals of the solve
that gives F.  The chain's energy is the exact beta-derivative of its
m-point beta F: the Hermite nodes x_i / sqrt(beta c), c = sqrt(eta (eta
+ 4 gamma)), leave d log T_ij/dbeta = mu3 (q_i^3 + q_j^3)/24 + lam (q_i^4
+ q_j^4)/48, since c does not depend on beta.  c does depend on gamma,
so the rule moves with gamma and the chain's stretch_sq is exact only up
to quadrature error, as are the DNLS observables, whose rule moves with
mu and beta.  `fd_derivative` is an independent route, for tests and
selftest.

A sweep cuts its beta grid into blocks of rows and solves each block
as one stack: one rule stack, one (B, m, m) assembly and one stacked
eigensolve, with F, the marginals and the observables computed for
the whole block along its leading beta axis.  The public one-point
routes are a block of one, so they give the same bits as the sweep's
row, whatever the block split or thread count.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (AssemblyError, ConvergenceError, DomainError,
                     ResourceLimitError)
# the free-energy and reference routes are called through this module's
# globals by the names in MODELS; the benchmark tracer wraps the _raw ones
from .models import (CylinderParams, DnlsParams, ParticleChainParams,
                     _chain_free_energy_raw, _chain_solve, _check_beta,
                     _check_m, _cylinder_free_energy_raw,
                     _dnls_free_energy_raw, _dnls_solve,
                     cylinder_free_energy, dnls_free_energy,
                     particle_chain_free_energy, reference_cylinder_ax0,
                     reference_particle_chain_gamma0)
from .specfun import i0_scaled, i1_scaled

__all__ = ["Model", "MODELS", "SweepSpec", "SweepResult",
           "fd_derivative", "particle_chain_observables", "dnls_observables",
           "map_rows", "free_energy_sweep", "OBSERVABLE_COLUMNS"]

# canonical CSV column order; each model supports a subset
OBSERVABLE_COLUMNS = ("stretch_sq", "energy", "density")


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


def _marginals(T, eig):
    """Nodes z_i, site marginal v_i^2 and bond marginal
    v_i T_ij v_j / lambda_1 of a stacked solve, each with the block's
    leading beta axis."""
    v = eig.vector
    bond = v[:, :, None] * T.entries * v[:, None, :] / eig.lambda1[:, None, None]
    return T.rule.nodes, v * v, bond


def _pair_sum(x):
    # sum over the (m, m) pair axes, one row per beta
    return x.reshape(x.shape[0], -1).sum(axis=-1)


def _one_point(row, p, beta, m):
    """The observables of a block route at one beta, as a block of one."""
    _check_beta(beta)
    _check_m(m)
    _, values = row(p, np.array([beta], dtype=float), int(m))
    return tuple(float(x[0]) for x in values)


def _chain_row(p, betas, m, observables=True):
    """F and (stretch_sq, energy) of the particle chain at each beta of
    a block, from one stacked solve; observables=False skips them."""
    f, T, eig = _chain_solve(p.eta, p.mu3, p.lam, p.gamma, betas, m)
    if not observables:
        return f, ()
    q, site, bond = _marginals(T, eig)
    d = q[:, :, None] - q[:, None, :]
    stretch_sq = _pair_sum(bond * d * d) / 2.0
    energy = 1.0 / betas - np.sum(site * (p.mu3 * q ** 3 / 12.0
                                          + p.lam * q ** 4 / 24.0), axis=-1)
    return f, (stretch_sq, energy)


def particle_chain_observables(p, beta, m):
    """(dF/dgamma, d(beta F)/dbeta) at one point = (<(q - q')^2/2>_bond,
    1/beta - <mu3 q^3/12 + lam q^4/24>_site)."""
    return _one_point(_chain_row, p, beta, m)


def _dnls_row(p, betas, m, observables=True):
    """F and (density, energy) of the DNLS chain at each beta of a
    block, from one stacked solve; observables=False skips them."""
    f, T, eig = _dnls_solve(p.g, p.mu_c, betas, m)
    if not observables:
        return f, ()
    r, site, bond = _marginals(T, eig)
    s = np.sqrt(r[:, :, None] * r[:, None, :])
    x = betas[:, None, None] * s
    hop = s * i1_scaled(x) / i0_scaled(x)
    energy = (np.sum(site * (r + 0.5 * p.g * r ** 2), axis=-1)
              - _pair_sum(bond * hop))
    return f, (np.sum(site * r, axis=-1), energy)


def dnls_observables(p, beta, m):
    """(-dF/dmu, d(beta F)/dbeta + mu <rho>) at one point = (<rho>_site,
    <rho + g rho^2/2>_site - <sqrt(rho rho') I1/I0(beta sqrt(rho rho'))>_bond)."""
    return _one_point(_dnls_row, p, beta, m)


def _cylinder_row(p, betas, m0, observables=False):
    """F of the cylinder at each beta of a block; it has no observables."""
    return _cylinder_free_energy_raw(p, betas, m0), ()


@dataclass(frozen=True)
class Model:
    """One model's entry points: name, params class, size flag, routes.

    Routes are names of functions in this module, looked up when
    called, so a wrapper installed on the module attribute (a
    profiler's, a test's) is the function that runs.  `free_energy`
    takes one beta; `block` takes a 1-D array of beta and returns F and
    the `observables` columns in that order, from one stacked solve;
    `reference` is the factorized-limit free energy, defined when the
    params field named by `reference_zero` is 0.
    """

    name: str
    params: type
    size: str
    free_energy: str
    block: str
    observables: tuple = ()
    reference: str = None
    reference_zero: str = None

    def _route(self, attr):
        return globals()[getattr(self, attr)]

    def free_energy_at(self, params, beta, m):
        return self._route("free_energy")(params, beta, m)

    def block_at(self, params, betas, m, observables=()):
        """(F, {column: values}) at each beta of a block, for the
        requested observable columns."""
        f, values = self._route("block")(params, betas, m, bool(observables))
        columns = dict(zip(self.observables, values))
        return f, {k: columns[k] for k in observables}

    def factorized_at(self, params, beta):
        """Factorized-limit free energy, or None away from that limit."""
        if self.reference is None or getattr(params, self.reference_zero) != 0.0:
            return None
        return self._route("reference")(params, beta)


MODELS = {model.name: model for model in (
    Model("chain", ParticleChainParams, size="m",
          free_energy="particle_chain_free_energy", block="_chain_row",
          observables=("stretch_sq", "energy"),
          reference="reference_particle_chain_gamma0", reference_zero="gamma"),
    Model("dnls", DnlsParams, size="m", free_energy="dnls_free_energy",
          block="_dnls_row", observables=("density", "energy")),
    Model("cylinder", CylinderParams, size="m0",
          free_energy="cylinder_free_energy", block="_cylinder_row",
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
        _check_m(self.m)
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


# a block's (B, m, m) matrix stack holds at most about this many entries,
# so memory does not grow with the grid's length
_BLOCK_ENTRIES = 2 ** 21


def _grid_point(betas, exc):
    # the beta a failure belongs to: the stack index the error carries,
    # or the only beta of a block of one
    index = getattr(exc, "index", None)
    if index is None and len(betas) > 1:
        return f"beta in [{float(betas[0])!r}, {float(betas[-1])!r}]"
    return f"beta={float(betas[index or 0])!r}"


def _sweep_row(spec, betas):
    """F and the requested observables at each beta of one block."""
    model = _model_of(spec.params)
    try:
        return model.block_at(spec.params, betas, spec.m, spec.observables)
    except (AssemblyError, ConvergenceError, ResourceLimitError) as exc:
        # keep the exception type, name the grid point that failed
        raise type(exc)(
            f"at {_grid_point(betas, exc)}, m={spec.m}: {exc}") from exc


def map_rows(fn, items, threads=None):
    """[fn(x) for x in items], in input order; on a thread pool of
    independent calls when threads > 1."""
    if threads is not None and threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def free_energy_sweep(spec, threads=None):
    """Evaluate the sweep one block of grid rows at a time, each block
    one stacked solve, optionally on a thread pool over blocks (LAPACK
    releases the GIL)."""
    grid = spec.beta_grid
    rows = max(1, _BLOCK_ENTRIES // spec.m ** 2)
    blocks = [grid[i:i + rows] for i in range(0, grid.size, rows)]
    solved = map_rows(lambda b: _sweep_row(spec, b), blocks, threads)
    free = np.concatenate([f for f, _ in solved])
    obs = {k: np.concatenate([o[k] for _, o in solved])
           for k in spec.observables}
    return SweepResult(spec=spec, free_energy=free, observables=obs)
