"""The stacked path: a sweep solves a block of beta rows as one stack.

Oracles: the public one-point routes, which solve a block of one, must
give the same bits (==) as the sweep's rows whatever the block split or
thread count; stacked rules and eigensolves against the same objects
built one beta at a time; a failure injected at one grid point, keyed
on its matrix or its s, must name that beta, m and grid row in one
block, in a later block and on two threads.
"""

import warnings

import numpy as np
import pytest

import thermo_transfer.nystrom as nystrom
from thermo_transfer import models, quadrature, thermo
from thermo_transfer.errors import (AssemblyError, ConvergenceError,
                                    DomainError, NumericError)
from thermo_transfer.models import (
    CylinderParams,
    DnlsParams,
    ParticleChainParams,
    _chain_solve,
    _dnls_solve,
    cylinder_free_energy,
    dnls_free_energy,
    particle_chain_free_energy,
)
from thermo_transfer.nystrom import LogKernel, assemble, dominant_eigenvalue
from thermo_transfer.quadrature import QuadratureRule, gauss_hermite_rescaled
from thermo_transfer.thermo import (
    SweepSpec,
    dnls_observables,
    free_energy_sweep,
    particle_chain_observables,
)

CHAIN = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0)
DNLS = DnlsParams(g=1.0, mu_c=1.0)
CYLINDER = CylinderParams(eta=1.0, ax=0.5, ay=0.2, ly=3)

# (params, m, observables, one-point F, one-point observables in the
# model's column order)
CASES = {
    "chain": (CHAIN, 12, True, particle_chain_free_energy,
              particle_chain_observables),
    "dnls": (DNLS, 10, True, dnls_free_energy,
             lambda p, b, m: dnls_observables(p, b, m)[::-1]),
    "cylinder": (CYLINDER, 6, False, cylinder_free_energy, None),
}
GRID = np.linspace(0.5, 6.5, 7)


def _blocks_of(monkeypatch, rows, m):
    monkeypatch.setattr(models, "_BLOCK_ENTRIES", rows * m * m)


@pytest.mark.parametrize("model", sorted(CASES))
@pytest.mark.parametrize("rows, threads", [(None, None), (3, None), (3, 2),
                                           (1, 2)])
def test_sweep_rows_equal_one_point_routes(monkeypatch, model, rows, threads):
    params, m, obs, free_energy, observables = CASES[model]
    if rows is not None:
        _blocks_of(monkeypatch, rows, m)
    res = free_energy_sweep(SweepSpec(params=params, beta_grid=GRID, m=m,
                                      observables=obs), threads=threads)
    plain = free_energy_sweep(SweepSpec(params=params, beta_grid=GRID, m=m),
                              threads=threads)
    for i, beta in enumerate(GRID):
        f = free_energy(params, beta, m)
        assert res.free_energy[i] == f and plain.free_energy[i] == f
        if observables is not None:
            expect = dict(zip(params.observables,
                              observables(params, beta, m)))
            for name, value in expect.items():
                assert res.observables[name][i] == value, (name, beta)


def _count_golub_welsch(monkeypatch):
    # the mass beta_0 of each recurrence Golub-Welsch turns into a rule;
    # it is a strictly monotone function of s
    real = quadrature.golub_welsch
    masses = []
    monkeypatch.setattr(quadrature, "golub_welsch",
                        lambda rc: masses.append(rc.beta[0]) or real(rc))
    return masses


def test_mu0_sweep_builds_each_refinement_level_once(monkeypatch):
    # at mu = 0 every beta has s = 0, so one rule, built from one Lanczos
    # run per refinement level it compares and one Golub-Welsch, serves
    # the whole sweep; its rows are the one-point routes'
    real = quadrature._lanczos
    built = []

    def spy(x, w, m):
        built.append(x.size)
        return real(x, w, m)

    monkeypatch.setattr(quadrature, "_lanczos", spy)
    rules = _count_golub_welsch(monkeypatch)
    quadrature._stieltjes.cache_clear()
    p = DnlsParams(g=1.0, mu_c=0.0)
    grid = np.geomspace(0.1, 30.0, 64)
    res = free_energy_sweep(SweepSpec(params=p, beta_grid=grid, m=20,
                                      observables=True))
    # 12 one-wide panels at s = 0; levels 24 and 32 agree at m = 20
    assert built == [12 * 24, 12 * 32]
    for i, beta in enumerate(grid):
        assert res.free_energy[i] == dnls_free_energy(p, beta, 20)
        density, energy = dnls_observables(p, beta, 20)
        assert res.observables["density"][i] == density
        assert res.observables["energy"][i] == energy
    # the one-point solves read the same cached rule
    assert len(built) == 2
    assert len(rules) == 1


def test_two_dnls_sweeps_build_each_rule_once(monkeypatch):
    # the (s, m) cache holds the finished Gauss rules: across two sweeps
    # whose grids share four betas, Golub-Welsch runs once per (s, m)
    masses = _count_golub_welsch(monkeypatch)
    quadrature._stieltjes.cache_clear()
    first = free_energy_sweep(SweepSpec(params=DNLS, beta_grid=GRID, m=10,
                                        observables=True))
    assert len(masses) == GRID.size
    grid = np.append(GRID[::2], 7.5)
    second = free_energy_sweep(SweepSpec(params=DNLS, beta_grid=grid, m=10))
    assert len(masses) == GRID.size + 1
    assert len(set(masses)) == len(masses)
    assert np.array_equal(second.free_energy[:-1], first.free_energy[::2])


def test_block_size_caps_matrix_entries(monkeypatch):
    seen = []
    original = thermo._sweep_row

    def spy(spec, betas, start):
        seen.append(betas.size)
        return original(spec, betas, start)

    monkeypatch.setattr(thermo, "_sweep_row", spy)
    _blocks_of(monkeypatch, 3, 12)
    free_energy_sweep(SweepSpec(params=CHAIN, beta_grid=GRID, m=12))
    assert seen == [3, 3, 1]
    seen.clear()
    monkeypatch.undo()
    monkeypatch.setattr(thermo, "_sweep_row", spy)
    free_energy_sweep(SweepSpec(params=CHAIN, beta_grid=GRID, m=12))
    assert seen == [7]


# --- a failure inside a block names its own beta ------------------------------

# the failing grid row of an injected fault: the fourth matrix of one
# block, the second of the later block [2, 3] in blocks of two rows
K = 3


def _chain(betas, m):
    return _chain_solve(CHAIN.eta, CHAIN.mu3, CHAIN.lam, CHAIN.gamma, betas, m)


def _dnls(betas, m):
    return _dnls_solve(DNLS.g, DNLS.mu_c, betas, m)


def _t01(solve, m):
    # entry (0, 1) of grid row K's matrix solved alone, which keys a
    # fault on the matrix, never on a call count or a stack position
    return solve(GRID[K:K + 1], m)[1].entries[0, 0, 1]


def _assert_names_its_grid_point(monkeypatch, params, m, k, head):
    """Sweep GRID, with a fault installed, in one block, with row k in a
    later block of two rows, and with two threads over those blocks:
    each names row k's beta, m and grid row before `head`, keeps the
    type and residual of row k's error alone, and is the error of the
    one-point route at row k's beta."""
    obs = bool(params.observables)
    with pytest.raises(NumericError) as point:
        models._point(params, GRID[k], m, obs)
    one_block = models._BLOCK_ENTRIES
    for rows, threads in [(None, None), (2, None), (2, 2)]:
        monkeypatch.setattr(models, "_BLOCK_ENTRIES",
                            one_block if rows is None else rows * m * m)
        with pytest.raises(NumericError) as exc:
            free_energy_sweep(SweepSpec(params=params, beta_grid=GRID, m=m,
                                        observables=obs), threads=threads)
        error, cause = exc.value, exc.value.__cause__
        assert str(error).startswith(f"at beta={float(GRID[k])!r}, m={m}: {head}")
        assert error.index == k
        assert type(error) is type(cause) and error.residual == cause.residual
        assert str(error) == str(point.value)
    return error


@pytest.mark.parametrize("model", ["chain", "dnls"])
def test_eigensolve_failure_names_its_grid_point(monkeypatch, model):
    # the Perron-vector step hands back all ones, not an eigenvector,
    # for row K's matrix, told by its (0, 1) entry negated
    params, m = CASES[model][:2]
    marker = -_t01({"chain": _chain, "dnls": _dnls}[model], m)
    real = np.linalg.solve

    def solve(a, b):
        x = real(a, b)
        x[a[:, 0, 1] == marker] = 1.0
        return x

    monkeypatch.setattr(nystrom.np.linalg, "solve", solve)
    error = _assert_names_its_grid_point(monkeypatch, params, m, K,
                                         "eigenvalue residual ")
    assert isinstance(error, ConvergenceError) and error.residual > 1e-14


@pytest.mark.parametrize("step", ["eigvalsh", "solve"])
def test_lapack_failure_names_its_grid_point(monkeypatch, step):
    # LAPACK fails on row K's chain matrix, told by its (0, 1) entry,
    # which the shifted solve sees negated
    marker = (1.0 if step == "eigvalsh" else -1.0) * _t01(_chain, 12)
    real = getattr(np.linalg, step)

    def fake(a, *args):
        if np.any(a[:, 0, 1] == marker):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a, *args)

    monkeypatch.setattr(nystrom.np.linalg, step, fake)
    error = _assert_names_its_grid_point(
        monkeypatch, CHAIN, 12, K,
        "dense eigensolve failed: Eigenvalues did not converge")
    assert isinstance(error, ConvergenceError) and error.residual is None
    assert isinstance(error.__cause__.__cause__, np.linalg.LinAlgError)


def test_eigensolve_failure_in_a_later_block(monkeypatch):
    # blocks of two rows; row K is the second matrix of the later block
    # [2, 3], and its Perron-vector step hands back all ones
    _blocks_of(monkeypatch, 2, 12)
    marker = -_t01(_chain, 12)
    real = np.linalg.solve

    def solve(a, b):
        x = real(a, b)
        x[a[:, 0, 1] == marker] = 1.0
        return x

    monkeypatch.setattr(nystrom.np.linalg, "solve", solve)
    with pytest.raises(ConvergenceError) as exc:
        free_energy_sweep(SweepSpec(params=CHAIN, beta_grid=GRID, m=12))
    assert str(exc.value).startswith(f"at beta={float(GRID[K])!r}, m=12: ")
    # the error gives the grid row, not the row in its block
    assert exc.value.index == K


def test_non_finite_assembly_names_beta_and_node_pair(monkeypatch):
    # every log entry of row K's chain matrix overflows
    real = models._anharmonic_site
    monkeypatch.setattr(models, "_anharmonic_site",
                        lambda mu3, lam, beta, q: np.where(
                            beta == GRID[K], 1e3, real(mu3, lam, beta, q)))
    error = _assert_names_its_grid_point(
        monkeypatch, CHAIN, 12, K,
        "overflowing kernel value at node pair (0, 0): ")
    assert isinstance(error, AssemblyError) and error.residual is None


def test_rule_failure_names_its_grid_point(monkeypatch):
    # the Stieltjes rule of row K's s does not stabilize
    s_k = float(-DNLS.mu_c * np.sqrt(GRID[K:K + 1] / DNLS.g)[0])
    real = models.stieltjes_rule

    def stieltjes_rule(s, m):
        if s == s_k:
            raise ConvergenceError("Stieltjes discretization did not stabilize",
                                   residual=3e-13)
        return real(s, m)

    monkeypatch.setattr(models, "stieltjes_rule", stieltjes_rule)
    error = _assert_names_its_grid_point(
        monkeypatch, DNLS, 10, K, "Stieltjes discretization did not stabilize")
    assert isinstance(error, ConvergenceError) and error.residual == 3e-13


def test_cylinder_ring_mode_failure_names_the_first_beta_and_mode(monkeypatch):
    # no injection: a ring mode above the eigen residual tolerance fails
    # every beta, so the block's first beta is named, with the first
    # mode that fails alone
    cyl = CylinderParams(eta=1e-3, ax=50.0, ay=0.2, ly=64)
    eta_k = float(np.unique(models._ring_spectrum(cyl))[4])
    error = _assert_names_its_grid_point(
        monkeypatch, cyl, 30, 0,
        f"ring mode eta_k={eta_k!r}: eigenvalue residual ")
    assert isinstance(error, ConvergenceError) and error.residual > 1e-14


def _failing_rule(s, m):
    # a Stieltjes rule that does not stabilize, injected: no DNLS point
    # of the map fails on its own
    raise ConvergenceError("Stieltjes discretization did not stabilize "
                           "to 1e-14 (last coefficient change 3.000e-13)",
                           residual=3e-13)


# one-point failures at the edges of the domain: the chain's overflowing
# double well at deep quench, a DNLS rule that does not stabilize
# (injected), a cylinder ring mode above the eigen residual tolerance,
# and the chain's nan Perron vector at beta = 638 (ROADMAP, Known
# defects); the last entry is a rule builder to inject, or None
EDGE_POINTS = {
    "chain-overflow": (particle_chain_free_energy,
                       ParticleChainParams(0.01, 1.0, 1.0, 0.0), 1000.0, 30,
                       None),
    "dnls-rule": (dnls_free_energy, DnlsParams(1.0, -3.0), 60.0, 20,
                  _failing_rule),
    "cylinder-mode": (cylinder_free_energy,
                      CylinderParams(1e-3, 50.0, 0.2, 64), 2.0, 30, None),
    "chain-nan-vector": (particle_chain_free_energy,
                         ParticleChainParams(0.01, 1.0, 1.0, 0.0), 638.0, 30,
                         None),
}


@pytest.mark.parametrize("case", sorted(EDGE_POINTS))
def test_one_point_failure_is_the_one_row_sweep_failure(monkeypatch, case):
    route, params, beta, m, rule = EDGE_POINTS[case]
    if rule is not None:
        monkeypatch.setattr(models, "stieltjes_rule", rule)
    # a warning on the way (numpy's on a nan vector) fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as point:
            route(params, beta, m)
        with pytest.raises(NumericError) as row:
            free_energy_sweep(SweepSpec(params=params, beta_grid=[beta], m=m))
    assert type(point.value) is type(row.value)
    assert str(point.value) == str(row.value)
    assert str(point.value).startswith(f"at beta={beta!r}, m={m}: ")
    assert point.value.index == row.value.index


# valid params and beta whose solve computes a value outside the domain
# of a function below the checks (a precision of inf or 0, s = -inf,
# nodes that round together, an I0 argument of nan) or a DNLS grid whose
# ends round to one double: (route, params, beta, m, the cause's text)
COMPUTED_EDGES = {
    "chain-precision-inf": (particle_chain_free_energy,
                            ParticleChainParams(1e-8, 0.0, 1e-8, 1e300),
                            1e300, 30, "precision parameter a must be positive"),
    "chain-precision-0": (particle_chain_free_energy,
                          ParticleChainParams(1e-300, 0.0, 1e-8, 0.0),
                          1e-300, 30, "precision parameter a must be positive"),
    "cylinder-precision-inf": (cylinder_free_energy,
                               CylinderParams(1e8, 1e300, 0.0, 1), 1.0, 8,
                               "precision parameter a must be positive"),
    "cylinder-precision-0": (cylinder_free_energy,
                             CylinderParams(1e-300, 0.0, 0.0, 3), 1.0, 8,
                             "precision parameter a must be positive"),
    "dnls-s-inf": (dnls_free_energy, DnlsParams(1e-300, 1e-300), 1e20, 20,
                   "s must be finite"),
    "dnls-nodes": (dnls_free_energy, DnlsParams(1e300, -1e300), 1e20, 20,
                   "nodes must be strictly increasing"),
    "dnls-i0": (dnls_free_energy, DnlsParams(1e-300, -1e300), 1e-300, 1,
                "i0_scaled expects finite arguments"),
    "dnls-grid-beta": (dnls_free_energy, DnlsParams(1.0, 1.0), 1e40, 20,
                       "grid at s=-1e\\+20 has no width"),
    "dnls-grid-g": (dnls_free_energy, DnlsParams(1e-300, 1.0), 1.0, 20,
                    "grid at s=-1e\\+150 has no width"),
}


@pytest.mark.parametrize("case", sorted(COMPUTED_EDGES))
def test_a_failure_below_the_checks_is_named_by_its_grid_point(case):
    route, params, beta, m, cause = COMPUTED_EDGES[case]
    with pytest.raises(NumericError, match=cause) as point:
        route(params, beta, m)
    with pytest.raises(NumericError) as row:
        free_energy_sweep(SweepSpec(params=params, beta_grid=[beta], m=m))
    assert str(point.value).startswith(f"at beta={beta!r}, m={m}: ")
    assert point.value.index == 0
    assert type(point.value) is type(row.value)
    assert str(point.value) == str(row.value)
    assert row.value.index == 0


# --- the stacked layers ------------------------------------------------------

def test_assembled_stacks_are_exactly_symmetric():
    betas = np.array([0.5, 2.0, 9.0])
    _, T, _, _ = _chain_solve(1.0, 0.2, 0.2, 1.0, betas, 17)
    assert T.entries.shape == (3, 17, 17)
    assert np.array_equal(T.entries, T.entries.swapaxes(-1, -2))
    _, T, _, _ = _dnls_solve(1.0, 1.0, betas, 11)
    assert np.array_equal(T.entries, T.entries.swapaxes(-1, -2))
    # a kernel whose two argument orders round differently
    kern = LogKernel(lambda z, zp: -0.1 * z ** 3 - 0.1 * zp ** 3 + 0.3 * z * zp,
                     site=lambda z: -0.7 * z * z)
    E = assemble(kern, gauss_hermite_rescaled(20, betas)).entries
    assert np.array_equal(E, E.swapaxes(-1, -2))


def test_stacked_solve_equals_each_beta_alone():
    betas = np.array([0.5, 2.0, 9.0])
    f, T, eig, _ = _chain_solve(1.0, 0.2, 0.2, 1.0, betas, 15)
    assert eig.lambda1.shape == (3,) and eig.vector.shape == (3, 15)
    assert isinstance(eig.residual, float) and eig.iterations == 1
    assert T.order == 15 and len(T.rule) == 15
    for k in range(3):
        f1, T1, eig1, _ = _chain_solve(1.0, 0.2, 0.2, 1.0, betas[k:k + 1], 15)
        assert f1[0] == f[k]
        assert np.array_equal(T1.entries[0], T.entries[k])
        assert eig1.lambda1[0] == eig.lambda1[k]
        assert np.array_equal(eig1.vector[0], eig.vector[k])
    assert eig.residual == max(
        dominant_eigenvalue(T.entries[k]).residual for k in range(3))


def test_single_matrix_gives_scalars():
    eig = dominant_eigenvalue(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert isinstance(eig.lambda1, float) and eig.vector.shape == (2,)


def test_hermite_rule_stack_matches_one_rule_per_precision():
    a = np.array([0.3, 1.0, 7.5])
    stack = gauss_hermite_rescaled(9, a)
    assert stack.nodes.shape == stack.weights.shape == (3, 9)
    assert len(stack) == 9
    for k, ak in enumerate(a):
        one = gauss_hermite_rescaled(9, float(ak))
        assert np.array_equal(stack.nodes[k], one.nodes)
        assert np.array_equal(stack.weights[k], one.weights)
    with pytest.raises(ValueError):
        stack.weights[0, 0] = 1.0
    with pytest.raises(DomainError):
        gauss_hermite_rescaled(9, np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        gauss_hermite_rescaled(9, np.ones((2, 2)))


def test_stacked_rule_validates_each_row():
    nodes = np.array([[-1.0, 0.0, 1.0], [-1.0, 1.0, 0.5]])
    with pytest.raises(DomainError):
        QuadratureRule(nodes, np.ones_like(nodes))
    with pytest.raises(DomainError):
        QuadratureRule(np.sort(nodes, axis=-1), np.array([[1.0, 1.0, 1.0],
                                                          [1.0, 0.0, 1.0]]))
    with pytest.raises(DomainError):
        QuadratureRule(np.zeros((2, 2, 2)), np.ones((2, 2, 2)))
