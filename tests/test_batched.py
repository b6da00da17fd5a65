"""The stacked path: a sweep solves a block of beta rows as one stack.

Oracles: the public one-point routes, which solve a block of one, must
give the same bits (==) as the sweep's rows whatever the block split or
thread count; stacked rules and eigensolves against the same objects
built one beta at a time; a failure injected at one grid point, keyed
on its matrix or its s, must name that beta, m and grid row in one
block, in a later block and on two threads.
"""

import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from thermo_transfer import models, nystrom, quadrature, thermo
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
    monkeypatch.setattr(nystrom, "_BLOCK_ENTRIES", rows * m * m)


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


@pytest.mark.parametrize("model", sorted(CASES))
def test_no_route_calls_a_dense_eigensolver_or_solve(monkeypatch, model):
    # the Perron pair comes from squaring alone: no sweep and no
    # one-point route calls numpy's eigen or solve routines.  Each
    # route runs once before the spy is installed, since numpy's
    # Gauss-Hermite rule, built once per m and cached, takes its nodes
    # from eigvalsh of its Jacobi matrix
    params, m, obs, free_energy, observables = CASES[model]

    def routes():
        free_energy_sweep(SweepSpec(params=params, beta_grid=GRID, m=m,
                                    observables=obs))
        free_energy(params, GRID[1], m)
        if observables is not None:
            observables(params, GRID[1], m)

    routes()
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, name=name, real=real, **kw:
                            calls.append(name) or real(*a, **kw))
    routes()
    assert calls == []


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


def _t01(stacks, solve, m):
    # entry (0, 1) of grid row K's matrix solved alone, which keys a
    # fault on the matrix, never on a call count or a stack position
    solve(GRID[K:K + 1], m)
    return stacks[-1][0, 0, 1]


def _assert_names_its_grid_point(monkeypatch, params, m, k, head):
    """Sweep GRID, with a fault installed, in one block, with row k in a
    later block of two rows, and with two threads over those blocks:
    each names row k's beta, m and grid row before `head`, keeps the
    type and residual of row k's error alone, and is the error of the
    one-point route at row k's beta."""
    obs = bool(params.observables)
    with pytest.raises(NumericError) as point:
        models._point(params, GRID[k], m, obs)
    one_block = nystrom._BLOCK_ENTRIES
    for rows, threads in [(None, None), (2, None), (2, 2)]:
        monkeypatch.setattr(nystrom, "_BLOCK_ENTRIES",
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
def test_eigensolve_failure_names_its_grid_point(solved_stacks,
                                                 spoil_rayleigh_product,
                                                 monkeypatch, model):
    # the residual check's product T v hands back all ones for row K's
    # matrix, told by its (0, 1) entry
    params, m = CASES[model][:2]
    spoil_rayleigh_product(
        _t01(solved_stacks, {"chain": _chain, "dnls": _dnls}[model], m))
    error = _assert_names_its_grid_point(monkeypatch, params, m, K,
                                         "eigenvalue residual ")
    assert isinstance(error, ConvergenceError) and error.residual > 1e-14


def test_eigensolve_failure_in_a_later_block(monkeypatch, solved_stacks,
                                             spoil_rayleigh_product):
    # blocks of two rows; row K is the second matrix of the later block
    # [2, 3], and its residual check's product T v hands back all ones
    _blocks_of(monkeypatch, 2, 12)
    spoil_rayleigh_product(_t01(solved_stacks, _chain, 12))
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


# a cylinder of 33 distinct ring modes, whose fifth the tests spoil
RING = CylinderParams(eta=1e-3, ax=50.0, ay=0.2, ly=64)


def _ring_mode_t01(stacks, k, m):
    # entry (0, 1) of the matrix of RING's distinct mode k, solved alone
    eta_k = np.unique(models._ring_spectrum(RING))[k:k + 1]
    _chain_solve(eta_k, 0.0, 0.0, RING.ax, np.ones(1), m)
    return stacks[-1][0, 0, 1]


def test_cylinder_ring_mode_failure_names_the_first_beta_and_mode(
        monkeypatch, solved_stacks, spoil_rayleigh_product):
    # a failing ring mode fails every beta, so the block's first beta
    # is named, with the first mode that fails alone
    eta_k = float(np.unique(models._ring_spectrum(RING))[4])
    spoil_rayleigh_product(_ring_mode_t01(solved_stacks, 4, 30))
    error = _assert_names_its_grid_point(
        monkeypatch, RING, 30, 0,
        f"ring mode eta_k={eta_k!r}: eigenvalue residual ")
    assert isinstance(error, ConvergenceError) and error.residual > 1e-14


def _failing_rule(s, m):
    # a Stieltjes rule that does not stabilize, injected: no DNLS point
    # of the map fails on its own
    raise ConvergenceError("Stieltjes discretization did not stabilize "
                           "to 1e-14 (last coefficient change 3.000e-13)",
                           residual=3e-13)


# one-point failures at the edges of the domain: the chain's overflowing
# double well at deep quench, uncoupled (beta = 1000) and weakly coupled
# (beta = 700, where K0 is not all ones), a DNLS rule that
# does not stabilize (injected) and a cylinder ring mode above the eigen
# residual tolerance (injected); the last entry is None or installs the
# fault, given monkeypatch, the solved_stacks list and the spoil function
# of spoil_rayleigh_product
EDGE_POINTS = {
    "chain-overflow": (particle_chain_free_energy,
                       ParticleChainParams(0.01, 1.0, 1.0, 0.0), 1000.0, 30,
                       None),
    "chain-overflow-coupled": (particle_chain_free_energy,
                               ParticleChainParams(0.01, 1.0, 1.0, 1e-3),
                               700.0, 30, None),
    "dnls-rule": (dnls_free_energy, DnlsParams(1.0, -3.0), 60.0, 20,
                  lambda mp, stacks, spoil: mp.setattr(
                      models, "stieltjes_rule", _failing_rule)),
    "cylinder-mode": (cylinder_free_energy, RING, 2.0, 30,
                      lambda mp, stacks, spoil: spoil(
                          _ring_mode_t01(stacks, 4, 30))),
}


@pytest.mark.parametrize("case", sorted(EDGE_POINTS))
def test_one_point_failure_is_the_one_row_sweep_failure(
        monkeypatch, solved_stacks, spoil_rayleigh_product, case):
    route, params, beta, m, inject = EDGE_POINTS[case]
    if inject is not None:
        inject(monkeypatch, solved_stacks, spoil_rayleigh_product)
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
# nodes that round together, an I0 argument of nan, the chain's site
# term at tiny beta), a DNLS grid whose ends round to one double, or an
# F = beta F / beta beyond the doubles at tiny beta: (route, params,
# beta, m, the cause's text)
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
    "chain-site-term": (particle_chain_free_energy,
                        ParticleChainParams(1.0, 0.2, 0.2, 1.0), 1e-160, 4,
                        "non-finite kernel value at node pair \\(0, 0\\)"),
    "chain-f-overflow": (particle_chain_free_energy, ParticleChainParams(1.0),
                         1e-320, 4, "free energy per site overflows"),
    "cylinder-f-overflow": (cylinder_free_energy,
                            CylinderParams(1.0, 0.5, 0.2, 3), 1e-320, 8,
                            "free energy per site overflows"),
    "dnls-f-overflow": (dnls_free_energy, DnlsParams(1.0, 1.0), 1e-320, 8,
                        "free energy per site overflows"),
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

def test_assembled_stacks_are_exactly_symmetric(solved_stacks):
    betas = np.array([0.5, 2.0, 9.0])
    _chain_solve(1.0, 0.2, 0.2, 1.0, betas, 17)
    _dnls_solve(1.0, 1.0, betas, 11)
    chain, dnls = solved_stacks
    assert chain.shape == (3, 17, 17) and dnls.shape == (3, 11, 11)
    assert np.array_equal(chain, chain.swapaxes(-1, -2))
    assert np.array_equal(dnls, dnls.swapaxes(-1, -2))
    # a kernel whose two argument orders round differently
    kern = LogKernel(lambda z, zp: -0.1 * z ** 3 - 0.1 * zp ** 3 + 0.3 * z * zp,
                     site=lambda z: -0.7 * z * z)
    E = assemble(kern, gauss_hermite_rescaled(20, betas))
    assert np.array_equal(E, E.swapaxes(-1, -2))


def test_stacked_solve_equals_each_beta_alone(solved_stacks):
    betas = np.array([0.5, 2.0, 9.0])
    f, nodes, eig, _ = _chain_solve(1.0, 0.2, 0.2, 1.0, betas, 15)
    T = solved_stacks[-1]
    assert eig.lambda1.shape == (3,) and eig.vector.shape == (3, 15)
    assert isinstance(eig.residual, float) and eig.iterations == 5
    assert T.shape == (3, 15, 15) and nodes.shape == (3, 15)
    for k in range(3):
        f1, nodes1, eig1, _ = _chain_solve(1.0, 0.2, 0.2, 1.0, betas[k:k + 1], 15)
        assert f1[0] == f[k] and eig1.iterations == 5
        assert np.array_equal(solved_stacks[-1][0], T[k])
        assert np.array_equal(nodes1[0], nodes[k])
        assert eig1.lambda1[0] == eig.lambda1[k]
        assert np.array_equal(eig1.vector[0], eig.vector[k])
    assert eig.residual == max(
        dominant_eigenvalue(T[k]).residual for k in range(3))


@pytest.mark.parametrize("solve, betas, m", [
    (lambda b, m: _chain_solve(1.0, 0.2, 0.2, 1.0, b, m),
     np.linspace(0.5, 10.0, 96), 30),
    (lambda b, m: _dnls_solve(1.0, 1.0, b, m), np.linspace(0.5, 8.0, 64), 20),
], ids=["chain-96x30", "dnls-64x20"])
def test_an_einsum_stack_equals_each_beta_alone(solved_stacks, solve, betas,
                                                m):
    # the configs' blocks fill d_i d_j by einsum, a block of one by a
    # broadcast multiply: each row's stack, F and Perron pair are the
    # same bits either way
    assert betas.size * m * m >= nystrom._EINSUM_ENTRIES > m * m
    f, nodes, eig, _ = solve(betas, m)
    T = solved_stacks[-1]
    for k in range(betas.size):
        f1, nodes1, eig1, _ = solve(betas[k:k + 1], m)
        assert np.array_equal(solved_stacks[-1][0], T[k])
        assert f1[0] == f[k] and np.array_equal(nodes1[0], nodes[k])
        assert eig1.lambda1[0] == eig.lambda1[k]
        assert np.array_equal(eig1.vector[0], eig.vector[k])


# --- the thread's held stack memory -----------------------------------------

def test_warm_chain_config_block_allocates_less_than_one_stack():
    # the chain config's block, warm: its (96, 30, 30) entries and powers
    # are views of the thread's held memory, so the block's peak of new
    # memory stays below one such stack (675 KiB)
    betas = np.linspace(0.5, 10.0, 96)
    CHAIN.block(betas, 30)
    tracemalloc.start()
    try:
        CHAIN.block(betas, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < betas.size * 30 * 30 * 8


@pytest.mark.parametrize("model", ["chain", "dnls"])
def test_a_block_keeps_its_arrays_through_later_solves(model):
    # no returned array shares the held memory: later solves on this
    # thread, of a smaller stack and of a larger one that regrows the
    # memory, leave every array of the first block as it was
    params, solve = {"chain": (CHAIN, _chain), "dnls": (DNLS, _dnls)}[model]
    betas = np.linspace(0.5, 6.0, 8)
    f, nodes, eig, factors = solve(betas, 12)
    values = params.block(betas, 12)[1]
    held = nystrom._held.buf
    arrays = [f, nodes, eig.lambda1, eig.vector,
              *factors, *values.values()]
    kept = [a.copy() for a in arrays]
    for other in [(betas[:3], 7), (np.linspace(0.5, 6.0, 40), 25)]:
        _chain(*other)
        _dnls(*other)
    for a, b in zip(arrays, kept):
        assert not np.shares_memory(a, held)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("model", ["chain", "dnls"])
def test_threads_keep_their_own_held_memory(monkeypatch, model):
    # more threads than cores, switching often: a block that wrote its
    # entries or powers into memory another thread was squaring in would
    # change that thread's rows, which must equal the serial sweep's
    params, m = {"chain": (CHAIN, 12), "dnls": (DNLS, 10)}[model]
    spec = SweepSpec(params=params, beta_grid=np.linspace(0.5, 6.5, 64),
                     m=m, observables=True)
    _blocks_of(monkeypatch, 2, m)
    serial = free_energy_sweep(spec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = [free_energy_sweep(spec, threads=4) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for sweep in threaded:
        assert np.array_equal(sweep.free_energy, serial.free_energy)
        for name, values in serial.observables.items():
            assert np.array_equal(sweep.observables[name], values)


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
