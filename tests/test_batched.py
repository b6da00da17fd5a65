"""The stacked path: a sweep solves a block of beta rows as one stack.

Oracles: the public one-point routes, which solve a block of one, must
give the same bits (==) as the sweep's rows whatever the block split or
thread count; stacked rules and eigensolves against the same objects
built one beta at a time; failures injected at one grid point of a
block must name that beta.
"""

import warnings

import numpy as np
import pytest

import thermo_transfer.nystrom as nystrom
from thermo_transfer import models, thermo
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

def _vector_spoiling(monkeypatch, spoil):
    """np.linalg.solve (the Perron-vector step) that hands back all ones,
    not an eigenvector, for stack index spoil(call number), if that is
    not None."""
    real = np.linalg.solve
    calls = []

    def solve(a, b):
        x = real(a, b)
        k = spoil(len(calls))
        calls.append(k)
        if k is not None and a.ndim == 3:
            x[k] = 1.0
        return x

    monkeypatch.setattr(nystrom.np.linalg, "solve", solve)
    return calls


@pytest.mark.parametrize("model", ["chain", "dnls"])
def test_eigensolve_failure_names_its_grid_point(monkeypatch, model):
    params, m, obs, _, _ = CASES[model]
    _vector_spoiling(monkeypatch, lambda call: 3)
    spec = SweepSpec(params=params, beta_grid=GRID, m=m, observables=obs)
    with pytest.raises(ConvergenceError) as exc:
        free_energy_sweep(spec)
    msg = str(exc.value)
    assert f"at beta={float(GRID[3])!r}, m={m}:" in msg
    assert "of matrix 3 in the stack" in msg
    # the re-raised error keeps the residual the eigensolve measured
    cause = exc.value.__cause__
    assert isinstance(cause, ConvergenceError) and cause.residual > 1e-14
    assert exc.value.residual == cause.residual


@pytest.mark.parametrize("step", ["eigvalsh", "solve"])
def test_lapack_failure_names_its_grid_point(monkeypatch, step):
    # LAPACK fails on the matrix of grid point 1 alone, in the stack of
    # three and by itself; that matrix is told by its (0, 1) entry, which
    # the shifted solve sees negated
    betas = GRID[:3]
    t01 = _chain_solve(1.0, 0.2, 0.2, 1.0, betas, 12)[1].entries[1, 0, 1]
    marker = t01 if step == "eigvalsh" else -t01
    real = getattr(np.linalg, step)
    calls = []

    def fake(a, *args):
        calls.append(len(a))
        if np.any(a[:, 0, 1] == marker):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a, *args)

    monkeypatch.setattr(nystrom.np.linalg, step, fake)
    with pytest.raises(ConvergenceError) as exc:
        free_energy_sweep(SweepSpec(params=CHAIN, beta_grid=betas, m=12))
    msg = str(exc.value)
    assert f"at beta={float(betas[1])!r}, m=12:" in msg
    assert "of matrix 1 in the stack" in msg
    assert exc.value.index == 1
    assert isinstance(exc.value.__cause__.__cause__, np.linalg.LinAlgError)
    # the stack, then its matrices one at a time up to the failing one
    assert calls == [3, 1, 1]


def test_eigensolve_failure_in_a_later_block(monkeypatch):
    # blocks of two rows; the second block's second matrix is grid point 3
    _blocks_of(monkeypatch, 2, 12)
    _vector_spoiling(monkeypatch, lambda call: 1 if call == 1 else None)
    with pytest.raises(ConvergenceError) as exc:
        free_energy_sweep(SweepSpec(params=CHAIN, beta_grid=GRID, m=12))
    assert f"at beta={float(GRID[3])!r}, m=12:" in str(exc.value)
    # the re-raised error gives the grid row, not the row in its block
    assert exc.value.index == 3


def test_non_finite_assembly_names_beta_and_node_pair(monkeypatch):
    # poison the site term of node 5 of stack matrix 4 (grid point 4) of
    # the chain, the route whose log entries are scanned; node 5's row
    # and column go non-finite, and the scan meets (0, 5) first
    real = models._anharmonic_site

    def anharmonic_site(mu3, lam, beta, q):
        out = np.array(real(mu3, lam, beta, q), dtype=float)
        if out.ndim == 2:
            out[4, 5] = np.nan
        return out

    monkeypatch.setattr(models, "_anharmonic_site", anharmonic_site)
    with pytest.raises(AssemblyError) as exc:
        free_energy_sweep(SweepSpec(params=CHAIN, beta_grid=GRID, m=10))
    msg = str(exc.value)
    assert f"at beta={float(GRID[4])!r}, m=10:" in msg
    assert "node pair (0, 5) of matrix 4 in the stack" in msg


def test_rule_failure_names_its_grid_point(monkeypatch):
    # the DNLS rules are built one beta at a time; the third one fails
    real = models.stieltjes_recurrence
    calls = []

    def stieltjes_recurrence(a, b, m, c=None):
        calls.append(a)
        if len(calls) == 3:
            raise ConvergenceError("Stieltjes discretization did not stabilize",
                                   residual=1e-12)
        return real(a, b, m, c=c)

    monkeypatch.setattr(models, "stieltjes_recurrence", stieltjes_recurrence)
    with pytest.raises(ConvergenceError) as exc:
        free_energy_sweep(SweepSpec(params=DNLS, beta_grid=GRID, m=10))
    assert f"at beta={float(GRID[2])!r}, m=10:" in str(exc.value)


def test_failure_without_a_stack_index_names_the_block(monkeypatch):
    def failing(p, betas, m0, observables):
        raise ConvergenceError("eigenvalue residual 3.000e-10", residual=3e-10)

    monkeypatch.setattr(CylinderParams, "block", failing)
    with pytest.raises(ConvergenceError) as exc:
        free_energy_sweep(SweepSpec(params=CYLINDER, beta_grid=GRID, m=6))
    assert "at beta in [0.5, 6.5], m=6:" in str(exc.value)
    assert exc.value.index is None


# one-point failures at the edges of the domain: the chain's overflowing
# double well at deep quench, a DNLS rule that does not stabilize at
# mu < 0, a cylinder ring mode above the eigen residual tolerance, and
# the chain's nan Perron vector at beta = 638 (ROADMAP, Known defects)
EDGE_POINTS = {
    "chain-overflow": (particle_chain_free_energy,
                       ParticleChainParams(0.01, 1.0, 1.0, 0.0), 1000.0, 30),
    "dnls-rule": (dnls_free_energy, DnlsParams(1.0, -3.0), 60.0, 20),
    "cylinder-mode": (cylinder_free_energy,
                      CylinderParams(1e-3, 50.0, 0.2, 64), 2.0, 30),
    "chain-nan-vector": (particle_chain_free_energy,
                         ParticleChainParams(0.01, 1.0, 1.0, 0.0), 638.0, 30),
}


@pytest.mark.parametrize("case", sorted(EDGE_POINTS))
def test_one_point_failure_is_the_one_row_sweep_failure(case):
    route, params, beta, m = EDGE_POINTS[case]
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


def test_stacked_residual_check_carries_the_failing_index(monkeypatch):
    # the diagonal matrix solves exactly, the dense one to round-off;
    # one nonzero entry, since the shifted solve leaves every other
    # diagonal direction with a part of order eps in the vector.  A
    # tolerance of 1e-300 fails every residual that is not exactly 0
    monkeypatch.setattr(nystrom, "_TOL", 1e-300)
    rng = np.random.default_rng(3)
    B = rng.uniform(0.1, 1.0, size=(6, 6))
    stack = np.stack([np.diag([3.0, 0.0, 0.0, 0.0, 0.0, 0.0]), B + B.T])
    assert dominant_eigenvalue(stack[0]).residual == 0.0
    with pytest.raises(ConvergenceError) as exc:
        dominant_eigenvalue(stack)
    assert exc.value.index == 1
    assert "of matrix 1 in the stack" in str(exc.value)
    with pytest.raises(ConvergenceError) as exc:
        dominant_eigenvalue(stack[1])
    assert exc.value.index is None


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
