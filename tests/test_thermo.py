"""Stencil, observable and sweep tests.

Production computes the observables from the Perron vector of the one
solve that gives F (site marginal v_i^2, bond marginal
v_i T_ij v_j / lambda_1).  They are checked here against two other
routes: the order-6 finite-difference stencil applied to the raw
free-energy routes (`fd_chain_observables`, `fd_dnls_observables`
below), and the "physical" spectral form of the chain energy,
1/(2 beta) + <V_loc> + gamma stretch_sq.  Agreement with the stencil
measured at 1e-11..1e-12; asserted with an order of margin.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermo_transfer import models, thermo
from thermo_transfer.errors import ConvergenceError, DomainError
from thermo_transfer.models import (
    CylinderParams,
    DnlsParams,
    ParticleChainParams,
    _chain_free_energy_raw,
    _dnls_free_energy_raw,
    dnls_log_kernel,
    particle_chain_free_energy,
    particle_chain_log_kernel,
)
from thermo_transfer.nystrom import LogKernel, assemble, dominant_eigenvalue
from thermo_transfer.quadrature import (
    QuadratureRule,
    gauss_hermite_rescaled,
    golub_welsch,
    stieltjes_recurrence,
)
from thermo_transfer.thermo import (
    SweepResult,
    SweepSpec,
    dnls_observables,
    fd_derivative,
    free_energy_sweep,
    particle_chain_observables,
)


# --- finite-difference oracle ----------------------------------------------------
# The observables as order-6 stencil derivatives of the raw free-energy
# routes: 7 solves per derivative, independent of the Perron vector.

def default_step(x):
    """Default stencil step 1e-3 max(1, |x|)."""
    return 1e-3 * max(1.0, abs(x))


def _check_beta_stencil(beta, h_beta):
    if beta - 3.0 * h_beta <= 0.0:
        raise DomainError(
            f"beta stencil leaves the domain: beta={beta!r}, h={h_beta!r}")


def fd_chain_observables(p, beta, m, h_gamma=None, h_beta=None):
    """(dF/dgamma, d(beta F)/dbeta) by the stencil.

    The gamma stencil straddles gamma=0 for the default parameters; the
    raw route takes gamma < 0 (the m-point matrix stays positive).
    """
    if h_gamma is None:
        h_gamma = default_step(p.gamma)
    if h_beta is None:
        h_beta = default_step(beta)
    _check_beta_stencil(beta, h_beta)

    def f_of_gamma(g):
        return _chain_free_energy_raw(p.eta, p.mu3, p.lam, g, beta, m)

    def betaf_of_beta(b):
        return b * _chain_free_energy_raw(p.eta, p.mu3, p.lam, p.gamma, b, m)

    return (fd_derivative(f_of_gamma, p.gamma, h=h_gamma),
            fd_derivative(betaf_of_beta, beta, h=h_beta))


def fd_dnls_observables(p, beta, m, h_mu=None, h_beta=None):
    """(-dF/dmu, d(beta F)/dbeta + mu <rho>) by the stencil."""
    if h_mu is None:
        h_mu = default_step(p.mu_c)
    if h_beta is None:
        h_beta = default_step(beta)
    _check_beta_stencil(beta, h_beta)

    def f_of_mu(u):
        return _dnls_free_energy_raw(p.g, u, beta, m)

    def betaf_of_beta(b):
        return b * _dnls_free_energy_raw(p.g, p.mu_c, b, m)

    density = -fd_derivative(f_of_mu, p.mu_c, h=h_mu)
    energy = fd_derivative(betaf_of_beta, beta, h=h_beta) + p.mu_c * density
    return density, energy


# --- the stencil ----------------------------------------------------------------

def test_stencil_exact_zero_on_constants():
    # the antisymmetric pairing cancels before scaling, so this is ==,
    # not approx
    assert fd_derivative(lambda x: 3.7, 1.0, h=0.1) == 0.0


def test_stencil_exact_on_linear():
    got = fd_derivative(lambda x: 2.0 * x - 1.0, 0.3, h=0.05)
    assert got == pytest.approx(2.0, rel=1e-13)


def test_stencil_exact_through_degree_six():
    # exact for polynomials of degree <= 6 up to rounding
    coef = np.array([0.3, -1.2, 0.8, 2.0, -0.5, 0.1, 0.9])
    p = np.polynomial.Polynomial(coef)
    dp = p.deriv()
    for x in (-1.0, 0.0, 0.7):
        got = fd_derivative(p, x, h=0.1)
        assert got == pytest.approx(dp(x), rel=1e-11, abs=1e-11)


def test_stencil_not_exact_at_degree_seven():
    # first non-vanishing error term is h^6 f^(7)/140; for x^7 at 0 the
    # true derivative is 0 but the stencil sees 5040/140 h^6 = 36 h^6
    # (by direct arithmetic: (90 - 9*256 + 2*2187)/60 = 36)
    got = fd_derivative(lambda x: x ** 7, 0.0, h=0.5)
    assert got == pytest.approx(36.0 * 0.5 ** 6, rel=1e-10)


def test_stencil_sixth_order_convergence():
    # halving h must cut the error by ~2^6; exp has all derivatives
    # equal so the error terms cannot conspire
    x = 1.0
    true = math.exp(x)
    e1 = abs(fd_derivative(math.exp, x, h=0.2) - true)
    e2 = abs(fd_derivative(math.exp, x, h=0.1) - true)
    rate = math.log2(e1 / e2)
    assert 5.5 <= rate <= 6.5


def test_stencil_accuracy_on_sin():
    # truncation error h^6 f^(7)/140 = 0.05^6 cos(1)/140 ~ 6.0e-11
    got = fd_derivative(math.sin, 1.0, h=0.05)
    assert got == pytest.approx(math.cos(1.0), abs=1.2e-10)


@settings(max_examples=50)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=4, max_size=4))
def test_stencil_exact_on_random_cubics(x, coef):
    p = np.polynomial.Polynomial(coef)
    dp = p.deriv()
    got = fd_derivative(p, x, h=0.1)
    assert got == pytest.approx(dp(x), rel=1e-9, abs=1e-9)


def test_stencil_rejects_bad_step():
    with pytest.raises(DomainError):
        fd_derivative(math.sin, 0.0, h=0.0)
    with pytest.raises(DomainError):
        fd_derivative(math.sin, 0.0, h=-0.1)
    with pytest.raises(DomainError):
        fd_derivative(math.sin, 0.0, h=float("inf"))


def test_stencil_rejects_nonfinite_values():
    with pytest.raises(DomainError):
        fd_derivative(lambda x: float("nan") if x > 1.01 else x, 1.0, h=0.01)


def test_default_step():
    assert default_step(0.0) == 1e-3
    assert default_step(0.5) == 1e-3
    assert default_step(-10.0) == pytest.approx(1e-2)


# --- chain observables against spectral-route oracles ------------------------------

def chain_spectral_observables(p, beta, m):
    # production's discretization: the Gauss-Hermite rule at the
    # coupling-matched precision a = beta sqrt(eta (eta + 4 gamma)), and
    # the kernel against the beta eta weight plus (a - beta eta)(q^2 + q'^2)/4
    a = beta * math.sqrt(p.eta * (p.eta + 4.0 * p.gamma))
    rule = gauss_hermite_rescaled(m, a)
    bare = particle_chain_log_kernel(p, beta)
    shift = 0.25 * (a - beta * p.eta)
    T = assemble(LogKernel(lambda q, qp: bare(q, qp) + shift * (q * q + qp * qp)),
                 rule)
    eig = dominant_eigenvalue(T)
    v = eig.vector / np.linalg.norm(eig.vector)
    z = rule.nodes
    bond = 0.5 * (z[:, None] - z[None, :]) ** 2 * T.entries
    stretch = float(v @ bond @ v) / eig.lambda1
    vloc = float(np.dot(v ** 2, p.v_loc(z)))
    energy = 1.0 / (2.0 * beta) + vloc + p.gamma * stretch
    return stretch, energy


@pytest.mark.parametrize("beta", [0.8, 2.0, 5.0])
def test_chain_observables_match_spectral_route(beta):
    p = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0)
    s_fd, e_fd = particle_chain_observables(p, beta, 30)
    s_sp, e_sp = chain_spectral_observables(p, beta, 30)
    assert s_fd == pytest.approx(s_sp, rel=1e-10)
    assert e_fd == pytest.approx(e_sp, rel=1e-9)
    assert s_fd >= 0.0


def test_equipartition_with_coupling():
    # for the purely harmonic chain beta F differs from log beta by a
    # beta-independent constant at every gamma, so the energy is exactly
    # 1/beta however strong the coupling
    p = ParticleChainParams(eta=1.3, gamma=0.9)
    for beta in (0.5, 1.0, 4.0):
        _, e = particle_chain_observables(p, beta, 25)
        assert e * beta == pytest.approx(1.0, rel=1e-10)


def test_harmonic_stretch_closed_form():
    # differentiate -beta F = log(2pi/beta) - log(edge)/2 in gamma:
    # d<F>/dgamma = edge'/(2 beta edge), edge' = 1 + eta/sqrt(eta(eta+4g))
    for eta, gamma, beta in [(1.0, 1.0, 2.0), (2.0, 0.5, 1.0)]:
        p = ParticleChainParams(eta=eta, gamma=gamma)
        s_fd, _ = particle_chain_observables(p, beta, 30)
        root = math.sqrt(eta * (eta + 4.0 * gamma))
        edge = 0.5 * (eta + 2.0 * gamma + root)
        expect = (1.0 + eta / root) / (2.0 * beta * edge)
        assert s_fd == pytest.approx(expect, rel=1e-9)


@pytest.mark.parametrize("beta", [0.5, 2.0, 10.0])
def test_chain_observables_match_stencil(beta):
    # the shipped chain config's parameters
    p = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0)
    s, e = particle_chain_observables(p, beta, 30)
    s_fd, e_fd = fd_chain_observables(p, beta, 30)
    assert s == pytest.approx(s_fd, rel=1e-10)
    assert e == pytest.approx(e_fd, rel=1e-10)


def test_harmonic_equipartition_to_roundoff():
    # the Hermite nodes scale as 1/sqrt(beta eta), so the harmonic
    # matrix does not depend on beta and the energy is 1/beta exactly
    # up to the last bits
    for eta, gamma in [(1.3, 0.9), (1.0, 0.0), (0.2, 3.0)]:
        p = ParticleChainParams(eta=eta, gamma=gamma)
        for beta in (0.1, 1.0, 4.0, 50.0):
            _, e = particle_chain_observables(p, beta, 25)
            assert e * beta == pytest.approx(1.0, rel=1e-14)


def test_chain_observables_step_override():
    p = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=0.5)
    s1, e1 = fd_chain_observables(p, 2.0, 20)
    s2, e2 = fd_chain_observables(p, 2.0, 20, h_gamma=5e-4, h_beta=5e-4)
    assert s1 == pytest.approx(s2, rel=1e-9)
    assert e1 == pytest.approx(e2, rel=1e-9)


def test_beta_stencil_domain_guard():
    p = ParticleChainParams(eta=1.0)
    # default h_beta = 1e-3; beta - 3h < 0 for beta = 2e-3
    with pytest.raises(DomainError):
        fd_chain_observables(p, 0.002, 5)
    # a smaller explicit step keeps the stencil inside the domain
    s, e = fd_chain_observables(p, 0.002, 5, h_beta=1e-4)
    assert math.isfinite(s) and math.isfinite(e)


# --- DNLS observables ---------------------------------------------------------------

def test_dnls_density_matches_spectral_route():
    p = DnlsParams(g=1.0, mu_c=1.0)
    for beta in (1.0, 2.0):
        rho_fd, _ = dnls_observables(p, beta, 20)
        # the unit rule of s = -mu sqrt(beta/g), nodes in rho
        s = -p.mu_c * math.sqrt(beta / p.g)
        unit = golub_welsch(stieltjes_recurrence(s, 20))
        rule = QuadratureRule(unit.nodes / math.sqrt(beta * p.g), unit.weights)
        T = assemble(dnls_log_kernel(beta), rule)
        eig = dominant_eigenvalue(T)
        v = eig.vector / np.linalg.norm(eig.vector)
        rho_sp = float(np.dot(v ** 2, rule.nodes))
        assert rho_fd == pytest.approx(rho_sp, rel=1e-10)
        assert rho_fd > 0.0


@pytest.mark.parametrize("beta", [0.1, 1.0, 30.0])
def test_dnls_observables_match_stencil(beta):
    # the shipped DNLS config's parameters
    p = DnlsParams(g=1.0, mu_c=1.0)
    rho, e = dnls_observables(p, beta, 20)
    rho_fd, e_fd = fd_dnls_observables(p, beta, 20)
    assert rho == pytest.approx(rho_fd, rel=1e-10)
    assert e == pytest.approx(e_fd, rel=1e-10)


def test_dnls_observables_step_halving_consistent():
    p = DnlsParams(g=1.0, mu_c=1.0)
    r1, e1 = fd_dnls_observables(p, 1.0, 16, h_mu=1e-3, h_beta=1e-3)
    r2, e2 = fd_dnls_observables(p, 1.0, 16, h_mu=5e-4, h_beta=5e-4)
    assert r1 == pytest.approx(r2, rel=1e-7)
    assert e1 == pytest.approx(e2, rel=1e-7)


def test_dnls_negative_chemical_potential_stencil():
    # the mu stencil crosses into b < 0 territory (mode outside the
    # half-line); the truncated-Gaussian machinery must take that
    p = DnlsParams(g=1.0, mu_c=0.0)
    rho, e = fd_dnls_observables(p, 2.0, 16)
    assert rho > 0.0 and math.isfinite(e)


# --- sweep specification --------------------------------------------------------------

def test_sweep_spec_validation():
    p = ParticleChainParams(eta=1.0)
    with pytest.raises(DomainError):
        SweepSpec(params=p, beta_grid=[], m=5)
    with pytest.raises(DomainError):
        SweepSpec(params=p, beta_grid=[1.0, -2.0], m=5)
    with pytest.raises(DomainError):
        SweepSpec(params=p, beta_grid=[1.0, 1.0], m=5)
    with pytest.raises(DomainError):
        SweepSpec(params=p, beta_grid=[2.0, 1.0], m=5)
    with pytest.raises(DomainError):
        SweepSpec(params=p, beta_grid=[1.0], m=0)
    with pytest.raises(DomainError):
        SweepSpec(params="not params", beta_grid=[1.0], m=5)


def test_sweep_spec_rejects_a_grid_that_is_not_1d():
    # a 2-D grid once failed deep in the Hermite builder
    p = ParticleChainParams(eta=1.0)
    with pytest.raises(DomainError, match=r"1-D, got shape \(2, 2\)"):
        SweepSpec(params=p, beta_grid=[[1.0, 2.0], [3.0, 4.0]], m=5)


def test_sweep_spec_rejects_a_bool_size():
    p = ParticleChainParams(eta=1.0)
    with pytest.raises(DomainError, match="m must be a positive integer, got True"):
        SweepSpec(params=p, beta_grid=[1.0, 2.0], m=True)
    cyl = CylinderParams(eta=1.0, ax=0.1, ay=0.1, ly=2)
    with pytest.raises(DomainError, match="m0 must be a positive integer"):
        SweepSpec(params=cyl, beta_grid=[1.0], m=True)


def test_sweep_spec_observable_names_per_model():
    # observables are all of the model's columns, in its order, or none
    chain = ParticleChainParams(eta=1.0)
    dnls = DnlsParams(g=1.0)
    cyl = CylinderParams(eta=1.0, ax=0.1, ay=0.1, ly=2)
    assert chain.observables == ("stretch_sq", "energy")
    assert dnls.observables == ("energy", "density")
    for p in (chain, dnls):
        res = free_energy_sweep(SweepSpec(params=p, beta_grid=[1.0], m=5,
                                          observables=True))
        assert tuple(res.observables) == p.observables
        assert res.columns()[0] == ["beta", "free_energy", *p.observables]
        plain = free_energy_sweep(SweepSpec(params=p, beta_grid=[1.0], m=5))
        assert plain.observables == {}
    with pytest.raises(DomainError, match="not defined for the cylinder model"):
        SweepSpec(params=cyl, beta_grid=[1.0], m=5, observables=True)
    SweepSpec(params=cyl, beta_grid=[1.0], m=5, observables=False)
    # a subset of columns is not a request the spec takes
    with pytest.raises(DomainError, match="True or False"):
        SweepSpec(params=chain, beta_grid=[1.0], m=5, observables=("energy",))


def test_sweep_spec_canonicalizes_column_order(monkeypatch):
    # the model's `observables` tuple is the one column order: a sweep
    # cut into one-row blocks and the one-point route both keep it
    monkeypatch.setattr(models, "_BLOCK_ENTRIES", 5 * 5)
    for p in (ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0),
              DnlsParams(g=1.0, mu_c=0.5)):
        spec = SweepSpec(params=p, beta_grid=[1.0, 2.0, 3.0], m=5,
                         observables=True)
        assert spec.observables is True
        res = free_energy_sweep(spec)
        assert tuple(res.observables) == p.observables
        names, cols = res.columns()
        assert names == ["beta", "free_energy", *p.observables]
        for i, b in enumerate(spec.beta_grid):
            f, values = models._point(p, b, 5, observables=True)
            assert tuple(values) == p.observables
            assert [c[i] for c in cols[1:]] == [f, *values.values()]


def test_sweep_spec_scalar_grid_promoted():
    p = ParticleChainParams(eta=1.0)
    spec = SweepSpec(params=p, beta_grid=2.0, m=5)
    assert spec.beta_grid.shape == (1,)


# --- sweep execution --------------------------------------------------------------------

def test_sweep_matches_point_evaluations():
    p = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0)
    grid = np.array([0.5, 1.0, 2.0])
    spec = SweepSpec(params=p, beta_grid=grid, m=15, observables=True)
    res = free_energy_sweep(spec)
    assert isinstance(res, SweepResult)
    for i, b in enumerate(grid):
        assert res.free_energy[i] == particle_chain_free_energy(p, b, 15)
        s, e = particle_chain_observables(p, b, 15)
        assert res.observables["stretch_sq"][i] == s
        assert res.observables["energy"][i] == e


def test_sweep_threaded_is_deterministic(monkeypatch, pools_entered):
    # blocks of two rows, so the 6-row grid is three blocks and threads=4
    # takes the pool
    monkeypatch.setattr(models, "_BLOCK_ENTRIES", 2 * 12 * 12)
    p = DnlsParams(g=1.0, mu_c=1.0)
    grid = np.linspace(0.5, 4.0, 6)
    spec = SweepSpec(params=p, beta_grid=grid, m=12, observables=True)
    seq = free_energy_sweep(spec)
    assert pools_entered == []
    par = free_energy_sweep(spec, threads=4)
    assert pools_entered == [4]
    assert np.array_equal(seq.free_energy, par.free_energy)
    assert list(par.observables) == ["energy", "density"]
    for name, column in seq.observables.items():
        assert np.array_equal(column, par.observables[name])


def test_sweep_rerun_bit_identical():
    p = ParticleChainParams(eta=1.0, mu3=0.3, lam=0.9, gamma=0.5)
    spec = SweepSpec(params=p, beta_grid=[1.0, 3.0], m=18)
    a = free_energy_sweep(spec)
    b = free_energy_sweep(spec)
    assert np.array_equal(a.free_energy, b.free_energy)


def test_sweep_error_names_grid_point(monkeypatch):
    # a numeric failure in the model's block solve keeps its type and
    # gains the grid point its stack index names
    def failing(p, betas, m0, observables):
        raise ConvergenceError("eigenvalue residual 3.000e-10", residual=3e-10,
                               index=0)

    monkeypatch.setattr(CylinderParams, "block", failing)
    cyl = CylinderParams(eta=1.0, ax=0.1, ay=0.1, ly=3)
    spec = SweepSpec(params=cyl, beta_grid=[1.0, 2.0], m=30)
    with pytest.raises(ConvergenceError) as exc:
        free_energy_sweep(spec)
    msg = str(exc.value)
    assert "at beta=1.0, m=30" in msg
    assert "residual 3.000e-10" in msg


@pytest.mark.parametrize("grid, where", [
    ([2.0], "at beta=2.0, m=30"),
    ([0.5, 1.0, 2.0], "at beta in [0.5, 2.0], m=30"),
], ids=["one-beta", "three-beta"])
def test_cylinder_ring_mode_failure_names_the_mode_not_a_row(grid, where):
    # the cylinder's stack axis is its ring modes: a failing mode fails
    # every beta of the block, so the error carries no row index
    cyl = CylinderParams(eta=1e-3, ax=50.0, ay=0.2, ly=64)
    with pytest.raises(ConvergenceError) as exc:
        free_energy_sweep(SweepSpec(params=cyl, beta_grid=grid, m=30))
    assert exc.value.index is None
    assert exc.value.residual > 1e-14
    assert where in str(exc.value)
    assert "ring mode eta_k=" in str(exc.value)


def test_sweep_spec_rejects_a_non_model_params_object():
    @dataclass(frozen=True)
    class IsingParams:
        j: float = 1.0
        observables = ()

    with pytest.raises(DomainError, match="unknown model parameter type IsingParams"):
        SweepSpec(params=IsingParams(), beta_grid=[1.0], m=4)


# one params object per model, with its factorized field at 0 and away from it
_AT_LIMIT = {"chain": ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2),
             "dnls": DnlsParams(g=1.0, mu_c=1.0),
             "cylinder": CylinderParams(eta=1.0, ax=0.0, ay=0.2, ly=3)}


@pytest.mark.parametrize("name", sorted(thermo.MODELS))
def test_each_model_block_and_factorized_limit(name):
    model = thermo.MODELS[name]
    p = _AT_LIMIT[name]
    assert type(p) is model and model.name == name
    betas = np.array([0.5, 2.0])
    f, values = p.block(betas, 6)
    assert f.shape == (2,) and tuple(values) == model.observables
    assert all(v.shape == (2,) for v in values.values())
    f_only, none = p.block(betas, 6, observables=False)
    assert none == {} and np.array_equal(f_only, f)
    if model.reference_zero is None:
        assert p.factorized(2.0) is None
        return
    assert getattr(p, model.reference_zero) == 0.0
    assert math.isfinite(p.factorized(2.0))
    away = replace(p, **{model.reference_zero: 0.3})
    assert away.factorized(2.0) is None


def test_sweep_columns_layout():
    p = DnlsParams(g=1.0, mu_c=0.5)
    spec = SweepSpec(params=p, beta_grid=[1.0, 2.0], m=10, observables=True)
    res = free_energy_sweep(spec)
    names, cols = res.columns()
    assert names == ["beta", "free_energy", "energy", "density"]
    assert all(len(c) == 2 for c in cols)
    assert np.array_equal(cols[0], res.betas)


# --- thermodynamic shape invariants --------------------------------------------------------

def test_beta_f_concave_chain():
    # beta F(beta) is concave (it is an infimum of affine functions of
    # beta); second differences on an EVENLY spaced grid must be <= 0
    p = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0)
    grid = np.linspace(0.5, 8.5, 9)
    spec = SweepSpec(params=p, beta_grid=grid, m=25)
    bf = grid * free_energy_sweep(spec).free_energy
    assert np.all(np.diff(bf, 2) < 0.0)


def test_beta_f_concave_dnls():
    p = DnlsParams(g=1.0, mu_c=1.0)
    grid = np.linspace(0.5, 10.5, 9)
    spec = SweepSpec(params=p, beta_grid=grid, m=16)
    bf = grid * free_energy_sweep(spec).free_energy
    assert np.all(np.diff(bf, 2) < 0.0)


def test_beta_f_concave_cylinder():
    p = CylinderParams(eta=1.0, ax=0.5, ay=0.2, ly=3)
    grid = np.linspace(0.5, 6.5, 7)
    spec = SweepSpec(params=p, beta_grid=grid, m=6)
    bf = grid * free_energy_sweep(spec).free_energy
    assert np.all(np.diff(bf, 2) < 0.0)


def test_chain_energy_decreasing_in_beta():
    # energy = d(beta F)/dbeta and beta F is concave, so cooling the
    # chain can only lower the energy
    p = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0)
    es = [particle_chain_observables(p, b, 25)[1]
          for b in np.linspace(0.5, 8.5, 5)]
    assert np.all(np.diff(es) < 0.0)
