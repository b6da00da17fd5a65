"""The oracles agree with each other where their routes meet."""

import pytest

import oracles


@pytest.mark.parametrize("beta", [0.5, 2.0, 7.0])
def test_grid_oracle_reproduces_harmonic_edge_formula(beta):
    got = oracles.chain_solution(1.3, 0.0, 0.0, 0.9, beta).free_energy
    assert got == pytest.approx(oracles.harmonic_chain_free_energy(1.3, 0.9, beta),
                                rel=1e-13)


@pytest.mark.parametrize("beta", [0.5, 2.0, 7.0])
def test_grid_oracle_reproduces_uncoupled_adaptive_quadrature(beta):
    got = oracles.chain_solution(1.0, 0.3, 0.5, 0.0, beta).free_energy
    assert got == pytest.approx(
        oracles.uncoupled_chain_free_energy(1.0, 0.3, 0.5, beta), rel=1e-13)


@pytest.mark.parametrize("beta", [0.5, 2.0, 7.0])
def test_cylinder_formula_at_ly1_is_the_chain_edge_formula(beta):
    assert oracles.cylinder_free_energy(1.3, 0.9, 0.4, 1, beta) == pytest.approx(
        oracles.harmonic_chain_free_energy(1.3, 0.9, beta), rel=1e-15)


def test_harmonic_grid_observables_match_closed_forms():
    # stretch_sq = dF/dgamma = edge'/(2 beta edge); equipartition gives
    # energy = 1/beta for any harmonic chain
    eta, gamma, beta = 1.0, 1.0, 2.0
    s = oracles.chain_solution(eta, 0.0, 0.0, gamma, beta).observables
    root = (eta * (eta + 4.0 * gamma)) ** 0.5
    edge = 0.5 * (eta + 2.0 * gamma + root)
    assert s["stretch_sq"] == pytest.approx((1.0 + eta / root) / (2.0 * beta * edge),
                                            rel=1e-12)
    assert s["energy"] == pytest.approx(1.0 / beta, rel=1e-12)


def test_dnls_oracle_is_converged_in_its_grid():
    fine = oracles.dnls_solution(1.0, 1.0, 15.0, panels=60)
    base = oracles.dnls_solution(1.0, 1.0, 15.0)
    assert base.free_energy == pytest.approx(fine.free_energy, rel=1e-14)
    assert base.observables["density"] == pytest.approx(
        fine.observables["density"], rel=1e-12)
