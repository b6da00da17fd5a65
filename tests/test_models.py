"""Model-level tests: kernels against hand arithmetic, free energies
against independent references.

Dual-route checks in here, none of which share code with the library:

* harmonic chain: the per-site free energy has the closed form
      -beta F = log(2 pi/beta)
                - (1/2) log[(eta + 2 gamma + sqrt(eta (eta + 4 gamma)))/2]
  obtained from (2pi)^-1 int log((eta+2gamma) - 2 gamma cos t) dt and
  the standard log-cosine integral; this exercises the full pipeline
  at gamma > 0 where no factorization happens,
* anharmonic gamma=0 chain: adaptive-quadrature factorized reference,
* DNLS: a from-scratch matrix assembled with scipy.special.i0e (the
  library deliberately does not import scipy.special) diagonalized by
  scipy.linalg.eigh,
* cylinder at ax=0: closed-form ring determinant; at ax > 0: the
  closed form of the harmonic cylinder, one harmonic chain per ring
  Fourier mode, and the full m0^Ly-point Nystrom matrix the per-mode
  solve factors (built from the library's rules and assembly, but not
  its cylinder route or eigensolver).
"""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from thermo_transfer.errors import DomainError
from thermo_transfer.models import (
    CylinderParams,
    DnlsParams,
    ParticleChainParams,
    cylinder_free_energy,
    cylinder_log_kernel,
    dnls_free_energy,
    dnls_log_kernel,
    particle_chain_free_energy,
    particle_chain_log_kernel,
    reference_cylinder_ax0,
    reference_particle_chain_gamma0,
)
from thermo_transfer.nystrom import LogKernel, assemble
from thermo_transfer.quadrature import (
    gauss_hermite_rescaled,
    golub_welsch,
    stieltjes_recurrence,
    tensor_product,
    truncated_gaussian_normalization,
)


def harmonic_chain_oracle(eta, gamma, beta):
    edge = 0.5 * (eta + 2.0 * gamma + math.sqrt(eta * (eta + 4.0 * gamma)))
    mbf = math.log(2.0 * math.pi / beta) - 0.5 * math.log(edge)
    return -mbf / beta


# --- parameter validation ------------------------------------------------------

def test_chain_params_validation():
    ParticleChainParams(eta=1.0, mu3=0.5, lam=0.5, gamma=0.0)
    with pytest.raises(DomainError):
        ParticleChainParams(eta=0.0)
    with pytest.raises(DomainError):
        ParticleChainParams(eta=1.0, lam=-0.1)
    with pytest.raises(DomainError):
        ParticleChainParams(eta=1.0, mu3=1.0, lam=0.5)
    with pytest.raises(DomainError):
        ParticleChainParams(eta=1.0, gamma=-1.0)


def test_dnls_params_validation():
    DnlsParams(g=2.0, mu_c=-3.0)
    with pytest.raises(DomainError):
        DnlsParams(g=0.0)
    with pytest.raises(DomainError):
        DnlsParams(g=-1.0)


def test_cylinder_params_validation():
    CylinderParams(eta=1.0, ax=0.0, ay=0.0, ly=1)
    with pytest.raises(DomainError):
        CylinderParams(eta=-1.0, ax=0.0, ay=0.0, ly=2)
    with pytest.raises(DomainError):
        CylinderParams(eta=1.0, ax=-0.1, ay=0.0, ly=2)
    with pytest.raises(DomainError):
        CylinderParams(eta=1.0, ax=0.0, ay=0.0, ly=0)
    with pytest.raises(DomainError):
        CylinderParams(eta=1.0, ax=0.0, ay=0.0, ly=2.5)


def test_v_loc_hand_value():
    p = ParticleChainParams(eta=2.0, mu3=3.0, lam=4.0)
    # 0.5*2*4 + 3*8/6 + 4*16/24 = 4 + 4 + 8/3
    assert p.v_loc(2.0) == pytest.approx(32.0 / 3.0, rel=1e-15)
    assert p.v_loc(0.0) == 0.0


# --- kernels against hand arithmetic --------------------------------------------

def test_chain_kernel_hand_value():
    p = ParticleChainParams(eta=1.0, mu3=0.6, lam=0.9, gamma=1.2)
    k = particle_chain_log_kernel(p, beta=2.0)
    # q=1, q'=-1: cubic sums cancel, quartic sum 2, squared jump 4:
    # -2 * (0.9*2/48 + 1.2*4/2) = -4.875
    assert k(np.array([1.0]), np.array([-1.0]))[0] == pytest.approx(-4.875, rel=1e-15)


def test_chain_kernel_second_hand_value():
    p = ParticleChainParams(eta=1.0, mu3=0.0, lam=1.0, gamma=0.5)
    k = particle_chain_log_kernel(p, beta=1.0)
    # q=2, q'=0: -(16/48 + 0.25*4) = -4/3
    assert k(np.array([2.0]), np.array([0.0]))[0] == pytest.approx(-4.0 / 3.0, rel=1e-15)


def test_chain_kernel_symmetric():
    p = ParticleChainParams(eta=1.0, mu3=0.3, lam=0.7, gamma=2.0)
    k = particle_chain_log_kernel(p, beta=1.7)
    q = np.linspace(-2, 2, 9)
    qp = np.linspace(-1, 3, 9)
    assert np.array_equal(k(q, qp), k(qp, q))


def test_dnls_kernel_hand_values():
    k = dnls_log_kernel(beta=3.0)
    log2pi = math.log(2.0 * math.pi)
    # rho = rho' = 0: log 2pi + log I0(0) - 0
    assert k(np.array([0.0]), np.array([0.0]))[0] == pytest.approx(log2pi, rel=1e-15)
    # rho = 1, rho' = 0: Bessel argument 0, only the -beta/2 survives
    assert k(np.array([1.0]), np.array([0.0]))[0] == pytest.approx(
        log2pi - 1.5, rel=1e-15)


def test_dnls_kernel_bessel_factor():
    k = dnls_log_kernel(beta=2.0)
    got = k(np.array([1.0]), np.array([1.0]))[0]
    expect = math.log(2 * math.pi) + math.log(float(scipy.special.i0(2.0))) - 2.0
    assert got == pytest.approx(expect, rel=1e-14)


def test_dnls_kernel_rejects_negative_amplitude():
    k = dnls_log_kernel(beta=1.0)
    with pytest.raises(DomainError):
        k(np.array([-0.1]), np.array([1.0]))


def test_cylinder_kernel_hand_value():
    p = CylinderParams(eta=1.0, ax=2.0, ay=3.0, ly=2)
    k = cylinder_log_kernel(p, beta=1.0)
    q = np.array([[1.0, 0.0]])
    qp = np.array([[0.0, 1.0]])
    # dq = (1,-1): sum 2; both ring terms: (q_0-q_1)^2 counted around the
    # 2-ring twice each, sum 2 per ring vector
    # v = 0.5*2*2 + 0.25*3*(2+2)... with ly=2 the roll pairs each site with
    # the other, so ring sums are 2*(dq_ring)^2 = 2 each -> rq=rqp=2
    assert k(q, qp)[0] == pytest.approx(-(2.0 + 3.0), rel=1e-15)


def test_cylinder_kernel_ring_shift_invariance():
    p = CylinderParams(eta=1.0, ax=0.7, ay=1.3, ly=4)
    k = cylinder_log_kernel(p, beta=2.0)
    rng = np.random.default_rng(7)
    q = rng.normal(size=(5, 4))
    qp = rng.normal(size=(5, 4))
    shifted = k(np.roll(q, 1, axis=1), np.roll(qp, 1, axis=1))
    assert np.allclose(k(q, qp), shifted, rtol=1e-14, atol=1e-14)


def test_cylinder_kernel_rejects_wrong_ring_length():
    p = CylinderParams(eta=1.0, ax=1.0, ay=1.0, ly=3)
    k = cylinder_log_kernel(p, beta=1.0)
    with pytest.raises(DomainError):
        k(np.zeros((2, 4)), np.zeros((2, 4)))


# --- particle chain free energy ---------------------------------------------------

def test_harmonic_uncoupled_chain_closed_form():
    # mu3 = lam = gamma = 0: kernel is 1, lambda_1 = 1 exactly, so
    # F = -[log(2 pi/beta) - log(eta)/2]/beta with no quadrature error
    p = ParticleChainParams(eta=4.0)
    got = particle_chain_free_energy(p, beta=2.0, m=5)
    expect = -0.5 * (math.log(math.pi) - 0.5 * math.log(4.0))
    assert got == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("eta,gamma,beta,m", [
    (1.0, 1.0, 1.0, 40),
    (2.0, 0.5, 3.0, 40),
    # strong coupling gamma/eta needs larger rules (the kernel is much
    # narrower than the weight Gaussian); these sizes exercise the
    # large-m weight tails
    (1.0, 4.0, 0.7, 100),
    (0.5, 2.0, 5.0, 100),
])
def test_harmonic_coupled_chain_against_log_cosine_oracle(eta, gamma, beta, m):
    p = ParticleChainParams(eta=eta, gamma=gamma)
    got = particle_chain_free_energy(p, beta, m=m)
    assert got == pytest.approx(harmonic_chain_oracle(eta, gamma, beta), rel=1e-12)


def test_anharmonic_gamma0_chain_against_adaptive_reference():
    # low beta widens the measure, so the rank-1 quadrature sum needs
    # more points there; tolerances are the measured convergence levels
    p = ParticleChainParams(eta=1.0, mu3=0.4, lam=1.0)
    for beta, m, tol in ((0.5, 50, 5e-11), (1.0, 40, 1e-11), (5.0, 30, 1e-12)):
        got = particle_chain_free_energy(p, beta, m=m)
        ref = reference_particle_chain_gamma0(p, beta)
        assert got == pytest.approx(ref, rel=tol), f"beta={beta}"


def test_reference_requires_gamma0():
    p = ParticleChainParams(eta=1.0, gamma=0.1)
    with pytest.raises(DomainError):
        reference_particle_chain_gamma0(p, 1.0)


def test_chain_self_convergence_plateau():
    # coupled anharmonic chain: growing m must stop changing the answer.
    # Measured |F(25)-F(30)|/|F(30)| = 8.5e-11 on this parameter set
    # (the pair has not quite bottomed out yet); 32 vs 40 sits on the
    # roundoff floor at 1.1e-13.
    p = ParticleChainParams(eta=1.0, mu3=0.2, lam=0.2, gamma=1.0)
    f25 = particle_chain_free_energy(p, 5.0, 25)
    f30 = particle_chain_free_energy(p, 5.0, 30)
    f32 = particle_chain_free_energy(p, 5.0, 32)
    f40 = particle_chain_free_energy(p, 5.0, 40)
    assert abs(f25 - f30) <= 1e-10 * abs(f30)
    assert abs(f32 - f40) <= 1e-12 * abs(f40)


def test_chain_free_energy_rejects_bad_arguments():
    p = ParticleChainParams(eta=1.0)
    with pytest.raises(DomainError):
        particle_chain_free_energy(p, -1.0, 10)
    with pytest.raises(DomainError):
        particle_chain_free_energy(p, 1.0, 0)
    with pytest.raises(DomainError):
        particle_chain_free_energy(p, float("nan"), 10)


# --- DNLS free energy ---------------------------------------------------------------

def test_dnls_weight_parameters():
    p = DnlsParams(g=2.0, mu_c=1.0)
    a, b, c = p.weight_parameters(3.0)
    assert a == 6.0
    assert b == 0.5
    assert c == pytest.approx(truncated_gaussian_normalization(6.0, 0.5), rel=1e-15)


def dnls_independent_route(g, mu_c, beta, m):
    # same math, disjoint implementation: scipy.special.i0e for the
    # Bessel factor, plain (non-log) assembly, dense scipy eigensolver
    a = beta * g
    b = mu_c / g
    c = truncated_gaussian_normalization(a, b)
    rule = golub_welsch(stieltjes_recurrence(a, b, m))
    r = rule.nodes
    x = beta * np.sqrt(np.outer(r, r))
    # i0e(x) = I0(x) e^{-x}; fold the e^{+x} back in log space
    logk = math.log(2 * math.pi) + np.log(scipy.special.i0e(x)) + x \
        - 0.5 * beta * (r[:, None] + r[None, :])
    T = np.exp(logk) * np.sqrt(np.outer(rule.weights, rule.weights))
    lam1 = scipy.linalg.eigh(T, eigvals_only=True)[-1]
    mbf = 0.5 * beta * mu_c ** 2 / g + math.log(lam1) - math.log(c)
    return -mbf / beta


@pytest.mark.parametrize("g,mu_c,beta,m", [
    (1.0, 1.0, 1.0, 12),
    (1.0, 1.0, 15.0, 16),
    (2.0, -0.5, 2.0, 14),
    (0.7, 0.0, 4.0, 12),
])
def test_dnls_against_independent_assembly(g, mu_c, beta, m):
    got = dnls_free_energy(DnlsParams(g=g, mu_c=mu_c), beta, m)
    expect = dnls_independent_route(g, mu_c, beta, m)
    assert got == pytest.approx(expect, rel=5e-13)


def test_dnls_self_convergence_floor():
    # the criterion pair from the readme: m=16 vs m=20 at beta=15
    p = DnlsParams(g=1.0, mu_c=1.0)
    f16 = dnls_free_energy(p, 15.0, 16)
    f20 = dnls_free_energy(p, 15.0, 20)
    assert abs(f16 - f20) <= 1e-12 * abs(f20)


def test_dnls_free_energy_rejects_bad_arguments():
    p = DnlsParams(g=1.0)
    with pytest.raises(DomainError):
        dnls_free_energy(p, 0.0, 10)
    with pytest.raises(DomainError):
        dnls_free_energy(p, 1.0, -3)


# --- cylinder free energy --------------------------------------------------------------

def test_cylinder_ly1_reduces_to_harmonic_chain():
    # a single-site ring has no ring bonds; ax plays the role of gamma
    cyl = CylinderParams(eta=1.3, ax=0.8, ay=5.0, ly=1)
    chain = ParticleChainParams(eta=1.3, gamma=0.8)
    for beta in (0.5, 2.0):
        a = cylinder_free_energy(cyl, beta, m0=20)
        b = particle_chain_free_energy(chain, beta, m=20)
        assert a == pytest.approx(b, rel=1e-14)


def test_cylinder_ax0_against_ring_determinant():
    # decoupled columns: tensor Nystrom vs the closed form; the per-mode
    # Gauss weights absorb the whole ring potential, so the integrand
    # is constant and every m0 gives the determinant to round-off
    p = CylinderParams(eta=1.0, ax=0.0, ay=0.2, ly=3)
    ref = reference_cylinder_ax0(p, 5.0)
    for m0 in (1, 2, 8, 12):
        err = abs(cylinder_free_energy(p, 5.0, m0) - ref) / abs(ref)
        assert err <= 1e-13, f"m0={m0}: rel error {err:.3e}"


@pytest.mark.parametrize("m0", [4, 6])
def test_cylinder_matches_kronecker_nystrom_solve(m0):
    # the factored cylinder against the full m0^Ly-point Nystrom matrix
    # on the product of per-mode Gauss-Hermite rules, axial kernel
    # -beta ax |y - y'|^2 / 2 written here; lambda_1 of the Kronecker
    # product is the product of the per-mode lambda_1; measured 7e-16
    # (m0 = 4) and 4e-16 (m0 = 6)
    eta, ax, ay, ly, beta = 1.0, 0.5, 0.7, 3, 1.3
    eta_k = eta + ay * (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(ly) / ly))
    rule = tensor_product([gauss_hermite_rescaled(m0, beta * e) for e in eta_k], ly)
    axial = LogKernel(lambda y, yp: -0.5 * beta * ax * np.sum((y - yp) ** 2, axis=-1))
    lam1 = np.linalg.eigvalsh(assemble(axial, rule).entries)[-1]
    mbf = (math.log(2.0 * math.pi / beta) - 0.5 * np.mean(np.log(eta_k))
           + math.log(lam1) / ly)
    got = cylinder_free_energy(CylinderParams(eta=eta, ax=ax, ay=ay, ly=ly), beta, m0)
    assert got == pytest.approx(-mbf / beta, rel=1e-13)


@pytest.mark.parametrize("ly", [3, 8])
def test_coupled_cylinder_against_closed_form(ly):
    # harmonic cylinder with ax > 0: per ring Fourier mode k the axial
    # transfer problem is a harmonic chain, giving
    #   -beta F = log(2 pi/beta)
    #             - (1/(2 Ly)) sum_k log[(A_k + sqrt(A_k^2 - 4 ax^2))/2],
    #   A_k = eta + 2 ax + ay (2 - 2 cos(2 pi k/Ly));
    # the m0 = 8 truncation error was measured at 9.1e-6 (Ly = 3) and
    # 7.9e-6 (Ly = 8) relative
    eta, ax, ay, beta = 1.0, 0.5, 0.2, 1.0
    mbf = math.log(2.0 * math.pi / beta)
    for k in range(ly):
        big_a = eta + 2.0 * ax + ay * (2.0 - 2.0 * math.cos(2.0 * math.pi * k / ly))
        mbf -= math.log(0.5 * (big_a + math.sqrt(big_a ** 2 - 4.0 * ax ** 2))) / (2 * ly)
    expect = -mbf / beta
    got = cylinder_free_energy(CylinderParams(eta=eta, ax=ax, ay=ay, ly=ly), beta, 8)
    assert got == pytest.approx(expect, rel=5e-5)


def test_cylinder_reference_requires_ax0():
    p = CylinderParams(eta=1.0, ax=0.5, ay=0.2, ly=3)
    with pytest.raises(DomainError):
        reference_cylinder_ax0(p, 1.0)


def test_cylinder_reference_ay0_closed_form():
    # ay = 0 kills the ring couplings: plain uncoupled-site value
    p = CylinderParams(eta=2.0, ax=0.0, ay=0.0, ly=4)
    beta = 3.0
    expect = -(math.log(2 * math.pi / beta) - 0.5 * math.log(2.0)) / beta
    assert reference_cylinder_ax0(p, beta) == pytest.approx(expect, rel=1e-15)


def test_cylinder_swap_anisotropy_stays_small():
    # swapping ax and ay changes which direction is transfer and which
    # is ring; at Ly = 3 the two free energies agree only up to a
    # finite-circumference anisotropy, measured at 3.54e-3 / 1.77e-3 /
    # 7.07e-4 absolute for beta = 1 / 2 / 5 on this parameter set (the
    # exact values are 3.52e-3 / 1.76e-3 / 7.05e-4; it does NOT vanish
    # with m0, only with Ly)
    for beta, cap in ((1.0, 4e-3), (2.0, 2e-3), (5.0, 8e-4)):
        f_a = cylinder_free_energy(
            CylinderParams(eta=1.0, ax=0.5, ay=0.2, ly=3), beta, 8)
        f_b = cylinder_free_energy(
            CylinderParams(eta=1.0, ax=0.2, ay=0.5, ly=3), beta, 8)
        assert abs(f_a - f_b) <= cap, f"beta={beta}: |{f_a} - {f_b}|"


def test_cylinder_free_energy_rejects_bad_arguments():
    p = CylinderParams(eta=1.0, ax=0.1, ay=0.1, ly=2)
    with pytest.raises(DomainError):
        cylinder_free_energy(p, 0.0, 5)
    with pytest.raises(DomainError):
        cylinder_free_energy(p, 1.0, 0)


# --- cross-model properties ---------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(beta=st.floats(min_value=0.3, max_value=8.0),
       gamma=st.floats(min_value=0.0, max_value=3.0))
def test_chain_beta_f_decreasing_in_coupling(beta, gamma):
    # adding coupling strength gamma can only lower the free energy
    # density at fixed beta... in fact for this kernel e^{-beta gamma
    # (q-q')^2/2} is pointwise decreasing in gamma, hence so is
    # lambda_1, hence F increases; assert the monotonicity
    p0 = ParticleChainParams(eta=1.0, mu3=0.3, lam=1.0, gamma=gamma)
    p1 = ParticleChainParams(eta=1.0, mu3=0.3, lam=1.0, gamma=gamma + 0.5)
    f0 = particle_chain_free_energy(p0, beta, 25)
    f1 = particle_chain_free_energy(p1, beta, 25)
    assert f1 >= f0 - 1e-12 * abs(f0)


def test_free_energies_are_plain_floats():
    assert isinstance(particle_chain_free_energy(
        ParticleChainParams(eta=1.0), 1.0, 5), float)
    assert isinstance(dnls_free_energy(DnlsParams(g=1.0), 1.0, 5), float)
    assert isinstance(cylinder_free_energy(
        CylinderParams(eta=1.0, ax=0.1, ay=0.1, ly=2), 1.0, 4), float)
