"""The three model systems: kernels, weights, free-energy assembly.

Each model contributes (i) a Gaussian-type weight function that absorbs
the harmonic part of its on-site potential, (ii) a symmetric log-kernel
for the nearest-neighbour bond, and (iii) the prefactor bookkeeping
that turns the dominant eigenvalue of the discretized transfer operator
into a free energy per site.

particle chain (anharmonic on-site potential, harmonic coupling):
    V_loc(q) = eta q^2/2 + mu3 q^3/6 + lam q^4/24,  eta > 0, lam >= |mu3|
    log k(q, q') = -beta [ mu3 (q^3+q'^3)/12 + lam (q^4+q'^4)/48
                           + gamma (q-q')^2 / 2 ]
    weight: normalized Gaussian with precision a = beta eta
    -beta F = log(2 pi / beta) - log(eta)/2 + log lambda_1

defocusing DNLS chain in polar coordinates (amplitudes rho >= 0):
    weight: c e^{-a (z-b)^2/2} on [0, inf), a = beta g, b = mu/g,
            c the normalizing constant
    log k(rho, rho') = log 2pi + log I0(beta sqrt(rho rho'))
                        - beta (rho+rho')/2
    -beta F = beta mu^2/(2g) + log lambda_1 - log c

cylinder (L_y-site rings, periodic in y, infinite in x):
    log k(q, q') = -beta sum_l [ a_x (q_l - q'_l)^2 / 2
                                 + a_y (q_l - q_{l+1})^2 / 4
                                 + a_y (q'_l - q'_{l+1})^2 / 4 ]
    The ring's harmonic part (1/2) q.(eta I + a_y L) q, L the ring
    Laplacian with eigenvalues Lambda_k = 2 - 2 cos(2 pi k / L_y), is
    diagonal in the ring's real Fourier modes y = U^T q.  U is
    orthogonal, so |q - q'|^2 = |y - y'|^2 and in mode coordinates
    weight: product over k of Gaussians with precision
            a_k = beta eta_k,  eta_k = eta + a_y Lambda_k
    log k(y, y') = -beta a_x |y - y'|^2 / 2   (axial bonds only)
    Weight and kernel both factor over k, so the m0^L_y-point matrix
    is the Kronecker product of the harmonic chains' m0-point matrices
    T_k (on-site eta_k, coupling a_x) and lambda_1 = prod_k lambda_1(T_k):
    -beta F = (1/L_y) sum_k [log(2 pi / beta) - log(eta_k)/2
                             + log lambda_1(T_k)],
    the mean of L_y harmonic-chain free energies.

The gamma=0 chain and the a_x=0 cylinder factorize into independent
single-site (single-ring) problems with closed-form or 1D-integral
partition functions; those serve as reference solutions.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as _adaptive_quad

from .errors import ConvergenceError, DomainError
from .nystrom import LogKernel, assemble, dominant_eigenvalue
from .specfun import log_i0
from .quadrature import (gauss_hermite_rescaled, golub_welsch,
                         stieltjes_recurrence,
                         truncated_gaussian_normalization)
# unused here; kept because the benchmark tracer wraps models.tensor_product
from .quadrature import tensor_product  # noqa: F401

__all__ = [
    "ParticleChainParams", "DnlsParams", "CylinderParams",
    "particle_chain_log_kernel", "particle_chain_free_energy",
    "dnls_log_kernel", "dnls_free_energy",
    "cylinder_log_kernel", "cylinder_free_energy",
    "reference_particle_chain_gamma0", "reference_cylinder_ax0",
]

_LOG_2PI = math.log(2.0 * math.pi)


def _check_beta(beta):
    if not (beta > 0.0) or not math.isfinite(beta):
        raise DomainError(f"beta must be positive and finite, got {beta!r}")


def _check_m(m, name="m"):
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise DomainError(f"{name} must be a positive integer, got {m!r}")


@dataclass(frozen=True)
class ParticleChainParams:
    """eta: harmonic on-site coefficient, mu3: cubic, lam: quartic, gamma: coupling.

    Requires eta > 0 and lam >= |mu3| >= 0 so that V_loc is bounded
    below (a negative quartic coefficient would make the single-site
    partition function divergent), and gamma >= 0.
    """

    eta: float
    mu3: float = 0.0
    lam: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not (self.eta > 0.0):
            raise DomainError(f"eta must be positive, got {self.eta!r}")
        if self.lam < 0.0:
            raise DomainError(f"quartic coefficient lam must be >= 0, got {self.lam!r}")
        if abs(self.lam) < abs(self.mu3):
            raise DomainError(
                f"require |lam| >= |mu3| for a confining potential, "
                f"got lam={self.lam!r}, mu3={self.mu3!r}")
        if self.gamma < 0.0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma!r}")

    def v_loc(self, q):
        q = np.asarray(q, dtype=float)
        return (0.5 * self.eta * q ** 2 + self.mu3 * q ** 3 / 6.0
                + self.lam * q ** 4 / 24.0)


@dataclass(frozen=True)
class DnlsParams:
    """g: defocusing coupling (> 0), mu_c: chemical potential."""

    g: float
    mu_c: float = 0.0

    def __post_init__(self):
        if not (self.g > 0.0):
            raise DomainError(f"defocusing coupling g must be positive, got {self.g!r}")

    def weight_parameters(self, beta):
        """Truncated-Gaussian weight parameters (a, b, c) at inverse temperature beta."""
        _check_beta(beta)
        a = beta * self.g
        b = self.mu_c / self.g
        return a, b, truncated_gaussian_normalization(a, b)


@dataclass(frozen=True)
class CylinderParams:
    """eta: on-site precision, ax/ay: couplings along/around, ly: circumference."""

    eta: float
    ax: float
    ay: float
    ly: int

    def __post_init__(self):
        if not (self.eta > 0.0):
            raise DomainError(f"eta must be positive, got {self.eta!r}")
        if self.ax < 0.0 or self.ay < 0.0:
            raise DomainError(
                f"couplings must be >= 0, got ax={self.ax!r}, ay={self.ay!r}")
        if not isinstance(self.ly, (int, np.integer)) or self.ly < 1:
            raise DomainError(f"ly must be a positive integer, got {self.ly!r}")


# ---------------------------------------------------------------------------
# particle chain


def _chain_logk(mu3, lam, gamma, beta):
    c3 = beta * mu3 / 12.0
    c4 = beta * lam / 48.0
    cg = 0.5 * beta * gamma

    def logk(q, qp):
        return -(c3 * (q ** 3 + qp ** 3) + c4 * (q ** 4 + qp ** 4)
                 + cg * (q - qp) ** 2)

    return LogKernel(logk)


def particle_chain_log_kernel(p, beta):
    """Symmetrized log-kernel of the particle chain at inverse temperature beta."""
    _check_beta(beta)
    return _chain_logk(p.mu3, p.lam, p.gamma, beta)


def _chain_free_energy_raw(eta, mu3, lam, gamma, beta, m):
    # Raw-parameter path, no dataclass validation: the finite-difference
    # stencil for the stretch observable evaluates at slightly negative
    # gamma around gamma=0, which is fine for the m-point matrix even
    # though it is outside the params domain.
    rule = gauss_hermite_rescaled(m, beta * eta)
    T = assemble(_chain_logk(mu3, lam, gamma, beta), rule)
    lam1 = dominant_eigenvalue(T).lambda1
    mlogz = _LOG_2PI - math.log(beta) - 0.5 * math.log(eta) + math.log(lam1)
    return -mlogz / beta


def particle_chain_free_energy(p, beta, m):
    """Free energy per site, -[log(2pi/beta) - log(eta)/2 + log lambda_1]/beta."""
    _check_beta(beta)
    _check_m(m)
    return _chain_free_energy_raw(p.eta, p.mu3, p.lam, p.gamma, beta, int(m))


def reference_particle_chain_gamma0(p, beta, tail_exponent=45.0):
    """Factorized reference for the gamma=0 chain by adaptive quadrature.

    Z_1 = sqrt(2 pi / beta) int e^{-beta V_loc(q)} dq, F = -log(Z_1)/beta.
    The integration window [-R, R] grows until beta V_loc(+-R) >= 45
    (integrand tail below 3e-20); the integral itself is evaluated to
    1e-13 relative.
    """
    _check_beta(beta)
    if p.gamma != 0.0:
        raise DomainError("factorized reference requires gamma = 0")
    R = 1.0
    while (beta * min(p.v_loc(R), p.v_loc(-R)) < tail_exponent) and R < 1e6:
        R *= 1.5
    val, err = _adaptive_quad(lambda q: math.exp(-beta * float(p.v_loc(q))),
                              -R, R, epsabs=0.0, epsrel=1e-13, limit=400)
    if not np.isfinite(val) or val <= 0.0 or err > 1e-11 * abs(val):
        raise ConvergenceError(
            f"adaptive reference integral unreliable (value {val!r}, "
            f"error estimate {err!r})", residual=err)
    mlogz = 0.5 * (_LOG_2PI - math.log(beta)) + math.log(val)
    return -mlogz / beta


# ---------------------------------------------------------------------------
# DNLS chain


def dnls_log_kernel(beta):
    """log k(rho, rho') = log 2pi + log I0(beta sqrt(rho rho')) - beta(rho+rho')/2."""
    _check_beta(beta)

    def logk(r, rp):
        r = np.asarray(r, dtype=float)
        rp = np.asarray(rp, dtype=float)
        if np.any(r < 0.0) or np.any(rp < 0.0):
            raise DomainError("DNLS kernel arguments are amplitudes, must be >= 0")
        return _LOG_2PI + log_i0(beta * np.sqrt(r * rp)) - 0.5 * beta * (r + rp)

    return LogKernel(logk)


def _dnls_free_energy_raw(g, mu_c, beta, m):
    a = beta * g
    b = mu_c / g
    c = truncated_gaussian_normalization(a, b)
    rule = golub_welsch(stieltjes_recurrence(a, b, m))
    T = assemble(dnls_log_kernel(beta), rule)
    lam1 = dominant_eigenvalue(T).lambda1
    mbf = 0.5 * beta * mu_c ** 2 / g + math.log(lam1) - math.log(c)
    return -mbf / beta


def dnls_free_energy(p, beta, m):
    """Free energy per site of the defocusing DNLS chain.

    The quadrature rule depends on (mu, beta) through the weight
    parameters a = beta g and b = mu/g, so it is rebuilt on every call.
    """
    _check_beta(beta)
    _check_m(m)
    return _dnls_free_energy_raw(p.g, p.mu_c, beta, int(m))


# ---------------------------------------------------------------------------
# cylinder


def cylinder_log_kernel(p, beta):
    """Ring-to-ring log-kernel; arguments are L_y-vectors (batched as rows)."""
    _check_beta(beta)
    ax, ay, ly = p.ax, p.ay, p.ly

    def logk(q, qp):
        q = np.asarray(q, dtype=float)
        qp = np.asarray(qp, dtype=float)
        if q.shape[-1] != ly or qp.shape[-1] != ly:
            raise DomainError(
                f"ring vectors must have length ly={ly}, "
                f"got shapes {q.shape} and {qp.shape}")
        dq = q - qp
        rq = q - np.roll(q, -1, axis=-1)
        rqp = qp - np.roll(qp, -1, axis=-1)
        v = (0.5 * ax * np.sum(dq * dq, axis=-1)
             + 0.25 * ay * (np.sum(rq * rq, axis=-1)
                            + np.sum(rqp * rqp, axis=-1)))
        return -beta * v

    return LogKernel(logk)


def _ring_spectrum(p):
    # eta + a_y Lambda_k per ring mode; modes k and L_y - k (the cosine
    # and sine of one wave number) get bit-identical values
    k = np.arange(p.ly)
    wave = np.minimum(k, p.ly - k)
    return p.eta + p.ay * (2.0 - 2.0 * np.cos(2.0 * math.pi * wave / p.ly))


def cylinder_free_energy(p, beta, m0):
    """Per-site free energy of the cylinder, one harmonic chain per ring mode.

    The mean over ring Fourier modes k of the m0-point harmonic-chain
    free energy with on-site eta + a_y Lambda_k and coupling a_x (see
    the module docstring); no matrix is larger than m0 x m0.  At ax = 0
    the kernel is constant and every m0 gives the ring determinant to
    round-off; at ly = 1 this is the harmonic chain itself.
    """
    _check_beta(beta)
    _check_m(m0, "m0")
    return float(np.mean([_chain_free_energy_raw(eta_k, 0.0, 0.0, p.ax, beta,
                                                 int(m0))
                          for eta_k in _ring_spectrum(p)]))


def reference_cylinder_ax0(p, beta):
    """Closed-form per-site free energy for ax = 0 (columns decouple).

    The ring partition function is Gaussian; with ring-Laplacian
    eigenvalues 2 - 2 cos(2 pi k / L_y),

        -beta F = log(2 pi / beta)
                  - (1/(2 L_y)) sum_k log(eta + ay (2 - 2 cos(2 pi k/L_y))).
    """
    _check_beta(beta)
    if p.ax != 0.0:
        raise DomainError("closed-form cylinder reference requires ax = 0")
    k = np.arange(p.ly)
    spec = p.eta + p.ay * (2.0 - 2.0 * np.cos(2.0 * math.pi * k / p.ly))
    mbf = _LOG_2PI - math.log(beta) - 0.5 * float(np.mean(np.log(spec)))
    return -mbf / beta
