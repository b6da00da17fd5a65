"""Independent oracles for the benchmark's output checks.

None of this imports thermo_transfer.quadrature, .nystrom or .specfun:
the oracles are separate routes to the same numbers.

* Chain and DNLS: a dense Nystrom solve of the transfer operator on
  Lebesgue measure, discretized on a composite Gauss-Legendre grid
  wide enough that the Perron vector's tails are far below roundoff,
  and diagonalized with numpy.linalg.eigh.  The DNLS hopping factor
  uses scipy.special.i0e / i1e.  Observables are Hellmann-Feynman
  expectations on the oracle's Perron vector: with v the unit Perron
  vector of the symmetric matrix A (top eigenvalue lam), the site
  marginal is v_i^2 and the bond marginal is v_i A_ij v_j / lam.
* Cylinder: the closed form of the harmonic cylinder for all (ax, ay),

      -beta F = log(2 pi/beta)
                - (1/(2 Ly)) sum_k log((A_k + sqrt(A_k^2 - 4 ax^2))/2),
      A_k = eta + 2 ax + ay (2 - 2 cos(2 pi k / Ly)),

  which for Ly = 1 is the harmonic-chain "edge" formula.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.special

_LOG_2PI = math.log(2.0 * math.pi)

# the Perron vector tails are cut where the site Boltzmann factor has
# fallen below e^-TAIL, far under double-precision roundoff
_TAIL = 50.0


@dataclass(frozen=True)
class OracleSolution:
    """F per site and the Hellmann-Feynman observables at one beta."""

    free_energy: float
    observables: dict


def _legendre_grid(lo, hi, panels, pts):
    x0, w0 = np.polynomial.legendre.leggauss(pts)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    w = (half[:, None] * w0[None, :]).ravel()
    return x, w


def _perron(log_a):
    """(log lam, v, A/lam) for A = exp(log_a), shifted against overflow."""
    shift = float(np.max(log_a))
    a = np.exp(log_a - shift)
    vals, vecs = np.linalg.eigh(a)
    lam = float(vals[-1])
    v = np.abs(vecs[:, -1])
    return shift + math.log(lam), v, a / lam


def chain_v_loc(eta, mu3, lam, q):
    return 0.5 * eta * q ** 2 + mu3 * q ** 3 / 6.0 + lam * q ** 4 / 24.0


def _chain_half_width(eta, mu3, lam, beta):
    r = 1.0
    while beta * min(chain_v_loc(eta, mu3, lam, r),
                     chain_v_loc(eta, mu3, lam, -r)) < _TAIL:
        r *= 1.1
    return r


def chain_solution(eta, mu3, lam, gamma, beta, panels=40, pts=20):
    """Anharmonic chain: F, stretch_sq = dF/dgamma, energy = d(beta F)/dbeta.

    Transfer kernel on Lebesgue measure
        K(q, q') = exp(-beta [V(q)/2 + V(q')/2 + gamma (q - q')^2 / 2]),
    -beta F = log(2 pi/beta)/2 + log lambda_1(K)   (momenta integrated).
    """
    r = _chain_half_width(eta, mu3, lam, beta)
    x, w = _legendre_grid(-r, r, panels, pts)
    v_loc = chain_v_loc(eta, mu3, lam, x)
    half_sq = 0.5 * (x[:, None] - x[None, :]) ** 2
    half_logw = 0.5 * np.log(w)
    log_a = (-beta * (0.5 * v_loc[:, None] + 0.5 * v_loc[None, :]
                      + gamma * half_sq)
             + half_logw[:, None] + half_logw[None, :])
    log_lam, v, bond = _perron(log_a)
    mbf = 0.5 * (_LOG_2PI - math.log(beta)) + log_lam
    stretch = float(v @ (half_sq * bond) @ v)
    energy = 0.5 / beta + float(np.dot(v * v, v_loc)) + gamma * stretch
    return OracleSolution(-mbf / beta,
                          {"stretch_sq": stretch, "energy": energy})


def dnls_solution(g, mu, beta, panels=40, pts=20):
    """Defocusing DNLS chain: F, density = -dF/dmu, energy.

    Transfer kernel on Lebesgue measure in the amplitude rho >= 0,
        K(rho, rho') = 2 pi I0(beta sqrt(rho rho'))
                       exp(-beta [(rho + rho')/2 + g (rho^2 + rho'^2)/4
                                  - mu (rho + rho')/2]),
    -beta F = log lambda_1(K); energy = <rho + g rho^2/2>
    - <sqrt(rho rho') I1/I0(beta sqrt(rho rho'))> over the marginals.
    """
    b = max(mu / g, 0.0)
    hi = b + 1.0
    while beta * (0.5 * g * hi * hi - mu * hi) < 2.0 * _TAIL:
        hi *= 1.1
    x, w = _legendre_grid(0.0, hi, panels, pts)
    s = np.sqrt(x[:, None] * x[None, :])
    arg = beta * s
    site = 0.5 * x + 0.25 * g * x * x - 0.5 * mu * x
    half_logw = 0.5 * np.log(w)
    log_a = (_LOG_2PI + arg + np.log(scipy.special.i0e(arg))
             - beta * (site[:, None] + site[None, :])
             + half_logw[:, None] + half_logw[None, :])
    log_lam, v, bond = _perron(log_a)
    hop = s * scipy.special.i1e(arg) / scipy.special.i0e(arg)
    p = v * v
    density = float(np.dot(p, x))
    energy = float(np.dot(p, x + 0.5 * g * x * x)) - float(v @ (hop * bond) @ v)
    return OracleSolution(-log_lam / beta,
                          {"density": density, "energy": energy})


def cylinder_free_energy(eta, ax, ay, ly, beta):
    """Closed-form per-site free energy of the harmonic cylinder."""
    k = np.arange(ly)
    a_k = eta + 2.0 * ax + ay * (2.0 - 2.0 * np.cos(2.0 * math.pi * k / ly))
    edge = 0.5 * (a_k + np.sqrt(a_k * a_k - 4.0 * ax * ax))
    mbf = _LOG_2PI - math.log(beta) - 0.5 * float(np.mean(np.log(edge)))
    return -mbf / beta


def harmonic_chain_free_energy(eta, gamma, beta):
    """Harmonic-chain edge formula, from the log-cosine integral."""
    edge = 0.5 * (eta + 2.0 * gamma + math.sqrt(eta * (eta + 4.0 * gamma)))
    return -(_LOG_2PI - math.log(beta) - 0.5 * math.log(edge)) / beta


def uncoupled_chain_free_energy(eta, mu3, lam, beta):
    """gamma = 0 chain: single-site partition function by adaptive quadrature."""
    r = _chain_half_width(eta, mu3, lam, beta)
    val, _ = scipy.integrate.quad(
        lambda q: math.exp(-beta * chain_v_loc(eta, mu3, lam, q)),
        -r, r, epsabs=0.0, epsrel=1e-13, limit=400)
    return -(0.5 * (_LOG_2PI - math.log(beta)) + math.log(val)) / beta
