"""The three model systems: kernels, weights, free-energy assembly.

Each model contributes (i) a Gaussian-type weight function that absorbs
the analytic part of its Boltzmann factor, (ii) a symmetric log-kernel
for the nearest-neighbour bond, and (iii) the prefactor bookkeeping
that turns the dominant eigenvalue of the discretized transfer operator
into a free energy per site.

particle chain (anharmonic on-site potential, harmonic coupling):
    V_loc(q) = eta q^2/2 + mu3 q^3/6 + lam q^4/24,  eta > 0, lam >= |mu3|
    weight: normalized Gaussian with the coupling-matched precision
            a = beta c,  c = sqrt(eta (eta + 4 gamma)),
            the precision of the harmonic chain's stationary site
            marginal (c = eta at gamma = 0)
    log k(q, q') = (a - beta eta)(q^2+q'^2)/4
                   - beta [ mu3 (q^3+q'^3)/12 + lam (q^4+q'^4)/48
                            + gamma (q-q')^2 / 2 ]
    -beta F = log(2 pi / beta) - log(c)/2 + log lambda_1
    In the scaled nodes x = q sqrt(beta c) the site term
    (c - eta) x^2 / (4c) and the coupling do not depend on beta, so
    the energy is still the exact beta-derivative of the m-point beta F,
    and the matrix factors as T_beta = D_beta K0 D_beta:
        K0_ij = exp(-gamma (x_i - x_j)^2 / (2c)), one beta-free (m, m)
                matrix per block, at most 1 for gamma >= 0,
        d_i = sqrt(w_i) exp((c - eta) x_i^2 / (4c)
                            - beta (mu3 q_i^3/12 + lam q_i^4/48)),
    and T = K0 o (d_i d_j) is exactly symmetric.  The beta-free
    pieces log(w)/2, x^2 and (x - x')^2 come from the unit rule's
    per-m table (`quadrature._hermite_pieces`) and the nodes q from the
    rule's check and scaling (`quadrature._hermite_nodes`).  Log entries
    are formed only to name an entry that would overflow.  The bond
    observable is a quadratic form on the beta-free K0 o (x - x')^2:
        <(q - q')^2/2>_bond = (v o d).(K0 o (x - x')^2)(v o d)
                              / (2 beta c lambda_1).

defocusing DNLS chain in polar coordinates (amplitudes rho >= 0):
    weight: e^{-beta (g rho^2/2 - mu rho)} drho on [0, inf), which in
            y = rho sqrt(beta g) is e^{sigma(s)} / sqrt(beta g) times
            e^{-y^2/2 - s y - sigma(s)} dy, s = -mu sqrt(beta/g),
            sigma(s) = s^2/2 for s < 0 and 0 otherwise: the rule at
            (g, mu, beta) is the unit rule of s (`stieltjes_rule`)
            with its nodes divided by sqrt(beta g)
    log k(rho, rho') = log 2pi + log I0(beta sqrt(rho rho'))
                        - beta (rho+rho')/2
    -beta F = log lambda_1 + sigma(s) - log(beta g)/2, no two large
              terms subtracted
    With u = sqrt(rho) and x = beta u u', beta (rho + rho')/2 =
    beta (u - u')^2/2 + x, so the matrix is the bounded product
        T_ij = d_i k_ij e^{-x_ij} I0(x_ij) d_j,
        d_i = sqrt(w_i),  k_ij = 2 pi exp(-beta (u_i - u_j)^2 / 2),
    no factor above 2 pi and each exactly symmetric; no log entry is
    formed.  The hop energy is a quadratic form on the same factors:
        <sqrt(rho rho') I1/I0(x)>_bond
            = (v o d).(k o (x / beta) o e^{-x} I1(x))(v o d) / lambda_1.

cylinder (L_y-site rings, periodic in y, infinite in x):
    log k(q, q') = -beta sum_l [ a_x (q_l - q'_l)^2 / 2
                                 + a_y (q_l - q_{l+1})^2 / 4
                                 + a_y (q'_l - q'_{l+1})^2 / 4 ]
    The ring's harmonic part (1/2) q.(eta I + a_y L) q, L the ring
    Laplacian with eigenvalues Lambda_k = 2 - 2 cos(2 pi k / L_y), is
    diagonal in the ring's real Fourier modes y = U^T q.  U is
    orthogonal, so |q - q'|^2 = |y - y'|^2 and in mode coordinates
    the ring's Boltzmann factor is a product over k of Gaussians of
    precision beta eta_k,  eta_k = eta + a_y Lambda_k, and the axial
    bonds give -beta a_x |y - y'|^2 / 2.  Both factor over k, so the
    transfer operator is the tensor product of harmonic chains
    (on-site eta_k, coupling a_x), each solved as the chain above on
    its own m-point rule of precision beta sqrt(eta_k (eta_k + 4 a_x)),
    and lambda_1 = prod_k lambda_1(T_k):
    -beta F = (1/L_y) sum_k [log(2 pi / beta) - log(c_k)/2
                             + log lambda_1(T_k)],
    c_k = sqrt(eta_k (eta_k + 4 a_x)), the mean of L_y harmonic-chain
    free energies.  A harmonic mode's kernel in the scaled nodes has no
    beta in it, so lambda_1(T_k) is a constant of beta: the modes are
    solved at beta = 1, one matrix per distinct eta_k, in stacks of
    `nystrom._block_rows(m)` matrices, and beta F(beta) = F(1) + log beta.
    The distinct eta_k are those of the wave numbers 0..L_y // 2,
    counted without a sort where their values strictly increase
    (`_ring_tally`, the values, counts and order of np.unique).

Each params class is its model.  Class attributes give its CLI
`name`, its `observables` (a row's observable columns, in order) and
`reference_zero`, the field that is 0 in its factorized limit.  Every
model's quadrature size is m: m points per matrix, per ring mode for
the cylinder (the paper's per-coordinate m0, whose m0^L_y-point
tensor grid is never built).  `block(betas, m, observables=True)` returns
F and {column: values} at each beta of a 1-D array from one stacked
solve (`_chain_solve`, `_dnls_solve`).  The `_raw` routes give F alone
at one beta, each a block of one: the DNLS one is `dnls_free_energy`
on its params, and the chain's, which takes gamma < 0, solves its own.
A sweep's block and every one-point route go through `_solve_block`,
which names a failing beta and m by solving a failed block again one
beta at a time (`_raise_named`, which names a cylinder's failing ring
mode the same way); a point is a block of one, so it gives the same bits
and errors alone as inside a sweep.  An F that no double holds (beta F
/ beta below about beta = 4e-306) is a NumericError too, from a solve
and from a closed-form reference alike: `_per_site` alone divides.
`factorized(beta)` is the reference F of the factorized limit, or None
away from it: the gamma=0 chain and the a_x=0 cylinder factorize into
independent single-site (single-ring) problems with closed-form or
1D-integral partition functions.

The observables are first derivatives of the free energy surface:

    particle chain:  <(q_l - q_{l+1})^2 / 2> = dF/dgamma
                     <e_l> = d(beta F)/dbeta
    DNLS:            <rho_l> = -dF/dmu
                     <e_l> = d(beta F)/dbeta + mu <rho_l>

By Hellmann-Feynman (d log lambda_1 = v.(dT)v / lambda_1, v the unit
Perron vector) each is an expectation over the marginals of the solve
that gives F: the site marginal v_i^2 and the bond marginal
v_i T_ij v_j / lambda_1.  The chain's energy is the exact
beta-derivative of its m-point beta F: the Hermite nodes
x_i / sqrt(beta c) leave d log T_ij/dbeta = mu3 (q_i^3 + q_j^3)/24
+ lam (q_i^4 + q_j^4)/48, since c does not depend on beta.  c does
depend on gamma, so the rule moves with gamma and the chain's
stretch_sq is exact only up to quadrature error, as are the DNLS
observables, whose rule moves with mu and beta.
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import nystrom
from .errors import ConvergenceError, DomainError, NumericError
from .nystrom import (_LOG_MAX, LogKernel, _bond_form, _check_log_entries,
                      _product_stack, dominant_eigenvalue)
from .specfun import i0_scaled, i1_scaled, log_i0
from .quadrature import (_check_m, _hermite_nodes, _hermite_pieces,
                         stieltjes_rule)
# unused here; kept because the benchmark tracer wraps models.assemble,
# models.gauss_hermite_rescaled, models.golub_welsch,
# models.stieltjes_recurrence, models.tensor_product and
# models.truncated_gaussian_normalization
from .nystrom import assemble  # noqa: F401
from .quadrature import gauss_hermite_rescaled  # noqa: F401
from .quadrature import golub_welsch, stieltjes_recurrence  # noqa: F401
from .quadrature import tensor_product  # noqa: F401
from .quadrature import truncated_gaussian_normalization  # noqa: F401

__all__ = [
    "ParticleChainParams", "DnlsParams", "CylinderParams",
    "particle_chain_log_kernel", "particle_chain_free_energy",
    "dnls_log_kernel", "dnls_free_energy",
    "cylinder_log_kernel", "cylinder_free_energy",
    "reference_particle_chain_gamma0", "reference_cylinder",
]

_LOG_2PI = math.log(2.0 * math.pi)


def _check_beta(beta):
    # a real scalar (a 0-d array too), positive and finite
    scalar = np.asarray(beta)[()]
    if (not isinstance(scalar, numbers.Real) or not (scalar > 0.0)
            or not math.isfinite(scalar)):
        raise DomainError(
            f"beta must be a positive, finite real scalar, got {beta!r}")


def _check_finite(p):
    # each float field of a params class: a real number (a bool is an
    # int to Python but not a coefficient), and finite, since nan fails
    # every comparison of the domain checks after this one and inf
    # passes their signs
    for f in fields(p):
        value = getattr(p, f.name)
        if f.type is not float:
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"{f.name} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise DomainError(f"{f.name} must be finite, got {value!r}")


def _per_site(beta_f, betas):
    # F = beta F / beta at each beta of an array, or at one scalar beta;
    # below about beta = 4e-306 a beta F of order one gives an F no
    # double holds, which is a NumericError
    with np.errstate(over="ignore"):
        f = beta_f / betas
    if not np.isfinite(f).all():
        k = int(np.argmin(np.isfinite(f)))
        raise NumericError(f"the free energy per site overflows a double "
                           f"(beta F = {float(np.ravel(beta_f)[k])!r})")
    return f


# every input is checked before a block is solved, so a DomainError
# raised inside one comes from a value the solve computed
_FAILURES = (NumericError, DomainError)


def _raise_named(solve, values, exc, where, start=None):
    """After `exc` failed solve(values), raise from the error of the first
    value k that fails alone (of one value, exc) its type (a DomainError
    becomes a NumericError) and residual, with where(value) before its
    message and start + k as `index` (None without a start).  A value
    fails alone as inside any stack; if none does, exc is raised again."""
    k = 0
    if len(values) > 1:
        for k in range(len(values)):
            try:
                solve(values[k:k + 1])
            except _FAILURES as alone:
                exc = alone
                break
        else:
            raise exc
    kind = type(exc) if isinstance(exc, NumericError) else NumericError
    raise kind(f"{where(float(values[k]))}: {exc}",
               residual=getattr(exc, "residual", None),
               index=None if start is None else start + k) from exc


def _solve_block(p, betas, m, observables, start=0):
    """p.block on a block whose first row is grid row `start`.  A numeric
    failure, and only that, is raised as the error of the first beta
    that fails alone, named by that beta and m, with its row in the
    whole grid as `index`."""
    try:
        return p.block(betas, m, observables)
    except _FAILURES as exc:
        _raise_named(lambda b: p.block(b, m, observables), betas, exc,
                     lambda beta: f"at beta={beta!r}, m={m}", start)


def _point(p, beta, m, observables=False):
    """F and {column: value} of p's model at one beta, solved as a block
    of one, so a point gives the same bits and errors as inside a sweep."""
    _check_beta(beta)
    _check_m(m)
    f, values = _solve_block(p, np.array([beta], dtype=float), int(m),
                             observables)
    return float(f[0]), {k: float(v[0]) for k, v in values.items()}


@dataclass(frozen=True)
class ParticleChainParams:
    """eta: harmonic on-site coefficient, mu3: cubic, lam: quartic, gamma: coupling.

    Requires eta > 0 and lam >= |mu3| >= 0 so that V_loc is bounded
    below (a negative quartic coefficient would make the single-site
    partition function divergent), and gamma >= 0.
    """

    name = "chain"
    observables = ("stretch_sq", "energy")
    reference_zero = "gamma"

    eta: float
    mu3: float = 0.0
    lam: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        _check_finite(self)
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

    def block(self, betas, m, observables=True):
        """F and {stretch_sq, energy} at each beta of a block, from one
        stacked solve: <(q - q')^2/2>_bond and 1/beta - <mu3 q^3/12 +
        lam q^4/24>_site; observables=False skips them."""
        f, q, eig, (k0, d) = _chain_solve(self.eta, self.mu3, self.lam,
                                          self.gamma, betas, m)
        if not observables:
            return f, {}
        # <(q - q')^2/2>_bond = (v d).(K0 (x - x')^2)(v d) / (2 beta c lambda_1),
        # since (q - q')^2 = (x - x')^2 / (beta c): a quadratic form on
        # one beta-free (m, m) matrix
        c = math.sqrt(self.eta * (self.eta + 4.0 * self.gamma))
        stretch = (_bond_form(eig.vector, d, k0 * _hermite_pieces(m)[4])
                   / (2.0 * c * betas * eig.lambda1))
        q2 = q * q
        energy = 1.0 / betas - np.sum(eig.vector * eig.vector
                                      * (self.mu3 * (q2 * q) / 12.0
                                         + self.lam * (q2 * q2) / 24.0), axis=-1)
        return f, {"stretch_sq": stretch, "energy": energy}

    def factorized(self, beta):
        """The gamma = 0 reference F, or None at gamma != 0."""
        if self.gamma != 0.0:
            return None
        return reference_particle_chain_gamma0(self, beta)


@dataclass(frozen=True)
class DnlsParams:
    """g: defocusing coupling (> 0), mu_c: chemical potential."""

    name = "dnls"
    observables = ("energy", "density")
    reference_zero = None

    g: float
    mu_c: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        if not (self.g > 0.0):
            raise DomainError(f"defocusing coupling g must be positive, got {self.g!r}")

    def block(self, betas, m, observables=True):
        """F and {energy, density} at each beta of a block, from one
        stacked solve: <rho + g rho^2/2>_site -
        <sqrt(rho rho') I1/I0(beta sqrt(rho rho'))>_bond and <rho>_site;
        observables=False skips them."""
        f, r, eig, (k, x, d) = _dnls_solve(self.g, self.mu_c, betas, m)
        if not observables:
            return f, {}
        # the bond term is a quadratic form, since T_ij I1/I0(x_ij) =
        # d_i k_ij e^{-x} I1(x_ij) d_j and sqrt(rho rho') = x / beta
        site = eig.vector ** 2
        energy = (np.sum(site * (r + 0.5 * self.g * r ** 2), axis=-1)
                  - _bond_form(eig.vector, d, k * x * i1_scaled(x))
                  / (betas * eig.lambda1))
        return f, {"energy": energy, "density": np.sum(site * r, axis=-1)}

    def factorized(self, beta):
        """None: the DNLS chain has no factorized limit."""
        return None


@dataclass(frozen=True)
class CylinderParams:
    """eta: on-site precision, ax/ay: couplings along/around, ly: circumference."""

    name = "cylinder"
    observables = ()
    reference_zero = "ax"

    eta: float
    ax: float
    ay: float
    ly: int

    def __post_init__(self):
        _check_finite(self)
        if not (self.eta > 0.0):
            raise DomainError(f"eta must be positive, got {self.eta!r}")
        if self.ax < 0.0 or self.ay < 0.0:
            raise DomainError(
                f"couplings must be >= 0, got ax={self.ax!r}, ay={self.ay!r}")
        _check_m(self.ly, "ly")

    def block(self, betas, m, observables=True):
        """F at each beta of a block from one stacked solve at beta = 1:
        one harmonic chain per distinct eta_k, the stack axis, and
        beta F = F(1) + log beta; no observables."""
        etas, counts = _ring_tally(self)
        rows = nystrom._block_rows(m)
        f1 = np.concatenate([_ring_modes(etas[i:i + rows], self.ax, m)
                             for i in range(0, etas.size, rows)])
        return _per_site(counts @ f1 / self.ly + np.log(betas), betas), {}

    def factorized(self, beta):
        """The ax = 0 closed-form F, or None at ax != 0."""
        if self.ax != 0.0:
            return None
        return reference_cylinder(self, beta)


# ---------------------------------------------------------------------------
# particle chain


def _anharmonic_site(mu3, lam, beta, q):
    # -beta (mu3 q^3/12 + lam q^4/48), the chain's site term; beta is a
    # scalar, or a (B, 1) column against (B, m) nodes
    c3 = beta * mu3 / 12.0
    c4 = beta * lam / 48.0
    q2 = q * q
    return -(c3 * (q2 * q) + c4 * (q2 * q2))


def particle_chain_log_kernel(p, beta):
    """Symmetrized log-kernel of the particle chain at inverse temperature
    beta, against the Gauss weight of precision beta eta."""
    _check_beta(beta)
    cg = 0.5 * beta * p.gamma
    return LogKernel(lambda q, qp: -cg * (q - qp) ** 2,
                     site=lambda q: _anharmonic_site(p.mu3, p.lam, beta, q))


def _chain_solve(eta, mu3, lam, gamma, betas, m):
    """(F, nodes, DominantEig, (K0, d)) of the m-point chain at each beta
    of a 1-D array: one (B, m, m) stack T = d_i K0_ij d_j and one stacked
    eigensolve; the (B, m) nodes are those of the Gauss-Hermite rule of
    precision beta c, the unit nodes over sqrt(beta c).  eta is a
    scalar, or an array with one entry per beta, and K0 has shape
    (m, m) or (B, m, m) to match."""
    # beta c is the precision of the harmonic chain's stationary site
    # marginal; c = eta exactly at gamma = 0.  In the unit nodes
    # x = q sqrt(beta c) the coupling has no beta in it:
    # log K0 = -gamma (x - x')^2 / (2c); log d holds the half log-weight,
    # the site shift (c - eta) x^2 / (4c) and the anharmonic terms.  The
    # harmonic chain (mu3 = lam = 0) has no site term; at tiny beta the
    # anharmonic one overflows q^4 = x^4 / (beta c)^2, which the log
    # entries then name.  For gamma >= 0, K0 <= 1 with 1 on its diagonal,
    # so the largest log entry is 2 max(log d): within the bound no
    # product overflows, and beyond it a diagonal entry would (for
    # gamma < 0, which only the raw route takes, K0 >= 1 and
    # d_i d_j <= T_ij)
    _, _, half_logw, x2, dx2 = _hermite_pieces(m)
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.sqrt(eta * (eta + 4.0 * gamma))
        prec = betas * c
        nodes = _hermite_nodes(m, prec, prec)
        col = np.shape(c) + (1,)
        logk0 = -np.reshape(gamma / (2.0 * c), col + (1,)) * dx2
        logd = np.empty(nodes.shape)
        logd[...] = half_logw + np.reshape((c - eta) / (4.0 * c), col) * x2
        if mu3 or lam:
            logd += _anharmonic_site(mu3, lam, betas[:, None], nodes)
        if not (np.isfinite(logd).all() and np.isfinite(logk0).all()
                and 2.0 * logd.max() + logk0.max() <= _LOG_MAX):
            _check_log_entries(
                logk0 + (logd[..., :, None] + logd[..., None, :]), nodes)
    k0 = np.exp(logk0, out=logk0)
    d = np.exp(logd)
    eig = dominant_eigenvalue(_product_stack(d, k0))
    mlogz = (_LOG_2PI - np.log(betas) - 0.5 * np.log(c)
             + np.log(eig.lambda1))
    return _per_site(-mlogz, betas), nodes, eig, (k0, d)


def _chain_free_energy_raw(eta, mu3, lam, gamma, beta, m):
    # this route takes gamma < 0, so it checks the Gauss weight's domain,
    # which every params class and ring mode meets
    if not (eta + 4.0 * gamma > 0.0):
        raise DomainError(
            f"the chain's Gauss weight needs eta + 4 gamma > 0, "
            f"got eta={eta!r}, gamma={gamma!r}")
    return float(_chain_solve(eta, mu3, lam, gamma,
                              np.array([beta], dtype=float), m)[0][0])


def particle_chain_free_energy(p, beta, m):
    """Free energy per site, -[log(2pi/beta) - log(c)/2 + log lambda_1]/beta,
    c = sqrt(eta (eta + 4 gamma)) (see the module docstring)."""
    return _point(p, beta, m)[0]


def reference_particle_chain_gamma0(p, beta):
    """Factorized reference for the gamma=0 chain by adaptive quadrature.

    Z_1 = sqrt(2 pi / beta) int e^{-beta V_loc(q)} dq, F = -log(Z_1)/beta.
    The integrand is shifted by V_min, the least V_loc at its critical
    points (q = 0 and the real roots of eta + mu3 q/2 + lam q^2/6), so
    it cannot overflow.  The window [-R, R] holds them all and grows
    until beta (V_loc(+-R) - V_min) >= 45 (integrand tail below 3e-20);
    the integral itself is evaluated to 1e-13 relative.
    """
    _check_beta(beta)
    if p.gamma != 0.0:
        raise DomainError("factorized reference requires gamma = 0")
    from scipy.integrate import quad as _adaptive_quad

    disc = 0.25 * p.mu3 ** 2 - 2.0 * p.lam * p.eta / 3.0
    crit = [0.0] + ([3.0 * (s * math.sqrt(disc) - 0.5 * p.mu3) / p.lam
                     for s in (-1.0, 1.0)] if p.lam > 0.0 and disc >= 0.0 else [])
    v_min = min(float(p.v_loc(q)) for q in crit)
    R = 1.0
    while ((R <= max(map(abs, crit))
            or beta * (min(p.v_loc(R), p.v_loc(-R)) - v_min) < 45.0) and R < 1e6):
        R *= 1.5
    val, err = _adaptive_quad(
        lambda q: math.exp(-beta * (float(p.v_loc(q)) - v_min)),
        -R, R, epsabs=0.0, epsrel=1e-13, limit=400)
    if not np.isfinite(val) or val <= 0.0 or err > 1e-11 * abs(val):
        raise ConvergenceError(
            f"adaptive reference integral unreliable (value {val!r}, "
            f"error estimate {err!r})", residual=err)
    mlogz = 0.5 * (_LOG_2PI - math.log(beta)) + math.log(val) - beta * v_min
    return _per_site(-mlogz, beta)


# ---------------------------------------------------------------------------
# DNLS chain


def dnls_log_kernel(beta):
    """log k(rho, rho') = log 2pi + log I0(beta sqrt(rho rho')) - beta(rho+rho')/2."""
    _check_beta(beta)

    def bond(r, rp):
        r = np.asarray(r, dtype=float)
        rp = np.asarray(rp, dtype=float)
        if np.any(r < 0.0) or np.any(rp < 0.0):
            raise DomainError("DNLS kernel arguments are amplitudes, must be >= 0")
        return _LOG_2PI + log_i0(beta * np.sqrt(r * rp))

    return LogKernel(bond, site=lambda r: -0.5 * beta * r)


def _dnls_solve(g, mu_c, betas, m):
    """(F, nodes, DominantEig, (k, x, d)) of the m-point DNLS chain at
    each beta of a 1-D array: T_ij = d_i k_ij e^{-x_ij} I0(x_ij) d_j, one
    (B, m, m) stack and one stacked eigensolve.  The Stieltjes rule is
    the cached unit rule of s = -mu sqrt(beta/g), one per beta, with its
    nodes divided by sqrt(beta g), stacked as (B, m) nodes and weights."""
    # valid params and beta may still give an s, nodes or kernel values
    # a double cannot hold; each is named by the typed check below it
    # (stieltjes_rule's, i0_scaled's or the nodes' order), with no numpy
    # warning first: s is formed in Python floats, which do not warn.
    # An infinite node meets i0_scaled's check, and the cached weights
    # were checked when built, so order is the one rule check left
    g, mu_c = float(g), float(mu_c)
    s = np.empty(betas.size)
    nodes = np.empty((betas.size, m))
    weights = np.empty((betas.size, m))
    for i, b in enumerate(betas.tolist()):
        s[i] = s_i = -mu_c * math.sqrt(b / g)
        unit = stieltjes_rule(s_i, m)
        nodes[i], weights[i] = unit.nodes, unit.weights
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        nodes /= np.sqrt(betas * g)[:, None]
        # with u = sqrt(rho), beta (rho + rho')/2 = beta (u - u')^2/2 + x
        # and x = beta u u', so k = 2 pi e^{-beta (u - u')^2/2},
        # e^{-x} I0(x) and d = sqrt(w) are each at most 2 pi: no entry
        # overflows, and every factor, so T, is exactly symmetric
        u, d = np.sqrt(nodes), np.sqrt(weights)
        beta = betas[:, None, None]
        x = beta * (u[:, :, None] * u[:, None, :])
        k = 2.0 * math.pi * np.exp(
            -0.5 * beta * (u[:, :, None] - u[:, None, :]) ** 2)
        entries = _product_stack(d, k * i0_scaled(x))
    if (nodes[:, 1:] <= nodes[:, :-1]).any():
        raise DomainError("quadrature nodes must be strictly increasing")
    eig = dominant_eigenvalue(entries)
    mbf = (np.log(eig.lambda1) + 0.5 * np.minimum(s, 0.0) ** 2
           - 0.5 * np.log(betas * g))
    return _per_site(-mbf, betas), nodes, eig, (k, x, d)


def _dnls_free_energy_raw(g, mu_c, beta, m):
    return dnls_free_energy(DnlsParams(g, mu_c), beta, m)


def dnls_free_energy(p, beta, m):
    """Free energy per site of the defocusing DNLS chain.

    The quadrature rule depends on (g, mu, beta) only through
    s = -mu sqrt(beta/g); a recent call at the same s and m left its
    finished Gauss rule in a cache (see `quadrature`), so this call
    builds no rule.
    """
    return _point(p, beta, m)[0]


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


def _ring_modes(etas, ax, m):
    """F at beta = 1 of the harmonic chain of each ring mode eta_k, as
    one stack.  A numeric failure is raised as the error of the first
    mode that fails alone, named by its eta_k; it holds at every beta of
    the block, so `_solve_block` names the block's first beta."""
    solve = lambda e: _chain_solve(e, 0.0, 0.0, ax, np.ones(e.size), m)[0]
    try:
        return solve(etas)
    except _FAILURES as exc:
        _raise_named(solve, etas, exc, lambda e: f"ring mode eta_k={e!r}")


def _ring_spectrum(p):
    # eta + a_y Lambda_k per ring mode; modes k and L_y - k (the cosine
    # and sine of one wave number) get bit-identical values
    k = np.arange(p.ly)
    wave = np.minimum(k, p.ly - k)
    return p.eta + p.ay * (2.0 - 2.0 * np.cos(2.0 * math.pi * wave / p.ly))


def _ring_tally(p):
    """The distinct eta_k and their multiplicities, ascending, exactly as
    np.unique(_ring_spectrum(p), return_counts=True) gives them.  Mode k
    and L_y - k share a value, so the distinct ones are among the wave
    numbers 0..L_y // 2, each counted twice but 0 and L_y / 2; when
    those values strictly increase, as they do unless a_y Lambda_k
    rounds away against eta, they are the answer with no sort."""
    spectrum = _ring_spectrum(p)
    etas = spectrum[:p.ly // 2 + 1]
    if not (etas[1:] > etas[:-1]).all():
        return np.unique(spectrum, return_counts=True)
    counts = np.full(etas.size, 2)
    counts[0] = 1
    if p.ly % 2 == 0:
        counts[-1] = 1
    return etas, counts


def cylinder_free_energy(p, beta, m):
    """Per-site free energy of the cylinder, one harmonic chain per ring mode.

    The mean over ring Fourier modes k of the m-point harmonic-chain
    free energy with on-site eta + a_y Lambda_k and coupling a_x (see
    the module docstring), solved at beta = 1 as one stack of m x m
    matrices, one per distinct eta_k (modes k and ly - k share one),
    and scaled by beta F(beta) = F(1) + log beta.  m is the paper's
    per-coordinate m0.  At ax = 0 the kernel is constant and every m
    gives the ring determinant to round-off; at ly = 1 this is the
    harmonic chain itself.  Each mode's weight is its coupling-matched
    Gaussian, so at ax > 0 the error falls from 7.5e-6 at m = 3 to
    round-off by m = 8 (eta = 1, ax = 0.5, ay = 0.2, ly = 3, beta = 1).
    """
    return _point(p, beta, m)[0]


def reference_cylinder(p, beta):
    """Closed-form per-site free energy of the harmonic cylinder, any ax.

    Each ring Fourier mode is a harmonic chain with on-site
    eta_k = eta + ay Lambda_k (`_ring_spectrum`) and coupling ax, whose
    transfer operator is Gaussian:

        -beta F = log(2 pi / beta)
                  - (1/(2 L_y)) sum_k log((eta_k + 2 ax + c_k) / 2),
        c_k = sqrt(eta_k (eta_k + 4 ax)).

    At ax = 0 this is the ring determinant, sum_k log(eta_k); at
    L_y = 1, ay = 0 it is the harmonic chain with coupling ax.
    """
    _check_beta(beta)
    eta = _ring_spectrum(p)
    c = np.sqrt(eta * (eta + 4.0 * p.ax))
    mbf = (_LOG_2PI - math.log(beta)
           - 0.5 * float(np.mean(np.log(0.5 * (eta + 2.0 * p.ax + c)))))
    return _per_site(-mbf, beta)
