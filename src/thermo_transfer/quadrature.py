"""Gauss quadrature rules for the three measures in play.

* a rescaled Gauss-Hermite rule for the normalized Gaussian
  omega(q) = sqrt(a/2pi) e^{-a q^2/2} on the full line (variance 1/a),
* a rule for the one-parameter DNLS weight e^{-y^2/2 - s y - sigma(s)}
  on [0, inf), whose recurrence coefficients are not classical and are
  produced by a discretized Stieltjes procedure (Gautschi 1982): Lanczos
  with full reorthogonalization on refined composite Gauss-Legendre
  grids (see `stieltjes_recurrence`),
* tensor products of 1D rules, one per coordinate, for the
  ring-of-sites measure.

The Hermite rule is numpy's `hermegauss` (Gauss rule for e^{-q^2/2}),
built once per m into one read-only table with the chain's beta-free
pieces (`_hermite_pieces`) and scaled to the precision a: nodes /
sqrt(a), weights / sqrt(2 pi); an array of precisions gives a (B, m)
stack of rules.  The chain's solve reads the table and scales its
nodes through the same check (`_hermite_nodes`), building no rule.
The Stieltjes rules come out of the Golub-Welsch construction:
the nodes are the eigenvalues of the symmetric tridiagonal Jacobi
matrix built from the three-term recurrence of the monic orthogonal
polynomials, and w_i = beta_0 * (first eigenvector component)^2.  Only
that construction needs SciPy, which it imports on first use, so the
Hermite-only chain and cylinder run on numpy alone.

A DNLS rule is a pure function of (s, m).  One `functools.lru_cache`,
read by `stieltjes_recurrence` and `stieltjes_rule` after they check s
and m, holds the finished Gauss rules: each entry is the recurrence and
its Golub-Welsch nodes and weights, built together on a miss, so a hit
runs neither Lanczos nor Golub-Welsch.  The bits of an entry do not
depend on the calls before it, and its arrays are read-only because
its callers share them.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import (ConvergenceError, DomainError, NumericError,
                     ResourceLimitError)
from .specfun import erfc

__all__ = [
    "QuadratureRule",
    "RecurrenceCoefficients",
    "TensorRule",
    "gauss_hermite_rescaled",
    "stieltjes_recurrence",
    "stieltjes_rule",
    "golub_welsch",
    "tensor_product",
    "truncated_gaussian_normalization",
]

# Gaussian tail beyond 12 standard deviations is < 1e-31, invisible in
# double precision; each end of the half-line grid other than 0 sits
# where the DNLS density has fallen to e^{-12^2/2} of its peak
_TAIL_SIGMAS = 12.0

# Legendre points per panel of the Stieltjes refinement levels.  A rule
# of order m needs about m points on a one-sigma panel (12 already
# reach round-off at m <= 13), so the first level is the smallest with
# min(m, 32) points; from m = 25 on that is 32, and a larger m climbs
# on through the two-level agreement check, building each level anew.
_PANEL_POINTS = (16, 24, 32, 48, 64, 96, 128)

# finished DNLS rules held, each 4m doubles (the recurrence, the nodes
# and the weights): the accuracy ladder climbs 18 (s, m) pairs per pass
# and the shipped DNLS sweep has 64 rows
_RULE_CACHE = 128

# the most points a tensor rule may have: a dense matrix on the product
# grid holds the square of this many entries (8192^2 doubles = 512 MiB)
_TENSOR_BUDGET = 8192


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes z_i and positive weights w_i with int f dnu ~ sum w_i f(z_i).

    Nodes and weights have shape (m,), or (B, m) for a stack of B
    m-point rules (one per inverse temperature of a block); every check
    runs along the last axis, and len() is m either way.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim not in (1, 2) or nodes.shape != weights.shape:
            raise DomainError(
                "nodes and weights must be arrays of equal shape, (m,) or (B, m)")
        if nodes.size == 0:
            raise DomainError("empty quadrature rule")
        # written so that nan and inf fail
        if not ((weights > 0.0) & np.isfinite(weights)).all():
            raise DomainError(
                "quadrature weights must be strictly positive and finite")
        if not np.isfinite(nodes).all():
            raise DomainError("quadrature nodes must be finite")
        if (nodes[..., 1:] <= nodes[..., :-1]).any():
            raise DomainError("quadrature nodes must be strictly increasing")

    def __len__(self):
        return self.nodes.shape[-1]


@dataclass(frozen=True)
class RecurrenceCoefficients:
    """Monic three-term recurrence data alpha_0..alpha_{m-1}, beta_0..beta_{m-1}.

    beta_0 carries the total mass of the measure; all beta_k must be
    positive for the measure to be positive definite.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if alpha.ndim != 1 or alpha.shape != beta.shape:
            raise DomainError("alpha and beta must be 1D arrays of equal length")
        # written so that nan fails too; golub_welsch turns a non-finite
        # alpha_k or an infinite beta_k into a failed rule
        if not (beta > 0.0).all():
            raise DomainError("recurrence coefficients beta_k must be positive")

    def __len__(self):
        return self.alpha.size


@dataclass(frozen=True)
class TensorRule:
    """Full tensor product of one 1D rule per coordinate.

    Multi-indices are enumerated lexicographically with the rightmost
    index varying fastest, so the flat layout is reproducible.  Row i
    of `nodes` is the node vector q_i, `weights[i]` the product weight.
    """

    bases: tuple
    nodes: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        bases = tuple(self.bases)
        object.__setattr__(self, "bases", bases)
        shape = tuple(len(b) for b in bases)
        idx = np.indices(shape).reshape(len(shape), -1)  # rightmost fastest
        object.__setattr__(self, "nodes", np.stack(
            [b.nodes[i] for b, i in zip(bases, idx)], axis=1))
        object.__setattr__(self, "weights", np.prod(np.stack(
            [b.weights[i] for b, i in zip(bases, idx)], axis=1), axis=1))

    def __len__(self):
        return self.weights.size


def _check_m(m, name="m"):
    # the one check of a size: m or the cylinder's ly; a bool
    # is an int to Python but not a size
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise DomainError(f"{name} must be a positive integer, got {m!r}")


@functools.lru_cache(maxsize=32)
def _hermite_pieces(m):
    # the m-point rule of the standard normal measure (precision 1) and
    # the beta-free pieces of a factored chain matrix on it: its nodes x,
    # weights w, 0.5 log w, x^2 and the (m, m) (x_i - x_j)^2, built once
    # per m and read-only because every caller of this m shares them.
    # At most 32 sizes are held, about 35 MB at the largest m a Hermite
    # rule has (370)
    with np.errstate(all="ignore"):
        x, w = hermegauss(m)
    w /= math.sqrt(2.0 * math.pi)
    if not (np.isfinite(w) & (w > 0.0)).all():
        raise ResourceLimitError(
            f"no {m}-point Hermite rule: numpy's hermegauss overflows its "
            f"weight normalization from m = 371")
    table = (x, w, 0.5 * np.log(w), x * x, (x[:, None] - x[None, :]) ** 2)
    for a in table:
        a.flags.writeable = False
    return table


def _hermite_nodes(m, prec, a):
    # the unit nodes over sqrt(prec), shape prec.shape + (m,), for the
    # float precisions prec of shape () or (B,), checked before the table
    # is read; the DomainError shows a, the precision the caller was given
    if prec.ndim > 1 or not ((prec > 0.0) & np.isfinite(prec)).all():
        raise DomainError(f"precision parameter a must be positive, got {a!r}")
    return _hermite_pieces(m)[0] / np.sqrt(prec)[..., None]


def gauss_hermite_rescaled(m, a):
    """Gauss rule for the normalized Gaussian measure with precision a.

    Exact for polynomials up to degree 2m-1 against
    dnu = sqrt(a/2pi) e^{-a q^2/2} dq; total mass 1.  The nodes are the
    unit rule's divided by sqrt(a) and the weights do not depend on a;
    both arrays are read-only.  For a 1-D array a the result is the
    stack of one rule per entry: nodes and weights of shape
    a.shape + (m,).
    """
    _check_m(m)
    nodes = _hermite_nodes(int(m), np.asarray(a, dtype=float), a)
    nodes.flags.writeable = False
    return QuadratureRule(
        nodes, np.broadcast_to(_hermite_pieces(int(m))[1], nodes.shape))


def golub_welsch(rc):
    """Quadrature rule from recurrence coefficients via the Jacobi matrix.

    Nodes are the eigenvalues of the symmetric tridiagonal matrix with
    diagonal alpha and off-diagonal sqrt(beta_1..beta_{m-1}); the weight
    attached to node i is beta_0 times the squared first component of
    the associated normalized eigenvector.
    """
    m = len(rc)
    if m == 1:
        return QuadratureRule(np.array([rc.alpha[0]]), np.array([rc.beta[0]]))
    from scipy.linalg.lapack import dstev

    # LAPACK's QR driver, called directly: scipy's eigh_tridiagonal
    # gives the same bits but its checks cost several times the solve
    # at small m.  The relatively robust driver stemr would flush
    # eigenvector components below ~1e-40 to exact zero, which destroys
    # the tail weights of rules beyond m ~ 55; stev keeps them to
    # underflow.  Eigenvalues come back ascending; a non-finite
    # coefficient leaves info > 0 or nan nodes.
    vals, vecs, info = dstev(rc.alpha, np.sqrt(rc.beta[1:]), compute_v=1)
    if info != 0 or not np.isfinite(vals).all():
        raise ConvergenceError(
            f"Jacobi eigenproblem failed (LAPACK dstev info={info}) at m={m}")
    weights = rc.beta[0] * vecs[0, :] ** 2
    return QuadratureRule(vals, weights)


def truncated_gaussian_normalization(a, b):
    """Constant c making c e^{-a(z-b)^2/2} a probability density on [0, inf).

    c = 2 sqrt(a/2pi) / erfc(-b sqrt(a/2)); the denominator is the
    complementary form of 1 + erf(b sqrt(a/2)), which keeps full
    relative accuracy when the mode b sits far below the domain and
    the surviving mass is tiny.  When even that underflows, the input
    is valid but a double cannot hold the mass: NumericError.  No
    production route calls it: the DNLS rule's weight is the
    unnormalized one of `stieltjes_recurrence`.
    """
    if not (a > 0.0):
        raise DomainError(f"a must be positive, got {a!r}")
    mass = erfc(-b * math.sqrt(0.5 * a))
    if mass == 0.0:
        raise NumericError(
            f"truncated-Gaussian mass on [0, inf) underflows for "
            f"a={float(a)!r}, b={float(b)!r} "
            f"(mode more than ~38 sigma below zero)")
    return 2.0 * math.sqrt(a / (2.0 * math.pi)) / mass


@functools.lru_cache(maxsize=None)
def _legendre_panel(n):
    # Gauss-Legendre nodes/weights on [-1, 1] from the Jacobi matrix of
    # the Legendre recurrence beta_k = k^2/(4k^2 - 1), total mass 2, for
    # n >= 2 (the levels start at 16); built once per n and read-only,
    # since every caller shares them
    from scipy.linalg import eigh_tridiagonal

    k = np.arange(1, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    vals, vecs = eigh_tridiagonal(np.zeros(n), off)
    weights = 2.0 * vecs[0, :] ** 2
    vals.flags.writeable = False
    weights.flags.writeable = False
    return vals, weights


def _composite_legendre(lo, hi, panels, pts):
    x0, w0 = _legendre_panel(pts)
    # scaling a cached unit grid instead rounds the nodes differently
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    w = (half[:, None] * w0[None, :]).ravel()
    return x, w


def _lanczos(x, w, m):
    """alpha_0..alpha_{m-1}, beta_0..beta_{m-1} of the discrete measure
    (x, w) by the discretized Stieltjes procedure.

    This is Lanczos, the numerically stable guise of the procedure, on
    the diagonal "multiplication by x" operator in the discrete inner
    product <f, g> = sum w_i f(x_i) g(x_i).  Step k projects x q_k on
    the whole basis B = q_0..q_k at once: h = B r holds alpha_k = h[k],
    and r - h B removes alpha_k q_k and sqrt(beta_k) q_{k-1} together
    with the rounding drift towards the older vectors; the second pass
    is the "twice" of classical Gram-Schmidt.  A measure with fewer
    than m support points breaks down at the k where beta_k <= 0.
    """
    mass = w.sum()
    basis = np.empty((m, x.size))
    basis[0] = np.sqrt(w) / math.sqrt(mass)
    alpha, beta = np.empty(m), np.empty(m)
    beta[0] = mass
    # ndarray.dot, not @: the same BLAS calls and bits, with less
    # dispatch per call at these sizes; the basis rows are C-contiguous
    for k in range(m):
        if k:
            # finish step k - 1
            r -= h.dot(B)
            r -= B.dot(r).dot(B)
            b2 = r.dot(r)
            if b2 <= 0.0:
                raise ConvergenceError(
                    "discretized measure has fewer support points than "
                    f"requested coefficients (broke down at k={k})",
                    residual=b2)
            beta[k] = b2
            np.divide(r, math.sqrt(b2), out=basis[k])
        B = basis[:k + 1]
        r = x * basis[k]
        h = B.dot(r)
        alpha[k] = h[k]
    return alpha, beta


@functools.lru_cache(maxsize=_RULE_CACHE)
def _stieltjes(s, m):
    # (recurrence, Gauss rule) of the refinement of stieltjes_recurrence
    # on checked (float s, int m); both hold read-only arrays.  Each
    # level is the first m coefficients of the unit DNLS weight of
    # parameter s on a composite grid of pts Legendre points per panel,
    # over one support and panel count.
    # -y^2/2 - s y - sigma(s) = -(y + t)^2/2 - (s - t) y with t = min(s, 0);
    # the support end -s + sqrt(r^2 + 144), r = max(s, 0), is written
    # without cancellation, and for s < -12 the grid starts 12 below
    # the mode -t as well
    t, r = min(s, 0.0), max(s, 0.0)
    hi = _TAIL_SIGMAS ** 2 / (r + math.hypot(r, _TAIL_SIGMAS)) - t
    lo = max(0.0, -t - _TAIL_SIGMAS)
    if not hi > lo:
        raise ConvergenceError(
            f"Stieltjes grid at s={s!r} has no width: "
            f"-s - 12 and -s + 12 round to one double")
    panels = math.ceil((hi - lo) * max(s, 1.0))
    prev = None
    for pts in [n for n in _PANEL_POINTS if n >= min(m, 32)]:
        y, wleg = _composite_legendre(lo, hi, panels, pts)
        alpha, beta = _lanczos(
            y, wleg * np.exp(-0.5 * (y + t) ** 2 - (s - t) * y), m)
        if prev is not None:
            resid = max(abs(alpha - prev[0]).max(),
                        abs(beta - prev[1]).max())
            scale = max(1.0, abs(alpha).max(), beta.max())
            if resid <= 1e-14 * scale:
                alpha.flags.writeable = beta.flags.writeable = False
                rc = RecurrenceCoefficients(alpha, beta)
                rule = golub_welsch(rc)
                rule.nodes.flags.writeable = False
                rule.weights.flags.writeable = False
                return rc, rule
        prev = (alpha, beta)
    raise ConvergenceError(
        "Stieltjes discretization did not stabilize to 1e-14 "
        f"(last coefficient change {resid:.3e})", residual=float(resid))


def _stieltjes_key(s, m):
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s!r}")
    _check_m(m)
    return float(s), int(m)


def stieltjes_recurrence(s, m):
    """Recurrence coefficients of the unit DNLS weight of parameter s.

    The measure is e^{-y^2/2 - s y - sigma(s)} dy on [0, inf), with
    sigma(s) = s^2/2 for s < 0 and 0 otherwise, so the density peaks
    at 1 and overflows at no s; beta_0 is its mass.  No normalizing
    constant is formed.

    The coefficients are produced by a discretized Stieltjes procedure:
    the measure is replaced by a composite Gauss-Legendre discretization
    on [max(0, -s - 12), -s + sqrt(max(s, 0)^2 + 144)], where the
    density has fallen to e^{-72} of its peak at each end that is not
    0, with panels of width min(1, 1/s) for s > 0 and 1 otherwise, and
    the Jacobi coefficients of the discrete measure are extracted by
    Lanczos with full reorthogonalization.  For s <= 0 the grid spans
    at most 24 (up to rounding), so its cost does not grow with |s|;
    below s ~ -1e17 its ends round to one double, a ConvergenceError.
    What comes out is the recurrence of the measure cut at those ends.
    The mass beyond them is below 1e-31 of the peak, so low-order
    coefficients and the free energies built on them do not see the
    cuts, but high orders do.  The grid is refined through 16, 24, 32,
    48, 64, 96 and 128 points per panel, starting at the first level
    with at least min(m, 32) points, until two consecutive levels agree
    to 1e-14.

    s and m are checked first; then the recurrence is looked up by
    (float(s), int(m)) in a cache of the last 128 finished Gauss rules
    (`stieltjes_rule`), whose read-only arrays its callers share, or
    built with every level anew, together with its rule.
    """
    return _stieltjes(*_stieltjes_key(s, m))[0]


def stieltjes_rule(s, m):
    """The m-point Gauss rule of the unit DNLS weight of parameter s.

    golub_welsch of `stieltjes_recurrence(s, m)`, bit for bit, built
    once per cache entry: s and m are checked first, and the rule comes
    from the same cache of the last 128 (s, m) pairs as the recurrence,
    so a hit runs no Lanczos and no Golub-Welsch.  Its nodes and
    weights are read-only, since its callers share them.
    """
    return _stieltjes(*_stieltjes_key(s, m))[1]


def tensor_product(base, dimension):
    """Tensor-product rule over `dimension` coordinates.

    `base` is either one rule used for every coordinate or a sequence
    of `dimension` rules, one per coordinate.  The flat size (m^dimension
    for a shared rule) must not exceed 8192 points (a dense matrix on
    the product grid costs size^2 floats, which is the real constraint).
    """
    if not isinstance(dimension, (int, np.integer)) or dimension < 1:
        raise DomainError(f"dimension must be a positive integer, got {dimension!r}")
    dimension = int(dimension)
    bases = (base,) * dimension if isinstance(base, QuadratureRule) else tuple(base)
    if len(bases) != dimension:
        raise DomainError(
            f"got {len(bases)} per-coordinate rules for dimension {dimension}")
    sizes = [len(b) for b in bases]
    size = math.prod(sizes)
    if size > _TENSOR_BUDGET:
        shape = f"{sizes[0]}^{dimension}" if len(set(sizes)) == 1 \
            else "*".join(map(str, sizes))
        raise ResourceLimitError(
            f"tensor rule size {shape} = {size} "
            f"exceeds the budget of {_TENSOR_BUDGET} points")
    return TensorRule(bases)
