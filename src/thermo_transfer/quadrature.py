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
built once per m and scaled to the precision a: nodes / sqrt(a),
weights / sqrt(2 pi); an array of precisions gives the (B, m) stack of
rules a block of inverse temperatures needs.  The Stieltjes rules come
out of the Golub-Welsch construction: the nodes are the eigenvalues of
the symmetric tridiagonal Jacobi matrix built from the three-term
recurrence of the monic orthogonal polynomials, and
w_i = beta_0 * (first eigenvector component)^2.  Only that construction needs SciPy, which it imports on
first use, so the Hermite-only chain and cylinder run on numpy alone.

A Lanczos run's first m coefficients do not depend on how many more
are asked for, so each refinement level's run is resumable, and a
small memo keeps the runs of the levels the latest Stieltjes call
compared (normally two), for that call's s alone; a call on another s
replaces them.  A call that climbs m on the same s, as a convergence
ladder does, extends those runs instead of starting new ones.  The
coefficients are the bits of a fresh run, whatever the history: a
level's discrete measure is a function of s and its points per panel,
which key the memo, and an extended run performs exactly the
operations of one run to the larger m.  A lock guards the memo and
each run has its own, since sweeps on several threads build rules
concurrently.
"""

import functools
import math
import threading
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
    "golub_welsch",
    "tensor_product",
    "truncated_gaussian_normalization",
]

# Gaussian tail beyond 12 standard deviations is < 1e-31, invisible in
# double precision; the half-line grid ends where the DNLS density has
# fallen to e^{-12^2/2} of its peak
_TAIL_SIGMAS = 12.0

# Legendre points per panel of the Stieltjes refinement levels.  A rule
# of order m needs about m points on a one-sigma panel (12 already
# reach round-off at m <= 13), so the first level is the smallest with
# min(m, 32) points; from m = 25 on that is 32, and a larger m climbs
# on through the two-level agreement check.
_PANEL_POINTS = (16, 24, 32, 48, 64, 96, 128)

# the Lanczos runs of the levels the latest stieltjes_recurrence call
# compared, keyed by (s, points per panel), and the lock that
# guards the dict (see the module docstring)
_memo = {}
_memo_lock = threading.Lock()

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

    def integrate(self, f):
        """Apply a single (m,) rule to a vectorized function f."""
        return float(np.dot(self.weights, f(self.nodes)))


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
    # the one check of a size: m, the cylinder's m0 or its ly; a bool
    # is an int to Python but not a size
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise DomainError(f"{name} must be a positive integer, got {m!r}")


@functools.lru_cache(maxsize=None)
def _unit_hermite(m):
    # the m-point rule of the standard normal measure (precision 1),
    # read-only because every caller of this m shares the arrays
    with np.errstate(all="ignore"):
        nodes, weights = hermegauss(m)
    weights /= math.sqrt(2.0 * math.pi)
    if not (np.isfinite(weights) & (weights > 0.0)).all():
        raise ResourceLimitError(
            f"no {m}-point Hermite rule: numpy's hermegauss overflows its "
            f"weight normalization from m = 371")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


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
    prec = np.asarray(a, dtype=float)
    if prec.ndim > 1 or not ((prec > 0.0) & np.isfinite(prec)).all():
        raise DomainError(f"precision parameter a must be positive, got {a!r}")
    unit_nodes, unit_weights = _unit_hermite(int(m))
    nodes = unit_nodes / np.sqrt(prec)[..., None]
    nodes.flags.writeable = False
    return QuadratureRule(nodes, np.broadcast_to(unit_weights, nodes.shape))


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
    # np.linspace's own arithmetic, bit for bit, without its overhead;
    # scaling a cached unit grid instead rounds the nodes differently
    edges = np.arange(panels + 1) * ((hi - lo) / panels) + lo
    edges[-1] = hi
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    w = (half[:, None] * w0[None, :]).ravel()
    return x, w


class _Lanczos:
    """Discretized Stieltjes procedure on one discrete measure (x, w),
    resumable in the number of coefficients.

    This is Lanczos, the numerically stable guise of the procedure, on
    the diagonal "multiplication by x" operator in the discrete inner
    product <f, g> = sum w_i f(x_i) g(x_i).  Step k projects x q_k on
    the whole basis B = q_0..q_k at once: h = B r holds alpha_k = h[k],
    and r - h B removes alpha_k q_k and sqrt(beta_k) q_{k-1} together
    with the rounding drift towards the older vectors; the second pass
    is the "twice" of classical Gram-Schmidt.  Coefficient k depends on
    (x, w) and k alone, so the state holds the basis rows, alpha and
    beta computed so far, and the projection (r, h) of its last step,
    which is finished only when a further alpha is asked for: a run
    extended from m to m' gives the bits of one run to m'.
    """

    def __init__(self, x, w, m):
        # room for m coefficients; a request for more grows the arrays
        mass = w.sum()
        self._x = x
        self._lock = threading.Lock()
        self._basis = np.empty((m, x.size))
        self._basis[0] = np.sqrt(w) / math.sqrt(mass)
        self._alpha = np.empty(m)
        self._beta = np.empty(m)
        self._beta[0] = mass
        # coefficients held, the pending (r, h), and the k at which the
        # measure broke down with the beta_k it gave
        self._size = 0
        self._r = np.empty(x.size)
        self._h = None
        self._breakdown = (math.inf, None)

    def coefficients(self, m):
        """Copies of alpha_0..alpha_{m-1} and beta_0..beta_{m-1}."""
        with self._lock:
            if m > len(self._alpha):
                # grow geometrically, so a climb in m copies little
                cap = max(m, 2 * len(self._alpha))
                for name in ("_basis", "_alpha", "_beta"):
                    old = getattr(self, name)
                    new = np.empty((cap,) + old.shape[1:])
                    new[:len(old)] = old
                    setattr(self, name, new)
            x, basis, alpha, beta = self._x, self._basis, self._alpha, self._beta
            r, h, size = self._r, self._h, self._size
            B = basis[:size]
            # ndarray.dot, not @: the same BLAS calls and bits, with
            # less dispatch per call at these sizes
            for k in range(size, min(m, self._breakdown[0])):
                if k:
                    # finish step k - 1
                    r -= h.dot(B)
                    r -= B.dot(r).dot(B)
                    b2 = r.dot(r)
                    if b2 <= 0.0:
                        self._breakdown = (k, b2)
                        break
                    beta[k] = b2
                    np.divide(r, math.sqrt(b2), out=basis[k])
                B = basis[:k + 1]
                np.multiply(x, basis[k], out=r)
                h = B.dot(r)
                alpha[k] = h[k]
                size = k + 1
            self._h, self._size = h, size
            k, b2 = self._breakdown
            if m > k:
                raise ConvergenceError(
                    "discretized measure has fewer support points than "
                    f"requested coefficients (broke down at k={k})",
                    residual=b2)
            return alpha[:m].copy(), beta[:m].copy()


def _lanczos_recurrence(x, w, m):
    # one run of the discretized Stieltjes procedure to m coefficients
    return _Lanczos(x, w, m).coefficients(m)


def stieltjes_recurrence(s, m):
    """Recurrence coefficients of the unit DNLS weight of parameter s.

    The measure is e^{-y^2/2 - s y - sigma(s)} dy on [0, inf), with
    sigma(s) = s^2/2 for s < 0 and 0 otherwise, so the density peaks
    at 1 and overflows at no s; beta_0 is its mass.  No normalizing
    constant is formed.

    The coefficients are produced by a discretized Stieltjes procedure:
    the measure is replaced by a composite Gauss-Legendre discretization
    on [0, -s + sqrt(max(s, 0)^2 + 144)], where the density has fallen
    to e^{-72} of its peak, with panels of width min(1, 1/s) for s > 0
    and 1 otherwise, and the Jacobi coefficients of the discrete
    measure are extracted by Lanczos with full reorthogonalization.
    What comes out is the recurrence of the measure cut at that upper
    end.  The mass beyond it is below 1e-31 of the peak, so low-order
    coefficients and the free energies built on them do not see the
    cut, but high orders do.  The grid is refined through 16, 24, 32,
    48, 64, 96 and 128 points per panel, starting at the first level
    with at least min(m, 32) points, until two consecutive levels agree
    to 1e-14.

    Every call runs that check.  The Lanczos run of each level it
    compares is kept in a memo keyed by (s, points per panel), and only
    the latest call's levels, of its s, are kept; a later call on the
    same s extends those runs to its m (or reads its first m) instead
    of starting over.  An extended run gives the bits of a fresh one,
    so the result does not depend on which calls came before; a lock
    guards the memo for threaded sweeps.
    """
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s!r}")
    _check_m(m)
    m = int(m)
    s = float(s)
    # -y^2/2 - s y - sigma(s) = -(y + t)^2/2 - (s - t) y with t = min(s, 0);
    # the support end -s + sqrt(r^2 + 144), r = max(s, 0), is written
    # without cancellation
    t, r = min(s, 0.0), max(s, 0.0)
    hi = _TAIL_SIGMAS ** 2 / (r + math.hypot(r, _TAIL_SIGMAS)) - t
    panels = math.ceil(hi * max(s, 1.0))
    with _memo_lock:
        # this s's runs by points per panel; another s's are dropped
        # now, so that this call's runs can reuse their memory
        held = {pts: run for (key, pts), run in _memo.items() if key == s}
        if len(held) < len(_memo):
            _memo.clear()
    used = {}
    try:
        prev = None
        for pts in [n for n in _PANEL_POINTS if n >= min(m, 32)]:
            run = held.get(pts)
            if run is None:
                y, wleg = _composite_legendre(0.0, hi, panels, pts)
                run = _Lanczos(
                    y, wleg * np.exp(-0.5 * (y + t) ** 2 - (s - t) * y), m)
            used[s, pts] = run
            alpha, beta = run.coefficients(m)
            if prev is not None:
                resid = max(abs(alpha - prev[0]).max(),
                            abs(beta - prev[1]).max())
                scale = max(1.0, abs(alpha).max(), beta.max())
                if resid <= 1e-14 * scale:
                    return RecurrenceCoefficients(alpha, beta)
            prev = (alpha, beta)
        raise ConvergenceError(
            "Stieltjes discretization did not stabilize to 1e-14 "
            f"(last coefficient change {resid:.3e})", residual=float(resid))
    finally:
        # the memo holds this call's levels, of this s alone
        with _memo_lock:
            _memo.clear()
            _memo.update(used)


def tensor_product(base, dimension):
    """Tensor-product rule over `dimension` coordinates.

    `base` is either one rule used for every coordinate or a sequence
    of `dimension` rules, one per coordinate.  The flat size (m0^dimension
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
        shape = f"m0^Ly = {sizes[0]}^{dimension}" if len(set(sizes)) == 1 \
            else "*".join(map(str, sizes))
        raise ResourceLimitError(
            f"tensor rule size {shape} = {size} "
            f"exceeds the budget of {_TENSOR_BUDGET} points")
    return TensorRule(bases)
