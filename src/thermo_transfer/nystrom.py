"""Nystrom discretization of the transfer operator and its spectrum.

The integral operator with symmetric positive kernel k_beta is
discretized on a quadrature rule (z_i, w_i) as the symmetric matrix

    T[i, j] = k_beta(z_i, z_j) sqrt(w_i w_j).

A matrix is the numpy array of its entries: `assemble` returns it,
built in log space from a `LogKernel` (symmetric pair terms plus
optional per-node site terms, broadcast over the rule's nodes) and a
`QuadratureRule` or `TensorRule`, which cannot be empty, and
`dominant_eigenvalue` and `fredholm_det` take it.
No production route goes through `assemble`: every model builds its
stack as a bounded product d_i K_ij d_j (see `models`), and
`assemble` with the `*_log_kernel` functions is the tests'
independent reference only.  The chain's log
entries go through `assemble`'s check only when a bound says an entry
may overflow.  Each model's matrix has m rows (for the cylinder, one
m-row chain per ring Fourier mode), a few dozen in practice,
so the dominant pair comes from two dense steps: lambda_1 is the top
of the eigenvalues, and the Perron vector is one step of inverse
iteration, a solve of (sigma I - T) x = T 1 with sigma 16 ulps above
lambda_1.  The Perron-Frobenius theorem for elementwise
positive matrices guarantees a simple positive lambda_1 with a
strictly positive eigenvector, and for T >= 0 and sigma > lambda_1 the
Neumann series x = sum_k T^(k+1) 1 / sigma^(k+1) is elementwise
positive, so x is that vector up to rounding.

Both steps take a stack: a rule whose nodes and weights have shape
(B, m), one rule per inverse temperature of a block, assembles to
entries of shape (B, m, m), and `dominant_eigenvalue` solves the whole
stack with one `np.linalg.eigvalsh` and one `np.linalg.solve` call,
giving lambda_1 of shape (B,) and Perron vectors of shape (B, m).  A
single matrix is a stack of one inside, so a matrix gives the same
bits alone as inside any stack, and the same error: no error here
says which matrix of a stack failed (`models._solve_block` finds it
by solving the matrices alone).
"""

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AssemblyError, ConvergenceError

__all__ = ["LogKernel", "DominantEig",
           "assemble", "dominant_eigenvalue", "fredholm_det"]


@dataclass(frozen=True)
class LogKernel:
    """Evaluation contract for a symmetric kernel, in log space.

    log k_beta(z, z') = site(z) + site(z') + fn(z, z').  ``fn`` takes
    the pair terms and ``site`` (optional) the terms of one point,
    which assembly then evaluates once per node instead of once per
    pair.  Both broadcast over arrays of points: assembly passes
    z of shape (..., m, 1) and z' of shape (..., 1, m) for scalar
    points, with a trailing axis of length L_y for ring points, and
    ``fn`` returns shape (..., m, m), ``site`` shape (..., m, 1).
    The kernel must be symmetric, fn(z, z') = fn(z', z): assembly
    evaluates every pair but keeps only the upper triangle.
    """

    fn: Callable
    site: Callable = None

    def __call__(self, z, zp):
        if self.site is None:
            return self.fn(z, zp)
        return self.site(z) + self.site(zp) + self.fn(z, zp)


@dataclass(frozen=True)
class DominantEig:
    """lambda_1, its unit Perron vector, the relative residual and the
    number of solves (always 1: the eigenvalues and one shifted solve).

    For a stack, lambda1 has shape (B,), vector shape (B, m), and
    residual is the largest over the stack.
    """

    lambda1: float
    vector: np.ndarray
    residual: float
    iterations: int


# log of the largest double: exp of a log entry above it overflows
_LOG_MAX = float(np.log(np.finfo(float).max))

# the shift of the Perron-vector solve, sigma - lambda_1, in ulps of
# lambda_1: above the few-ulp error of the computed lambda_1 (up to 6
# at m = 150), so that sigma I - T is not singular in floating point;
# at 2 ulps LU meets an exact zero pivot in about 1 of 100 small
# random matrices
_SHIFT_ULPS = 16.0

# the largest accepted relative residual ||T v / lambda_1 - v||
_TOL = 1e-14


@functools.lru_cache(maxsize=None)
def _upper(m):
    # (m, m) mask of the upper triangle, diagonal included
    mask = np.triu(np.ones((m, m), dtype=bool))
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=None)
def _ones(m):
    # (m, 1) column of ones: T @ _ones(m) is the stack's row sums
    ones = np.ones((m, 1))
    ones.flags.writeable = False
    return ones


def assemble(kernel, rule):
    """Assemble T[i,j] = exp(log k(z_i, z_j) + (log w_i + log w_j)/2).

    The log-kernel is evaluated by broadcasting the nodes against
    themselves, with the site terms and half log-weights summed once
    per node; for a stacked rule (weights of shape (B, m)) the result
    is a (B, m, m) stack.  The upper triangle is mirrored onto the
    lower, so every matrix is exactly symmetric regardless of
    floating-point non-associativity in the kernel.  A log entry that
    is not finite, or so large that its exp overflows a double, raises
    AssemblyError naming the node pair.
    """
    nodes = rule.nodes
    weights = rule.weights
    m = weights.shape[-1]
    # point coordinates (a ring's L_y) trail the weights' axes
    point = nodes.shape[weights.ndim:]
    zi = nodes.reshape(weights.shape + (1,) + point)
    zj = nodes.reshape(weights.shape[:-1] + (1, m) + point)
    pairs = weights.shape + (m,)
    logk = np.asarray(kernel.fn(zi, zj), dtype=float)
    if logk.shape != pairs:
        try:
            logk = np.broadcast_to(logk, pairs)
        except ValueError:
            raise AssemblyError(f"kernel returned shape {logk.shape} for "
                                f"node pairs of shape {pairs}") from None
    half = 0.5 * np.log(weights)[..., None]
    if kernel.site is not None:
        half = half + kernel.site(zi)
    logT = half + half.swapaxes(-1, -2) + logk
    logT = np.where(_upper(m), logT, logT.swapaxes(-1, -2))
    _check_log_entries(logT, nodes)
    return np.exp(logT)


def _check_log_entries(logT, nodes):
    # raise AssemblyError at the first log entry that is not finite or
    # whose exp overflows a double, naming its node pair
    bad = ~np.isfinite(logT) | (logT > _LOG_MAX)
    if bad.any():
        *stack, i, j = (int(k) for k in np.argwhere(bad)[0])
        entry = logT[(*stack, i, j)]
        what = "non-finite" if not np.isfinite(entry) else "overflowing"
        raise AssemblyError(
            f"{what} kernel value at node pair ({i}, {j}): "
            f"z_i={nodes[(*stack, i)]!r}, z_j={nodes[(*stack, j)]!r}, "
            f"log entry={entry!r}")


def dominant_eigenvalue(T):
    """Dominant eigenvalue and Perron eigenvector of a matrix, an (m, m)
    array, or of each matrix of a (B, m, m) stack.

    lambda_1 is the top of the stack's eigenvalues (one
    `np.linalg.eigvalsh`); the vector is one step of inverse iteration,
    |x| for (sigma I - T) x = T 1 with sigma 16 ulps above lambda_1
    (one `np.linalg.solve`), scaled by its largest entry before its
    2-norm so that no square overflows.  The right-hand side T 1, the
    row sums, leans towards the Perron vector where that vector is
    concentrated on a few nodes (deep quench), which keeps the residual
    at a few 1e-15 despite the shift; its scale follows T's, so x
    stays near 1 / (16 eps) at any lambda_1.  The residual is
    ||T v / lambda_1 - v||, checked for every matrix; ConvergenceError
    carries the first one above 1e-14, or not finite; a LAPACK failure
    of either step is a ConvergenceError too.  A single matrix gives
    scalar lambda1 and a vector of shape (m,).
    """
    stack = T.reshape((-1,) + T.shape[-2:])
    B, m = stack.shape[0], stack.shape[-1]
    try:
        lam = np.linalg.eigvalsh(stack)[:, -1]
        sigma = lam + _SHIFT_ULPS * np.spacing(lam)
        shifted = np.negative(stack, order="C")
        shifted.reshape(B, m * m)[:, ::m + 1] += sigma[:, None]
        x = np.linalg.solve(shifted, np.matmul(stack, _ones(m)))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolve failed: {exc}") from exc
    # a non-finite or zero x leaves nan in v, without a warning, so its
    # residual is nan and fails the test below
    with np.errstate(invalid="ignore"):
        v = np.abs(x[:, :, 0])
        v /= v.max(axis=-1, keepdims=True)
        v /= np.sqrt((v * v).sum(axis=-1, keepdims=True))
    r = np.matmul(stack, v[:, :, None])[:, :, 0]
    r /= lam[:, None]
    r -= v
    res = np.sqrt((r * r).sum(axis=-1))
    ok = res <= _TOL
    if not ok.all():
        k = int(np.argmin(ok))
        raise ConvergenceError(
            f"eigenvalue residual {res[k]:.3e} above tolerance {_TOL:.1e} "
            f"after the dense solve", residual=float(res[k]))
    if T.ndim == 2:
        return DominantEig(lambda1=float(lam[0]), vector=v[0],
                           residual=float(res[0]), iterations=1)
    return DominantEig(lambda1=lam, vector=v, residual=float(res.max()),
                       iterations=1)


def fredholm_det(T, mu):
    """det(I - mu T) of an (m, m) array via an LU factorization with
    partial pivoting.

    The determinant of the discretized operator approximates the
    Fredholm determinant of the integral operator; its zeros are the
    reciprocal eigenvalues, so mu = 1/lambda_1 must be a root.
    """
    M = np.eye(T.shape[0]) - mu * T
    d = float(np.linalg.det(M))
    if not np.isfinite(d):
        raise ConvergenceError(f"Fredholm determinant overflowed at mu={mu!r}")
    return d
