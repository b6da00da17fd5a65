"""Nystrom discretization of the transfer operator and its spectrum.

The integral operator with symmetric positive kernel k_beta is
discretized on a quadrature rule (z_i, w_i) as the symmetric matrix

    T[i, j] = k_beta(z_i, z_j) sqrt(w_i w_j),

assembled in log space (the kernels carry exponents of order
beta * q^4 which underflow as raw products).  Each model's matrix has
m rows (m0 for the cylinder, solved as one chain per ring Fourier
mode), a few dozen in practice, so the dominant eigenvalue comes from
one dense symmetric eigendecomposition.  The Perron-Frobenius theorem for
elementwise positive matrices guarantees a simple positive lambda_1
with a strictly positive eigenvector.

Both steps take a stack: a rule whose nodes and weights have shape
(B, m), one rule per inverse temperature of a block, assembles to
entries of shape (B, m, m), and `dominant_eigenvalue` solves the whole
stack in one `np.linalg.eigh` call, giving lambda_1 of shape (B,) and
Perron vectors of shape (B, m).  A single matrix is a stack of one
inside, so a matrix gives the same bits alone as inside any stack.
"""

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AssemblyError, ConvergenceError, DomainError

__all__ = ["LogKernel", "NystromMatrix", "DominantEig",
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
    All kernels in this package are symmetric; the flag exists so the
    assembly can assert it.
    """

    fn: Callable
    is_symmetric: bool = True
    site: Callable = None

    def __call__(self, z, zp):
        if self.site is None:
            return self.fn(z, zp)
        return self.site(z) + self.site(zp) + self.fn(z, zp)


@dataclass(frozen=True)
class NystromMatrix:
    """Symmetric positive discretization matrix, or a stack (B, m, m) of
    them, and the rule it was assembled on."""

    entries: np.ndarray
    rule: object

    @property
    def order(self):
        return self.entries.shape[-1]


@dataclass(frozen=True)
class DominantEig:
    """lambda_1, its unit Perron vector, the relative residual and the
    number of solves (always 1: one dense eigendecomposition).

    For a stack, lambda1 has shape (B,), vector shape (B, m), and
    residual is the largest over the stack.
    """

    lambda1: float
    vector: np.ndarray
    residual: float
    iterations: int


@functools.lru_cache(maxsize=None)
def _upper(m):
    # (m, m) mask of the upper triangle, diagonal included
    mask = np.triu(np.ones((m, m), dtype=bool))
    mask.flags.writeable = False
    return mask


def assemble(kernel, rule):
    """Assemble T[i,j] = exp(log k(z_i, z_j) + (log w_i + log w_j)/2).

    The log-kernel is evaluated by broadcasting the nodes against
    themselves, with the site terms and half log-weights summed once
    per node; for a stacked rule (weights of shape (B, m)) the result
    is a (B, m, m) stack.  The upper triangle is mirrored onto the
    lower, so every matrix is exactly symmetric regardless of
    floating-point non-associativity in the kernel.
    """
    if not isinstance(kernel, LogKernel):
        kernel = LogKernel(kernel)
    if not kernel.is_symmetric:
        raise DomainError("assembly requires a symmetric kernel")
    nodes = rule.nodes
    weights = rule.weights
    if weights.size == 0:
        raise DomainError("cannot assemble on an empty rule")
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
    bad = ~np.isfinite(logT)
    if bad.any():
        *stack, i, j = (int(k) for k in np.argwhere(bad)[0])
        index = stack[0] if stack else None
        where = "" if index is None else f" of matrix {index} in the stack"
        raise AssemblyError(
            f"non-finite kernel value at node pair ({i}, {j}){where}: "
            f"z_i={nodes[(*stack, i)]!r}, z_j={nodes[(*stack, j)]!r}, "
            f"log entry={logT[(*stack, i, j)]!r}", index=index)
    return NystromMatrix(np.exp(logT), rule)


def dominant_eigenvalue(T, tol=1e-14):
    """Dominant eigenvalue and Perron eigenvector of an assembled matrix
    or a (B, m, m) stack of them.

    One stacked dense symmetric eigendecomposition: lambda_1 is the top
    eigenvalue and the vector is T|u| normalized, u the top
    eigenvector, which for T >= 0 has no negative entry whatever signs
    round-off left on u.  The residual is ||T v - lambda_1 v|| /
    lambda_1, checked for every matrix; ConvergenceError carries the
    first one above tol and, for a stack, its index.  A single matrix
    gives scalar lambda1 and a vector of shape (m,).
    """
    if not (tol > 0.0):
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    A = T.entries if isinstance(T, NystromMatrix) else np.asarray(T, dtype=float)
    stack = A.reshape((-1,) + A.shape[-2:])
    vals, vecs = np.linalg.eigh(stack)
    lam = vals[:, -1]
    v = np.matmul(stack, np.abs(vecs[:, :, -1:]))[:, :, 0]
    v /= np.sqrt((v * v).sum(axis=-1, keepdims=True))
    r = np.matmul(stack, v[:, :, None])[:, :, 0] - lam[:, None] * v
    res = np.sqrt((r * r).sum(axis=-1)) / np.abs(lam)
    ok = res <= tol
    if not ok.all():
        k = int(np.argmin(ok))
        index = k if A.ndim == 3 else None
        where = "" if index is None else f" of matrix {k} in the stack"
        raise ConvergenceError(
            f"eigenvalue residual {res[k]:.3e} above tolerance {tol:.1e} "
            f"after the dense eigendecomposition{where}",
            residual=float(res[k]), index=index)
    if A.ndim == 2:
        return DominantEig(lambda1=float(lam[0]), vector=v[0],
                           residual=float(res[0]), iterations=1)
    return DominantEig(lambda1=lam, vector=v, residual=float(res.max()),
                       iterations=1)


def fredholm_det(T, mu):
    """det(I - mu T) via an LU factorization with partial pivoting.

    The determinant of the discretized operator approximates the
    Fredholm determinant of the integral operator; its zeros are the
    reciprocal eigenvalues, so mu = 1/lambda_1 must be a root.
    """
    A = T.entries if isinstance(T, NystromMatrix) else np.asarray(T, dtype=float)
    n = A.shape[0]
    M = np.eye(n) - mu * A
    d = float(np.linalg.det(M))
    if not np.isfinite(d):
        raise ConvergenceError(f"Fredholm determinant overflowed at mu={mu!r}")
    return d
