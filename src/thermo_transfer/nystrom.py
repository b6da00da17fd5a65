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
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AssemblyError, ConvergenceError, DomainError

__all__ = ["LogKernel", "NystromMatrix", "DominantEig",
           "assemble", "dominant_eigenvalue", "fredholm_det"]


@dataclass(frozen=True)
class LogKernel:
    """Evaluation contract for a symmetric kernel, in log space.

    ``fn(z, z')`` must return log k_beta(z, z') and broadcast over
    arrays of points: for scalar-argument kernels z has shape (n,),
    for ring kernels shape (n, L_y), and the result has shape (n,).
    All kernels in this package are symmetric; the flag exists so the
    assembly can assert it.
    """

    fn: Callable
    is_symmetric: bool = True

    def __call__(self, z, zp):
        return self.fn(z, zp)


@dataclass(frozen=True)
class NystromMatrix:
    """Symmetric positive discretization matrix plus its provenance."""

    entries: np.ndarray
    rule: object
    kernel: LogKernel

    @property
    def order(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class DominantEig:
    """lambda_1, its unit Perron vector, the relative residual and the
    number of solves (always 1: one dense eigendecomposition)."""

    lambda1: float
    vector: np.ndarray
    residual: float
    iterations: int


def assemble(kernel, rule):
    """Assemble T[i,j] = exp(log k(z_i, z_j) + (log w_i + log w_j)/2).

    Only the upper triangle is evaluated (as one flat vectorized batch
    of index pairs) and mirrored, so the matrix is exactly symmetric
    regardless of floating-point non-associativity in the kernel.
    """
    if not isinstance(kernel, LogKernel):
        kernel = LogKernel(kernel)
    if not kernel.is_symmetric:
        raise DomainError("assembly requires a symmetric kernel")
    nodes = rule.nodes
    weights = rule.weights
    n = weights.size
    if n == 0:
        raise DomainError("cannot assemble on an empty rule")
    iu, ju = np.triu_indices(n)
    logk = np.asarray(kernel(nodes[iu], nodes[ju]), dtype=float)
    if logk.shape != iu.shape:
        raise AssemblyError(
            f"kernel returned shape {logk.shape} for {iu.size} node pairs")
    half_logw = 0.5 * np.log(weights)
    logT = logk + half_logw[iu] + half_logw[ju]
    bad = ~np.isfinite(logT)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        i, j = int(iu[k]), int(ju[k])
        raise AssemblyError(
            f"non-finite kernel value at node pair ({i}, {j}): "
            f"z_i={nodes[i]!r}, z_j={nodes[j]!r}, log entry={logT[k]!r}")
    T = np.empty((n, n))
    T[iu, ju] = np.exp(logT)
    T[ju, iu] = T[iu, ju]
    return NystromMatrix(T, rule, kernel)


def dominant_eigenvalue(T, tol=1e-14):
    """Dominant eigenvalue and Perron eigenvector of an assembled matrix.

    One dense symmetric eigendecomposition: lambda_1 is the top
    eigenvalue and the vector is T|u| normalized, u the top
    eigenvector, which for T >= 0 has no negative entry whatever signs
    round-off left on u.  The residual is ||T v - lambda_1 v|| /
    lambda_1; ConvergenceError carries it when it is above tol.
    """
    if not (tol > 0.0):
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    A = T.entries if isinstance(T, NystromMatrix) else np.asarray(T, dtype=float)
    vals, vecs = np.linalg.eigh(A)
    lam = float(vals[-1])
    v = A @ np.abs(vecs[:, -1])
    v /= np.linalg.norm(v)
    res = float(np.linalg.norm(A @ v - lam * v) / abs(lam))
    if not (res <= tol):
        raise ConvergenceError(
            f"eigenvalue residual {res:.3e} above tolerance {tol:.1e} "
            f"after the dense eigendecomposition", residual=res)
    return DominantEig(lambda1=lam, vector=v, residual=res, iterations=1)


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
