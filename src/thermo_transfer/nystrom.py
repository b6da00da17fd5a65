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
m-row chain per ring Fourier mode), a few dozen in practice, and
every entry is non-negative, so the dominant pair comes from repeated
squaring, the power method in its squaring form (Golub and Van Loan,
Matrix Computations, sec. 7.3), with no eigendecomposition and no
linear solve.  By the Perron-Frobenius theorem lambda_1 of a positive
matrix is simple, with a strictly positive eigenvector u, so
T^(2^k) / lambda_1^(2^k) tends to u u^T and its row sums to a
multiple of u.  Scaled by its largest entry, a symmetric non-negative
matrix has lambda_1 in [1, m] (at least every entry, at most every row
sum), which bounds how many squarings stay clear of overflow before
the power must be divided by its trace.  A product of non-negative
matrices sums non-negative terms, so it carries only componentwise
rounding, with no cancellation and no pivoting to choose (Higham,
Accuracy and Stability of Numerical Algorithms, ch. 3), and its row
sums are a non-negative vector with no sign to fix.

Both steps take a stack: a rule whose nodes and weights have shape
(B, m), one rule per inverse temperature of a block, assembles to
entries of shape (B, m, m), and `dominant_eigenvalue` squares the
whole stack with one `np.matmul` per step, giving lambda_1 of shape
(B,) and Perron vectors of shape (B, m).  Each matrix stops squaring
at the first check its own residual passes, and only the rest go on
(one test of the largest residual settles a stack whose matrices all
pass at the same check), so a matrix gives the same bits alone as inside any stack, and the
same error: no error here says which matrix of a stack failed
(`models._solve_block` finds it by solving the matrices alone).

Each thread holds one block of float memory for a block's stack
arrays (`_held_stack`): the entries a model hands to the eigensolve
and the two powers that `dominant_eigenvalue` squares between with
`np.matmul(P, P, out=Q)`.  It grows to the largest stack the thread
has solved, at most three stacks of `_BLOCK_ENTRIES` doubles (48 MiB),
and is handed out as views, so a warm block allocates no (B, m, m)
array and the allocator has no stack memory to trim and fault in
again.  That helps repeated blocks in one process whose stacks are
large (the chain config's (96, 30, 30) stacks are 675 KiB each); a
stack above the bound gets fresh arrays.  No returned array shares
this memory, so a thread pool of sweeps stays safe.
"""

import functools
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AssemblyError, ConvergenceError, DomainError

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
    """lambda_1, its unit Perron vector, the relative residual
    ||T v / lambda_1 - v|| and the number of squarings of T the vector
    came from.

    For a stack, lambda1 has shape (B,), vector shape (B, m), and
    residual and iterations are the largest over the stack; each
    matrix stops squaring at its own count, which it gives alone.
    """

    lambda1: float
    vector: np.ndarray
    residual: float
    iterations: int


# log of the largest double: exp of a log entry above it overflows
_LOG_MAX = float(np.log(np.finfo(float).max))

# the largest accepted relative residual ||T v / lambda_1 - v||
_TOL = 1e-14

# squarings before the first residual check, then one check after
# each: T^32 damps a ratio lambda_2 / lambda_1 of 0.38, the largest of
# the chain config's matrices, below 1e-13, and every matrix of the
# three checked-in configs passes there
_FIRST_CHECK = 5

# the most squarings: 2^60 times a relative gap must reach about 40,
# and a gap below one ulp of lambda_1 is degenerate in floating point,
# where the row sums of the power are an eigenvector anyway
_MAX_SQUARINGS = 60


# a stack of matrices holds at most about this many entries, so memory
# grows neither with a sweep's grid nor with the cylinder's ly
_BLOCK_ENTRIES = 2 ** 21

# this thread's held stack memory, `buf`: one flat array of doubles
_held = threading.local()


def _held_stack(shape, slot=0):
    """A view of shape (B, m, m) on slot 0, 1 or 2 of this thread's held
    memory, which grows to three such stacks; a fresh array for a stack
    above _BLOCK_ENTRIES entries.  Slot 0 holds a model's entries, 1 and
    2 the powers of `dominant_eigenvalue`.  The view is scratch: the
    next solve on this thread overwrites it."""
    n = shape[0] * shape[1] * shape[2]
    if n > _BLOCK_ENTRIES:
        return np.empty(shape)
    buf = getattr(_held, "buf", None)
    if buf is None or buf.size < 3 * n:
        buf = _held.buf = np.empty(3 * n)
    return buf[slot * n:(slot + 1) * n].reshape(shape)


@functools.lru_cache(maxsize=1024)
def _squaring_table(m):
    # (ones, rescale) for an (m, m) matrix.  ones is the read-only (m, 1)
    # column of ones: P @ ones is the stack's row sums.  rescale is the
    # number of squarings between two divisions by the trace: lambda_1
    # of the power lies in [1, m] after the scaling by the largest entry
    # and in [1/m, 1] after one by the trace; k squarings raise either
    # bound to its 2^k-th power, which stays within 2^(+-500) while
    # 2^k log2(m) <= 500, so neither the power nor the tail of its row
    # sums leaves the doubles' range (2^(+-1022))
    ones = np.ones((m, 1))
    ones.flags.writeable = False
    return ones, int(np.log2(500.0 / np.log2(max(m, 2))))


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
    lower = np.tril_indices(m, -1)
    logT[..., lower[0], lower[1]] = logT[..., lower[1], lower[0]]
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
    """Dominant eigenvalue and Perron eigenvector of a symmetric
    non-negative matrix, an (m, m) array, or of each matrix of a
    (B, m, m) stack.

    P is T scaled by its largest entry, so that lambda_1(P) lies in
    [1, m], and is squared, P <- P @ P, with a division by its trace
    only as often as that bound needs to rule out overflow.  From the
    fifth squaring on, each matrix is checked after every one: v is the
    row sums P 1, non-negative with no sign to fix, scaled by its
    largest entry and then by its 2-norm so that no square overflows;
    lambda_1 is the Rayleigh quotient v^T T v on the original T; and the
    residual is ||T v / lambda_1 - v||.  A matrix whose residual is at
    most 1e-14 stops there, and only the others are squared again, so
    each matrix gives the same bits and count alone as inside any
    stack; while no matrix has stopped, one test of the largest
    residual (nan if any is) tells that all of them pass.  A residual
    that is not finite (a nan, inf or all-zero matrix, which stays so
    under squaring), or one above 1e-14 after
    60 squarings, raises ConvergenceError carrying that residual (of
    several, a non-finite one, else the largest).  A single matrix gives
    scalar lambda1 and iterations and a vector of shape (m,).  Any other
    shape, or an empty one, is a DomainError naming it.
    """
    # the shape tuple alone, no numpy call: every solve pays for this
    shape = T.shape
    if len(shape) not in (2, 3) or shape[-1] != shape[-2] or 0 in shape:
        raise DomainError(f"dominant_eigenvalue takes an (m, m) matrix or "
                          f"a (B, m, m) stack with m, B >= 1, got shape "
                          f"{shape}")
    stack = T.reshape((-1,) + shape[-2:])
    B, m = stack.shape[0], stack.shape[-1]
    ones, rescale = _squaring_table(m)
    # todo: the stack rows still squaring, None while all of them are
    todo, A = None, stack
    P, Q = _held_stack(stack.shape, 1), _held_stack(stack.shape, 2)
    # a nan, inf or all-zero matrix leaves nan in its residual, without
    # a warning, and fails the check below.  The reductions call the
    # ufuncs, not the array methods, whose Python wrappers cost about as
    # much as a reduction over a small stack
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        np.divide(stack, np.maximum.reduce(stack, axis=(1, 2), keepdims=True),
                  out=P)
        for k in range(1, _MAX_SQUARINGS + 1):
            np.matmul(P, P, out=Q)
            P, Q = Q, P
            if k % rescale == 0:
                P /= np.trace(P, axis1=-2, axis2=-1)[:, None, None]
            if k < _FIRST_CHECK:
                continue
            x = np.matmul(P, ones)[:, :, 0]
            x /= np.maximum.reduce(x, axis=-1, keepdims=True)
            x /= np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
            tx = np.matmul(A, x[:, :, None])[:, :, 0]
            rq = np.add.reduce(x * tx, axis=-1)
            r = tx / rq[:, None]
            r -= x
            rn = np.sqrt(np.add.reduce(r * r, axis=-1))
            # a nan residual makes the largest nan, which fails here
            if todo is None and np.maximum.reduce(rn) <= _TOL:
                # every matrix passes at once: nothing to gather
                lam, v, res = rq, x, rn
                break
            ok = rn <= _TOL
            if not ok.all() and (k == _MAX_SQUARINGS
                                 or not np.isfinite(rn).all()):
                # nan sorts last: a non-finite residual, else the largest
                worst = float(np.sort(rn[~ok])[-1])
                raise ConvergenceError(
                    f"eigenvalue residual {worst:.3e} above tolerance "
                    f"{_TOL:.1e} after {k} squarings", residual=worst)
            if todo is None:
                todo = np.arange(B)
                lam, v, res = np.empty(B), np.empty((B, m)), np.empty(B)
            done = todo[ok]
            lam[done], v[done], res[done] = rq[ok], x[ok], rn[ok]
            if ok.all():
                break
            todo, A, P = todo[~ok], A[~ok], P[~ok]
            Q = np.empty_like(P)
    # the last matrix to pass took the most squarings, k
    if T.ndim == 2:
        return DominantEig(lambda1=float(lam[0]), vector=v[0],
                           residual=float(res[0]), iterations=k)
    return DominantEig(lambda1=lam, vector=v,
                       residual=float(np.maximum.reduce(res)), iterations=k)


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
