"""Exception types shared across the package.

Everything numeric that can go wrong maps onto one of four categories:
bad input parameters, an iteration that failed to converge, a kernel
that produced a non-finite matrix entry, and a requested problem size
beyond the configured budget.
"""


class DomainError(ValueError):
    """Parameter outside the admissible domain (e.g. beta <= 0, negative x)."""


class ConvergenceError(RuntimeError):
    """An iterative procedure did not reach its tolerance.

    Carries the last achieved residual in ``residual`` so callers can
    decide whether the partial result is still usable, and, for a
    stacked solve, the position of the first failing problem in the
    stack in ``index`` (None otherwise).
    """

    def __init__(self, message, residual=None, index=None):
        super().__init__(message)
        self.residual = residual
        self.index = index


class AssemblyError(RuntimeError):
    """Kernel evaluation produced a non-finite value during matrix assembly.

    ``index`` is the position of the offending matrix in a stacked
    assembly (None for a single matrix).
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ResourceLimitError(RuntimeError):
    """Requested problem size exceeds the configured budget."""
