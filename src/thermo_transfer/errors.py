"""Exception types shared across the package.

Bad input raises DomainError.  Valid input whose evaluation fails
raises a NumericError: ConvergenceError for an iteration that missed
its tolerance, AssemblyError for a non-finite kernel entry,
ResourceLimitError for a problem size beyond the budget, and
NumericError itself for a quantity a double cannot hold.  Sweeps and
the CLI (exit code 1) catch NumericError.
"""


class DomainError(ValueError):
    """Parameter outside the admissible domain (e.g. beta <= 0, negative x)."""


class NumericError(RuntimeError):
    """Valid input whose numeric evaluation failed.

    ``residual`` is the last achieved residual, so callers can decide
    whether the partial result is still usable, and ``index`` the grid
    row of the failing beta of a sweep or one-point route, set by
    `models._solve_block` alone (each None where it does not apply).
    """

    def __init__(self, message, residual=None, index=None):
        super().__init__(message)
        self.residual = residual
        self.index = index


class ConvergenceError(NumericError):
    """An iterative procedure did not reach its tolerance."""


class AssemblyError(NumericError):
    """Kernel evaluation produced a non-finite value during matrix assembly."""


class ResourceLimitError(NumericError):
    """Requested problem size exceeds the configured budget."""
