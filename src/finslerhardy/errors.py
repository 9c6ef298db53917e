"""Exception types shared across the package."""


class ConstructionError(ValueError):
    """Invalid parameters for a norm family or derived object (non-SPD matrix, s < 2, ...)."""


class DomainError(ValueError):
    """Evaluation outside the mathematical domain (gradient at 0, point past a cutoff radius, ...)."""


class UnsupportedKindError(ValueError):
    """Operation not defined for this norm-family kind (e.g. dual norm of an x-dependent family)."""


class BranchError(ValueError):
    """Wrong construction branch for the given (p, n, sigma) or a violated branch constraint."""


class RangeError(ValueError):
    """Field range too narrow for the requested cutoff family."""


class SolverError(RuntimeError):
    """Nonlinear solver failed to converge.  Carries the last residual and,
    from a Newton solve, its exit reason (``newton.NewtonStats.exit``; not
    ``tol`` or ``rounding``, which end a converged solve)."""

    def __init__(self, message, residual=None, reason=None):
        self.residual, self.reason = residual, reason
        super().__init__(message if residual is None else f"{message} (last residual {residual:.3e})")
