"""Exceptions shared across the package."""

__all__ = [
    "PcsSpectraError",
    "NoRealFactorization",
    "LadderExhausted",
    "TowerTooLong",
    "NoConvergence",
    "SingularShift",
    "DomainTooSmall",
    "DegenerateB",
]


class PcsSpectraError(Exception):
    """Base class for all errors raised by this package."""


class NoRealFactorization(PcsSpectraError):
    """The physical couplings admit no real superpotential parameters.

    Raised when the quadratic linking (V1, V2) to (A, B) has complex or
    negative roots, so no real (A, B) pair reproduces the potential.
    """


class LadderExhausted(PcsSpectraError):
    """The shape-invariance ladder has no further bound state to step to."""


class TowerTooLong(PcsSpectraError):
    """A level tower would hold more levels than the level budget.

    Raised before the ladder is walked, naming the count it would take.
    """


class NoConvergence(PcsSpectraError):
    """Inverse iteration failed to reach the requested residual."""

    def __init__(self, shift, iterations, residual):
        self.shift = shift
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence near shift {shift} after {iterations} iterations "
            f"(residual {residual:.3e})"
        )


class SingularShift(PcsSpectraError):
    """The shift coincides with an eigenvalue of the discretized operator."""


class DomainTooSmall(PcsSpectraError):
    """A converged bound state still has visible amplitude at the box edge.

    The caller must enlarge the half-width L; eigenvalues computed on this
    grid carry an uncontrolled truncation error. Also raised when the
    box and the well depth need a dense solve above its point budget, or
    when double precision cannot certify a level: it lies within the
    rounding floor of the threshold, or verify's two resolutions
    disagree on it.
    """


class DegenerateB(PcsSpectraError):
    """Every candidate algebra solution has b = 0, leaving m undefined."""
