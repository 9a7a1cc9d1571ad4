"""Exception hierarchy for dicke_fcs.

Every failure mode that callers are expected to handle gets its own class so
that sweep drivers can record the reason per point instead of aborting.
"""


class DickeFcsError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(DickeFcsError):
    """Physical parameters violate their domain (e.g. omega <= 0)."""


class InconsistentMeanField(DickeFcsError):
    """A displaced mean field was supplied where only the trivial one exists."""


class UnstableRegion(DickeFcsError):
    """The quadratic expansion has a negative squared eigenenergy (gap window)."""


class GapRegion(DickeFcsError):
    """Requested a statistics quantity inside the unstable coupling window."""


class CriticalSingularity(DickeFcsError):
    """Soft mode too close to zero: transformation coefficients would overflow."""


class BranchAmbiguity(DickeFcsError):
    """A square-root branch cannot be anchored at the counting-off point."""


class NonConvergence(DickeFcsError):
    """An iterative solver (ODE step control, eigensolver) failed to converge."""


class NumericalRange(DickeFcsError):
    """A result exists but lies outside the floating-point range."""


class DegenerateDenominator(DickeFcsError):
    """A ratio is undefined because its denominator vanishes (e.g. Fano at lambda=0)."""


class CutoffTooSmall(DickeFcsError):
    """Fock-space truncation would clip a state with macroscopic occupation."""


class EigenvalueCrossing(DickeFcsError):
    """Homotopy tracking lost the counting eigenvalue branch (overlap collapse)."""
