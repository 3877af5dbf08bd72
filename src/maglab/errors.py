"""Exception types shared across the package."""


class MaglabError(Exception):
    """Base class for all package errors."""


class ChartDomainError(MaglabError):
    """A point lies outside every chart domain of a surface."""


class UnsupportedSurfaceError(MaglabError):
    """Operation not defined for this surface kind (e.g. noncompact)."""


class StiffnessError(MaglabError):
    """Adaptive step size underflowed; the problem looks stiff."""


class NonFiniteError(MaglabError):
    """The integrated state or its error estimate became NaN."""


class NoReturnError(MaglabError):
    """Trajectory did not come back to the section within max_time."""


class NewtonDivergenceError(MaglabError):
    """Newton iteration for a closed orbit failed to converge."""


class ResonantJetError(MaglabError):
    """Linear part is resonant through order 4; Birkhoff coefficient undefined."""


class CotaViolationError(MaglabError):
    """A sampled direction violated the first-variation lower bound."""

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


class DataInconsistencyError(MaglabError):
    """Numerical data contradicts a structural constraint (e.g. period vs. injectivity time)."""


class BracketError(MaglabError, ValueError):
    """A search range does not bracket the sought value."""


class FixedPointError(MaglabError, ValueError):
    """A point is not the (hyperbolic, elliptic, or accurate enough) fixed point needed."""


class EscapeError(MaglabError, ValueError):
    """Map iterates left the region a computation holds in."""


class WorkerError(MaglabError):
    """A forked worker ended without sending its results."""


class SectionDomainError(MaglabError, ValueError):
    """Section coordinates (s, R) lie off the energy circle of the section."""


class ConfigError(MaglabError):
    """Scenario configuration failed validation."""


class LedgerError(MaglabError, ValueError):
    """A Franks ledger constraint cannot be met for the given segment."""
