"""Exception types shared across the package.

Every error raised on purpose derives from :class:`NCPhaseError` so callers
(and the command line front end) can distinguish invalid input from genuine
bugs with a single ``except`` clause.
"""


class NCPhaseError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(NCPhaseError):
    """A parameter lies outside the real domain of the requested formula.

    Typical causes: theta*eta > 1 (the square root of 1 - theta*eta turns
    complex), a negative radicand in a branch prefactor, or a nonpositive
    mass.
    """


class DegenerateError(NCPhaseError):
    """A limit point where the requested branch diverges or collapses."""


class ConfigError(NCPhaseError):
    """An invalid or inconsistent run configuration."""


class StepError(NCPhaseError):
    """An invalid time-integration step request (e.g. dt <= 0)."""


class SingularMapError(NCPhaseError):
    """A linear observable-to-state map is not invertible."""
