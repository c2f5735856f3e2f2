"""Exception types shared across the library.

Every error raised by eeikit derives from :class:`EEIKitError` so callers
(and the CLI) can distinguish library failures from programming errors.
The subclasses of :class:`CheckFailed` are the failed mathematical checks;
every other :class:`EEIKitError` is an input error.
"""


class EEIKitError(Exception):
    """Base class for all eeikit errors."""


class CheckFailed(EEIKitError):
    """A mathematical check failed (CLI exit 1)."""


class DimensionMismatch(EEIKitError):
    """Operands do not share the same matrix dimension."""


class NotPositiveDefinite(EEIKitError):
    """A matrix required to be (semi)definite fails the eigenvalue test."""


class SingularCovariance(EEIKitError):
    """A covariance that must be invertible is singular within tolerance."""


class BadMu(EEIKitError):
    """The trade-off weight mu must be strictly greater than 1."""


class InvalidParameter(EEIKitError):
    """A scalar parameter is outside its documented domain."""


class NoConvergence(CheckFailed):
    """An iterative solver stalled above its stated tolerance."""


class SplitInfeasible(CheckFailed):
    """No admissible noise split exists within tolerance (defensive)."""


class DominationFailed(CheckFailed):
    """A constructed optimum failed its own domination inequality."""


class GridTooCoarse(EEIKitError):
    """Grid spacing is too wide for the requested convolution kernel."""


class UnnormalizedDensity(EEIKitError):
    """Tabulated density values do not integrate to 1 within tolerance."""


class InconsistentDensity(EEIKitError):
    """An output density does not match the convolution of its inputs."""


class ThresholdUnreachable(CheckFailed):
    """The receiver-2 error trace saturates below the requested threshold."""


class SeparationFailed(CheckFailed):
    """Receiver 1's error trace exceeds the threshold meant to separate it."""
