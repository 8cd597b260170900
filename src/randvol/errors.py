"""Exception types raised across the package."""


class RandvolError(Exception):
    """Base class for all package-specific errors."""


class MomentOverflowError(RandvolError):
    """Moment overflow: the requested moment order is not representable."""


class GramMatrixError(RandvolError):
    """Cholesky factorization of the moment Gram matrix failed, or a built
    rule does not reproduce its distribution's moments.

    Either the moment sequence is inconsistent (not a valid moment
    sequence) or the requested quadrature size exhausts the numerical
    precision of the moments.
    """


class NoImpliedVolError(RandvolError):
    """No implied volatility exists: price outside the no-arbitrage bounds."""


class RootFindError(RandvolError):
    """Root finder failed to bracket or converge."""


class ParameterDomainError(RandvolError, ValueError):
    """A parameter (or a randomizer node) lies outside its legal domain."""


class ExpansionRangeError(RandvolError):
    """The expansion coefficients cannot be formed: a nonpositive vol or node, or precision exhausted."""


class CalibrationError(RandvolError):
    """Calibration failed to produce a usable fit."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ExtrapolationError(RandvolError):
    """Requested expiry outside the interpolation range of the slice set."""


class QuoteFormatError(RandvolError):
    """Malformed quote file row; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
