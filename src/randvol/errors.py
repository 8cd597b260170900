"""Exception types raised across the package, and the per-row failure record of stacked evaluation."""
from __future__ import annotations

import numpy as np


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


class RowFailures:
    """Which rows of a stack failed a check, and the error of the first failure found.

    Stacked evaluation marks a failing row and goes on with the others; a
    public entry raises ``error``, the error a lone call of that row raises.
    """

    def __init__(self, rows):
        self.bad = np.zeros(rows, dtype=bool)
        self.error: Exception | None = None

    @property
    def any(self) -> bool:
        return self.error is not None

    def mark(self, bad: np.ndarray, error) -> None:
        """Mark the rows where ``bad`` holds; ``error()`` makes the error, kept if it is the first."""
        if bad.any():
            if self.error is None:
                self.error = error()
            self.bad |= bad


def fail_rows(failures: RowFailures | None, bad: np.ndarray, error, axes: int = 0) -> bool:
    """Raise ``error()`` if ``bad`` holds anywhere, or, given ``failures``, mark the rows where it holds
    (anywhere over its last ``axes`` axes) there; return whether it held."""
    if not bad.any():
        return False
    if failures is None:
        raise error()
    failures.mark(bad.any(axis=tuple(range(-axes, 0))) if axes else bad, error)
    return True
