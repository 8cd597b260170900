"""Static no-arbitrage checks and calendar-consistent surface interpolation.

The checks are grid-based reports, not proofs: butterfly conditions
(convexity, monotonicity, price bounds and the two limit conditions) are
sampled on a strike grid, calendar consistency as monotonicity of total
implied variance across adjacent slices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ExtrapolationError
from .pricing import MarketContext

_BUTTERFLY_RTOL = 1e-10
_CALENDAR_TOL = 1e-9
_FAR_STRIKE_MULTIPLE = 10.0
_FAR_PRICE_RTOL = 1e-4
_INTRINSIC_DT = 1e-4
_INTRINSIC_RTOL = 1e-2
_MIN_GRID = 50


class ButterflyViolation(NamedTuple):
    expiry: float
    strike: float
    magnitude: float


class CalendarViolation(NamedTuple):
    strike: float
    expiry_lo: float
    expiry_hi: float
    magnitude: float


class BoundViolation(NamedTuple):
    expiry: float
    strike: float
    side: str


@dataclass
class ArbReport:
    """Violations found by the checkers; empty lists mean a clean surface."""

    butterfly_violations: list[ButterflyViolation] = field(default_factory=list)
    calendar_violations: list[CalendarViolation] = field(default_factory=list)
    bound_violations: list[BoundViolation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not (
            self.butterfly_violations or self.calendar_violations or self.bound_violations
        )

    def merge(self, other: "ArbReport") -> "ArbReport":
        return ArbReport(
            self.butterfly_violations + other.butterfly_violations,
            self.calendar_violations + other.calendar_violations,
            self.bound_violations + other.bound_violations,
        )

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "butterfly_violations": [list(v) for v in self.butterfly_violations],
            "calendar_violations": [list(v) for v in self.calendar_violations],
            "bound_violations": [list(v) for v in self.bound_violations],
        }


@dataclass(frozen=True)
class SliceSet:
    """Expiry-ordered collection of slices.

    Each entry is (expiry, surface) where the surface exposes
    ``implied_vol(expiry, strikes)`` over an array of strikes.
    """

    slices: tuple

    def __post_init__(self):
        entries = tuple((float(t), s) for t, s in self.slices)
        expiries = [t for t, _ in entries]
        if len(entries) == 0:
            raise ValueError("slice set must not be empty")
        if any(b <= a for a, b in zip(expiries, expiries[1:])):
            raise ValueError("slice expiries must be strictly increasing")
        object.__setattr__(self, "slices", entries)

    @property
    def expiries(self) -> list[float]:
        return [t for t, _ in self.slices]


def _checked_grid(strike_grid, what: str) -> np.ndarray:
    """The strike grid as an array; refuses fewer than _MIN_GRID strikes or a non-increasing grid."""
    grid = np.asarray(strike_grid, dtype=float)
    if grid.size < _MIN_GRID:
        raise ValueError(f"{what} grid too coarse: need >= {_MIN_GRID} strikes")
    if np.any(np.diff(grid) <= 0):
        raise ValueError(f"{what} grid must be strictly increasing")
    return grid


def _second_difference(grid: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Non-uniform three-point second derivative of prices at the interior strikes."""
    h1 = grid[1:-1] - grid[:-2]
    h2 = grid[2:] - grid[1:-1]
    return 2.0 * (prices[:-2] * h2 - prices[1:-1] * (h1 + h2) + prices[2:] * h1) / (
        h1 * h2 * (h1 + h2)
    )


def default_strike_grid(ctx: MarketContext, expiry: float, n: int = 201,
                        lo: float = 0.3, hi: float = 3.0) -> np.ndarray:
    """Log-spaced strikes over [lo*F, hi*F] around the forward."""
    for name, value in (("lo", lo), ("hi", hi)):
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"strike grid {name} must be positive and finite, got {value}")
    fwd = ctx.forward(expiry)
    return np.exp(np.linspace(math.log(lo * fwd), math.log(hi * fwd), n))


def check_butterfly(
    price_fn: Callable[[float, np.ndarray], np.ndarray],
    expiry: float,
    strike_grid,
    ctx: MarketContext,
    check_intrinsic: bool = True,
) -> ArbReport:
    """Sample the butterfly conditions of a call pricing function at one expiry.

    Flags convexity breaches (second-derivative estimate below -tol),
    monotonicity breaches (price increasing in strike), bound breaches
    ((s0 - K)+ <= V <= s0), the vanishing price at a far strike, and the
    intrinsic limit as the expiry collapses onto the valuation date.
    Spot-randomized surfaces converge to the node mixture of payoffs
    rather than the point intrinsic as the expiry collapses, so callers
    disable the intrinsic probe for them (``check_intrinsic=False``);
    their no-arbitrage content is the per-expiry density, which the
    other checks cover.
    """
    probes = butterfly_probes(expiry, strike_grid, ctx, check_intrinsic)
    return butterfly_report(probes, [price_fn(t, strikes) for t, strikes in probes], ctx)


def butterfly_probes(expiry: float, strike_grid, ctx: MarketContext,
                     check_intrinsic: bool = True) -> list[tuple[float, np.ndarray]]:
    """The (expiry, strikes) requests whose call prices a butterfly check reads: the checked grid at
    ``expiry``, the far strike, then, with the intrinsic probe, the grid just after the valuation date."""
    grid = _checked_grid(strike_grid, "butterfly")
    probes = [(expiry, grid), (expiry, np.array([_FAR_STRIKE_MULTIPLE * ctx.forward(expiry)]))]
    if check_intrinsic:
        probes.append((_INTRINSIC_DT, grid))
    return probes


def butterfly_report(probes: list, values: list, ctx: MarketContext) -> ArbReport:
    """The butterfly conditions at `butterfly_probes`' requests, from their call prices ``values``."""
    expiry, grid = probes[0]
    tol = _BUTTERFLY_RTOL * ctx.s0
    report = ArbReport()
    prices = np.asarray(values[0], dtype=float)

    second = _second_difference(grid, prices)
    for idx in np.nonzero(second < -tol)[0]:
        report.butterfly_violations.append(
            ButterflyViolation(expiry, float(grid[idx + 1]), float(second[idx]))
        )

    first = np.diff(prices)
    for idx in np.nonzero(first > tol)[0]:
        report.butterfly_violations.append(
            ButterflyViolation(expiry, float(grid[idx + 1]), float(first[idx]))
        )

    intrinsic = np.maximum(ctx.s0 - grid, 0.0)
    for idx in np.nonzero(prices < intrinsic - tol)[0]:
        report.bound_violations.append(BoundViolation(expiry, float(grid[idx]), "below_intrinsic"))
    for idx in np.nonzero(prices > ctx.s0 + tol)[0]:
        report.bound_violations.append(BoundViolation(expiry, float(grid[idx]), "above_spot"))

    far_strike = float(probes[1][1][0])
    far_price = float(np.asarray(values[1])[0])
    if far_price >= _FAR_PRICE_RTOL * ctx.s0:
        report.bound_violations.append(BoundViolation(expiry, far_strike, "far_strike_limit"))
    if len(probes) > 2:
        near_expiry = probes[2][0]
        near_prices = np.asarray(values[2], dtype=float)
        gap = np.max(np.abs(near_prices - np.maximum(ctx.s0 - grid, 0.0)))
        if gap >= _INTRINSIC_RTOL * ctx.s0:
            report.bound_violations.append(
                BoundViolation(near_expiry, float("nan"), "intrinsic_limit")
            )
    return report


def check_calendar(slice_set: SliceSet, strike_grid) -> ArbReport:
    """Flag decreasing total implied variance between adjacent slices."""
    if len(slice_set.slices) < 2:
        raise ValueError("calendar check needs at least two slices")
    grid = np.asarray(strike_grid, dtype=float)
    vols = [surface.implied_vol(t, grid) for t, surface in slice_set.slices]
    return calendar_report(slice_set.expiries, grid, vols)


def calendar_report(expiries: list, strike_grid: np.ndarray, vols: list) -> ArbReport:
    """The calendar violations of slices at increasing ``expiries`` from their implied vols on ``strike_grid``."""
    report = ArbReport()
    variances = [vol ** 2 * t for t, vol in zip(expiries, vols)]
    for t_lo, t_hi, w_lo, w_hi in zip(expiries, expiries[1:], variances, variances[1:]):
        for idx in np.nonzero(w_lo > w_hi + _CALENDAR_TOL)[0]:
            report.calendar_violations.append(
                CalendarViolation(float(strike_grid[idx]), t_lo, t_hi, float(w_lo[idx] - w_hi[idx]))
            )
    return report


def interp_total_variance(slice_set: SliceSet, expiry: float, strike):
    """Implied vol at (expiry, strike) by linear interpolation in total variance.

    With a such that T = (1-a) T_i + a T_j for the bracketing slices,
    returns sqrt(((1-a) w_i + a w_j) / T), elementwise for an array of
    strikes.  Extrapolation is refused.
    """
    expiries = slice_set.expiries
    if not expiries[0] <= expiry <= expiries[-1]:  # NaN included
        raise ExtrapolationError(
            f"expiry {expiry} outside the slice range [{expiries[0]}, {expiries[-1]}]"
        )
    for (t_lo, lo_slice), (t_hi, hi_slice) in zip(slice_set.slices, slice_set.slices[1:]):
        if t_lo <= expiry <= t_hi:
            break
    else:  # expiry == the single bracketing point; only possible at exact ends
        t_lo, lo_slice = slice_set.slices[-1]
        t_hi, hi_slice = slice_set.slices[-1]
    if expiry == t_lo:
        return lo_slice.implied_vol(t_lo, strike)
    if expiry == t_hi:
        return hi_slice.implied_vol(t_hi, strike)
    a = (expiry - t_lo) / (t_hi - t_lo)
    w_lo = lo_slice.implied_vol(t_lo, strike) ** 2 * t_lo
    w_hi = hi_slice.implied_vol(t_hi, strike) ** 2 * t_hi
    return np.sqrt(((1.0 - a) * w_lo + a * w_hi) / expiry)

