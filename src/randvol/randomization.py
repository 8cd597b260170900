"""Discretized randomized pricing surfaces: the mixture step.

A randomized slice mixes Black-Scholes prices across quadrature nodes,
either by moving one parameter of the base parametrization (parameter
randomization) or by moving the spot itself while the base volatility
stays pinned at the true spot (spot randomization).
"""
from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import expansion
from .arbitrage import _checked_grid, _second_difference
from .errors import ParameterDomainError
from .parametrizations import BaseParams, FlatParams, RandomizerSpec, SliceParams, eval_vol_curve
from .pricing import (
    MarketContext, OptionKey, OptionType, _check_expiry, bs_call_values, implied_vol_brent, implied_vols,
)
from .quadrature import DiscreteGiven, QuadratureRule, quadrature_for

logger = logging.getLogger("randvol")

#: Log-moneyness radius beyond which the expansion engine hands over to
#: the root finder; Taylor polynomials around m = 0 degrade in the wings.
DEFAULT_M_MAX = 0.5

_SPOT_CENTER_RTOL = 1e-8


def parse_engine(engine: str) -> tuple[str, Optional[int]]:
    """Parse an engine string: 'brent', 'expansion' (the kind's highest order) or 'expansion:N'."""
    text = engine.strip().lower()
    if text in ("brent", "expansion"):
        return text, None
    method, _, tail = text.partition(":")
    if method == "expansion" and tail.isdecimal():
        return method, int(tail)
    raise ValueError(f"unknown engine {engine!r}; expected 'brent' or 'expansion:N'")


@dataclass(frozen=True)
class RandomizedSlice:
    """A slice with its quadrature rule resolved and invariants checked."""

    params: SliceParams
    rule: QuadratureRule
    ctx: MarketContext

    @property
    def target(self) -> str:
        return self.params.randomizer.target

    @property
    def expansion_kind(self) -> str:
        return "spot" if self.target == "spot" else "parameter"

    def implied_vol(self, expiry: float, strikes, engine: str = "brent"):
        """Implied vols at ``strikes``: a float for a scalar, an array for an array."""
        vols = implied_vol_grid(self, expiry, strikes, engine=engine)
        return float(vols[0]) if np.ndim(strikes) == 0 else vols


def randomize(
    params: SliceParams, ctx: MarketContext, recenter_spot: bool = False
) -> RandomizedSlice:
    """Build the quadrature rule for a slice and validate the mixing invariants.

    A plain slice (no randomizer) becomes a one-node rule: a point mass at
    sigma (flat base) or gamma (SABR base).  Spot randomization requires
    the rule mean to sit on the market spot; an off-center explicit
    discrete rule is rejected unless ``recenter_spot`` asks for its nodes
    to be rescaled onto the spot.
    """
    rnd = params.randomizer or _point_mass(params.base)
    rule = quadrature_for(rnd.dist, rnd.n_q)
    if rnd.target == "spot":
        mean = rule.mean()
        if abs(mean - ctx.s0) > _SPOT_CENTER_RTOL * ctx.s0:
            if recenter_spot and isinstance(rnd.dist, DiscreteGiven):
                rule = rule.scaled(ctx.s0 / mean)
            else:
                raise ParameterDomainError(
                    f"spot randomizer mean {mean!r} is not centered at the spot {ctx.s0!r}"
                )
        if np.any(rule.nodes <= 0):
            raise ParameterDomainError("spot nodes must be strictly positive")
    elif np.any(rule.nodes < 0):
        raise ParameterDomainError(f"{rnd.target} nodes must be nonnegative")
    return RandomizedSlice(SliceParams(params.base, rnd), rule, ctx)


def _point_mass(base: BaseParams) -> RandomizerSpec:
    """The one-node rule of a plain slice: all mass at sigma (flat) or gamma (SABR)."""
    if isinstance(base, FlatParams):
        return RandomizerSpec("sigma", DiscreteGiven(((1.0, base.sigma),)), 1)
    return RandomizerSpec("gamma", DiscreteGiven(((1.0, base.gamma),)), 1)


def _node_vol_matrix(rs: RandomizedSlice, expiry: float, strikes: np.ndarray) -> np.ndarray:
    """Node volatilities on a strike grid, shape (n_strikes, n_q)."""
    rnd = rs.params.randomizer
    nodes = rs.rule.nodes
    if rnd.target == "sigma":
        return np.broadcast_to(nodes, (strikes.size, nodes.size))
    if rnd.target == "gamma":
        base = rs.params.base
        from .parametrizations import hagan_vol

        tau = expiry - rs.ctx.t0
        fwd = rs.ctx.forward(expiry)
        vols = hagan_vol(fwd, strikes[:, None], tau, base.alpha, base.beta, base.rho, nodes[None, :])
        return np.broadcast_to(vols, (strikes.size, nodes.size))
    eta = eval_vol_curve(rs.params.base, rs.ctx, expiry, strikes)
    return np.broadcast_to(eta[:, None], (strikes.size, nodes.size))


def randomized_prices(rs: RandomizedSlice, expiry: float, strikes) -> np.ndarray:
    """Mixture call prices on a strike grid (vectorized)."""
    strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
    tau = _check_expiry(rs.ctx, expiry)
    vols = _node_vol_matrix(rs, expiry, strikes)
    if rs.target == "spot":
        values = bs_call_values(rs.rule.nodes, rs.ctx.r, tau, strikes[:, None], vols)
    else:
        values = bs_call_values(rs.ctx.s0, rs.ctx.r, tau, strikes[:, None], vols)
    return values @ rs.rule.weights


def randomized_price(rs: RandomizedSlice, key: OptionKey) -> float:
    """Mixture price of a single option; puts via put-call parity.

    Parity commutes with the mixture: for parameter randomization the
    spot is common to all nodes, and for spot randomization the node
    mean is pinned at the spot.
    """
    call = float(randomized_prices(rs, key.expiry, key.strike)[0])
    if key.kind is OptionType.CALL:
        return call
    tau = key.expiry - rs.ctx.t0
    return call - (rs.ctx.s0 - key.strike * math.exp(-rs.ctx.r * tau))


def randomized_iv(
    rs: RandomizedSlice,
    key: OptionKey,
    engine: str = "brent",
    m_max: float = DEFAULT_M_MAX,
) -> float:
    """Implied volatility of the randomized price at one (T, K): a one-point grid call."""
    return float(implied_vol_grid(rs, key.expiry, [key.strike], engine, m_max)[0])


def implied_vol_grid(
    rs: RandomizedSlice,
    expiry: float,
    strikes,
    engine: str = "brent",
    m_max: float = DEFAULT_M_MAX,
    quiet: bool = False,
) -> np.ndarray:
    """Implied vols on a strike grid, vectorized on every engine.

    A one-node rule prices a single Black-Scholes value, whose implied vol
    is the node vol itself; it is returned exactly on every engine.
    Otherwise points outside the expansion validity region (|m| > m_max or
    a nonpositive polynomial value) escalate to the exact inversion; ``quiet``
    demotes the escalation log to debug level (used by the calibrator,
    whose exploratory evaluations trip the guard routinely).
    """
    strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
    method, order = parse_engine(engine)
    tau = _check_expiry(rs.ctx, expiry)
    if rs.rule.size == 1:
        return _node_vol_matrix(rs, expiry, strikes)[:, 0].copy()
    if method == "brent":
        return _brent_grid(rs, expiry, strikes)

    order = expansion.expansion_order(rs.expansion_kind, order)
    m = np.log(rs.ctx.s0 / strikes) + rs.ctx.r * tau
    coeffs = expansion_coefficients(rs, expiry, strikes)
    values = expansion.evaluate_polynomial(rs.expansion_kind, coeffs, m, order)

    escalate = (np.abs(m) > m_max) | (values <= 0.0)
    if np.any(escalate):
        logger.log(
            logging.DEBUG if quiet else logging.WARNING,
            "expansion guard tripped at %d of %d grid points; falling back to the exact inversion",
            int(escalate.sum()),
            strikes.size,
        )
        values[escalate] = _brent_grid(rs, expiry, strikes[escalate])
    return values


def expansion_coefficients(rs: RandomizedSlice, expiry: float, strikes) -> np.ndarray:
    """Taylor coefficients of the implied vol in log-moneyness, one column per strike.

    The rows are (P0, P2, P4, P6) for parameter randomization and
    (P0, P1, P2, P3, P4) for spot randomization; evaluate them with
    ``expansion.evaluate_polynomial``.
    """
    strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
    tau = np.full(strikes.size, _check_expiry(rs.ctx, expiry))
    vols = _node_vol_matrix(rs, expiry, strikes)
    if rs.expansion_kind == "parameter":
        return expansion.parameter_coefficients(rs.rule.weights, vols, tau)
    return expansion.spot_coefficients(rs.rule.weights, rs.rule.nodes, rs.ctx.s0, vols[:, 0], tau)


def _brent_grid(rs: RandomizedSlice, expiry: float, strikes: np.ndarray) -> np.ndarray:
    """Exact vols of the mixture prices; scalar Brent answers or refuses what the vector pass leaves."""
    prices = randomized_prices(rs, expiry, strikes)
    out = implied_vols(rs.ctx, expiry, strikes, prices)
    for i in np.flatnonzero(np.isnan(out)):
        out[i] = implied_vol_brent(rs.ctx, OptionKey(expiry, float(strikes[i])), float(prices[i]))
    return out


@dataclass(frozen=True)
class DensityCurve:
    """Risk-neutral density on a strike grid with mass/mean diagnostics."""

    strikes: np.ndarray
    values: np.ndarray
    mass: float
    mean: float

    def to_csv(self, handle: io.TextIOBase) -> None:
        """Write 'strike,density' rows to a text stream."""
        handle.write("strike,density\n")
        for k, p in zip(self.strikes, self.values):
            handle.write(f"{k:.10g},{p:.12g}\n")


def density(rs: RandomizedSlice, expiry: float, grid) -> DensityCurve:
    """Risk-neutral density via second differences of the mixture call prices.

    Uses the grid-native non-uniform three-point stencil; the grid should
    be wide enough (roughly [0.3 F, 3 F] or more) for the mass and mean
    diagnostics to be meaningful.
    """
    grid = _checked_grid(grid, "density")
    tau = expiry - rs.ctx.t0
    prices = randomized_prices(rs, expiry, grid)
    values = math.exp(rs.ctx.r * tau) * _second_difference(grid, prices)
    strikes = grid[1:-1]
    mass = float(np.trapezoid(values, strikes))
    mean = float(np.trapezoid(strikes * values, strikes) / mass)
    return DensityCurve(strikes=strikes, values=values, mass=mass, mean=mean)


def count_local_maxima(values, rel_floor: float = 1e-8) -> int:
    """Strict local maxima above a floor relative to the global peak.

    The floor suppresses float-level ripples in regions where the curve
    is numerically zero (e.g. far density wings).
    """
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        return 0
    floor = v.max() * rel_floor
    mid = v[1:-1]
    return int(np.sum((mid > v[:-2]) & (mid > v[2:]) & (mid > floor)))
