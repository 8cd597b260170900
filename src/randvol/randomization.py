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
from typing import Optional, Union

import numpy as np

from . import expansion
from .arbitrage import _checked_grid, _second_difference
from .errors import ParameterDomainError
from .parametrizations import BaseParams, FlatParams, RandomizerSpec, SliceParams, eval_vol_curve
from .pricing import (
    MarketContext, OptionKey, OptionType, _check_expiry, _check_strikes, bs_call_values, implied_vol_brent,
    implied_vols,
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
    """A slice with its quadrature rule resolved and invariants checked.

    A stack of P slices (``params`` a tuple) has one rule row per slice,
    and every grid it yields has a leading (P,) axis.
    """

    params: Union[SliceParams, tuple]
    rule: QuadratureRule
    ctx: MarketContext

    @property
    def members(self) -> tuple:
        return self.params if isinstance(self.params, tuple) else (self.params,)

    @property
    def batch_shape(self) -> tuple:
        return self.rule.nodes.shape[:-1]

    @property
    def target(self) -> str:
        return self.members[0].randomizer.target

    @property
    def expansion_kind(self) -> str:
        return "spot" if self.target == "spot" else "parameter"

    def implied_vol(self, expiry: float, strikes):
        """Implied vols at ``strikes``: a float for a scalar, an array for an array."""
        vols = implied_vol_grid(self, expiry, strikes)
        return float(vols[0]) if np.ndim(strikes) == 0 else vols


def randomize(params, ctx: MarketContext, recenter_spot: bool = False) -> RandomizedSlice:
    """Build the quadrature rule for a slice and validate the mixing invariants.

    A plain slice (no randomizer) becomes a one-node rule: a point mass at
    sigma (flat base) or gamma (SABR base).  Spot randomization requires
    the rule mean to sit on the market spot; an off-center explicit
    discrete rule is rejected unless ``recenter_spot`` asks for its nodes
    to be rescaled onto the spot.  A sequence of SliceParams with one
    target and n_q gives a stack, which fails if any member fails a check.
    """
    stacked = not isinstance(params, SliceParams)
    members = tuple(
        SliceParams(p.base, p.randomizer or _point_mass(p.base)) for p in (params if stacked else (params,))
    )
    rnd = members[0].randomizer
    if stacked and any((p.randomizer.target, p.randomizer.n_q) != (rnd.target, rnd.n_q) for p in members):
        raise ValueError("stacked slices must share the randomized target and n_q")
    dists = [p.randomizer.dist for p in members]
    rule = quadrature_for(dists if stacked else dists[0], rnd.n_q)
    if rnd.target == "spot":
        mean = rule.mean()
        if np.any(np.abs(mean - ctx.s0) > _SPOT_CENTER_RTOL * ctx.s0):
            if recenter_spot and all(isinstance(d, DiscreteGiven) for d in dists):
                rule = rule.scaled(ctx.s0 / np.expand_dims(mean, -1))
            else:
                raise ParameterDomainError(
                    f"spot randomizer mean {mean!r} is not centered at the spot {ctx.s0!r}"
                )
        if (rule.nodes <= 0).any():
            raise ParameterDomainError("spot nodes must be strictly positive")
    elif (rule.nodes < 0).any():
        raise ParameterDomainError(f"{rnd.target} nodes must be nonnegative")
    return RandomizedSlice(members if stacked else members[0], rule, ctx)


def _point_mass(base: BaseParams) -> RandomizerSpec:
    """The one-node rule of a plain slice: all mass at sigma (flat) or gamma (SABR)."""
    if isinstance(base, FlatParams):
        return RandomizerSpec("sigma", DiscreteGiven(((1.0, base.sigma),)), 1)
    return RandomizerSpec("gamma", DiscreteGiven(((1.0, base.gamma),)), 1)


def _node_vol_matrix(rs: RandomizedSlice, expiry: float, strikes: np.ndarray) -> np.ndarray:
    """Node volatilities on a strike grid, shape ``rs.batch_shape + (n_strikes, n_q)``."""
    nodes = rs.rule.nodes[..., None, :]
    shape = rs.batch_shape + (strikes.size, rs.rule.size)
    bases = [p.base for p in rs.members]
    if rs.target == "sigma":
        return np.broadcast_to(nodes, shape)
    if rs.target == "gamma":
        from .parametrizations import hagan_vol

        alpha, beta, rho = (
            np.array([getattr(b, name) for b in bases]).reshape(rs.batch_shape + (1, 1)) for name in ("alpha", "beta", "rho")
        )
        tau = expiry - rs.ctx.t0
        return hagan_vol(rs.ctx.forward(expiry), strikes[:, None], tau, alpha, beta, rho, nodes)
    eta = np.array([eval_vol_curve(b, rs.ctx, expiry, strikes) for b in bases]).reshape(rs.batch_shape + (-1, 1))
    return np.broadcast_to(eta, shape)


def randomized_prices(rs: RandomizedSlice, expiry: float, strikes) -> np.ndarray:
    """Mixture call prices on a strike grid, shape ``rs.batch_shape + (n_strikes,)``."""
    tau = _check_expiry(rs.ctx, expiry)
    strikes = _check_strikes(strikes)
    spot = rs.rule.nodes[..., None, :] if rs.target == "spot" else rs.ctx.s0
    values = bs_call_values(spot, rs.ctx.r, tau, strikes[:, None], _node_vol_matrix(rs, expiry, strikes))
    # matmul sums each slice's rows exactly as values @ weights does for that slice alone
    return np.matmul(values, rs.rule.weights[..., None])[..., 0]


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

    The result has shape ``rs.batch_shape + (n_strikes,)``.  A one-node
    rule prices a single Black-Scholes value, whose implied vol is the
    node vol itself; it is returned exactly on every engine.  Otherwise
    points outside the expansion validity region (|m| > m_max or a
    nonpositive polynomial value) escalate to the exact inversion;
    ``quiet`` demotes the escalation log to debug level (used by the
    calibrator, whose exploratory evaluations trip the guard routinely).
    """
    method, order = parse_engine(engine)
    tau = _check_expiry(rs.ctx, expiry)
    strikes = _check_strikes(strikes)
    shape = rs.batch_shape + strikes.shape
    if rs.rule.size == 1:
        return _node_vol_matrix(rs, expiry, strikes)[..., 0].copy()
    if method == "brent":
        return _invert(rs.ctx, expiry, strikes, randomized_prices(rs, expiry, strikes))

    order = expansion.expansion_order(rs.expansion_kind, order)
    m = np.log(rs.ctx.s0 / strikes) + rs.ctx.r * tau
    coeffs = expansion_coefficients(rs, expiry, strikes)
    values = expansion.evaluate_polynomial(rs.expansion_kind, coeffs, np.broadcast_to(m, shape), order)

    escalate = (np.abs(m) > m_max) | (values <= 0.0)
    if np.any(escalate):
        logger.log(
            logging.DEBUG if quiet else logging.WARNING,
            "expansion guard tripped at %d of %d grid points; falling back to the exact inversion",
            int(escalate.sum()),
            values.size,
        )
        # each slice prices its own escalated strikes, as a lone slice would; one inversion for all
        rows = escalate.reshape(-1, strikes.size)
        weights, nodes = (a.reshape(rows.shape[0], -1) for a in (rs.rule.weights, rs.rule.nodes))
        prices = [
            randomized_prices(RandomizedSlice(rs.members[p], QuadratureRule(weights[p], nodes[p]), rs.ctx),
                              expiry, strikes[row])
            for p, row in enumerate(rows) if row.any()
        ]
        values[escalate] = _invert(rs.ctx, expiry, np.broadcast_to(strikes, shape)[escalate], np.concatenate(prices))
    return values


def expansion_coefficients(rs: RandomizedSlice, expiry: float, strikes) -> np.ndarray:
    """Taylor coefficients of the implied vol in log-moneyness, one column per strike.

    The rows are (P0, P2, P4, P6) for parameter randomization and
    (P0, P1, P2, P3, P4) for spot randomization, each of shape
    ``rs.batch_shape + (n_strikes,)``; evaluate them with
    ``expansion.evaluate_polynomial``.
    """
    strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
    shape = rs.batch_shape + strikes.shape
    tau = np.full(shape, _check_expiry(rs.ctx, expiry))
    weights, nodes = (a[..., None, :] for a in (rs.rule.weights, rs.rule.nodes))
    vols = _node_vol_matrix(rs, expiry, strikes)
    if rs.expansion_kind == "parameter":
        return expansion.parameter_coefficients(weights, vols, tau)
    return expansion.spot_coefficients(weights, nodes, rs.ctx.s0, vols[..., 0], tau)


def _invert(ctx: MarketContext, expiry: float, strikes: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Exact vols of mixture prices; scalar Brent answers or refuses what the vector pass leaves."""
    strikes = np.broadcast_to(strikes, prices.shape)
    out = implied_vols(ctx, expiry, strikes, prices)
    for i in np.flatnonzero(np.isnan(out)):
        out.flat[i] = implied_vol_brent(ctx, OptionKey(expiry, float(strikes.flat[i])), float(prices.flat[i]))
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
