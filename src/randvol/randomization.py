"""Discretized randomized pricing surfaces: the mixture step.

A randomized slice mixes Black-Scholes prices across quadrature nodes,
either by moving one parameter of the base parametrization (parameter
randomization) or by moving the spot itself while the base volatility
stays pinned at the true spot (spot randomization).  A stack of slices
can also put each row at its own expiry and strikes (`implied_vol_stack`,
the calibrator's surface call): its (row, strike) pairs form one flat
grid, and a row that fails a check reads NaN there instead of raising.
"""
from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from . import expansion, parametrizations
from .arbitrage import _checked_grid, _second_difference
from .errors import ParameterDomainError, RandvolError, RowFailures, fail_rows
from .parametrizations import SliceColumns, slice_columns
from .pricing import (
    MarketContext, OptionKey, OptionType, _check_expiry, _check_strikes, bs_call_values, call_values,
    implied_vol_brent, inverted_vols,
)
from .quadrature import QuadratureRule, _check_rules, quadrature_for, rule_rows

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
    """A slice, as parameter columns, with its quadrature rule resolved and invariants checked.

    A stack of P slices has one rule row per slice, and every grid it
    yields has a leading (P,) axis.
    """

    columns: SliceColumns
    rule: QuadratureRule
    ctx: MarketContext

    @property
    def batch_shape(self) -> tuple:
        return self.rule.nodes.shape[:-1]

    @property
    def target(self) -> str:
        return self.columns.target

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
    base model, target and n_q, or a stack of `SliceColumns` (their array
    form), gives a stack, which fails if any member fails a check.
    """
    cols = params if isinstance(params, SliceColumns) else slice_columns(params)
    rule = quadrature_for(cols.columns, cols.n_q, family=cols.family)
    nodes = _checked_nodes(cols, ctx, rule.weights, rule.nodes, recenter_spot)
    return RandomizedSlice(cols, rule if nodes is rule.nodes else QuadratureRule(rule.weights, nodes), ctx)


def _checked_nodes(cols: SliceColumns, ctx: MarketContext, weights: np.ndarray, nodes: np.ndarray,
                   recenter_spot: bool = False, failures: Optional[RowFailures] = None) -> np.ndarray:
    """The nodes of each slice's rule, recentered if asked, checked for the slice's target: a failing slice
    raises, or, given ``failures``, is marked there."""
    if cols.target == "spot":
        mean = np.matmul(weights[..., None, :], nodes[..., :, None])[..., 0, 0]
        off = np.abs(mean - ctx.s0) > _SPOT_CENTER_RTOL * ctx.s0
        if off.any() and recenter_spot and cols.family == "discrete":
            nodes = nodes * (ctx.s0 / np.expand_dims(mean, -1))
        else:
            shown = float(mean) if mean.ndim == 0 else mean
            fail_rows(failures, off, lambda: ParameterDomainError(
                f"spot randomizer mean {shown!r} is not centered at the spot {ctx.s0!r}"))
        fail_rows(failures, nodes <= 0, lambda: ParameterDomainError("spot nodes must be strictly positive"), axes=1)
    else:
        fail_rows(failures, nodes < 0, lambda: ParameterDomainError(f"{cols.target} nodes must be nonnegative"),
                  axes=1)
    return nodes


class _Grid(NamedTuple):
    """The (row, strike) pairs of a stack of slices, flattened row after row: each row on its own expiry and strikes.

    Rows at one expiry on one strike array (the same object) share its cells: per cell its strike and its
    expiry's terms (tau, r*tau, discount factor, sqrt(tau), forward), formed with math as a lone expiry
    forms them; a term is a float when every row shares one expiry.  ``cells`` and ``row`` map each pair
    to its cell and its row; for a lone row both are None (a pair is its own cell).
    """

    ctx: MarketContext
    expiries: list  # one per row
    counts: list  # strikes per row
    row: Optional[np.ndarray]
    cells: Optional[np.ndarray]
    strikes: np.ndarray  # per cell, as are the terms below
    tau: object
    r_tau: object
    df: object
    sqrt_tau: object
    forward: object

    @property
    def rows(self) -> int:
        return len(self.expiries)

    def at(self, per_cell, sel=None, nodes: bool = False):
        """A per-cell value at the pairs ``sel`` (all by default): a float as it is, else its entries there,
        with a trailing axis to broadcast against the nodes if ``nodes``."""
        if isinstance(per_cell, float):
            return per_cell
        index = self.cells if sel is None else sel if self.cells is None else self.cells.take(sel)
        value = per_cell if index is None else per_cell.take(index, axis=0)
        return value[:, None] if nodes else value

    def by_pair(self, per_row: np.ndarray, sel=None) -> np.ndarray:
        """Each pair's entry of an array whose last axis runs over the rows, at the pairs ``sel``; for a lone row,
        the array itself."""
        return per_row if self.row is None else per_row.take(self.row_of(sel), axis=-1)

    def row_of(self, sel=None):
        """The rows of the pairs ``sel`` (all by default)."""
        if self.row is None:
            return np.zeros(self.counts[0] if sel is None else np.size(sel), dtype=int)
        return self.row if sel is None else self.row.take(sel)

    def rows_with(self, bad: np.ndarray) -> np.ndarray:
        """Which rows hold a pair where ``bad``, one flag per pair (or one for all of a lone row's), holds."""
        return np.bincount(self.row, bad, self.rows) > 0 if self.row is not None else np.atleast_1d(bad.any())


def _grid(ctx: MarketContext, expiries, strikes) -> _Grid:
    """The grid of rows at ``expiries`` on ``strikes``, one expiry and one strike array per row, each checked."""
    heads, offset = {}, 0  # each block's expiry, checked strikes and first cell
    for expiry, k in zip(expiries, strikes):
        if (expiry, id(k)) not in heads:
            _check_expiry(ctx, expiry)
            heads[expiry, id(k)] = (expiry, _check_strikes(k), offset)
            offset += heads[expiry, id(k)][1].size
    counts = [heads[expiry, id(k)][1].size for expiry, k in zip(expiries, strikes)]
    terms = [_expiry_terms(ctx, expiry) for expiry, _, _ in heads.values()]
    if len({term[0] for term in terms}) == 1:
        terms = terms[0]
    else:
        terms = np.repeat(np.array(terms).T, [k.size for _, k, _ in heads.values()], axis=1)
    row = cells = None
    if len(expiries) > 1:
        row = np.repeat(np.arange(len(expiries)), counts)
        shift = [start - heads[e, id(k)][2] for start, e, k in zip(accumulate([0, *counts]), expiries, strikes)]
        cells = np.arange(row.size) - np.repeat(shift, counts)
    return _Grid(ctx, list(expiries), counts, row, cells, np.concatenate([k for _, k, _ in heads.values()]), *terms)


def _expiry_terms(ctx: MarketContext, expiry: float) -> tuple:
    """An expiry's tau, r*tau, discount factor, sqrt(tau) and forward, formed with math."""
    tau = float(expiry - ctx.t0)
    return tau, ctx.r * tau, math.exp(-ctx.r * tau), math.sqrt(tau), ctx.forward(expiry)


def _uniform_grid(rs: RandomizedSlice, expiry: float, strikes: np.ndarray) -> _Grid:
    """Every slice of ``rs`` at ``expiry`` on ``strikes``: `_grid` of one block."""
    rows, n = math.prod(rs.batch_shape), strikes.size
    row, cells = (None, None) if rows == 1 else (np.repeat(np.arange(rows), n), np.tile(np.arange(n), rows))
    return _Grid(rs.ctx, [expiry] * rows, [n] * rows, row, cells, strikes, *_expiry_terms(rs.ctx, expiry))


def _node_vols(rs: RandomizedSlice, grid: _Grid, failures: Optional[RowFailures] = None) -> np.ndarray:
    """Node volatilities at a grid's pairs, node first: shape (n_q, pairs).  A row with a node vol that is not
    finite (its parameters overflow the vol formula) raises, or, given ``failures``, is marked there."""
    nodes = _per_row(rs.rule.nodes)
    cols = rs.columns.columns
    if rs.target == "sigma":
        vols = grid.by_pair(nodes)
    elif rs.target == "spot":  # the base vol at the spot, slice by slice, as eval_vol_curve forms it alone
        base_type, names = parametrizations.BASES["flat" if "sigma" in cols else "sabr"]
        rows = zip(*(np.ravel(cols[name]).tolist() for name in names))
        row_strikes = np.split(grid.at(grid.strikes), list(accumulate(grid.counts))[:-1])
        vols = np.concatenate([parametrizations.eval_vol_curve(base_type(*row), rs.ctx, expiry, strikes)
                               for row, expiry, strikes in zip(rows, grid.expiries, row_strikes)])
    else:
        alpha, beta, rho = (np.ravel(cols[name]) for name in ("alpha", "beta", "rho"))
        vols = parametrizations.hagan_vol(grid.forward, grid.strikes, grid.tau, alpha, beta, rho, grid.by_pair(nodes),
                                          rows=grid.row, cells=grid.cells)
    bad = ~np.isfinite(vols)
    fail_rows(failures, grid.rows_with(bad.any(0) if bad.ndim == 2 else bad),
              lambda: ParameterDomainError("node vols must be finite; the slice's parameters overflow its vol formula"))
    return np.broadcast_to(vols, (rs.rule.size, sum(grid.counts)))


def _per_row(x: np.ndarray) -> np.ndarray:
    """A rule's weights or nodes node first, one column per row: shape (n_q, rows), a view."""
    return x.reshape(-1, x.shape[-1]).T


def _prices(rs: RandomizedSlice, grid: _Grid, vols: np.ndarray, sel=None) -> np.ndarray:
    """Mixture call prices at a grid's pairs ``sel`` (all by default) from their node-first node vols."""
    spot = grid.by_pair(_per_row(rs.rule.nodes), sel).T if rs.target == "spot" else rs.ctx.s0
    if sel is None:
        rows, counts, vols = None, grid.counts, vols.T
    else:
        vols = vols[:, sel].T
        rows, counts = ([0], [sel.size]) if grid.row is None else (
            a.tolist() for a in np.unique(grid.row.take(sel), return_counts=True))
    strikes = grid.at(grid.strikes, sel, nodes=True)
    if isinstance(grid.tau, float):  # one expiry: its terms as bs_call_values forms them
        values = bs_call_values(spot, rs.ctx.r, grid.tau, strikes, vols)
    else:
        values = call_values(spot, *(grid.at(t, sel, nodes=True) for t in (grid.r_tau, grid.df, grid.sqrt_tau)),
                             strikes, vols)
    # node-first vols give node-first values; _node_sums' gemv keeps its rounding on pair-major values only
    return _node_sums(np.ascontiguousarray(values), counts, rs.rule.weights.reshape(-1, rs.rule.size), rows)


def _node_sums(values: np.ndarray, counts: list, weights: np.ndarray, rows=None) -> np.ndarray:
    """Each pair's sum over its nodes, weighted by its row's rule: the pairs of ``rows`` (all by default), as
    many as ``counts`` says, row after row.

    A row sums its pairs exactly as a matmul over them alone does (OpenBLAS's gemv result depends on how
    many rows it holds): one batched matmul when every row holds as many pairs, else one per row.
    """
    if len(set(counts)) == 1:
        weights = weights if rows is None else weights[rows]
        return np.matmul(values.reshape(len(counts), counts[0], weights.shape[-1]), weights[:, :, None]).ravel()
    rows = range(len(counts)) if rows is None else rows
    sums = [np.matmul(values[end - n:end], weights[r, :, None]) for r, n, end in zip(rows, counts, accumulate(counts))]
    return np.concatenate(sums)[:, 0]


def randomized_prices(rs: RandomizedSlice, expiry: float, strikes) -> np.ndarray:
    """Mixture call prices on a strike grid, shape ``rs.batch_shape + (n_strikes,)``."""
    _check_expiry(rs.ctx, expiry)
    strikes = _check_strikes(strikes)
    grid = _uniform_grid(rs, expiry, strikes)
    return _prices(rs, grid, _node_vols(rs, grid)).reshape(rs.batch_shape + strikes.shape)


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
    _check_expiry(rs.ctx, expiry)
    strikes = _check_strikes(strikes)
    vols = _grid_vols(rs, _uniform_grid(rs, expiry, strikes), method, order, m_max, quiet)
    return vols.reshape(rs.batch_shape + strikes.shape)


@np.errstate(all="ignore")  # a row far out of range overflows on its way to NaN, which is all it should do
def implied_vol_stack(cols: SliceColumns, ctx: MarketContext, expiries, strikes, engine: str = "brent",
                      quiet: bool = False) -> tuple[np.ndarray, RowFailures]:
    """Implied vols of a stack of slices, each row at its own expiry on its own strikes (one of each per row).

    Returns the rows' vols one after another in one flat array, and the record of the rows that failed a
    check: their vols are NaN, and every other row is bit for bit its lone `implied_vol_grid`.  Numpy's
    floating-point warnings are silenced here: a row they would concern reads NaN, or reads as it is.
    """
    method, order = parse_engine(engine)
    failures = RowFailures(len(expiries))
    weights, nodes = rule_rows(cols.columns, cols.n_q, cols.family, failures)
    _check_rules(weights, nodes, failures)
    nodes = _checked_nodes(cols, ctx, weights, nodes, failures=failures)
    if not failures.any:
        grid = _grid(ctx, expiries, strikes)
        vols = _grid_vols(RandomizedSlice(cols, QuadratureRule(weights, nodes), ctx), grid, method, order,
                          DEFAULT_M_MAX, quiet, failures)
        if failures.any:
            vols[np.repeat(failures.bad, grid.counts)] = np.nan
        return vols, failures
    kept = ~failures.bad  # a row whose rule failed goes no further
    keep = np.flatnonzero(kept)
    sizes = [np.size(k) for k in strikes]
    out = np.full(sum(sizes), np.nan)
    if keep.size:
        grid = _grid(ctx, [expiries[i] for i in keep], [strikes[i] for i in keep])
        grid_failures = RowFailures(keep.size)
        rs = RandomizedSlice(cols[keep], QuadratureRule(weights[keep], nodes[keep]), ctx)
        out[np.repeat(kept, sizes)] = _grid_vols(rs, grid, method, order, DEFAULT_M_MAX, quiet, grid_failures)
        if grid_failures.any:
            failures.mark(np.isin(np.arange(kept.size), keep[grid_failures.bad]), lambda: grid_failures.error)
    out[np.repeat(failures.bad, sizes)] = np.nan
    return out, failures


def _grid_vols(rs: RandomizedSlice, grid: _Grid, method: str, order: Optional[int], m_max: float, quiet: bool,
               failures: Optional[RowFailures] = None) -> np.ndarray:
    """Implied vols at a grid's pairs; a row failing a check raises, or, given ``failures``, is marked there."""
    vols = _node_vols(rs, grid, failures)
    if rs.rule.size == 1:
        return vols[0].copy()
    if method == "brent":
        return _invert(grid, None, _prices(rs, grid, vols), failures)

    order = expansion.expansion_order(rs.expansion_kind, order)
    m = grid.at(np.log(rs.ctx.s0 / grid.strikes) + grid.r_tau)
    values = expansion.evaluate_polynomial(rs.expansion_kind, _coefficients(rs, grid, vols, failures), m, order)
    escalate = (np.abs(m) > m_max) | (values <= 0.0)
    if failures is not None and failures.any:  # a failed row takes no inversion
        escalate &= ~np.repeat(failures.bad, grid.counts)
    if np.any(escalate):
        logger.log(
            logging.DEBUG if quiet else logging.WARNING,
            "expansion guard tripped at %d of %d grid points; falling back to the exact inversion",
            int(escalate.sum()),
            values.size,
        )
        # each slice prices its own escalated strikes, as a lone slice would; one inversion for all
        sel = np.flatnonzero(escalate)
        values[sel] = _invert(grid, sel, _prices(rs, grid, vols, sel), failures)
    return values


def expansion_coefficients(rs: RandomizedSlice, expiry: float, strikes) -> np.ndarray:
    """Taylor coefficients of the implied vol in log-moneyness, one column per strike.

    The rows are (P0, P2, P4, P6) for parameter randomization and
    (P0, P1, P2, P3, P4) for spot randomization, each of shape
    ``rs.batch_shape + (n_strikes,)``; evaluate them with
    ``expansion.evaluate_polynomial``.
    """
    strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
    _check_expiry(rs.ctx, expiry)
    grid = _uniform_grid(rs, expiry, strikes)
    coeffs = _coefficients(rs, grid, _node_vols(rs, grid))
    return coeffs.reshape(coeffs.shape[:1] + rs.batch_shape + strikes.shape)


def _coefficients(rs: RandomizedSlice, grid: _Grid, vols: np.ndarray, failures: Optional[RowFailures] = None):
    """Expansion coefficients at a grid's pairs, shape (terms,) + the grid's shape; a row with a pair whose
    coefficients cannot be formed raises, or, given ``failures``, is marked there.

    A sigma row's node vols are its nodes at every strike, so its coefficients are formed once, at its tau,
    and gathered to its pairs.
    """
    weights, nodes = _per_row(rs.rule.weights), _per_row(rs.rule.nodes)
    if rs.target == "sigma":
        tau = np.subtract(grid.expiries, grid.ctx.t0)  # each row's, as _expiry_terms forms it
        return expansion.parameter_coefficients(weights.T, nodes.T, tau, failures=failures).take(grid.row_of(), axis=1)
    weights = grid.by_pair(weights).T
    tau = np.full(sum(grid.counts), grid.tau) if isinstance(grid.tau, float) else grid.at(grid.tau)
    pairs = None if failures is None else RowFailures(tau.size)
    if rs.expansion_kind == "parameter":
        coeffs = expansion.parameter_coefficients(weights, vols.T, tau, failures=pairs)
    else:
        coeffs = expansion.spot_coefficients(weights, grid.by_pair(nodes).T, rs.ctx.s0, vols[0], tau, failures=pairs)
    if pairs is not None and pairs.any:
        failures.mark(grid.rows_with(pairs.bad), lambda: pairs.error)
    return coeffs


def _invert(grid: _Grid, sel, prices: np.ndarray, failures: Optional[RowFailures] = None) -> np.ndarray:
    """Exact vols of mixture prices at a grid's pairs ``sel`` (all by default); scalar Brent answers or refuses
    what the vector pass leaves.  A refused price raises, or, given ``failures``, marks its row there, whose
    remaining prices are then left NaN."""
    strikes = grid.at(grid.strikes, sel)
    out = inverted_vols(grid.ctx.s0, *(grid.at(t, sel) for t in (grid.r_tau, grid.df, grid.sqrt_tau)), strikes, prices)
    unsettled = np.flatnonzero(np.isnan(out))
    rows = grid.row_of(sel) if unsettled.size else None
    for i in unsettled:
        row = rows[i]
        if failures is not None and failures.bad[row]:
            continue
        try:
            out[i] = implied_vol_brent(grid.ctx, OptionKey(grid.expiries[row], float(strikes[i])), float(prices[i]))
        except RandvolError as exc:
            if failures is None:
                raise
            failures.mark(np.arange(grid.rows) == row, lambda: exc)
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
