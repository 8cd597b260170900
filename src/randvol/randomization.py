"""Discretized randomized pricing surfaces: the mixture step.

A randomized slice mixes Black-Scholes prices across quadrature nodes,
either by moving one parameter of the base parametrization (parameter
randomization) or by moving the spot itself while the base volatility
stays pinned at the true spot (spot randomization).  A mixture price is
its nodes' weighted Black-Scholes values added node after node, by the
node sum the expansion kernels use, so a price never depends on which
other prices share its call.  A stack of slices can also put each row
at its own expiry and strikes (`implied_vol_stack`, the calibrator's
surface call): its (row, strike) pairs form one flat grid, and a row
that fails a check reads NaN there instead of raising.
"""
from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from . import expansion, parametrizations
from .arbitrage import _checked_grid, _second_difference
from .errors import NoImpliedVolError, ParameterDomainError, RowFailures, fail_rows
from .parametrizations import SliceColumns, slice_columns
from .pricing import (
    MarketContext, OptionKey, OptionType, _check_strikes, bs_call_values, expiry_terms, inverted_vols,
    implied_vol_brent,  # unused here, but it stays a name: the benchmark's tracer wraps it
)
from .quadrature import QuadratureRule, _check_rules, quadrature_for, rule_rows

logger = logging.getLogger("randvol")

#: Log-moneyness radius beyond which the expansion engine hands over to
#: the root finder; Taylor polynomials around m = 0 degrade in the wings.
DEFAULT_M_MAX = 0.5

_SPOT_CENTER_RTOL = 1e-8
#: Most (row, strike) pairs one `stacked_grid` pass holds: small passes are mostly numpy's per-call overhead, the
#: cost per pair bottoms out at 4k-8k pairs, and one pass over a 1e5-point job only grows its temporaries.
_PASS_PAIRS = 4096


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


def randomize(params, ctx: MarketContext) -> RandomizedSlice:
    """Build the quadrature rule for a slice and validate the mixing invariants.

    A plain slice (no randomizer) becomes a one-node rule: a point mass at
    sigma (flat base) or gamma (SABR base).  Spot randomization requires
    the rule mean to sit on the market spot; an off-center rule, an
    explicit discrete one included, is rejected.  A sequence of SliceParams
    with one base model, target and n_q, or a stack of `SliceColumns`
    (their array form), gives a stack, which fails if any member fails a
    check.
    """
    cols = params if isinstance(params, SliceColumns) else slice_columns(params)
    rule = quadrature_for(cols.columns, cols.n_q, family=cols.family)
    _check_nodes(cols, ctx, rule.weights, rule.nodes)
    return RandomizedSlice(cols, rule, ctx)


def _check_nodes(cols: SliceColumns, ctx: MarketContext, weights: np.ndarray, nodes: np.ndarray,
                 failures: Optional[RowFailures] = None) -> None:
    """Check the nodes of each slice's rule for the slice's target: a failing slice raises, or, given
    ``failures``, is marked there."""
    if cols.target == "spot":
        mean = np.matmul(weights[..., None, :], nodes[..., :, None])[..., 0, 0]
        shown = float(mean) if mean.ndim == 0 else mean
        fail_rows(failures, np.abs(mean - ctx.s0) > _SPOT_CENTER_RTOL * ctx.s0, lambda: ParameterDomainError(
            f"spot randomizer mean {shown!r} is not centered at the spot {ctx.s0!r}"))
        fail_rows(failures, nodes <= 0, lambda: ParameterDomainError("spot nodes must be strictly positive"), axes=1)
    else:
        fail_rows(failures, nodes < 0, lambda: ParameterDomainError(f"{cols.target} nodes must be nonnegative"),
                  axes=1)


class _Grid(NamedTuple):
    """The (row, strike) pairs of a stack of slices, flattened row after row: each row on its own expiry and strikes.

    ``row`` and ``strikes`` hold each pair's row and strike; the expiry terms (tau, r*tau, discount factor,
    sqrt(tau), forward; see `expiry_terms`) hold one entry per row, and `by_pair` takes them at the pairs.
    """

    ctx: MarketContext
    counts: list  # strikes per row
    row: np.ndarray
    strikes: np.ndarray
    tau: np.ndarray
    r_tau: np.ndarray
    df: np.ndarray
    sqrt_tau: np.ndarray
    forward: np.ndarray

    @property
    def rows(self) -> int:
        return len(self.counts)

    def by_pair(self, per_row: np.ndarray, sel=None) -> np.ndarray:
        """Each pair's entry of an array whose last axis runs over the rows, at the pairs ``sel`` (all by default);
        an array with one row, as a lone row's terms are, as it is: it broadcasts."""
        if per_row.shape[-1] == 1:
            return per_row
        return per_row.take(self.row if sel is None else self.row.take(sel), axis=-1)

    def rows_with(self, bad: np.ndarray) -> np.ndarray:
        """Which rows hold a pair where ``bad``, one flag per pair, holds; one flag, as a lone row's node vols may
        give, is every row's."""
        if bad.shape[-1] == 1:
            return np.repeat(bad, self.rows)
        return np.bincount(self.row[bad], minlength=self.rows) > 0


def _grid(ctx: MarketContext, expiries, strikes) -> _Grid:
    """The grid of rows at ``expiries`` on ``strikes``, one expiry and one strike array per row: each expiry is
    checked once, and each strike array once per expiry."""
    terms, checked = {}, {}
    for expiry, k in zip(expiries, strikes):
        if (expiry, id(k)) not in checked:
            if expiry not in terms:
                terms[expiry] = expiry_terms(ctx, expiry)
            checked[expiry, id(k)] = _check_strikes(k)
    per_row = [checked[expiry, id(k)] for expiry, k in zip(expiries, strikes)]
    counts = [k.size for k in per_row]
    row = np.arange(len(counts)).repeat(counts)
    return _Grid(ctx, counts, row, np.concatenate(per_row),
                 *np.array([terms[expiry] for expiry in expiries]).T)


def _uniform_grid(rs: RandomizedSlice, expiry: float, strikes) -> _Grid:
    """Every slice of ``rs`` at ``expiry`` on ``strikes``: `_grid` of one block."""
    rows = math.prod(rs.batch_shape)
    return _grid(rs.ctx, [expiry] * rows, [strikes] * rows)


def _node_vols(rs: RandomizedSlice, grid: _Grid, failures: Optional[RowFailures] = None) -> np.ndarray:
    """Node volatilities at a grid's pairs, node first: shape (n_q, pairs).  A spot slice's one node is its base's
    sigma or gamma.  A row with a node vol that is not finite (its parameters overflow the vol formula) raises,
    or, given ``failures``, is marked there."""
    cols = rs.columns.columns
    nodes = _per_row(rs.rule.nodes)
    if rs.target == "spot":  # the base vol at the spot
        nodes = np.reshape(cols["sigma" if "sigma" in cols else "gamma"], (1, -1))
    if "sigma" in cols:
        vols = grid.by_pair(nodes)
    else:
        alpha, beta, rho = (grid.by_pair(np.ravel(cols[name])) for name in ("alpha", "beta", "rho"))
        with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused just below
            vols = parametrizations.hagan_vol(grid.by_pair(grid.forward), grid.strikes, grid.by_pair(grid.tau),
                                              alpha, beta, rho, grid.by_pair(nodes))
    bad = ~np.isfinite(vols)
    fail_rows(failures, grid.rows_with(bad.any(0) if bad.ndim == 2 else bad),
              lambda: ParameterDomainError("node vols must be finite; the slice's parameters overflow its vol formula"))
    return np.broadcast_to(vols, (rs.rule.size, sum(grid.counts)))


def _per_row(x: np.ndarray) -> np.ndarray:
    """A rule's weights or nodes node first, one column per row: shape (n_q, rows), a view."""
    return x.reshape(-1, x.shape[-1]).T


def _prices(rs: RandomizedSlice, grid: _Grid, vols: np.ndarray, sel=None) -> np.ndarray:
    """Mixture call prices at a grid's pairs ``sel`` (all by default) from their node-first node vols: each node's
    Black-Scholes values, weighted by its row's rule, added node after node (`expansion._node_sum`)."""
    spot = grid.by_pair(_per_row(rs.rule.nodes), sel) if rs.target == "spot" else rs.ctx.s0
    strikes, vols = (grid.strikes, vols) if sel is None else (grid.strikes.take(sel), vols[:, sel])
    values = bs_call_values(spot, *(grid.by_pair(t, sel) for t in (grid.r_tau, grid.df, grid.sqrt_tau)), strikes, vols)
    return expansion._node_sum(grid.by_pair(_per_row(rs.rule.weights), sel) * values)


def randomized_prices(rs: RandomizedSlice, expiry: float, strikes) -> np.ndarray:
    """Mixture call prices on a strike grid, shape ``rs.batch_shape + (n_strikes,)``."""
    grid = _uniform_grid(rs, expiry, strikes)
    return _prices(rs, grid, _node_vols(rs, grid)).reshape(rs.batch_shape + (-1,))


def randomized_price(rs: RandomizedSlice, key: OptionKey) -> float:
    """Mixture price of a single option; puts via put-call parity.

    Parity commutes with the mixture: for parameter randomization the
    spot is common to all nodes, and for spot randomization the node
    mean is pinned at the spot.
    """
    call = float(randomized_prices(rs, key.expiry, key.strike)[0])
    if key.kind is OptionType.CALL:
        return call
    return call - (rs.ctx.s0 - key.strike * expiry_terms(rs.ctx, key.expiry)[2])


def randomized_iv(rs: RandomizedSlice, key: OptionKey, engine: str = "brent") -> float:
    """Implied volatility of the randomized price at one (T, K): a one-point grid call."""
    return float(implied_vol_grid(rs, key.expiry, [key.strike], engine)[0])


def implied_vol_grid(rs: RandomizedSlice, expiry: float, strikes, engine: str = "brent") -> np.ndarray:
    """Implied vols on a strike grid, vectorized on every engine.

    The result has shape ``rs.batch_shape + (n_strikes,)``.  A one-node
    rule prices a single Black-Scholes value, whose implied vol is the
    node vol itself; it is returned exactly on every engine.  Otherwise
    points outside the expansion validity region (|m| > DEFAULT_M_MAX or a
    nonpositive polynomial value) escalate to the exact inversion of
    their mixture price, and the escalation is logged as a warning.
    """
    method, order = parse_engine(engine)
    vols = _grid_values(rs, _uniform_grid(rs, expiry, strikes), False, method, order)
    return vols.reshape(rs.batch_shape + (-1,))


@np.errstate(all="ignore")  # a row far out of range overflows on its way to NaN, which is all it should do
def implied_vol_stack(cols: SliceColumns, ctx: MarketContext, expiries, strikes, engine: str = "brent",
                      prices: bool = False) -> tuple[np.ndarray, RowFailures]:
    """Implied vols of a stack of slices, each row at its own expiry on its own strikes (one of each per row), or
    with ``prices`` their call prices, as `stacked_grid` gives them: a price pass never inverts.

    Returns the rows' values one after another in one flat array, and the record of the rows that failed a
    check: their values are NaN, and every other row is bit for bit its lone `implied_vol_grid` (or, for prices,
    its lone `stacked_grid` row).  The stack is evaluated in one pass, each row on its own rule, and every check, a
    refused inversion's included, marks a row instead of raising; a marked row still goes through the pass and is
    set to NaN at the end.  Escalations log at debug level.  Numpy's floating-point warnings are silenced here: a row
    they would concern reads NaN, or reads as it is.
    """
    method, order = parse_engine(engine)
    failures = RowFailures(len(expiries))
    weights, nodes = rule_rows(cols.columns, cols.n_q, cols.family, failures)
    _check_rules(weights, nodes, failures)
    _check_nodes(cols, ctx, weights, nodes, failures)
    if failures.bad.all():
        return np.full(sum(np.size(k) for k in strikes), np.nan), failures
    grid = _grid(ctx, expiries, strikes)
    rs = RandomizedSlice(cols, QuadratureRule.of_checked(weights, nodes), ctx)
    values = _grid_values(rs, grid, prices, method, order, failures)
    values[np.repeat(failures.bad, grid.counts)] = np.nan
    return values, failures


def stacked_grid(slices, expiries, strikes, prices: bool = False, engine: str = "brent") -> list[np.ndarray]:
    """Row i's implied vols on ``engine``, or with ``prices`` its call prices, of the lone randomized ``slices[i]``
    at ``expiries[i]`` on ``strikes[i]``, bit for bit the row alone (its vols are its lone `implied_vol_grid`).  A
    price is never inverted: on 'brent', and where the 'expansion:N' guard escalates, it is the mixture's, else its
    vol's Black-Scholes price.  Rows whose slices share context, target, family, n_q, rule size and columns stack,
    as in `implied_vol_stack`; a stack's rows, in order, share passes of at most `_PASS_PAIRS` pairs, and a larger
    row takes a pass of its own.  Every grid is checked first.
    """
    stacks, passes, size = {}, [], 0
    for i, rs in enumerate(slices):
        stacks.setdefault((rs.ctx, rs.target, rs.columns.family, rs.columns.n_q, rs.rule.size, *rs.columns.columns),
                          []).append(i)
    for rows in stacks.values():
        for i in rows:
            if i == rows[0] or size + np.size(strikes[i]) > _PASS_PAIRS:
                passes.append([])
                size = 0
            passes[-1].append(i)
            size += np.size(strikes[i])
    grids = [_grid(slices[rows[0]].ctx, [expiries[i] for i in rows], [strikes[i] for i in rows]) for rows in passes]
    found = {}
    for rows, grid in zip(passes, grids):
        values = _row_pass([slices[i] for i in rows], expiries[rows[0]], grid, prices, engine)
        found.update(zip(rows, np.split(values, np.cumsum(grid.counts[:-1]))))
    return [found[i] for i in range(len(slices))]


def _stack(slices) -> RandomizedSlice:
    """Lone randomized slices as one stack: row i takes slice i's columns and rule."""
    cols, rules = slices[0].columns, [rs.rule for rs in slices]
    columns = {name: np.array([rs.columns.columns[name] for rs in slices]) for name in cols.columns}
    rule = QuadratureRule.of_checked(np.array([r.weights for r in rules]), np.array([r.nodes for r in rules]))
    return RandomizedSlice(replace(cols, columns=columns), rule, slices[0].ctx)


def _row_pass(slices: list, expiry: float, grid: _Grid, prices: bool, engine: str) -> np.ndarray:
    """One `stacked_grid` pass: the vols, or the prices, at a grid's pairs, of the slices as one stack.  A vol pass
    of one row, at ``expiry``, is that row's lone `implied_vol_grid` call.  A stacked pass would give the same bytes;
    the branch stays because the benchmark's tracer counts `implied_vol_grid` calls, and a one-row job reaches it."""
    if len(slices) == 1 and not prices:
        return implied_vol_grid(slices[0], expiry, grid.strikes, engine)
    return _grid_values(_stack(slices), grid, prices, *parse_engine(engine))


def _grid_values(rs: RandomizedSlice, grid: _Grid, prices: bool, method: str, order: Optional[int],
                 failures: Optional[RowFailures] = None) -> np.ndarray:
    """The vols at a grid's pairs, or with ``prices`` the call prices; a row failing a check raises, or, given
    ``failures``, is marked there.  A price on 'brent', or at a pair the 'expansion:N' guard escalates, is the
    mixture's, and only a vol pass inverts it; any other 'expansion:N' price is its polynomial vol's Black-Scholes
    price.  An escalation logs a warning, or, where rows are marked (the calibrator's stack, whose exploratory
    points trip the guard routinely), at debug level."""
    vols = _node_vols(rs, grid, failures)
    if method == "brent" and (prices or rs.rule.size > 1):
        mixture = _prices(rs, grid, vols)
        return mixture if prices else _invert(grid, None, mixture, failures)
    if method == "expansion":  # a one-node rule refuses an order its kind lacks, as any rule does
        order = expansion.expansion_order(rs.expansion_kind, order)
    if rs.rule.size == 1:
        values, escalate = vols[0].copy(), False
    else:
        m = np.log(rs.ctx.s0 / grid.strikes) + grid.by_pair(grid.r_tau)
        values = expansion.evaluate_polynomial(rs.expansion_kind, _coefficients(rs, grid, vols, failures), m, order)
        escalate = (np.abs(m) > DEFAULT_M_MAX) | (values <= 0.0)
        if failures is not None and failures.any:  # a failed row escalates nothing
            escalate &= ~np.repeat(failures.bad, grid.counts)
    if prices:  # an escalated pair's price is replaced below
        terms = (grid.by_pair(t) for t in (grid.r_tau, grid.df, grid.sqrt_tau))
        values = bs_call_values(rs.ctx.s0, *terms, grid.strikes, values)
    if np.any(escalate):
        logger.log(logging.WARNING if failures is None else logging.DEBUG,
                   "expansion guard tripped at %d of %d grid points; falling back to the %s", int(escalate.sum()),
                   values.size, "mixture price" if prices else "exact inversion")
        # each slice prices its own escalated strikes, as a lone slice would; one inversion for all
        sel = np.flatnonzero(escalate)
        mixture = _prices(rs, grid, vols, sel)
        values[sel] = mixture if prices else _invert(grid, sel, mixture, failures)
    return values


def expansion_coefficients(rs: RandomizedSlice, expiry: float, strikes) -> np.ndarray:
    """Taylor coefficients of the implied vol in log-moneyness, one column per strike.

    The rows are (P0, P2, P4, P6) for parameter randomization and
    (P0, P1, P2, P3, P4) for spot randomization, each of shape
    ``rs.batch_shape + (n_strikes,)``; evaluate them with
    ``expansion.evaluate_polynomial``.
    """
    grid = _uniform_grid(rs, expiry, strikes)
    coeffs = _coefficients(rs, grid, _node_vols(rs, grid))
    return coeffs.reshape(coeffs.shape[:1] + rs.batch_shape + (-1,))


def _coefficients(rs: RandomizedSlice, grid: _Grid, vols: np.ndarray, failures: Optional[RowFailures] = None):
    """Expansion coefficients at a grid's pairs, shape (terms,) + the grid's shape; a row with a pair whose
    coefficients cannot be formed raises, or, given ``failures``, is marked there.

    A sigma row's node vols are its nodes at every strike, so its coefficients are formed once, at its tau,
    and gathered to its pairs.
    """
    weights, nodes = _per_row(rs.rule.weights), _per_row(rs.rule.nodes)
    if rs.target == "sigma":
        return expansion.parameter_coefficients(weights.T, nodes.T, grid.tau, failures=failures).take(grid.row, axis=1)
    weights, tau = grid.by_pair(weights).T, grid.tau.take(grid.row)  # the kernels take one tau per pair
    pairs = None if failures is None else RowFailures(tau.size)
    if rs.expansion_kind == "parameter":
        coeffs = expansion.parameter_coefficients(weights, vols.T, tau, failures=pairs)
    else:
        coeffs = expansion.spot_coefficients(weights, grid.by_pair(nodes).T, rs.ctx.s0, vols[0], tau, failures=pairs)
    if pairs is not None and pairs.any:
        failures.mark(grid.rows_with(pairs.bad), lambda: pairs.error)
    return coeffs


def _invert(grid: _Grid, sel, prices: np.ndarray, failures: Optional[RowFailures] = None) -> np.ndarray:
    """Exact vols of mixture prices at a grid's pairs ``sel`` (all by default), by the vector pass.  A price it
    leaves NaN lies outside (intrinsic, s0) and has no vol: it raises `NoImpliedVolError`, or, given ``failures``,
    marks its row there, whose remaining prices are then left NaN."""
    strikes, rows = (grid.strikes, grid.row) if sel is None else (grid.strikes.take(sel), grid.row.take(sel))
    out = inverted_vols(grid.ctx.s0, *(grid.by_pair(t, sel) for t in (grid.r_tau, grid.df, grid.sqrt_tau)), strikes,
                        prices)
    refused = np.isnan(out)  # a row already marked keeps its first error: marking it again changes nothing
    if refused.any():  # worded at the first refused pair as `implied_vol_brent` words it, in Python floats
        i, s0 = np.argmax(refused), grid.ctx.s0
        lower = max(s0 - float(strikes[i]) * float(grid.df[rows[i]]), 0.0)
        error = NoImpliedVolError(
            f"no implied volatility exists: price {float(prices[i])!r} outside ({lower!r}, {s0!r})")
        fail_rows(failures, np.bincount(rows[refused], minlength=grid.rows) > 0, lambda: error)
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
        handle.write("strike,density\n" + csv_rows("%.10g,%.12g", np.column_stack((self.strikes, self.values))))


def csv_rows(fmt: str, table) -> str:
    """`fmt % row` and a newline per row of a 2-D float table, in one pass; `"%.12g" % x` is `f"{x:.12g}"`."""
    return (fmt + "\n") * len(table) % tuple(np.ravel(table).tolist())


def density(rs: RandomizedSlice, expiry: float, grid) -> DensityCurve:
    """Risk-neutral density via second differences of the mixture call prices.

    Uses the grid-native non-uniform three-point stencil; the grid should
    be wide enough (roughly [0.3 F, 3 F] or more) for the mass and mean
    diagnostics to be meaningful.  A grid that holds no positive mass gets
    a NaN mean.
    """
    grid = _checked_grid(grid, "density")
    prices = randomized_prices(rs, expiry, grid)
    values = math.exp(rs.ctx.r * expiry) * _second_difference(grid, prices)
    strikes = grid[1:-1]
    mass = float(np.trapezoid(values, strikes))
    mean = float(np.trapezoid(strikes * values, strikes) / mass) if mass > 0 else math.nan
    return DensityCurve(strikes=strikes, values=values, mass=mass, mean=mean)


def count_local_maxima(values) -> int:
    """Strict local maxima above 1e-8 of the global peak.

    The floor suppresses float-level ripples in regions where the curve
    is numerically zero (e.g. far density wings).
    """
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        return 0
    floor = v.max() * 1e-8
    mid = v[1:-1]
    return int(np.sum((mid > v[:-2]) & (mid > v[2:]) & (mid > floor)))
