"""Timing harness comparing the expansion engines against the exact inversions.

The workload mirrors a realistic surface build: a fixed set of expiries,
each carrying an equal share of strikes.  The expansion engines build
one set of coefficients per expiry and evaluate the polynomial across
that expiry's strikes; scalar Brent inverts every point, warm-started
from its neighbor; the vectorized exact pass (what the 'brent' engine
runs) inverts each expiry's prices in one call.
"""
from __future__ import annotations

import math
import time
from typing import NamedTuple, Sequence

import numpy as np

from .expansion import evaluate_polynomial, expansion_order, parameter_coefficients
from .parametrizations import FlatParams, RandomizerSpec, SliceParams
from .pricing import MarketContext, OptionKey, OptionType, implied_vol_brent, implied_vols
from .quadrature import LogNormal
from .randomization import RandomizedSlice, randomized_prices, randomize

_N_EXPIRIES = 10
_M_SPAN = 0.3


class BenchRow(NamedTuple):
    method: str
    count: int
    seconds: float


def reference_slice(n_q: int = 4) -> RandomizedSlice:
    """Flat base with a lognormal volatility randomizer (mean level 0.2)."""
    ctx = MarketContext(s0=100.0, r=0.02)
    nu = 0.2
    params = SliceParams(
        FlatParams(0.2),
        RandomizerSpec("sigma", LogNormal(math.log(0.2) - 0.5 * nu**2, nu), n_q),
    )
    return randomize(params, ctx)


def _points_timed(count: int) -> int:
    """The points a `count` run times: an equal share on each expiry, at least one each."""
    return _N_EXPIRIES * max(count // _N_EXPIRIES, 1)


def _point_grid(rs: RandomizedSlice, count: int):
    """(expiry, strikes, log-moneyness) triples: count points over a fixed expiry set.

    The moneyness transform is input preparation shared by both engines,
    so it lives outside the timed sections.
    """
    expiries = np.linspace(0.5, 2.5, _N_EXPIRIES)
    per = _points_timed(count) // _N_EXPIRIES
    out = []
    for expiry in expiries:
        m = np.linspace(-_M_SPAN, _M_SPAN, per)
        strikes = rs.ctx.s0 * np.exp(rs.ctx.r * expiry - m)
        out.append((float(expiry), strikes, m))
    return out


def time_expansion(rs: RandomizedSlice, count: int, order: int) -> float:
    """Seconds to produce implied vols for `count` points with the expansion.

    Coefficients are built once per expiry and the polynomial is
    evaluated in one vectorized pass per expiry.
    """
    grid = _point_grid(rs, count)
    weights = rs.rule.weights
    node_vols = rs.rule.nodes
    start = time.perf_counter()
    for expiry, _, m in grid:
        tau = expiry - rs.ctx.t0
        coeffs = parameter_coefficients(weights, node_vols, tau)
        evaluate_polynomial("parameter", coeffs, m, order)
    return time.perf_counter() - start


def time_brent(rs: RandomizedSlice, count: int) -> float:
    """Seconds to invert `count` randomized prices with warm-started Brent."""
    import scipy.optimize  # implied_vol_brent imports it on first use: load it before the clock starts

    grid = _point_grid(rs, count)
    start = time.perf_counter()
    for expiry, strikes, _ in grid:
        prices = randomized_prices(rs, expiry, strikes)
        warm = None
        for strike, price in zip(strikes, prices):
            key = OptionKey(expiry, float(strike), OptionType.CALL)
            warm = implied_vol_brent(rs.ctx, key, float(price), warm_start=warm)
    return time.perf_counter() - start


def time_exact(rs: RandomizedSlice, count: int) -> float:
    """Seconds to invert `count` randomized prices with the vectorized exact pass, one call per expiry."""
    grid = _point_grid(rs, count)
    start = time.perf_counter()
    for expiry, strikes, _ in grid:
        implied_vols(rs.ctx, expiry, strikes, randomized_prices(rs, expiry, strikes))
    return time.perf_counter() - start


def run_benchmark(counts: Sequence[int], orders: Sequence[int], include_brent: bool) -> list[BenchRow]:
    """One row per count and method, labelled with the points timed: scalar Brent unless ``include_brent`` is
    false, the vectorized exact pass, then each expansion order; every order is checked first."""
    orders = [expansion_order("parameter", order) for order in orders]
    rs = reference_slice()
    rows: list[BenchRow] = []
    for count in counts:
        timed = _points_timed(count)
        if include_brent:
            rows.append(BenchRow("brent", timed, time_brent(rs, count)))
        rows.append(BenchRow("exact", timed, time_exact(rs, count)))
        for order in orders:
            rows.append(BenchRow(f"expansion:{order}", timed, time_expansion(rs, count, order)))
    return rows


def rows_to_csv(rows: Sequence[BenchRow]) -> str:
    lines = ["method,count,seconds"]
    lines += [f"{r.method},{r.count},{r.seconds:.6f}" for r in rows]
    return "\n".join(lines) + "\n"
