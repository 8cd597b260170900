"""Shared numerical oracles for the test suite, and the timing helpers of the expansion-speed tests."""
import math
import time

import numpy as np
import pytest

from randvol.expansion import evaluate_polynomial, parameter_coefficients
from randvol.parametrizations import FlatParams, RandomizerSpec, SliceParams
from randvol.pricing import MarketContext, OptionKey, OptionType, implied_vol_brent
from randvol.quadrature import LogNormal
from randvol.randomization import RandomizedSlice, randomized_prices, randomize


def central_difference(fun, order: int, h: float) -> float:
    """Plain central difference of the given order with half-step h."""
    acc = 0.0
    for j in range(order + 1):
        acc += (-1.0) ** j * math.comb(order, j) * fun((order - 2 * j) * h)
    return acc / (2.0 * h) ** order


def nth_derivative(fun, order: int, h: float, levels: int = 3) -> float:
    """Richardson-extrapolated central finite difference at 0.

    Builds a Romberg-style table over h, h/2, ... eliminating the even
    error powers; `fun` must be smooth near 0.
    """
    table = [central_difference(fun, order, h / 2**k) for k in range(levels)]
    for stage in range(1, levels):
        factor = 4.0**stage
        table = [
            (factor * fine - coarse) / (factor - 1.0)
            for coarse, fine in zip(table, table[1:])
        ]
    return table[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20240731)


# the workload of the expansion-speed tests: a fixed set of expiries, each carrying an equal share of points
_N_EXPIRIES = 10
_M_SPAN = 0.3


def reference_slice() -> RandomizedSlice:
    """Flat base with a four-node lognormal volatility randomizer (mean level 0.2)."""
    ctx = MarketContext(s0=100.0, r=0.02)
    nu = 0.2
    params = SliceParams(
        FlatParams(0.2),
        RandomizerSpec("sigma", LogNormal(math.log(0.2) - 0.5 * nu**2, nu), 4),
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
        coeffs = parameter_coefficients(weights, node_vols, expiry)
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
