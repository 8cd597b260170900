"""Tests for Black-Scholes pricing, the vectorized implied-vol inversion and its Brent oracle."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from randvol import pricing
from randvol.errors import NoImpliedVolError
from randvol.parametrizations import FlatParams, RandomizerSpec, SabrParams, SliceParams
from randvol.pricing import (
    MarketContext,
    OptionKey,
    OptionType,
    bs_call_values,
    bs_price,
    expiry_terms,
    implied_vol_brent,
    implied_vols,
    log_moneyness,
)
from randvol.quadrature import DiscreteGiven, LogNormal
from randvol.randomization import expansion_coefficients, implied_vol_grid, randomize, randomized_prices

CTX = MarketContext(s0=100.0, r=0.0)


def bisect_iv(ctx, key, price, lo=1e-9, hi=5.0, n=200):
    """Independent bisection oracle for the implied volatility."""
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        if bs_price(ctx, key, mid) < price:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBsPrice:
    def test_atm_reference_value(self):
        # 100 * (2 Phi(0.1) - 1) = 7.96557...
        key = OptionKey(1.0, 100.0, OptionType.CALL)
        assert abs(bs_price(CTX, key, 0.2) - 7.9656) < 1e-4

    def test_zero_vol_is_intrinsic(self):
        assert bs_price(CTX, OptionKey(1.0, 90.0, OptionType.CALL), 0.0) == 10.0
        assert bs_price(CTX, OptionKey(1.0, 110.0, OptionType.CALL), 0.0) == 0.0

    def test_zero_vol_discounted_intrinsic(self):
        ctx = MarketContext(s0=100.0, r=0.05)
        put = bs_price(ctx, OptionKey(2.0, 120.0, OptionType.PUT), 0.0)
        assert put == pytest.approx(120.0 * math.exp(-0.1) - 100.0, rel=1e-14)

    @given(st.floats(0.01, 2.0), st.floats(50.0, 200.0), st.floats(-0.05, 0.1), st.floats(0.1, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_put_call_parity(self, sigma, strike, rate, expiry):
        ctx = MarketContext(s0=100.0, r=rate)
        call = bs_price(ctx, OptionKey(expiry, strike, OptionType.CALL), sigma)
        put = bs_price(ctx, OptionKey(expiry, strike, OptionType.PUT), sigma)
        target = 100.0 - strike * math.exp(-rate * expiry)
        assert call - put == pytest.approx(target, abs=1e-10)

    def test_monotone_in_vol(self):
        key = OptionKey(0.7, 115.0, OptionType.CALL)
        sigmas = np.linspace(0.0, 3.0, 61)
        prices = [bs_price(CTX, key, s) for s in sigmas]
        assert np.all(np.diff(prices) >= 0)

    def test_bounds(self):
        key = OptionKey(1.5, 80.0, OptionType.CALL)
        for sigma in (0.05, 0.3, 1.0):
            value = bs_price(CTX, key, sigma)
            assert max(CTX.s0 - 80.0 * math.exp(-CTX.r * 1.5), 0.0) <= value <= CTX.s0

    def test_convex_in_strike(self):
        strikes = np.linspace(40.0, 250.0, 85)
        prices = np.array([bs_price(CTX, OptionKey(1.0, k, OptionType.CALL), 0.25) for k in strikes])
        second = np.diff(prices, 2)
        assert np.all(second >= -1e-10 * CTX.s0)

    def test_vectorized_matches_scalar(self):
        strikes = np.array([70.0, 100.0, 140.0])
        ctx = MarketContext(s0=100.0, r=0.03)
        got = bs_call_values(ctx.s0, *expiry_terms(ctx, 0.5)[1:4], strikes, np.array([0.2, 0.25, 0.3]))
        want = [
            bs_price(ctx, OptionKey(0.5, k, OptionType.CALL), s)
            for k, s in zip(strikes, (0.2, 0.25, 0.3))
        ]
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_negative_vol_rejected(self):
        with pytest.raises(ValueError):
            bs_price(CTX, OptionKey(1.0, 100.0), -0.1)


class TestImpliedVol:
    @given(st.floats(0.01, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_identity(self, sigma):
        key = OptionKey(1.3, 120.0, OptionType.CALL)
        price = bs_price(CTX, key, sigma)
        assert implied_vol_brent(CTX, key, price) == pytest.approx(sigma, abs=1e-7)

    def test_put_roundtrip(self):
        ctx = MarketContext(s0=100.0, r=0.02)
        key = OptionKey(0.8, 95.0, OptionType.PUT)
        price = bs_price(ctx, key, 0.35)
        assert implied_vol_brent(ctx, key, price) == pytest.approx(0.35, abs=1e-7)

    def test_upper_bound_excluded(self):
        key = OptionKey(1.0, 100.0, OptionType.CALL)
        with pytest.raises(NoImpliedVolError):
            implied_vol_brent(CTX, key, CTX.s0)

    def test_below_intrinsic_excluded(self):
        ctx = MarketContext(s0=100.0, r=0.04)
        key = OptionKey(1.0, 80.0, OptionType.CALL)
        with pytest.raises(NoImpliedVolError):
            implied_vol_brent(ctx, key, 100.0 - 80.0 * math.exp(-0.04) - 1e-9)

    def test_deep_otm_converges(self):
        key = OptionKey(0.1, 200.0, OptionType.CALL)
        vol = implied_vol_brent(CTX, key, 1e-6)
        assert vol > 0
        assert vol == pytest.approx(bisect_iv(CTX, key, 1e-6), abs=1e-6)

    def test_warm_start_agrees(self):
        key = OptionKey(1.0, 105.0, OptionType.CALL)
        price = bs_price(CTX, key, 0.22)
        cold = implied_vol_brent(CTX, key, price)
        warm = implied_vol_brent(CTX, key, price, warm_start=0.2)
        assert warm == pytest.approx(cold, abs=1e-9)

    def test_tight_tolerance_supported(self):
        key = OptionKey(2.0, 90.0, OptionType.CALL)
        price = bs_price(CTX, key, 0.4)
        vol = implied_vol_brent(CTX, key, price, rtol=1e-15)
        assert vol == pytest.approx(0.4, abs=1e-12)


class TestBrentRootUnchanged:
    """implied_vol_brent forms an option's terms once per root; each vol is still, bit for bit, brentq on
    bs_price(ctx, key, sigma) - price over the same bracket."""

    @pytest.mark.parametrize("kind", [OptionType.CALL, OptionType.PUT])
    @pytest.mark.parametrize("warm", [False, True])
    def test_vol_is_brentq_on_bs_price(self, rng, kind, warm):
        ctx = MarketContext(s0=100.0, r=0.03)
        for _ in range(40):
            key = OptionKey(rng.uniform(0.01, 3.0), rng.uniform(50.0, 180.0), kind)
            sigma = rng.uniform(0.05, 1.5)
            price = bs_price(ctx, key, sigma)
            warm_start = sigma * rng.uniform(0.8, 1.25) if warm else None
            got = implied_vol_brent(ctx, key, price, warm_start=warm_start)

            def objective(s):
                return bs_price(ctx, key, s) - price

            lo, hi = pricing._bracket(objective, warm_start)
            want = brentq(objective, lo, hi, rtol=1e-8, xtol=1e-15, maxiter=200)
            assert got.hex() == want.hex()


def two_sigma_nodes(lo, hi):
    """A flat slice whose sigma is lo or hi with equal weight."""
    return SliceParams(FlatParams(lo), RandomizerSpec("sigma", DiscreteGiven(((0.5, lo), (0.5, hi))), 2))


# sigma lognormal with mean 0.2: at r = 0.02, its call at K = 55, T = 0.05 rounds onto its intrinsic value
LOGNORMAL_SIGMA = SliceParams(FlatParams(0.2), RandomizerSpec("sigma", LogNormal(math.log(0.2) - 0.02, 0.2), 4))


def vega_times_vol(ctx, tau, strikes, sigma):
    total = sigma * math.sqrt(tau)
    d1 = (np.log(ctx.s0 / strikes) + ctx.r * tau) / total + 0.5 * total
    return ctx.s0 * np.exp(-0.5 * d1**2) / math.sqrt(2.0 * math.pi) * total


def strike_grid(ctx, tau, lo, hi):
    return ctx.forward(tau) * np.geomspace(lo, hi, 41)


class TestImpliedVols:
    @given(st.floats(0.01, 3.0), st.floats(0.02, 5.0), st.floats(-0.05, 0.1))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_settles_every_point(self, sigma, tau, rate):
        ctx = MarketContext(s0=100.0, r=rate)
        strikes = strike_grid(ctx, tau, 0.3, 3.0)
        prices = bs_call_values(ctx.s0, *expiry_terms(ctx, tau)[1:4], strikes, sigma)
        # a price that rounds onto a bound has no implied vol
        intrinsic = np.maximum(ctx.s0 - strikes * math.exp(-rate * tau), 0.0)
        inside = (prices > intrinsic) & (prices < ctx.s0)
        strikes, prices = strikes[inside], prices[inside]
        vols = implied_vols(ctx, tau, strikes, prices)
        assert not np.any(np.isnan(vols))
        gap = np.abs(bs_call_values(ctx.s0, *expiry_terms(ctx, tau)[1:4], strikes, vols) - prices)
        # deep in the money the price itself is only known to a few ulps of the spot
        gap = np.maximum(gap - 4.0 * np.finfo(float).eps * ctx.s0, 0.0)
        assert np.all(gap <= 1e-8 * vega_times_vol(ctx, tau, strikes, vols))

    @given(st.floats(0.01, 3.0), st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_brent(self, sigma, tau):
        ctx = MarketContext(s0=100.0, r=0.02)
        strikes = strike_grid(ctx, tau, 0.5, 2.0)
        # only where a few ulps of the spot in the price move the vol by < 1e-9
        strikes = strikes[vega_times_vol(ctx, tau, strikes, sigma) > 1e-6 * ctx.s0]
        assume(strikes.size > 0)
        prices = bs_call_values(ctx.s0, *expiry_terms(ctx, tau)[1:4], strikes, sigma)
        vols = implied_vols(ctx, tau, strikes, prices)
        oracle = [
            implied_vol_brent(ctx, OptionKey(tau, float(k)), float(p), rtol=1e-15)
            for k, p in zip(strikes, prices)
        ]
        np.testing.assert_allclose(vols, oracle, rtol=1e-8)

    def test_extreme_scan_settles_every_point(self):
        # settling only: out here a few points miss the reprice bound of the roundtrip test
        rng = np.random.default_rng(19)
        for rate in (-0.05, 0.0, 0.03, 0.1):
            ctx = MarketContext(s0=100.0, r=rate)
            sigmas, taus = np.exp(rng.uniform(np.log([1e-3, 1e-3]), np.log([10.0, 30.0]), (100, 2))).T
            for sigma, tau in zip(sigmas, taus):
                strikes = strike_grid(ctx, tau, 0.01, 100.0)
                prices = bs_call_values(ctx.s0, *expiry_terms(ctx, tau)[1:4], strikes, sigma)
                intrinsic = np.maximum(ctx.s0 - strikes * math.exp(-rate * tau), 0.0)
                inside = (prices > intrinsic) & (prices < ctx.s0)
                vols = implied_vols(ctx, tau, strikes[inside], prices[inside])
                assert not np.any(np.isnan(vols)), (sigma, tau, rate)

    def test_prices_outside_the_bounds_unsettled(self):
        strikes = np.array([80.0, 100.0, 120.0, 100.0])
        prices = np.array([20.0, 100.0, 0.0, np.nan])
        assert np.all(np.isnan(implied_vols(CTX, 1.0, strikes, prices)))

    @pytest.mark.parametrize(
        "nodes,expiry,strike",
        [((0.01, 0.02), 0.05, 50.0), ((60.0, 80.0), 4.0, 100.0)],
        ids=["at-intrinsic", "at-spot"],
    )
    def test_grid_raises_where_no_vol_exists(self, nodes, expiry, strike):
        # the mixture price rounds onto a bound: exactly intrinsic, or exactly s0
        rule = DiscreteGiven(((0.5, nodes[0]), (0.5, nodes[1])))
        params = SliceParams(FlatParams(nodes[0]), RandomizerSpec("sigma", rule, 2))
        rs = randomize(params, CTX)
        with pytest.raises(NoImpliedVolError, match="no implied volatility exists"):
            implied_vol_grid(rs, expiry, [strike], engine="brent")

    # each price rounds onto a bound; on the expansion engine, only at points the guard escalates
    @pytest.mark.parametrize("params,ctx,expiry,strike,engine", [
        (two_sigma_nodes(0.01, 0.02), CTX, 0.05, 50.0, "brent"),
        (two_sigma_nodes(0.01, 0.02), CTX, 0.05, 50.0, "expansion"),
        (two_sigma_nodes(60.0, 80.0), CTX, 4.0, 100.0, "brent"),
        (LOGNORMAL_SIGMA, MarketContext(s0=100.0, r=0.02), 0.05, 55.0, "brent"),
        (LOGNORMAL_SIGMA, MarketContext(s0=100.0, r=0.02), 0.05, 55.0, "expansion"),
    ], ids=["at-intrinsic-brent", "at-intrinsic-expansion", "at-spot-brent", "at-intrinsic-with-rate-brent",
            "at-intrinsic-with-rate-expansion"])
    def test_grid_refuses_in_brents_words(self, params, ctx, expiry, strike, engine):
        rs = randomize(params, ctx)
        price = float(randomized_prices(rs, expiry, [strike])[0])
        with pytest.raises(NoImpliedVolError) as oracle:
            implied_vol_brent(ctx, OptionKey(expiry, strike), price)
        with pytest.raises(NoImpliedVolError) as grid:
            implied_vol_grid(rs, expiry, [strike], engine=engine)
        assert str(grid.value) == str(oracle.value)


class TestLogMoneyness:
    def test_atm_zero(self):
        assert log_moneyness(CTX, OptionKey(1.0, 100.0)) == 0.0

    def test_rate_term(self):
        ctx = MarketContext(s0=100.0, r=0.02)
        assert log_moneyness(ctx, OptionKey(2.0, 100.0)) == pytest.approx(0.04, rel=1e-14)

    def test_strike_term(self):
        assert log_moneyness(CTX, OptionKey(1.0, 80.0)) == pytest.approx(math.log(1.25), rel=1e-14)

    def test_zero_at_forward(self):
        ctx = MarketContext(s0=123.0, r=0.035)
        fwd = ctx.forward(1.7)
        assert log_moneyness(ctx, OptionKey(1.7, fwd)) == pytest.approx(0.0, abs=1e-15)


class TestInputChecks:
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"s0": math.inf}, "spot must be positive and finite, got inf"),
            ({"s0": math.nan}, "spot must be positive and finite, got nan"),
            ({"s0": 100.0, "r": math.nan}, "rate must be finite, got nan"),
        ],
    )
    def test_market_context_refuses_non_finite_input(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            MarketContext(**kwargs)

    @pytest.mark.parametrize("expiry", [math.nan, math.inf, 0.0, -1.0])
    def test_expiry_must_be_finite_and_ahead(self, expiry):
        rs = randomize(SliceParams(FlatParams(0.2)), CTX)
        for grid in (implied_vol_grid, randomized_prices):
            with pytest.raises(ValueError, match=f"expiry {expiry} must be positive and finite"):
                grid(rs, expiry, [100.0])

    @pytest.mark.parametrize("params", [
        SliceParams(FlatParams(0.2), RandomizerSpec("sigma", DiscreteGiven(((0.5, 0.15), (0.5, 0.25))), 2)),
        SliceParams(SabrParams(0.3, 0.9, -0.5, 1.0),
                    RandomizerSpec("gamma", DiscreteGiven(((0.5, 0.8), (0.5, 1.2))), 2)),
    ], ids=["sigma", "gamma"])
    @pytest.mark.parametrize("bad", [-5.0, 0.0, math.inf, math.nan])
    def test_strikes_must_be_positive_and_finite(self, bad, params):
        rs = randomize(params, CTX)
        for grid in (implied_vol_grid, randomized_prices, expansion_coefficients):
            with pytest.raises(ValueError, match=f"strikes must be positive and finite, got {bad:g}"):
                grid(rs, 1.0, [90.0, bad, 110.0])

    @pytest.mark.parametrize("params", [
        SliceParams(FlatParams(0.2), RandomizerSpec("sigma", DiscreteGiven(((0.5, 0.15), (0.5, 0.25))), 2)),
        SliceParams(SabrParams(0.3, 0.9, -0.5, 1.0),
                    RandomizerSpec("gamma", DiscreteGiven(((0.5, 0.8), (0.5, 1.2))), 2)),
    ], ids=["sigma", "gamma"])
    @pytest.mark.parametrize("grid", [
        lambda rs, k: implied_vol_grid(rs, 0.5, k, "brent"),
        lambda rs, k: implied_vol_grid(rs, 0.5, k, "expansion"),
        lambda rs, k: randomized_prices(rs, 0.5, k),
        lambda rs, k: expansion_coefficients(rs, 0.5, k),
    ], ids=["iv-brent", "iv-expansion", "prices", "coefficients"])
    def test_strikes_must_be_one_dimensional(self, grid, params):
        with pytest.raises(ValueError, match=r"strikes must be a scalar or a 1-d array, got shape \(2, 2\)"):
            grid(randomize(params, CTX), [[90.0, 100.0], [110.0, 120.0]])
