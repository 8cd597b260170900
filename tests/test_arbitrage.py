"""Tests for the no-arbitrage checkers and total-variance interpolation."""
import math

import numpy as np
import pytest

from randvol.arbitrage import (
    SliceSet,
    check_butterfly,
    check_calendar,
    default_strike_grid,
    interp_total_variance,
)
from randvol.errors import ExtrapolationError
from randvol.parametrizations import FlatParams, RandomizerSpec, SabrParams, SliceParams
from randvol.pricing import MarketContext, OptionKey, bs_price
from randvol.quadrature import Gamma
from randvol.randomization import randomize, randomized_prices

CTX = MarketContext(s0=100.0, r=0.02)


def bs_price_fn(sigma, ctx=CTX):
    def price(expiry, strikes):
        return np.array(
            [bs_price(ctx, OptionKey(expiry, float(k)), sigma) for k in np.atleast_1d(strikes)]
        )

    return price


class TestDefaultStrikeGrid:
    @pytest.mark.parametrize(
        "lo,hi,bad",
        [
            (-1.0, 3.0, "lo must be positive and finite, got -1.0"),
            (0.0, 3.0, "lo must be positive and finite, got 0.0"),
            (0.3, math.inf, "hi must be positive and finite, got inf"),
            (0.3, math.nan, "hi must be positive and finite, got nan"),
        ],
    )
    def test_bad_bound_named(self, lo, hi, bad):
        with pytest.raises(ValueError, match=bad):
            default_strike_grid(CTX, 1.0, 11, lo, hi)


class TestButterfly:
    def test_black_scholes_slice_passes(self):
        grid = default_strike_grid(CTX, 1.0)
        report = check_butterfly(bs_price_fn(0.25), 1.0, grid, CTX)
        assert report.passed

    def test_concave_prices_flagged(self):
        grid = np.linspace(50.0, 150.0, 60)
        base = np.maximum(CTX.s0 - grid, 0.0)

        def price(expiry, strikes):
            strikes = np.atleast_1d(strikes)
            # a hump makes the vector locally concave
            return np.interp(strikes, grid, base + 5 * np.exp(-((grid - 100) / 10) ** 2))

        report = check_butterfly(price, 1.0, grid, CTX)
        assert not report.passed
        assert report.butterfly_violations

    def test_table4_randomized_sabr_slice_passes(self):
        params = SliceParams(
            SabrParams(alpha=0.335, beta=0.9, rho=-0.7, gamma=1.775 * 1.378),
            RandomizerSpec("gamma", Gamma(1.775, 1.378), 2),
        )
        rs = randomize(params, CTX)
        expiry = 16.0 / 365.0
        grid = default_strike_grid(CTX, expiry, n=201, lo=0.5, hi=1.5)
        report = check_butterfly(lambda t, ks: randomized_prices(rs, t, ks), expiry, grid, CTX)
        assert report.passed

    def test_far_strike_limit_flagged(self):
        def sticky_price(expiry, strikes):
            return np.full(np.atleast_1d(strikes).shape, 50.0)

        grid = np.linspace(50.0, 150.0, 60)
        report = check_butterfly(sticky_price, 1.0, grid, CTX)
        assert any(v.side == "far_strike_limit" for v in report.bound_violations)

    def test_grid_too_coarse(self):
        with pytest.raises(ValueError, match="coarse"):
            check_butterfly(bs_price_fn(0.2), 1.0, np.linspace(80, 120, 30), CTX)

    def test_one_price_call_holding_grid_and_far_strike(self):
        calls = []

        def price(expiry, strikes):
            calls.append((expiry, strikes))
            return bs_price_fn(0.25)(expiry, strikes)

        grid = default_strike_grid(CTX, 0.5)
        assert check_butterfly(price, 0.5, grid, CTX).passed
        assert len(calls) == 1 and calls[0][0] == 0.5
        np.testing.assert_array_equal(calls[0][1], np.append(grid, 10.0 * CTX.forward(0.5)))

    def test_negative_rate_black_scholes_slice_passes(self):
        # a call's lower bound is s0 - K e^(-rT), above s0 - K when r < 0
        ctx = MarketContext(s0=1.0, r=-0.01)
        rs = randomize(SliceParams(FlatParams(0.025)), ctx)
        report = check_butterfly(lambda t, ks: randomized_prices(rs, t, ks), 1.0,
                                 default_strike_grid(ctx, 1.0), ctx)
        assert report.passed, report.to_json()

    def test_price_below_discounted_bound_flagged(self):
        # above max(s0 - K, 0) but below max(s0 - K e^(-rT), 0) for every strike below the forward
        ctx = MarketContext(s0=100.0, r=0.05)
        grid = default_strike_grid(ctx, 1.0)
        report = check_butterfly(lambda t, ks: np.maximum(ctx.s0 - ks, 0.0) + 1e-6 * ctx.s0, 1.0, grid, ctx)
        flagged = [v.strike for v in report.bound_violations if v.side == "below_intrinsic"]
        assert len(flagged) == 105
        assert flagged == grid[grid < ctx.forward(1.0)].tolist()


class TestCalendar:
    def test_equal_flat_slices_pass(self):
        entries = (
            (0.5, randomize(SliceParams(FlatParams(0.2)), CTX)),
            (1.0, randomize(SliceParams(FlatParams(0.2)), CTX)),
        )
        grid = np.linspace(70.0, 140.0, 15)
        report = check_calendar(SliceSet(entries), grid)
        assert report.passed

    def test_decreasing_total_variance_flagged(self):
        entries = (
            (0.5, randomize(SliceParams(FlatParams(0.3)), CTX)),
            (1.0, randomize(SliceParams(FlatParams(0.1)), CTX)),
        )
        report = check_calendar(SliceSet(entries), np.linspace(70.0, 140.0, 15))
        assert not report.passed
        worst = report.calendar_violations[0]
        assert worst.magnitude == pytest.approx(0.3**2 * 0.5 - 0.1**2 * 1.0, rel=1e-12)

    def test_four_calibrated_slices_pass(self):
        # a term structure shaped like a short-dated index calibration:
        # alpha roughly level, vol-of-vol variance decaying with expiry
        rows = (
            (16 / 365, 0.335, -0.7, 1.775, 1.378),
            (51 / 365, 0.319, -0.681, 3.872, 0.455),
            (79 / 365, 0.318, -0.674, 3.032, 0.446),
            (107 / 365, 0.338, -0.687, 4.916, 0.271),
        )
        entries = []
        for expiry, alpha, rho, k, theta in rows:
            params = SliceParams(
                SabrParams(alpha, 0.9, rho, k * theta),
                RandomizerSpec("gamma", Gamma(k, theta), 2),
            )
            entries.append((expiry, randomize(params, CTX)))
        report = check_calendar(SliceSet(tuple(entries)), np.linspace(50.0, 150.0, 25))
        assert report.passed

    def test_one_implied_vol_call_per_slice(self):
        class CountingSlice:
            def __init__(self, sigma):
                self.rs, self.calls = randomize(SliceParams(FlatParams(sigma)), CTX), 0

            def implied_vol(self, expiry, strikes):
                self.calls += 1
                return self.rs.implied_vol(expiry, strikes)

        slices = [CountingSlice(0.2), CountingSlice(0.21), CountingSlice(0.22)]
        entries = tuple(zip((0.5, 1.0, 1.5), slices))
        assert check_calendar(SliceSet(entries), np.linspace(70.0, 140.0, 15)).passed
        assert [s.calls for s in slices] == [1, 1, 1]

    def test_needs_two_slices(self):
        entries = ((0.5, randomize(SliceParams(FlatParams(0.2)), CTX)),)
        with pytest.raises(ValueError):
            check_calendar(SliceSet(entries), np.linspace(70, 140, 10))

    def test_slice_set_ordering_enforced(self):
        entries = (
            (1.0, randomize(SliceParams(FlatParams(0.2)), CTX)),
            (0.5, randomize(SliceParams(FlatParams(0.2)), CTX)),
        )
        with pytest.raises(ValueError):
            SliceSet(entries)


class TestInterpolation:
    def flat_set(self, vols=(0.2, 0.25), expiries=(1.0, 2.0)):
        return SliceSet(
            tuple((t, randomize(SliceParams(FlatParams(v)), CTX)) for t, v in zip(expiries, vols))
        )

    def test_endpoints_exact(self):
        sset = self.flat_set()
        assert interp_total_variance(sset, 1.0, 100.0) == pytest.approx(0.2, rel=1e-14)
        assert interp_total_variance(sset, 2.0, 100.0) == pytest.approx(0.25, rel=1e-14)

    def test_constant_total_variance_rate(self):
        sset = self.flat_set(vols=(0.2, 0.2))
        assert interp_total_variance(sset, 1.5, 90.0) == pytest.approx(0.2, rel=1e-14)

    def test_midpoint_hand_value(self):
        # (0.5*0.04*1 + 0.5*0.0625*2) / 1.5 = 0.055
        sset = self.flat_set()
        got = interp_total_variance(sset, 1.5, 100.0)
        assert got == pytest.approx(math.sqrt(0.055), rel=1e-12)

    def test_extrapolation_refused(self):
        sset = self.flat_set()
        with pytest.raises(ExtrapolationError):
            interp_total_variance(sset, 0.5, 100.0)
        with pytest.raises(ExtrapolationError):
            interp_total_variance(sset, 2.5, 100.0)

    def test_nan_expiry_refused(self):
        with pytest.raises(ExtrapolationError, match="expiry nan outside"):
            interp_total_variance(self.flat_set(), math.nan, 100.0)

    def test_interpolated_total_variance_monotone(self):
        sset = self.flat_set()
        strikes = (80.0, 100.0, 125.0)
        for strike in strikes:
            expiries = np.linspace(1.0, 2.0, 12)
            w = [interp_total_variance(sset, t, strike) ** 2 * t for t in expiries]
            assert np.all(np.diff(w) >= -1e-12)
