"""Tests for the mixture pricing surfaces and density extraction."""
import io
import math

import numpy as np
import pytest

from randvol.errors import ParameterDomainError
from randvol.expansion import evaluate_polynomial
from randvol.parametrizations import FlatParams, RandomizerSpec, SabrParams, SliceParams, eval_vol_curve, hagan_vol
from randvol.pricing import MarketContext, OptionKey, OptionType, bs_price, implied_vol_brent
from randvol.quadrature import DiscreteGiven, Gamma, LogNormal, SpotLogNormal
from randvol.randomization import (
    _node_vol_matrix,
    count_local_maxima,
    density,
    expansion_coefficients,
    implied_vol_grid,
    parse_engine,
    randomize,
    randomized_iv,
    randomized_price,
    randomized_prices,
)

CTX = MarketContext(s0=100.0, r=0.0)


def sigma_mixture(nodes_weights, sigma_level=0.2, ctx=CTX, n_q=None):
    spec = DiscreteGiven(tuple(nodes_weights))
    params = SliceParams(
        FlatParams(sigma_level), RandomizerSpec("sigma", spec, len(nodes_weights))
    )
    return randomize(params, ctx)


class TestRandomize:
    def test_spot_rule_must_be_centered(self):
        params = SliceParams(
            FlatParams(0.1),
            RandomizerSpec("spot", DiscreteGiven(((0.5, 80.0), (0.5, 90.0))), 2),
        )
        with pytest.raises(ParameterDomainError, match="centered"):
            randomize(params, CTX)

    def test_spot_recenter_flag_scales_nodes(self):
        params = SliceParams(
            FlatParams(0.1),
            RandomizerSpec("spot", DiscreteGiven(((0.5, 80.0), (0.5, 90.0))), 2),
        )
        rs = randomize(params, CTX, recenter_spot=True)
        assert rs.rule.mean() == pytest.approx(100.0, rel=1e-12)
        np.testing.assert_allclose(rs.rule.nodes[1] / rs.rule.nodes[0], 90.0 / 80.0, rtol=1e-12)

    def test_negative_sigma_node_rejected(self):
        params = SliceParams(
            FlatParams(0.1),
            RandomizerSpec("sigma", DiscreteGiven(((0.5, -0.05), (0.5, 0.3))), 2),
        )
        with pytest.raises(ParameterDomainError):
            randomize(params, CTX)

    @pytest.mark.parametrize(
        "base,target",
        [(FlatParams(0.2), "sigma"), (SabrParams(0.3, 0.9, -0.3, 1.0), "gamma")],
        ids=["flat", "sabr"],
    )
    @pytest.mark.parametrize("engine", ["brent", "expansion:6"])
    def test_plain_slice_is_one_node_rule(self, base, target, engine):
        rs = randomize(SliceParams(base), CTX)
        assert rs.rule.size == 1
        assert rs.target == target
        strikes = np.linspace(40.0, 250.0, 43)
        np.testing.assert_array_equal(
            implied_vol_grid(rs, 0.5, strikes, engine=engine),
            eval_vol_curve(base, CTX, 0.5, strikes),
        )


class TestNodeVolMatrix:
    @pytest.mark.parametrize(
        "alpha,dist,n_q",
        [
            (0.25, Gamma(3.0, 0.5), 3),
            (0.25, DiscreteGiven(((0.5, 0.0), (0.5, 3.0))), 2),
            (0.0, Gamma(3.0, 0.5), 2),
        ],
        ids=["gamma-rule", "zero-gamma-node", "zero-alpha"],
    )
    def test_gamma_slice_equals_per_node_loop(self, alpha, dist, n_q):
        base = SabrParams(alpha=alpha, beta=0.9, rho=-0.135, gamma=1.5)
        rs = randomize(SliceParams(base, RandomizerSpec("gamma", dist, n_q)), CTX)
        expiry = 0.25
        strikes = np.linspace(70.0, 140.0, 29)
        tau = expiry - CTX.t0
        want = np.column_stack([
            hagan_vol(CTX.forward(expiry), strikes, tau, base.alpha, base.beta, base.rho, g)
            for g in rs.rule.nodes
        ])
        np.testing.assert_array_equal(_node_vol_matrix(rs, expiry, strikes), want)


class TestRandomizedPrice:
    def test_one_node_rule_equals_plain_bs(self):
        params = SliceParams(
            FlatParams(0.2), RandomizerSpec("sigma", LogNormal(math.log(0.2), 0.0), 5)
        )
        rs = randomize(params, CTX)
        key = OptionKey(1.0, 105.0)
        assert randomized_price(rs, key) == pytest.approx(bs_price(CTX, key, 0.2), rel=1e-14)

    def test_intrinsic_spot_mixture(self):
        # zero base vol: the mixture prices the payoff against the node masses
        params = SliceParams(
            FlatParams(0.0),
            RandomizerSpec("spot", DiscreteGiven(((0.5, 90.0), (0.5, 110.0))), 2),
        )
        rs = randomize(params, CTX)
        assert randomized_price(rs, OptionKey(1.0, 100.0)) == pytest.approx(5.0, rel=1e-14)

    def test_flat_two_sigma_mixture_reference(self):
        rs = sigma_mixture([(0.5, 0.1), (0.5, 0.3)])
        got = randomized_price(rs, OptionKey(1.0, 100.0))
        assert got == pytest.approx((3.9878 + 11.9235) / 2, abs=1e-3)

    def test_mixture_linearity(self):
        lam = 0.37
        rs = sigma_mixture([(lam, 0.15), (1 - lam, 0.32)])
        key = OptionKey(0.8, 93.0)
        want = lam * bs_price(CTX, key, 0.15) + (1 - lam) * bs_price(CTX, key, 0.32)
        assert randomized_price(rs, key) == pytest.approx(want, rel=1e-14)

    def test_put_call_parity(self):
        rs = sigma_mixture([(0.4, 0.12), (0.6, 0.28)])
        call = randomized_price(rs, OptionKey(1.0, 104.0, OptionType.CALL))
        put = randomized_price(rs, OptionKey(1.0, 104.0, OptionType.PUT))
        assert call - put == pytest.approx(100.0 - 104.0, rel=1e-12)

    def test_butterfly_shape_on_grid(self):
        rs = sigma_mixture([(0.5, 0.1), (0.5, 0.3)])
        grid = np.linspace(40.0, 250.0, 120)
        prices = randomized_prices(rs, 1.0, grid)
        assert np.all(np.diff(prices) <= 1e-10 * CTX.s0)
        assert np.all(np.diff(prices, 2) >= -1e-10 * CTX.s0)

    def test_calendar_monotone_for_fixed_params(self):
        rs = sigma_mixture([(0.5, 0.1), (0.5, 0.3)])
        expiries = np.linspace(0.2, 2.0, 10)
        prices = [randomized_price(rs, OptionKey(t, 100.0)) for t in expiries]
        assert np.all(np.diff(prices) >= -1e-12)


class TestRandomizedIv:
    def test_one_node_recovers_base_vol(self):
        params = SliceParams(
            FlatParams(0.2), RandomizerSpec("sigma", LogNormal(math.log(0.2), 0.0), 3)
        )
        rs = randomize(params, CTX)
        vol = randomized_iv(rs, OptionKey(1.0, 100.0), engine="brent")
        assert vol == pytest.approx(0.2, abs=1e-7)

    def test_expansion_atm_matches_brent(self):
        ctx = MarketContext(s0=100.0, r=0.02)
        nu = 0.2
        params = SliceParams(
            FlatParams(0.2),
            RandomizerSpec("sigma", LogNormal(math.log(0.2) - 0.5 * nu**2, nu), 4),
        )
        rs = randomize(params, ctx)
        fwd = ctx.forward(1.0)
        key = OptionKey(1.0, fwd)
        exp0 = randomized_iv(rs, key, engine="expansion:0")
        price = randomized_price(rs, key)
        brent = implied_vol_brent(ctx, key, price, rtol=1e-15)
        assert abs(exp0 - brent) < 1e-10

    def test_expansion_tracks_brent_across_strikes(self):
        ctx = MarketContext(s0=100.0, r=0.02)
        nu = 0.2
        params = SliceParams(
            FlatParams(0.2),
            RandomizerSpec("sigma", LogNormal(math.log(0.2) - 0.5 * nu**2, nu), 4),
        )
        rs = randomize(params, ctx)
        expiry = 2.0
        ms = np.linspace(-0.3, 0.3, 31)
        strikes = ctx.s0 * np.exp(ctx.r * expiry - ms)
        by_expansion = implied_vol_grid(rs, expiry, strikes, engine="expansion:6")
        by_brent = implied_vol_grid(rs, expiry, strikes, engine="brent")
        assert np.max(np.abs(by_expansion - by_brent)) < 1e-3

    def test_guard_falls_back_to_brent(self):
        rs = sigma_mixture([(0.5, 0.1), (0.5, 0.3)])
        key = OptionKey(1.0, 220.0)  # |m| = 0.79 > default m_max
        via_guard = randomized_iv(rs, key, engine="expansion:6")
        via_brent = randomized_iv(rs, key, engine="brent")
        assert via_guard == pytest.approx(via_brent, abs=1e-12)

    def test_nonpositive_polynomial_falls_back_to_brent(self):
        # order 4 at T = 0.1 dips below zero at |m| >= 0.42, inside m_max
        ctx = MarketContext(s0=100.0, r=0.02)
        nu = 0.2
        params = SliceParams(
            FlatParams(0.2),
            RandomizerSpec("sigma", LogNormal(math.log(0.2) - 0.5 * nu**2, nu), 4),
        )
        rs = randomize(params, ctx)
        expiry = 0.1
        ms = np.linspace(-0.45, 0.45, 91)
        strikes = ctx.s0 * np.exp(ctx.r * expiry - ms)
        raw = evaluate_polynomial("parameter", expansion_coefficients(rs, expiry, strikes), ms, 4)
        nonpositive = raw <= 0.0
        assert nonpositive.sum() == 8
        vols = implied_vol_grid(rs, expiry, strikes, engine="expansion:4")
        np.testing.assert_array_equal(
            vols[nonpositive], implied_vol_grid(rs, expiry, strikes[nonpositive], engine="brent")
        )
        assert np.all(vols > 0.0)

    @pytest.mark.parametrize(
        "plain,engine",
        [(False, "brent"), (False, "expansion:6"), (True, "expansion:6")],
        ids=["brent", "expansion", "one-node"],
    )
    def test_expired_expiry_rejected(self, plain, engine):
        if plain:
            rs = randomize(SliceParams(FlatParams(0.2)), CTX)
        else:
            rs = sigma_mixture([(0.5, 0.1), (0.5, 0.3)])
        with pytest.raises(ValueError, match="must exceed"):
            implied_vol_grid(rs, CTX.t0, [90.0, 110.0], engine=engine)

    def test_unknown_engine_rejected(self):
        for engine in ("newton", "expansions", "expansion6", "expansion:"):
            with pytest.raises(ValueError, match="unknown engine"):
                parse_engine(engine)

    def test_engine_strings(self):
        assert parse_engine("brent") == ("brent", None)
        assert parse_engine("expansion:4") == ("expansion", 4)
        assert parse_engine("expansion") == ("expansion", None)


class TestDensity:
    def grid(self, lo=30.0, hi=300.0, n=800):
        return np.exp(np.linspace(math.log(lo), math.log(hi), n))

    def test_one_node_flat_is_lognormal(self):
        params = SliceParams(
            FlatParams(0.2), RandomizerSpec("sigma", LogNormal(math.log(0.2), 0.0), 1)
        )
        ctx = MarketContext(s0=100.0, r=0.03)
        rs = randomize(params, ctx)
        curve = density(rs, 1.0, self.grid())
        assert curve.mass == pytest.approx(1.0, abs=1e-3)
        assert curve.mean == pytest.approx(ctx.forward(1.0), rel=1e-3)
        # compare against the closed-form lognormal terminal density
        tau, sig = 1.0, 0.2
        x = curve.strikes
        ref = (
            np.exp(-((np.log(x / ctx.s0) - (ctx.r - 0.5 * sig**2) * tau) ** 2) / (2 * sig**2 * tau))
            / (x * sig * math.sqrt(2 * math.pi * tau))
        )
        assert np.max(np.abs(curve.values - ref)) < 1e-5

    def test_spot_lognormal_bimodal(self):
        params = SliceParams(
            FlatParams(0.1), RandomizerSpec("spot", SpotLogNormal(100.0, 0.06), 2)
        )
        rs = randomize(params, MarketContext(s0=100.0, r=0.0))
        curve = density(rs, 1.0 / 365.0, self.grid(30.0, 300.0, 501))
        assert count_local_maxima(curve.values) == 2

    def test_mean_pinned_at_forward(self):
        ctx = MarketContext(s0=100.0, r=0.05)
        params = SliceParams(
            FlatParams(0.25), RandomizerSpec("spot", SpotLogNormal(100.0, 0.08), 2)
        )
        rs = randomize(params, ctx)
        curve = density(rs, 0.5, self.grid())
        assert curve.mean == pytest.approx(ctx.forward(0.5), rel=1e-3)

    def test_grid_validation(self):
        rs = sigma_mixture([(0.5, 0.1), (0.5, 0.3)])
        with pytest.raises(ValueError, match="coarse"):
            density(rs, 1.0, np.linspace(50.0, 200.0, 20))
        bad = np.concatenate([np.linspace(50, 150, 40), np.linspace(140, 220, 40)])
        with pytest.raises(ValueError, match="increasing"):
            density(rs, 1.0, bad)

    def test_csv_format(self):
        rs = sigma_mixture([(0.5, 0.1), (0.5, 0.3)])
        curve = density(rs, 1.0, self.grid(n=60))
        buffer = io.StringIO()
        curve.to_csv(buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "strike,density"
        assert len(lines) == curve.strikes.size + 1

    def test_count_local_maxima_floor(self):
        # float ripples near zero must not register as maxima
        values = np.array([0.0, 1e-14, 0.0, 1.0, 0.5, 2.0, 0.1])
        assert count_local_maxima(values) == 2


class TestDeterministicSlice:
    """A plain slice is priced and inverted as a one-node rule."""

    def test_call_price_and_vol(self):
        s = randomize(SliceParams(SabrParams(0.3, 0.9, -0.3, 1.0)), CTX)
        vol = s.implied_vol(0.5, 95.0)
        key = OptionKey(0.5, 95.0)
        assert randomized_price(s, key) == pytest.approx(bs_price(CTX, key, vol), rel=1e-14)
