"""Tests for the flat and SABR parametrizations."""
import math

import numpy as np
import pytest

from randvol.errors import ParameterDomainError
from randvol.parametrizations import (
    FlatParams,
    RandomizerSpec,
    SabrParams,
    SliceParams,
    eval_vol,
    eval_vol_curve,
    hagan_vol,
    params_from_json,
    params_to_json,
    slice_columns,
)
from randvol.pricing import MarketContext, OptionKey
from randvol.quadrature import DiscreteGiven, Gamma, LogNormal, SpotLogNormal, quadrature_for
from randvol.randomization import _node_vols, _uniform_grid, implied_vol_grid, randomize

CTX = MarketContext(s0=100.0, r=0.0)


class TestDomains:
    def test_flat_negative_rejected(self):
        with pytest.raises(ParameterDomainError):
            FlatParams(-0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=-0.1, beta=0.9, rho=0.0, gamma=1.0),
            dict(alpha=0.3, beta=1.2, rho=0.0, gamma=1.0),
            dict(alpha=0.3, beta=0.9, rho=1.0, gamma=1.0),
            dict(alpha=0.3, beta=0.9, rho=0.0, gamma=-0.5),
        ],
    )
    def test_sabr_domain(self, kwargs):
        with pytest.raises(ParameterDomainError):
            SabrParams(**kwargs)

    def test_randomizer_target_compatibility(self):
        sigma_rand = RandomizerSpec("sigma", LogNormal(0.0, 0.1), 2)
        with pytest.raises(ParameterDomainError):
            SliceParams(SabrParams(0.3, 0.9, 0.0, 1.0), sigma_rand)
        gamma_rand = RandomizerSpec("gamma", Gamma(2.0, 0.5), 2)
        with pytest.raises(ParameterDomainError):
            SliceParams(FlatParams(0.2), gamma_rand)
        spot_rand = RandomizerSpec("spot", LogNormal(0.0, 0.1), 2)
        with pytest.raises(ParameterDomainError):
            SliceParams(FlatParams(0.2), spot_rand)


class TestEvalVol:
    def test_flat_constant(self):
        for key in (OptionKey(0.5, 80.0), OptionKey(2.0, 140.0)):
            assert eval_vol(FlatParams(0.3), CTX, key) == 0.3

    def test_sabr_atm_no_volvol(self):
        params = SabrParams(alpha=0.2, beta=1.0, rho=0.0, gamma=0.0)
        assert eval_vol(params, CTX, OptionKey(1.0, 100.0)) == pytest.approx(0.2, rel=1e-14)

    def test_sabr_atm_time_correction(self):
        # at the forward with beta=1, rho=0 only the (2-3rho^2)/24 gamma^2 term survives
        params = SabrParams(alpha=0.2, beta=1.0, rho=0.0, gamma=0.5)
        want = 0.2 * (1.0 + 2.0 / 24.0 * 0.25)
        assert eval_vol(params, CTX, OptionKey(1.0, 100.0)) == pytest.approx(want, rel=1e-13)

    def test_alpha_scaling_lognormal_case(self):
        # with beta=1 and gamma=0 the value is exactly alpha
        for c in (0.5, 2.0, 3.7):
            params = SabrParams(alpha=0.2 * c, beta=1.0, rho=0.3, gamma=0.0)
            got = eval_vol(params, CTX, OptionKey(1.0, 83.0))
            assert got == pytest.approx(0.2 * c, rel=1e-13)

    def test_continuity_across_forward(self):
        ctx = MarketContext(s0=100.0, r=0.03)
        params = SabrParams(alpha=0.3, beta=0.7, rho=-0.4, gamma=1.2)
        fwd = ctx.forward(0.75)
        center = eval_vol(params, ctx, OptionKey(0.75, fwd))
        for bump in (1 + 1e-8, 1 - 1e-8):
            nearby = eval_vol(params, ctx, OptionKey(0.75, fwd * bump))
            assert abs(nearby - center) < 1e-6

    @pytest.mark.parametrize("base", [FlatParams(0.2), SabrParams(0.3, 0.9, -0.3, 0.4)], ids=["flat", "sabr"])
    @pytest.mark.parametrize("expiry,strikes,message", [
        (-0.5, [90.0, 110.0], "expiry -0.5 must be positive"),
        (math.nan, [100.0], "expiry nan must be positive"),
        (0.5, [100.0, -5.0], "strikes must be positive and finite, got -5"),
        (0.5, [math.nan], "strikes must be positive and finite, got nan"),
        (0.5, [[90.0, 110.0]], "strikes must be a scalar or a 1-d array"),
    ], ids=["negative-expiry", "nan-expiry", "negative-strike", "nan-strike", "2-d-strikes"])
    def test_curve_checks_its_inputs_as_the_grid_does(self, base, expiry, strikes, message):
        ctx = MarketContext(s0=100.0, r=0.02)
        with pytest.raises(ValueError, match=message) as curve:
            eval_vol_curve(base, ctx, expiry, strikes)
        with pytest.raises(ValueError) as grid:
            implied_vol_grid(randomize(SliceParams(base), ctx), expiry, strikes)
        assert str(curve.value) == str(grid.value)

    def test_series_matches_direct_near_cutover(self):
        # z/x(z) must agree across the series switch at |z| = 1e-6
        params = SabrParams(alpha=0.3, beta=0.7, rho=-0.4, gamma=1.2)
        fwd = 100.0
        vols = hagan_vol(fwd, np.linspace(fwd - 0.01, fwd + 0.01, 401), 0.75, 0.3, 0.7, -0.4, 1.2)
        assert np.all(np.abs(np.diff(vols)) < 1e-6)

    def test_zero_alpha_gives_zero(self):
        assert hagan_vol(100.0, 90.0, 1.0, 0.0, 0.9, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize(
        "fwd,strike,tau,alpha,beta,rho,gamma,want",
        [
            # frozen from an independent implementation of the same formula
            (100.0, 70.0, 0.5, 0.3, 0.9, -0.6, 1.2, 0.3384228233607517),
            (100.0, 140.0, 0.5, 0.3, 0.9, -0.6, 1.2, 0.1928810590409038),
            (100.0, 55.0, 1.5, 0.25, 0.5, 0.4, 0.8, 0.12714589224964515),
            (2000.0, 2600.0, 0.25, 0.35, 1.0, -0.3, 2.0, 0.40811010765868283),
            (50.0, 50.5, 0.1, 0.18, 0.7, 0.0, 1.5, 0.057291201556508846),
        ],
    )
    def test_reference_values(self, fwd, strike, tau, alpha, beta, rho, gamma, want):
        got = hagan_vol(fwd, strike, tau, alpha, beta, rho, gamma)
        assert got == pytest.approx(want, rel=1e-13)


def node_vols(params, key):
    """Node volatilities of a randomized slice at one (T, K)."""
    rs = randomize(params, CTX)
    return _node_vols(rs, _uniform_grid(rs, key.expiry, np.array([key.strike])))[:, 0]


class TestHaganParameterArrays:
    def test_array_alpha_with_zero_matches_scalar_calls(self):
        # beta 0 and 0.5 make the float powers square roots, beta 1 makes them ones
        strikes = np.linspace(60.0, 150.0, 19)[:, None]
        gammas = np.array([[0.8, 1.5]])
        alphas, betas = [0.3, 0.0, 0.05, 1.7, 0.4], [0.9, 0.5, 1.0, 0.0, 0.5]
        rhos = [-0.4, 0.2, 0.0, 0.7, -0.1]
        got = hagan_vol(101.0, strikes, 0.7, *(np.array(v)[:, None, None] for v in (alphas, betas, rhos)), gammas)
        assert got.shape == (5, 19, 2)
        np.testing.assert_array_equal(got[1], 0.0)
        for i in (0, 2, 3, 4):
            want = hagan_vol(101.0, strikes, 0.7, alphas[i], betas[i], rhos[i], gammas)
            np.testing.assert_array_equal(got[i], want)


    def test_gathered_points_match_lone_calls(self):
        # a stacked grid passes one entry per (row, strike) pair of every input; beta 0, 0.5 and 1 make the
        # FK exponents 0.5, 0.25 and 0, where numpy's power rounds a broadcast 0.5 as a square root
        strikes = np.linspace(60.0, 150.0, 7)
        alphas, betas, rhos = [0.3, 0.2, 0.05, 0.4], [0.0, 0.5, 1.0, 0.9], [-0.4, 0.2, 0.0, 0.7]
        forwards, taus = [101.0, 101.0, 102.5, 99.0], [0.7, 0.7, 1.3, 0.2]
        rows = np.repeat(np.arange(4), strikes.size)
        gammas = np.array([[0.8], [1.5]]) * (1.0 + 0.01 * np.arange(rows.size))
        fwd, tau, alpha, beta, rho = (np.take(x, rows) for x in (forwards, taus, alphas, betas, rhos))
        got = hagan_vol(fwd, np.tile(strikes, 4), tau, alpha, beta, rho, gammas)
        for i in range(4):
            for point in ((alphas[i], betas[i], rhos[i]), ([alphas[i]], [betas[i]], [rhos[i]])):
                want = hagan_vol(forwards[i], strikes, taus[i], *point, gammas[:, rows == i])
                assert got[:, rows == i].tobytes() == want.tobytes()


class TestEvalVolAtNodes:
    def test_flat_sigma_identity(self):
        params = SliceParams(
            FlatParams(0.2),
            RandomizerSpec("sigma", DiscreteGiven(((0.5, 0.1), (0.5, 0.3))), 2),
        )
        np.testing.assert_array_equal(node_vols(params, OptionKey(1.0, 100.0)), [0.1, 0.3])

    def test_sabr_gamma_nodes_match_scalar_eval(self):
        rnd = RandomizerSpec("gamma", Gamma(3.0, 0.5), 3)
        params = SliceParams(SabrParams(0.25, 0.9, -0.135, 1.5), rnd)
        rule = quadrature_for(rnd.dist, rnd.n_q)
        key = OptionKey(0.4, 92.0)
        got = node_vols(params, key)
        want = [
            eval_vol(SabrParams(0.25, 0.9, -0.135, g), CTX, key) for g in rule.nodes
        ]
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_one_node_rule_mean(self):
        rnd = RandomizerSpec("gamma", Gamma(3.0, 0.5), 1)
        params = SliceParams(SabrParams(0.25, 0.9, -0.135, 1.5), rnd)
        key = OptionKey(0.4, 105.0)
        got = node_vols(params, key)
        assert got[0] == pytest.approx(eval_vol(SabrParams(0.25, 0.9, -0.135, 1.5), CTX, key), rel=1e-12)

    def test_spot_target_repeats_base_vol(self):
        rnd = RandomizerSpec("spot", SpotLogNormal(100.0, 0.1), 2)
        params = SliceParams(FlatParams(0.2), rnd)
        np.testing.assert_array_equal(node_vols(params, OptionKey(1.0, 100.0)), [0.2, 0.2])

    def test_negative_discrete_node_rejected(self):
        params = SliceParams(
            FlatParams(0.2),
            RandomizerSpec("sigma", DiscreteGiven(((0.5, -0.1), (0.5, 0.3))), 2),
        )
        with pytest.raises(ParameterDomainError):
            node_vols(params, OptionKey(1.0, 100.0))


class TestJson:
    def test_flat_roundtrip(self):
        params = SliceParams(FlatParams(0.25))
        assert params_from_json(params_to_json(params)) == params

    def test_sabr_with_gamma_randomizer_roundtrip(self):
        params = SliceParams(
            SabrParams(0.3, 0.9, -0.6, 1.7),
            RandomizerSpec("gamma", Gamma(1.775, 1.378), 2),
        )
        assert params_from_json(params_to_json(params)) == params

    def test_spot_dist_spot_filled_from_market(self):
        data = {
            "type": "flat",
            "sigma": 0.2,
            "randomizer": {"target": "spot", "dist": {"family": "spot-lognormal", "nu": 0.05}, "n_q": 2},
        }
        params = params_from_json(data, spot=123.0)
        assert params.randomizer.dist == SpotLogNormal(123.0, 0.05)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            params_from_json({"type": "svi"})


class TestSliceColumnsRows:
    def test_lone_slice_refuses_indexing(self):
        with pytest.raises(TypeError, match="lone slice has no rows"):
            list(slice_columns(SliceParams(FlatParams(0.2))))

    def test_stack_yields_its_rows(self):
        spec = RandomizerSpec("spot", SpotLogNormal(100.0, 0.05), 2)
        stack = [SliceParams(FlatParams(vol), spec) for vol in (0.2, 0.3)]
        rows = list(slice_columns(stack))
        assert [float(row.columns["sigma"]) for row in rows] == [0.2, 0.3]
