"""Tests for the mixture pricing surfaces and density extraction."""
import io
import math

import numpy as np
import pytest

from randvol import quadrature, randomization
from randvol.errors import (
    ExpansionRangeError, MomentOverflowError, NoImpliedVolError, ParameterDomainError, RowFailures,
)
from randvol.expansion import evaluate_polynomial, parameter_coefficients
from randvol.parametrizations import (
    FlatParams, RandomizerSpec, SabrParams, SliceColumns, SliceParams, eval_vol_curve, hagan_vol, slice_columns,
)
from randvol.pricing import (
    MarketContext, OptionKey, OptionType, bs_call_values, bs_price, expiry_terms, implied_vol_brent,
)
from randvol.quadrature import DiscreteGiven, Gamma, LogNormal, SpotLogNormal
from randvol.randomization import (
    _coefficients,
    _grid,
    _node_vols,
    _prices,
    _uniform_grid,
    count_local_maxima,
    density,
    expansion_coefficients,
    implied_vol_grid,
    implied_vol_stack,
    parse_engine,
    randomize,
    randomized_iv,
    randomized_price,
    randomized_prices,
    stacked_grid,
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


class TestNodeVols:
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
        tau = expiry
        want = np.column_stack([
            hagan_vol(CTX.forward(expiry), strikes, tau, base.alpha, base.beta, base.rho, g)
            for g in rs.rule.nodes
        ])
        np.testing.assert_array_equal(_node_vols(rs, _uniform_grid(rs, expiry, strikes)).T, want)


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
        with pytest.raises(ValueError, match="must be positive"):
            implied_vol_grid(rs, 0.0, [90.0, 110.0], engine=engine)

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


RATE_CTX = MarketContext(s0=100.0, r=0.02)
# rows 1 and 2 share an expiry and one strike array, which the grid checks once
STACK_EXPIRIES = [0.1, 0.5, 0.5, 2.0]


def stack_strikes(rng):
    shared = np.sort(rng.uniform(70.0, 140.0, 57))
    return [np.sort(rng.uniform(85.0, 115.0, 31)), shared, shared, np.sort(rng.uniform(50.0, 200.0, 44))]


def sigma_stack(levels, nu=0.2, n_q=4):
    return [SliceParams(FlatParams(level), RandomizerSpec("sigma", LogNormal(math.log(level) - 0.5 * nu**2, nu), n_q))
            for level in levels]


def gamma_stack():
    return [SliceParams(SabrParams(alpha, 0.9, rho, 1.2), RandomizerSpec("gamma", Gamma(k, 1.2 / k), 3))
            for alpha, rho, k in ((0.3, -0.5, 3.0), (0.25, -0.3, 2.5), (0.35, -0.6, 4.0), (0.2, 0.1, 3.5))]


def per_pair(strikes, per_row):
    """Each (row, strike) pair's entry of a per-row sequence, row after row."""
    return np.repeat(np.asarray(per_row), [k.size for k in strikes], axis=0)


class TestGridChecksOnce:
    """The grid checks each expiry, and each strike array at an expiry, once: rows that share neither, or only one,
    still carry their own strikes and terms."""

    @pytest.mark.parametrize("engine", ["brent", "expansion"])
    @pytest.mark.parametrize("randomizer", [
        lambda i: RandomizerSpec("gamma", Gamma(3.0 + 0.5 * i, 0.4), 2),
        lambda i: RandomizerSpec("spot", SpotLogNormal(100.0, 0.05 + 0.01 * i), 2),
    ], ids=["gamma-gamma", "spot-lognormal"])
    def test_rows_are_their_lone_calls(self, engine, randomizer):
        shared = np.linspace(80.0, 125.0, 25)
        # rows 0-2 at one expiry: one array, a distinct array of equal values, and one of another length;
        # rows 0, 3 and 4 share one array object at three expiries
        expiries = [0.5, 0.5, 0.5, 1.0, 0.25]
        strikes = [shared, shared.copy(), np.linspace(70.0, 140.0, 38), shared, shared]
        params = [SliceParams(SabrParams(0.3 - 0.02 * i, 0.9, -0.4 + 0.1 * i, 1.2), randomizer(i)) for i in range(5)]
        vols, failures = implied_vol_stack(slice_columns(params), RATE_CTX, expiries, strikes, engine)
        assert not failures.any
        for r, part in enumerate(np.split(vols, np.cumsum([k.size for k in strikes])[:-1])):
            lone = implied_vol_grid(randomize(params[r], RATE_CTX), expiries[r], strikes[r], engine)
            assert part.tobytes() == lone.tobytes()


class TestSigmaCoefficientsOncePerRow:
    def test_rows_equal_their_per_pair_evaluation(self, rng):
        rs = randomize(slice_columns(sigma_stack([0.15, 0.2, 0.3, 0.25])), RATE_CTX)
        strikes = stack_strikes(rng)
        grid = _grid(RATE_CTX, STACK_EXPIRIES, strikes)
        got = _coefficients(rs, grid, _node_vols(rs, grid))
        row = per_pair(strikes, range(4))
        want = parameter_coefficients(rs.rule.weights[row], rs.rule.nodes[row], per_pair(strikes, STACK_EXPIRIES))
        assert got.shape == (4, row.size)
        assert got.tobytes() == want.tobytes()

    def test_failing_row_is_marked_as_its_pairs_mark_it(self, rng):
        # a zero sigma node is a legal rule, but no parameter expansion can be formed on it
        rules = [((0.5, 0.1), (0.5, 0.3)), ((0.3, 0.2), (0.7, 0.25)), ((0.5, 0.0), (0.5, 0.3)), ((0.6, 0.15), (0.4, 0.2))]
        params = [SliceParams(FlatParams(0.2), RandomizerSpec("sigma", DiscreteGiven(rule), 2)) for rule in rules]
        cols = slice_columns(params)
        rs = randomize(cols, RATE_CTX)
        strikes = stack_strikes(rng)
        grid = _grid(RATE_CTX, STACK_EXPIRIES, strikes)
        failures = RowFailures(4)
        _coefficients(rs, grid, _node_vols(rs, grid), failures)
        row = per_pair(strikes, range(4))
        pairs = RowFailures(row.size)
        parameter_coefficients(rs.rule.weights[row], rs.rule.nodes[row], per_pair(strikes, STACK_EXPIRIES),
                               failures=pairs)
        assert failures.bad.tolist() == (np.bincount(row, pairs.bad, 4) > 0).tolist() == [False, False, True, False]
        assert type(failures.error) is type(pairs.error) is ExpansionRangeError
        assert str(failures.error) == str(pairs.error)
        with pytest.raises(ExpansionRangeError, match="strictly positive node vols"):
            _coefficients(rs, grid, _node_vols(rs, grid))
        vols, stacked = implied_vol_stack(cols, RATE_CTX, STACK_EXPIRIES, strikes, "expansion")
        assert stacked.bad.tolist() == [False, False, True, False]
        for r, part in enumerate(np.split(vols, np.cumsum([k.size for k in strikes])[:-1])):
            if r == 2:
                assert np.isnan(part).all()
            else:
                lone = implied_vol_grid(randomize(params[r], RATE_CTX), STACK_EXPIRIES[r], strikes[r], "expansion")
                assert part.tobytes() == lone.tobytes()


def pair_major_values(rs, expiry, strikes):
    """Each node's call values as the node-last layout formed them: (strikes, n_q), from node vols of their own."""
    tau, n_q = expiry, rs.rule.size
    cols = {name: float(value) for name, value in rs.columns.columns.items() if np.ndim(value) == 0}
    if rs.target == "sigma":
        vols = np.broadcast_to(rs.rule.nodes, (strikes.size, n_q))
    elif rs.target == "gamma":
        vols = hagan_vol(rs.ctx.forward(expiry), strikes[:, None], tau, cols["alpha"], cols["beta"], cols["rho"],
                         rs.rule.nodes[None, :])
    else:
        base = FlatParams(cols["sigma"])
        vols = np.broadcast_to(eval_vol_curve(base, rs.ctx, expiry, strikes)[:, None], (strikes.size, n_q))
    spot = rs.rule.nodes[None, :] if rs.target == "spot" else rs.ctx.s0
    return bs_call_values(spot, *expiry_terms(rs.ctx, expiry)[1:4], strikes[:, None], vols)


def pair_major_prices(rs, expiry, strikes):
    """Mixture prices from `pair_major_values`: each pair's weighted nodes added one after another, in node order."""
    weighted = pair_major_values(rs, expiry, strikes) * rs.rule.weights
    total = weighted[:, 0]
    for i in range(1, rs.rule.size):
        total = total + weighted[:, i]
    return total


def pair_major_gemv(rs, expiry, strikes):
    """Mixture prices as they were once formed: one gemv of `pair_major_values` against the weights."""
    n_q = rs.rule.size
    values = pair_major_values(rs, expiry, strikes)
    return np.matmul(values.reshape(1, strikes.size, n_q), rs.rule.weights.reshape(1, n_q, 1)).ravel()


def node_slice(target, n_q):
    """A lone slice of each randomization target on ``n_q`` nodes."""
    return {
        "sigma": sigma_stack([0.2], n_q=n_q)[0],
        "gamma": SliceParams(SabrParams(0.3, 0.9, -0.5, 1.2), RandomizerSpec("gamma", Gamma(3.0, 0.4), n_q)),
        "spot": SliceParams(FlatParams(0.25), RandomizerSpec("spot", SpotLogNormal(100.0, 0.1), n_q)),
    }[target]


class TestPricePathUnchanged:
    @pytest.mark.parametrize("params", [
        sigma_stack([0.2])[0],
        gamma_stack()[0],
        SliceParams(FlatParams(0.25), RandomizerSpec("spot", SpotLogNormal(100.0, 0.1), 3)),
    ], ids=["sigma", "gamma", "spot"])
    def test_prices_equal_the_pair_major_node_adds(self, params):
        rs = randomize(params, RATE_CTX)
        strikes = np.linspace(60.0, 160.0, 101)
        assert randomized_prices(rs, 0.5, strikes).tobytes() == pair_major_prices(rs, 0.5, strikes).tobytes()

    @pytest.mark.parametrize("n_q", [2, 4, 10])
    @pytest.mark.parametrize("target", ["sigma", "gamma", "spot"])
    def test_node_adds_are_within_n_q_minus_1_ulps_of_the_gemv(self, target, n_q):
        # both sum the same positive terms in n_q - 1 adds, each rounding to half an ulp of a partial sum no larger
        # than the price; measured, the gap is at most 1, 2 and 3 ulps at 2, 4 and 10 nodes
        rs = randomize(node_slice(target, n_q), RATE_CTX)
        strikes = np.linspace(40.0, 250.0, 2_001)
        for expiry in (0.1, 0.5, 2.0):
            gemv = pair_major_gemv(rs, expiry, strikes)
            gap = np.abs(randomized_prices(rs, expiry, strikes) - gemv)
            assert np.all(gap <= (n_q - 1) * np.spacing(gemv))

    @pytest.mark.parametrize("params", [sigma_stack([0.15, 0.2, 0.3, 0.25]), gamma_stack()], ids=["sigma", "gamma"])
    def test_stacked_rows_price_as_lone_slices(self, rng, params):
        # each row's node sums are over its own pairs alone, for all of them and for a selection
        rs = randomize(slice_columns(params), RATE_CTX)
        strikes = stack_strikes(rng)
        grid = _grid(RATE_CTX, STACK_EXPIRIES, strikes)
        vols = _node_vols(rs, grid)
        sel = np.flatnonzero(rng.uniform(size=vols.shape[1]) < 0.3)
        ends = np.cumsum([k.size for k in strikes])
        parts = np.split(_prices(rs, grid, vols), ends[:-1])
        picked = np.split(_prices(rs, grid, vols, sel), np.searchsorted(sel, ends)[:-1])
        for r, (part, some) in enumerate(zip(parts, picked)):
            lone = randomize(params[r], RATE_CTX)
            assert part.tobytes() == randomized_prices(lone, STACK_EXPIRIES[r], strikes[r]).tobytes()
            mine = sel[(sel >= ends[r] - strikes[r].size) & (sel < ends[r])] - (ends[r] - strikes[r].size)
            assert some.tobytes() == randomized_prices(lone, STACK_EXPIRIES[r], strikes[r][mine]).tobytes()


class TestOverflowingNodeVols:
    @pytest.mark.parametrize("call", [
        lambda rs: implied_vol_grid(rs, 0.5, [90.0, 100.0, 110.0]),
        lambda rs: randomized_prices(rs, 0.5, [90.0, 100.0, 110.0]),
        lambda rs: expansion_coefficients(rs, 0.5, [90.0, 100.0, 110.0]),
    ], ids=["iv", "price", "coefficients"])
    def test_public_entries_raise(self, call):
        # Hagan's formula overflows: the typed error, and no floating-point warning (the suite makes them errors)
        rs = randomize(SliceParams(SabrParams(0.3, 0.9, -0.5, 1e150)), RATE_CTX)
        with pytest.raises(ParameterDomainError, match="node vols must be finite"):
            call(rs)

    def test_hagan_vol_itself_still_warns(self):
        with pytest.warns(RuntimeWarning, match="overflow encountered"):
            hagan_vol(RATE_CTX.forward(0.5), np.array([90.0, 110.0]), 0.5, 0.3, 0.9, -0.5, 1e150)

    @pytest.mark.parametrize("engine", ["brent", "expansion"])
    def test_stack_marks_the_row(self, rng, engine):
        params = [SliceParams(SabrParams(0.3, 0.9, -0.5, gamma)) for gamma in (1.0, 0.5, 1e150, 0.8)]
        strikes = stack_strikes(rng)
        vols, failures = implied_vol_stack(slice_columns(params), RATE_CTX, STACK_EXPIRIES, strikes, engine)
        assert failures.bad.tolist() == [False, False, True, False]
        assert isinstance(failures.error, ParameterDomainError)
        for r, part in enumerate(np.split(vols, np.cumsum([k.size for k in strikes])[:-1])):
            if r == 2:
                assert np.isnan(part).all()
            else:
                lone = implied_vol_grid(randomize(params[r], RATE_CTX), STACK_EXPIRIES[r], strikes[r], engine)
                assert part.tobytes() == lone.tobytes()


def discrete_stack(target, rules):
    """Flat slices at sigma 0.2 on explicit two-node rules, as columns: no rule is checked on the way in."""
    points = np.array(rules, dtype=float)
    return SliceColumns(target, "discrete", 2,
                        {"sigma": np.full(len(rules), 0.2), "weights": points[..., 0], "nodes": points[..., 1]})


class TestBorrowedRule:
    """A row whose rule fails its checks is evaluated on its own rule, reads NaN, and leaves the others as they are."""

    @pytest.mark.parametrize("engine", ["brent", "expansion"])
    @pytest.mark.parametrize("cols,failing,message", [
        # an off-center spot rule is a legal rule: it fails at the node check
        (discrete_stack("spot", [((0.5, 90.0), (0.5, 110.0)), ((0.5, 80.0), (0.5, 90.0)),
                                 ((0.25, 70.0), (0.75, 110.0)), ((0.5, 80.0), (0.5, 90.0))]),
         [1, 3], "not centered at the spot"),
        # a negative weight passes the rule builder and fails the rule's own checks
        (discrete_stack("sigma", [((-0.5, 0.1), (1.5, 0.3)), ((0.5, 0.15), (0.5, 0.25)),
                                  ((0.3, 0.2), (0.7, 0.3)), ((0.4, 0.1), (0.6, 0.2))]),
         [0], "weights must be nonnegative"),
        # NaN passes the sum, sign and order checks: the finiteness check refuses it
        (discrete_stack("sigma", [((0.5, 0.15), (0.5, 0.25)), ((0.5, math.nan), (0.5, 0.2)),
                                  ((math.nan, 0.2), (0.5, 0.3)), ((0.4, 0.1), (0.6, 0.2))]),
         [1, 2], "weights and nodes must be finite"),
    ], ids=["node-check", "rule-check", "nan-rule"])
    def test_failing_rows_read_nan_and_spare_the_others(self, rng, engine, cols, failing, message):
        strikes = stack_strikes(rng)
        vols, failures = implied_vol_stack(cols, RATE_CTX, STACK_EXPIRIES, strikes, engine)
        assert np.flatnonzero(failures.bad).tolist() == failing
        assert message in str(failures.error)
        for r, part in enumerate(np.split(vols, np.cumsum([k.size for k in strikes])[:-1])):
            if r in failing:
                assert np.isnan(part).all()
            else:
                lone = implied_vol_grid(randomize(cols[r], RATE_CTX), STACK_EXPIRIES[r], strikes[r], engine)
                assert part.tobytes() == lone.tobytes()

    @pytest.mark.parametrize("failing", [False, True])
    def test_rules_are_checked_once(self, rng, monkeypatch, failing):
        rules = [((0.5, 0.15), (0.5, 0.25)), ((0.3, 0.2), (0.7, 0.3)), ((0.4, 0.1), (0.6, 0.2)),
                 ((0.5, 0.1), (0.5, 0.3))]
        if failing:
            rules[1] = ((-0.5, 0.1), (1.5, 0.3))
        checked, real = [], quadrature._check_rules

        def counting(w, x, failures=None):
            checked.append(w.shape)
            return real(w, x, failures)

        monkeypatch.setattr(quadrature, "_check_rules", counting)
        monkeypatch.setattr(randomization, "_check_rules", counting)
        cols = discrete_stack("sigma", rules)
        strikes = stack_strikes(rng)
        vols, failures = implied_vol_stack(cols, RATE_CTX, STACK_EXPIRIES, strikes, "brent")
        assert checked == [(4, 2)]
        assert failures.bad.tolist() == [False, failing, False, False]
        monkeypatch.undo()
        for r, part in enumerate(np.split(vols, np.cumsum([k.size for k in strikes])[:-1])):
            if not failures.bad[r]:
                lone = implied_vol_grid(randomize(cols[r], RATE_CTX), STACK_EXPIRIES[r], strikes[r], "brent")
                assert part.tobytes() == lone.tobytes()

    @pytest.mark.parametrize("engine", ["brent", "expansion"])
    def test_every_row_failing_reads_nan_with_the_first_error(self, rng, engine):
        # row 2 fails the rule checks, which come before the node check that fails the others: its error is first
        cols = discrete_stack("spot", [((0.5, 80.0), (0.5, 90.0)), ((0.5, 85.0), (0.5, 90.0)),
                                       ((-0.5, 80.0), (1.5, 110.0)), ((0.5, 70.0), (0.5, 90.0))])
        strikes = stack_strikes(rng)
        vols, failures = implied_vol_stack(cols, RATE_CTX, STACK_EXPIRIES, strikes, engine)
        assert failures.bad.all()
        assert vols.shape == (sum(k.size for k in strikes),) and np.isnan(vols).all()
        with pytest.raises(ValueError) as lone:
            randomize(cols, RATE_CTX)
        assert "weights must be nonnegative" in str(lone.value)
        assert type(failures.error) is type(lone.value) and str(failures.error) == str(lone.value)


class TestMomentOverflowRow:
    """A row whose moments overflow is marked alone: `rule_rows` builds it on a substitute recurrence, which keeps
    the eigensolver off a non-finite Jacobi matrix, and every other row reads as it does alone."""

    @pytest.mark.parametrize("engine", ["brent", "expansion"])
    @pytest.mark.parametrize("n_q", [2, 3])  # at 3 nodes, eigh fails the whole stack on the row's own recurrence
    def test_marked_alone_and_spares_the_others(self, rng, engine, n_q):
        params = [sigma_stack([0.2], nu=nu, n_q=n_q)[0] for nu in (0.2, 30.0, 0.3)]
        expiries, strikes = STACK_EXPIRIES[1:], stack_strikes(rng)[1:]
        vols, failures = implied_vol_stack(slice_columns(params), RATE_CTX, expiries, strikes, engine)
        assert failures.bad.tolist() == [False, True, False]
        assert isinstance(failures.error, MomentOverflowError)
        parts = np.split(vols, np.cumsum([k.size for k in strikes])[:-1])
        assert np.isnan(parts[1]).all()
        for r in (0, 2):
            lone = implied_vol_grid(randomize(params[r], RATE_CTX), expiries[r], strikes[r], engine)
            assert parts[r].tobytes() == lone.tobytes()
        with pytest.raises(MomentOverflowError):
            randomize(params[1], RATE_CTX)


class TestVectorInversionOnly:
    """Every grid path inverts by the vector pass alone, refusals included: scalar Brent is the tests' oracle."""

    # the sigma-lognormal slice whose call at K = 55, T = 0.05 rounds onto its intrinsic value
    SLICE = sigma_stack([0.2])[0]

    @pytest.fixture(autouse=True)
    def no_brent(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid path called scalar Brent")

        monkeypatch.setattr(randomization, "implied_vol_brent", refuse)

    @pytest.mark.parametrize("engine", ["brent", "expansion"])
    def test_first_refused_point_is_named(self, engine):
        # K = 45 and K = 55 refuse; every strike is past the guard, so both engines invert the whole grid
        rs, strikes = randomize(self.SLICE, RATE_CTX), [45.0, 50.0, 55.0]
        with pytest.raises(NoImpliedVolError) as grid:
            implied_vol_grid(rs, 0.05, strikes, engine)
        with pytest.raises(NoImpliedVolError) as oracle:
            implied_vol_brent(RATE_CTX, OptionKey(0.05, 45.0), float(randomized_prices(rs, 0.05, strikes)[0]))
        assert str(grid.value) == str(oracle.value)

    @pytest.mark.parametrize("engine", ["brent", "expansion:6"])
    def test_wide_grid_settles(self, engine, caplog):
        vols = implied_vol_grid(randomize(self.SLICE, RATE_CTX), 0.5, np.linspace(40.0, 250.0, 41), engine)
        assert np.all(np.isfinite(vols) & (vols > 0.0))
        assert ("expansion guard tripped at 21 of 41" in caplog.text) == (engine != "brent")

    @pytest.mark.parametrize("engine", ["brent", "expansion"])
    @pytest.mark.parametrize("refusing", [[1], [1, 3]])
    def test_stack_marks_the_refusing_rows_alone(self, engine, refusing):
        params = sigma_stack([0.25, 0.2, 0.3, 0.2])
        expiries = [0.5, 0.05, 1.0, 0.05 if 3 in refusing else 0.25]
        strikes = [np.linspace(60.0, 160.0, 21), np.array([55.0, 60.0, 100.0]), np.linspace(40.0, 250.0, 41),
                   np.array([45.0, 100.0])]
        vols, failures = implied_vol_stack(slice_columns(params), RATE_CTX, expiries, strikes, engine)
        assert np.flatnonzero(failures.bad).tolist() == refusing
        with pytest.raises(NoImpliedVolError) as lone:
            implied_vol_grid(randomize(params[1], RATE_CTX), expiries[1], strikes[1], engine)
        assert type(failures.error) is NoImpliedVolError and str(failures.error) == str(lone.value)
        for r, part in enumerate(np.split(vols, np.cumsum([k.size for k in strikes])[:-1])):
            if r in refusing:
                assert np.isnan(part).all()
            else:
                lone = implied_vol_grid(randomize(params[r], RATE_CTX), expiries[r], strikes[r], engine)
                assert np.isfinite(part).all() and part.tobytes() == lone.tobytes()


# stacked_grid's rows: the four randomizers, each slice a lone one, some stacking with another of their kind
STACKED_SLICES = {
    "sigma-lognormal": sigma_stack([0.2, 0.3]),
    "gamma-gamma": gamma_stack()[:2],
    "spot-lognormal": [SliceParams(FlatParams(0.2), RandomizerSpec("spot", SpotLogNormal(100.0, nu), 3))
                       for nu in (0.05, 0.1)],
    "plain-sabr": [SliceParams(SabrParams(0.3, 0.9, rho, 0.5)) for rho in (-0.3, 0.2)],
}
# and a slice on 9 nodes, where numpy's own sum over a last node axis would go pairwise
ROW_SLICES = {**STACKED_SLICES, "sigma-lognormal-9": sigma_stack([0.2, 0.3], n_q=9)}


class TestStackedGrid:
    """`stacked_grid` gives each row bit for bit its lone call, and packs rows into passes of at most 4,096 pairs."""

    @pytest.mark.parametrize("prices", [False, True], ids=["iv", "price"])
    @pytest.mark.parametrize("engine", ["brent", "expansion"])
    @pytest.mark.parametrize("counts", [[40, 40, 40, 40], [40, 7, 90, 1]], ids=["equal-rows", "unequal-rows"])
    @pytest.mark.parametrize("kinds", [[name] for name in ROW_SLICES] + [list(STACKED_SLICES)],
                             ids=list(ROW_SLICES) + ["mixed"])
    def test_rows_equal_their_lone_calls(self, kinds, counts, engine, prices):
        rng = np.random.default_rng(sum(counts))
        members = [randomize(p, RATE_CTX) for name in kinds for p in ROW_SLICES[name]]
        slices = [members[3 * i % len(members)] for i in range(len(counts))]  # "mixed" interleaves its stacks
        expiries = [0.25, 0.5, 0.5, 2.0]
        # wide enough that the expansion guard escalates some strikes to the exact inversion
        strikes = [100.0 * np.exp(rng.uniform(-0.6, 0.6, n)) for n in counts]
        got = stacked_grid(slices, expiries, strikes, prices, engine)
        for rs, expiry, k, row in zip(slices, expiries, strikes, got):
            if prices and engine == "brent":
                want = randomized_prices(rs, expiry, k)
            else:
                want = implied_vol_grid(rs, expiry, k, engine)
                if prices:
                    want = bs_call_values(rs.ctx.s0, *expiry_terms(rs.ctx, expiry)[1:4], k, want)
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("counts,passes", [
        ([250] * 8, [[250] * 8]),
        ([12_500] * 8, [[12_500]] * 8),
        ([100, 5_000, 100], [[100], [5_000], [100]]),
        ([3_000, 1_000, 96, 1], [[3_000, 1_000, 96], [1]]),
    ])
    def test_rows_pack_into_passes(self, monkeypatch, counts, passes):
        seen, row_pass = [], randomization._row_pass
        monkeypatch.setattr(randomization, "_row_pass", lambda slices, expiry, grid, *args: (
            seen.append(grid.counts), row_pass(slices, expiry, grid, *args))[1])
        rs = randomize(gamma_stack()[0], RATE_CTX)
        got = stacked_grid([rs] * len(counts), [0.5] * len(counts), [np.linspace(80.0, 120.0, n) for n in counts],
                           prices=True)
        assert seen == passes and [row.size for row in got] == counts

    @pytest.mark.parametrize("prices,engine,lone_call", [
        (False, "brent", "implied_vol_grid"),
        (True, "expansion", "implied_vol_grid"),
        (True, "brent", "randomized_prices"),
    ])
    def test_a_row_alone_is_its_lone_call(self, monkeypatch, prices, engine, lone_call):
        calls, lone = [], getattr(randomization, lone_call)
        monkeypatch.setattr(randomization, lone_call, lambda rs, expiry, strikes, *args: (
            calls.append(np.size(strikes)), lone(rs, expiry, strikes, *args))[1])
        rs = randomize(gamma_stack()[0], RATE_CTX)
        counts = [100, 5_000, 100, 100]  # passes [100], [5,000], [100, 100]
        stacked_grid([rs] * 4, [0.5, 1.0, 1.5, 2.0], [np.linspace(80.0, 120.0, n) for n in counts], prices, engine)
        assert calls == [100, 5_000]

    def test_slices_that_do_not_stack_take_a_pass_each(self, monkeypatch):
        seen, row_pass = [], randomization._row_pass
        monkeypatch.setattr(randomization, "_row_pass", lambda slices, *args: (
            seen.append(slices[0].target), row_pass(slices, *args))[1])
        slices = [randomize(p, RATE_CTX) for name in STACKED_SLICES for p in STACKED_SLICES[name]]
        stacked_grid(slices, [0.5] * len(slices), [np.array([90.0, 100.0])] * len(slices))
        assert seen == ["sigma", "gamma", "spot", "gamma"]

    def test_every_grid_is_checked_before_any_pass(self, monkeypatch):
        monkeypatch.setattr(randomization, "_row_pass", lambda *args: pytest.fail("a pass ran"))
        rs = randomize(gamma_stack()[0], RATE_CTX)
        strikes = [np.linspace(80.0, 120.0, 5_000), np.array([90.0, -5.0])]
        with pytest.raises(ValueError, match="strikes must be positive and finite, got -5"):
            stacked_grid([rs, rs], [0.5, 1.0], strikes)
