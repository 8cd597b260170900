"""Tests for liquidity selection and slice calibration."""
import contextlib
import math
import re
import threading

import numpy as np
import pytest
from scipy.linalg import svd
from scipy.optimize import least_squares
from scipy.optimize._lsq.common import solve_lsq_trust_region
from scipy.optimize._numdiff import approx_derivative

from randvol import calibration
from randvol.arbitrage import default_strike_grid
from randvol.calibration import (
    FitConfig,
    Quote,
    QuoteSet,
    build_slice_params,
    fit_slice,
    fit_surface,
    minimize,
    model_vols,
    select_liquid,
    variance_of_randomizer,
)
from randvol.errors import CalibrationError, GramMatrixError, ParameterDomainError, RandvolError, RowFailures
from randvol.parametrizations import FlatParams, RandomizerSpec, SabrParams, SliceParams, slice_columns
from randvol.pricing import MarketContext, OptionType, bs_call_values, bs_vegas, expiry_terms
from randvol.quadrature import DiscreteGiven, Gamma, LogNormal, SpotLogNormal, quadrature_for
from randvol.randomization import count_local_maxima, density, implied_vol_grid, randomize, randomized_prices

CTX = MarketContext(s0=100.0, r=0.02)


def grid_vols(params, ctx, expiry, strikes, engine):
    """`model_vols` of a sequence of SliceParams, every row at one expiry and strike grid: a (rows, strikes) array."""
    strikes = np.asarray(strikes, dtype=float)
    return model_vols(slice_columns(params), ctx, [expiry] * len(params), [strikes] * len(params),
                      engine).reshape(len(params), -1)


def public_residuals(params, cfg, ctx, expiry, strikes, market):
    """A fit's residuals at SliceParams through the public path: on gamma-gamma's exact engine the mixture's call
    prices less the quotes' Black-Scholes prices, over the quotes' vegas, or None where a price lies outside
    (intrinsic, s0); else the vol residuals."""
    rs = randomize(params, ctx)
    if not (cfg.randomizer == "gamma-gamma" and cfg.engine == "brent"):
        return implied_vol_grid(rs, expiry, strikes, engine=cfg.engine) - market
    _, r_tau, df, sqrt_tau, _ = expiry_terms(ctx, expiry)
    prices = randomized_prices(rs, expiry, strikes)
    if not ((prices > np.maximum(ctx.s0 - strikes * df, 0.0)) & (prices < ctx.s0)).all():
        return None
    calls = bs_call_values(ctx.s0, r_tau, df, sqrt_tau, strikes, market)
    return (prices - calls) / bs_vegas(ctx.s0, r_tau, sqrt_tau, strikes, market)


def make_quotes(expiry, strikes, vols, ctx=CTX):
    return QuoteSet(
        tuple(
            Quote(expiry, float(k), float(v), OptionType.CALL, 1)
            for k, v in zip(strikes, vols)
        ),
        ctx,
    )


class TestSelectLiquid:
    def test_open_interest_wins(self):
        quotes = QuoteSet(
            (
                Quote(1.0, 100.0, 0.21, OptionType.CALL, 100),
                Quote(1.0, 100.0, 0.22, OptionType.PUT, 500),
            ),
            CTX,
        )
        kept = select_liquid(quotes)
        assert len(kept) == 1
        assert kept.quotes[0].kind is OptionType.PUT

    def test_single_quote_retained(self):
        quotes = QuoteSet((Quote(1.0, 90.0, 0.3, OptionType.CALL, 0),), CTX)
        assert select_liquid(quotes).quotes == quotes.quotes

    def test_tie_breaks_to_otm_side(self):
        above_forward = CTX.forward(1.0) * 1.1
        quotes = QuoteSet(
            (
                Quote(1.0, above_forward, 0.21, OptionType.CALL, 7),
                Quote(1.0, above_forward, 0.22, OptionType.PUT, 7),
            ),
            CTX,
        )
        assert select_liquid(quotes).quotes[0].kind is OptionType.CALL
        below_forward = CTX.forward(1.0) * 0.9
        quotes = QuoteSet(
            (
                Quote(1.0, below_forward, 0.21, OptionType.CALL, 7),
                Quote(1.0, below_forward, 0.22, OptionType.PUT, 7),
            ),
            CTX,
        )
        assert select_liquid(quotes).quotes[0].kind is OptionType.PUT


class TestRandomizerVariance:
    @pytest.mark.parametrize(
        "k,theta,want",
        [(1.775, 1.378, 3.371), (3.872, 0.455, 0.802), (3.032, 0.446, 0.603), (4.916, 0.271, 0.361)],
    )
    def test_gamma_variance_reference_rows(self, k, theta, want):
        assert variance_of_randomizer(Gamma(k, theta)) == pytest.approx(want, abs=1e-3)

    def test_degenerate_lognormal(self):
        assert variance_of_randomizer(LogNormal(math.log(0.2), 0.0)) == 0.0

    def test_lognormal_closed_form(self):
        mu, nu = -1.5, 0.3
        want = (math.exp(nu**2) - 1.0) * math.exp(2 * mu + nu**2)
        assert variance_of_randomizer(LogNormal(mu, nu)) == pytest.approx(want, rel=1e-14)

    def test_spot_lognormal(self):
        assert variance_of_randomizer(SpotLogNormal(100.0, 0.1)) == pytest.approx(
            (math.exp(0.01) - 1.0) * 1e4, rel=1e-12
        )

    def test_discrete(self):
        spec = DiscreteGiven(((0.5, 1.0), (0.5, 3.0)))
        assert variance_of_randomizer(spec) == pytest.approx(1.0, rel=1e-12)


class TestFitSlice:
    def test_flat_exact_recovery(self):
        strikes = np.linspace(70, 140, 15)
        quotes = make_quotes(1.0, strikes, np.full(strikes.size, 0.2))
        cfg = FitConfig(model="flat", randomizer="none", multistart=4)
        result = fit_slice(quotes, cfg)
        assert result.params.base.sigma == pytest.approx(0.2, abs=1e-6)
        assert result.sse < 1e-10
        assert result.mse == pytest.approx(result.sse / len(quotes), rel=1e-12)

    def test_needs_enough_quotes(self):
        quotes = make_quotes(1.0, [100.0], [0.2])
        cfg = FitConfig(model="sabr", randomizer="gamma-gamma")
        with pytest.raises(CalibrationError):
            fit_slice(quotes, cfg)

    def test_quote_without_a_normal_vega_refused_before_fitting(self, monkeypatch):
        # 1 day out at 1% vol, a strike 3 times the forward has a vega that underflows to 0
        strikes = np.linspace(90.0, 110.0, 8).tolist() + [300.0]
        quotes = make_quotes(1.0 / 365.0, strikes, [0.2] * 8 + [0.01])
        monkeypatch.setattr(calibration, "model_vols", lambda *a, **k: pytest.fail("a fit started"))
        with pytest.raises(ValueError, match=re.escape(f"quote at expiry {1.0 / 365.0!r} and strike 300.0: its "
                                                       "Black-Scholes vega 0.0 at its vol 0.01 is not a positive "
                                                       "normal float")):
            fit_surface(quotes, FitConfig())

    def test_single_expiry_required(self):
        quotes = QuoteSet(
            (
                Quote(0.5, 100.0, 0.2, OptionType.CALL, 1),
                Quote(1.0, 100.0, 0.2, OptionType.CALL, 1),
            ),
            CTX,
        )
        with pytest.raises(ValueError):
            fit_slice(quotes, FitConfig(model="flat", randomizer="none"))


class TestFitConfig:
    @pytest.mark.parametrize(
        "model,randomizer,params,engine",
        [
            ("sabr", "gamma-gamma",
             SliceParams(SabrParams(0.25, 0.9, -0.2, 1.5), RandomizerSpec("gamma", Gamma(3.0, 0.5), 2)), "brent"),
            ("sabr", "spot-lognormal",
             SliceParams(SabrParams(0.3, 0.9, -0.2, 1.0), RandomizerSpec("spot", SpotLogNormal(100.0, 0.05), 2)),
             "brent"),
            ("flat", "sigma-lognormal",
             SliceParams(FlatParams(0.2), RandomizerSpec("sigma", LogNormal(math.log(0.2) - 0.02, 0.2), 4)),
             "expansion:6"),
        ],
    )
    def test_default_engine_is_the_randomizers(self, model, randomizer, params, engine):
        rs = randomize(params, CTX)
        strikes = np.linspace(80.0, 125.0, 31)
        cfg = FitConfig(model=model, randomizer=randomizer)
        np.testing.assert_array_equal(
            implied_vol_grid(rs, 0.25, strikes, engine=cfg.engine),
            implied_vol_grid(rs, 0.25, strikes, engine=engine),
        )
        # an explicit engine is honoured, and the plain prefit runs on its fit's engine
        assert FitConfig(model=model, randomizer=randomizer, engine="expansion").engine == "expansion"
        assert calibration._plain_config(cfg).engine == cfg.engine

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="'heston'"):
            FitConfig(model="heston")

    @pytest.mark.parametrize(
        "kwargs,kind",
        [
            ({"randomizer": "spot-lognormal", "model": "flat", "engine": "expansion:6"}, "spot"),
            ({"randomizer": "gamma-gamma", "engine": "expansion:5"}, "parameter"),
            ({"randomizer": "none", "engine": "expansion:5"}, "parameter"),
        ],
    )
    def test_order_the_randomizer_cannot_run_rejected(self, kwargs, kind):
        with pytest.raises(ValueError, match=f"{kind} expansion supports orders"):
            FitConfig(**kwargs)

    @pytest.mark.parametrize("key,value", [("multistart", 0), ("multistart", -2), ("budget", 0), ("budget", -5)])
    def test_count_below_one_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be at least 1, got {value}"):
            FitConfig(**{key: value})

    @pytest.mark.parametrize("randomizer", ["none", "gamma-gamma"])
    @pytest.mark.parametrize("n_q", [0, -1, 11])
    def test_node_count_outside_the_supported_range_rejected(self, n_q, randomizer):
        with pytest.raises(ValueError, match=f"n_q must be between 1 and 10, got {n_q}"):
            FitConfig(randomizer=randomizer, n_q=n_q)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            FitConfig(seed=-1)

    @pytest.mark.parametrize("model", ["flat", "sabr"])
    @pytest.mark.parametrize("beta,shown", [(2.0, "2.0"), (-0.1, "-0.1"), (math.nan, "nan")])
    def test_fixed_value_outside_its_domain_rejected(self, model, beta, shown):
        with pytest.raises(ParameterDomainError, match=re.escape(f"beta must be in [0, 1], got {shown}")):
            FitConfig(model=model, beta=beta)

    def test_beta_pins_the_fit(self, randomized_sabr_fixture):
        quotes, _ = randomized_sabr_fixture
        assert fit_slice(quotes, FitConfig(beta=0.7, multistart=2)).params.base.beta == 0.7


def run_search(search, asked=None):
    """Drive a `minimize` generator to its end, evaluating nothing itself; return its result."""
    while True:
        try:
            points = next(search)
        except StopIteration as stop:
            return stop.value
        if asked is not None:
            asked.extend(points)


def scipy_search(residuals, start, budget):
    """The least_squares call that `minimize` reproduces."""
    return least_squares(residuals, start, method="trf", max_nfev=max(budget // (len(start) + 1), 1),
                         xtol=calibration._XTOL, ftol=calibration._FTOL, gtol=calibration._GTOL)


def with_stencils(points):
    """The distinct points `minimize` asks for, in its order, given the points scipy's search evaluates in its order:
    the start and each trial come with their Jacobian's stencil, so an accepted trial's Jacobian adds nothing."""
    want = {}
    for p in points:
        if p.tobytes() not in want:  # the start or a trial
            want.update(dict.fromkeys([p.tobytes(), *(q.tobytes() for q in calibration._stencil(p))]))
    return list(want)


def rosenbrock(calls):
    # Rosenbrock residuals take dozens of iterations from (-1.2, 1)
    def residuals(x):
        calls.append(np.array(x, dtype=float))
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    return residuals


class TestMinimize:
    @pytest.mark.parametrize("budget", [3, 10, 40])
    def test_budget_counts_jacobian_evaluations(self, budget):
        calls = []
        result = run_search(minimize(rosenbrock(calls), [-1.2, 1.0], budget))
        assert len(calls) <= budget
        assert not result.success

    @pytest.mark.parametrize("budget,converges", [(3, False), (10, False), (40, False), (100, True)])
    def test_equals_least_squares(self, budget, converges):
        scipy_calls, calls, asked = [], [], []
        want = scipy_search(rosenbrock(scipy_calls), [-1.2, 1.0], budget)
        got = run_search(minimize(rosenbrock(calls), [-1.2, 1.0], budget), asked)
        assert got.x.tobytes() == want.x.tobytes()
        assert got.success == want.success == converges
        # it asks for the points scipy evaluates, in scipy's order, each trial with its stencil, and reads
        # scipy's points once, in scipy's order
        assert list(dict.fromkeys(p.tobytes() for p in asked)) == with_stencils(scipy_calls)
        assert [p.tobytes() for p in calls] == [p.tobytes() for p in scipy_calls]


def trust_region_problem(seed, m, n, rank_deficient=False):
    """solve_lsq_trust_region's inputs (n, m, U.T f, s, V) for a seeded m x n Jacobian and residual vector."""
    rng = np.random.default_rng(seed)
    J = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-2, 2)
    if rank_deficient:
        J[:, -1] = 2.0 * J[:, 0]
    U, s, Vt = svd(J, full_matrices=False)
    return n, m, U.T.dot(rng.standard_normal(m)), s, Vt.T


class TestTrustRegionStep:
    """`_trust_region_step` is scipy's solve_lsq_trust_region, bit for bit, on every path of its solve."""

    @pytest.mark.parametrize("m,n,rank_deficient,delta,path", [
        (40, 4, False, 1e6, "gauss-newton"),
        (40, 4, False, 1e-3, "secant"),
        (40, 5, True, 1e-2, "rank-deficient"),
        (3, 4, False, 1e-2, "m<n"),
        (2, 2, False, 1.0, "any"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_equals_scipy(self, m, n, rank_deficient, delta, path):
        for seed in range(25):
            n_, m_, uf, s, V = trust_region_problem(seed, m, n, rank_deficient)
            # alpha started afresh, and one carried over from a solve in a wider region, as the search carries it
            carried = solve_lsq_trust_region(n_, m_, uf, s, V, 4.0 * delta, initial_alpha=0.0)[1]
            for alpha in (0.0, float(carried)):
                want, want_alpha, iterations = solve_lsq_trust_region(n_, m_, uf, s, V, delta, initial_alpha=alpha)
                got, got_alpha = calibration._trust_region_step(n_, m_, uf, s, V, delta, alpha)
                assert got.tobytes() == want.tobytes()
                assert float(got_alpha).hex() == float(want_alpha).hex()
                if path == "gauss-newton":
                    assert iterations == 0
                elif path == "secant":
                    assert iterations >= 2
            if path == "rank-deficient":
                assert s[-1] <= np.finfo(float).eps * m * s[0]
            elif path == "m<n":
                assert s.size < n

    def test_carried_alpha_is_used(self):
        # the carried alpha changes scipy's answer, so the test above compares two different solves
        n, m, uf, s, V = trust_region_problem(1, 40, 4)
        fresh = solve_lsq_trust_region(n, m, uf, s, V, 1e-3, initial_alpha=0.0)[0]
        carried = solve_lsq_trust_region(n, m, uf, s, V, 1e-3, initial_alpha=1e4)[0]
        assert fresh.tobytes() != carried.tobytes()
        assert calibration._trust_region_step(n, m, uf, s, V, 1e-3, 1e4)[0].tobytes() == carried.tobytes()


class TestSvd:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (40, 4), (40, 5), (3, 4), (40, 5, 3), (40, 1)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equals_scipy_svd(self, rng, shape, order):
        J = rng.standard_normal(shape[:2])
        if len(shape) == 3:  # (m, n, rank): the columns past the first ``rank`` repeat earlier ones
            J[:, shape[2]:] = J[:, :shape[1] - shape[2]]
        J = np.asarray(J, order=order)
        before = J.copy()
        want, got = svd(J, full_matrices=False), calibration._svd(J)
        for a, b in zip(want, got):
            assert b.tobytes() == a.tobytes()
            assert b.shape == a.shape and b.strides == a.strides
            assert (b.flags.c_contiguous, b.flags.f_contiguous) == (a.flags.c_contiguous, a.flags.f_contiguous)
        assert J.tobytes() == before.tobytes()  # the input is left as it was


@pytest.fixture(scope="module")
def randomized_sabr_fixture():
    """40-strike quote set generated from a known randomized SABR slice."""
    expiry = 0.25
    true_params = SliceParams(
        SabrParams(alpha=0.25, beta=0.9, rho=-0.135, gamma=1.5),
        RandomizerSpec("gamma", Gamma(3.0, 0.5), 2),
    )
    rs = randomize(true_params, CTX)
    fwd = CTX.forward(expiry)
    # strike range chosen inside the expansion's high-accuracy region so
    # engine truncation does not set the objective floor
    strikes = np.linspace(0.85 * fwd, 1.15 * fwd, 40)
    vols = implied_vol_grid(rs, expiry, strikes, engine="brent")
    return make_quotes(expiry, strikes, vols), expiry


@pytest.fixture(scope="module")
def fitted_randomized(randomized_sabr_fixture):
    quotes, _ = randomized_sabr_fixture
    cfg = FitConfig(model="sabr", randomizer="gamma-gamma", n_q=2, seed=3)
    return fit_slice(quotes, cfg), cfg, quotes


class TestRandomizedSabrFit:
    def test_reproduces_quotes(self, fitted_randomized):
        result, _, _ = fitted_randomized
        assert result.mse < 1e-8
        assert result.converged

    def test_evaluation_count(self, randomized_sabr_fixture, monkeypatch):
        # least squares on the residual vector needs about 430 model
        # evaluations here; a simplex search on the SSE needs over
        # 10,000; no parameter point is evaluated twice
        quotes, _ = randomized_sabr_fixture
        calls = []
        real = calibration.model_vols

        def counting(params, *a, **k):
            # every point of a stacked call counts; a stack that raises is
            # asked again point by point, so only a lone failing point counts there
            try:
                vols = real(params, *a, **k)
            except Exception:
                if len(params) == 1:
                    calls.append(repr(params[0]))
                raise
            calls.extend(repr(p) for p in params)
            return vols

        monkeypatch.setattr(calibration, "model_vols", counting)
        fit_slice(quotes, FitConfig(model="sabr", randomizer="gamma-gamma", n_q=2, seed=3))
        assert len(calls) <= 2000
        assert len(set(calls)) == len(calls)

    def test_tiny_budget_reports_not_converged(self, randomized_sabr_fixture):
        quotes, _ = randomized_sabr_fixture
        with pytest.raises(CalibrationError) as info:
            fit_slice(quotes, FitConfig(model="sabr", randomizer="none", seed=3, budget=3))
        assert info.value.best is not None
        assert info.value.best.converged is False

    def test_plain_sabr_fits_worse(self, fitted_randomized, randomized_sabr_fixture):
        result, _, _ = fitted_randomized
        quotes, _ = randomized_sabr_fixture
        plain_cfg = FitConfig(model="sabr", randomizer="none", seed=3)
        plain = fit_slice(quotes, plain_cfg)
        assert plain.mse > result.mse
        assert plain.sse + 1e-12 >= result.sse  # nested-model dominance

    def test_transforms_keep_parameters_inside_domain(self, fitted_randomized):
        result, _, _ = fitted_randomized
        base = result.params.base
        assert 0.0 < base.alpha
        assert -0.999 <= base.rho <= 0.999
        dist = result.params.randomizer.dist
        assert dist.k > 0 and dist.theta > 0
        assert result.randomizer_variance == pytest.approx(dist.k * dist.theta**2, rel=1e-12)

    def test_engine_equivalence(self, fitted_randomized, randomized_sabr_fixture):
        # expansion accuracy must not dominate fit quality: swapping the
        # engine for the exact root finder changes sse by either < 10% or
        # an amount far below the fit-quality scale (1e-8 per quote)
        result, cfg, quotes = fitted_randomized
        strikes = np.array([q.strike for q in quotes.quotes])
        market = np.array([q.iv for q in quotes.quotes])
        refit = grid_vols([result.params], quotes.ctx, quotes.expiries()[0], strikes, "brent")[0]
        sse_brent = float(np.sum((refit - market) ** 2))
        assert abs(sse_brent - result.sse) <= 0.1 * max(result.sse, 1e-8 * len(quotes))

    def test_objective_not_worse_than_any_start(self, fitted_randomized, randomized_sabr_fixture):
        result, cfg, quotes = fitted_randomized
        from randvol.calibration import _free_parameters, _latin_starts, _values_from_vector

        free = _free_parameters(cfg)
        rng = np.random.default_rng(cfg.seed)
        starts = _latin_starts(rng, [p.start_range for p in free], cfg.multistart)
        expiry = quotes.expiries()[0]
        strikes = np.array([q.strike for q in quotes.quotes])
        market = np.array([q.iv for q in quotes.quotes])
        for start in starts:
            values = _values_from_vector(cfg, free, start)
            try:
                params = build_slice_params(cfg, values, quotes.ctx)
                model = grid_vols([params], quotes.ctx, expiry, strikes, cfg.engine)[0]
            except Exception:
                continue
            if not np.isfinite(model).all():  # a start with no exact vol: its price lies outside (intrinsic, s0)
                continue
            sse_start = float(np.sum((model - market) ** 2))
            assert result.sse <= sse_start + 1e-12


class TestNestedDominanceDegenerateBoundary:
    def test_flat_quotes_fit_by_randomized_flat(self):
        strikes = np.linspace(70, 140, 12)
        quotes = make_quotes(1.0, strikes, np.full(strikes.size, 0.25))
        plain = fit_slice(quotes, FitConfig(model="flat", randomizer="none", multistart=4))
        rand = fit_slice(
            quotes,
            FitConfig(model="flat", randomizer="sigma-lognormal", multistart=4, seed=1),
        )
        assert rand.sse <= plain.sse + 1e-12

    def test_spot_sabr_near_expiry_exact_engine(self):
        # extreme one-day W-shape: the order-4 expansion floors the
        # objective near mse ~5e-6, the exact engine recovers the
        # generating parameters to full precision
        ctx = MarketContext(s0=1496.45, r=0.02)
        expiry = 1.0 / 365.0
        true = SliceParams(
            SabrParams(alpha=0.3, beta=0.9, rho=-0.2, gamma=2.0),
            RandomizerSpec("spot", SpotLogNormal(1496.45, 0.03), 2),
        )
        rs = randomize(true, ctx)
        fwd = ctx.forward(expiry)
        strikes = np.linspace(0.96 * fwd, 1.04 * fwd, 30)
        vols = implied_vol_grid(rs, expiry, strikes, engine="brent")
        quotes = QuoteSet(
            tuple(Quote(expiry, float(k), float(v), OptionType.CALL, 1) for k, v in zip(strikes, vols)),
            ctx,
        )
        cfg = FitConfig(
            model="sabr", randomizer="spot-lognormal", n_q=2,
            seed=7, multistart=3, budget=900, engine="brent",
        )
        result = fit_slice(quotes, cfg)
        assert result.mse < 1e-12
        assert result.params.randomizer.dist.nu == pytest.approx(0.03, rel=1e-6)
        assert result.params.base.gamma == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("days", [1, 3, 7])
    def test_spot_sabr_w_shape_on_the_default_config(self, days):
        # the paper's case: the W-shaped smile of the exact-engine test above, 1 to 7 days out; a default config
        # recovers it within 1 bp RMS (a bound set from noise-free quotes, far above the exact engine's floor), plain
        # SABR misses it by at least 10 times as much, and the fitted density keeps the truth's two modes
        ctx = MarketContext(s0=1496.45, r=0.02)
        expiry = days / 365.0
        true = SliceParams(
            SabrParams(alpha=0.3, beta=0.9, rho=-0.2, gamma=2.0),
            RandomizerSpec("spot", SpotLogNormal(1496.45, 0.03), 2),
        )
        fwd = ctx.forward(expiry)
        strikes = np.linspace(0.96 * fwd, 1.04 * fwd, 30)
        quotes = make_quotes(expiry, strikes, implied_vol_grid(randomize(true, ctx), expiry, strikes, engine="brent"),
                             ctx)
        result = fit_slice(quotes, FitConfig(model="sabr", randomizer="spot-lognormal", n_q=2))
        plain = fit_slice(quotes, FitConfig(model="sabr", randomizer="none", n_q=2))
        rms_bp, plain_rms_bp = math.sqrt(result.mse) * 1e4, math.sqrt(plain.mse) * 1e4
        assert rms_bp <= 1.0
        assert plain_rms_bp >= 10.0 * rms_bp
        curve = density(randomize(result.params, ctx), expiry, default_strike_grid(ctx, expiry, n=501))
        assert count_local_maxima(curve.values) == 2

    def test_prefit_runs_only_where_its_start_is_used(self, randomized_sabr_fixture, monkeypatch):
        # gamma-gamma's embedding fails its moment check here, so its fit runs no plain (one-node) prefit; the
        # spot-lognormal embedding of the prefit scores finite on the 1-day W-shape, so that fit keeps its prefit
        families, embedded = [], []
        real_vols, real_embedding = calibration.model_vols, calibration._degenerate_embedding
        monkeypatch.setattr(calibration, "model_vols",
                            lambda cols, *a, **k: families.append(cols.family) or real_vols(cols, *a, **k))
        monkeypatch.setattr(calibration, "_degenerate_embedding",
                            lambda *a: embedded.append(real_embedding(*a)) or embedded[-1])
        quotes, _ = randomized_sabr_fixture
        fit_slice(quotes, FitConfig(model="sabr", randomizer="gamma-gamma", n_q=2, seed=3))
        assert set(families) == {"gamma"} and embedded == []
        families.clear()
        ctx, expiry = MarketContext(s0=1496.45, r=0.02), 1.0 / 365.0
        true = SliceParams(SabrParams(alpha=0.3, beta=0.9, rho=-0.2, gamma=2.0),
                           RandomizerSpec("spot", SpotLogNormal(1496.45, 0.03), 2))
        strikes = np.linspace(0.96, 1.04, 30) * ctx.forward(expiry)
        quotes = make_quotes(expiry, strikes, implied_vol_grid(randomize(true, ctx), expiry, strikes, engine="brent"),
                             ctx)
        cfg = FitConfig(model="sabr", randomizer="spot-lognormal", n_q=2)
        fit_slice(quotes, cfg)
        assert set(families) == {"discrete", "spot-lognormal"} and len(embedded) == 1
        assert math.isfinite(slice_objective(quotes, cfg).objective(embedded[0]))

    def test_spot_randomizer_variance_from_fit(self):
        # fit a gently smiling synthetic market with the spot randomizer
        expiry = 0.1
        true = SliceParams(FlatParams(0.2), RandomizerSpec("spot", SpotLogNormal(100.0, 0.04), 2))
        rs = randomize(true, CTX)
        fwd = CTX.forward(expiry)
        strikes = np.linspace(0.9 * fwd, 1.1 * fwd, 21)
        vols = implied_vol_grid(rs, expiry, strikes, engine="brent")
        quotes = make_quotes(expiry, strikes, vols)
        cfg = FitConfig(model="flat", randomizer="spot-lognormal", multistart=6, seed=2)
        result = fit_slice(quotes, cfg)
        assert result.mse < 1e-8
        assert result.params.randomizer.dist.nu == pytest.approx(0.04, rel=5e-2)


# every calibrator configuration, with the model of its free parameters
STACK_CONFIGS = [
    pytest.param(dict(model="sabr", randomizer="none"), id="sabr-none"),
    pytest.param(dict(model="sabr", randomizer="gamma-gamma"), id="gamma-gamma"),
    pytest.param(dict(model="flat", randomizer="none"), id="flat-none"),
    pytest.param(dict(model="flat", randomizer="sigma-lognormal"), id="sigma-lognormal"),
    pytest.param(dict(model="flat", randomizer="spot-lognormal"), id="spot-lognormal"),
    pytest.param(dict(model="sabr", randomizer="spot-lognormal"), id="sabr-spot-lognormal"),
]


def slice_objective(quotes, cfg):
    return calibration._SliceObjective(quotes, cfg, calibration._free_parameters(cfg))


def point_columns(cfg, free, points, s0):
    """The calibrator's parameter columns of transformed points, as `_SliceObjective.evaluate` forms them."""
    return calibration._point_columns(cfg, calibration._free_values(cfg, free, points), s0)


@pytest.mark.parametrize("kwargs", STACK_CONFIGS)
def test_beta_is_never_searched(kwargs):
    assert "beta" not in [p.name for p in calibration._free_parameters(FitConfig(**kwargs))]


class TestStackedEvaluation:
    @pytest.mark.parametrize("engine", ["brent", "expansion"])
    @pytest.mark.parametrize("kwargs", STACK_CONFIGS)
    def test_stack_equals_one_point_calls(self, randomized_sabr_fixture, kwargs, engine):
        quotes, expiry = randomized_sabr_fixture
        cfg = FitConfig(engine=engine, **kwargs)
        free = calibration._free_parameters(cfg)
        starts = calibration._latin_starts(np.random.default_rng(5), [p.start_range for p in free], 5)
        params = [
            build_slice_params(cfg, calibration._values_from_vector(cfg, free, v), quotes.ctx) for v in starts
        ]
        strikes = np.array([q.strike for q in quotes.quotes])
        stacked = grid_vols(params, quotes.ctx, expiry, strikes, engine)
        assert stacked.shape == (5, strikes.size)
        singles = [grid_vols([p], quotes.ctx, expiry, strikes, engine)[0] for p in params]
        np.testing.assert_array_equal(stacked, singles)

    def test_failing_member_reads_none_and_spares_the_others(self, randomized_sabr_fixture):
        quotes, _ = randomized_sabr_fixture
        cfg = FitConfig(model="sabr", randomizer="gamma-gamma", n_q=2)
        # alpha, rho, k, theta in transformed space; theta = 1e-8 fails the moment check
        points = [np.array([math.log(0.25), 0.1 * i - 0.2, math.log(3.0), math.log(0.5)]) for i in range(5)]
        points[2] = np.array([math.log(0.25), 0.0, math.log(1.5e8), math.log(1e-8)])
        failing = build_slice_params(
            cfg, calibration._values_from_vector(cfg, calibration._free_parameters(cfg), points[2]), quotes.ctx
        )
        assert np.isnan(grid_vols([failing], quotes.ctx, 0.25, [100.0], "expansion")).all()
        with pytest.raises(GramMatrixError):
            randomize(failing, quotes.ctx)
        problem = slice_objective(quotes, cfg)
        problem.evaluate(points)
        assert problem.memo[points[2].tobytes()] is None
        for i in (0, 1, 3, 4):
            alone = slice_objective(quotes, cfg)
            alone.evaluate([points[i]])
            np.testing.assert_array_equal(problem.memo[points[i].tobytes()], alone.memo[points[i].tobytes()])

    @pytest.mark.parametrize("engine", ["brent", "expansion"])
    @pytest.mark.parametrize("kwargs", STACK_CONFIGS)
    def test_far_points_warn_nothing_and_spare_the_others(self, kwargs, engine):
        # each point is the zero point with one coordinate 700 off: its square, exponential or vols overflow;
        # the stacked call must not warn (the suite turns warnings into errors), and each row reads as alone
        cfg = FitConfig(engine=engine, **kwargs)
        quotes = flat_quotes(0.5, 17)
        names = [p.name for p in calibration._free_parameters(cfg)]
        zero = np.zeros(len(names))
        points = [zero] + [zero + shift * np.eye(zero.size)[i] for i in range(zero.size) for shift in (700.0, -700.0)]
        problem = slice_objective(quotes, cfg)
        problem.evaluate(points)
        assert problem.model_calls == 1 and problem.memo[zero.tobytes()] is not None
        for point in points:
            alone = slice_objective(quotes, cfg)
            alone.evaluate([point])
            got, want = problem.memo[point.tobytes()], alone.memo[point.tobytes()]
            assert (got is None) == (want is None)
            if got is not None:
                np.testing.assert_array_equal(got, want)
        for name in {"alpha", "gamma", "nu"}.intersection(names):  # e^700 squared overflows: the point fails
            assert problem.memo[points[1 + 2 * names.index(name)].tobytes()] is None

    @pytest.mark.parametrize("size", [1, 5])
    @pytest.mark.parametrize("engine", ["brent", "expansion"])
    @pytest.mark.parametrize("kwargs", STACK_CONFIGS)
    def test_array_path_equals_public_path(self, randomized_sabr_fixture, kwargs, engine, size):
        # the calibrator's columns give the vols of SliceParams through the public randomize, bit for bit
        quotes, expiry = randomized_sabr_fixture
        cfg = FitConfig(engine=engine, **kwargs)
        free = calibration._free_parameters(cfg)
        points = calibration._latin_starts(np.random.default_rng(7), [p.start_range for p in free], size)
        params = [build_slice_params(cfg, calibration._values_from_vector(cfg, free, v), quotes.ctx) for v in points]
        strikes = np.array([q.strike for q in quotes.quotes])
        market = np.array([q.iv for q in quotes.quotes])
        problem = slice_objective(quotes, cfg)
        problem.evaluate(points)
        assert problem.model_calls == 1
        for point, p in zip(points, params):
            np.testing.assert_array_equal(problem.memo[point.tobytes()],
                                          public_residuals(p, cfg, quotes.ctx, expiry, strikes, market))
        columns = point_columns(cfg, free, points, quotes.ctx.s0)
        rule = randomize(columns[0] if size == 1 else columns, quotes.ctx).rule
        public = randomize(params[0] if size == 1 else params, quotes.ctx).rule
        assert (rule.weights.tobytes(), rule.nodes.tobytes()) == (public.weights.tobytes(), public.nodes.tobytes())

    def test_failing_row_fails_the_column_stack(self, randomized_sabr_fixture):
        quotes, _ = randomized_sabr_fixture
        cfg = FitConfig(model="sabr", randomizer="gamma-gamma", n_q=2)
        free = calibration._free_parameters(cfg)
        points = np.array([_good_point(0), FAILING_POINT, _good_point(3)])
        columns = point_columns(cfg, free, points, quotes.ctx.s0)
        assert columns.columns["k"][1] == pytest.approx(1.5e8)
        # the stacked model call reads the failing row as NaN; the public randomize still raises for the stack
        strikes = np.array([100.0])
        stacked = model_vols(columns, quotes.ctx, [0.25] * 3, [strikes] * 3, "expansion")
        assert np.isnan(stacked[1]).all()
        for i in (0, 2):
            np.testing.assert_array_equal(stacked[i], model_vols(columns[i : i + 1], quotes.ctx, [0.25], [strikes],
                                                                 "expansion")[0])
        with pytest.raises(GramMatrixError):
            randomize(columns, quotes.ctx)

    def test_transform_overflow_fails_only_its_point(self, randomized_sabr_fixture):
        # exp(800) overflows: the point must fail, not become an infinite k
        quotes, _ = randomized_sabr_fixture
        cfg = FitConfig(model="sabr", randomizer="gamma-gamma", n_q=2)
        free = calibration._free_parameters(cfg)
        points = [_good_point(i) for i in range(5)]
        points[2] = np.array([math.log(0.25), 0.0, 800.0, math.log(0.5)])
        with pytest.raises(OverflowError):
            point_columns(cfg, free, points[2:3], quotes.ctx.s0)
        problem = slice_objective(quotes, cfg)
        problem.evaluate(points)
        assert problem.memo[points[2].tobytes()] is None
        for i in (0, 1, 3, 4):
            alone = slice_objective(quotes, cfg)
            alone.evaluate([points[i]])
            np.testing.assert_array_equal(problem.memo[points[i].tobytes()], alone.memo[points[i].tobytes()])

    def test_jacobian_is_scipy_two_point(self, randomized_sabr_fixture):
        quotes, _ = randomized_sabr_fixture
        problem = slice_objective(quotes, FitConfig(model="sabr", randomizer="gamma-gamma", n_q=2))
        points = [
            np.array([math.log(0.25), -0.135, math.log(3.0), math.log(0.5)]),
            np.array([math.log(0.4), 0.0, math.log(1.2), math.log(0.9)]),
            np.array([-1.0, -0.5, 0.5, -0.25]),
        ]
        for x in points:
            want = approx_derivative(problem.penalized, x, method="2-point")
            f, jacobian = run_search(calibration._jacobian(problem.penalized, x))
            np.testing.assert_array_equal(f, problem.penalized(x))
            np.testing.assert_array_equal(jacobian, want)

    def test_one_search_evaluates_at_most_its_budget(self, randomized_sabr_fixture, monkeypatch):
        quotes, _ = randomized_sabr_fixture
        points = []
        real = calibration.model_vols
        monkeypatch.setattr(
            calibration, "model_vols", lambda params, *a, **k: points.extend(params) or real(params, *a, **k)
        )
        with contextlib.suppress(CalibrationError):  # whether the search converges does not matter here
            fit_slice(quotes, FitConfig(model="sabr", randomizer="none", multistart=1, budget=40, seed=3))
        # the probe, then one search's budget of points (its first point is the probe)
        assert 0 < len(points) <= 41


def _good_point(i):
    # alpha, rho, k, theta of a gamma-gamma slice, in transformed space
    return np.array([math.log(0.25), 0.1 * i - 0.2, math.log(3.0), math.log(0.5)])


# theta = 1e-8 makes k = 1.5e8, whose rule fails its moment check
FAILING_POINT = np.array([math.log(0.25), 0.0, math.log(1.5e8), math.log(1e-8)])


def recorded(search, asked):
    """Pass a search's requests on, noting each point in ``asked``; return its result."""
    while True:
        try:
            points = next(search)
        except StopIteration as stop:
            return stop.value
        asked.extend(points)
        yield points


def asking(*requests):
    for points in requests:
        yield points


def point_search(problem, x):
    yield [x]
    return problem.residuals(x)


# slices of one stacked call: expiry and strike count
SURFACE_SLICES = ((0.05, 40), (0.5, 17), (2.0, 1))


def flat_quotes(expiry, count):
    fwd = CTX.forward(expiry)
    return make_quotes(expiry, np.linspace(0.8 * fwd, 1.2 * fwd, count) if count > 1 else [fwd], np.full(count, 0.2))


class TestSurfaceStack:
    @pytest.mark.parametrize("engine", ["brent", "expansion"])
    @pytest.mark.parametrize("kwargs", STACK_CONFIGS)
    def test_stack_across_expiries_equals_lone_slices(self, kwargs, engine):
        cfg = FitConfig(engine=engine, **kwargs)
        free = calibration._free_parameters(cfg)
        problems = [slice_objective(flat_quotes(expiry, count), cfg) for expiry, count in SURFACE_SLICES]
        points = list(calibration._latin_starts(np.random.default_rng(11), [p.start_range for p in free], 4))
        overflow, underflow, square = points[0].copy(), points[1].copy(), points[2].copy()
        overflow[0], underflow[0] = 800.0, -800.0  # the first parameter's transform overflows, or reads 0
        requests = [points + [underflow], points[1:] + [overflow], points[:2]]
        if cfg.model == "sabr" or cfg.randomizer == "spot-lognormal":  # alpha or nu of e^360: its square overflows
            square[0 if cfg.model == "sabr" else -1] = 360.0
            requests[2].append(square)
        if cfg.randomizer == "gamma-gamma":
            requests[0].append(FAILING_POINT)
        calibration._evaluate([(problem, problem.fresh(request)) for problem, request in zip(problems, requests)])
        assert [problem.model_calls for problem in problems] == [1, 1, 1]
        for problem, request in zip(problems, requests):
            for point in request:
                got = problem.memo[point.tobytes()]
                try:
                    params = build_slice_params(cfg, calibration._values_from_vector(cfg, free, point), CTX)
                    want = public_residuals(params, cfg, CTX, problem.expiry, problem.strikes, problem.market)
                except (RandvolError, ValueError, OverflowError):  # a lone failure reads None in the stack
                    want = None
                if want is None:
                    assert got is None
                    continue
                np.testing.assert_array_equal(got, want)
        assert problems[1].memo[overflow.tobytes()] is None
        if len(requests[2]) > 2:
            assert problems[2].memo[square.tobytes()] is None
        if cfg.randomizer == "gamma-gamma":
            assert problems[0].memo[FAILING_POINT.tobytes()] is None
            columns = point_columns(cfg, free, [points[0], FAILING_POINT], CTX.s0)
            with pytest.raises(GramMatrixError):
                randomize(columns, CTX)
            with pytest.raises(GramMatrixError):
                quadrature_for(columns.columns, cfg.n_q, family=columns.family)


def surface_quote_set():
    """Quotes at three expiries of a known gamma-gamma slice; the last has 3, fewer than its 4 free parameters."""
    true = SliceParams(SabrParams(alpha=0.25, beta=0.9, rho=-0.135, gamma=1.5),
                       RandomizerSpec("gamma", Gamma(3.0, 0.5), 2))
    rs = randomize(true, CTX)
    quotes = []
    for expiry, count in ((0.1, 20), (0.4, 15), (1.0, 3)):
        fwd = CTX.forward(expiry)
        strikes = np.linspace(0.85 * fwd, 1.15 * fwd, count)
        quotes += make_quotes(expiry, strikes, implied_vol_grid(rs, expiry, strikes, engine="brent")).quotes
    return QuoteSet(tuple(quotes), CTX)


def lone_fit(quotes, cfg):
    try:
        return fit_slice(quotes, cfg)
    except CalibrationError as exc:
        return exc.best


class TestSurfaceFit:
    # gamma-gamma runs its randomized searches alone; spot-lognormal runs a plain prefit phase first
    @pytest.mark.parametrize("randomizer,phases", [("gamma-gamma", 1), ("spot-lognormal", 2)])
    def test_shared_lockstep_changes_no_fit(self, monkeypatch, randomizer, phases):
        quotes, cfg = surface_quote_set(), FitConfig(model="sabr", randomizer=randomizer, n_q=2, seed=3, multistart=4)
        calls = []
        real = calibration.model_vols
        monkeypatch.setattr(calibration, "model_vols", lambda *a, **k: calls.append(1) or real(*a, **k))
        fits = fit_surface(quotes, cfg)
        monkeypatch.undo()
        assert len(fits) == 3 and fits.model_calls == len(calls)
        # the short slice fails alone, before any model call
        assert isinstance(fits[2], CalibrationError) and fits[2].best is None
        assert "need at least 4 quotes to fit 4 free parameters, got 3" in str(fits[2])
        phase_rounds = ([], [])
        for expiry, fitted in zip(quotes.expiries(), fits[:2]):
            alone = lone_fit(quotes.at_expiry(expiry), cfg)
            assert float(fitted.sse).hex() == float(alone.sse).hex()
            assert fitted.params == alone.params
            assert (fitted.converged, fitted.evaluations, fitted.model_calls) == (
                alone.converged, alone.evaluations, alone.model_calls)
            assert fitted.residuals == alone.residuals
            plain_cfg = calibration._plain_config(cfg)
            prefit = lone_fit(quotes.at_expiry(expiry), plain_cfg).model_calls if phases == 2 else 0
            phase_rounds[0].append(prefit)
            phase_rounds[1].append(alone.model_calls - prefit)
        # a round holds every slice still searching: each phase takes its longest slice's rounds
        assert fits.model_calls == max(phase_rounds[0]) + max(phase_rounds[1])
        assert fits.model_calls < sum(fit.model_calls for fit in fits[:2])


class TestLockstep:
    @pytest.mark.parametrize("kwargs", [c for c in STACK_CONFIGS if c.id in ("gamma-gamma", "sigma-lognormal")])
    def test_searches_equal_lone_searches(self, randomized_sabr_fixture, monkeypatch, kwargs):
        quotes, _ = randomized_sabr_fixture
        real_minimize = calibration.minimize
        searches = []  # (problem, start, budget, result, points asked for)

        def recording_minimize(residuals, start, budget):
            asked = []
            result = yield from recorded(real_minimize(residuals, start, budget), asked)
            searches.append((residuals.__self__, np.array(start), budget, result, asked))
            return result

        monkeypatch.setattr(calibration, "minimize", recording_minimize)
        cfg = FitConfig(seed=3, **kwargs)
        fitted = fit_slice(quotes, cfg)
        monkeypatch.undo()
        # a plain prefit runs where its embedded start builds: not for gamma-gamma
        prefit = set() if cfg.randomizer == "gamma-gamma" else {"none"}
        assert {problem.cfg.randomizer for problem, *_ in searches} == prefit | {cfg.randomizer}
        finals = []
        for problem, start, budget, result, asked in searches:
            # each lockstep search is scipy's least_squares from its start, on a fresh objective
            alone = slice_objective(quotes, problem.cfg)
            want = scipy_search(alone.penalized, start, budget)
            assert result.x.tobytes() == want.x.tobytes()
            assert result.success == want.success
            assert {np.asarray(p).tobytes() for p in asked} == set(with_stencils(map(np.frombuffer, alone.memo)))
            if problem.cfg == cfg:
                finals.append((alone.objective(want.x), want.x))
        # a search never ends worse than its start, so the unsearched embedding never wins alone
        if not slice_objective(quotes, cfg).prices:  # on vol residuals, the reported sse is the objective
            assert float(fitted.sse).hex() == min(final[0] for final in finals).hex()
        best = min(finals, key=lambda final: final[0])[1]
        free = calibration._free_parameters(cfg)
        assert fitted.params == build_slice_params(cfg, calibration._values_from_vector(cfg, free, best), quotes.ctx)

    def test_gamma_gamma_fit_stacks_its_rounds(self, randomized_sabr_fixture, monkeypatch):
        quotes, _ = randomized_sabr_fixture
        calls, points = [], set()
        real = calibration.model_vols

        def counting(params, *a, **k):
            calls.append(params)
            points.update(repr(p) for p in params)
            return real(params, *a, **k)

        monkeypatch.setattr(calibration, "model_vols", counting)
        result = fit_slice(quotes, FitConfig(model="sabr", randomizer="gamma-gamma", n_q=2, seed=3))
        # measured: 37 calls (64 with a round per Jacobian, 176 with one search at a time); 20% margin
        assert len(calls) <= 44
        assert result.model_calls == len(calls)
        assert result.evaluations == len(points)
        blob = result.to_json()
        assert (blob["model_calls"], blob["evaluations"]) == (result.model_calls, result.evaluations)

    @pytest.mark.parametrize("kwargs", [c for c in STACK_CONFIGS if c.id in ("sabr-none", "gamma-gamma")])
    def test_one_round_per_trial(self, randomized_sabr_fixture, kwargs):
        quotes, _ = randomized_sabr_fixture
        cfg = FitConfig(**kwargs)
        free = calibration._free_parameters(cfg)
        start = calibration._latin_starts(np.random.default_rng(3), [p.start_range for p in free], 8)[0]
        problem = slice_objective(quotes, cfg)
        result, = calibration._lockstep([problem], [minimize(problem.penalized, start, cfg.budget)])
        alone = slice_objective(quotes, cfg)
        want = scipy_search(alone.penalized, start, cfg.budget)
        assert result.x.tobytes() == want.x.tobytes()
        # the start's round, then one per trial (scipy's nfev counts the start and its trials, no Jacobian point)
        assert want.nfev > 5
        assert problem.model_calls == want.nfev

    @pytest.mark.parametrize("budget", [1, 3, 10, 40])
    def test_search_asks_for_at_most_its_budget(self, randomized_sabr_fixture, monkeypatch, budget):
        quotes, _ = randomized_sabr_fixture
        real_minimize = calibration.minimize
        searches = []  # the distinct points each search asked for

        def recording_minimize(residuals, start, budget):
            asked = []
            result = yield from recorded(real_minimize(residuals, start, budget), asked)
            searches.append({np.asarray(p).tobytes() for p in asked})
            return result

        monkeypatch.setattr(calibration, "minimize", recording_minimize)
        cfg = FitConfig(model="sabr", randomizer="gamma-gamma", n_q=2, seed=3, budget=budget)
        with contextlib.suppress(CalibrationError):  # whether the searches converge does not matter here
            fit_slice(quotes, cfg)
        n = len(calibration._free_parameters(cfg))
        assert 0 < len(searches) <= cfg.multistart  # a start whose objective is not finite is not searched
        # the stencils of rejected trials included
        assert max(len(points) for points in searches) <= max(budget, n + 1)

    def test_fit_starts_no_thread(self, randomized_sabr_fixture, monkeypatch):
        quotes, _ = randomized_sabr_fixture

        def refuse(thread):
            raise AssertionError("fit_slice started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        result = fit_slice(quotes, FitConfig(model="flat", randomizer="sigma-lognormal", seed=3))
        assert result.model_calls > 0

    @pytest.mark.parametrize("failing_call", [1, 4])
    def test_search_error_propagates(self, randomized_sabr_fixture, monkeypatch, failing_call):
        # the second search raises on its first residual read (in the first round) or its fourth (mid-run)
        quotes, _ = randomized_sabr_fixture
        real = calibration.minimize
        started, seen = [], []

        def second_fails(residuals, start, budget):
            started.append(start)
            if len(started) != 2:
                return real(residuals, start, budget)

            def failing(x):
                seen.append(x)
                if len(seen) == failing_call:
                    raise RuntimeError("search 2 failed")
                return residuals(x)

            return real(failing, start, budget)

        monkeypatch.setattr(calibration, "minimize", second_fails)
        with pytest.raises(RuntimeError, match="search 2 failed"):
            fit_slice(quotes, FitConfig(model="sabr", randomizer="none", seed=3))
        assert len(started) == 8 and len(seen) == failing_call

    def test_round_error_propagates(self, randomized_sabr_fixture, monkeypatch):
        quotes, _ = randomized_sabr_fixture
        real = calibration.model_vols
        calls = []

        def third_call_breaks(params, *a, **k):
            # the probe, then the first round; the second round raises what no retry catches
            calls.append(params)
            if len(calls) == 3:
                raise MemoryError("round failed")
            return real(params, *a, **k)

        monkeypatch.setattr(calibration, "model_vols", third_call_breaks)
        with pytest.raises(MemoryError, match="round failed"):
            fit_slice(quotes, FitConfig(model="sabr", randomizer="none", seed=3))
        assert len(calls) == 3

    def test_failing_point_costs_only_its_own_request(self, randomized_sabr_fixture):
        quotes, _ = randomized_sabr_fixture
        cfg = FitConfig(model="sabr", randomizer="gamma-gamma", n_q=2)
        problem = slice_objective(quotes, cfg)
        good = [_good_point(0), _good_point(3)]
        results = calibration._lockstep([problem] * 3, [
            calibration._jacobian(problem.penalized, good[0]),
            point_search(problem, FAILING_POINT),
            calibration._jacobian(problem.penalized, good[1]),
        ])
        assert results[1] is None and problem.memo[FAILING_POINT.tobytes()] is None
        # the one round holds both Jacobians' 5 points (x and its 4 steps) and the failing point,
        # whose row reads NaN: the round is one model call, never re-sent
        assert problem.model_calls == 1
        assert len(problem.memo) == 11
        for key, row in problem.memo.items():
            point = np.frombuffer(key)
            if not np.array_equal(point, FAILING_POINT):
                alone = slice_objective(quotes, cfg)
                alone.evaluate([point])
                np.testing.assert_array_equal(row, alone.memo[key])
        for x, (_, jacobian) in zip(good, (results[0], results[2])):
            alone = slice_objective(quotes, cfg)
            np.testing.assert_array_equal(jacobian, approx_derivative(alone.penalized, x, method="2-point"))

    def test_memoized_request_takes_no_round(self, randomized_sabr_fixture):
        quotes, _ = randomized_sabr_fixture
        problem = slice_objective(quotes, FitConfig(model="sabr", randomizer="gamma-gamma", n_q=2))
        problem.evaluate([_good_point(0)])
        # the first search's first request is in the memo, so its second shares round 1 with the other search
        calibration._lockstep([problem] * 2, [asking([_good_point(0)], [_good_point(1)]),
                                              asking([_good_point(2)])])
        assert problem.model_calls == 1 + 1
        assert len(problem.memo) == 3

    def test_no_searches(self):
        assert calibration._lockstep([], []) == []


class TestModelVolsInput:
    def test_one_plain_row_reads_its_vol(self):
        params = SliceParams(FlatParams(0.2))
        np.testing.assert_array_equal(grid_vols([params], CTX, 0.5, [100.0], "brent"), [[0.2]])


# each domain's parameter: a calibrator configuration that takes it as a column, good values of that
# configuration's columns, and the parameter's lone constructor
NAN_DOMAINS = {
    "sigma": ("flat", "none", {"sigma": 0.2}, lambda x: FlatParams(x)),
    **{name: ("sabr", "none", {"alpha": 0.3, "beta": 0.9, "rho": -0.3, "gamma": 0.8},
              lambda x, name=name: SabrParams(**{"alpha": 0.3, "beta": 0.9, "rho": -0.3, "gamma": 0.8, name: x}))
       for name in ("alpha", "beta", "rho", "gamma")},
    "k": ("sabr", "gamma-gamma", {"alpha": 0.3, "beta": 0.9, "rho": -0.3, "k": 3.0, "theta": 0.5},
          lambda x: Gamma(x, 0.5)),
    "theta": ("sabr", "gamma-gamma", {"alpha": 0.3, "beta": 0.9, "rho": -0.3, "k": 3.0, "theta": 0.5},
              lambda x: Gamma(3.0, x)),
    "nu": ("flat", "spot-lognormal", {"sigma": 0.2, "nu": 0.1}, lambda x: SpotLogNormal(100.0, x)),
}


class TestDomainsRefuseNan:
    """NaN fails every comparison, so each domain mask is written to hold inside it, and NaN is outside."""

    def test_every_domain_is_covered(self):
        from randvol.quadrature import _DOMAINS

        assert set(NAN_DOMAINS) | {"s0"} == set(_DOMAINS)

    @pytest.mark.parametrize("name,bad", [(name, math.nan) for name in sorted(NAN_DOMAINS)]
                             + [(name, 1e200) for name in ("alpha", "gamma", "nu")])
    def test_refused_alone_and_as_one_stacked_row(self, name, bad):
        # 1e200 has a square that overflows to inf in numpy: alpha, gamma and nu refuse it
        model, randomizer, good, constructor = NAN_DOMAINS[name]
        with pytest.raises(ParameterDomainError) as lone:
            constructor(bad)
        assert str(lone.value).startswith(f"{name} must be ") and str(lone.value).endswith(f", got {bad:g}")
        values = {key: np.full(3, value) for key, value in good.items()}
        values[name][1] = bad
        failures = RowFailures(3)
        calibration._point_columns(FitConfig(model=model, randomizer=randomizer), values, 100.0, failures)
        assert failures.bad.tolist() == [False, True, False]
        assert isinstance(failures.error, ParameterDomainError)

    def test_nan_spot_and_lognormal_nu(self):
        with pytest.raises(ParameterDomainError, match="s0 must be > 0, got nan"):
            SpotLogNormal(math.nan, 0.1)
        with pytest.raises(ParameterDomainError, match="nu must be >= 0 with a finite square, got nan"):
            LogNormal(0.0, math.nan)
        # the spot is one value for every row of a stack: a NaN spot marks them all
        failures = RowFailures(2)
        calibration._point_columns(FitConfig(model="flat", randomizer="spot-lognormal"),
                                   {"sigma": [0.2, 0.3], "nu": [0.1, 0.2]}, math.nan, failures)
        assert failures.bad.all() and "s0 must be > 0, got nan" in str(failures.error)
