"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.
"""
import math
import time

import numpy as np
import pytest

from conftest import nth_derivative, reference_slice, time_brent, time_expansion
from randvol.arbitrage import SliceSet, check_butterfly, check_calendar, default_strike_grid, interp_total_variance
from randvol.calibration import FitConfig, Quote, QuoteSet, fit_slice, variance_of_randomizer
from randvol.expansion import evaluate_polynomial
from randvol.parametrizations import FlatParams, RandomizerSpec, SabrParams, SliceParams
from randvol.pricing import MarketContext, OptionKey, OptionType, implied_vol_brent
from randvol.quadrature import Gamma, LogNormal, SpotLogNormal, moments, quadrature_for
from randvol.randomization import (
    count_local_maxima,
    density,
    expansion_coefficients,
    implied_vol_grid,
    randomize,
    randomized_price,
    randomized_prices,
)


def _report(number: int, message: str) -> None:
    print(f"criterion {number:2d} PASS: {message}")


def random_slice(rng, kind):
    """A randomized slice with valid, moderately behaved parameters."""
    rate = float(rng.uniform(0.0, 0.05))
    ctx = MarketContext(s0=float(rng.uniform(50.0, 150.0)), r=rate)
    if kind == "sigma":
        level = float(rng.uniform(0.15, 0.35))
        nu = float(rng.uniform(0.1, 0.5))
        expiry = float(rng.uniform(0.1, 1.5))
        n_q = int(rng.integers(2, 5))
        params = SliceParams(
            FlatParams(level),
            RandomizerSpec("sigma", LogNormal(math.log(level) - 0.5 * nu**2, nu), n_q),
        )
    elif kind == "gamma":
        expiry = float(rng.uniform(0.04, 0.2))
        k = float(rng.uniform(1.5, 5.0))
        mean_gamma = float(rng.uniform(0.4, 1.6))
        params = SliceParams(
            SabrParams(
                alpha=float(rng.uniform(0.2, 0.35)),
                beta=0.9,
                rho=float(rng.uniform(-0.7, 0.2)),
                gamma=mean_gamma,
            ),
            RandomizerSpec("gamma", Gamma(k, mean_gamma / k), 2),
        )
    else:
        expiry = float(rng.uniform(0.05, 1.0))
        params = SliceParams(
            FlatParams(float(rng.uniform(0.15, 0.3))),
            RandomizerSpec("spot", SpotLogNormal(ctx.s0, float(rng.uniform(0.02, 0.12))), 2),
        )
    return randomize(params, ctx), expiry


def test_criterion_01_quadrature_correctness():
    start = time.perf_counter()
    specs = (LogNormal(0.0, 0.25), Gamma(3.0, 0.5), SpotLogNormal(100.0, 0.3))
    for spec in specs:
        for n_q in range(1, 9):
            rule = quadrature_for(spec, n_q)
            assert abs(rule.weights.sum() - 1.0) <= 1e-12
            mom = moments(spec, 2 * n_q)
            for i in range(2 * n_q):
                assert abs(rule.moment(i) - mom[i]) <= 1e-8 * abs(mom[i])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"3 families x n_q 1..8, moments to rel 1e-8 in {elapsed:.3f}s")


def test_criterion_02_arbitrage_free_mixing():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    kinds = ["sigma", "gamma", "spot"]
    checked = 0
    for i in range(20):
        rs, expiry = random_slice(rng, kinds[i % 3])
        ctx = rs.ctx
        grid = default_strike_grid(ctx, expiry, n=201)
        # spot-randomized surfaces converge to the node-mixture payoff as
        # T -> 0, so the point-intrinsic probe does not apply to them
        report = check_butterfly(
            lambda t, ks: randomized_prices(rs, t, ks),
            expiry,
            grid,
            ctx,
            check_intrinsic=rs.target != "spot",
        )
        assert report.passed, f"slice {i}: {report.to_json()}"
        wide = default_strike_grid(ctx, expiry, n=4001, lo=0.02, hi=20.0)
        curve = density(rs, expiry, wide)
        assert abs(curve.mass - 1.0) <= 1e-3, f"slice {i}: mass {curve.mass}"
        fwd = ctx.forward(expiry)
        assert abs(curve.mean - fwd) <= 1e-3 * fwd, f"slice {i}: mean {curve.mean} vs {fwd}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"{checked} slices butterfly-clean, density mass/mean in tolerance ({elapsed:.2f}s)")


def fig3_slice():
    ctx = MarketContext(s0=100.0, r=0.02)
    nu = 0.2
    params = SliceParams(
        FlatParams(0.2),
        RandomizerSpec("sigma", LogNormal(math.log(0.2) - 0.5 * nu**2, nu), 4),
    )
    return randomize(params, ctx)


def test_criterion_03_parameter_expansion_vs_oracle():
    start = time.perf_counter()
    rs = fig3_slice()
    expiry = 2.0
    coeffs = expansion_coefficients(rs, expiry, [rs.ctx.forward(expiry)])[:, 0]
    errors = {2: 0.0, 4: 0.0, 6: 0.0}
    for m in np.linspace(-0.3, 0.3, 61):
        strike = rs.ctx.s0 * math.exp(rs.ctx.r * expiry - m)
        key = OptionKey(expiry, strike)
        oracle = implied_vol_brent(rs.ctx, key, randomized_price(rs, key), rtol=1e-12)
        for order in errors:
            value = evaluate_polynomial("parameter", coeffs, m, order)
            errors[order] = max(errors[order], abs(value - oracle))
    assert errors[6] < 1e-3
    assert errors[6] <= errors[4] <= errors[2]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        3,
        "order-6 max err "
        f"{errors[6]:.2e} <= order-4 {errors[4]:.2e} <= order-2 {errors[2]:.2e} ({elapsed:.2f}s)",
    )


def test_criterion_04_spot_expansion_vs_oracle():
    start = time.perf_counter()
    worst_poly = 0.0
    worst_coeff = 0.0
    for nu in (0.03, 0.05, 0.07):
        ctx = MarketContext(s0=100.0, r=0.02)
        params = SliceParams(
            FlatParams(0.2), RandomizerSpec("spot", SpotLogNormal(100.0, nu), 2)
        )
        rs = randomize(params, ctx)
        expiry = 0.25
        coeffs = expansion_coefficients(rs, expiry, [ctx.forward(expiry)])[:, 0]

        def oracle(m):
            strike = ctx.s0 * math.exp(ctx.r * expiry - m)
            key = OptionKey(expiry, strike)
            return implied_vol_brent(ctx, key, randomized_price(rs, key), rtol=1e-15)

        for m in np.linspace(-0.2, 0.2, 41):
            err = abs(evaluate_polynomial("spot", coeffs, m, 4) - oracle(m))
            worst_poly = max(worst_poly, err)
            assert err < 5e-3
        for order in (1, 2, 3, 4):
            fd = nth_derivative(oracle, order, h=0.02, levels=3)
            rel = abs(fd - coeffs[order]) / abs(coeffs[order])
            worst_coeff = max(worst_coeff, rel)
            assert rel < 1e-2
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        4,
        f"order-4 max err {worst_poly:.2e} (<5e-3); coeff FD rel <= {worst_coeff:.2e} ({elapsed:.2f}s)",
    )


def test_criterion_05_atm_exactness():
    rng = np.random.default_rng(777)
    kinds = ["sigma", "gamma", "spot"]
    worst = 0.0
    for i in range(50):
        rs, expiry = random_slice(rng, kinds[i % 3])
        fwd = rs.ctx.forward(expiry)
        key = OptionKey(expiry, fwd)
        coeffs = expansion_coefficients(rs, expiry, [fwd])[:, 0]
        order = 6 if rs.expansion_kind == "parameter" else 4
        oracle = implied_vol_brent(rs.ctx, key, randomized_price(rs, key), rtol=1e-15)
        gap = abs(evaluate_polynomial(rs.expansion_kind, coeffs, 0.0, order) - oracle)
        worst = max(worst, gap)
        assert gap < 1e-10, f"slice {i}: ATM gap {gap}"
    _report(5, f"50 slices, worst ATM gap {worst:.2e} (<1e-10)")


def test_criterion_06_bimodal_near_expiry():
    ctx = MarketContext(s0=100.0, r=0.0)
    nu = 0.05
    assert nu >= 0.04
    params = SliceParams(FlatParams(0.1), RandomizerSpec("spot", SpotLogNormal(100.0, nu), 2))
    rs = randomize(params, ctx)
    expiry = 1.0 / 365.0
    grid = default_strike_grid(ctx, expiry, n=501)
    curve = density(rs, expiry, grid)
    n_modes = count_local_maxima(curve.values)
    assert n_modes == 2
    fwd = ctx.forward(expiry)
    strikes = np.linspace(0.95 * fwd, 1.05 * fwd, 101)
    vols = implied_vol_grid(rs, expiry, strikes, engine="brent")
    concavity = np.diff(vols, 2).min()
    assert concavity < 0
    _report(6, f"density has exactly 2 modes; min IV second difference {concavity:.2e} < 0")


def test_criterion_07_synthetic_calibration():
    start = time.perf_counter()
    ctx = MarketContext(s0=100.0, r=0.02)
    expiry = 0.25
    true_params = SliceParams(
        SabrParams(alpha=0.25, beta=0.9, rho=-0.135, gamma=1.5),
        RandomizerSpec("gamma", Gamma(3.0, 0.5), 2),
    )
    rs = randomize(true_params, ctx)
    fwd = ctx.forward(expiry)
    strikes = np.linspace(0.85 * fwd, 1.15 * fwd, 40)
    vols = implied_vol_grid(rs, expiry, strikes, engine="brent")
    quotes = QuoteSet(
        tuple(Quote(expiry, float(k), float(v), OptionType.CALL, 1) for k, v in zip(strikes, vols)),
        ctx,
    )
    randomized = fit_slice(quotes, FitConfig(model="sabr", randomizer="gamma-gamma", n_q=2, seed=3))
    plain = fit_slice(quotes, FitConfig(model="sabr", randomizer="none", seed=3))
    assert randomized.mse < 1e-8
    assert plain.mse >= 10.0 * randomized.mse
    assert randomized.sse <= plain.sse + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        7,
        f"randomized mse {randomized.mse:.2e} < 1e-8, plain/randomized {plain.mse / randomized.mse:.0f}x, "
        f"dominance holds ({elapsed:.1f}s)",
    )


def test_criterion_08_gamma_variance_column():
    rows = ((1.775, 1.378, 3.371), (3.872, 0.455, 0.802), (3.032, 0.446, 0.603), (4.916, 0.271, 0.361))
    for k, theta, var in rows:
        assert abs(variance_of_randomizer(Gamma(k, theta)) - var) <= 1e-3
    _report(8, "Gamma variance column reproduced for all four rows (+-0.001)")


def _expansion_scaling_ratio(rs) -> float:
    """min-of-7 interleaved timings so both counts see the same noise."""
    small, large = [], []
    for _ in range(7):
        small.append(time_expansion(rs, 1_000, 4))
        large.append(time_expansion(rs, 100_000, 4))
    return min(large) / min(small)


def test_criterion_09_expansion_performance():
    rs = reference_slice()
    brent_seconds = time_brent(rs, 10_000)
    expansion_seconds = min(time_expansion(rs, 10_000, 4) for _ in range(3))
    ratio = brent_seconds / expansion_seconds
    assert ratio >= 100.0
    scaling = _expansion_scaling_ratio(rs)
    if scaling > 2.0:  # wall-clock check: allow one retry after a noisy window
        scaling = _expansion_scaling_ratio(rs)
    assert scaling <= 2.0
    _report(
        9,
        f"brent/expansion at 1e4: {ratio:.0f}x (>=100x); expansion 1e5/1e3: {scaling:.2f}x (<=2x)",
    )


def test_criterion_10_total_variance_interpolation():
    ctx = MarketContext(s0=100.0, r=0.0)
    slice_set = SliceSet(
        (
            (1.0, randomize(SliceParams(FlatParams(0.2)), ctx)),
            (2.0, randomize(SliceParams(FlatParams(0.25)), ctx)),
        )
    )
    mid = interp_total_variance(slice_set, 1.5, 100.0)
    assert mid == pytest.approx(math.sqrt(0.055), rel=1e-9)

    class InterpolatedSlice:
        def __init__(self, expiry):
            self.expiry = expiry

        def implied_vol(self, expiry, strike, engine="brent"):
            return interp_total_variance(slice_set, expiry, strike)

    expiries = np.linspace(1.0, 2.0, 12)[1:-1]
    entries = [(1.0, slice_set.slices[0][1])]
    entries += [(float(t), InterpolatedSlice(float(t))) for t in expiries]
    entries += [(2.0, slice_set.slices[1][1])]
    report = check_calendar(SliceSet(tuple(entries)), np.linspace(60.0, 160.0, 21))
    assert report.passed
    _report(10, f"interpolated vol at T=1.5 is {mid:.6f} = sqrt(0.055); calendar clean at 10 interior expiries")
