"""Tests for the analytic implied-vol expansions.

Coefficient correctness is pinned by an implicit-function oracle: the
exact randomized implied vol as a function of log-moneyness, computed by
pricing the mixture and inverting Black-Scholes with a tight root
finder, differentiated by Richardson-extrapolated central differences.
"""
import math

import numpy as np
import pytest
from scipy.special import ndtr as norm_cdf, ndtri as norm_ppf

from conftest import nth_derivative
from randvol import expansion
from randvol.errors import ExpansionRangeError
from randvol.expansion import _bs_call_partials, evaluate_polynomial, parameter_coefficients, spot_coefficients
from randvol.parametrizations import FlatParams, RandomizerSpec, SliceParams
from randvol.pricing import MarketContext, OptionKey, implied_vol_brent, norm_pdf
from randvol.quadrature import LogNormal, SpotLogNormal, quadrature_for
from randvol.randomization import expansion_coefficients, randomize, randomized_price


def fig3_slice(n_q=4):
    ctx = MarketContext(s0=100.0, r=0.02)
    nu = 0.2
    params = SliceParams(
        FlatParams(0.2),
        RandomizerSpec("sigma", LogNormal(math.log(0.2) - 0.5 * nu**2, nu), n_q),
    )
    return randomize(params, ctx)


def spot_slice(nu, sigma=0.2, tau=0.25, rate=0.02):
    ctx = MarketContext(s0=100.0, r=rate)
    params = SliceParams(
        FlatParams(sigma), RandomizerSpec("spot", SpotLogNormal(100.0, nu), 2)
    )
    return randomize(params, ctx)


def atm_coefficients(rs, expiry):
    """Expansion coefficients at the forward strike."""
    return expansion_coefficients(rs, expiry, [rs.ctx.forward(expiry)])[:, 0]


def exact_iv_of_m(rs, expiry):
    """The implicit function m -> implied vol, via pricing + tight Brent."""

    def fun(m):
        strike = rs.ctx.s0 * math.exp(rs.ctx.r * (expiry - rs.ctx.t0) - m)
        key = OptionKey(expiry, strike)
        price = randomized_price(rs, key)
        return implied_vol_brent(rs.ctx, key, price, rtol=1e-15)

    return fun


class TestParameterExpansion:
    def test_single_node_exact(self):
        # higher coefficients cancel through 1/sigma0^5-sized terms, so the
        # float residue grows with the order
        coeffs = parameter_coefficients(np.array([1.0]), np.array([0.2]), 1.0)
        np.testing.assert_allclose(coeffs[0], 0.2, rtol=1e-15)
        for coeff, atol in zip(coeffs[1:], (1e-13, 1e-12, 1e-10)):
            assert abs(coeff) < atol

    def test_equal_nodes_degenerate(self):
        coeffs = parameter_coefficients(
            np.array([0.5, 0.5]), np.array([0.25, 0.25]), 2.0
        )
        np.testing.assert_allclose(coeffs[0], 0.25, rtol=1e-15)
        for coeff, atol in zip(coeffs[1:], (1e-13, 1e-12, 1e-10)):
            assert abs(coeff) < atol

    def test_coefficients_match_finite_differences(self):
        rs = fig3_slice()
        expiry = 2.0
        coeffs = atm_coefficients(rs, expiry)
        iv = exact_iv_of_m(rs, expiry)
        for order, coeff in ((2, coeffs[1]), (4, coeffs[2]), (6, coeffs[3])):
            fd = nth_derivative(iv, order, h=0.12, levels=4)
            assert fd == pytest.approx(coeff, rel=1e-3)

    def test_odd_orders_vanish_numerically(self):
        rs = fig3_slice()
        iv = exact_iv_of_m(rs, 2.0)
        for order in (1, 3):
            fd = nth_derivative(iv, order, h=0.05, levels=3)
            assert abs(fd) < 1e-6

    def test_atm_value_is_p0(self):
        rs = fig3_slice()
        expiry = 2.0
        coeffs = atm_coefficients(rs, expiry)
        assert evaluate_polynomial("parameter", coeffs, 0.0, 6) == coeffs[0]

    def test_zero_node_vol_rejected(self):
        with pytest.raises(ExpansionRangeError):
            parameter_coefficients(np.array([0.5, 0.5]), np.array([0.0, 0.3]), 1.0)

    def test_batch_matches_scalar(self):
        rs = fig3_slice()
        taus = np.array([0.5, 1.0, 2.0])
        vols = np.broadcast_to(rs.rule.nodes, (3, rs.rule.size))
        batch = parameter_coefficients(rs.rule.weights, vols, taus)
        for i, tau in enumerate(taus):
            single = parameter_coefficients(rs.rule.weights, rs.rule.nodes, tau)
            np.testing.assert_allclose(batch[:, i], single, rtol=1e-14)


class TestSpotExpansion:
    def test_nodes_at_spot_collapse(self):
        # all nodes equal to the spot: no randomization, flat implied vol
        coeffs = spot_coefficients(
            np.array([0.5, 0.5]), np.array([100.0, 100.0]), 100.0, 0.2, 1.0
        )
        np.testing.assert_allclose(coeffs[0], 0.2, rtol=1e-14)
        np.testing.assert_allclose(coeffs[1], 0.0, atol=1e-14)
        np.testing.assert_allclose(coeffs[2], 0.0, atol=1e-12)

    @pytest.mark.parametrize("nu", [0.03, 0.05, 0.07])
    def test_coefficients_match_finite_differences(self, nu):
        rs = spot_slice(nu)
        expiry = 0.25
        coeffs = atm_coefficients(rs, expiry)
        iv = exact_iv_of_m(rs, expiry)
        for order in (1, 2, 3, 4):
            fd = nth_derivative(iv, order, h=0.02, levels=3)
            assert fd == pytest.approx(coeffs[order], rel=1e-2)

    @pytest.mark.parametrize("nu", [0.03, 0.05, 0.07])
    def test_fourth_order_polynomial_tracks_oracle(self, nu):
        rs = spot_slice(nu)
        expiry = 0.25
        coeffs = atm_coefficients(rs, expiry)
        iv = exact_iv_of_m(rs, expiry)
        worst = max(
            abs(evaluate_polynomial("spot", coeffs, m, 4) - iv(m)) for m in np.linspace(-0.2, 0.2, 41)
        )
        assert worst < 5e-3

    def test_atm_exact_by_construction(self):
        rs = spot_slice(0.08)
        expiry = 0.25
        key = OptionKey(expiry, rs.ctx.forward(expiry))
        coeffs = atm_coefficients(rs, expiry)
        price = randomized_price(rs, key)
        brent = implied_vol_brent(rs.ctx, key, price, rtol=1e-15)
        assert abs(evaluate_polynomial("spot", coeffs, 0.0, 4) - brent) < 1e-10

    def test_asymmetry(self):
        rs = spot_slice(0.08)
        coeffs = atm_coefficients(rs, 0.25)
        assert evaluate_polynomial("spot", coeffs, 0.05, 4) != pytest.approx(
            evaluate_polynomial("spot", coeffs, -0.05, 4), abs=1e-6
        )

    def test_zero_base_vol_rejected(self):
        with pytest.raises(ExpansionRangeError):
            spot_coefficients(np.array([1.0]), np.array([100.0]), 100.0, 0.0, 1.0)


def reference_phi_deriv(n, x):
    """phi^(n)(x) = (-1)^n He_n(x) phi(x), one order per call, as the kernel formed it term by term."""
    ph = norm_pdf(x)
    if n == 0:
        return ph
    if n == 1:
        return -x * ph
    if n == 2:
        return (x * x - 1.0) * ph
    return -(x**3 - 3.0 * x) * ph


def reference_spot_coefficients(weights, nodes, s0, base_vol, tau):
    """The spot expansion's first vectorized formulation: every normal term and power formed where it is used."""
    lam, eta, tau = np.asarray(weights, dtype=float), np.asarray(base_vol, dtype=float), np.asarray(tau, dtype=float)
    a = np.asarray(nodes, dtype=float) / float(s0)
    sqrt_tau = np.sqrt(tau)
    s = (eta * sqrt_tau)[..., None]
    beta = np.log(a)
    d_plus = beta / s + 0.5 * s
    d_minus = beta / s - 0.5 * s
    sig_n = a * norm_cdf(d_plus) - norm_cdf(d_minus)
    p0 = 2.0 / sqrt_tau * norm_ppf(0.5 * (1.0 + np.sum(lam * sig_n, axis=-1)))

    def g_deriv(k):
        term = a * reference_phi_deriv(k - 1, d_plus) / s**k
        inner = (-1.0) ** k * norm_cdf(d_minus)
        for j in range(1, k + 1):
            inner = inner + math.comb(k, j) * (-1.0) ** (k - j) * reference_phi_deriv(j - 1, d_minus) / s**j
        return np.sum(lam * (term - inner), axis=-1)

    part = _bs_call_partials(p0 * sqrt_tau)

    def f(i, j):
        return tau ** (j / 2.0) * part[(i, j)]

    p1 = (g_deriv(1) - f(1, 0)) / f(0, 1)
    p2 = (g_deriv(2) - f(2, 0) - 2.0 * f(1, 1) * p1 - f(0, 2) * p1**2) / f(0, 1)
    p3 = (g_deriv(3) - f(3, 0) - 3.0 * f(2, 1) * p1 - 3.0 * f(1, 2) * p1**2 - f(0, 3) * p1**3
          - 3.0 * f(1, 1) * p2 - 3.0 * f(0, 2) * p1 * p2) / f(0, 1)
    p4 = (g_deriv(4) - f(4, 0) - 4.0 * f(3, 1) * p1 - 6.0 * f(2, 2) * p1**2 - 4.0 * f(1, 3) * p1**3
          - f(0, 4) * p1**4 - 6.0 * f(2, 1) * p2 - 12.0 * f(1, 2) * p1 * p2 - 6.0 * f(0, 3) * p1**2 * p2
          - 3.0 * f(0, 2) * p2**2 - 4.0 * f(1, 1) * p3 - 4.0 * f(0, 2) * p1 * p3) / f(0, 1)
    return np.stack([p0, p1, p2, p3, p4])


class TestSpotKernelAgainstReference:
    @pytest.mark.parametrize("n_q", [2, 3, 4, 5])
    def test_random_slices_match_the_reference(self, rng, n_q):
        # orders 0..2 take the reference's operations on its operands; orders 3 and 4 form signed powers as
        # products, and the order-4 polynomial, whose P4 cancels heavily at short expiries, may move by 1e-9 P0
        m = np.broadcast_to(np.linspace(-0.5, 0.5, 101)[:, None], (101, 200))
        for _ in range(5):
            rule = quadrature_for(SpotLogNormal(100.0, rng.uniform(0.01, 0.4)), n_q)
            base_vol, tau = rng.uniform(0.05, 1.0, 200), rng.uniform(0.02, 3.0, 200)
            got = spot_coefficients(rule.weights, rule.nodes, 100.0, base_vol, tau)
            want = reference_spot_coefficients(rule.weights, rule.nodes, 100.0, base_vol, tau)
            assert got[:3].tobytes() == want[:3].tobytes()
            gap = np.abs(evaluate_polynomial("spot", got, m, 4) - evaluate_polynomial("spot", want, m, 4))
            assert np.all(gap <= 1e-9 * want[0])


def reference_parameter_coefficients(weights, node_vols, tau):
    """The parameter expansion's node-last formulation: the quadrature axis last, each node sum numpy's."""
    lam = np.asarray(weights, dtype=float)
    eta = np.asarray(node_vols, dtype=float)
    tau = np.asarray(tau, dtype=float)
    sqrt_tau = np.sqrt(tau)

    h = 0.5 * eta * sqrt_tau[..., None]
    big_a = (lam * norm_cdf(h)).sum(-1)
    p0 = 2.0 / sqrt_tau * norm_ppf(big_a)

    sig0 = 0.5 * p0 * sqrt_tau
    sig0_2, h_2 = sig0 * sig0, h * h
    sig0_4, h_4 = sig0_2 * sig0_2, h_2 * h_2
    lam_e = lam * np.exp(0.5 * (sig0_2[..., None] - h_2))
    p2 = (-1.0 / sig0 + (lam_e / h).sum(-1)) / (2.0 * sqrt_tau)

    sig2 = p0 * p2 * tau
    sig2_2, sig2_6 = sig2 * sig2, 6.0 * sig2
    p4 = (
        (1.0 + sig2_6 + sig0_2 * (-7.0 - sig2_6 + 3.0 * sig2_2)) / (sig0_2 * sig0)
        + (lam_e / (h_2 * h) * (-1.0 + 7.0 * h_2)).sum(-1)
    ) / (8.0 * sqrt_tau)

    sig4 = p0 * p4 * tau
    sig2_45, sig4_60 = 45.0 * sig2, 60.0 * sig4
    p6 = (
        (
            -3.0
            - sig2_45
            + sig0_2 * (90.0 * sig2 + sig4_60)
            + sig0_4 * sig2 * (sig2_45 + sig4_60 - 15.0 * sig2_2)
            + 16.0 * sig0_2
            - 90.0 * sig2_2
            - 31.0 * sig0_4
            - 45.0 * sig0_2 * sig2_2
            - sig0_4 * (15.0 * sig2 + sig4_60)
            + 15.0 * sig0_2 * (sig2_2 * sig2)
        )
        / (sig0_4 * sig0)
        + (lam_e / (h_4 * h) * (3.0 - 16.0 * h_2 + 31.0 * h_4)).sum(-1)
    ) / (32.0 * sqrt_tau)

    return np.stack([p0, p2, p4, p6])


def parameter_batch(rng, n_q, points=300):
    """Random positive node vols and expiries, with weights shared by the batch and weights per point."""
    vols, tau = rng.uniform(0.05, 0.8, (points, n_q)), rng.uniform(0.02, 3.0, points)
    return rng.dirichlet(np.ones(n_q)), rng.dirichlet(np.ones(n_q), points), vols, tau


def last_axis_sum(x):
    """numpy's sum over a node-last copy of a node-first array: the reference's node sums."""
    return np.ascontiguousarray(np.moveaxis(x, 0, -1)).sum(-1)


class TestParameterKernelAgainstReference:
    @pytest.mark.parametrize("n_q", range(1, 8))
    def test_up_to_seven_nodes_bytes_equal(self, rng, n_q):
        # up to 7 nodes numpy sums a last axis one entry after another, as the node-first kernel adds rows
        shared, per_point, vols, tau = parameter_batch(rng, n_q)
        for weights in (shared, per_point):
            want = reference_parameter_coefficients(weights, vols, tau).tobytes()
            assert parameter_coefficients(weights, vols, tau).tobytes() == want
            # a node-first array enters as its transposed view
            node_first = [np.ascontiguousarray(np.moveaxis(x, -1, 0)) for x in np.broadcast_arrays(weights, vols)]
            assert parameter_coefficients(node_first[0].T, node_first[1].T, tau).tobytes() == want

    @pytest.mark.parametrize("n_q", [8, 9, 10])
    def test_eight_to_ten_nodes_differ_only_in_the_order_of_the_sums(self, rng, monkeypatch, n_q):
        # from 8 entries numpy sums a last axis pairwise; the row adds agree with it to rounding, and with
        # numpy's own sum put back the kernel is the reference byte for byte
        shared, per_point, vols, tau = parameter_batch(rng, n_q)
        terms = np.moveaxis(vols * rng.standard_normal(vols.shape), -1, 0)
        gap = np.abs(expansion._node_sum(terms) - last_axis_sum(terms))
        assert np.all(gap <= 1e-14 * np.abs(terms).sum(0))
        monkeypatch.setattr(expansion, "_node_sum", last_axis_sum)
        for weights in (shared, per_point):
            want = reference_parameter_coefficients(weights, vols, tau)
            assert parameter_coefficients(weights, vols, tau).tobytes() == want.tobytes()


class TestEvalExpansion:
    def test_even_polynomial_symmetry(self):
        coeffs = (0.2, 0.1, -0.7, 14.0)
        right = evaluate_polynomial("parameter", coeffs, 0.2, 6)
        assert right == evaluate_polynomial("parameter", coeffs, -0.2, 6)

    def test_m_zero_returns_p0(self):
        assert evaluate_polynomial("spot", (0.21, 0.05, -0.6, -5.0, 70.0), 0.0, 4) == 0.21

    def test_order_truncation(self):
        coeffs = (0.2, 0.1, -0.7, 14.0)
        m = 0.25
        t2 = evaluate_polynomial("parameter", coeffs, m, 2)
        t4 = evaluate_polynomial("parameter", coeffs, m, 4)
        assert t2 == pytest.approx(0.2 + 0.1 / 2 * m**2, rel=1e-15)
        assert t4 == pytest.approx(t2 - 0.7 / 24 * m**4, rel=1e-15)
