"""Analytic Taylor expansions of the randomized implied-volatility function.

Both expansions describe the implied volatility of a discretized
randomized price as a polynomial in log-moneyness m around m = 0 (the
forward strike).  Parameter randomization admits only even powers
(orders 0/2/4/6); spot randomization breaks the symmetry and carries all
powers through order 4.

The coefficients follow from implicit differentiation of

    bs_call(m, P(m)) = mixture_call(m)

and every closed form below is pinned by finite-difference tests against
a root-finding oracle on that implicit function.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr as norm_cdf, ndtri as norm_ppf

from .errors import ExpansionRangeError, RowFailures, fail_rows
from .pricing import norm_pdf

PARAMETER_ORDERS = (0, 2, 4, 6)
SPOT_ORDERS = (0, 1, 2, 3, 4)


def expansion_order(kind: str, order: int | None = None) -> int:
    """The order a ``kind`` expansion runs: its highest when ``order`` is None, else ``order`` checked."""
    orders = PARAMETER_ORDERS if kind == "parameter" else SPOT_ORDERS
    if order is None:
        return orders[-1]
    if order not in orders:
        raise ValueError(f"{kind} expansion supports orders {orders}, got {order}")
    return order


def parameter_coefficients(weights, node_vols, tau, order: int | None = None,
                           failures: RowFailures | None = None):
    """Even-order expansion coefficients for parameter randomization.

    ``node_vols`` has the quadrature axis last and broadcasts against
    ``tau``; a batch of points is a (points, n_q) array against a
    (points,) tau.  Returns the coefficients (P0, P2, P4, P6) stacked
    along the leading axis.  A point whose coefficients cannot be formed
    raises ExpansionRangeError; given ``failures``, a record over the
    (points,) batch, it is marked there instead (its coefficients are then
    meaningless).
    """
    expansion_order("parameter", order)
    lam = np.asarray(weights, dtype=float)
    eta = np.asarray(node_vols, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if fail_rows(failures, eta <= 0,
                 lambda: ExpansionRangeError("parameter expansion requires strictly positive node vols"), axes=1):
        eta = np.where(failures.bad[..., None], 0.2, eta)  # a marked point gets a harmless vol
    sqrt_tau = np.sqrt(tau)

    h = 0.5 * eta * sqrt_tau[..., None]
    big_a = _checked_cdf_sum((lam * norm_cdf(h)).sum(-1), failures)
    p0 = 2.0 / sqrt_tau * norm_ppf(big_a)

    sig0 = 0.5 * p0 * sqrt_tau
    # repeated subterms are formed once; each is the same operation on the same operands
    sig0_2, sig0_4, h_2 = sig0**2, sig0**4, h**2
    lam_e = lam * np.exp(0.5 * (sig0_2[..., None] - h_2))
    p2 = (-1.0 / sig0 + (lam_e / h).sum(-1)) / (2.0 * sqrt_tau)

    sig2 = p0 * p2 * tau
    sig2_2, sig2_6 = sig2**2, 6.0 * sig2
    p4 = (
        (1.0 + sig2_6 + sig0_2 * (-7.0 - sig2_6 + 3.0 * sig2_2)) / sig0**3
        + (lam_e / h**3 * (-1.0 + 7.0 * h_2)).sum(-1)
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
            + 15.0 * sig0_2 * sig2**3
        )
        / sig0**5
        + (lam_e / h**5 * (3.0 - 16.0 * h_2 + 31.0 * h**4)).sum(-1)
    ) / (32.0 * sqrt_tau)

    return np.stack([p0, p2, p4, p6])


def _checked_cdf_sum(big_a, failures: RowFailures | None):
    """The weighted normal CDF sum A, checked below 1: a point at 1 raises, or is marked and reads 3/4."""
    if fail_rows(failures, big_a >= 1.0,
                 lambda: ExpansionRangeError("weighted normal CDF sum reached 1; precision exhausted")):
        return np.where(failures.bad, 0.75, big_a)
    return big_a


# Hermite-polynomial derivatives of the standard normal density:
# phi^(n)(x) = (-1)^n He_n(x) phi(x).
def _phi_deriv(n: int, x):
    ph = norm_pdf(x)
    if n == 0:
        return ph
    if n == 1:
        return -x * ph
    if n == 2:
        return (x * x - 1.0) * ph
    if n == 3:
        return -(x**3 - 3.0 * x) * ph
    raise ValueError(f"unsupported derivative order {n}")


def _bs_call_partials(s_total):
    """Partial derivatives of the normalized BS call C(m, s) at m = 0.

    ``s_total`` is the total volatility P0*sqrt(tau).  Keys are (i, j)
    for d^{i+j} C / dm^i ds^j; values broadcast with s_total.
    """
    s = s_total
    ph = norm_pdf(0.5 * s)
    cdf_m = norm_cdf(-0.5 * s)
    return {
        (1, 0): cdf_m,
        (0, 1): ph,
        (2, 0): -cdf_m + ph / s,
        (1, 1): -0.5 * ph,
        (0, 2): -0.25 * s * ph,
        (3, 0): cdf_m - 1.5 * ph / s,
        (2, 1): ph * (0.25 - 1.0 / s**2),
        (1, 2): 0.125 * s * ph,
        (0, 3): (s**2 - 4.0) / 16.0 * ph,
        (4, 0): -cdf_m + ph * (1.75 / s - 1.0 / s**3),
        (3, 1): ph * (1.5 / s**2 - 0.125),
        (2, 2): ph * (-s / 16.0 + 0.25 / s + 2.0 / s**3),
        (1, 3): (4.0 - s**2) / 32.0 * ph,
        (0, 4): s * (12.0 - s**2) / 64.0 * ph,
    }


def spot_coefficients(weights, nodes, s0, base_vol, tau, order: int | None = None,
                      failures: RowFailures | None = None):
    """Expansion coefficients (orders 0..4) for spot randomization.

    ``base_vol`` and ``tau`` broadcast against each other (batch of
    points); the quadrature nodes, last axis, broadcast against the batch.
    Returns the coefficients (P0, P1, P2, P3, P4) stacked along the leading
    axis.  A point whose coefficients cannot be formed raises
    ExpansionRangeError, or, given ``failures``, is marked there.
    """
    expansion_order("spot", order)
    lam = np.asarray(weights, dtype=float)
    eta = np.asarray(base_vol, dtype=float)
    tau = np.asarray(tau, dtype=float)
    a = np.asarray(nodes, dtype=float) / float(s0)
    marked = fail_rows(failures, eta <= 0,
                       lambda: ExpansionRangeError("spot expansion requires a strictly positive base vol"))
    marked |= fail_rows(failures, a <= 0, lambda: ExpansionRangeError("spot nodes must be strictly positive"), axes=1)
    if marked:  # a marked point gets a harmless vol and nodes
        eta, a = np.where(failures.bad, 0.2, eta), np.where(failures.bad[..., None], 1.0, a)

    sqrt_tau = np.sqrt(tau)
    s = (eta * sqrt_tau)[..., None]
    beta = np.log(a)
    d_plus = beta / s + 0.5 * s
    d_minus = beta / s - 0.5 * s

    sig_n = a * norm_cdf(d_plus) - norm_cdf(d_minus)
    big_a = _checked_cdf_sum(0.5 * (1.0 + np.sum(lam * sig_n, axis=-1)), failures)
    p0 = 2.0 / sqrt_tau * norm_ppf(big_a)

    # m-derivatives of the mixture at m = 0 (all divided by the spot)
    def g_deriv(k: int):
        term = a * _phi_deriv(k - 1, d_plus) / s**k
        inner = (-1.0) ** k * norm_cdf(d_minus)
        for j in range(1, k + 1):
            inner = inner + math.comb(k, j) * (-1.0) ** (k - j) * _phi_deriv(j - 1, d_minus) / s**j
        return np.sum(lam * (term - inner), axis=-1)

    part = _bs_call_partials(p0 * sqrt_tau)

    def f_partial(i: int, j: int):
        return tau ** (j / 2.0) * part[(i, j)]

    f_y = f_partial(0, 1)
    p1 = (g_deriv(1) - f_partial(1, 0)) / f_y
    p2 = (
        g_deriv(2) - f_partial(2, 0) - 2.0 * f_partial(1, 1) * p1 - f_partial(0, 2) * p1**2
    ) / f_y
    p3 = (
        g_deriv(3)
        - f_partial(3, 0)
        - 3.0 * f_partial(2, 1) * p1
        - 3.0 * f_partial(1, 2) * p1**2
        - f_partial(0, 3) * p1**3
        - 3.0 * f_partial(1, 1) * p2
        - 3.0 * f_partial(0, 2) * p1 * p2
    ) / f_y
    p4 = (
        g_deriv(4)
        - f_partial(4, 0)
        - 4.0 * f_partial(3, 1) * p1
        - 6.0 * f_partial(2, 2) * p1**2
        - 4.0 * f_partial(1, 3) * p1**3
        - f_partial(0, 4) * p1**4
        - 6.0 * f_partial(2, 1) * p2
        - 12.0 * f_partial(1, 2) * p1 * p2
        - 6.0 * f_partial(0, 3) * p1**2 * p2
        - 3.0 * f_partial(0, 2) * p2**2
        - 4.0 * f_partial(1, 1) * p3
        - 4.0 * f_partial(0, 2) * p1 * p3
    ) / f_y

    return np.stack([p0, p1, p2, p3, p4])


def evaluate_polynomial(kind: str, coefficients, m, order: int):
    """Taylor polynomial value(s) at log-moneyness m; no validity guard.

    Horner evaluation with in-place accumulation; coefficients may be
    scalars or per-point arrays (leading coefficient axis).
    """
    c = np.asarray(coefficients, dtype=float)
    step = 2 if kind == "parameter" else 1  # the parameter polynomial is even in m
    arg = np.asarray(m, dtype=float) ** step
    powers = range(order - order % step, -1, -step)
    acc = np.empty_like(arg)
    acc[...] = c[powers[0] // step] / math.factorial(powers[0])
    for p in powers[1:]:
        acc *= arg
        acc += c[p // step] / math.factorial(p)
    return acc
