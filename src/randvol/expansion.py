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
from functools import reduce

import numpy as np
from scipy.special import erf, erfinv, ndtr as norm_cdf

from .errors import ExpansionRangeError, RowFailures, fail_rows
from .pricing import norm_pdf

PARAMETER_ORDERS = (0, 2, 4, 6)
SPOT_ORDERS = (0, 1, 2, 3, 4)
_SQRT_2 = math.sqrt(2.0)


def expansion_order(kind: str, order: int | None = None) -> int:
    """The order a ``kind`` expansion runs: its highest when ``order`` is None, else ``order`` checked."""
    orders = PARAMETER_ORDERS if kind == "parameter" else SPOT_ORDERS
    if order is None:
        return orders[-1]
    if order not in orders:
        raise ValueError(f"{kind} expansion supports orders {orders}, got {order}")
    return order


def parameter_coefficients(weights, node_vols, tau, failures: RowFailures | None = None):
    """Even-order expansion coefficients for parameter randomization.

    ``weights`` and ``node_vols`` have the quadrature axis last and
    broadcast against ``tau``; a batch of points is a (points, n_q) array
    against a (points,) tau.  The kernel runs node first: a transposed
    view of an (n_q, points) array enters without a copy.  Returns the
    coefficients (P0, P2, P4, P6) stacked along the leading axis.  A point
    whose coefficients cannot be formed raises ExpansionRangeError; given
    ``failures``, a record over the (points,) batch, it is marked there
    instead (its coefficients are then meaningless).
    """
    tau = np.asarray(tau, dtype=float)
    lam, eta = _node_first((tau,), weights, node_vols)
    if fail_rows(failures, (eta <= 0).any(0),
                 lambda: ExpansionRangeError("parameter expansion requires strictly positive node vols")):
        eta = np.where(failures.bad, 0.2, eta)  # a marked point gets a harmless vol
    sqrt_tau = np.sqrt(tau)

    h = 0.5 * eta * sqrt_tau
    p0 = _atm_vol(_node_sum(lam * erf(h / _SQRT_2)), sqrt_tau, failures)

    sig0 = 0.5 * p0 * sqrt_tau
    # repeated subterms are formed once, and integer powers as products
    sig0_2, h_2 = sig0 * sig0, h * h
    sig0_4, h_4 = sig0_2 * sig0_2, h_2 * h_2
    lam_e = lam * np.exp(0.5 * (sig0_2 - h_2))
    p2 = (-1.0 / sig0 + _node_sum(lam_e / h)) / (2.0 * sqrt_tau)

    sig2 = p0 * p2 * tau
    sig2_2, sig2_6 = sig2 * sig2, 6.0 * sig2
    p4 = (
        (1.0 + sig2_6 + sig0_2 * (-7.0 - sig2_6 + 3.0 * sig2_2)) / (sig0_2 * sig0)
        + _node_sum(lam_e / (h_2 * h) * (-1.0 + 7.0 * h_2))
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
        + _node_sum(lam_e / (h_4 * h) * (3.0 - 16.0 * h_2 + 31.0 * h_4))
    ) / (32.0 * sqrt_tau)

    return np.stack([p0, p2, p4, p6])


def _node_first(batch: tuple, *arrays) -> list:
    """Node-last arrays as node-first views, batch axes padded to the ndim of theirs and the ``batch`` arrays'."""
    arrays = [np.asarray(x, dtype=float) for x in arrays]
    ndim = max([np.ndim(b) for b in batch] + [x.ndim - 1 for x in arrays])
    return [np.moveaxis(x, -1, 0).reshape(x.shape[-1:] + (1,) * (ndim + 1 - x.ndim) + x.shape[:-1]) for x in arrays]


def _node_sum(x):
    """The sum of a node-first array over its nodes, row after row, the package's one node sum (mixture prices
    take it too): each entry's sum is the same whatever the array's other entries, and for up to 7 nodes it is bit
    for bit numpy's sum over a last node axis (which sums 8 or more pairwise)."""
    return reduce(np.add, x)


def _atm_vol(g, sqrt_tau, failures: RowFailures | None):
    """P0 from g, the mixture's at-the-money call over the forward (2 A - 1 of the weighted normal CDF sum A):
    2 N^-1((1 + g) / 2) / sqrt(T), formed as 2 sqrt(2) erfinv(g) / sqrt(T) so that a small g (a short expiry)
    keeps its low bits.  A point with g at 1 raises, or is marked and reads g = 1/2."""
    if fail_rows(failures, g >= 1.0,
                 lambda: ExpansionRangeError("weighted normal CDF sum reached 1; precision exhausted")):
        g = np.where(failures.bad, 0.5, g)
    return 2.0 * _SQRT_2 / sqrt_tau * erfinv(g)


def _phi_derivs(x) -> tuple:
    """The standard normal density's derivatives of orders 0..3 at x: phi^(n)(x) = (-1)^n He_n(x) phi(x)."""
    ph, x_2 = norm_pdf(x), x * x
    return ph, -x * ph, (x_2 - 1.0) * ph, -((x_2 - 3.0) * x) * ph


def _bs_call_partials(s_total):
    """Partial derivatives of the normalized BS call C(m, s) at m = 0.

    ``s_total`` is the total volatility P0*sqrt(tau).  Keys are (i, j)
    for d^{i+j} C / dm^i ds^j; values broadcast with s_total.
    """
    s = s_total
    ph = norm_pdf(0.5 * s)
    cdf_m = norm_cdf(-0.5 * s)
    s_2, s_3 = s * s, s * s * s
    return {
        (1, 0): cdf_m,
        (0, 1): ph,
        (2, 0): -cdf_m + ph / s,
        (1, 1): -0.5 * ph,
        (0, 2): -0.25 * s * ph,
        (3, 0): cdf_m - 1.5 * ph / s,
        (2, 1): ph * (0.25 - 1.0 / s_2),
        (1, 2): 0.125 * s * ph,
        (0, 3): (s_2 - 4.0) / 16.0 * ph,
        (4, 0): -cdf_m + ph * (1.75 / s - 1.0 / s_3),
        (3, 1): ph * (1.5 / s_2 - 0.125),
        (2, 2): ph * (-s / 16.0 + 0.25 / s + 2.0 / s_3),
        (1, 3): (4.0 - s_2) / 32.0 * ph,
        (0, 4): s * (12.0 - s_2) / 64.0 * ph,
    }


def spot_coefficients(weights, nodes, s0, base_vol, tau, failures: RowFailures | None = None):
    """Expansion coefficients (orders 0..4) for spot randomization.

    ``base_vol`` and ``tau`` broadcast against each other (batch of
    points); the quadrature nodes, last axis, broadcast against the batch,
    and the kernel runs node first, as `parameter_coefficients` does.
    Returns the coefficients (P0, P1, P2, P3, P4) stacked along the leading
    axis.  A point whose coefficients cannot be formed raises
    ExpansionRangeError, or, given ``failures``, is marked there.
    """
    eta = np.asarray(base_vol, dtype=float)
    tau = np.asarray(tau, dtype=float)
    lam, a = _node_first((eta, tau), weights, nodes)
    a = a / float(s0)
    marked = fail_rows(failures, eta <= 0,
                       lambda: ExpansionRangeError("spot expansion requires a strictly positive base vol"))
    marked |= fail_rows(failures, (a <= 0).any(0), lambda: ExpansionRangeError("spot nodes must be strictly positive"))
    if marked:  # a marked point gets a harmless vol and nodes
        eta, a = np.where(failures.bad, 0.2, eta), np.where(failures.bad, 1.0, a)

    sqrt_tau = np.sqrt(tau)
    s = eta * sqrt_tau
    beta = np.log(a)
    d_plus = beta / s + 0.5 * s
    d_minus = beta / s - 0.5 * s

    cdf_minus = norm_cdf(d_minus)
    sig_n = a * norm_cdf(d_plus) - cdf_minus
    p0 = _atm_vol(_node_sum(lam * sig_n), sqrt_tau, failures)

    # m-derivatives of the mixture at m = 0 (all divided by the spot), from terms each formed once
    s_2 = s * s
    phi_plus, phi_minus, s_k = _phi_derivs(d_plus), _phi_derivs(d_minus), {1: s, 2: s_2, 3: s_2 * s, 4: s_2 * s_2}

    def g_deriv(k: int):
        term = a * phi_plus[k - 1] / s_k[k]
        inner = (-1.0) ** k * cdf_minus
        for j in range(1, k + 1):
            inner = inner + math.comb(k, j) * (-1.0) ** (k - j) * phi_minus[j - 1] / s_k[j]
        return _node_sum(lam * (term - inner))

    tau_j = [1.0, sqrt_tau, tau, tau * sqrt_tau, tau * tau]
    f = {(i, j): tau_j[j] * value for (i, j), value in _bs_call_partials(p0 * sqrt_tau).items()}
    # numpy's ** on a negative base leaves its vector loop, about 30x slower; P1 (negative wherever the base
    # skews down) and d+- (He_3 in _phi_derivs) take either sign, so their powers are products
    p1 = (g_deriv(1) - f[1, 0]) / f[0, 1]
    p1_2 = p1**2
    p1_3, p1_4 = p1_2 * p1, p1_2 * p1_2
    p2 = (g_deriv(2) - f[2, 0] - 2.0 * f[1, 1] * p1 - f[0, 2] * p1_2) / f[0, 1]
    p3 = (
        g_deriv(3)
        - f[3, 0]
        - 3.0 * f[2, 1] * p1
        - 3.0 * f[1, 2] * p1_2
        - f[0, 3] * p1_3
        - 3.0 * f[1, 1] * p2
        - 3.0 * f[0, 2] * p1 * p2
    ) / f[0, 1]
    p4 = (
        g_deriv(4)
        - f[4, 0]
        - 4.0 * f[3, 1] * p1
        - 6.0 * f[2, 2] * p1_2
        - 4.0 * f[1, 3] * p1_3
        - f[0, 4] * p1_4
        - 6.0 * f[2, 1] * p2
        - 12.0 * f[1, 2] * p1 * p2
        - 6.0 * f[0, 3] * p1_2 * p2
        - 3.0 * f[0, 2] * p2**2
        - 4.0 * f[1, 1] * p3
        - 4.0 * f[0, 2] * p1 * p3
    ) / f[0, 1]

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
