"""Black-Scholes pricing, log-moneyness, the vectorized implied-vol inversion and its scalar oracle."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import NoImpliedVolError, RootFindError

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_BRACKET_LO = 1e-9
_BRACKET_HI = 5.0
_BRACKET_EXPANSIONS = 3
_EPS = np.finfo(float).eps
_NEWTON_MAX_ITER = 50
_BRENT_MAX_ITER = 200


class OptionType(str, Enum):
    CALL = "call"
    PUT = "put"

    @classmethod
    def parse(cls, text: str) -> "OptionType":
        t = str(text).strip().lower()
        if t in ("c", "call"):
            return cls.CALL
        if t in ("p", "put"):
            return cls.PUT
        raise ValueError(f"unknown option type {text!r}")


@dataclass(frozen=True)
class MarketContext:
    """Spot and continuously compounded flat rate at the valuation date; expiries are year fractions from it."""

    s0: float
    r: float = 0.0

    def __post_init__(self):
        if not (self.s0 > 0.0 and math.isfinite(self.s0)):
            raise ValueError(f"spot must be positive and finite, got {self.s0}")
        if not math.isfinite(self.r):
            raise ValueError(f"rate must be finite, got {self.r}")

    def forward(self, expiry: float) -> float:
        return self.s0 * math.exp(self.r * expiry)


@dataclass(frozen=True)
class OptionKey:
    expiry: float
    strike: float
    kind: OptionType = OptionType.CALL

    def __post_init__(self):
        if not self.strike > 0.0:
            raise ValueError(f"strike must be positive, got {self.strike}")


def norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def log_moneyness(ctx: MarketContext, key: OptionKey) -> float:
    """m = log(s0/K) + r*T; zero exactly at the forward strike."""
    _check_expiry(key.expiry)
    return math.log(ctx.s0 / key.strike) + ctx.r * key.expiry


def bs_price(ctx: MarketContext, key: OptionKey, sigma: float) -> float:
    """Black-Scholes value of a European option.

    sigma = 0 returns the discounted intrinsic value.
    """
    if sigma < 0:
        raise ValueError(f"volatility must be >= 0, got {sigma}")
    return _bs_pricer(ctx, key)(sigma)


def _bs_pricer(ctx: MarketContext, key: OptionKey):
    """`bs_price` at one option as a function of sigma >= 0, with the option's terms formed once."""
    tau = _check_expiry(key.expiry)
    k_df = key.strike * math.exp(-ctx.r * tau)
    fwd_gap, sqrt_tau, log_m = ctx.s0 - k_df, math.sqrt(tau), math.log(ctx.s0 / key.strike) + ctx.r * tau
    parity = fwd_gap if key.kind is OptionType.PUT else 0.0  # put-call parity; x - 0.0 is x, bit for bit

    def price(sigma: float) -> float:
        st = sigma * sqrt_tau
        if st <= 0:
            return max(fwd_gap, 0.0) - parity
        d1 = log_m / st + 0.5 * st
        return ctx.s0 * _scalar_cdf(d1) - k_df * _scalar_cdf(d1 - st) - parity

    return price


def expiry_terms(ctx: MarketContext, expiry: float) -> tuple:
    """An expiry's tau, r*tau, discount factor, sqrt(tau) and forward, formed with math; raises unless the
    expiry is positive and finite."""
    tau = _check_expiry(expiry)
    return tau, ctx.r * tau, math.exp(-ctx.r * tau), math.sqrt(tau), ctx.forward(expiry)


def bs_call_values(s0, r_tau, df, sqrt_tau, strikes, sigmas) -> np.ndarray:
    """Vectorized Black-Scholes call values from an expiry's r*tau, discount factor and sqrt(tau)
    (`expiry_terms`); broadcasts over its array inputs, the terms included, so each pair can carry its own.

    Entries with sigma*sqrt(tau) <= 0 fall back to discounted intrinsic.
    """
    s0 = np.asarray(s0, dtype=float)
    k = np.asarray(strikes, dtype=float)
    sig = np.asarray(sigmas, dtype=float)
    st = sig * sqrt_tau
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (np.log(s0 / k) + r_tau) / st + 0.5 * st
        d2 = d1 - st
        values = s0 * ndtr(d1) - k * df * ndtr(d2)
    intrinsic = np.maximum(s0 - k * df, 0.0)
    return np.where(st > 0, values, intrinsic)


def bs_vegas(s0, r_tau, sqrt_tau, strikes, sigmas) -> np.ndarray:
    """Vectorized Black-Scholes vegas, the call value's derivative in sigma > 0, from an expiry's r*tau and sqrt(tau)
    (`expiry_terms`); broadcasts as `bs_call_values` does."""
    st = np.asarray(sigmas, dtype=float) * sqrt_tau
    d1 = (np.log(s0 / np.asarray(strikes, dtype=float)) + r_tau) / st + 0.5 * st
    return s0 * sqrt_tau * norm_pdf(d1)


def implied_vols(ctx: MarketContext, expiry: float, strikes, call_prices) -> np.ndarray:
    """Implied vols of call prices on a strike grid by one vectorized Newton pass.

    Newton runs on log b in log s, where b is the out-of-the-money part of
    the price normalized by sqrt(s0 K df) and s = sigma sqrt(tau) (after
    Jaeckel, "Let's Be Rational", 2015); log b is concave in s.  A step
    that leaves the bracket bisects.  A point settles when its price
    residual is within a few rounding errors of the price evaluation, or
    its bracket is a few ulps wide; the rest, among them prices outside
    (intrinsic, s0), are NaN.
    """
    return inverted_vols(ctx.s0, *expiry_terms(ctx, expiry)[1:4], strikes, call_prices)


def inverted_vols(s0: float, r_tau, df, sqrt_tau, strikes, call_prices) -> np.ndarray:
    """`implied_vols` from an expiry's r*tau, discount factor and sqrt(tau) (`expiry_terms`): each a float or a
    one-entry array for every strike, or an array of the strikes' shape for each strike its own."""
    strikes, prices = np.broadcast_arrays(
        np.asarray(strikes, dtype=float), np.asarray(call_prices, dtype=float)
    )
    intrinsic = np.maximum(s0 - strikes * df, 0.0)
    out = np.full(strikes.shape, np.nan)
    idx = np.flatnonzero((prices > intrinsic) & (prices < s0))
    theta = -np.abs(np.log(s0 / strikes.flat[idx]) + _at(r_tau, idx))
    target = (prices.flat[idx] - intrinsic.flat[idx]) / np.sqrt(s0 * strikes.flat[idx] * _at(df, idx))
    e = np.exp(0.5 * theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        # start at the smaller inverse of b's asymptotes, with e = exp(theta/2):
        # 2 pi |theta| 3^-1.5 N(theta/(sqrt(3) s))^3 as s -> 0, e - (e + 1/e) N(-s/2) as s -> oo
        low = theta / (math.sqrt(3.0) * ndtri(np.cbrt(3.0**1.5 * target / (2.0 * math.pi * -theta))))
        high = -2.0 * ndtri((e - target) / (e + 1.0 / e))
    s = np.minimum(np.where(low > 0, low, np.inf), np.where(high > 0, high, np.inf))
    s, lo, hi = np.where(s < np.inf, s, 1.0), np.zeros(idx.size), np.full(idx.size, np.inf)
    for _ in range(_NEWTON_MAX_ITER):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d1 = theta / s + 0.5 * s
            t1, vega = e * ndtr(d1), e * norm_pdf(d1)
            b = t1 - ndtr(d1 - s) / e
            g = np.log(b / target)
            # a Newton step on log b in log s, of at least one ulp so that a bracket can close
            step = -g * b / (vega * s)
            s_new = s * np.exp(np.copysign(np.maximum(np.abs(step), 2.0 * _EPS), step))
        lo, hi = np.where(g > 0, lo, s), np.where(g > 0, s, hi)
        # t1 + vega (|d1| + s) bounds the rounding error of b in units of eps
        noise = t1 + vega * (np.abs(d1) + s)
        done = (np.abs(b - target) <= 4.0 * _EPS * noise) | (hi - lo <= 4.0 * _EPS * lo)
        out.flat[idx[done]] = s[done]
        bisect = np.where(hi < np.inf, 0.5 * (lo + hi), 2.0 * lo)
        s = np.where((s_new > lo) & (s_new < hi), s_new, bisect)
        idx, theta, e, target, s, lo, hi = (a[~done] for a in (idx, theta, e, target, s, lo, hi))
        if idx.size == 0:
            break
    return out / sqrt_tau


def _at(value, idx):
    """An expiry term at the flat positions ``idx``: one value (a float or a one-entry array) as it is, else the
    entries there."""
    return value if np.size(value) == 1 else value.flat[idx]


def implied_vol_brent(
    ctx: MarketContext,
    key: OptionKey,
    price: float,
    warm_start: float | None = None,
    rtol: float = 1e-8,
) -> float:
    """Invert Black-Scholes for the volatility using Brent's method.

    Terminates when the relative difference between successive iterates
    drops below ``rtol``.  ``warm_start`` narrows the initial bracket
    around a previously solved neighboring volatility.
    """
    df = expiry_terms(ctx, key.expiry)[2]
    if key.kind is OptionType.CALL:
        lower, upper = max(ctx.s0 - key.strike * df, 0.0), ctx.s0
    else:
        lower, upper = max(key.strike * df - ctx.s0, 0.0), key.strike * df
    if not (lower < price < upper):
        raise NoImpliedVolError(
            f"no implied volatility exists: price {price!r} outside ({lower!r}, {upper!r})"
        )

    pricer = _bs_pricer(ctx, key)  # the bracket's sigmas are positive

    def objective(sigma: float) -> float:
        return pricer(sigma) - price

    from scipy.optimize import brentq  # imported here: no other path needs scipy.optimize at start-up
    lo, hi = _bracket(objective, warm_start)
    try:
        return float(brentq(objective, lo, hi, rtol=max(rtol, 9e-16), xtol=1e-15, maxiter=_BRENT_MAX_ITER))
    except RuntimeError as exc:  # pragma: no cover - brentq convergence failure
        raise RootFindError(f"Brent iteration did not converge: {exc}") from exc


def _bracket(objective, warm_start):
    if warm_start is not None and warm_start > 0:
        lo = max(warm_start / 1.5, _BRACKET_LO)
        hi = warm_start * 1.5
        if objective(lo) < 0 < objective(hi):
            return lo, hi
    lo, hi = _BRACKET_LO, _BRACKET_HI
    if objective(lo) > 0:
        raise RootFindError("price below the zero-volatility limit")
    for _ in range(_BRACKET_EXPANSIONS + 1):
        if objective(hi) > 0:
            return lo, hi
        hi *= 2.0
    raise RootFindError(f"could not bracket the implied volatility below {hi / 2.0}")


def _scalar_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT_2)


def _check_expiry(expiry: float) -> float:
    if not (expiry > 0 and math.isfinite(expiry)):
        raise ValueError(f"expiry {expiry} must be positive and finite")
    return expiry


def _check_strikes(strikes) -> np.ndarray:
    """The strikes as a 1-d float array, a scalar as one strike; raises unless every one is positive and finite."""
    strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
    if strikes.ndim > 1:
        raise ValueError(f"strikes must be a scalar or a 1-d array, got shape {strikes.shape}")
    bad = ~((strikes > 0) & np.isfinite(strikes))
    if bad.any():
        raise ValueError(f"strikes must be positive and finite, got {strikes[bad][0]:g}")
    return strikes
