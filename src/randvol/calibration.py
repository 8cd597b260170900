"""Slice-wise least-squares calibration of plain and randomized parametrizations.

A fit is reported by its unweighted sum of squared implied-vol differences
against the retained market quotes, and its searches minimize that sum,
except on the exact engine for gamma-gamma: there each residual is the
mixture's call price less the quote's Black-Scholes price, over the quote's
vega (Christoffersen & Jacobs, J. Financial Economics 72, 2004), the vol
difference to first order, so that no search round inverts a price; the
chosen point is then inverted once.  Free parameters are optimized
unconstrained through bound-respecting transforms (log for positives,
scaled tanh for correlation; SABR's beta is pinned), with multistart
unbounded trust-region least squares on the residual vector in that
transformed space (scipy's TRF iteration in this module's code, one
gesdd per SVD; forward-difference Jacobian).  The slices of a surface advance in
one lockstep (`fit_surface`; `fit_slice` is its one-slice case): each
round evaluates every point their searches wait on as one stacked model
call, in which each row carries its slice's expiry and strikes.  A search
asks for each trial point with its Jacobian's stencil, so it takes one
round per trial.  A failed row is a value, not a
retry: its point reads None, and the round is never sent again.  The
points of a round stay arrays from the transform to the rule: they
become one set of parameter columns (`SliceColumns`), from which the
stacked rule and the node vols are built; `SliceParams` is the public
and JSON type only, built for the result.  The lognormal randomizers
(sigma and spot) also start from a plain prefit embedded at ν = 1e-8,
where they collapse to the plain model, so their fit's objective is at
most that start's.  Gamma-gamma runs no prefit and claims no such
dominance: its embedding, θ = 1e-8 and k = γ/θ, builds a rule, but as a
start it never scored in a measured default fit, and on low-γ plain-SABR
quotes its vol sse can exceed the plain fit's, since its searches
minimize price residuals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate
from types import SimpleNamespace
from typing import Callable, Generator, Literal, Optional, Sequence, get_args

import numpy as np

from .errors import CalibrationError, RowFailures, fail_rows
from .expansion import expansion_order
from .parametrizations import (
    BASES,
    RHO_MAX,
    RandomizerSpec,
    SabrParams,
    SliceColumns,
    SliceParams,
    params_to_json,
    plain_columns,
)
from .pricing import MarketContext, OptionType, bs_call_values, bs_vegas, expiry_terms
from .quadrature import (
    FAMILIES, MAX_NQ, DiscreteGiven, DistributionSpec, Gamma, LogNormal, SpotLogNormal, check_domains,
)
from .randomization import implied_vol_grid, implied_vol_stack, parse_engine, randomize

ModelName = Literal["flat", "sabr"]
RandomizerName = Literal["none", "sigma-lognormal", "gamma-gamma", "spot-lognormal"]


@dataclass(frozen=True)
class Quote:
    expiry: float
    strike: float
    iv: float
    kind: OptionType
    open_interest: int = 0

    def __post_init__(self):
        if not (self.iv > 0 and math.isfinite(self.iv)):
            raise ValueError(f"quoted implied vol must be positive and finite, got {self.iv}")
        if not (self.strike > 0 and math.isfinite(self.strike)):
            raise ValueError(f"strike must be positive and finite, got {self.strike}")
        if self.open_interest < 0:
            raise ValueError("open interest must be nonnegative")


@dataclass(frozen=True)
class QuoteSet:
    quotes: tuple
    ctx: MarketContext

    def __post_init__(self):
        object.__setattr__(self, "quotes", tuple(self.quotes))

    def expiries(self) -> list[float]:
        return sorted({q.expiry for q in self.quotes})

    def at_expiry(self, expiry: float) -> "QuoteSet":
        return QuoteSet(tuple(q for q in self.quotes if q.expiry == expiry), self.ctx)

    def __len__(self) -> int:
        return len(self.quotes)


def select_liquid(raw: QuoteSet) -> QuoteSet:
    """Keep one quote per (T, K): the larger open interest, OTM side on ties."""
    grouped: dict[tuple[float, float], list[Quote]] = {}
    for q in raw.quotes:
        grouped.setdefault((q.expiry, q.strike), []).append(q)
    kept = []
    for (expiry, strike), quotes in grouped.items():
        otm_kind = OptionType.CALL if strike >= raw.ctx.forward(expiry) else OptionType.PUT
        kept.append(max(quotes, key=lambda q: (q.open_interest, q.kind is otm_kind)))  # the first of the best
    kept.sort(key=lambda q: (q.expiry, q.strike))
    return QuoteSet(tuple(kept), raw.ctx)


@dataclass(frozen=True)
class FitConfig:
    model: ModelName = "sabr"
    randomizer: RandomizerName = "gamma-gamma"
    n_q: int = 2
    beta: float = 0.9  # SABR's exponent, pinned in every fit
    # None takes the randomizer's default: 'expansion' for sigma-lognormal, whose exact fits cost more CPU, else
    # 'brent', measured no slower and exact where the expansion misses short-dated W-shaped smiles.  It is resolved
    # on construction, so `dataclasses.replace` with another randomizer keeps the engine already resolved.
    engine: Optional[str] = None
    budget: int = 2000  # points per search, Jacobians included: at most max(budget, n + 1) for n free parameters
    multistart: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.model not in get_args(ModelName):
            raise ValueError(f"unknown model {self.model!r}")
        if self.randomizer not in get_args(RandomizerName):
            raise ValueError(f"unknown randomizer {self.randomizer!r}")
        if self.engine is None:
            object.__setattr__(self, "engine", "expansion" if self.randomizer == "sigma-lognormal" else "brent")
        method, order = parse_engine(self.engine)
        if method == "expansion":
            expansion_order("spot" if self.randomizer == "spot-lognormal" else "parameter", order)
        for key, least in (("multistart", 1), ("budget", 1), ("seed", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be at least {least}, got {getattr(self, key)}")
        if not 1 <= self.n_q <= MAX_NQ:
            raise ValueError(f"n_q must be between 1 and {MAX_NQ}, got {self.n_q}")
        check_domains({"beta": [self.beta]})


@dataclass
class FitResult:
    params: SliceParams
    expiry: float
    sse: float
    mse: float
    residuals: list
    randomizer_variance: float
    converged: bool
    evaluations: int  # distinct parameter points evaluated, a lognormal randomizer's plain prefit included
    model_calls: int  # stacked model_vols calls that held one of its points or more, counted as evaluations are

    def to_json(self) -> dict:
        out = {
            "expiry": self.expiry,
            "params": params_to_json(self.params),
            "sse": self.sse,
            "mse": self.mse,
            "converged": self.converged,
            "randomizer_variance": self.randomizer_variance,
            "evaluations": self.evaluations,
            "model_calls": self.model_calls,
        }
        rnd = self.params.randomizer
        if rnd is not None and isinstance(rnd.dist, Gamma) and isinstance(self.params.base, SabrParams):
            base = self.params.base
            out["table"] = {
                "beta": base.beta,
                "alpha": base.alpha,
                "rho": base.rho,
                "k": rnd.dist.k,
                "theta": rnd.dist.theta,
                "var_gamma": self.randomizer_variance,
            }
        return out


def variance_of_randomizer(spec: DistributionSpec) -> float:
    """Closed-form variance of a randomizer distribution."""
    if isinstance(spec, Gamma):
        return spec.k * spec.theta**2
    if isinstance(spec, LogNormal):
        return (math.exp(spec.nu**2) - 1.0) * math.exp(2.0 * spec.mu + spec.nu**2)
    if isinstance(spec, SpotLogNormal):
        return (math.exp(spec.nu**2) - 1.0) * spec.s0**2
    if isinstance(spec, DiscreteGiven):
        w, x = np.array(spec.points).T
        return float(np.dot(w, x**2) - np.dot(w, x) ** 2)
    raise TypeError(f"unsupported distribution spec: {spec!r}")


# ---------------------------------------------------------------------------
# free-parameter layout and transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _FreeParam:
    name: str
    to_internal: Callable[[float], float]
    from_internal: Callable[[np.ndarray], np.ndarray]  # on a column of points
    start_range: tuple[float, float]  # in transformed space


def _free_parameters(cfg: FitConfig) -> list[_FreeParam]:
    log_vol = (math.log(0.03), math.log(1.2))
    params: list[_FreeParam] = []
    if cfg.model == "flat":
        if cfg.randomizer in ("none", "spot-lognormal"):
            params.append(_FreeParam("sigma", math.log, np.exp, log_vol))
        elif cfg.randomizer == "sigma-lognormal":
            params.append(_FreeParam("mu", lambda x: x, lambda y: y, log_vol))
            params.append(_FreeParam("nu", math.log, np.exp, (math.log(0.01), math.log(0.8))))
        else:
            raise ValueError(f"randomizer {cfg.randomizer!r} incompatible with the flat model")
    else:
        if cfg.randomizer == "sigma-lognormal":
            raise ValueError("sigma randomization applies to the flat model only")
        params.append(_FreeParam("alpha", math.log, np.exp, (math.log(0.05), math.log(1.0))))
        params.append(_FreeParam("rho", lambda x: math.atanh(min(max(x / RHO_MAX, -0.999999), 0.999999)),
                                 lambda y: RHO_MAX * np.tanh(y), (-1.2, 1.2)))
        if cfg.randomizer == "gamma-gamma":
            params.append(_FreeParam("k", math.log, np.exp, (math.log(0.5), math.log(8.0))))
            params.append(_FreeParam("theta", math.log, np.exp, (math.log(0.02), math.log(2.0))))
        else:
            params.append(_FreeParam("gamma", math.log, np.exp, (math.log(0.05), math.log(4.0))))
    if cfg.randomizer == "spot-lognormal":
        params.append(_FreeParam("nu", math.log, np.exp, (math.log(5e-3), math.log(0.4))))
    return params


def _free_values(cfg: FitConfig, free: list[_FreeParam], points, failures: Optional[RowFailures] = None) -> dict:
    """Each parameter's column over (P, n) transformed points, the pinned beta included.  A transform that overflows
    raises OverflowError; given ``failures``, its point is marked there instead (its values are then meaningless)."""
    columns = np.asarray(points, dtype=float).reshape(-1, len(free)).T
    with np.errstate(over="ignore"):
        values = {p.name: p.from_internal(column) for p, column in zip(free, columns)}
    bad = ~np.isfinite(np.array(list(values.values())))
    fail_rows(failures, bad.T, lambda: OverflowError(f"{free[bad.any(1).argmax()].name} overflows its transform"),
              axes=1)
    return values | {"beta": np.full(columns.shape[1], float(cfg.beta))}


def _values_from_vector(cfg: FitConfig, free: list[_FreeParam], vector) -> dict:
    return {name: float(column[0]) for name, column in _free_values(cfg, free, [vector]).items()}


def build_slice_params(cfg: FitConfig, values: dict, ctx: MarketContext) -> SliceParams:
    """Assemble SliceParams from a named parameter mapping per the fit config."""
    columns = _point_columns(cfg, {name: [value] for name, value in values.items()}, ctx.s0)
    v = {name: float(column[0]) for name, column in columns.columns.items() if column.ndim == 1}
    base_type, names = BASES[cfg.model]
    base = base_type(*(v[name] for name in names))
    if cfg.randomizer == "none":
        return SliceParams(base)
    spec_type, names = FAMILIES[columns.family]
    return SliceParams(base, RandomizerSpec(columns.target, spec_type(*(v[name] for name in names)), cfg.n_q))


def _point_columns(cfg: FitConfig, values: dict, s0: float, failures: Optional[RowFailures] = None) -> SliceColumns:
    """The parameter columns of points given as an array of values per parameter, each checked against its domain.

    A point outside raises; given ``failures``, it is marked there instead (its columns are then meaningless).
    The given values are checked first, then the derived one: a SABR gamma from k and theta, or a flat sigma as
    the lognormal mean, whose overflow fails the point as a transform's does.
    """
    values = {name: np.asarray(column, dtype=float) for name, column in values.items()}
    values["s0"] = np.full(len(next(iter(values.values()))), float(s0))
    target, family = {"gamma-gamma": ("gamma", "gamma"), "sigma-lognormal": ("sigma", "lognormal"),
                      "spot-lognormal": ("spot", "spot-lognormal")}.get(cfg.randomizer, (None, "discrete"))
    names = BASES[cfg.model][1] + (FAMILIES[family][1] if family in FAMILIES else ())
    derived = target if target in names else None  # a randomized base parameter is its distribution's mean
    check_domains({name: values[name] for name in names if name != derived}, failures)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails its point below
        if cfg.randomizer == "sigma-lognormal":
            values["sigma"] = np.exp(values["mu"] + 0.5 * (values["nu"] * values["nu"]))
            fail_rows(failures, np.isinf(values["sigma"]), lambda: OverflowError("the lognormal mean overflows"))
        elif cfg.randomizer == "gamma-gamma":
            values.setdefault("gamma", values["k"] * values["theta"])
    check_domains({name: values[name] for name in names if name == derived}, failures)
    columns = {name: values[name] for name in names}
    return plain_columns(columns) if family == "discrete" else SliceColumns(target, family, cfg.n_q, columns)


# a name of its own: the benchmark's tracer counts the calibrator's model calls here
def model_vols(cols: SliceColumns, ctx: MarketContext, expiries, strikes, engine: str,
               prices: bool = False) -> np.ndarray:
    """`implied_vol_stack`'s flat vols of a stack of points, one expiry and strike array per row, or with ``prices``
    its call prices; a failed row's NaN."""
    return implied_vol_stack(cols, ctx, expiries, strikes, engine, prices)[0]


def check_vegas(quotes: QuoteSet) -> None:
    """Refuse, with a ValueError naming it, a quote whose Black-Scholes vega at its own vol is not a positive normal
    float: a price residual is scaled by it."""
    for expiry in quotes.expiries():
        _market_terms(quotes.at_expiry(expiry))


def _market_terms(quotes: QuoteSet) -> np.ndarray:
    """Rows of the Black-Scholes call values of one expiry's quotes at their own vols, their vegas, and the open
    bounds of a call value, (intrinsic, s0); raises as `check_vegas` says."""
    ctx, expiry = quotes.ctx, quotes.quotes[0].expiry
    strikes, vols = np.array([(q.strike, q.iv) for q in quotes.quotes]).T
    _, r_tau, df, sqrt_tau, _ = expiry_terms(ctx, expiry)
    vegas = bs_vegas(ctx.s0, r_tau, sqrt_tau, strikes, vols)
    bad = ~(np.isfinite(vegas) & (vegas >= np.finfo(float).tiny))
    if bad.any():
        quote = quotes.quotes[bad.argmax()]
        raise ValueError(f"quote at expiry {expiry!r} and strike {quote.strike!r}: its Black-Scholes vega "
                         f"{float(vegas[bad.argmax()])!r} at its vol {quote.iv!r} is not a positive normal float")
    return np.array([bs_call_values(ctx.s0, r_tau, df, sqrt_tau, strikes, vols), vegas,
                     np.maximum(ctx.s0 - strikes * df, 0.0), np.full(strikes.size, ctx.s0)])


_FTOL = _XTOL = _GTOL = 1e-8  # least_squares' default ftol, xtol and gtol
_EPS = np.finfo(float).eps


def minimize(residuals, start, budget: int):
    """Trust-region least squares from ``start`` within ``budget`` evaluations, as a generator.

    Scipy's unbounded ``least_squares(method="trf")`` iteration (Branch, Coleman & Li, SIAM J. Sci. Comput. 21,
    1999) with the exact solver, unit ``x_scale``, linear loss, '2-point' Jacobian and its default tolerances (ftol,
    xtol and gtol 1e-8), bit for bit.  It yields the points each step needs, reads their residuals once resumed, and
    returns least_squares' ``x`` and ``success``.  Each trial point is yielded with its Jacobian's `_stencil` (Byrd,
    Schnabel & Shultz, Math. Programming 42, 1988), built once: a memoizing caller evaluates it in the trial's round,
    and an accepted trial hands it to `_jacobian`; a rejected trial's stencil is never read.  It reads scipy's points
    in scipy's order and asks for at most (n + 1)·max_nfev ≤ max(budget, n + 1) points.  The step, radius update and
    termination test are this module's code with scipy's arithmetic; a norm is sqrt(x.x).
    """
    x = np.array(start, dtype=float)
    f, J = yield from _jacobian(residuals, x)
    # max_nfev leaves out the n finite-difference evaluations of each Jacobian
    max_nfev, nfev, done = max(budget // (x.size + 1), 1), 1, False
    cost, g, delta, alpha = 0.5 * np.dot(f, f), J.T.dot(f), math.sqrt(x.dot(x)) or 1.0, 0.0
    while True:
        done = done or np.abs(g).max() < _GTOL
        if done or nfev == max_nfev:
            break
        U, s, Vt = _svd(J)
        uf, V, reduction = U.T.dot(f), Vt.T, -1
        while reduction <= 0 and nfev < max_nfev:
            step, alpha = _trust_region_step(x.size, f.size, uf, s, V, delta, alpha)
            Js = J.dot(step)
            predicted = -(0.5 * np.dot(Js, Js) + np.dot(step, g))
            x_new = x + step
            yield np.concatenate((x_new[None], points := _stencil(x_new)))
            f_new, nfev, step_norm = residuals(x_new), nfev + 1, math.sqrt(step.dot(step))
            if not np.isfinite(f_new).all():
                delta = 0.25 * step_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            reduction = cost - cost_new
            # scipy's update_tr_radius, then its check_termination, whose status only says "done"
            ratio = reduction / predicted if predicted > 0 else 1 if predicted == reduction == 0 else 0
            delta_new = (0.25 * step_norm if ratio < 0.25 else
                         2.0 * delta if ratio > 0.75 and step_norm > 0.95 * delta else delta)
            done = (reduction < _FTOL * cost and ratio > 0.25) or step_norm < _XTOL * (_XTOL + math.sqrt(x.dot(x)))
            if done:
                break
            alpha, delta = alpha * (delta / delta_new), delta_new
        if reduction > 0:
            x, cost = x_new, cost_new
            f, J = yield from _jacobian(residuals, x, f_new, points)
            g = J.T.dot(f)
    return SimpleNamespace(x=x, success=bool(done))


def _svd(J: np.ndarray):
    """``scipy.linalg.svd(J, full_matrices=False)`` bit for bit, layouts included: numpy's gesdd, with U and Vt
    copied to F order as scipy returns them (C-order factors round apart in ``U.T.dot(f)``).  A copy, not
    ``np.asfortranarray``, so that a factor with a unit axis (one free parameter) gets scipy's strides too."""
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    return np.array(U, order="F"), s, np.array(Vt, order="F")


def _trust_region_step(n: int, m: int, uf: np.ndarray, s: np.ndarray, V: np.ndarray, delta: float, alpha: float):
    """Scipy's ``solve_lsq_trust_region(n, m, uf, s, V, delta, initial_alpha=alpha)`` bit for bit: the step and
    Levenberg-Marquardt alpha from J's SVD (uf = U.T f, V = Vt.T) by Moré's secant iteration (1977).  ``n`` is the
    number of variables, more than ``s.size`` when m < n."""
    suf = s * uf
    s2, suf2 = s**2, suf**2
    full_rank = m >= n and s[-1] > _EPS * m * s[0]
    if full_rank:  # the Gauss-Newton step, if it fits
        p = -V.dot(uf / s)
        if math.sqrt(p.dot(p)) <= delta:
            return p, 0.0

    def phi(a: float) -> tuple[float, float]:  # ||p(a)|| - delta, and its derivative in a
        denom = s2 + a
        q = suf / denom
        q_norm = math.sqrt(q.dot(q))
        return q_norm - delta, -float((suf2 / denom**3).sum()) / q_norm

    upper, lower = math.sqrt(suf.dot(suf)) / delta, 0.0
    if full_rank:
        value, slope = phi(0.0)
        lower = -value / slope
    elif alpha == 0:
        alpha = max(0.001 * upper, (lower * upper) ** 0.5)
    for _ in range(10):
        if alpha < lower or alpha > upper:
            alpha = max(0.001 * upper, (lower * upper) ** 0.5)
        value, slope = phi(alpha)
        if value < 0:
            upper = alpha
        ratio = value / slope
        lower = max(lower, alpha - ratio)
        alpha -= (value + delta) * ratio / delta
        if abs(value) < 0.01 * delta:
            break
    p = -V.dot(suf / (s2 + alpha))
    p *= delta / math.sqrt(p.dot(p))
    return p, alpha


def _stencil(x: np.ndarray) -> np.ndarray:
    """The n points of least_squares' '2-point' Jacobian at x: n copies of x, each stepped forward on the diagonal."""
    h = _EPS ** 0.5 * ((x >= 0).astype(float) * 2 - 1) * np.maximum(1.0, np.abs(x))
    points = x[None].repeat(x.size, 0)
    points.flat[::x.size + 1] = x + h
    return points


def _jacobian(residuals, x: np.ndarray, f: Optional[np.ndarray] = None, points: Optional[np.ndarray] = None):
    """least_squares' '2-point' Jacobian at x bit for bit, as a generator returning (f, J).

    It yields ``points``, x's `_stencil` unless given, after x itself unless f, the residuals at x, is given: in
    `minimize` an accepted trial hands in the stencil its round evaluated.  J is ((R - f) / (diag - x)).T over the
    stencil's residual rows R, in scipy's F-ordered layout and strides."""
    points = _stencil(x) if points is None else points
    yield points if f is not None else np.concatenate((x[None], points))
    f = residuals(x) if f is None else f
    return f, ((np.array([residuals(p) for p in points]) - f) / (points.diagonal() - x)[:, None]).T


class _SliceObjective:
    """Residuals of one slice, memoized per parameter point so that none is evaluated twice.

    They are vega-scaled price residuals on the exact engine for a gamma-gamma rule of more than one node, else
    vol residuals.  The split is measured, not derived: where the model misfits the quotes, the price loss's chosen
    point lies further off in vol, and on the benchmark's gamma-gamma quotes only gamma-gamma fits.  A point maps to
    None where its transform or the model failed, or gave a non-finite vol or a price outside (intrinsic, s0), which
    has no vol.  ``model_calls`` counts the stacked model calls that held at least one of its points.
    """

    def __init__(self, quotes: QuoteSet, cfg: FitConfig, free: list, surface: Optional["SurfaceFit"] = None):
        self.cfg, self.free, self.ctx, self.expiry = cfg, free, quotes.ctx, quotes.expiries()[0]
        self.strikes = np.array([q.strike for q in quotes.quotes])
        self.market = np.array([q.iv for q in quotes.quotes])
        self.prices = cfg.randomizer == "gamma-gamma" and cfg.n_q > 1 and parse_engine(cfg.engine)[0] == "brent"
        # a model row's target, scale and open bounds per quote: its residual is (row - target) / scale
        n = self.market.size
        self.terms = _market_terms(quotes) if self.prices else np.array([self.market, np.ones(n), np.full(n, -np.inf),
                                                                         np.full(n, np.inf)])
        self.memo: dict[bytes, Optional[np.ndarray]] = {}
        self.model_calls = 0
        self.surface = surface

    def fresh(self, vectors) -> dict:
        """The points of ``vectors`` the memo lacks, each once, keyed by their bytes."""
        return {k: v for v in vectors if (k := np.asarray(v, dtype=float).tobytes()) not in self.memo}

    def evaluate(self, vectors) -> None:
        _evaluate([(self, self.fresh(vectors))])

    def residuals(self, vector) -> Optional[np.ndarray]:
        key = np.asarray(vector, dtype=float).tobytes()
        if key not in self.memo:
            self.evaluate([vector])
        return self.memo[key]

    def objective(self, vector) -> float:
        diff = self.residuals(vector)
        return float("inf") if diff is None else float(np.sum(diff**2))

    def penalized(self, vector) -> np.ndarray:
        # a failed point reads as 100 vol points off at every quote: the trust region backs off
        diff = self.residuals(vector)
        return np.ones_like(self.market) if diff is None else diff


def _evaluate(requests) -> None:
    """Evaluate (slice objective, fresh points) requests, as `_SliceObjective.fresh` gives them, as one stacked
    model call.

    The objectives share one fit configuration and market; each slice's points go at its own expiry
    and strikes.  A point whose transform or model fails, or whose row has a value outside its bounds,
    reads None in its slice's memo and spares the others, whose rows are bit for bit their lone evaluations.
    """
    fresh: dict = {}
    for problem, points in requests:
        fresh.setdefault(problem, {}).update(points)
    owners = [problem for problem, points in fresh.items() for _ in points]
    if not owners:
        return
    keys = [key for points in fresh.values() for key in points]
    first = owners[0]
    failures = RowFailures(len(owners))
    points = [point for points in fresh.values() for point in points.values()]
    columns = _point_columns(first.cfg, _free_values(first.cfg, first.free, points, failures), first.ctx.s0, failures)
    good = np.flatnonzero(~failures.bad).tolist() if failures.any else range(len(owners))
    held = [owners[i] for i in good]
    for key, problem in zip(keys, owners):
        problem.memo[key] = None
    if not held:
        return
    for problem in dict.fromkeys(held):
        problem.model_calls += 1
    if first.surface is not None:
        first.surface.model_calls += 1
    values = model_vols(columns[good] if failures.any else columns, first.ctx, [p.expiry for p in held],
                        [p.strikes for p in held], first.cfg.engine, first.prices)
    target, scale, lower, upper = np.concatenate([p.terms for p in held], axis=1)
    diff = (values - target) / scale
    starts = [0, *accumulate(p.market.size for p in held)]
    inside = np.logical_and.reduceat((values > lower) & (values < upper), starts[:-1])
    for i, problem, start, end, ok in zip(good, held, starts, starts[1:], inside):
        if ok:
            problem.memo[keys[i]] = diff[start:end]


class SurfaceFit(list):
    """The fits of a quote set's expiry slices, in expiry order: each a FitResult, or the CalibrationError of a
    slice that failed (with its best point, if any).  ``model_calls`` counts the stacked model calls the
    slices shared, each once."""

    model_calls: int = 0


def fit_slice(quotes: QuoteSet, cfg: FitConfig) -> FitResult:
    """Fit one expiry slice: `fit_surface` of one slice.

    Runs ``cfg.multistart`` least-squares searches on the slice's residuals (`_SliceObjective`) from a Latin grid
    over the transformed parameter space, plus one from a lognormal randomizer's embedded plain prefit, and returns
    the best result.  Each search evaluates at most max(``cfg.budget``, n + 1) points for n free parameters,
    finite-difference Jacobians included: its start and the start's stencil always.  The starting probes are
    evaluated as one batch; the searches then run in lockstep, one stacked model call per round, one round per
    trial point.
    """
    expiries = quotes.expiries()
    if len(expiries) != 1:
        raise ValueError(f"fit_slice expects quotes at exactly one expiry, got {expiries}")
    result = fit_surface(quotes, cfg)[0]
    if isinstance(result, CalibrationError):
        raise result
    return result


def fit_surface(quotes: QuoteSet, cfg: FitConfig) -> SurfaceFit:
    """Fit every expiry slice of ``quotes``; one FitResult or CalibrationError per expiry, in expiry order.

    For the lognormal randomizers the slices' plain prefits run in one lockstep first; the fit's own searches run in
    another: each round is one stacked model call over the points every slice's searches wait on.  Each slice keeps
    its own memo, starts, budget and result, equal bit for bit to `fit_slice` on it alone; the result's
    ``model_calls`` counts each shared call once.  A quote that `check_vegas` refuses raises before any fit starts.
    """
    check_vegas(quotes)
    free = _free_parameters(cfg)
    slices = [quotes.at_expiry(expiry) for expiry in quotes.expiries()]
    fits = SurfaceFit(
        CalibrationError(f"need at least {len(free)} quotes to fit {len(free)} free parameters, got {len(q)}")
        if len(q) < len(free) else None for q in slices
    )
    live = [i for i, fit in enumerate(fits) if fit is None]
    slices = [slices[i] for i in live]
    plain = [None] * len(live)
    if cfg.randomizer in ("sigma-lognormal", "spot-lognormal"):  # the randomizers whose embedding builds
        prefits = _multistart(slices, _plain_config(cfg), [None] * len(live), plain, fits)
        plain = [r.best if isinstance(r, CalibrationError) else r for r in prefits]
    embedded = [None if p is None else _degenerate_embedding(cfg, free, p) for p in plain]
    for i, result in zip(live, _multistart(slices, cfg, embedded, plain, fits)):
        fits[i] = result
    return fits


def _multistart(slices: list, cfg: FitConfig, embedded: list, plain: list, surface: SurfaceFit) -> list:
    """Multistart searches on each slice, all in one lockstep; a FitResult or CalibrationError per slice.

    The starts of every slice (its Latin grid, plus its ``embedded`` start if any) are probed as one
    stacked call; the searches from the finite ones then run in lockstep.
    """
    free = _free_parameters(cfg)
    problems = [_SliceObjective(q, cfg, free, surface) for q in slices]
    latin = _latin_starts(np.random.default_rng(cfg.seed), [p.start_range for p in free], cfg.multistart)
    starts = [latin if e is None else np.vstack([latin, e]) for e in embedded]
    _evaluate([(problem, problem.fresh(s)) for problem, s in zip(problems, starts)])
    searches = [(problem, minimize(problem.penalized, s, cfg.budget))
                for problem, ss in zip(problems, starts) for s in ss if math.isfinite(problem.objective(s))]
    outcomes: dict = {problem: [] for problem in problems}
    for (problem, _), result in zip(searches, _lockstep([p for p, _ in searches], [s for _, s in searches])):
        outcomes[problem].append((problem.objective(result.x), result.x, result.success))
    return [_best(problem, cfg, free, outcomes[problem], start, prefit)
            for problem, start, prefit in zip(problems, embedded, plain)]


def _best(problem: _SliceObjective, cfg: FitConfig, free: list, candidates: list, embedded, plain):
    """A slice's FitResult from its searches' (objective, x, success) and its embedded start, or its
    CalibrationError.  The point is chosen by the searches' objective; its sse, mse and residuals are in vol."""
    if embedded is not None:
        candidates = [(problem.objective(embedded), np.asarray(embedded), False)] + candidates
    finite = [c for c in candidates if math.isfinite(c[0])]
    if not finite:
        return CalibrationError("no multistart point produced a finite objective")
    # on a tie, prefer a converged search over the unsearched embedding
    _, best_x, best_converged = min(finite, key=lambda c: (c[0], not c[2]))
    params = build_slice_params(cfg, _values_from_vector(cfg, free, best_x), problem.ctx)
    variance = 0.0 if params.randomizer is None else variance_of_randomizer(params.randomizer.dist)
    strikes = problem.strikes
    # the public model's vols at the result's parameters: on vol residuals the point's memoized row, which is bit
    # for bit the public call; a price-residual point is inverted once, on 'brent', where no guard runs
    if problem.prices:
        rs = randomize(params, problem.ctx)
        diff = implied_vol_grid(rs, problem.expiry, strikes, engine=cfg.engine) - problem.market
    else:
        diff = problem.residuals(best_x)
    sse = float(np.sum(diff**2))
    best = FitResult(
        params=params,
        expiry=problem.expiry,
        sse=sse,
        mse=sse / len(strikes),
        residuals=[(problem.expiry, float(k), float(d)) for k, d in zip(strikes, diff)],
        randomizer_variance=variance,
        converged=best_converged,
        evaluations=len(problem.memo) + (plain.evaluations if plain else 0),
        model_calls=problem.model_calls + (plain.model_calls if plain else 0),
    )
    if not any(ok for _, _, ok in finite):
        return CalibrationError(f"optimizer did not converge within budget {cfg.budget}", best=best)
    return best


def _lockstep(problems: Sequence[_SliceObjective], searches: Sequence[Generator]) -> list:
    """Run `minimize` generators in lockstep, each on its slice's objective; return their results in order.

    ``problems`` holds one objective per search.  Each round evaluates the points the live searches wait
    on, over every slice, as one `_evaluate` call, then resumes them in order; a search asking only for
    memoized points goes on at once, as a `minimize` does for the Jacobian of an accepted trial.
    """
    results: list = [None] * len(searches)
    waiting: dict = {i: {} for i in range(len(searches))}  # each live search's fresh points
    while waiting:
        _evaluate([(problems[i], points) for i, points in waiting.items()])
        for i in list(waiting):
            try:
                while not (points := problems[i].fresh(next(searches[i]))):
                    pass
                waiting[i] = points
            except StopIteration as stop:
                results[i] = stop.value
                del waiting[i]
    return results


def _plain_config(cfg: FitConfig) -> FitConfig:
    return replace(cfg, randomizer="none", multistart=max(cfg.multistart // 2, 4))


def _degenerate_embedding(cfg: FitConfig, free, plain: FitResult):
    """Transformed-space point where a lognormal randomizer collapses to the plain fit: ν = 1e-8, the sigma one
    about μ = log(σ).  Gamma-gamma's, θ = 1e-8 and k = γ/θ, builds a rule too, but its fits run no plain prefit:
    as a start it never scored in a measured default fit."""
    base = plain.params.base
    values = {name: getattr(base, name) for name in BASES[cfg.model][1]} | {"nu": 1e-8}
    try:
        if cfg.model == "flat":
            values["mu"] = math.log(base.sigma)
        return np.array([p.to_internal(values[p.name]) for p in free])
    except ValueError:  # a parameter that underflowed to 0 has no log
        return None


def _latin_starts(rng: np.random.Generator, ranges, count: int) -> np.ndarray:
    """Coarse Latin grid: per-dimension stratum centers, independently permuted."""
    out = np.empty((count, len(ranges)))
    for dim, (lo, hi) in enumerate(ranges):
        edges = np.linspace(lo, hi, count + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        out[:, dim] = rng.permutation(centers)
    return out
