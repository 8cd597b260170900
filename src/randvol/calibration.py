"""Slice-wise least-squares calibration of plain and randomized parametrizations.

The objective is the unweighted sum of squared implied-vol differences
against the retained market quotes.  Free parameters are optimized
unconstrained through bound-respecting transforms (log for positives,
scaled tanh for correlation and the exponent), with multistart
unbounded trust-region least squares on the residual vector in that
transformed space (scipy's TRF steps, forward-difference Jacobian; no
bounds, so nothing is reflected).  The searches of a slice advance in
lockstep: each round evaluates every point they wait on, trial points
and Jacobian points alike, as one stacked model call.  Randomized fits
additionally seed from a plain prefit embedded at the degenerate
boundary of the randomizer, which makes the randomized family dominate
its nested plain model by construction where that boundary builds.  For
gamma-gamma it does not: θ = 1e-8 makes k ≈ 1.5e8, whose rule fails its
moment check, so the embedded start is dropped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Generator, Literal, Optional, Sequence, get_args

import numpy as np
from numpy.linalg import norm
from scipy.linalg import svd
from scipy.optimize import OptimizeResult
from scipy.optimize._lsq.common import check_termination, evaluate_quadratic, solve_lsq_trust_region, update_tr_radius

from .errors import CalibrationError, RandvolError
from .expansion import expansion_order
from .parametrizations import (
    RHO_MAX,
    FlatParams,
    RandomizerSpec,
    SabrParams,
    SliceParams,
    params_to_json,
)
from .pricing import MarketContext, OptionType
from .quadrature import MAX_NQ, DiscreteGiven, DistributionSpec, Gamma, LogNormal, SpotLogNormal
from .randomization import implied_vol_grid, parse_engine, randomize

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
        best_oi = max(q.open_interest for q in quotes)
        finalists = [q for q in quotes if q.open_interest == best_oi]
        if len(finalists) > 1:
            otm_kind = OptionType.CALL if strike >= raw.ctx.forward(expiry) else OptionType.PUT
            otm = [q for q in finalists if q.kind is otm_kind]
            finalists = otm or finalists
        kept.append(finalists[0])
    kept.sort(key=lambda q: (q.expiry, q.strike))
    return QuoteSet(tuple(kept), raw.ctx)


@dataclass(frozen=True)
class FitConfig:
    model: ModelName = "sabr"
    randomizer: RandomizerName = "gamma-gamma"
    n_q: int = 2
    fixed: dict = field(default_factory=lambda: {"beta": 0.9})
    engine: str = "expansion"
    budget: int = 2000
    multistart: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.model not in get_args(ModelName):
            raise ValueError(f"unknown model {self.model!r}")
        if self.randomizer not in get_args(RandomizerName):
            raise ValueError(f"unknown randomizer {self.randomizer!r}")
        method, order = parse_engine(self.engine)
        if method == "expansion" and self.randomizer != "none":
            expansion_order("spot" if self.randomizer == "spot-lognormal" else "parameter", order)
        for key in ("multistart", "budget"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")
        if not 1 <= self.n_q <= MAX_NQ:
            raise ValueError(f"n_q must be between 1 and {MAX_NQ}, got {self.n_q}")


@dataclass
class FitResult:
    params: SliceParams
    expiry: float
    sse: float
    mse: float
    residuals: list
    randomizer_variance: float
    converged: bool
    evaluations: int  # distinct parameter points evaluated, the plain prefit's included
    model_calls: int  # stacked model_vols calls, the plain prefit's included

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
    from_internal: Callable[[float], float]
    start_range: tuple[float, float]  # in transformed space


def _free_parameters(cfg: FitConfig) -> list[_FreeParam]:
    log_vol = (math.log(0.03), math.log(1.2))
    params: list[_FreeParam] = []
    if cfg.model == "flat":
        if cfg.randomizer in ("none", "spot-lognormal"):
            params.append(_FreeParam("sigma", math.log, math.exp, log_vol))
        elif cfg.randomizer == "sigma-lognormal":
            params.append(_FreeParam("mu", lambda x: x, lambda y: y, log_vol))
            params.append(_FreeParam("nu", math.log, math.exp, (math.log(0.01), math.log(0.8))))
        else:
            raise ValueError(f"randomizer {cfg.randomizer!r} incompatible with the flat model")
    else:
        if cfg.randomizer == "sigma-lognormal":
            raise ValueError("sigma randomization applies to the flat model only")
        params.append(_FreeParam("alpha", math.log, math.exp, (math.log(0.05), math.log(1.0))))
        params.append(_FreeParam("beta", lambda x: math.atanh(min(max(2.0 * x - 1.0, -0.999999), 0.999999)),
                                 lambda y: 0.5 * (1.0 + math.tanh(y)), (-1.0, 1.0)))
        params.append(_FreeParam("rho", lambda x: math.atanh(min(max(x / RHO_MAX, -0.999999), 0.999999)),
                                 lambda y: RHO_MAX * math.tanh(y), (-1.2, 1.2)))
        if cfg.randomizer == "gamma-gamma":
            params.append(_FreeParam("k", math.log, math.exp, (math.log(0.5), math.log(8.0))))
            params.append(_FreeParam("theta", math.log, math.exp, (math.log(0.02), math.log(2.0))))
        else:
            params.append(_FreeParam("gamma", math.log, math.exp, (math.log(0.05), math.log(4.0))))
    if cfg.randomizer == "spot-lognormal":
        params.append(_FreeParam("nu", math.log, math.exp, (math.log(5e-3), math.log(0.4))))
    return [p for p in params if p.name not in cfg.fixed]


def _values_from_vector(cfg: FitConfig, free: list[_FreeParam], vector) -> dict:
    values = {p.name: p.from_internal(float(v)) for p, v in zip(free, vector)}
    values.update(cfg.fixed)
    return values


def build_slice_params(cfg: FitConfig, values: dict, ctx: MarketContext) -> SliceParams:
    """Assemble SliceParams from a named parameter mapping per the fit config."""
    if cfg.model == "flat":
        if cfg.randomizer == "sigma-lognormal":
            dist = LogNormal(values["mu"], values["nu"])
            base = FlatParams(math.exp(values["mu"] + 0.5 * values["nu"] ** 2))
            return SliceParams(base, RandomizerSpec("sigma", dist, cfg.n_q))
        base = FlatParams(values["sigma"])
    else:
        gamma_mean = values.get("gamma", values.get("k", 0.0) * values.get("theta", 0.0))
        base = SabrParams(
            alpha=values["alpha"],
            beta=values["beta"],
            rho=values["rho"],
            gamma=gamma_mean,
        )
    if cfg.randomizer == "none":
        return SliceParams(base)
    if cfg.randomizer == "gamma-gamma":
        return SliceParams(base, RandomizerSpec("gamma", Gamma(values["k"], values["theta"]), cfg.n_q))
    if cfg.randomizer == "spot-lognormal":
        return SliceParams(base, RandomizerSpec("spot", SpotLogNormal(ctx.s0, values["nu"]), cfg.n_q))
    raise ValueError(f"unsupported randomizer {cfg.randomizer!r}")


def model_vols(
    params: Sequence[SliceParams], ctx: MarketContext, expiry: float, strikes, engine: str,
    quiet: bool = False,
) -> np.ndarray:
    """Model implied vols on a strike grid, one row per parameter point: shape (P, n_strikes)."""
    # a lone point goes as a lone slice, whose arrays lack the stack axis (the rows are equal bit for bit)
    rs = randomize(params[0] if len(params) == 1 else tuple(params), ctx)
    return implied_vol_grid(rs, expiry, strikes, engine=engine, quiet=quiet).reshape(len(params), -1)


_FTOL, _XTOL, _GTOL = 1e-14, 1e-12, 1e-14  # least_squares' ftol, xtol and gtol


def minimize(residuals, start, budget: int):
    """Trust-region least squares from ``start`` within ``budget`` evaluations, as a generator.

    Scipy's unbounded ``least_squares(method="trf")`` iteration (Branch, Coleman & Li, SIAM J.
    Sci. Comput. 21, 1999) with the exact solver, unit ``x_scale``, linear loss, '2-point'
    Jacobian and the tolerances above, bit for bit.  It yields the points each step needs, reads
    their residuals once resumed, and returns least_squares' ``x`` and ``success``.
    """
    x = np.array(start, dtype=float)
    f, J = yield from _jacobian(residuals, x)
    # max_nfev leaves out the n finite-difference evaluations of each Jacobian
    max_nfev, nfev, status = max(budget // (x.size + 1), 1), 1, None
    cost, g, delta, alpha = 0.5 * np.dot(f, f), J.T.dot(f), norm(x) or 1.0, 0.0
    while True:
        if norm(g, ord=np.inf) < _GTOL:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        U, s, Vt = svd(J, full_matrices=False)
        uf, reduction = U.T.dot(f), -1
        while reduction <= 0 and nfev < max_nfev:
            step, alpha, _ = solve_lsq_trust_region(x.size, f.size, uf, s, Vt.T, delta, initial_alpha=alpha)
            predicted = -evaluate_quadratic(J, g, step)
            x_new = x + step
            yield [x_new]
            f_new, nfev, step_norm = residuals(x_new), nfev + 1, norm(step)
            if not np.all(np.isfinite(f_new)):
                delta = 0.25 * step_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            reduction = cost - cost_new
            delta_new, ratio = update_tr_radius(delta, reduction, predicted, step_norm, step_norm > 0.95 * delta)
            status = check_termination(reduction, cost, step_norm, norm(x), ratio, _FTOL, _XTOL)
            if status is not None:
                break
            alpha, delta = alpha * (delta / delta_new), delta_new
        if reduction > 0:
            x, cost = x_new, cost_new
            f, J = yield from _jacobian(residuals, x, f_new)
            g = J.T.dot(f)
    return OptimizeResult(x=x, success=bool(status))


def _jacobian(residuals, x: np.ndarray, f: Optional[np.ndarray] = None):
    """least_squares' '2-point' Jacobian at x bit for bit, as a generator returning (f, J).

    It yields its n points, after x itself unless f, the residuals at x, is given."""
    h = np.finfo(float).eps ** 0.5 * ((x >= 0).astype(float) * 2 - 1) * np.maximum(1.0, np.abs(x))
    points = np.tile(x, (x.size, 1))
    points[np.diag_indices(x.size)] = x + h
    yield points if f is not None else np.vstack([x, points])
    f = residuals(x) if f is None else f
    return f, np.array([(residuals(p) - f) / (p[i] - x[i]) for i, p in enumerate(points)]).T


class _SliceObjective:
    """Vol residuals of one slice, memoized per parameter point so that none is evaluated twice.

    A point maps to None where the model failed or gave a non-finite vol.
    `evaluate` serves many points with one stacked model call; if that
    raises, it goes part by part (by default point by point), so only the
    failing points read None.
    """

    def __init__(self, quotes: QuoteSet, cfg: FitConfig, free: list):
        self.cfg, self.free, self.ctx, self.expiry = cfg, free, quotes.ctx, quotes.expiries()[0]
        self.strikes = np.array([q.strike for q in quotes.quotes])
        self.market = np.array([q.iv for q in quotes.quotes])
        self.memo: dict[bytes, Optional[np.ndarray]] = {}
        self.model_calls = 0

    def fresh(self, vectors) -> dict:
        """The points of ``vectors`` the memo lacks, each once, keyed by their bytes."""
        return {k: v for v in vectors if (k := np.asarray(v, dtype=float).tobytes()) not in self.memo}

    def evaluate(self, vectors, parts=None) -> None:
        fresh = self.fresh(vectors)
        if not fresh:
            return
        self.model_calls += 1
        try:
            params = [build_slice_params(self.cfg, _values_from_vector(self.cfg, self.free, v), self.ctx)
                      for v in fresh.values()]
            model = model_vols(params, self.ctx, self.expiry, self.strikes, self.cfg.engine, quiet=True)
        except (RandvolError, ValueError, OverflowError):
            if len(fresh) > 1:
                for part in parts if parts and len(parts) > 1 else ([v] for v in fresh.values()):
                    self.evaluate(part)
                return
            model = [None]
        for key, row in zip(fresh, model):
            self.memo[key] = row - self.market if row is not None and np.all(np.isfinite(row)) else None

    def residuals(self, vector) -> Optional[np.ndarray]:
        self.evaluate([vector])
        return self.memo[np.asarray(vector, dtype=float).tobytes()]

    def objective(self, vector) -> float:
        diff = self.residuals(vector)
        return float("inf") if diff is None else float(np.sum(diff**2))

    def penalized(self, vector) -> np.ndarray:
        # a failed point reads as 100 vol points off at every quote: the trust region backs off
        diff = self.residuals(vector)
        return np.ones_like(self.market) if diff is None else diff


def fit_slice(quotes: QuoteSet, cfg: FitConfig) -> FitResult:
    """Fit one expiry slice, minimizing the sum of squared vol differences.

    Runs ``cfg.multistart`` least-squares searches on the vol residuals
    from a Latin grid over the transformed parameter space (plus a
    degenerate embedding of a plain prefit for randomized configurations)
    and returns the best result.  ``cfg.budget`` caps the objective
    evaluations of each search, finite-difference Jacobian included.
    The starting probes are evaluated as one batch; the searches then
    run in lockstep, one stacked model call per round.
    """
    expiries = quotes.expiries()
    if len(expiries) != 1:
        raise ValueError(f"fit_slice expects quotes at exactly one expiry, got {expiries}")
    free = _free_parameters(cfg)
    if len(quotes) < len(free):
        raise CalibrationError(
            f"need at least {len(free)} quotes to fit {len(free)} free parameters, "
            f"got {len(quotes)}"
        )
    problem = _SliceObjective(quotes, cfg, free)

    rng = np.random.default_rng(cfg.seed)
    starts = _latin_starts(rng, [p.start_range for p in free], cfg.multistart)
    embedded = plain = None
    if cfg.randomizer != "none":
        try:
            plain = fit_slice(quotes, _plain_config(cfg))
        except CalibrationError as exc:
            plain = exc.best
        embedded = _degenerate_embedding(cfg, free, plain) if plain is not None else None
        if embedded is not None:
            starts = np.vstack([starts, embedded])
    problem.evaluate(starts)
    candidates: list[tuple[float, np.ndarray, bool]] = []
    if embedded is not None:
        candidates.append((problem.objective(embedded), np.asarray(embedded), False))
    searches = [minimize(problem.penalized, s, cfg.budget) for s in starts if math.isfinite(problem.objective(s))]
    candidates += [(problem.objective(r.x), r.x, r.success) for r in _lockstep(problem, searches)]

    finite = [c for c in candidates if math.isfinite(c[0])]
    if not finite:
        raise CalibrationError("no multistart point produced a finite objective")
    # on a tie, prefer a converged search over the unsearched embedding
    best_sse, best_x, best_converged = min(finite, key=lambda c: (c[0], not c[2]))
    params = build_slice_params(cfg, _values_from_vector(cfg, free, best_x), problem.ctx)
    variance = 0.0 if params.randomizer is None else variance_of_randomizer(params.randomizer.dist)
    strikes = problem.strikes
    best = FitResult(
        params=params,
        expiry=problem.expiry,
        sse=float(best_sse),
        mse=float(best_sse) / len(strikes),
        residuals=[(problem.expiry, float(k), float(d)) for k, d in zip(strikes, problem.residuals(best_x))],
        randomizer_variance=variance,
        converged=best_converged,
        evaluations=len(problem.memo) + (plain.evaluations if plain else 0),
        model_calls=problem.model_calls + (plain.model_calls if plain else 0),
    )
    if not any(ok for _, _, ok in finite):
        raise CalibrationError(
            f"optimizer did not converge within budget {cfg.budget}", best=best
        )
    return best


def _lockstep(problem: _SliceObjective, searches: Sequence[Generator]) -> list:
    """Run `minimize` generators on ``problem`` in lockstep; return their results in order.

    Each round evaluates the points the live searches wait on as one `evaluate`
    call, then resumes them in order; a search asking only for memoized points goes on at once.
    """
    results: list = [None] * len(searches)
    waiting = {i: [] for i in range(len(searches))}  # each live search's fresh points
    while waiting:
        problem.evaluate([p for points in waiting.values() for p in points], parts=list(waiting.values()))
        for i in list(waiting):
            try:
                while not (points := problem.fresh(next(searches[i]))):
                    pass
                waiting[i] = list(points.values())
            except StopIteration as stop:
                results[i] = stop.value
                del waiting[i]
    return results


def _plain_config(cfg: FitConfig) -> FitConfig:
    return replace(cfg, randomizer="none", multistart=max(cfg.multistart // 2, 4))


def _degenerate_embedding(cfg: FitConfig, free, plain: FitResult):
    """Transformed-space point where the randomized model collapses to the plain fit.

    For gamma-gamma the model fails there: θ = 1e-8 makes k = γ/θ ≈ 1.5e8 at γ = 1.5,
    whose rule fails its moment check (GramMatrixError), so the embedded start is dropped.
    """
    base = plain.params.base
    if cfg.model == "flat":
        if base.sigma <= 0:
            return None
        values = {"mu": math.log(base.sigma), "nu": 1e-8, "sigma": base.sigma}
    else:
        values = {"alpha": base.alpha, "beta": base.beta, "rho": base.rho, "gamma": base.gamma}
        if cfg.randomizer == "gamma-gamma":
            gamma = max(base.gamma, 1e-6)
            theta = 1e-8
            values.update({"k": gamma / theta, "theta": theta})
        if base.alpha <= 0:
            return None
    if cfg.randomizer == "spot-lognormal":
        values["nu"] = 1e-8
    try:
        return np.array([p.to_internal(values[p.name]) for p in free])
    except (KeyError, ValueError):
        return None


def _latin_starts(rng: np.random.Generator, ranges, count: int) -> np.ndarray:
    """Coarse Latin grid: per-dimension stratum centers, independently permuted."""
    out = np.empty((count, len(ranges)))
    for dim, (lo, hi) in enumerate(ranges):
        edges = np.linspace(lo, hi, count + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        out[:, dim] = rng.permutation(centers)
    return out
