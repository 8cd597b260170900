"""Gaussian quadrature rules discretizing a randomizer distribution.

Every rule comes from a symmetric tridiagonal (Jacobi) matrix holding the
three-term recurrence coefficients of the distribution's orthogonal
polynomials: its eigenvalues are the nodes and the squared first
components of its normalized eigenvectors are the weights (Golub and
Welsch, 1969).

The parametric randomizers have these coefficients in closed form, at
unit scale: generalized Laguerre for the gamma family and Stieltjes-Wigert
for the lognormal ones (Gautschi, 2004).  `quadrature_for` builds them
directly and maps the nodes back by the exact scaling.  The rule must
reproduce the distribution's moments, so lost precision raises instead of
returning a bad rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Union

import numpy as np

from .errors import GramMatrixError, MomentOverflowError, ParameterDomainError, RowFailures, fail_rows

#: Hard cap on the number of quadrature points.  Measured on the closed-form
#: rules: gamma rules (k from 0.05 to 30) and lognormal rules with nu <= 0.5
#: reproduce their moments to 1e-8 through n_q = 24, but the check trips from
#: n_q = 14 at nu = 1, 10 at nu = 1.25 and 7 at nu = 1.5, and at nu = 1 the
#: order-2n_q moments overflow from n_q = 19.  Ten points keep every rule with
#: nu <= 1 buildable; we refuse rather than regularize.
MAX_NQ = 10

_WEIGHT_SUM_TOL = 1e-12
_MOMENT_REPRODUCTION_RTOL = 1e-8
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_ROOT_FLOAT_MAX = math.sqrt(np.finfo(float).max)  # the largest float whose square is finite
#: the domain of each parameter of a slice and of its randomizer: a mask of the values inside it, which NaN fails,
#: and its description (the model squares alpha, gamma and nu, and a square that overflows would read inf)
_DOMAINS = {"sigma": (lambda x: (x >= 0.0) & (x < np.inf), ">= 0 and finite"), "mu": (np.isfinite, "finite")} | {
    name: (lambda x: (x >= 0.0) & (x <= _ROOT_FLOAT_MAX), ">= 0 with a finite square")
    for name in ("alpha", "gamma", "nu")} | {
    name: (lambda x: (x > 0.0) & (x < np.inf), "> 0 and finite") for name in ("k", "theta", "s0")} | {
    "beta": (lambda x: (x >= 0.0) & (x <= 1.0), "in [0, 1]"),
    "rho": (lambda x: (x > -1.0) & (x < 1.0), "in (-1, 1)"),
}


def check_domains(values: dict, failures: Optional[RowFailures] = None) -> None:
    """Raise ParameterDomainError at the first value (of an array per parameter name, one value per point) outside its
    domain; given ``failures``, mark each point with a value outside there instead."""
    for name, xs in values.items():
        test, domain = _DOMAINS.get(name, (None, ""))
        if test:
            xs = np.asarray(xs, dtype=float)
            bad = ~test(xs)
            fail_rows(failures, bad, lambda: ParameterDomainError(f"{name} must be {domain}, got {xs[bad][0]}"))


@dataclass(frozen=True)
class LogNormal:
    """log(X) ~ N(mu, nu^2).  nu = 0 degenerates to a point mass at exp(mu)."""

    family: ClassVar[str] = "lognormal"
    mu: float
    nu: float

    def __post_init__(self):
        check_domains({"mu": [self.mu], "nu": [self.nu]})


@dataclass(frozen=True)
class Gamma:
    """Gamma distribution with finite shape k > 0 and scale theta > 0."""

    family: ClassVar[str] = "gamma"
    k: float
    theta: float

    def __post_init__(self):
        check_domains({"k": [self.k], "theta": [self.theta]})


@dataclass(frozen=True)
class SpotLogNormal:
    """Lognormal spot randomizer with the mean pinned at s0.

    log(X) ~ N(log s0 - nu^2/2, nu^2), so E[X] = s0 by construction.
    """

    family: ClassVar[str] = "spot-lognormal"
    s0: float
    nu: float

    def __post_init__(self):
        check_domains({"s0": [self.s0], "nu": [self.nu]})


@dataclass(frozen=True)
class DiscreteGiven:
    """An explicitly supplied discrete rule: (weight, node) pairs."""

    family: ClassVar[str] = "discrete"
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple((float(w), float(x)) for w, x in self.points))
        if not self.points:
            raise ValueError("discrete rule needs at least one point")
        QuadratureRule(*np.array(self.points).T)  # the checks of any rule


DistributionSpec = Union[LogNormal, Gamma, SpotLogNormal, DiscreteGiven]
#: each parametric family's spec type and parameters (in column and JSON order), by the family's name
FAMILIES = {spec.family: (spec, tuple(f.name for f in fields(spec))) for spec in (Gamma, LogNormal, SpotLogNormal)}


@dataclass(frozen=True)
class QuadratureRule:
    """Paired weights/nodes discretizing a randomizer distribution (a stack: one rule per row)."""

    weights: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        x = np.array(self.nodes, dtype=float)
        if w.shape != x.shape or w.ndim not in (1, 2):
            raise ValueError("weights and nodes must be 1-d arrays (or 2-d stacks) of equal shape")
        _check_rules(w, x)
        w.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "nodes", x)

    @classmethod
    def of_checked(cls, weights: np.ndarray, nodes: np.ndarray) -> "QuadratureRule":
        """The rule of weights and nodes, as read-only views, unchecked: each row has passed `_check_rules`, or
        the caller has marked it failed and discards what it gives."""
        rule = object.__new__(cls)
        for name, a in (("weights", weights.view()), ("nodes", nodes.view())):
            a.setflags(write=False)
            object.__setattr__(rule, name, a)
        return rule

    @property
    def size(self) -> int:
        return self.nodes.shape[-1]

    def mean(self):
        return self.moment(1)

    def moment(self, order: int):
        got = np.matmul(self.weights[..., None, :], self.nodes[..., :, None] ** order)[..., 0, 0]
        return float(got) if got.ndim == 0 else got


def _check_rules(w: np.ndarray, x: np.ndarray, failures: Optional[RowFailures] = None) -> None:
    """A rule's checks, row by row: raise ValueError at the first failing, or, given ``failures``, mark it there."""
    fail_rows(failures, ~(np.isfinite(w) & np.isfinite(x)),
              lambda: ValueError("quadrature weights and nodes must be finite"), axes=1)
    sums = w.sum(-1)
    fail_rows(failures, off := np.abs(sums - 1.0) > _WEIGHT_SUM_TOL,
              lambda: ValueError(f"quadrature weights must sum to 1, got {float(np.ravel(sums)[np.argmax(off)])!r}"))
    fail_rows(failures, w < 0, lambda: ValueError("quadrature weights must be nonnegative"), axes=1)
    fail_rows(failures, x[..., 1:] <= x[..., :-1], lambda: ValueError("quadrature nodes must be strictly increasing"),
              axes=1)


def moments(spec: DistributionSpec, order: int) -> np.ndarray:
    """Raw moments E[X^i] for i = 0..order of the given distribution."""
    if order < 0:
        raise ValueError("moment order must be >= 0")
    family, columns = spec_columns(spec)
    if family == "discrete":
        return columns["weights"] @ columns["nodes"][:, None] ** np.arange(order + 1, dtype=float)
    return _moments(family, columns, order)


def _moments(family: str, columns: dict, order: int, failures: Optional[RowFailures] = None) -> np.ndarray:
    """Raw moments E[X^i], i = 0..order, of each row of a family's columns; unit scale without theta or mu.

    A row whose moments overflow raises MomentOverflowError, or, given ``failures``, is marked there.
    """
    i = np.arange(order + 1, dtype=float)
    if family == "gamma":
        k = np.asarray(columns["k"])[..., None]
        log_theta = np.log(columns["theta"])[..., None] if "theta" in columns else 0.0
        # log k(k+1)...(k+i-1) as a sum of logs; a gammaln difference would cancel at large k
        log_rising = np.cumsum(np.log(k + i[:-1]), axis=-1)
        exponents = i * log_theta + np.concatenate([np.zeros_like(k), log_rising], axis=-1)
    else:
        v = columns["nu"] * columns["nu"]
        exponents = i * _mu(family, columns, v)[..., None] + 0.5 * i**2 * v[..., None]
    fail_rows(failures, exponents > _LOG_FLOAT_MAX,
              lambda: MomentOverflowError("moment overflow: the requested order is not representable; lower n_q"),
              axes=1)
    with np.errstate(over="ignore"):  # only in a marked row
        return np.exp(exponents)


def _mu(family: str, columns: dict, v) -> np.ndarray:
    """mu of log(X) ~ N(mu, nu^2), v = nu^2: log(s0) - v/2 for a spot randomizer, 0 for a unit scale."""
    if family == "spot-lognormal":
        return np.log(columns["s0"]) - 0.5 * v
    return np.asarray(columns.get("mu", 0.0))


def _jacobi(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Symmetric tridiagonal matrix (one per stacked row) with diagonal alpha and off-diagonal sqrt(beta)."""
    n = alpha.shape[-1]
    out = np.zeros(alpha.shape[:-1] + (n * n,))  # flattened: the diagonal has stride n + 1
    out[..., :: n + 1] = alpha
    out[..., 1 :: n + 1] = out[..., n :: n + 1] = np.sqrt(beta)
    return out.reshape(alpha.shape + (n,))


def _weights_nodes(jacobi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golub-Welsch: nodes are the eigenvalues, weights the squared first
    components of the normalized eigenvectors (one rule per stacked matrix)."""
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = vectors[..., 0, :] ** 2
    return weights / weights.sum(-1, keepdims=True), nodes


def _check_moment_reproduction(weights, nodes, mom: np.ndarray, n_q: int, failures: Optional[RowFailures] = None):
    """Raise unless each rule reproduces its mom[0..2*n_q-1] to relative 1e-8; given ``failures``, mark a row that
    does not there instead."""
    i = np.arange(2 * n_q)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan fails the test below
        got = np.matmul(weights[..., None, :], nodes[..., :, None] ** i)[..., 0, :]
        target = mom[..., : 2 * n_q]
        # zero-ish targets (symmetric measures) are scaled by the natural
        # order-i magnitude mu_2^(i/2) instead of their own near-zero value
        scale = np.maximum(np.maximum(np.abs(target), mom[..., 2:3] ** (i / 2.0)), 1e-300)
        ok = np.abs(got - target) / scale <= _MOMENT_REPRODUCTION_RTOL

    def error():
        at = tuple(np.argwhere(~ok)[0])
        return GramMatrixError(
            f"constructed rule fails to reproduce moment {at[-1]} "
            f"(got {float(got[at])!r}, want {float(target[at])!r}); n_q={n_q} too large"
        )

    fail_rows(failures, ~ok, error, axes=1)


def quadrature_for(spec, n_q: int, family: Optional[str] = None) -> QuadratureRule:
    """Build the quadrature rule discretizing a randomizer distribution.

    Explicit discrete rules pass through unchanged; degenerate parametric
    specs (nu = 0) collapse to a one-node rule at the mean regardless of
    n_q.  Parametric specs get the closed-form Jacobi matrix of their
    unit-scale family; the nodes are scaled back afterwards, and the
    unit-scale rule must reproduce its family's moments through order
    2*n_q - 1 to relative 1e-8.  A sequence of specs of one type gives a
    stack, one row per spec from one stacked eigendecomposition and one
    check (a failing row fails the stack), each row equal bit for bit to
    that spec's own rule.  With ``family``, ``spec`` is that family's
    parameter columns, as `spec_columns` makes them.
    """
    columns = spec
    if family is None:
        family, columns = spec_columns(spec)
    return QuadratureRule(*rule_rows(columns, n_q, family))


def rule_rows(columns: dict, n_q: int, family: str, failures: Optional[RowFailures] = None):
    """The weights and nodes of the rule of each row of a family's columns, as `quadrature_for` builds them.

    A row that fails a check raises; given ``failures``, it is marked there instead and the other rows
    are built as they would be alone (a marked row's weights and nodes are meaningless).  The checks of
    a `QuadratureRule` are left to it, or to `_check_rules`.
    """
    if family == "discrete":
        w = np.asarray(columns["weights"])
        return w / w.sum(-1, keepdims=True), np.asarray(columns["nodes"], dtype=float)
    if n_q < 1:
        raise ValueError("n_q must be >= 1")
    if n_q > MAX_NQ:
        raise ValueError(f"n_q={n_q} exceeds the supported maximum {MAX_NQ}")

    if family == "gamma":
        k, scale, v = columns["k"], columns["theta"], None
    elif family in ("lognormal", "spot-lognormal"):
        nu = np.asarray(columns["nu"])
        if nu.ndim == 0 and nu == 0.0:
            mean = float(columns["s0"] if family == "spot-lognormal" else np.exp(columns["mu"]))
            return np.array([1.0]), np.array([mean])
        fail_rows(failures, nu == 0.0,
                  lambda: ValueError("a stack of rules must have one size; nu = 0 collapses to one node"))
        k, v = None, nu * nu
        scale = np.exp(_mu(family, columns, v))
    else:
        raise TypeError(f"unsupported distribution family: {family!r}")
    # the unit-scale family's moments, which overflow before the recurrence does
    unit = ("gamma", {"k": k}) if v is None else ("lognormal", {"nu": nu})
    mom = _moments(*unit, 2 * n_q, failures)
    if failures is not None and failures.any:  # a marked row gets a harmless recurrence
        k, v = (None if a is None else np.where(failures.bad, 1.0, a) for a in (k, v))
    weights, nodes = _weights_nodes(_jacobi(*_recurrence(n_q, k, v)))
    _check_moment_reproduction(weights, nodes, mom, n_q, failures)
    return weights, nodes * np.asarray(scale)[..., None]


def spec_columns(spec) -> tuple[str, dict]:
    """A spec's family and parameter columns, 0-d for one spec and (P,) for a sequence of P specs of one type.

    An explicit discrete rule's columns are its 'weights' and 'nodes', with a trailing point axis.
    """
    stacked = not isinstance(spec, DistributionSpec)
    specs = tuple(spec) if stacked else (spec,)
    if len({type(s) for s in specs}) != 1:
        raise ValueError("a stack of specs must hold one distribution type")
    if not isinstance(specs[0], DistributionSpec):
        raise TypeError(f"unsupported distribution spec: {specs[0]!r}")
    family, shape = specs[0].family, (len(specs),) if stacked else ()
    if family == "discrete":  # ragged stacks raise in np.array
        points = np.array([s.points for s in specs], dtype=float).reshape(shape + (-1, 2))
        return family, {"weights": points[..., 0].copy(), "nodes": points[..., 1].copy()}
    return family, {
        name: np.array([getattr(s, name) for s in specs], dtype=float).reshape(shape) for name in FAMILIES[family][1]
    }


def _recurrence(n_q: int, k=None, v=None) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form recurrence coefficients alpha_0..alpha_{n-1}, beta_1..beta_{n-1} (Gautschi 2004),
    one row per entry of the column given: of Gamma(k, 1), or of LogNormal(0, nu) from v = nu^2."""
    j = np.arange(n_q, dtype=float)
    if k is not None:
        # generalized Laguerre with parameter k - 1
        k = np.asarray(k)[..., None]
        return 2.0 * j + k, j[1:] * (j[1:] + k - 1.0)
    # Stieltjes-Wigert with q = exp(-nu^2); 1 - q^j is computed as -expm1(-j nu^2)
    v = np.asarray(v)[..., None]
    q = np.exp(-v)
    one_minus_qj = -np.expm1(-j * v)
    alpha = np.exp((2.0 * j + 0.5) * v) * (1.0 + q * one_minus_qj)
    beta = np.exp((4.0 * j[1:] - 2.0) * v) * one_minus_qj[..., 1:]
    return alpha, beta
