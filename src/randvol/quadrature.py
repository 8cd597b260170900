"""Gaussian quadrature rules discretizing a randomizer distribution.

Every rule comes from a symmetric tridiagonal (Jacobi) matrix holding the
three-term recurrence coefficients of the distribution's orthogonal
polynomials: its eigenvalues are the nodes and the squared first
components of its normalized eigenvectors are the weights (Golub and
Welsch, 1969).

The parametric randomizers have these coefficients in closed form, at
unit scale: generalized Laguerre for the gamma family and Stieltjes-Wigert
for the lognormal ones (Gautschi, 2004).  `quadrature_for` builds them
directly and maps the nodes back by the exact scaling.  The classical
moment route (Gram/Hankel matrix of raw moments, Cholesky factor,
recurrence coefficients), `build_workspace` and `golub_welsch`, serves
arbitrary moment sequences and is the test oracle for the closed forms.
Either way the rule must reproduce the distribution's moments, so lost
precision raises instead of returning a bad rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import gammaln

from .errors import GramMatrixError, MomentOverflowError

#: Hard cap on the number of quadrature points.  Measured on the closed-form
#: rules: gamma rules (k from 0.05 to 30) and lognormal rules with nu <= 0.5
#: reproduce their moments to 1e-8 through n_q = 24, but the check trips from
#: n_q = 14 at nu = 1, 10 at nu = 1.25 and 7 at nu = 1.5, and at nu = 1 the
#: order-2n_q moments overflow from n_q = 19.  Ten points keep every rule with
#: nu <= 1 buildable; we refuse rather than regularize.
MAX_NQ = 10

_WEIGHT_SUM_TOL = 1e-12
_MOMENT_REPRODUCTION_RTOL = 1e-8
_PIVOT_RTOL = 1e-13
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class LogNormal:
    """log(X) ~ N(mu, nu^2).  nu = 0 degenerates to a point mass at exp(mu)."""

    mu: float
    nu: float

    def __post_init__(self):
        if not self.nu >= 0.0:
            raise ValueError(f"lognormal nu must be >= 0, got {self.nu}")


@dataclass(frozen=True)
class Gamma:
    """Gamma distribution with shape k > 0 and scale theta > 0."""

    k: float
    theta: float

    def __post_init__(self):
        if not self.k > 0.0:
            raise ValueError(f"gamma shape must be > 0, got {self.k}")
        if not self.theta > 0.0:
            raise ValueError(f"gamma scale must be > 0, got {self.theta}")


@dataclass(frozen=True)
class SpotLogNormal:
    """Lognormal spot randomizer with the mean pinned at s0.

    log(X) ~ N(log s0 - nu^2/2, nu^2), so E[X] = s0 by construction.
    """

    s0: float
    nu: float

    def __post_init__(self):
        if not self.s0 > 0.0:
            raise ValueError(f"spot must be > 0, got {self.s0}")
        if not self.nu >= 0.0:
            raise ValueError(f"spot-lognormal nu must be >= 0, got {self.nu}")


@dataclass(frozen=True)
class DiscreteGiven:
    """An explicitly supplied discrete rule: (weight, node) pairs."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple((float(w), float(x)) for w, x in self.points))
        w = np.array([p[0] for p in self.points])
        x = np.array([p[1] for p in self.points])
        if w.size == 0:
            raise ValueError("discrete rule needs at least one point")
        if np.any(w < 0):
            raise ValueError("discrete weights must be nonnegative")
        if abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"discrete weights must sum to 1, got {w.sum()!r}")
        if np.any(np.diff(x) <= 0):
            raise ValueError("discrete nodes must be strictly increasing")


DistributionSpec = Union[LogNormal, Gamma, SpotLogNormal, DiscreteGiven]


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
        if (np.abs(w.sum(-1) - 1.0) > _WEIGHT_SUM_TOL).any():
            raise ValueError(f"quadrature weights must sum to 1, got {w.sum(-1)!r}")
        if (w < 0).any():
            raise ValueError("quadrature weights must be nonnegative")
        if (x[..., 1:] <= x[..., :-1]).any():
            raise ValueError("quadrature nodes must be strictly increasing")
        w.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "nodes", x)

    @property
    def size(self) -> int:
        return self.nodes.shape[-1]

    def mean(self):
        return self.moment(1)

    def moment(self, order: int):
        got = np.matmul(self.weights[..., None, :], self.nodes[..., :, None] ** order)[..., 0, 0]
        return float(got) if got.ndim == 0 else got

    def scaled(self, factor) -> "QuadratureRule":
        """Rule for the scaled variable factor * X (weights unchanged)."""
        return QuadratureRule(self.weights, self.nodes * factor)


@dataclass(frozen=True)
class QuadratureWorkspace:
    """Intermediates of the moment factorization, exposed for validation."""

    gram: np.ndarray
    cholesky: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    jacobi: np.ndarray


def moments(spec: DistributionSpec, order: int) -> np.ndarray:
    """Raw moments E[X^i] for i = 0..order of the given distribution."""
    if order < 0:
        raise ValueError("moment order must be >= 0")
    i = np.arange(order + 1, dtype=float)
    if isinstance(spec, DiscreteGiven):
        w = np.array([p[0] for p in spec.points])
        x = np.array([p[1] for p in spec.points])
        return w @ x[:, None] ** i
    if isinstance(spec, SpotLogNormal):
        spec = _spot_as_lognormal(spec)
    if isinstance(spec, LogNormal):
        exponents = i * spec.mu + 0.5 * i**2 * spec.nu**2
    elif isinstance(spec, Gamma):
        exponents = i * math.log(spec.theta) + gammaln(spec.k + i) - gammaln(spec.k)
    else:
        raise TypeError(f"unsupported distribution spec: {spec!r}")
    if (exponents > _LOG_FLOAT_MAX).any():
        raise MomentOverflowError(
            "moment overflow: the requested order is not representable; lower n_q"
        )
    return np.exp(exponents)


def _spot_as_lognormal(spec: SpotLogNormal) -> LogNormal:
    return LogNormal(math.log(spec.s0) - 0.5 * spec.nu**2, spec.nu)


def build_workspace(moment_values: np.ndarray, n_q: int) -> QuadratureWorkspace:
    """Gram matrix, Cholesky factor, recurrence coefficients and Jacobi matrix.

    The pivot test is relative to each row's own diagonal entry: moment
    sequences routinely span tens of orders of magnitude, and a tolerance
    tied to the largest diagonal entry would reject perfectly well
    conditioned matrices.
    """
    mom = np.asarray(moment_values, dtype=float)
    if n_q < 1:
        raise ValueError("n_q must be >= 1")
    if mom.size < 2 * n_q + 1:
        raise ValueError(f"need moments up to order {2 * n_q}, got {mom.size - 1}")
    if abs(mom[0] - 1.0) > 1e-12:
        raise ValueError(f"moment sequence must start with mu_0 = 1, got {mom[0]!r}")

    n = n_q + 1
    gram = np.empty((n, n))
    for i in range(n):
        gram[i, :] = mom[i : i + n]

    chol = np.zeros((n, n))
    for i in range(n):
        s = gram[i, i] - float(np.dot(chol[:i, i], chol[:i, i]))
        if s < _PIVOT_RTOL * gram[i, i]:
            if i == n - 1 and abs(s) <= _PIVOT_RTOL * gram[i, i]:
                # The last pivot is allowed to vanish: it corresponds to a
                # measure with exactly n_q atoms and is not used by the rule.
                s = 0.0
            else:
                raise GramMatrixError(
                    f"Cholesky pivot ratio {s / gram[i, i]:.3e} at row {i}: moment "
                    f"sequence inconsistent or n_q={n_q} too large for the "
                    "available moment precision"
                )
        chol[i, i] = math.sqrt(s)
        if i < n - 1:
            chol[i, i + 1 :] = (gram[i, i + 1 :] - chol[:i, i] @ chol[:i, i + 1 :]) / chol[i, i]

    alpha = np.empty(n_q)
    beta = np.empty(max(n_q - 1, 0))
    for j in range(n_q):
        alpha[j] = chol[j, j + 1] / chol[j, j]
        if j >= 1:
            alpha[j] -= chol[j - 1, j] / chol[j - 1, j - 1]
        if j < n_q - 1:
            beta[j] = (chol[j + 1, j + 1] / chol[j, j]) ** 2

    return QuadratureWorkspace(
        gram=gram, cholesky=chol, alpha=alpha, beta=beta, jacobi=_jacobi(alpha, beta)
    )


def _jacobi(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Symmetric tridiagonal matrix (one per stacked row) with diagonal alpha and off-diagonal sqrt(beta)."""
    i = np.arange(alpha.shape[-1])
    out = np.zeros(alpha.shape + i.shape)
    out[..., i, i] = alpha
    out[..., i[:-1], i[1:]] = out[..., i[1:], i[:-1]] = np.sqrt(beta)
    return out


def _weights_nodes(jacobi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golub-Welsch: nodes are the eigenvalues, weights the squared first
    components of the normalized eigenvectors (one rule per stacked matrix)."""
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = vectors[..., 0, :] ** 2
    return weights / weights.sum(-1, keepdims=True), nodes


def _check_moment_reproduction(weights, nodes, mom: np.ndarray, n_q: int) -> None:
    """Raise unless each rule reproduces its mom[0..2*n_q-1] to relative 1e-8."""
    i = np.arange(2 * n_q)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan fails the test below
        got = np.matmul(weights[..., None, :], nodes[..., :, None] ** i)[..., 0, :]
    target = mom[..., : 2 * n_q]
    # zero-ish targets (symmetric measures) are scaled by the natural
    # order-i magnitude mu_2^(i/2) instead of their own near-zero value
    scale = np.maximum(np.maximum(np.abs(target), mom[..., 2:3] ** (i / 2.0)), 1e-300)
    ok = np.abs(got - target) / scale <= _MOMENT_REPRODUCTION_RTOL
    if not ok.all():
        at = tuple(np.argwhere(~ok)[0])
        raise GramMatrixError(
            f"constructed rule fails to reproduce moment {at[-1]} "
            f"(got {float(got[at])!r}, want {float(target[at])!r}); n_q={n_q} too large"
        )


def golub_welsch(moment_values: np.ndarray, n_q: int) -> QuadratureRule:
    """Quadrature rule of size n_q matching the given raw moment sequence.

    The returned rule reproduces the input moments through order
    2*n_q - 1 to relative 1e-8; anything worse signals that the moment
    precision is exhausted and raises instead of returning a bad rule.
    """
    ws = build_workspace(moment_values, n_q)
    rule = QuadratureRule(*_weights_nodes(ws.jacobi))
    _check_moment_reproduction(rule.weights, rule.nodes, np.asarray(moment_values, dtype=float), n_q)
    return rule


def quadrature_for(spec, n_q: int) -> QuadratureRule:
    """Build the quadrature rule discretizing a randomizer distribution.

    Explicit discrete rules pass through unchanged; degenerate parametric
    specs (nu = 0) collapse to a one-node rule at the mean regardless of
    n_q.  Parametric specs get the closed-form Jacobi matrix of their
    unit-scale family; the nodes are scaled back afterwards, and the
    unit-scale rule must reproduce its family's moments like any
    `golub_welsch` rule.  A sequence of specs of one type gives a stack,
    one row per spec from one stacked eigendecomposition, each row checked
    on its own and equal bit for bit to that spec's own rule.
    """
    stacked = not isinstance(spec, DistributionSpec)
    specs = tuple(spec) if stacked else (spec,)
    if len({type(s) for s in specs}) != 1:
        raise ValueError("a stack of specs must hold one distribution type")
    first = specs[0]
    if isinstance(first, DiscreteGiven):  # ragged stacks raise in np.array
        w, x = (_rows([[p[c] for p in s.points] for s in specs], stacked) for c in (0, 1))
        return QuadratureRule(w / w.sum(-1, keepdims=True), x)
    if n_q < 1:
        raise ValueError("n_q must be >= 1")
    if n_q > MAX_NQ:
        raise ValueError(f"n_q={n_q} exceeds the supported maximum {MAX_NQ}")

    if isinstance(first, (LogNormal, SpotLogNormal)):
        if any(s.nu == 0.0 for s in specs):
            if stacked:
                raise ValueError("a stack of rules must have one size; nu = 0 collapses to one node")
            mean = first.s0 if isinstance(first, SpotLogNormal) else math.exp(first.mu)
            return QuadratureRule(np.array([1.0]), np.array([mean]))
        specs = [_spot_as_lognormal(s) if isinstance(s, SpotLogNormal) else s for s in specs]
        units, scale = [LogNormal(0.0, s.nu) for s in specs], [math.exp(s.mu) for s in specs]
    elif isinstance(first, Gamma):
        units, scale = [Gamma(s.k, 1.0) for s in specs], [s.theta for s in specs]
    else:
        raise TypeError(f"unsupported distribution spec: {first!r}")

    mom = _rows([moments(u, 2 * n_q) for u in units], stacked)  # overflows before the recurrence does
    weights, nodes = _weights_nodes(_jacobi(*_recurrence(units if stacked else units[0], n_q)))
    _check_moment_reproduction(weights, nodes, mom, n_q)
    return QuadratureRule(weights, nodes * _rows(scale, stacked))


def _rows(values, stacked: bool) -> np.ndarray:
    return np.array(values, dtype=float).reshape((len(values), -1) if stacked else (-1,))


def _recurrence(unit, n_q: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form recurrence coefficients alpha_0..alpha_{n-1}, beta_1..beta_{n-1}
    of a unit-scale Gamma(k, 1) or LogNormal(0, nu) (Gautschi 2004); one row
    per unit for a sequence of units of one family."""
    stacked = not isinstance(unit, DistributionSpec)
    units = tuple(unit) if stacked else (unit,)
    j = np.arange(n_q, dtype=float)
    if isinstance(units[0], Gamma):
        # generalized Laguerre with parameter k - 1
        k = _rows([u.k for u in units], stacked)
        return 2.0 * j + k, j[1:] * (j[1:] + k - 1.0)
    # Stieltjes-Wigert with q = exp(-nu^2); 1 - q^j is computed as -expm1(-j nu^2)
    v = [u.nu**2 for u in units]
    q, v = _rows([math.exp(-x) for x in v], stacked), _rows(v, stacked)
    one_minus_qj = -np.expm1(-j * v)
    alpha = np.exp((2.0 * j + 0.5) * v) * (1.0 + q * one_minus_qj)
    beta = np.exp((4.0 * j[1:] - 2.0) * v) * one_minus_qj[..., 1:]
    return alpha, beta
