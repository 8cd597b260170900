"""Base implied-volatility parametrizations: flat level and the SABR formula.

Holds the slice-level parameter container (base parameters plus an
optional randomizer specification), its array form (the parameter
columns of a stack of slices, on which the model runs), Hagan's formula
and the JSON form.  A plain slice's vols are its one-node randomization's.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Literal, Optional, Union

import numpy as np

from .errors import ParameterDomainError
from .quadrature import FAMILIES, DiscreteGiven, DistributionSpec, SpotLogNormal, check_domains, spec_columns

#: correlation clamp used by the calibrator; the type itself only
#: requires the open interval (-1, 1)
RHO_MAX = 0.999
_Z_SERIES_CUTOFF = 1e-6


@dataclass(frozen=True)
class FlatParams:
    """Constant implied volatility across all expiries and strikes."""

    sigma: float

    def __post_init__(self):
        check_domains({"sigma": [self.sigma]})


@dataclass(frozen=True)
class SabrParams:
    """SABR parameters on [0,1] x [0,inf) x (-1,1) x [0,inf) for (beta, alpha, rho, gamma)."""

    alpha: float
    beta: float
    rho: float
    gamma: float

    def __post_init__(self):
        check_domains({name: [getattr(self, name)] for name in ("alpha", "beta", "rho", "gamma")})


BaseParams = Union[FlatParams, SabrParams]
#: each base model's type and parameters, in column and JSON order
BASES = {"flat": (FlatParams, ("sigma",)), "sabr": (SabrParams, ("alpha", "beta", "rho", "gamma"))}
RandomizerTarget = Literal["sigma", "gamma", "spot"]


@dataclass(frozen=True)
class RandomizerSpec:
    """Which parameter is randomized, with what distribution, at what size."""

    target: RandomizerTarget
    dist: DistributionSpec
    n_q: int

    def __post_init__(self):
        if self.target not in ("sigma", "gamma", "spot"):
            raise ValueError(f"unknown randomizer target {self.target!r}")
        if self.n_q < 1:
            raise ValueError(f"n_q must be >= 1, got {self.n_q}")


@dataclass(frozen=True)
class SliceParams:
    """Base parametrization plus an optional randomizer (the extended vector)."""

    base: BaseParams
    randomizer: Optional[RandomizerSpec] = None

    def __post_init__(self):
        rnd = self.randomizer
        if rnd is None:
            return
        if rnd.target == "sigma" and not isinstance(self.base, FlatParams):
            raise ParameterDomainError("sigma randomization applies to the flat base only")
        if rnd.target == "gamma" and not isinstance(self.base, SabrParams):
            raise ParameterDomainError("gamma randomization applies to the SABR base only")
        if rnd.target == "spot" and not isinstance(rnd.dist, (SpotLogNormal, DiscreteGiven)):
            raise ParameterDomainError(
                "spot randomization requires a spot-lognormal or explicit discrete distribution"
            )


@dataclass(frozen=True)
class SliceColumns:
    """Slices as parameter columns, the array form of SliceParams on which the model runs.

    ``columns`` maps the base's 'sigma', or 'alpha', 'beta', 'rho' and 'gamma', and the columns of
    the rule ``family`` (see `quadrature.spec_columns`) to arrays: of shape () for one slice, (P,)
    for a stack of P, whose item p is row p.  A plain slice is a one-node 'discrete' rule.
    """

    target: RandomizerTarget
    family: str
    n_q: int
    columns: dict

    def __getitem__(self, p: int) -> "SliceColumns":
        # a 0-d column's IndexError would end iteration at once: a lone slice would read as no rows
        if any(np.ndim(column) == 0 for column in self.columns.values()):
            raise TypeError("a lone slice has no rows to index: its columns are 0-d")
        return replace(self, columns={name: column[p] for name, column in self.columns.items()})


def slice_columns(params) -> SliceColumns:
    """The columns of a SliceParams, or of a sequence of them with one base model, target and n_q (a stack)."""
    stacked = not isinstance(params, SliceParams)
    members = tuple(params) if stacked else (params,)
    if len({(type(p.base), p.randomizer and (p.randomizer.target, p.randomizer.n_q)) for p in members}) != 1:
        raise ValueError("stacked slices must share the base model, the randomized target and n_q")
    names = BASES["flat" if isinstance(members[0].base, FlatParams) else "sabr"][1]
    shape = (len(members),) if stacked else ()
    columns = {name: np.array([getattr(p.base, name) for p in members], dtype=float).reshape(shape) for name in names}
    rnd = members[0].randomizer
    if rnd is None:
        return plain_columns(columns)
    family, dist = spec_columns([p.randomizer.dist for p in members] if stacked else rnd.dist)
    return SliceColumns(rnd.target, family, rnd.n_q, columns | dist)


def plain_columns(columns: dict) -> SliceColumns:
    """Plain slices from their base columns: a one-node rule at sigma (flat) or gamma (SABR)."""
    target = "sigma" if "sigma" in columns else "gamma"
    nodes = np.asarray(columns[target])[..., None]
    return SliceColumns(target, "discrete", 1, columns | {"weights": np.ones(nodes.shape), "nodes": nodes})


def hagan_vol(forward, strikes, tau, alpha, beta, rho, gamma):
    """SABR implied volatility; broadcasts over strikes, forwards, expiries and arrays of parameters.

    The ratio z/x(z) switches to its Taylor series below |z| = 1e-6,
    where direct evaluation of log(.)/z loses all precision; the series
    limit at the forward strike is exactly 1.  A zero alpha gives a zero
    vol.  Every term is an elementwise array operation, so a stack of
    points, or a flattened grid with one entry of each input per
    (row, strike) pair, gives bit for bit the vols of one-point calls.
    """
    k = np.asarray(strikes, dtype=float)
    if (k <= 0).any():
        raise ParameterDomainError("strikes must be positive")
    alpha, beta, rho = (np.asarray(x, dtype=float) for x in (alpha, beta, rho))
    live = alpha != 0.0
    alpha, omb = np.where(live, alpha, 1.0), 1.0 - beta
    omb_2, c = omb * omb, 2.0 - 3.0 * (rho * rho)

    # (FK)^((1 - beta)/2) as exp(. * log FK): np.power rounds a broadcast exponent of 0.5 as a square root and
    # an exponent array as a power, so a lone point and a stack would part at beta = 0
    log_fk, log_prod = np.log(forward / k), np.log(forward * k)
    log_fk_2 = log_fk * log_fk
    fk_pow = np.exp(0.5 * omb * log_prod)
    z = (gamma / alpha) * fk_pow * log_fk
    small = np.abs(z) < _Z_SERIES_CUTOFF
    z_safe = np.where(small, 1.0, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_of_z = np.log((np.sqrt(1.0 - 2.0 * rho * z_safe + z_safe * z_safe) + z_safe - rho) / (1.0 - rho))
        ratio = np.where(small, 1.0 - 0.5 * rho * z + c / 12.0 * (z * z), z_safe / x_of_z)
    denom = fk_pow * (1.0 + omb_2 / 24.0 * log_fk_2 + omb_2 * omb_2 / 1920.0 * (log_fk_2 * log_fk_2))
    correction = 1.0 + (omb_2 / 24.0 * (alpha * alpha) / (fk_pow * fk_pow) + 0.25 * rho * beta * gamma * alpha / fk_pow
                        + c / 24.0 * (gamma * gamma)) * tau
    vol = np.where(live, alpha / denom * ratio * correction, 0.0)
    return float(vol) if vol.ndim == 0 else vol


# ---------------------------------------------------------------------------
# JSON (de)serialization of slice parameters
# ---------------------------------------------------------------------------

def dist_to_json(dist: DistributionSpec) -> dict:
    if isinstance(dist, DiscreteGiven):
        return {"family": dist.family, "points": [list(p) for p in dist.points]}
    return {"family": dist.family, **{name: getattr(dist, name) for name in FAMILIES[dist.family][1]}}


def dist_from_json(data: dict, spot: Optional[float] = None) -> DistributionSpec:
    family = data.get("family")
    if family == "discrete":
        return DiscreteGiven(tuple((_json_number(w, "points"), _json_number(x, "points")) for w, x in data["points"]))
    if family not in FAMILIES:
        raise ValueError(f"unknown distribution family {family!r}")
    if family == "spot-lognormal" and data.get("s0", spot) is None:
        raise ValueError("spot-lognormal distribution needs 's0' (or a market spot)")
    spec_type, names = FAMILIES[family]
    return spec_type(*(_json_number(data.get(name, spot) if name == "s0" else data[name], name) for name in names))


def _json_number(value, name: str, kind: type = float):
    """A JSON number as a ``kind``; anything else, a boolean or a string included, or for an int a non-integer,
    raises naming its field."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {json.dumps(value)}")
    return kind(value)


def params_to_json(params: SliceParams) -> dict:
    model = "flat" if isinstance(params.base, FlatParams) else "sabr"
    out = {"type": model, **{name: getattr(params.base, name) for name in BASES[model][1]}}
    if params.randomizer is not None:
        rnd = params.randomizer
        out["randomizer"] = {"target": rnd.target, "dist": dist_to_json(rnd.dist), "n_q": rnd.n_q}
    return out


def params_from_json(data: dict, spot: Optional[float] = None) -> SliceParams:
    """The slice a params JSON object describes; JSON of another shape, or a missing field, raises ValueError."""
    try:
        if data.get("type") not in BASES:
            raise ValueError(f"unknown parametrization type {data.get('type')!r}")
        base_type, names = BASES[data["type"]]
        base = base_type(*(_json_number(data[name], name) for name in names))
        rnd = data.get("randomizer")
        if rnd is None:
            return SliceParams(base)
        dist = dist_from_json(rnd["dist"], spot=spot)
        return SliceParams(base, RandomizerSpec(rnd["target"], dist, _json_number(rnd.get("n_q", 2), "n_q", int)))
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"malformed slice params: {exc}") from exc
    except KeyError as exc:
        raise ValueError(f"malformed slice params: missing field {exc}") from exc
