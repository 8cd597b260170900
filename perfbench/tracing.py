"""Span tracing of randvol from outside the package.

Wrappers are installed on the module attributes that randvol's own code
resolves at call time (for example ``randvol.randomization.implied_vol_brent``,
which ``implied_vol_grid`` looks up as a module global).  Each wrapped call
made while an iteration is active records one span (name, start, end,
parent span, iteration id) and the counts taken at that boundary.  Spans
stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size(value) -> int:
    return int(np.size(value))


def _engine_is_expansion(args, kwargs) -> bool:
    return str(_arg(args, kwargs, 3, "engine", "brent")).strip().lower().startswith("expansion")


# (module, attribute, span name, points counted at the boundary or None).
# One function may be reached through several modules' bindings; every
# binding a caller resolves is wrapped, under the defining module's name.
BOUNDARIES = (
    ("randvol.cli", "main", "cli.main", None),
    ("randvol.cli", "load_quotes", "quotes.load_quotes", None),
    ("randvol.cli", "fit_slice", "calibration.fit_slice", None),
    ("randvol.calibration", "fit_slice", "calibration.fit_slice", None),
    ("randvol.calibration", "minimize", "calibration.minimize", None),
    ("randvol.calibration", "model_vols", "calibration.model_vols", None),
    ("randvol.cli", "randomize", "randomization.randomize", None),
    ("randvol.calibration", "randomize", "randomization.randomize", None),
    ("randvol.randomization", "randomize", "randomization.randomize", None),
    ("randvol.randomization", "quadrature_for", "quadrature.quadrature_for", None),
    ("randvol.cli", "implied_vol_grid", "randomization.implied_vol_grid",
     lambda a, k: _size(_arg(a, k, 2, "strikes"))),
    ("randvol.calibration", "implied_vol_grid", "randomization.implied_vol_grid",
     lambda a, k: _size(_arg(a, k, 2, "strikes"))),
    ("randvol.randomization", "implied_vol_grid", "randomization.implied_vol_grid",
     lambda a, k: _size(_arg(a, k, 2, "strikes"))),
    ("randvol.cli", "randomized_prices", "randomization.randomized_prices",
     lambda a, k: _size(_arg(a, k, 2, "strikes"))),
    ("randvol.randomization", "randomized_prices", "randomization.randomized_prices",
     lambda a, k: _size(_arg(a, k, 2, "strikes"))),
    ("randvol.randomization", "randomized_iv", "randomization.randomized_iv", None),
    ("randvol.cli", "density", "randomization.density", None),
    ("randvol.parametrizations", "hagan_vol", "parametrizations.hagan_vol",
     lambda a, k: _size(_arg(a, k, 1, "strikes"))),
    ("randvol.expansion", "parameter_coefficients", "expansion.parameter_coefficients",
     lambda a, k: _size(_arg(a, k, 2, "tau"))),
    ("randvol.expansion", "spot_coefficients", "expansion.spot_coefficients",
     lambda a, k: _size(_arg(a, k, 4, "tau"))),
    ("randvol.expansion", "evaluate_polynomial", "expansion.evaluate_polynomial",
     lambda a, k: _size(_arg(a, k, 2, "m"))),
    ("randvol.randomization", "implied_vol_brent", "pricing.implied_vol_brent", None),
    ("randvol.randomization", "bs_call_values", "pricing.bs_call_values", None),
    ("randvol.cli", "check_butterfly", "arbitrage.check_butterfly", None),
    ("randvol.cli", "check_calendar", "arbitrage.check_calendar",
     lambda a, k: len(_arg(a, k, 0, "slice_set").slices) * _size(_arg(a, k, 1, "strike_grid"))),
)


class Tracer:
    """In-memory span recorder; records only while ``op`` is set."""

    def __init__(self):
        self.op = None
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self.span_op: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, points in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, points))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name, points):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        counts = self.counts
        stack = self._stack
        clock = time.perf_counter_ns
        is_grid = name == "randomization.implied_vol_grid"
        is_objective = name == "calibration.model_vols"

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            if points is not None:
                counts[name + ".points"] += points(args, kwargs)
            expansion = is_grid and _engine_is_expansion(args, kwargs)
            if expansion:
                counts["grid.expansion_asked"] += _size(_arg(args, kwargs, 2, "strikes"))
                brent_before = counts["pricing.implied_vol_brent.calls"]
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.span_end.append(0)
            stack.append(index)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                self.span_end[index] = clock()
                stack.pop()
                if expansion:
                    counts["grid.escalated"] += counts["pricing.implied_vol_brent.calls"] - brent_before
            if is_objective and not np.all(np.isfinite(result)):
                counts[name + ".nonfinite"] += 1
            return result

        return traced

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.array(self.span_name, dtype=np.int32),
            "start_ns": np.array(self.span_start, dtype=np.int64),
            "end_ns": np.array(self.span_end, dtype=np.int64),
            "parent": np.array(self.span_parent, dtype=np.int64),
            "op": np.array(self.span_op, dtype=np.int32),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def times_by_name(self) -> dict[str, tuple[float, float]]:
        """Total (inclusive, self) seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap.
        """
        spans = self.arrays()
        duration = (spans["end_ns"] - spans["start_ns"]).astype(float)
        child = np.zeros_like(duration)
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], duration[has_parent])
        own = duration - child
        out = {}
        for name_id, name in enumerate(self.names):
            mask = spans["name"] == name_id
            out[name] = (float(duration[mask].sum()) * 1e-9, float(own[mask].sum()) * 1e-9)
        return out
