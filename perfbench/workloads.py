"""The three workloads: input generation, program-side set-up, one iteration, output checks.

Every workload is a closed loop with one client: an iteration starts only
after the previous one has finished and been checked.  Inputs come from
the seed alone and reach the program as generated files and arrays.
References (truth vols, exact mixture prices, Brent vols) are computed
when the inputs are generated, in a separate process, so no oracle work
runs inside a timed region or inside a traced iteration.

Only this module and the worker import randvol; ``run.py`` does not.
"""
from __future__ import annotations

import contextlib
import datetime as dt
import io
import json
import math
import resource
import shutil
import time
from pathlib import Path

import numpy as np
from scipy.special import ndtr

SPOT = 100.0
RATE = 0.02
#: Expiry ladder shared by iv_batch and the cli_exact jobs (years).
EXPIRY_LADDER = (0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
#: Criterion 03's bound: a vol within 10 bp of the Brent reference is accurate.
ACCURATE_BP = 10.0


def forward(expiry: float) -> float:
    return SPOT * math.exp(RATE * expiry)


def bs_call(s0, r, tau, strikes, sigmas):
    """Black-Scholes call values, written here so checks never call randvol."""
    st = np.asarray(sigmas, dtype=float) * math.sqrt(tau)
    k = np.asarray(strikes, dtype=float)
    d1 = (np.log(s0 / k) + r * tau) / st + 0.5 * st
    return s0 * ndtr(d1) - k * math.exp(-r * tau) * ndtr(d1 - st)


def jitter(rng, value: float, rel: float = 0.05) -> float:
    return float(value * rng.uniform(1.0 - rel, 1.0 + rel))


def sigma_slice_json(level: float = 0.2, nu: float = 0.2, n_q: int = 4) -> dict:
    """Flat base with a lognormal vol randomizer whose mean is ``level``."""
    return {
        "type": "flat",
        "sigma": level,
        "randomizer": {
            "target": "sigma",
            "dist": {"family": "lognormal", "mu": math.log(level) - 0.5 * nu**2, "nu": nu},
            "n_q": n_q,
        },
    }


def gamma_sabr_json(rng) -> dict:
    k = jitter(rng, 3.0)
    mean_gamma = jitter(rng, 1.5)
    return {
        "type": "sabr",
        "alpha": jitter(rng, 0.3),
        "beta": 0.9,
        "rho": jitter(rng, -0.5),
        "gamma": mean_gamma,
        "randomizer": {
            "target": "gamma",
            "dist": {"family": "gamma", "k": k, "theta": mean_gamma / k},
            "n_q": 2,
        },
    }


def spot_sabr_json(rng) -> dict:
    return {
        "type": "sabr",
        "alpha": jitter(rng, 0.3),
        "beta": 0.9,
        "rho": jitter(rng, -0.5),
        "gamma": jitter(rng, 1.0),
        "randomizer": {
            "target": "spot",
            "dist": {"family": "spot-lognormal", "s0": SPOT, "nu": jitter(rng, 0.06)},
            "n_q": 2,
        },
    }


def write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def write_points(path: Path, expiries, strikes) -> None:
    lines = ["expiry,strike"]
    lines += [f"{t:.10g},{k:.17g}" for t, k in zip(expiries, strikes)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv_columns(text: str, ncols: int) -> np.ndarray:
    rows = text.strip().splitlines()[1:]
    out = np.array([[float(x) for x in row.split(",")] for row in rows], dtype=float)
    if out.ndim != 2 or out.shape[1] != ncols:
        raise ValueError(f"expected {ncols} CSV columns, got shape {out.shape}")
    return out


def exact_brent_vols(rs, expiry: float, strikes: np.ndarray) -> np.ndarray:
    """Brent vols on the exact mixture prices; NaN where no vol exists in double."""
    from randvol import OptionKey, implied_vol_brent, randomized_prices
    from randvol.errors import RandvolError

    prices = randomized_prices(rs, expiry, strikes)
    out = np.full(strikes.size, np.nan)
    for i, (k, p) in enumerate(zip(strikes, prices)):
        try:
            out[i] = implied_vol_brent(rs.ctx, OptionKey(expiry, float(k)), float(p))
        except RandvolError:
            pass
    return out


class Iteration:
    """What one closed-loop iteration did, as seen by the benchmark."""

    def __init__(self):
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.jobs: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.checked = 0
        self.accurate = 0
        self.extra: dict[str, float] = {}

    def op(self, ok: bool, wrong_output: bool = False) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.incorrect += 1 if wrong_output else 0

    def timing(self, kind: str, elapsed: tuple[float, float]) -> None:
        """Add one timed call's (wall, process CPU) seconds."""
        self.jobs.setdefault(kind, []).append(elapsed[0])
        self.seconds += elapsed[0]
        self.cpu_seconds += elapsed[1]


def cpu_seconds() -> float:
    """CPU seconds of this process (all threads) plus its reaped children.

    Unlike wall time, this leaves out the time the host takes the virtual
    CPU away (steal), a large source of run-to-run spread on a shared host.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_cpu_seconds() -> float:
    """CPU seconds of a fixed mix of small numpy, ``ndtr`` and pure-Python work.

    It never calls randvol, so its time moves only with the host's speed.
    Other tenants of a shared host slow every instruction through the
    caches and memory they share; that slowdown is in CPU seconds too.
    Each workload's ``REFERENCE_EXPONENT`` says how strongly its own CPU
    time follows this figure: 1 for as strongly, 0.5 for half as much in
    logarithm.  The exponents were measured as the ones that made 30-second
    medians of a long series of passes steadiest.  ``run.py`` divides each iteration by the reference figure
    raised to that power.
    """
    start = time.process_time()
    strikes = np.linspace(80.0, 120.0, 40)
    total = 0.0
    for i in range(300):
        d = np.log(SPOT / strikes) / (0.2 + i * 1e-4) + 0.1
        total += float(np.sum(SPOT * ndtr(d) - strikes * ndtr(d - 0.2)))
        total += sum(x * 1.0001 for x in range(50))
    return time.process_time() - start


def checked(it: Iteration, rc, check, oracle_points: int = 0) -> None:
    """Count one CLI job: a raise or an unexpected exit is a failed op; a
    completed job whose output fails ``check`` is a failed op with a wrong output.

    A failed job counts all ``oracle_points`` of its reference as checked
    and none as accurate, so that fixing a failing job cannot lower the
    accuracy figures.
    """
    checked_before, accurate_before = it.checked, it.accurate
    if rc != 0:
        ok, wrong = False, False
    else:
        try:
            ok = bool(check())
        except (OSError, ValueError, KeyError):
            ok = False
        wrong = not ok
    it.op(ok, wrong_output=wrong)
    if not ok:
        it.checked, it.accurate = checked_before + oracle_points, accurate_before


def timed_call(tracer, op_id: int, fn):
    """Run one program call inside the timed (and, if tracing, traced) region.

    Returns (result, exception, (wall seconds, process CPU seconds)); an
    exception is returned rather than raised so that it is counted as a
    failed op, never retried.
    """
    if tracer is not None:
        tracer.op = op_id
    start, start_cpu = time.perf_counter(), cpu_seconds()
    try:
        result, error = fn(), None
    except Exception as exc:  # counted as a failed op by the caller
        result, error = None, exc
    elapsed = (time.perf_counter() - start, cpu_seconds() - start_cpu)
    if tracer is not None:
        tracer.op = None
    return result, error, elapsed


def run_cli(tracer, op_id: int, argv: list[str]):
    """``randvol.cli.main(argv)`` in-process with stdout/stderr captured.

    The module attribute is looked up on every call so that a tracing
    wrapper, when installed, sees the call.
    """
    import randvol.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc, error, seconds = timed_call(tracer, op_id, lambda: randvol.cli.main(argv))
    return (None if error else rc), out.getvalue(), err.getvalue(), seconds


# ---------------------------------------------------------------------------
# calibrate: one `randvol fit` job per iteration
# ---------------------------------------------------------------------------

class Calibrate:
    """`randvol fit` on a two-expiry quote file, gamma-gamma SABR, n_q=2, beta pinned at 0.9."""

    name = "calibrate"
    #: Fits on 40-point batches mix interpreter-bound and vectorized work.
    REFERENCE_EXPONENT = 0.75
    TRADE_DATE = dt.date(2024, 7, 31)
    EXPIRY_DAYS = (30, 182)
    N_STRIKES = 40
    NOISE_BP = 3.0
    #: A slice's residual RMS must stay under this multiple of the injected noise.
    RMS_BOUND_X_NOISE = 4.0
    #: The known slice behind the quotes; the seed draws the noise and the open interest.
    TRUE_SLICE = {
        "type": "sabr", "alpha": 0.3, "beta": 0.9, "rho": -0.5, "gamma": 1.5,
        "randomizer": {"target": "gamma", "dist": {"family": "gamma", "k": 3.0, "theta": 0.5}, "n_q": 2},
    }

    def generate(self, work: Path, seed: int) -> None:
        from randvol import MarketContext, implied_vol_grid, params_from_json, randomize

        rng = np.random.default_rng(seed)
        ctx = MarketContext(s0=SPOT, r=RATE)
        rs = randomize(params_from_json(self.TRUE_SLICE), ctx)
        noise = self.NOISE_BP * 1e-4
        rows = ["expiry_date,strike,type,iv,open_interest"]
        truth = {"expiry": [], "strike": [], "true_iv": [], "kept_iv": []}
        for days in self.EXPIRY_DAYS:
            expiry = days / 365.0
            fwd = forward(expiry)
            width = 0.2 * math.sqrt(expiry)
            strikes = np.round(fwd * np.exp(np.linspace(-2.6 * width, 2.2 * width, self.N_STRIKES)), 2)
            vols = implied_vol_grid(rs, expiry, strikes, engine="brent")
            date = (self.TRADE_DATE + dt.timedelta(days=days)).isoformat()
            for k, v in zip(strikes, vols):
                call_iv, put_iv = v + noise * rng.standard_normal(2)
                call_oi, put_oi = (int(x) for x in rng.integers(1, 5000, 2))
                if put_oi == call_oi:
                    put_oi += 1
                rows.append(f"{date},{k:.2f},C,{call_iv:.8f},{call_oi}")
                rows.append(f"{date},{k:.2f},P,{put_iv:.8f},{put_oi}")
                truth["expiry"].append(expiry)
                truth["strike"].append(k)
                truth["true_iv"].append(v)
                kept = call_iv if call_oi > put_oi else put_iv
                truth["kept_iv"].append(float(f"{kept:.8f}"))
        (work / "quotes.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        (work / "run.cfg").write_text(
            f"spot = {SPOT}\nrate = {RATE}\ntrade_date = {self.TRADE_DATE.isoformat()}\n"
            "model = sabr\nrandomizer = gamma-gamma\nn_q = 2\nbeta = 0.9\n",
            encoding="utf-8",
        )
        np.savez(work / "oracle.npz", **{k: np.array(v) for k, v in truth.items()})

    def setup(self, work: Path):
        from randvol.quotes import load_quotes, parse_config

        cfg = parse_config(work / "run.cfg")
        load_quotes(work / "quotes.csv", cfg.market)
        return {"work": work}

    def load_oracle(self, work: Path, state) -> None:
        state["oracle"] = dict(np.load(work / "oracle.npz"))

    def iteration(self, state, tracer, op_id: int) -> Iteration:
        work = state["work"]
        it = Iteration()
        out_dir = work / f"fit-{op_id}"
        try:
            rc, _, _, seconds = run_cli(
                tracer, op_id,
                ["fit", "--quotes", str(work / "quotes.csv"), "--config", str(work / "run.cfg"),
                 "--out-dir", str(out_dir)],
            )
            it.timing("fit", seconds)
            checked(it, rc, lambda: self._check(state["oracle"], out_dir, it), state["oracle"]["expiry"].size)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return it

    def _check(self, oracle, out_dir: Path, it: Iteration) -> bool:
        expiries = np.unique(oracle["expiry"])
        fits = sorted(out_dir.glob("fit_T*.json"))
        residual_files = sorted(out_dir.glob("residuals_T*.csv"))
        if len(fits) != expiries.size or len(residual_files) != expiries.size:
            return False
        table = np.vstack([read_csv_columns(p.read_text(encoding="utf-8"), 3) for p in residual_files])
        ok = True
        squares = []
        for expiry in expiries:
            rows = table[np.isclose(table[:, 0], expiry, rtol=1e-9)]
            mask = oracle["expiry"] == expiry
            if rows.shape[0] != mask.sum():
                return False
            order = np.argsort(rows[:, 1])
            rows = rows[order]
            if not np.allclose(rows[:, 1], oracle["strike"][mask], rtol=1e-9):
                return False
            residual = rows[:, 2]
            if not np.all(np.isfinite(residual)):
                return False
            rms_bp = math.sqrt(float(np.mean(residual**2))) * 1e4
            ok &= rms_bp < self.RMS_BOUND_X_NOISE * self.NOISE_BP
            model = oracle["kept_iv"][mask] + residual
            it.checked += residual.size
            it.accurate += int(np.sum(np.abs(model - oracle["true_iv"][mask]) <= ACCURATE_BP * 1e-4))
            squares.append(residual**2)
        it.extra["fit_rmse_bp"] = math.sqrt(float(np.mean(np.concatenate(squares)))) * 1e4
        return ok


# ---------------------------------------------------------------------------
# iv_batch: library implied_vol_grid on ~1e5 points per iteration
# ---------------------------------------------------------------------------

class IvBatch:
    """`implied_vol_grid` with the expansion engines over three randomization kinds."""

    name = "iv_batch"
    #: Vectorized passes slow down less than the reference work when the host is slow.
    REFERENCE_EXPONENT = 0.5
    KINDS = (("sigma", "expansion:6"), ("gamma", "expansion:6"), ("spot", "expansion:4"))
    STRIKES_PER_CELL = 4167  # 3 kinds x 8 expiries x 4167 = 100,008 points
    ORACLE_PER_CELL = 200

    def generate(self, work: Path, seed: int) -> None:
        from randvol import MarketContext, params_from_json, randomize

        rng = np.random.default_rng(seed)
        ctx = MarketContext(s0=SPOT, r=RATE)
        slices = {
            "sigma": sigma_slice_json(jitter(rng, 0.2), jitter(rng, 0.2), 4),
            "gamma": gamma_sabr_json(rng),
            "spot": spot_sabr_json(rng),
        }
        arrays = {}
        for kind, _ in self.KINDS:
            write_json(work / f"{kind}.json", slices[kind])
            rs = randomize(params_from_json(slices[kind], spot=SPOT), ctx)
            for cell, expiry in enumerate(EXPIRY_LADDER):
                fwd = forward(expiry)
                strikes = np.sort(rng.uniform(0.8 * fwd, 1.25 * fwd, self.STRIKES_PER_CELL))
                idx = np.sort(rng.choice(strikes.size, self.ORACLE_PER_CELL, replace=False))
                arrays[f"{kind}_{cell}_strikes"] = strikes
                arrays[f"{kind}_{cell}_idx"] = idx
                arrays[f"{kind}_{cell}_oracle"] = exact_brent_vols(rs, expiry, strikes[idx])
        np.savez(work / "inputs.npz", **arrays)

    def setup(self, work: Path):
        from randvol import MarketContext, params_from_json, randomize

        ctx = MarketContext(s0=SPOT, r=RATE)
        data = np.load(work / "inputs.npz")
        cells = []
        for kind, engine in self.KINDS:
            params = json.loads((work / f"{kind}.json").read_text(encoding="utf-8"))
            rs = randomize(params_from_json(params, spot=SPOT), ctx)
            for cell, expiry in enumerate(EXPIRY_LADDER):
                cells.append((kind, cell, rs, expiry, data[f"{kind}_{cell}_strikes"], engine))
        return {"work": work, "cells": cells}

    def load_oracle(self, work: Path, state) -> None:
        state["oracle"] = dict(np.load(work / "inputs.npz"))

    def iteration(self, state, tracer, op_id: int) -> Iteration:
        import randvol.randomization

        it = Iteration()
        oracle = state["oracle"]
        points = 0
        for kind, cell, rs, expiry, strikes, engine in state["cells"]:
            vols, error, seconds = timed_call(
                tracer, op_id, lambda: randvol.randomization.implied_vol_grid(rs, expiry, strikes, engine=engine)
            )
            it.timing("grid", seconds)
            ref = oracle[f"{kind}_{cell}_oracle"]
            known = np.isfinite(ref)
            it.checked += int(known.sum())  # a failed cell checks its points and gets none right
            if error is not None:
                it.op(False)
                continue
            vols = np.asarray(vols, dtype=float)
            wrong = vols.shape != strikes.shape or not np.all(np.isfinite(vols) & (vols > 0))
            it.op(not wrong, wrong_output=wrong)
            if wrong:
                continue
            points += vols.size
            got = vols[oracle[f"{kind}_{cell}_idx"]]
            it.accurate += int(np.sum(np.abs(got[known] - ref[known]) <= ACCURATE_BP * 1e-4))
        it.extra["points"] = points
        return it


# ---------------------------------------------------------------------------
# cli_exact: a fixed mix of CLI jobs that end in the root finder
# ---------------------------------------------------------------------------

class CliExact:
    """`iv --engine brent`, wide-strike `iv --engine expansion:6`, `check-arb`, `density`."""

    name = "cli_exact"
    #: Interpreter-bound passes slow down as much as the reference work.
    REFERENCE_EXPONENT = 1.0
    BRENT_PER_EXPIRY = 250  # 8 expiries -> 2,000 points
    #: One wide-strike job per expiry of the ladder, so the 0.05y job of defect (a) is always there.
    WIDE_POINTS = 500
    ARB_EXPIRIES = (0.1, 0.25, 0.5, 1.0)
    DENSITY_EXPIRY = 0.5
    REPRICE_RTOL = 1e-8

    def generate(self, work: Path, seed: int) -> None:
        from randvol import MarketContext, params_from_json, randomize, randomized_prices

        rng = np.random.default_rng(seed)
        ctx = MarketContext(s0=SPOT, r=RATE)
        # Milder vol-of-vol and skew than the other workloads' SABR slices:
        # Hagan's formula itself breaks the far-strike limit and the density
        # mass on steeper wings, and check-arb must see a convex surface.
        mean_gamma = jitter(rng, 0.35)
        sabr = {
            "type": "sabr", "alpha": jitter(rng, 0.3), "beta": 0.9, "rho": jitter(rng, -0.3), "gamma": mean_gamma,
            "randomizer": {"target": "gamma", "dist": {"family": "gamma", "k": 3.0, "theta": mean_gamma / 3.0},
                           "n_q": 2},
        }
        flat = sigma_slice_json()
        write_json(work / "sabr.json", sabr)
        write_json(work / "flat.json", flat)
        write_json(work / "surface.json", {"slices": [{"expiry": t, "params": sabr} for t in self.ARB_EXPIRIES]})

        sabr_rs = randomize(params_from_json(sabr, spot=SPOT), ctx)
        expiries, strikes, prices = [], [], []
        for expiry in EXPIRY_LADDER:
            fwd = forward(expiry)
            ks = np.sort(rng.uniform(0.7 * fwd, 1.4 * fwd, self.BRENT_PER_EXPIRY))
            expiries += [expiry] * ks.size
            strikes.append(ks)
            prices.append(randomized_prices(sabr_rs, expiry, ks))
        write_points(work / "brent_points.csv", expiries, np.concatenate(strikes))
        arrays = {
            "brent_expiry": np.array(expiries),
            "brent_strike": np.concatenate(strikes),
            "brent_price": np.concatenate(prices),
        }

        flat_rs = randomize(params_from_json(flat, spot=SPOT), ctx)
        wide_expiries = list(EXPIRY_LADDER)
        for job, expiry in enumerate(wide_expiries):
            fwd = forward(expiry)
            ks = np.sort(np.exp(rng.uniform(math.log(0.5 * fwd), math.log(2.0 * fwd), self.WIDE_POINTS)))
            write_points(work / f"wide_{job}.csv", [expiry] * ks.size, ks)
            arrays[f"wide_{job}_strike"] = ks
            arrays[f"wide_{job}_oracle"] = exact_brent_vols(flat_rs, expiry, ks)
        arrays["wide_expiry"] = np.array(wide_expiries)
        np.savez(work / "oracle.npz", **arrays)

    def setup(self, work: Path):
        from randvol import MarketContext, params_from_json, randomize

        ctx = MarketContext(s0=SPOT, r=RATE)
        for name in ("sabr.json", "flat.json"):
            randomize(params_from_json(json.loads((work / name).read_text(encoding="utf-8")), spot=SPOT), ctx)
        surface = json.loads((work / "surface.json").read_text(encoding="utf-8"))
        for entry in surface["slices"]:
            randomize(params_from_json(entry["params"], spot=SPOT), ctx)
        return {"work": work}

    def load_oracle(self, work: Path, state) -> None:
        state["oracle"] = dict(np.load(work / "oracle.npz"))

    def iteration(self, state, tracer, op_id: int) -> Iteration:
        work, oracle = state["work"], state["oracle"]
        market = ["--spot", f"{SPOT}", "--rate", f"{RATE}"]
        it = Iteration()

        out = work / "brent_out.csv"
        rc, _, _, seconds = run_cli(
            tracer, op_id,
            ["iv", *market, "--params", str(work / "sabr.json"), "--points", str(work / "brent_points.csv"),
             "--engine", "brent", "--out", str(out)],
        )
        it.timing("iv_brent", seconds)
        checked(it, rc, lambda: self._check_brent(oracle, out, it), oracle["brent_strike"].size)

        for job, expiry in enumerate(oracle["wide_expiry"]):
            out = work / f"wide_{job}_out.csv"
            rc, _, _, seconds = run_cli(
                tracer, op_id,
                ["iv", *market, "--params", str(work / "flat.json"), "--points", str(work / f"wide_{job}.csv"),
                 "--engine", "expansion:6", "--out", str(out)],
            )
            # only successful wide-strike jobs count in iv_wide_s
            it.timing("iv_wide" if rc == 0 else "iv_wide_failed", seconds)
            known = int(np.isfinite(oracle[f"wide_{job}_oracle"]).sum())
            checked(it, rc, lambda: self._check_wide(oracle, job, out, it), known)

        rc, stdout, _, seconds = run_cli(
            tracer, op_id, ["check-arb", *market, "--params", str(work / "surface.json")]
        )
        it.timing("check_arb", seconds)
        # exit 1 means violations were found: a completed job with a wrong answer
        checked(it, 0 if rc == 1 else rc, lambda: rc == 0 and json.loads(stdout)["passed"] is True)

        out = work / "density_out.csv"
        rc, _, _, seconds = run_cli(
            tracer, op_id,
            ["density", *market, "--params", str(work / "sabr.json"), "--expiry", f"{self.DENSITY_EXPIRY}",
             "--n-strikes", "501", "--out", str(out)],
        )
        it.timing("density", seconds)
        checked(it, rc, lambda: self._check_density(out))
        return it

    def _check_brent(self, oracle, out: Path, it: Iteration) -> bool:
        """Each Brent vol must reprice to the exact mixture price.

        The root finder's tolerance is relative in volatility, so a price
        error is converted to a vol error through vega and held to
        ``REPRICE_RTOL`` of the vol, after a few ulps of the spot for the
        rounding of deep in-the-money prices.  The worst price-relative
        error is recorded as well.
        """
        table = read_csv_columns(out.read_text(encoding="utf-8"), 3)
        if table.shape[0] != oracle["brent_strike"].size:
            return False
        vols = table[:, 2]
        if not np.all(np.isfinite(vols) & (vols > 0)):
            return False
        worst_vol = worst_price = 0.0
        for expiry in EXPIRY_LADDER:
            mask = oracle["brent_expiry"] == expiry
            strikes, sigma = oracle["brent_strike"][mask], vols[mask]
            target = oracle["brent_price"][mask]
            gap = np.abs(bs_call(SPOT, RATE, expiry, strikes, sigma) - target)
            d1 = (np.log(SPOT / strikes) + RATE * expiry) / (sigma * math.sqrt(expiry)) + 0.5 * sigma * math.sqrt(expiry)
            vega = SPOT * np.exp(-0.5 * d1**2) / math.sqrt(2.0 * math.pi) * math.sqrt(expiry)
            vol_error = np.maximum(gap - 4.0 * np.finfo(float).eps * SPOT, 0.0) / (vega * sigma)
            worst_vol = max(worst_vol, float(np.max(vol_error)))
            worst_price = max(worst_price, float(np.max(gap / target)))
        it.extra["brent_reprice_worst_vol_rel"] = worst_vol
        it.extra["brent_reprice_worst_price_rel"] = worst_price
        ok = worst_vol <= self.REPRICE_RTOL
        it.checked += vols.size
        it.accurate += vols.size if ok else 0
        return ok

    def _check_wide(self, oracle, job: int, out: Path, it: Iteration) -> bool:
        table = read_csv_columns(out.read_text(encoding="utf-8"), 3)
        ref = oracle[f"wide_{job}_oracle"]
        if table.shape[0] != ref.size:
            return False
        vols = table[:, 2]
        if not np.all(np.isfinite(vols) & (vols > 0)):
            return False
        known = np.isfinite(ref)
        it.checked += int(known.sum())
        it.accurate += int(np.sum(np.abs(vols[known] - ref[known]) <= ACCURATE_BP * 1e-4))
        return True

    def _check_density(self, out: Path) -> bool:
        table = read_csv_columns(out.read_text(encoding="utf-8"), 2)
        strikes, values = table[:, 0], table[:, 1]
        mass = float(np.trapezoid(values, strikes))
        mean = float(np.trapezoid(strikes * values, strikes) / mass)
        return abs(mass - 1.0) <= 1e-3 and abs(mean - forward(self.DENSITY_EXPIRY)) <= 1e-3 * forward(
            self.DENSITY_EXPIRY
        )


WORKLOADS = {w.name: w for w in (Calibrate(), IvBatch(), CliExact())}
