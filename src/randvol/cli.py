"""Command-line interface: fit, price, iv, density, check-arb, interp."""
from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from itertools import chain, repeat
from pathlib import Path

import numpy as np

# check_butterfly, check_calendar, implied_vol_grid and randomized_prices stay names here: the benchmark's tracer
# wraps them in this module and does not install without them
from .arbitrage import (
    _MIN_GRID, SliceSet, butterfly_probes, butterfly_report, calendar_report, check_butterfly, check_calendar,
    default_strike_grid, interp_total_variance,
)
from .calibration import fit_slice, fit_surface  # fit_slice stays a name here: the benchmark's tracer wraps it
from .errors import CalibrationError, RandvolError
from .parametrizations import _json_number, params_from_json
from .pricing import MarketContext
from .quotes import load_quotes, parse_config
from .randomization import csv_rows, density, implied_vol_grid, parse_engine, randomize, randomized_prices, stacked_grid


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (RandvolError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="randvol", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="calibrate per-expiry slices to a quote file")
    fit.add_argument("--quotes", required=True, help="quote CSV path")
    fit.add_argument("--config", required=True, help="run config path (key = value lines)")
    fit.add_argument("--out-dir", default=".", help="directory for result JSON / residual CSVs")
    fit.set_defaults(handler=_cmd_fit)

    for name in ("price", "iv"):
        cmd = sub.add_parser(name, help=f"compute option {name}s on a (T, K) grid")
        _add_market_args(cmd)
        cmd.add_argument("--params", required=True, help="slice parameter JSON path")
        cmd.add_argument("--expiry", type=float, help="expiry in years (with strike flags)")
        cmd.add_argument("--strikes", help="comma-separated strikes")
        cmd.add_argument("--k-min", type=float, help="grid lower strike")
        cmd.add_argument("--k-max", type=float, help="grid upper strike")
        cmd.add_argument("--n-strikes", type=int, default=101, help="grid size")
        cmd.add_argument("--points", help="CSV of expiry,strike points")
        cmd.add_argument("--engine", default="brent", help="brent or expansion:N")
        cmd.add_argument("--out", help="output CSV path (default stdout)")
        cmd.set_defaults(handler=_cmd_grid)

    dens = sub.add_parser("density", help="risk-neutral density of a slice")
    _add_market_args(dens)
    dens.add_argument("--params", required=True)
    dens.add_argument("--expiry", type=float, required=True)
    dens.add_argument("--k-min", type=float)
    dens.add_argument("--k-max", type=float)
    dens.add_argument("--n-strikes", type=int, default=501)
    dens.add_argument("--out", help="output CSV path (default stdout)")
    dens.set_defaults(handler=_cmd_density)

    arb = sub.add_parser("check-arb", help="butterfly/calendar checks; exit 1 on violation")
    _add_market_args(arb)
    arb.add_argument("--params", required=True, help="single slice JSON or {'slices': [...]} file")
    arb.add_argument("--expiry", type=float, help="expiry for a single-slice params file")
    arb.add_argument("--grid-lo", type=float, default=0.3)
    arb.add_argument("--grid-hi", type=float, default=3.0)
    arb.add_argument("--grid-points", type=int, default=201)
    arb.set_defaults(handler=_cmd_check_arb)

    interp = sub.add_parser("interp", help="total-variance interpolated vol at (T, K)")
    _add_market_args(interp)
    interp.add_argument("--params", required=True, help="{'slices': [...]} file")
    interp.add_argument("--expiry", type=float, required=True)
    interp.add_argument("--strike", type=float, required=True)
    interp.set_defaults(handler=_cmd_interp)
    return parser


def _add_market_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--spot", type=float, required=True)
    cmd.add_argument("--rate", type=float, default=0.0)


def _load_params_file(path, spot):
    data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    if not isinstance(data, dict) or "slices" not in data:
        return params_from_json(data, spot=spot)
    entries = data["slices"]
    if not isinstance(entries, list):
        raise ValueError(f"malformed params file {path}: 'slices' is not an array")
    for n, entry in enumerate(entries, 1):
        fault = "is not an object" if not isinstance(entry, dict) else next(
            (f"has no {key!r}" for key in ("expiry", "params") if key not in entry), None)
        if fault:
            raise ValueError(f"malformed params file {path}: slices entry {n} {fault}")
    return [(_json_number(entry["expiry"], "expiry"), params_from_json(entry["params"], spot=spot))
            for entry in entries]


def _raise_first_bad_row(path, rows, first: int):
    """Raise the first malformed points row's error, in file order, naming the file and the row's line (rows[0]'s
    is ``first``)."""
    for line, row in enumerate(rows, first):
        try:
            expiry_s, strike_s = row.split(",")
            float(expiry_s), float(strike_s)
        except ValueError as exc:
            raise ValueError(f"points file {path} line {line}: {exc}") from None


def _resolve_points(args) -> list[tuple[float, np.ndarray]]:
    """The (expiry, strikes) groups asked for; a points file's come in expiry order, rows in file order within one."""
    if args.points:
        if given := [flag for flag in ("--expiry", "--strikes", "--k-min", "--k-max")
                     if getattr(args, flag[2:].replace("-", "_")) is not None]:
            raise ValueError(f"--points cannot be combined with {', '.join(given)}")
        text = Path(args.points).read_text(encoding="utf-8-sig")
        rows = text.strip().splitlines()
        first = len((text[:len(text) - len(text.lstrip())] + "x").splitlines())  # the first row's line
        if rows and rows[0].lower().replace(" ", "") == "expiry,strike":
            rows, first = rows[1:], first + 1
        if not rows:
            raise ValueError(f"points file {args.points} contains no data rows")
        try:
            if set(map(str.count, rows, repeat(","))) != {1}:
                raise ValueError
            fields = chain.from_iterable(map(str.split, rows, repeat(",")))  # one row's strings alive at a time
            expiries, strikes = np.fromiter(map(float, fields), float, 2 * len(rows)).reshape(-1, 2).T
        except ValueError:
            _raise_first_bad_row(args.points, rows, first)
        order = np.argsort(expiries, kind="stable")
        keys, starts = np.unique(expiries[order], return_index=True)
        return list(zip(keys.tolist(), np.split(strikes[order], starts[1:])))
    if args.expiry is None:
        raise ValueError("provide --points or --expiry with strike flags")
    if args.strikes:
        strikes = np.array([float(s) for s in args.strikes.split(",")])
    elif args.k_min is not None and args.k_max is not None:
        _check_grid_flags(args, "--k-min", "--k-max")
        strikes = np.linspace(args.k_min, args.k_max, args.n_strikes)
    else:
        raise ValueError("provide --strikes or --k-min/--k-max")
    return [(args.expiry, strikes)]


def _check_grid_flags(args, *flags: str) -> None:
    """Refuse a given grid-bound flag that is not positive and finite, and a grid size (--n-strikes or --grid-points)
    below 1, or, for the second differences of `density` and `check-arb`, below the strike grids' floor."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{flag} must be positive and finite, got {value}")
    floor = 1 if args.command in ("iv", "price") else _MIN_GRID
    for flag in ("--n-strikes", "--grid-points"):
        if (size := getattr(args, flag[2:].replace("-", "_"), floor)) < floor:
            raise ValueError(f"{flag} must be at least {floor}, got {size}")


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_fit(args) -> int:
    cfg = parse_config(args.config)
    quotes = load_quotes(args.quotes, cfg.market)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fits = fit_surface(quotes, cfg.fit)
    failed = evaluations = 0
    for expiry, result in zip(quotes.expiries(), fits):
        if isinstance(result, CalibrationError):
            print(f"error: T={expiry:.6f}: {result}", file=sys.stderr)
            failed += 1
            result = result.best
            if result is None:
                continue
        evaluations += result.evaluations
        tag = f"{expiry:.6f}".rstrip("0").rstrip(".").replace(".", "_")
        (out_dir / f"fit_T{tag}.json").write_text(json.dumps(result.to_json(), indent=2) + "\n", encoding="utf-8")
        (out_dir / f"residuals_T{tag}.csv").write_text(
            "expiry,strike,residual\n" + csv_rows("%.10g,%.10g,%.12g", result.residuals), encoding="utf-8"
        )
        print(f"T={expiry:.6f}: sse={result.sse:.6e} mse={result.mse:.6e}")
    print(f"fit: slices={len(fits)} failed={failed} model_calls={fits.model_calls} evaluations={evaluations}",
          file=sys.stderr)
    return 2 if failed else 0


def _single_slice(args):
    """The randomized slice of a single-slice params file."""
    params = _load_params_file(args.params, args.spot)
    if isinstance(params, list):
        raise ValueError(f"{args.command} expects a single-slice params file")
    return randomize(params, MarketContext(s0=args.spot, r=args.rate))


def _cmd_grid(args) -> int:
    """`price` or `iv` on the requested points: one stacked call over every expiry."""
    parse_engine(args.engine)  # a bad --engine is refused before any file is read
    rs = _single_slice(args)
    expiries, strikes = zip(*_resolve_points(args))
    values = stacked_grid([rs] * len(expiries), expiries, strikes, args.command == "price", args.engine)
    blocks = [f"expiry,strike,{args.command}\n"]
    for expiry, k, v in zip(expiries, strikes, values):
        blocks.append(csv_rows(f"{expiry:.10g},%.10g,%.12g", np.column_stack((k, v))))
    _emit("".join(blocks), args.out)
    return 0


def _cmd_density(args) -> int:
    _check_grid_flags(args, "--k-min", "--k-max")
    rs = _single_slice(args)
    fwd = rs.ctx.forward(args.expiry)
    k_lo = args.k_min if args.k_min is not None else 0.3 * fwd
    k_hi = args.k_max if args.k_max is not None else 3.0 * fwd
    grid = np.exp(np.linspace(math.log(k_lo), math.log(k_hi), args.n_strikes))
    curve = density(rs, args.expiry, grid)
    buffer = io.StringIO()
    curve.to_csv(buffer)
    _emit(buffer.getvalue(), args.out)
    print(f"mass={curve.mass:.6f} mean={curve.mean:.6f} forward={fwd:.6f}", file=sys.stderr)
    return 0


def _cmd_check_arb(args) -> int:
    _check_grid_flags(args, "--grid-lo", "--grid-hi")
    ctx = MarketContext(s0=args.spot, r=args.rate)
    loaded = _load_params_file(args.params, args.spot)
    if not isinstance(loaded, list):
        if args.expiry is None:
            raise ValueError("single-slice params need --expiry")
        loaded = [(args.expiry, loaded)]
    elif args.expiry is not None:
        raise ValueError("--expiry applies to a single-slice params file, not to a {'slices': [...]} file")
    surfaces = SliceSet(tuple((expiry, randomize(params, ctx)) for expiry, params in loaded))

    # every slice's butterfly probes in one stacked price call, the calendar's vols in one exact vol call
    probes = [butterfly_probes(t, default_strike_grid(ctx, t, args.grid_points, args.grid_lo, args.grid_hi), ctx,
                               check_intrinsic=rs.target != "spot") for t, rs in surfaces.slices]
    rows = [(rs, t, strikes) for (_, rs), asked in zip(surfaces.slices, probes) for t, strikes in asked]
    prices = iter(stacked_grid(*zip(*rows), prices=True))
    report = None
    for asked in probes:
        fragment = butterfly_report(asked, [next(prices) for _ in asked], ctx)
        report = fragment if report is None else report.merge(fragment)
    if len(surfaces.slices) >= 2:
        shared = default_strike_grid(ctx, surfaces.expiries[0], 51, 0.7, 1.4)
        vols = stacked_grid([rs for _, rs in surfaces.slices], surfaces.expiries, [shared] * len(surfaces.slices))
        report = report.merge(calendar_report(surfaces.expiries, shared, vols))
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.passed else 1


def _cmd_interp(args) -> int:
    ctx = MarketContext(s0=args.spot, r=args.rate)
    loaded = _load_params_file(args.params, args.spot)
    if not isinstance(loaded, list):
        raise ValueError("interp expects a {'slices': [...]} params file")
    slice_set = SliceSet(tuple((t, randomize(p, ctx)) for t, p in loaded))
    vol = interp_total_variance(slice_set, args.expiry, args.strike)
    print(f"{vol:.10g}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
