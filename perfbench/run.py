"""Seeded end-to-end and per-module benchmark of randvol.

    python3 perfbench/run.py --workload calibrate|iv_batch|cli_exact --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Each run generates its inputs from the
seed in one fresh process, times ``import randvol`` plus the program-side
set-up in fresh processes, and measures the workload in one more fresh
process, so that set-up time and peak memory belong to that workload
alone.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
half its time untraced and half traced, reports the per-module metrics
with the tracing overhead, and keeps the recorded spans in
``.perfbench_work/spans-<workload>-<seed>.npz``.  Human-readable report
lines come first, then a ``# report`` line with every figure as JSON; the
last line of standard output is the JSON result.  ``--workload
all`` runs every workload untraced and traced, each in its own process.

This file imports nothing from randvol, so that it can refuse to run in a
directory without the program.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("calibrate", "iv_batch", "cli_exact")
#: Fresh processes whose set-up time is measured: SETUP_PROBES plus the measuring one.
SETUP_PROBES = 4
#: The whole run, all child processes included, must end within this many seconds.
RUN_DEADLINE_S = 170
#: CPU seconds of one sample of the reference work (workloads.reference_cpu_seconds)
#: at about its median speed on the machine the benchmark was defined on.
#: iteration_norm_s is the iteration CPU time at this reference speed.
REFERENCE_NOMINAL_S = 0.006

# Per-module metrics named at the boundary of each public function.
LAYER_STATS = (
    ("quadrature.quadrature_for", ("calls", "self_s", "us_per_call")),
    ("parametrizations.hagan_vol", ("calls", "points", "self_s")),
    ("expansion.parameter_coefficients", ("calls", "points", "self_s")),
    ("expansion.spot_coefficients", ("calls", "points", "self_s")),
    ("expansion.evaluate_polynomial", ("points", "self_s")),
    ("randomization.randomize", ("calls", "self_s")),
    ("randomization.implied_vol_grid", ("calls", "points", "self_s")),
    ("randomization.randomized_prices", ("calls", "points", "self_s")),
    ("randomization.randomized_iv", ("calls", "self_s")),
    ("randomization.density", ("self_s",)),
    ("pricing.implied_vol_brent", ("calls", "self_s", "us_per_call", "failures")),
    ("pricing.bs_call_values", ("calls", "self_s")),
    ("arbitrage.check_butterfly", ("self_s",)),
    ("arbitrage.check_calendar", ("points", "self_s")),
    ("calibration.fit_slice", ("calls", "self_s")),
    ("quotes.load_quotes", ("self_s",)),
    ("cli.main", ("self_s",)),
)
STAT_UNITS = {"calls": "count", "points": "count", "failures": "count", "self_s": "s", "us_per_call": "us"}


def _median_and_tail(samples: list[float]) -> dict:
    """Median plus the highest percentile that has at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "tail": None, "tail_pct": None}
    if n >= 11:
        out["tail"] = ordered[n - 11]
        out["tail_pct"] = math.floor(100.0 * (n - 10) / n)
    return out


def _timing_line(name: str, unit: str, samples: list[float]) -> str:
    stats = _median_and_tail(samples)
    tail = (f"p{stats['tail_pct']}={stats['tail']:.6g}" if stats["tail"] is not None
            else "tail=n/a (fewer than 11 samples)")
    return f"{name} = {stats['median']:.6g} {unit} (median; {tail}; n={stats['n']})"


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("RANDVOL_THREADS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(root: Path, work: Path, phase: str, args, deadline: float) -> dict:
    timeout = max(deadline - time.monotonic(), 1.0)
    cmd = [sys.executable, str(HERE / "worker.py"), phase, args.workload, str(work),
           str(args.seed), str(args.seconds), str(args.trace)]
    log = work / f"{phase}.log"
    with log.open("ab") as handle:
        proc = subprocess.Popen(cmd, cwd=root, env=_child_env(root), stdout=handle, stderr=handle)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{phase} worker exceeded {timeout:.0f} s")
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"{phase} worker exited {code}:\n{tail}")
    return json.loads((work / f"{phase}-{proc.pid}.json").read_text(encoding="utf-8"))


def _layer_metrics(res: dict) -> dict:
    traced = res["traced_iterations"]
    n = len(traced)
    counts = res["trace_counts"]
    times = res["trace_times"]

    def total(key):
        return counts.get(key, 0)

    out = {}
    for name, stats in LAYER_STATS:
        calls = total(name + ".calls")
        self_s = times.get(name, (0.0, 0.0))[1]
        values = {
            "calls": calls / n,
            "points": total(name + ".points") / n,
            "failures": total(name + ".raised") / n,
            "self_s": self_s / n,
            "us_per_call": self_s * 1e6 / calls if calls else 0.0,
        }
        for stat in stats:
            out[f"{name}.{stat}"] = values[stat]
    asked = total("grid.expansion_asked")
    escalated = total("grid.escalated")
    out["randomization.implied_vol_grid.escalated_points"] = escalated / n
    out["randomization.expansion_answered_ratio"] = (asked - escalated) / asked if asked else 0.0
    evals = total("calibration.model_vols.calls")
    out["calibration.objective_evals"] = evals / n
    out["calibration.objective_us"] = times.get("calibration.model_vols", (0.0, 0.0))[0] * 1e6 / evals if evals else 0.0
    inf = total("calibration.model_vols.raised") + total("calibration.model_vols.nonfinite")
    out["calibration.objective_inf_ratio"] = inf / evals if evals else 0.0
    out["calibration.starts"] = total("calibration.minimize.calls") / n
    untraced = statistics.median(res["untraced_iterations"])
    out["tracing.overhead_ratio"] = statistics.median(traced) / untraced - 1.0
    return out


def _layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat in STAT_UNITS:
        return STAT_UNITS[stat]
    if name.endswith("_ratio"):
        return "share"
    if name.endswith("_us"):
        return "us"
    return "count"


def _workload_report(workload: str, res: dict) -> tuple[dict, list[str]]:
    """The per-workload wall-time and quality figures of one workload, as a dict and as lines."""
    jobs, extra = res["jobs"], res["extra"]
    report = {"error_rate": res["failed"] / res["attempted"]}
    lines = []
    if workload == "calibrate":
        lines.append(_timing_line("fit_s", "s", jobs["fit"]))
        report["fit_s"] = _median_and_tail(jobs["fit"])["median"]
        if extra.get("fit_rmse_bp"):
            report["fit_rmse_bp"] = statistics.median(extra["fit_rmse_bp"])
            lines.append(f"fit_rmse_bp = {report['fit_rmse_bp']:.6g} vol bp")
    elif workload == "iv_batch":
        rates = [p / s for p, s in zip(extra["points"], res["iterations"])]
        report["iv_points_per_s"] = statistics.median(rates)
        report["iv_accurate_ratio"] = res["accurate"] / res["checked"] if res["checked"] else 0.0
        lines.append(f"iv_points_per_s = {report['iv_points_per_s']:.6g} points/s "
                     f"(median over {len(rates)} passes of {extra['points'][0]} points)")
        lines.append(f"iv_accurate_ratio = {report['iv_accurate_ratio']:.6g} share "
                     f"({res['accurate']} of {res['checked']} oracle points within 10 bp)")
    else:
        for kind, name in (("iv_brent", "iv_brent_s"), ("iv_wide", "iv_wide_s"),
                           ("check_arb", "check_arb_s"), ("density", "density_s")):
            if jobs.get(kind):
                report[name] = _median_and_tail(jobs[kind])["median"]
                lines.append(_timing_line(name, "s", jobs[kind]))
            else:
                lines.append(f"{name}: no successful job")
        for key in ("brent_reprice_worst_vol_rel", "brent_reprice_worst_price_rel"):
            if extra.get(key):
                report[key] = max(extra[key])
                lines.append(f"{key} = {report[key]:.3g} relative")
    lines.append(f"error_rate = {report['error_rate']:.6g} failed/attempted "
                 f"({res['failed']} of {res['attempted']} ops)")
    return report, lines


def run_workload(root: Path, args) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        _worker(root, work, "generate", args, deadline)
        setups = [_worker(root, work, "setup", args, deadline) for _ in range(SETUP_PROBES)]
        res = _worker(root, work, "measure", args, deadline)
        if args.trace:
            spans = work.parent / f"spans-{args.workload}-{args.seed}.npz"
            os.replace(work / "spans.npz", spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            work.parent.rmdir()

    setups.append(res)
    e2e = {
        "setup_s": statistics.median(s["setup_cpu_s"] for s in setups),
        "iteration_norm_s": statistics.median(
            cpu * (REFERENCE_NOMINAL_S / ref) ** res["reference_exponent"]
            for cpu, ref in zip(res["iterations_cpu"], res["reference_cpu"])),
        "peak_rss_mib": res["peak_rss_mib"],
        "success_ratio": 1.0 - res["failed"] / res["attempted"],
        "accuracy_ratio": res["accurate"] / res["checked"] if res["checked"] else 0.0,
    }
    named, lines = _workload_report(args.workload, res)
    named["iteration_cpu_s"] = statistics.median(res["iterations_cpu"])
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"iterations={len(res['iterations'])}")
    pairs = ", ".join(f"({x['setup_wall_s']:.4f}, {x['setup_cpu_s']:.4f})" for x in setups)
    print(f"# set-up samples (wall, CPU): {pairs} s")
    print(f"# machine: nproc={os.cpu_count()} cpu={_cpu_model()} python={sys.version.split()[0]} "
          f"{res.get('versions', '')}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(_timing_line("iteration_s", "s", res["iterations"]) + " wall")
    print(_timing_line("iteration_cpu_s", "s", res["iterations_cpu"]) + " CPU")
    print(_timing_line("reference_cpu_s", "s", res["reference_cpu"]) + " CPU of one reference sample, per iteration")
    print(f"setup_wall_s = {statistics.median(s['setup_wall_s'] for s in setups):.6g} s (median of {len(setups)})")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for line in lines:
        print(line)

    report = {"end_to_end": e2e, "named": named, "correct": res["incorrect"] == 0}
    if args.trace:
        layers = _layer_metrics(res)
        report["per_layer"] = layers
        listed = {m["name"] for m in spec["per_layer"]}
        for name, value in layers.items():
            mark = "" if name in listed else "   (report only: some workload never calls this function)"
            print(f"{name} = {value:.6g} {_layer_unit(name)}{mark}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        print(f"# spans: {spans.relative_to(root)}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print("# report " + json.dumps(report))
    print(json.dumps({
        "correct": res["incorrect"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip().replace(" ", "_")
    except OSError:
        pass
    return "unknown"


def run_all(args) -> int:
    """Every workload untraced then traced, each run in its own fresh processes."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"## {' '.join(cmd[1:])}", flush=True)
            status |= subprocess.run(cmd).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "randvol" / "__init__.py").is_file():
        print("error: run from the root of a randvol checkout (src/randvol is missing)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(root, args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
