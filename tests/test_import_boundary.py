"""No user command loads scipy.optimize: only the scalar Brent oracle does, and it imports it when it runs.

Each check runs in a fresh interpreter and compares its modules against a baseline that has
already imported numpy, scipy.special and scipy.linalg, so what scipy itself loads on those
imports (which differs between scipy versions) is not counted against randvol.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import randvol

SRC = str(Path(randvol.__file__).resolve().parent.parent)

SCRIPT = """
import json
import sys
import numpy, scipy.special, scipy.linalg

baseline = set(sys.modules)


def optimize_modules():
    return sorted(name for name in set(sys.modules) - baseline if name.split(".")[:2] == ["scipy", "optimize"])


from randvol.cli import main

report = {"import": optimize_modules(), "preloaded": "scipy.optimize" in baseline}
params, quotes, config, out_dir = sys.argv[1:]
market = ["--spot", "100", "--rate", "0.02", "--params", params]
for command in (["iv", *market, "--expiry", "0.5", "--strikes", "90,100,110", "--engine", "brent"],
                ["price", *market, "--expiry", "0.5", "--strikes", "90,100,110"],
                ["density", *market, "--expiry", "0.5"],
                ["check-arb", *market, "--expiry", "0.5"],
                ["fit", "--quotes", quotes, "--config", config, "--out-dir", out_dir]):
    report[command[0]] = [main(command), optimize_modules()]
# the one path that needs Brent's method: the detector sees scipy.optimize once it is loaded,
# and bench loads it before its first clock reading, so the Brent row does not time the import
import time

clock, loaded_at_clock = time.perf_counter, []
time.perf_counter = lambda: loaded_at_clock.append("scipy.optimize" in sys.modules) or clock()
report["bench"] = [main(["bench", "--counts", "10", "--orders", "2"]), optimize_modules(), loaded_at_clock[0]]
print(json.dumps(report))
"""

SABR_GAMMA = {"type": "sabr", "alpha": 0.3, "beta": 0.9, "rho": -0.3, "gamma": 0.4,
              "randomizer": {"target": "gamma", "dist": {"family": "gamma", "k": 3.0, "theta": 0.13}, "n_q": 2}}
QUOTES = "expiry_date,strike,type,iv,open_interest\n" + "".join(
    f"2024-10-31,{strike},C,{iv},100\n" for strike, iv in
    ((80, 0.222), (90, 0.208), (95, 0.20325), (100, 0.2), (105, 0.19825), (110, 0.198), (120, 0.202)))
CONFIG = "spot = 100\nrate = 0.02\ntrade_date = 2024-07-31\nmodel = sabr\nbeta = 0.9\nmultistart = 2\n"


def test_no_user_command_imports_scipy_optimize(tmp_path):
    params, quotes, config = tmp_path / "params.json", tmp_path / "quotes.csv", tmp_path / "run.cfg"
    params.write_text(json.dumps(SABR_GAMMA), encoding="utf-8")
    quotes.write_text(QUOTES, encoding="utf-8")
    config.write_text(CONFIG, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(params), str(quotes), str(config), str(tmp_path / "fit")],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report.pop("import") == []
    preloaded = report.pop("preloaded")  # by scipy's own imports: bench loading it is then invisible
    bench_code, bench_modules, loaded_before_timing = report.pop("bench")
    assert report == {command: [0, []] for command in ("iv", "price", "density", "check-arb", "fit")}
    assert list(tmp_path.glob("fit/fit_T*.json"))
    assert bench_code == 0 and ("scipy.optimize" in bench_modules or preloaded) and loaded_before_timing
