"""No user command loads scipy.optimize: only the scalar Brent oracle does, and it imports it when it runs.
Nor does importing the CLI, or any command, load scipy.linalg: numpy's LAPACK serves the runtime.

Each check runs in a fresh interpreter and compares its modules against a baseline that has
already imported numpy and scipy.special, so what scipy itself loads on those imports (which
differs between scipy versions: scipy 1.13's scipy.special loads scipy.linalg) is not counted
against randvol.
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
import numpy, scipy.special

baseline = set(sys.modules)


def new_modules(package):
    return sorted(name for name in set(sys.modules) - baseline if name.split(".")[:2] == ["scipy", package])


from randvol.cli import main

report = {"import": [new_modules("optimize"), new_modules("linalg")]}
params, slices, quotes, config, out_dir = sys.argv[1:]
market = ["--spot", "100", "--rate", "0.02", "--params", params]
for command in (["iv", *market, "--expiry", "0.5", "--strikes", "90,100,110", "--engine", "brent"],
                ["price", *market, "--expiry", "0.5", "--strikes", "90,100,110"],
                ["density", *market, "--expiry", "0.5"],
                ["check-arb", *market, "--expiry", "0.5"],
                ["interp", "--spot", "100", "--params", slices, "--expiry", "0.7", "--strike", "105"],
                ["fit", "--quotes", quotes, "--config", config, "--out-dir", out_dir]):
    report[command[0]] = [main(command), new_modules("optimize"), new_modules("linalg")]
print(json.dumps(report))
"""

SABR_GAMMA = {"type": "sabr", "alpha": 0.3, "beta": 0.9, "rho": -0.3, "gamma": 0.4,
              "randomizer": {"target": "gamma", "dist": {"family": "gamma", "k": 3.0, "theta": 0.13}, "n_q": 2}}
QUOTES = "expiry_date,strike,type,iv,open_interest\n" + "".join(
    f"2024-10-31,{strike},C,{iv},100\n" for strike, iv in
    ((80, 0.222), (90, 0.208), (95, 0.20325), (100, 0.2), (105, 0.19825), (110, 0.198), (120, 0.202)))
SLICES = {"slices": [{"expiry": 0.5, "params": SABR_GAMMA}, {"expiry": 1.0, "params": SABR_GAMMA}]}
CONFIG = "spot = 100\nrate = 0.02\ntrade_date = 2024-07-31\nmodel = sabr\nbeta = 0.9\nmultistart = 2\n"


def test_no_user_command_imports_scipy_optimize(tmp_path):
    params, slices, quotes, config = (tmp_path / name
                                      for name in ("params.json", "slices.json", "quotes.csv", "run.cfg"))
    params.write_text(json.dumps(SABR_GAMMA), encoding="utf-8")
    slices.write_text(json.dumps(SLICES), encoding="utf-8")
    quotes.write_text(QUOTES, encoding="utf-8")
    config.write_text(CONFIG, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SCRIPT, *map(str, (params, slices, quotes, config, tmp_path / "fit"))],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report.pop("import") == [[], []]
    assert report == {command: [0, [], []] for command in ("iv", "price", "density", "check-arb", "interp", "fit")}
    assert list(tmp_path.glob("fit/fit_T*.json"))
