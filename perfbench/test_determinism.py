"""For one seed, the benchmark's counts and accuracy figures repeat exactly.

Runs every workload twice, traced, for the shortest run (one untraced and
one traced iteration), from the root of the checkout:

    python3 -m pytest -q perfbench/test_determinism.py
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
REPEATED = {
    "per_layer": (
        "calibration.objective_evals",
        "pricing.implied_vol_brent.calls",
        "randomization.implied_vol_grid.escalated_points",
    ),
    "end_to_end": ("accuracy_ratio",),
    "named": ("fit_rmse_bp", "iv_accurate_ratio"),
}


def _traced_report(workload: str) -> dict:
    """The ``# report`` line of one short traced run, which holds every figure."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=170,
    )
    prefix = "# report "
    line = next(x for x in proc.stdout.splitlines() if x.startswith(prefix))
    return json.loads(line[len(prefix):])


@pytest.mark.parametrize("workload", ["calibrate", "iv_batch", "cli_exact"])
def test_counts_repeat_for_a_seed(workload):
    first = _traced_report(workload)
    second = _traced_report(workload)
    for section, names in REPEATED.items():
        for name in names:
            if name in first[section]:
                assert first[section][name] == second[section][name], (section, name)
    assert first["per_layer"]["randomization.implied_vol_grid.calls"] > 0
    if workload == "calibrate":
        assert first["per_layer"]["calibration.objective_evals"] > 0
        assert "fit_rmse_bp" in first["named"]
    if workload == "iv_batch":
        assert "iv_accurate_ratio" in first["named"]
