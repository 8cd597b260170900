"""One fresh process of a benchmark run: generate inputs, set up, or measure.

    python3 perfbench/worker.py generate|setup|measure WORKLOAD WORKDIR SEED SECONDS TRACE

Run from the root of a checkout; ``run.py`` starts it with ``src`` on
``PYTHONPATH``.  ``setup`` and ``measure`` time the fresh-process
``import randvol`` plus the program-side set-up, in wall and CPU
seconds; ``setup_s`` is the CPU figure.  Results go to ``WORKDIR/<phase>-<pid>.json``.
"""
import time

_PROCESS_START = time.perf_counter()
_PROCESS_START_CPU = time.process_time()

import json  # noqa: E402  (imports are part of the timed set-up)
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

#: After each iteration, reference work of at least this share of its CPU time.
REFERENCE_SHARE = 0.05


def _import_randvol(src: Path):
    import randvol

    origin = Path(randvol.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"randvol was imported from {origin}, not from {src}")
    return randvol


def _reference_block(cpu_seconds: float) -> float:
    """Mean CPU seconds of reference samples worth REFERENCE_SHARE of ``cpu_seconds`` (one at least).

    The mean, not the median: the host switches between speeds within
    seconds, and CPU time adds up over the time spent at each.
    """
    samples = [workloads.reference_cpu_seconds()]
    while sum(samples) < REFERENCE_SHARE * cpu_seconds:
        samples.append(workloads.reference_cpu_seconds())
    return statistics.mean(samples)


def _phase_loop(workload, state, seconds, tracer, first_op, result):
    """Closed loop: iterate until the timed seconds are spent (at least one iteration).

    Reference work runs before the first iteration and after each one,
    outside the timed region.  Each iteration is paired with the mean of
    the reference blocks on either side of it, which saw the same host speed.
    """
    spent = 0.0
    op_id = first_op
    samples = []
    before = _reference_block(0.0)
    while spent < seconds or not samples:
        it = workload.iteration(state, tracer, op_id)
        op_id += 1
        samples.append(it.seconds)
        result["iterations_cpu"].append(it.cpu_seconds)
        after = _reference_block(it.cpu_seconds)
        result["reference_cpu"].append(0.5 * (before + after))
        before = after
        spent += it.seconds
        result["attempted"] += it.attempted
        result["failed"] += it.failed
        result["incorrect"] += it.incorrect
        result["checked"] += it.checked
        result["accurate"] += it.accurate
        for kind, values in it.jobs.items():
            result["jobs"].setdefault(kind, []).extend(values)
        for key, value in it.extra.items():
            result["extra"].setdefault(key, []).append(value)
    return samples, op_id


def measure(workload, state, seconds: float, trace: bool) -> dict:
    result = {"attempted": 0, "failed": 0, "incorrect": 0, "checked": 0, "accurate": 0,
              "jobs": {}, "extra": {}, "iterations_cpu": [], "reference_cpu": []}
    if not trace:
        result["iterations"], _ = _phase_loop(workload, state, seconds, None, 0, result)
        return result
    # Traced run: an untraced half first, then the same iterations traced,
    # so that the difference is the tracing overhead.
    untraced, next_op = _phase_loop(workload, state, seconds / 2, None, 0, result)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = _phase_loop(workload, state, seconds / 2, tracer, next_op, result)
    finally:
        tracer.uninstall()
    result["iterations"] = untraced + traced
    result["untraced_iterations"] = untraced
    result["traced_iterations"] = traced
    result["trace_counts"] = dict(tracer.counts)
    result["trace_times"] = tracer.times_by_name()
    tracer.write(state["work"] / "spans.npz")
    return result


def main(argv) -> int:
    phase, name, workdir, seed, seconds, trace = argv
    work = Path(workdir)
    workload = workloads.WORKLOADS[name]
    _import_randvol(Path.cwd() / "src")
    if phase == "generate":
        workload.generate(work, int(seed))
        out = {"ok": True}
    else:
        state = workload.setup(work)
        out = {"setup_wall_s": time.perf_counter() - _PROCESS_START,
               "setup_cpu_s": time.process_time() - _PROCESS_START_CPU}
        if phase == "measure":
            workload.load_oracle(work, state)
            out.update(measure(workload, state, float(seconds), trace == "1"))
            out["reference_exponent"] = workload.REFERENCE_EXPONENT
            out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            import numpy
            import scipy

            out["versions"] = f"numpy={numpy.__version__} scipy={scipy.__version__}"
    (work / f"{phase}-{os.getpid()}.json").write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
