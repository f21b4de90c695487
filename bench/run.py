"""Benchmark of the finsleroid library: one workload per run.

    python3 bench/run.py --workload field --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  With ``--trace 0`` the run prints the end-to-end
metrics (set-up time, items per second, median item time, peak resident
memory); with ``--trace 1`` it prints the per-layer busy time of every
workload, the share of each workload's item time those layers account
for, and the tracing overhead on the named workload.  The last line of
standard output is one JSON object; the same figures, with the reference
tail and the environment, go to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
SHORT_PASS_S = 1.0  # traced pass over each workload other than the named one

# Set-up timing in a fresh interpreter: from before `import finsleroid`
# until the workload's GParameter and MetricContext objects exist.
SETUP_CHILD = """
import importlib, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import finsleroid
for name in sys.argv[2].split():
    importlib.import_module(name)
pars = [finsleroid.make_parameter(float(g)) for g in sys.argv[3].split()]
ctxs = [finsleroid.MetricContext(int(n)) for n in sys.argv[4].split()]
elapsed = time.perf_counter() - t0
if not finsleroid.__file__.startswith(sys.argv[1]):
    sys.exit("imported finsleroid from " + finsleroid.__file__)
print(repr(elapsed))
"""

UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_us": "us", "peak_rss_mb": "MB"}
SUFFIX_UNITS = (("_us", "us"), ("_pct", "%"), ("_s", "s"))


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    return next(unit for suffix, unit in SUFFIX_UNITS if name.endswith(suffix))


def measure_setup(wl, grid_g):
    """Set-up time of SETUP_REPEATS fresh interpreters, in seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), " ".join(wl.modules),
             " ".join(map(repr, grid_g)), " ".join(map(str, wl.dims))],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Tally:
    """Items attempted, items that raised, outputs that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = []

    def note(self, message):
        if len(self.errors) < 10:
            self.errors.append(message)

    def warm_up(self, wl, state):
        from workloads import CheckFailed

        try:
            wl.warm_up(state)
        except CheckFailed as exc:
            self.wrong += 1
            self.note(f"{wl.name} warm-up: {exc}")


def timed_phase(wl, state, tracer, seconds, tally, round_items=None):
    """Whole rounds of items until their summed wall time reaches `seconds`.

    Only the calls of an item are timed; its outputs are checked after
    the clock stops.  Returns the wall time of every item that succeeded.
    """
    from finsleroid import FinsleroidError

    from workloads import CheckFailed

    round_items = round_items or wl.round_items
    times = []
    spent = 0.0
    i = 0
    while spent < seconds:
        for _ in range(round_items):
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                out = wl.item(state, i, tracer)
            except FinsleroidError as exc:
                spent += time.perf_counter() - t0
                tally.failed += 1
                tally.note(f"{wl.name} item {i}: {type(exc).__name__}: {exc}")
                i += 1
                continue
            dt = time.perf_counter() - t0
            spent += dt
            times.append(dt)
            try:
                wl.check(state, i, out)
            except CheckFailed as exc:
                tally.wrong += 1
                tally.note(f"{wl.name} item {i}: {exc}")
            i += 1
    return times


def tail(times):
    """Highest percentile with at least ten samples beyond it (None below 40 samples)."""
    n = len(times)
    if n < 40:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value_us": sorted(times)[n - 11] * 1e6, "samples": n}


def environment():
    import numpy
    import scipy

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def run_untraced(wl, state, seconds, tally, setup):
    from workloads import Untraced

    times = timed_phase(wl, state, Untraced(), seconds, tally)
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": len(times) / sum(times),
        "item_p50_us": statistics.median(times) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"items": len(times), "tail": tail(times), "setup_samples_s": setup}


def run_traced(wl, state, seed, seconds, tally):
    """Half the time untraced, half traced, then a short traced pass of every other workload."""
    import workloads as W

    base = timed_phase(wl, state, W.Untraced(), seconds / 2, tally)
    metrics, detail = {}, {}
    for other in W.WORKLOADS.values():
        tracer = W.Tracer()
        if other is wl:
            times = timed_phase(wl, state, tracer, seconds / 2, tally)
        else:
            other_state = W.make_state(other, seed)
            tally.warm_up(other, other_state)
            times = timed_phase(other, other_state, tracer, SHORT_PASS_S, tally, round_items=1)
        layer_metrics, span_s, replay_s = other.layers(tracer, len(times))
        item_s = sum(times) - replay_s
        metrics.update(layer_metrics)
        metrics[f"{other.name}.layer_share_pct"] = 100.0 * span_s / item_s
        detail[other.name] = {"items": len(times), "item_s": item_s, "span_s": span_s}
        if other is wl:
            traced_mean = item_s / len(times)
            metrics["trace.overhead_pct"] = 100.0 * (traced_mean * len(base) / sum(base) - 1.0)
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("field", "pairs", "geodesic", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "finsleroid" / "__init__.py").is_file():
        sys.exit(f"error: no finsleroid sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads as W

    wl = W.WORKLOADS[args.workload]
    setup = None if args.trace else measure_setup(wl, W.GRID_G)
    state = W.make_state(wl, args.seed)
    tally = Tally()
    tally.warm_up(wl, state)
    if args.trace:
        metrics, detail = run_traced(wl, state, args.seed, args.seconds, tally)
    else:
        metrics, detail = run_untraced(wl, state, args.seconds, tally, setup)

    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "verify_trials": W.VERIFY_TRIALS, **result, "errors": tally.errors, "detail": detail,
        "environment": environment(),
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n")

    for name, value in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit_of(name)}")
    if not args.trace:
        ref = detail["tail"]
        if ref is None:
            print(f"tail: median only ({detail['items']} items, fewer than 40)")
        else:
            print(f"tail: p{ref['percentile']:.1f} = {ref['value_us']:.1f} us over {ref['samples']} items")
    for message in tally.errors:
        print(f"problem: {message}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
