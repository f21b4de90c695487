"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs a few traced items of every workload on a second seed, checks that
the per-layer metrics they yield are the ones BENCHMARK.json lists, and
shows that each correctness check rejects a perturbed output: K scaled
by 1 + 1e-6, a transposed two-vector tensor G, a CSV cell with one digit
changed and a verify report that no longer repeats byte for byte.
Exits with 1 if anything is off.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

SEED = 2
ITEMS = {"field": 4, "pairs": 2, "geodesic": 2, "verify": 1}


def change_digit(text):
    """Change the last digit of the first t1 cell of the middle CSV row."""
    lines = text.splitlines()
    first_row = next(i for i, line in enumerate(lines) if line.startswith("s,")) + 1
    row = first_row + (len(lines) - first_row) // 2
    cells = lines[row].split(",")
    cell = cells[1]
    pos = max(i for i, ch in enumerate(cell) if ch.isdigit())
    cells[1] = cell[:pos] + str((int(cell[pos]) + 1) % 10) + cell[pos + 1:]
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


# The last grid point has g = 1.5; at g = 0 the tensor G is symmetric.

def perturb_field(out):
    out[-1]["core.kfun"] *= 1.0 + 1e-6
    return out


def perturb_pairs(out):
    out[-1]["finslerops.finsler_two_vector_tensor"] = out[-1]["finslerops.finsler_two_vector_tensor"].T
    return out


def perturb_geodesic(out):
    text_json, text_csv = out[-1]
    out[-1] = (text_json, change_digit(text_csv))
    return out


def perturb_verify(out):
    # the warm-up report is of the first configuration, N = 3
    n, report, text = out[0]
    out[0] = (n, report, re.sub(r'"seed": (\d+)', lambda m: f'"seed": {int(m[1]) + 1}', text, count=1))
    return out


PERTURB = {"field": perturb_field, "pairs": perturb_pairs, "geodesic": perturb_geodesic, "verify": perturb_verify}


def main():
    problems = []
    listed = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    produced = {"trace.overhead_pct"}
    for wl in W.WORKLOADS.values():
        state = W.make_state(wl, SEED)
        wl.warm_up(state)
        tracer = W.Tracer()
        for i in range(ITEMS[wl.name]):
            wl.check(state, i, wl.item(state, i, tracer))
        metrics, _, _ = wl.layers(tracer, ITEMS[wl.name])
        produced |= set(metrics) | {f"{wl.name}.layer_share_pct"}
        print(f"{wl.name}: {ITEMS[wl.name]} traced items checked")

        out = wl.item(state, 0, W.Untraced())
        wl.check(state, 0, copy.deepcopy(out))
        try:
            wl.check(state, 0, PERTURB[wl.name](out))
        except W.CheckFailed as exc:
            print(f"{wl.name}: perturbed output rejected ({exc})")
        else:
            problems.append(f"{wl.name}: perturbed output passed the checks")
    if produced != listed:
        problems.append(f"per-layer metrics differ from BENCHMARK.json: {sorted(produced ^ listed)}")
    for problem in problems:
        print("FAIL:", problem)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
