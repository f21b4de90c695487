"""Workloads of the finsleroid benchmark.

Each workload draws its inputs from the seed with the benchmark's own
sampler (`verify` has none: it runs fixed configurations), runs one *item*
of calls into the public functions of the library, and checks every output against formulas coded here or against
properties the method must have.  An item always has the same make-up:
the same calls on every point of the grid, so its cost does not depend on
which item of a run it is.

Sampling follows the domain conventions of the library: components
uniform in [-1, 1]^N with euclidean norm >= 0.1; q and |Z| >= 0.15 S
where a chart closed form is called; pairs with u >= 0.05 |t1||t2|,
image angle <= 0.95 pi, co-pair regime margin |sin(h a - 2 phi1)| >= 0.05
and, where the parallelogram law is called, cos(a) > 0.05.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

import finsleroid as F

GRID_G = (0.0, 1.0, 1.5)
GRID_N = (3, 5)
GEODESIC_N = 3
GEODESIC_SAMPLES = 1024
VERIFY_TRIALS = 50  # the CLI default is 200
# The CLI's default seed, whatever --seed is: at some other seeds the report
# fails a finite-difference gate (seed 105, g = 1.5, N = 3:
# core.generating_derivatives), so the outcome would depend on --seed.
VERIFY_SEED = 0
VERIFY_CHECKS = 58
POOL = 64  # distinct items per run; item i uses input i % POOL


class CheckFailed(Exception):
    """An output of the library disagrees with the benchmark's check."""


# ------------------------------------------------------------------ tracing

class Untraced:
    """Calls straight through; the timed runs use this."""

    traced = False

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Busy time and call count per span name, kept in memory."""

    traced = True

    def __init__(self):
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)

    def call(self, name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.busy[name] += time.perf_counter() - t0
        self.calls[name] += 1
        return out

    def per_call(self, name):
        return self.busy[name] / self.calls[name]


# ----------------------------------------------------------------- sampling

def _q(v):
    return math.sqrt(float(v[:-1] @ v[:-1]))


def _in_chart(v):
    """q and |Z| at least 0.15 of the euclidean norm."""
    s = math.sqrt(float(v @ v))
    return _q(v) >= 0.15 * s and abs(v[-1]) >= 0.15 * s


def _draw(rng, n, chart=False):
    while True:
        v = rng.uniform(-1.0, 1.0, n)
        if math.sqrt(float(v @ v)) >= 0.1 and (_in_chart(v) or not chart):
            return v


def _gram(t1, t2):
    """(|t1|, |t2|, euclidean angle, u/(|t1||t2|)) of an image pair."""
    d11, d22, d12 = float(t1 @ t1), float(t2 @ t2), float(t1 @ t2)
    u = math.sqrt(max(d11 * d22 - d12 * d12, 0.0))
    return math.sqrt(d11), math.sqrt(d22), math.atan2(u, d12), u / math.sqrt(d11 * d22)


def _draw_pair(rng, n, h, acute=False):
    while True:
        t1 = _draw(rng, n)
        t2 = _draw(rng, n)
        _, _, theta, sin_e = _gram(t1, t2)
        alpha = theta / h
        if sin_e < 0.05 or alpha > 0.95 * math.pi:
            continue
        if acute:
            phi1 = math.atan2(math.sin(alpha) / h, math.cos(alpha))
            if math.cos(alpha) <= 0.05 or abs(math.sin(h * alpha - 2.0 * phi1)) < 0.05:
                continue
        return t1, t2


# ------------------------------------------------------- reference formulas
# Coded here from the paper's definitions, for identity r_ab.

def ref_k(g, R):
    """K = sqrt(B) exp(G Phi / 2) with Phi = pi/2 - atan2(h q, Z + g q/2)."""
    h = math.sqrt(1.0 - 0.25 * g * g)
    q, z = _q(R), float(R[-1])
    b = z * z + g * q * z + q * q
    phi = 0.5 * math.pi - math.atan2(h * q, z + 0.5 * g * q)
    return math.sqrt(b) * math.exp(0.5 * (g / h) * phi)


def ref_axis_angles(g, R):
    """(1/h) arccos(A/sqrt(B)) and (1/h) arccos(L/sqrt(B))."""
    h = math.sqrt(1.0 - 0.25 * g * g)
    q, z = _q(R), float(R[-1])
    root_b = math.sqrt(z * z + g * q * z + q * q)
    return math.acos((z + 0.5 * g * q) / root_b) / h, math.acos((q + 0.5 * g * z) / root_b) / h


def ref_parallelogram(h, t1, t2, t3):
    """Side-length residuals of the tetragon from the law of cosines."""
    s1, s3, th13, _ = _gram(t1, t3)
    s2, _, th23, _ = _gram(t2, t3)
    r1 = s3 - (s2 * s2 - s1 * s1) / s3 - 2.0 * s1 * math.cos(th13 / h)
    r2 = s3 - (s1 * s1 - s2 * s2) / s3 - 2.0 * s2 * math.cos(th23 / h)
    return r1, r2


def _rel(x, ref, tol, what):
    err = abs(x - ref) / abs(ref)
    if not err <= tol:
        raise CheckFailed(f"{what}: relative error {err:.3e} > {tol:.0e}")


def _abs(x, tol, what):
    err = float(np.max(np.abs(x)))
    if not err <= tol:
        raise CheckFailed(f"{what}: residual {err:.3e} > {tol:.0e}")


# --------------------------------------------------------------- workloads

@dataclass
class State:
    """Everything one workload needs for a run: parameters and inputs."""

    pars: dict
    ctxs: dict
    inputs: list
    reference: dict


@dataclass(frozen=True)
class Workload:
    name: str
    modules: tuple  # imported by the set-up timing, after finsleroid
    dims: tuple
    round_items: int  # items per whole round
    make_inputs: Callable  # (state, rng) -> list of item inputs
    item: Callable  # (state, i, tracer) -> output
    check: Callable  # (state, i, output) -> None or raise CheckFailed
    # (tracer, items) -> (metrics, seconds in layer spans, seconds in replayed calls)
    layers: Callable
    warm_up: Callable  # (state) -> None, run untimed before the first timed item


def make_state(wl: Workload, seed: int) -> State:
    state = State(
        pars={g: F.make_parameter(g) for g in GRID_G},
        ctxs={n: F.MetricContext(n) for n in wl.dims},
        inputs=[],
        reference={},
    )
    rng = np.random.default_rng(np.random.SeedSequence([seed, list(WORKLOADS).index(wl.name)]))
    state.inputs = wl.make_inputs(state, rng)
    return state


def _warm(item, check, count):
    def warm_up(state):
        for i in range(count):
            check(state, i, item(state, i, Untraced()))

    return warm_up


def _grid(state):
    return [(state.pars[g], state.ctxs[n]) for g in GRID_G for n in GRID_N]


def _us_metrics(tr, names):
    return {f"{name}_us": tr.per_call(name) * 1e6 for name in names}


def _span_layers(names):
    """Per-call busy time of each span; the spans make up the whole item."""

    def layers(tr, items):
        return _us_metrics(tr, names), sum(tr.busy[name] for name in names), 0.0

    return layers


# field: one vector per grid point through the one-vector stack

FIELD_ON_R = {
    "core.kfun": F.kfun,
    "core.scalar_bundle": F.scalar_bundle,
    "tensors.gradient_covector": F.gradient_covector,
    "tensors.metric_tensor": F.metric_tensor,
    "tensors.inverse_metric": F.inverse_metric,
    "tensors.cartan_tensor": F.cartan_tensor,
    "tensors.tensor_stack": F.tensor_stack,
    "quasimap.sigma_map": F.sigma_map,
    "quasimap.sigma_jacobian": F.sigma_jacobian,
    "finslerops.axis_angles": F.axis_angles,
}
FIELD_ON_SIGMA = {"quasimap.mu_map": F.mu_map, "quasimap.quasi_metric": F.quasi_metric}


def field_inputs(state, rng):
    return [
        [(par, ctx, _draw(rng, ctx.n, chart=True)) for par, ctx in _grid(state)]
        for _ in range(POOL)
    ]


def field_item(state, i, tr):
    out = []
    for par, ctx, R in state.inputs[i % POOL]:
        o = {name: tr.call(name, fn, par, ctx, R) for name, fn in FIELD_ON_R.items()}
        t = o["quasimap.sigma_map"]
        o.update({name: tr.call(name, fn, par, ctx, t) for name, fn in FIELD_ON_SIGMA.items()})
        out.append(o)
    return out


def field_check(state, i, out):
    for (par, ctx, R), o in zip(state.inputs[i % POOL], out):
        eye = np.eye(ctx.n)
        k = ref_k(par.g, R)
        _rel(o["core.kfun"], k, 1e-12, "kfun against sqrt(B) exp(G Phi/2)")
        _rel(o["core.scalar_bundle"].K, k, 1e-12, "scalar_bundle K")
        _rel(float(R @ o["tensors.gradient_covector"]), k * k, 1e-10, "R_p R^p = K^2")
        gm = o["tensors.metric_tensor"]
        _rel(float(R @ gm @ R), k * k, 1e-10, "g_pq R^p R^q = K^2")
        _abs(gm @ o["tensors.inverse_metric"] - eye, 1e-10, "g g^-1 = I")
        _abs(o["tensors.cartan_tensor"].c_lower @ R, 1e-10, "C_pqr R^r = 0")
        st = o["tensors.tensor_stack"]
        _abs(st.g_lower - gm, 1e-12, "tensor_stack g = metric_tensor")
        _abs(st.h_lower @ R, 1e-10, "h_pq R^q = 0")
        _abs(st.c_lower @ R, 1e-10, "stack C_pqr R^r = 0")
        t = o["quasimap.sigma_map"]
        _rel(math.sqrt(float(t @ t)), k, 1e-12, "|sigma(R)| = K(R)")
        _abs(o["quasimap.mu_map"] - R, 1e-10, "mu(sigma(R)) = R")
        _abs(o["quasimap.sigma_jacobian"] @ R - t, 1e-10, "sigma'(R) R = sigma(R)")
        qm = o["quasimap.quasi_metric"]
        _rel(float(t @ qm.n_lower @ t), float(t @ t), 1e-10, "n_rs t^r t^s = S^2")
        _abs(qm.n_lower @ qm.n_upper - eye, 1e-10, "n n^-1 = I")
        _abs(np.subtract(o["finslerops.axis_angles"], ref_axis_angles(par.g, R)), 1e-10, "axis angles")


# pairs: one image-space pair per grid point, pulled back with mu_map

PAIR_ON_RS = {
    "finslerops.finsler_angle": F.finsler_angle,
    "finslerops.finsler_product": F.finsler_product,
    "finslerops.product_gradients": F.product_gradients,
    "finslerops.finsler_two_vector_tensor": F.finsler_two_vector_tensor,
}
PAIR_ON_T = {
    "geodesics.scalar_product": F.scalar_product,
    "twovector.two_vector_metric": F.two_vector_metric,
    "twovector.covector_pair": F.covector_pair,
    "twovector.parallelogram_refine": F.parallelogram_refine,
}


def pairs_inputs(state, rng):
    pool = []
    for _ in range(POOL):
        item = []
        for par, ctx in _grid(state):
            while True:
                t1, t2 = _draw_pair(rng, ctx.n, par.h, acute=True)
                R, S = F.mu_map(par, ctx, t1), F.mu_map(par, ctx, t2)
                if _in_chart(R) and _in_chart(S):
                    break
            item.append((par, ctx, t1, t2, R, S))
        pool.append(item)
    return pool


def pairs_item(state, i, tr):
    out = []
    for par, ctx, t1, t2, R, S in state.inputs[i % POOL]:
        o = {name: tr.call(name, fn, par, ctx, R, S) for name, fn in PAIR_ON_RS.items()}
        o.update({name: tr.call(name, fn, par, ctx, t1, t2) for name, fn in PAIR_ON_T.items()})
        cp = o["twovector.covector_pair"]
        o["twovector.solve_co_angle"] = tr.call("twovector.solve_co_angle", F.solve_co_angle, par, ctx, cp.T1, cp.T2)
        out.append(o)
    return out


def pairs_check(state, i, out):
    for (par, ctx, t1, t2, R, S), o in zip(state.inputs[i % POOL], out):
        s1, s2, theta, _ = _gram(t1, t2)
        alpha = theta / par.h
        product = s1 * s2 * math.cos(alpha)
        _abs(o["finslerops.finsler_angle"] - alpha, 1e-9, "finsler_angle = theta/h")
        pp = o["finslerops.finsler_product"]
        _abs(pp.product - product, 1e-9, "<R,S> = |sR||sS| cos(theta/h)")
        _abs(o["geodesics.scalar_product"] - product, 1e-9, "<t1,t2> = |t1||t2| cos(theta/h)")
        d_r, d_s = o["finslerops.product_gradients"]
        _abs(float(R @ d_r) - product, 1e-9, "Euler identity R d<R,S>/dR = <R,S>")
        _abs(float(S @ d_s) - product, 1e-9, "Euler identity S d<R,S>/dS = <R,S>")
        n = o["twovector.two_vector_metric"].n_lower
        _abs(float(t1 @ n @ t2) - product, 1e-9, "n_pq t1^p t2^q = <t1,t2>")
        pullback = F.sigma_jacobian(par, ctx, R).T @ n @ F.sigma_jacobian(par, ctx, S)
        _abs(o["finslerops.finsler_two_vector_tensor"] - pullback, 1e-8, "G = s'(R)^T n s'(S)")
        _abs(pp.g_lower - pullback, 1e-8, "finsler_product G = s'(R)^T n s'(S)")
        cp = o["twovector.covector_pair"]
        _abs(cp.T1 - n @ t2, 1e-9, "T1 = n t2")
        _abs(cp.T2 - t1 @ n, 1e-9, "T2 = t1 n")
        _abs(o["twovector.solve_co_angle"] - alpha, 1e-9, "co-angle = pair angle")
        r1, r2 = ref_parallelogram(par.h, t1, t2, o["twovector.parallelogram_refine"])
        _abs(np.array([r1, r2]), 1e-10 * max(s1, s2, 1.0), "parallelogram residuals")


# geodesic: the `finsleroid geodesic` command on one N = 3 pair per g

GEODESIC_REPLAY = ("geodesics.solve_chord", "geodesics.geodesic_point", "geodesic.pullback")


def _vec_arg(flag, v):
    # the --flag=value form keeps a leading minus sign from reading as an option
    return f"{flag}=" + ",".join(repr(float(x)) for x in v)


def geodesic_inputs(state, rng):
    ctx = state.ctxs[GEODESIC_N]
    pool = []
    for _ in range(POOL):
        item = []
        for g in GRID_G:
            t1, t2 = _draw_pair(rng, ctx.n, state.pars[g].h)
            argv = ["geodesic", f"--g={g!r}", _vec_arg("--t1", t1), _vec_arg("--t2", t2),
                    "--samples", str(GEODESIC_SAMPLES), "--pullback", "--format"]
            item.append((state.pars[g], ctx, t1, t2, argv))
        pool.append(item)
    return pool


def run_cli(argv):
    """finsleroid.cli.main with stdout captured; a nonzero exit is a failure."""
    from finsleroid import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise F.FinsleroidError(f"finsleroid {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _pullback(par, ctx, pts):
    return [F.mu_map(par, ctx, p) for p in pts]


def geodesic_item(state, i, tr):
    out = []
    for par, ctx, t1, t2, argv in state.inputs[i % POOL]:
        text_json = tr.call("cli.main_json", run_cli, argv + ["json"])
        text_csv = tr.call("cli.main_csv", run_cli, argv + ["csv"])
        if tr.traced:
            # the library calls cli.main makes, replayed on the same inputs
            chord = tr.call("geodesics.solve_chord", F.solve_chord, par, ctx, t1, t2)
            svals = np.linspace(0.0, chord.delta_s, GEODESIC_SAMPLES + 1)
            pts = tr.call("geodesics.geodesic_point", F.geodesic_point, chord, svals)
            tr.call("geodesic.pullback", _pullback, par, ctx, pts)
        out.append((text_json, text_csv))
    return out


def parse_csv(text):
    meta, rows = {}, []
    lines = text.splitlines()
    while lines[0].startswith("# "):
        key, val = lines.pop(0)[2:].split("=")
        meta[key] = float(val)
    header = lines.pop(0).split(",")
    for line in lines:
        cells = line.split(",")
        rows.append([float(c) for c in cells[:-1]] + [cells[-1] == "1"])
    return meta, header, rows


def geodesic_check(state, i, out):
    for (par, ctx, t1, t2, argv), (text_json, text_csv) in zip(state.inputs[i % POOL], out):
        doc = json.loads(text_json)
        meta, header, csv_rows = parse_csv(text_csv)
        n = ctx.n
        if meta != {k: float(v) for k, v in doc["chord"].items()}:
            raise CheckFailed("chord constants differ between JSON and CSV")
        if header != ["s"] + [f"t{j}" for j in range(1, n + 1)] + [f"r{j}" for j in range(1, n + 1)] + ["in_segment"]:
            raise CheckFailed(f"unexpected CSV header {header}")
        rows = doc["samples"]
        if len(rows) != GEODESIC_SAMPLES + 1 or len(csv_rows) != len(rows):
            raise CheckFailed("wrong number of geodesic samples")
        a, b = meta["a"], meta["b"]
        for row, cells in zip(rows, csv_rows):
            if [row["s"], *row["t"], *row["r"], row["in_segment"]] != cells:
                raise CheckFailed(f"JSON and CSV rows differ at s = {row['s']!r}")
            s, t, r = row["s"], np.array(row["t"]), np.array(row["r"])
            s2 = float(t @ t)
            _rel(s2, a * a + 2.0 * b * s + s * s, 1e-10, "|t|^2 = a^2 + 2bs + s^2")
            _rel(ref_k(par.g, r), math.sqrt(s2), 1e-12, "K(r) = |t|")
            if not row["in_segment"]:
                raise CheckFailed(f"sample s = {s!r} flagged outside the segment")
        _abs(np.array(rows[0]["t"]) - t1, 1e-10, "geodesic starts at t1")
        _abs(np.array(rows[-1]["t"]) - t2, 1e-10, "geodesic ends at t2")


def geodesic_layers(tr, items):
    metrics = _us_metrics(tr, GEODESIC_REPLAY)
    replay_per_call = sum(tr.per_call(name) for name in GEODESIC_REPLAY)
    metrics["cli.geodesic_json_us"] = (tr.per_call("cli.main_json") - replay_per_call) * 1e6
    metrics["cli.geodesic_csv_us"] = (tr.per_call("cli.main_csv") - replay_per_call) * 1e6
    # the replayed calls are extra work of the traced item, not part of it
    replay = sum(tr.busy[name] for name in GEODESIC_REPLAY)
    return metrics, tr.busy["cli.main_json"] + tr.busy["cli.main_csv"], replay


# verify: `run_verify` at one g for both N; a round covers the g grid

VERIFY_MODULES = ("core", "tensors", "quasimap", "geodesics", "twovector", "finslerops", "cross")
VERIFY_SINGLE = ("finslerops.geodesic_arc", "finslerops.two_vector")


def verify_inputs(state, rng):
    return list(GRID_G)


def _verify_config(g, n):
    from finsleroid import verify as V

    return V.RunConfig(g, n, seed=VERIFY_SEED, trials=VERIFY_TRIALS)


def replay_checks(config, tr):
    """What run_verify does, one traced span per check."""
    from finsleroid import verify as V

    par = F.make_parameter(config.g)
    ctx = F.MetricContext(config.dim, V.parse_metric_spec(config.metric, config.dim))
    checks = []
    for idx, (check_id, _module, _identity, fn, tol_fixed) in enumerate(V.CHECKS):
        tol = config.tol if tol_fixed is None else tol_fixed
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, idx]))
        samples, residual = tr.call(check_id, fn, par, ctx, rng, config.trials, tol)
        checks.append({"id": check_id, "samples": samples, "pass": bool(residual < tol)})
    return {"checks": checks, "overall_pass": all(c["pass"] for c in checks)}


def verify_item(state, i, tr):
    from finsleroid import verify as V

    g = state.inputs[i % len(GRID_G)]
    out = []
    for n in GRID_N:
        if tr.traced:
            out.append((n, replay_checks(_verify_config(g, n), tr), None))
        else:
            report = V.run_verify(_verify_config(g, n))
            out.append((n, report, V.report_to_json(report)))
    return out


def verify_check(state, i, out):
    g = state.inputs[i % len(GRID_G)]
    for n, report, text in out:
        checks = report["checks"]
        bad = [c["id"] for c in checks if not (c["pass"] and c["samples"] > 0)]
        if not report["overall_pass"] or bad or len(checks) != VERIFY_CHECKS:
            raise CheckFailed(f"verify g={g} N={n}: {len(checks)} checks, failing {bad}")
        ref = state.reference.get((g, n))
        if text is not None and ref is not None and text != ref:
            raise CheckFailed(f"verify g={g} N={n}: report differs from a repeat of the configuration")


def verify_warm_up(state):
    """Report of the first configuration; the first timed item must repeat it byte for byte."""
    from finsleroid import verify as V

    g, n = state.inputs[0], GRID_N[0]
    state.reference[(g, n)] = V.report_to_json(V.run_verify(_verify_config(g, n)))


def verify_layers(tr, items):
    from finsleroid import verify as V

    configs = items * len(GRID_N)
    module_of = {check_id: module for check_id, module, *_ in V.CHECKS}
    metrics = {f"verify.{m}_s": 0.0 for m in VERIFY_MODULES}
    for check_id, busy in tr.busy.items():
        metrics[f"verify.{module_of[check_id]}_s"] += busy / configs
    for check_id in VERIFY_SINGLE:
        metrics[f"verify.{check_id}_s"] = tr.busy[check_id] / configs
    return metrics, sum(tr.busy.values()), 0.0


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("field", (), GRID_N, 1, field_inputs, field_item, field_check,
                 _span_layers((*FIELD_ON_R, *FIELD_ON_SIGMA)),
                 _warm(field_item, field_check, 32)),
        Workload("pairs", (), GRID_N, 1, pairs_inputs, pairs_item, pairs_check,
                 _span_layers((*PAIR_ON_RS, *PAIR_ON_T, "twovector.solve_co_angle")),
                 _warm(pairs_item, pairs_check, 1)),
        Workload("geodesic", ("finsleroid.cli",), (GEODESIC_N,), 1, geodesic_inputs, geodesic_item,
                 geodesic_check, geodesic_layers, _warm(geodesic_item, geodesic_check, 1)),
        Workload("verify", ("finsleroid.verify",), GRID_N, len(GRID_G), verify_inputs, verify_item,
                 verify_check, verify_layers, verify_warm_up),
    )
}
