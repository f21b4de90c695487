"""Verification harness: report structure, determinism, stress behavior."""

import collections
import dataclasses
import inspect
import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import finsleroid as fl
from finsleroid.cli import main
from finsleroid.geodesics import _pair_dots
from finsleroid.twovector import co_regime_gap
from finsleroid.verify import CHECKS, RunConfig, parse_metric_spec, report_to_json, run_verify


def test_report_structure_and_pass():
    rep = run_verify(RunConfig(g=0.5, dim=3, seed=3, trials=10))
    assert rep["overall_pass"] is True
    assert len(rep["checks"]) == len(CHECKS)
    ids = [c["id"] for c in rep["checks"]]
    assert ids == [c[0] for c in CHECKS]  # stable order
    assert rep["overall_pass"] == all(c["pass"] for c in rep["checks"])
    for c in rep["checks"]:
        assert c["max_residual"] < c["tol"]
        assert c["samples"] >= 1


def test_generating_derivatives_seed_105():
    # seed 105 draws a w where a second difference of V sits at the 1e-6 gate
    rep = run_verify(RunConfig(g=1.5, dim=3, seed=105, trials=50))
    assert rep["overall_pass"] is True


def test_report_determinism():
    cfg = RunConfig(g=-1.0, dim=2, seed=99, trials=8)
    assert report_to_json(run_verify(cfg)) == report_to_json(run_verify(cfg))


def test_report_seed_sensitivity():
    a = run_verify(RunConfig(g=0.5, dim=2, seed=1, trials=8))
    b = run_verify(RunConfig(g=0.5, dim=2, seed=2, trials=8))
    assert report_to_json(a) != report_to_json(b)


def test_near_boundary_warns_without_crashing():
    rep = run_verify(RunConfig(g=1.999, dim=2, seed=5, trials=4))
    assert rep["warnings"], "conditioning warning expected near |g| = 2"
    assert isinstance(rep["overall_pass"], bool)


def test_config_validation():
    with pytest.raises(fl.OutOfRangeError):
        run_verify(RunConfig(g=2.5, dim=3))
    with pytest.raises(fl.OutOfRangeError):
        run_verify(RunConfig(g=0.5, dim=1))
    with pytest.raises(fl.OutOfRangeError):
        run_verify(RunConfig(g=0.5, dim=3, trials=0))
    with pytest.raises(fl.OutOfRangeError):
        run_verify(RunConfig(g=0.5, dim=3, tol=-1.0))


def test_metric_spec_parsing(tmp_path):
    assert np.allclose(parse_metric_spec("identity", 4), np.eye(3))
    assert np.allclose(parse_metric_spec("diag:2,3", 3), np.diag([2.0, 3.0]))
    path = tmp_path / "m.txt"
    path.write_text("2\n1.0 0.2\n0.2 2.0\n")
    mat = parse_metric_spec(f"file:{path}", 3)
    assert np.allclose(mat, [[1.0, 0.2], [0.2, 2.0]])
    with pytest.raises(fl.OutOfRangeError):
        parse_metric_spec("diag:1,2,3", 3)
    with pytest.raises(fl.OutOfRangeError):
        parse_metric_spec("nonsense", 3)
    # file symmetrization by transpose averaging
    path.write_text("2\n1.0 0.4\n0.0 2.0\n")
    mat = parse_metric_spec(f"file:{path}", 3)
    assert np.allclose(mat, [[1.0, 0.2], [0.2, 2.0]])


def test_csv_and_json_encode_identical_numbers(capsys):
    args = ["geodesic", "--g", "0.9", "--t1", "1,0,0.2", "--t2", "0.1,1,0.4", "--samples", "6"]
    assert main(args + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(args + ["--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    json_strs = []
    for row in payload["samples"]:
        json_strs.append([repr(row["s"])] + [repr(x) for x in row["t"]])
    csv_strs = []
    for line in csv_out.strip().splitlines():
        if line.startswith("#") or line.startswith("s,"):
            continue
        csv_strs.append(line.split(",")[:-1])
    assert csv_strs == json_strs


def test_kernels_are_concurrency_safe():
    # pure functions on immutable inputs: identical results from many threads
    par = fl.make_parameter(1.2)
    ctx = fl.MetricContext(3)
    rng = np.random.default_rng(8)
    vecs = [rng.uniform(-1, 1, 3) + np.array([0, 0, 2.0]) for _ in range(64)]
    expected = [fl.kfun(par, ctx, v) for v in vecs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda v: fl.kfun(par, ctx, v), vecs))
    assert results == expected
    with ThreadPoolExecutor(max_workers=8) as pool:
        tensors = list(pool.map(lambda v: fl.metric_tensor(par, ctx, v), vecs))
    for v, gm in zip(vecs, tensors):
        assert np.array_equal(gm, fl.metric_tensor(par, ctx, v))


def test_two_vector_fd_oracle_is_one_product_call_per_check(monkeypatch):
    from finsleroid import verify as V

    calls = []

    def counted(par, ctx, R, S):
        calls.append(np.shape(R))
        return fl.finsler_product(par, ctx, R, S)

    monkeypatch.setattr(V, "finsler_product", counted)
    par = fl.make_parameter(1.0)
    for n in (3, 5):
        calls.clear()
        rng = np.random.default_rng(7)
        samples, residual = V.check_finsler_two_vector(par, fl.MetricContext(n), rng, 32, 1e-8)
        assert residual < 1e-8
        # one stacked call of the 4 N^2 stencil pairs of every sample
        assert calls == [(4 * n * n, samples, n)]


# the finite-difference and quadrature checks, which evaluate each kernel
# and each stencil once on their whole stack of samples
STACKED_ORACLES = [
    "tensors.gradient_covector", "tensors.metric_hessian", "tensors.cartan_fd",
    "quasimap.sigma_jacobian_fd", "quasimap.metric_derivative", "quasimap.curvature_fd",
    "quasimap.conformal_jacobian_fd", "geodesics.arc_length", "twovector.tensor_fd",
    "twovector.coincidence", "twovector.covector_metric_fd", "finslerops.gradients",
    "finslerops.two_vector",
]


@pytest.mark.parametrize("check_id", STACKED_ORACLES)
def test_oracle_checks_make_as_many_kernel_calls_at_any_trials(monkeypatch, check_id):
    from finsleroid import numdiff, oracles
    from finsleroid import verify as V

    calls = collections.Counter()
    quiet = []  # set while samples are drawn and admitted

    def counted(name, f):
        def wrapped(*a, **kw):
            if not quiet:
                calls[name] += 1
            return f(*a, **kw)
        return wrapped

    def silenced(f):
        def wrapped(*a, **kw):
            quiet.append(f)
            try:
                return f(*a, **kw)
            finally:
                quiet.pop()
        return wrapped

    # the kernels verify and the oracles import, and the stencils
    for module in (V, oracles):
        for name, f in vars(module).items():
            if inspect.isfunction(f) and f.__module__.startswith("finsleroid.") and f.__module__ != module.__name__:
                monkeypatch.setattr(module, name, counted(f"{f.__module__}.{f.__name__}", f))
    for name in ("jacobian", "gradient", "hessian", "mixed_second"):
        monkeypatch.setattr(numdiff, name, counted("numdiff." + name, getattr(numdiff, name)))
    for name in ("draw_vectors", "draw_pairs", "_admitted"):
        monkeypatch.setattr(V, name, silenced(getattr(V, name)))
    fn, tol = next((c[3], c[4]) for c in CHECKS if c[0] == check_id)
    par, ctx = fl.make_parameter(1.0), fl.MetricContext(3)
    counts = []
    for trials in (16, 128):  # at least twice the samples at 128 trials
        calls.clear()
        samples, residual = fn(par, ctx, np.random.default_rng(3), trials, tol)
        assert residual < tol
        counts.append((samples, dict(calls)))
    assert counts[0][0] < counts[1][0]
    assert counts[0][1] == counts[1][1] and counts[0][1]


HANGED_NEAR_2 = {
    "geodesics.angle_properties", "geodesics.chord_constants", "geodesics.endpoints",
    "geodesics.ode_residual", "geodesics.velocity", "geodesics.arc_length",
    "geodesics.length_gradients", "twovector.frame", "twovector.covector_closed",
    "twovector.covector_metric_fd", "twovector.covector_inversion",
    "finslerops.two_vector", "finslerops.geodesic_arc", "tensors.angular_tensor",
}


def test_near_two_report_carries_errors():
    # these checks used to draw for ever, or (angular_tensor) end in a bare
    # ZeroDivisionError; each now ends, with a typed error in the report or
    # with a finite residual over the samples it drew
    rep = run_verify(RunConfig(g=1.9999, dim=3, seed=0, trials=20))
    assert len(rep["checks"]) == len(CHECKS) and rep["overall_pass"] is False
    by_id = {c["id"]: c for c in rep["checks"]}
    for cid in HANGED_NEAR_2:
        c = by_id[cid]
        if "error" in c:
            assert c["pass"] is False and c["error"], cid
        else:
            assert c["samples"] > 0 and math.isfinite(c["max_residual"]), cid
            assert c["pass"] == (c["max_residual"] < c["tol"]), cid
    for c in rep["checks"]:
        assert ("error" in c) == (c["samples"] == 0), c["id"]
    json.loads(report_to_json(rep))


@pytest.mark.parametrize("check_id", ["tensors.metric_determinant", "quasimap.sigma_jacobian_exact"])
def test_determinant_checks_near_two_raise_typed_errors(check_id):
    # powers of J leave float64 near |g| = 2: a typed error, with no numpy
    # warning on the way (pytest turns those into errors)
    fn, tol = next((c[3], c[4]) for c in CHECKS if c[0] == check_id)
    with pytest.raises(fl.NumericalDomainError, match="is 0 or not finite in float64"):
        fn(fl.make_parameter(1.9999), fl.MetricContext(5), np.random.default_rng(0), 200, tol)


def test_draw_pair_and_rejection_budget_raise(monkeypatch):
    from finsleroid import verify as V

    par = fl.make_parameter(1.9999)
    ctx = fl.MetricContext(3)
    with pytest.raises(fl.OutOfRangeError, match="no pair"):
        V.draw_pairs(np.random.default_rng(0), ctx, par, 4, max_alpha=0.95 * np.pi)
    # no row has both q and |Z| above 0.8 S (q^2 + Z^2 = S^2): the samplers
    # stop at their draw cap (lowered here to keep the test short)
    monkeypatch.setattr(V, "_DRAW_CAP", 1 << 14)
    with pytest.raises(fl.OutOfRangeError, match=r"draw cap: \d+ rows drawn"):
        V.draw_vectors(np.random.default_rng(0), ctx, 4, min_frac=0.8)
    with pytest.raises(fl.OutOfRangeError, match=r"draw cap: \d+ rows drawn"):
        V.draw_pairs(np.random.default_rng(0), ctx, fl.make_parameter(1.0), 4, min_frac=0.8)

    judged = []

    def no_chord(par, ctx, t1, t2, min_c=0.0):
        judged.append(len(t1))
        return np.zeros(len(t1), dtype=bool)

    # every sample rejected by the chord's guards: the check gives up after
    # 50 rejected samples per trial, plus the m - 1 = 3 it could still
    # accept; it judges the 4 samples still missing at a time, so the last
    # 3 drawn reach the cap before they are judged
    monkeypatch.setattr(V, "_has_chord", no_chord)
    with pytest.raises(fl.OutOfRangeError, match="draw cap: 103 samples drawn without 4 admissible ones"):
        V.check_finsler_arc(fl.make_parameter(1.0), ctx, np.random.default_rng(0), 2, 1e-5)
    assert judged == [4] * 25


def _draw_vector(rng, ctx, min_frac=0.0, unit=False):
    """The sequential vector rule, one uniform row at a time."""
    while True:
        v = rng.uniform(-1.0, 1.0, ctx.n)
        s = ctx.s_norm(v)
        if s >= 0.1 and (min_frac == 0.0 or (ctx.m(v) >= min_frac * s and abs(v[-1]) >= min_frac * s)):
            return v / s if unit else v


def _draw_pair(rng, ctx, par, max_alpha=None, min_cos=None, main_regime=False, regime_margin=0.0, **kw):
    """The sequential pair rule: two vectors at a time until the pair passes."""
    while True:
        t1, t2 = _draw_vector(rng, ctx, **kw), _draw_vector(rng, ctx, **kw)
        dot11, dot22, _, u, theta = _pair_dots(t1, t2, ctx.r_pq)
        al = theta / par.h
        gap = co_regime_gap(par, al)
        if (u >= 0.05 * np.sqrt(dot11 * dot22) and (max_alpha is None or al < max_alpha)
                and (min_cos is None or (al < 0.5 * np.pi and np.cos(al) > min_cos))
                and (not main_regime or gap <= -0.05) and abs(gap) >= regime_margin):
            return t1, t2


@pytest.mark.parametrize("n", [2, 3, 5])
def test_bulk_samplers_return_the_sequential_rows(n):
    # one uniform stream, accepted by masks in chunks: the same rows as the
    # rule applied one draw at a time (unit rows up to the rounding of the norm)
    from finsleroid import verify as V

    ctx = fl.MetricContext(n, np.diag(np.linspace(0.7, 1.4, n - 1)))
    par = fl.make_parameter(1.5)
    for kw in ({}, {"min_frac": 0.15}, {"unit": True}, {"min_frac": 0.15, "unit": True}):
        rng = np.random.default_rng(1)
        seq = np.array([_draw_vector(rng, ctx, **kw) for _ in range(300)])
        bulk = V.draw_vectors(np.random.default_rng(1), ctx, 300, **kw)
        np.testing.assert_array_max_ulp(bulk, seq, maxulp=2 if kw.get("unit") else 0)
    for kw in ({}, {"max_alpha": 0.6 * np.pi, "unit": True}, {"min_cos": 0.3}, {"main_regime": True},
               {"regime_margin": 0.05, "min_frac": 0.1}):
        rng = np.random.default_rng(2)
        seq = np.array([_draw_pair(rng, ctx, par, **kw) for _ in range(200)])
        bulk = np.stack(V.draw_pairs(np.random.default_rng(2), ctx, par, 200, **kw), axis=1)
        np.testing.assert_array_max_ulp(bulk, seq, maxulp=2 if kw.get("unit") else 0)


def _transposed(f):
    return lambda *a: dataclasses.replace(tv := f(*a), n_lower=np.swapaxes(tv.n_lower, -1, -2))


def _scaled_field(name):
    """A fault of a kernel returning a record: one field scaled by 1 + 1e-6."""
    return lambda f: lambda *a: dataclasses.replace(x := f(*a), **{name: getattr(x, name) * (1 + 1e-6)})


# check id -> (a kernel in verify's namespace, a small fault of it): one check
# the acceptance battery relies on per kernel family
FAULTS = {
    "tensors.metric_determinant": ("metric_tensor", lambda f: lambda *a: f(*a) * (1 + 1e-6)),
    # the finite-difference checks: one stencil per check
    "tensors.metric_hessian": ("metric_tensor", lambda f: lambda *a: f(*a) * (1 + 1e-6)),
    "quasimap.sigma_jacobian_fd": ("sigma_jacobian", lambda f: lambda *a: f(*a) * (1 + 1e-6)),
    "twovector.covector_metric_fd": ("two_vector_metric", _transposed),
    "finslerops.gradients": ("product_gradients", lambda f: lambda *a: tuple(d * (1 + 1e-6) for d in f(*a))),
    "quasimap.sigma_norm": ("sigma_map", lambda f: lambda *a: f(*a) * (1 + 1e-9)),
    "geodesics.endpoints": ("geodesic_point", lambda f: lambda *a: f(*a) + 1e-9),
    "twovector.tensor_fd": ("two_vector_metric", _transposed),
    "finslerops.two_vector": ("finsler_two_vector_tensor", lambda f: lambda *a: f(*a) * (1 + 1e-6)),
    # the stacked one-vector checks: one call per kernel on the (m, N) stack
    "quasimap.quasi_metric": ("quasi_metric", _scaled_field("n_lower")),
    "tensors.cartan_algebraic_form": ("cartan_tensor", _scaled_field("c_lower")),
    "tensors.cartan_closed_forms": ("cartan_tensor", _scaled_field("c_mixed")),
    "tensors.curvature_constancy": ("curvature_tensor", lambda f: lambda *a: f(*a) * (1 + 1e-6)),
    "quasimap.mu_jacobian": ("mu_jacobian", lambda f: lambda *a: f(*a) * (1 + 1e-6)),
    # the stacked two-vector checks
    "twovector.covector_closed": ("covector_pair", _scaled_field("T1")),
    "twovector.frame": ("frame", lambda f: lambda *a: f(*a) * (1 + 1e-6)),
    # an asymmetric fault: the sum of (t1, t2) moves along t1
    "twovector.oplus": ("oplus_first_order", lambda f: lambda par, ctx, t1, t2: f(par, ctx, t1, t2) + 1e-6 * t1),
    # the chord checks: one chord solve and one stencil per check
    "geodesics.chord_constants": ("solve_chord", _scaled_field("delta_s")),
    "geodesics.velocity": ("geodesic_velocity", lambda f: lambda *a: f(*a) * (1 + 1e-6)),
    "geodesics.length_gradients": ("length_gradients", lambda f: lambda *a: tuple(b * (1 + 1e-6) for b in f(*a))),
    "finslerops.geodesic": ("finsler_geodesic", lambda f: lambda *a: f(*a) * (1 + 1e-6)),
}


@pytest.mark.parametrize("check_id", FAULTS)
def test_checks_fail_on_a_faulty_kernel(monkeypatch, check_id):
    from finsleroid import verify as V

    fn, tol = next((c[3], c[4]) for c in CHECKS if c[0] == check_id)
    par, ctx = fl.make_parameter(1.0), fl.MetricContext(3)
    assert fn(par, ctx, np.random.default_rng(5), 16, tol)[1] < tol
    name, fault = FAULTS[check_id]
    monkeypatch.setattr(V, name, fault(getattr(V, name)))
    assert fn(par, ctx, np.random.default_rng(5), 16, tol)[1] > tol


def _nan_from_second_call(f, calls):
    """f, but NaN from its second call on."""

    def faulty(*args):
        calls.append(None)
        out = f(*args)
        return out * math.nan if len(calls) >= 2 else out

    return faulty


@pytest.mark.parametrize("check_id, name", [("twovector.co_angle", "solve_co_angle"),
                                            ("finslerops.geodesic_arc", "metric_tensor")])
def test_checks_fail_on_a_nan_after_a_finite_residual(monkeypatch, check_id, name):
    # the loops of these checks fold one residual per sample; a NaN that
    # arrives after a finite residual must fail the check, as Python's
    # max(res, nan) would keep res
    from finsleroid import verify as V

    fn, tol = next((c[3], c[4]) for c in CHECKS if c[0] == check_id)
    par, ctx = fl.make_parameter(1.0), fl.MetricContext(3)
    calls = []
    monkeypatch.setattr(V, name, _nan_from_second_call(getattr(V, name), calls))
    residual = fn(par, ctx, np.random.default_rng(5), 16, tol)[1]
    assert len(calls) >= 2
    assert not residual < tol


def test_verify_fails_without_the_whitening_map(monkeypatch):
    # without the maps the kernels evaluate the identity-metric closed forms
    # at the raw rows and ignore r_ab; the raw-coordinate oracles see it
    from finsleroid import verify as V

    def unwhitened(n, r_ab=None):
        ctx = fl.MetricContext(n, r_ab)
        ctx._whiten = ctx._unwhiten = None
        return ctx

    cfg = RunConfig(g=1.0, dim=3, metric="diag:4,0.25", trials=16)
    assert run_verify(cfg)["overall_pass"] is True
    monkeypatch.setattr(V, "MetricContext", unwhitened)
    assert run_verify(cfg)["overall_pass"] is False
