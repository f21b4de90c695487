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

from checkgrid import GATES, check_residual


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
    # no pair angle kept: the angle draw stops at the same cap
    with pytest.raises(fl.OutOfRangeError, match=r"draw cap: \d+ angles drawn"):
        V.draw_pairs(np.random.default_rng(0), ctx, fl.make_parameter(1.0), 4, keep=lambda th: th < 0.0)

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


@pytest.mark.parametrize("n", [2, 3, 5])
def test_bulk_samplers_return_the_sequential_rows(n):
    # one uniform stream, accepted by masks in chunks: the same rows as the
    # rule applied one draw at a time (unit rows up to the rounding of the norm)
    from finsleroid import verify as V

    ctx = fl.MetricContext(n, np.diag(np.linspace(0.7, 1.4, n - 1)))
    for kw in ({}, {"min_frac": 0.15}, {"unit": True}, {"min_frac": 0.15, "unit": True}):
        rng = np.random.default_rng(1)
        seq = np.array([_draw_vector(rng, ctx, **kw) for _ in range(300)])
        bulk = V.draw_vectors(np.random.default_rng(1), ctx, 300, **kw)
        np.testing.assert_array_max_ulp(bulk, seq, maxulp=2 if kw.get("unit") else 0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_draw_pairs_builds_each_pair_in_its_interval(monkeypatch, n):
    # each pair is built at an angle drawn in its interval, from one
    # draw_vectors call of 2m rows: its r-angle lies there, its flags hold,
    # and t1 is every other row of that call
    from finsleroid import verify as V

    spd = np.full((n - 1, n - 1), 0.3) + np.diag(np.linspace(0.8, 1.5, n - 1))  # dense r_ab
    ctx = fl.MetricContext(n, spd)
    draw_vectors, asked, rows = V.draw_vectors, [], []

    def recorded(rng, ctx, m, **kw):
        asked.append(m)
        rows.append(draw_vectors(rng, ctx, m, **kw))
        return rows[-1]

    monkeypatch.setattr(V, "draw_vectors", recorded)
    cases = [(1.5, {}), (1.5, {"max_alpha": 0.6 * np.pi, "unit": True}), (1.5, {"min_cos": 0.3}),
             (1.5, {"main": True}), (1.5, {"main": False}), (1.99, {"min_cos": 0.1})]
    for g, kw in cases:
        par = fl.make_parameter(g)
        if "main" in kw:
            kw = {"keep": V.regime_mask(par, main=kw["main"]), "main": kw["main"]}
        asked.clear()
        rows.clear()
        t1, t2 = V.draw_pairs(np.random.default_rng(2), ctx, par, 200, **{k: v for k, v in kw.items() if k != "main"})
        assert asked == [400]  # no pair rejected, at any g
        np.testing.assert_array_equal(t1, rows[0][0::2])
        dot11, dot22, _, _, theta = _pair_dots(t1, t2, ctx.r_pq)
        eps = 1e-12
        hi = np.pi - np.arcsin(0.05)
        if "max_alpha" in kw:
            hi = min(hi, par.h * kw["max_alpha"])
        if "min_cos" in kw:
            hi = min(hi, par.h * np.arccos(kw["min_cos"]))
        assert np.all(theta >= np.arcsin(0.05) - eps) and np.all(theta <= hi + eps)
        gap = co_regime_gap(par, theta / par.h)
        if "main" in kw:
            assert np.all(gap <= -0.05 + eps) if kw["main"] else np.all(np.abs(gap) >= 0.05 - eps)
        if kw.get("unit"):
            np.testing.assert_allclose(np.stack([dot11, dot22]), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_draw_pairs_draws_the_angle_of_two_isotropic_directions(n):
    # theta has the density sin^(N-2) theta on [asin 0.05, pi - asin 0.05]:
    # its KS distance to that law is below 0.01 at m = 16000 (the 5 % point
    # is 0.011), where the laws of exponents N - 3 and N - 1 lie 0.03 to 0.17
    # away
    from finsleroid import verify as V

    spd = np.full((n - 1, n - 1), 0.3) + np.diag(np.linspace(0.8, 1.5, n - 1))
    ctx = fl.MetricContext(n, spd)
    t1, t2 = V.draw_pairs(np.random.default_rng(3), ctx, fl.make_parameter(1.0), 16000)
    theta = np.sort(_pair_dots(t1, t2, ctx.r_pq)[4])
    grid = np.linspace(np.arcsin(0.05), np.pi - np.arcsin(0.05), 20001)

    def ks(k):
        dens = np.sin(grid) ** k
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]))])
        at = np.interp(theta, grid, cdf / cdf[-1])
        i = np.arange(1, len(theta) + 1) / len(theta)
        return max(np.max(i - at), np.max(at - (i - 1.0 / len(theta))))

    assert ks(n - 2) < 0.01
    assert min(ks(n - 3), ks(n - 1)) > 0.025


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
    # the one-pair solve, looped over the check's stack
    "twovector.co_angle": ("solve_co_angle", lambda f: lambda *a: f(*a) + 1e-6),
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


def _scaled_output(out, field):
    """A kernel's output with its float value, or the float field ``field``
    of its record or tuple, scaled by 1 + 1e-6."""
    scale = lambda x: None if x is None else x * (1 + 1e-6)
    if field is None:
        return scale(out)
    if isinstance(field, int):
        return tuple(scale(x) if i == field else x for i, x in enumerate(out))
    if dataclasses.is_dataclass(out):
        return dataclasses.replace(out, **{field: scale(getattr(out, field))})
    return out._replace(**{field: scale(getattr(out, field))})


# the mutants that the module tests caught while they restated the checks:
# each public kernel they call, its float output or one float field of its
# record at a time scaled by 1 + 1e-6, by the check and g of the module grid
# (N = 3 at a dense r_ab, 16 trials) where the check fails under it, by 16x
# its gate or more where one does (only the finite-difference oracles of the
# quasi metric's christoffel, curvature and derivative catch those, at 1.06x
# and 1.5x, as the restating tests did). Of the 105 mutants of those kernels
# the restating tests caught these 90; they missed generating_j,
# parallelogram_residuals, finsler_product's w, m_r, s_r and g_lower,
# finsler_chord's fields but delta_s, and axis_angles' plane angle
CAUGHT = {
    ("core.parameter_identities", 0.7): ["make_parameter.h", "make_parameter.g", "make_parameter.g_plus", "make_parameter.big_g", "make_parameter.g_minus", "make_parameter.g_up_plus", "make_parameter.g_up_minus", "make_parameter.gamma"],
    ("core.scalar_identities", 0.7): ["scalar_bundle.q", "scalar_bundle.Z", "scalar_bundle.B", "scalar_bundle.A", "scalar_bundle.L", "scalar_bundle.J", "scalar_bundle.K", "generating_v"],
    ("quasimap.angle_image", 0.7): ["scalar_bundle.phi", "phi_angle"],
    ("core.phi_branches", 0.7): ["phi_function"],
    ("tensors.inverse_metric", 0.7): ["gradient_covector", "metric_tensor", "inverse_metric"],
    ("tensors.angular_tensor", 0.7): ["angular_tensor"],
    ("tensors.cartan_algebraic_form", 0.7): ["cartan_tensor.c_lower"],
    ("tensors.cartan_closed_forms", 0.7): ["cartan_tensor.c_mixed", "cartan_tensor.c_vec_lower", "cartan_tensor.c_vec_upper"],
    ("tensors.curvature_constancy", 0.7): ["curvature_tensor"],
    ("quasimap.sigma_norm", 0.7): ["kfun", "sigma_map"],
    ("quasimap.map_roundtrip", 0.7): ["mu_map"],
    ("quasimap.sigma_jacobian_exact", 0.7): ["sigma_jacobian"],
    ("quasimap.mu_jacobian", 0.7): ["mu_jacobian"],
    ("quasimap.quasi_metric", 0.7): ["quasi_metric.n_lower", "quasi_metric.n_upper", "quasi_metric.h_lower"],
    ("quasimap.curvature_fd", 1.5): ["quasi_metric.christoffel", "quasi_metric.curvature"],
    ("quasimap.metric_derivative", 1.5): ["quasi_metric_derivative"],
    ("quasimap.conformal", 0.7): ["conformal_flatten.0", "conformal_flatten.1", "conformal_jacobian"],
    ("finslerops.product", 0.7): ["angle", "finsler_product.product", "finsler_product.alpha"],
    ("geodesics.pair_invariants", 0.7): ["pair_invariants.dot11", "pair_invariants.dot22", "pair_invariants.dot12", "pair_invariants.u", "pair_invariants.d1", "pair_invariants.d2"],
    ("geodesics.length_gradients", 0.7): ["pair_invariants.alpha", "length_gradients.0", "length_gradients.1"],
    ("geodesics.chord_constants", 0.7): ["scalar_product", "distance_squared", "solve_chord.s_end", "solve_chord.a", "solve_chord.delta_s", "solve_chord.alpha", "solve_chord.b"],
    ("geodesics.endpoints", 0.7): ["solve_chord.t1", "solve_chord.t2", "solve_chord.h", "geodesic_point"],
    ("geodesics.velocity", 0.7): ["geodesic_velocity"],
    ("twovector.tensor_closed", 0.7): ["two_vector_metric.n_lower"],
    ("twovector.frame", 0.7): ["two_vector_metric.a1", "two_vector_metric.a2", "frame", "frame_reconstruct"],
    ("twovector.covector_closed", 0.7): ["covector_pair.T1", "covector_pair.T2", "covector_pair.D1", "covector_pair.D2", "covector_pair.f_scale"],
    ("twovector.covector_inversion", 0.7): ["invert_covectors.0", "invert_covectors.1"],
    ("twovector.co_angle", 0.7): ["solve_co_angle"],
    ("twovector.oplus", 0.0): ["oplus_first_order"],
    ("twovector.ominus", 0.7): ["ominus_first_order"],
    ("twovector.parallelogram_refine", 0.7): ["parallelogram_refine"],
    ("finslerops.gradients", 0.7): ["m_vector"],
    ("finslerops.two_vector", 0.7): ["product_gradients.0", "product_gradients.1", "finsler_two_vector_tensor"],
    ("finslerops.axis_angles", 0.7): ["finsler_angle", "axis_angles.0"],
    ("finslerops.geodesic", 0.7): ["finsler_chord.delta_s", "finsler_geodesic"],
}
MUTANTS = {mutant: point for point, mutants in CAUGHT.items() for mutant in mutants}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_grid_catches_what_the_module_tests_caught(monkeypatch, mutant):
    from finsleroid import oracles
    from finsleroid import verify as V

    name, _, field = mutant.partition(".")
    field = int(field) if field.isdigit() else field or None
    kernel = getattr(fl, name)
    for module in (fl, V, oracles):  # as the tests and the checks call it
        if hasattr(module, name):
            monkeypatch.setattr(module, name, lambda *a, **kw: _scaled_output(kernel(*a, **kw), field))
    check_id, g = MUTANTS[mutant]
    ctx = fl.MetricContext(3, np.array([[1.3, 0.2], [0.2, 0.9]]))
    assert not check_residual(check_id, g, ctx, trials=16) < GATES[check_id][2]


def test_arc_check_reads_the_interior_of_the_public_geodesic(monkeypatch):
    # a curve with the geodesic's endpoints that bends off it in between (a
    # radial scale of 1.25 % at mid-arc) is longer than delta s by ~3e-4;
    # the endpoint check cannot see it, so the arc check has to; at g = 0
    # the midpoint leaves the straight line
    from finsleroid import verify as V

    geodesic = fl.finsler_geodesic

    def bent(par, ctx, r1, r2, s):
        u = s / np.expand_dims(fl.finsler_chord(par, ctx, r1, r2).delta_s, -1)
        return geodesic(par, ctx, r1, r2, s) * (1.0 + 0.05 * u * (1.0 - u))[..., None]

    monkeypatch.setattr(V, "finsler_geodesic", bent)
    ctx = fl.MetricContext(3, np.array([[1.3, 0.2], [0.2, 0.9]]))
    assert check_residual("finslerops.geodesic", 0.9, ctx, trials=16) < GATES["finslerops.geodesic"][2]
    assert check_residual("finslerops.geodesic_arc", 0.9, ctx, trials=16) > 10 * GATES["finslerops.geodesic_arc"][2]
    assert check_residual("euclidean.degeneration", 0.0, ctx, trials=16) > 1e6 * GATES["euclidean.degeneration"][2]


def test_co_angle_check_passes_where_roots_leave_the_pair_angle():
    # at g = 1.8 most main-regime pairs have alpha on a branch k >= 1, where
    # the smallest root, the one returned, lies below the pair's own alpha
    fn, tol = next((c[3], c[4]) for c in CHECKS if c[0] == "twovector.co_angle")
    samples, residual = fn(fl.make_parameter(1.8), fl.MetricContext(3), np.random.default_rng(0), 200, tol)
    assert samples == 25 and residual < tol


def test_co_angle_check_tests_the_branch_of_the_root(monkeypatch):
    # off the main branch (F(alpha) < -pi, most pairs at g = 1.9) the pair's
    # own alpha solves the cosine equation and is not above itself: a solver
    # returning it fails by its branch alone
    from finsleroid import verify as V

    pair_invariants, own = V.pair_invariants, []

    def recorded(*a):
        inv = pair_invariants(*a)
        own[:] = list(inv.alpha)
        return inv

    monkeypatch.setattr(V, "pair_invariants", recorded)
    monkeypatch.setattr(V, "solve_co_angle", lambda *a: own.pop(0))
    fn, tol = next((c[3], c[4]) for c in CHECKS if c[0] == "twovector.co_angle")
    assert fn(fl.make_parameter(1.9), fl.MetricContext(3), np.random.default_rng(0), 200, tol)[1] > 1e-4


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
