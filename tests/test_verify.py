"""Verification harness: report structure, determinism, stress behavior."""

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import finsleroid as fl
from finsleroid.cli import main
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


def test_two_vector_fd_oracle_is_one_product_call_per_pair(monkeypatch):
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
        # one stacked call of the 4 N^2 stencil pairs per accepted pair
        assert calls == [(4 * n * n, n)] * samples


HANGED_NEAR_2 = {
    "geodesics.angle_properties", "geodesics.chord_constants", "geodesics.endpoints",
    "geodesics.ode_residual", "geodesics.velocity", "geodesics.arc_length",
    "geodesics.length_gradients", "twovector.frame", "twovector.covector_closed",
    "twovector.covector_metric_fd", "twovector.covector_inversion",
    "finslerops.two_vector", "finslerops.geodesic_arc", "tensors.angular_tensor",
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # float64 overflow inside checks near |g| = 2
def test_near_two_report_carries_errors():
    # these checks used to draw for ever, or (angular_tensor) end in a bare
    # ZeroDivisionError; each now fails with a typed error in the report
    rep = run_verify(RunConfig(g=1.9999, dim=3, seed=0, trials=20))
    assert len(rep["checks"]) == len(CHECKS) and rep["overall_pass"] is False
    by_id = {c["id"]: c for c in rep["checks"]}
    for cid in HANGED_NEAR_2:
        assert by_id[cid]["pass"] is False and by_id[cid]["error"], cid
    for c in rep["checks"]:
        assert ("error" in c) == (c["samples"] == 0), c["id"]
    json.loads(report_to_json(rep))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_draw_pair_and_rejection_budget_raise():
    from finsleroid import verify as V

    par = fl.make_parameter(1.9999)
    ctx = fl.MetricContext(3)
    with pytest.raises(fl.OutOfRangeError, match="no pair"):
        V.draw_pair(np.random.default_rng(0), ctx, par, max_alpha=0.95 * np.pi)
    with pytest.raises(fl.OutOfRangeError, match="draws rejected"):
        V.check_finsler_arc(par, ctx, np.random.default_rng(0), 2, 1e-5)
