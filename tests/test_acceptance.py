"""Acceptance battery: every criterion of the build contract at its stated
tolerance, run through the checks of ``finsleroid verify`` over
g in {0, +-0.5, +-1.0, +-1.5} x N in {2, 3, 5}, one seed stream per
criterion and grid point.  Each printed line names the checks that certify
it and holds their worst residual below the smaller of the line's and the
checks' tolerances over at least its sample floor (``pytest -s`` shows them).
"""

import numpy as np

import finsleroid as fl
from finsleroid.verify import CHECKS, RunConfig, report_to_json, run_verify

GS = (0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5)
NS = (2, 3, 5)
PER_COMBO = 10  # samples per (g, N) and check: 7 x 3 x 10 = 210
CHECK = {check_id: (fn, tol) for check_id, _, _, fn, tol in CHECKS}
# trials per (g, N) where not PER_COMBO; a check with a budget draws max(4, trials // cost) samples
TRIALS = {"euclidean.degeneration": 70, "tensors.metric_hessian": 40, "quasimap.curvature_fd": 80,
          "geodesics.ode_residual": 40, "geodesics.velocity": 40, "geodesics.arc_length": 40, "twovector.tensor_fd": 80,
          "twovector.coincidence": 1, "twovector.co_angle": 80, "twovector.oplus_order": 12 * 16, "twovector.ominus": 12,
          "twovector.parallelogram_refine": 70 * 4, "finslerops.two_vector": 80, "finslerops.coincidence": 1}
# (g values, dimensions) where a check leaves the default grid; oplus_order runs its own ladder in k
GRID = {"euclidean.degeneration": ((0.0,), NS), "twovector.oplus_order": ((0.0,), (3,)),
        "twovector.parallelogram_refine": ((0.2,), NS)}

# criterion -> lines of (description, verify check ids, line tolerance, sample floor)
BATTERY = {
    1: [("euclidean degeneration at g = 0", ["euclidean.degeneration"], 1e-12, 210)],
    2: [("metric tensor equals half the Hessian of K^2 (relative)", ["tensors.metric_hessian"], 1e-6, 210)],
    3: [("determinants of the metric and image tensors (relative)", ["tensors.metric_determinant", "quasimap.quasi_metric"], 1e-10, 210)],
    4: [("Cartan algebraic form", ["tensors.cartan_algebraic_form"], 1e-8, 210),
        ("Cartan contraction constant (relative)", ["tensors.cartan_closed_forms"], 1e-10, 210)],
    5: [("curvature tensor has the constant rank-one structure", ["tensors.curvature_constancy"], 1e-8, 210)],
    6: [("map roundtrips", ["quasimap.map_roundtrip"], 1e-10, 210),
        ("image norm equals the metric function", ["quasimap.sigma_norm"], 1e-12, 210),
        ("map jacobian determinant (relative)", ["quasimap.sigma_jacobian_exact"], 1e-10, 210)],
    7: [("Christoffel annihilation and trace", ["quasimap.christoffel"], 1e-12, 210),
        ("curvature closed form vs finite differences", ["quasimap.curvature_fd"], 1e-6, 210),
        ("conformal flattening pushforward", ["quasimap.conformal"], 1e-8, 210)],
    8: [("closed-form geodesics hit endpoints", ["geodesics.endpoints"], 1e-10, 210),
        ("geodesic equation residual by finite differences", ["geodesics.ode_residual"], 1e-6, 210),
        ("unit speed in the image metric", ["geodesics.velocity"], 1e-8, 210),
        ("radial product t . t' = b + s", ["geodesics.velocity"], 1e-9, 210),
        ("integrated arc length equals the parameter length (relative)", ["geodesics.arc_length"], 1e-5, 210)],
    9: [("angle additivity for coplanar ordered triples", ["geodesics.angle_properties"], 1e-10, 210),
        ("angle scale invariance (to rounding)", ["geodesics.angle_properties"], 5e-13, 210),
        ("fundamental ratio limit at separation 1e-4", ["geodesics.fundamental_limit"], 1e-3, 210)],
    10: [("two-vector tensor equals the mixed second derivative", ["twovector.tensor_fd"], 1e-5, 210),
         ("two-vector determinant closed form", ["twovector.tensor_closed"], 1e-9, 210),
         ("coincidence limit decreases monotonically", ["twovector.coincidence"], 0.5, 21),
         ("derivative-sum limit at separation 1e-4", ["twovector.coincidence"], 1e-4, 21),
         ("frame reconstruction and contractions", ["twovector.frame"], 1e-9, 210)],
    11: [("co-vector closed forms vs the contraction definition", ["twovector.covector_closed"], 1e-10, 210),
         ("co-vector product battery", ["twovector.covector_closed"], 1e-9, 210),
         ("inversion roundtrip t -> T -> t", ["twovector.covector_inversion"], 1e-8, 210),
         ("implicit co-angle equation residual", ["twovector.co_angle"], 1e-12, 210),
         ("co-angle forward consistency", ["twovector.co_angle"], 1e-9, 210)],
    12: [("first-order residual and composition slopes within 0.2 of 2", ["twovector.oplus_order"], 0.2, 12),
         ("difference-vector identities", ["twovector.ominus"], 1e-10, 216),
         ("refined sum vector residuals at g = 0.2", ["twovector.parallelogram_refine"], 1e-10, 210)],
    13: [("scalar product equals the image scalar product", ["finslerops.product"], 1e-9, 210),
         ("two-vector tensor equals the jacobian pullback", ["finslerops.two_vector"], 1e-8, 210),
         ("transverse covector annihilates the first argument", ["finslerops.product"], 1e-12, 210),
         ("axis angle consistent with the pair angle against the axis", ["finslerops.axis_angles"], 1e-10, 210),
         ("two-vector tensor coincidence limit decreases", ["finslerops.coincidence"], 0.5, 18)],
}


def run_check(criterion, check_id):
    """(samples, worst residual, check tolerance) of one check over its grid."""
    fn, tol = CHECK[check_id]
    gs, ns = GRID.get(check_id, (GS, NS))
    samples, worst = 0, 0.0
    for gi, g in enumerate(gs):
        for ni, n in enumerate(ns):
            rng = np.random.default_rng(np.random.SeedSequence([criterion, gi, ni]))
            m, res = fn(fl.make_parameter(g), fl.MetricContext(n), rng, TRIALS.get(check_id, PER_COMBO), tol)
            samples, worst = samples + m, max(worst, res)
    return samples, worst, tol


def report(number, description, worst, tol, detail=""):
    print(f"[acceptance] criterion {number:2d} {'PASS' if worst < tol else 'FAIL'}: {description} "
          f"(max residual {worst:.3e}, tol {tol:.0e}{detail})")
    return worst < tol


def run_criterion(number):
    results, failed = {}, []
    for description, ids, line_tol, floor in BATTERY[number]:
        for check_id in set(ids) - results.keys():
            results[check_id] = run_check(number, check_id)
        samples = min(results[c][0] for c in ids)
        worst = max(results[c][1] for c in ids)
        tol = min([line_tol] + [results[c][2] for c in ids])
        if not report(number, description, worst, tol, f", {samples} samples of {', '.join(ids)}") or samples < floor:
            failed.append(f"{description}: {worst:.3e} vs {tol:.0e}, {samples} samples (floor {floor})")
    assert not failed, f"criterion {number}: {failed}"


def criterion(number):
    """The test of one criterion of BATTERY."""
    return lambda: run_criterion(number)


test_criterion_01_euclidean_degeneration = criterion(1)
test_criterion_02_hessian_consistency = criterion(2)
test_criterion_03_determinant_identities = criterion(3)
test_criterion_04_cartan_structure = criterion(4)
test_criterion_05_curvature_constants = criterion(5)
test_criterion_06_diffeomorphism = criterion(6)
test_criterion_07_quasi_euclidean_geometry = criterion(7)
test_criterion_08_geodesics = criterion(8)
test_criterion_09_angle = criterion(9)
test_criterion_10_two_vector_tensor = criterion(10)
test_criterion_11_covariant_version = criterion(11)
test_criterion_12_parallelogram_law = criterion(12)
test_criterion_13_pullback_coherence = criterion(13)


def test_criterion_14_cli_determinism():
    config = RunConfig(g=1.0, dim=3, seed=42, trials=12)
    same = report_to_json(run_verify(config)) == report_to_json(run_verify(config))
    assert report(14, "verification report bytes are reproducible for a fixed seed", 0.0 if same else 1.0, 0.5)
