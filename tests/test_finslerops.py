"""Pullback machinery: scalar product, two-vector tensor, gradients,
geodesics and axis angles in the original coordinates.  Their identities
are the ``finslerops`` checks of ``finsleroid verify``, run on this file's
grid (see checkgrid); the tests here add g = 0 values, bundle counts and
errors."""

import math
import sys

import numpy as np
import pytest

import finsleroid as fl
from finsleroid.verify import draw_vectors

from checkgrid import on_grid, verified

GS = [0.0, 0.7, -1.1, 1.5]


@pytest.fixture(params=[2, 3, 5])
def ctx(request):
    if request.param == 3:
        return fl.MetricContext(3, np.array([[1.2, 0.15], [0.15, 0.95]]))
    return fl.MetricContext(request.param)


# <R, S> and the angle equal those of the image pair
test_product_pullback_consistency = on_grid(GS, {"finslerops.product": 1e-10})


def test_product_special_values(ctx, rng):
    par = fl.make_parameter(1.1)
    r_vec = draw_vectors(rng, ctx, 1)[0]
    assert fl.finsler_product(par, ctx, r_vec, r_vec).product == pytest.approx(
        fl.kfun(par, ctx, r_vec) ** 2, rel=1e-12
    )
    par0 = fl.make_parameter(0.0)
    s_vec = draw_vectors(rng, ctx, 1)[0]
    assert fl.finsler_product(par0, ctx, r_vec, s_vec).product == pytest.approx(
        ctx.dot(r_vec, s_vec), rel=1e-12, abs=1e-12
    )


# <lam R, mu S> = lam mu <R, S> (relative), W^2 >= 0, M_p R^p = 0, S_p R^p = 0
test_product_homogeneity_and_w = on_grid(GS, {"finslerops.product": 1e-12})
# the simplified M against its display; the gradients' FD oracle (folded in at 1e-3) to 1e-6
test_m_vector_simplification = on_grid([0.7, -1.1, 1.5], {"finslerops.gradients": 1e-10})
test_product_gradients_fd = on_grid([0.7, -1.1, 1.5], {"finslerops.gradients": 1e-9})


def test_product_gradients_euclidean(ctx, rng):
    par = fl.make_parameter(0.0)
    r_vec, s_vec = draw_vectors(rng, ctx, 2)
    d_r, d_s = fl.product_gradients(par, ctx, r_vec, s_vec)
    assert np.max(np.abs(d_r - ctx.lower(s_vec))) < 1e-12
    assert np.max(np.abs(d_s - ctx.lower(r_vec))) < 1e-12


def count_bundles(monkeypatch, fn, *args):
    """Number of scalar bundles built by one call fn(*args): every bundle,
    through scalar_bundle or from rows already checked, comes from
    core._bundle."""
    real = fl.core._bundle
    calls = []

    def counting(*a):
        calls.append(a)
        return real(*a)

    for name, mod in list(sys.modules.items()):
        if name.startswith("finsleroid.") and hasattr(mod, "_bundle"):
            monkeypatch.setattr(mod, "_bundle", counting)
    fn(*args)
    monkeypatch.undo()
    return len(calls)


def test_product_gradients_evaluates_each_bundle_once(ctx, rng, monkeypatch):
    par = fl.make_parameter(0.9)
    r_vec, s_vec = draw_vectors(rng, ctx, 2)
    assert count_bundles(monkeypatch, fl.product_gradients, par, ctx, r_vec, s_vec) == 2


@pytest.mark.parametrize(
    "fn, vectors",
    [
        (fl.tensor_stack, 1),
        (fl.cartan_tensor, 1),
        (fl.angular_tensor, 1),
        (fl.curvature_tensor, 1),
        (fl.finsler_product, 2),
        (fl.finsler_two_vector_tensor, 2),
    ],
)
def test_each_bundle_evaluated_once(fn, vectors, ctx, rng, monkeypatch):
    par = fl.make_parameter(0.9)
    r_vec, s_vec = draw_vectors(rng, ctx, 2, min_frac=0.15, unit=True)
    args = (r_vec, s_vec)[:vectors]
    assert count_bundles(monkeypatch, fn, par, ctx, *args) == vectors


@pytest.mark.parametrize("g", GS)
def test_two_vector_pullback(g, ctx, rng):
    # G_pq = sigma_r sigma_s n; its swap symmetry, which the check folds in at
    # 1e-2 beside its FD oracle, to 1e-7
    verified(g, ctx, {"finslerops.two_vector": 1e-8})
    par = fl.make_parameter(g)
    r, s = np.moveaxis(draw_vectors(rng, ctx, 16, min_frac=0.05, unit=True).reshape(8, 2, ctx.n), 1, 0)
    near = fl.finsler_angle(par, ctx, r, s) < 0.9 * math.pi
    big_g = fl.finsler_two_vector_tensor(par, ctx, r[near], s[near])
    assert np.abs(big_g - np.swapaxes(fl.finsler_two_vector_tensor(par, ctx, s[near], r[near]), 1, 2)).max() < 1e-7


def test_two_vector_fd_and_euclidean(ctx, rng):
    verified(1.2, ctx, {"finslerops.two_vector": 1e-7})  # the FD oracle, folded in at 1e-2, to 1e-5
    r0, s0 = draw_vectors(rng, ctx, 2)
    assert np.max(np.abs(fl.finsler_two_vector_tensor(fl.make_parameter(0.0), ctx, r0, s0) - ctx.r_pq)) < 1e-9


# G_pq(R, R + eps v) -> g_pq(R) monotonically along eps = 1e-1, 1e-2, 1e-3
test_two_vector_coincidence = on_grid([0.8, 1.5], {"finslerops.coincidence": 0.5})


@pytest.mark.parametrize("g", GS)
def test_finsler_geodesic(g, ctx):
    # both endpoints; straight at g = 0, where sigma is the identity and the chord a line
    verified(g, ctx, {"finslerops.geodesic": 1e-9})
    verified(0.0, ctx, {"euclidean.degeneration": 1e-10})


test_finsler_arc_length = on_grid([0.9, -1.3], {"finslerops.geodesic_arc": 2e-5})


@pytest.mark.parametrize("g", GS)
def test_axis_angles(g, ctx):
    # both angles in [0, pi/h], the axis angle that against e_N, 0 at e_N; at g = 0
    # the euclidean polar angle, as sigma is the identity and the angle euclidean
    verified(g, ctx, {"finslerops.axis_angles": 1e-14})
    verified(0.0, ctx, {"euclidean.degeneration": 1e-12})


def test_collinear_images_rejected(ctx, rng):
    par = fl.make_parameter(0.9)
    r_vec = draw_vectors(rng, ctx, 1)[0]
    with pytest.raises(fl.CollinearError):
        fl.finsler_two_vector_tensor(par, ctx, r_vec, 1.5 * r_vec)
    pp = fl.finsler_product(par, ctx, r_vec, 1.5 * r_vec)
    assert pp.s_r is None and pp.g_lower is None
