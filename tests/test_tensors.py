"""Tensor stack: gradient covector, metric tensor, angular tensor,
Cartan tensor and the constant-curvature structure.  Their identities are
the ``tensors`` checks of ``finsleroid verify``, run on this file's grid
(see checkgrid); the tests here add limits, g = 0 values and errors."""

import numpy as np
import pytest

import finsleroid as fl
from finsleroid import numdiff
from finsleroid.oracles import cartan_fd_diagnostic
from finsleroid.verify import draw_vectors

from checkgrid import on_grid, verified

GS = [0.0, 0.7, -1.1, 1.5]


@pytest.fixture(params=[2, 3, 5])
def ctx(request):
    if request.param == 3:
        return fl.MetricContext(3, np.array([[1.3, 0.2], [0.2, 0.9]]))
    return fl.MetricContext(request.param)


# the FD oracle; the exact contractions g_pq R^q = R_p and R_p R^p = K^2 (relative)
test_gradient_covector = on_grid(GS, {"tensors.gradient_covector": 1e-6, "tensors.inverse_metric": 1e-13})


def test_gradient_euclidean(ctx, rng):
    par = fl.make_parameter(0.0)
    v = draw_vectors(rng, ctx, 1)[0]
    assert np.allclose(fl.gradient_covector(par, ctx, v), ctx.r_pq @ v, atol=1e-15)
    assert np.allclose(fl.metric_tensor(par, ctx, v), ctx.r_pq, atol=1e-15)
    assert np.allclose(fl.inverse_metric(par, ctx, v), ctx.r_pq_inv, atol=1e-14)


@pytest.mark.parametrize("g", GS)
def test_metric_is_half_hessian(g, ctx, rng):
    verified(g, ctx, {"tensors.metric_hessian": 1e-6})
    gm = fl.metric_tensor(fl.make_parameter(g), ctx, draw_vectors(rng, ctx, 10))
    assert np.abs(gm - np.swapaxes(gm, 1, 2)).max() < 1e-14  # symmetric to rounding


# det(g_pq) = J^(2N) det(r_ab) (relative), det > 0; g^pq g_qr = delta, g^NN = (Z^2 + q^2)/K^2
test_metric_determinant_and_inverse = on_grid(
    GS, {"tensors.metric_determinant": 1e-11, "tensors.inverse_metric": 1e-13})
test_metric_zero_homogeneity = on_grid(GS, {"tensors.metric_homogeneity": 1e-12})


def test_metric_continuous_on_axis(ctx3):
    # the g (r R)(r R) Z/q term is a removable singularity
    par = fl.make_parameter(1.3)
    axis = np.array([0.0, 0.0, 1.0])
    on_axis = fl.metric_tensor(par, ctx3, axis)
    for eps in (1e-5, 1e-7):
        near = fl.metric_tensor(par, ctx3, np.array([eps, 0.0, 1.0]))
        assert np.max(np.abs(near - on_axis)) < 50 * eps
    # K^2 has an odd |q|^3 term at the axis, so the second difference
    # converges only linearly in the step; the oracle still pins the value
    fd = 0.5 * numdiff.hessian(lambda x: fl.kfun(par, ctx3, x) ** 2, axis)
    assert np.max(np.abs(on_axis - fd)) / np.max(np.abs(on_axis)) < 5e-4


# closed forms, h_pq R^q = 0, det(h_ab) = det(g_pq)/V^2 (relative)
test_angular_tensor = on_grid(GS, {"tensors.angular_tensor": 1e-11})


def test_angular_euclidean_axis(ctx3):
    par = fl.make_parameter(0.0)
    ha = fl.angular_tensor(par, ctx3, np.array([0.0, 0.0, 1.0]))
    expected = np.diag([1.0, 1.0, 0.0])
    assert np.allclose(ha, expected, atol=1e-15)


# the FD oracle relative to max(|C|, 1); total symmetry; C_pqr R^r = 0
test_cartan_vs_finite_differences = on_grid(GS, {
    "tensors.cartan_fd": 1e-6, "tensors.cartan_closed_forms": 1e-12, "tensors.cartan_algebraic_form": 1e-10})


def test_cartan_vanishes_at_g_zero(ctx3, rng):
    par = fl.make_parameter(0.0)
    v = draw_vectors(rng, ctx3, 1, min_frac=0.1)[0]
    ct = fl.cartan_tensor(par, ctx3, v)
    assert np.max(np.abs(ct.c_lower)) < 1e-15


def test_cartan_fd_diagnostic(ctx3, rng):
    # agrees with the closed forms away from the axis and the plane, and
    # stays finite in the plane
    par = fl.make_parameter(0.9)
    v = draw_vectors(rng, ctx3, 1, min_frac=0.2, unit=True)[0]
    ct = fl.cartan_tensor(par, ctx3, v)
    assert np.max(np.abs(cartan_fd_diagnostic(par, ctx3, v) - ct.c_lower)) < 1e-6
    diag = cartan_fd_diagnostic(par, ctx3, np.array([0.7, 0.7, 0.0]))
    assert np.all(np.isfinite(diag))


def test_cartan_on_axis_raises(ctx3):
    par = fl.make_parameter(0.9)
    with pytest.raises(fl.OnAxisError):
        fl.cartan_tensor(par, ctx3, np.array([0.0, 0.0, 1.0]))
    # in the plane Z = 0 the tensor is finite, the limit of Z -> 0
    plane = np.array([1.0, 0.0, 0.0])
    ct = fl.cartan_tensor(par, ctx3, plane)
    near = fl.cartan_tensor(par, ctx3, np.array([1.0, 0.0, 1e-60])).c_lower
    assert np.abs(near - ct.c_lower).max() <= 1e-15 * np.abs(ct.c_lower).max()
    assert ct.c_vec_lower @ ct.c_vec_upper == pytest.approx(
        9 * par.g**2 / (4 * fl.kfun(par, ctx3, plane) ** 2), rel=1e-13
    )
    with pytest.raises(fl.ZeroVectorError):
        fl.cartan_tensor(par, ctx3, np.zeros(3))


# C_p^q_r against its chart reference; C_p C^p = N^2 g^2/(4 K^2) (relative)
test_cartan_mixed_and_contractions = on_grid([0.7, -1.1, 1.5], {"tensors.cartan_closed_forms": 1e-10})
# the rank-one-plus-angular structure of the Cartan tensor
test_cartan_algebraic_form = on_grid([0.7, -1.1, 1.5], {"tensors.cartan_algebraic_form": 1e-8})
# S_pqrs = C_tqr C_p^t_s - C_tqs C_p^t_r; level-surface curvature 1 + S* = h^2
test_curvature_tensor_constant = on_grid(
    GS, {"tensors.curvature_constancy": 1e-8, "core.parameter_identities": 1e-15})


def test_curvature_zero_at_g_zero(ctx3, rng):
    par = fl.make_parameter(0.0)
    v = draw_vectors(rng, ctx3, 1, min_frac=0.1)[0]
    assert np.max(np.abs(fl.curvature_tensor(par, ctx3, v))) < 1e-15


def test_tensor_stack_consistency(ctx3, rng):
    par = fl.make_parameter(1.1)
    v = draw_vectors(rng, ctx3, 1, min_frac=0.1)[0]
    stack = fl.tensor_stack(par, ctx3, v)
    assert np.allclose(stack.g_lower, fl.metric_tensor(par, ctx3, v))
    assert np.allclose(stack.h_lower, fl.angular_tensor(par, ctx3, v))
    assert np.allclose(stack.g_lower @ stack.g_upper, np.eye(3), atol=1e-12)
    assert np.allclose(stack.r_lower, stack.g_lower @ v)
