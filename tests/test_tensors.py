"""Tensor stack: gradient covector, metric tensor, angular tensor,
Cartan tensor and the constant-curvature structure."""

import numpy as np
import pytest

import finsleroid as fl
from finsleroid import numdiff
from finsleroid.oracles import (
    angular_block_reference,
    cartan_fd_diagnostic,
    cartan_mixed_reference,
)

GS = [0.0, 0.7, -1.1, 1.5]


def sample(rng, ctx, min_frac=0.0, unit=False):
    while True:
        v = rng.uniform(-1, 1, ctx.n)
        s = ctx.s_norm(v)
        if s < 0.3:
            continue
        if min_frac and (ctx.m(v) < min_frac * s or abs(v[-1]) < min_frac * s):
            continue
        return v / s if unit else v


@pytest.fixture(params=[2, 3, 5])
def ctx(request):
    if request.param == 3:
        return fl.MetricContext(3, np.array([[1.3, 0.2], [0.2, 0.9]]))
    return fl.MetricContext(request.param)


@pytest.mark.parametrize("g", GS)
def test_gradient_covector(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(20):
        v = sample(rng, ctx, unit=True)
        rl = fl.gradient_covector(par, ctx, v)
        k2 = fl.kfun(par, ctx, v) ** 2
        fd = 0.5 * numdiff.gradient(lambda x: fl.kfun(par, ctx, x) ** 2, v)
        assert np.max(np.abs(rl - fd)) < 1e-6 * max(k2, 1.0)
        # Euler identity for the 1-homogeneous norm
        assert rl @ v == pytest.approx(k2, rel=1e-13)
        # the covector is the metric contraction of the vector
        assert np.max(np.abs(fl.metric_tensor(par, ctx, v) @ v - rl)) < 1e-12


def test_gradient_euclidean(ctx, rng):
    par = fl.make_parameter(0.0)
    v = sample(rng, ctx)
    assert np.allclose(fl.gradient_covector(par, ctx, v), ctx.r_pq @ v, atol=1e-15)
    assert np.allclose(fl.metric_tensor(par, ctx, v), ctx.r_pq, atol=1e-15)
    assert np.allclose(fl.inverse_metric(par, ctx, v), ctx.r_pq_inv, atol=1e-14)


@pytest.mark.parametrize("g", GS)
def test_metric_is_half_hessian(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(10):
        v = sample(rng, ctx, min_frac=0.15)
        v = v / fl.kfun(par, ctx, v)
        gm = fl.metric_tensor(par, ctx, v)
        fd = 0.5 * numdiff.hessian(lambda x: fl.kfun(par, ctx, x) ** 2, v)
        assert np.max(np.abs(gm - fd)) / np.max(np.abs(gm)) < 1e-6
        assert np.allclose(gm, gm.T, atol=1e-14)


@pytest.mark.parametrize("g", GS)
def test_metric_determinant_and_inverse(g, ctx, rng):
    par = fl.make_parameter(g)
    det_r = float(np.linalg.det(ctx.r_ab))
    for _ in range(30):
        v = sample(rng, ctx)
        gm = fl.metric_tensor(par, ctx, v)
        sb = fl.scalar_bundle(par, ctx, v)
        det = float(np.linalg.det(gm))
        assert det > 0.0
        assert det == pytest.approx(sb.J ** (2 * ctx.n) * det_r, rel=1e-11)
        gu = fl.inverse_metric(par, ctx, v)
        assert np.max(np.abs(gu @ gm - np.eye(ctx.n))) < 1e-10
        assert gu[-1, -1] == pytest.approx((v[-1] ** 2 + sb.q**2) / sb.K**2, rel=1e-13)


@pytest.mark.parametrize("g", GS)
def test_metric_zero_homogeneity(g, ctx, rng):
    par = fl.make_parameter(g)
    v = sample(rng, ctx)
    for lam in (0.25, 3.0, 41.0):
        assert np.allclose(
            fl.metric_tensor(par, ctx, lam * v), fl.metric_tensor(par, ctx, v), atol=1e-12
        )


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


@pytest.mark.parametrize("g", GS)
def test_angular_tensor(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(20):
        v = sample(rng, ctx, min_frac=1e-9)
        ha = fl.angular_tensor(par, ctx, v)
        assert np.max(np.abs(ha - angular_block_reference(par, ctx, v))) < 1e-11
        assert np.max(np.abs(ha @ v)) < 1e-11
        if abs(v[-1]) > 0.2:
            w = ctx.m(v) / v[-1]
            det_h = float(np.linalg.det(ha[:-1, :-1]))
            det_g = float(np.linalg.det(fl.metric_tensor(par, ctx, v)))
            assert det_h == pytest.approx(det_g / fl.generating_v(par, w) ** 2, rel=1e-10)


def test_angular_euclidean_axis(ctx3):
    par = fl.make_parameter(0.0)
    ha = fl.angular_tensor(par, ctx3, np.array([0.0, 0.0, 1.0]))
    expected = np.diag([1.0, 1.0, 0.0])
    assert np.allclose(ha, expected, atol=1e-15)


@pytest.mark.parametrize("g", GS)
def test_cartan_vs_finite_differences(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(6):
        v = sample(rng, ctx, min_frac=0.15, unit=True)
        ct = fl.cartan_tensor(par, ctx, v)
        fd = 0.5 * numdiff.jacobian(lambda x: fl.metric_tensor(par, ctx, x), v)
        assert np.max(np.abs(ct.c_lower - fd)) < 1e-6 * max(np.max(np.abs(ct.c_lower)), 1.0)
        # total symmetry and radial annihilation
        assert np.max(np.abs(ct.c_lower - np.transpose(ct.c_lower, (1, 0, 2)))) < 1e-12
        assert np.max(np.abs(ct.c_lower - np.transpose(ct.c_lower, (0, 2, 1)))) < 1e-12
        assert np.max(np.abs(np.einsum("pqr,r->pq", ct.c_lower, v))) < 1e-10


def test_cartan_vanishes_at_g_zero(ctx3, rng):
    par = fl.make_parameter(0.0)
    v = sample(rng, ctx3, min_frac=0.1)
    ct = fl.cartan_tensor(par, ctx3, v)
    assert np.max(np.abs(ct.c_lower)) < 1e-15


def test_cartan_fd_diagnostic(ctx3, rng):
    # agrees with the closed forms off the chart boundary and stays
    # finite on the axis, where the closed forms refuse to evaluate
    par = fl.make_parameter(0.9)
    v = sample(rng, ctx3, min_frac=0.2, unit=True)
    ct = fl.cartan_tensor(par, ctx3, v)
    assert np.max(np.abs(cartan_fd_diagnostic(par, ctx3, v) - ct.c_lower)) < 1e-6
    diag = cartan_fd_diagnostic(par, ctx3, np.array([0.7, 0.7, 0.0]))
    assert np.all(np.isfinite(diag))


def test_cartan_on_axis_raises(ctx3):
    par = fl.make_parameter(0.9)
    with pytest.raises(fl.OnAxisError):
        fl.cartan_tensor(par, ctx3, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(fl.OnAxisError):
        fl.cartan_tensor(par, ctx3, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(fl.ZeroVectorError):
        fl.cartan_tensor(par, ctx3, np.zeros(3))


@pytest.mark.parametrize("g", [0.7, -1.1, 1.5])
def test_cartan_mixed_and_contractions(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(15):
        v = sample(rng, ctx, min_frac=1e-9)
        ct = fl.cartan_tensor(par, ctx, v)
        assert np.max(np.abs(ct.c_mixed - cartan_mixed_reference(par, ctx, v))) < 2e-10
        k2 = fl.kfun(par, ctx, v) ** 2
        cc = float(ct.c_vec_lower @ ct.c_vec_upper)
        assert cc == pytest.approx(ctx.n**2 * g**2 / (4 * k2), rel=1e-10)


@pytest.mark.parametrize("g", [0.7, -1.1, 1.5])
def test_cartan_algebraic_form(g, ctx, rng):
    # rank-one-plus-angular structure of the Cartan tensor
    par = fl.make_parameter(g)
    for _ in range(10):
        v = sample(rng, ctx, min_frac=1e-9, unit=True)
        ct = fl.cartan_tensor(par, ctx, v)
        ha = fl.angular_tensor(par, ctx, v)
        cv = ct.c_vec_lower
        cc = float(ct.c_vec_lower @ ct.c_vec_upper)
        alg = (
            np.einsum("pq,r->pqr", ha, cv)
            + np.einsum("pr,q->pqr", ha, cv)
            + np.einsum("qr,p->pqr", ha, cv)
            - np.einsum("p,q,r->pqr", cv, cv, cv) / cc
        ) / ctx.n
        assert np.max(np.abs(ct.c_lower - alg)) < 1e-8


@pytest.mark.parametrize("g", GS)
def test_curvature_tensor_constant(g, ctx, rng):
    par = fl.make_parameter(g)
    star = -0.25 * g * g
    for _ in range(10):
        v = sample(rng, ctx, min_frac=1e-9, unit=True)
        s4 = fl.curvature_tensor(par, ctx, v)
        ha = fl.angular_tensor(par, ctx, v)
        k2 = fl.kfun(par, ctx, v) ** 2
        closed = star * (np.einsum("pr,qs->pqrs", ha, ha) - np.einsum("ps,qr->pqrs", ha, ha)) / k2
        assert np.max(np.abs(s4 - closed)) < 1e-8
    # the implied level-surface curvature is 1 + S* = h^2
    assert 1.0 + star == pytest.approx(par.h**2, abs=1e-15)


def test_curvature_zero_at_g_zero(ctx3, rng):
    par = fl.make_parameter(0.0)
    v = sample(rng, ctx3, min_frac=0.1)
    assert np.max(np.abs(fl.curvature_tensor(par, ctx3, v))) < 1e-15


def test_tensor_stack_consistency(ctx3, rng):
    par = fl.make_parameter(1.1)
    v = sample(rng, ctx3, min_frac=0.1)
    stack = fl.tensor_stack(par, ctx3, v)
    assert np.allclose(stack.g_lower, fl.metric_tensor(par, ctx3, v))
    assert np.allclose(stack.h_lower, fl.angular_tensor(par, ctx3, v))
    assert np.allclose(stack.g_lower @ stack.g_upper, np.eye(3), atol=1e-12)
    assert np.allclose(stack.r_lower, stack.g_lower @ v)
