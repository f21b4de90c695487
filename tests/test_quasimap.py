"""Quasi-euclidean map, its Jacobians, the image metric, Christoffels,
curvature and the conformal flattening."""

import math

import numpy as np
import pytest

import finsleroid as fl
from finsleroid import numdiff

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
        return fl.MetricContext(3, np.array([[1.2, -0.3], [-0.3, 0.8]]))
    return fl.MetricContext(request.param)


def test_identity_map_at_g_zero(ctx, rng):
    par = fl.make_parameter(0.0)
    v = sample(rng, ctx)
    assert np.allclose(fl.sigma_map(par, ctx, v), v, atol=1e-15)
    assert np.allclose(fl.mu_map(par, ctx, v), v, atol=1e-15)
    assert np.allclose(fl.sigma_jacobian(par, ctx, v), np.eye(ctx.n), atol=1e-15)
    assert np.allclose(fl.mu_jacobian(par, ctx, v), np.eye(ctx.n), atol=1e-15)


@pytest.mark.parametrize("g", GS)
def test_image_norm_is_metric_function(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(40):
        v = sample(rng, ctx)
        t = fl.sigma_map(par, ctx, v)
        assert ctx.s_norm(t) == pytest.approx(fl.kfun(par, ctx, v), rel=1e-13)
    # level surface K = 1 lands on the unit sphere
    v = sample(rng, ctx)
    vn = v / fl.kfun(par, ctx, v)
    assert ctx.s_norm(fl.sigma_map(par, ctx, vn)) == pytest.approx(1.0, abs=1e-12)
    # homogeneity of degree 1
    assert np.allclose(
        fl.sigma_map(par, ctx, 2.5 * v), 2.5 * fl.sigma_map(par, ctx, v), atol=1e-13
    )


@pytest.mark.parametrize("g", GS)
def test_roundtrip(g, ctx, rng):
    par = fl.make_parameter(g)
    worst = 0.0
    for _ in range(250):
        v = sample(rng, ctx)
        t = sample(rng, ctx)
        worst = max(
            worst,
            float(np.max(np.abs(fl.mu_map(par, ctx, fl.sigma_map(par, ctx, v)) - v))),
            float(np.max(np.abs(fl.sigma_map(par, ctx, fl.mu_map(par, ctx, t)) - t))),
        )
    assert worst < 1e-10
    t = sample(rng, ctx)
    assert fl.kfun(par, ctx, fl.mu_map(par, ctx, t / ctx.s_norm(t))) == pytest.approx(
        1.0, abs=1e-12
    )


@pytest.mark.parametrize("g", GS)
def test_sigma_jacobian(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(8):
        v = sample(rng, ctx, min_frac=0.1, unit=True)
        sj = fl.sigma_jacobian(par, ctx, v)
        fd = numdiff.jacobian(lambda x: fl.sigma_map(par, ctx, x), v)
        assert np.max(np.abs(sj - fd)) < 1e-6
        sb = fl.scalar_bundle(par, ctx, v)
        assert float(np.linalg.det(sj)) == pytest.approx(
            par.h ** (ctx.n - 1) * sb.J**ctx.n, rel=1e-11
        )
        assert np.max(np.abs(sj @ v - fl.sigma_map(par, ctx, v))) < 1e-12


def test_sigma_jacobian_on_axis(ctx, rng):
    """On the axis the transverse 1/q term of sigma' vanishes.

    The map is conical across the axis, so a central difference there is
    first order in its step: the Jacobian is probed with a 1e-8 step, and
    the mixed second difference of <R, S> with a 1e-5 one.
    """
    par = fl.make_parameter(0.8)
    for z in (0.7, -0.7):
        axis = np.zeros(ctx.n)
        axis[-1] = z
        sj = fl.sigma_jacobian(par, ctx, axis)
        fd = numdiff.jacobian(lambda x: fl.sigma_map(par, ctx, x), axis, scale=1e-8)
        assert np.max(np.abs(sj - fd)) < 1e-6
        s_vec = sample(rng, ctx, min_frac=0.2, unit=True)
        big_g = fl.finsler_two_vector_tensor(par, ctx, axis, s_vec)
        fd = numdiff.mixed_second(
            lambda x, y: fl.finsler_product(par, ctx, x, y).product, axis, s_vec, scale=1e-5
        )
        assert np.max(np.abs(big_g - fd)) < 1e-4
        # mu' has its limit on the axis: the inverse of sigma' there
        t = fl.sigma_map(par, ctx, axis)
        inverse = np.linalg.inv(fl.sigma_jacobian(par, ctx, fl.mu_map(par, ctx, t)))
        assert np.max(np.abs(fl.mu_jacobian(par, ctx, t) - inverse)) <= 1e-15 * np.max(np.abs(inverse))


@pytest.mark.parametrize("g", GS)
def test_mu_jacobian(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(25):
        v = sample(rng, ctx, min_frac=0.05)
        t = fl.sigma_map(par, ctx, v)
        sj = fl.sigma_jacobian(par, ctx, v)
        mj = fl.mu_jacobian(par, ctx, t)
        assert np.max(np.abs(mj @ sj - np.eye(ctx.n))) < 1e-8
        assert np.max(np.abs(mj @ t - v)) < 1e-12
        # covector pullbacks
        rl = fl.gradient_covector(par, ctx, v)
        tl = ctx.lower(t)
        assert np.max(np.abs(rl @ mj - tl)) < 1e-11
        assert np.max(np.abs(tl @ sj - rl)) < 1e-11


@pytest.mark.parametrize("g", GS)
def test_quasi_metric_structure(g, ctx, rng):
    par = fl.make_parameter(g)
    det_r = float(np.linalg.det(ctx.r_ab))
    for _ in range(30):
        t = sample(rng, ctx)
        qg = fl.quasi_metric(par, ctx, t)
        s = ctx.s_norm(t)
        l_up = t / s
        l_low = ctx.lower(l_up)
        assert np.max(np.abs(qg.n_lower @ qg.n_upper - np.eye(ctx.n))) < 1e-12
        assert float(np.linalg.det(qg.n_lower)) == pytest.approx(
            par.h ** (2 * (1 - ctx.n)) * det_r, rel=1e-11
        )
        assert np.max(np.abs(qg.h_lower @ l_up)) < 1e-14
        assert np.max(np.abs(qg.n_lower @ l_up - l_low)) < 1e-14
        assert t @ qg.n_lower @ t == pytest.approx(s * s, rel=1e-14)
        assert np.max(np.abs(qg.h_lower - par.h**2 * (qg.n_lower - np.outer(l_low, l_low)))) < 1e-14


@pytest.mark.parametrize("g", GS)
def test_metric_pullback(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(15):
        v = sample(rng, ctx, min_frac=0.05)
        t = fl.sigma_map(par, ctx, v)
        sj = fl.sigma_jacobian(par, ctx, v)
        qg = fl.quasi_metric(par, ctx, t)
        pulled = np.einsum("rp,sq,rs->pq", sj, sj, qg.n_lower)
        assert np.max(np.abs(pulled - fl.metric_tensor(par, ctx, v))) < 1e-9
        pulled_h = np.einsum("rp,sq,rs->pq", sj, sj, qg.h_lower) / par.h**2
        assert np.max(np.abs(pulled_h - fl.angular_tensor(par, ctx, v))) < 1e-9
        pushed = np.einsum("rp,sq,pq->rs", sj, sj, fl.inverse_metric(par, ctx, v))
        assert np.max(np.abs(pushed - qg.n_upper)) < 1e-9


@pytest.mark.parametrize("g", GS)
def test_angle_image_and_units(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(25):
        v = sample(rng, ctx, min_frac=0.05)
        t = fl.sigma_map(par, ctx, v)
        assert fl.phi_angle(par, ctx, t) == pytest.approx(
            fl.scalar_bundle(par, ctx, v).phi, abs=1e-12
        )
        sj = fl.sigma_jacobian(par, ctx, v)
        mj = fl.mu_jacobian(par, ctx, t)
        l_up = t / ctx.s_norm(t)
        lvec = v / fl.kfun(par, ctx, v)
        assert np.max(np.abs(sj @ lvec - l_up)) < 1e-12
        assert np.max(np.abs(mj @ l_up - lvec)) < 1e-12


@pytest.mark.parametrize("g", GS)
def test_christoffel_identities(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(20):
        t = sample(rng, ctx)
        nc = fl.quasi_metric(par, ctx, t).christoffel
        assert np.max(np.abs(np.einsum("p,prq->rq", t, nc))) < 1e-13
        assert np.max(np.abs(np.einsum("pss->p", nc))) < 1e-13
        assert np.max(np.abs(np.einsum("tsr,ptq->psrq", nc, nc))) < 1e-13


@pytest.mark.parametrize("g", [0.7, -1.1, 1.5])
def test_metric_derivative_closed_form(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(5):
        t = sample(rng, ctx, unit=True)
        fd = numdiff.jacobian(lambda x: fl.quasi_metric(par, ctx, x).n_lower, t)
        assert np.max(np.abs(fd - fl.quasi_metric_derivative(par, ctx, t))) < 1e-7


@pytest.mark.parametrize("g", GS)
def test_curvature_closed_vs_finite_difference(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(5):
        t = sample(rng, ctx, unit=True)
        qg = fl.quasi_metric(par, ctx, t)
        dg = numdiff.jacobian(lambda x: fl.quasi_metric(par, ctx, x).christoffel, t)
        nc = qg.christoffel
        mixed = (
            dg
            - np.transpose(dg, (0, 1, 3, 2))
            + np.einsum("pwq,wrs->prqs", nc, nc)
            - np.einsum("pws,wrq->prqs", nc, nc)
        )
        lowered = np.einsum("rw,pwqs->prqs", ctx.r_pq, mixed)
        assert np.max(np.abs(lowered - qg.curvature)) < 1e-6
        s = ctx.s_norm(t)
        for axis_idx in range(4):
            contracted = np.tensordot(qg.curvature, t / s, axes=([axis_idx], [0]))
            assert np.max(np.abs(contracted)) < 1e-13


@pytest.mark.parametrize("g", GS)
def test_conformal_flattening(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(20):
        t = sample(rng, ctx)
        img, f = fl.conformal_flatten(par, ctx, t)
        assert np.allclose(img, f * t / par.h, atol=1e-14)
        kj = fl.conformal_jacobian(par, ctx, t)
        qg = fl.quasi_metric(par, ctx, t)
        push = np.einsum("pr,qs,rs->pq", kj, kj, qg.n_upper)
        assert np.max(np.abs(push - f * f * ctx.r_pq_inv)) < 1e-10
    # FD oracle for the analytic jacobian
    t = sample(rng, ctx, unit=True)
    kj = fl.conformal_jacobian(par, ctx, t)
    fd = numdiff.jacobian(lambda x: fl.conformal_flatten(par, ctx, x)[0], t)
    assert np.max(np.abs(kj - fd)) < 1e-7


def test_conformal_special_values(ctx, rng):
    par0 = fl.make_parameter(0.0)
    t = sample(rng, ctx)
    img, f = fl.conformal_flatten(par0, ctx, t)
    assert f == 1.0
    assert np.allclose(img, t, atol=1e-15)
    par = fl.make_parameter(1.2)
    t = t / ctx.s_norm(t) * math.sqrt(2.0)
    _, f = fl.conformal_flatten(par, ctx, t)
    assert f == pytest.approx(1.0, abs=1e-14)


def _spd_context(rng, n):
    a = rng.normal(size=(n - 1, n - 1))
    return fl.MetricContext(n, a @ a.T + (n - 1) * np.eye(n - 1))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("g", GS)
def test_mu_map_rows_match_single_vectors(g, n, rng):
    par = fl.make_parameter(g)
    ctx = _spd_context(rng, n)
    T = rng.uniform(-1, 1, (24, n))
    T[0, :-1] = 0.0  # on the axis
    T[1, -1] = 0.0  # in the plane
    single = np.array([fl.mu_map(par, ctx, t) for t in T])
    ulp2 = 2 * np.spacing(np.abs(single).max(axis=-1, keepdims=True))
    assert np.all(np.abs(fl.mu_map(par, ctx, T) - single) <= ulp2)
    stacked = fl.mu_map(par, ctx, T[:8].reshape(2, 4, n))
    assert stacked.shape == (2, 4, n)
    assert np.all(np.abs(stacked - single[:8].reshape(2, 4, n)) <= ulp2[:8].reshape(2, 4, 1))
    # sigma inverts mu row by row
    back = np.array([fl.sigma_map(par, ctx, r) for r in fl.mu_map(par, ctx, T)])
    assert np.allclose(back, T, rtol=0.0, atol=1e-12)


def test_mu_map_rows_rejected(ctx):
    par = fl.make_parameter(0.7)
    n = ctx.n
    T = np.ones((3, n))
    T[2] = 0.0
    with pytest.raises(fl.ZeroVectorError, match=r"\(row 2\)"):
        fl.mu_map(par, ctx, T)
    T3 = np.ones((2, 4, n))
    T3[1, 2] = 0.0
    with pytest.raises(fl.ZeroVectorError, match=r"\(row \(1, 2\)\)"):
        fl.mu_map(par, ctx, T3)
    for bad in (np.nan, np.inf):
        T = np.ones((3, n))
        T[2] = 0.0
        T[1, 0] = bad  # the non-finite row is reported before the zero row
        with pytest.raises(fl.OutOfRangeError, match=r"\(row 1\)"):
            fl.mu_map(par, ctx, T)
    for shape in ((3, n + 1), (n - 1,), ()):
        with pytest.raises(fl.OutOfRangeError):
            fl.mu_map(par, ctx, np.ones(shape))
    # the chord takes pairs stacked as (..., N): each row is its pair's chord
    T1, T2 = np.ones((2, n)), np.eye(n)[:2]
    rows = fl.solve_chord(par, ctx, T1, T2)
    for i in range(2):
        one = fl.solve_chord(par, ctx, T1[i], T2[i])
        assert [getattr(rows, f)[i] for f in ("a", "s_end", "alpha", "delta_s", "b")] == [
            one.a, one.s_end, one.alpha, one.delta_s, one.b]
        np.testing.assert_array_equal(np.stack([rows.t1[i], rows.t2[i]]), np.stack([one.t1, one.t2]))


def test_mu_near_two_raises_typed_errors():
    # at g = 1.99999999 (G ~ 2e4) k = exp(G phi/2) leaves float64 off the
    # plane: a typed error naming the row, with no numpy warning on the way
    # (pytest turns those into errors); mu and its jacobian share the path
    par, ctx = fl.make_parameter(1.99999999), fl.MetricContext(3)
    inside = np.array([1.0, 0.0, 0.01])  # phi ~ 0.01: k ~ e^100
    for fn in (fl.mu_map, fl.mu_jacobian):
        assert np.all(np.isfinite(fn(par, ctx, inside)))
        for t, k in (((0.001, 0.0, -1.0), "0.0"), ((0.001, 0.0, 1.0), "inf")):
            with pytest.raises(fl.NumericalDomainError, match=rf"k = exp\(G phi/2\) = {k} is not a finite normal"):
                fn(par, ctx, np.array(t))
            with pytest.raises(fl.NumericalDomainError, match=r"\(row 1\)"):
                fn(par, ctx, np.stack([inside, t]))
    # k normal, tiny S: h^2 k S^2 would underflow to 0, but the Jacobian is
    # formed from degree-0 factors and keeps its homogeneity
    par = fl.make_parameter(1.9996)
    t = np.array([0.01, 0.0, -1.0])
    np.testing.assert_allclose(fl.mu_map(par, ctx, 1e-150 * t), 1e-150 * fl.mu_map(par, ctx, t), rtol=1e-13)
    np.testing.assert_allclose(fl.mu_jacobian(par, ctx, 1e-150 * t), fl.mu_jacobian(par, ctx, t), rtol=1e-13)
    # k normal, result beyond float64 (G = 1000, k = e^-700): a typed error
    par = fl.make_parameter(2000.0 / math.sqrt(1_000_004.0))
    t = np.array([math.cos(-1.4), 0.0, math.sin(-1.4)])
    for fn, what in ((fl.mu_map, "mu map"), (fl.mu_jacobian, "mu Jacobian")):
        with pytest.raises(fl.NumericalDomainError, match=rf"{what} is not finite at this scale \(row 1\)"):
            fn(par, ctx, np.stack([inside, 1e3 * t]))

