"""Pullback machinery: scalar product, two-vector tensor, gradients,
geodesics and axis angles in the original coordinates."""

import math
import sys

import numpy as np
import pytest

import finsleroid as fl
from finsleroid import numdiff
from finsleroid.verify import draw_vector

GS = [0.0, 0.7, -1.1, 1.5]


@pytest.fixture(params=[2, 3, 5])
def ctx(request):
    if request.param == 3:
        return fl.MetricContext(3, np.array([[1.2, 0.15], [0.15, 0.95]]))
    return fl.MetricContext(request.param)


def image_pair(rng, ctx, par, min_frac=0.0, max_alpha=0.9 * math.pi):
    while True:
        r_vec = draw_vector(rng, ctx, min_frac=min_frac, unit=True)
        s_vec = draw_vector(rng, ctx, min_frac=min_frac, unit=True)
        try:
            al = fl.finsler_angle(par, ctx, r_vec, s_vec)
        except fl.FinsleroidError:
            continue
        if al >= max_alpha or al < 1e-3:
            continue
        return r_vec, s_vec


@pytest.mark.parametrize("g", GS)
def test_product_pullback_consistency(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(25):
        r_vec, s_vec = image_pair(rng, ctx, par)
        pp = fl.finsler_product(par, ctx, r_vec, s_vec)
        t1 = fl.sigma_map(par, ctx, r_vec)
        t2 = fl.sigma_map(par, ctx, s_vec)
        assert pp.product == pytest.approx(fl.scalar_product(par, ctx, t1, t2), abs=1e-10)
        assert pp.alpha == pytest.approx(fl.angle(par, ctx, t1, t2), abs=1e-10)


def test_product_special_values(ctx, rng):
    par = fl.make_parameter(1.1)
    r_vec = draw_vector(rng, ctx)
    assert fl.finsler_product(par, ctx, r_vec, r_vec).product == pytest.approx(
        fl.kfun(par, ctx, r_vec) ** 2, rel=1e-12
    )
    par0 = fl.make_parameter(0.0)
    s_vec = draw_vector(rng, ctx)
    assert fl.finsler_product(par0, ctx, r_vec, s_vec).product == pytest.approx(
        ctx.dot(r_vec, s_vec), rel=1e-12, abs=1e-12
    )


@pytest.mark.parametrize("g", GS)
def test_product_homogeneity_and_w(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(15):
        r_vec, s_vec = image_pair(rng, ctx, par)
        pp = fl.finsler_product(par, ctx, r_vec, s_vec)
        lam, mu = rng.uniform(0.3, 2.5, 2)
        scaled = fl.finsler_product(par, ctx, lam * r_vec, mu * s_vec)
        assert scaled.product == pytest.approx(lam * mu * pp.product, rel=1e-11, abs=1e-11)
        assert pp.w >= 0.0
        assert pp.m_r @ r_vec == pytest.approx(0.0, abs=1e-12)
        if pp.s_r is not None:
            assert pp.s_r @ r_vec == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("g", [0.7, -1.1, 1.5])
def test_m_vector_simplification(g, ctx, rng):
    # simplified components equal the raw display away from the axis
    par = fl.make_parameter(g)
    for _ in range(15):
        r_vec, s_vec = image_pair(rng, ctx, par, min_frac=0.05)
        mv = fl.m_vector(par, ctx, r_vec, s_vec)
        sb_r = fl.scalar_bundle(par, ctx, r_vec)
        sb_s = fl.scalar_bundle(par, ctx, s_vec)
        dot_bold = float(r_vec[:-1] @ ctx.r_ab @ s_vec[:-1])
        num = sb_r.A * sb_s.A + par.h**2 * dot_bold
        h2mn = sb_r.B * sb_s.A - num * sb_r.A
        assert par.h**2 * mv[-1] == pytest.approx(h2mn, rel=1e-10, abs=1e-10)
        h2ma = (
            sb_r.B * (0.5 * par.g * r_vec[:-1] / sb_r.q * sb_s.A + par.h**2 * s_vec[:-1])
            - num * (0.5 * par.g * r_vec[-1] + sb_r.q) * r_vec[:-1] / sb_r.q
        ) @ ctx.r_ab
        assert np.max(np.abs(par.h**2 * mv[:-1] - h2ma)) < 1e-10


@pytest.mark.parametrize("g", [0.7, -1.1, 1.5])
def test_product_gradients_fd(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(4):
        r_vec, s_vec = image_pair(rng, ctx, par, min_frac=0.15)
        d_r, d_s = fl.product_gradients(par, ctx, r_vec, s_vec)
        fprod = lambda x, y: fl.finsler_product(par, ctx, x, y).product
        assert np.max(np.abs(d_r - numdiff.gradient(lambda x: fprod(x, s_vec), r_vec))) < 1e-6
        assert np.max(np.abs(d_s - numdiff.gradient(lambda y: fprod(r_vec, y), s_vec))) < 1e-6


def test_product_gradients_euclidean(ctx, rng):
    par = fl.make_parameter(0.0)
    r_vec, s_vec = image_pair(rng, ctx, par)
    d_r, d_s = fl.product_gradients(par, ctx, r_vec, s_vec)
    assert np.max(np.abs(d_r - ctx.lower(s_vec))) < 1e-12
    assert np.max(np.abs(d_s - ctx.lower(r_vec))) < 1e-12


def test_product_gradients_evaluates_each_bundle_once(ctx, rng, monkeypatch):
    real = fl.scalar_bundle
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    par = fl.make_parameter(0.9)
    r_vec, s_vec = image_pair(rng, ctx, par)
    for name, mod in list(sys.modules.items()):
        if name.startswith("finsleroid.") and hasattr(mod, "scalar_bundle"):
            monkeypatch.setattr(mod, "scalar_bundle", counting)
    fl.product_gradients(par, ctx, r_vec, s_vec)
    assert len(calls) == 2


@pytest.mark.parametrize("g", GS)
def test_two_vector_pullback(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(8):
        r_vec, s_vec = image_pair(rng, ctx, par, min_frac=0.05)
        big_g = fl.finsler_two_vector_tensor(par, ctx, r_vec, s_vec)
        t1 = fl.sigma_map(par, ctx, r_vec)
        t2 = fl.sigma_map(par, ctx, s_vec)
        sj_r = fl.sigma_jacobian(par, ctx, r_vec)
        sj_s = fl.sigma_jacobian(par, ctx, s_vec)
        ntv = fl.two_vector_metric(par, ctx, t1, t2).n_lower
        assert np.max(np.abs(big_g - np.einsum("rp,sq,rs->pq", sj_r, sj_s, ntv))) < 1e-8
        assert np.max(np.abs(big_g - fl.finsler_two_vector_tensor(par, ctx, s_vec, r_vec).T)) < 1e-7


def test_two_vector_fd_and_euclidean(ctx, rng):
    par = fl.make_parameter(1.2)
    r_vec, s_vec = image_pair(rng, ctx, par, min_frac=0.1)
    big_g = fl.finsler_two_vector_tensor(par, ctx, r_vec, s_vec)
    fd = numdiff.mixed_second(
        lambda x, y: fl.finsler_product(par, ctx, x, y).product, r_vec, s_vec
    )
    assert np.max(np.abs(big_g - fd)) < 1e-5
    par0 = fl.make_parameter(0.0)
    r0, s0 = image_pair(rng, ctx, par0)
    assert np.max(np.abs(fl.finsler_two_vector_tensor(par0, ctx, r0, s0) - ctx.r_pq)) < 1e-9


@pytest.mark.parametrize("g", [0.8, 1.5])
def test_two_vector_coincidence(g, ctx, rng):
    par = fl.make_parameter(g)
    r_vec = draw_vector(rng, ctx, min_frac=0.15, unit=True)
    v = 0.3 * draw_vector(rng, ctx, unit=True)
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        big_g = fl.finsler_two_vector_tensor(par, ctx, r_vec, r_vec + eps * v)
        errs.append(float(np.max(np.abs(big_g - fl.metric_tensor(par, ctx, r_vec)))))
    assert errs[2] < errs[1] < errs[0]


@pytest.mark.parametrize("g", GS)
def test_finsler_geodesic(g, ctx, rng):
    par = fl.make_parameter(g)
    done = 0
    while done < 4:
        r1 = draw_vector(rng, ctx)
        r2 = draw_vector(rng, ctx)
        try:
            ch = fl.finsler_chord(par, ctx, r1, r2)
        except fl.FinsleroidError:
            continue
        done += 1
        pts = fl.finsler_geodesic(par, ctx, r1, r2, np.array([0.0, ch.delta_s]))
        assert np.max(np.abs(pts[0] - r1)) < 1e-9
        assert np.max(np.abs(pts[-1] - r2)) < 1e-9
    # straight at g = 0
    par0 = fl.make_parameter(0.0)
    r1 = draw_vector(rng, ctx)
    r2 = draw_vector(rng, ctx)
    try:
        ch = fl.finsler_chord(par0, ctx, r1, r2)
        mids = fl.finsler_geodesic(par0, ctx, r1, r2, np.array([0.5 * ch.delta_s]))
        lerp = r1 + (r2 - r1) * 0.5
        assert np.max(np.abs(mids[0] - lerp)) < 1e-10
    except fl.FinsleroidError:
        pass


@pytest.mark.parametrize("g", [0.9, -1.3])
def test_finsler_arc_length(g, ctx, rng):
    par = fl.make_parameter(g)
    done = 0
    while done < 2:
        r1 = draw_vector(rng, ctx)
        r2 = draw_vector(rng, ctx)
        try:
            ch = fl.finsler_chord(par, ctx, r1, r2)
        except fl.FinsleroidError:
            continue
        if math.sqrt(max(ch.a**2 - ch.b**2, 0.0)) < 0.3 * max(ch.a, ch.s_end):
            continue  # quadrature oracle needs the path away from the origin
        done += 1
        segs = 2000
        pts = fl.finsler_geodesic(par, ctx, r1, r2, np.linspace(0.0, ch.delta_s, segs + 1))
        mid = 0.5 * (pts[1:] + pts[:-1])
        dp = pts[1:] - pts[:-1]
        total = 0.0
        for i in range(segs):
            gm = fl.metric_tensor(par, ctx, mid[i])
            total += math.sqrt(max(float(dp[i] @ gm @ dp[i]), 0.0))
        assert total == pytest.approx(ch.delta_s, rel=2e-5)


@pytest.mark.parametrize("g", GS)
def test_axis_angles(g, ctx, rng):
    par = fl.make_parameter(g)
    e_n = np.zeros(ctx.n)
    e_n[-1] = 1.0
    for _ in range(20):
        r_vec = draw_vector(rng, ctx)
        a_axis, a_plane = fl.axis_angles(par, ctx, r_vec)
        assert 0.0 <= a_axis <= math.pi / par.h
        assert 0.0 <= a_plane <= math.pi / par.h
        assert a_axis == pytest.approx(fl.finsler_angle(par, ctx, r_vec, e_n), abs=1e-10)
    assert fl.axis_angles(par, ctx, e_n)[0] == pytest.approx(0.0, abs=1e-14)
    # euclidean polar angle at g = 0
    par0 = fl.make_parameter(0.0)
    r_vec = draw_vector(rng, ctx)
    polar = math.acos(np.clip(r_vec[-1] / ctx.s_norm(r_vec), -1, 1))
    assert fl.axis_angles(par0, ctx, r_vec)[0] == pytest.approx(polar, abs=1e-12)


def test_collinear_images_rejected(ctx, rng):
    par = fl.make_parameter(0.9)
    r_vec = draw_vector(rng, ctx)
    with pytest.raises(fl.CollinearError):
        fl.finsler_two_vector_tensor(par, ctx, r_vec, 1.5 * r_vec)
    pp = fl.finsler_product(par, ctx, r_vec, 1.5 * r_vec)
    assert pp.s_r is None and pp.g_lower is None
