"""Closed-form geodesics, the deformed angle, scalar product, distance,
and the auxiliary gradient vectors."""

import math

import numpy as np
import pytest

import finsleroid as fl
from finsleroid import numdiff
from finsleroid.verify import draw_pairs, draw_vectors

GS = [0.0, 0.7, -1.1, 1.5]


@pytest.fixture(params=[2, 3, 5])
def ctx(request):
    if request.param == 3:
        return fl.MetricContext(3, np.array([[1.1, 0.25], [0.25, 0.85]]))
    return fl.MetricContext(request.param)


def chord_pair(rng, ctx, par):
    (t1,), (t2,) = draw_pairs(rng, ctx, par, 1, max_alpha=0.95 * math.pi)
    return t1, t2


def test_angle_frozen_example():
    # identity metric, e_x vs e_z at g = 1: euclidean pi/2 scaled by 1/h
    par = fl.make_parameter(1.0)
    ctx = fl.MetricContext(3)
    ex = np.array([1.0, 0.0, 0.0])
    ez = np.array([0.0, 0.0, 1.0])
    assert fl.angle(par, ctx, ex, ez) == pytest.approx(math.pi / math.sqrt(3.0), abs=1e-14)
    assert fl.scalar_product(par, ctx, ex, ez) == pytest.approx(
        math.cos(math.pi / math.sqrt(3.0)), abs=1e-14
    )


def test_angle_basics(ctx, rng):
    par = fl.make_parameter(0.9)
    t = draw_vectors(rng, ctx, 1)[0]
    assert fl.angle(par, ctx, t, 2.7 * t) == 0.0
    par0 = fl.make_parameter(0.0)
    t2 = draw_vectors(rng, ctx, 1)[0]
    expected = math.acos(
        np.clip(ctx.dot(t, t2) / (ctx.s_norm(t) * ctx.s_norm(t2)), -1.0, 1.0)
    )
    assert fl.angle(par0, ctx, t, t2) == pytest.approx(expected, abs=1e-13)
    with pytest.raises(fl.ZeroVectorError):
        fl.angle(par, ctx, np.zeros(ctx.n), t)


@pytest.mark.parametrize("g", GS)
def test_angle_additivity_and_scaling(g, ctx, rng):
    par = fl.make_parameter(g)
    for t1, t3 in zip(*draw_pairs(rng, ctx, par, 40, max_alpha=0.9 * math.pi)):
        lam, mu = rng.uniform(0.2, 2.0, 2)
        t2 = lam * t1 + mu * t3
        assert fl.angle(par, ctx, t1, t3) == pytest.approx(
            fl.angle(par, ctx, t1, t2) + fl.angle(par, ctx, t2, t3), abs=1e-10
        )
        assert fl.angle(par, ctx, lam * t1, mu * t3) == pytest.approx(
            fl.angle(par, ctx, t1, t3), abs=5e-13
        )


@pytest.mark.parametrize("g", GS)
def test_pair_invariants_identities(g, ctx, rng):
    par = fl.make_parameter(g)
    for t1, t2 in zip(*draw_pairs(rng, ctx, par, 40)):
        inv = fl.pair_invariants(par, ctx, t1, t2)
        assert ctx.dot(t1, inv.d1) == pytest.approx(0.0, abs=1e-11)
        assert ctx.dot(t2, inv.d2) == pytest.approx(0.0, abs=1e-11)
        assert ctx.dot(inv.d1, inv.d2) == pytest.approx(-inv.dot12, abs=1e-11)
        assert ctx.dot(inv.d1, inv.d1) == pytest.approx(inv.dot11, rel=1e-11)
        assert ctx.dot(inv.d2, inv.d2) == pytest.approx(inv.dot22, rel=1e-11)
        assert ctx.dot(inv.d1, t2) == pytest.approx(inv.u, rel=1e-11)
        assert ctx.dot(t1, inv.d2) == pytest.approx(inv.u, rel=1e-11)


def test_pair_invariants_collinear(ctx, rng):
    par = fl.make_parameter(0.4)
    t = draw_vectors(rng, ctx, 1)[0]
    with pytest.raises(fl.CollinearError):
        fl.pair_invariants(par, ctx, t, -1.7 * t)


def test_frozen_chord_2d():
    # right-angle unit chord at g = 0
    par = fl.make_parameter(0.0)
    ctx = fl.MetricContext(2)
    ch = fl.solve_chord(par, ctx, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert ch.a == pytest.approx(1.0, abs=1e-15)
    assert ch.s_end == pytest.approx(1.0, abs=1e-15)
    assert ch.alpha == pytest.approx(math.pi / 2, abs=1e-15)
    assert ch.delta_s == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert ch.b == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-15)


def test_chord_radial_and_degenerate(ctx, rng):
    par = fl.make_parameter(0.8)
    t = draw_vectors(rng, ctx, 1)[0]
    up = fl.solve_chord(par, ctx, t, 2.0 * t)
    assert up.b == pytest.approx(up.a, abs=1e-12)
    assert up.delta_s == pytest.approx(ctx.s_norm(t), rel=1e-13)
    down = fl.solve_chord(par, ctx, t, 0.5 * t)
    assert down.b == pytest.approx(-down.a, abs=1e-12)
    with pytest.raises(fl.DegenerateChordError):
        fl.solve_chord(par, ctx, t, t)


def test_chord_angle_domain():
    # antipodal-like pairs have no smooth chord
    par = fl.make_parameter(1.5)
    ctx = fl.MetricContext(2)
    t1 = np.array([1.0, 0.0])
    ang = 1.01 * math.pi * par.h  # alpha = 1.01 pi: beyond the chord domain
    t2 = np.array([math.cos(ang), math.sin(ang)])
    with pytest.raises(fl.NumericalDomainError):
        fl.solve_chord(par, ctx, t1, t2)
    # just inside the domain a chord still exists
    ang_in = 0.9 * math.pi * par.h
    ok = fl.solve_chord(par, ctx, t1, np.array([math.cos(ang_in), math.sin(ang_in)]))
    assert ok.delta_s > 0.0


@pytest.mark.parametrize("g", GS)
def test_chord_split_identities(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(40):
        t1, t2 = chord_pair(rng, ctx, par)
        ch = fl.solve_chord(par, ctx, t1, t2)
        c = math.sqrt(max(ch.a**2 - ch.b**2, 0.0))
        assert c * ch.delta_s == pytest.approx(
            ch.a * ch.s_end * math.sin(ch.alpha), abs=1e-11
        )
        assert ch.a**2 + ch.b * ch.delta_s == pytest.approx(
            ch.a * ch.s_end * math.cos(ch.alpha), abs=1e-11
        )
        assert ch.delta_s**2 == pytest.approx(
            fl.distance_squared(par, ctx, t1, t2), rel=1e-12
        )
        # rewritten radius identity S^2(ds) = ds^2 - a^2 + 2(a^2 + b ds)
        assert ch.radius(ch.delta_s) ** 2 == pytest.approx(
            ch.delta_s**2 - ch.a**2 + 2.0 * (ch.a**2 + ch.b * ch.delta_s), rel=1e-12
        )


@pytest.mark.parametrize("g", GS)
def test_geodesic_point_boundary_and_radius(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(25):
        t1, t2 = chord_pair(rng, ctx, par)
        ch = fl.solve_chord(par, ctx, t1, t2)
        assert np.max(np.abs(fl.geodesic_point(ch, 0.0) - t1)) < 1e-11
        assert np.max(np.abs(fl.geodesic_point(ch, ch.delta_s) - t2)) < 1e-11
        ss = np.linspace(0.0, ch.delta_s, 9)
        pts = fl.geodesic_point(ch, ss)
        radii = np.sqrt(np.einsum("ip,pq,iq->i", pts, ctx.r_pq, pts))
        assert np.max(np.abs(radii - ch.radius(ss))) < 1e-11
        # plane curve
        qmat = np.linalg.qr(np.stack([t1, t2], axis=1))[0]
        assert np.max(np.abs(pts - pts @ qmat @ qmat.T)) < 1e-11


def test_geodesic_straight_at_g_zero(ctx, rng):
    par = fl.make_parameter(0.0)
    t1, t2 = chord_pair(rng, ctx, par)
    ch = fl.solve_chord(par, ctx, t1, t2)
    ss = np.linspace(0.0, ch.delta_s, 11)
    pts = fl.geodesic_point(ch, ss)
    lerp = t1[None, :] + (t2 - t1)[None, :] * (ss / ch.delta_s)[:, None]
    assert np.max(np.abs(pts - lerp)) < 1e-12


@pytest.mark.parametrize("g", GS)
def test_geodesic_ode_residual(g, ctx, rng):
    par = fl.make_parameter(g)
    for t1, t2 in zip(*draw_pairs(rng, ctx, par, 6, unit=True, max_alpha=0.95 * math.pi)):
        ch = fl.solve_chord(par, ctx, t1, t2)
        c2 = ch.a**2 - ch.b**2
        for s in np.linspace(0.2, 0.8, 3) * ch.delta_s:
            if ch.radius(s) < 0.3 * max(ch.a, ch.s_end):
                continue
            d2 = numdiff.second_derivative(lambda x: fl.geodesic_point(ch, x), float(s))
            rhs = 0.25 * par.g**2 * c2 * fl.geodesic_point(ch, float(s)) / ch.radius(float(s)) ** 4
            assert np.max(np.abs(d2 - rhs)) < 1e-6


@pytest.mark.parametrize("g", GS)
def test_geodesic_velocity(g, ctx, rng):
    par = fl.make_parameter(g)
    for t1, t2 in zip(*draw_pairs(rng, ctx, par, 8, unit=True, max_alpha=0.95 * math.pi)):
        ch = fl.solve_chord(par, ctx, t1, t2)
        ss = np.linspace(0.1, 0.9, 6) * ch.delta_s
        pts = fl.geodesic_point(ch, ss)
        vel = fl.geodesic_velocity(ch, ss)
        for i, s in enumerate(ss):
            fd = numdiff.derivative(lambda x: fl.geodesic_point(ch, x), float(s))
            assert np.max(np.abs(vel[i] - fd)) < 1e-7
            assert ctx.dot(pts[i], vel[i]) == pytest.approx(ch.b + s, abs=1e-9)
            ng = fl.quasi_metric(par, ctx, pts[i]).n_lower
            assert vel[i] @ ng @ vel[i] == pytest.approx(1.0, abs=1e-8)


def test_geodesic_velocity_constant_at_g_zero(ctx, rng):
    par = fl.make_parameter(0.0)
    t1, t2 = chord_pair(rng, ctx, par)
    ch = fl.solve_chord(par, ctx, t1, t2)
    expected = (t2 - t1) / ch.delta_s
    for s in (0.0, 0.3 * ch.delta_s, ch.delta_s):
        assert np.max(np.abs(fl.geodesic_velocity(ch, s) - expected)) < 1e-12


def test_in_segment_flag(ctx, rng):
    par = fl.make_parameter(0.6)
    t1, t2 = chord_pair(rng, ctx, par)
    ch = fl.solve_chord(par, ctx, t1, t2)
    flags = fl.in_segment(ch, np.array([-0.1, 0.0, 0.5 * ch.delta_s, ch.delta_s, ch.delta_s + 0.1]))
    assert list(flags) == [False, True, True, True, False]
    # extrapolation is allowed and smooth
    out = fl.geodesic_point(ch, ch.delta_s * 1.2)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("g", GS)
def test_arc_length_equals_parameter(g, ctx, rng):
    par = fl.make_parameter(g)
    for _ in range(4):
        t1, t2 = chord_pair(rng, ctx, par)
        ch = fl.solve_chord(par, ctx, t1, t2)
        sg = np.linspace(0.0, ch.delta_s, 1001)
        pts = fl.geodesic_point(ch, sg)
        mid = 0.5 * (pts[1:] + pts[:-1])
        dp = pts[1:] - pts[:-1]
        s_mid = np.sqrt(np.einsum("ip,pq,iq->i", mid, ctx.r_pq, mid))
        dr2 = np.einsum("ip,pq,iq->i", dp, ctx.r_pq, dp)
        ldot = np.einsum("ip,pq,iq->i", mid, ctx.r_pq, dp) / s_mid
        length = float(np.sum(np.sqrt(dr2 / par.h**2 - 0.25 * par.big_g**2 * ldot**2)))
        assert length == pytest.approx(ch.delta_s, rel=1e-5)


@pytest.mark.parametrize("g", GS)
def test_length_gradients(g, ctx, rng):
    par = fl.make_parameter(g)
    for t1, t2 in zip(*draw_pairs(rng, ctx, par, 10, unit=True, max_alpha=0.95 * math.pi)):
        b1, b2 = fl.length_gradients(par, ctx, t1, t2)
        fd1 = 0.5 * numdiff.gradient(lambda x: fl.distance_squared(par, ctx, x, t2), t1)
        fd2 = 0.5 * numdiff.gradient(lambda y: fl.distance_squared(par, ctx, t1, y), t2)
        assert np.max(np.abs(b1 - fd1)) < 1e-6
        assert np.max(np.abs(b2 - fd2)) < 1e-6
        # Euler contraction of the 2-homogeneous squared length
        assert t1 @ b1 + t2 @ b2 == pytest.approx(
            fl.distance_squared(par, ctx, t1, t2), rel=1e-10
        )


def test_length_gradients_euclidean(ctx, rng):
    par = fl.make_parameter(0.0)
    t1, t2 = chord_pair(rng, ctx, par)
    b1, b2 = fl.length_gradients(par, ctx, t1, t2)
    assert np.max(np.abs(b1 - ctx.lower(t1 - t2))) < 1e-12
    assert np.max(np.abs(b2 - ctx.lower(t2 - t1))) < 1e-12


@pytest.mark.parametrize("g", GS)
def test_length_gradient_products(g, ctx, rng):
    par = fl.make_parameter(g)
    for t1, t2 in zip(*draw_pairs(rng, ctx, par, 15, max_alpha=0.95 * math.pi)):
        b1, b2 = fl.length_gradients(par, ctx, t1, t2)
        inv = fl.pair_invariants(par, ctx, t1, t2)
        s1, s2 = math.sqrt(inv.dot11), math.sqrt(inv.dot22)
        ca, sa = math.cos(inv.alpha), math.sin(inv.alpha)
        k2 = 1.0 / par.h**2 - 1.0
        assert ctx.codot(b1, b1) == pytest.approx(
            inv.dot11 + inv.dot22 - 2 * s1 * s2 * ca + k2 * inv.dot22 * sa**2, rel=1e-9, abs=1e-10
        )
        assert ctx.codot(b2, b2) == pytest.approx(
            inv.dot22 + inv.dot11 - 2 * s1 * s2 * ca + k2 * inv.dot11 * sa**2, rel=1e-9, abs=1e-10
        )
        x = s1 / s2 + s2 / s1
        expected12 = -((x - 2 * ca) * ca + k2 * sa**2) * inv.dot12 - (
            x - 2 * ca
        ) * inv.u * sa / par.h
        assert ctx.codot(b1, b2) == pytest.approx(expected12, rel=1e-9, abs=1e-9)


def test_length_gradients_vanish_at_coincidence(ctx, rng):
    par = fl.make_parameter(1.2)
    t1, probe = draw_vectors(rng, ctx, 2, unit=True)
    for eps in (1e-4, 1e-6):
        b1, b2 = fl.length_gradients(par, ctx, t1, t1 + eps * probe)
        assert np.max(np.abs(b1)) < 10 * eps
        assert np.max(np.abs(b2)) < 10 * eps


@pytest.mark.parametrize("g", [0.5, 1.5])
def test_fundamental_ratio_limit(g, ctx, rng):
    par = fl.make_parameter(g)
    for t, v in draw_vectors(rng, ctx, 40, unit=True).reshape(20, 2, ctx.n):
        t2 = t + 1e-4 * v
        inv = fl.pair_invariants(par, ctx, t, t2)
        ratio = (
            inv.dot11
            * inv.dot22
            / (par.h * math.sqrt(inv.dot11 * inv.dot22))
            * math.sin(inv.alpha)
            / inv.u
        )
        assert ratio == pytest.approx(1.0 / par.h**2, abs=1e-3)
    # the error shrinks along a shrinking sequence
    errs = []
    t, v = draw_vectors(rng, ctx, 2, unit=True)
    for eps in (1e-2, 1e-3, 1e-4):
        inv = fl.pair_invariants(par, ctx, t, t + eps * v)
        ratio = math.sqrt(inv.dot11 * inv.dot22) / par.h * math.sin(inv.alpha) / inv.u
        errs.append(abs(ratio - 1.0 / par.h**2))
    assert errs[2] < errs[1] < errs[0]


def test_perpendicular_pairs_look_acute():
    # cos(alpha) = 0 forces a euclidean angle of h pi/2 <= pi/2
    par = fl.make_parameter(1.2)
    ctx = fl.MetricContext(2)
    theta = par.h * math.pi / 2
    t1 = np.array([1.0, 0.0])
    t2 = np.array([math.cos(theta), math.sin(theta)])
    alpha = fl.angle(par, ctx, t1, t2)
    assert math.cos(alpha) == pytest.approx(0.0, abs=1e-14)
    assert ctx.dot(t1, t2) > 0.0  # acute from the euclidean standpoint


@pytest.mark.parametrize("lam, size", [(1e154, 1.0), (1e-154, 2.0)])
def test_chord_at_scale_extremes_follows_homogeneity(lam, size):
    # a^2 + s_end^2 leaves float64 beyond about 1e154: the chord constants,
    # of degree 1, are formed at an exact power-of-two scale instead
    par, ctx = fl.make_parameter(1.0), fl.MetricContext(3)
    t1, t2 = size * np.array([1.0, 0.0, 0.5]), size * np.array([0.2, 1.0, 0.4])
    ref = fl.solve_chord(par, ctx, t1, t2)
    ch = fl.solve_chord(par, ctx, lam * t1, lam * t2)
    for name in ("a", "s_end", "delta_s", "b"):
        assert getattr(ch, name) == pytest.approx(lam * getattr(ref, name), rel=1e-14), name
    assert ch.alpha == pytest.approx(ref.alpha, rel=1e-14)

