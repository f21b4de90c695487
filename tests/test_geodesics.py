"""Closed-form geodesics, the deformed angle, scalar product, distance,
and the auxiliary gradient vectors.  Their identities are the
``geodesics`` checks of ``finsleroid verify``, run on this file's grid (see
checkgrid); the tests here add frozen examples, limits and errors."""

import math

import numpy as np
import pytest

import finsleroid as fl
from finsleroid.verify import draw_pairs, draw_vectors

from checkgrid import on_grid, verified

GS = [0.0, 0.7, -1.1, 1.5]


@pytest.fixture(params=[2, 3, 5])
def ctx(request):
    if request.param == 3:
        return fl.MetricContext(3, np.array([[1.1, 0.25], [0.25, 0.85]]))
    return fl.MetricContext(request.param)


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


def test_sine_floor_only_at_whitened_rows(rng):
    # at the identity metric a sine far below eps keeps its relative
    # accuracy; where the rows are whitened, vectors proportional as given
    # read 0, at an ill-conditioned dense r_ab too, and a diagonal r_ab,
    # whose whitening rounds each component on its own, has the floor N eps
    par = fl.make_parameter(0.9)
    ctx = fl.MetricContext(3)
    assert ctx.sine_floor == 0.0
    t1, t2 = np.array([1.0, 0.0, 0.5]), np.array([1.0, 1e-17, 0.5])
    sine = np.linalg.norm(np.cross(t1, t2)) / (np.linalg.norm(t1) * np.linalg.norm(t2))
    assert fl.angle(par, ctx, t1, t2) == pytest.approx(math.asin(sine) / par.h, rel=1e-12)
    c, s = math.cos(0.6), math.sin(0.6)
    rot = np.array([[c, -s], [s, c]])
    dense = fl.MetricContext(3, rot @ np.diag([1e3, 1e-3]) @ rot.T)
    for t in draw_vectors(rng, dense, 50):
        assert fl.angle(par, dense, t, 2.7 * t) == 0.0
    for scale in (1e200, 1e-200, 4.0):
        assert fl.MetricContext(3, scale * np.eye(2)).sine_floor == 3 * np.finfo(float).eps


# additivity for coplanar triples, scale invariance (to rounding)
test_angle_additivity_and_scaling = on_grid(GS, {"geodesics.angle_properties": 5e-13})
# the d-vector battery
test_pair_invariants_identities = on_grid(GS, {"geodesics.pair_invariants": 1e-13})


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


# sin/cos split, Delta s^2 = |t2 (-) t1|^2 (relative), the radius at Delta s
test_chord_split_identities = on_grid(GS, {"geodesics.chord_constants": 1e-12})
# t(0) = t1, t(Delta s) = t2, radius S(s), plane curve
test_geodesic_point_boundary_and_radius = on_grid(GS, {"geodesics.endpoints": 1e-11})


def test_geodesic_straight_at_g_zero(ctx, rng):
    par = fl.make_parameter(0.0)
    (t1,), (t2,) = draw_pairs(rng, ctx, par, 1, max_alpha=0.95 * math.pi)
    ch = fl.solve_chord(par, ctx, t1, t2)
    ss = np.linspace(0.0, ch.delta_s, 11)
    pts = fl.geodesic_point(ch, ss)
    lerp = t1[None, :] + (t2 - t1)[None, :] * (ss / ch.delta_s)[:, None]
    assert np.max(np.abs(pts - lerp)) < 1e-12


test_geodesic_ode_residual = on_grid(GS, {"geodesics.ode_residual": 1e-6})
# unit speed, t . t' = b + s, and the FD oracle (folded in at 1e-2) to 1e-7
test_geodesic_velocity = on_grid(GS, {"geodesics.velocity": 1e-9})


def test_geodesic_velocity_constant_at_g_zero(ctx, rng):
    par = fl.make_parameter(0.0)
    (t1,), (t2,) = draw_pairs(rng, ctx, par, 1, max_alpha=0.95 * math.pi)
    ch = fl.solve_chord(par, ctx, t1, t2)
    expected = (t2 - t1) / ch.delta_s
    for s in (0.0, 0.3 * ch.delta_s, ch.delta_s):
        assert np.max(np.abs(fl.geodesic_velocity(ch, s) - expected)) < 1e-12


def test_in_segment_flag(ctx, rng):
    par = fl.make_parameter(0.6)
    (t1,), (t2,) = draw_pairs(rng, ctx, par, 1, max_alpha=0.95 * math.pi)
    ch = fl.solve_chord(par, ctx, t1, t2)
    flags = fl.in_segment(ch, np.array([-0.1, 0.0, 0.5 * ch.delta_s, ch.delta_s, ch.delta_s + 0.1]))
    assert list(flags) == [False, True, True, True, False]
    # extrapolation is allowed and smooth
    out = fl.geodesic_point(ch, ch.delta_s * 1.2)
    assert np.all(np.isfinite(out))


test_arc_length_equals_parameter = on_grid(GS, {"geodesics.arc_length": 1e-5})


@pytest.mark.parametrize("g", GS)
def test_length_gradients(g, ctx, rng):
    # the FD oracle, folded into the check at 1e-3, to 1e-6; the Euler
    # contraction, which the check holds only at its total, to 1e-10 relative
    verified(g, ctx, {"geodesics.length_gradients": 1e-9})
    par = fl.make_parameter(g)
    t1, t2 = draw_pairs(rng, ctx, par, 10, unit=True, max_alpha=0.95 * math.pi)
    b1, b2 = fl.length_gradients(par, ctx, t1, t2)
    euler = np.einsum("ip,ip->i", t1, b1) + np.einsum("ip,ip->i", t2, b2)
    assert np.abs(euler / fl.distance_squared(par, ctx, t1, t2) - 1.0).max() < 1e-10


def test_length_gradients_euclidean(ctx, rng):
    par = fl.make_parameter(0.0)
    (t1,), (t2,) = draw_pairs(rng, ctx, par, 1, max_alpha=0.95 * math.pi)
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
    verified(g, ctx, {"geodesics.fundamental_limit": 1e-3})
    par = fl.make_parameter(g)
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



@pytest.mark.parametrize("k", [-500, -200, 200, 511])
def test_chord_points_at_scale_extremes_follow_homogeneity(k):
    # S^2(s) = a^2 + 2 b s + s^2 and the interpolation terms leave float64
    # near 1e+-154: the chord is evaluated at 2^-e (a, b, s), so a pair
    # scaled by 2^k gives the points (degree 1), radii (1) and velocities
    # (0) of the unscaled pair scaled exactly
    par, ctx = fl.make_parameter(1.0), fl.MetricContext(3)
    t1, t2 = np.array([1.5, 0.0, 0.75]), np.array([0.3, 1.5, 0.6])  # 2^511 t1 is about 1.2e154
    lam = 2.0**k
    for u1, u2 in ((t1, t2), (t1, 0.5 * t1)):  # a chord and a radial chord
        ref, ch = fl.solve_chord(par, ctx, u1, u2), fl.solve_chord(par, ctx, lam * u1, lam * u2)
        s = np.linspace(0.0, ref.delta_s, 9)
        np.testing.assert_array_max_ulp(fl.geodesic_point(ch, lam * s), lam * fl.geodesic_point(ref, s), maxulp=2)
        np.testing.assert_array_max_ulp(ch.radius(lam * s), lam * ref.radius(s), maxulp=2)
        np.testing.assert_allclose(fl.geodesic_velocity(ch, lam * s), fl.geodesic_velocity(ref, s), rtol=0.0, atol=1e-15)
