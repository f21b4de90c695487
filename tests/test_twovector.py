"""Two-vector metric tensor, frame, covariant version, and the
parallelogram law.  Their identities are the ``twovector`` checks of
``finsleroid verify``, run on this file's grid (see checkgrid); the tests
here add g = 0 values, limits, the scan and mpmath oracles and errors."""

import math

import numpy as np
import pytest

import finsleroid as fl
from finsleroid.oracles import coincidence_limits
from finsleroid.twovector import co_orientation
from finsleroid.verify import draw_pairs, draw_vectors, regime_mask

from checkgrid import on_grid, verified

GS = [0.0, 0.7, -1.1, 1.5]


@pytest.fixture(params=[2, 3, 5])
def ctx(request):
    if request.param == 3:
        return fl.MetricContext(3, np.array([[1.15, 0.1], [0.1, 0.9]]))
    return fl.MetricContext(request.param)


@pytest.mark.parametrize("g", GS)
def test_tensor_reduces_to_euclidean(g, ctx, rng):
    par0 = fl.make_parameter(0.0)
    (t1,), (t2,) = draw_pairs(rng, ctx, par0, 1)
    tv = fl.two_vector_metric(par0, ctx, t1, t2)
    assert np.max(np.abs(tv.n_lower - ctx.r_pq)) < 1e-13


# n_pq = d^2<t1,t2>/dt1 dt2 = -(1/2) d^2 |t2 (-) t1|^2/dt1 dt2 by differences
test_tensor_is_mixed_second_derivative = on_grid([0.7, -1.1, 1.5], {"twovector.tensor_fd": 1e-5})
# the determinant closed form, swap symmetry, det > 0 below alpha = pi
test_tensor_determinant_and_swap = on_grid(GS, {"twovector.tensor_closed": 1e-12})


@pytest.mark.parametrize("g", [0.0, 1.0])
def test_coincidence_limits(g, ctx, rng):
    par = fl.make_parameter(g)
    t, v = draw_vectors(rng, ctx, 2, unit=True)
    v = 0.3 * v
    rep = coincidence_limits(par, ctx, t, [1e-2, 1e-3, 1e-4], v)
    if g == 0.0:
        assert np.max(rep.tensor_error) < 1e-13
    else:
        assert np.all(np.diff(rep.tensor_error) < 0)
        assert rep.derivative_error[-1] < 1e-4
        assert rep.a1[-1] == pytest.approx(rep.a1_limit, abs=1e-6)
        assert abs(rep.a2_over_u[-1]) < 1e-3


# the reconstruction, its symmetric part, and the four contraction closed forms
test_frame_reconstruction = on_grid(GS, {"twovector.frame": 1e-9})


def test_frame_euclidean(ctx, rng):
    par = fl.make_parameter(0.0)
    (t1,), (t2,) = draw_pairs(rng, ctx, par, 1, max_alpha=0.9 * math.pi)
    rec = fl.frame_reconstruct(par, ctx, t1, t2)
    assert np.max(np.abs(rec - ctx.r_pq)) < 1e-12


test_frame_contractions = on_grid([0.7, -1.1, 1.5], {"twovector.frame": 1e-9})


def test_frame_negative_radicand_raises():
    # wide pairs at large g push the radicand negative
    par = fl.make_parameter(1.9)
    ctx = fl.MetricContext(2)
    theta = 0.9 * math.pi * par.h
    t1 = np.array([1.0, 0.0])
    t2 = np.array([math.cos(theta), math.sin(theta)])
    with pytest.raises(fl.NumericalDomainError):
        fl.frame(par, ctx, t1, t2)


# T1 = n t2, T2 = t1 n, t1 T1 + t2 T2 = 2 <t1, t2>
test_covector_closed_forms = on_grid(GS, {"twovector.covector_closed": 1e-11})


def test_covector_euclidean(ctx, rng):
    # T1 = n(t1,t2) t2 contracts the second argument, so the euclidean
    # degeneration lowers t2 into T1 and t1 into T2
    par = fl.make_parameter(0.0)
    (t1,), (t2,) = draw_pairs(rng, ctx, par, 1)
    cp = fl.covector_pair(par, ctx, t1, t2)
    assert np.max(np.abs(cp.T1 - ctx.lower(t2))) < 1e-12
    assert np.max(np.abs(cp.T2 - ctx.lower(t1))) < 1e-12


# the product battery, the orientation eps U, the f value and the D battery
test_covector_products = on_grid([0.7, -1.1, 1.5], {"twovector.covector_closed": 1e-11})


def test_covector_metric_recovery_fd(ctx):
    verified(1.1, ctx, {"twovector.covector_metric_fd": 1e-5})


def test_covectors_tend_to_the_vector(ctx, rng):
    par = fl.make_parameter(1.3)
    t1, probe = draw_vectors(rng, ctx, 2, unit=True)
    for eps in (1e-5, 1e-7):
        cp = fl.covector_pair(par, ctx, t1, t1 + eps * probe)
        assert np.max(np.abs(cp.T1 - ctx.lower(t1))) < 20 * eps
        assert np.max(np.abs(cp.T2 - ctx.lower(t1))) < 20 * eps


test_inversion_roundtrip = on_grid(GS, {"twovector.covector_inversion": 1e-8})


def test_inversion_euclidean_identity(ctx, rng):
    par = fl.make_parameter(0.0)
    (t1,), (t2,) = draw_pairs(rng, ctx, par, 1)
    inv = fl.pair_invariants(par, ctx, t1, t2)
    cp = fl.covector_pair(par, ctx, t1, t2)
    r1, r2 = fl.invert_covectors(par, ctx, cp.T1, cp.T2, inv.alpha)
    assert np.max(np.abs(r1 - t1)) < 1e-12
    assert np.max(np.abs(r2 - t2)) < 1e-12


# the root is the pair's own alpha (folded in at 1e-3, to 1e-9); the cosine equation at it
test_co_angle_solver = on_grid(GS, {"twovector.co_angle": 1e-12})


def test_co_angle_euclidean_is_angle(ctx, rng):
    par = fl.make_parameter(0.0)
    (t1,), (t2,) = draw_pairs(rng, ctx, par, 1)
    cp = fl.covector_pair(par, ctx, t1, t2)
    al = fl.solve_co_angle(par, ctx, cp.T1, cp.T2)
    assert al == pytest.approx(
        fl.angle(par, ctx, cp.T1 @ ctx.r_pq_inv, cp.T2 @ ctx.r_pq_inv), abs=1e-10
    )


def regime_gap(par, alpha):
    return math.sin(par.h * alpha - 2.0 * math.atan2(math.sin(alpha) / par.h, math.cos(alpha)))


def co_angle_scan(par, ctx, T1, T2, points=100001):
    """Brute-force roots of the co-angle equation, split by regime.

    Dense sign-change scan of h*alpha - atan2(sin_side, cos_side) over
    (0, pi/h), each bracket refined by bisection and kept when the cosine
    residual is below 1e-10.  Returns (main-regime roots, other roots).
    """
    h = par.h
    tt11, tt22, tt12 = ctx.codot(T1, T1), ctx.codot(T2, T2), ctx.codot(T1, T2)
    cap_u = math.sqrt(max(tt11 * tt22 - tt12**2, 0.0))

    def sides(alpha):
        ca, sa = np.cos(alpha), np.sin(alpha)
        phi1 = np.arctan2(sa / h, ca)
        eps = np.where(np.sin(h * alpha - 2.0 * phi1) > 0.0, -1.0, 1.0)
        cc, ss = ca * ca, sa * sa / h**2
        den = (cc + ss) * math.sqrt(tt11 * tt22)
        cos_side = ((cc - ss) * tt12 + (2.0 / h) * sa * ca * eps * cap_u) / den
        sin_side = ((2.0 / h) * tt12 * sa * ca - (cc - ss) * eps * cap_u) / den
        return cos_side, sin_side

    def w(alpha):
        cos_side, sin_side = sides(alpha)
        return h * alpha - np.arctan2(sin_side, cos_side)

    grid = np.linspace(1e-12, math.pi / h - 1e-12, points)
    vals = w(grid)
    brackets = np.nonzero((vals[:-1] * vals[1:] < 0.0) & (np.abs(np.diff(vals)) < math.pi))[0]
    main, other = [], []
    for i in brackets:
        lo, hi, f_lo = grid[i], grid[i + 1], vals[i]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            f_mid = float(w(mid))
            if f_mid * f_lo > 0.0:
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        if abs(math.cos(h * root) - float(sides(root)[0])) < 1e-10:
            (main if co_orientation(par, root) > 0.0 else other).append(root)
    return main, other


def wide_pair(rng, ctx, theta):
    """A pair at euclidean angle theta in a random plane."""
    t1 = draw_vectors(rng, ctx, 1)[0]
    e1 = t1 / ctx.s_norm(t1)
    v = draw_vectors(rng, ctx, 1)[0]
    perp = v - ctx.dot(v, e1) * e1
    e2 = perp / ctx.s_norm(perp)
    return t1, rng.uniform(0.5, 2.0) * (math.cos(theta) * e1 + math.sin(theta) * e2)


@pytest.mark.parametrize("g", [0.0, 0.7, -1.1, 1.5, -1.5, 1.7])
def test_co_angle_matches_scan(g, ctx, rng):
    """The solver returns the smallest main-regime root of a dense scan.

    The angle of a pair in the other regime (co_orientation = -1) is an
    other-regime root, and a main-regime root always precedes it, since
    F(alpha) = h alpha - 2 phi1(alpha) falls from 0 and reaches -beta
    before beta - 2 pi.  At g = 1.7 a main-regime pair can have several
    main-regime roots, its own angle among them; the smallest is returned.
    """
    par = fl.make_parameter(g)
    pairs = list(zip(*draw_pairs(rng, ctx, par, 4, keep=regime_mask(par))))
    pairs += [wide_pair(rng, ctx, theta) for theta in np.linspace(0.6, 0.98, 8) * math.pi]
    regimes = set()
    for t1, t2 in pairs:
        alpha = fl.pair_invariants(par, ctx, t1, t2).alpha
        if abs(regime_gap(par, alpha)) < 0.05:
            continue
        cp = fl.covector_pair(par, ctx, t1, t2)
        main, other = co_angle_scan(par, ctx, cp.T1, cp.T2)
        al = fl.solve_co_angle(par, ctx, cp.T1, cp.T2)
        assert main
        assert al == pytest.approx(min(main), abs=1e-12)
        regime = co_orientation(par, alpha)
        regimes.add(regime)
        # the pair's own angle is a root of its regime, at or after the returned one
        assert min(abs(r - alpha) for r in (main if regime > 0.0 else other)) < 1e-9
        assert al < alpha + 1e-9
    assert regimes == ({1.0} if g == 0.0 else {1.0, -1.0})


def test_oplus_euclidean_exact(ctx, rng):
    par = fl.make_parameter(0.0)
    (t1,), (t2,) = draw_pairs(rng, ctx, par, 1, min_cos=0.1)
    assert np.array_equal(fl.oplus_first_order(par, ctx, t1, t2), t1 + t2)
    assert np.array_equal(fl.parallelogram_refine(par, ctx, t1, t2), t1 + t2)


@pytest.mark.parametrize("g", [0.3, 0.9, 1.5])
def test_oplus_symmetry_and_acuteness(g, ctx, rng):
    par = fl.make_parameter(g)
    (t1,), (t2,) = draw_pairs(rng, ctx, par, 1, min_cos=0.1)
    assert np.max(
        np.abs(fl.oplus_first_order(par, ctx, t1, t2) - fl.oplus_first_order(par, ctx, t2, t1))
    ) < 1e-13
    # obtuse input rejected
    theta = 0.95 * math.pi * par.h
    o1 = np.zeros(ctx.n)
    o1[0] = 1.0
    o2 = np.zeros(ctx.n)
    o2[0], o2[-1] = math.cos(theta), math.sin(theta)
    with pytest.raises(fl.ObtuseInputError):
        fl.oplus_first_order(par, ctx, o1, o2)


def test_oplus_residual_order(ctx):
    # residual and composition slopes in k within 0.2 of 2, on the check's own ladder in k
    verified(0.0, ctx, {"twovector.oplus_order": 0.2})


def test_ominus_euclidean(ctx, rng):
    par = fl.make_parameter(0.0)
    (t1,), (t3,) = draw_pairs(rng, ctx, par, 1, min_cos=0.05)
    assert np.max(np.abs(fl.ominus_first_order(par, ctx, t1, t3) - (t3 - t1))) < 1e-15
    with pytest.raises(fl.ZeroVectorError):
        fl.ominus_first_order(par, ctx, t1, t1)
    with pytest.raises(fl.CollinearError):
        fl.ominus_first_order(par, ctx, t1, 2.0 * t1)


# the s-vector contractions and u(t3 - t1, t3) = u(t1, t3)
test_ominus_identities = on_grid([0.4, 1.2, 1.5], {"twovector.ominus": 1e-11})
# defining-equation residuals of the refined sum; within 60 k^2 S of the first-order sum
test_parallelogram_refine = on_grid([0.2, 0.9, 1.5], {"twovector.parallelogram_refine": 1e-14})


def test_parallelogram_law_needs_alpha_below_half_pi(ctx3, rng):
    # at g = 1.9, pi/h > 3 pi/2: alpha in (3 pi/2, pi/h) has cos(alpha) > 0
    par = fl.make_parameter(1.9)
    theta = 1.7 * math.pi * par.h
    o1 = np.array([1.0, 0.0, 0.0])
    o2 = np.array([math.cos(theta), 0.0, math.sin(theta)])
    for op in (fl.oplus_first_order, fl.parallelogram_refine):
        with pytest.raises(fl.ObtuseInputError):
            op(par, ctx3, o1, o2)
    for t1, t2 in zip(*draw_pairs(rng, ctx3, par, 200, min_cos=0.05)):
        assert fl.angle(par, ctx3, t1, t2) < 0.5 * math.pi
        r1, r2 = fl.parallelogram_residuals(
            par, ctx3, t1, t2, fl.parallelogram_refine(par, ctx3, t1, t2)
        )
        assert max(abs(r1), abs(r2)) < 1e-10


def _mp_first_order(ctx, g, t1, t2, op):
    """mpmath reference of the first-order sum (op = "oplus", pair t1, t2)
    or difference (op = "ominus", pair t1, t3 = t2), at 50 digits."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50
    r = [[mp.mpf(float(x)) for x in row] for row in ctx.r_pq]
    t1 = [mp.mpf(float(x)) for x in t1]
    t2 = [mp.mpf(float(x)) for x in t2]

    def dot(x, y):
        return mp.fsum(x[i] * r[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))

    def gram_angle(x, y):
        u = mp.sqrt(dot(x, x) * dot(y, y) - dot(x, y) ** 2)
        return u, mp.atan2(u, dot(x, y))

    k = 1 / mp.sqrt(1 - mp.mpf(g) ** 2 / 4) - 1
    if op == "oplus":
        total = [a + b for a, b in zip(t1, t2)]
        u = gram_angle(t1, t2)[0]
        th1 = gram_angle(t1, total)[1]
        th2 = gram_angle(t2, total)[1]
        m12 = (dot(t1, t2) * th1 - dot(t2, t2) * th2) / u
        m21 = (dot(t1, t2) * th2 - dot(t1, t1) * th1) / u
        return np.array([float(s + k * (m12 * a + m21 * b)) for s, a, b in zip(total, t1, t2)])
    v = [b - a for a, b in zip(t1, t2)]
    u, ang_a = gram_angle(t1, t2)
    ang_b = gram_angle(v, t2)[1]
    c_v = (dot(t1, t1) * ang_a - dot(v, t1) * ang_b) / u
    c_1 = (dot(v, v) * ang_b - dot(v, t1) * ang_a) / u
    return np.array([float(x + k * (c_v * x + c_1 * a)) for x, a in zip(v, t1)])


@pytest.mark.parametrize("g", [1.0, 1.5, -1.5])
@pytest.mark.parametrize("sep", [1e-2, 1e-4, 1e-6])
def test_first_order_sum_difference_near_collinear(g, sep, ctx, rng):
    # pair separation sin(theta) ~ sep: a literal Gram root or an arccos
    # angle loses digits here, the shared pair kernel does not
    par = fl.make_parameter(g)
    for t1, d in draw_vectors(rng, ctx, 6).reshape(3, 2, ctx.n):
        d -= ctx.dot(d, t1) / ctx.dot(t1, t1) * t1
        d *= ctx.s_norm(t1) / ctx.s_norm(d)
        for op, t2 in (("oplus", 1.3 * t1 + sep * d), ("ominus", 2.2 * t1 + sep * d)):
            got = (fl.oplus_first_order if op == "oplus" else fl.ominus_first_order)(
                par, ctx, t1, t2
            )
            ref = _mp_first_order(ctx, g, t1, t2, op)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_collinear_error_names_sin_theta(ctx, rng):
    par = fl.make_parameter(1.0)
    t1 = draw_vectors(rng, ctx, 1)[0]
    with pytest.raises(fl.CollinearError, match=r"sin\(theta\) = [-+.0-9e]+ <= 1e-12"):
        fl.ominus_first_order(par, ctx, t1, 2.0 * t1)
