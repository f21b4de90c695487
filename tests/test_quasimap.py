"""Quasi-euclidean map, its Jacobians, the image metric, Christoffels,
curvature and the conformal flattening.  Their identities are the
``quasimap`` checks of ``finsleroid verify``, run on this file's grid (see
checkgrid); the tests here add limits, g = 0 values, rows and errors."""

import math

import numpy as np
import pytest

import finsleroid as fl
from finsleroid import numdiff
from finsleroid.verify import draw_vectors

from checkgrid import on_grid

GS = [0.0, 0.7, -1.1, 1.5]


@pytest.fixture(params=[2, 3, 5])
def ctx(request):
    if request.param == 3:
        return fl.MetricContext(3, np.array([[1.2, -0.3], [-0.3, 0.8]]))
    return fl.MetricContext(request.param)


def test_identity_map_at_g_zero(ctx, rng):
    par = fl.make_parameter(0.0)
    v = draw_vectors(rng, ctx, 1)[0]
    assert np.allclose(fl.sigma_map(par, ctx, v), v, atol=1e-15)
    assert np.allclose(fl.mu_map(par, ctx, v), v, atol=1e-15)
    assert np.allclose(fl.sigma_jacobian(par, ctx, v), np.eye(ctx.n), atol=1e-15)
    assert np.allclose(fl.mu_jacobian(par, ctx, v), np.eye(ctx.n), atol=1e-15)


# S(sigma(R)) = K, the level surface K = 1 onto the unit sphere; sigma 1-homogeneous
test_image_norm_is_metric_function = on_grid(GS, {"quasimap.sigma_norm": 1e-13})
# mu(sigma(R)) = R, sigma(mu(t)) = t, K(mu(t/S)) = 1
test_roundtrip = on_grid(GS, {"quasimap.map_roundtrip": 1e-12})
# the FD oracle; det(d sigma) = h^(N-1) J^N (relative), Euler contraction
test_sigma_jacobian = on_grid(GS, {"quasimap.sigma_jacobian_fd": 1e-6, "quasimap.sigma_jacobian_exact": 1e-12})


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
        s_vec = draw_vectors(rng, ctx, 1, min_frac=0.2, unit=True)[0]
        big_g = fl.finsler_two_vector_tensor(par, ctx, axis, s_vec)
        fd = numdiff.mixed_second(
            lambda x, y: fl.finsler_product(par, ctx, x, y).product, axis, s_vec, scale=1e-5
        )
        assert np.max(np.abs(big_g - fd)) < 1e-4
        # mu' has its limit on the axis: the inverse of sigma' there
        t = fl.sigma_map(par, ctx, axis)
        inverse = np.linalg.inv(fl.sigma_jacobian(par, ctx, fl.mu_map(par, ctx, t)))
        assert np.max(np.abs(fl.mu_jacobian(par, ctx, t) - inverse)) <= 1e-15 * np.max(np.abs(inverse))


# d mu d sigma = 1, d mu t = R, the covector pullbacks
test_mu_jacobian = on_grid(GS, {"quasimap.mu_jacobian": 1e-12})
# n n^-1 = 1, det(n) (relative), H L = 0, n L = L, n t t = S^2, H = h^2 (n - L L)
test_quasi_metric_structure = on_grid(GS, {"quasimap.quasi_metric": 1e-14})
# g_pq, h_pq and g^pq through the jacobian
test_metric_pullback = on_grid(GS, {"quasimap.metric_pullback": 1e-9})
# phi(sigma(R)) = Phi(R); unit vectors and covectors through the jacobians
test_angle_image_and_units = on_grid(GS, {"quasimap.angle_image": 1e-12})
# t N = 0, trace-free, quadratic contraction
test_christoffel_identities = on_grid(GS, {"quasimap.christoffel": 1e-13})
test_metric_derivative_closed_form = on_grid([0.7, -1.1, 1.5], {"quasimap.metric_derivative": 1e-7})
# the FD-assembled definition; L-transversality in each index
test_curvature_closed_vs_finite_difference = on_grid(GS, {"quasimap.curvature_fd": 1e-6, "quasimap.quasi_metric": 1e-13})
# image f t/h, pushforward f^2 r^pq; the FD oracle of the jacobian
test_conformal_flattening = on_grid(GS, {"quasimap.conformal": 1e-14, "quasimap.conformal_jacobian_fd": 1e-7})


def test_conformal_special_values(ctx, rng):
    par0 = fl.make_parameter(0.0)
    t = draw_vectors(rng, ctx, 1)[0]
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

