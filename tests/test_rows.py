"""The one-vector and pair kernels over stacked rows, shape (..., N):
row-wise agreement with single calls, errors that name the offending row,
and homogeneity at every scale float64 holds."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import finsleroid as fl
from finsleroid import oracles
from finsleroid.twovector import co_orientation

GS = [0.0, 0.7, -1.1, 1.5]
# every one-vector kernel over rows (..., N), each returning an array or a
# record of arrays; the image-side kernels take the rows as image vectors t
KERNELS = {
    "kfun": fl.kfun,
    "gradient_covector": fl.gradient_covector,
    "metric_tensor": fl.metric_tensor,
    "inverse_metric": fl.inverse_metric,
    "angular_tensor": fl.angular_tensor,
    "sigma_map": fl.sigma_map,
    "sigma_jacobian": fl.sigma_jacobian,
    "cartan_tensor": fl.cartan_tensor,
    "curvature_tensor": fl.curvature_tensor,
    "tensor_stack": fl.tensor_stack,
    "mu_map": fl.mu_map,
    "mu_jacobian": fl.mu_jacobian,
    "phi_angle": fl.phi_angle,
    "quasi_metric": fl.quasi_metric,
    "quasi_metric_derivative": fl.quasi_metric_derivative,
    "conformal_flatten": fl.conformal_flatten,
    "conformal_jacobian": fl.conformal_jacobian,
    "axis_angles": fl.axis_angles,
    "angular_block_reference": oracles.angular_block_reference,
    "cartan_mixed_reference": oracles.cartan_mixed_reference,
}
# OnAxisError on the axis (q = 0), where the Cartan tensor has no limit,
# and, for the chart oracle, in the plane (Z = 0)
ON_AXIS = {"cartan_tensor", "tensor_stack", "cartan_mixed_reference"}
IN_PLANE = {"cartan_mixed_reference"}
FIELDS = ("q", "Z", "B", "A", "L", "phi", "J", "K")


def _arrays(x):
    """The arrays a kernel returns: one array, or the fields of a record."""
    if dataclasses.is_dataclass(x):
        return [getattr(x, f.name) for f in dataclasses.fields(x)]
    return list(x) if isinstance(x, tuple) else [x]


def _spd_context(rng, n):
    a = rng.normal(size=(n - 1, n - 1))
    return fl.MetricContext(n, a @ a.T + (n - 1) * np.eye(n - 1))


def assert_rows_match(batched, single):
    """Each row within 2 ulp of the largest entry of its row-by-row value,
    and NaN exactly where that value is NaN."""
    b = np.asarray(batched).reshape(len(single), -1)
    s = np.asarray(single).reshape(len(single), -1)
    nan = np.isnan(s)
    assert np.array_equal(np.isnan(b), nan)
    ulp2 = 2 * np.spacing(np.where(nan, 0.0, np.abs(s)).max(axis=-1, keepdims=True))
    assert np.all(np.where(nan, 0.0, np.abs(b - s)) <= ulp2)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("g", GS)
def test_kernel_rows_match_single_vectors(g, n, rng):
    par = fl.make_parameter(g)
    ctx = _spd_context(rng, n)
    R = rng.uniform(-1, 1, (24, n))
    R[0, :-1] = 0.0  # on the axis, q = 0
    R[1, -1] = 0.0  # in the plane, Z = 0
    R[2, :-1] = 0.0
    R[2, -1] = -0.7  # on the lower axis
    for name, fn in KERNELS.items():
        rows = R[3:] if name in IN_PLANE else np.delete(R, [0, 2], axis=0) if name in ON_AXIS else R
        single = [_arrays(fn(par, ctx, r)) for r in rows]
        batched = _arrays(fn(par, ctx, rows))
        stacked = _arrays(fn(par, ctx, rows[:8].reshape(2, 4, n)))
        for k, (b, grid) in enumerate(zip(batched, stacked)):
            ref = np.array([x[k] for x in single])
            assert b.shape == ref.shape, (name, k)
            assert_rows_match(b, ref)
            assert grid.shape == (2, 4) + ref.shape[1:], (name, k)
            assert_rows_match(grid.reshape(ref[:8].shape), ref[:8])
        # a row on the axis, or for the chart oracle in the plane, raises
        # OnAxisError naming it
        for i in (0, 2) if name in ON_AXIS else ():
            with pytest.raises(fl.OnAxisError, match=r"\(row 2\)"):
                fn(par, ctx, np.stack([R[3], R[4], R[i]]))
            with pytest.raises(fl.OnAxisError, match=r"\(row \(1, 0\)\)"):
                fn(par, ctx, np.stack([R[3:5], R[[i, 5]]]))
            with pytest.raises(fl.OnAxisError, match=r"[^)]$"):  # one vector: no row named
                fn(par, ctx, R[i])
        if name in IN_PLANE:
            with pytest.raises(fl.OnAxisError, match=r"\(row 1\)"):
                fn(par, ctx, R[[3, 1]])
    bundles = [fl.scalar_bundle(par, ctx, r) for r in R]
    rows = fl.scalar_bundle(par, ctx, R)
    for field in FIELDS:
        assert_rows_match(getattr(rows, field), np.array([getattr(sb, field) for sb in bundles]))
        # one vector gives scalars, not 0-d arrays
        assert not isinstance(getattr(bundles[3], field), np.ndarray), field
    # the bundle is finite in the plane Z = 0 (row 1), where the chart w = q/Z
    # of the oracles ends, naming that row
    assert np.all(np.isfinite([getattr(rows, field)[1] for field in FIELDS]))
    with pytest.raises(fl.OnAxisError, match=r"\(row 1\)"):
        oracles._chart(par, ctx, R[[3, 1]], fl.scalar_bundle(par, ctx, R[[3, 1]]))


def test_kernel_rows_rejected(rng):
    par = fl.make_parameter(0.7)
    ctx = _spd_context(rng, 3)
    for name, fn in KERNELS.items():
        R = rng.uniform(-1, 1, (3, 3))
        R[2] = 0.0
        with pytest.raises(fl.ZeroVectorError, match=r"\(row 2\)"):
            fn(par, ctx, R)
        R3 = np.ones((2, 4, 3))
        R3[1, 2] = 0.0
        with pytest.raises(fl.ZeroVectorError, match=r"\(row \(1, 2\)\)"):
            fn(par, ctx, R3)
        for bad in (np.nan, np.inf):
            R = np.ones((3, 3))
            R[2] = 0.0
            R[1, 0] = bad  # the non-finite row is reported before the zero row
            with pytest.raises(fl.OutOfRangeError, match=r"\(row 1\)"):
                fn(par, ctx, R)
        with pytest.raises(fl.OutOfRangeError):
            fn(par, ctx, np.ones((3, 4)))


# the one-vector Cartan functions, prescaled by a power of two, with the
# homogeneity degree of each returned array
CARTAN = {
    "cartan_tensor": (fl.cartan_tensor, (-1, -1, -1, -1)),
    "tensor_stack": (fl.tensor_stack, (1, 0, 0, 0, -1, -1, -1, -1)),
    "curvature_tensor": (fl.curvature_tensor, (-2,)),
}


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("g", [0.0, 1.0, -1.5])
def test_cartan_rows_prescale(g, n, rng):
    # the power-of-two prescale is per row: rows at 2^(+-200) beside rows
    # at unit scale each equal their single call and follow homogeneity
    par = fl.make_parameter(g)
    ctx = _spd_context(rng, n)
    base = rng.uniform(0.2, 1.0, (3, n)) * rng.choice([-1.0, 1.0], (3, n))
    R = np.concatenate([base, np.ldexp(base, 200), np.ldexp(base, -200)])
    for name, (fn, degrees) in CARTAN.items():
        batched = _arrays(fn(par, ctx, R))
        single = [_arrays(fn(par, ctx, r)) for r in R]
        for k, (b, d) in enumerate(zip(batched, degrees)):
            assert_rows_match(b, np.array([x[k] for x in single]))
            for block, e in ((1, 200), (2, -200)):
                np.testing.assert_allclose(np.ldexp(b[3 * block:3 * block + 3], -d * e), b[:3], rtol=1e-13,
                                           atol=1e-13 * np.abs(b[:3]).max())
    if g != 0.0:
        # the curvature, ~ 1/|R|^2, leaves float64 at 2^-600, naming the row
        with pytest.raises(fl.NumericalDomainError, match=r"not finite at this scale \(row 1\)"):
            fl.curvature_tensor(par, ctx, np.stack([base[0], np.ldexp(base[0], -600)]))


# the pair kernels over stacked pairs: each returns the arrays listed
PAIR_KERNELS = {
    "angle": lambda par, ctx, a, b: [fl.angle(par, ctx, a, b)],
    "scalar_product": lambda par, ctx, a, b: [fl.scalar_product(par, ctx, a, b)],
    "distance_squared": lambda par, ctx, a, b: [fl.distance_squared(par, ctx, a, b)],
    "pair_invariants": lambda par, ctx, a, b: [
        getattr(fl.pair_invariants(par, ctx, a, b), f)
        for f in ("dot11", "dot22", "dot12", "u", "d1", "d2", "alpha")
    ],
    "two_vector_metric": lambda par, ctx, a, b: [
        getattr(fl.two_vector_metric(par, ctx, a, b), f) for f in ("n_lower", "a1", "a2")
    ],
    "finsler_product": lambda par, ctx, a, b: [
        getattr(fl.finsler_product(par, ctx, a, b), f)
        for f in ("product", "alpha", "w", "m_r", "s_r", "g_lower")
    ],
    "finsler_angle": lambda par, ctx, a, b: [fl.finsler_angle(par, ctx, a, b)],
    "finsler_two_vector_tensor": lambda par, ctx, a, b: [fl.finsler_two_vector_tensor(par, ctx, a, b)],
    "two_vector_determinant_reference": lambda par, ctx, a, b: [
        oracles.two_vector_determinant_reference(par, ctx, a, b)
    ],
    "covector_pair": lambda par, ctx, a, b: [
        getattr(fl.covector_pair(par, ctx, a, b), f) for f in ("T1", "T2", "D1", "D2", "f_scale")
    ],
    # (a, b) read as a co-vector pair, with alpha the angle of each pair
    "invert_covectors": lambda par, ctx, a, b: list(fl.invert_covectors(par, ctx, a, b, fl.angle(par, ctx, a, b))),
    "frame": lambda par, ctx, a, b: [fl.frame(par, ctx, a, b)],
    "frame_reconstruct": lambda par, ctx, a, b: [fl.frame_reconstruct(par, ctx, a, b)],
    "oplus_first_order": lambda par, ctx, a, b: [fl.oplus_first_order(par, ctx, a, b)],
    "ominus_first_order": lambda par, ctx, a, b: [fl.ominus_first_order(par, ctx, a, b)],
    "parallelogram_refine": lambda par, ctx, a, b: [fl.parallelogram_refine(par, ctx, a, b)],
    "length_gradients": lambda par, ctx, a, b: list(fl.length_gradients(par, ctx, a, b)),
    "solve_chord": lambda par, ctx, a, b: [
        getattr(fl.solve_chord(par, ctx, a, b), f) for f in ("t1", "t2", "a", "s_end", "alpha", "delta_s", "b")
    ],
    "geodesic_point": lambda par, ctx, a, b: _along_chord(fl.geodesic_point, par, ctx, a, b),
    "geodesic_velocity": lambda par, ctx, a, b: _along_chord(fl.geodesic_velocity, par, ctx, a, b),
}
# the kernels of acute pairs (alpha < pi/2): the parallelogram law, and the
# frame, the inversion and the chord, which large angles take out of their
# domain
CHORD = {"solve_chord", "geodesic_point", "geodesic_velocity"}
ACUTE = {"invert_covectors", "frame", "frame_reconstruct", "oplus_first_order", "parallelogram_refine"} | CHORD
# the kernels whose rows equal the single-pair calls bit for bit
BITWISE = CHORD | {"length_gradients"}


def _along_chord(fn, par, ctx, a, b):
    """fn of the chords of the pairs at 0, 1/3, 1 and 1.2 times Delta s
    (shape L + (4, N)), and at the midpoints, a scalar s for one pair and
    an s per chord for a stack (L + (N,))."""
    chord = fl.solve_chord(par, ctx, a, b)
    ds = np.asarray(chord.delta_s)
    samples = fn(chord, ds[..., None] * np.array([0.0, 1.0 / 3.0, 1.0, 1.2]))
    if ds.ndim == 0:
        return [samples, fn(chord, 0.5 * chord.delta_s)]
    return [samples, fn(chord, 0.5 * ds[..., None])[..., 0, :]]


def _acute(ctx, T1, T2):
    """The pairs (T1, T1 + 0.4 S(T1) T2/S(T2)), of euclidean angle at most
    asin(0.4), so alpha < pi/2 for |g| <= 1.5; collinear pairs stay collinear."""
    norm = lambda x: np.sqrt(np.einsum("...p,pq,...q->...", x, ctx.r_pq, x))[..., None]
    return T1 + 0.4 * norm(T1) / norm(T2) * T2


def _pair_rows(rng, n, count=24):
    """Random pairs with on-axis and near-collinear rows."""
    T1 = rng.uniform(-1, 1, (count, n))
    T2 = rng.uniform(-1, 1, (count, n))
    T1[0, :-1] = 0.0  # first vector on the axis
    T2[1, :-1] = 0.0  # second vector on the axis
    T2[2, :-1] = 0.0
    T2[2, -1] = -0.6  # on the lower axis
    T2[3] = T1[3] + 1e-6 * rng.uniform(-1, 1, n)  # near-collinear
    T2[4] = -T1[4] + 1e-6 * rng.uniform(-1, 1, n)  # near anti-collinear
    return T1, T2


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("g", GS)
def test_pair_kernel_rows_match_single_pairs(g, n, rng):
    par = fl.make_parameter(g)
    ctx = _spd_context(rng, n)
    T1, U2 = _pair_rows(rng, n)
    for name, fn in PAIR_KERNELS.items():
        T2 = _acute(ctx, T1, U2) if name in ACUTE else U2
        single = [fn(par, ctx, a, b) for a, b in zip(T1, T2)]
        batched = fn(par, ctx, T1, T2)
        stacked = fn(par, ctx, T1[:8].reshape(2, 4, n), T2[:8].reshape(2, 4, n))
        for k, (rows, grid) in enumerate(zip(batched, stacked)):
            ref = np.array([s[k] for s in single])
            assert rows.shape == ref.shape, (name, k)
            assert_rows_match(rows, ref)
            assert grid.shape == (2, 4) + ref.shape[1:], (name, k)
            assert_rows_match(grid.reshape(ref[:8].shape), ref[:8])
            if name in BITWISE:  # NaN-aware
                np.testing.assert_array_equal(rows, ref)
                np.testing.assert_array_equal(grid.reshape(ref[:8].shape), ref[:8])
        # one pair gives float64 scalars, not 0-d arrays
        assert all(np.ndim(x) > 0 or not isinstance(x, np.ndarray) for x in single[5]), name


@pytest.mark.parametrize("name", PAIR_KERNELS)
def test_pair_kernel_rows_rejected(name, rng):
    par = fl.make_parameter(0.7)
    ctx = _spd_context(rng, 3)
    fn = PAIR_KERNELS[name]
    T1, T2 = _pair_rows(rng, 3, 6)
    for bad, err in ((0.0, fl.ZeroVectorError), (np.nan, fl.OutOfRangeError), (np.inf, fl.OutOfRangeError)):
        B = T2.copy()
        B[5] = bad
        with pytest.raises(err, match=r"\(row 5\)"):
            fn(par, ctx, T1, B)
    C1, C2 = (x.reshape(2, 4, 3) for x in _pair_rows(rng, 3, 8))
    C2[1, 2] = 0.0
    with pytest.raises(fl.ZeroVectorError, match=r"\(row \(1, 2\)\)"):
        fn(par, ctx, C1, C2)
    # a collinear pair raises, naming its index, where the kernel needs an
    # independent pair; the scalar product survives it without s_r and G
    L = T2.copy()
    L[4] = 2.5 * T1[4]
    if name in ("pair_invariants", "two_vector_metric", "finsler_two_vector_tensor",
                "two_vector_determinant_reference", "covector_pair", "invert_covectors", "frame",
                "frame_reconstruct", "oplus_first_order", "ominus_first_order", "parallelogram_refine",
                "length_gradients"):
        with pytest.raises(fl.CollinearError, match=r"sin\(theta\) = [-+.0-9e]+ <= 1e-12 \(row 4\)"):
            fn(par, ctx, T1, L)
    elif name == "finsler_product":
        product, *_, s_r, g_lower = fn(par, ctx, T1, L)
        assert s_r is None and g_lower is None
        assert np.all(np.isfinite(product))
    elif name in CHORD:
        # a collinear pair is a radial chord; coincident endpoints and an
        # angle of pi or more have none
        A = _acute(ctx, T1, T2)
        A[4] = 2.5 * T1[4]
        radial = fl.solve_chord(par, ctx, T1, A)
        assert radial.alpha[4] == 0.0 and radial.b[4] == radial.a[4]
        fn(par, ctx, T1, A)
        A[2] = T1[2]
        with pytest.raises(fl.DegenerateChordError, match=r"^coincident endpoints \(row 2\)$"):
            fn(par, ctx, T1, A)
        A[1] = -0.5 * T1[1]
        with pytest.raises(fl.NumericalDomainError, match=r"angle of pi or more \(row 1\)$"):
            fn(par, ctx, T1, A)


def test_pair_kernels_broadcast(rng):
    # a stack of first vectors against one second vector, as the one-call
    # finite-difference stencils use them
    par = fl.make_parameter(-1.1)
    ctx = _spd_context(rng, 3)
    U1, T2 = _pair_rows(rng, 3, 6)
    for name, fn in PAIR_KERNELS.items():
        T1 = _acute(ctx, np.broadcast_to(T2[5], U1.shape), U1) if name in ACUTE else U1
        for rows, ref in zip(fn(par, ctx, T1, T2[5]), fn(par, ctx, T1, np.broadcast_to(T2[5], T1.shape))):
            # a field of the second vector alone (dot22) keeps its own shape
            assert_rows_match(np.broadcast_to(rows, ref.shape), ref)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("g", GS)
def test_parallelogram_residual_rows_match_single_triples(g, n, rng):
    par = fl.make_parameter(g)
    ctx = _spd_context(rng, n)
    T1, T2 = _pair_rows(rng, n)
    T2 = _acute(ctx, T1, T2)
    T3 = fl.parallelogram_refine(par, ctx, T1, T2) + 1e-3 * rng.uniform(-1, 1, T1.shape)
    single = np.array([fl.parallelogram_residuals(par, ctx, *t) for t in zip(T1, T2, T3)])
    assert all(np.ndim(x) == 0 for x in fl.parallelogram_residuals(par, ctx, T1[0], T2[0], T3[0]))
    for rows, ref in zip(fl.parallelogram_residuals(par, ctx, T1, T2, T3), single.T):
        assert_rows_match(rows, ref)
    # stacked triples, and a stack of sums against one pair
    for rows, ref in zip(fl.parallelogram_residuals(par, ctx, *(x[:8].reshape(2, 4, n) for x in (T1, T2, T3))),
                         single.T):
        assert_rows_match(rows.ravel(), ref[:8])
    wide = [np.broadcast_to(x, T3.shape) for x in (T1[0], T2[0])]
    for rows, ref in zip(fl.parallelogram_residuals(par, ctx, T1[0], T2[0], T3),
                         fl.parallelogram_residuals(par, ctx, *wide, T3)):
        assert_rows_match(rows, ref)


def test_co_orientation_is_elementwise():
    par = fl.make_parameter(1.9)
    alpha = np.linspace(0.0, math.pi / par.h, 42).reshape(2, 21)
    single = np.array([[co_orientation(par, float(a)) for a in row] for row in alpha])
    assert set(single.ravel()) == {-1.0, 1.0}  # both regimes at large g
    np.testing.assert_array_equal(co_orientation(par, alpha), single)


def test_two_vector_kernels_name_rejected_pairs(rng):
    # the precondition of each two-vector kernel is tested pair by pair, and
    # the message names the first pair that fails it
    par, ctx = fl.make_parameter(1.5), fl.MetricContext(3)
    T1, T2 = _pair_rows(rng, 3, 6)
    T2 = _acute(ctx, T1, T2)
    for fn in (fl.frame, fl.frame_reconstruct, fl.oplus_first_order, fl.parallelogram_refine,
               fl.ominus_first_order):
        fn(par, ctx, T1, T2)
    # at g = 1.9 an angle alpha = 0.9 pi < pi makes a frame radicand negative
    wide, theta = T2.copy(), 0.9 * math.pi * fl.make_parameter(1.9).h
    d = T2[4] - (T1[4] @ T2[4]) / (T1[4] @ T1[4]) * T1[4]
    wide[4] = math.cos(theta) * T1[4] + math.sin(theta) * np.linalg.norm(T1[4]) / np.linalg.norm(d) * d
    fl.frame(fl.make_parameter(1.9), ctx, T1[:4], T2[:4])
    with pytest.raises(fl.NumericalDomainError, match=r"negative frame radicand for this pair \(row 4\)"):
        fl.frame(fl.make_parameter(1.9), ctx, T1, wide)
    back = T2.copy()
    back[4] = -T1[4] + 0.3 * T2[4]  # alpha beyond pi
    with pytest.raises(fl.NumericalDomainError, match=r"frame needs sin\(alpha\) >= 0 .* \(row 4\)"):
        fl.frame(par, ctx, T1, back)
    obtuse = T2.copy()
    obtuse[3] = np.cross(T1[3], T2[3])  # euclid-orthogonal: alpha = pi/(2h) > pi/2
    for fn in (fl.oplus_first_order, fl.parallelogram_refine):
        with pytest.raises(fl.ObtuseInputError, match=r"needs alpha < pi/2, got [0-9.]+ \(row 3\)"):
            fn(par, ctx, T1, obtuse)
    with pytest.raises(fl.ObtuseInputError, match=r"\(row \(1, 1\)\)"):
        fl.oplus_first_order(par, ctx, T1[:4].reshape(2, 2, 3), obtuse[:4].reshape(2, 2, 3))
    same = T2.copy()
    same[2] = T1[2]
    with pytest.raises(fl.ZeroVectorError, match=r"difference of coincident vectors \(row 2\)"):
        fl.ominus_first_order(par, ctx, T1, same)
    with pytest.raises(fl.NumericalDomainError, match=r"inversion needs 0 < alpha < pi, got 4\.0 \(row 1\)"):
        fl.invert_covectors(par, ctx, T1, T2, np.array([1.0, 4.0, 5.0, 1.0, 1.0, 1.0]))


def test_cosine_guard_names_the_pair():
    from finsleroid.geodesics import _check_cosine

    _check_cosine(np.array([[0.5, 1.0 + 1e-13], [-1.0, 0.0]]))  # within the rounding slack
    with pytest.raises(fl.NumericalDomainError, match=r"cosine 1\.1 outside .* \(row \(1, 0\)\)"):
        _check_cosine(np.array([[0.5, -0.2], [1.1, 0.0]]))
    with pytest.raises(fl.NumericalDomainError, match=r"cosine -1\.5 outside [^(]*$"):
        _check_cosine(np.float64(-1.5))
    with pytest.raises(fl.NumericalDomainError, match=r"cosine nan outside .* \(row 1\)"):
        _check_cosine(np.array([0.5, np.nan]))


@pytest.mark.parametrize("g", [0.0, 1.0, -1.5])
def test_pair_kernels_are_scale_safe(g, rng):
    # a pair scaled by lam follows the degree of each kernel.  The reference
    # is the scaled pair brought back to unit size by an exact power of two,
    # so the comparison (to 4 ulp) sees the scale handling alone, not the rounding of lam * t, which by itself moves
    # the two-vector tensor of a random pair by up to about 16 ulp
    par, ctx = fl.make_parameter(g), fl.MetricContext(3)
    pairs = [(np.array([1.0, 0.2, 0.5]), np.array([0.1, 1.0, 0.4]))] + [rng.uniform(-1, 1, (2, 3)) for _ in range(4)]
    kernels = (fl.angle, lambda *a: fl.pair_invariants(*a).alpha, lambda *a: fl.two_vector_metric(*a).n_lower,
               lambda *a: fl.scalar_product(*a) / (a[2] @ a[2]))  # 2-homogeneous
    for t1, t2 in pairs:
        for lam, fns in [(s, kernels) for s in (1e-150, 1e-45, 1e45, 1e150)] + [(1e80, (fl.finsler_angle,))]:
            back = np.ldexp(1.0, -int(np.frexp(lam)[1]))  # a power of two near 1/lam
            for fn in fns:
                x, x0 = fn(par, ctx, lam * t1, lam * t2), fn(par, ctx, back * lam * t1, back * lam * t2)
                assert np.all(np.abs(x - x0) <= 4 * np.spacing(np.abs(x0).max())), (fn, lam, x, x0)


# Every kernel with the homogeneity degree of each array it returns, jointly
# in all its vectors (a callable takes h, for the fractional degrees of the
# conformal flattening).  A one-vector kernel takes R or an image vector t.
ONE_VECTOR_DEGREES = {
    "kfun": 1, "gradient_covector": 1, "sigma_map": 1, "mu_map": 1,
    "metric_tensor": 0, "inverse_metric": 0, "angular_tensor": 0, "sigma_jacobian": 0, "mu_jacobian": 0,
    "phi_angle": 0, "axis_angles": (0, 0),
    "cartan_tensor": (-1, -1, -1, -1),
    "curvature_tensor": -2,
    "tensor_stack": (1, 0, 0, 0, -1, -1, -1, -1),
    "quasi_metric": (0, 0, 0, -1, -2),
    "quasi_metric_derivative": -1,
    "conformal_flatten": lambda h: (h, h - 1.0),
    "conformal_jacobian": lambda h: h - 1.0,
}


def _pair(fn):
    """fn(par, ctx, t1, t2), returning a list of arrays, as a function of
    (par, ctx, t1, t2, t3, alpha)."""
    return lambda par, ctx, a, b, c, al: fn(par, ctx, a, b)


def _covectors(par, ctx, t1, t2):
    cp = fl.covector_pair(par, ctx, t1, t2)
    return cp.T1, cp.T2


def _two_vector_metric(par, ctx, t1, t2):
    # the record holds the invariants of its pair too
    tv = fl.two_vector_metric(par, ctx, t1, t2)
    return [tv.n_lower, tv.a1, tv.a2] + _arrays(tv.pair)


def _chord_samples(fn):
    """fn of the chords sampled at 0, 1/3 and 1 times Delta s, which scales
    with the pair, returning a list of arrays."""
    def sampled(par, ctx, t1, t2):
        chord = fl.solve_chord(par, ctx, t1, t2)
        return [fn(chord, np.asarray(chord.delta_s)[..., None] * np.array([0.0, 1.0 / 3.0, 1.0]))]
    return sampled


# every pair kernel as (function of (par, ctx, t1, t2, t3, alpha) returning a
# list of arrays, degrees, whether it takes stacked pairs); t1, t2 are an
# acute pair, t3 a point near their sum and alpha their angle.  The kernels
# of one pair are called pair by pair.
PAIR_TABLE = {
    **{name: (_pair(PAIR_KERNELS[name]), degree, True) for name, degree in {
        "angle": 0, "finsler_angle": 0, "frame": 0, "frame_reconstruct": 0, "finsler_two_vector_tensor": 0,
        "scalar_product": 2, "distance_squared": 2, "pair_invariants": (2, 2, 2, 2, 1, 1, 0),
        "covector_pair": (1, 1, 1, 1, 0), "finsler_product": (2, 0, 2, 3, 0, 0), "oplus_first_order": 1,
        "ominus_first_order": 1, "parallelogram_refine": 1}.items()},
    "two_vector_metric": (_pair(_two_vector_metric), (0, 0, 0, 2, 2, 2, 2, 1, 1, 0), True),
    "s_vector": (_pair(lambda *a: [fl.s_vector(*a)]), 0, True),
    "m_vector": (_pair(lambda *a: [fl.m_vector(*a)]), 3, True),
    # (t1, t2) read as the co-vectors of the pair
    "invert_covectors": (lambda par, ctx, a, b, c, al: list(fl.invert_covectors(
        par, ctx, *_covectors(par, ctx, a, b), al)), (1, 1), True),
    "parallelogram_residuals": (lambda par, ctx, a, b, c, al: list(fl.parallelogram_residuals(par, ctx, a, b, c)),
                                (1, 1), True),
    "product_gradients": (_pair(lambda *a: list(fl.product_gradients(*a))), (1, 1), False),
    "length_gradients": (_pair(lambda *a: list(fl.length_gradients(*a))), (1, 1), True),
    "solve_co_angle": (_pair(lambda par, ctx, a, b: [fl.solve_co_angle(par, ctx, *_covectors(par, ctx, a, b))]),
                       0, False),
    "solve_chord": (_pair(lambda *a: [getattr(fl.solve_chord(*a), f) for f in ("a", "s_end", "alpha", "delta_s", "b")]),
                    (1, 1, 0, 1, 1), True),
    "geodesic_point": (_pair(_chord_samples(fl.geodesic_point)), 1, True),
    "geodesic_velocity": (_pair(_chord_samples(fl.geodesic_velocity)), 0, True),
}


def _degrees(degree, h, count):
    degree = degree(h) if callable(degree) else degree
    return degree if isinstance(degree, tuple) else (degree,) * count


def _expected(ref, k, degrees):
    """2^(d k) times each array of the value at unit scale, and the flags of
    the rows whose expected value leaves float64; k has the shape of the rows."""
    want = []
    for x, d in zip(ref, degrees):
        x = np.asarray(x, dtype=float)
        shift = k.reshape(k.shape + (1,) * x.ndim)
        with np.errstate(over="ignore"):
            want.append(np.ldexp(x, int(d) * shift) if float(d).is_integer() else x * np.exp2(d * shift))
    over = np.zeros(k.shape, dtype=bool)
    for w in want:
        over |= ~np.isfinite(w.reshape(k.shape + (-1,))).all(axis=-1)
    return want, over


def _assert_scaled(got, want, degrees):
    """Integer degrees within 4 ulp of the largest entry of each row,
    fractional ones within 1e-13 of it."""
    for x, w, d in zip(got, want, degrees):
        x, w = (np.asarray(v, dtype=float).reshape(len(want[0]), -1) for v in (x, w))
        top = np.abs(w).max(axis=-1, keepdims=True)
        bound = 4 * np.spacing(top) if float(d).is_integer() else 1e-13 * top
        assert np.all(np.abs(x - w) <= bound), (d, np.abs(x - w).max())


def _sweep(fn, rows, k, ref, degrees):
    """One stacked call at the rows: the rows whose expected value leaves
    float64 raise, naming one of them; the others follow the degree."""
    want, over = _expected(ref, k, degrees)
    if over.any():
        with pytest.raises(fl.NumericalDomainError, match=r"not finite at this scale \(row (\d+)\)") as err:
            fn(*rows)
        assert over[int(err.value.args[0].rsplit("row ", 1)[1][:-1])]
    keep = ~over
    _assert_scaled(fn(*(r[keep] for r in rows)), [w[keep] for w in want], degrees)


SWEEP_K = np.arange(-1000, 1024)
VECTOR = np.array([0.4, -0.7, 0.9, 0.5])
PARTNER = np.array([0.1, 0.6, 0.5, -0.3])


def _pair_at_unit(ctx, n):
    """An acute pair and a point near its sum, each component below 1."""
    t1 = VECTOR[:n]
    t2 = _acute(ctx, t1, PARTNER[:n])
    return t1 / 4, t2 / 4, (t1 + t2 + 1e-3 * PARTNER[:n][::-1]) / 4


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("g", [0.0, 1.0, -1.5])
def test_one_vector_kernels_follow_their_degree(g, n):
    # every row 2^k x, k from -1000 to 1023, is 2^(d k) times the value at x
    par, ctx = fl.make_parameter(g), fl.MetricContext(n)
    x = VECTOR[:n]
    rows = np.ldexp(x, SWEEP_K[:, None])
    for name, degree in ONE_VECTOR_DEGREES.items():
        fn = KERNELS[name]
        ref = _arrays(fn(par, ctx, x))
        _sweep(lambda r: _arrays(fn(par, ctx, r)), (rows,), SWEEP_K, ref, _degrees(degree, par.h, len(ref)))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("g", [0.0, 1.0, -1.5])
def test_scalar_bundle_follows_its_degrees(g, n):
    # every row 2^k x, k from -1000 to 1023: Phi and J equal their values at
    # x, and q, Z, A, L, K (degree 1) and B (2) follow their degree; where B
    # leaves float64, beyond 2^511, the bundle raises naming the field
    par, ctx = fl.make_parameter(g), fl.MetricContext(n)
    x = VECTOR[:n]
    fields = ("q", "Z", "B", "A", "L", "phi", "J", "K")
    bundle = lambda r: [getattr(fl.scalar_bundle(par, ctx, r), f) for f in fields]
    ref = bundle(x)
    rows = np.ldexp(x, SWEEP_K[:, None])
    _sweep(bundle, (rows,), SWEEP_K, ref, (1, 1, 2, 1, 1, 0, 0, 1))
    fits = SWEEP_K < 511
    _, _, B, _, _, phi, j, _ = bundle(rows[fits])
    assert np.all(phi == ref[5]) and np.all(j == ref[6])
    assert np.isfinite(B).all()
    with pytest.raises(fl.NumericalDomainError, match=r"^B is not finite at this scale \(row 1\)$"):
        fl.scalar_bundle(par, ctx, np.stack([x, 1e200 * x]))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("g", [0.0, 1.0, -1.5])
def test_pair_kernels_follow_their_degree(g, n):
    # every pair 2^k (t1, t2), k from -1000 to 1023, is 2^(d k) times the
    # value at (t1, t2); the kernels of one pair are called at every 17th k
    par, ctx = fl.make_parameter(g), fl.MetricContext(n)
    t1, t2, t3 = _pair_at_unit(ctx, n)
    alpha = fl.angle(par, ctx, t1, t2)
    rows = [np.ldexp(t, SWEEP_K[:, None]) for t in (t1, t2, t3)]
    for name, (fn, degree, stacked) in PAIR_TABLE.items():
        ref = fn(par, ctx, t1, t2, t3, alpha)
        degrees = _degrees(degree, par.h, len(ref))
        if stacked:
            call = lambda a, b, c: fn(par, ctx, a, b, c, np.broadcast_to(alpha, a.shape[:-1]))
            _sweep(call, rows, SWEEP_K, ref, degrees)
            continue
        for k in np.r_[SWEEP_K[::17], 510, 511, 1022, 1023]:
            want, over = _expected(ref, np.array(k), degrees)
            scaled = [np.ldexp(t, k) for t in (t1, t2, t3)]
            if over:
                with pytest.raises(fl.NumericalDomainError, match="not finite at this scale"):
                    fn(par, ctx, *scaled, alpha)
            else:
                _assert_scaled([np.asarray(v)[None] for v in fn(par, ctx, *scaled, alpha)],
                               [w[None] for w in want], degrees)


@st.composite
def scaled_cases(draw):
    """(g, n, x, t1, t2, t3, k): a vector x off the axis and the plane, an
    acute pair with a point near its sum, and a power-of-two exponent."""
    g = draw(st.floats(-1.9, 1.9))
    n = draw(st.sampled_from([3, 4]))
    unit = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(np.array)
    x, a, b = draw(unit), draw(unit), draw(unit)
    assume(min(np.linalg.norm(x[:-1]), abs(x[-1])) > 0.1)
    assume(np.linalg.norm(a) > 0.1 and np.linalg.norm(b - (a @ b) / (a @ a) * a) > 0.1)
    return g, n, x, a, b, draw(st.integers(-1000, 1023))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(scaled_cases())
def test_degrees_hold_at_drawn_scales(case):
    g, n, x, a, b, k = case
    par, ctx = fl.make_parameter(g), fl.MetricContext(n)
    # at most a quarter of pi/2 apart in the deformed angle: acute for any g
    theta = 0.25 * 0.5 * math.pi * par.h
    d = b - (a @ b) / (a @ a) * a
    t1, t2 = a, np.linalg.norm(a) * (math.cos(theta) * a / np.linalg.norm(a) + math.sin(theta) * d / np.linalg.norm(d))
    t3 = t1 + t2 + 1e-3 * d
    alpha = fl.angle(par, ctx, t1, t2)
    cases = [(lambda *v, fn=KERNELS[name]: _arrays(fn(par, ctx, v[0])), (x,), degree)
             for name, degree in ONE_VECTOR_DEGREES.items()]
    cases += [(lambda *v, fn=fn: fn(par, ctx, *v, alpha), (t1, t2, t3), degree)
              for fn, degree, _ in PAIR_TABLE.values()]
    for fn, vectors, degree in cases:
        try:
            ref = fn(*vectors)
        except fl.FinsleroidError:  # outside the kernel's domain at this g, at every scale
            continue
        degrees = _degrees(degree, par.h, len(ref))
        want, over = _expected(ref, np.array(k), degrees)
        scaled = [np.ldexp(v, k) for v in vectors]
        if over:
            with pytest.raises(fl.NumericalDomainError, match="not finite at this scale"):
                fn(*scaled)
        else:
            _assert_scaled([np.asarray(v)[None] for v in fn(*scaled)], [w[None] for w in want], degrees)


def test_pairs_far_apart_in_scale_raise():
    # a pair is evaluated at the exponent of its larger vector, so its
    # smaller vector must lie within about 2^300 of it; the angle, of degree
    # 0 in each vector, shows the pair is evaluated right up to there
    par, ctx = fl.make_parameter(1.0), fl.MetricContext(3)
    t1, t2 = VECTOR[:3], PARTNER[:3]
    alpha = fl.angle(par, ctx, t1, t2)
    for k1, k2 in ((250, -40), (-40, 250), (-700, -990), (1023, 733)):
        assert fl.angle(par, ctx, np.ldexp(t1, k1), np.ldexp(t2, k2)) == pytest.approx(alpha, rel=1e-14)
    for fn in (fl.angle, fl.finsler_product, fl.covector_pair):
        with pytest.raises(fl.NumericalDomainError, match=r"differ in scale by more than 2\^300 \(row 1\)"):
            fn(par, ctx, np.stack([t1, np.ldexp(t1, 400)]), np.stack([t2, np.ldexp(t2, 50)]))
    with pytest.raises(fl.NumericalDomainError, match=r"differ in scale by more than 2\^300$"):
        fl.parallelogram_residuals(par, ctx, t1, t2, np.ldexp(t1, -320))


# decimal scales, whose rounding of lam * R the power-of-two sweeps above do
# not see; 1.5e308 takes a value of degree 1 past the largest float64
SCALES = (1e-200, 1e-160, 1e160, 1e200)


def _at_decimal_scale(ref, lam, degrees):
    """lam^d times each array of the value at unit scale, multiplied out one
    factor of lam at a time, and whether any of them leaves float64."""
    want = []
    with np.errstate(over="ignore", under="ignore"):
        for x, d in zip(ref, degrees):
            x = np.asarray(x, dtype=float)
            if float(d).is_integer():
                for _ in range(abs(int(d))):
                    x = x * lam if d > 0 else x / lam
            else:
                x = x * lam**d
            want.append(x)
    return want, not all(np.all(np.isfinite(w)) for w in want)


def _assert_decimal_scaled(got, want, rtol=1e-13):
    """Each array within rtol of its largest entry, or within 4 ulp of it
    where that entry is subnormal."""
    for x, w in zip(got, want):
        top = np.abs(w).max()
        assert np.abs(np.asarray(x) - w).max() <= rtol * top + 4 * np.spacing(top), (top, np.abs(x - w).max())


def _check_decimal_scale(fn, vectors, lam, ref, degrees, rtol=1e-13):
    """fn at lam times the vectors follows the degrees, or raises the typed
    error where the value leaves float64; so does the second row of a stack
    of the vectors at unit scale and at lam, and the error names that row.
    Returns whether the value is finite."""
    want, over = _at_decimal_scale(ref, lam, degrees)
    if over:
        with pytest.raises(fl.NumericalDomainError, match=r"not finite at this scale$"):
            fn(*(lam * v for v in vectors))
        with pytest.raises(fl.NumericalDomainError, match=r"not finite at this scale \(row 1\)"):
            fn(*(np.stack([v, lam * v]) for v in vectors))
        return False
    _assert_decimal_scaled(fn(*(lam * v for v in vectors)), want, rtol)
    stacked = fn(*(np.stack([v, lam * v]) for v in vectors))
    _assert_decimal_scaled([x[0] for x in stacked], ref, rtol)
    _assert_decimal_scaled([x[1] for x in stacked], want, rtol)
    return True


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("g", [0.0, 1.0, -1.5])
def test_scale_extremes_raise_typed_errors(g, n):
    # the metric kernels of R, off and on the axis and the plane: a value at
    # a scale extreme, or NumericalDomainError only where it leaves float64
    par = fl.make_parameter(g)
    ctx = fl.MetricContext(n)
    generic = VECTOR[:n]
    kinds = {
        "g": generic,
        "p": np.r_[generic[:-1], 0.0],  # in the plane
        "a": np.r_[np.zeros(n - 1), 0.8],  # on the axis
    }
    raised = set()
    for name in ("kfun", "gradient_covector", "metric_tensor", "inverse_metric", "angular_tensor",
                 "sigma_map", "sigma_jacobian"):
        fn = lambda R, fn=KERNELS[name]: _arrays(fn(par, ctx, R))
        for kind, R in kinds.items():
            ref = fn(R)
            degrees = _degrees(ONE_VECTOR_DEGREES[name], par.h, len(ref))
            for lam in SCALES + (1.5e308,):
                if not _check_decimal_scale(fn, (R,), lam, ref, degrees):
                    raised.add((name, lam))
    # only degree-1 kernels leave float64, and only at the top; K does
    assert {lam for _, lam in raised} == {1.5e308}
    assert ("kfun", 1.5e308) in raised
    assert {name for name, _ in raised} <= {"kfun", "gradient_covector", "sigma_map"}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("g", [0.0, 1.0, -1.5])
def test_cartan_scale_extremes(g, n):
    par = fl.make_parameter(g)
    ctx = fl.MetricContext(n)
    generic = VECTOR[:n]
    for name, (kernel, degrees) in CARTAN.items():
        fn = lambda R, kernel=kernel: _arrays(kernel(par, ctx, R))
        ref = fn(generic)
        for lam in SCALES:
            finite = _check_decimal_scale(fn, (generic,), lam, ref, degrees)
            # the curvature, ~ 1/|R|^2, leaves float64 below 1e-154 unless it is 0
            assert finite == (name != "curvature_tensor" or lam > 1.0 or g == 0.0), (name, lam)
            # in the plane each follows its degree; on the axis the Cartan
            # tensor has no limit, while the curvature is continuous there
            for kind in (np.r_[generic[:-1], 0.0], np.r_[np.zeros(n - 1), 0.8]):
                if kind[-1] != 0.0 and name != "curvature_tensor":
                    with pytest.raises(fl.OnAxisError):
                        kernel(par, ctx, lam * kind)
                    continue
                finite = _check_decimal_scale(fn, (kind,), lam, fn(kind), degrees)
                assert finite == (name != "curvature_tensor" or lam > 1.0 or g == 0.0), (name, lam)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("g", [1.0, -1.5])
def test_cartan_toward_the_plane_and_the_axis(g, n):
    # R = (1, 0.3, 0.., 10^-k), k = 0..320, and Z = 0; R = (0.3, 0.4, 0..) 2^-k
    # + e_N, k = 0..1000: finite values with no warning, C_p C^p =
    # N^2 g^2/(4 K^2), and the Cartan tensor continuous at the plane
    par, ctx = fl.make_parameter(g), fl.MetricContext(n)
    plane = np.zeros((322, n))
    plane[:, :2] = 1.0, 0.3
    plane[:-1, -1] = 10.0 ** -np.arange(321.0)
    axis = np.zeros((1001, n))
    axis[:, :2] = np.ldexp([0.3, 0.4], np.arange(-1000, 1)[::-1, None])
    axis[:, -1] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for R in (plane, axis):
            # every row in one stack, every tenth row alone
            for rows in [R] + list(R[::10]):
                ct = fl.cartan_tensor(par, ctx, rows)
                stack = fl.tensor_stack(par, ctx, rows)
                curvature = fl.curvature_tensor(par, ctx, rows)
                for x in _arrays(ct) + _arrays(stack) + [curvature]:
                    assert np.isfinite(x).all()
                cc = np.einsum("...p,...p->...", ct.c_vec_lower, ct.c_vec_upper)
                target = n * n * g * g / (4.0 * fl.kfun(par, ctx, rows) ** 2)
                np.testing.assert_allclose(cc, target, rtol=1e-13, atol=0.0)
        at_1e60, at_plane = (fl.cartan_tensor(par, ctx, plane[k]).c_lower for k in (60, -1))
    assert np.abs(at_1e60 - at_plane).max() <= 1e-15 * np.abs(at_plane).max()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_q_is_exact_off_a_tiny_part(n):
    # q = 5 2^-k at (3, 4, 0..) 2^-k + e_N, k = 0..1000, where q^2 leaves
    # the normal float64 range from about k = 512: within 2 ulp, alone and
    # stacked
    par, ctx = fl.make_parameter(1.0), fl.MetricContext(n)
    k = np.arange(1001)
    bold = [3.0, 4.0] if n > 2 else [5.0]
    R = np.zeros((len(k), n))
    R[:, :len(bold)] = np.ldexp(bold, -k[:, None])
    R[:, -1] = 1.0
    want = np.ldexp(5.0, -k)
    single = np.array([fl.scalar_bundle(par, ctx, r).q for r in R])
    for q in (single, fl.scalar_bundle(par, ctx, R).q, [fl.q_norm(ctx, r) for r in R]):
        assert np.all(np.abs(np.asarray(q) - want) <= 2 * np.spacing(want))


@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize("g", [1.0, -1.5])
def test_metric_scale_extremes(g, scale):
    # at r_ab = scale I the kernels evaluate at whitened rows, of components
    # sqrt(scale) R^a, and map each output back by its index types: finite,
    # with no numpy warning, and true to the raw-coordinate identities
    par, ctx = fl.make_parameter(g), fl.MetricContext(3, scale * np.eye(2))
    d = np.array([math.sqrt(scale), math.sqrt(scale), 1.0])  # the whitening map
    # g_pq g^qr = delta, formed at d^-1 g d^-1 and d g^-1 d, whose entries are O(1)
    unit = lambda low, up: (low / np.outer(d, d)) @ (up * np.outer(d, d))
    R = np.array([1.0, 1.0, 1.0])
    t1, t2 = np.array([0.4, -0.7, 0.9]) / d, np.array([0.3, 0.8, 0.5]) / d  # a generic whitened pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k2 = fl.kfun(par, ctx, R) ** 2
        g_lower, g_upper = fl.metric_tensor(par, ctx, R), fl.inverse_metric(par, ctx, R)
        stack = fl.tensor_stack(par, ctx, R)
        quasi = fl.quasi_metric(par, ctx, R)
        product = fl.finsler_product(par, ctx, R, R)
        tv = fl.two_vector_metric(par, ctx, t1, t2)
        t12 = fl.scalar_product(par, ctx, t1, t2)
    for record in (stack, quasi, product, tv, tv.pair):
        for value in dataclasses.astuple(record):
            assert value is None or isinstance(value, tuple) or np.all(np.isfinite(value))
    assert R @ g_lower @ R == pytest.approx(k2, rel=1e-13)
    assert stack.r_lower @ R == pytest.approx(k2, rel=1e-13)
    assert product.product == pytest.approx(k2, rel=1e-13)
    assert t1 @ tv.n_lower @ t2 == pytest.approx(t12, rel=1e-13)
    for low, up in ((g_lower, g_upper), (stack.g_lower, stack.g_upper), (quasi.n_lower, quasi.n_upper)):
        np.testing.assert_allclose(unit(low, up), np.eye(3), rtol=0.0, atol=1e-13)


def test_whitened_row_out_of_range_is_a_domain_error():
    # at r_ab = 1e300 I the finite row (1e200, 1, 1) whitens to about 1e350,
    # and at 1e-300 I the nonzero row (1e-200, 0, 0) to 0: a typed error
    # naming that row, where a given row that is not finite, or 0, keeps
    # its own error
    par, ctx = fl.make_parameter(1.0), fl.MetricContext(3, 1e300 * np.eye(2))
    rows = np.array([[1.0, 1.0, 1.0], [1e200, 1.0, 1.0]])
    assert np.all(np.isfinite(fl.metric_tensor(par, ctx, rows[0])))
    with pytest.raises(fl.NumericalDomainError, match=r"whitened vector leaves float64 at this metric \(row 1\)"):
        fl.metric_tensor(par, ctx, rows)
    with pytest.raises(fl.NumericalDomainError, match="whitened vector"):
        fl.scalar_product(par, ctx, rows[0], rows[1])
    with pytest.raises(fl.OutOfRangeError, match=r"must be finite \(row 0\)"):
        fl.metric_tensor(par, ctx, np.array([[np.nan, 1.0, 1.0], [1e200, 1.0, 1.0]]))
    tiny = fl.MetricContext(3, 1e-300 * np.eye(2))
    with pytest.raises(fl.NumericalDomainError, match=r"whitened vector leaves float64 at this metric \(row 1\)"):
        fl.metric_tensor(par, tiny, np.array([[1.0, 1.0, 1.0], [1e-200, 0.0, 0.0]]))
    with pytest.raises(fl.ZeroVectorError, match=r"\(row 1\)"):
        fl.metric_tensor(par, tiny, np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))


@pytest.mark.parametrize("g", [0.0, 1.0, -1.5])
def test_image_side_scale_extremes(g):
    # the image-side kernels and axis_angles follow their degree out to the
    # scale extremes; only the quasi-metric's 1/S^2 leaves float64, below
    # 1e-154 unless it is 0
    par, ctx = fl.make_parameter(g), fl.MetricContext(3)
    t = np.array([0.3, -0.5, 0.7])
    for name in ("mu_map", "mu_jacobian", "phi_angle", "quasi_metric", "quasi_metric_derivative",
                 "conformal_flatten", "conformal_jacobian", "axis_angles"):
        fn = lambda v, kernel=KERNELS[name]: _arrays(kernel(par, ctx, v))
        ref = fn(t)
        degrees = _degrees(ONE_VECTOR_DEGREES[name], par.h, len(ref))
        for lam in SCALES + (1e-150, 1e150):
            finite = _check_decimal_scale(fn, (t,), lam, ref, degrees)
            assert finite == (name != "quasi_metric" or lam > 1e-154 or g == 0.0), (name, lam)
    f = lambda lam: fl.conformal_flatten(par, ctx, lam * t)[1]
    for lam in (1e-200, 1e-150, 1e-100, 1e100, 1e150, 1e200):
        assert f(lam) / f(1.0) == pytest.approx(lam**par.gamma, rel=1e-13)


@pytest.mark.parametrize("g", [0.0, 1.0, -1.5])
def test_degree_three_pair_outputs(g):
    # m_r (degree 3) leaves float64 beyond about 1e+102: a typed error naming
    # the pair; the pair tensor G and the kernels of degree 0 to 2 hold
    par, ctx = fl.make_parameter(g), fl.MetricContext(3)
    R, S = np.array([0.4, -0.7, 0.9]), np.array([0.1, 0.6, 0.5])
    product = lambda *a: [getattr(fl.finsler_product(par, ctx, *a), f) for f in ("m_r", "g_lower")]
    cases = [
        (lambda *a: [fl.m_vector(par, ctx, *a)], (3,)),
        (product, (3, 0)),
        (lambda *a: [fl.finsler_two_vector_tensor(par, ctx, *a)], (0,)),
        (lambda *a: [fl.finsler_angle(par, ctx, *a)], (0,)),
        (lambda *a: [fl.s_vector(par, ctx, *a)], (0,)),
    ]
    for fn, degrees in cases:
        ref = fn(R, S)
        for lam in (1e-150, 1e-120, 1e-90, 1e90, 1e104, 1e120, 1e150):
            finite = _check_decimal_scale(fn, (R, S), lam, ref, degrees, rtol=1e-12)
            assert finite == (degrees[0] != 3 or lam < 1e100), (degrees, lam)
    ref = fl.product_gradients(par, ctx, R, S)  # one pair at a time
    for lam in (1e-150, 1e-120, 1e120, 1e150):
        _assert_decimal_scaled(fl.product_gradients(par, ctx, lam * R, lam * S),
                               _at_decimal_scale(ref, lam, (1, 1))[0], rtol=1e-12)
