"""The one-vector and pair kernels over stacked rows, shape (..., N):
row-wise agreement with single calls, errors that name the offending row,
and typed errors or prescaled values instead of NaN at scale extremes."""

import dataclasses
import operator

import numpy as np
import pytest

import finsleroid as fl
from finsleroid import oracles

GS = [0.0, 0.7, -1.1, 1.5]
# the metric kernels of R, whose rows at scale extremes raise NumericalDomainError
SCALED = {
    "kfun": fl.kfun,
    "gradient_covector": fl.gradient_covector,
    "metric_tensor": fl.metric_tensor,
    "inverse_metric": fl.inverse_metric,
    "angular_tensor": fl.angular_tensor,
    "sigma_map": fl.sigma_map,
    "sigma_jacobian": fl.sigma_jacobian,
}
# every one-vector kernel over rows (..., N), each returning an array or a
# record of arrays; the image-side kernels take the rows as image vectors t
KERNELS = {
    **SCALED,
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
# chart closed forms: OnAxisError on the axis (q = 0, or m(t) = 0) and,
# for the Cartan tensor, in the plane (Z = 0)
ON_AXIS = {"cartan_tensor", "curvature_tensor", "tensor_stack", "cartan_mixed_reference", "mu_jacobian"}
IN_PLANE = ON_AXIS - {"mu_jacobian"}
FIELDS = ("q", "Z", "B", "Q", "E", "A", "L", "phi", "J", "K")


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
        rows = R[3:] if name in ON_AXIS else R
        single = [_arrays(fn(par, ctx, r)) for r in rows]
        batched = _arrays(fn(par, ctx, rows))
        stacked = _arrays(fn(par, ctx, rows[:8].reshape(2, 4, n)))
        for k, (b, grid) in enumerate(zip(batched, stacked)):
            ref = np.array([x[k] for x in single])
            assert b.shape == ref.shape, (name, k)
            assert_rows_match(b, ref)
            assert grid.shape == (2, 4) + ref.shape[1:], (name, k)
            assert_rows_match(grid.reshape(ref[:8].shape), ref[:8])
        # a row on the axis or in the plane raises OnAxisError naming it
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
    assert np.isnan(rows.Q[1]) and np.isnan(rows.E[1])


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
        # a row at a scale extreme raises the typed error, naming that row;
        # the Cartan functions prescale instead (test_cartan_rows_prescale),
        # and the verifier's reference forms make no promise at such scales
        if name not in CARTAN and not name.endswith("_reference"):
            R = np.ones((4, 3))
            R[3] *= 1e200
            with pytest.raises(fl.NumericalDomainError, match=r"\(row 3\)"):
                fn(par, ctx, R)
        with pytest.raises(fl.OutOfRangeError):
            fn(par, ctx, np.ones((3, 4)))


# (kernel, vector kind, scale) that evaluate to finite values at these
# scales; every other combination raises NumericalDomainError
FINITE = {
    *((k, kind, 1e-160) for k in ("kfun", "gradient_covector", "sigma_map") for kind in "gpa"),
    *(("sigma_map", kind, 1e-200) for kind in "gpa"),
    ("sigma_map", "a", 1e160),
    ("sigma_map", "a", 1e200),
    ("sigma_jacobian", "a", 1e-160),
}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("g", [0.0, 1.0, -1.5])
def test_scale_extremes_raise_typed_errors(g, n):
    par = fl.make_parameter(g)
    ctx = fl.MetricContext(n)
    generic = np.array([0.4, -0.7, 0.9, 0.5][:n])
    kinds = {
        "g": generic,
        "p": np.r_[generic[:-1], 0.0],  # in the plane
        "a": np.r_[np.zeros(n - 1), 0.8],  # on the axis
    }
    for name, fn in SCALED.items():
        for kind, R in kinds.items():
            for scale in (1e-200, 1e-160, 1e160, 1e200):
                if (name, kind, scale) in FINITE:
                    assert np.all(np.isfinite(fn(par, ctx, scale * R))), (name, kind, scale)
                    continue
                with pytest.raises(fl.NumericalDomainError, match=r"not finite|is 0"):
                    fn(par, ctx, scale * R)
                with pytest.raises(fl.NumericalDomainError, match=r"\(row 1\)"):
                    fn(par, ctx, np.stack([R, scale * R]))


# the one-vector Cartan functions, prescaled by a power of two, with the
# homogeneity degree of each returned array
CARTAN = {
    "cartan_tensor": (fl.cartan_tensor, (-1, -1, -1, -1)),
    "tensor_stack": (fl.tensor_stack, (1, 0, 0, 0, -1, -1, -1, -1)),
    "curvature_tensor": (fl.curvature_tensor, (-2,)),
}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("g", [0.0, 1.0, -1.5])
def test_cartan_scale_extremes(g, n):
    par = fl.make_parameter(g)
    ctx = fl.MetricContext(n)
    generic = np.array([0.4, -0.7, 0.9, 0.5][:n])
    for name, (fn, degrees) in CARTAN.items():
        ref = _arrays(fn(par, ctx, generic))
        for scale in (1e-200, 1e-160, 1e160, 1e200):
            # the curvature, ~ 1/|R|^2, leaves float64 below 1e-154 unless it is 0
            if name == "curvature_tensor" and scale < 1.0 and g != 0.0:
                with pytest.raises(fl.NumericalDomainError, match="not finite at this scale"):
                    fn(par, ctx, scale * generic)
                continue
            out = _arrays(fn(par, ctx, scale * generic))
            for x, x0, d in zip(out, ref, degrees):
                assert np.all(np.isfinite(x)), (name, scale)
                if abs(d) == 1 or d == 0:  # in the normal range: homogeneity to rounding
                    np.testing.assert_allclose(x / scale**d, x0, rtol=1e-13, atol=1e-13 * np.abs(x0).max())
            for kind in (np.r_[generic[:-1], 0.0], np.r_[np.zeros(n - 1), 0.8]):  # plane, axis
                with pytest.raises(fl.OnAxisError):
                    fn(par, ctx, scale * kind)


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
        getattr(fl.two_vector_metric(par, ctx, a, b), f) for f in ("n_lower", "a1", "a2", "z")
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
}


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
    T1, T2 = _pair_rows(rng, n)
    for name, fn in PAIR_KERNELS.items():
        single = [fn(par, ctx, a, b) for a, b in zip(T1, T2)]
        batched = fn(par, ctx, T1, T2)
        stacked = fn(par, ctx, T1[:8].reshape(2, 4, n), T2[:8].reshape(2, 4, n))
        for k, (rows, grid) in enumerate(zip(batched, stacked)):
            ref = np.array([s[k] for s in single])
            assert rows.shape == ref.shape, (name, k)
            assert_rows_match(rows, ref)
            assert grid.shape == (2, 4) + ref.shape[1:], (name, k)
            assert_rows_match(grid.reshape(ref[:8].shape), ref[:8])
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
                "two_vector_determinant_reference"):
        with pytest.raises(fl.CollinearError, match=r"sin\(theta\) = [-+.0-9e]+ <= 1e-12 \(row 4\)"):
            fn(par, ctx, T1, L)
    elif name == "finsler_product":
        product, *_, s_r, g_lower = fn(par, ctx, T1, L)
        assert s_r is None and g_lower is None
        assert np.all(np.isfinite(product))


def test_pair_kernels_broadcast(rng):
    # a stack of first vectors against one second vector, as the one-call
    # finite-difference stencils use them
    par = fl.make_parameter(-1.1)
    ctx = _spd_context(rng, 3)
    T1, T2 = _pair_rows(rng, 3, 6)
    for name, fn in PAIR_KERNELS.items():
        for rows, ref in zip(fn(par, ctx, T1, T2[5]), fn(par, ctx, T1, np.broadcast_to(T2[5], T1.shape))):
            # a field of the second vector alone (dot22) keeps its own shape
            assert_rows_match(np.broadcast_to(rows, ref.shape), ref)


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
    # no intermediate of the pair kernels exceeds the order of a squared
    # norm.  The reference is the scaled pair brought back to unit size by
    # an exact power of two, so the comparison (to 4 ulp) sees the scale
    # handling alone, not the rounding of lam * t, which by itself moves
    # the two-vector tensor of a random pair by up to about 16 ulp
    par, ctx = fl.make_parameter(g), fl.MetricContext(3)
    pairs = [(np.array([1.0, 0.2, 0.5]), np.array([0.1, 1.0, 0.4]))] + [rng.uniform(-1, 1, (2, 3)) for _ in range(4)]
    kernels = (fl.angle, lambda *a: fl.pair_invariants(*a).alpha, lambda *a: fl.two_vector_metric(*a).n_lower,
               lambda *a: fl.scalar_product(*a) / (a[2] @ a[2]))  # 2-homogeneous
    for t1, t2 in pairs:
        for lam, fns in [(s, kernels) for s in (1e-150, 1e-45, 1e45, 1e150)] + [(1e80, (fl.finsler_angle,))]:
            back = np.ldexp(1.0, -int(np.frexp(lam)[1]))  # a power of two near 1/lam
            for fn in fns:
                try:
                    x, x0 = fn(par, ctx, lam * t1, lam * t2), fn(par, ctx, back * lam * t1, back * lam * t2)
                except fl.NumericalDomainError:  # admitted for the finsleroid pair at 1e80 only
                    assert fn is fl.finsler_angle
                    continue
                assert np.all(np.abs(x - x0) <= 4 * np.spacing(np.abs(x0).max())), (fn, lam, x, x0)
        # beyond float64 a squared norm is infinite: a typed error, never a value
        for fn in (fl.angle, fl.scalar_product, fl.distance_squared, fl.pair_invariants, fl.two_vector_metric,
                   fl.finsler_angle, fl.finsler_product, fl.finsler_two_vector_tensor, fl.solve_chord,
                   fl.length_gradients, fl.covector_pair):
            with pytest.raises(fl.NumericalDomainError, match="leave the float64 range"):
                fn(par, ctx, 1e200 * t1, 1e200 * t2)


# the image-side kernels and axis_angles, each with the homogeneity degrees
# of the arrays it returns, given gamma = h - 1 (of the conformal flattening)
IMAGE_SIDE = {
    "mu_map": (fl.mu_map, lambda gamma: (1,)),
    "mu_jacobian": (fl.mu_jacobian, lambda gamma: (0,)),
    "phi_angle": (fl.phi_angle, lambda gamma: (0,)),
    "quasi_metric": (fl.quasi_metric, lambda gamma: (0, 0, 0, -1, -2)),
    "quasi_metric_derivative": (fl.quasi_metric_derivative, lambda gamma: (-1,)),
    "conformal_flatten": (fl.conformal_flatten, lambda gamma: (1 + gamma, gamma)),
    "conformal_jacobian": (fl.conformal_jacobian, lambda gamma: (gamma,)),
    "axis_angles": (fl.axis_angles, lambda gamma: (0, 0)),
}


@pytest.mark.parametrize("g", [0.0, 1.0, -1.5])
def test_image_side_scale_extremes(g):
    # each squared norm (S^2, or B for axis_angles) must be a finite normal
    # float64; within that range a power-of-two scale carries through
    par, ctx = fl.make_parameter(g), fl.MetricContext(3)
    t = np.array([0.3, -0.5, 0.7])
    for name, (fn, degrees) in IMAGE_SIDE.items():
        for lam in (1e-200, 1e-160, 1e160, 1e200):
            with pytest.raises(fl.NumericalDomainError, match="float64 range"):
                fn(par, ctx, lam * t)
        ref = _arrays(fn(par, ctx, t))
        for lam in (1e-150, 1e150):  # inside the normal range no intermediate leaves float64
            for x, x0, d in zip(_arrays(fn(par, ctx, lam * t)), ref, degrees(par.gamma)):
                want = np.asarray(x0) * lam**d
                assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max(), (name, lam)
        for k in (-300, 300):
            lam = 2.0**k
            for x, x0, d in zip(_arrays(fn(par, ctx, lam * t)), ref, degrees(par.gamma)):
                if float(d).is_integer():
                    np.testing.assert_array_max_ulp(x, np.asarray(x0) * lam**d, maxulp=4)
                else:  # lam**gamma is itself rounded
                    np.testing.assert_allclose(x, x0 * lam**d, rtol=1e-13, atol=0.0)
    f = lambda lam: fl.conformal_flatten(par, ctx, lam * t)[1]
    for lam in (1e-150, 1e-100, 1e100, 1e150):
        assert f(lam) / f(1.0) == pytest.approx(lam**par.gamma, rel=1e-13)
    with pytest.raises(fl.NumericalDomainError, match=r"\(row 1\)"):
        fl.mu_map(par, ctx, np.stack([t, 1e200 * t]))


@pytest.mark.parametrize("g", [0.0, 1.0, -1.5])
def test_degree_three_pair_outputs(g):
    # m_r (degree 3) and the pair tensor G (sigma' divides by q B, degree 3)
    # leave float64 beyond about 1e+-102: a typed error naming the pair
    par, ctx = fl.make_parameter(g), fl.MetricContext(3)
    R, S = np.array([0.4, -0.7, 0.9]), np.array([0.1, 0.6, 0.5])
    m_vector = lambda *a: [fl.m_vector(*a)]
    product = lambda *a: operator.attrgetter("m_r", "g_lower")(fl.finsler_product(*a))
    tensor = lambda *a: [fl.finsler_two_vector_tensor(*a)]
    for fn, degrees, scales in ((m_vector, (3,), (1e104, 1e120, 1e150)),
                                (product, (3, 0), (1e-150, 1e-120, 1e104, 1e120, 1e150)),
                                (tensor, (0,), (1e-150, 1e-120, 1e104, 1e120, 1e150))):
        for lam in scales:
            with pytest.raises(fl.NumericalDomainError, match="not finite at this scale"):
                fn(par, ctx, lam * R, lam * S)
        with pytest.raises(fl.NumericalDomainError, match=r"\(row 1\)"):
            fn(par, ctx, np.stack([R, 1e150 * R]), np.stack([S, 1e150 * S]))
        ref = fn(par, ctx, R, S)
        for lam in (1e-90, 1e90):
            for x, x0, d in zip(fn(par, ctx, lam * R, lam * S), ref, degrees):
                np.testing.assert_allclose(x, x0 * lam**d, rtol=1e-12, atol=1e-12 * lam**d * np.abs(x0).max())
    for fn in (fl.finsler_angle, fl.s_vector, fl.product_gradients):  # of degree 0 to 2: they hold
        for lam in (1e-150, 1e-120, 1e120, 1e150):
            fn(par, ctx, lam * R, lam * S)
