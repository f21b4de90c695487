"""The one-vector and pair kernels over stacked rows, shape (..., N):
row-wise agreement with single calls, errors that name the offending row,
and typed errors or prescaled values instead of NaN at scale extremes."""

import dataclasses

import numpy as np
import pytest

import finsleroid as fl

GS = [0.0, 0.7, -1.1, 1.5]
KERNELS = {
    "kfun": fl.kfun,
    "gradient_covector": fl.gradient_covector,
    "metric_tensor": fl.metric_tensor,
    "inverse_metric": fl.inverse_metric,
    "angular_tensor": fl.angular_tensor,
    "sigma_map": fl.sigma_map,
    "sigma_jacobian": fl.sigma_jacobian,
}
FIELDS = ("q", "Z", "B", "Q", "E", "A", "L", "phi", "J", "K")


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
        single = np.array([fn(par, ctx, r) for r in R])
        batched = fn(par, ctx, R)
        assert batched.shape == single.shape, name
        assert_rows_match(batched, single)
        stacked = fn(par, ctx, R[:8].reshape(2, 4, n))
        assert stacked.shape == (2, 4) + single.shape[1:], name
        assert_rows_match(stacked.reshape(single[:8].shape), single[:8])
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
        # a row at a scale extreme raises the typed error, naming that row
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
    for name, fn in KERNELS.items():
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
    "curvature_tensor": (lambda par, ctx, R: (fl.curvature_tensor(par, ctx, R),), (-2,)),
}


def _fields(x):
    return [getattr(x, f.name) for f in dataclasses.fields(x)] if dataclasses.is_dataclass(x) else list(x)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("g", [0.0, 1.0, -1.5])
def test_cartan_scale_extremes(g, n):
    par = fl.make_parameter(g)
    ctx = fl.MetricContext(n)
    generic = np.array([0.4, -0.7, 0.9, 0.5][:n])
    for name, (fn, degrees) in CARTAN.items():
        ref = _fields(fn(par, ctx, generic))
        for scale in (1e-200, 1e-160, 1e160, 1e200):
            # the curvature, ~ 1/|R|^2, leaves float64 below 1e-154 unless it is 0
            if name == "curvature_tensor" and scale < 1.0 and g != 0.0:
                with pytest.raises(fl.NumericalDomainError, match="not finite at this scale"):
                    fn(par, ctx, scale * generic)
                continue
            out = _fields(fn(par, ctx, scale * generic))
            for x, x0, d in zip(out, ref, degrees):
                assert np.all(np.isfinite(x)), (name, scale)
                if abs(d) == 1 or d == 0:  # in the normal range: homogeneity to rounding
                    np.testing.assert_allclose(x / scale**d, x0, rtol=1e-13, atol=1e-13 * np.abs(x0).max())
            for kind in (np.r_[generic[:-1], 0.0], np.r_[np.zeros(n - 1), 0.8]):  # plane, axis
                with pytest.raises(fl.OnAxisError):
                    fn(par, ctx, scale * kind)


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
    if name in ("pair_invariants", "two_vector_metric", "finsler_two_vector_tensor"):
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
