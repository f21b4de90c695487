"""The one-vector kernels over stacked rows, shape (..., N): row-wise
agreement with single-vector calls, errors that name the offending row,
and typed errors instead of NaN at scale extremes."""

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
