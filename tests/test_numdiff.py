"""The finite-difference stencils evaluate all their points in one call
and agree exactly with the same stencil evaluated point by point."""

import numpy as np
import pytest

import finsleroid as fl
from finsleroid import numdiff


def _counted(f):
    calls = []

    def wrapped(*args):
        calls.append(args)
        return f(*args)

    return wrapped, calls


def _scalar(x):
    # elementwise arithmetic only, so a stacked row equals its single call
    return np.exp(0.3 * x[..., 0]) * np.cos(x[..., 1]) + x[..., 2] ** 3 - x[..., 0] * x[..., 2]


def _matrix(x):
    return np.stack([np.stack([np.sin(x[..., 0]), x[..., 1] * x[..., 2]], -1),
                     np.stack([np.exp(x[..., 2]), x[..., 0] ** 2], -1)], -2)


def _pair(x, y):
    return np.exp(x[..., 0] * y[..., 1]) + x[..., 1] * np.sin(y[..., 0]) + x[..., 2] * y[..., -1]


def loop_jacobian(f, x, scale=numdiff.DEFAULT_SCALE):
    h = numdiff.steps(x, scale)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h[i]))
    return np.stack(cols, axis=-1)


def loop_hessian(f, x, scale=numdiff.HESSIAN_SCALE):
    n = x.size
    h = numdiff.steps(x, scale)
    out = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros_like(x)
        ei[i] = h[i]
        out[i, i] = (f(x + 2 * ei) - 2.0 * f0 + f(x - 2 * ei)) / (4.0 * h[i] ** 2)
        for j in range(i + 1, n):
            ej = np.zeros_like(x)
            ej[j] = h[j]
            out[i, j] = out[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return out


def loop_mixed_second(f, x, y, scale=numdiff.HESSIAN_SCALE):
    hx = numdiff.steps(x, scale)
    hy = numdiff.steps(y, scale)
    out = np.empty((x.size, y.size))
    for i in range(x.size):
        ei = np.zeros_like(x)
        ei[i] = hx[i]
        for j in range(y.size):
            ej = np.zeros_like(y)
            ej[j] = hy[j]
            out[i, j] = (
                f(x + ei, y + ej) - f(x + ei, y - ej) - f(x - ei, y + ej) + f(x - ei, y - ej)
            ) / (4.0 * hx[i] * hy[j])
    return out


@pytest.mark.parametrize("n", [3, 5])
def test_stencils_equal_point_loops_in_one_call(n, rng):
    x = rng.uniform(-2, 2, n)
    y = rng.uniform(-2, 2, n + 1)
    for fn, stacked, loop, args in (
        (_scalar, numdiff.gradient, loop_jacobian, (x,)),
        (_matrix, numdiff.jacobian, loop_jacobian, (x,)),
        (_scalar, numdiff.hessian, loop_hessian, (x,)),
        (_pair, numdiff.mixed_second, loop_mixed_second, (x, y)),
    ):
        f, calls = _counted(fn)
        got = stacked(f, *args, scale=3e-5)
        assert len(calls) == 1, stacked.__name__
        assert all(a.ndim == 2 for a in calls[0])
        np.testing.assert_array_equal(got, loop(fn, *args, scale=3e-5))


def test_kernel_stencils_match_point_loops(rng):
    # the library kernels take the stencil stacks directly
    par = fl.make_parameter(1.1)
    ctx = fl.MetricContext(3)
    r, s = rng.uniform(-1, 1, (2, 3))
    k2 = lambda x: fl.kfun(par, ctx, x) ** 2
    np.testing.assert_array_equal(numdiff.hessian(k2, r), loop_hessian(k2, r))
    mt = lambda x: fl.metric_tensor(par, ctx, x)
    np.testing.assert_array_equal(numdiff.jacobian(mt, r), loop_jacobian(mt, r))
    prod = lambda x, y: fl.finsler_product(par, ctx, x, y).product
    np.testing.assert_array_equal(numdiff.mixed_second(prod, r, s), loop_mixed_second(prod, r, s))

