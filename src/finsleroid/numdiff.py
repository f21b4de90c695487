"""Central finite differences used as oracles throughout the test harness.

Single global convention: central differences with per-component step
1e-5 * (1 + |x_i|).  Checks that probe nearly-coincident vector pairs
pass an explicit smaller ``scale`` (the derivatives they probe grow like
the inverse pair separation squared, so the global step is too coarse).

The vector stencils (``jacobian``, ``gradient``, ``hessian``,
``mixed_second``) stack all their points and call the function once, so
it must take rows (k, N), as the library kernels do; ``rowwise`` adapts
a function of single vectors.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SCALE = 1e-5


def steps(x: np.ndarray, scale: float = DEFAULT_SCALE) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return scale * (1.0 + np.abs(x))


def rowwise(f):
    """Adapt a function of single vectors to the stacked stencils below:
    the result evaluates f row by row on (k, N) stacks (one stack per
    argument) and stacks the values."""
    return lambda *rows: np.stack([np.asarray(f(*row)) for row in zip(*rows)])


def gradient(f, x, scale: float = DEFAULT_SCALE) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    return jacobian(f, x, scale)


def jacobian(f, x, scale: float = DEFAULT_SCALE) -> np.ndarray:
    """Central-difference derivative of an array-valued function.

    ``f`` takes the 2n stencil points stacked as (2n, n) rows in one call
    and returns their values stacked along the first axis.  Returns an
    array of shape ``f(x).shape + x.shape``; the trailing axis indexes
    the differentiation direction.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = steps(x, scale)
    e = np.diag(h)
    values = np.asarray(f(np.concatenate((x + e, x - e))))
    cols = (values[:n] - values[n:]) / (2.0 * h).reshape((n,) + (1,) * (values.ndim - 1))
    return np.moveaxis(cols, 0, -1)


HESSIAN_SCALE = 6e-5
_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))  # the four corners of a mixed stencil


def hessian(f, x, scale: float = HESSIAN_SCALE) -> np.ndarray:
    """Central-difference Hessian of a scalar function of a vector.

    Second differences divide by the step squared, so float64 roundoff
    forces a larger default step than first derivatives use: at 1e-5 the
    noise floor sits near 3e-5 relative, at 6e-5 below 1e-6.  ``f`` takes
    the stencil points stacked as rows in one call: x, x +- 2 h_i e_i and
    x +- h_i e_i +- h_j e_j for i < j.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = steps(x, scale)
    e = np.diag(h)
    i, j = np.triu_indices(n, 1)
    pairs = [x + si * e[i] + sj * e[j] for si, sj in _SIGNS]
    values = np.asarray(f(np.concatenate([x[None], x + 2 * e, x - 2 * e, *pairs])))
    f0, fp, fm, fpp, fpm, fmp, fmm = np.split(values, np.cumsum([1, n, n] + [i.size] * 3))
    out = np.empty((n, n))
    out[np.diag_indices(n)] = (fp - 2.0 * f0 + fm) / (4.0 * h**2)
    out[i, j] = out[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
    return out


def mixed_second(f, x, y, scale: float = HESSIAN_SCALE) -> np.ndarray:
    """Mixed partial d^2 f / dx^p dy^q of a scalar two-vector function.

    Single four-point stencil per entry; far more accurate than nesting
    two first-derivative stencils.  ``f`` takes the 4 nm stencil pairs
    (x +- hx_p e_p, y +- hy_q e_q) stacked as two (4 nm, .) arrays in one
    call.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hx = steps(x, scale)
    hy = steps(y, scale)
    ex = np.repeat(np.diag(hx), y.size, axis=0)  # row p*m + q moves x^p
    ey = np.tile(np.diag(hy), (x.size, 1))  # ... and y^q
    xs = np.concatenate([x + sx * ex for sx, _ in _SIGNS])
    ys = np.concatenate([y + sy * ey for _, sy in _SIGNS])
    fpp, fpm, fmp, fmm = np.split(np.asarray(f(xs, ys)), 4)
    return ((fpp - fpm - fmp + fmm) / np.outer(4.0 * hx, hy).ravel()).reshape(x.size, y.size)


def second_derivative(f, s: float, scale: float = HESSIAN_SCALE):
    """Central second difference of a (possibly vector valued) curve."""
    h = scale * (1.0 + abs(s))
    return (np.asarray(f(s + h)) - 2.0 * np.asarray(f(s)) + np.asarray(f(s - h))) / h**2


def derivative(f, s: float, scale: float = DEFAULT_SCALE):
    """Central first difference of a curve parameter."""
    h = scale * (1.0 + abs(s))
    return (np.asarray(f(s + h)) - np.asarray(f(s - h))) / (2.0 * h)
