"""Central finite differences used as oracles throughout the test harness.

Single global convention: central differences with per-component step
1e-5 * (1 + |x_i|).  Checks that probe nearly-coincident vector pairs
pass an explicit smaller ``scale`` (the derivatives they probe grow like
the inverse pair separation squared, so the global step is too coarse).

The vector stencils (``jacobian``, ``gradient``, ``hessian``,
``mixed_second``) take one base point (n,) or base points stacked as
(..., n) (``mixed_second`` a pair of such stacks), stack the stencil
points of every base point along a new leading axis and call the
function once, so it must take rows (k, ..., n), as the library kernels
do.  A row of a stacked call equals the call at that one base point.
The step ``scale`` is a number, or an array that broadcasts against the
base points.  The curve differences (``derivative``,
``second_derivative``) take a scalar parameter or an array of them, and
call the function once per stencil point.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SCALE = 1e-5


def steps(x: np.ndarray, scale=DEFAULT_SCALE) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return scale * (1.0 + np.abs(x))


def _axes(h):
    """e with e[i] = h_i e_i at every base point: the per-point steps h,
    shape (..., n), spread over the n unit vectors along a new first axis,
    shape (n, ..., n)."""
    return np.moveaxis(h[..., None] * np.eye(h.shape[-1]), -2, 0)


def gradient(f, x, scale=DEFAULT_SCALE) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    return jacobian(f, x, scale)


def jacobian(f, x, scale=DEFAULT_SCALE) -> np.ndarray:
    """Central-difference derivative of an array-valued function at base
    points x, one vector of shape (n,) or vectors stacked as (..., n).

    ``f`` takes the 2n stencil points of every base point stacked as
    (2n, ..., n) rows in one call and returns their values stacked along
    the same leading axes.  Returns an array of shape ``x.shape[:-1] +
    f(x).shape[x.ndim - 1:] + (n,)``, that is ``f(x).shape + (n,)`` for
    one vector; the trailing axis indexes the differentiation direction.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    h = steps(x, scale)
    e = _axes(h)
    values = np.asarray(f(np.concatenate((x + e, x - e))))
    cols = (values[:n] - values[n:]) / _spread(np.moveaxis(2.0 * h, -1, 0), values.ndim)
    return np.moveaxis(cols, 0, -1)


def _spread(h, ndim: int):
    """h with trailing axes added up to ndim, so that it broadcasts against
    values whose leading axes are those of h."""
    return np.reshape(h, np.shape(h) + (1,) * (ndim - np.ndim(h)))


HESSIAN_SCALE = 6e-5
_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))  # the four corners of a mixed stencil


def hessian(f, x, scale=HESSIAN_SCALE) -> np.ndarray:
    """Central-difference Hessian of a scalar function of a vector, at one
    base point x of shape (n,) or at base points stacked as (..., n);
    returns shape x.shape[:-1] + (n, n).

    Second differences divide by the step squared, so float64 roundoff
    forces a larger default step than first derivatives use: at 1e-5 the
    noise floor sits near 3e-5 relative, at 6e-5 below 1e-6.  ``f`` takes
    the stencil points of every base point stacked as (k, ..., n) rows in
    one call: x, x +- 2 h_i e_i and x +- h_i e_i +- h_j e_j for i < j.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    h = steps(x, scale)
    e = _axes(h)
    i, j = np.triu_indices(n, 1)
    pairs = [x + si * e[i] + sj * e[j] for si, sj in _SIGNS]
    values = np.asarray(f(np.concatenate([x[None], x + 2 * e, x - 2 * e, *pairs])))
    f0, fp, fm, fpp, fpm, fmp, fmm = np.split(values, np.cumsum([1, n, n] + [i.size] * 3))
    h = np.moveaxis(h, -1, 0)
    out = np.empty((n, n) + values.shape[1:])
    out[np.diag_indices(n)] = (fp - 2.0 * f0 + fm) / (4.0 * h**2)
    out[i, j] = out[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
    return np.moveaxis(out, (0, 1), (-2, -1))


def mixed_second(f, x, y, scale=HESSIAN_SCALE) -> np.ndarray:
    """Mixed partial d^2 f / dx^p dy^q of a scalar two-vector function, at
    one pair x, y of shapes (n,), (m,) or at pairs stacked as (..., n),
    (..., m), the two stacks of one leading shape L; returns shape
    L + (n, m).

    Single four-point stencil per entry; far more accurate than nesting
    two first-derivative stencils.  ``f`` takes the 4 nm stencil pairs
    (x +- hx_p e_p, y +- hy_q e_q) of every pair stacked as two
    (4 nm, ..., .) arrays in one call.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lead, n, m = x.shape[:-1], x.shape[-1], y.shape[-1]
    hx = steps(x, scale)
    hy = steps(y, scale)
    ex = np.repeat(_axes(hx), m, axis=0)  # row p*m + q moves x^p
    ey = np.tile(_axes(hy), (n,) + (1,) * len(y.shape))  # ... and y^q
    xs = np.concatenate([x + sx * ex for sx, _ in _SIGNS])
    ys = np.concatenate([y + sy * ey for _, sy in _SIGNS])
    fpp, fpm, fmp, fmm = np.split(np.asarray(f(xs, ys)), 4)
    den = (4.0 * np.moveaxis(hx, -1, 0))[:, None] * np.moveaxis(hy, -1, 0)[None, :]
    out = (fpp - fpm - fmp + fmm) / den.reshape((n * m,) + lead)
    return np.moveaxis(out.reshape((n, m) + lead), (0, 1), (-2, -1))


def second_derivative(f, s, scale: float = HESSIAN_SCALE):
    """Central second difference of a (possibly vector valued) curve at the
    parameters s, a scalar or an array; ``f`` maps an array of parameters
    to values whose leading axes are those of the array, and is called
    once per stencil point with all of s."""
    s = np.asarray(s, dtype=float)
    h = scale * (1.0 + np.abs(s))
    d2 = np.asarray(f(s + h)) - 2.0 * np.asarray(f(s)) + np.asarray(f(s - h))
    return d2 / _spread(h**2, d2.ndim)


def derivative(f, s, scale: float = DEFAULT_SCALE):
    """Central first difference of a curve at the parameters s, taking f
    as second_derivative does."""
    s = np.asarray(s, dtype=float)
    h = scale * (1.0 + np.abs(s))
    d = np.asarray(f(s + h)) - np.asarray(f(s - h))
    return d / _spread(2.0 * h, d.ndim)
