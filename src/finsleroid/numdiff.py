"""Central finite differences used as oracles throughout the test harness.

Single global convention: central differences with per-component step
1e-5 * (1 + |x_i|).  Checks that probe nearly-coincident vector pairs
pass an explicit smaller ``scale`` (the derivatives they probe grow like
the inverse pair separation squared, so the global step is too coarse).
"""

from __future__ import annotations

import numpy as np

DEFAULT_SCALE = 1e-5


def steps(x: np.ndarray, scale: float = DEFAULT_SCALE) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return scale * (1.0 + np.abs(x))


def gradient(f, x, scale: float = DEFAULT_SCALE) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    return jacobian(f, x, scale)


def jacobian(f, x, scale: float = DEFAULT_SCALE) -> np.ndarray:
    """Central-difference derivative of an array-valued function.

    Returns an array of shape ``f(x).shape + x.shape``; the trailing axis
    indexes the differentiation direction.
    """
    x = np.asarray(x, dtype=float)
    h = steps(x, scale)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h[i]))
    return np.stack(cols, axis=-1)


HESSIAN_SCALE = 6e-5


def hessian(f, x, scale: float = HESSIAN_SCALE) -> np.ndarray:
    """Central-difference Hessian of a scalar function of a vector.

    Second differences divide by the step squared, so float64 roundoff
    forces a larger default step than first derivatives use: at 1e-5 the
    noise floor sits near 3e-5 relative, at 6e-5 below 1e-6.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = steps(x, scale)
    out = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros_like(x)
        ei[i] = h[i]
        out[i, i] = (f(x + 2 * ei) - 2.0 * f0 + f(x - 2 * ei)) / (4.0 * h[i] ** 2)
        for j in range(i + 1, n):
            ej = np.zeros_like(x)
            ej[j] = h[j]
            mixed = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
            out[i, j] = mixed
            out[j, i] = mixed
    return out


def mixed_second(f, x, y, scale: float = HESSIAN_SCALE) -> np.ndarray:
    """Mixed partial d^2 f / dx^p dy^q of a scalar two-vector function.

    Single four-point stencil per entry; far more accurate than nesting
    two first-derivative stencils.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hx = steps(x, scale)
    hy = steps(y, scale)
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


def second_derivative(f, s: float, scale: float = HESSIAN_SCALE):
    """Central second difference of a (possibly vector valued) curve."""
    h = scale * (1.0 + abs(s))
    return (np.asarray(f(s + h)) - 2.0 * np.asarray(f(s)) + np.asarray(f(s - h))) / h**2


def derivative(f, s: float, scale: float = DEFAULT_SCALE):
    """Central first difference of a curve parameter."""
    h = scale * (1.0 + abs(s))
    return (np.asarray(f(s + h)) - np.asarray(f(s - h))) / (2.0 * h)
