"""The exact sum vector of the parallelogram law: near-collinear pairs,
and properties over g, N, angles, length ratios and power-of-two scales."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import finsleroid as fl


def _residual(par, ctx, t1, t2, t3):
    return max(map(abs, fl.parallelogram_residuals(par, ctx, t1, t2, t3)))


@pytest.mark.parametrize("g", [0.5, 1.0, 1.5, 1.9])
@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
@pytest.mark.parametrize("lam", [1.0, 1e-3, 1e3])
def test_near_collinear_sum(g, eps, lam, ctx3):
    # t2 is lam times t1 rotated by eps about the axis; a bracketed solve of
    # the two equations failed to bracket the radius for half of these
    par = fl.make_parameter(g)
    t1 = np.array([1.0, 0.2, 0.5])
    c, s = math.cos(eps), math.sin(eps)
    t2 = lam * np.array([c * t1[0] - s * t1[1], s * t1[0] + c * t1[1], t1[2]])
    t3 = fl.parallelogram_refine(par, ctx3, t1, t2)
    scale = max(ctx3.s_norm(t1), ctx3.s_norm(t2))
    assert _residual(par, ctx3, t1, t2, t3) <= 1e-14 * scale


@st.composite
def acute_pairs(draw):
    """(g, N, t1, t2, k): an acute pair at unit scale, |t1| = 1 and
    |t2| in [1e-3, 1e3], with sin(theta) >= 1e-9, and a power-of-two
    exponent |k| <= 300."""
    g = draw(st.floats(-1.99, 1.99))
    n = draw(st.sampled_from([2, 3, 5]))
    unit = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(np.array)
    a, b = draw(unit), draw(unit)
    assume(np.linalg.norm(a) > 0.1)
    e1 = a / np.linalg.norm(a)
    b = b - (b @ e1) * e1
    assume(np.linalg.norm(b) > 0.1)
    e2 = b / np.linalg.norm(b)
    h = math.sqrt(1.0 - 0.25 * g * g)
    # euclidean angle theta = h alpha, alpha < pi/2
    theta = draw(st.floats(math.asin(1e-9), 0.999 * 0.5 * math.pi * h))
    ratio = 10.0 ** draw(st.floats(-3.0, 3.0))
    t2 = ratio * (math.cos(theta) * e1 + math.sin(theta) * e2)
    return g, n, e1, t2, draw(st.integers(-300, 300))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(acute_pairs())
def test_exact_sum_properties(case):
    g, n, t1, t2, k = case
    par, ctx = fl.make_parameter(g), fl.MetricContext(n)
    t3 = fl.parallelogram_refine(par, ctx, t1, t2)
    scale = max(ctx.s_norm(t1), ctx.s_norm(t2))
    assert _residual(par, ctx, t1, t2, t3) <= 1e-13 * scale
    # t3 lies in span{t1, t2}
    basis = np.linalg.qr(np.array([t1, t2]).T)[0]
    assert np.linalg.norm(t3 - basis @ (basis.T @ t3)) <= 1e-13 * scale
    # the deformed angles add up, as the euclidean ones do in a plane
    a13, a32, a12 = (fl.angle(par, ctx, x, y) for x, y in ((t1, t3), (t3, t2), (t1, t2)))
    assert abs(a13 + a32 - a12) <= 1e-12
    # the sum commutes
    t3_swapped = fl.parallelogram_refine(par, ctx, t2, t1)
    assert np.max(np.abs(t3_swapped - t3)) <= 1e-13 * np.max(np.abs(t3))
    # a power-of-two scale carries through, to 2 ulp of the largest component
    lam = 2.0**k
    t3_scaled = fl.parallelogram_refine(par, ctx, lam * t1, lam * t2)
    assert np.all(np.abs(t3_scaled - lam * t3) <= 2 * np.spacing(lam * np.abs(t3).max()))
    assert _residual(par, ctx, lam * t1, lam * t2, t3_scaled) <= 1e-13 * lam * scale
