"""Pullback of the two-vector machinery to the original coordinates:
scalar product of two vectors, deformed angle, two-vector tensor,
geodesics, and the angles a vector makes with the axis and the plane.

Everything here is the image-space construction transported through the
quasi-euclidean map, with closed forms in the scalars A, B, L, K of
:mod:`finsleroid.core`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GParameter, MetricContext, _bundle, _off_axis
from .errors import CollinearError
from .geodesics import (
    GeodesicChord,
    _check_cosine,
    _checked_pair,
    _clamped_arccos,
    _dots,
    _require_independent,
    geodesic_point,
    solve_chord,
)
from .quasimap import mu_map, sigma_jacobian, sigma_map
from .tensors import gradient_covector
from .twovector import two_vector_metric

__all__ = [
    "FinslerPairProduct",
    "finsler_product",
    "finsler_angle",
    "m_vector",
    "s_vector",
    "finsler_two_vector_tensor",
    "product_gradients",
    "finsler_chord",
    "finsler_geodesic",
    "axis_angles",
]


def _pair_core(par: GParameter, ctx: MetricContext, R, S):
    """One evaluation of the pairs: (R, S, sb_r, sb_s, dot_bold, w, alpha).

    R and S are (..., N) stacks that broadcast against each other; the
    scalars have the leading shape of the pairs.  dot_bold, w and alpha
    are symmetric in the pair, so the record of (S, R) is this one with
    the R and S fields swapped.  w/sqrt(B(R)B(S)) is the sine of the
    euclidean angle of the image pair.
    """
    R, S = _checked_pair(ctx, R, S)
    sb_r = _bundle(par, ctx, R)
    sb_s = _bundle(par, ctx, S)
    dot_bold = _dots(ctx.r_ab, R[..., :-1], S[..., :-1])
    num = sb_r.A * sb_s.A + par.h**2 * dot_bold
    _check_cosine(num / np.sqrt(sb_r.B * sb_s.B))
    # W^2 = B(R)B(S) - num^2 loses half its digits near coincidence when
    # formed literally; expand with B = A^2 + h^2 q^2 and split off the
    # transverse unit-vector gap so every piece stays O(separation^2):
    #   W^2/h^2 = (A_R q_S - A_S q_R)^2
    #           + q_R q_S |bhat_R - bhat_S|^2/2 (2 A_R A_S + h^2(q_R q_S + X))
    # where a vector on the axis (q = 0) has no bhat and the second term is 0
    cross = sb_r.A * sb_s.q - sb_s.A * sb_r.q
    bgap = R[..., :-1] / _off_axis(sb_r.q)[..., None] - S[..., :-1] / _off_axis(sb_s.q)[..., None]
    delta = 0.5 * _dots(ctx.r_ab, bgap, bgap)
    w2 = cross * cross + (
        sb_r.q * sb_s.q * delta * (2.0 * sb_r.A * sb_s.A + par.h**2 * (sb_r.q * sb_s.q + dot_bold))
    )
    w = par.h * np.sqrt(np.maximum(w2, 0.0))
    alpha = np.arctan2(w, num) / par.h
    return R, S, sb_r, sb_s, dot_bold, w, alpha


def _m_covector(par, ctx, R, S, sb_r, sb_s, dot_bold) -> np.ndarray:
    """M_p of the (broadcast) pairs; on the axis q(R) = 0 its bold part is
    the limit r_ab S^b B(R), as every term with R^b vanishes."""
    # M_a = r_ab(c R^b + B(R) S^b), c = -Z A(S) - (r R S)(q + g Z/2)/q
    c = -sb_r.Z * sb_s.A - dot_bold * (sb_r.q + 0.5 * par.g * sb_r.Z) / _off_axis(sb_r.q)
    bold = R[..., :-1] * c[..., None] + S[..., :-1] * sb_r.B[..., None]
    last = sb_r.q**2 * sb_s.A - dot_bold * sb_r.A
    return np.concatenate((ctx.r_rows(bold), last[..., None]), axis=-1)


def _s_covector(m_r, sb_r, w) -> np.ndarray:
    """s_p = M_p K(R) / (W B(R))."""
    return m_r * sb_r.K[..., None] / (w * sb_r.B)[..., None]


def finsler_angle(par: GParameter, ctx: MetricContext, R, S):
    """Deformed angle between two vectors in the original coordinates, over
    pairs stacked as (..., N)."""
    return _pair_core(par, ctx, R, S)[-1]


def m_vector(par: GParameter, ctx: MetricContext, R, S) -> np.ndarray:
    """The transverse covector M_p(g; R, S); satisfies M_p R^p = 0.

    Simplified components: M_N = q(R)^2 A(S) - (r R S) A(R) and
    M_a = r_ab(-Z R^b A(S) + S^b B(R) - (r R S)(q + g Z/2) R^b/q).
    The axis q(R) = 0 is a removable limit: M_a -> r_ab S^b B(R).
    """
    return _m_covector(par, ctx, *_pair_core(par, ctx, R, S)[:5])


def s_vector(par: GParameter, ctx: MetricContext, R, S) -> np.ndarray:
    """s_p(g; R, S) = M_p K(R) / (W B(R)); annihilates R^p."""
    R, S, sb_r, sb_s, dot_bold, w, _ = _pair_core(par, ctx, R, S)
    _require_independent(w, sb_r.B, sb_s.B, "s-vector undefined for image-collinear pairs")
    return _s_covector(_m_covector(par, ctx, R, S, sb_r, sb_s, dot_bold), sb_r, w)


def _pullback_tensor(par, ctx, R, S, sb_r, sb_s):
    """G = sigma'(R)^T n(sigma(R), sigma(S)) sigma'(S), without the collinearity guard."""
    t_r, t_s = sigma_map.from_bundle(par, ctx, R, sb_r), sigma_map.from_bundle(par, ctx, S, sb_s)
    n = two_vector_metric(par, ctx, t_r, t_s).n_lower
    j_r, j_s = (sigma_jacobian.from_bundle(par, ctx, *rs) for rs in ((R, sb_r), (S, sb_s)))
    return np.swapaxes(j_r, -1, -2) @ n @ j_s


@dataclass(frozen=True)
class FinslerPairProduct:
    """Scalar product of a vector pair, or of stacked pairs, with its
    building blocks.

    ``product`` = K(R) K(S) cos(alpha); W = sqrt(B(R)B(S) - num^2) where
    num is the arccos numerator; s_r and g_lower are None when a pair is
    image-collinear (W = 0), where only the product survives.
    """

    product: float
    alpha: float
    w: float
    m_r: np.ndarray
    s_r: np.ndarray | None
    g_lower: np.ndarray | None


def finsler_product(par: GParameter, ctx: MetricContext, R, S) -> FinslerPairProduct:
    """Scalar product <R, S> over pairs stacked as (..., N); equals K^2 at
    S = R and the euclidean product at g = 0."""
    R, S, sb_r, sb_s, dot_bold, w, alpha = _pair_core(par, ctx, R, S)
    m_r = _m_covector(par, ctx, R, S, sb_r, sb_s, dot_bold)
    try:
        _require_independent(w, sb_r.B, sb_s.B, "s_r and g_lower need image-independent vectors")
        s_r, g_lower = _s_covector(m_r, sb_r, w), _pullback_tensor(par, ctx, R, S, sb_r, sb_s)
    except CollinearError:
        s_r = g_lower = None
    return FinslerPairProduct(sb_r.K * sb_s.K * np.cos(alpha), alpha, w, m_r, s_r, g_lower)


def finsler_two_vector_tensor(par: GParameter, ctx: MetricContext, R, S) -> np.ndarray:
    """G_pq(g; R, S), the mixed second derivative of the scalar product.

    The scalar product is the image-space product <sigma(R), sigma(S)>,
    so by the chain rule G = sigma'(R)^T n(sigma(R), sigma(S)) sigma'(S),
    with the closed-form two-vector tensor n and Jacobian sigma'.
    Reduces to the one-vector metric tensor in the coincidence limit.
    """
    R, S, sb_r, sb_s, _, w, _ = _pair_core(par, ctx, R, S)
    _require_independent(w, sb_r.B, sb_s.B, "two-vector tensor needs image-independent vectors")
    return _pullback_tensor(par, ctx, R, S, sb_r, sb_s)


def product_gradients(par: GParameter, ctx: MetricContext, R, S):
    """(d<R,S>/dR^p, d<R,S>/dS^q) in closed form."""
    R, S, sb_r, sb_s, dot_bold, w, alpha = _pair_core(par, ctx, R, S)
    _require_independent(w, sb_r.B, sb_s.B, "gradients need image-independent vectors")
    product = sb_r.K * sb_s.K * math.cos(alpha)
    sa = math.sin(alpha)
    s_rs = _s_covector(_m_covector(par, ctx, R, S, sb_r, sb_s, dot_bold), sb_r, w)
    s_sr = _s_covector(_m_covector(par, ctx, S, R, sb_s, sb_r, dot_bold), sb_s, w)
    d_r = gradient_covector.from_bundle(par, ctx, R, sb_r) * product / sb_r.K**2 + par.h * sb_s.K * s_rs * sa
    d_s = gradient_covector.from_bundle(par, ctx, S, sb_s) * product / sb_s.K**2 + par.h * sb_r.K * s_sr * sa
    return d_r, d_s


def finsler_chord(par: GParameter, ctx: MetricContext, R1, R2) -> GeodesicChord:
    """Chord of the image-space geodesic joining sigma(R1) to sigma(R2)."""
    return solve_chord(par, ctx, sigma_map(par, ctx, R1), sigma_map(par, ctx, R2))


def finsler_geodesic(par: GParameter, ctx: MetricContext, R1, R2, s):
    """Geodesic through the pullback: R(s) = mu(t(s)) over the image chord.

    Endpoints are reproduced at s = 0 and s = Delta s; the arc length of
    the curve in the direction-dependent metric equals Delta s.
    """
    chord = finsler_chord(par, ctx, R1, R2)
    return mu_map(par, ctx, geodesic_point(chord, s))


def axis_angles(par: GParameter, ctx: MetricContext, R):
    """Angles of R with the axis, (1/h) arccos(A/sqrt(B)), and with the
    non-axis plane, (1/h) arccos(L/sqrt(B))."""
    R = ctx.check_vector(R, nonzero=True)
    sb = _bundle(par, ctx, R)
    root_b = math.sqrt(sb.B)
    return (
        _clamped_arccos(sb.A / root_b) / par.h,
        _clamped_arccos(sb.L / root_b) / par.h,
    )
