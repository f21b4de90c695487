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

from .core import GParameter, MetricContext, scalar_bundle
from .errors import CollinearError
from .geodesics import (
    GeodesicChord,
    _check_cosine,
    _clamped_arccos,
    _require_independent,
    geodesic_point,
    solve_chord,
)
from .quasimap import mu_map, sigma_jacobian, sigma_map
from .tensors import _gradient_from_bundle
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
    """One evaluation of the pair: (R, S, sb_r, sb_s, dot_bold, w, alpha).

    dot_bold, w and alpha are symmetric in the pair, so the record of
    (S, R) is this one with the R and S fields swapped.  w/sqrt(B(R)B(S))
    is the sine of the euclidean angle of the image pair.
    """
    R = ctx.check_vector(R, nonzero=True)
    S = ctx.check_vector(S, nonzero=True)
    sb_r = scalar_bundle(par, ctx, R)
    sb_s = scalar_bundle(par, ctx, S)
    dot_bold = float(R[:-1] @ ctx.r_ab @ S[:-1])
    num = sb_r.A * sb_s.A + par.h**2 * dot_bold
    _check_cosine(num / math.sqrt(sb_r.B * sb_s.B))
    # W^2 = B(R)B(S) - num^2 loses half its digits near coincidence when
    # formed literally; expand with B = A^2 + h^2 q^2 and split off the
    # transverse unit-vector gap so every piece stays O(separation^2):
    #   W^2/h^2 = (A_R q_S - A_S q_R)^2
    #           + q_R q_S |bhat_R - bhat_S|^2/2 (2 A_R A_S + h^2(q_R q_S + X))
    cross = sb_r.A * sb_s.q - sb_s.A * sb_r.q
    w2 = cross * cross
    if sb_r.q > 0.0 and sb_s.q > 0.0:
        bgap = R[:-1] / sb_r.q - S[:-1] / sb_s.q
        delta = 0.5 * float(bgap @ ctx.r_ab @ bgap)
        w2 += (
            sb_r.q
            * sb_s.q
            * delta
            * (2.0 * sb_r.A * sb_s.A + par.h**2 * (sb_r.q * sb_s.q + dot_bold))
        )
    w = par.h * math.sqrt(max(w2, 0.0))
    alpha = math.atan2(w, num) / par.h
    return R, S, sb_r, sb_s, dot_bold, w, alpha


def _m_covector(par, ctx, R, S, sb_r, sb_s, dot_bold) -> np.ndarray:
    out = np.empty(ctx.n)
    out[-1] = sb_r.q**2 * sb_s.A - dot_bold * sb_r.A
    if sb_r.q > 0.0:
        bold = (
            -R[-1] * R[:-1] * sb_s.A
            + S[:-1] * sb_r.B
            - dot_bold * (sb_r.q + 0.5 * par.g * R[-1]) * R[:-1] / sb_r.q
        )
    else:
        bold = S[:-1] * sb_r.B
    out[:-1] = ctx.r_ab @ bold
    return out


def _s_covector(m_r, sb_r, w) -> np.ndarray:
    """s_p = M_p K(R) / (W B(R))."""
    return m_r * sb_r.K / (w * sb_r.B)


def finsler_angle(par: GParameter, ctx: MetricContext, R, S) -> float:
    """Deformed angle between two vectors in the original coordinates."""
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


def _pullback_tensor(par, ctx, R, S):
    """G = sigma'(R)^T n(sigma(R), sigma(S)) sigma'(S), without the collinearity guard."""
    n = two_vector_metric(par, ctx, sigma_map(par, ctx, R), sigma_map(par, ctx, S)).n_lower
    return sigma_jacobian(par, ctx, R).T @ n @ sigma_jacobian(par, ctx, S)


@dataclass(frozen=True)
class FinslerPairProduct:
    """Scalar product of a vector pair with its building blocks.

    ``product`` = K(R) K(S) cos(alpha); W = sqrt(B(R)B(S) - num^2) where
    num is the arccos numerator; s_r and g_lower are None for
    image-collinear pairs (W = 0), where only the product survives.
    """

    product: float
    alpha: float
    w: float
    m_r: np.ndarray
    s_r: np.ndarray | None
    g_lower: np.ndarray | None


def finsler_product(par: GParameter, ctx: MetricContext, R, S) -> FinslerPairProduct:
    """Scalar product <R, S>; equals K^2 at S = R and the euclidean
    product at g = 0."""
    R, S, sb_r, sb_s, dot_bold, w, alpha = _pair_core(par, ctx, R, S)
    m_r = _m_covector(par, ctx, R, S, sb_r, sb_s, dot_bold)
    try:
        _require_independent(w, sb_r.B, sb_s.B, "s_r and g_lower need image-independent vectors")
        s_r, g_lower = _s_covector(m_r, sb_r, w), _pullback_tensor(par, ctx, R, S)
    except CollinearError:
        s_r = g_lower = None
    return FinslerPairProduct(sb_r.K * sb_s.K * math.cos(alpha), alpha, w, m_r, s_r, g_lower)


def finsler_two_vector_tensor(par: GParameter, ctx: MetricContext, R, S) -> np.ndarray:
    """G_pq(g; R, S), the mixed second derivative of the scalar product.

    The scalar product is the image-space product <sigma(R), sigma(S)>,
    so by the chain rule G = sigma'(R)^T n(sigma(R), sigma(S)) sigma'(S),
    with the closed-form two-vector tensor n and Jacobian sigma'.
    Reduces to the one-vector metric tensor in the coincidence limit.
    """
    R, S, sb_r, sb_s, _, w, _ = _pair_core(par, ctx, R, S)
    _require_independent(w, sb_r.B, sb_s.B, "two-vector tensor needs image-independent vectors")
    return _pullback_tensor(par, ctx, R, S)


def product_gradients(par: GParameter, ctx: MetricContext, R, S):
    """(d<R,S>/dR^p, d<R,S>/dS^q) in closed form."""
    R, S, sb_r, sb_s, dot_bold, w, alpha = _pair_core(par, ctx, R, S)
    _require_independent(w, sb_r.B, sb_s.B, "gradients need image-independent vectors")
    product = sb_r.K * sb_s.K * math.cos(alpha)
    sa = math.sin(alpha)
    s_rs = _s_covector(_m_covector(par, ctx, R, S, sb_r, sb_s, dot_bold), sb_r, w)
    s_sr = _s_covector(_m_covector(par, ctx, S, R, sb_s, sb_r, dot_bold), sb_s, w)
    d_r = _gradient_from_bundle(par, ctx, R, sb_r) * product / sb_r.K**2 + par.h * sb_s.K * s_rs * sa
    d_s = _gradient_from_bundle(par, ctx, S, sb_s) * product / sb_s.K**2 + par.h * sb_r.K * s_sr * sa
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
    sb = scalar_bundle(par, ctx, R)
    root_b = math.sqrt(sb.B)
    return (
        _clamped_arccos(sb.A / root_b) / par.h,
        _clamped_arccos(sb.L / root_b) / par.h,
    )
