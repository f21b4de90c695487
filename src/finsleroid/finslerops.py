"""Pullback of the two-vector machinery to the original coordinates:
scalar product of two vectors, deformed angle, two-vector tensor,
geodesics, and the angles a vector makes with the axis and the plane.

Everything here is the image-space construction transported through the
quasi-euclidean map, with closed forms in the scalars A, B, L, K of
:mod:`finsleroid.core`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GParameter, MetricContext, _bundle, _dots, _off_axis, _per_row, _scaled_back, _scaled_rows
from .errors import CollinearError
from .geodesics import (
    GeodesicChord,
    _check_cosine,
    _require_independent,
    _stacked,
    geodesic_point,
    solve_chord,
)
from .quasimap import mu_map, sigma_jacobian, sigma_map
from .tensors import gradient_covector
from .twovector import _two_vector

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
    """One evaluation of the pairs: (R, S, sb_r, sb_s, dot_bold, roots, sine,
    alpha, e), whitened at 2^-e (R, S) (see core._scaled_rows).

    R and S are (..., N) stacks that broadcast against each other; the
    scalars have the leading shape of the pairs, and roots stacks
    sqrt(B(R)), sqrt(B(S)).  sine = W/sqrt(B(R)B(S)) is the sine of the
    euclidean angle of the image pair.  dot_bold, sine and alpha are
    symmetric in the pair, so the record of (S, R) is this one with the R
    and S fields (and roots) swapped.
    """
    R, S, e = _scaled_rows(ctx, R, S)
    sb_r, sb_s = _bundle(par, R), _bundle(par, S)
    dot_bold = _dots(R[..., :-1], S[..., :-1])
    roots = np.sqrt(_stacked(sb_r.B, sb_s.B))
    # every piece below is divided by sigma = sqrt(B(R)B(S)) before it is
    # squared, so no intermediate exceeds the order of B
    sigma = roots[0] * roots[1]
    cos = (sb_r.A * sb_s.A + par.h**2 * dot_bold) / sigma
    _check_cosine(cos)
    # W^2 = B(R)B(S) - num^2 loses half its digits near coincidence when
    # formed literally; expand with B = A^2 + h^2 q^2 and split off the
    # transverse unit-vector gap so every piece stays O(separation^2):
    #   W^2/h^2 = (A_R q_S - A_S q_R)^2
    #           + q_R q_S |bhat_R - bhat_S|^2/2 (2 A_R A_S + h^2(q_R q_S + X))
    # where a vector on the axis (q = 0) has no bhat and the second term is 0
    qq = sb_r.q * sb_s.q
    cross = (sb_r.A * sb_s.q - sb_s.A * sb_r.q) / sigma
    bgap = R[..., :-1] / _off_axis(sb_r.q)[..., None] - S[..., :-1] / _off_axis(sb_s.q)[..., None]
    delta = 0.5 * _dots(bgap, bgap)
    w2 = cross * cross + qq / sigma * delta * ((2.0 * sb_r.A * sb_s.A + par.h**2 * (qq + dot_bold)) / sigma)
    sine = par.h * np.sqrt(np.maximum(w2, 0.0))
    return R, S, sb_r, sb_s, dot_bold, roots, sine, np.arctan2(sine, cos) / par.h, e


def _m_unit(par, R, S, sb_r, sb_s, dot_bold, roots) -> np.ndarray:
    """M_p / (B(R) sqrt(B(S))) of the (broadcast) whitened pairs, of degree
    0 in both vectors: each term is formed from R/sqrt(B(R)) and
    S/sqrt(B(S)), so none leaves float64 where B does not.  On the axis
    q(R) = 0 its bold part is the limit S^a/sqrt(B(S)), as every term
    with R^a vanishes."""
    r_r, r_s = roots
    x = dot_bold / (r_r * r_s)
    # M_a = c R^a + B(R) S^a, c = -Z A(S) - (R.S)(q + g Z/2)/q
    c = -sb_r.Z / r_r * (sb_s.A / r_s) - x * (sb_r.q + 0.5 * par.g * sb_r.Z) / _off_axis(sb_r.q)
    bold = R[..., :-1] * (c / r_r)[..., None] + S[..., :-1] / r_s[..., None]
    last = (sb_r.q / r_r) ** 2 * (sb_s.A / r_s) - x * (sb_r.A / r_r)
    return np.concatenate((bold, last[..., None]), axis=-1)


def _m_covector(m_unit, sb_r, roots, sine) -> np.ndarray:
    """M_p from M_p / (B(R) sqrt(B(S))); 0 where W = 0, where m_unit is only rounding."""
    return m_unit * (sb_r.B * roots[1] * (sine > 0.0))[..., None]


def _s_covector(m_unit, sb_r, sine) -> np.ndarray:
    """s_p = M_p K(R) / (W B(R)) from M_p / (B(R) sqrt(B(S))) and W/sqrt(B(R)B(S))."""
    return m_unit * (sb_r.J / sine)[..., None]


def finsler_angle(par: GParameter, ctx: MetricContext, R, S):
    """Deformed angle between two vectors in the original coordinates, over
    pairs stacked as (..., N)."""
    return _pair_core(par, ctx, R, S)[-2]


def m_vector(par: GParameter, ctx: MetricContext, R, S) -> np.ndarray:
    """The transverse covector M_p(g; R, S); satisfies M_p R^p = 0.

    Simplified components: M_N = q(R)^2 A(S) - (r R S) A(R) and
    M_a = r_ab(-Z R^b A(S) + S^b B(R) - (r R S)(q + g Z/2) R^b/q).
    The axis q(R) = 0 is a removable limit: M_a -> r_ab S^b B(R).
    """
    R, S, sb_r, sb_s, dot_bold, roots, sine, _, e = _pair_core(par, ctx, R, S)
    m_r = _m_covector(_m_unit(par, R, S, sb_r, sb_s, dot_bold, roots), sb_r, roots, sine)
    return _scaled_back(m_r, e, 3, "m_r", ctx, "l")


def s_vector(par: GParameter, ctx: MetricContext, R, S) -> np.ndarray:
    """s_p(g; R, S) = M_p K(R) / (W B(R)); annihilates R^p."""
    R, S, sb_r, sb_s, dot_bold, roots, sine, _, e = _pair_core(par, ctx, R, S)
    _require_independent(sine, "s-vector undefined for image-collinear pairs")
    return _scaled_back(_s_covector(_m_unit(par, R, S, sb_r, sb_s, dot_bold, roots), sb_r, sine), e, 0, "s_r", ctx, "l")


def _pullback_tensor(par, ctx, R, S, sb_r, sb_s):
    """G = sigma'(R)^T n(sigma(R), sigma(S)) sigma'(S) of whitened pairs, without the guard."""
    t_r, t_s = sigma_map.from_bundle(par, ctx, R, sb_r), sigma_map.from_bundle(par, ctx, S, sb_s)
    n = _two_vector(par, ctx, *_scaled_rows(ctx, t_r, t_s, index=".")[:2]).n_lower  # of degree 0
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

    degrees = (2, 0, 2, 3, 0, 0)  # homogeneity degrees of the fields in the pair
    indices = ("", "", "", "l", "l", "ll")  # index types of the fields (see core._scaled_back)


def finsler_product(par: GParameter, ctx: MetricContext, R, S) -> FinslerPairProduct:
    """Scalar product <R, S> over pairs stacked as (..., N); equals K^2 at
    S = R and the euclidean product at g = 0."""
    R, S, sb_r, sb_s, dot_bold, roots, sine, alpha, e = _pair_core(par, ctx, R, S)
    m_unit = _m_unit(par, R, S, sb_r, sb_s, dot_bold, roots)
    try:
        _require_independent(sine, "s_r and g_lower need image-independent vectors")
        s_r, g_lower = _s_covector(m_unit, sb_r, sine), _pullback_tensor(par, ctx, R, S, sb_r, sb_s)
    except CollinearError:
        s_r = g_lower = None
    m_r, w = _m_covector(m_unit, sb_r, roots, sine), sine * roots[0] * roots[1]
    product = FinslerPairProduct(sb_r.K * sb_s.K * np.cos(alpha), alpha, w, m_r, s_r, g_lower)
    return _scaled_back(product, e, FinslerPairProduct.degrees, "Finsler product", ctx, FinslerPairProduct.indices)


def finsler_two_vector_tensor(par: GParameter, ctx: MetricContext, R, S) -> np.ndarray:
    """G_pq(g; R, S), the mixed second derivative of the scalar product.

    The scalar product is the image-space product <sigma(R), sigma(S)>,
    so by the chain rule G = sigma'(R)^T n(sigma(R), sigma(S)) sigma'(S),
    with the closed-form two-vector tensor n and Jacobian sigma'.
    Reduces to the one-vector metric tensor in the coincidence limit.
    """
    R, S, sb_r, sb_s, _, _, sine, _, e = _pair_core(par, ctx, R, S)
    _require_independent(sine, "two-vector tensor needs image-independent vectors")
    return _scaled_back(_pullback_tensor(par, ctx, R, S, sb_r, sb_s), e, 0, "two-vector tensor", ctx, "ll")


def product_gradients(par: GParameter, ctx: MetricContext, R, S):
    """(d<R,S>/dR^p, d<R,S>/dS^q) in closed form, over pairs stacked as
    (..., N)."""
    R, S, sb_r, sb_s, dot_bold, roots, sine, alpha, e = _pair_core(par, ctx, R, S)
    _require_independent(sine, "gradients need image-independent vectors")
    product = sb_r.K * sb_s.K * np.cos(alpha)
    sa = _per_row(np.sin(alpha))
    s_rs = _s_covector(_m_unit(par, R, S, sb_r, sb_s, dot_bold, roots), sb_r, sine)
    s_sr = _s_covector(_m_unit(par, S, R, sb_s, sb_r, dot_bold, roots[::-1]), sb_s, sine)
    d_r = gradient_covector.from_bundle(par, ctx, R, sb_r) * _per_row(product / sb_r.K**2)
    d_r = d_r + _per_row(par.h * sb_s.K) * s_rs * sa
    d_s = gradient_covector.from_bundle(par, ctx, S, sb_s) * _per_row(product / sb_s.K**2)
    d_s = d_s + _per_row(par.h * sb_r.K) * s_sr * sa
    return _scaled_back((d_r, d_s), e, (1, 1), "product gradients", ctx, ("l", "l"))


def finsler_chord(par: GParameter, ctx: MetricContext, R1, R2) -> GeodesicChord:
    """Chords of the image-space geodesics joining sigma(R1) to sigma(R2),
    over pairs stacked as (..., N) (see geodesics.solve_chord)."""
    return solve_chord(par, ctx, sigma_map(par, ctx, R1), sigma_map(par, ctx, R2))


def finsler_geodesic(par: GParameter, ctx: MetricContext, R1, R2, s):
    """Geodesics through the pullback: R(s) = mu(t(s)) over the image
    chords, shaped as geodesic_point (L + (k, N) for pairs of leading shape
    L and s broadcasting against L + (k,)).

    Endpoints are reproduced at s = 0 and s = Delta s; the arc length of
    the curve in the direction-dependent metric equals Delta s.
    """
    chord = finsler_chord(par, ctx, R1, R2)
    return mu_map(par, ctx, geodesic_point(chord, s))


def axis_angles(par: GParameter, ctx: MetricContext, R):
    """Angles of R with the axis, (1/h) arccos(A/sqrt(B)), and with the
    non-axis plane, (1/h) arccos(L/sqrt(B)), over rows (..., N).

    Since B = A^2 + h^2 q^2 = L^2 + h^2 Z^2, they are formed as
    (1/h) atan2(h q, A) and (1/h) atan2(h |Z|, L), which need no clamp.
    """
    sb = _bundle(par, _scaled_rows(ctx, R)[0])  # of degree 0
    return np.arctan2(par.h * sb.q, sb.A) / par.h, np.arctan2(par.h * np.abs(sb.Z), sb.L) / par.h
