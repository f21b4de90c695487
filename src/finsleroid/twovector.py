"""Two-vector metric tensor, its orthonormal frame, the covariant version
with inversion, and the first-order parallelogram law.

The scalar product <t1, t2> = |t1||t2| cos(alpha) has a mixed second
derivative n_pq(t1, t2) that reduces to the one-vector quasi-euclidean
metric at coincidence.  Vector addition compatible with the geodesic
tetragon ("equal opposite sides") has the first-order form in
k = 1/h - 1 of the paper and an exact closed form.  Both need an acute
pair, alpha < pi/2.  Gram roots, euclidean pair angles and
collinearity tests, of vectors and co-vectors, come from geodesics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GParameter, MetricContext, _lower, _outer, _per_row, _require, _scaled_back, _scaled_rows
from .errors import (
    MaxIterationsError,
    NoRootError,
    NumericalDomainError,
    ObtuseInputError,
    ZeroVectorError,
)
from .geodesics import (
    PairInvariants,
    _checked_vectors,
    _companions,
    _dots,
    _invariants,
    _pair_dots,
    _require_independent,
    _stacked,
)

__all__ = [
    "TwoVectorTensor",
    "CovectorPair",
    "two_vector_metric",
    "co_regime_gap",
    "co_orientation",
    "frame",
    "frame_reconstruct",
    "covector_pair",
    "invert_covectors",
    "solve_co_angle",
    "oplus_first_order",
    "ominus_first_order",
    "parallelogram_residuals",
    "parallelogram_refine",
]


@dataclass(frozen=True)
class TwoVectorTensor:
    """n_pq(g; t1, t2) with the scalars of its three-term decomposition.

    n_pq = (|t1||t2| sin(alpha) / (h u)) r_pq
         + (a1 / (|t1||t2|)) t1_p t2_q - (a2 / (h |t1||t2|)) d1_p d2_q
    """

    n_lower: np.ndarray
    a1: float
    a2: float
    pair: PairInvariants

    degrees = (0, 0, 0, PairInvariants.degrees)  # homogeneity degrees of the fields in the pair


def _pair_scalars(inv: PairInvariants):
    s1 = np.sqrt(inv.dot11)
    s2 = np.sqrt(inv.dot22)
    return s1, s2, np.cos(inv.alpha), np.sin(inv.alpha)


def _lowered(ctx: MetricContext, t1, t2, inv: PairInvariants):
    """t1, t2, d1, d2 index-lowered in one call, at the broadcast shape of
    the pairs."""
    vectors = (t1, t2, inv.d1, inv.d2)
    if t1.shape != t2.shape:
        vectors = np.broadcast_arrays(*vectors)
    return _lower(ctx.r_pq, np.array(vectors))


def two_vector_metric(par: GParameter, ctx: MetricContext, t1, t2) -> TwoVectorTensor:
    """Closed form of the mixed second derivative of the scalar product,
    over pairs stacked as (..., N) (n_lower is (..., N, N))."""
    t1, t2, e = _scaled_rows(ctx, t1, t2)
    inv = _invariants(par, ctx, t1, t2)
    s1, s2, ca, sa = _pair_scalars(inv)
    a1 = ca - inv.dot12 * sa / (par.h * inv.u)
    a2 = ca / par.h - inv.dot12 * sa / inv.u
    t1l, t2l, d1l, d2l = _lowered(ctx, t1, t2, inv)
    mat = lambda x: np.asarray(x)[..., None, None]
    n = (
        mat(s1 * s2 * sa / (par.h * inv.u)) * ctx.r_pq
        + mat(a1 / (s1 * s2)) * _outer(t1l, t2l)
        - mat(a2 / (par.h * s1 * s2)) * _outer(d1l, d2l)
    )
    tensor = TwoVectorTensor(n_lower=n, a1=a1, a2=a2, pair=inv)
    return _scaled_back(tensor, e, TwoVectorTensor.degrees, "two-vector tensor")


def _frame_pieces(par, inv):
    """The scalars (s1, s2, z^2, p^2, m^2, delta_p, delta_m) of the frame of
    each pair, and the flags of the pairs that have one: sin(alpha) >= 0,
    and nonnegative radicands p^2 and m^2 (large angles fail them)."""
    s1, s2, ca, sa = _pair_scalars(inv)
    x = inv.dot12
    zsq = s1 * s2 * sa * (s1 * s2 / inv.u)
    delta_p = par.h * ca - x * sa / inv.u
    delta_m = ca / par.h - x * sa / inv.u
    p_rad = zsq + x * delta_p  # equals h (t1t2) cos(alpha) + u sin(alpha)
    m_rad = zsq + x * delta_m
    return (s1, s2, zsq, p_rad, m_rad, delta_p, delta_m), sa >= 0.0, (p_rad >= 0.0) & (m_rad >= 0.0)


def frame(par: GParameter, ctx: MetricContext, t1, t2) -> np.ndarray:
    """Orthonormal-frame matrix f[R, p] of each pair, over pairs stacked as
    (..., N) (the result is (..., N, N)).

    Rows are frame covectors; contractions with t1, t2 and the sum over
    the frame index against frame components of t1, t2 have closed forms.
    Raises NumericalDomain, naming the first such pair, where sin(alpha)
    or a radicand is negative (large angles).
    """
    t1, t2, _ = _scaled_rows(ctx, t1, t2)  # of degree 0
    inv = _invariants(par, ctx, t1, t2)
    (s1, s2, zsq, p_rad, m_rad, delta_p, delta_m), upper, real = _frame_pieces(par, inv)
    _require(upper, NumericalDomainError, "frame needs sin(alpha) >= 0 (alpha <= pi)")
    _require(real, NumericalDomainError, "negative frame radicand for this pair")
    z = np.sqrt(zsq)
    # (z - p)/x rationalized to stay finite for euclid-orthogonal pairs
    c_p = -delta_p / (z + np.sqrt(p_rad))
    c_m = -delta_m / (z + np.sqrt(m_rad))
    t1l, _, _, d2l = _lowered(ctx, t1, t2, inv)
    # frame components e[R, p] x^p of t2 and d1
    t2_frame, d1_frame = _lower(ctx.vielbein.T, _stacked(t2, inv.d1))
    out = (
        _per_row(z, 2) * ctx.vielbein
        - _per_row(c_p, 2) * _outer(t2_frame, t1l)
        + _per_row(c_m, 2) * _outer(d1_frame, d2l)
    )
    return out / _per_row(np.sqrt(par.h * s1 * s2), 2)


def frame_reconstruct(par: GParameter, ctx: MetricContext, t1, t2) -> np.ndarray:
    """sum_R f^R_p(t1, t2) f^R_q(t2, t1), over pairs stacked as (..., N).

    Equals the two-vector tensor with its d-slot transposed (d2 (x) d1);
    the symmetric part coincides with the tensor itself.
    """
    return np.swapaxes(frame(par, ctx, t1, t2), -1, -2) @ frame(par, ctx, t2, t1)


@dataclass(frozen=True)
class CovectorPair:
    """Covariant counterparts T1 = n(t1,t2) t2 and T2 = t1 n(t1,t2).

    D1, D2 are the transverse companions built from the T products and
    f_scale = -sqrt((T1T1)(T2T2)-(T1T2)^2) / sqrt((t1t1)(t2t2)-(t1t2)^2).
    For stacked pairs each field has their leading shape (T1 to D2 add N).
    """

    T1: np.ndarray
    T2: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    f_scale: float

    degrees = (1, 1, 1, 1, 0)  # homogeneity degrees of the fields in the pair


def co_regime_gap(par: GParameter, alpha):
    """sin(h*alpha - 2*atan2(sin(alpha)/h, cos(alpha))), the signed regime
    gap, elementwise.

    Negative in the main regime of the covariant pair map, positive in the
    other; at zero the co-vectors of the pair are collinear.
    """
    phi1 = np.arctan2(np.sin(alpha) / par.h, np.cos(alpha))
    return np.sin(par.h * alpha - 2.0 * phi1)


def co_orientation(par: GParameter, alpha):
    """Sign of (2/h)(t1t2) sin cos - (cos^2 - sin^2/h^2) u, from alpha alone,
    elementwise.

    The covariant-side closed forms (inversion, implicit angle equation)
    are printed for the regime where this is +1; it flips once the angle
    h*alpha - 2*atan2(sin(alpha)/h, cos(alpha)) of the co-pair wraps past
    -pi, which happens for large alpha at large |g|.
    """
    return 1.0 - 2.0 * (co_regime_gap(par, alpha) > 0.0)


def covector_pair(par: GParameter, ctx: MetricContext, t1, t2) -> CovectorPair:
    """Closed forms of the co-vectors and their companions, over pairs
    stacked as (..., N)."""
    t1, t2, e = _scaled_rows(ctx, t1, t2)
    inv = _invariants(par, ctx, t1, t2)
    s1, s2, ca, sa = _pair_scalars(inv)
    t1l, t2l, d1l, d2l = _lowered(ctx, t1, t2, inv)
    ca_r, ta_r = _per_row(ca), _per_row(sa / par.h)
    big_t1 = _per_row(s2 / s1) * (ca_r * t1l + ta_r * d1l)
    big_t2 = _per_row(s1 / s2) * (ca_r * t2l + ta_r * d2l)
    big_d1, big_d2 = _companions(
        ctx.r_pq_inv, big_t1, big_t2, "co-vectors of the pair are collinear"
    )[5:]
    # direct form of the inversion denominator scale; equals
    # -co_orientation * cap_u / u
    f_scale = ca * ca - sa * sa / par.h**2 - 2.0 * sa * ca * inv.dot12 / (par.h * inv.u)
    pair = CovectorPair(T1=big_t1, T2=big_t2, D1=big_d1, D2=big_d2, f_scale=f_scale)
    return _scaled_back(pair, e, CovectorPair.degrees, "co-vector pair")


def invert_covectors(par: GParameter, ctx: MetricContext, T1, T2, alpha):
    """Recover (t1, t2) from the co-vector pairs, stacked as (..., N), and
    the angle alpha of each pair."""
    big_t1, big_t2, e = _scaled_rows(ctx, T1, T2)
    tt11, tt22, _, _, _, big_d1, big_d2 = _companions(
        ctx.r_pq_inv, big_t1, big_t2, "co-vector pair is collinear"
    )
    alpha = np.asarray(alpha, dtype=float)[()]
    _require((alpha > 0.0) & (alpha < math.pi), NumericalDomainError,
             "inversion needs 0 < alpha < pi, got {!r}", alpha)
    ca = np.cos(alpha)
    sa = np.sin(alpha)
    ca_r, ta_r = _per_row(ca), _per_row((sa / par.h) * co_orientation(par, alpha))
    den = _per_row(ca * ca + sa * sa / par.h**2)
    t1_low = _per_row(np.sqrt(tt22 / tt11)) * (ca_r * big_t1 + ta_r * big_d1) / den
    t2_low = _per_row(np.sqrt(tt11 / tt22)) * (ca_r * big_t2 + ta_r * big_d2) / den
    return _scaled_back(tuple(_lower(ctx.r_pq_inv, _stacked(t1_low, t2_low))), e, (1, 1), "inverted vectors")


def _co_angle_cos_side(par, tt11, tt22, tt12, cap_u, alpha):
    ca = math.cos(alpha)
    sa = math.sin(alpha)
    cap_u = co_orientation(par, alpha) * cap_u
    den = (ca * ca + sa * sa / par.h**2) * math.sqrt(tt11) * math.sqrt(tt22)
    return ((ca * ca - sa * sa / par.h**2) * tt12 + (2.0 / par.h) * sa * ca * cap_u) / den


def _decreasing_root(fun, lo, hi, x0, max_iter=100):
    """Root of a decreasing function on [lo, hi] with fun(lo) >= 0 >= fun(hi).

    ``fun`` returns the value and the derivative.  Newton steps from x0
    are kept inside the bracket, which every evaluation shrinks; a step
    that leaves it, or a derivative that is not negative, falls back to
    bisection (Brent 1973, ch. 4).
    """
    x = min(max(x0, lo), hi)
    for _ in range(max_iter):
        f, df = fun(x)
        if f > 0.0:
            lo = x
        elif f < 0.0:
            hi = x
        else:
            return x
        tol = 1e-15 + 8.9e-16 * abs(x)
        x_new = x - f / df if df < 0.0 else math.nan
        if abs(x_new - x) <= tol:
            return x_new
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
            if hi - lo <= tol:
                return x_new
        x = x_new
    raise MaxIterationsError("bracketed Newton iteration did not converge")


def solve_co_angle(par: GParameter, ctx: MetricContext, T1, T2) -> float:
    """Solve the implicit co-angle equation for alpha in (0, pi/h).

    The matched (cos, sin) sides of the equation are the cosine and sine
    of 2 phi1(alpha) - eps beta, with beta the euclidean angle of the
    co-pair, eps = co_orientation(alpha) and phi1 the continuous branch
    of atan2(sin(alpha)/h, cos(alpha)).  So the equation reads
    F(alpha) = h alpha - 2 phi1(alpha) = -eps beta (mod 2 pi), where F
    starts at F(0) = 0 and falls with F' <= -h: each target -beta - 2 pi k
    (main regime, eps = +1) or beta - 2 pi (k + 1) (eps = -1) has at most
    one root in [0, pi/h].  The solver returns the smallest main-regime
    root, that of -beta.  Since beta - 2 pi <= -pi <= -beta, F passes
    -beta before any other-regime target, so a pair with an other-regime
    root always has this main-regime root as well.
    """
    big_t1, big_t2, _ = _checked_vectors(ctx, T1, T2)  # of degree 0
    tt11, tt22, tt12, cap_u, beta = _pair_dots(ctx.r_pq_inv, big_t1, big_t2)
    _require_independent(np.sin(beta), "co-vector pair is collinear")
    beta = float(beta)  # the Newton iteration runs on Python floats
    h = par.h

    def f_and_df(alpha):
        ca = math.cos(alpha)
        sa = math.sin(alpha)
        phi1 = alpha + math.atan((1.0 / h - 1.0) * sa * ca / (ca * ca + sa * sa / h))
        return h * alpha - 2.0 * phi1 + beta, h - 2.0 * h / (h * h * ca * ca + sa * sa)

    hi = math.pi / h
    if f_and_df(hi)[0] <= 0.0:
        # Newton from the root of the tangent at 0, where F' = h - 2/h
        root = _decreasing_root(f_and_df, 0.0, hi, beta / (2.0 / h - h))
        cos_side = _co_angle_cos_side(par, tt11, tt22, tt12, cap_u, root)
        if abs(math.cos(h * root) - cos_side) < 1e-10:
            return root
    raise NoRootError("implicit co-angle equation has no admissible root in (0, pi/h)")


def _require_acute(inv: PairInvariants) -> None:
    _require(inv.alpha < 0.5 * math.pi, ObtuseInputError,
             "parallelogram law needs alpha < pi/2, got {!r}", inv.alpha)


def oplus_first_order(par: GParameter, ctx: MetricContext, t1, t2) -> np.ndarray:
    """First-order sum vector of the parallelogram law, over pairs stacked
    as (..., N).

    t1 (+) t2 ~ t1 + t2 + (1/h - 1)(m(t1,t2) t1 + m(t2,t1) t2), exact at
    g = 0; the defining-equation residuals are O(k^2) in k = 1/h - 1.
    """
    t1, t2, e = _scaled_rows(ctx, t1, t2)
    inv = _invariants(par, ctx, t1, t2)
    _require_acute(inv)
    total = t1 + t2
    th1, th2 = _pair_dots(ctx.r_pq, _stacked(t1, t2), total)[4]
    m12 = (inv.dot12 * th1 - inv.dot22 * th2) / inv.u
    m21 = (inv.dot12 * th2 - inv.dot11 * th1) / inv.u
    k = 1.0 / par.h - 1.0
    return _scaled_back(total + k * (_per_row(m12) * t1 + _per_row(m21) * t2), e, 1, "first-order sum")


def ominus_first_order(par: GParameter, ctx: MetricContext, t1, t3) -> np.ndarray:
    """First-order difference vector t3 (-) t1, inverse of the sum to O(k^2),
    over pairs stacked as (..., N)."""
    t1, t3, e = _scaled_rows(ctx, t1, t3)
    v = t3 - t1
    _require(v.any(axis=-1), ZeroVectorError, "difference of coincident vectors")
    dot11, _, _, u, ang_a = _pair_dots(ctx.r_pq, t1, t3)
    _require_independent(np.sin(ang_a), "difference undefined for a collinear configuration")
    vv, _, _, _, ang_b = _pair_dots(ctx.r_pq, v, t3)
    vt1 = _dots(ctx.r_pq, v, t1)
    s_vec = (_per_row((dot11 * ang_a - vt1 * ang_b) / u) * v
             + _per_row((vv * ang_b - vt1 * ang_a) / u) * t1)
    k = 1.0 / par.h - 1.0
    return _scaled_back(v + k * s_vec, e, 1, "first-order difference")


def parallelogram_residuals(par: GParameter, ctx: MetricContext, t1, t2, t3):
    """Residuals of the two defining side-length equations of the tetragon,
    over triples stacked as (..., N), the three stacks broadcasting."""
    t1, t2, t3, e = _scaled_rows(ctx, t1, t2, t3)
    if not t1.shape == t2.shape == t3.shape:
        t1, t2, t3 = np.broadcast_arrays(t1, t2, t3)
    # the pairs (t1, t3) and (t2, t3) in one call
    (dot11, dot22), (dot33, _), _, _, (theta13, theta23) = _pair_dots(ctx.r_pq, _stacked(t1, t2), t3)
    s1, s2, s3 = np.sqrt(dot11), np.sqrt(dot22), np.sqrt(dot33)
    r1 = s3 - (s2 * s2 - s1 * s1) / s3 - 2.0 * s1 * np.cos(theta13 / par.h)
    r2 = s3 - (s1 * s1 - s2 * s2) / s3 - 2.0 * s2 * np.cos(theta23 / par.h)
    return _scaled_back((r1, r2), e, (1, 1), "parallelogram residuals")


def parallelogram_refine(par: GParameter, ctx: MetricContext, t1, t2) -> np.ndarray:
    """The exact sum vector t3 = t1 (+) t2 of the parallelogram law, in closed
    form, over pairs stacked as (..., N).

    t3 lies in span{t1, t2}, and the two defining equations make its
    deformed angles to t1 and to t2 the base angles of a euclidean
    triangle with sides |t1|, |t2|, rho that add up to alpha, so
    rho^2 = |t1|^2 + |t2|^2 + 2 |t1||t2| cos(alpha) and t3 lies at the
    euclidean angle h atan2(|t2| sin(alpha), |t1| + |t2| cos(alpha)) from t1.
    """
    t1, t2, e = _scaled_rows(ctx, t1, t2)
    inv = _invariants(par, ctx, t1, t2)
    _require_acute(inv)
    if par.g == 0.0:
        return _scaled_back(t1 + t2, e, 1, "sum vector")
    s1, s2, ca, sa = _pair_scalars(inv)
    x, y = s1 + s2 * ca, s2 * sa  # rho = hypot(x, y), without overflow
    theta13 = par.h * np.arctan2(y, x)
    # d1 is t2's part transverse to t1, rescaled to |d1| = |t1|
    rotated = _per_row(np.cos(theta13)) * t1 + _per_row(np.sin(theta13)) * inv.d1
    return _scaled_back(_per_row(np.hypot(x, y) / s1) * rotated, e, 1, "sum vector")
