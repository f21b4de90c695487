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

from .core import GParameter, MetricContext, _outer
from .errors import (
    MaxIterationsError,
    NoRootError,
    NumericalDomainError,
    ObtuseInputError,
    ZeroVectorError,
)
from .geodesics import (
    PairInvariants,
    _checked_pair,
    _checked_vectors,
    _companions,
    _invariants,
    _lower,
    _pair_dots,
    _require_independent,
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
    z: float
    pair: PairInvariants


def _pair_scalars(inv: PairInvariants):
    s1 = np.sqrt(inv.dot11)
    s2 = np.sqrt(inv.dot22)
    return s1, s2, np.cos(inv.alpha), np.sin(inv.alpha)


def two_vector_metric(par: GParameter, ctx: MetricContext, t1, t2) -> TwoVectorTensor:
    """Closed form of the mixed second derivative of the scalar product,
    over pairs stacked as (..., N) (n_lower is (..., N, N))."""
    t1, t2 = _checked_pair(ctx, t1, t2)
    inv = _invariants(par, ctx, t1, t2)
    s1, s2, ca, sa = _pair_scalars(inv)
    a1 = ca - inv.dot12 * sa / (par.h * inv.u)
    a2 = ca / par.h - inv.dot12 * sa / inv.u
    # t1, t2, d1, d2 lowered in one call, at the broadcast shape of the pairs
    vectors = (t1, t2, inv.d1, inv.d2)
    if t1.shape != t2.shape:
        vectors = np.broadcast_arrays(*vectors)
    t1l, t2l, d1l, d2l = _lower(ctx.r_pq, np.array(vectors))
    mat = lambda x: np.asarray(x)[..., None, None]
    n = (
        mat(s1 * s2 * sa / (par.h * inv.u)) * ctx.r_pq
        + mat(a1 / (s1 * s2)) * _outer(t1l, t2l)
        - mat(a2 / (par.h * s1 * s2)) * _outer(d1l, d2l)
    )
    zsq = s1 * s2 * sa * (s1 * s2 / inv.u)
    z = np.sqrt(np.where(zsq >= 0.0, zsq, math.nan))
    return TwoVectorTensor(n_lower=n, a1=a1, a2=a2, z=z, pair=inv)


def _frame_pieces(par, ctx, inv):
    s1, s2, ca, sa = _pair_scalars(inv)
    if sa < 0.0:
        raise NumericalDomainError("frame needs sin(alpha) >= 0 (alpha <= pi)")
    x = inv.dot12
    zsq = s1 * s2 * sa * (s1 * s2 / inv.u)
    delta_p = par.h * ca - x * sa / inv.u
    delta_m = ca / par.h - x * sa / inv.u
    p_rad = zsq + x * delta_p  # equals h (t1t2) cos(alpha) + u sin(alpha)
    m_rad = zsq + x * delta_m
    if p_rad < 0.0 or m_rad < 0.0:
        raise NumericalDomainError("negative frame radicand for this pair")
    z = math.sqrt(zsq)
    p = math.sqrt(p_rad)
    m = math.sqrt(m_rad)
    # (z - p)/x rationalized to stay finite for euclid-orthogonal pairs
    c_p = -delta_p / (z + p)
    c_m = -delta_m / (z + m)
    return s1, s2, z, p, m, c_p, c_m


def frame(par: GParameter, ctx: MetricContext, t1, t2) -> np.ndarray:
    """Orthonormal-frame matrix f[R, p] of the pair.

    Rows are frame covectors; contractions with t1, t2 and the sum over
    the frame index against frame components of t1, t2 have closed forms.
    Raises NumericalDomain when a radicand is negative (large angles).
    """
    t1, t2 = _checked_vectors(ctx, t1, t2)
    inv = _invariants(par, ctx, t1, t2)
    s1, s2, z, p, m, c_p, c_m = _frame_pieces(par, ctx, inv)
    t1l = ctx.lower(t1)
    d2l = ctx.lower(inv.d2)
    t2_frame = ctx.vielbein @ t2
    d1_frame = ctx.vielbein @ inv.d1
    out = (
        z * ctx.vielbein
        - c_p * np.outer(t2_frame, t1l)
        + c_m * np.outer(d1_frame, d2l)
    )
    return out / math.sqrt(par.h * s1 * s2)


def frame_reconstruct(par: GParameter, ctx: MetricContext, t1, t2) -> np.ndarray:
    """sum_R f^R_p(t1, t2) f^R_q(t2, t1).

    Equals the two-vector tensor with its d-slot transposed (d2 (x) d1);
    the symmetric part coincides with the tensor itself.
    """
    f12 = frame(par, ctx, t1, t2)
    f21 = frame(par, ctx, t2, t1)
    return np.einsum("rp,rq->pq", f12, f21)


@dataclass(frozen=True)
class CovectorPair:
    """Covariant counterparts T1 = n(t1,t2) t2 and T2 = t1 n(t1,t2).

    D1, D2 are the transverse companions built from the T products and
    f_scale = -sqrt((T1T1)(T2T2)-(T1T2)^2) / sqrt((t1t1)(t2t2)-(t1t2)^2).
    """

    T1: np.ndarray
    T2: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    f_scale: float


def co_regime_gap(par: GParameter, alpha: float) -> float:
    """sin(h*alpha - 2*atan2(sin(alpha)/h, cos(alpha))), the signed regime gap.

    Negative in the main regime of the covariant pair map, positive in the
    other; at zero the co-vectors of the pair are collinear.
    """
    phi1 = math.atan2(math.sin(alpha) / par.h, math.cos(alpha))
    return math.sin(par.h * alpha - 2.0 * phi1)


def co_orientation(par: GParameter, alpha: float) -> float:
    """Sign of (2/h)(t1t2) sin cos - (cos^2 - sin^2/h^2) u, from alpha alone.

    The covariant-side closed forms (inversion, implicit angle equation)
    are printed for the regime where this is +1; it flips once the angle
    h*alpha - 2*atan2(sin(alpha)/h, cos(alpha)) of the co-pair wraps past
    -pi, which happens for large alpha at large |g|.
    """
    return -1.0 if co_regime_gap(par, alpha) > 0.0 else 1.0


def covector_pair(par: GParameter, ctx: MetricContext, t1, t2) -> CovectorPair:
    """Closed forms of the co-vectors and their companions."""
    t1, t2 = _checked_vectors(ctx, t1, t2)
    inv = _invariants(par, ctx, t1, t2)
    s1, s2, ca, sa = _pair_scalars(inv)
    t1l = ctx.lower(t1)
    t2l = ctx.lower(t2)
    big_t1 = (s2 / s1) * (ca * t1l + (sa / par.h) * ctx.lower(inv.d1))
    big_t2 = (s1 / s2) * (ca * t2l + (sa / par.h) * ctx.lower(inv.d2))
    big_d1, big_d2 = _companions(
        ctx.r_pq_inv, big_t1, big_t2, "co-vectors of the pair are collinear"
    )[5:]
    # direct form of the inversion denominator scale; equals
    # -co_orientation * cap_u / u
    f_scale = ca * ca - sa * sa / par.h**2 - 2.0 * sa * ca * inv.dot12 / (par.h * inv.u)
    return CovectorPair(T1=big_t1, T2=big_t2, D1=big_d1, D2=big_d2, f_scale=f_scale)


def invert_covectors(par: GParameter, ctx: MetricContext, T1, T2, alpha: float):
    """Recover (t1, t2) from the co-vector pair and the angle alpha."""
    big_t1 = ctx.check_vector(T1, nonzero=True)
    big_t2 = ctx.check_vector(T2, nonzero=True)
    tt11, tt22, _, _, _, big_d1, big_d2 = _companions(
        ctx.r_pq_inv, big_t1, big_t2, "co-vector pair is collinear"
    )
    if not 0.0 < alpha < math.pi:
        raise NumericalDomainError("inversion needs 0 < alpha < pi")
    ca = math.cos(alpha)
    sa = math.sin(alpha)
    eps = co_orientation(par, alpha)
    den = ca * ca + sa * sa / par.h**2
    t1_low = math.sqrt(tt22 / tt11) * (ca * big_t1 + (sa / par.h) * eps * big_d1) / den
    t2_low = math.sqrt(tt11 / tt22) * (ca * big_t2 + (sa / par.h) * eps * big_d2) / den
    return ctx.raise_(t1_low), ctx.raise_(t2_low)


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
    big_t1 = ctx.check_vector(T1, nonzero=True)
    big_t2 = ctx.check_vector(T2, nonzero=True)
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


def oplus_first_order(par: GParameter, ctx: MetricContext, t1, t2) -> np.ndarray:
    """First-order sum vector of the parallelogram law.

    t1 (+) t2 ~ t1 + t2 + (1/h - 1)(m(t1,t2) t1 + m(t2,t1) t2), exact at
    g = 0; the defining-equation residuals are O(k^2) in k = 1/h - 1.
    """
    t1, t2 = _checked_vectors(ctx, t1, t2)
    inv = _invariants(par, ctx, t1, t2)
    if inv.alpha >= 0.5 * math.pi:
        raise ObtuseInputError(f"parallelogram law needs alpha < pi/2, got {float(inv.alpha)!r}")
    total = t1 + t2
    th1, th2 = _pair_dots(ctx.r_pq, np.array((t1, t2)), total)[4]
    m12 = (inv.dot12 * th1 - inv.dot22 * th2) / inv.u
    m21 = (inv.dot12 * th2 - inv.dot11 * th1) / inv.u
    k = 1.0 / par.h - 1.0
    return total + k * (m12 * t1 + m21 * t2)


def ominus_first_order(par: GParameter, ctx: MetricContext, t1, t3) -> np.ndarray:
    """First-order difference vector t3 (-) t1, inverse of the sum to O(k^2)."""
    t1 = ctx.check_vector(t1, nonzero=True)
    t3 = ctx.check_vector(t3, nonzero=True)
    v = t3 - t1
    if not np.any(v):
        raise ZeroVectorError("difference of coincident vectors")
    dot11, dot33, _, u, ang_a = _pair_dots(ctx.r_pq, t1, t3)
    _require_independent(np.sin(ang_a), "difference undefined for a collinear configuration")
    ang_b = _pair_dots(ctx.r_pq, v, t3)[4]
    vt1 = ctx.dot(v, t1)
    vv = ctx.dot(v, v)
    s_vec = (dot11 * ang_a - vt1 * ang_b) / u * v + (vv * ang_b - vt1 * ang_a) / u * t1
    k = 1.0 / par.h - 1.0
    return v + k * s_vec


def parallelogram_residuals(par: GParameter, ctx: MetricContext, t1, t2, t3):
    """Residuals of the two defining side-length equations of the tetragon."""
    t1 = ctx.check_vector(t1, nonzero=True)
    t2 = ctx.check_vector(t2, nonzero=True)
    t3 = ctx.check_vector(t3, nonzero=True)
    # the pairs (t1, t3) and (t2, t3) in one call
    (dot11, dot22), dot33, _, _, (theta13, theta23) = _pair_dots(ctx.r_pq, np.array((t1, t2)), t3)
    s1, s2, s3 = math.sqrt(dot11), math.sqrt(dot22), math.sqrt(dot33[0])
    r1 = s3 - (s2 * s2 - s1 * s1) / s3 - 2.0 * s1 * math.cos(theta13 / par.h)
    r2 = s3 - (s1 * s1 - s2 * s2) / s3 - 2.0 * s2 * math.cos(theta23 / par.h)
    return r1, r2


def parallelogram_refine(par: GParameter, ctx: MetricContext, t1, t2) -> np.ndarray:
    """The exact sum vector t3 = t1 (+) t2 of the parallelogram law, in closed form.

    t3 lies in span{t1, t2}, and the two defining equations make its
    deformed angles to t1 and to t2 the base angles of a euclidean
    triangle with sides |t1|, |t2|, rho that add up to alpha, so
    rho^2 = |t1|^2 + |t2|^2 + 2 |t1||t2| cos(alpha) and t3 lies at the
    euclidean angle h atan2(|t2| sin(alpha), |t1| + |t2| cos(alpha)) from t1.
    """
    t1, t2 = _checked_vectors(ctx, t1, t2)
    inv = _invariants(par, ctx, t1, t2)
    if inv.alpha >= 0.5 * math.pi:
        raise ObtuseInputError(f"parallelogram law needs alpha < pi/2, got {float(inv.alpha)!r}")
    if par.g == 0.0:
        return t1 + t2
    s1, s2, ca, sa = _pair_scalars(inv)
    x, y = s1 + s2 * ca, s2 * sa  # rho = hypot(x, y), without overflow
    theta13 = par.h * math.atan2(y, x)
    # d1 is t2's part transverse to t1, rescaled to |d1| = |t1|
    return math.hypot(x, y) / s1 * (math.cos(theta13) * t1 + math.sin(theta13) * inv.d1)
