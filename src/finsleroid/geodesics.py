"""Closed-form geodesics of the quasi-euclidean space, the deformed angle,
cosine theorem, scalar product, two-point distance and length gradients.

The angle between image vectors is 1/h times their euclidean angle and is
therefore additive for coplanar triples.  Along a geodesic the euclidean
radius obeys S^2(s) = a^2 + 2 b s + s^2 with two constants a, b, and the
whole chord is an explicit combination of its endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GParameter, MetricContext, _require, _scaled_back, _scaled_rows
from .errors import CollinearError, DegenerateChordError, NumericalDomainError, OutOfRangeError

__all__ = [
    "GeodesicChord",
    "PairInvariants",
    "angle",
    "pair_invariants",
    "scalar_product",
    "distance_squared",
    "solve_chord",
    "geodesic_point",
    "geodesic_velocity",
    "in_segment",
    "length_gradients",
]

_CLAMP_SLACK = 1e-12
_COLLINEAR_TOL = 1e-12


def _check_cosine(x) -> None:
    _require(abs(x) <= 1.0 + _CLAMP_SLACK, NumericalDomainError,  # NaN fails it too
            "cosine {!r} outside [-1, 1] beyond rounding slack", x)


def _require_independent(sin_theta, what: str) -> None:
    """The one pair-independence guard: sin(theta) > 1e-12, pair by pair,
    for theta the euclidean angle of the pair; the message names the first
    pair that fails it."""
    _require(sin_theta > _COLLINEAR_TOL, CollinearError,
            what + ": sin(theta) = {:.3e} <= " + f"{_COLLINEAR_TOL:.0e}", sin_theta)


def _dots(form, x, y):
    """x^p form_pq y^q of pairs stacked as (..., N), each row on its own;
    a float64 scalar for one pair."""
    return (x[..., None, :] @ form @ y[..., :, None])[..., 0, 0][()]


def _stacked(x, y):
    """x and y broadcast and stacked along a new first axis."""
    return np.array(np.broadcast_arrays(x, y) if x.shape != y.shape else (x, y))


def _pair_dots(form, t1, t2):
    """Euclidean pair data under the bilinear form ``form``, without
    cancellation or overflow, over pairs stacked as (..., N) (the two
    stacks broadcast).

    ``form`` is ``ctx.r_pq`` for vectors and ``ctx.r_pq_inv`` for co-vectors.
    The Gram root u = sqrt((t1t1)(t2t2) - (t1t2)^2) loses half its digits
    near collinearity when formed literally, so it is built from the
    transverse projections t2 - ((t1t2)/(t1t1)) t1 and its mirror, as
    sqrt(|t1||t2 - ...|) sqrt(|t2||t1 - ...|): no intermediate exceeds the
    squared norms.  The euclidean angle comes from atan2(sin, cos), well
    conditioned at both ends of [0, pi].  Returns (dot11, dot22, dot12, u,
    theta), each with the leading shape of the pairs (float64 scalars for
    one pair).
    """
    pair = _stacked(t1, t2)  # (2, ..., N)
    gram = (pair[:, None, ..., None, :] @ form @ pair[None, :, ..., :, None])[..., 0, 0]
    dot11, dot22, dot12 = gram[0, 0], gram[1, 1], gram[0, 1]
    squares = np.array((dot11, dot22))
    norms = np.sqrt(squares)
    size = norms[0] * norms[1]
    cos = dot12 / size
    _check_cosine(cos)
    # rows t2 - ((t1t2)/(t1t1)) t1 and t1 - ((t1t2)/(t2t2)) t2
    transverse = pair[::-1] - (dot12 / squares)[..., None] * pair
    tt = (transverse[..., None, :] @ form @ transverse[..., :, None])[..., 0, 0]
    roots = np.sqrt(norms * np.sqrt(tt))  # each sqrt(u)
    u = roots[0] * roots[1]
    # atan2 of the sine and cosine: numpy's atan2 rounds differently for
    # arguments near the float64 limits
    return dot11, dot22, dot12, u, np.arctan2(u / size, cos)


def _companions(form, t1, t2, what: str):
    """_pair_dots of independent pairs plus the companions d1, d2 (see PairInvariants)."""
    dot11, dot22, dot12, u, theta = _pair_dots(form, t1, t2)
    _require_independent(np.sin(theta), what)
    d1 = (dot11 / u)[..., None] * (t2 - (dot12 / dot11)[..., None] * t1)
    d2 = (dot22 / u)[..., None] * (t1 - (dot12 / dot22)[..., None] * t2)
    return dot11, dot22, dot12, u, theta, d1, d2


def _checked_vectors(ctx: MetricContext, t1, t2):
    """core._scaled_rows of one vector pair, shape (N,) each."""
    for t in (t1, t2):
        if np.ndim(t) != 1:
            raise OutOfRangeError(f"expected a 1-d vector, got shape {np.shape(t)}")
    return _scaled_rows(ctx, t1, t2)


def angle(par: GParameter, ctx: MetricContext, t1, t2):
    """The deformed angle alpha = (1/h) * euclidean angle, in [0, pi/h].

    Like every pair function here, it takes pairs stacked as (..., N), the
    two stacks broadcasting against each other, and returns the leading
    shape (a float64 scalar for one pair); an invalid pair raises, naming
    the first such row.
    """
    return _pair_dots(ctx.r_pq, *_scaled_rows(ctx, t1, t2)[:2])[4] / par.h


@dataclass(frozen=True)
class PairInvariants:
    """Euclidean products of a pair plus the orthogonal companion vectors.

    d1 is the part of t2 transverse to t1 (rescaled to |d1| = |t1|), and
    symmetrically for d2; u = sqrt((t1t1)(t2t2) - (t1t2)^2) > 0.  For
    stacked pairs each field has their leading shape (d1, d2 add N).
    """

    dot11: float
    dot22: float
    dot12: float
    u: float
    d1: np.ndarray
    d2: np.ndarray
    alpha: float

    degrees = (2, 2, 2, 2, 1, 1, 0)  # homogeneity degrees of the fields in the pair


def _invariants(par: GParameter, ctx: MetricContext, t1, t2) -> PairInvariants:
    """pair_invariants of validated pairs."""
    dot11, dot22, dot12, u, theta, d1, d2 = _companions(
        ctx.r_pq, t1, t2, "companion vectors undefined for a collinear pair"
    )
    return PairInvariants(
        dot11=dot11, dot22=dot22, dot12=dot12, u=u, d1=d1, d2=d2, alpha=theta / par.h
    )


def pair_invariants(par: GParameter, ctx: MetricContext, t1, t2) -> PairInvariants:
    t1, t2, e = _scaled_rows(ctx, t1, t2)
    return _scaled_back(_invariants(par, ctx, t1, t2), e, PairInvariants.degrees, "pair invariants")


def scalar_product(par: GParameter, ctx: MetricContext, t1, t2):
    """<t1, t2> = |t1| |t2| cos(alpha); reduces to the euclidean product at g = 0."""
    t1, t2, e = _scaled_rows(ctx, t1, t2)
    dot11, dot22, _, _, theta = _pair_dots(ctx.r_pq, t1, t2)
    return _scaled_back(np.sqrt(dot11) * np.sqrt(dot22) * np.cos(theta / par.h), e, 2, "scalar product")


def distance_squared(par: GParameter, ctx: MetricContext, t1, t2):
    """Squared two-point length (t1t1) + (t2t2) - 2 |t1||t2| cos(alpha)."""
    t1, t2, e = _scaled_rows(ctx, t1, t2)
    dot11, dot22, _, _, theta = _pair_dots(ctx.r_pq, t1, t2)
    root = np.sqrt(dot11) * np.sqrt(dot22)
    distance2 = np.maximum(dot11 + dot22 - 2.0 * root * np.cos(theta / par.h), 0.0)
    return _scaled_back(distance2, e, 2, "squared distance")


@dataclass(frozen=True)
class GeodesicChord:
    """A solved geodesic segment between two image-space vectors.

    Satisfies (Delta s)^2 = s_end^2 + a^2 - 2 a s_end cos(alpha) together
    with the split sqrt(a^2 - b^2) Delta s = a s_end sin(alpha) and
    a^2 + b Delta s = a s_end cos(alpha).  The chord is evaluated at
    2^-e (t1, t2), with e the exponent of the pair (see core._scaled_rows).
    """

    t1: np.ndarray
    t2: np.ndarray
    a: float
    s_end: float
    alpha: float
    delta_s: float
    b: float
    h: float
    e: int | np.ndarray

    def radius(self, s):
        """Euclidean radius S(s) = sqrt(a^2 + 2 b s + s^2) along the chord."""
        a, b, _, _, _, _, s = _scaled(self, np.asarray(s, dtype=float))
        return _scaled_back(_radius(a, b, s), self.e, 1, "geodesic radius")


def _scaled(chord: GeodesicChord, s):
    """The chord at 2^-e: its constants a, b, Delta s, s_end, its endpoints
    and the parameters s, each of degree 1 and so scaled by 2^-e."""
    values = (chord.a, chord.b, chord.delta_s, chord.s_end, chord.t1, chord.t2, s)
    return _scaled_back(values, chord.e, (-1,) * len(values), "geodesic chord")


def _radius(a, b, s):
    return np.sqrt(np.maximum(a**2 + 2.0 * b * s + s * s, 0.0))


def solve_chord(par: GParameter, ctx: MetricContext, t1, t2) -> GeodesicChord:
    """Solve for the chord constants (a, b, Delta s, alpha) of the pair.

    Radial pairs (alpha = 0) are admitted and give b = +-a; coincident
    endpoints raise DegenerateChord.  Pairs with alpha >= pi have no
    smooth chord (the extremal path degenerates through the origin) and
    raise NumericalDomain.
    """
    t1, t2, e = _checked_vectors(ctx, t1, t2)
    dot11, dot22, _, _, theta = _pair_dots(ctx.r_pq, t1, t2)
    a = math.sqrt(dot11)
    s_end = math.sqrt(dot22)
    alpha = float(theta) / par.h
    if alpha >= math.pi * (1.0 - 1e-9):
        raise NumericalDomainError(
            "no smooth chord: the pair subtends an angle of pi or more"
        )
    ds2 = a * a + s_end * s_end - 2.0 * a * s_end * math.cos(alpha)
    delta_s = math.sqrt(max(ds2, 0.0))
    if delta_s <= 1e-14 * (a + s_end):
        raise DegenerateChordError("coincident endpoints")
    b = (a * s_end * math.cos(alpha) - a * a) / delta_s
    # rounding can push b fractionally past +-a on near-radial pairs
    b = min(max(b, -a), a)
    t1, t2, a, s_end, delta_s, b = _scaled_back((t1, t2, a, s_end, delta_s, b), e, (1,) * 6, "geodesic chord")
    return GeodesicChord(
        t1=t1.copy(), t2=t2.copy(), a=float(a), s_end=float(s_end), alpha=alpha, delta_s=float(delta_s),
        b=float(b), h=par.h, e=e,
    )


def _chord_angles(h: float, a, b, ds, s):
    """Continuous angle parameters of the interpolation formula, and c =
    sqrt(a^2 - b^2) and the denominator sin(h alpha); all of degree 0
    except c (1), so they take the chord at 2^-e (see _scaled).

    tau2(s) tracks the sweep from t1 to t(s), tau1(s) the remaining sweep
    to t2; atan2 keeps both continuous through the quarter-turn where the
    rational arctan argument blows up.
    """
    c = math.sqrt(max(a * a - b * b, 0.0))
    tau1 = np.arctan2(c * (ds - s), a * a + b * ds + (b + ds) * s)
    tau2 = np.arctan2(c * s, a * a + b * s)
    return c, tau1, tau2, math.sin(h * math.atan2(c * ds, a**2 + b * ds))


def _point(h, a, b, ds, s_end, t1, t2, s):
    """Points t(s) of the chord at 2^-e, from its values there (see _scaled)."""
    rad = _radius(a, b, s)
    c, tau1, tau2, denom = _chord_angles(h, a, b, ds, s)
    if c <= 1e-15 * a:
        # radial chord: t(s) = t1 * S(s)/a
        return np.outer(rad / a, t1)
    coeff1 = rad * np.sin(h * tau1) / (a * denom)
    coeff2 = rad * np.sin(h * tau2) / (s_end * denom)
    return np.outer(coeff1, t1) + np.outer(coeff2, t2)


def geodesic_point(chord: GeodesicChord, s):
    """Point t(s) of the chord; s may be a scalar or an array.

    The result is a combination of the two endpoints (geodesics are plane
    curves) with (t(s) . t(s)) = S^2(s).
    """
    s = np.asarray(s, dtype=float)
    out = _scaled_back(_point(chord.h, *_scaled(chord, np.atleast_1d(s))), chord.e, 1, "geodesic point")
    return out[0] if s.ndim == 0 else out


def geodesic_velocity(chord: GeodesicChord, s):
    """First derivative dt/ds, of degree 0; unit vector of the metric n
    along the chord."""
    s = np.asarray(s, dtype=float)
    scaled = _scaled(chord, np.atleast_1d(s))
    a, b, ds, s_end, t1, t2, s_e = scaled
    rad = _radius(a, b, s_e)
    c, tau1, tau2, denom = _chord_angles(chord.h, a, b, ds, s_e)
    if c <= 1e-15 * a:
        out = np.outer((b + s_e) / (a * rad), t1)
    else:
        radial = (b + s_e) / rad**2
        coeff1 = c * chord.h * np.cos(chord.h * tau1) / (a * rad * denom)
        coeff2 = c * chord.h * np.cos(chord.h * tau2) / (s_end * rad * denom)
        point = _point(chord.h, *scaled)
        out = point * radial[:, None] - np.outer(coeff1, t1) + np.outer(coeff2, t2)
    return out[0] if s.ndim == 0 else out


def in_segment(chord: GeodesicChord, s, slack: float = 0.0) -> np.ndarray:
    """Flag whether parameter values lie on the solved segment [0, Delta s]."""
    s = np.asarray(s, dtype=float)
    return (s >= -slack) & (s <= chord.delta_s + slack)


def length_gradients(par: GParameter, ctx: MetricContext, t1, t2):
    """Half gradients of the squared two-point length, as covectors.

    b1 = t1 - t1 |t2| cos(alpha)/|t1| - d1 |t2| sin(alpha)/(h |t1|) with
    all vectors index-lowered, and symmetrically for b2.  Both vanish in
    the coincidence limit, and t1.b1 + t2.b2 equals the squared length
    (Euler identity for a 2-homogeneous function).
    """
    t1, t2, e = _checked_vectors(ctx, t1, t2)
    inv = _invariants(par, ctx, t1, t2)
    s1 = math.sqrt(inv.dot11)
    s2 = math.sqrt(inv.dot22)
    ca = math.cos(inv.alpha)
    sa = math.sin(inv.alpha)
    b1 = ctx.lower(t1) * (1.0 - s2 * ca / s1) - ctx.lower(inv.d1) * (s2 / (par.h * s1)) * sa
    b2 = ctx.lower(t2) * (1.0 - s1 * ca / s2) - ctx.lower(inv.d2) * (s1 / (par.h * s2)) * sa
    return _scaled_back((b1, b2), e, (1, 1), "length gradients")
