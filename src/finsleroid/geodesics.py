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

from .core import GParameter, MetricContext, _first_row, _require_normal
from .errors import CollinearError, DegenerateChordError, NumericalDomainError

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
    bad = ~(np.abs(x) <= 1.0 + _CLAMP_SLACK)  # NaN fails it too
    if np.count_nonzero(bad):
        first = float(np.asarray(x)[bad][0])
        raise NumericalDomainError(
            f"cosine {first!r} outside [-1, 1] beyond rounding slack" + _first_row(bad)
        )


def _require_independent(sin_theta, what: str) -> None:
    """The one pair-independence guard: sin(theta) > 1e-12, pair by pair,
    for theta the euclidean angle of the pair; the message names the first
    pair that fails it."""
    bad = ~(sin_theta > _COLLINEAR_TOL)
    if np.count_nonzero(bad):
        first = float(np.asarray(sin_theta)[bad][0])
        raise CollinearError(
            f"{what}: sin(theta) = {first:.3e} <= {_COLLINEAR_TOL:.0e}" + _first_row(bad)
        )


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
    squared norms, which must be finite normal numbers.  The euclidean
    angle comes from atan2(sin, cos), well conditioned at both ends of
    [0, pi].  Returns (dot11, dot22, dot12, u, theta), each with the
    leading shape of the pairs (float64 scalars for one pair).
    """
    pair = _stacked(t1, t2)  # (2, ..., N)
    with np.errstate(over="ignore", invalid="ignore"):  # _require_normal reports it
        gram = (pair[:, None, ..., None, :] @ form @ pair[None, :, ..., :, None])[..., 0, 0]
    dot11, dot22, dot12 = gram[0, 0], gram[1, 1], gram[0, 1]
    squares = np.array((dot11, dot22))
    _require_normal(squares, "pair")
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


def _checked_pair(ctx: MetricContext, t1, t2):
    """Nonzero finite vector pairs, shape (..., N) each."""
    return ctx.check_rows(t1, nonzero=True), ctx.check_rows(t2, nonzero=True)


def _checked_vectors(ctx: MetricContext, t1, t2):
    """One nonzero finite vector pair, shape (N,) each."""
    return ctx.check_vector(t1, nonzero=True), ctx.check_vector(t2, nonzero=True)


def angle(par: GParameter, ctx: MetricContext, t1, t2):
    """The deformed angle alpha = (1/h) * euclidean angle, in [0, pi/h].

    Like every pair function here, it takes pairs stacked as (..., N), the
    two stacks broadcasting against each other, and returns the leading
    shape (a float64 scalar for one pair); an invalid pair raises, naming
    the first such row.
    """
    return _pair_dots(ctx.r_pq, *_checked_pair(ctx, t1, t2))[4] / par.h


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


def _invariants(par: GParameter, ctx: MetricContext, t1, t2) -> PairInvariants:
    """pair_invariants of validated pairs."""
    dot11, dot22, dot12, u, theta, d1, d2 = _companions(
        ctx.r_pq, t1, t2, "companion vectors undefined for a collinear pair"
    )
    return PairInvariants(
        dot11=dot11, dot22=dot22, dot12=dot12, u=u, d1=d1, d2=d2, alpha=theta / par.h
    )


def pair_invariants(par: GParameter, ctx: MetricContext, t1, t2) -> PairInvariants:
    return _invariants(par, ctx, *_checked_pair(ctx, t1, t2))


def scalar_product(par: GParameter, ctx: MetricContext, t1, t2):
    """<t1, t2> = |t1| |t2| cos(alpha); reduces to the euclidean product at g = 0."""
    dot11, dot22, _, _, theta = _pair_dots(ctx.r_pq, *_checked_pair(ctx, t1, t2))
    return np.sqrt(dot11) * np.sqrt(dot22) * np.cos(theta / par.h)


def distance_squared(par: GParameter, ctx: MetricContext, t1, t2):
    """Squared two-point length (t1t1) + (t2t2) - 2 |t1||t2| cos(alpha)."""
    dot11, dot22, _, _, theta = _pair_dots(ctx.r_pq, *_checked_pair(ctx, t1, t2))
    root = np.sqrt(dot11) * np.sqrt(dot22)
    return np.maximum(dot11 + dot22 - 2.0 * root * np.cos(theta / par.h), 0.0)


@dataclass(frozen=True)
class GeodesicChord:
    """A solved geodesic segment between two image-space vectors.

    Satisfies (Delta s)^2 = s_end^2 + a^2 - 2 a s_end cos(alpha) together
    with the split sqrt(a^2 - b^2) Delta s = a s_end sin(alpha) and
    a^2 + b Delta s = a s_end cos(alpha).
    """

    t1: np.ndarray
    t2: np.ndarray
    a: float
    s_end: float
    alpha: float
    delta_s: float
    b: float
    h: float

    def radius(self, s):
        """Euclidean radius S(s) = sqrt(a^2 + 2 b s + s^2) along the chord."""
        s = np.asarray(s, dtype=float)
        return np.sqrt(np.maximum(self.a**2 + 2.0 * self.b * s + s * s, 0.0))


def solve_chord(par: GParameter, ctx: MetricContext, t1, t2) -> GeodesicChord:
    """Solve for the chord constants (a, b, Delta s, alpha) of the pair.

    Radial pairs (alpha = 0) are admitted and give b = +-a; coincident
    endpoints raise DegenerateChord.  Pairs with alpha >= pi have no
    smooth chord (the extremal path degenerates through the origin) and
    raise NumericalDomain.
    """
    t1, t2 = _checked_vectors(ctx, t1, t2)
    dot11, dot22, _, _, theta = _pair_dots(ctx.r_pq, t1, t2)
    a = math.sqrt(dot11)
    s_end = math.sqrt(dot22)
    alpha = float(theta) / par.h
    if alpha >= math.pi * (1.0 - 1e-9):
        raise NumericalDomainError(
            "no smooth chord: the pair subtends an angle of pi or more"
        )
    # a^2 + s_end^2 overflows beyond about 1e154: delta_s and b are of
    # degree 1, so they are formed at 2^-e (a, s_end), an exact scaling
    e = math.frexp(max(a, s_end))[1]
    a_e, s_e = math.ldexp(a, -e), math.ldexp(s_end, -e)
    ds2 = a_e * a_e + s_e * s_e - 2.0 * a_e * s_e * math.cos(alpha)
    ds_e = math.sqrt(max(ds2, 0.0))
    delta_s = math.ldexp(ds_e, e)
    if delta_s <= 1e-14 * (a + s_end):
        raise DegenerateChordError("coincident endpoints")
    b = math.ldexp((a_e * s_e * math.cos(alpha) - a_e * a_e) / ds_e, e)
    # rounding can push b fractionally past +-a on near-radial pairs
    b = min(max(b, -a), a)
    return GeodesicChord(
        t1=t1.copy(), t2=t2.copy(), a=a, s_end=s_end, alpha=alpha, delta_s=delta_s, b=b, h=par.h
    )


def _chord_angles(chord: GeodesicChord, s):
    """Continuous angle parameters of the interpolation formula.

    tau2(s) tracks the sweep from t1 to t(s), tau1(s) the remaining sweep
    to t2; atan2 keeps both continuous through the quarter-turn where the
    rational arctan argument blows up.
    """
    a, b, ds = chord.a, chord.b, chord.delta_s
    c = math.sqrt(max(a * a - b * b, 0.0))
    tau1 = np.arctan2(c * (ds - s), a * a + b * ds + (b + ds) * s)
    tau2 = np.arctan2(c * s, a * a + b * s)
    return c, tau1, tau2


def geodesic_point(chord: GeodesicChord, s):
    """Point t(s) of the chord; s may be a scalar or an array.

    The result is a combination of the two endpoints (geodesics are plane
    curves) with (t(s) . t(s)) = S^2(s).
    """
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    rad = chord.radius(s)
    c, tau1, tau2 = _chord_angles(chord, s)
    if c <= 1e-15 * chord.a:
        # radial chord: t(s) = t1 * S(s)/a
        out = np.outer(rad / chord.a, chord.t1)
    else:
        denom = math.sin(chord.h * math.atan2(c * chord.delta_s, chord.a**2 + chord.b * chord.delta_s))
        coeff1 = rad * np.sin(chord.h * tau1) / (chord.a * denom)
        coeff2 = rad * np.sin(chord.h * tau2) / (chord.s_end * denom)
        out = np.outer(coeff1, chord.t1) + np.outer(coeff2, chord.t2)
    return out[0] if scalar else out


def geodesic_velocity(chord: GeodesicChord, s):
    """First derivative dt/ds; unit vector of the metric n along the chord."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    rad = chord.radius(s)
    c, tau1, tau2 = _chord_angles(chord, s)
    if c <= 1e-15 * chord.a:
        out = np.outer((chord.b + s) / (chord.a * rad), chord.t1)
    else:
        denom = math.sin(chord.h * math.atan2(c * chord.delta_s, chord.a**2 + chord.b * chord.delta_s))
        point = geodesic_point(chord, s)
        radial = (chord.b + s) / rad**2
        coeff1 = c * chord.h * np.cos(chord.h * tau1) / (chord.a * rad * denom)
        coeff2 = c * chord.h * np.cos(chord.h * tau2) / (chord.s_end * rad * denom)
        out = point * radial[:, None] - np.outer(coeff1, chord.t1) + np.outer(coeff2, chord.t2)
    return out[0] if scalar else out


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
    t1, t2 = _checked_vectors(ctx, t1, t2)
    inv = _invariants(par, ctx, t1, t2)
    s1 = math.sqrt(inv.dot11)
    s2 = math.sqrt(inv.dot22)
    ca = math.cos(inv.alpha)
    sa = math.sin(inv.alpha)
    b1 = ctx.lower(t1) * (1.0 - s2 * ca / s1) - ctx.lower(inv.d1) * (s2 / (par.h * s1)) * sa
    b2 = ctx.lower(t2) * (1.0 - s1 * ca / s2) - ctx.lower(inv.d2) * (s1 / (par.h * s2)) * sa
    return b1, b2
