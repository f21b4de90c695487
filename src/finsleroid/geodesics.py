"""Closed-form geodesics of the quasi-euclidean space, the deformed angle,
cosine theorem, scalar product, two-point distance and length gradients.

The angle between image vectors is 1/h times their euclidean angle and is
therefore additive for coplanar triples.  Along a geodesic the euclidean
radius obeys S^2(s) = a^2 + 2 b s + s^2 with two constants a, b, and the
whole chord is an explicit combination of its endpoints.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import GParameter, MetricContext, _dots, _per_row, _require, _scaled_back, _scaled_rows
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


def _stacked(x, y):
    """x and y broadcast and stacked along a new first axis."""
    return np.array(np.broadcast_arrays(x, y) if x.shape != y.shape else (x, y))


def _pair_dots(t1, t2, form=None, floor=0.0):
    """Euclidean pair data under the bilinear form ``form``, without
    cancellation or overflow, over pairs stacked as (..., N) (the two
    stacks broadcast).

    The kernels omit ``form`` at their whitened rows and pass
    ``ctx.sine_floor`` as ``floor``, the rounding of the whitening, below
    which a sine u/(|t1||t2|) is 0: proportional vectors are so only to
    that rounding once whitened.  A raw-coordinate reference passes
    ``ctx.r_pq``, or ``ctx.r_pq_inv`` for co-vectors, and no floor.
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
    gram = _dots(pair[:, None], pair[None, :], form)
    dot11, dot22, dot12 = gram[0, 0], gram[1, 1], gram[0, 1]
    squares = np.array((dot11, dot22))
    norms = np.sqrt(squares)
    size = norms[0] * norms[1]
    cos = dot12 / size
    _check_cosine(cos)
    # rows t2 - ((t1t2)/(t1t1)) t1 and t1 - ((t1t2)/(t2t2)) t2
    transverse = pair[::-1] - (dot12 / squares)[..., None] * pair
    tt = _dots(transverse, transverse, form)
    roots = np.sqrt(norms * np.sqrt(tt))  # each sqrt(u)
    u = roots[0] * roots[1]
    if floor:
        u = u * (u > floor * size)
    # atan2 of the sine and cosine: numpy's atan2 rounds differently for
    # arguments near the float64 limits
    return dot11, dot22, dot12, u, np.arctan2(u / size, cos)


def _companions(t1, t2, what: str, form=None, floor=0.0):
    """_pair_dots of independent pairs plus the companions d1, d2 (see PairInvariants)."""
    dot11, dot22, dot12, u, theta = _pair_dots(t1, t2, form, floor)
    _require_independent(np.sin(theta), what)
    d1 = (dot11 / u)[..., None] * (t2 - (dot12 / dot11)[..., None] * t1)
    d2 = (dot22 / u)[..., None] * (t1 - (dot12 / dot22)[..., None] * t2)
    return dot11, dot22, dot12, u, theta, d1, d2


def angle(par: GParameter, ctx: MetricContext, t1, t2):
    """The deformed angle alpha = (1/h) * euclidean angle, in [0, pi/h].

    Like every pair function here, it takes pairs stacked as (..., N), the
    two stacks broadcasting against each other, and returns the leading
    shape (a float64 scalar for one pair); an invalid pair raises, naming
    the first such row.
    """
    return _pair_dots(*_scaled_rows(ctx, t1, t2)[:2], floor=ctx.sine_floor)[4] / par.h


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
    indices = ("", "", "", "", "u", "u", "")  # index types of the fields (see core._scaled_back)


def _invariants(par: GParameter, ctx: MetricContext, t1, t2) -> PairInvariants:
    """pair_invariants of validated pairs."""
    what = "companion vectors undefined for a collinear pair"
    dot11, dot22, dot12, u, theta, d1, d2 = _companions(t1, t2, what, floor=ctx.sine_floor)
    return PairInvariants(
        dot11=dot11, dot22=dot22, dot12=dot12, u=u, d1=d1, d2=d2, alpha=theta / par.h
    )


def pair_invariants(par: GParameter, ctx: MetricContext, t1, t2) -> PairInvariants:
    t1, t2, e = _scaled_rows(ctx, t1, t2)
    inv = _invariants(par, ctx, t1, t2)
    return _scaled_back(inv, e, inv.degrees, "pair invariants", ctx, inv.indices)


def scalar_product(par: GParameter, ctx: MetricContext, t1, t2):
    """<t1, t2> = |t1| |t2| cos(alpha); reduces to the euclidean product at g = 0."""
    t1, t2, e = _scaled_rows(ctx, t1, t2)
    dot11, dot22, _, _, theta = _pair_dots(t1, t2, floor=ctx.sine_floor)
    return _scaled_back(np.sqrt(dot11) * np.sqrt(dot22) * np.cos(theta / par.h), e, 2, "scalar product")


def distance_squared(par: GParameter, ctx: MetricContext, t1, t2):
    """Squared two-point length (t1t1) + (t2t2) - 2 |t1||t2| cos(alpha)."""
    t1, t2, e = _scaled_rows(ctx, t1, t2)
    dot11, dot22, _, _, theta = _pair_dots(t1, t2, floor=ctx.sine_floor)
    root = np.sqrt(dot11) * np.sqrt(dot22)
    distance2 = np.maximum(dot11 + dot22 - 2.0 * root * np.cos(theta / par.h), 0.0)
    return _scaled_back(distance2, e, 2, "squared distance")


@dataclass(frozen=True)
class GeodesicChord:
    """Solved geodesic segments between image-space vectors, one per pair.

    Satisfies (Delta s)^2 = s_end^2 + a^2 - 2 a s_end cos(alpha) together
    with the split sqrt(a^2 - b^2) Delta s = a s_end sin(alpha) and
    a^2 + b Delta s = a s_end cos(alpha).  For pairs stacked as (..., N)
    the scalars a, s_end, alpha, delta_s and b have their leading shape L
    and t1, t2 the shape L + (N,); for one pair they are Python floats.
    The chords are evaluated at 2^-e (t1, t2), with e the exponent of
    each pair (see core._scaled_rows), of the endpoints t1, t2 as given.

    Parameters s along the chords broadcast against L + (k,), so that each
    chord takes its own k values (or all chords the same k); a scalar s
    takes one value per chord and drops the k axis.
    """

    t1: np.ndarray
    t2: np.ndarray
    a: float | np.ndarray
    s_end: float | np.ndarray
    alpha: float | np.ndarray
    delta_s: float | np.ndarray
    b: float | np.ndarray
    h: float
    e: int | np.ndarray

    def __getitem__(self, i):
        """The chords of the pairs at index i of a stack of chords."""
        pick = lambda x: x[i] if isinstance(x, np.ndarray) else x
        return GeodesicChord(*(pick(getattr(self, f.name)) for f in dataclasses.fields(self)))

    def radius(self, s):
        """Euclidean radius S(s) = sqrt(a^2 + 2 b s + s^2) along the chords,
        shape L + (k,)."""
        grid, single = _grid(self, s)
        a, b, _, _, _, _, s = _scaled(self, grid)
        out = _scaled_back(_radius(a, b, s), self.e, 1, "geodesic radius")
        return out[..., 0][()] if single else out


def _grid(chord: GeodesicChord, s):
    """s as float64 broadcast to L + (k,), L the leading shape of the
    chords, and whether s is a scalar (then k = 1, an axis the caller drops)."""
    s = np.asarray(s, dtype=float)
    grid = s.reshape(1) if s.ndim == 0 else s
    lead = chord.t1.shape[:-1]
    if grid.shape[:-1] != lead:
        try:
            grid = np.broadcast_to(grid, lead + grid.shape[-1:])
        except ValueError:
            raise OutOfRangeError(f"parameters of shape {s.shape} do not broadcast against {lead} + (k,)") from None
    return grid, s.ndim == 0


def _scaled(chord: GeodesicChord, s):
    """The chords at 2^-e: their constants a, b, Delta s, s_end with an axis
    for the parameters (shape L + (1,); scalars for one chord), their
    endpoints with one before the last (L + (1, N)), and the parameters s,
    of shape L + (k,); each of degree 1 and so scaled by 2^-e."""
    values = (*(_per_row(x) for x in (chord.a, chord.b, chord.delta_s, chord.s_end)),
              chord.t1[..., None, :], chord.t2[..., None, :], s)
    return _scaled_back(values, chord.e, (-1,) * len(values), "geodesic chord")


def _radius(a, b, s):
    return np.sqrt(np.maximum(a**2 + 2.0 * b * s + s * s, 0.0))


def _chord_terms(par: GParameter, ctx: MetricContext, t1, t2):
    """(e, a, s_end, alpha, delta_s, b, wide, coincident) of pairs stacked as
    (..., N), before the guards of solve_chord: the constants at 2^-e (see
    core._scaled_rows) and the flags of the pairs at an angle of pi or more
    and of coincident endpoints, where b is not defined."""
    t1, t2, e = _scaled_rows(ctx, t1, t2)
    dot11, dot22, _, _, theta = _pair_dots(t1, t2, floor=ctx.sine_floor)
    a, s_end = np.sqrt(dot11), np.sqrt(dot22)
    alpha = theta / par.h
    cos = np.cos(alpha)
    delta_s = np.sqrt(np.maximum(a * a + s_end * s_end - 2.0 * a * s_end * cos, 0.0))
    coincident = delta_s <= 1e-14 * (a + s_end)
    b = (a * s_end * cos - a * a) / (delta_s + coincident)  # Delta s, but 1 where it may be 0
    # rounding can push b fractionally past +-a on near-radial pairs
    b = np.minimum(np.maximum(b, -a), a)
    return e, a, s_end, alpha, delta_s, b, alpha >= math.pi * (1.0 - 1e-9), coincident


def solve_chord(par: GParameter, ctx: MetricContext, t1, t2) -> GeodesicChord:
    """Solve for the chord constants (a, b, Delta s, alpha) of pairs stacked
    as (..., N), the two stacks broadcasting against each other.

    Radial pairs (alpha = 0) are admitted and give b = +-a; coincident
    endpoints raise DegenerateChord.  Pairs with alpha >= pi have no
    smooth chord (the extremal path degenerates through the origin) and
    raise NumericalDomain.  Each message names the first such pair.
    """
    e, a, s_end, alpha, delta_s, b, wide, coincident = _chord_terms(par, ctx, t1, t2)
    _require(~wide, NumericalDomainError, "no smooth chord: the pair subtends an angle of pi or more")
    _require(~coincident, DegenerateChordError, "coincident endpoints")
    t1, t2 = _stacked(np.asarray(t1, dtype=float), np.asarray(t2, dtype=float))
    a, s_end, delta_s, b = _scaled_back((a, s_end, delta_s, b), e, (1,) * 4, "geodesic chord")
    if np.ndim(a) == 0:
        a, s_end, alpha, delta_s, b = (float(x) for x in (a, s_end, alpha, delta_s, b))
    return GeodesicChord(t1=t1, t2=t2, a=a, s_end=s_end, alpha=alpha, delta_s=delta_s, b=b, h=par.h, e=e)


def _atan2(y, x):
    """Elementwise math.atan2, to which the printed samples of the
    ``geodesic`` command are pinned: numpy's arctan2 differs from libm's
    in the last bit on some inputs."""
    if np.ndim(y) == 0:
        return math.atan2(y, x)
    pairs = zip(np.ravel(y).tolist(), np.ravel(x).tolist())
    return np.array([math.atan2(p, q) for p, q in pairs]).reshape(np.shape(y))


def _chord_angles(h: float, a, b, ds, s):
    """Continuous angle parameters of the interpolation formula, c =
    sqrt(a^2 - b^2), the denominator sin(h alpha) and the flags of the
    radial chords (c <= 1e-15 a), whose denominator, about 0, is raised
    by 1 as their points take their own formula; all of degree 0 except
    c (1), so they take the chords at 2^-e (see _scaled).

    tau2(s) tracks the sweep from t1 to t(s), tau1(s) the remaining sweep
    to t2; atan2 keeps both continuous through the quarter-turn where the
    rational arctan argument blows up.
    """
    c = np.sqrt(np.maximum(a * a - b * b, 0.0))
    tau1 = np.arctan2(c * (ds - s), a * a + b * ds + (b + ds) * s)
    tau2 = np.arctan2(c * s, a * a + b * s)
    radial = c <= 1e-15 * a
    return c, tau1, tau2, np.sin(h * _atan2(c * ds, a**2 + b * ds)) + radial, radial


def _radial(flags, general, radial):
    """general, but radial() on the radial chords (flags), along (..., k, N)."""
    return np.where(flags[..., None], radial(), general) if flags.any() else general


def _point(h, a, b, ds, s_end, t1, t2, s):
    """Points t(s), shape L + (k, N), of the chords at 2^-e, from their
    values there (see _scaled); with the radius S(s) and the
    _chord_angles at s, which geodesic_velocity reuses."""
    rad = _radius(a, b, s)
    angles = _chord_angles(h, a, b, ds, s)
    _, tau1, tau2, denom, radial = angles
    coeff1 = rad * np.sin(h * tau1) / (a * denom)
    coeff2 = rad * np.sin(h * tau2) / (s_end * denom)
    # radial chord: t(s) = t1 * S(s)/a
    point = _radial(radial, coeff1[..., None] * t1 + coeff2[..., None] * t2, lambda: (rad / a)[..., None] * t1)
    return point, rad, angles


def geodesic_point(chord: GeodesicChord, s):
    """Points t(s) of the chords, shape L + (k, N); (N,) for one chord and
    a scalar s.

    Each point is a combination of the chord's two endpoints (geodesics
    are plane curves) with (t(s) . t(s)) = S^2(s).
    """
    grid, single = _grid(chord, s)
    out = _scaled_back(_point(chord.h, *_scaled(chord, grid))[0], chord.e, 1, "geodesic point")
    return out[..., 0, :] if single else out


def geodesic_velocity(chord: GeodesicChord, s):
    """First derivative dt/ds, of degree 0, shaped as geodesic_point; unit
    vector of the metric n along the chords."""
    grid, single = _grid(chord, s)
    scaled = _scaled(chord, grid)
    a, b, ds, s_end, t1, t2, s_e = scaled
    h = chord.h
    point, rad, (c, tau1, tau2, denom, radial) = _point(h, *scaled)
    coeff1 = c * h * np.cos(h * tau1) / (a * rad * denom)
    coeff2 = c * h * np.cos(h * tau2) / (s_end * rad * denom)
    out = point * ((b + s_e) / rad**2)[..., None] - coeff1[..., None] * t1 + coeff2[..., None] * t2
    out = _radial(radial, out, lambda: ((b + s_e) / (a * rad))[..., None] * t1)
    return out[..., 0, :] if single else out


def in_segment(chord: GeodesicChord, s, slack: float = 0.0) -> np.ndarray:
    """Flag whether parameter values lie on the solved segments [0, Delta s],
    shape L + (k,)."""
    grid, single = _grid(chord, s)
    flags = (grid >= -slack) & (grid <= _per_row(chord.delta_s) + slack)
    return flags[..., 0][()] if single else flags


def length_gradients(par: GParameter, ctx: MetricContext, t1, t2):
    """Half gradients of the squared two-point length, as covectors, over
    pairs stacked as (..., N).

    b1 = t1 - t1 |t2| cos(alpha)/|t1| - d1 |t2| sin(alpha)/(h |t1|) with
    all vectors index-lowered, and symmetrically for b2.  Both vanish in
    the coincidence limit, and t1.b1 + t2.b2 equals the squared length
    (Euler identity for a 2-homogeneous function).  A collinear pair
    raises CollinearError naming its index.
    """
    t1, t2, e = _scaled_rows(ctx, t1, t2)
    inv = _invariants(par, ctx, t1, t2)
    s1, s2 = np.sqrt(inv.dot11), np.sqrt(inv.dot22)
    ca, sa = np.cos(inv.alpha), _per_row(np.sin(inv.alpha))
    b1 = t1 * _per_row(1.0 - s2 * ca / s1) - inv.d1 * _per_row(s2 / (par.h * s1)) * sa
    b2 = t2 * _per_row(1.0 - s1 * ca / s2) - inv.d2 * _per_row(s1 / (par.h * s2)) * sa
    return _scaled_back((b1, b2), e, (1, 1), "length gradients", ctx, ("l", "l"))
