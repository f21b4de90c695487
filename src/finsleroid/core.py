"""Scalar building blocks of the Finsleroid space.

An N-dimensional euclidean vector space with a preferred axis (the last
coordinate, written Z) is deformed by a single characteristic parameter
g in (-2, 2).  The deformed norm is

    K(g; R) = sqrt(B) * exp(G * Phi / 2),
    B = Z^2 + g*q*Z + q^2,     q = sqrt(r_ab R^a R^b),

with h = sqrt(1 - g^2/4), G = g/h, and Phi an angle-like function of
(q, Z).  At g = 0 everything collapses to the euclidean norm.  The
level set K = 1 (the "finsleroid") replaces the unit sphere.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalDomainError, OutOfRangeError, ZeroVectorError

__all__ = [
    "GParameter",
    "MetricContext",
    "ScalarBundle",
    "make_parameter",
    "parse_metric_spec",
    "q_norm",
    "scalar_bundle",
    "kfun",
    "phi_function",
    "generating_v",
    "generating_j",
]


@dataclass(frozen=True)
class GParameter:
    """The characteristic parameter g and every derived constant.

    Attributes
    ----------
    g : characteristic parameter, -2 < g < 2
    h : sqrt(1 - g^2/4)
    big_g : G = g/h
    g_plus, g_minus : g/2 + h, g/2 - h (roots of the B-form factorization)
    g_up_plus, g_up_minus : -g/2 + h, -g/2 - h
    gamma : h - 1, the conformal-flattening exponent
    """

    g: float
    h: float
    big_g: float
    g_plus: float
    g_minus: float
    g_up_plus: float
    g_up_minus: float
    gamma: float


def make_parameter(g: float) -> GParameter:
    """Validate g and populate the derived constants."""
    g = float(g)
    if not -2.0 < g < 2.0 or not math.isfinite(g):
        raise OutOfRangeError(f"characteristic parameter must satisfy -2 < g < 2, got {g!r}")
    h = math.sqrt(1.0 - 0.25 * g * g)
    return GParameter(
        g=g,
        h=h,
        big_g=g / h,
        g_plus=0.5 * g + h,
        g_minus=0.5 * g - h,
        g_up_plus=-0.5 * g + h,
        g_up_minus=-0.5 * g - h,
        gamma=h - 1.0,
    )


def _first_row(bad: np.ndarray) -> str:
    """Names the first True of a per-row flag array; empty for one vector."""
    idx = tuple(int(i) for i in np.argwhere(bad)[0])
    return f" (row {idx[0] if len(idx) == 1 else idx})" if idx else ""


def _require(ok, error, message: str, value=None) -> None:
    """Raise error(message), naming the first row where the per-row flag
    ``ok`` is not set; ``message`` formats that row's ``value``, if one is
    given.  One vector's flag is a numpy bool, tested by Python truth."""
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        bad = ~np.asarray(ok)
        if value is not None:
            message = message.format(float(np.asarray(value)[bad][0]))
        raise error(message + _first_row(bad))


_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max
# a row inside 2^(+-100) is evaluated as it is
_LO, _HI = 2.0**-100, 2.0**100
# the vectors of a pair or triple, scaled by 2^-e for the largest, lie above
# this, so that their terms of degree 3 (q B in the sigma Jacobian) stay
# normal float64 numbers
_SMALLEST = 2.0**-300
# q^2 below this is evaluated at a power-of-two scale (see MetricContext.q_rows)
_Q2_LOW = 2.0**-900


def _outer(u, v):
    """Row-wise outer product: (..., m), (..., n) -> (..., m, n)."""
    return u[..., :, None] * v[..., None, :]


@functools.lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    """The n x n identity, read-only: r_ab or r_pq at whitened rows."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _dots(x, y, form=None):
    """x^p form_pq y^q of pairs stacked as (..., N), each row on its own
    (``form`` the identity if omitted); a float64 scalar for one pair."""
    return ((x[..., None, :] if form is None else x[..., None, :] @ form) @ y[..., :, None])[..., 0, 0][()]


def _lower(form, x):
    """x^p form_pq of vectors stacked as (..., N), each row on its own."""
    return (x[..., None, :] @ form)[..., 0, :]


def _per_row(x, k: int = 1):
    """A per-row scalar of stacked rows spread over k trailing axes, so it
    broadcasts against a per-row array; for one vector the scalar itself,
    as a scalar multiplies faster than a broadcast array."""
    return x[(...,) + (None,) * k] if isinstance(x, np.ndarray) else x


def _pow(x, k):
    """x ** k of per-row scalars, rounded row by row as for one vector:
    numpy's array power takes shortcuts (x ** 3 by multiplication) that
    the scalar power, libm's pow, does not."""
    return np.float_power(x, k) if isinstance(x, np.ndarray) else x**k


def _off_axis(q):
    """q, but 1 on the axis q = 0, where a term (r_a R)(r_b R)/q is 0."""
    return q + (q == 0.0)


class MetricContext:
    """Dimension N plus the input euclidean tensor.

    ``r_ab`` is a symmetric positive-definite (N-1) x (N-1) matrix over the
    non-axis coordinates; ``r_pq`` is its N x N extension with r_NN = 1 and
    r_Na = 0.  Positive definiteness is checked by Cholesky factorization
    at construction; the factor gives the vielbein E, r_pq = E^T E, which
    whitens the input: the kernels evaluate the identity-metric closed
    forms at the rows x E^T and map each output back by its index types
    (see _scaled_rows and _scaled_back).  When r_ab is the identity both
    maps are the identity and are skipped: ``_whiten`` and ``_unwhiten``
    are None there.  ``sine_floor`` is the sine below which the kernels
    take the whitened vectors of a pair as proportional: 0 at the
    identity, and otherwise N eps |E| |E^-1| (the larger norm of that
    product and of |E^-1| |E|), the rounding that the whitening leaves in a
    row relative to its norm.  The other members (``r_pq``,
    ``vielbein``, ``q_rows``, ``lower``, ``codot`` ...) restate the
    raw-coordinate forms for the verifier and the tests.
    """

    def __init__(self, n: int, r_ab=None):
        n = int(n)
        if n < 2:
            raise OutOfRangeError(f"dimension must be >= 2, got {n}")
        if r_ab is None:
            r_ab = np.eye(n - 1)
        r_ab = np.asarray(r_ab, dtype=float)
        if r_ab.shape != (n - 1, n - 1):
            raise OutOfRangeError(f"r_ab must be {(n - 1, n - 1)}, got {r_ab.shape}")
        if not np.all(np.isfinite(r_ab)):
            raise OutOfRangeError("r_ab entries must be finite")
        if not np.allclose(r_ab, r_ab.T, rtol=1e-12, atol=1e-12):
            raise NumericalDomainError("r_ab must be symmetric")
        r_ab = 0.5 * (r_ab + r_ab.T)
        try:
            np.linalg.cholesky(r_ab)
        except np.linalg.LinAlgError as exc:
            raise NumericalDomainError("r_ab must be positive definite") from exc

        r_pq = np.eye(n)
        r_pq[: n - 1, : n - 1] = r_ab

        self.n = n
        self.r_ab = r_ab
        self.r_pq = r_pq
        self.r_ab_inv = np.linalg.inv(r_ab)
        self.r_pq_inv = np.linalg.inv(r_pq)
        # vielbein: r_pq = sum_R e[R,p] e[R,q], frame components t^R = e[R,p] t^p
        self.vielbein = np.linalg.cholesky(r_pq).T
        # 2^-k with 2^k >= 2N: a row's L1 norm times it is exact and below
        # half the largest component, so it cannot overflow
        self._l1_weights = np.full(n, 0.5 ** math.ceil(math.log2(2 * n)))
        for arr in (self.r_ab, self.r_pq, self.r_ab_inv, self.r_pq_inv, self.vielbein, self._l1_weights):
            arr.setflags(write=False)
        self._whiten = self._unwhiten = None
        self._power, self.sine_floor = 0, 0.0
        if not np.array_equal(r_ab, np.eye(n - 1)):
            e_inv = np.linalg.inv(self.vielbein)
            # x -> x A of the rows by index type ("u" a vector, "l" a co-vector)
            # into the whitened frame, and back short of a power of two 2^f:
            # the lower map E = 2^f E' and the upper E^-T = 2^-f E'^-T, so
            # that contractions hold between the mapped factors; f = 0 unless
            # E's largest entry lies outside 2^(+-100), where f puts that of
            # E' in [1/2, 1)
            top = np.abs(self.vielbein).max()
            self._power = 0 if _LO < top < _HI else int(np.frexp(top)[1])
            self._whiten = {"u": self.vielbein.T, "l": e_inv}
            back = {"u": np.ldexp(e_inv.T, self._power), "l": np.ldexp(self.vielbein, -self._power), ".": np.eye(n)}
            # a field of two indices maps as one row of N^2 components, by the
            # Kronecker product of the maps of its indices; where an entry of
            # that leaves float64, the outputs it maps are not finite, and
            # _scaled_back names their rows
            with np.errstate(over="ignore"):
                self._unwhiten = back | {i + j: np.kron(back[i], back[j]) for i in back for j in back}
            for arr in (*self._whiten.values(), *self._unwhiten.values()):
                arr.setflags(write=False)
            # a whitened row x A is rounded by at most N eps |x| |A|, and
            # |x| |A| <= |x A| |A^-1| |A|: the sine of two vectors that were
            # proportional as given is within N eps times that condition
            skeel = (np.abs(self.vielbein) @ np.abs(e_inv), np.abs(e_inv) @ np.abs(self.vielbein))
            self.sine_floor = n * max(np.linalg.norm(c, np.inf) for c in skeel) * np.finfo(float).eps

    def q(self, bold) -> float:
        """Euclidean norm of an (N-1)-vector under r_ab."""
        return float(self.q_rows(np.asarray(bold, dtype=float)))

    def r_rows(self, bold) -> np.ndarray:
        """r_ab bold^b of stacked (N-1)-vectors, each row on its own."""
        return (bold[..., None, :] @ self.r_ab)[..., 0, :]

    def q_rows(self, bold) -> np.ndarray:
        """Norms under r_ab of (N-1)-vectors stacked along leading axes (see _q_rows)."""
        return _q_rows(bold, self.r_ab)

    def m(self, t) -> float:
        """Norm of the non-axis part of a full N-vector."""
        return self.q(np.asarray(t, dtype=float)[:-1])

    def dot(self, x, y) -> float:
        """Full euclidean product r_pq x^p y^q."""
        return float(np.asarray(x, dtype=float) @ self.r_pq @ np.asarray(y, dtype=float))

    def s_norm(self, t) -> float:
        """Euclidean length S(t) = sqrt(r_pq t^p t^q)."""
        return math.sqrt(max(self.dot(t, t), 0.0))

    def codot(self, xi, eta) -> float:
        """Product of two covectors, r^pq xi_p eta_q."""
        return float(np.asarray(xi, dtype=float) @ self.r_pq_inv @ np.asarray(eta, dtype=float))

    def lower(self, t) -> np.ndarray:
        return self.r_pq @ np.asarray(t, dtype=float)

    def check_rows(self, x, nonzero: bool = False):
        """Validate N-vectors stacked along leading axes, shape (..., N); a
        non-finite (or, with ``nonzero``, zero) row raises naming its index.

        Returns (v, e): the rows as float64, and the exponent at which the
        kernels evaluate them (see _scaled_rows).  e is the int 0 when every
        row lies inside 2^(+-100) (its scaled L1 norm does); otherwise it has
        the leading shape and holds, row by row, 0 for such a row and the
        binary exponent of the largest component, rounded up to even, for
        any other.
        """
        v = np.asarray(x, dtype=float)
        if v.ndim == 0 or v.shape[-1] != self.n:
            raise OutOfRangeError(f"expected vectors of length {self.n}, got shape {v.shape}")
        l1 = np.abs(v) @ self._l1_weights  # NaN for a row with a NaN
        # one vector's l1 is a float64 scalar, which a Python comparison
        # tests at a tenth of the cost of the array test
        if isinstance(l1, np.ndarray):
            inside = (l1 > _LO) & (l1 < _HI)
            if inside.all():
                return v, 0
        elif _LO < l1 < _HI:
            return v, 0
        else:
            inside = False
        infinite = ~np.isfinite(v).all(axis=-1)
        if infinite.any():
            raise OutOfRangeError("vector components must be finite" + _first_row(infinite))
        top = np.maximum.reduce(np.abs(v), axis=-1)
        if nonzero and not (top > 0.0).all():
            raise ZeroVectorError("operation requires a nonzero vector" + _first_row(~(top > 0.0)))
        e = np.frexp(top)[1]
        # an even e keeps square roots exact: sqrt(2^-2e x) = 2^-e sqrt(x)
        return v, np.where(inside, 0, e + (e & 1))

    def check_vector(self, x, nonzero: bool = False):
        """Validate one N-vector, shape (N,); returns (v, e) as check_rows."""
        if np.ndim(x) != 1:
            raise OutOfRangeError(f"expected a 1-d vector, got shape {np.shape(x)}")
        return self.check_rows(x, nonzero)

    def __repr__(self):  # pragma: no cover
        return f"MetricContext(n={self.n})"


def parse_metric_spec(spec: str, dim: int) -> np.ndarray:
    """Build r_ab from a metric spec string.

    ``identity``; ``diag:v1,v2,...`` with N-1 positive entries; or
    ``file:PATH`` where the file holds N-1 on the first line and then
    (N-1)^2 whitespace-separated reals row-major.  File matrices are
    symmetrized by averaging with the transpose.
    """
    if spec == "identity":
        return np.eye(dim - 1)
    if spec.startswith("diag:"):
        vals = _reals(spec[len("diag:") :].split(","), "diag metric")
        if len(vals) != dim - 1:
            raise OutOfRangeError(f"diag metric needs {dim - 1} entries, got {len(vals)}")
        return np.diag(vals)
    if spec.startswith("file:"):
        path = spec[len("file:") :]
        with open(path, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
        if not tokens or not tokens[0].isdigit():
            raise OutOfRangeError(f"metric file {path!r} does not start with the size N-1")
        size = int(tokens[0])
        if size != dim - 1:
            raise OutOfRangeError(f"metric file is for dimension {size + 1}, run uses {dim}")
        vals = _reals(tokens[1:], f"metric file {path!r}")
        if len(vals) != size * size:
            raise OutOfRangeError("metric file does not hold (N-1)^2 entries")
        mat = np.array(vals).reshape(size, size)
        return 0.5 * (mat + mat.T)
    raise OutOfRangeError(f"unknown metric spec {spec!r}")


def _reals(tokens, what):
    """The nonempty tokens as floats; OutOfRangeError names one that is not a number."""
    try:
        return [float(x) for x in tokens if x]
    except ValueError as exc:
        raise OutOfRangeError(f"{what}: {exc}") from None


def _q_rows(bold, form=None):
    """Norms of (N-1)-vectors stacked along leading axes under ``form``, the
    identity if it is omitted.

    Where q^2 falls below 2^-900, its terms can leave the normal range
    of float64: those rows are evaluated at 2^-e bold, an exact scaling
    that puts their largest component in [1/2, 1), and q is 2^e times
    that norm.
    """
    q2 = _dots(bold, bold, form)
    # one vector's q2 is 0-d, which a Python comparison tests at a tenth
    # of the cost of the array test
    if not (float(q2) < _Q2_LOW if q2.ndim == 0 else (q2 < _Q2_LOW).any()):
        return np.sqrt(abs(q2))  # form is positive definite: q2 < 0 only by rounding
    e = np.where(q2 < _Q2_LOW, np.frexp(np.maximum.reduce(np.abs(bold), axis=-1))[1], 0)
    bold = np.ldexp(bold, -e[..., None])
    return np.ldexp(np.sqrt(abs(_dots(bold, bold, form))), e)


class ScalarBundle(NamedTuple):
    """Every scalar attached to a vector R = (bold R, Z), or to each row of
    a stack of vectors.

    Identities maintained (and tested): A^2 + h^2 q^2 = B,
    L^2 + h^2 Z^2 = B, -pi/2 <= Phi <= pi/2, K = sqrt(B) J.
    """

    q: np.ndarray
    Z: np.ndarray
    B: np.ndarray
    A: np.ndarray
    L: np.ndarray
    phi: np.ndarray
    J: np.ndarray
    K: np.ndarray

    degrees = (1, 1, 2, 1, 1, 0, 0, 1)  # homogeneity degrees of the fields in R


def q_norm(ctx: MetricContext, R) -> float:
    """q(R) = sqrt(r_ab R^a R^b), the norm of the non-axis part."""
    return ctx.q(ctx.check_vector(R)[0][:-1])


def phi_function(par: GParameter, q, z):
    """Angle-like function Phi of the pair (q, Z), q >= 0, elementwise.

    Computed as pi/2 - atan2(h*q, A) with A = Z + g*q/2, which is smooth
    across q = 0 for Z > 0 and continues the principal branch through
    A = 0 (plain arctan of hq/A picks the wrong branch when sign(A)
    differs from sign(Z)).  At q = 0 the value is +-pi/2 with the sign
    of Z; Z = 0 with q = 0 is excluded (zero vector).
    """
    return 0.5 * math.pi - np.arctan2(par.h * q, z + 0.5 * par.g * q)


def _bundle_from_qz(par: GParameter, q, z) -> ScalarBundle:
    """The bundle of (q, Z), elementwise over arrays of one shape."""
    phi = phi_function(par, q, z)
    j = np.exp(0.5 * par.big_g * phi)
    b = z * z + par.g * q * z + q * q
    a, lfun = z + 0.5 * par.g * q, q + 0.5 * par.g * z
    return ScalarBundle(q, z, b, a, lfun, phi, j, np.sqrt(b) * j)


def scalar_bundle(par: GParameter, ctx: MetricContext, R) -> ScalarBundle:
    """Evaluate q, Z, B, A, L, Phi, J and K at nonzero vectors R,
    shape (..., N); each field has the leading shape (a scalar for one
    vector).

    The fields are evaluated at 2^-e R (see _scaled_rows) and brought back
    by their degree: q, Z, A, L and K by 1, B by 2, Phi and J by 0, so
    that each holds at any scale where its value fits float64; where one
    does not, NumericalDomainError names the field and the first such row.
    Near |g| = 2, J = exp(G Phi/2) and with it K leave float64 at any scale.
    """
    R, e = _scaled_rows(ctx, R)
    sb = _bundle(par, R)
    if not isinstance(e, np.ndarray):
        return sb
    return ScalarBundle(*(_scaled_back(x, e, d, name) for x, d, name in zip(sb, sb.degrees, sb._fields)))


def _bundle(par: GParameter, R, form=None) -> ScalarBundle:
    """scalar_bundle of rows already checked, with q under ``form`` (the
    identity of the whitened rows if it is omitted)."""
    # [()] turns the 0-d Z of one vector into a scalar
    q, z = _q_rows(R[..., :-1], form), R[..., -1][()]
    if abs(par.big_g) * (0.25 * math.pi) < 709.0:  # |G Phi/2| < 709: J = exp(G Phi/2) cannot overflow
        return _bundle_from_qz(par, q, z)
    with np.errstate(over="ignore", invalid="ignore"):
        return _bundle_from_qz(par, q, z)


def _require_finite(out, lead_ndim: int, what: str) -> None:
    """Raise NumericalDomainError naming the first row, over the leading
    ``lead_ndim`` axes of the array ``out``, whose result is not finite.
    Called with floating-point warnings off, as its first test, the sum,
    can overflow."""
    if math.isfinite(out.sum()):  # then every entry is: the cheap test
        return
    bad = ~np.isfinite(out)
    if np.count_nonzero(bad):
        bad = bad.reshape(bad.shape[:lead_ndim] + (-1,)).any(axis=-1)
        raise NumericalDomainError(f"{what} is not finite at this scale" + _first_row(bad))


def _scaled_rows(ctx: MetricContext, *stacks, index: str = "u"):
    """Nonzero rows at the scale where the kernels evaluate them.

    ``stacks`` is one stack of rows, shape (..., N), or a pair or triple of
    stacks that broadcast against each other.  Each row is first mapped to
    the whitened frame of ``ctx``, where r_pq is the identity: a vector
    (``index`` "u") x to x E^T, a co-vector ("l") to x E^-1; rows that are
    frame components already (".") are taken as they are, and so is every
    row at the identity metric.  The rows are then validated by
    ``ctx.check_rows``; NumericalDomainError names the first finite
    nonzero row whose whitened form leaves float64 (or rounds to 0).  Returns (*rows, e) with the rows
    scaled by 2^-e, an exact scaling: e, per row, is the exponent of the
    largest vector of the row, so that its largest component lies in
    [1/4, 1), and the int 0 when every vector lies inside 2^(+-100), where
    the rows are returned as they are.  A kernel of degree d is then
    2^(d e) times its value at the scaled rows (see _scaled_back).
    NumericalDomainError names the first row of a pair or triple whose
    smaller vector lies more than about 2^300 below its largest.
    """
    whitened = [_whitened(ctx, x, index) for x in stacks]
    try:
        checked = [ctx.check_rows(x, nonzero=True) for x in whitened]
    except (OutOfRangeError, ZeroVectorError):
        for x, w in zip(stacks, whitened):
            ctx.check_rows(x, nonzero=True)  # names the shape, or a given row that is not finite or 0
            _require(np.isfinite(w).all(axis=-1) & (w != 0.0).any(axis=-1), NumericalDomainError,
                     "the whitened vector leaves float64 at this metric")
        raise
    rows = [v for v, _ in checked]
    if not any(isinstance(e, np.ndarray) for _, e in checked):
        return (*rows, 0)
    e = np.asarray(functools.reduce(np.maximum, [e for _, e in checked]))
    rows = [np.ldexp(v, -e[..., None]) for v in rows]
    if len(rows) > 1:
        low = functools.reduce(np.minimum, [np.maximum.reduce(np.abs(v), axis=-1) for v in rows])
        _require(low > _SMALLEST, NumericalDomainError,
                 "the vectors of this pair differ in scale by more than 2^300")
    return (*rows, e)


def _given_rows(e, *stacks):
    """The stacks of vectors as given, as float64 at the scale 2^-e of their
    whitened rows from _scaled_rows.  A combination of them with invariant
    coefficients is in the input coordinates already: it needs no map
    back, and is exact where the coefficients are (t1 + t2 at g = 0)."""
    given = [np.asarray(x, dtype=float) for x in stacks]
    return [np.ldexp(v, -e[..., None]) for v in given] if isinstance(e, np.ndarray) else given


def _whitened(ctx: MetricContext, x, index: str):
    """Rows x of index type ``index`` in the whitened frame (see _scaled_rows)."""
    if ctx._whiten is None or index == ".":
        return x
    v = np.asarray(x, dtype=float)
    if v.ndim == 0 or v.shape[-1] != ctx.n:
        return v  # check_rows names the shape
    with np.errstate(all="ignore"):  # _scaled_rows names a row that leaves float64
        return _lower(ctx._whiten[index], v)


def _unwhitened(ctx: MetricContext, x, indices):
    """x from the whitened frame back to the input coordinates by its index
    types (see _scaled_back), short of the power of two 2^f of the maps (see
    MetricContext), row by row as _lower maps (a field of two indices as a
    row of N^2 components).  A tuple is mapped field by field, with
    ``indices`` then the tuple of their types; at the identity metric x is
    returned as it is."""
    maps = ctx._unwhiten
    if maps is None or x is None or not indices:
        return x
    if isinstance(indices, tuple):
        return tuple([_unwhitened(ctx, v, i) for v, i in zip(x, indices)])
    with np.errstate(all="ignore"):  # _scaled_back names a row that leaves float64
        if len(indices) == 1:
            return _lower(maps[indices], x)
        # the fields that the door maps have at most two indices
        return _lower(maps[indices], x.reshape(x.shape[:-2] + (-1,))).reshape(x.shape)


def _scaled_back(x, e, degree, what: str, ctx: MetricContext | None = None, indices="", mapped: bool = False):
    """A kernel's output x at whitened rows scaled by 2^-e (see
    _scaled_rows), brought back to the rows.

    ``indices`` holds the index type of each trailing axis of x: "l" a
    lower index, mapped back by E (g_pq -> E^T g E), "u" an upper index or
    a vector, by E^-1, and "." a frame index, left as it is; "" is an
    invariant scalar.  Where ``ctx`` whitens (see MetricContext), x is
    first mapped (see _unwhitened), unless ``mapped`` says that the kernel
    has assembled it from factors that it mapped itself.  x is then brought
    to the scale of the rows, 2^(degree e + k f) x, with 2^f the power of
    two that the maps leave out and k the number of its lower indices less
    that of its upper ones, by np.ldexp for an integer degree and np.exp2
    for a fractional one.  x is an array, None, or a record or tuple of
    them, with ``degree`` and ``indices`` then the tuples of its fields;
    where there is nothing to map or scale it is x itself.
    NumericalDomainError names the first row where a mapped or scaled
    result is not finite.
    """
    power = 0 if ctx is None or ctx._unwhiten is None else ctx._power
    if ctx is None or ctx._unwhiten is None:
        indices = ""  # nothing to map, nor to scale by index
    if x is None or not indices and (not isinstance(e, np.ndarray) or degree == 0):
        return x
    if isinstance(degree, tuple):
        fields = [getattr(x, f.name) for f in dataclasses.fields(x)] if dataclasses.is_dataclass(x) else x
        kinds = indices or ("",) * len(degree)
        items = [_scaled_back(v, e, d, what, ctx, i, mapped) for v, d, i in zip(fields, degree, kinds)]
        return tuple(items) if type(x) is tuple else type(x)(*items)
    if indices and not mapped:
        x = _unwhitened(ctx, x, indices)
    f = power * (indices.count("l") - indices.count("u"))
    with np.errstate(all="ignore"):  # _require_finite reports it
        if isinstance(e, np.ndarray) and degree != 0:
            shift = e.reshape(e.shape + (1,) * (np.ndim(x) - e.ndim))
            if float(degree).is_integer():
                x = np.ldexp(x, int(degree) * shift + f)
            else:
                x = np.ldexp(x * np.exp2(degree * shift), f)
        elif f:
            x = np.ldexp(x, f)
        _require_finite(x, e.ndim if isinstance(e, np.ndarray) else np.ndim(x) - len(indices), what)
    return x


def _rows_kernel(what: str, degree, indices: str, mapped: bool = False):
    """Turn a closed form f(par, ctx, R, sb) of rows R, shape (..., N), and
    their scalar bundle, of homogeneity degree ``degree`` in R and with the
    index types ``indices`` (see _scaled_back), into the kernel
    f(par, ctx, R).  The kernel evaluates f at the whitened rows 2^-e R
    (see _scaled_rows) with floating-point warnings off, maps it back
    (unless ``mapped``: f assembles it from factors that it maps itself)
    and rescales it by 2^(degree e); NumericalDomainError names the first
    row whose result is not finite.  ``kernel.from_bundle`` is f itself.
    """

    def wrap(fn):
        @functools.wraps(fn)
        def kernel(par, ctx, R):
            R, e = _scaled_rows(ctx, R)
            with np.errstate(all="ignore"):
                out = fn(par, ctx, R, _bundle(par, R))
                _require_finite(out, R.ndim - 1, what)
            return _scaled_back(out, e, degree, what, ctx, indices, mapped)

        del kernel.__wrapped__  # the signature is (par, ctx, R)
        kernel.from_bundle = fn
        return kernel

    return wrap


def kfun(par: GParameter, ctx: MetricContext, R):
    """The metric function K(g; R), of degree 1, over rows (..., N) like
    ``scalar_bundle``; NumericalDomainError names the first row where K is
    0 or not finite."""
    R, e = _scaled_rows(ctx, R)
    k = _bundle(par, R).K
    _require((k > 0.0) & (k < math.inf), NumericalDomainError, "K is 0 or not finite at this scale")
    return _scaled_back(k, e, 1, "K")


def generating_j(par: GParameter, w):
    """j(g; w), the exponential factor on the chart w = q/Z, elementwise."""
    return np.exp(0.5 * par.big_g * phi_function(par, np.abs(w), np.where(w >= 0, 1.0, -1.0)))


def generating_v(par: GParameter, w):
    """Generating metric function V(g; w) = sqrt(1 + g*w + w^2) * j(g; w),
    elementwise.

    Satisfies K(g; R) = |Z| * V(g; q/Z) whenever Z != 0; negative w
    encodes the lower half-space Z < 0.
    """
    return np.sqrt(1.0 + par.g * w + w * w) * generating_j(par, w)
