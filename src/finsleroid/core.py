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


_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


def _require_normal(squares, what: str) -> None:
    """Raise NumericalDomainError where a squared norm is not a finite
    normal float64 (the vectors are beyond about 1e154 or below about
    1e-154), naming the first such row.  ``squares`` has shape (k, ...):
    the k squared norms of each row, k = 1 for a vector, 2 for a pair."""
    normal = (squares >= _TINY) & (squares <= _HUGE)
    if np.count_nonzero(normal) != normal.size:
        bad = ~normal.all(axis=0)
        first = squares[:, bad][:, 0] if bad.ndim else squares
        values = ", ".join(repr(float(x)) for x in first)
        noun = "squared norms {} leave" if len(first) > 1 else "squared norm {} leaves"
        raise NumericalDomainError(
            f"{what}: {noun.format(values)} the float64 range" + _first_row(bad)
        )


def _outer(u, v):
    """Row-wise outer product: (..., m), (..., n) -> (..., m, n)."""
    return u[..., :, None] * v[..., None, :]


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
    at construction; the factor doubles as the vielbein used by the
    two-vector frame.
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
        self._ones = np.ones(n)
        for arr in (self.r_ab, self.r_pq, self.r_ab_inv, self.r_pq_inv, self.vielbein, self._ones):
            arr.setflags(write=False)

    def q(self, bold) -> float:
        """Euclidean norm of an (N-1)-vector under r_ab."""
        bold = np.asarray(bold, dtype=float)
        return math.sqrt(max(float(bold @ self.r_ab @ bold), 0.0))

    def r_rows(self, bold) -> np.ndarray:
        """r_ab bold^b of stacked (N-1)-vectors, each row on its own."""
        return (bold[..., None, :] @ self.r_ab)[..., 0, :]

    def q_rows(self, bold) -> np.ndarray:
        """Norms under r_ab of (N-1)-vectors stacked along leading axes."""
        q2 = (bold[..., None, :] @ self.r_ab @ bold[..., :, None])[..., 0, 0]
        return np.sqrt(abs(q2))  # r_ab is positive definite: q2 < 0 only by rounding

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

    def raise_(self, xi) -> np.ndarray:
        return self.r_pq_inv @ np.asarray(xi, dtype=float)

    def check_rows(self, x, nonzero: bool = False) -> np.ndarray:
        """Validate N-vectors stacked along leading axes, shape (..., N); a
        non-finite (or, with ``nonzero``, zero) row raises naming its index."""
        v = np.asarray(x, dtype=float)
        if v.ndim == 0 or v.shape[-1] != self.n:
            raise OutOfRangeError(f"expected vectors of length {self.n}, got shape {v.shape}")
        l1 = np.abs(v) @ self._ones  # row L1 norms: 0 only for a zero row
        # one vector's l1 is a float64 scalar, which a Python comparison
        # tests at a tenth of the cost of the array test
        if isinstance(l1, np.ndarray):
            ok = not np.count_nonzero(~((l1 < math.inf) & ((l1 > 0.0) | (not nonzero))))
        else:
            ok = (l1 > 0.0 or not nonzero) and l1 < math.inf
        if not ok:
            infinite = ~np.isfinite(v).all(axis=-1)
            if infinite.any():
                raise OutOfRangeError("vector components must be finite" + _first_row(infinite))
            if nonzero and not (l1 > 0.0).all():
                raise ZeroVectorError("operation requires a nonzero vector" + _first_row(~(l1 > 0.0)))
        return v

    def check_vector(self, x, nonzero: bool = False) -> np.ndarray:
        """Validate one N-vector, shape (N,)."""
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


class ScalarBundle(NamedTuple):
    """Every scalar attached to a vector R = (bold R, Z), or to each row of
    a stack of vectors.

    Q = 1 + g w + w^2 and E = 1 + g w/2 live on the chart w = q/Z; they
    are evaluated on access, from the parameter g the bundle was built
    with, and are NaN on the plane Z = 0.
    Identities maintained (and tested): A^2 + h^2 q^2 = B,
    L^2 + h^2 Z^2 = B, -pi/2 <= Phi <= pi/2, K = sqrt(B) J.
    """

    g: float
    q: np.ndarray
    Z: np.ndarray
    B: np.ndarray
    A: np.ndarray
    L: np.ndarray
    phi: np.ndarray
    J: np.ndarray
    K: np.ndarray

    @property
    def w(self):
        return self.q / np.where(self.Z != 0.0, self.Z, math.nan)

    @property
    def Q(self):
        w = self.w
        return 1.0 + self.g * w + w * w

    @property
    def E(self):
        return 1.0 + 0.5 * self.g * self.w


def q_norm(ctx: MetricContext, R) -> float:
    """q(R) = sqrt(r_ab R^a R^b), the norm of the non-axis part."""
    R = ctx.check_vector(R)
    return ctx.q(R[:-1])


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
    return ScalarBundle(par.g, q, z, b, a, lfun, phi, j, np.sqrt(b) * j)


def scalar_bundle(par: GParameter, ctx: MetricContext, R) -> ScalarBundle:
    """Evaluate q, Z, B, Q, E, A, L, Phi, J and K at nonzero vectors R,
    shape (..., N); each field has the leading shape (a scalar for one
    vector).  At scale extremes a field may be 0 or not finite."""
    return _bundle(par, ctx, ctx.check_rows(R, nonzero=True))


def _bundle(par: GParameter, ctx: MetricContext, R) -> ScalarBundle:
    """scalar_bundle of rows already checked."""
    with np.errstate(over="ignore", invalid="ignore"):
        # [()] turns the 0-d Z of one vector into a scalar
        return _bundle_from_qz(par, ctx.q_rows(R[..., :-1]), R[..., -1][()])


def kfun(par: GParameter, ctx: MetricContext, R):
    """The metric function K(g; R), over rows (..., N) like ``scalar_bundle``."""
    k = scalar_bundle(par, ctx, R).K
    bad = ~((k > 0.0) & (k < math.inf))
    if np.count_nonzero(bad):
        raise NumericalDomainError("K is 0 or not finite at this scale" + _first_row(bad))
    return k


def _require_finite(out, lead_ndim: int, what: str) -> None:
    """Raise NumericalDomainError naming the first row, over the leading
    ``lead_ndim`` axes of ``out``, whose result is not finite (scale
    extremes)."""
    bad = ~np.isfinite(out)
    if np.count_nonzero(bad):
        bad = bad.reshape(bad.shape[:lead_ndim] + (-1,)).any(axis=-1)
        raise NumericalDomainError(f"{what} is not finite at this scale" + _first_row(bad))


def _rows_kernel(what: str):
    """Turn a closed form f(par, ctx, R, sb) of rows R, shape (..., N), and
    their scalar bundle into the kernel f(par, ctx, R), which builds the
    bundle once, evaluates with floating-point warnings off and raises
    NumericalDomainError naming the first row whose result is not finite
    (scale extremes).  ``kernel.from_bundle`` is f itself.
    """

    def wrap(fn):
        @functools.wraps(fn)
        def kernel(par, ctx, R):
            with np.errstate(all="ignore"):
                out = fn(par, ctx, np.asarray(R, dtype=float), scalar_bundle(par, ctx, R))
            _require_finite(out, np.ndim(R) - 1, what)
            return out

        del kernel.__wrapped__  # the signature is (par, ctx, R)
        kernel.from_bundle = fn
        return kernel

    return wrap


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
