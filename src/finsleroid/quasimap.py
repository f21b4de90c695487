"""The quasi-euclidean diffeomorphism and the geometry of its image space.

``sigma_map`` sends a vector R to t with euclidean length S(t) = K(g; R),
flattening the finsleroid onto the unit sphere; ``mu_map`` inverts it.
The image space carries the constant-determinant metric

    n_rs = r_rs / h^2 - (G^2/4) L_r L_s,      L = t / S(t),

whose Christoffel symbols and curvature are rank-one expressions in the
transverse projector H_rs = r_rs - L_r L_s.  A power-law radial rescaling
makes n conformally euclidean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _HUGE,
    _TINY,
    GParameter,
    MetricContext,
    _eye,
    _off_axis,
    _outer,
    _per_row,
    _pow,
    _require,
    _require_finite,
    _rows_kernel,
    _scaled_back,
    _scaled_rows,
    _unwhitened,
)
from .errors import NumericalDomainError

__all__ = [
    "QuasiGeometry",
    "sigma_map",
    "mu_map",
    "sigma_jacobian",
    "mu_jacobian",
    "quasi_metric",
    "quasi_metric_derivative",
    "conformal_flatten",
    "conformal_jacobian",
    "phi_angle",
]


def _image_rows(ctx: MetricContext, t):
    """(t, m(t)^2, t^N, S^2, e) of nonzero image rows t, shape (..., N),
    whitened at 2^-e t (see core._scaled_rows)."""
    t, e = _scaled_rows(ctx, t)
    tn = t[..., -1][()]
    m2 = (t[..., None, :-1] @ t[..., :-1, None])[..., 0, 0][()]
    return t, m2, tn, m2 + tn * tn, e


def _plane_norm(m2):
    """m(t) from m(t)^2, which is below 0 only by rounding."""
    return np.sqrt(np.abs(m2))


@_rows_kernel("sigma map", 1, "u")
def sigma_map(par: GParameter, ctx: MetricContext, R, sb) -> np.ndarray:
    """t^a = R^a h J(g;R), t^N = A(g;R) J(g;R), over rows (..., N) -> (..., N);
    satisfies S(t) = K(g;R)."""
    t = R * par.h * sb.J[..., None]
    t[..., -1] = sb.A * sb.J
    return t


def phi_angle(par: GParameter, ctx: MetricContext, t):
    """Polar angle of t from the non-axis plane, over rows (..., N); equals
    Phi(g; mu(t))."""
    _, m2, tn, _, _ = _image_rows(ctx, t)
    return np.arctan2(tn, _plane_norm(m2))


def _mu_rows(par: GParameter, ctx: MetricContext, t, what: str, degree: int, indices: str, closed_form):
    """closed_form(par, t, m, t^N, S^2, k) at the checked rows t, with
    k = exp(G phi/2) and phi the polar angle of each row, of degree
    ``degree`` and index types ``indices``: the one path of mu_map and
    mu_jacobian.  Near |g| = 2, where G is large, k or the result can leave
    float64: NumericalDomainError then names the first row where k is not a
    finite normal float64, or where the result is not finite."""
    t, m2, tn, s2, e = _image_rows(ctx, t)
    with np.errstate(all="ignore"):  # the range tests report it
        m = _plane_norm(m2)
        k = np.exp(0.5 * par.big_g * np.arctan2(tn, m))
        out = closed_form(par, t, m, tn, s2, k)
        _require((k >= _TINY) & (k <= _HUGE), NumericalDomainError,
                 f"{what}: k = exp(G phi/2) = {{!r}} is not a finite normal float64 at g = {par.g!r}", k)
        _require_finite(out, t.ndim - 1, what)
    return _scaled_back(out, e, degree, what, ctx, indices)


def _mu_closed_form(par, t, m, tn, s2, k):
    out = t / _per_row(par.h * k)
    out[..., -1] = (tn - 0.5 * par.big_g * m) / k
    return out


def mu_map(par: GParameter, ctx: MetricContext, t) -> np.ndarray:
    """Inverse of sigma_map: R^a = t^a/(h k), R^N = I/k.

    Here k = exp(G*phi/2) with phi the polar angle of t, and
    I = t^N - (G/2) m(t).  ``t`` is one N-vector or N-vectors stacked
    along leading axes, shape (..., N); R has the shape of t.  A zero or
    non-finite row raises, naming the index of the first such row.
    """
    return _mu_rows(par, ctx, t, "mu map", 1, "u", _mu_closed_form)


@_rows_kernel("sigma Jacobian", 0, "ul")
def sigma_jacobian(par: GParameter, ctx: MetricContext, R, sb) -> np.ndarray:
    """J[p, q] = d sigma^p / dR^q in closed form, over rows (..., N) ->
    (..., N, N); det = h^(N-1) J^N.

    The 1/q term of the transverse block is O(q), so on the axis q = 0 it
    is dropped, as in ``metric_tensor``.
    """
    g, q = par.g, sb.q
    bold = R[..., :-1]
    b = sb.B[..., None]

    out = np.empty(R.shape + (ctx.n,))
    out[..., -1, -1] = (sb.B + 0.5 * g * q * sb.A) * sb.J / sb.B
    # -g (Z A - B) / (2q) simplifies to g L / 2 since Z A - B = -q L
    out[..., -1, :-1] = (0.5 * g * sb.L * sb.J)[..., None] * bold / b
    out[..., :-1, -1] = (0.5 * g * q * sb.J * par.h)[..., None] * bold / b
    block = out[..., :-1, :-1]
    block[...] = _eye(ctx.n - 1)
    block -= 0.5 * g * _outer(bold, bold) * (sb.Z / (_off_axis(q) * sb.B))[..., None, None]
    block *= (sb.J * par.h)[..., None, None]
    return out


def _mu_jacobian_closed_form(par, t, m, tn, s2, k):
    g, h = par.g, par.h
    # in the degree-0 factors t/S, m/S and t^N/S: no intermediate scales
    # with S^-2, which leaves float64 near the ends of the range of S
    s = np.sqrt(s2)
    bold = t[..., :-1] / _per_row(s)
    mh, nh = m / s, tn / s
    c = 1.0 / (h * k)
    e = 0.5 * g * c / h
    out = np.empty(t.shape + t.shape[-1:])
    out[..., -1, -1] = 1.0 / k - 0.5 * g * mh * (nh - 0.5 * par.big_g * mh) * c
    out[..., -1, :-1] = _per_row(-(h * mh + 0.5 * g * nh) * e) * bold
    out[..., :-1, -1] = _per_row(-mh * e) * bold
    # t^N/m first onto t^a/S, which keeps it of the order of t^N/S; the
    # term is O(m), and 0 on the axis m = 0
    block = out[..., :-1, :-1]
    np.multiply(_outer(bold * _per_row(tn / _off_axis(m)), bold), _per_row(e, 2), out=block)
    block += _per_row(c, 2) * _eye(t.shape[-1] - 1)
    return out


def mu_jacobian(par: GParameter, ctx: MetricContext, t) -> np.ndarray:
    """M[p, q] = d mu^p / dt^q over rows (..., N) -> (..., N, N); the matrix
    inverse of sigma_jacobian at R = mu(t).

    Derived from d phi/dt^N = m/S^2, d phi/dt^a = -t^N r_ab t^b/(m S^2):

        mu^N_N = 1/k - (g/2) m I / (h k S^2)
        mu^N_a = -(g/2)(h m + (g/2) t^N) r_ab t^b / (h^2 k S^2)
        mu^a_N = -(g/2) m t^a / (h^2 k S^2)
        mu^a_b = delta^a_b/(h k) + (g/2) t^N t^a r_bc t^c / (h^2 m k S^2)

    The last term is O(m): on the axis m = 0 it is evaluated as its limit
    0, as in ``sigma_jacobian``.
    """
    return _mu_rows(par, ctx, t, "mu Jacobian", 0, "ul", _mu_jacobian_closed_form)


@dataclass(frozen=True)
class QuasiGeometry:
    """Metric data of the image space at a point, or at each row of a
    stack (every field has the leading shape of the rows).

    ``christoffel[..., p, r, q]`` holds N_p^r_q and
    ``curvature[..., p, r, q, s]`` the fully lowered tensor R_prqs
    (lowered with the euclidean r, which is the normalization its closed
    form carries).
    """

    n_lower: np.ndarray
    n_upper: np.ndarray
    h_lower: np.ndarray
    christoffel: np.ndarray
    curvature: np.ndarray

    degrees = (0, 0, 0, -1, -2)  # homogeneity degrees of the fields in t
    indices = ("ll", "uu", "ll", "lul", "llll")  # index types of the fields (see core._scaled_back)


def _unit_rows(ctx: MetricContext, t):
    """(S, L, H_pq, e) of nonzero image rows, whitened at 2^-e t: L = t/S
    and H = delta - L L."""
    t, _, _, s2, e = _image_rows(ctx, t)
    s = np.sqrt(s2)
    unit = t / _per_row(s)
    return s, unit, _eye(ctx.n) - _outer(unit, unit), e


def quasi_metric(par: GParameter, ctx: MetricContext, t) -> QuasiGeometry:
    """n_rs, its inverse, the projector H_rs, Christoffels and curvature,
    over rows (..., N)."""
    s, l_up, h_lower, e = _unit_rows(ctx, t)
    g2q = 0.25 * par.big_g**2
    n_lower = _eye(ctx.n) / par.h**2 - g2q * _outer(l_up, l_up)
    n_upper = par.h**2 * _eye(ctx.n) + 0.25 * par.g**2 * _outer(l_up, l_up)
    fields = _unwhitened(ctx, (n_lower, n_upper, h_lower, l_up), ("ll", "uu", "ll", "u"))
    n_lower, n_upper, h_lower, l_up = fields
    # covariant forms in these: N_p^r_q = -(G^2/4) L^r H_pq / S and R_prqs = -(G^2/4)(H_pq H_rs - H_ps H_qr)/S^2
    christoffel = -g2q * (l_up[..., None, :, None] * h_lower[..., :, None, :]) / _per_row(s, 3)
    curvature = (
        -g2q
        * (
            h_lower[..., :, None, :, None] * h_lower[..., None, :, None, :]
            - h_lower[..., :, None, None, :] * h_lower[..., None, :, :, None]
        )
        / _per_row(s * s, 4)
    )
    geometry = QuasiGeometry(n_lower, n_upper, h_lower, christoffel, curvature)
    return _scaled_back(geometry, e, geometry.degrees, "quasi-euclidean metric", ctx, geometry.indices, mapped=True)


def quasi_metric_derivative(par: GParameter, ctx: MetricContext, t) -> np.ndarray:
    """d n_pq / dt^r as an [..., p, q, r] array over rows (..., N):
    -(G^2/4)(H_pr L_q + H_qr L_p)/S."""
    s, unit, h_lower, e = _unit_rows(ctx, t)
    h_lower, unit = _unwhitened(ctx, (h_lower, unit), ("ll", "l"))  # L_q, lowered
    g2q = 0.25 * par.big_g**2
    h_l = h_lower[..., :, None, :] * unit[..., None, :, None]  # H_pr L_q at [p, q, r]
    derivative = -g2q * (h_l + np.swapaxes(h_l, -3, -2)) / _per_row(s, 3)
    return _scaled_back(derivative, e, -1, "quasi-metric derivative", ctx, "lll", mapped=True)


def conformal_flatten(par: GParameter, ctx: MetricContext, t):
    """Radial rescaling t -> f * t / h with f = (S^2/2)^(gamma/2), gamma = h - 1,
    over rows (..., N).

    The pushforward of n^rs through this map is f^2 r^rs, i.e. the
    quasi-euclidean metric is conformally euclidean.  Returns (image, f),
    of degrees h and gamma in t.
    """
    t, _, _, s2, e = _image_rows(ctx, t)
    f = _pow(0.5 * s2, 0.5 * par.gamma)
    return _scaled_back((_per_row(f) * t / par.h, f), e, (par.h, par.gamma), "conformal flattening", ctx, ("u", ""))


def conformal_jacobian(par: GParameter, ctx: MetricContext, t) -> np.ndarray:
    """Analytic Jacobian k^p_q = (f delta^p_q + f' t^p t_q)/h of the
    flattening, over rows (..., N) -> (..., N, N), of degree gamma in t."""
    t, _, _, s2, e = _image_rows(ctx, t)
    f = _pow(0.5 * s2, 0.5 * par.gamma)
    # f' = d f / d(S^2/2) = gamma f / S^2, of degree gamma - 2: f' t^p t_q is
    # formed as f gamma (t^p t_q / S^2), whose factors are of degree gamma and 0
    tt = _outer(t, t) / _per_row(s2, 2)
    jacobian = _per_row(f, 2) * (_eye(ctx.n) + par.gamma * tt) / par.h
    return _scaled_back(jacobian, e, par.gamma, "conformal Jacobian", ctx, "ul")
