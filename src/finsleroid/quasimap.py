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

import math
from dataclasses import dataclass

import numpy as np

from .core import GParameter, MetricContext, _off_axis, _outer, _rows_kernel
from .errors import OnAxisError

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


@_rows_kernel("sigma map")
def sigma_map(par: GParameter, ctx: MetricContext, R, sb) -> np.ndarray:
    """t^a = R^a h J(g;R), t^N = A(g;R) J(g;R), over rows (..., N) -> (..., N);
    satisfies S(t) = K(g;R)."""
    t = R * par.h * sb.J[..., None]
    t[..., -1] = sb.A * sb.J
    return t


def phi_angle(par: GParameter, ctx: MetricContext, t) -> float:
    """Polar angle of t from the non-axis plane; equals Phi(g; mu(t))."""
    t = ctx.check_vector(t, nonzero=True)
    return math.atan2(t[-1], ctx.m(t))


def mu_map(par: GParameter, ctx: MetricContext, t) -> np.ndarray:
    """Inverse of sigma_map: R^a = t^a/(h k), R^N = I/k.

    Here k = exp(G*phi/2) with phi the polar angle of t, and
    I = t^N - (G/2) m(t).  ``t`` is one N-vector or N-vectors stacked
    along leading axes, shape (..., N); R has the shape of t.  A zero or
    non-finite row raises, naming the index of the first such row.
    """
    t = ctx.check_rows(t, nonzero=True)
    bold = t[..., :-1]
    tn = t[..., -1]
    m = ctx.q_rows(bold)
    k = np.exp(0.5 * par.big_g * np.arctan2(tn, m))
    out = t / (par.h * k)[..., None]
    out[..., -1] = (tn - 0.5 * par.big_g * m) / k
    return out


@_rows_kernel("sigma Jacobian")
def sigma_jacobian(par: GParameter, ctx: MetricContext, R, sb) -> np.ndarray:
    """J[p, q] = d sigma^p / dR^q in closed form, over rows (..., N) ->
    (..., N, N); det = h^(N-1) J^N.

    The 1/q term of the transverse block is O(q), so on the axis q = 0 it
    is dropped, as in ``metric_tensor``.
    """
    g = par.g
    q = sb.q
    bold = R[..., :-1]
    rr = ctx.r_rows(bold)
    b = sb.B[..., None]

    out = np.empty(R.shape + (ctx.n,))
    out[..., -1, -1] = (sb.B + 0.5 * g * q * sb.A) * sb.J / sb.B
    # -g (Z A - B) / (2q) simplifies to g L / 2 since Z A - B = -q L
    out[..., -1, :-1] = (0.5 * g * sb.L * sb.J)[..., None] * rr / b
    out[..., :-1, -1] = (0.5 * g * q * sb.J * par.h)[..., None] * bold / b
    block = out[..., :-1, :-1]
    block[...] = np.eye(ctx.n - 1)
    block -= 0.5 * g * _outer(bold, rr) * (sb.Z / (_off_axis(q) * sb.B))[..., None, None]
    block *= (sb.J * par.h)[..., None, None]
    return out


def mu_jacobian(par: GParameter, ctx: MetricContext, t) -> np.ndarray:
    """M[p, q] = d mu^p / dt^q; matrix inverse of sigma_jacobian at R = mu(t).

    Derived from d phi/dt^N = m/S^2, d phi/dt^a = -t^N r_ab t^b/(m S^2):

        mu^N_N = 1/k - (g/2) m I / (h k S^2)
        mu^N_a = -(g/2)(h m + (g/2) t^N) r_ab t^b / (h^2 k S^2)
        mu^a_N = -(g/2) m t^a / (h^2 k S^2)
        mu^a_b = delta^a_b/(h k) + (g/2) t^N t^a r_bc t^c / (h^2 m k S^2)
    """
    t = ctx.check_vector(t, nonzero=True)
    m = ctx.m(t)
    if m == 0.0:
        raise OnAxisError("mu_jacobian closed form needs m(t) != 0")
    n = ctx.n
    g = par.g
    h = par.h
    tn = t[-1]
    s2 = ctx.dot(t, t)
    phi = math.atan2(tn, m)
    k = math.exp(0.5 * par.big_g * phi)
    i_val = tn - 0.5 * par.big_g * m
    rt = ctx.r_ab @ t[:-1]

    out = np.empty((n, n))
    out[-1, -1] = 1.0 / k - 0.5 * g * m * i_val / (h * k * s2)
    out[-1, :-1] = -0.5 * g * (h * m + 0.5 * g * tn) * rt / (h**2 * k * s2)
    out[:-1, -1] = -0.5 * g * m * t[:-1] / (h**2 * k * s2)
    out[:-1, :-1] = np.eye(n - 1) / (h * k) + 0.5 * g * tn * np.outer(t[:-1], rt) / (
        h**2 * m * k * s2
    )
    return out


@dataclass(frozen=True)
class QuasiGeometry:
    """Metric data of the image space at one point.

    ``christoffel[p, r, q]`` holds N_p^r_q and ``curvature[p, r, q, s]``
    the fully lowered tensor R_prqs (lowered with the euclidean r, which
    is the normalization its closed form carries).
    """

    n_lower: np.ndarray
    n_upper: np.ndarray
    h_lower: np.ndarray
    christoffel: np.ndarray
    curvature: np.ndarray


def quasi_metric(par: GParameter, ctx: MetricContext, t) -> QuasiGeometry:
    """n_rs, its inverse, the projector H_rs, Christoffels and curvature."""
    t = ctx.check_vector(t, nonzero=True)
    s = ctx.s_norm(t)
    l_up = t / s
    l_low = ctx.lower(l_up)
    g2q = 0.25 * par.big_g**2

    n_lower = ctx.r_pq / par.h**2 - g2q * np.outer(l_low, l_low)
    n_upper = par.h**2 * ctx.r_pq_inv + 0.25 * par.g**2 * np.outer(l_up, l_up)
    h_lower = ctx.r_pq - np.outer(l_low, l_low)
    christoffel = -g2q * np.einsum("r,pq->prq", l_up, h_lower) / s
    curvature = (
        -g2q
        * (np.einsum("pq,rs->prqs", h_lower, h_lower) - np.einsum("ps,qr->prqs", h_lower, h_lower))
        / s**2
    )
    return QuasiGeometry(
        n_lower=n_lower,
        n_upper=n_upper,
        h_lower=h_lower,
        christoffel=christoffel,
        curvature=curvature,
    )


def quasi_metric_derivative(par: GParameter, ctx: MetricContext, t) -> np.ndarray:
    """d n_pq / dt^r as an [p, q, r] array: -(G^2/4)(H_pr L_q + H_qr L_p)/S."""
    t = ctx.check_vector(t, nonzero=True)
    s = ctx.s_norm(t)
    l_low = ctx.lower(t / s)
    h_lower = ctx.r_pq - np.outer(l_low, l_low)
    g2q = 0.25 * par.big_g**2
    return (
        -g2q
        * (np.einsum("pr,q->pqr", h_lower, l_low) + np.einsum("qr,p->pqr", h_lower, l_low))
        / s
    )


def conformal_flatten(par: GParameter, ctx: MetricContext, t):
    """Radial rescaling t -> f * t / h with f = (S^2/2)^(gamma/2), gamma = h - 1.

    The pushforward of n^rs through this map is f^2 r^rs, i.e. the
    quasi-euclidean metric is conformally euclidean.  Returns (image, f).
    """
    t = ctx.check_vector(t, nonzero=True)
    s2 = ctx.dot(t, t)
    f = (0.5 * s2) ** (0.5 * par.gamma)
    return f * t / par.h, f


def conformal_jacobian(par: GParameter, ctx: MetricContext, t) -> np.ndarray:
    """Analytic Jacobian k^p_q = (f delta^p_q + f' t^p t_q)/h of the flattening."""
    t = ctx.check_vector(t, nonzero=True)
    s2 = ctx.dot(t, t)
    f = (0.5 * s2) ** (0.5 * par.gamma)
    fprime = par.gamma * f / s2  # d f / d(S^2/2) = gamma * f / S^2
    return (f * np.eye(ctx.n) + fprime * np.outer(t, ctx.lower(t))) / par.h
