"""Reference forms the verifier checks the library against: each restates
a closed form the library computes another way (the printed branch
families of Phi, the angular components, the mixed Cartan components on
the chart w = q/Z, the two-vector determinant) or estimates it by finite
differences (the Cartan tensor, the coincidence limits of the two-vector
tensor).  Only :mod:`finsleroid.verify` and the tests import this module;
the library never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .core import GParameter, MetricContext, _bundle, _first_row, _off_axis, _outer, _per_row, _pow
from .errors import OnAxisError
from .geodesics import pair_invariants
from .quasimap import quasi_metric, quasi_metric_derivative
from .tensors import metric_tensor
from .twovector import _pair_scalars, two_vector_metric

__all__ = [
    "CoincidenceReport",
    "angular_block_reference",
    "cartan_fd_diagnostic",
    "cartan_mixed_reference",
    "coincidence_limits",
    "two_vector_determinant_reference",
]


def _phi_qz_form(par: GParameter, q, z):
    # printed primary branch family, elementwise; needs Z != 0
    base = np.where(z >= 0, 0.5 * math.pi, -0.5 * math.pi)
    return base + math.atan(0.5 * par.big_g) - np.arctan(q / (par.h * z) + 0.5 * par.big_g)


def _phi_lz_form(par: GParameter, q, z):
    # same family written through L = q + g*Z/2, elementwise; needs Z != 0
    base = np.where(z >= 0, 0.5 * math.pi, -0.5 * math.pi)
    lfun = q + 0.5 * par.g * z
    return base + math.atan(0.5 * par.big_g) - np.arctan(lfun / (par.h * z))


def _phi_a_form(par: GParameter, q, z):
    # plain-arctan A-form, elementwise; valid only while sign(A) == sign(Z)
    a = z + 0.5 * par.g * q
    return np.where(z >= 0, 0.5 * math.pi, -0.5 * math.pi) - np.arctan(par.h * q / a)


def angular_block_reference(par: GParameter, ctx: MetricContext, R) -> np.ndarray:
    """Closed-form components of h_pq (oracle for angular_tensor), over
    rows (..., N) -> (..., N, N).

    h_NN = q^2 K^2/B^2, h_Na = -Z r_ab R^b K^2/B^2,
    h_ab = K^2/B r_ab - (gZ + q) (r_a.R)(r_b.R) K^2 / (q B^2), whose last
    term is 0 on the axis q = 0.
    """
    R = ctx.check_rows(R, nonzero=True)[0]
    sb = _bundle(par, ctx, R)
    z, q = sb.Z, sb.q
    k2 = _pow(sb.K, 2)
    k2b2 = k2 / _pow(sb.B, 2)
    rr = ctx.r_rows(R[..., :-1])
    h = np.empty(R.shape + (ctx.n,))
    h[..., -1, -1] = q * q * k2b2
    h[..., -1, :-1] = h[..., :-1, -1] = _per_row(-z) * rr * _per_row(k2b2)
    h[..., :-1, :-1] = _per_row(k2 / sb.B, 2) * ctx.r_ab - _per_row(par.g * z + q, 2) * _outer(
        rr, rr
    ) / _per_row(_off_axis(q), 2) * _per_row(k2b2, 2)
    return h


def _chart(par: GParameter, ctx: MetricContext, R, sb):
    """(Z, w, Q, w^a, w_a) of checked rows R, shape (..., N), on the chart
    w = q/Z, with Q = 1 + g w + w^2, from their bundle sb; OnAxisError
    names the first row on the axis (q = 0) or in the plane (Z = 0), where
    the chart forms are singular."""
    bad = (sb.q == 0.0) | (sb.Z == 0.0)
    if np.count_nonzero(bad):
        raise OnAxisError("the chart forms need q != 0 and Z != 0" + _first_row(bad))
    w = sb.q / sb.Z
    w_up = R[..., :-1] / _per_row(sb.Z)
    return sb.Z, w, 1.0 + par.g * w + w * w, w_up, ctx.r_rows(w_up)


def cartan_mixed_reference(par: GParameter, ctx: MetricContext, R) -> np.ndarray:
    """Explicit chart closed forms for C_p^q_r (independent cross-check),
    over rows (..., N) -> (..., N, N, N)."""
    R = ctx.check_rows(R, nonzero=True)[0]
    z, w, qw, w_up, w_low = _chart(par, ctx, R, _bundle(par, ctx, R))
    n = ctx.n
    g = par.g
    eye = np.eye(n - 1)
    w3, qw2 = _pow(w, 3), _pow(qw, 2)

    m = np.zeros(np.shape(z) + (n, n, n))
    m[..., -1, -1, -1] = g * w3 / qw2
    m[..., :-1, -1, -1] = _per_row(-g * w / qw2) * w_low
    m[..., -1, :-1, -1] = _per_row(-g * w * (1.0 + g * w) / qw2) * w_up
    m[..., -1, -1, :-1] = m[..., :-1, -1, -1]  # C_N^N_a = C_a^N_N by symmetry of C in p, r
    a_n_b = _per_row(0.5 * g * w / qw, 2) * ctx.r_ab + _per_row(
        0.5 * g * (1.0 - g * w - w * w) / (w * qw2), 2
    ) * _outer(w_low, w_low)
    m[..., :-1, -1, :-1] = a_n_b
    n_a_b = _per_row(0.5 * g * w / qw, 2) * eye + _per_row(
        0.5 * g * (1.0 + g * w - w * w) / (w * qw2), 2
    ) * _outer(w_up, w_low)
    m[..., -1, :-1, :-1] = n_a_b
    m[..., :-1, :-1, -1] = np.swapaxes(n_a_b, -1, -2)  # C_a^b_N = C_N^b_a (p-r symmetry)
    # C_a^b_c: delta_ab w_c + delta_cb w_a + (1 + g w) r_ac w^b, and w_a w^b w_c
    abc = _per_row(-0.5 * g / (w * qw), 3) * (
        eye[:, :, None] * w_low[..., None, None, :]
        + eye[None, :, :] * w_low[..., :, None, None]
        + _per_row(1.0 + g * w, 3) * (ctx.r_ab[:, None, :] * w_up[..., None, :, None])
    ) + _per_row(0.5 * g * (g * w * qw + qw + 2.0 * w * w) / (w3 * qw2), 3) * (
        _outer(w_low, w_up)[..., None] * w_low[..., None, None, :]
    )
    m[..., :-1, :-1, :-1] = abc
    return m / _per_row(z, 3)


def cartan_fd_diagnostic(par: GParameter, ctx: MetricContext, R) -> np.ndarray:
    """Finite-difference estimate (1/2) dg_pq/dR^r, an oracle independent
    of the closed form, over rows (..., N) -> (..., N, N, N), all their
    stencils in one metric_tensor call.

    It also evaluates on the axis, where the Cartan tensor has no limit;
    there the one-sided kink of the metric limits its accuracy further.
    """
    R = ctx.check_rows(R, nonzero=True)[0]
    return 0.5 * numdiff.jacobian(lambda x: metric_tensor(par, ctx, x), R)


def two_vector_determinant_reference(par: GParameter, ctx: MetricContext, t1, t2):
    """det n_pq = (|t1||t2| sin(alpha)/u)^(N-2) h^(-N) det(r_ab), over
    pairs stacked as (..., N)."""
    inv = pair_invariants(par, ctx, t1, t2)
    s1, s2, _, sa = _pair_scalars(inv)
    return _pow(s1 * s2 * sa / inv.u, ctx.n - 2) * par.h ** (-ctx.n) * float(
        np.linalg.det(ctx.r_ab)
    )


@dataclass(frozen=True)
class CoincidenceReport:
    """Convergence data for the coincidence limit t2 -> t1: each array has
    one entry per eps along its first axis, then the leading shape of t."""

    tensor_error: np.ndarray
    derivative_error: np.ndarray
    a1: np.ndarray
    a2_over_u: np.ndarray
    a1_limit: float


def coincidence_limits(par: GParameter, ctx: MetricContext, t, eps_sequence, v) -> CoincidenceReport:
    """Probe n(t, t + eps v) -> n(t) and the derivative-sum limit, for
    vectors t and directions v stacked as (..., N).

    The sum of the two partial derivatives of the two-vector tensor tends
    to the derivative of the one-vector metric; each partial is estimated
    by central differences with step eps/1000 (the global step convention
    is too coarse this close to coincidence).  Every eps and every vector
    goes through one two_vector_metric call and one stencil per partial.
    """
    t = ctx.check_rows(t, nonzero=True)[0]
    v = ctx.check_rows(v)[0]
    n_one = quasi_metric(par, ctx, t).n_lower
    dn_one = quasi_metric_derivative(par, ctx, t)
    eps = np.asarray(eps_sequence, dtype=float).reshape((-1,) + (1,) * t.ndim)
    t2 = t + eps * v  # (eps, ..., N)
    t1 = np.broadcast_to(t, t2.shape)
    step = eps / 1000.0
    tv = two_vector_metric(par, ctx, t1, t2)
    j1 = numdiff.jacobian(lambda x: two_vector_metric(par, ctx, x, t2).n_lower, t1, scale=step)
    j2 = numdiff.jacobian(lambda y: two_vector_metric(par, ctx, t1, y).n_lower, t2, scale=step)
    return CoincidenceReport(
        tensor_error=np.max(np.abs(tv.n_lower - n_one), axis=(-2, -1)),
        derivative_error=np.max(np.abs(j1 + j2 - dn_one), axis=(-3, -2, -1)),
        a1=tv.a1,
        a2_over_u=tv.a2 / tv.pair.u,
        a1_limit=1.0 - 1.0 / par.h**2,
    )
