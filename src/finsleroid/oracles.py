"""Reference forms the verifier checks the library against: each restates
a closed form the library computes another way (the printed branch
families of Phi, the angular and mixed Cartan components, the two-vector
determinant) or estimates it by finite differences (the Cartan tensor, the
coincidence limits of the two-vector tensor).  Only :mod:`finsleroid.verify`
and the tests import this module; the library never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .core import GParameter, MetricContext, _bundle
from .geodesics import pair_invariants
from .quasimap import quasi_metric, quasi_metric_derivative
from .tensors import _chart, metric_tensor
from .twovector import _pair_scalars, two_vector_metric

__all__ = [
    "CoincidenceReport",
    "angular_block_reference",
    "cartan_fd_diagnostic",
    "cartan_mixed_reference",
    "coincidence_limits",
    "two_vector_determinant_reference",
]


def _phi_qz_form(par: GParameter, q: float, z: float) -> float:
    # printed primary branch family; needs Z != 0
    base = 0.5 * math.pi if z >= 0 else -0.5 * math.pi
    return base + math.atan(0.5 * par.big_g) - math.atan(q / (par.h * z) + 0.5 * par.big_g)


def _phi_lz_form(par: GParameter, q: float, z: float) -> float:
    # same family written through L = q + g*Z/2; needs Z != 0
    base = 0.5 * math.pi if z >= 0 else -0.5 * math.pi
    lfun = q + 0.5 * par.g * z
    return base + math.atan(0.5 * par.big_g) - math.atan(lfun / (par.h * z))


def _phi_a_form(par: GParameter, q: float, z: float) -> float:
    # plain-arctan A-form; valid only while sign(A) == sign(Z)
    a = z + 0.5 * par.g * q
    base = 0.5 * math.pi if z >= 0 else -0.5 * math.pi
    return base - math.atan(par.h * q / a)


def angular_block_reference(par: GParameter, ctx: MetricContext, R) -> np.ndarray:
    """Closed-form components of h_pq (oracle for angular_tensor).

    h_NN = q^2 K^2/B^2, h_Na = -Z r_ab R^b K^2/B^2,
    h_ab = K^2/B r_ab - (gZ + q) (r_a.R)(r_b.R) K^2 / (q B^2).
    """
    R = ctx.check_vector(R, nonzero=True)
    sb = _bundle(par, ctx, R)
    n = ctx.n
    z = R[-1]
    q = sb.q
    k2b2 = sb.K**2 / sb.B**2
    rr = ctx.r_ab @ R[:-1]
    h = np.empty((n, n))
    h[-1, -1] = q * q * k2b2
    h[-1, :-1] = -z * rr * k2b2
    h[:-1, -1] = h[-1, :-1]
    block = (sb.K**2 / sb.B) * ctx.r_ab
    if q > 0.0:
        block = block - (par.g * z + q) * np.outer(rr, rr) / q * k2b2
    h[:-1, :-1] = block
    return h


def cartan_mixed_reference(par: GParameter, ctx: MetricContext, R) -> np.ndarray:
    """Explicit chart closed forms for C_p^q_r (independent cross-check)."""
    R = ctx.check_vector(R, nonzero=True)
    sb = _bundle(par, ctx, R)
    z, w, w_up, w_low, v2 = _chart(ctx, R, sb)
    n = ctx.n
    g = par.g
    qw = sb.Q
    eye = np.eye(n - 1)

    m = np.zeros((n, n, n))
    m[-1, -1, -1] = g * w**3 / qw**2
    m[:-1, -1, -1] = -g * w / qw**2 * w_low
    m[-1, :-1, -1] = -g * w * (1.0 + g * w) / qw**2 * w_up
    m[-1, -1, :-1] = m[:-1, -1, -1]  # C_N^N_a = C_a^N_N by symmetry of C in p, r
    a_n_b = 0.5 * g * w / qw * ctx.r_ab + (
        0.5 * g * (1.0 - g * w - w * w) / (w * qw**2)
    ) * np.outer(w_low, w_low)
    m[:-1, -1, :-1] = a_n_b
    n_a_b = 0.5 * g * w / qw * eye + (
        0.5 * g * (1.0 + g * w - w * w) / (w * qw**2)
    ) * np.outer(w_up, w_low)
    m[-1, :-1, :-1] = n_a_b
    m[:-1, :-1, -1] = n_a_b.T  # C_a^b_N = C_N^b_a (p-r symmetry)
    abc = -0.5 * g / (w * qw) * (
        np.einsum("ab,c->abc", eye, w_low)
        + np.einsum("cb,a->abc", eye, w_low)
        + (1.0 + g * w) * np.einsum("ac,b->abc", ctx.r_ab, w_up)
    ) + (0.5 * g * (g * w * qw + qw + 2.0 * w * w) / (w**3 * qw**2)) * np.einsum(
        "a,b,c->abc", w_low, w_up, w_low
    )
    m[:-1, :-1, :-1] = abc
    return m / z


def cartan_fd_diagnostic(par: GParameter, ctx: MetricContext, R) -> np.ndarray:
    """Finite-difference estimate (1/2) dg_pq/dR^r.

    Works where the chart closed forms raise OnAxis (q = 0 or Z = 0), at
    finite-difference accuracy; on the axis itself the one-sided kink of
    the metric limits it further.
    """
    R = ctx.check_vector(R, nonzero=True)
    return 0.5 * numdiff.jacobian(lambda x: metric_tensor(par, ctx, x), R)


def two_vector_determinant_reference(par: GParameter, ctx: MetricContext, t1, t2) -> float:
    """det n_pq = (|t1||t2| sin(alpha)/u)^(N-2) h^(-N) det(r_ab)."""
    inv = pair_invariants(par, ctx, t1, t2)
    s1, s2, _, sa = _pair_scalars(inv)
    return (s1 * s2 * sa / inv.u) ** (ctx.n - 2) * par.h ** (-ctx.n) * float(
        np.linalg.det(ctx.r_ab)
    )


@dataclass(frozen=True)
class CoincidenceReport:
    """Convergence data for the coincidence limit t2 -> t1, one entry per eps."""

    tensor_error: np.ndarray
    derivative_error: np.ndarray
    a1: np.ndarray
    a2_over_u: np.ndarray
    a1_limit: float


def coincidence_limits(par: GParameter, ctx: MetricContext, t, eps_sequence, v) -> CoincidenceReport:
    """Probe n(t, t + eps v) -> n(t) and the derivative-sum limit.

    The sum of the two partial derivatives of the two-vector tensor tends
    to the derivative of the one-vector metric; each partial is estimated
    by central differences with step eps/1000 (the global step convention
    is too coarse this close to coincidence).
    """
    t = ctx.check_vector(t, nonzero=True)
    v = ctx.check_vector(v)
    n_one = quasi_metric(par, ctx, t).n_lower
    dn_one = quasi_metric_derivative(par, ctx, t)
    eps_sequence = np.asarray(eps_sequence, dtype=float)

    tensor_err = np.empty_like(eps_sequence)
    deriv_err = np.empty_like(eps_sequence)
    a1_vals = np.empty_like(eps_sequence)
    a2u_vals = np.empty_like(eps_sequence)
    for i, eps in enumerate(eps_sequence):
        t2 = t + eps * v
        tv = two_vector_metric(par, ctx, t, t2)
        tensor_err[i] = float(np.max(np.abs(tv.n_lower - n_one)))
        a1_vals[i] = tv.a1
        a2u_vals[i] = tv.a2 / tv.pair.u
        step = eps / 1000.0
        j1 = numdiff.jacobian(lambda x: two_vector_metric(par, ctx, x, t2).n_lower, t, scale=step)
        j2 = numdiff.jacobian(lambda y: two_vector_metric(par, ctx, t, y).n_lower, t2, scale=step)
        deriv_err[i] = float(np.max(np.abs(j1 + j2 - dn_one)))
    return CoincidenceReport(
        tensor_error=tensor_err,
        derivative_error=deriv_err,
        a1=a1_vals,
        a2_over_u=a2u_vals,
        a1_limit=1.0 - 1.0 / par.h**2,
    )
