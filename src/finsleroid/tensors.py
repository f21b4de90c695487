"""One-vector tensor stack: gradient covector, metric tensor and inverse,
angular tensor, Cartan tensor with contractions, and the curvature tensor.

Everything here is a closed form in the scalars of :mod:`finsleroid.core`.
The metric tensor is the half Hessian of K^2 and is 0-homogeneous in R;
the Cartan tensor is half its R-derivative.  The Cartan closed forms live
on the chart w = q/Z and therefore need q != 0 and Z != 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GParameter, MetricContext, ScalarBundle, _bundle, _off_axis, _outer, _rows_kernel
from .errors import NumericalDomainError, OnAxisError

__all__ = [
    "CartanTensor",
    "TensorStack",
    "gradient_covector",
    "metric_tensor",
    "inverse_metric",
    "angular_tensor",
    "cartan_tensor",
    "cartan_fd_diagnostic",
    "curvature_tensor",
    "tensor_stack",
    "angular_block_reference",
    "cartan_mixed_reference",
]


@_rows_kernel("gradient covector")
def gradient_covector(par: GParameter, ctx: MetricContext, R, sb: ScalarBundle) -> np.ndarray:
    """R_p = (1/2) dK^2/dR^p, over rows (..., N) -> (..., N).

    Components: R_a = r_ab R^b K^2/B and R_N = (Z + g q) K^2/B.
    """
    scale = sb.K**2 / sb.B
    out = np.empty(R.shape)
    out[..., :-1] = ctx.r_rows(R[..., :-1]) * scale[..., None]
    out[..., -1] = (sb.Z + par.g * sb.q) * scale
    return out


@_rows_kernel("metric tensor")
def metric_tensor(par: GParameter, ctx: MetricContext, R, sb: ScalarBundle) -> np.ndarray:
    """g_pq = (1/2) d^2 K^2 / dR^p dR^q in closed form, over rows (..., N)
    -> (..., N, N).

    The off-block term of g_ab carries a factor Z/q times two factors
    r_a. R that are each O(q); the removable singularity at q = 0 is
    evaluated as 0, keeping the tensor continuous on the axis.
    """
    z, q = sb.Z, sb.q
    k2b = sb.K**2 / sb.B
    k2b2 = sb.K**2 / sb.B**2
    rr = ctx.r_rows(R[..., :-1])

    g = np.empty(R.shape + (ctx.n,))
    g[..., -1, -1] = ((z + par.g * q) ** 2 + q * q) * k2b2
    g[..., -1, :-1] = g[..., :-1, -1] = (par.g * q)[..., None] * rr * k2b2[..., None]
    block = g[..., :-1, :-1]
    np.multiply(k2b[..., None, None], ctx.r_ab, out=block)
    block -= par.g * _outer(rr, rr) * (z / _off_axis(q))[..., None, None] * k2b2[..., None, None]
    return g


@_rows_kernel("inverse metric")
def inverse_metric(par: GParameter, ctx: MetricContext, R, sb: ScalarBundle) -> np.ndarray:
    """Reciprocal tensor g^pq in closed form, over rows (..., N) ->
    (..., N, N); g^pq g_qr = delta^p_r."""
    z, q = sb.Z, sb.q
    bold = R[..., :-1]
    inv_k2 = 1.0 / sb.K**2

    g = np.empty(R.shape + (ctx.n,))
    g[..., -1, -1] = (z * z + q * q) * inv_k2
    g[..., -1, :-1] = g[..., :-1, -1] = (-par.g * q)[..., None] * bold * inv_k2[..., None]
    block = g[..., :-1, :-1]
    np.multiply((sb.B * inv_k2)[..., None, None], ctx.r_ab_inv, out=block)
    c = (par.g * (z + par.g * q))[..., None, None]
    block += c * _outer(bold, bold) / _off_axis(q)[..., None, None] * inv_k2[..., None, None]
    return g


@_rows_kernel("angular tensor")
def angular_tensor(par: GParameter, ctx: MetricContext, R, sb: ScalarBundle) -> np.ndarray:
    """h_pq = g_pq - R_p R_q / K^2, over rows (..., N) -> (..., N, N);
    annihilates R^q."""
    rl = gradient_covector.from_bundle(par, ctx, R, sb)
    return metric_tensor.from_bundle(par, ctx, R, sb) - _outer(rl, rl) / (sb.K**2)[..., None, None]


def angular_block_reference(par: GParameter, ctx: MetricContext, R) -> np.ndarray:
    """Closed-form components of h_pq (test oracle for angular_tensor).

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


@dataclass(frozen=True)
class CartanTensor:
    """Cartan tensor C_pqr = (1/2) dg_pq/dR^r with its contractions.

    ``c_mixed[p, q, r]`` holds C_p^q_r (middle index raised with g^pq);
    ``c_vec_lower`` is C_p = C_pqr g^qr and ``c_vec_upper`` its raise.
    """

    c_lower: np.ndarray
    c_mixed: np.ndarray
    c_vec_lower: np.ndarray
    c_vec_upper: np.ndarray


def _chart(ctx, R, sb):
    """(Z, w, w^a, w_a, V^2) of a checked vector R with its bundle sb."""
    z = R[-1]
    if sb.q == 0.0 or z == 0.0:
        raise OnAxisError("Cartan closed forms need q != 0 and Z != 0")
    w_up = R[:-1] / z
    return z, sb.q / z, w_up, ctx.r_ab @ w_up, (sb.K / z) ** 2  # V^2 = K^2/Z^2


def _prescaled(ctx, R):
    """(2^-e R, e) for a checked vector R: e is 0 while its largest
    component lies within 2^(+-100), where no scalar of the Cartan stack
    leaves float64, and the binary exponent of that component beyond.  A
    d-homogeneous quantity is 2^(d e) times its value at 2^-e R, and
    power-of-two scaling is exact."""
    R = ctx.check_vector(R, nonzero=True)
    top = np.abs(R).max()
    if 2.0**-100 < top < 2.0**100:
        return R, 0
    e = int(np.frexp(top)[1])
    return np.ldexp(R, -e), e


def _rescaled(what, x, shift):
    """2^shift x, raising NumericalDomainError where it leaves float64."""
    if shift:
        with np.errstate(over="ignore", under="ignore"):
            x = np.ldexp(x, shift)
        if not np.isfinite(x).all():
            raise NumericalDomainError(f"{what} is not finite at this scale")
    return x


def _scaled_cartan(ct: CartanTensor, e: int) -> CartanTensor:
    """The Cartan tensor at 2^e R from the one at R (degree -1)."""
    if not e:
        return ct
    fields = (ct.c_lower, ct.c_mixed, ct.c_vec_lower, ct.c_vec_upper)
    return CartanTensor(*(_rescaled("Cartan tensor", x, -e) for x in fields))


def _cartan_at(par, ctx, R) -> CartanTensor:
    sb = _bundle(par, ctx, R)
    return _cartan_from_bundle(par, ctx, R, sb, inverse_metric.from_bundle(par, ctx, R, sb))


def cartan_tensor(par: GParameter, ctx: MetricContext, R) -> CartanTensor:
    """Assemble the Cartan tensor from the chart closed forms."""
    R, e = _prescaled(ctx, R)
    return _scaled_cartan(_cartan_at(par, ctx, R), e)


def _cartan_from_bundle(par, ctx, R, sb, g_up) -> CartanTensor:
    """The Cartan tensor of one checked vector from its bundle and g^pq."""
    z, w, w_up, w_low, v2 = _chart(ctx, R, sb)
    n = ctx.n
    g = par.g
    qw = sb.Q

    c = np.zeros((n, n, n))
    # symmetric placement: the chart lists give the independent components
    c_nnn = g * w**3 * v2 / qw**3
    c_ann = -g * w * v2 / qw**3 * w_low
    c_abn = 0.5 * g * w * v2 / qw**2 * ctx.r_ab + (
        0.5 * g * (1.0 - g * w - w * w) / w * v2 / qw**3
    ) * np.outer(w_low, w_low)
    sym3 = (
        np.einsum("ab,c->abc", ctx.r_ab, w_low)
        + np.einsum("ac,b->abc", ctx.r_ab, w_low)
        + np.einsum("bc,a->abc", ctx.r_ab, w_low)
    )
    c_abc = -0.5 * g * v2 / (qw**2 * w) * sym3 + (
        g * (0.5 * qw + g * w + w * w) * v2 / (qw**3 * w**3)
    ) * np.einsum("a,b,c->abc", w_low, w_low, w_low)

    c[-1, -1, -1] = c_nnn
    c[:-1, -1, -1] = c[-1, :-1, -1] = c[-1, -1, :-1] = c_ann
    c[:-1, :-1, -1] = c[:-1, -1, :-1] = c[-1, :-1, :-1] = c_abn
    c[:-1, :-1, :-1] = c_abc
    c /= z

    c_mixed = np.einsum("qt,ptr->pqr", g_up, c)
    c_vec_lower = np.einsum("pqr,qr->p", c, g_up)
    c_vec_upper = g_up @ c_vec_lower
    return CartanTensor(c_lower=c, c_mixed=c_mixed, c_vec_lower=c_vec_lower, c_vec_upper=c_vec_upper)


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
    """Finite-difference estimate (1/2) dg_pq/dR^r, for diagnostics only.

    Works where the chart closed forms raise OnAxis (q = 0 or Z = 0), at
    finite-difference accuracy; on the axis itself the one-sided kink of
    the metric limits it further.  Production code should use
    cartan_tensor.
    """
    from . import numdiff

    R = ctx.check_vector(R, nonzero=True)
    return 0.5 * numdiff.jacobian(lambda x: metric_tensor(par, ctx, x), R)


def curvature_tensor(par: GParameter, ctx: MetricContext, R) -> np.ndarray:
    """S_pqrs = C_tqr C_p^t_s - C_tqs C_p^t_r.

    Equals S* (h_pr h_qs - h_ps h_qr)/K^2 with the constant S* = -g^2/4;
    the implied level-surface curvature is 1 + S* = h^2.
    """
    R, e = _prescaled(ctx, R)
    ct = _cartan_at(par, ctx, R)
    curvature = np.einsum("tqr,pts->pqrs", ct.c_lower, ct.c_mixed) - np.einsum(
        "tqs,ptr->pqrs", ct.c_lower, ct.c_mixed
    )
    return _rescaled("curvature tensor", curvature, -2 * e)


@dataclass(frozen=True)
class TensorStack:
    """Everything the one-vector stack produces at a single vector."""

    r_lower: np.ndarray
    g_lower: np.ndarray
    g_upper: np.ndarray
    h_lower: np.ndarray
    c_lower: np.ndarray
    c_mixed: np.ndarray
    c_vec_lower: np.ndarray
    c_vec_upper: np.ndarray


def tensor_stack(par: GParameter, ctx: MetricContext, R) -> TensorStack:
    """Build the full stack (needs the Cartan chart, so q != 0 and Z != 0)."""
    R, e = _prescaled(ctx, R)
    sb = _bundle(par, ctx, R)
    g_up = inverse_metric.from_bundle(par, ctx, R, sb)
    ct = _scaled_cartan(_cartan_from_bundle(par, ctx, R, sb, g_up), e)
    return TensorStack(
        r_lower=_rescaled("gradient covector", gradient_covector.from_bundle(par, ctx, R, sb), e),
        g_lower=metric_tensor.from_bundle(par, ctx, R, sb),
        g_upper=g_up,
        h_lower=angular_tensor.from_bundle(par, ctx, R, sb),
        c_lower=ct.c_lower,
        c_mixed=ct.c_mixed,
        c_vec_lower=ct.c_vec_lower,
        c_vec_upper=ct.c_vec_upper,
    )
