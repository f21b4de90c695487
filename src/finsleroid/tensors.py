"""One-vector tensor stack: gradient covector, metric tensor and inverse,
angular tensor, Cartan tensor with contractions, and the curvature tensor.

Everything here is a closed form in the scalars of :mod:`finsleroid.core`.
The metric tensor is the half Hessian of K^2 and is 0-homogeneous in R;
the Cartan tensor is half its R-derivative.  The Cartan tensor and its
contractions are built from the angular tensor h_pq and the vector
u_p = (1/h) dPhi/dR^p, which is smooth off the axis, on the plane Z = 0 too;
on the axis q = 0 its direction has no limit.  The curvature tensor needs
only h_pq and K and is defined on the axis as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GParameter,
    MetricContext,
    ScalarBundle,
    _bundle,
    _off_axis,
    _outer,
    _per_row,
    _pow,
    _require,
    _rows_kernel,
    _scaled_back,
    _scaled_rows,
)
from .errors import OnAxisError

__all__ = [
    "CartanTensor",
    "TensorStack",
    "gradient_covector",
    "metric_tensor",
    "inverse_metric",
    "angular_tensor",
    "cartan_tensor",
    "curvature_tensor",
    "tensor_stack",
]


@_rows_kernel("gradient covector", 1)
def gradient_covector(par: GParameter, ctx: MetricContext, R, sb: ScalarBundle) -> np.ndarray:
    """R_p = (1/2) dK^2/dR^p, over rows (..., N) -> (..., N).

    Components: R_a = r_ab R^b K^2/B and R_N = (Z + g q) K^2/B.
    """
    scale = _pow(sb.K, 2) / sb.B
    out = np.empty(R.shape)
    out[..., :-1] = ctx.r_rows(R[..., :-1]) * _per_row(scale)
    out[..., -1] = (sb.Z + par.g * sb.q) * scale
    return out


@_rows_kernel("metric tensor", 0)
def metric_tensor(par: GParameter, ctx: MetricContext, R, sb: ScalarBundle) -> np.ndarray:
    """g_pq = (1/2) d^2 K^2 / dR^p dR^q in closed form, over rows (..., N)
    -> (..., N, N).

    The off-block term of g_ab carries a factor Z/q times two factors
    r_a. R that are each O(q); the removable singularity at q = 0 is
    evaluated as 0, keeping the tensor continuous on the axis.
    """
    z, q = sb.Z, sb.q
    k2 = _pow(sb.K, 2)
    k2b = k2 / sb.B
    k2b2 = k2 / _pow(sb.B, 2)
    rr = ctx.r_rows(R[..., :-1])

    g = np.empty(R.shape + (ctx.n,))
    g[..., -1, -1] = (_pow(z + par.g * q, 2) + q * q) * k2b2
    g[..., -1, :-1] = g[..., :-1, -1] = _per_row(par.g * q) * rr * _per_row(k2b2)
    block = g[..., :-1, :-1]
    np.multiply(_per_row(k2b, 2), ctx.r_ab, out=block)
    block -= par.g * _outer(rr, rr) * _per_row(z / _off_axis(q), 2) * _per_row(k2b2, 2)
    return g


@_rows_kernel("inverse metric", 0)
def inverse_metric(par: GParameter, ctx: MetricContext, R, sb: ScalarBundle) -> np.ndarray:
    """Reciprocal tensor g^pq in closed form, over rows (..., N) ->
    (..., N, N); g^pq g_qr = delta^p_r."""
    z, q = sb.Z, sb.q
    bold = R[..., :-1]
    inv_k2 = 1.0 / _pow(sb.K, 2)

    g = np.empty(R.shape + (ctx.n,))
    g[..., -1, -1] = (z * z + q * q) * inv_k2
    g[..., -1, :-1] = g[..., :-1, -1] = _per_row(-par.g * q) * bold * _per_row(inv_k2)
    block = g[..., :-1, :-1]
    np.multiply(_per_row(sb.B * inv_k2, 2), ctx.r_ab_inv, out=block)
    c = _per_row(par.g * (z + par.g * q), 2)
    block += c * _outer(bold, bold) / _per_row(_off_axis(q), 2) * _per_row(inv_k2, 2)
    return g


def _angular(r_lower, g_lower, sb):
    """h_pq = g_pq - R_p R_q / K^2 from R_p and g_pq."""
    return g_lower - _outer(r_lower, r_lower) / _per_row(_pow(sb.K, 2), 2)


@_rows_kernel("angular tensor", 0)
def angular_tensor(par: GParameter, ctx: MetricContext, R, sb: ScalarBundle) -> np.ndarray:
    """h_pq = g_pq - R_p R_q / K^2, over rows (..., N) -> (..., N, N);
    annihilates R^q."""
    return _angular(gradient_covector.from_bundle(par, ctx, R, sb), metric_tensor.from_bundle(par, ctx, R, sb), sb)


@dataclass(frozen=True)
class CartanTensor:
    """Cartan tensor C_pqr = (1/2) dg_pq/dR^r with its contractions, of
    one vector or of each row of a stack (every field has the leading
    shape of the rows).

    ``c_mixed[..., p, q, r]`` holds C_p^q_r (middle index raised with
    g^pq); ``c_vec_lower`` is C_p = C_pqr g^qr and ``c_vec_upper`` its raise.
    """

    c_lower: np.ndarray
    c_mixed: np.ndarray
    c_vec_lower: np.ndarray
    c_vec_upper: np.ndarray

    degrees = (-1, -1, -1, -1)  # homogeneity degrees of the fields in R


def cartan_tensor(par: GParameter, ctx: MetricContext, R) -> CartanTensor:
    """The Cartan tensor and its contractions over rows (..., N); a row on
    the axis (q = 0), where C_p has no limit, raises OnAxisError naming it."""
    R, e = _scaled_rows(ctx, R)
    sb = _bundle(par, ctx, R)
    h = angular_tensor.from_bundle(par, ctx, R, sb)
    ct = _cartan_from_bundle(par, ctx, R, sb, h, inverse_metric.from_bundle(par, ctx, R, sb))
    return _scaled_back(ct, e, CartanTensor.degrees, "Cartan tensor")


def _cartan_from_bundle(par, ctx, R, sb, h, g_up) -> CartanTensor:
    """The Cartan tensor of checked rows from their bundle, h_pq and g^pq:

        C_pqr = (g/2)(h_pq u_r + h_pr u_q + h_qr u_p - K^2 u_p u_q u_r),
        C_p = (N g/2) u_p,

    with u_a = -Z r_ab R^b/(q B) and u_N = q/B, where u_p u^p = 1/K^2."""
    q = sb.q
    _require(q != 0.0, OnAxisError, "the Cartan tensor has no limit on the axis q = 0")
    u = np.empty(R.shape)
    u[..., :-1] = ctx.r_rows(R[..., :-1]) / _per_row(q) * _per_row(-sb.Z / sb.B)
    u[..., -1] = q / sb.B
    hu = h[..., :, :, None] * u[..., None, None, :]  # h_pq u_r at [p, q, r]
    uuu = _outer(u * _per_row(_pow(sb.K, 2)), u)[..., None] * u[..., None, None, :]
    c = 0.5 * par.g * (hu + np.swapaxes(hu, -1, -2) + np.moveaxis(hu, -1, -3) - uuu)
    c_vec_lower = 0.5 * ctx.n * par.g * u
    return CartanTensor(
        c_lower=c,
        c_mixed=np.einsum("...qt,...ptr->...pqr", g_up, c),
        c_vec_lower=c_vec_lower,
        c_vec_upper=np.einsum("...pq,...q->...p", g_up, c_vec_lower),
    )


@_rows_kernel("curvature tensor", -2)
def curvature_tensor(par: GParameter, ctx: MetricContext, R, sb: ScalarBundle) -> np.ndarray:
    """S_pqrs = S* (h_pr h_qs - h_ps h_qr)/K^2 with the constant S* = -g^2/4,
    over rows (..., N) -> (..., N, N, N, N); on the axis too.

    Off the axis it equals C_tqr C_p^t_s - C_tqs C_p^t_r; the implied
    level-surface curvature is 1 + S* = h^2.
    """
    h = angular_tensor.from_bundle(par, ctx, R, sb)
    hh = h[..., :, None, :, None] * h[..., None, :, None, :]  # h_pr h_qs at [p, q, r, s]
    return (hh - np.swapaxes(hh, -1, -2)) * _per_row(-0.25 * par.g**2 / _pow(sb.K, 2), 4)


@dataclass(frozen=True)
class TensorStack:
    """Everything the one-vector stack produces at a vector, or at each
    row of a stack."""

    r_lower: np.ndarray
    g_lower: np.ndarray
    g_upper: np.ndarray
    h_lower: np.ndarray
    c_lower: np.ndarray
    c_mixed: np.ndarray
    c_vec_lower: np.ndarray
    c_vec_upper: np.ndarray

    degrees = (1, 0, 0, 0) + CartanTensor.degrees


def tensor_stack(par: GParameter, ctx: MetricContext, R) -> TensorStack:
    """Build the full stack over rows (..., N); a row on the axis raises
    OnAxisError, as in cartan_tensor."""
    R, e = _scaled_rows(ctx, R)
    sb = _bundle(par, ctx, R)
    r_lower = gradient_covector.from_bundle(par, ctx, R, sb)
    g_lower = metric_tensor.from_bundle(par, ctx, R, sb)
    g_upper = inverse_metric.from_bundle(par, ctx, R, sb)
    h_lower = _angular(r_lower, g_lower, sb)
    ct = _cartan_from_bundle(par, ctx, R, sb, h_lower, g_upper)
    stack = TensorStack(r_lower, g_lower, g_upper, h_lower, ct.c_lower, ct.c_mixed, ct.c_vec_lower, ct.c_vec_upper)
    return _scaled_back(stack, e, TensorStack.degrees, "tensor stack")
