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

from .core import (
    GParameter,
    MetricContext,
    ScalarBundle,
    _bundle,
    _first_row,
    _off_axis,
    _outer,
    _per_row,
    _pow,
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


@_rows_kernel("angular tensor", 0)
def angular_tensor(par: GParameter, ctx: MetricContext, R, sb: ScalarBundle) -> np.ndarray:
    """h_pq = g_pq - R_p R_q / K^2, over rows (..., N) -> (..., N, N);
    annihilates R^q."""
    rl = gradient_covector.from_bundle(par, ctx, R, sb)
    return metric_tensor.from_bundle(par, ctx, R, sb) - _outer(rl, rl) / _per_row(_pow(sb.K, 2), 2)


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


def _chart(ctx, R, sb):
    """(Z, w, w^a, w_a, V^2) of checked rows R, shape (..., N), with their
    bundle sb; OnAxisError names the first row on the axis (q = 0) or in
    the plane (Z = 0)."""
    z = sb.Z
    bad = (sb.q == 0.0) | (z == 0.0)
    if np.count_nonzero(bad):
        raise OnAxisError("Cartan closed forms need q != 0 and Z != 0" + _first_row(bad))
    w_up = R[..., :-1] / _per_row(z)
    return z, sb.q / z, w_up, ctx.r_rows(w_up), _pow(sb.K / z, 2)  # V^2 = K^2/Z^2


def _cartan_at(par, ctx, R) -> CartanTensor:
    sb = _bundle(par, ctx, R)
    return _cartan_from_bundle(par, ctx, R, sb, inverse_metric.from_bundle(par, ctx, R, sb))


def cartan_tensor(par: GParameter, ctx: MetricContext, R) -> CartanTensor:
    """Assemble the Cartan tensor from the chart closed forms, over rows
    (..., N); every row needs q != 0 and Z != 0."""
    R, e = _scaled_rows(ctx, R)
    return _scaled_back(_cartan_at(par, ctx, R), e, CartanTensor.degrees, "Cartan tensor")


def _cartan_from_bundle(par, ctx, R, sb, g_up) -> CartanTensor:
    """The Cartan tensor of checked rows from their bundle and g^pq."""
    z, w, w_up, w_low, v2 = _chart(ctx, R, sb)
    n = ctx.n
    g = par.g
    qw = 1.0 + g * w + w * w  # Q of the bundle, with w already at hand
    r_ab = ctx.r_ab

    c = np.empty(np.shape(z) + (n, n, n))
    # symmetric placement: the chart lists give the independent components
    w3, qw2, qw3 = _pow(w, 3), _pow(qw, 2), _pow(qw, 3)
    c_nnn = g * w3 * v2 / qw3
    c_ann = _per_row(-g * w * v2 / qw3) * w_low
    c_abn = _per_row(0.5 * g * w * v2 / qw2, 2) * r_ab + _per_row(
        0.5 * g * (1.0 - g * w - w * w) / w * v2 / qw3, 2
    ) * _outer(w_low, w_low)
    sym3 = (
        r_ab[:, :, None] * w_low[..., None, None, :]
        + r_ab[:, None, :] * w_low[..., None, :, None]
        + r_ab * w_low[..., :, None, None]
    )
    c_abc = _per_row(-0.5 * g * v2 / (qw2 * w), 3) * sym3 + _per_row(
        g * (0.5 * qw + g * w + w * w) * v2 / (qw3 * w3), 3
    ) * (_outer(w_low, w_low)[..., None] * w_low[..., None, None, :])

    c[..., -1, -1, -1] = c_nnn
    c[..., :-1, -1, -1] = c[..., -1, :-1, -1] = c[..., -1, -1, :-1] = c_ann
    c[..., :-1, :-1, -1] = c[..., :-1, -1, :-1] = c[..., -1, :-1, :-1] = c_abn
    c[..., :-1, :-1, :-1] = c_abc
    c /= _per_row(z, 3)

    c_mixed = np.einsum("...qt,...ptr->...pqr", g_up, c)
    c_vec_lower = np.einsum("...pqr,...qr->...p", c, g_up)
    c_vec_upper = np.einsum("...pq,...q->...p", g_up, c_vec_lower)
    return CartanTensor(c_lower=c, c_mixed=c_mixed, c_vec_lower=c_vec_lower, c_vec_upper=c_vec_upper)


def curvature_tensor(par: GParameter, ctx: MetricContext, R) -> np.ndarray:
    """S_pqrs = C_tqr C_p^t_s - C_tqs C_p^t_r, over rows (..., N) ->
    (..., N, N, N, N).

    Equals S* (h_pr h_qs - h_ps h_qr)/K^2 with the constant S* = -g^2/4;
    the implied level-surface curvature is 1 + S* = h^2.
    """
    R, e = _scaled_rows(ctx, R)
    ct = _cartan_at(par, ctx, R)
    # the second term is the first with r and s swapped
    term = np.einsum("...tqr,...pts->...pqrs", ct.c_lower, ct.c_mixed)
    return _scaled_back(term - np.swapaxes(term, -1, -2), e, -2, "curvature tensor")


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
    """Build the full stack over rows (..., N) (needs the Cartan chart, so
    q != 0 and Z != 0 in every row)."""
    R, e = _scaled_rows(ctx, R)
    sb = _bundle(par, ctx, R)
    g_up = inverse_metric.from_bundle(par, ctx, R, sb)
    ct = _cartan_from_bundle(par, ctx, R, sb, g_up)
    stack = TensorStack(
        r_lower=gradient_covector.from_bundle(par, ctx, R, sb),
        g_lower=metric_tensor.from_bundle(par, ctx, R, sb),
        g_upper=g_up,
        h_lower=angular_tensor.from_bundle(par, ctx, R, sb),
        c_lower=ct.c_lower,
        c_mixed=ct.c_mixed,
        c_vec_lower=ct.c_vec_lower,
        c_vec_upper=ct.c_vec_upper,
    )
    return _scaled_back(stack, e, TensorStack.degrees, "tensor stack")
