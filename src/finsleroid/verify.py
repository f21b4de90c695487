"""Verification harness: every identity the library maintains, checked
numerically on seeded random samples, with a machine-readable report.

Each check draws its own deterministic RNG stream from (seed, index), so
reports are byte-identical across runs for a fixed configuration.
Sampling follows one convention: components uniform in [-1, 1]^N,
rejected when the euclidean norm is below 0.1; pair checks reject nearly
collinear pairs (u < 0.05 |t1||t2|); chord and covariant checks reject
angles at or beyond pi, where no smooth chord exists.  Checks whose
oracle is a second difference rescale samples to unit norm and keep away
from the removable axis singularity (q or |Z| below 0.15 S), where
float64 differencing degrades; the corresponding identities at the axis
are covered by dedicated limit checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .core import (
    MetricContext,
    generating_j,
    generating_v,
    kfun,
    make_parameter,
    parse_metric_spec,
    phi_function,
    scalar_bundle,
)
from .core import _bundle_from_qz
from .errors import CollinearError, FinsleroidError, NumericalDomainError, OutOfRangeError
from .finslerops import (
    axis_angles,
    finsler_angle,
    finsler_chord,
    finsler_geodesic,
    finsler_product,
    finsler_two_vector_tensor,
    m_vector,
    product_gradients,
    s_vector,
)
from .geodesics import (
    _pair_dots,
    angle,
    distance_squared,
    geodesic_point,
    geodesic_velocity,
    length_gradients,
    pair_invariants,
    scalar_product,
    solve_chord,
)
from .oracles import (
    _phi_a_form,
    _phi_qz_form,
    angular_block_reference,
    cartan_fd_diagnostic,
    cartan_mixed_reference,
    coincidence_limits,
    two_vector_determinant_reference,
)
from .quasimap import (
    conformal_flatten,
    conformal_jacobian,
    mu_jacobian,
    mu_map,
    phi_angle,
    quasi_metric,
    quasi_metric_derivative,
    sigma_jacobian,
    sigma_map,
)
from .tensors import (
    angular_tensor,
    cartan_tensor,
    curvature_tensor,
    gradient_covector,
    inverse_metric,
    metric_tensor,
)
from .twovector import (
    co_orientation,
    co_regime_gap,
    covector_pair,
    frame,
    frame_reconstruct,
    invert_covectors,
    ominus_first_order,
    oplus_first_order,
    parallelogram_refine,
    parallelogram_residuals,
    solve_co_angle,
    two_vector_metric,
)

__all__ = ["RunConfig", "parse_metric_spec", "run_verify", "report_to_json", "CHECKS"]


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one verification run."""

    g: float
    dim: int
    metric: str = "identity"
    seed: int = 0
    trials: int = 200
    tol: float = 1e-9

    def validate(self):
        if not -2.0 < self.g < 2.0:
            raise OutOfRangeError("g must lie in (-2, 2)")
        if self.dim < 2:
            raise OutOfRangeError("dim must be >= 2")
        if self.trials < 1:
            raise OutOfRangeError("trials must be >= 1")
        if not self.tol > 0:
            raise OutOfRangeError("tol must be positive")


# ----------------------------------------------------------------- sampling

def draw_vector(rng, ctx, min_frac=0.0, unit=False):
    """Uniform components in [-1, 1]^N, rejected below norm 0.1.

    ``min_frac`` keeps both q and |Z| above that fraction of the norm
    (required by chart-based closed forms and by second-difference
    oracles near the axis); ``unit`` rescales to S = 1 for checks whose
    oracle accuracy depends on the sample scale.
    """
    while True:
        v = rng.uniform(-1.0, 1.0, ctx.n)
        s = ctx.s_norm(v)
        if s < 0.1:
            continue
        if min_frac > 0.0 and (ctx.m(v) < min_frac * s or abs(v[-1]) < min_frac * s):
            continue
        return v / s if unit else v


def draw_pair(rng, ctx, par, min_frac=0.0, unit=False, max_alpha=None, min_cos=None,
              main_regime=False, regime_margin=0.0):
    """Pair sampler with the u-rejection plus per-check angle guards.

    ``min_cos`` keeps acute pairs (alpha < pi/2) with cos(alpha) above it;
    ``regime_margin`` keeps the pair away from the orientation-regime
    boundary, where the co-vectors of the pair degenerate to a collinear
    pair; ``main_regime`` additionally restricts to the primary side.
    """
    min_sin = 0.05
    if min_cos is not None and par.h * math.acos(max(min_cos, 0.0)) <= math.asin(min_sin):
        raise OutOfRangeError(
            f"g = {par.g}: no pair has sin(theta) >= {min_sin} and alpha < pi/2 with cos > {min_cos}"
        )
    if max_alpha is not None and par.h * max_alpha <= math.asin(min_sin):
        raise OutOfRangeError(
            f"g = {par.g}: no pair has sin(theta) >= {min_sin} and alpha < {max_alpha}"
        )
    while True:
        t1 = draw_vector(rng, ctx, min_frac=min_frac, unit=unit)
        t2 = draw_vector(rng, ctx, min_frac=min_frac, unit=unit)
        dot11, dot22, _, u, theta = _pair_dots(ctx.r_pq, t1, t2)
        if u < min_sin * math.sqrt(dot11 * dot22):
            continue
        al = theta / par.h
        if max_alpha is not None and al >= max_alpha:
            continue
        if min_cos is not None and (al >= 0.5 * math.pi or math.cos(al) <= min_cos):
            continue
        if main_regime or regime_margin > 0.0:
            gap = co_regime_gap(par, al)
            if main_regime and gap > -0.05:
                continue
            if regime_margin > 0.0 and abs(gap) < regime_margin:
                continue
        return t1, t2


def _chord_pair(rng, ctx, par, unit=True):
    return draw_pair(rng, ctx, par, unit=unit, max_alpha=0.95 * math.pi)


# ------------------------------------------------------------------ checks
#
# Every check returns (samples, max_residual); tolerances are fixed per
# check at registration (criterion tolerances where one is stated, the
# run default otherwise).

def _draws(rng, ctx, trials, **kw):
    """draw_vector, trials times, stacked as (trials, N) rows."""
    return np.array([draw_vector(rng, ctx, **kw) for _ in range(trials)])


def _dev(x) -> float:
    """Largest absolute entry of x."""
    return float(np.max(np.abs(x)))


def _budget(trials, cost):
    return max(4, trials // cost)


def _reject(skipped, trials):
    """Count one rejected draw against a budget of 50 per trial, the
    budget of check_frame; OutOfRangeError once it is spent."""
    skipped += 1
    if skipped >= 50 * trials:
        raise OutOfRangeError(f"{skipped} draws rejected: no admissible sample at this g")
    return skipped


def check_parameter_identities(par, ctx, rng, trials, tol):
    res = 0.0
    for g in np.concatenate(([par.g], rng.uniform(-1.999, 1.999, trials))):
        p = make_parameter(g)
        res = max(
            res,
            abs(p.g_plus + p.g_minus - p.g),
            abs(p.g_plus - p.g_minus - 2 * p.h),
            abs(p.g_up_plus + p.g_up_minus + p.g),
            abs(p.g_plus**2 + p.g_minus**2 - 2.0),
            abs(p.g_up_plus**2 + p.g_up_minus**2 - 2.0),
            abs(p.h**2 + 0.25 * p.g**2 - 1.0),
            abs(p.big_g * p.h - p.g),
            abs(p.gamma - (p.h - 1.0)),
        )
        flip = make_parameter(-g)
        res = max(res, abs(flip.g_plus + p.g_minus), abs(flip.g_minus + p.g_plus))
    return trials, res


def check_gz_parity(par, ctx, rng, trials, tol):
    v = _draws(rng, ctx, trials)
    q, z = ctx.q_rows(v[:, :-1]), v[:, -1]
    flip = make_parameter(-par.g)
    return trials, _dev(_bundle_from_qz(flip, q, -z).K - _bundle_from_qz(par, q, z).K)


def check_space_reflection(par, ctx, rng, trials, tol):
    v = _draws(rng, ctx, trials)
    w = v.copy()
    w[:, :-1] *= -1.0
    return trials, _dev(kfun(par, ctx, w) - kfun(par, ctx, v))


def check_scalar_identities(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        v = draw_vector(rng, ctx)
        sb = scalar_bundle(par, ctx, v)
        res = max(
            res,
            abs(sb.A**2 + par.h**2 * sb.q**2 - sb.B) / sb.B,
            abs(sb.L**2 + par.h**2 * v[-1] ** 2 - sb.B) / sb.B,
            abs(sb.K - math.sqrt(sb.B) * sb.J) / sb.K,
            max(0.0, abs(sb.phi) - 0.5 * math.pi),
        )
        if v[-1] != 0.0:
            w = sb.q / v[-1]
            res = max(
                res,
                abs(sb.E**2 + par.h**2 * w * w - sb.Q) / sb.Q,
                abs(abs(v[-1]) * generating_v(par, w) - sb.K) / sb.K,
            )
    return trials, res


def check_phi_branches(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        v = draw_vector(rng, ctx)
        q, z = ctx.m(v), v[-1]
        phi = phi_function(par, q, z)
        if z != 0.0:
            res = max(res, abs(phi - _phi_qz_form(par, q, z)))
        a = z + 0.5 * par.g * q
        if (a > 0) == (z > 0) and z != 0.0 and a != 0.0:
            res = max(res, abs(phi - _phi_a_form(par, q, z)))
        # cot(Phi) = h q / A blows up at A = 0, its own singular locus;
        # away from it (|A| above 1e-3 of the scale) float64 conditioning
        # supports the 1e-12 tolerance
        if abs(a) > 1e-3 * (q + abs(z)) and abs(math.sin(phi)) > 1e-8:
            cot_target = par.h * q / a
            res = max(res, abs(1.0 / math.tan(phi) - cot_target) / (1.0 + abs(cot_target)))
    # axis values and the plane value
    res = max(
        res,
        abs(phi_function(par, 0.0, 1.0) - 0.5 * math.pi),
        abs(phi_function(par, 0.0, -1.0) + 0.5 * math.pi),
        abs(phi_function(par, 1.0, 0.0) - math.atan(0.5 * par.big_g)),
    )
    return trials, res


def check_generating_derivatives(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        w = rng.uniform(-3.0, 3.0)
        if abs(w) < 1e-3:
            continue
        qw = 1.0 + par.g * w + w * w
        vfun = lambda x: generating_v(par, float(x))
        jfun = lambda x: generating_j(par, float(x))
        pfun = lambda x: phi_function(par, abs(float(x)), math.copysign(1.0, float(x)))
        v = generating_v(par, w)
        d1 = float(numdiff.derivative(vfun, w))
        # V'' = V/q^2 as the derivative of the closed form V' = wV/q, which
        # the first sub-identity checks; a second difference of V would
        # be roundoff-bound near the gate
        d2 = float(numdiff.derivative(lambda x: x * vfun(x) / (1 + par.g * x + x * x), w))
        dv2q = float(numdiff.derivative(lambda x: vfun(x) ** 2 / (1 + par.g * x + x * x), w))
        dj = float(numdiff.derivative(jfun, w))
        dphi = float(numdiff.derivative(pfun, w))
        res = max(
            res,
            abs(d1 - w * v / qw),
            abs(d2 - v / qw**2),
            abs(dv2q + par.g * v * v / qw**2),
            abs(dj + 0.5 * par.g * generating_j(par, w) / qw),
            abs(dphi + par.h / qw),
        )
    return trials, res


def check_gradient_covector(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 2)
    for _ in range(m):
        v = draw_vector(rng, ctx, min_frac=0.15, unit=True)
        rl = gradient_covector(par, ctx, v)
        fd = 0.5 * numdiff.gradient(lambda x: kfun(par, ctx, x) ** 2, v)
        res = max(res, _dev(rl - fd), abs(rl @ v - kfun(par, ctx, v) ** 2))
    return m, res


def check_metric_hessian(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 4)
    for _ in range(m):
        v = draw_vector(rng, ctx, min_frac=0.15)
        v = v / kfun(par, ctx, v)
        gm = metric_tensor(par, ctx, v)
        fd = 0.5 * numdiff.hessian(lambda x: kfun(par, ctx, x) ** 2, v)
        res = max(res, float(np.max(np.abs(gm - fd)) / np.max(np.abs(gm))))
    return m, res


def check_metric_determinant(par, ctx, rng, trials, tol):
    v = _draws(rng, ctx, trials)
    with np.errstate(over="ignore"):
        target = scalar_bundle(par, ctx, v).J ** (2 * ctx.n) * float(np.linalg.det(ctx.r_ab))
    if not np.isfinite(target).all():
        raise NumericalDomainError("J^(2N) det(r_ab) overflows float64")
    det_g = np.linalg.det(metric_tensor(par, ctx, v))
    res = _dev((det_g - target) / target)
    return trials, max(res, 1.0) if (det_g <= 0.0).any() else res


def check_inverse_metric(par, ctx, rng, trials, tol):
    v = _draws(rng, ctx, trials)
    sb = scalar_bundle(par, ctx, v)
    gu = inverse_metric(par, ctx, v)
    res = _dev(gu @ metric_tensor(par, ctx, v) - np.eye(ctx.n))
    return trials, max(res, _dev(gu[:, -1, -1] - (v[:, -1] ** 2 + sb.q**2) / sb.K**2))


def check_metric_homogeneity(par, ctx, rng, trials, tol):
    v, lam = map(np.array, zip(*((draw_vector(rng, ctx), rng.uniform(0.2, 5.0)) for _ in range(trials))))
    lv = lam[:, None] * v
    res = _dev(metric_tensor(par, ctx, lv) - metric_tensor(par, ctx, v))
    return trials, max(res, _dev(kfun(par, ctx, lv) - lam * kfun(par, ctx, v)))


def check_angular_tensor(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        v = draw_vector(rng, ctx, min_frac=1e-6)
        ha = angular_tensor(par, ctx, v)
        res = max(res, _dev(ha - angular_block_reference(par, ctx, v)), _dev(ha @ v))
        if abs(v[-1]) > 0.1:
            w = ctx.m(v) / v[-1]
            det_h = float(np.linalg.det(ha[:-1, :-1]))
            det_g = float(np.linalg.det(metric_tensor(par, ctx, v)))
            v2 = generating_v(par, w) ** 2
            if det_g == 0.0 or v2 == 0.0:
                raise NumericalDomainError("det(g_pq) or V^2 underflows float64")
            res = max(res, abs(det_h - det_g / v2) / abs(det_g))
    return trials, res


def check_cartan_fd(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 8)
    for _ in range(m):
        v = draw_vector(rng, ctx, min_frac=0.15, unit=True)
        ct = cartan_tensor(par, ctx, v)
        fd = cartan_fd_diagnostic(par, ctx, v)
        scale = max(_dev(ct.c_lower), 1.0)
        res = max(res, _dev(ct.c_lower - fd) / scale)
        res = max(res, _dev(np.einsum("pqr,r->pq", ct.c_lower, v)))
    return m, res


def check_cartan_closed_forms(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        v = draw_vector(rng, ctx, min_frac=1e-6)
        ct = cartan_tensor(par, ctx, v)
        res = max(res, _dev(ct.c_mixed - cartan_mixed_reference(par, ctx, v)))
        # symmetry of the lowered tensor
        res = max(
            res,
            _dev(ct.c_lower - np.transpose(ct.c_lower, (1, 0, 2))),
            _dev(ct.c_lower - np.transpose(ct.c_lower, (0, 2, 1))),
        )
        k2 = kfun(par, ctx, v) ** 2
        cc = float(ct.c_vec_lower @ ct.c_vec_upper)
        target = ctx.n**2 * par.g**2 / (4.0 * k2)
        res = max(res, abs(cc - target) / max(abs(target), 1e-30) if target != 0 else abs(cc))
        # closed-form contraction vectors
        z = v[-1]
        w = ctx.m(v) / z
        qw = 1.0 + par.g * w + w * w
        w_low = ctx.r_ab @ (v[:-1] / z)
        res = max(res, abs(ct.c_vec_lower[-1] - ctx.n * par.g * w / (2.0 * qw * z)))
        if par.g != 0.0:
            ca = -ctx.n * par.g / (2.0 * w * qw * z) * w_low
            res = max(res, _dev(ct.c_vec_lower[:-1] - ca))
            res = max(res, abs(ct.c_vec_upper[-1] - 0.5 * ctx.n * par.g * w * z / k2))
            cup = -0.5 * ctx.n * par.g * (1.0 + par.g * w) * z / (w * k2) * (v[:-1] / z)
            res = max(res, _dev(ct.c_vec_upper[:-1] - cup))
        # chart contractions of the mixed components
        r_up = ctx.r_ab_inv
        w_up = v[:-1] / z
        mix = ct.c_mixed[:-1, :-1, :-1]  # C_a^b_c
        lhs1 = np.einsum("abc,ac->b", mix, r_up) * z
        rhs1 = -par.g * (w_up / w) * (1.0 + par.g * w) / qw * ((ctx.n - 2) / 2.0 + 1.0 / qw)
        res = max(res, _dev(lhs1 - rhs1))
        lhs2 = np.einsum("abc,a,c->b", mix, w_up, w_up) * z
        rhs2 = -par.g * w / qw**2 * (1.0 + par.g * w) * w_up
        res = max(res, _dev(lhs2 - rhs2))
    return trials, res


def check_cartan_algebraic_form(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        v = draw_vector(rng, ctx, min_frac=1e-6, unit=True)
        ct = cartan_tensor(par, ctx, v)
        if par.g == 0.0:
            res = max(res, _dev(ct.c_lower))
            continue
        ha = angular_tensor(par, ctx, v)
        cv = ct.c_vec_lower
        cc = float(ct.c_vec_lower @ ct.c_vec_upper)
        alg = (
            np.einsum("pq,r->pqr", ha, cv)
            + np.einsum("pr,q->pqr", ha, cv)
            + np.einsum("qr,p->pqr", ha, cv)
            - np.einsum("p,q,r->pqr", cv, cv, cv) / cc
        ) / ctx.n
        res = max(res, _dev(ct.c_lower - alg))
    return trials, res


def check_curvature_constancy(par, ctx, rng, trials, tol):
    res = 0.0
    star = -0.25 * par.g**2
    for _ in range(trials):
        v = draw_vector(rng, ctx, min_frac=1e-6, unit=True)
        s4 = curvature_tensor(par, ctx, v)
        ha = angular_tensor(par, ctx, v)
        k2 = kfun(par, ctx, v) ** 2
        closed = star * (np.einsum("pr,qs->pqrs", ha, ha) - np.einsum("ps,qr->pqrs", ha, ha)) / k2
        res = max(res, _dev(s4 - closed))
        # recover the constant from a full contraction where it is nonzero
        # (at N = 2 the antisymmetrized product of rank-one h vanishes identically)
        if par.g != 0.0 and ctx.n > 2:
            gu = inverse_metric(par, ctx, v)
            num = float(np.einsum("pqrs,pr,qs->", s4, gu, gu)) * k2
            den = float(
                np.einsum("pr,qs,pr,qs->", ha, ha, gu, gu)
                - np.einsum("ps,qr,pr,qs->", ha, ha, gu, gu)
            )
            res = max(res, abs(num / den - star))
    return trials, res


def check_sigma_norm(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        v = draw_vector(rng, ctx)
        t = sigma_map(par, ctx, v)
        res = max(res, abs(ctx.s_norm(t) - kfun(par, ctx, v)))
        # finsleroid surface maps onto the unit sphere
        vn = v / kfun(par, ctx, v)
        res = max(res, abs(ctx.s_norm(sigma_map(par, ctx, vn)) - 1.0))
    return trials, res


def check_map_roundtrip(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        v = draw_vector(rng, ctx)
        t = draw_vector(rng, ctx)
        res = max(
            res,
            _dev(mu_map(par, ctx, sigma_map(par, ctx, v)) - v),
            _dev(sigma_map(par, ctx, mu_map(par, ctx, t)) - t),
            abs(kfun(par, ctx, mu_map(par, ctx, t / ctx.s_norm(t))) - 1.0),
        )
    return trials, res


def check_sigma_jacobian_fd(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 2)
    for _ in range(m):
        v = draw_vector(rng, ctx, min_frac=0.05, unit=True)
        sj = sigma_jacobian(par, ctx, v)
        fd = numdiff.jacobian(lambda x: sigma_map(par, ctx, x), v)
        res = max(res, _dev(sj - fd))
    return m, res


def check_sigma_jacobian_exact(par, ctx, rng, trials, tol):
    v = _draws(rng, ctx, trials, min_frac=0.05)
    sj = sigma_jacobian(par, ctx, v)
    target = par.h ** (ctx.n - 1) * scalar_bundle(par, ctx, v).J ** ctx.n
    euler = (sj @ v[:, :, None])[:, :, 0] - sigma_map(par, ctx, v)
    return trials, max(_dev((np.linalg.det(sj) - target) / target), _dev(euler))


def check_mu_jacobian(par, ctx, rng, trials, tol):
    res = 0.0
    eye = np.eye(ctx.n)
    for _ in range(trials):
        v = draw_vector(rng, ctx, min_frac=0.05)
        t = sigma_map(par, ctx, v)
        sj = sigma_jacobian(par, ctx, v)
        mj = mu_jacobian(par, ctx, t)
        rl = gradient_covector(par, ctx, v)
        tl = ctx.lower(t)
        res = max(
            res,
            _dev(mj @ sj - eye),
            _dev(mj @ t - v),
            _dev(rl @ mj - tl),
            _dev(tl @ sj - rl),
        )
    return trials, res


def check_quasi_metric(par, ctx, rng, trials, tol):
    res = 0.0
    det_r = float(np.linalg.det(ctx.r_ab))
    target_det = par.h ** (2 * (1 - ctx.n)) * det_r
    eye = np.eye(ctx.n)
    for _ in range(trials):
        t = draw_vector(rng, ctx)
        qg = quasi_metric(par, ctx, t)
        s = ctx.s_norm(t)
        l_up = t / s
        l_low = ctx.lower(l_up)
        res = max(
            res,
            _dev(qg.n_lower @ qg.n_upper - eye),
            abs(float(np.linalg.det(qg.n_lower)) - target_det) / abs(target_det),
            _dev(qg.h_lower @ l_up),
            _dev(qg.n_lower @ l_up - l_low),
            abs(l_up @ qg.n_lower @ l_up - 1.0),
            abs(t @ qg.n_lower @ t - s * s),
            _dev(qg.h_lower - par.h**2 * (qg.n_lower - np.outer(l_low, l_low))),
        )
    return trials, res


def check_metric_pullback(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        v = draw_vector(rng, ctx, min_frac=0.05)
        t = sigma_map(par, ctx, v)
        sj = sigma_jacobian(par, ctx, v)
        qg = quasi_metric(par, ctx, t)
        res = max(
            res,
            _dev(np.einsum("rp,sq,rs->pq", sj, sj, qg.n_lower) - metric_tensor(par, ctx, v)),
            _dev(np.einsum("rp,sq,rs->pq", sj, sj, qg.h_lower) / par.h**2 - angular_tensor(par, ctx, v)),
        )
        # pushforward of the inverse metric
        gu = inverse_metric(par, ctx, v)
        res = max(res, _dev(np.einsum("rp,sq,pq->rs", sj, sj, gu) - qg.n_upper))
    return trials, res


def check_angle_image(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        v = draw_vector(rng, ctx)
        t = sigma_map(par, ctx, v)
        res = max(res, abs(phi_angle(par, ctx, t) - scalar_bundle(par, ctx, v).phi))
        # unit-vector correspondences need the off-axis jacobian
        if ctx.m(v) > 0.05 * ctx.s_norm(v):
            sj = sigma_jacobian(par, ctx, v)
            mj = mu_jacobian(par, ctx, t)
            s = ctx.s_norm(t)
            l_up = t / s
            l_low = ctx.lower(l_up)
            k = kfun(par, ctx, v)
            lvec = v / k
            lcov = metric_tensor(par, ctx, v) @ lvec
            res = max(
                res,
                _dev(sj @ lvec - l_up),
                _dev(mj @ l_up - lvec),
                _dev(sj.T @ l_low - lcov),
                _dev(mj.T @ lcov - l_low),
            )
    return trials, res


def check_christoffel(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        t = draw_vector(rng, ctx)
        qg = quasi_metric(par, ctx, t)
        nc = qg.christoffel
        res = max(
            res,
            _dev(np.einsum("p,prq->rq", t, nc)),
            _dev(np.einsum("pss->p", nc)),
            _dev(np.einsum("tsr,ptq->psrq", nc, nc)),
        )
    return trials, res


def check_metric_derivative_fd(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 4)
    for _ in range(m):
        t = draw_vector(rng, ctx, unit=True)
        fd = numdiff.jacobian(numdiff.rowwise(lambda x: quasi_metric(par, ctx, x).n_lower), t)
        res = max(res, _dev(fd - quasi_metric_derivative(par, ctx, t)))
    return m, res


def check_curvature_fd(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 8)
    for _ in range(m):
        t = draw_vector(rng, ctx, unit=True)
        qg = quasi_metric(par, ctx, t)
        dg = numdiff.jacobian(numdiff.rowwise(lambda x: quasi_metric(par, ctx, x).christoffel), t)
        nc = qg.christoffel
        mixed = (
            dg
            - np.transpose(dg, (0, 1, 3, 2))
            + np.einsum("pwq,wrs->prqs", nc, nc)
            - np.einsum("pws,wrq->prqs", nc, nc)
        )
        lowered = np.einsum("rw,pwqs->prqs", ctx.r_pq, mixed)
        res = max(res, _dev(lowered - qg.curvature))
        # transversality of the closed form
        s = ctx.s_norm(t)
        res = max(res, _dev(np.einsum("p,prqs->rqs", t / s, qg.curvature)))
    return m, res


def check_conformal(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        t = draw_vector(rng, ctx, unit=True)
        t = t * rng.uniform(0.5, 2.0)
        kj = conformal_jacobian(par, ctx, t)
        img, f = conformal_flatten(par, ctx, t)
        qg = quasi_metric(par, ctx, t)
        push = np.einsum("pr,qs,rs->pq", kj, kj, qg.n_upper)
        res = max(res, _dev(push - f * f * ctx.r_pq_inv))
        res = max(res, _dev(img - f * t / par.h))
        if abs(ctx.dot(t, t) - 2.0) < 1e-12:
            res = max(res, abs(f - 1.0))
    return trials, res


def check_conformal_jacobian_fd(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 4)
    for _ in range(m):
        t = draw_vector(rng, ctx, unit=True)
        kj = conformal_jacobian(par, ctx, t)
        fd = numdiff.jacobian(numdiff.rowwise(lambda x: conformal_flatten(par, ctx, x)[0]), t)
        res = max(res, _dev(kj - fd))
    return m, res


def check_angle_properties(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        t1, t3 = draw_pair(rng, ctx, par, max_alpha=0.9 * math.pi)
        lam, mu = rng.uniform(0.2, 2.0, 2)
        t2 = lam * t1 + mu * t3
        res = max(
            res,
            abs(angle(par, ctx, t1, t3) - angle(par, ctx, t1, t2) - angle(par, ctx, t2, t3)),
            abs(angle(par, ctx, lam * t1, mu * t3) - angle(par, ctx, t1, t3)),
            abs(angle(par, ctx, t1, t1)),
        )
        # distance homogeneity under joint scaling
        res = max(
            res,
            abs(
                distance_squared(par, ctx, lam * t1, lam * t3)
                - lam * lam * distance_squared(par, ctx, t1, t3)
            )
            / max(distance_squared(par, ctx, t1, t3), 1e-30),
        )
    return trials, res


def check_pair_invariants(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        t1, t2 = draw_pair(rng, ctx, par)
        inv = pair_invariants(par, ctx, t1, t2)
        res = max(
            res,
            abs(ctx.dot(t1, inv.d1)),
            abs(ctx.dot(t2, inv.d2)),
            abs(ctx.dot(inv.d1, inv.d2) + inv.dot12),
            abs(ctx.dot(inv.d1, inv.d1) - inv.dot11),
            abs(ctx.dot(inv.d2, inv.d2) - inv.dot22),
            abs(ctx.dot(inv.d1, t2) - inv.u),
            abs(ctx.dot(t1, inv.d2) - inv.u),
            max(0.0, inv.dot12**2 - inv.dot11 * inv.dot22),
        )
    return trials, res


def check_chord_constants(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        t1, t2 = _chord_pair(rng, ctx, par)
        ch = solve_chord(par, ctx, t1, t2)
        c2 = ch.a**2 - ch.b**2
        res = max(res, max(0.0, -c2))
        c = math.sqrt(max(c2, 0.0))
        res = max(
            res,
            abs(c * ch.delta_s - ch.a * ch.s_end * math.sin(ch.alpha)),
            abs(ch.a**2 + ch.b * ch.delta_s - ch.a * ch.s_end * math.cos(ch.alpha)),
            abs((c * ch.delta_s) ** 2 + (ch.a**2 + ch.b * ch.delta_s) ** 2 - ch.a**2 * ch.radius(ch.delta_s) ** 2),
            abs(ch.delta_s**2 - distance_squared(par, ctx, t1, t2)),
            abs(
                ch.delta_s**2
                - (ch.s_end**2 + ch.a**2 - 2.0 * ch.a * ch.s_end * math.cos(ch.alpha))
            ),
            abs(scalar_product(par, ctx, t1, t2) - ch.a * ch.s_end * math.cos(ch.alpha)),
        )
        # radial chord
        lam = rng.uniform(1.1, 3.0)
        chr_ = solve_chord(par, ctx, t1, lam * t1)
        res = max(
            res,
            abs(chr_.alpha),
            abs(chr_.delta_s - (lam - 1.0) * chr_.a),
            abs(chr_.b - chr_.a),
        )
    return trials, res


def check_geodesic_endpoints(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        t1, t2 = _chord_pair(rng, ctx, par)
        ch = solve_chord(par, ctx, t1, t2)
        res = max(
            res,
            _dev(geodesic_point(ch, 0.0) - t1),
            _dev(geodesic_point(ch, ch.delta_s) - t2),
        )
        ss = np.linspace(0.0, ch.delta_s, 7)
        pts = geodesic_point(ch, ss)
        res = max(res, _dev(np.einsum("ip,pq,iq->i", pts, ctx.r_pq, pts) - ch.radius(ss) ** 2))
        # plane curve: residual off span{t1, t2}
        basis = np.linalg.qr(np.stack([t1, t2], axis=1))[0]
        proj = pts @ basis @ basis.T
        res = max(res, _dev(pts - proj))
    return trials, res


def check_geodesic_ode(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 4)
    for _ in range(m):
        t1, t2 = _chord_pair(rng, ctx, par)
        ch = solve_chord(par, ctx, t1, t2)
        c2 = ch.a**2 - ch.b**2
        for s in np.linspace(0.15 * ch.delta_s, 0.85 * ch.delta_s, 3):
            if ch.radius(s) < 0.3 * max(ch.a, ch.s_end):
                continue
            d2 = numdiff.second_derivative(lambda x: geodesic_point(ch, x), float(s))
            rhs = 0.25 * par.g**2 * c2 * geodesic_point(ch, float(s)) / ch.radius(float(s)) ** 4
            res = max(res, _dev(d2 - rhs))
    return m, res


def check_geodesic_velocity(par, ctx, rng, trials, tol):
    res_fd = 0.0
    res = 0.0
    m = _budget(trials, 4)
    for _ in range(m):
        t1, t2 = _chord_pair(rng, ctx, par)
        ch = solve_chord(par, ctx, t1, t2)
        ss = np.linspace(0.05 * ch.delta_s, 0.95 * ch.delta_s, 10)
        pts = geodesic_point(ch, ss)
        vel = geodesic_velocity(ch, ss)
        for i, s in enumerate(ss):
            res_fd = max(
                res_fd,
                _dev(vel[i] - numdiff.derivative(lambda x: geodesic_point(ch, x), float(s))),
            )
            ng = quasi_metric(par, ctx, pts[i]).n_lower
            res = max(
                res,
                abs(vel[i] @ ng @ vel[i] - 1.0),
                abs(ctx.dot(pts[i], vel[i]) - (ch.b + s)),
            )
    return m, max(res, res_fd * 1e-2)


def check_arc_length(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 4)
    segs = 1000
    for _ in range(m):
        t1, t2 = _chord_pair(rng, ctx, par)
        ch = solve_chord(par, ctx, t1, t2)
        sg = np.linspace(0.0, ch.delta_s, segs + 1)
        pts = geodesic_point(ch, sg)
        mid = 0.5 * (pts[1:] + pts[:-1])
        dp = pts[1:] - pts[:-1]
        s_mid = np.sqrt(np.einsum("ip,pq,iq->i", mid, ctx.r_pq, mid))
        dr2 = np.einsum("ip,pq,iq->i", dp, ctx.r_pq, dp)
        ldot = np.einsum("ip,pq,iq->i", mid, ctx.r_pq, dp) / s_mid
        seg = np.sqrt(dr2 / par.h**2 - 0.25 * par.big_g**2 * ldot**2)
        res = max(res, abs(float(np.sum(seg)) - ch.delta_s) / ch.delta_s)
    return m, res


def check_length_gradients(par, ctx, rng, trials, tol):
    res = 0.0
    res_fd = 0.0
    m = _budget(trials, 2)
    for _ in range(m):
        t1, t2 = draw_pair(rng, ctx, par, unit=True, max_alpha=0.95 * math.pi)
        b1, b2 = length_gradients(par, ctx, t1, t2)
        fd1 = 0.5 * numdiff.gradient(lambda x: distance_squared(par, ctx, x, t2), t1)
        fd2 = 0.5 * numdiff.gradient(lambda y: distance_squared(par, ctx, t1, y), t2)
        res_fd = max(res_fd, _dev(b1 - fd1), _dev(b2 - fd2))
        inv = pair_invariants(par, ctx, t1, t2)
        s1, s2 = math.sqrt(inv.dot11), math.sqrt(inv.dot22)
        ca, sa = math.cos(inv.alpha), math.sin(inv.alpha)
        k2 = 1.0 / par.h**2 - 1.0
        x = s1 / s2 + s2 / s1
        bb11 = inv.dot11 + inv.dot22 - 2 * s1 * s2 * ca + k2 * inv.dot22 * sa * sa
        bb22 = inv.dot22 + inv.dot11 - 2 * s1 * s2 * ca + k2 * inv.dot11 * sa * sa
        bb12 = -((x - 2 * ca) * ca + k2 * sa * sa) * inv.dot12 - (x - 2 * ca) * inv.u * sa / par.h
        res = max(
            res,
            abs(t1 @ b1 + t2 @ b2 - distance_squared(par, ctx, t1, t2)),
            abs(ctx.codot(b1, b1) - bb11),
            abs(ctx.codot(b2, b2) - bb22),
            abs(ctx.codot(b1, b2) - bb12),
        )
        # coincidence limit: both gradients vanish
        eps = 1e-7
        g1, g2 = length_gradients(par, ctx, t1, t1 + eps * t2)
        res = max(res, min(_dev(g1), 1.0) * 1e-3, min(_dev(g2), 1.0) * 1e-3)
    return m, max(res, res_fd * 1e-3)


def check_fundamental_limit(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        t = draw_vector(rng, ctx, unit=True)
        v = draw_vector(rng, ctx, unit=True)
        t2 = t + 1e-4 * v
        d11, d22 = ctx.dot(t, t), ctx.dot(t2, t2)
        inv = pair_invariants(par, ctx, t, t2)
        ratio = d11 * d22 / (par.h * math.sqrt(d11 * d22)) * math.sin(inv.alpha) / inv.u
        res = max(res, abs(ratio - 1.0 / par.h**2))
    return trials, res


def check_two_vector_fd(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 8)
    for _ in range(m):
        t1, t2 = draw_pair(rng, ctx, par, unit=True)
        tv = two_vector_metric(par, ctx, t1, t2)
        fd = numdiff.mixed_second(lambda x, y: scalar_product(par, ctx, x, y), t1, t2)
        res = max(res, _dev(tv.n_lower - fd))
        fd_dist = numdiff.mixed_second(lambda x, y: distance_squared(par, ctx, x, y), t1, t2)
        res = max(res, _dev(tv.n_lower + 0.5 * fd_dist))
    return m, res


def check_two_vector_closed(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        t1, t2 = draw_pair(rng, ctx, par)
        tv = two_vector_metric(par, ctx, t1, t2)
        res = max(
            res,
            abs(float(np.linalg.det(tv.n_lower)) - two_vector_determinant_reference(par, ctx, t1, t2)),
            _dev(tv.n_lower - two_vector_metric(par, ctx, t2, t1).n_lower.T),
        )
        if tv.pair.alpha < math.pi:
            det = float(np.linalg.det(tv.n_lower))
            res = max(res, max(0.0, -det))
    return trials, res


def check_coincidence(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 16)
    eps_seq = np.array([1e-2, 1e-3, 1e-4])
    for _ in range(m):
        t = draw_vector(rng, ctx, unit=True)
        v = 0.3 * draw_vector(rng, ctx, unit=True)
        rep = coincidence_limits(par, ctx, t, eps_seq, v)
        if not np.all(np.diff(rep.tensor_error) < 0.0) and rep.tensor_error[0] > 1e-13:
            res = max(res, 1.0)
        res = max(res, rep.derivative_error[-1])
        res = max(res, abs(rep.a1[-1] - rep.a1_limit))
        res = max(res, abs(rep.a2_over_u[-1]) * 1e-3)
    return m, res


def check_frame(par, ctx, rng, trials, tol):
    res = 0.0
    skipped = 0
    done = 0
    while done < trials and skipped < 50 * trials:
        t1, t2 = draw_pair(rng, ctx, par, max_alpha=0.95 * math.pi)
        try:
            fr = frame(par, ctx, t1, t2)
            rec = frame_reconstruct(par, ctx, t1, t2)
        except NumericalDomainError:
            skipped += 1
            continue
        done += 1
        inv = pair_invariants(par, ctx, t1, t2)
        tv = two_vector_metric(par, ctx, t1, t2)
        s1, s2 = math.sqrt(inv.dot11), math.sqrt(inv.dot22)
        ca, sa = math.cos(inv.alpha), math.sin(inv.alpha)
        d1l, d2l = ctx.lower(inv.d1), ctx.lower(inv.d2)
        expected = (
            (s1 * s2 * sa / (par.h * inv.u)) * ctx.r_pq
            + (tv.a1 / (s1 * s2)) * np.outer(ctx.lower(t1), ctx.lower(t2))
            - (tv.a2 / (par.h * s1 * s2)) * np.outer(d2l, d1l)
        )
        res = max(res, _dev(rec - expected))
        res = max(res, _dev(0.5 * (rec + rec.T) - 0.5 * (tv.n_lower + tv.n_lower.T)))
        # contraction closed forms
        x = inv.dot12
        p2 = par.h * x * ca + inv.u * sa
        m2 = x * ca / par.h + inv.u * sa
        p, mm = math.sqrt(max(p2, 0.0)), math.sqrt(max(m2, 0.0))
        norm = math.sqrt(par.h * s1 * s2)
        vb = ctx.vielbein
        pm_over_x = (par.h * ca - ca / par.h) / (p + mm)  # (P - M)/X without X division
        res = max(
            res,
            _dev(fr @ t1 - (inv.dot11 * pm_over_x * (vb @ t2) + mm * (vb @ t1)) / norm),
            _dev(fr @ t2 - p * (vb @ t2) / norm),
            _dev((vb @ t1) @ fr - p * ctx.lower(t1) / norm),
            _dev((vb @ t2) @ fr - (inv.dot22 * pm_over_x * ctx.lower(t1) + mm * ctx.lower(t2)) / norm),
        )
    return done, res


def check_covector_closed(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        t1, t2 = draw_pair(rng, ctx, par, max_alpha=0.95 * math.pi, regime_margin=0.05)
        cp = covector_pair(par, ctx, t1, t2)
        tv = two_vector_metric(par, ctx, t1, t2)
        inv = tv.pair
        res = max(
            res,
            _dev(cp.T1 - tv.n_lower @ t2),
            _dev(cp.T2 - t1 @ tv.n_lower),
            abs(t1 @ cp.T1 + t2 @ cp.T2 - 2.0 * scalar_product(par, ctx, t1, t2)),
        )
        tt11, tt22, tt12, cap_u, _ = _pair_dots(ctx.r_pq_inv, cp.T1, cp.T2)
        ca, sa = math.cos(inv.alpha), math.sin(inv.alpha)
        cc, ss = ca * ca, sa * sa / par.h**2
        eps = co_orientation(par, inv.alpha)
        res = max(
            res,
            abs(tt11 - inv.dot22 * (cc + ss)),
            abs(tt22 - inv.dot11 * (cc + ss)),
            abs(tt12 - ((cc - ss) * inv.dot12 + 2.0 / par.h * inv.u * sa * ca)),
            abs(eps * cap_u - (2.0 / par.h * inv.dot12 * sa * ca - (cc - ss) * inv.u)),
            abs(cp.f_scale + eps * cap_u / inv.u),
        )
        # rotation-like inversions of the product pair
        res = max(
            res,
            abs((cc + ss) ** 2 * inv.u - (2.0 / par.h * tt12 * sa * ca - (cc - ss) * eps * cap_u)),
            abs((cc + ss) ** 2 * inv.dot12 - ((cc - ss) * tt12 + 2.0 / par.h * sa * ca * eps * cap_u)),
            abs(
                (cc + ss) * (-inv.dot12 * sa / par.h + inv.u * ca)
                - (tt12 * sa / par.h - eps * cap_u * ca)
            ),
        )
        # D battery
        res = max(
            res,
            abs(ctx.codot(cp.T1, cp.D1)),
            abs(ctx.codot(cp.T2, cp.D2)),
            abs(ctx.codot(cp.D1, cp.D2) + tt12),
            abs(ctx.codot(cp.D1, cp.D1) - tt11),
            abs(ctx.codot(cp.D2, cp.D2) - tt22),
            abs(ctx.codot(cp.D1, cp.T2) - cap_u),
            abs(ctx.codot(cp.T1, cp.D2) - cap_u),
        )
        # co-version of the scalar product (read as <T1, T2>): equals the
        # primal product scaled by cos^2 + sin^2/h^2
        res = max(
            res,
            abs(
                math.sqrt(tt11 * tt22) * math.cos(inv.alpha)
                - (cc + ss) * scalar_product(par, ctx, t1, t2)
            ),
        )
        # coincidence of the co-vectors
        t2c = t1 + 1e-8 * t2
        cpc = covector_pair(par, ctx, t1, t2c)
        res = max(res, min(_dev(cpc.T1 - ctx.lower(t1)), 1.0) * 1e-4)
    return trials, res


def check_covector_metric_fd(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 8)
    for _ in range(m):
        t1, t2 = draw_pair(rng, ctx, par, unit=True, max_alpha=0.95 * math.pi,
                           regime_margin=0.05)
        tv = two_vector_metric(par, ctx, t1, t2)
        fd1 = numdiff.jacobian(numdiff.rowwise(lambda y: covector_pair(par, ctx, t1, y).T1), t2)
        fd2 = numdiff.jacobian(numdiff.rowwise(lambda x: covector_pair(par, ctx, x, t2).T2), t1)
        res = max(res, _dev(fd1 - tv.n_lower), _dev(fd2 - tv.n_lower.T))
    return m, res


def check_covector_inversion(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        t1, t2 = draw_pair(rng, ctx, par, max_alpha=0.95 * math.pi, regime_margin=0.05)
        inv = pair_invariants(par, ctx, t1, t2)
        cp = covector_pair(par, ctx, t1, t2)
        r1, r2 = invert_covectors(par, ctx, cp.T1, cp.T2, inv.alpha)
        res = max(res, _dev(r1 - t1), _dev(r2 - t2))
    return trials, res


def check_co_angle(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 8)
    for _ in range(m):
        t1, t2 = draw_pair(rng, ctx, par, main_regime=True)
        inv = pair_invariants(par, ctx, t1, t2)
        cp = covector_pair(par, ctx, t1, t2)
        al = solve_co_angle(par, ctx, cp.T1, cp.T2)
        res = max(res, abs(al - inv.alpha) * 1e-3)  # forward consistency, own tolerance
        # residual of the implicit cosine equation at the returned root
        tt11, tt22, tt12, cap_u, _ = _pair_dots(ctx.r_pq_inv, cp.T1, cp.T2)
        ca, sa = math.cos(al), math.sin(al)
        cc, ss = ca * ca, sa * sa / par.h**2
        rhs = ((cc - ss) * tt12 + 2.0 / par.h * sa * ca * co_orientation(par, al) * cap_u) / (
            (cc + ss) * math.sqrt(tt11 * tt22)
        )
        res = max(res, abs(math.cos(par.h * al) - rhs))
    return m, res


def check_oplus(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        t1, t2 = draw_pair(rng, ctx, par, min_cos=0.1)
        t3 = oplus_first_order(par, ctx, t1, t2)
        res = max(res, _dev(t3 - oplus_first_order(par, ctx, t2, t1)))
        if par.g == 0.0:
            res = max(res, _dev(t3 - (t1 + t2)))
        # first-order residual bound ~ O(k^2)
        k = 1.0 / par.h - 1.0
        r1, r2 = parallelogram_residuals(par, ctx, t1, t2, t3)
        scale = max(ctx.s_norm(t1), ctx.s_norm(t2))
        bound = 60.0 * k * k * scale + 1e-12
        res = max(res, max(abs(r1), abs(r2)) / bound * tol if bound > 0 else 0.0)
    return trials, res


def check_oplus_order(par, ctx, rng, trials, tol):
    # residual slope study in k; uses its own parameter ladder
    ks = [1e-1, 1e-2, 1e-3]
    par_big = make_parameter(2.0 * math.sqrt(1.0 - (1.0 / (1.0 + ks[0])) ** 2))
    m = _budget(trials, 16)
    pairs = [draw_pair(rng, ctx, par_big, min_cos=0.2) for _ in range(m)]
    worst_res = []
    worst_comp = []
    for k in ks:
        h = 1.0 / (1.0 + k)
        p = make_parameter(2.0 * math.sqrt(1.0 - h * h))
        w_r, w_c = 0.0, 0.0
        for t1, t2 in pairs:
            t3 = oplus_first_order(p, ctx, t1, t2)
            r1, r2 = parallelogram_residuals(p, ctx, t1, t2, t3)
            w_r = max(w_r, abs(r1), abs(r2))
            back = ominus_first_order(p, ctx, t1, t3)
            w_c = max(w_c, _dev(back - t2))
        worst_res.append(w_r)
        worst_comp.append(w_c)
    lk = np.log(ks)
    slope_r = float(np.polyfit(lk, np.log(worst_res), 1)[0])
    slope_c = float(np.polyfit(lk, np.log(worst_comp), 1)[0])
    dev = max(abs(slope_r - 2.0), abs(slope_c - 2.0))
    return m, dev


def check_ominus(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        t1, t3 = draw_pair(rng, ctx, par, min_cos=0.05)
        v = t3 - t1
        if ctx.s_norm(v) < 0.05:
            continue
        k = 1.0 / par.h - 1.0
        if k == 0.0:
            res = max(res, _dev(ominus_first_order(par, ctx, t1, t3) - v))
            continue
        s_vec = (ominus_first_order(par, ctx, t1, t3) - v) / k
        _, _, _, u13, ang_a = _pair_dots(ctx.r_pq, t1, t3)
        _, _, _, u_v3, ang_b = _pair_dots(ctx.r_pq, v, t3)
        res = max(
            res,
            abs(ctx.dot(v, s_vec) - u13 * ang_a),
            abs(ctx.dot(t1, s_vec) - u13 * ang_b),
            abs(u_v3 - u13),
        )
    return trials, res


def check_parallelogram_refine(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 4)
    for _ in range(m):
        t1, t2 = draw_pair(rng, ctx, par, min_cos=0.1)
        t3 = parallelogram_refine(par, ctx, t1, t2)
        r1, r2 = parallelogram_residuals(par, ctx, t1, t2, t3)
        res = max(res, abs(r1), abs(r2))
        if par.g == 0.0:
            res = max(res, _dev(t3 - (t1 + t2)))
        else:
            k = 1.0 / par.h - 1.0
            gap = _dev(t3 - oplus_first_order(par, ctx, t1, t2))
            scale = max(ctx.s_norm(t1), ctx.s_norm(t2))
            res = max(res, max(0.0, gap - 60.0 * k * k * scale) * 1e-3)
    return m, res


def check_finsler_product(par, ctx, rng, trials, tol):
    res = 0.0
    for _ in range(trials):
        r_vec = draw_vector(rng, ctx)
        s_vec_ = draw_vector(rng, ctx)
        lam, mu = rng.uniform(0.2, 3.0, 2)
        # the pairs (R, S), (R, R) and (lam R, mu S) in one call
        pp = finsler_product(
            par, ctx, np.stack([r_vec, r_vec, lam * r_vec]), np.stack([s_vec_, r_vec, mu * s_vec_])
        )
        product, self_product, scaled_product = pp.product
        t1 = sigma_map(par, ctx, r_vec)
        t2 = sigma_map(par, ctx, s_vec_)
        res = max(
            res,
            abs(product - scalar_product(par, ctx, t1, t2)),
            abs(pp.alpha[0] - angle(par, ctx, t1, t2)),
            abs(self_product - kfun(par, ctx, r_vec) ** 2),
            abs(pp.m_r[0] @ r_vec),
            max(0.0, -(pp.w[0] ** 2)),
            abs(scaled_product - lam * mu * product) / max(abs(product), 1.0),
        )
        try:
            # (R, R) is image-collinear, so the stacked record has no s_r
            res = max(res, abs(s_vector(par, ctx, r_vec, s_vec_) @ r_vec))
        except CollinearError:
            pass
    return trials, res


def check_finsler_gradients(par, ctx, rng, trials, tol):
    res_fd = 0.0
    res = 0.0
    m = _budget(trials, 8)
    cnt = skipped = 0
    while cnt < m:
        r_vec = draw_vector(rng, ctx, min_frac=0.15, unit=True)
        s_vec_ = draw_vector(rng, ctx, min_frac=0.15, unit=True)
        try:
            d_r, d_s = product_gradients(par, ctx, r_vec, s_vec_)
        except FinsleroidError:
            skipped = _reject(skipped, trials)
            continue
        cnt += 1
        fprod = lambda x, y: finsler_product(par, ctx, x, y).product
        res_fd = max(
            res_fd,
            _dev(d_r - numdiff.gradient(lambda x: fprod(x, s_vec_), r_vec)),
            _dev(d_s - numdiff.gradient(lambda y: fprod(r_vec, y), s_vec_)),
        )
        mv = m_vector(par, ctx, r_vec, s_vec_)
        sb_r = scalar_bundle(par, ctx, r_vec)
        sb_s = scalar_bundle(par, ctx, s_vec_)
        dot_bold = float(r_vec[:-1] @ ctx.r_ab @ s_vec_[:-1])
        num = sb_r.A * sb_s.A + par.h**2 * dot_bold
        h2mn = sb_r.B * sb_s.A - num * sb_r.A
        h2ma = (
            sb_r.B * (0.5 * par.g * r_vec[:-1] / sb_r.q * sb_s.A + par.h**2 * s_vec_[:-1])
            - num * (0.5 * par.g * r_vec[-1] + sb_r.q) * r_vec[:-1] / sb_r.q
        ) @ ctx.r_ab
        res = max(res, abs(par.h**2 * mv[-1] - h2mn), _dev(par.h**2 * mv[:-1] - h2ma))
    return m, max(res, res_fd * 1e-3)


def check_finsler_two_vector(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 8)
    cnt = skipped = 0
    while cnt < m:
        r_vec = draw_vector(rng, ctx, min_frac=0.1, unit=True)
        s_vec_ = draw_vector(rng, ctx, min_frac=0.1, unit=True)
        try:
            t1 = sigma_map(par, ctx, r_vec)
            t2 = sigma_map(par, ctx, s_vec_)
            if angle(par, ctx, t1, t2) > 0.9 * math.pi:
                skipped = _reject(skipped, trials)
                continue
            big_g = finsler_two_vector_tensor(par, ctx, r_vec, s_vec_)
            sj_r = sigma_jacobian(par, ctx, r_vec)
            sj_s = sigma_jacobian(par, ctx, s_vec_)
            ntv = two_vector_metric(par, ctx, t1, t2).n_lower
            d_r, d_s = product_gradients(par, ctx, r_vec, s_vec_)
        except FinsleroidError:
            skipped = _reject(skipped, trials)
            continue
        cnt += 1
        # Euler contractions (<R, S> is 1-homogeneous in each argument)
        res = max(
            res,
            _dev(big_g - np.einsum("rp,sq,rs->pq", sj_r, sj_s, ntv)),
            _dev(r_vec @ big_g - d_s),
            _dev(big_g @ s_vec_ - d_r),
        )
        res = max(
            res,
            _dev(big_g - finsler_two_vector_tensor(par, ctx, s_vec_, r_vec).T)
            * 1e-2,
        )
        fd = numdiff.mixed_second(
            lambda x, y: finsler_product(par, ctx, x, y).product, r_vec, s_vec_
        )
        res = max(res, _dev(big_g - fd) * 1e-2)
    return m, res


def check_finsler_coincidence(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 16)
    for _ in range(m):
        r_vec = draw_vector(rng, ctx, min_frac=0.15, unit=True)
        v = 0.3 * draw_vector(rng, ctx, unit=True)
        prev = None
        for eps in (1e-1, 1e-2, 1e-3):
            big_g = finsler_two_vector_tensor(par, ctx, r_vec, r_vec + eps * v)
            err = _dev(big_g - metric_tensor(par, ctx, r_vec))
            if par.g == 0.0:
                # identically the euclidean tensor; only FD noise remains
                res = max(res, err * 1e-6)
            elif prev is not None and err >= prev and prev > 1e-8:
                res = max(res, 1.0)
            prev = err
    return m, res


def check_finsler_geodesic(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 4)
    cnt = skipped = 0
    while cnt < m:
        r1 = draw_vector(rng, ctx)
        r2 = draw_vector(rng, ctx)
        try:
            ch = finsler_chord(par, ctx, r1, r2)
        except FinsleroidError:
            skipped = _reject(skipped, trials)
            continue
        cnt += 1
        pts = finsler_geodesic(par, ctx, r1, r2, np.array([0.0, ch.delta_s]))
        res = max(res, _dev(pts[0] - r1), _dev(pts[-1] - r2))
    return m, res


def check_finsler_arc(par, ctx, rng, trials, tol):
    res = 0.0
    m = _budget(trials, 16)
    segs = 3000  # pullback paths can graze the axis, where quadrature converges slower
    cnt = skipped = 0
    while cnt < m:
        r1 = draw_vector(rng, ctx)
        r2 = draw_vector(rng, ctx)
        try:
            ch = finsler_chord(par, ctx, r1, r2)
        except FinsleroidError:
            skipped = _reject(skipped, trials)
            continue
        # the composite rule needs the integrand smooth: keep the chord's
        # closest approach to the origin bounded (same guard as the ODE check)
        if math.sqrt(max(ch.a**2 - ch.b**2, 0.0)) < 0.3 * max(ch.a, ch.s_end):
            skipped = _reject(skipped, trials)
            continue
        cnt += 1
        pts = finsler_geodesic(par, ctx, r1, r2, np.linspace(0.0, ch.delta_s, segs + 1))
        dp = pts[1:] - pts[:-1]
        gm = metric_tensor(par, ctx, 0.5 * (pts[1:] + pts[:-1]))
        total = float(np.sqrt(np.maximum(np.einsum("ip,ipq,iq->i", dp, gm, dp), 0.0)).sum())
        res = max(res, abs(total - ch.delta_s) / ch.delta_s)
    return m, res


def check_axis_angles(par, ctx, rng, trials, tol):
    res = 0.0
    e_n = np.zeros(ctx.n)
    e_n[-1] = 1.0
    for _ in range(trials):
        r_vec = draw_vector(rng, ctx)
        a_axis, a_plane = axis_angles(par, ctx, r_vec)
        res = max(
            res,
            abs(a_axis - finsler_angle(par, ctx, r_vec, e_n)),
            max(0.0, -a_axis),
            max(0.0, a_axis - math.pi / par.h),
            max(0.0, -a_plane),
            max(0.0, a_plane - math.pi / par.h),
        )
    # axis vector itself
    res = max(res, abs(axis_angles(par, ctx, e_n)[0]))
    return trials, res


def check_euclidean_degeneration(par, ctx, rng, trials, tol):
    # meaningful at any g but only a degeneration statement at g = 0
    p0 = make_parameter(0.0)
    res = 0.0
    for _ in range(trials):
        v = draw_vector(rng, ctx)
        w = draw_vector(rng, ctx)
        res = max(
            res,
            abs(kfun(p0, ctx, v) - ctx.s_norm(v)),
            _dev(metric_tensor(p0, ctx, v) - ctx.r_pq),
            _dev(quasi_metric(p0, ctx, v).n_lower - ctx.r_pq),
            _dev(sigma_map(p0, ctx, v) - v),
        )
        dots = ctx.dot(v, w) / (ctx.s_norm(v) * ctx.s_norm(w))
        res = max(
            res,
            abs(angle(p0, ctx, v, w) - math.acos(min(max(dots, -1.0), 1.0))),
            abs(scalar_product(p0, ctx, v, w) - ctx.dot(v, w)),
            abs(distance_squared(p0, ctx, v, w) - ctx.dot(v - w, v - w)),
        )
        try:
            ch = solve_chord(p0, ctx, v, w)
            s = 0.5 * ch.delta_s
            lerp = v + (w - v) * (s / ch.delta_s)
            res = max(res, _dev(geodesic_point(ch, s) - lerp))
        except FinsleroidError:
            pass
        try:  # the first-order sum and difference need an acute, independent pair
            res = max(
                res,
                _dev(oplus_first_order(p0, ctx, v, w) - (v + w)),
                _dev(ominus_first_order(p0, ctx, v, w) - (w - v)),
            )
        except FinsleroidError:
            pass
    return trials, res


CHECKS = [
    ("core.parameter_identities", "core", "g+ + g- = g, g+ - g- = 2h, (g+)^2 + (g-)^2 = 2, h^2 + g^2/4 = 1", check_parameter_identities, None),
    ("core.gz_parity", "core", "K(-g; q, -Z) = K(g; q, Z)", check_gz_parity, 1e-12),
    ("core.space_reflection", "core", "K invariant under bold-R -> -bold-R", check_space_reflection, 1e-12),
    ("core.scalar_identities", "core", "A^2 + h^2 q^2 = B; L^2 + h^2 Z^2 = B; K = sqrt(B) J; |Phi| <= pi/2; E^2 + h^2 w^2 = Q; K = |Z| V(w)", check_scalar_identities, 1e-12),
    ("core.phi_branches", "core", "Phi branch families agree; cot(Phi) = h q / A; Phi(Z=0) = arctan(G/2)", check_phi_branches, 1e-12),
    ("core.generating_derivatives", "core", "V' = w V/Q; V'' = V/Q^2; (V^2/Q)' = -g V^2/Q^2; j' = -(g/2) j/Q; Phi' = -h/Q", check_generating_derivatives, 1e-6),
    ("tensors.gradient_covector", "tensors", "R_p = (1/2) dK^2/dR^p (FD oracle); R_p R^p = K^2", check_gradient_covector, 1e-6),
    ("tensors.metric_hessian", "tensors", "g_pq = (1/2) d^2 K^2/dR^p dR^q (FD oracle), relative", check_metric_hessian, 1e-6),
    ("tensors.metric_determinant", "tensors", "det(g_pq) = J^(2N) det(r_ab), relative; det > 0", check_metric_determinant, 1e-10),
    ("tensors.inverse_metric", "tensors", "g^pq g_qr = delta; g^NN = (Z^2 + q^2)/K^2", check_inverse_metric, 1e-10),
    ("tensors.metric_homogeneity", "tensors", "g_pq(lambda R) = g_pq(R); K 1-homogeneous", check_metric_homogeneity, 1e-12),
    ("tensors.angular_tensor", "tensors", "h_pq closed forms; h_pq R^q = 0; det(h_ab) = det(g_pq)/V^2", check_angular_tensor, 1e-10),
    ("tensors.cartan_fd", "tensors", "C_pqr = (1/2) dg_pq/dR^r (FD oracle); C_pqr R^r = 0", check_cartan_fd, 1e-6),
    ("tensors.cartan_closed_forms", "tensors", "mixed components, contraction vectors and chart contractions match their closed forms; C totally symmetric; C_p C^p = N^2 g^2/(4 K^2)", check_cartan_closed_forms, 1e-9),
    ("tensors.cartan_algebraic_form", "tensors", "C_pqr = (1/N)(h_pq C_r + h_pr C_q + h_qr C_p - C_p C_q C_r/(C_s C^s))", check_cartan_algebraic_form, 1e-8),
    ("tensors.curvature_constancy", "tensors", "S_pqrs = S* (h_pr h_qs - h_ps h_qr)/K^2 with constant S* = -g^2/4", check_curvature_constancy, 1e-8),
    ("quasimap.sigma_norm", "quasimap", "S(sigma(R)) = K(g; R); level surface K = 1 maps onto the unit sphere", check_sigma_norm, 1e-12),
    ("quasimap.map_roundtrip", "quasimap", "mu(sigma(R)) = R and sigma(mu(t)) = t", check_map_roundtrip, 1e-10),
    ("quasimap.sigma_jacobian_fd", "quasimap", "d sigma matches FD", check_sigma_jacobian_fd, 1e-6),
    ("quasimap.sigma_jacobian_exact", "quasimap", "det(d sigma) = h^(N-1) J^N (relative); Euler contraction sigma^p_s R^s = t^p", check_sigma_jacobian_exact, 1e-10),
    ("quasimap.mu_jacobian", "quasimap", "d mu inverts d sigma; Euler contraction; covector pullbacks R_p mu = t_p, t_p sigma = R_p", check_mu_jacobian, 1e-8),
    ("quasimap.quasi_metric", "quasimap", "n n^-1 = 1; det(n) = h^(2-2N) det(r_ab); H L = 0; n L = L; n t t = S^2", check_quasi_metric, 1e-10),
    ("quasimap.metric_pullback", "quasimap", "g_pq = sigma sigma n_rs; h_pq = sigma sigma H/h^2; pushforward of g^pq is n^rs", check_metric_pullback, 1e-9),
    ("quasimap.angle_image", "quasimap", "phi(sigma(R)) = Phi(g; R); unit vectors correspond through the jacobians", check_angle_image, 1e-10),
    ("quasimap.christoffel", "quasimap", "t N = 0; trace-free; N N quadratic contraction vanishes", check_christoffel, 1e-12),
    ("quasimap.metric_derivative", "quasimap", "dn_pq/dt^r closed form matches FD", check_metric_derivative_fd, 1e-6),
    ("quasimap.curvature_fd", "quasimap", "closed-form curvature matches the FD-assembled definition; L-transversality", check_curvature_fd, 1e-6),
    ("quasimap.conformal", "quasimap", "pushforward c^pq = f^2 r^pq with f = (S^2/2)^(gamma/2)", check_conformal, 1e-8),
    ("quasimap.conformal_jacobian_fd", "quasimap", "analytic flattening jacobian matches FD", check_conformal_jacobian_fd, 1e-6),
    ("geodesics.angle_properties", "geodesics", "additivity for coplanar triples; scale invariance; alpha(t,t) = 0; distance 2-homogeneous", check_angle_properties, 1e-10),
    ("geodesics.pair_invariants", "geodesics", "d-vector battery: (t1 d1) = 0, (d1 d2) = -(t1 t2), (d1 d1) = (t1 t1), (d1 t2) = u; Cauchy-Schwarz", check_pair_invariants, 1e-10),
    ("geodesics.chord_constants", "geodesics", "sin/cos split; (c ds)^2 + (a^2 + b ds)^2 = a^2 S^2; cosine theorem; radial chords b = +-a", check_chord_constants, 1e-10),
    ("geodesics.endpoints", "geodesics", "t(0) = t1, t(ds) = t2; (t t) = S^2(s); plane curve", check_geodesic_endpoints, 1e-10),
    ("geodesics.ode_residual", "geodesics", "d^2 t/ds^2 = (g^2/4)(a^2 - b^2) t/S^4 by FD", check_geodesic_ode, 1e-6),
    ("geodesics.velocity", "geodesics", "dt/ds matches FD; unit speed n u u = 1; t . t' = b + s", check_geodesic_velocity, 1e-8),
    ("geodesics.arc_length", "geodesics", "integrated quasi-euclidean arc length equals ds (relative)", check_arc_length, 1e-5),
    ("geodesics.length_gradients", "geodesics", "half-gradients of the squared length: FD oracle, Euler contraction, product battery, coincidence limit", check_length_gradients, 1e-9),
    ("geodesics.fundamental_limit", "geodesics", "(t1t1)(t2t2) sin(alpha) / (h |t1||t2| u) -> 1/h^2 at separation 1e-4", check_fundamental_limit, 1e-3),
    ("twovector.tensor_fd", "twovector", "n_pq(t1,t2) = d^2<t1,t2>/dt1 dt2 = -(1/2) d^2 |t2 (-) t1|^2/dt1 dt2 (FD oracle)", check_two_vector_fd, 1e-5),
    ("twovector.tensor_closed", "twovector", "determinant closed form; swap symmetry n_pq(t1,t2) = n_qp(t2,t1); positivity", check_two_vector_closed, 1e-9),
    ("twovector.coincidence", "twovector", "n(t, t+eps v) -> n(t) monotonically; derivative-sum limit; A1 -> 1 - 1/h^2; A2/u -> 0", check_coincidence, 1e-4),
    ("twovector.frame", "twovector", "frame reconstruction (documented d-slot orientation) and the four contraction closed forms", check_frame, 1e-9),
    ("twovector.covector_closed", "twovector", "T closed forms vs contraction; product battery; rotation relations; D battery; f value; T -> t at coincidence", check_covector_closed, 1e-9),
    ("twovector.covector_metric_fd", "twovector", "n_pq = dT1_p/dt2^q = dT2_q/dt1^p (FD oracle)", check_covector_metric_fd, 1e-5),
    ("twovector.covector_inversion", "twovector", "roundtrip t -> T -> t", check_covector_inversion, 1e-8),
    ("twovector.co_angle", "twovector", "implicit equation residual at the root; forward consistency (main regime)", check_co_angle, 1e-12),
    ("twovector.oplus", "twovector", "symmetry; exact at g = 0; defining-equation residuals bounded by O(k^2)", check_oplus, 1e-9),
    ("twovector.oplus_order", "twovector", "log-log residual and composition slopes in k within [1.8, 2.2]", check_oplus_order, 0.2),
    ("twovector.ominus", "twovector", "s-vector contractions (v s) = u arccos..., (t1 s) = u arccos...; u(t3 - t1, t3) = u(t1, t3)", check_ominus, 1e-10),
    ("twovector.parallelogram_refine", "twovector", "defining-equation residuals < 1e-13 for the closed-form sum; agrees with first order to O(k^2)", check_parallelogram_refine, 1e-13),
    ("finslerops.product", "finslerops", "<R,S> equals the image scalar product; <R,R> = K^2; homogeneity; M_p R^p = 0; W^2 >= 0", check_finsler_product, 1e-9),
    ("finslerops.gradients", "finslerops", "closed-form gradients match FD; simplified M equals the unsimplified display", check_finsler_gradients, 1e-9),
    ("finslerops.two_vector", "finslerops", "G_pq equals the jacobian pullback of the image tensor; R^p G_pq = d<R,S>/dS^q and G_pq S^q = d<R,S>/dR^p; symmetry; FD mixed derivative", check_finsler_two_vector, 1e-8),
    ("finslerops.coincidence", "finslerops", "G_pq(R, S -> R) -> g_pq(R) monotonically", check_finsler_coincidence, 0.5),
    ("finslerops.geodesic", "finslerops", "pullback geodesic hits both endpoints", check_finsler_geodesic, 1e-9),
    ("finslerops.geodesic_arc", "finslerops", "arc length of the pullback geodesic in g_pq equals ds (relative)", check_finsler_arc, 1e-5),
    ("finslerops.axis_angles", "finslerops", "axis angle equals the pair angle against e_N; both angles within [0, pi/h]", check_axis_angles, 1e-10),
    ("euclidean.degeneration", "cross", "at g = 0 every operation reduces to its euclidean counterpart, including oplus(t1, t2) = t1 + t2 and ominus(t1, t3) = t3 - t1", check_euclidean_degeneration, 1e-12),
]


def run_verify(config: RunConfig) -> dict:
    """Run every check at the configured (g, N, metric) and assemble the report."""
    config.validate()
    par = make_parameter(config.g)
    ctx = MetricContext(config.dim, parse_metric_spec(config.metric, config.dim))
    warnings = []
    if par.h < 0.1:
        warnings.append(
            "characteristic parameter within 0.02 of +-2: h = %.3e, expect conditioning loss"
            % par.h
        )
    checks = []
    overall = True
    for idx, (check_id, module, identity, fn, tol_fixed) in enumerate(CHECKS):
        tol = config.tol if tol_fixed is None else tol_fixed
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, idx]))
        try:
            samples, residual = fn(par, ctx, rng, config.trials, tol)
            passed = bool(residual < tol)
            error = None
        except FinsleroidError as exc:
            samples, residual, passed, error = 0, math.inf, False, str(exc)
        overall = overall and passed
        entry = {
            "id": check_id,
            "module": module,
            "identity": identity,
            "samples": samples,
            "max_residual": residual,
            "tol": tol,
            "pass": passed,
        }
        if error is not None:
            entry["error"] = error
        checks.append(entry)
    return {
        "config": {
            "g": config.g,
            "dim": config.dim,
            "metric": config.metric,
            "seed": config.seed,
            "trials": config.trials,
            "tol": config.tol,
        },
        "warnings": warnings,
        "checks": checks,
        "overall_pass": overall,
    }


def report_to_json(report: dict) -> str:
    """Serialize with shortest round-trippable float encoding, stable order."""

    def _default(obj):
        if isinstance(obj, (np.floating,)):
            return float(obj)
        if isinstance(obj, (np.integer,)):
            return int(obj)
        raise TypeError(f"not serializable: {type(obj)!r}")

    return json.dumps(report, indent=2, default=_default)
