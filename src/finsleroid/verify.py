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

Samples are drawn in bulk: ``draw_vectors`` and ``draw_pairs`` draw
uniform rows in chunks and apply the rules above as array masks (a pair
is two consecutive accepted vectors), so a check gets the rows a draw
one at a time would give, in one (m, N) stack, and past a fixed draw
cap they raise OutOfRangeError.  A check calls each kernel once on its
stack and reduces the residuals with a max; a sample that a kernel's
precondition excludes is masked out.  Each finite-difference oracle
evaluates the stencils of all its samples in one call, and each
quadrature check integrates all its chords in one call, except that of
the pullback geodesic, which takes one chord at a time to keep its
metric tensors small.  The check of the co-angle solve, which takes one
vector pair, loops over its stacked samples.  A check that skips the
samples a kernel rejects tests them by the kernel's own guards (the
chord, frame, gradient and two-vector checks), draws more as it needs
them, and gives up with OutOfRangeError after 50 rejected per trial.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .core import (
    MetricContext,
    _dots,
    _lower,
    _outer,
    generating_j,
    generating_v,
    kfun,
    make_parameter,
    parse_metric_spec,
    phi_function,
    scalar_bundle,
)
from .core import _HUGE, _TINY, _bundle_from_qz, _pow
from .errors import FinsleroidError, NumericalDomainError, OutOfRangeError
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
    _COLLINEAR_TOL,
    _chord_terms,
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
    _chart,
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
    _frame_pieces,
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

_CHUNK = 1 << 15  # rows of one uniform draw, at most
_DRAW_CAP = 1 << 23  # rows one sampler call draws before it gives up
_REJECTS = 50  # samples per trial a check may skip where a kernel rejects them


def _norms(ctx, x):
    """Euclidean lengths S(x) of rows x, shape (..., N)."""
    return np.sqrt(_dots(x, x, ctx.r_pq))


def _vector_chunks(rng, ctx, first, min_frac, unit):
    """The accepted rows of successive uniform draws in [-1, 1]^N: the first
    draw has ``first`` rows and each next one twice as many, up to _CHUNK.
    OutOfRangeError once _DRAW_CAP rows are drawn."""
    size = drawn = 0
    while drawn < _DRAW_CAP:
        size = min(2 * size if size else first, _CHUNK)
        v = rng.uniform(-1.0, 1.0, (size, ctx.n))
        drawn += size
        s = _norms(ctx, v)
        ok = s >= 0.1
        if min_frac > 0.0:
            ok &= (ctx.q_rows(v[:, :-1]) >= min_frac * s) & (np.abs(v[:, -1]) >= min_frac * s)
        yield v[ok] / s[ok, None] if unit else v[ok]
    raise OutOfRangeError(f"draw cap: {drawn} rows drawn without enough admissible samples at this g")


def draw_vectors(rng, ctx, m, min_frac=0.0, unit=False):
    """m rows, shape (m, N), of components uniform in [-1, 1]^N, each
    rejected below norm 0.1.

    ``min_frac`` keeps both q and |Z| above that fraction of the norm
    (required by the chart oracles and by second-difference oracles near
    the axis); ``unit`` rescales each row to S = 1 for checks whose oracle
    accuracy depends on the sample scale.
    """
    chunks = _vector_chunks(rng, ctx, max(2 * m, 64), min_frac, unit)
    rows = next(chunks)
    while len(rows) < m:
        rows = np.concatenate((rows, next(chunks)))
    return rows[:m]


def draw_pairs(rng, ctx, par, m, min_frac=0.0, unit=False, max_alpha=None, min_cos=None,
               main_regime=False, regime_margin=0.0):
    """m pairs (t1, t2), each of shape (m, N): consecutive rows of the
    ``draw_vectors`` rule, with the u-rejection plus per-check angle guards.

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
    chunks = _vector_chunks(rng, ctx, max(4 * m, 64), min_frac, unit)
    rest = np.empty((0, ctx.n))
    firsts, seconds, count = [], [], 0
    while count < m:
        rows = np.concatenate((rest, next(chunks)))
        cut = len(rows) - len(rows) % 2
        t1, t2, rest = rows[0:cut:2], rows[1:cut:2], rows[cut:]
        dot11, dot22, _, u, theta = _pair_dots(t1, t2, ctx.r_pq)
        keep = u >= min_sin * np.sqrt(dot11 * dot22)
        al = theta / par.h
        if max_alpha is not None:
            keep &= al < max_alpha
        if min_cos is not None:
            keep &= (al < 0.5 * math.pi) & (np.cos(al) > min_cos)
        if main_regime or regime_margin > 0.0:
            gap = co_regime_gap(par, al)
            if main_regime:
                keep &= gap <= -0.05
            if regime_margin > 0.0:
                keep &= np.abs(gap) >= regime_margin
        firsts.append(t1[keep])
        seconds.append(t2[keep])
        count += np.count_nonzero(keep)
    return np.concatenate(firsts)[:m], np.concatenate(seconds)[:m]


def _refills(draw, m, trials):
    """The samples of draw() calls, one after another, for a check that
    needs m admissible samples and skips those a kernel rejects; draw()
    returns a stack whose first axis lists the samples.  Asked for a
    sample past the first m - 1 + 50 trials, when at least 50 per trial
    were skipped, OutOfRangeError."""
    cap = m - 1 + _REJECTS * trials
    drawn = 0
    while True:
        for sample in draw():
            if drawn == cap:
                raise OutOfRangeError(f"draw cap: {cap} samples drawn without {m} admissible ones at this g")
            drawn += 1
            yield sample


def _admitted(samples, admit, m):
    """The first m samples of the iterator ``samples`` that ``admit`` keeps,
    stacked; admit flags each sample of a stack of them, and where it
    raises a FinsleroidError for a stack, each of its samples is judged
    alone, one that raises not kept.  Each round takes as many samples as
    are still missing, so none is drawn that a check taking them one at
    a time would not draw."""
    kept = []
    while (count := sum(map(len, kept))) < m:
        batch = np.array(list(itertools.islice(samples, m - count)))
        kept.append(batch[_flags(admit, batch)])
    return np.concatenate(kept)


def _flags(admit, batch):
    """admit(batch), or the samples judged one at a time where it raises."""
    try:
        return admit(batch)
    except FinsleroidError:
        if len(batch) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_flags(admit, batch[i:i + 1]) for i in range(len(batch))])


def _vector_pairs(rng, ctx, m, **kw):
    """draw_vectors rows taken two at a time, as an (m, 2, N) stack."""
    return draw_vectors(rng, ctx, 2 * m, **kw).reshape(m, 2, ctx.n)


# ------------------------------------------------------------------ checks
#
# Every check returns (samples, max_residual); tolerances are fixed per
# check at registration (criterion tolerances where one is stated, the
# run default otherwise).

def _dev(*xs) -> float:
    """Largest absolute entry of the arrays xs (0 where they are empty; NaN
    if an entry is NaN, so that the check fails): every check folds its
    residuals through it, as Python's max(res, nan) keeps res."""
    return float(np.max([np.max(np.abs(x), initial=0.0) for x in xs]))


def _budget(trials, cost):
    return max(4, trials // cost)


def _normal(x, what):
    """x itself; NumericalDomainError where an entry is 0 or not finite in
    float64 (near |g| = 2 the powers of J leave float64)."""
    if not ((np.abs(x) >= _TINY) & (np.abs(x) <= _HUGE)).all():
        raise NumericalDomainError(f"{what} is 0 or not finite in float64")
    return x


def check_parameter_identities(par, ctx, rng, trials, tol):
    res = []
    for g in np.concatenate(([par.g], rng.uniform(-1.999, 1.999, trials))):
        p = make_parameter(g)
        res += [
            abs(p.g_plus + p.g_minus - p.g),
            abs(p.g_plus - p.g_minus - 2 * p.h),
            abs(p.g_up_plus + p.g_up_minus + p.g),
            abs(p.g_plus**2 + p.g_minus**2 - 2.0),
            abs(p.g_up_plus**2 + p.g_up_minus**2 - 2.0),
            abs(p.h**2 + 0.25 * p.g**2 - 1.0),
            abs(p.big_g * p.h - p.g),
            abs(p.gamma - (p.h - 1.0)),
        ]
        flip = make_parameter(-g)
        res += [abs(flip.g_plus + p.g_minus), abs(flip.g_minus + p.g_plus)]
    return trials, _dev(res)


def check_gz_parity(par, ctx, rng, trials, tol):
    v = draw_vectors(rng, ctx, trials)
    q, z = ctx.q_rows(v[:, :-1]), v[:, -1]
    flip = make_parameter(-par.g)
    return trials, _dev(_bundle_from_qz(flip, q, -z).K - _bundle_from_qz(par, q, z).K)


def check_space_reflection(par, ctx, rng, trials, tol):
    v = draw_vectors(rng, ctx, trials)
    w = v.copy()
    w[:, :-1] *= -1.0
    return trials, _dev(kfun(par, ctx, w) - kfun(par, ctx, v))


def check_scalar_identities(par, ctx, rng, trials, tol):
    v = draw_vectors(rng, ctx, trials)
    sb = scalar_bundle(par, ctx, v)
    z = sb.Z
    off = z != 0.0  # the chart w = q/Z, with Q = 1 + g w + w^2 and E = 1 + g w/2
    w = sb.q[off] / z[off]
    qw, ew = 1.0 + par.g * w + w * w, 1.0 + 0.5 * par.g * w
    return trials, _dev(
        (sb.A**2 + par.h**2 * sb.q**2 - sb.B) / sb.B,
        (sb.L**2 + par.h**2 * z**2 - sb.B) / sb.B,
        (sb.K - np.sqrt(sb.B) * sb.J) / sb.K,
        np.maximum(np.abs(sb.phi) - 0.5 * math.pi, 0.0),
        (ew**2 + par.h**2 * w * w - qw) / qw,
        (np.abs(z[off]) * generating_v(par, w) - sb.K[off]) / sb.K[off],
    )


def check_phi_branches(par, ctx, rng, trials, tol):
    v = draw_vectors(rng, ctx, trials)
    q, z = ctx.q_rows(v[:, :-1]), v[:, -1]
    phi = phi_function(par, q, z)
    a = z + 0.5 * par.g * q
    off = z != 0.0
    same = off & (a != 0.0) & ((a > 0) == (z > 0))
    # cot(Phi) = h q / A blows up at A = 0, its own singular locus;
    # away from it (|A| above 1e-3 of the scale) float64 conditioning
    # supports the 1e-12 tolerance
    cot = (np.abs(a) > 1e-3 * (q + np.abs(z))) & (np.abs(np.sin(phi)) > 1e-8)
    cot_target = par.h * q[cot] / a[cot]
    return trials, _dev(
        phi[off] - _phi_qz_form(par, q[off], z[off]),
        phi[same] - _phi_a_form(par, q[same], z[same]),
        (1.0 / np.tan(phi[cot]) - cot_target) / (1.0 + np.abs(cot_target)),
        # axis values and the plane value
        phi_function(par, 0.0, 1.0) - 0.5 * math.pi,
        phi_function(par, 0.0, -1.0) + 0.5 * math.pi,
        phi_function(par, 1.0, 0.0) - math.atan(0.5 * par.big_g),
    )


def check_generating_derivatives(par, ctx, rng, trials, tol):
    w = rng.uniform(-3.0, 3.0, trials)
    w = w[np.abs(w) >= 1e-3]
    quad = lambda x: 1.0 + par.g * x + x * x
    vfun = lambda x: generating_v(par, x)
    qw = quad(w)
    v = vfun(w)
    # the central differences run elementwise over the sample array;
    # V'' = V/q^2 as the derivative of the closed form V' = wV/q, which
    # the first sub-identity checks; a second difference of V would be
    # roundoff-bound near the gate
    d1 = numdiff.derivative(vfun, w)
    d2 = numdiff.derivative(lambda x: x * vfun(x) / quad(x), w)
    dv2q = numdiff.derivative(lambda x: vfun(x) ** 2 / quad(x), w)
    dj = numdiff.derivative(lambda x: generating_j(par, x), w)
    dphi = numdiff.derivative(lambda x: phi_function(par, np.abs(x), np.copysign(1.0, x)), w)
    return trials, _dev(
        d1 - w * v / qw,
        d2 - v / qw**2,
        dv2q + par.g * v * v / qw**2,
        dj + 0.5 * par.g * generating_j(par, w) / qw,
        dphi + par.h / qw,
    )


def check_gradient_covector(par, ctx, rng, trials, tol):
    m = _budget(trials, 2)
    v = draw_vectors(rng, ctx, m, min_frac=0.15, unit=True)
    rl = gradient_covector(par, ctx, v)
    fd = 0.5 * numdiff.gradient(lambda x: kfun(par, ctx, x) ** 2, v)
    return m, _dev(rl - fd, np.einsum("ip,ip->i", rl, v) - kfun(par, ctx, v) ** 2)


def check_metric_hessian(par, ctx, rng, trials, tol):
    m = _budget(trials, 4)
    v = draw_vectors(rng, ctx, m, min_frac=0.15)
    v = v / kfun(par, ctx, v)[:, None]
    gm = metric_tensor(par, ctx, v)
    fd = 0.5 * numdiff.hessian(lambda x: kfun(par, ctx, x) ** 2, v)
    return m, float(np.max(np.max(np.abs(gm - fd), axis=(1, 2)) / np.max(np.abs(gm), axis=(1, 2))))


def check_metric_determinant(par, ctx, rng, trials, tol):
    v = draw_vectors(rng, ctx, trials)
    with np.errstate(over="ignore", under="ignore"):
        target = scalar_bundle(par, ctx, v).J ** (2 * ctx.n) * float(np.linalg.det(ctx.r_ab))
    _normal(target, "J^(2N) det(r_ab)")
    det_g = np.linalg.det(metric_tensor(par, ctx, v))
    res = _dev((det_g - target) / target)
    return trials, _dev(res, 1.0) if (det_g <= 0.0).any() else res


def check_inverse_metric(par, ctx, rng, trials, tol):
    v = draw_vectors(rng, ctx, trials)
    sb = scalar_bundle(par, ctx, v)
    gu = inverse_metric(par, ctx, v)
    return trials, _dev(
        gu @ metric_tensor(par, ctx, v) - np.eye(ctx.n),
        gu[:, -1, -1] - (v[:, -1] ** 2 + sb.q**2) / sb.K**2,
    )


def check_metric_homogeneity(par, ctx, rng, trials, tol):
    v = draw_vectors(rng, ctx, trials)
    lam = rng.uniform(0.2, 5.0, trials)
    lv = lam[:, None] * v
    return trials, _dev(
        metric_tensor(par, ctx, lv) - metric_tensor(par, ctx, v),
        kfun(par, ctx, lv) - lam * kfun(par, ctx, v),
    )


def check_angular_tensor(par, ctx, rng, trials, tol):
    v = draw_vectors(rng, ctx, trials, min_frac=1e-6)
    ha = angular_tensor(par, ctx, v)
    res = _dev(ha - angular_block_reference(par, ctx, v), np.einsum("ipq,iq->ip", ha, v))
    chart = np.abs(v[:, -1]) > 0.1
    if np.count_nonzero(chart):
        vc = v[chart]
        with np.errstate(over="ignore", under="ignore"):
            det_h = np.linalg.det(ha[chart, :-1, :-1])
            det_g = np.linalg.det(metric_tensor(par, ctx, vc))
            v2 = generating_v(par, ctx.q_rows(vc[:, :-1]) / vc[:, -1]) ** 2
        _normal(np.concatenate((det_h, det_g, v2)), "det(h_ab), det(g_pq) or V^2")
        res = _dev(res, (det_h - det_g / v2) / det_g)
    return trials, res


def check_cartan_fd(par, ctx, rng, trials, tol):
    m = _budget(trials, 8)
    v = draw_vectors(rng, ctx, m, min_frac=0.15, unit=True)
    c = cartan_tensor(par, ctx, v).c_lower
    fd = cartan_fd_diagnostic(par, ctx, v)
    top = lambda x: np.max(np.abs(x), axis=(1, 2, 3))
    return m, _dev(top(c - fd) / np.maximum(top(c), 1.0), np.einsum("ipqr,ir->ipq", c, v))


def check_cartan_closed_forms(par, ctx, rng, trials, tol):
    v = draw_vectors(rng, ctx, trials, min_frac=1e-6)
    n, g = ctx.n, par.g
    ct = cartan_tensor(par, ctx, v)
    c = ct.c_lower
    k2 = kfun(par, ctx, v) ** 2
    cc = np.einsum("ip,ip->i", ct.c_vec_lower, ct.c_vec_upper)
    target = n**2 * g**2 / (4.0 * k2)
    res = [
        ct.c_mixed - cartan_mixed_reference(par, ctx, v),
        # symmetry of the lowered tensor
        c - np.swapaxes(c, 1, 2),
        c - np.swapaxes(c, 2, 3),
        np.abs(cc - target) / np.maximum(np.abs(target), 1e-30) if g != 0.0 else cc,
    ]
    # closed-form contraction vectors on the chart
    z, w, qw, w_up, w_low = _chart(par, ctx, v, scalar_bundle(par, ctx, v))
    res.append(ct.c_vec_lower[:, -1] - n * g * w / (2.0 * qw * z))
    if g != 0.0:
        res += [
            ct.c_vec_lower[:, :-1] - (-n * g / (2.0 * w * qw * z))[:, None] * w_low,
            ct.c_vec_upper[:, -1] - 0.5 * n * g * w * z / k2,
            ct.c_vec_upper[:, :-1] - (-0.5 * n * g * (1.0 + g * w) * z / (w * k2))[:, None] * w_up,
        ]
    # chart contractions of the mixed components
    mix = ct.c_mixed[:, :-1, :-1, :-1]  # C_a^b_c
    lhs1 = np.einsum("iabc,ac->ib", mix, ctx.r_ab_inv) * z[:, None]
    rhs1 = (-g / w * (1.0 + g * w) / qw * ((n - 2) / 2.0 + 1.0 / qw))[:, None] * w_up
    lhs2 = np.einsum("iabc,ia,ic->ib", mix, w_up, w_up) * z[:, None]
    rhs2 = (-g * w / qw**2 * (1.0 + g * w))[:, None] * w_up
    return trials, _dev(*res, lhs1 - rhs1, lhs2 - rhs2)


def check_cartan_algebraic_form(par, ctx, rng, trials, tol):
    v = draw_vectors(rng, ctx, trials, min_frac=1e-6, unit=True)
    ct = cartan_tensor(par, ctx, v)
    if par.g == 0.0:
        return trials, _dev(ct.c_lower)
    ha = angular_tensor(par, ctx, v)
    cv = ct.c_vec_lower
    cc = np.einsum("ip,ip->i", cv, ct.c_vec_upper)
    alg = (
        ha[:, :, :, None] * cv[:, None, None, :]
        + ha[:, :, None, :] * cv[:, None, :, None]
        + ha[:, None, :, :] * cv[:, :, None, None]
        - np.einsum("ip,iq,ir->ipqr", cv, cv, cv) / cc[:, None, None, None]
    ) / ctx.n
    return trials, _dev(ct.c_lower - alg)


def check_curvature_constancy(par, ctx, rng, trials, tol):
    v = draw_vectors(rng, ctx, trials, min_frac=1e-6, unit=True)
    ct = cartan_tensor(par, ctx, v)
    # the definition S_pqrs = C_tqr C_p^t_s - C_tqs C_p^t_r
    cc = np.einsum("itqr,ipts->ipqrs", ct.c_lower, ct.c_mixed)
    return trials, _dev(curvature_tensor(par, ctx, v) - (cc - np.swapaxes(cc, 3, 4)))


def check_sigma_norm(par, ctx, rng, trials, tol):
    v = draw_vectors(rng, ctx, trials)
    k = kfun(par, ctx, v)
    # the finsleroid surface maps onto the unit sphere
    return trials, _dev(
        _norms(ctx, sigma_map(par, ctx, v)) - k,
        _norms(ctx, sigma_map(par, ctx, v / k[:, None])) - 1.0,
    )


def check_map_roundtrip(par, ctx, rng, trials, tol):
    v, t = np.moveaxis(_vector_pairs(rng, ctx, trials), 1, 0)
    return trials, _dev(
        mu_map(par, ctx, sigma_map(par, ctx, v)) - v,
        sigma_map(par, ctx, mu_map(par, ctx, t)) - t,
        kfun(par, ctx, mu_map(par, ctx, t / _norms(ctx, t)[:, None])) - 1.0,
    )


def check_sigma_jacobian_fd(par, ctx, rng, trials, tol):
    m = _budget(trials, 2)
    v = draw_vectors(rng, ctx, m, min_frac=0.05, unit=True)
    sj = sigma_jacobian(par, ctx, v)
    fd = numdiff.jacobian(lambda x: sigma_map(par, ctx, x), v)
    return m, _dev(sj - fd)


def check_sigma_jacobian_exact(par, ctx, rng, trials, tol):
    v = draw_vectors(rng, ctx, trials, min_frac=0.05)
    sj = sigma_jacobian(par, ctx, v)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        target = par.h ** (ctx.n - 1) * scalar_bundle(par, ctx, v).J ** ctx.n
        det = np.linalg.det(sj)
    _normal(target, "h^(N-1) J^N")
    _normal(det, "det(d sigma)")
    euler = (sj @ v[:, :, None])[:, :, 0] - sigma_map(par, ctx, v)
    return trials, _dev((det - target) / target, euler)


def check_mu_jacobian(par, ctx, rng, trials, tol):
    v = draw_vectors(rng, ctx, trials, min_frac=0.05)
    t = sigma_map(par, ctx, v)
    sj = sigma_jacobian(par, ctx, v)
    mj = mu_jacobian(par, ctx, t)
    rl = gradient_covector(par, ctx, v)
    tl = _lower(ctx.r_pq, t)
    return trials, _dev(
        mj @ sj - np.eye(ctx.n),
        np.einsum("ipq,iq->ip", mj, t) - v,
        np.einsum("ip,ipq->iq", rl, mj) - tl,
        np.einsum("ip,ipq->iq", tl, sj) - rl,
    )


def check_quasi_metric(par, ctx, rng, trials, tol):
    det_r = float(np.linalg.det(ctx.r_ab))
    target_det = par.h ** (2 * (1 - ctx.n)) * det_r
    t = draw_vectors(rng, ctx, trials)
    qg = quasi_metric(par, ctx, t)
    s = _norms(ctx, t)
    l_up = t / s[:, None]
    l_low = _lower(ctx.r_pq, l_up)
    n_l = np.einsum("ipq,iq->ip", qg.n_lower, l_up)
    return trials, _dev(
        qg.n_lower @ qg.n_upper - np.eye(ctx.n),
        (np.linalg.det(qg.n_lower) - target_det) / abs(target_det),
        np.einsum("ipq,iq->ip", qg.h_lower, l_up),
        n_l - l_low,
        np.einsum("ip,ip->i", l_up, n_l) - 1.0,
        np.einsum("ip,ipq,iq->i", t, qg.n_lower, t) - s * s,
        qg.h_lower - par.h**2 * (qg.n_lower - l_low[:, :, None] * l_low[:, None, :]),
    )


def check_metric_pullback(par, ctx, rng, trials, tol):
    v = draw_vectors(rng, ctx, trials, min_frac=0.05)
    t = sigma_map(par, ctx, v)
    sj = sigma_jacobian(par, ctx, v)
    sj_t = np.swapaxes(sj, 1, 2)
    qg = quasi_metric(par, ctx, t)
    return trials, _dev(
        sj_t @ qg.n_lower @ sj - metric_tensor(par, ctx, v),
        sj_t @ qg.h_lower @ sj / par.h**2 - angular_tensor(par, ctx, v),
        # pushforward of the inverse metric
        sj @ inverse_metric(par, ctx, v) @ sj_t - qg.n_upper,
    )


def check_angle_image(par, ctx, rng, trials, tol):
    v = draw_vectors(rng, ctx, trials)
    t = sigma_map(par, ctx, v)
    res = _dev(phi_angle(par, ctx, t) - scalar_bundle(par, ctx, v).phi)
    # unit-vector correspondences need the off-axis jacobian
    off = ctx.q_rows(v[:, :-1]) > 0.05 * _norms(ctx, v)
    if np.count_nonzero(off):
        v, t = v[off], t[off]
        sj = sigma_jacobian(par, ctx, v)
        mj = mu_jacobian(par, ctx, t)
        l_up = t / _norms(ctx, t)[:, None]
        l_low = _lower(ctx.r_pq, l_up)
        lvec = v / kfun(par, ctx, v)[:, None]
        lcov = np.einsum("ipq,iq->ip", metric_tensor(par, ctx, v), lvec)
        res = _dev(
            res,
            np.einsum("ipq,iq->ip", sj, lvec) - l_up,
            np.einsum("ipq,iq->ip", mj, l_up) - lvec,
            np.einsum("iqp,iq->ip", sj, l_low) - lcov,
            np.einsum("iqp,iq->ip", mj, lcov) - l_low,
        )
    return trials, res


def check_christoffel(par, ctx, rng, trials, tol):
    t = draw_vectors(rng, ctx, trials)
    nc = quasi_metric(par, ctx, t).christoffel
    return trials, _dev(
        np.einsum("ip,iprq->irq", t, nc),
        np.einsum("ipss->ip", nc),
        np.einsum("itsr,iptq->ipsrq", nc, nc),
    )


def check_metric_derivative_fd(par, ctx, rng, trials, tol):
    m = _budget(trials, 4)
    t = draw_vectors(rng, ctx, m, unit=True)
    dn = quasi_metric_derivative(par, ctx, t)
    fd = numdiff.jacobian(lambda x: quasi_metric(par, ctx, x).n_lower, t)
    return m, _dev(fd - dn)


def check_curvature_fd(par, ctx, rng, trials, tol):
    m = _budget(trials, 8)
    t = draw_vectors(rng, ctx, m, unit=True)
    qg = quasi_metric(par, ctx, t)
    dg = numdiff.jacobian(lambda x: quasi_metric(par, ctx, x).christoffel, t)
    nc = qg.christoffel
    mixed = (
        dg
        - np.swapaxes(dg, 3, 4)
        + np.einsum("ipwq,iwrs->iprqs", nc, nc)
        - np.einsum("ipws,iwrq->iprqs", nc, nc)
    )
    lowered = np.einsum("rw,ipwqs->iprqs", ctx.r_pq, mixed)
    # transversality of the closed form
    l_up = t / _norms(ctx, t)[:, None]
    return m, _dev(lowered - qg.curvature, np.einsum("ip,iprqs->irqs", l_up, qg.curvature))


def check_conformal(par, ctx, rng, trials, tol):
    t = draw_vectors(rng, ctx, trials, unit=True) * rng.uniform(0.5, 2.0, trials)[:, None]
    kj = conformal_jacobian(par, ctx, t)
    img, f = conformal_flatten(par, ctx, t)
    push = kj @ quasi_metric(par, ctx, t).n_upper @ np.swapaxes(kj, 1, 2)
    unit = np.abs(_dots(t, t, ctx.r_pq) - 2.0) < 1e-12
    return trials, _dev(
        push - (f * f)[:, None, None] * ctx.r_pq_inv,
        img - f[:, None] * t / par.h,
        f[unit] - 1.0,
    )


def check_conformal_jacobian_fd(par, ctx, rng, trials, tol):
    m = _budget(trials, 4)
    t = draw_vectors(rng, ctx, m, unit=True)
    kj = conformal_jacobian(par, ctx, t)
    fd = numdiff.jacobian(lambda x: conformal_flatten(par, ctx, x)[0], t)
    return m, _dev(kj - fd)


def check_angle_properties(par, ctx, rng, trials, tol):
    t1, t3 = draw_pairs(rng, ctx, par, trials, max_alpha=0.9 * math.pi)
    lam, mu = rng.uniform(0.2, 2.0, (2, trials, 1))
    t2 = lam * t1 + mu * t3
    # the pairs (t1, t3), (t1, t2), (t2, t3), (lam t1, mu t3) and (t1, t1) in one call
    a13, a12, a23, a_scaled, a11 = angle(
        par, ctx, np.stack([t1, t1, t2, lam * t1, t1]), np.stack([t3, t2, t3, mu * t3, t1])
    )
    # distance homogeneity under joint scaling
    d_scaled, d13 = distance_squared(par, ctx, np.stack([lam * t1, t1]), np.stack([lam * t3, t3]))
    return trials, _dev(
        a13 - a12 - a23,
        a_scaled - a13,
        a11,
        (d_scaled - lam[:, 0] ** 2 * d13) / np.maximum(d13, 1e-30),
    )


def check_pair_invariants(par, ctx, rng, trials, tol):
    t1, t2 = draw_pairs(rng, ctx, par, trials)
    inv = pair_invariants(par, ctx, t1, t2)
    dot = lambda x, y: _dots(x, y, ctx.r_pq)
    return trials, _dev(
        dot(t1, inv.d1),
        dot(t2, inv.d2),
        dot(inv.d1, inv.d2) + inv.dot12,
        dot(inv.d1, inv.d1) - inv.dot11,
        dot(inv.d2, inv.d2) - inv.dot22,
        dot(inv.d1, t2) - inv.u,
        dot(t1, inv.d2) - inv.u,
        np.maximum(inv.dot12**2 - inv.dot11 * inv.dot22, 0.0),
    )


def check_chord_constants(par, ctx, rng, trials, tol):
    t1, t2 = draw_pairs(rng, ctx, par, trials, unit=True, max_alpha=0.95 * math.pi)
    lam = rng.uniform(1.1, 3.0, (trials, 1))
    # the chords of (t1, t2) and the radial chords of (t1, lam t1) in one call
    ch = solve_chord(par, ctx, np.stack([t1, t1]), np.stack([t2, lam * t1]))
    a, s_end, alpha, ds, b = (x[0] for x in (ch.a, ch.s_end, ch.alpha, ch.delta_s, ch.b))
    c2 = a**2 - b**2
    c = np.sqrt(np.maximum(c2, 0.0))
    return trials, _dev(
        np.maximum(-c2, 0.0),
        c * ds - a * s_end * np.sin(alpha),
        a**2 + b * ds - a * s_end * np.cos(alpha),
        (c * ds) ** 2 + (a**2 + b * ds) ** 2 - a**2 * ch.radius(ch.delta_s[..., None])[0, :, 0] ** 2,
        ds**2 - distance_squared(par, ctx, t1, t2),
        ds**2 - (s_end**2 + a**2 - 2.0 * a * s_end * np.cos(alpha)),
        scalar_product(par, ctx, t1, t2) - a * s_end * np.cos(alpha),
        # radial chords: alpha = 0, Delta s = (lam - 1) a, b = a
        ch.alpha[1],
        ch.delta_s[1] - (lam[:, 0] - 1.0) * ch.a[1],
        ch.b[1] - ch.a[1],
    )


def _chords(par, ctx, rng, m):
    """m chords of draw_pairs pairs of unit vectors below 0.95 pi, and the pairs."""
    t1, t2 = draw_pairs(rng, ctx, par, m, unit=True, max_alpha=0.95 * math.pi)
    return solve_chord(par, ctx, t1, t2), t1, t2


def check_geodesic_endpoints(par, ctx, rng, trials, tol):
    ch, t1, t2 = _chords(par, ctx, rng, trials)
    ss = np.linspace(0.0, ch.delta_s, 7, axis=-1)  # from exactly 0 to exactly Delta s
    pts = geodesic_point(ch, ss)
    n = ctx.n
    radii2 = np.einsum("ip,pq,iq->i", pts.reshape(-1, n), ctx.r_pq, pts.reshape(-1, n)).reshape(ss.shape)
    # plane curve: residual off span{t1, t2}
    basis = np.linalg.qr(np.stack([t1, t2], axis=-1))[0]
    return trials, _dev(
        pts[:, 0] - t1,
        pts[:, -1] - t2,
        radii2 - ch.radius(ss) ** 2,
        pts - pts @ basis @ np.swapaxes(basis, 1, 2),
    )


def check_geodesic_ode(par, ctx, rng, trials, tol):
    m = _budget(trials, 4)
    ch, _, _ = _chords(par, ctx, rng, m)
    ss = np.linspace(0.15 * ch.delta_s, 0.85 * ch.delta_s, 3, axis=-1)
    rad = ch.radius(ss)
    d2 = numdiff.second_derivative(lambda x: geodesic_point(ch, x), ss)
    rhs = (0.25 * par.g**2 * (ch.a**2 - ch.b**2))[:, None, None] * geodesic_point(ch, ss) / _pow(rad, 4)[..., None]
    far = rad >= 0.3 * np.maximum(ch.a, ch.s_end)[:, None]  # where float64 differencing holds
    return m, _dev((d2 - rhs)[far])


def check_geodesic_velocity(par, ctx, rng, trials, tol):
    m = _budget(trials, 4)
    ch, _, _ = _chords(par, ctx, rng, m)
    ss = np.linspace(0.05 * ch.delta_s, 0.95 * ch.delta_s, 10, axis=-1)
    pts = geodesic_point(ch, ss)
    vel = geodesic_velocity(ch, ss)
    fd = numdiff.derivative(lambda x: geodesic_point(ch, x), ss)
    ng = quasi_metric(par, ctx, pts).n_lower
    res = _dev(_dots(vel, vel, ng) - 1.0, _dots(pts, vel, ctx.r_pq) - (ch.b[:, None] + ss))
    return m, _dev(res, (vel - fd) * 1e-2)


def check_arc_length(par, ctx, rng, trials, tol):
    m = _budget(trials, 4)
    segs = 1000
    ch, _, _ = _chords(par, ctx, rng, m)
    pts = geodesic_point(ch, np.linspace(0.0, ch.delta_s, segs + 1, axis=-1))  # (m, segs + 1, N)
    mid = 0.5 * (pts[:, 1:] + pts[:, :-1])
    dp = pts[:, 1:] - pts[:, :-1]
    dot = lambda x, y: np.einsum("kip,pq,kiq->ki", x, ctx.r_pq, y)
    ldot = dot(mid, dp) / np.sqrt(dot(mid, mid))
    seg = np.sqrt(dot(dp, dp) / par.h**2 - 0.25 * par.big_g**2 * ldot**2)
    return m, _dev((np.sum(seg, axis=-1) - ch.delta_s) / ch.delta_s)


def check_length_gradients(par, ctx, rng, trials, tol):
    m = _budget(trials, 2)
    t1, t2 = draw_pairs(rng, ctx, par, m, unit=True, max_alpha=0.95 * math.pi)
    # the pairs and, in the coincidence limit where both vanish, (t1, t1 + 1e-7 t2)
    (b1, g1), (b2, g2) = length_gradients(par, ctx, np.stack([t1, t1]), np.stack([t2, t1 + 1e-7 * t2]))
    # one stencil: the squared length in t1 at fixed t2, and in t2 at fixed t1
    first = np.array([True, False])[:, None, None]
    fd = 0.5 * numdiff.gradient(
        lambda x: distance_squared(par, ctx, np.where(first, x, t1), np.where(first, t2, x)), np.stack([t1, t2])
    )
    inv = pair_invariants(par, ctx, t1, t2)
    s1, s2 = np.sqrt(inv.dot11), np.sqrt(inv.dot22)
    ca, sa = np.cos(inv.alpha), np.sin(inv.alpha)
    k2 = 1.0 / par.h**2 - 1.0
    x = s1 / s2 + s2 / s1
    bb11 = inv.dot11 + inv.dot22 - 2 * s1 * s2 * ca + k2 * inv.dot22 * sa * sa
    bb22 = inv.dot22 + inv.dot11 - 2 * s1 * s2 * ca + k2 * inv.dot11 * sa * sa
    bb12 = -((x - 2 * ca) * ca + k2 * sa * sa) * inv.dot12 - (x - 2 * ca) * inv.u * sa / par.h
    dot = lambda x, y: (x[:, None, :] @ y[:, :, None])[:, 0, 0]
    codot = lambda x, y: _dots(x, y, ctx.r_pq_inv)
    res = _dev(
        dot(t1, b1) + dot(t2, b2) - distance_squared(par, ctx, t1, t2),
        codot(b1, b1) - bb11,
        codot(b2, b2) - bb22,
        codot(b1, b2) - bb12,
    )
    res = _dev(res, min(_dev(g1), 1.0) * 1e-3, min(_dev(g2), 1.0) * 1e-3)
    return m, _dev(res, (np.stack([b1, b2]) - fd) * 1e-3)


def check_fundamental_limit(par, ctx, rng, trials, tol):
    t, v = np.moveaxis(_vector_pairs(rng, ctx, trials, unit=True), 1, 0)
    t2 = t + 1e-4 * v
    inv = pair_invariants(par, ctx, t, t2)
    d11, d22 = inv.dot11, inv.dot22
    ratio = d11 * d22 / (par.h * np.sqrt(d11 * d22)) * np.sin(inv.alpha) / inv.u
    return trials, _dev(ratio - 1.0 / par.h**2)


def check_two_vector_fd(par, ctx, rng, trials, tol):
    m = _budget(trials, 8)
    t1, t2 = draw_pairs(rng, ctx, par, m, unit=True)
    n = two_vector_metric(par, ctx, t1, t2).n_lower
    fd = numdiff.mixed_second(lambda x, y: scalar_product(par, ctx, x, y), t1, t2)
    fd_dist = numdiff.mixed_second(lambda x, y: distance_squared(par, ctx, x, y), t1, t2)
    return m, _dev(n - fd, n + 0.5 * fd_dist)


def check_two_vector_closed(par, ctx, rng, trials, tol):
    t1, t2 = draw_pairs(rng, ctx, par, trials)
    tv = two_vector_metric(par, ctx, t1, t2)
    det = np.linalg.det(tv.n_lower)
    return trials, _dev(
        det - two_vector_determinant_reference(par, ctx, t1, t2),
        tv.n_lower - np.swapaxes(two_vector_metric(par, ctx, t2, t1).n_lower, 1, 2),
        np.maximum(-det[tv.pair.alpha < math.pi], 0.0),
    )


def check_coincidence(par, ctx, rng, trials, tol):
    m = _budget(trials, 16)
    t, v = np.moveaxis(_vector_pairs(rng, ctx, m, unit=True), 1, 0)
    rep = coincidence_limits(par, ctx, t, [1e-2, 1e-3, 1e-4], 0.3 * v)  # (eps, sample)
    err = rep.tensor_error
    rising = ~np.all(np.diff(err, axis=0) < 0.0, axis=0) & (err[0] > 1e-13)
    limits = (rep.derivative_error[-1], rep.a1[-1] - rep.a1_limit, rep.a2_over_u[-1] * 1e-3)
    return m, _dev(float(rising.any()), *limits)


def _has_frame(par, ctx, t1, t2):
    """Whether frame_reconstruct takes each pair: by frame's own test, both
    the pair and its swap have a frame."""
    ok = True
    for a, b in ((t1, t2), (t2, t1)):
        _, upper, real = _frame_pieces(par, pair_invariants(par, ctx, a, b))
        ok = ok & upper & real
    return ok


def check_frame(par, ctx, rng, trials, tol):
    pairs = lambda: np.stack(draw_pairs(rng, ctx, par, trials, max_alpha=0.95 * math.pi), axis=1)
    kept = _admitted(_refills(pairs, trials, trials), lambda s: _has_frame(par, ctx, s[:, 0], s[:, 1]), trials)
    t1, t2 = kept[:, 0], kept[:, 1]
    fr = frame(par, ctx, t1, t2)
    rec = frame_reconstruct(par, ctx, t1, t2)
    tv = two_vector_metric(par, ctx, t1, t2)
    inv = tv.pair
    s1, s2 = np.sqrt(inv.dot11), np.sqrt(inv.dot22)
    ca, sa = np.cos(inv.alpha), np.sin(inv.alpha)
    t1l, t2l, d1l, d2l = (_lower(ctx.r_pq, x) for x in (t1, t2, inv.d1, inv.d2))
    mat = lambda x: x[:, None, None]
    expected = (
        mat(s1 * s2 * sa / (par.h * inv.u)) * ctx.r_pq
        + mat(tv.a1 / (s1 * s2)) * _outer(t1l, t2l)
        - mat(tv.a2 / (par.h * s1 * s2)) * _outer(d2l, d1l)
    )
    sym = lambda x: 0.5 * (x + np.swapaxes(x, 1, 2))
    # contraction closed forms
    x = inv.dot12
    p = np.sqrt(np.maximum(par.h * x * ca + inv.u * sa, 0.0))
    mm = np.sqrt(np.maximum(x * ca / par.h + inv.u * sa, 0.0))
    norm = np.sqrt(par.h * s1 * s2)[:, None]
    pm_over_x = ((par.h * ca - ca / par.h) / (p + mm))[:, None]  # (P - M)/X without X division
    p, mm = p[:, None], mm[:, None]
    e1, e2 = t1 @ ctx.vielbein.T, t2 @ ctx.vielbein.T  # frame components
    return trials, _dev(
        rec - expected,
        sym(rec) - sym(tv.n_lower),
        np.einsum("irp,ip->ir", fr, t1) - (inv.dot11[:, None] * pm_over_x * e2 + mm * e1) / norm,
        np.einsum("irp,ip->ir", fr, t2) - p * e2 / norm,
        np.einsum("ir,irp->ip", e1, fr) - p * t1l / norm,
        np.einsum("ir,irp->ip", e2, fr) - (inv.dot22[:, None] * pm_over_x * t1l + mm * t2l) / norm,
    )


def check_covector_closed(par, ctx, rng, trials, tol):
    t1, t2 = draw_pairs(rng, ctx, par, trials, max_alpha=0.95 * math.pi, regime_margin=0.05)
    cp = covector_pair(par, ctx, t1, t2)
    tv = two_vector_metric(par, ctx, t1, t2)
    inv = tv.pair
    dot = lambda x, y: np.einsum("ip,ip->i", x, y)
    codot = lambda x, y: _dots(x, y, ctx.r_pq_inv)
    sp = scalar_product(par, ctx, t1, t2)
    tt11, tt22, tt12, cap_u, _ = _pair_dots(cp.T1, cp.T2, ctx.r_pq_inv)
    ca, sa = np.cos(inv.alpha), np.sin(inv.alpha)
    cc, ss = ca * ca, sa * sa / par.h**2
    eps_u = co_orientation(par, inv.alpha) * cap_u
    # the co-vectors at coincidence
    cpc = covector_pair(par, ctx, t1, t1 + 1e-8 * t2)
    return trials, _dev(
        cp.T1 - np.einsum("ipq,iq->ip", tv.n_lower, t2),
        cp.T2 - np.einsum("ip,ipq->iq", t1, tv.n_lower),
        dot(t1, cp.T1) + dot(t2, cp.T2) - 2.0 * sp,
        tt11 - inv.dot22 * (cc + ss),
        tt22 - inv.dot11 * (cc + ss),
        tt12 - ((cc - ss) * inv.dot12 + 2.0 / par.h * inv.u * sa * ca),
        eps_u - (2.0 / par.h * inv.dot12 * sa * ca - (cc - ss) * inv.u),
        cp.f_scale + eps_u / inv.u,
        # rotation-like inversions of the product pair
        (cc + ss) ** 2 * inv.u - (2.0 / par.h * tt12 * sa * ca - (cc - ss) * eps_u),
        (cc + ss) ** 2 * inv.dot12 - ((cc - ss) * tt12 + 2.0 / par.h * sa * ca * eps_u),
        (cc + ss) * (-inv.dot12 * sa / par.h + inv.u * ca) - (tt12 * sa / par.h - eps_u * ca),
        # D battery
        codot(cp.T1, cp.D1),
        codot(cp.T2, cp.D2),
        codot(cp.D1, cp.D2) + tt12,
        codot(cp.D1, cp.D1) - tt11,
        codot(cp.D2, cp.D2) - tt22,
        codot(cp.D1, cp.T2) - cap_u,
        codot(cp.T1, cp.D2) - cap_u,
        # co-version of the scalar product (read as <T1, T2>): equals the
        # primal product scaled by cos^2 + sin^2/h^2
        np.sqrt(tt11 * tt22) * ca - (cc + ss) * sp,
        np.minimum(np.max(np.abs(cpc.T1 - _lower(ctx.r_pq, t1)), axis=-1), 1.0) * 1e-4,
    )


def check_covector_metric_fd(par, ctx, rng, trials, tol):
    m = _budget(trials, 8)
    t1, t2 = draw_pairs(rng, ctx, par, m, unit=True, max_alpha=0.95 * math.pi, regime_margin=0.05)
    n = two_vector_metric(par, ctx, t1, t2).n_lower
    fd1 = numdiff.jacobian(lambda y: covector_pair(par, ctx, t1, y).T1, t2)
    fd2 = numdiff.jacobian(lambda x: covector_pair(par, ctx, x, t2).T2, t1)
    return m, _dev(fd1 - n, fd2 - np.swapaxes(n, 1, 2))


def check_covector_inversion(par, ctx, rng, trials, tol):
    t1, t2 = draw_pairs(rng, ctx, par, trials, max_alpha=0.95 * math.pi, regime_margin=0.05)
    cp = covector_pair(par, ctx, t1, t2)
    r1, r2 = invert_covectors(par, ctx, cp.T1, cp.T2, pair_invariants(par, ctx, t1, t2).alpha)
    return trials, _dev(r1 - t1, r2 - t2)


def check_co_angle(par, ctx, rng, trials, tol):
    res = []
    m = _budget(trials, 8)
    for t1, t2 in zip(*draw_pairs(rng, ctx, par, m, main_regime=True)):
        inv = pair_invariants(par, ctx, t1, t2)
        cp = covector_pair(par, ctx, t1, t2)
        al = solve_co_angle(par, ctx, cp.T1, cp.T2)
        res.append(abs(al - inv.alpha) * 1e-3)  # forward consistency, own tolerance
        # residual of the implicit cosine equation at the returned root
        tt11, tt22, tt12, cap_u, _ = _pair_dots(cp.T1, cp.T2, ctx.r_pq_inv)
        ca, sa = math.cos(al), math.sin(al)
        cc, ss = ca * ca, sa * sa / par.h**2
        rhs = ((cc - ss) * tt12 + 2.0 / par.h * sa * ca * co_orientation(par, al) * cap_u) / (
            (cc + ss) * math.sqrt(tt11 * tt22)
        )
        res.append(abs(math.cos(par.h * al) - rhs))
    return m, _dev(res)


def check_oplus(par, ctx, rng, trials, tol):
    t1, t2 = draw_pairs(rng, ctx, par, trials, min_cos=0.1)
    t3 = oplus_first_order(par, ctx, t1, t2)
    # first-order residual bound ~ O(k^2)
    k = 1.0 / par.h - 1.0
    r1, r2 = parallelogram_residuals(par, ctx, t1, t2, t3)
    bound = 60.0 * k * k * np.maximum(_norms(ctx, t1), _norms(ctx, t2)) + 1e-12
    return trials, _dev(
        t3 - oplus_first_order(par, ctx, t2, t1),
        t3 - (t1 + t2) if par.g == 0.0 else [],
        np.maximum(np.abs(r1), np.abs(r2)) / bound * tol,
    )


def check_oplus_order(par, ctx, rng, trials, tol):
    # residual slope study in k; uses its own parameter ladder
    ks = [1e-1, 1e-2, 1e-3]
    par_big = make_parameter(2.0 * math.sqrt(1.0 - (1.0 / (1.0 + ks[0])) ** 2))
    m = _budget(trials, 16)
    t1, t2 = draw_pairs(rng, ctx, par_big, m, min_cos=0.2)
    worst_res = []
    worst_comp = []
    for k in ks:
        h = 1.0 / (1.0 + k)
        p = make_parameter(2.0 * math.sqrt(1.0 - h * h))
        t3 = oplus_first_order(p, ctx, t1, t2)
        worst_res.append(_dev(*parallelogram_residuals(p, ctx, t1, t2, t3)))
        worst_comp.append(_dev(ominus_first_order(p, ctx, t1, t3) - t2))
    lk = np.log(ks)
    slope_r = float(np.polyfit(lk, np.log(worst_res), 1)[0])
    slope_c = float(np.polyfit(lk, np.log(worst_comp), 1)[0])
    dev = max(abs(slope_r - 2.0), abs(slope_c - 2.0))
    return m, dev


def check_ominus(par, ctx, rng, trials, tol):
    t1, t3 = draw_pairs(rng, ctx, par, trials, min_cos=0.05)
    far = _norms(ctx, t3 - t1) >= 0.05  # the pairs checked
    t1, t3 = t1[far], t3[far]
    v = t3 - t1
    k = 1.0 / par.h - 1.0
    diff = ominus_first_order(par, ctx, t1, t3) - v
    if k == 0.0:
        return len(v), _dev(diff)
    s_vec = diff / k
    _, _, _, u13, ang_a = _pair_dots(t1, t3, ctx.r_pq)
    _, _, _, u_v3, ang_b = _pair_dots(v, t3, ctx.r_pq)
    return len(v), _dev(
        _dots(v, s_vec, ctx.r_pq) - u13 * ang_a,
        _dots(t1, s_vec, ctx.r_pq) - u13 * ang_b,
        u_v3 - u13,
    )


def check_parallelogram_refine(par, ctx, rng, trials, tol):
    m = _budget(trials, 4)
    t1, t2 = draw_pairs(rng, ctx, par, m, min_cos=0.1)
    t3 = parallelogram_refine(par, ctx, t1, t2)
    r1, r2 = parallelogram_residuals(par, ctx, t1, t2, t3)
    if par.g == 0.0:
        return m, _dev(r1, r2, t3 - (t1 + t2))
    k = 1.0 / par.h - 1.0
    gap = np.max(np.abs(t3 - oplus_first_order(par, ctx, t1, t2)), axis=-1)
    scale = np.maximum(_norms(ctx, t1), _norms(ctx, t2))
    return m, _dev(r1, r2, np.maximum(0.0, gap - 60.0 * k * k * scale) * 1e-3)


def check_finsler_product(par, ctx, rng, trials, tol):
    r_vec, s_vec_ = np.moveaxis(_vector_pairs(rng, ctx, trials), 1, 0)
    lam, mu = rng.uniform(0.2, 3.0, (2, trials, 1))
    # the pairs (R, S), (R, R) and (lam R, mu S) in one call
    pp = finsler_product(
        par, ctx, np.stack([r_vec, r_vec, lam * r_vec]), np.stack([s_vec_, r_vec, mu * s_vec_])
    )
    product, self_product, scaled_product = pp.product
    t1 = sigma_map(par, ctx, r_vec)
    t2 = sigma_map(par, ctx, s_vec_)
    # (R, R) is image-collinear, so the stacked record has no s_r: s_vector
    # runs on the image-independent pairs, its precondition
    indep = _independent(par, pp.alpha[0])
    s_r = s_vector(par, ctx, r_vec[indep], s_vec_[indep])
    return trials, _dev(
        product - scalar_product(par, ctx, t1, t2),
        pp.alpha[0] - angle(par, ctx, t1, t2),
        self_product - kfun(par, ctx, r_vec) ** 2,
        np.einsum("ip,ip->i", pp.m_r[0], r_vec),
        np.maximum(-(pp.w[0] ** 2), 0.0),
        (scaled_product - lam[:, 0] * mu[:, 0] * product) / np.maximum(np.abs(product), 1.0),
        np.einsum("ip,ip->i", s_r, r_vec[indep]),
    )


def _independent(par, alpha):
    """Flags the pairs of angle alpha whose images are independent, by the
    pair kernels' own guard: sin(h alpha) > _COLLINEAR_TOL."""
    return np.sin(par.h * alpha) > _COLLINEAR_TOL


def _kept_pairs(rng, ctx, m, trials, admit, **kw):
    """m vector pairs (R1, R2), each (m, N), of _vector_pairs draws with
    the draw_vectors options kw, those that admit(R1, R2) flags."""
    draw = lambda: _vector_pairs(rng, ctx, m, **kw)
    kept = _admitted(_refills(draw, m, trials), lambda s: admit(s[:, 0], s[:, 1]), m)
    return kept[:, 0], kept[:, 1]


def check_finsler_gradients(par, ctx, rng, trials, tol):
    m = _budget(trials, 8)
    admit = lambda r, s: _independent(par, finsler_angle(par, ctx, r, s))
    r, s = _kept_pairs(rng, ctx, m, trials, admit, min_frac=0.15, unit=True)
    d_r, d_s = product_gradients(par, ctx, r, s)
    fprod = lambda x, y: finsler_product(par, ctx, x, y).product
    fd_r = numdiff.gradient(lambda x: fprod(x, s), r)
    fd_s = numdiff.gradient(lambda y: fprod(r, y), s)
    # the simplified M against its unsimplified display
    mv = m_vector(par, ctx, r, s)
    sb_r = scalar_bundle(par, ctx, r)
    sb_s = scalar_bundle(par, ctx, s)
    col = lambda x: x[:, None]
    num = sb_r.A * sb_s.A + par.h**2 * _dots(r[:, :-1], s[:, :-1], ctx.r_ab)
    h2mn = sb_r.B * sb_s.A - num * sb_r.A
    h2ma = (
        col(sb_r.B) * (0.5 * par.g * r[:, :-1] / col(sb_r.q) * col(sb_s.A) + par.h**2 * s[:, :-1])
        - col(num * (0.5 * par.g * r[:, -1] + sb_r.q)) * r[:, :-1] / col(sb_r.q)
    ) @ ctx.r_ab
    return m, _dev(
        par.h**2 * mv[:, -1] - h2mn, par.h**2 * mv[:, :-1] - h2ma, (d_r - fd_r) * 1e-3, (d_s - fd_s) * 1e-3
    )


def check_finsler_two_vector(par, ctx, rng, trials, tol):
    m = _budget(trials, 8)

    def admit(r, s):  # image pairs independent and at most 0.9 pi apart
        al = angle(par, ctx, sigma_map(par, ctx, r), sigma_map(par, ctx, s))
        return (al <= 0.9 * math.pi) & _independent(par, al)

    r, s = _kept_pairs(rng, ctx, m, trials, admit, min_frac=0.1, unit=True)
    big_g = finsler_two_vector_tensor(par, ctx, r, s)
    sj_r = sigma_jacobian(par, ctx, r)
    sj_s = sigma_jacobian(par, ctx, s)
    ntv = two_vector_metric(par, ctx, sigma_map(par, ctx, r), sigma_map(par, ctx, s)).n_lower
    d_r, d_s = product_gradients(par, ctx, r, s)
    fd = numdiff.mixed_second(lambda x, y: finsler_product(par, ctx, x, y).product, r, s)
    swapped = np.swapaxes(finsler_two_vector_tensor(par, ctx, s, r), 1, 2)
    return m, _dev(
        big_g - np.einsum("irp,isq,irs->ipq", sj_r, sj_s, ntv),
        # Euler contractions (<R, S> is 1-homogeneous in each argument)
        _lower(big_g, r) - d_s,
        (big_g @ s[:, :, None])[:, :, 0] - d_r,
        (big_g - swapped) * 1e-2,
        (big_g - fd) * 1e-2,
    )


def check_finsler_coincidence(par, ctx, rng, trials, tol):
    m = _budget(trials, 16)
    r_vec = draw_vectors(rng, ctx, m, min_frac=0.15, unit=True)
    v = 0.3 * draw_vectors(rng, ctx, m, unit=True)
    eps = np.array([1e-1, 1e-2, 1e-3])[:, None, None]
    big_g = finsler_two_vector_tensor(par, ctx, r_vec, r_vec + eps * v)
    err = np.max(np.abs(big_g - metric_tensor(par, ctx, r_vec)), axis=(2, 3))  # (eps, sample)
    if par.g == 0.0:
        # identically the euclidean tensor; only FD noise remains
        return m, _dev(err * 1e-6)
    rising = (err[1:] >= err[:-1]) & (err[:-1] > 1e-8)
    return m, 1.0 if rising.any() else 0.0


def _has_chord(par, ctx, t1, t2, min_c=0.0):
    """Flags the pairs solve_chord takes, by its own guards, whose chord
    keeps its closest approach to the origin, sqrt(a^2 - b^2), at least
    min_c max(a, s_end)."""
    _, a, s_end, _, _, b, wide, coincident = _chord_terms(par, ctx, t1, t2)
    return ~wide & ~coincident & (np.sqrt(np.maximum(a**2 - b**2, 0.0)) >= min_c * np.maximum(a, s_end))


def _chord_pairs(par, ctx, rng, m, trials, min_c=0.0):
    """m vector pairs (R1, R2), each (m, N), whose image pairs _has_chord flags."""
    admit = lambda r1, r2: _has_chord(par, ctx, sigma_map(par, ctx, r1), sigma_map(par, ctx, r2), min_c)
    return _kept_pairs(rng, ctx, m, trials, admit)


def check_finsler_geodesic(par, ctx, rng, trials, tol):
    m = _budget(trials, 4)
    r1, r2 = _chord_pairs(par, ctx, rng, m, trials)
    ds = finsler_chord(par, ctx, r1, r2).delta_s
    pts = finsler_geodesic(par, ctx, r1, r2, np.stack([np.zeros(m), ds], axis=-1))
    return m, _dev(pts[:, 0] - r1, pts[:, -1] - r2)


def check_finsler_arc(par, ctx, rng, trials, tol):
    res = []
    m = _budget(trials, 16)
    segs = 3000  # pullback paths can graze the axis, where quadrature converges slower
    # the composite rule needs the integrand smooth: keep the chord's
    # closest approach to the origin bounded (same guard as the ODE check)
    chords = finsler_chord(par, ctx, *_chord_pairs(par, ctx, rng, m, trials, min_c=0.3))
    for i in range(m):  # integrated one chord at a time, to keep the metric tensors small
        ch = chords[i]
        pts = mu_map(par, ctx, geodesic_point(ch, np.linspace(0.0, ch.delta_s, segs + 1)))
        dp = pts[1:] - pts[:-1]
        gm = metric_tensor(par, ctx, 0.5 * (pts[1:] + pts[:-1]))
        total = float(np.sqrt(np.maximum(np.einsum("ip,ipq,iq->i", dp, gm, dp), 0.0)).sum())
        res.append(abs(total - ch.delta_s) / ch.delta_s)
    return m, _dev(res)


def check_axis_angles(par, ctx, rng, trials, tol):
    e_n = np.zeros(ctx.n)
    e_n[-1] = 1.0
    r_vec = draw_vectors(rng, ctx, trials)
    a_axis, a_plane = axis_angles(par, ctx, r_vec)
    top = math.pi / par.h
    return trials, _dev(
        a_axis - finsler_angle(par, ctx, r_vec, e_n),
        np.maximum(-a_axis, 0.0),
        np.maximum(a_axis - top, 0.0),
        np.maximum(-a_plane, 0.0),
        np.maximum(a_plane - top, 0.0),
        # the axis vector itself
        axis_angles(par, ctx, e_n)[0],
    )


def check_euclidean_degeneration(par, ctx, rng, trials, tol):
    # meaningful at any g but only a degeneration statement at g = 0
    p0 = make_parameter(0.0)
    v, w = np.moveaxis(_vector_pairs(rng, ctx, trials), 1, 0)
    dot = lambda x, y: _dots(x, y, ctx.r_pq)
    sv, sw = _norms(ctx, v), _norms(ctx, w)
    al = angle(p0, ctx, v, w)
    # the first-order sum and difference need an acute, independent pair
    ok = (np.sin(al) > _COLLINEAR_TOL) & (al < 0.5 * math.pi)
    vo, wo = v[ok], w[ok]
    # the chords, of the pairs that have one, at their midpoints
    has = _has_chord(p0, ctx, v, w)
    vc, wc = v[has], w[has]
    ch = solve_chord(p0, ctx, vc, wc)
    s = 0.5 * ch.delta_s
    lerp = vc + (wc - vc) * (s / ch.delta_s)[:, None]
    return trials, _dev(
        kfun(p0, ctx, v) - sv,
        metric_tensor(p0, ctx, v) - ctx.r_pq,
        quasi_metric(p0, ctx, v).n_lower - ctx.r_pq,
        sigma_map(p0, ctx, v) - v,
        al - np.arccos(np.clip(dot(v, w) / (sv * sw), -1.0, 1.0)),
        scalar_product(p0, ctx, v, w) - dot(v, w),
        distance_squared(p0, ctx, v, w) - dot(v - w, v - w),
        oplus_first_order(p0, ctx, vo, wo) - (vo + wo),
        ominus_first_order(p0, ctx, vo, wo) - (wo - vo),
        geodesic_point(ch, s[:, None])[:, 0] - lerp,
    )


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
