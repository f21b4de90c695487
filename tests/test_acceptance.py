"""Acceptance battery: every criterion of the build contract, run at its
stated tolerance over g in {0, +-0.5, +-1.0, +-1.5} and N in {2, 3, 5}
with seeded sampling, one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
suite progresses (they are also captured in the failure report).
"""

import math

import numpy as np
import pytest

import finsleroid as fl
from finsleroid import numdiff
from finsleroid.twovector import co_orientation, two_vector_determinant_reference
from finsleroid.verify import RunConfig, draw_pair, draw_vector, report_to_json, run_verify

GS = [0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5]
NS = [2, 3, 5]
PER_COMBO = 10  # 7 g-values x 3 dimensions x 10 = 210 samples per check


def combos(criterion):
    for gi, g in enumerate(GS):
        for ni, n in enumerate(NS):
            par = fl.make_parameter(g)
            ctx = fl.MetricContext(n)
            rng = np.random.default_rng(np.random.SeedSequence([criterion, gi, ni]))
            yield par, ctx, rng


def report(number, description, worst, tol):
    status = "PASS" if worst < tol else "FAIL"
    print(f"[acceptance] criterion {number:2d} {status}: {description} "
          f"(max residual {worst:.3e}, tol {tol:.0e})")
    assert worst < tol, f"criterion {number}: {worst:.3e} >= {tol:.0e}"


def test_criterion_01_euclidean_degeneration():
    par = fl.make_parameter(0.0)
    worst = 0.0
    for n in NS:
        ctx = fl.MetricContext(n)
        rng = np.random.default_rng(np.random.SeedSequence([1, n]))
        for _ in range(70):
            v = draw_vector(rng, ctx)
            w = draw_vector(rng, ctx)
            worst = max(
                worst,
                abs(fl.kfun(par, ctx, v) - ctx.s_norm(v)),
                float(np.max(np.abs(fl.metric_tensor(par, ctx, v) - ctx.r_pq))),
                float(np.max(np.abs(fl.quasi_metric(par, ctx, v).n_lower - ctx.r_pq))),
                float(np.max(np.abs(fl.sigma_map(par, ctx, v) - v))),
                abs(fl.scalar_product(par, ctx, v, w) - ctx.dot(v, w)),
                abs(fl.distance_squared(par, ctx, v, w) - ctx.dot(v - w, v - w)),
            )
            e = ctx.dot(v, w) / (ctx.s_norm(v) * ctx.s_norm(w))
            worst = max(worst, abs(fl.angle(par, ctx, v, w) - math.acos(max(min(e, 1), -1))))
            try:
                ch = fl.solve_chord(par, ctx, v, w)
                s = 0.5 * ch.delta_s
                lerp = v + (w - v) * 0.5
                worst = max(worst, float(np.max(np.abs(fl.geodesic_point(ch, s) - lerp))))
            except fl.FinsleroidError:
                pass
            try:
                worst = max(
                    worst,
                    float(np.max(np.abs(fl.oplus_first_order(par, ctx, v, w) - (v + w)))),
                    float(np.max(np.abs(fl.ominus_first_order(par, ctx, v, w) - (w - v)))),
                )
            except fl.FinsleroidError:
                pass
    report(1, "euclidean degeneration at g = 0", worst, 1e-12)


def test_criterion_02_hessian_consistency():
    worst = 0.0
    for par, ctx, rng in combos(2):
        for _ in range(PER_COMBO):
            v = draw_vector(rng, ctx, min_frac=0.15)
            v = v / fl.kfun(par, ctx, v)
            gm = fl.metric_tensor(par, ctx, v)
            fd = 0.5 * numdiff.hessian(lambda x: fl.kfun(par, ctx, x) ** 2, v)
            worst = max(worst, float(np.max(np.abs(gm - fd)) / np.max(np.abs(gm))))
    report(2, "metric tensor equals half the Hessian of K^2 (relative)", worst, 1e-6)


def test_criterion_03_determinant_identities():
    worst = 0.0
    for par, ctx, rng in combos(3):
        det_r = float(np.linalg.det(ctx.r_ab))
        target_n = par.h ** (2 * (1 - ctx.n)) * det_r
        for _ in range(PER_COMBO):
            v = draw_vector(rng, ctx)
            det_g = float(np.linalg.det(fl.metric_tensor(par, ctx, v)))
            target_g = fl.scalar_bundle(par, ctx, v).J ** (2 * ctx.n) * det_r
            det_n = float(np.linalg.det(fl.quasi_metric(par, ctx, v).n_lower))
            worst = max(
                worst,
                abs(det_g - target_g) / abs(target_g),
                abs(det_n - target_n) / abs(target_n),
            )
    report(3, "determinants of the metric and image tensors (relative)", worst, 1e-10)


def test_criterion_04_cartan_structure():
    worst_alg = 0.0
    worst_cc = 0.0
    for par, ctx, rng in combos(4):
        for _ in range(PER_COMBO):
            v = draw_vector(rng, ctx, min_frac=1e-9, unit=True)
            ct = fl.cartan_tensor(par, ctx, v)
            k2 = fl.kfun(par, ctx, v) ** 2
            cc = float(ct.c_vec_lower @ ct.c_vec_upper)
            target = ctx.n**2 * par.g**2 / (4 * k2)
            if target != 0.0:
                worst_cc = max(worst_cc, abs(cc - target) / target)
                ha = fl.angular_tensor(par, ctx, v)
                cv = ct.c_vec_lower
                alg = (
                    np.einsum("pq,r->pqr", ha, cv)
                    + np.einsum("pr,q->pqr", ha, cv)
                    + np.einsum("qr,p->pqr", ha, cv)
                    - np.einsum("p,q,r->pqr", cv, cv, cv) / cc
                ) / ctx.n
                worst_alg = max(worst_alg, float(np.max(np.abs(ct.c_lower - alg))))
            else:
                worst_cc = max(worst_cc, abs(cc))
                worst_alg = max(worst_alg, float(np.max(np.abs(ct.c_lower))))
    report(4, "Cartan algebraic form", worst_alg, 1e-8)
    report(4, "Cartan contraction constant (relative)", worst_cc, 1e-10)


def test_criterion_05_curvature_constants():
    worst = 0.0
    for par, ctx, rng in combos(5):
        star = -0.25 * par.g**2
        assert 1.0 + star == pytest.approx(par.h**2, abs=1e-15)  # level-surface curvature
        for _ in range(PER_COMBO):
            v = draw_vector(rng, ctx, min_frac=1e-9, unit=True)
            s4 = fl.curvature_tensor(par, ctx, v)
            ha = fl.angular_tensor(par, ctx, v)
            k2 = fl.kfun(par, ctx, v) ** 2
            closed = star * (
                np.einsum("pr,qs->pqrs", ha, ha) - np.einsum("ps,qr->pqrs", ha, ha)
            ) / k2
            worst = max(worst, float(np.max(np.abs(s4 - closed))))
    report(5, "curvature tensor has the constant rank-one structure", worst, 1e-8)


def test_criterion_06_diffeomorphism():
    worst_rt = 0.0
    worst_norm = 0.0
    worst_det = 0.0
    for par, ctx, rng in combos(6):
        for _ in range(PER_COMBO):
            v = draw_vector(rng, ctx)
            t = draw_vector(rng, ctx)
            worst_rt = max(
                worst_rt,
                float(np.max(np.abs(fl.mu_map(par, ctx, fl.sigma_map(par, ctx, v)) - v))),
                float(np.max(np.abs(fl.sigma_map(par, ctx, fl.mu_map(par, ctx, t)) - t))),
            )
            worst_norm = max(
                worst_norm, abs(ctx.s_norm(fl.sigma_map(par, ctx, v)) - fl.kfun(par, ctx, v))
            )
            v2 = draw_vector(rng, ctx, min_frac=0.05)
            sj = fl.sigma_jacobian(par, ctx, v2)
            target = par.h ** (ctx.n - 1) * fl.scalar_bundle(par, ctx, v2).J ** ctx.n
            worst_det = max(worst_det, abs(float(np.linalg.det(sj)) - target) / abs(target))
    report(6, "map roundtrips", worst_rt, 1e-10)
    report(6, "image norm equals the metric function", worst_norm, 1e-12)
    report(6, "map jacobian determinant (relative)", worst_det, 1e-10)


def test_criterion_07_quasi_euclidean_geometry():
    worst_chr = 0.0
    worst_curv = 0.0
    worst_conf = 0.0
    for par, ctx, rng in combos(7):
        for _ in range(PER_COMBO):
            t = draw_vector(rng, ctx)
            qg = fl.quasi_metric(par, ctx, t)
            nc = qg.christoffel
            worst_chr = max(
                worst_chr,
                float(np.max(np.abs(np.einsum("p,prq->rq", t, nc)))),
                float(np.max(np.abs(np.einsum("pss->p", nc)))),
            )
            kj = fl.conformal_jacobian(par, ctx, t)
            _, f = fl.conformal_flatten(par, ctx, t)
            push = np.einsum("pr,qs,rs->pq", kj, kj, qg.n_upper)
            worst_conf = max(worst_conf, float(np.max(np.abs(push - f * f * ctx.r_pq_inv))))
        for _ in range(PER_COMBO):
            t = draw_vector(rng, ctx, unit=True)
            qg = fl.quasi_metric(par, ctx, t)
            dg = numdiff.jacobian(numdiff.rowwise(lambda x: fl.quasi_metric(par, ctx, x).christoffel), t)
            nc = qg.christoffel
            mixed = (
                dg
                - np.transpose(dg, (0, 1, 3, 2))
                + np.einsum("pwq,wrs->prqs", nc, nc)
                - np.einsum("pws,wrq->prqs", nc, nc)
            )
            lowered = np.einsum("rw,pwqs->prqs", ctx.r_pq, mixed)
            worst_curv = max(worst_curv, float(np.max(np.abs(lowered - qg.curvature))))
    report(7, "Christoffel annihilation and trace", worst_chr, 1e-12)
    report(7, "curvature closed form vs finite differences", worst_curv, 1e-6)
    report(7, "conformal flattening pushforward", worst_conf, 1e-8)


def test_criterion_08_geodesics():
    worst_end = 0.0
    worst_ode = 0.0
    worst_unit = 0.0
    worst_radial = 0.0
    worst_arc = 0.0
    for par, ctx, rng in combos(8):
        for _ in range(PER_COMBO):
            t1, t2 = draw_pair(rng, ctx, par, unit=True, max_alpha=0.95 * math.pi)
            ch = fl.solve_chord(par, ctx, t1, t2)
            worst_end = max(
                worst_end,
                float(np.max(np.abs(fl.geodesic_point(ch, 0.0) - t1))),
                float(np.max(np.abs(fl.geodesic_point(ch, ch.delta_s) - t2))),
            )
            svals = np.linspace(0.15, 0.85, 3) * ch.delta_s
            pts = fl.geodesic_point(ch, svals)
            vel = fl.geodesic_velocity(ch, svals)
            c2 = ch.a**2 - ch.b**2
            for i, s in enumerate(svals):
                worst_radial = max(worst_radial, abs(ctx.dot(pts[i], vel[i]) - (ch.b + s)))
                ng = fl.quasi_metric(par, ctx, pts[i]).n_lower
                worst_unit = max(worst_unit, abs(vel[i] @ ng @ vel[i] - 1.0))
                if ch.radius(float(s)) >= 0.3 * max(ch.a, ch.s_end):
                    d2 = numdiff.second_derivative(lambda x: fl.geodesic_point(ch, x), float(s))
                    rhs = 0.25 * par.g**2 * c2 * pts[i] / ch.radius(float(s)) ** 4
                    worst_ode = max(worst_ode, float(np.max(np.abs(d2 - rhs))))
        for _ in range(PER_COMBO):
            t1, t2 = draw_pair(rng, ctx, par, unit=True, max_alpha=0.95 * math.pi)
            ch = fl.solve_chord(par, ctx, t1, t2)
            sg = np.linspace(0.0, ch.delta_s, 1001)
            pts = fl.geodesic_point(ch, sg)
            mid = 0.5 * (pts[1:] + pts[:-1])
            dp = pts[1:] - pts[:-1]
            s_mid = np.sqrt(np.einsum("ip,pq,iq->i", mid, ctx.r_pq, mid))
            dr2 = np.einsum("ip,pq,iq->i", dp, ctx.r_pq, dp)
            ldot = np.einsum("ip,pq,iq->i", mid, ctx.r_pq, dp) / s_mid
            length = float(np.sum(np.sqrt(dr2 / par.h**2 - 0.25 * par.big_g**2 * ldot**2)))
            worst_arc = max(worst_arc, abs(length - ch.delta_s) / ch.delta_s)
    report(8, "closed-form geodesics hit endpoints", worst_end, 1e-10)
    report(8, "geodesic equation residual by finite differences", worst_ode, 1e-6)
    report(8, "unit speed in the image metric", worst_unit, 1e-8)
    report(8, "radial product t . t' = b + s", worst_radial, 1e-9)
    report(8, "integrated arc length equals the parameter length (relative)", worst_arc, 1e-5)


def test_criterion_09_angle():
    worst_add = 0.0
    worst_scale = 0.0
    worst_limit = 0.0
    for par, ctx, rng in combos(9):
        for _ in range(PER_COMBO):
            t1, t3 = draw_pair(rng, ctx, par, max_alpha=0.9 * math.pi)
            lam, mu = rng.uniform(0.2, 2.0, 2)
            t2 = lam * t1 + mu * t3
            worst_add = max(
                worst_add,
                abs(
                    fl.angle(par, ctx, t1, t3)
                    - fl.angle(par, ctx, t1, t2)
                    - fl.angle(par, ctx, t2, t3)
                ),
            )
            worst_scale = max(
                worst_scale,
                abs(fl.angle(par, ctx, lam * t1, mu * t3) - fl.angle(par, ctx, t1, t3)),
            )
            t = draw_vector(rng, ctx, unit=True)
            v = draw_vector(rng, ctx, unit=True)
            inv = fl.pair_invariants(par, ctx, t, t + 1e-4 * v)
            ratio = (
                math.sqrt(inv.dot11 * inv.dot22) / par.h * math.sin(inv.alpha) / inv.u
            )
            worst_limit = max(worst_limit, abs(ratio - 1.0 / par.h**2))
    report(9, "angle additivity for coplanar ordered triples", worst_add, 1e-10)
    report(9, "angle scale invariance (to rounding)", worst_scale, 5e-13)
    report(9, "fundamental ratio limit at separation 1e-4", worst_limit, 1e-3)


def test_criterion_10_two_vector_tensor():
    worst_fd = 0.0
    worst_det = 0.0
    worst_coin = 0.0
    worst_deriv = 0.0
    worst_frame = 0.0
    for par, ctx, rng in combos(10):
        for _ in range(PER_COMBO):
            t1, t2 = draw_pair(rng, ctx, par, unit=True)
            tv = fl.two_vector_metric(par, ctx, t1, t2)
            fd = numdiff.mixed_second(lambda x, y: fl.scalar_product(par, ctx, x, y), t1, t2)
            worst_fd = max(worst_fd, float(np.max(np.abs(tv.n_lower - fd))))
        for _ in range(PER_COMBO):
            t1, t2 = draw_pair(rng, ctx, par)
            tv = fl.two_vector_metric(par, ctx, t1, t2)
            worst_det = max(
                worst_det,
                abs(
                    float(np.linalg.det(tv.n_lower))
                    - two_vector_determinant_reference(par, ctx, t1, t2)
                ),
            )
        # coincidence: monotone tensor limit plus the derivative-sum limit
        t = draw_vector(rng, ctx, unit=True)
        v = 0.3 * draw_vector(rng, ctx, unit=True)
        rep = fl.coincidence_limits(par, ctx, t, [1e-2, 1e-3, 1e-4], v)
        if par.g != 0.0 and not np.all(np.diff(rep.tensor_error) < 0):
            worst_coin = max(worst_coin, 1.0)
        worst_deriv = max(worst_deriv, rep.derivative_error[-1])
        # frame reconstruction and contractions
        done = 0
        while done < PER_COMBO:
            t1, t2 = draw_pair(rng, ctx, par, max_alpha=0.95 * math.pi)
            try:
                rec = fl.frame_reconstruct(par, ctx, t1, t2)
                fr = fl.frame(par, ctx, t1, t2)
            except fl.NumericalDomainError:
                continue
            done += 1
            tv = fl.two_vector_metric(par, ctx, t1, t2)
            inv = tv.pair
            s1, s2 = math.sqrt(inv.dot11), math.sqrt(inv.dot22)
            sa, ca = math.sin(inv.alpha), math.cos(inv.alpha)
            expected = (
                (s1 * s2 * sa / (par.h * inv.u)) * ctx.r_pq
                + (tv.a1 / (s1 * s2)) * np.outer(ctx.lower(t1), ctx.lower(t2))
                - (tv.a2 / (par.h * s1 * s2)) * np.outer(ctx.lower(inv.d2), ctx.lower(inv.d1))
            )
            worst_frame = max(worst_frame, float(np.max(np.abs(rec - expected))))
            p = math.sqrt(par.h * inv.dot12 * ca + inv.u * sa)
            m = math.sqrt(inv.dot12 * ca / par.h + inv.u * sa)
            norm = math.sqrt(par.h * s1 * s2)
            vb = ctx.vielbein
            pm_over_x = (par.h * ca - ca / par.h) / (p + m)
            worst_frame = max(
                worst_frame,
                float(np.max(np.abs(fr @ t2 - p * (vb @ t2) / norm))),
                float(np.max(np.abs((vb @ t1) @ fr - p * ctx.lower(t1) / norm))),
                float(np.max(np.abs(fr @ t1 - (inv.dot11 * pm_over_x * (vb @ t2) + m * (vb @ t1)) / norm))),
                float(np.max(np.abs((vb @ t2) @ fr - (inv.dot22 * pm_over_x * ctx.lower(t1) + m * ctx.lower(t2)) / norm))),
            )
    report(10, "two-vector tensor equals the mixed second derivative", worst_fd, 1e-5)
    report(10, "two-vector determinant closed form", worst_det, 1e-9)
    report(10, "coincidence limit decreases monotonically", worst_coin, 0.5)
    report(10, "derivative-sum limit at separation 1e-4", worst_deriv, 1e-4)
    report(10, "frame reconstruction and contractions", worst_frame, 1e-9)


def test_criterion_11_covariant_version():
    worst_def = 0.0
    worst_batt = 0.0
    worst_rt = 0.0
    worst_res = 0.0
    worst_fwd = 0.0
    for par, ctx, rng in combos(11):
        for _ in range(PER_COMBO):
            t1, t2 = draw_pair(rng, ctx, par, max_alpha=0.95 * math.pi, regime_margin=0.05)
            inv = fl.pair_invariants(par, ctx, t1, t2)
            cp = fl.covector_pair(par, ctx, t1, t2)
            tv = fl.two_vector_metric(par, ctx, t1, t2)
            worst_def = max(
                worst_def,
                float(np.max(np.abs(cp.T1 - tv.n_lower @ t2))),
                float(np.max(np.abs(cp.T2 - t1 @ tv.n_lower))),
            )
            tt11 = ctx.codot(cp.T1, cp.T1)
            tt22 = ctx.codot(cp.T2, cp.T2)
            tt12 = ctx.codot(cp.T1, cp.T2)
            ca, sa = math.cos(inv.alpha), math.sin(inv.alpha)
            cc, ss = ca * ca, sa * sa / par.h**2
            cap_u = math.sqrt(max(tt11 * tt22 - tt12**2, 0.0))
            eps = co_orientation(par, inv.alpha)
            worst_batt = max(
                worst_batt,
                abs(tt11 - inv.dot22 * (cc + ss)),
                abs(tt22 - inv.dot11 * (cc + ss)),
                abs(tt12 - ((cc - ss) * inv.dot12 + 2.0 / par.h * inv.u * sa * ca)),
                abs(eps * cap_u - (2.0 / par.h * inv.dot12 * sa * ca - (cc - ss) * inv.u)),
            )
            r1, r2 = fl.invert_covectors(par, ctx, cp.T1, cp.T2, inv.alpha)
            worst_rt = max(
                worst_rt, float(np.max(np.abs(r1 - t1))), float(np.max(np.abs(r2 - t2)))
            )
        for _ in range(PER_COMBO):
            t1, t2 = draw_pair(rng, ctx, par, main_regime=True)
            inv = fl.pair_invariants(par, ctx, t1, t2)
            cp = fl.covector_pair(par, ctx, t1, t2)
            al = fl.solve_co_angle(par, ctx, cp.T1, cp.T2)
            worst_fwd = max(worst_fwd, abs(al - inv.alpha))
            tt11 = ctx.codot(cp.T1, cp.T1)
            tt22 = ctx.codot(cp.T2, cp.T2)
            tt12 = ctx.codot(cp.T1, cp.T2)
            cap_u = math.sqrt(max(tt11 * tt22 - tt12**2, 0.0))
            ca, sa = math.cos(al), math.sin(al)
            cc, ss = ca * ca, sa * sa / par.h**2
            rhs = (
                (cc - ss) * tt12 + 2.0 / par.h * sa * ca * co_orientation(par, al) * cap_u
            ) / ((cc + ss) * math.sqrt(tt11 * tt22))
            worst_res = max(worst_res, abs(math.cos(par.h * al) - rhs))
    report(11, "co-vector closed forms vs the contraction definition", worst_def, 1e-10)
    report(11, "co-vector product battery", worst_batt, 1e-9)
    report(11, "inversion roundtrip t -> T -> t", worst_rt, 1e-8)
    report(11, "implicit co-angle equation residual", worst_res, 1e-12)
    report(11, "co-angle forward consistency", worst_fwd, 1e-9)


def test_criterion_12_parallelogram_law():
    # residual order study
    ks = [1e-1, 1e-2, 1e-3]
    ctx = fl.MetricContext(3)
    rng = np.random.default_rng(np.random.SeedSequence([12, 0]))
    par_big = fl.make_parameter(2.0 * math.sqrt(1.0 - (1.0 / (1.0 + ks[0])) ** 2))
    pairs = [draw_pair(rng, ctx, par_big, min_cos=0.2) for _ in range(12)]
    worst_res = []
    worst_comp = []
    for k in ks:
        h = 1.0 / (1.0 + k)
        p = fl.make_parameter(2.0 * math.sqrt(1.0 - h * h))
        w_r = w_c = 0.0
        for t1, t2 in pairs:
            t3 = fl.oplus_first_order(p, ctx, t1, t2)
            r1, r2 = fl.parallelogram_residuals(p, ctx, t1, t2, t3)
            w_r = max(w_r, abs(r1), abs(r2))
            w_c = max(w_c, float(np.max(np.abs(fl.ominus_first_order(p, ctx, t1, t3) - t2))))
        worst_res.append(w_r)
        worst_comp.append(w_c)
    slope_r = float(np.polyfit(np.log(ks), np.log(worst_res), 1)[0])
    slope_c = float(np.polyfit(np.log(ks), np.log(worst_comp), 1)[0])
    dev = max(abs(slope_r - 2.0), abs(slope_c - 2.0))
    report(12, f"first-order residual slopes (residual {slope_r:.3f}, compose {slope_c:.3f})", dev, 0.2 + 1e-12)

    worst_om = 0.0
    for par, ctx2, rng2 in combos(121):
        if par.g == 0.0:
            continue
        k = 1.0 / par.h - 1.0
        for _ in range(PER_COMBO + 2):
            t1, t3 = draw_pair(rng2, ctx2, par, min_cos=0.05)
            v = t3 - t1
            if ctx2.s_norm(v) < 0.05:
                continue
            s_vec = (fl.ominus_first_order(par, ctx2, t1, t3) - v) / k
            u13 = math.sqrt(
                max(ctx2.dot(t1, t1) * ctx2.dot(t3, t3) - ctx2.dot(t1, t3) ** 2, 0.0)
            )
            ang_a = math.acos(
                max(min(ctx2.dot(t1, t3) / (ctx2.s_norm(t1) * ctx2.s_norm(t3)), 1), -1)
            )
            ang_b = math.acos(
                max(min(ctx2.dot(v, t3) / (ctx2.s_norm(v) * ctx2.s_norm(t3)), 1), -1)
            )
            u_v3 = math.sqrt(max(ctx2.dot(v, v) * ctx2.dot(t3, t3) - ctx2.dot(v, t3) ** 2, 0.0))
            worst_om = max(
                worst_om,
                abs(ctx2.dot(v, s_vec) - u13 * ang_a),
                abs(ctx2.dot(t1, s_vec) - u13 * ang_b),
                abs(u_v3 - u13),
            )
    report(12, "difference-vector identities", worst_om, 1e-10)

    worst_ref = 0.0
    par = fl.make_parameter(0.2)
    for n in NS:
        ctx3 = fl.MetricContext(n)
        rng3 = np.random.default_rng(np.random.SeedSequence([122, n]))
        for _ in range(70):
            t1, t2 = draw_pair(rng3, ctx3, par, min_cos=0.1)
            t3 = fl.parallelogram_refine(par, ctx3, t1, t2)
            r1, r2 = fl.parallelogram_residuals(par, ctx3, t1, t2, t3)
            worst_ref = max(worst_ref, abs(r1), abs(r2))
    report(12, "refined sum vector residuals at g = 0.2", worst_ref, 1e-10)


def test_criterion_13_pullback_coherence():
    worst_prod = 0.0
    worst_pull = 0.0
    worst_mr = 0.0
    worst_axis = 0.0
    worst_coin = 0.0
    for par, ctx, rng in combos(13):
        e_n = np.zeros(ctx.n)
        e_n[-1] = 1.0
        for _ in range(PER_COMBO):
            r_vec = draw_vector(rng, ctx)
            s_vec = draw_vector(rng, ctx)
            pp = fl.finsler_product(par, ctx, r_vec, s_vec)
            t1 = fl.sigma_map(par, ctx, r_vec)
            t2 = fl.sigma_map(par, ctx, s_vec)
            worst_prod = max(
                worst_prod, abs(pp.product - fl.scalar_product(par, ctx, t1, t2))
            )
            worst_mr = max(worst_mr, abs(pp.m_r @ r_vec))
            a_axis, _ = fl.axis_angles(par, ctx, r_vec)
            worst_axis = max(worst_axis, abs(a_axis - fl.finsler_angle(par, ctx, r_vec, e_n)))
        done = 0
        while done < PER_COMBO:
            r_vec = draw_vector(rng, ctx, min_frac=0.1, unit=True)
            s_vec = draw_vector(rng, ctx, min_frac=0.1, unit=True)
            try:
                if fl.finsler_angle(par, ctx, r_vec, s_vec) > 0.9 * math.pi:
                    continue
                big_g = fl.finsler_two_vector_tensor(par, ctx, r_vec, s_vec)
                sj_r = fl.sigma_jacobian(par, ctx, r_vec)
                sj_s = fl.sigma_jacobian(par, ctx, s_vec)
                ntv = fl.two_vector_metric(
                    par, ctx, fl.sigma_map(par, ctx, r_vec), fl.sigma_map(par, ctx, s_vec)
                ).n_lower
            except fl.FinsleroidError:
                continue
            done += 1
            worst_pull = max(
                worst_pull,
                float(np.max(np.abs(big_g - np.einsum("rp,sq,rs->pq", sj_r, sj_s, ntv)))),
            )
        # coincidence of the pulled-back two-vector tensor
        if par.g != 0.0:
            r_vec = draw_vector(rng, ctx, min_frac=0.15, unit=True)
            v = 0.3 * draw_vector(rng, ctx, unit=True)
            errs = [
                float(
                    np.max(
                        np.abs(
                            fl.finsler_two_vector_tensor(par, ctx, r_vec, r_vec + eps * v)
                            - fl.metric_tensor(par, ctx, r_vec)
                        )
                    )
                )
                for eps in (1e-1, 1e-2, 1e-3)
            ]
            if not (errs[2] < errs[1] < errs[0]):
                worst_coin = max(worst_coin, 1.0)
    report(13, "scalar product equals the image scalar product", worst_prod, 1e-9)
    report(13, "two-vector tensor equals the jacobian pullback", worst_pull, 1e-8)
    report(13, "transverse covector annihilates the first argument", worst_mr, 1e-12)
    report(13, "axis angle consistent with the pair angle against the axis", worst_axis, 1e-10)
    report(13, "two-vector tensor coincidence limit decreases", worst_coin, 0.5)


def test_criterion_14_cli_determinism():
    config = RunConfig(g=1.0, dim=3, seed=42, trials=12)
    first = report_to_json(run_verify(config))
    second = report_to_json(run_verify(config))
    worst = 0.0 if first == second else 1.0
    report(14, "verification report bytes are reproducible for a fixed seed", worst, 0.5)
