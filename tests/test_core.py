"""Scalar layer: parameter algebra, the quadratic form, Phi branches,
the metric function and the generating function."""

import math

import numpy as np
import pytest

import finsleroid as fl
from finsleroid import numdiff
from finsleroid.oracles import _phi_a_form, _phi_lz_form, _phi_qz_form

GRID = [0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 1.9, -1.9]


def test_parameter_euclidean_degeneration():
    p = fl.make_parameter(0.0)
    assert p.h == 1.0
    assert p.big_g == 0.0
    assert p.g_plus == 1.0
    assert p.g_minus == -1.0
    assert p.gamma == 0.0


def test_parameter_derived_values():
    p = fl.make_parameter(1.0)
    assert p.h == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)
    assert p.big_g == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-15)


def test_parameter_sign_flip_exchanges_roots():
    p = fl.make_parameter(1.2)
    m = fl.make_parameter(-1.2)
    assert m.g_plus == pytest.approx(-p.g_minus, abs=1e-15)
    assert m.g_minus == pytest.approx(-p.g_plus, abs=1e-15)


@pytest.mark.parametrize("g", GRID)
def test_parameter_identities(g):
    p = fl.make_parameter(g)
    assert p.g_plus + p.g_minus == pytest.approx(g, abs=1e-14)
    assert p.g_plus - p.g_minus == pytest.approx(2 * p.h, abs=1e-14)
    assert p.g_plus**2 + p.g_minus**2 == pytest.approx(2.0, abs=1e-14)
    assert p.g_up_plus**2 + p.g_up_minus**2 == pytest.approx(2.0, abs=1e-14)
    assert p.h**2 == pytest.approx(1.0 - g * g / 4.0, abs=1e-15)


@pytest.mark.parametrize("g", [2.0, -2.0, 2.5, float("nan"), float("inf")])
def test_parameter_out_of_range(g):
    with pytest.raises(fl.OutOfRangeError):
        fl.make_parameter(g)


def test_q_norm_euclidean(ctx3):
    assert fl.q_norm(ctx3, np.array([3.0, 4.0, 7.5])) == pytest.approx(5.0, abs=1e-15)
    assert fl.q_norm(ctx3, np.array([0.0, 0.0, 2.0])) == 0.0


def test_q_norm_general_metric():
    ctx = fl.MetricContext(3, np.diag([2.0, 1.0]))
    assert fl.q_norm(ctx, np.array([1.0, 1.0, 0.3])) == pytest.approx(math.sqrt(3.0), abs=1e-15)


def test_q_norm_positive_definite(rng, ctx3):
    # q >= 0 with equality only for vanishing bold part
    for _ in range(200):
        v = rng.uniform(-1, 1, 3)
        q = fl.q_norm(ctx3, v)
        assert q >= 0.0
        assert (q == 0.0) == bool(np.all(v[:-1] == 0.0))


def test_context_validation():
    with pytest.raises(fl.OutOfRangeError):
        fl.MetricContext(1)
    with pytest.raises(fl.NumericalDomainError):
        fl.MetricContext(3, np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(fl.NumericalDomainError):
        fl.MetricContext(3, np.array([[1.0, 0.0], [0.0, -1.0]]))  # not positive definite


def test_zero_vector_rejected(ctx3):
    par = fl.make_parameter(0.7)
    with pytest.raises(fl.ZeroVectorError):
        fl.scalar_bundle(par, ctx3, np.zeros(3))
    with pytest.raises(fl.OutOfRangeError):
        fl.scalar_bundle(par, ctx3, np.array([1.0, np.nan, 0.0]))


def test_bundle_on_axis(ctx3):
    # q = 0: Phi = +-pi/2, K = |Z| exp(+-G pi/4)
    par = fl.make_parameter(1.0)
    up = fl.scalar_bundle(par, ctx3, np.array([0.0, 0.0, 1.0]))
    down = fl.scalar_bundle(par, ctx3, np.array([0.0, 0.0, -1.0]))
    assert up.phi == pytest.approx(math.pi / 2, abs=1e-15)
    assert down.phi == pytest.approx(-math.pi / 2, abs=1e-15)
    assert up.K == pytest.approx(math.exp(par.big_g * math.pi / 4), rel=1e-15)
    assert not math.isnan(fl.scalar_bundle(par, ctx3, np.array([1.0, 0.0, 0.5])).Q)
    assert math.isnan(fl.scalar_bundle(par, ctx3, np.array([1.0, 1.0, 0.0])).Q)


def test_euclidean_norm_at_g_zero(rng, ctx3):
    par = fl.make_parameter(0.0)
    for _ in range(100):
        v = rng.uniform(-1, 1, 3)
        if not np.any(v):
            continue
        assert fl.kfun(par, ctx3, v) == pytest.approx(ctx3.s_norm(v), abs=1e-15)


@pytest.mark.parametrize("g", GRID)
def test_bundle_identities(g, rng, ctx3):
    par = fl.make_parameter(g)
    for _ in range(50):
        v = rng.uniform(-1, 1, 3)
        if ctx3.s_norm(v) < 0.1:
            continue
        sb = fl.scalar_bundle(par, ctx3, v)
        assert sb.A**2 + par.h**2 * sb.q**2 == pytest.approx(sb.B, rel=1e-13)
        assert sb.L**2 + par.h**2 * v[-1] ** 2 == pytest.approx(sb.B, rel=1e-13)
        assert -math.pi / 2 <= sb.phi <= math.pi / 2
        assert sb.K == pytest.approx(math.sqrt(sb.B) * sb.J, rel=1e-15)
        assert sb.B > 0.0
        if v[-1] != 0.0:
            w = sb.q / v[-1]
            assert sb.Q == pytest.approx(1 + g * w + w * w, rel=1e-12)
            assert sb.E**2 + par.h**2 * w * w == pytest.approx(sb.Q, rel=1e-12)
            assert abs(v[-1]) * fl.generating_v(par, w) == pytest.approx(sb.K, rel=1e-13)


@pytest.mark.parametrize("g", GRID)
def test_phi_branch_families_agree(g, rng, ctx3):
    par = fl.make_parameter(g)
    for _ in range(200):
        v = rng.uniform(-1, 1, 3)
        if ctx3.s_norm(v) < 0.1 or v[-1] == 0.0:
            continue
        q, z = ctx3.m(v), v[-1]
        phi = fl.phi_function(par, q, z)
        assert phi == pytest.approx(_phi_qz_form(par, q, z), abs=1e-12)
        assert phi == pytest.approx(_phi_lz_form(par, q, z), abs=1e-12)
        a = z + 0.5 * g * q
        if (a > 0) == (z > 0) and a != 0.0:
            assert phi == pytest.approx(_phi_a_form(par, q, z), abs=1e-12)
        if a != 0.0 and abs(math.sin(phi)) > 1e-6:
            cot = math.cos(phi) / math.sin(phi)
            assert cot == pytest.approx(par.h * q / a, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("g", GRID)
def test_phi_plane_value(g):
    par = fl.make_parameter(g)
    assert fl.phi_function(par, 2.3, 0.0) == pytest.approx(math.atan(par.big_g / 2), abs=1e-14)


@pytest.mark.parametrize("g", GRID)
def test_gz_parity_and_reflection(g, rng, ctx3):
    par = fl.make_parameter(g)
    flipped = fl.make_parameter(-g)
    for _ in range(100):
        v = rng.uniform(-1, 1, 3)
        if ctx3.s_norm(v) < 0.1:
            continue
        mirrored = v.copy()
        mirrored[-1] *= -1.0
        assert fl.kfun(flipped, ctx3, mirrored) == pytest.approx(fl.kfun(par, ctx3, v), rel=1e-14)
        reflected = v.copy()
        reflected[:-1] *= -1.0
        assert fl.kfun(par, ctx3, reflected) == pytest.approx(fl.kfun(par, ctx3, v), rel=1e-15)


def test_generating_v_euclidean():
    assert fl.generating_v(fl.make_parameter(0.0), 0.0) == 1.0


@pytest.mark.parametrize("g", [0.3, -0.9, 1.4])
def test_generating_v_matches_metric_function(g, rng):
    # |Z| V(q/Z) = K in 2D, both hemispheres
    par = fl.make_parameter(g)
    ctx = fl.MetricContext(2)
    for _ in range(100):
        z = rng.uniform(-2, 2)
        q = rng.uniform(0, 2)
        if abs(z) < 1e-3 or q + abs(z) < 0.1:
            continue
        w = q / z
        k = fl.kfun(par, ctx, np.array([q, z]))
        assert abs(z) * fl.generating_v(par, w) == pytest.approx(k, rel=1e-13)


@pytest.mark.parametrize("g", [0.0, 0.8, -1.2, 1.5])
def test_generating_derivative_identities(g, rng):
    par = fl.make_parameter(g)
    for w in rng.uniform(-3, 3, 40):
        if abs(w) < 1e-2:
            continue
        qw = 1 + g * w + w * w
        v = fl.generating_v(par, w)
        vfun = lambda x: fl.generating_v(par, float(x))
        assert float(numdiff.derivative(vfun, w)) == pytest.approx(w * v / qw, rel=2e-8, abs=1e-8)
        assert float(numdiff.second_derivative(vfun, w)) == pytest.approx(
            v / qw**2, rel=1e-5, abs=1e-5
        )
        jfun = lambda x: fl.generating_j(par, float(x))
        assert float(numdiff.derivative(jfun, w)) == pytest.approx(
            -0.5 * g * fl.generating_j(par, w) / qw, rel=2e-8, abs=1e-8
        )
        v2q = lambda x: vfun(x) ** 2 / (1 + g * x + x * x)
        assert float(numdiff.derivative(v2q, w)) == pytest.approx(
            -g * v * v / qw**2, rel=2e-8, abs=1e-8
        )
        v2q2 = lambda x: vfun(x) ** 2 / (1 + g * x + x * x) ** 2
        assert float(numdiff.derivative(v2q2, w)) == pytest.approx(
            -2 * (g + w) * v * v / qw**3, rel=2e-7, abs=2e-7
        )
