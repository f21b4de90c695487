"""Scalar layer: parameter algebra, the quadratic form, Phi branches,
the metric function and the generating function.  The identities of each
layer are the ``core`` checks of ``finsleroid verify``, which the tests
below run at their own g (see checkgrid)."""

import math

import numpy as np
import pytest

import finsleroid as fl
from finsleroid.oracles import _chart
from finsleroid.verify import draw_vectors

from checkgrid import verified

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


def test_parameter_sign_flip_exchanges_roots(ctx3):
    verified(1.2, ctx3, {"core.parameter_identities": 1e-15})


@pytest.mark.parametrize("g", GRID)
def test_parameter_identities(g, ctx3):
    verified(g, ctx3, {"core.parameter_identities": 1e-15})


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
    # Q = 1 + g w + w^2 lives on the chart w = q/Z, which has no plane Z = 0;
    # the bundle itself is finite there
    off, plane = np.array([1.0, 0.0, 0.5]), np.array([1.0, 1.0, 0.0])
    assert _chart(par, ctx3, off, fl.scalar_bundle(par, ctx3, off))[2] == 7.0  # w = 2
    assert all(math.isfinite(x) for x in fl.scalar_bundle(par, ctx3, plane))
    with pytest.raises(fl.OnAxisError):
        _chart(par, ctx3, plane, fl.scalar_bundle(par, ctx3, plane))


def test_euclidean_norm_at_g_zero(rng, ctx3):
    par = fl.make_parameter(0.0)
    for _ in range(100):
        v = rng.uniform(-1, 1, 3)
        if not np.any(v):
            continue
        assert fl.kfun(par, ctx3, v) == pytest.approx(ctx3.s_norm(v), abs=1e-15)


@pytest.mark.parametrize("g", GRID)
def test_bundle_identities(g, rng, ctx3):
    verified(g, ctx3, {"core.scalar_identities": 1e-13})
    # two lines the check holds only at its total: K = sqrt(B) J to the
    # ulp, and the chart oracle's Q = 1 + g w + w^2
    par, v = fl.make_parameter(g), draw_vectors(rng, ctx3, 50)
    sb = fl.scalar_bundle(par, ctx3, v)
    w = sb.q / sb.Z
    assert np.abs(sb.K / (np.sqrt(sb.B) * sb.J) - 1.0).max() < 1e-15
    assert np.abs(_chart(par, ctx3, v, sb)[2] / (1.0 + g * w + w * w) - 1.0).max() < 1e-12


@pytest.mark.parametrize("g", GRID)
def test_phi_branch_families_agree(g, ctx3):
    verified(g, ctx3, {"core.phi_branches": 1e-12})


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
def test_generating_v_matches_metric_function(g, ctx2):
    # |Z| V(q/Z) = K in 2D, both hemispheres
    verified(g, ctx2, {"core.scalar_identities": 1e-13})


@pytest.mark.parametrize("g", [0.0, 0.8, -1.2, 1.5])
def test_generating_derivative_identities(g, ctx3):
    # V', V'', (V^2/Q)', j' and (V^2/Q^2)' by central differences
    verified(g, ctx3, {"core.generating_derivatives": 1e-8})
