"""The module tests' oracle: the checks of ``finsleroid verify``, run at
the grid points of the module fixtures (g x the file's ``ctx``).  A test
names the checks that hold its identities and its own bound; each check's
residual must lie below the smaller of that bound and the check's gate."""

import functools

import numpy as np
import pytest

import finsleroid as fl
from finsleroid.verify import CHECKS, RunConfig

TRIALS = 40  # trials of a check at one grid point
GATES = {check_id: (idx, fn, RunConfig.tol if tol is None else tol) for idx, (check_id, _, _, fn, tol) in enumerate(CHECKS)}


def check_residual(check_id, g, ctx, trials=TRIALS):
    """The residual of one check at (g, ctx), on the stream that
    ``finsleroid verify --seed 0`` gives it."""
    idx, fn, gate = GATES[check_id]
    return fn(fl.make_parameter(g), ctx, np.random.default_rng(np.random.SeedSequence([0, idx])), trials, gate)[1]


@functools.lru_cache(maxsize=None)
def _grid_residual(check_id, g, n, r_ab):
    return check_residual(check_id, g, fl.MetricContext(n, np.reshape(r_ab, (n - 1, n - 1))))


def verified(g, ctx, bounds):
    """Each check of ``bounds``, {check id: bound}, at (g, ctx) below the
    smaller of its bound and its gate; a residual is computed once per
    check and grid point in one pytest run."""
    for check_id, bound in bounds.items():
        residual = _grid_residual(check_id, g, ctx.n, tuple(ctx.r_ab.ravel()))
        tol = min(bound, GATES[check_id][2])
        assert residual < tol, f"{check_id} at g = {g}, N = {ctx.n}: residual {residual:.3e}, bound {tol:.0e}"


def on_grid(gs, bounds):
    """A test over g in ``gs`` and the ``ctx`` fixture of its file that
    holds its identities through ``verified``."""

    @pytest.mark.parametrize("g", gs)
    def test(g, ctx):
        verified(g, ctx, bounds)

    return test
