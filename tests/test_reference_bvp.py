"""The glued line against an independent solver.

The glued path solves x' = -grad f(x) on [-T, T] with its K_T values as
boundary data: p_+ x(-T) and p_- x(T).  scipy's solve_bvp solves the same
boundary-value problem by fourth-order collocation with residual control
(Kierzenka & Shampine, ACM TOMS 27, 2001), started from the glued path.  The
sup distance between the two falls by a factor 4 per halving of h, the
order 2 of the repo's scheme, at T = 3 and at T = 8."""

from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import solve_bvp

from mglue.gluing import glue, quintic_cutoff, shoot_halves
from mglue.linear_theory import LinearTheory
from mglue.morse_model import (MorseModel, compute_constants, model_c1,
                               model_e1)

from test_morse_model import model_3d

# name -> (model maker, stable seeds, unstable seeds)
CASES = {"e1": (model_e1, [0.3], [0.3]), "c1": (model_c1, [0.3], [0.3]),
         "model_3d": (model_3d, [0.2, 0.2], [0.2]),
         "quartic": (lambda: MorseModel(
             dim=2, index=1, eig=(1.0, -1.0),
             nonlinearity="0.05*x1^4 - 0.05*x2^4 + 0.1*x1^2*x2^2"),
             [0.3], [0.3])}
H_LIST = (0.04, 0.02, 0.01)


@lru_cache(maxsize=None)
def model_of(name):
    model = CASES[name][0]()
    return model, compute_constants(model)


@lru_cache(maxsize=None)
def glued_path(name, T, h):
    model, consts = model_of(name)
    lt = LinearTheory(model, T, h, consts)
    wp, wm = shoot_halves(lt, *CASES[name][1:])
    return glue(model, quintic_cutoff(), wp, wm, T, lt).path


def reference(model, path, tol):
    """solve_bvp on x' = -grad f(x) over the path's grid, with the path's
    K_T values as boundary data, from the path itself."""
    a = model.p_plus(path.samples[0])
    b = model.p_minus(path.samples[-1])

    def fun(s, y):
        return -model.grad(y.T).T

    def fun_jac(s, y):
        # (n, n, m): the Jacobian of fun at each of the m mesh points
        return -np.moveaxis(model.dgrad_tensor(y.T, 1), 0, -1)

    def bc(ya, yb):
        return np.concatenate([model.p_plus(ya) - a, model.p_minus(yb) - b])

    return solve_bvp(fun, bc, path.grid.nodes, path.samples.T,
                     fun_jac=fun_jac, tol=tol, max_nodes=10 ** 6)


def sup_distance(path, sol):
    """Sup over the path's nodes of the Euclidean distance to sol."""
    ref = sol.sol(path.grid.nodes).T
    return float(np.max(np.linalg.norm(path.samples - ref, axis=1)))


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("T", [3.0, 8.0])
def test_glued_line_converges_at_order_2(name, T):
    model, _ = model_of(name)
    dists = []
    for h in H_LIST:
        path = glued_path(name, T, h)
        sol = reference(model, path, 1e-11)
        assert sol.status == 0, sol.message
        dists.append(sup_distance(path, sol))
    ratios = [c / f for c, f in zip(dists, dists[1:])]
    print("%s T = %g: sup distance %s at h = %s, ratios %s"
          % (name, T, ["%.3g" % d for d in dists], list(H_LIST),
             ["%.3f" % r for r in ratios]))
    assert all(3.6 <= r <= 4.4 for r in ratios)


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_is_converged(name):
    # solve_bvp's tol bounds a residual, not the error: a tighter tol must
    # not move the solution, and the boundary data must hold
    model, _ = model_of(name)
    path = glued_path(name, 3.0, 0.02)
    sol = reference(model, path, 1e-11)
    tight = reference(model, path, 1e-12)
    assert tight.status == 0, tight.message
    nodes = path.grid.nodes
    assert np.max(np.abs(tight.sol(nodes) - sol.sol(nodes))) <= 1e-9
    ya, yb = tight.sol(nodes[[0, -1]]).T
    assert np.max(np.abs(model.p_plus(ya)
                         - model.p_plus(path.samples[0]))) <= 1e-12
    assert np.max(np.abs(model.p_minus(yb)
                         - model.p_minus(path.samples[-1]))) <= 1e-12
