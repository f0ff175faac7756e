"""Stable/unstable manifold trajectories and their tangent lifts.

Half-trajectories solve the downward gradient flow on a truncated half-line
with projection boundary conditions, by collocation (the same second-order
stencils as path_space.differentiate) and full Newton steps, one banded LU
(path_space.FlowLU) per step; a step that does not reduce the residual ends
the shoot with ShootError.  A half trajectory is a path: HalfTrajectory
is a DiscretePath that also records its side, S and flow residual.  Tangent
lifts solve the binary-indexed variational systems whose coefficients are
enumerated by set partitions of digit sets; the identification theta reads
the asymptotic kernel coefficient at the truncation time.
"""

from dataclasses import dataclass

import numpy as np

from .newton_picard import ContractionError
from .path_space import (DiscretePath, FlowLU, differentiate, kt_rows,
                         kt_values, make_grid, stencil_derivative)

TOL_FLOW = 1e-9
MAX_ITER = 50


# ---------------------------------------------------------------------------
# digit / partition combinatorics

def digit_map(k):
    """Positions of the 1-bits of k, 1-indexed from the least significant."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return {i + 1 for i in range(k.bit_length()) if k >> i & 1}


def digit_inverse(D):
    """e(D) = sum of 2^(j-1) over j in D; inverse of digit_map."""
    return sum(1 << (j - 1) for j in D)


def partitions(D, ell):
    """All partitions of the finite set D into ell non-empty blocks.

    Canonical ordering: within a partition, blocks sorted by minimum element;
    the list of partitions sorted lexicographically by that block sequence."""
    D = sorted(D)
    if not D:
        raise ValueError("D must be non-empty")
    if ell < 1:
        raise ValueError("need at least one block")

    def rec(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for sub in rec(rest):
            # head joins an existing block or opens a new one
            for i in range(len(sub)):
                yield sub[:i] + [[head] + sub[i]] + sub[i + 1:]
            yield [[head]] + sub

    out = []
    for part in rec(D):
        if len(part) == ell:
            blocks = tuple(tuple(sorted(b)) for b in part)
            out.append(tuple(sorted(blocks, key=lambda b: b[0])))
    return sorted(set(out))


def hamming_weight(k):
    return bin(k).count("1")


@dataclass(frozen=True)
class TangentSystemSpec:
    """Components k = 0..2^m-1; component 0 is the nonlinear flow, component
    k >= 1 is linear in W_k with forcing terms (order ell, argument indices)."""
    m: int
    components: tuple  # tuple over k>=1 of tuples of (ell, (e(A1),...,e(Aell)))

    @property
    def n_components(self):
        return 2 ** self.m


def build_tangent_system(m):
    """The 2^m-component variational system: for each k >= 1,
    0 = W_k' + Dgrad(W_0)[W_k] + sum over ell>=2 and partitions of the digit
    set of k of the order-ell tensor applied to the lower-index components."""
    if not 0 <= m <= 3:
        raise ValueError("m must be in 0..3")
    comps = []
    for k in range(1, 2 ** m):
        terms = [(1, (k,))]
        D = digit_map(k)
        for ell in range(2, hamming_weight(k) + 1):
            for part in partitions(D, ell):
                terms.append((ell, tuple(digit_inverse(b) for b in part)))
        comps.append(tuple(terms))
    return TangentSystemSpec(m=m, components=tuple(comps))


# ---------------------------------------------------------------------------
# half trajectories

@dataclass(frozen=True)
class HalfTrajectory(DiscretePath):
    """A path on [0, S] (stable) or [-S, 0] (unstable) with its shooting
    record."""
    side: str               # "stable" | "unstable"
    S: float
    residual: float


class ShootError(ContractionError):
    """Newton's method for a half trajectory failed to contract: a full step
    did not reduce the residual, or MAX_ITER steps did not reach TOL_FLOW.
    The message names the side and the seed."""


def _half_grid(side, S, h_max):
    if side == "stable":
        return make_grid(0.0, S, h_max)
    return make_grid(-S, 0.0, h_max)


def _seed_values(model, side, seed):
    """Boundary data of a half-line system: the seed is the stable data at
    the s = 0 end of a stable half, the unstable data at the s = 0 end of an
    unstable one; the far end decays to 0."""
    if side == "stable":
        return kt_values(model.dim, model.n_stable, v_plus=seed)
    return kt_values(model.dim, model.n_stable, v_minus=seed)


def linear_half_path(model, side, seed, nodes):
    """(len(nodes), dim) samples of the linear model's half trajectory from
    the seed: exp(-s A_+) seed in the stable components of a stable half,
    exp(s A_-) seed in the unstable components of an unstable one, and 0 in
    the others."""
    ns = model.n_stable
    out = np.zeros((len(nodes), model.dim))
    if side == "stable":
        out[:, :ns] = np.exp(-np.outer(nodes, model.a_plus)) * seed
    else:
        out[:, ns:] = np.exp(np.outer(nodes, model.a_minus)) * seed
    return out


def _interior_residual(res_flat, bc_rows):
    """Sup norm of the enforced flow rows (boundary-condition rows excluded):
    the max of |res| with those rows set to 0, which is nan if an enforced
    row is."""
    a = np.abs(res_flat)
    a[bc_rows] = 0.0
    return float(np.max(a))


def _shoot(model, seed, S, side, h_max):
    seed = np.atleast_1d(np.asarray(seed, dtype=float))
    n = model.dim
    ns = model.n_stable
    grid = _half_grid(side, S, h_max)
    N = grid.n_nodes
    bc_rows = kt_rows(N, n, ns)

    if side == "stable" and seed.shape != (ns,):
        raise ValueError("stable seed must have dimension n - k")
    if side == "unstable" and seed.shape != (n - ns,):
        raise ValueError("unstable seed must have dimension k")
    bc_vals = _seed_values(model, side, seed)

    w = linear_half_path(model, side, seed, grid.nodes)
    res = _flow_res_with_bc(model, w, grid.h, bc_rows, bc_vals)
    rnorm = np.linalg.norm(res)
    for _ in range(MAX_ITER):
        resid = _interior_residual(res, bc_rows)
        if resid < TOL_FLOW:
            return HalfTrajectory(grid, w, side=side, S=float(S),
                                  residual=resid)
        step = FlowLU(grid, model.dgrad_tensor(w, 1), ns).solve(-res)
        w = w + step.reshape(N, n)
        res = _flow_res_with_bc(model, w, grid.h, bc_rows, bc_vals)
        rnorm_new = np.linalg.norm(res)
        if not rnorm_new < rnorm:       # a nan residual stops here too
            raise ShootError("%s half from seed %s: Newton step did not "
                             "reduce the flow residual (seed outside "
                             "computable neighborhood)"
                             % (side, seed.tolist()))
        rnorm = rnorm_new
    raise ShootError("%s half from seed %s: Newton did not converge in %d "
                     "iterations" % (side, seed.tolist(), MAX_ITER))


def _flow_res_with_bc(model, w, h, bc_rows, bc_vals):
    res = (stencil_derivative(w, h) + model.grad(w)).reshape(-1)
    res[bc_rows] = w.reshape(-1)[bc_rows] - bc_vals
    return res


def shoot_stable(model, x0, S, h_max=0.02):
    """Stable-manifold trajectory on [0, S]: p_+ w(0) = x0, p_- w(S) = 0."""
    return _shoot(model, x0, S, "stable", h_max)


def shoot_unstable(model, y0, S, h_max=0.02):
    """Unstable-manifold trajectory on [-S, 0]: p_- w(0) = y0,
    p_+ w(-S) = 0."""
    return _shoot(model, y0, S, "unstable", h_max)


# ---------------------------------------------------------------------------
# tangent lifts

def solve_tangent_lift(model, base, sys_spec, seeds):
    """Solve the variational components k = 1..2^m-1 along the base
    trajectory, in index order (each component is linear given the lower
    ones).  seeds[k-1] prescribes the free boundary data of component k
    (stable side: p_+ W_k(0); unstable side: p_- W_k(0))."""
    if base.residual > TOL_FLOW * 10:
        raise ValueError("base trajectory residual too large")
    n = model.dim
    grid = base.grid
    N = grid.n_nodes
    bc_rows = kt_rows(N, n, model.n_stable)
    W = {0: base.samples}
    lu = FlowLU(grid, model.dgrad_tensor(W[0], 1), model.n_stable)

    out = []
    for k in range(1, sys_spec.n_components):
        terms = sys_spec.components[k - 1]
        forcing = np.zeros((N, n))
        for ell, args in terms:
            if ell == 1:
                continue  # the order-1 term is the system operator itself
            forcing += _tensor_forcing(model.dgrad_tensor(W[0], ell),
                                       [W[a] for a in args])
        rhs = -forcing.reshape(-1)
        rhs[bc_rows] = _seed_values(model, base.side, seeds[k - 1])
        sol = lu.solve(rhs)
        Wk = sol.reshape(N, n)
        W[k] = Wk
        out.append(DiscretePath(grid, Wk))
    return out


def _tensor_forcing(tensors, args):
    """Nodewise contraction of tensors (N, n, n, ..., n) with one (N, n)
    array per trailing axis: the last axis takes args[0], the one before it
    args[1], and so on."""
    v = tensors
    for arg in args:
        v = np.einsum("j...b,jb->j...", v, arg)
    return v


def linearized_residual(model, base, xi):
    """Sup over interior nodes of xi' + dgrad(base) xi (central stencils)."""
    res = differentiate(xi).samples + _tensor_forcing(
        model.dgrad_tensor(base.samples, 1), [xi.samples])
    return float(np.max(np.abs(res[1:-1])))


def theta_identification(model, base, xi, tol_lin=1e-6):
    """Asymptotic kernel coefficient identifying a linearized solution along
    the base with a linear-model kernel element: stable side
    exp(S A_+) p_+ xi(S), unstable side exp(S A_-) p_- xi(-S)."""
    if linearized_residual(model, base, xi) > tol_lin:
        raise ValueError("path does not solve the linearized flow equation")
    if base.side == "stable":
        return np.exp(base.S * model.a_plus) * model.p_plus(xi.samples[-1])
    return np.exp(base.S * model.a_minus) * model.p_minus(xi.samples[0])


def theta_inverse(model, base, v):
    """Linearized solution along base with theta-coefficient v, built by
    inverting the seed -> theta matrix on a basis of first-order lifts."""
    sys_spec = build_tangent_system(1)
    dim = model.n_stable if base.side == "stable" else model.index
    cols = []
    lifts = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        lift = solve_tangent_lift(model, base, sys_spec, [e])[0]
        lifts.append(lift)
        cols.append(theta_identification(model, base, lift))
    Mth = np.stack(cols, axis=1)
    seed = np.linalg.solve(Mth, np.atleast_1d(v))
    samples = sum(s * l.samples for s, l in zip(seed, lifts))
    return DiscretePath(base.grid, samples), seed


# ---------------------------------------------------------------------------
# decay fitting

class FitError(ValueError):
    """A fit with nothing to measure: fewer than two values above the
    floor."""


@dataclass(frozen=True)
class DecayFit:
    rate: float
    prefactor: float
    r2: float
    window: tuple


def log_linear_fit(x, g):
    """Least-squares fit of log g = log C - rate * x over the points with
    g > 1e-14: (rate, C, r2), or None when fewer than two points remain."""
    keep = g > 1e-14
    if np.count_nonzero(keep) < 2:
        return None
    x = x[keep]
    y = np.log(g[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - float(np.sum(resid**2)) / ss_tot)
    return float(-slope), float(np.exp(intercept)), r2


def decay_fit(p, window):
    """Least-squares exponential-decay fit of |W(s)| + |W'(s)| over the
    window; rate is the negated slope of the log-linear fit.  FitError when
    fewer than two window values lie above the floor of log_linear_fit (a
    zero seed gives a zero half trajectory)."""
    s = p.grid.nodes
    g = (np.linalg.norm(p.samples, axis=1)
         + np.linalg.norm(differentiate(p).samples, axis=1))
    lo, hi = window
    in_window = (s >= lo - 1e-12) & (s <= hi + 1e-12)
    fit = log_linear_fit(s[in_window], g[in_window])
    if fit is None:
        raise FitError("no decay to fit on [%g, %g]: fewer than two values "
                       "of |W| + |W'| above 1e-14" % (lo, hi))
    rate, prefactor, r2 = fit
    return DecayFit(rate=rate, prefactor=prefactor, r2=r2,
                    window=(float(lo), float(hi)))
