"""The gluing pipeline: cutoff, pre-gluing, approximate-zero certification,
Newton-Picard correction to a true flow line and its tangent, and the
diffeomorphism-criterion verifier.
"""

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .path_space import (STENCIL_CACHE_SIZE, DiscretePath, differentiate,
                         l2_norm, make_grid, norms, sup_norm, symmetric_grid,
                         w12_gram, zero_path)
from .invariant_manifolds import (build_tangent_system, linear_half_path,
                                  log_linear_fit, shoot_stable,
                                  shoot_unstable, solve_tangent_lift,
                                  theta_inverse)
from .linear_theory import (LinearTheory, apply_D, apply_Q_exact,
                            gamma_weights, measurement_slack)
from .morse_model import MIN_GLUING_T
from .newton_picard import NPProblem, np_solve, np_tangent_solve, \
    PreconditionError, ift_certificate


# ---------------------------------------------------------------------------
# cutoff functions

@dataclass(frozen=True)
class Cutoff:
    """Monotone C^2 step: exactly 0 for s <= -1 and exactly 1 for s >= 1."""
    name: str
    poly: tuple          # polynomial coefficients in u = (s+1)/2 on [-1, 1]

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        u = np.clip((s + 1.0) / 2.0, 0.0, 1.0)
        out = np.polyval(self.poly, u)
        return np.where(s <= -1.0, 0.0, np.where(s >= 1.0, 1.0, out))


def quintic_cutoff():
    """Smoothstep of order 5: 6u^5 - 15u^4 + 10u^3 (C^2 at the breakpoints)."""
    return Cutoff(name="quintic", poly=(6.0, -15.0, 10.0, 0.0, 0.0, 0.0))


def cubic_cutoff():
    """Smoothstep of order 3: 3u^2 - 2u^3 (C^1 at the breakpoints)."""
    return Cutoff(name="cubic", poly=(-2.0, 3.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# sections and pre-gluing

def apply_F(model, w):
    """Nodewise flow section: dw/ds + grad f(w)."""
    return DiscretePath(w.grid,
                        differentiate(w).samples + model.grad(w.samples))


def _half_samples_on(grid_T, half, T, side):
    """Samples of the shifted half trajectory w(+-T + s) on the [-T, T] grid,
    by index alignment, as a view of the half's samples: the half must be
    sampled at the grid's spacing."""
    hg = half.grid
    if abs(hg.h - grid_T.h) >= 1e-12:
        raise ValueError("half-trajectory spacing %r differs from the grid "
                         "spacing %r" % (hg.h, grid_T.h))
    # arguments T + s for s in [-T, T], i.e. [0, 2T] from [0, S] (stable),
    # or -T + s in [-2T, 0] from [-S, 0] (unstable)
    start = 0.0 if side == "stable" else -2.0 * T
    first = round((start - hg.t_min) / hg.h)
    if first < 0 or first + grid_T.n_nodes > hg.n_nodes:
        raise ValueError("half trajectory does not cover the shifted range")
    return half.samples[first:first + grid_T.n_nodes]


@lru_cache(maxsize=STENCIL_CACHE_SIZE)
def _preglue_weights(cutoff, grid):
    """The pre-gluing weights 1 - beta(s+2) and beta(s-2) at the grid's
    nodes s, as read-only (n_nodes, 1) columns, cached per (cutoff, grid)."""
    s = grid.nodes
    left = (1.0 - cutoff(s + 2.0))[:, None]
    right = cutoff(s - 2.0)[:, None]
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


def preglue(cutoff, w_plus, w_minus, T):
    """Pre-glued path on [-T, T], on the grid of w_plus's spacing:
    w_T(s) = (1 - beta(s+2)) w_+(T+s) + beta(s-2) w_-(-T+s)."""
    if T < MIN_GLUING_T:
        raise ValueError("need T >= %d" % MIN_GLUING_T)
    grid = symmetric_grid(T, w_plus.grid.h)
    wp = _half_samples_on(grid, w_plus, T, "stable")
    wm = _half_samples_on(grid, w_minus, T, "unstable")
    b_left, b_right = _preglue_weights(cutoff, grid)
    return DiscretePath(grid, b_left * wp + b_right * wm)


RESID_BANDS = ((-3.0, -1.0), (1.0, 3.0))


def residual_support_violation(res_path):
    """Sup of the residual outside [-3,-1] u [1,3] (interior nodes only;
    the boundary one-sided stencils are excluded, band edges get half a
    spacing of tolerance)."""
    g = res_path.grid
    margin = 0.5 * g.h
    s = g.nodes
    outside = np.ones(g.n_nodes, dtype=bool)
    for lo, hi in RESID_BANDS:
        outside &= ~((s >= lo - margin) & (s <= hi + margin))
    outside[0] = outside[-1] = False
    if not np.any(outside):
        return 0.0
    return float(np.max(np.linalg.norm(res_path.samples[outside], axis=1)))


def certify_approx_zero(model, cutoff, w_plus, w_minus, T_list):
    """Residual-decay table of the pre-glued path over T: l2 norms, a fitted
    exponential rate, and the support check."""
    rows = []
    for T in T_list:
        wt = preglue(cutoff, w_plus, w_minus, T)
        res = apply_F(model, wt)
        rows.append({
            "T": float(T),
            "resid_l2": l2_norm(res),
            "support_violation": residual_support_violation(res),
        })
    rate_fit, C_fit, r2 = _rate_over_T(rows, "resid_l2")
    return {"rows": rows, "rate_fit": rate_fit, "C_fit": C_fit, "r2": r2}


def _rate_over_T(rows, key):
    """Exponential rate fit of rows[key] against rows["T"]: (rate, C, r2),
    with (inf, 0, 1) when fewer than two values lie above the floor."""
    fit = log_linear_fit(np.array([r["T"] for r in rows]),
                         np.array([r[key] for r in rows]))
    return fit if fit is not None else (float("inf"), 0.0, 1.0)


def estimate_decay_constant(model, cutoff, seed_pairs, T_list, S, h_max):
    """C(K+, K-) realized as the max over the (stable seed, unstable seed)
    pairs of the prefactors fitted to the pre-glued residual over T_list,
    with the halves shot to S at spacing h_max, times a safety factor of
    1.2."""
    return 1.2 * max(
        certify_approx_zero(model, cutoff,
                            shoot_stable(model, sp, S, h_max=h_max),
                            shoot_unstable(model, sm, S, h_max=h_max),
                            T_list)["C_fit"]
        for sp, sm in seed_pairs)


# ---------------------------------------------------------------------------
# the gluing map

@dataclass(frozen=True)
class GlueReport:
    T: float
    path: DiscretePath
    preglue_resid_l2: float
    np_iterations: int
    # sup over the interior nodes (both end nodes excluded) of the
    # Euclidean node norm of apply_F on the output
    residual_final: float
    correction_norm: float
    bound_2c_F: float
    contraction_ratio_max: float
    # |ev_T(path) - (w_+(0), w_-(0))| against the halves passed to glue;
    # from linear_halves the reference is the linear w_+-(0), and the
    # certificate's gluing map discards this value
    ev_error: float
    precond: dict               # np_solve's record of the paper's bounds
    boundary_defect: float      # K_T defect of the correction: 0 to rounding


def _interior_flow_residual(model, w):
    res = apply_F(model, w).samples[1:-1]
    return float(np.max(np.linalg.norm(res, axis=1)))


def flow_problem(lt):
    """Newton-Picard problem of the flow section on the grid of lt, on
    flattened node-major samples, a vector or a (size, k) block of them: D =
    apply_D (the linearization at 0_T), the remainder N = apply_F - D, which
    is grad f_nl nodewise, and dN its nodewise linearization, Q =
    apply_Q_exact (the exact discrete right inverse with K_T boundary
    structure), and the W^{1,2} and L^2 norms of a vector.  N, D, Q and the
    maps of dN act on a block column by column, with the bits of each
    column alone."""
    grid = lt.grid
    model = lt.model
    n = model.dim

    def path(v):
        return DiscretePath(grid, v.reshape(-1, n))

    def N(v):
        # the points of column j are the rows of cols[j].reshape(-1, n)
        cols = v.reshape(len(v), -1).T
        f = model.nonlinear_tensor(cols.reshape(len(cols), -1, n), 0)
        return f.reshape(cols.shape).T.reshape(v.shape)

    def norm_dom(v):
        return norms(path(v)).w12

    def norm_cod(v):
        return l2_norm(path(v))

    def dN(x):
        jac = model.nonlinear_tensor(x.reshape(-1, n), 1)
        return lambda v: np.einsum("jab,jb...->ja...", jac,
                                   v.reshape(-1, n, *v.shape[1:])
                                   ).reshape(v.shape)

    consts = lt.constants
    return NPProblem(N=N, apply_D=partial(apply_D, lt),
                     apply_Q=partial(apply_Q_exact, lt), c=consts.c_rightinv,
                     delta=consts.delta4, norm_dom=norm_dom,
                     norm_cod=norm_cod, dN=dN)


def half_trajectory_length(T):
    """S = 2T + 6: halves glued at lengths up to T are shot to this S."""
    return 2.0 * T + 6.0


def shoot_halves(lt, seed_p, seed_m):
    """The stable and the unstable half trajectory of lt's model from the
    two seeds, shot to half_trajectory_length(T) at lt's grid spacing."""
    S = half_trajectory_length(lt.T)
    return (shoot_stable(lt.model, seed_p, S, h_max=lt.grid.h),
            shoot_unstable(lt.model, seed_m, S, h_max=lt.grid.h))


def linear_halves(lt, seed_p, seed_m):
    """The linear model's stable and unstable half paths from the two seeds
    (linear_half_path), on [0, 2T] and [-2T, 0] at the spacing of lt's
    grid: the range that preglue reads.  They carry the seeds as their K_T
    data, as the shot halves do."""
    T, h = lt.T, lt.grid.h
    gp = make_grid(0.0, 2.0 * T, h)
    gm = make_grid(-2.0 * T, 0.0, h)
    return (DiscretePath(gp, linear_half_path(lt.model, "stable", seed_p,
                                              gp.nodes)),
            DiscretePath(gm, linear_half_path(lt.model, "unstable", seed_m,
                                              gm.nodes)))


def _preglue_in_ball(cutoff, w_plus, w_minus, lt):
    """Pre-glued path on lt's grid (ValueError for halves at another
    spacing), under the one hypothesis of the gluing map: it lies in the sup
    ball of radius 2 delta_2, on which the linearization deviates from D by
    at most 1/(2c); PreconditionError otherwise.  In an evaluation of
    glue_coordinate_rep the halves are linear_halves, so this tests the
    linear pre-glued path."""
    wt = preglue(cutoff, w_plus, w_minus, lt.T)
    if wt.grid != lt.grid:
        raise ValueError("halves not at the bundle grid spacing %r" % lt.grid.h)
    rho2 = 2.0 * lt.constants.delta_mu[2.0]
    if sup_norm(wt) > rho2:
        raise PreconditionError(
            "pre-glued path leaves the contraction ball: sup %.4g > %.4g"
            % (sup_norm(wt), rho2))
    return wt


def glue(model, cutoff, w_plus, w_minus, T, lt):
    """Glued flow line: Newton-Picard correction of the pre-glued path x1,
    with D the linearization at 0_T and the exact discrete right inverse
    with K_T boundary structure.

    The one hypothesis checked is that of _preglue_in_ball.  The paper's
    bounds ||x1|| < delta/8 and ||F(x1)|| < delta/(4c) are measured and
    reported in `precond`, not enforced.

    w_plus and w_minus are two halves, or two equal-length lists of halves:
    then each pair is pre-glued and checked in turn, the pre-glued paths
    are corrected by one np_solve on their block, and the list of one
    GlueReport per pair equals the reports of the pairs glued alone."""
    if (lt.T, lt.model) != (float(T), model):
        raise ValueError("linear-theory bundle is for a different T or model")
    single = isinstance(w_plus, DiscretePath)
    if not single and len(w_plus) != len(w_minus):
        raise ValueError("%d stable halves against %d unstable ones"
                         % (len(w_plus), len(w_minus)))
    pairs = [(w_plus, w_minus)] if single else list(zip(w_plus, w_minus))
    x1s = [_preglue_in_ball(cutoff, wp, wm, lt).samples.reshape(-1)
           for wp, wm in pairs]
    prob = flow_problem(lt)
    res = np_solve(prob, x1s[0] if single else np.stack(x1s, axis=1))
    cols = [res] if single else res.columns
    reps = [_glue_report(prob, lt, r, x1, wp, wm)
            for r, x1, (wp, wm) in zip(cols, x1s, pairs)]
    return reps[0] if single else reps


def _glue_report(prob, lt, res, x1, w_plus, w_minus):
    """The GlueReport of one pair of halves from the NPResult of its
    pre-glued path x1."""
    pre_resid = res.precond["fx_norm"]
    gamma = DiscretePath(lt.grid, res.x.reshape(-1, lt.model.dim))
    return GlueReport(
        T=lt.T, path=gamma,
        preglue_resid_l2=pre_resid,
        np_iterations=res.iterations,
        residual_final=_interior_flow_residual(lt.model, gamma),
        correction_norm=res.correction_norm,
        bound_2c_F=2.0 * prob.c * pre_resid,
        contraction_ratio_max=res.contraction_ratio_max,
        ev_error=ev_error(gamma, w_plus, w_minus),
        precond=res.precond,
        boundary_defect=float(np.max(np.abs((res.x - x1)[lt._kt_rows]))))


def ev_error(gamma, w_plus, w_minus):
    """|ev_T(glued path) - (w_+(0), w_-(0))| in the product Euclidean norm."""
    left = gamma.samples[0] - w_plus.samples[0]
    right = gamma.samples[-1] - w_minus.samples[-1]
    return float(np.sqrt(np.sum(left**2) + np.sum(right**2)))


def convergence_sweep(model, cutoff, seeds, T_list, constants, h_max=0.02,
                      S=None):
    """Evaluation-map convergence: ev error of the glued line over T, with a
    fitted exponential rate."""
    seed_p, seed_m = seeds
    if S is None:
        S = half_trajectory_length(max(T_list))
    wp = shoot_stable(model, seed_p, S, h_max=h_max)
    wm = shoot_unstable(model, seed_m, S, h_max=h_max)
    rows = []
    for T in T_list:
        lt = LinearTheory(model, T, h_max, constants)
        rep = glue(model, cutoff, wp, wm, T, lt)
        rows.append({
            "T": float(T), "preglue_resid": rep.preglue_resid_l2,
            "np_iters": rep.np_iterations,
            "corr_norm": rep.correction_norm, "bound_2cF": rep.bound_2c_F,
            "ev_error": rep.ev_error,
        })
    rate_fit, _, r2 = _rate_over_T(rows, "ev_error")
    return {"rows": rows, "rate_fit": rate_fit, "r2": r2}


# ---------------------------------------------------------------------------
# diffeomorphism criterion

def glue_coordinate_rep(cutoff, lt, scale=1.0):
    """Local-coordinate representative of the gluing map on weighted kernel
    coefficients: seeds -> boundary kernel coefficients of the glued path,
    orthonormalized by the exact coefficient weights so the linearization at
    0 matches the infinitesimal-gluing singular values.

    Each evaluation glues the linear halves (linear_halves), not shot ones.
    The correction keeps the K_T rows of the pre-glued path, and those rows
    are the two seeds for either pair of halves, so both start points lead
    to the same zero: the glued line with that K_T data.  The value equals
    the shot-halves value up to the rounding of the correction.

    The map takes a (k, n) block of points, whose rows are glued by one call
    of glue on lists; each row's value has the bits of that point alone."""
    model = lt.model
    ns = model.n_stable
    dom_w, img_w = gamma_weights(lt)
    sd = np.sqrt(dom_w)
    si = np.sqrt(img_w)

    def F(U):
        halves = [linear_halves(lt, v[:ns] / sd[:ns], v[ns:] / sd[ns:])
                  for v in np.asarray(U, dtype=float) * scale]
        reps = glue(model, cutoff, [wp for wp, _ in halves],
                    [wm for _, wm in halves], lt.T, lt)
        return np.array([np.concatenate([
            model.p_plus(rep.path.samples[0]) * si[:ns],
            model.p_minus(rep.path.samples[-1]) * si[ns:]]) / scale
            for rep in reps])

    return F


def diffeo_criterion(model, cutoff, lt, sample_count, rng, seed_box_radius,
                     n_pairs=200, n_preimages=20):
    """Certificate that the gluing map is a diffeomorphism onto its image on
    the (empirically certified) seed box: quantitative-IFT hypotheses with
    k from the infinitesimal-gluing inverse bound, plus the Theta_T smallness
    sample on the kernel basis.  Jacobians are central differences with step
    1e-4; both bounds get the slack measurement_slack(h).  The certificate
    evaluates the gluing map on blocks: each finite-difference Jacobian's
    2 n points, and each block of newton_picard.PAIR_BLOCK injectivity
    pairs, are one glue call and one Newton-Picard solve."""
    if model != lt.model:
        raise ValueError("linear-theory bundle is for a different model")
    consts = lt.constants
    k = consts.k_gamma_inv
    d = consts.d_proj
    slack = measurement_slack(lt.grid.h)
    F = glue_coordinate_rep(cutoff, lt, scale=seed_box_radius)
    cert = ift_certificate(F, 1.0, k, sample_count, rng, dim=model.dim,
                           fd_eps=1e-4, slack=slack, n_pairs=n_pairs,
                           n_preimages=n_preimages)
    theta_norm = theta_defect_norm(cutoff, lt, seed_box_radius)
    theta_bound = 1.0 / (8.0 * k * d)
    return {
        "ift": cert,
        "theta_norm": theta_norm,
        "theta_bound": theta_bound,
        "theta_ok": theta_norm <= theta_bound * slack,
    }


def theta_defect_norm(cutoff, lt, seed_radius):
    """Operator norm (exact on the finite kernel basis) of the pre-glued
    identification defect Theta_T at the corner of the seed box."""
    model = lt.model
    n = model.dim
    ns = model.n_stable
    halves = shoot_halves(lt, [seed_radius] * ns, [seed_radius] * (n - ns))
    outs = []
    dom_w, _ = gamma_weights(lt)
    for i, e in enumerate(np.eye(n)):
        # direction e on the stable (i < ns) or unstable half, 0 on the other
        k = int(i >= ns)
        half = halves[k]
        v = model.p_minus(e) if k else model.p_plus(e)
        xi_lin = linear_half_path(model, half.side, v, half.grid.nodes)
        xi_pull, _ = theta_inverse(model, half, v)
        diffs = [zero_path(h.grid, n) for h in halves]
        diffs[k] = DiscretePath(half.grid, xi_lin - xi_pull.samples)
        outs.append(preglue(cutoff, *diffs, lt.T))
    # operator norm: Gram H = X G X^T of the outputs (the rows of X) in
    # W^{1,2} against the diagonal domain weights W of the kernel
    # coefficient basis, the top eigenvalue of W^{-1/2} H W^{-1/2}
    X = np.stack([out.samples.reshape(-1) for out in outs])
    H = X @ (w12_gram(lt.grid, n) @ X.T)
    root = np.sqrt(dom_w)
    M = H / np.outer(root, root)
    return float(np.sqrt(max(np.max(np.linalg.eigvalsh(M)), 0.0)))


# ---------------------------------------------------------------------------
# tangent sweeps

def tangent_convergence_sweep(model, cutoff, seeds, tangent_seeds, T_list,
                              constants, order_m=1, h_max=0.02, S=None):
    """Pre-glue the tangent lifts componentwise, correct the base path with
    np_solve and its tangent with the Newton-Picard differential at the
    glued path (np_tangent_solve), and record both evaluation errors over
    T: ev_error and base_np_iters from the base solve, which is glue's,
    tangent_ev_error and np_iters from the tangent solve.  The base path is
    pre-glued under glue's hypothesis (_preglue_in_ball).  order_m must be
    1."""
    if order_m != 1:
        raise ValueError("sweep supports m = 1 only")
    seed_p, seed_m = seeds
    tseed_p, tseed_m = tangent_seeds
    if S is None:
        S = half_trajectory_length(max(T_list))
    spec1 = build_tangent_system(1)
    wp = shoot_stable(model, seed_p, S, h_max=h_max)
    wm = shoot_unstable(model, seed_m, S, h_max=h_max)
    lift_p = solve_tangent_lift(model, wp, spec1, [tseed_p])[0]
    lift_m = solve_tangent_lift(model, wm, spec1, [tseed_m])[0]
    rows = []
    for T in T_list:
        lt = LinearTheory(model, T, h_max, constants)
        grid = lt.grid
        wt = _preglue_in_ball(cutoff, wp, wm, lt)
        xt = preglue(cutoff, lift_p, lift_m, T)
        res, tres = np_tangent_solve(flow_problem(lt),
                                     wt.samples.reshape(-1),
                                     xt.samples.reshape(-1))
        gamma = DiscretePath(grid, res.x.reshape(-1, model.dim))
        tgamma = DiscretePath(grid, tres.x.reshape(-1, model.dim))
        rows.append({"T": float(T), "ev_error": ev_error(gamma, wp, wm),
                     "tangent_ev_error": ev_error(tgamma, lift_p, lift_m),
                     "np_iters": tres.iterations,
                     "base_np_iters": res.iterations})
    rate_fit, _, _ = _rate_over_T(rows, "tangent_ev_error")
    return {"rows": rows, "rate_fit": rate_fit}
