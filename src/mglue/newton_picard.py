"""Quadratic-estimate-free Newton-Picard machinery over finite-dimensional
discretizations, plus a quantitative inverse-function-theorem certificate.

A problem is a map F = D + N, held as its linearization D at the base point 0
and its nonlinear remainder N = F - D, with a right inverse Q of D
(DQ = Id).  The correction iterates the contraction
    Phi(x) = x1 - Q(F(x) - D(x - x1)) = x1 - Q(N(x) + D x1),
whose fixed point x satisfies F(x) = 0 (to the right-inverse defect) with
x - x1 in the image of Q and ||x - x1|| <= 2 c ||F(x1)||.  The same loop,
on the problem linearized at a point, gives the differential of the map
and the tangent of the glued path.
"""

from dataclasses import dataclass, replace

import numpy as np


class PreconditionError(ValueError):
    pass


class ContractionError(RuntimeError):
    pass


@dataclass(frozen=True)
class NPProblem:
    """N, apply_D and apply_Q map a vector to a vector, and a (size, k)
    block column by column to a block, each column with the bits it has
    alone; np_solve iterates blocks through them.  The norms take one
    vector, as before."""
    N: callable                 # the remainder F - D
    apply_D: callable           # linear
    apply_Q: callable           # a right inverse of D
    c: float                    # bound for ||Q||
    delta: float                # admissible-ball radius
    norm_dom: callable          # domain norm
    norm_cod: callable          # codomain norm
    dN: callable = None         # x -> (v -> dN(x) v), analytic


@dataclass(frozen=True)
class NPResult:
    """The result of np_solve from one start point."""
    x: np.ndarray
    iterations: int
    correction_norm: float
    contraction_ratios: tuple
    precond: dict

    @property
    def contraction_ratio_max(self):
        return max(self.contraction_ratios, default=0.0)


@dataclass(frozen=True)
class NPBlockResult:
    """The result of np_solve from a (size, k) block of start points: x is
    the block of zeros and columns the NPResult of each column, as np_solve
    returns it for that column's start point alone."""
    x: np.ndarray
    columns: tuple

    @property
    def iterations(self):
        return sum(r.iterations for r in self.columns)

    @property
    def contraction_ratio_max(self):
        return max(r.contraction_ratio_max for r in self.columns)


# stopping rule: the Newton-Picard step is small relative to
# max(1, ||x1||); the loop raises ContractionError when it runs out of steps
TOL_ZERO = 1e-12
MAX_ITER = 200


def _columns(a):
    """The vector a, or the columns of the block a as contiguous vectors
    (the rows of one transposed copy)."""
    return [a] if a.ndim == 1 else list(a.T.copy())


def precondition_check(p, x1):
    """Measure the two admissibility bounds ||x1|| < delta/8 (the distance
    from the base point 0) and ||F(x1)|| < delta/(4c): (records, F(x1),
    D x1), with F(x1) = D x1 + N(x1) and one record for a vector x1, or per
    column of a (size, k) block x1, whose F(x1) and D x1 are blocks."""
    x1 = np.asarray(x1, dtype=float)
    dx = [p.norm_dom(c) for c in _columns(x1)]
    d1 = p.apply_D(x1)
    f1 = d1 + p.N(x1)
    fx = [p.norm_cod(c) for c in _columns(f1)]
    return [{
        "dx_norm": float(a), "dx_bound": p.delta / 8.0,
        "dx_ok": bool(a < p.delta / 8.0),
        "fx_norm": float(b), "fx_bound": p.delta / (4.0 * p.c),
        "fx_ok": bool(b < p.delta / (4.0 * p.c)),
    } for a, b in zip(dx, fx)], f1, d1


def np_solve(p, x1):
    """Newton-Picard correction from the approximate zero x1: the NPResult
    of a vector x1, or the NPBlockResult of a (size, k) block of start
    points.

    Iterates Phi(x) = x1 - Q(N(x) + D x1) until the step norm drops below
    TOL_ZERO * max(1, ||x1||); step-size stopping bounds the distance to the
    fixed point through the geometric tail.  Each step costs one N, one Q
    and one norm; D x1 and ||x1|| come from the precondition.  A start point
    x1 or a step of non-finite norm (from a non-finite x1 or an overflow)
    raises ContractionError at once.  The admissibility bounds of
    precondition_check are measured and returned in `precond`, not
    enforced.

    A block is iterated in the same loop: N and Q act on the block of the
    columns still iterating, each column is measured by norm_dom on its
    own, and a column stops at its own stopping step.  So each column has
    the NPResult of its own solve, bit for bit (NPBlockResult.columns), and
    the block fails with the exception of its first failing column.  A
    vector is a block of one whose column the callables see as a vector."""
    x1 = np.asarray(x1, dtype=float)
    pre, f1, d1 = precondition_check(p, x1)
    starts = _columns(x1)
    k = len(starts)
    tols = []
    for rec in pre:
        if not (np.isfinite(rec["dx_norm"]) and np.isfinite(rec["fx_norm"])):
            # an infinite tolerance would accept x1 as an exact zero
            raise ContractionError("start point has non-finite norms: "
                                   "||x1|| = %r, ||F(x1)|| = %r"
                                   % (rec["dx_norm"], rec["fx_norm"]))
        tols.append(TOL_ZERO * max(1.0, rec["dx_norm"]))
    iters = [0] * k
    ratios = [[] for _ in range(k)]
    prev_step = [None] * k
    xs = [None] * k             # the zero of each column, once it stops
    # the active columns, and their start points, D x1, iterates and first
    # right-hand side; a column already at a zero takes no step: the
    # correction map restricts to the identity there
    act = [j for j in range(k) if pre[j]["fx_norm"] > tols[j]]
    x1a, d1a, rhs = (a[:, act] if 0 < len(act) < k else a
                     for a in (x1, d1, f1))
    x = x1a
    step_no = 0
    while act:
        step_no += 1
        if step_no > MAX_ITER:
            raise ContractionError("no convergence in %d iterations"
                                   % MAX_ITER)
        # the first step is from x = x1, where N(x1) + D x1 = F(x1) is the
        # precondition's
        if step_no > 1:
            rhs = p.N(x) + d1a
        x_new = x1a - p.apply_Q(rhs)
        keep = []
        for j, diff in zip(act, _columns(x_new - x)):
            step = p.norm_dom(diff)
            if not np.isfinite(step):
                # a nan ratio would pass the ratio test below
                raise ContractionError("step %d has non-finite norm %r"
                                       % (step_no, step))
            if prev_step[j] is not None and prev_step[j] > 0:
                r = step / prev_step[j]
                ratios[j].append(float(r))
                if r > 0.95:
                    raise ContractionError(
                        "contraction ratio %.3f > 0.95 (hypothesis "
                        "breakdown)" % r)
            prev_step[j] = step
            iters[j] = step_no
            keep.append(step > tols[j])
        x = x_new
        if not all(keep):
            for j, xj, kp in zip(act, _columns(x), keep):
                if not kp:
                    xs[j] = xj
            act = [j for j, kp in zip(act, keep) if kp]
            if act:
                x1a, d1a, x = (a[:, keep] for a in (x1a, d1a, x))
    xs = [s.copy() if xj is None else xj for s, xj in zip(starts, xs)]
    cols = tuple(NPResult(x=xj, iterations=n,
                          correction_norm=float(p.norm_dom(xj - s)) if n
                          else 0.0,
                          contraction_ratios=tuple(r), precond=rec)
                 for s, xj, n, r, rec in zip(starts, xs, iters, ratios, pre))
    if x1.ndim == 1:
        return cols[0]
    return NPBlockResult(x=np.stack(xs, axis=1), columns=cols)


def np_differential(p, x1, v):
    """Differential of the Newton-Picard map at the zero x1 applied to v,
    as the NPResult of np_solve on the problem linearized at x1 (remainder
    dN(x1)) from v.  Differentiating the fixed point x = y - Q(N(x) + D y)
    in y along v gives xi = v - Q(dN(x) xi + D v), the same contraction on
    the problem linearized at x; at x = x1 its fixed point is
    (Id + Q dN(x1))^{-1} (Id - P) v with P = QD."""
    return np_solve(replace(p, N=p.dN(x1), dN=None), v)


def np_tangent_solve(p, x1, xi1):
    """Tangent-map solve: the glued path res = np_solve(p, x1), then its
    tangent tres = np_differential(p, res.x, xi1), since differentiating
    x = x1 - Q(N(x) + D x1) along xi1 gives xi = xi1 - Q(dN(x) xi + D xi1).
    Returns the two NPResults (res, tres): the path is res.x and the
    tangent tres.x."""
    res = np_solve(p, x1)
    return res, np_differential(p, res.x, xi1)


def _unit(rng, n):
    """A standard normal draw in R^n scaled to Euclidean norm 1."""
    v = rng.standard_normal(n)
    return v / max(np.linalg.norm(v), 1e-300)


# ---------------------------------------------------------------------------
# quantitative inverse function theorem certificate

@dataclass(frozen=True)
class IFTCertificate:
    ok: bool
    inv_norm_at_0: float
    k_bound: float
    max_variation: float
    variation_bound: float
    injectivity_checked: int
    injectivity_failures: int
    preimages_checked: int
    preimage_failures: int
    worst_sample: np.ndarray
    slack: float


# the injectivity pairs go to F in blocks of this many pairs: timed on
# criterion 08's gluing map (c1, h = 0.02, a 2-core Xeon), 16-point blocks
# cost 0.50 and 0.60 ms per point at T0 and 2 T0, one 400-point block 0.55
# and 0.84 ms, and its temporaries added 90 MB to the peak RSS
PAIR_BLOCK = 8


def _map_block(F, X):
    """F on the (m, n) block X of points, which F must map row by row to
    an (m, n) block; other shapes, such as those of a map written for a
    single point, raise ValueError."""
    vals = np.asarray(F(X))
    if vals.shape != X.shape:
        raise ValueError("F maps a block of points of shape %s to shape %s; "
                         "it must map a (m, n) block row by row"
                         % (X.shape, vals.shape))
    return vals


def _fd_jacobian(F, x, eps):
    """Central differences of F: R^n -> R^n at x: the 2 n points
    x + eps e_j and x - eps e_j, evaluated by F as one (2 n, n) block."""
    x = np.asarray(x, dtype=float)
    E = eps * np.eye(x.size)
    vals = _map_block(F, np.concatenate([x + E, x - E]))
    return np.ascontiguousarray(((vals[:x.size] - vals[x.size:])
                                 / (2 * eps)).T)


def _ball_point(rng, delta, n):
    """A point of the delta-ball in R^n: radius delta u^(1/n) for a uniform
    u, then a _unit direction."""
    return delta * rng.uniform(0, 1) ** (1.0 / n) * _unit(rng, n)


def ift_certificate(F, delta, k, sample_count, rng, dim, fd_eps=1e-6,
                    slack=1.0, n_pairs=200, n_preimages=20, dF=None):
    """Check the quantitative-IFT hypotheses for F on the delta-ball around 0
    (F(0) = 0): ||dF(0)^{-1}|| <= k and ||dF(x) - dF(0)|| <= 1/(2k), the
    differential taken at 0 and at the variation samples only; `slack` is a
    multiplicative measurement cushion on both bounds.  On success
    spot-verify injectivity on random pairs, and find preimages of targets
    y in the delta/(2k)-ball by the chord map x -> x - dF(0)^{-1}(F(x) - y)
    from x = 0, where F(x) - y = -y: the hypotheses make it a contraction
    of ratio 1/2 (Kelley, Iterative Methods for Linear and Nonlinear
    Equations, SIAM 1995, ch. 5).  A preimage is found at |F(x) - y| <=
    1e-10; an iterate outside the ball, or none found in 50 steps, fails.

    F maps a (m, dim) block of points row by row (a block of another shape
    raises ValueError).  The 2 dim points of
    each finite-difference Jacobian are one block.  All pairs are drawn
    first and go to F in blocks of PAIR_BLOCK pairs (pairs closer than
    1e-12 are skipped, and left out of injectivity_checked); then all
    targets are drawn and iterated in blocks of at most 2 PAIR_BLOCK, a row
    leaving its block once it is found or fails."""
    jac = (lambda x: dF(x)) if dF is not None else (
        lambda x: _fd_jacobian(F, x, fd_eps))
    n = dim
    J0 = jac(np.zeros(n))
    sv = np.linalg.svd(J0, compute_uv=False)
    if sv[-1] <= 0:
        raise ValueError("dF(0) singular: inverse-bound hypothesis fails")
    inv0 = 1.0 / float(sv[-1])
    if inv0 > k * slack:
        raise ValueError("||dF(0)^{-1}|| = %.6g exceeds k = %.6g (slack %.3g)"
                         % (inv0, k, slack))
    worst = 0.0
    worst_x = np.zeros(n)
    for _ in range(sample_count):
        x = _ball_point(rng, delta, n)
        var = float(np.linalg.norm(jac(x) - J0, 2))
        if var > worst:
            worst, worst_x = var, x
    if worst > slack / (2.0 * k):
        raise ValueError(
            "max ||dF(x) - dF(0)|| = %.6g exceeds 1/(2k) = %.6g at x = %s"
            % (worst, 1.0 / (2 * k), worst_x))
    # conclusions (failures flag implementation bugs, hypotheses held)
    pairs = [(_ball_point(rng, delta, n), _ball_point(rng, delta, n))
             for _ in range(n_pairs)]
    pairs = [(x, y) for x, y in pairs if np.linalg.norm(x - y) >= 1e-12]
    inj_fail = 0
    for i in range(0, len(pairs), PAIR_BLOCK):
        block = pairs[i:i + PAIR_BLOCK]
        vals = _map_block(F, np.array([x for x, _ in block]
                                      + [y for _, y in block]))
        for (x, y), fx, fy in zip(block, vals, vals[len(block):]):
            lhs = np.linalg.norm(fx - fy)
            if lhs < np.linalg.norm(x - y) / (2.0 * k) * (1 - 1e-6):
                inj_fail += 1
    targets = np.array([_ball_point(rng, delta / (2.0 * k), n)
                        for _ in range(n_preimages)]).reshape(-1, n)
    pre_fail = 0
    for i in range(0, n_preimages, 2 * PAIR_BLOCK):
        Y = targets[i:i + 2 * PAIR_BLOCK]
        X, R = np.zeros(Y.shape), -Y        # x = 0, where F(x) - y = -y
        for _ in range(50):
            X = X - np.linalg.solve(J0, R.T).T
            # a nan is neither inside nor found: it fails at the next step
            inside = np.linalg.norm(X, axis=1) <= delta * (1 + 1e-9)
            pre_fail += int(np.count_nonzero(~inside))
            X, Y = X[inside], Y[inside]
            if not len(X):
                break
            R = _map_block(F, X) - Y
            still = ~(np.linalg.norm(R, axis=1) <= 1e-10)
            X, Y, R = X[still], Y[still], R[still]
            if not len(X):
                break
        pre_fail += len(X)
    return IFTCertificate(
        ok=(inj_fail == 0 and pre_fail == 0),
        inv_norm_at_0=inv0, k_bound=float(k),
        max_variation=worst, variation_bound=1.0 / (2.0 * k),
        injectivity_checked=len(pairs), injectivity_failures=inj_fail,
        preimages_checked=n_preimages, preimage_failures=pre_fail,
        worst_sample=worst_x, slack=float(slack))
