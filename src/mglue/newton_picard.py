"""Quadratic-estimate-free Newton-Picard machinery over finite-dimensional
discretizations, plus a quantitative inverse-function-theorem certificate.

A problem is a map F = D + N, held as its linearization D at a base point x0
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
    N: callable                 # vector -> vector, the remainder F - D
    apply_D: callable           # vector -> vector, linear
    apply_Q: callable           # vector -> vector, a right inverse of D
    x0: np.ndarray
    c: float                    # bound for ||Q||
    delta: float                # admissible-ball radius
    norm_dom: callable          # domain norm
    norm_cod: callable          # codomain norm
    dN: callable = None         # x -> (v -> dN(x) v), analytic

    def F(self, x):
        """The map itself, D x + N(x)."""
        return self.apply_D(x) + self.N(x)

    def dF(self, x):
        """Its differential at x, v -> D v + dN(x) v."""
        dN = self.dN(x)
        return lambda v: self.apply_D(v) + dN(v)


@dataclass(frozen=True)
class NPResult:
    x: np.ndarray
    iterations: int
    correction_norm: float
    contraction_ratios: tuple
    precond: dict

    @property
    def contraction_ratio_max(self):
        return max(self.contraction_ratios) if self.contraction_ratios else 0.0


# stopping rule: the Newton-Picard step is small relative to
# max(1, ||x1||); the loop raises ContractionError when it runs out of steps
TOL_ZERO = 1e-12
MAX_ITER = 200


def precondition_check(p, x1):
    """Measure the two admissibility bounds ||x1 - x0|| < delta/8 and
    ||F(x1)|| < delta/(4c): (record, F(x1), D x1), with
    F(x1) = D x1 + N(x1)."""
    dx = p.norm_dom(x1 - p.x0)
    d1 = p.apply_D(x1)
    f1 = d1 + p.N(x1)
    fx = p.norm_cod(f1)
    return {
        "dx_norm": float(dx), "dx_bound": p.delta / 8.0,
        "dx_ok": bool(dx < p.delta / 8.0),
        "fx_norm": float(fx), "fx_bound": p.delta / (4.0 * p.c),
        "fx_ok": bool(fx < p.delta / (4.0 * p.c)),
    }, f1, d1


def np_solve(p, x1):
    """Newton-Picard correction from the approximate zero x1.

    Iterates Phi(x) = x1 - Q(N(x) + D x1) until the step norm drops below
    TOL_ZERO * max(1, ||x1||); step-size stopping bounds the distance to the
    fixed point through the geometric tail.  Each step costs one N, one Q
    and one norm; D x1 comes from the precondition record.  A start point
    x1 or a step of non-finite norm (from a non-finite x1 or an overflow)
    raises ContractionError at once.  The admissibility bounds of
    precondition_check are measured and returned in `precond`, not
    enforced."""
    x1 = np.asarray(x1, dtype=float)
    pre, f1, d1 = precondition_check(p, x1)
    x1_norm = p.norm_dom(x1)
    if not (np.isfinite(x1_norm) and np.isfinite(pre["fx_norm"])):
        # an infinite tolerance would accept x1 as an exact zero
        raise ContractionError("start point has non-finite norms: "
                               "||x1|| = %r, ||F(x1)|| = %r"
                               % (x1_norm, pre["fx_norm"]))
    tol = TOL_ZERO * max(1.0, x1_norm)
    if pre["fx_norm"] <= tol:
        # already a zero: the correction map restricts to the identity
        return NPResult(x=x1.copy(), iterations=0, correction_norm=0.0,
                        contraction_ratios=(), precond=pre)
    x = x1.copy()
    ratios = []
    prev_step = None
    iters = 0
    for iters in range(1, MAX_ITER + 1):
        # the first step is from x = x1, where N(x1) + D x1 = F(x1) is the
        # precondition's
        rhs = f1 if iters == 1 else p.N(x) + d1
        x_new = x1 - p.apply_Q(rhs)
        step = p.norm_dom(x_new - x)
        if not np.isfinite(step):
            # a nan ratio would pass the ratio test below
            raise ContractionError("step %d has non-finite norm %r"
                                   % (iters, step))
        if prev_step is not None and prev_step > 0:
            r = step / prev_step
            ratios.append(float(r))
            if r > 0.95:
                raise ContractionError(
                    "contraction ratio %.3f > 0.95 (hypothesis breakdown)" % r)
        prev_step = step
        x = x_new
        if step <= tol:
            break
    else:
        raise ContractionError("no convergence in %d iterations" % MAX_ITER)
    return NPResult(x=x, iterations=iters,
                    correction_norm=float(p.norm_dom(x - x1)),
                    contraction_ratios=tuple(ratios), precond=pre)


def np_differential(p, x1, v):
    """Differential of the Newton-Picard map at the zero x1 applied to v,
    as the NPResult of np_solve on the problem linearized at x1 (remainder
    dN(x1)) from v.  Differentiating the fixed point x = y - Q(N(x) + D y)
    in y along v gives xi = v - Q(dN(x) xi + D v), the same contraction on
    the problem linearized at x; at x = x1 its fixed point is
    (Id + Q dN(x1))^{-1} (Id - P) v with P = QD."""
    return np_solve(replace(p, N=p.dN(x1), dN=None), v)


def np_tangent_solve(p, x1, xi1):
    """Tangent-map solve: the glued path x = np_solve(p, x1).x, then its
    tangent xi = np_differential(p, x, xi1).x, since differentiating
    x = x1 - Q(N(x) + D x1) along xi1 gives xi = xi1 - Q(dN(x) xi + D xi1).
    Returns ((x, xi), the tangent solve's NPResult)."""
    res = np_solve(p, x1)
    tres = np_differential(p, res.x, xi1)
    return (res.x, tres.x), tres


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


def _fd_jacobian(F, x, eps):
    """Central differences of F at x: 2 n evaluations of F."""
    x = np.asarray(x, dtype=float)
    n = x.size
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        cols.append((F(x + e) - F(x - e)) / (2 * eps))
    return np.stack(cols, axis=1)


def ift_certificate(F, delta, k, sample_count, rng, dim, fd_eps=1e-6,
                    slack=1.0, n_pairs=200, n_preimages=20, dF=None):
    """Check the quantitative-IFT hypotheses for F on the delta-ball around 0
    (F(0) = 0): ||dF(0)^{-1}|| <= k and ||dF(x) - dF(0)|| <= 1/(2k) on
    samples; on success spot-verify injectivity on random pairs and Newton
    preimage solves (to a residual of 1e-10) for targets in the
    delta/(2k)-ball.  `slack` is a multiplicative measurement cushion on the
    two hypothesis bounds.  dF(0) is computed once: the variation samples
    compare against it, and each preimage solve starts at x = 0 with it as
    its first Newton step's Jacobian (2 dim evaluations of F fewer per
    preimage for finite differences)."""
    newton_tol = 1e-10
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
        x = delta * rng.uniform(0, 1) ** (1.0 / n) * _unit(rng, n)
        var = float(np.linalg.norm(jac(x) - J0, 2))
        if var > worst:
            worst, worst_x = var, x
    if worst > slack / (2.0 * k):
        raise ValueError(
            "max ||dF(x) - dF(0)|| = %.6g exceeds 1/(2k) = %.6g at x = %s"
            % (worst, 1.0 / (2 * k), worst_x))
    # conclusions (failures flag implementation bugs, hypotheses held)
    inj_fail = 0
    for _ in range(n_pairs):
        x = delta * rng.uniform(0, 1) ** (1.0 / n) * _unit(rng, n)
        y = delta * rng.uniform(0, 1) ** (1.0 / n) * _unit(rng, n)
        if np.linalg.norm(x - y) < 1e-12:
            continue
        lhs = np.linalg.norm(F(x) - F(y))
        if lhs < np.linalg.norm(x - y) / (2.0 * k) * (1 - 1e-6):
            inj_fail += 1
    pre_fail = 0
    for _ in range(n_preimages):
        y = delta / (2.0 * k) * rng.uniform(0, 1) ** (1.0 / n) * _unit(rng, n)
        x = np.zeros(n)
        ok = False
        for step in range(50):
            r = F(x) - y
            if np.linalg.norm(r) <= newton_tol:
                ok = True
                break
            # the first step is taken at x = 0
            x = x - np.linalg.solve(J0 if step == 0 else jac(x), r)
            if np.linalg.norm(x) > delta * (1 + 1e-9):
                break
        else:
            ok = np.linalg.norm(F(x) - y) <= newton_tol
        if not (ok and np.linalg.norm(x) <= delta * (1 + 1e-9)):
            pre_fail += 1
    return IFTCertificate(
        ok=(inj_fail == 0 and pre_fail == 0),
        inv_norm_at_0=inv0, k_bound=float(k),
        max_variation=worst, variation_bound=1.0 / (2.0 * k),
        injectivity_checked=n_pairs, injectivity_failures=inj_fail,
        preimages_checked=n_preimages, preimage_failures=pre_fail,
        worst_sample=worst_x, slack=float(slack))
