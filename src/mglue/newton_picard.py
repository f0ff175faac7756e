"""Quadratic-estimate-free Newton-Picard machinery over finite-dimensional
discretizations, plus a quantitative inverse-function-theorem certificate.

A problem is a map F = D + N, held as its linearization D at a base point x0
and its nonlinear remainder N = F - D, with a right inverse Q of D
(DQ = Id).  The correction iterates the contraction
    Phi(x) = x1 - Q(F(x) - D(x - x1)) = x1 - Q(N(x) + D x1),
whose fixed point x satisfies F(x) = 0 (to the right-inverse defect) with
x - x1 in the image of Q and ||x - x1|| <= 2 c ||F(x1)||.
"""

from dataclasses import dataclass

import numpy as np


class PreconditionError(ValueError):
    pass


class ContractionError(RuntimeError):
    pass


@dataclass(frozen=True)
class NPProblem:
    N: callable                 # vector -> vector, the remainder F - D
    apply_D: callable           # vector -> vector, linear
    # right inverse of D: a vector, or the k columns of a (size, k) array
    apply_Q: callable
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


# stopping rules: the Newton-Picard step and the Neumann step are small
# relative to max(1, ||input||); both loops raise ContractionError when they
# run out of terms
TOL_ZERO = 1e-12
MAX_ITER = 200
NEUMANN_TOL = 1e-12
NEUMANN_MAX_TERMS = 100


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
    and one norm; D x1 comes from the precondition record.  A step of
    non-finite norm (from a non-finite x1 or an overflow) raises
    ContractionError at once.  The admissibility bounds of
    precondition_check are measured and returned in `precond`, not
    enforced."""
    x1 = np.asarray(x1, dtype=float)
    pre, f1, d1 = precondition_check(p, x1)
    tol = TOL_ZERO * max(1.0, p.norm_dom(x1))
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


def _neumann_solve(p, x1, w):
    """Solve (Id + Q dF(x1) - P) u = w, P = QD, that is
    (Id + Q dN(x1)) u = w, by the Neumann iteration u <- w - Q dN(x1) u from
    u = w, to a step below NEUMANN_TOL * max(1, ||w||); ContractionError
    after NEUMANN_MAX_TERMS terms."""
    dN1 = p.dN(x1)
    u = w.copy()
    for _ in range(NEUMANN_MAX_TERMS):
        u_new = w - p.apply_Q(dN1(u))
        if p.norm_dom(u_new - u) <= NEUMANN_TOL * max(1.0, p.norm_dom(w)):
            return u_new
        u = u_new
    raise ContractionError("Neumann iteration did not converge")


def np_differential(p, x1, v):
    """Differential of the Newton-Picard map at x1 applied to v:
    (Id + Q dF(x1) - P)^{-1} (Id - P) v with P = QD."""
    v = np.asarray(v, dtype=float)
    return _neumann_solve(p, x1, v - p.apply_Q(p.apply_D(v)))


def np_tangent_solve(p, x1, xi1):
    """Tangent-map solve: Newton-Picard on the doubled problem
    TF(x, xi) = (F(x), dF(x) xi) with initial point (x0, 0), linear part
    D + D, remainder TN(x, xi) = (N(x), dN(x) xi), right inverse Q + Q (one
    call of apply_Q on two columns), p's c and delta, and the max norm
    max(||x||, ||xi||) on both sides.  Returns ((x, xi), NPResult)."""
    x1 = np.asarray(x1, dtype=float)
    xi1 = np.asarray(xi1, dtype=float)
    n = x1.size

    def split(z, at):
        return z[:at], z[at:]

    def TN(z):
        x, xi = split(z, n)
        return np.concatenate([p.N(x), p.dN(x)(xi)])

    def TD(z):
        x, xi = split(z, n)
        return np.concatenate([p.apply_D(x), p.apply_D(xi)])

    # the codomain is two copies of F's codomain: its halves are the two
    # columns of one Q call
    def TQ(z):
        return p.apply_Q(z.reshape(2, -1).T).T.reshape(-1)

    def tnorm_dom(z):
        x, xi = split(z, n)
        return max(p.norm_dom(x), p.norm_dom(xi))

    def tnorm_cod(z):
        y, eta = split(z, z.size // 2)
        return max(p.norm_cod(y), p.norm_cod(eta))

    tp = NPProblem(N=TN, apply_D=TD, apply_Q=TQ,
                   x0=np.concatenate([p.x0, np.zeros_like(p.x0)]),
                   c=p.c, delta=p.delta, norm_dom=tnorm_dom,
                   norm_cod=tnorm_cod)
    res = np_solve(tp, np.concatenate([x1, xi1]))
    x, xi = split(res.x, n)
    return (x, xi), res


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
