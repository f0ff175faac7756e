import dataclasses

import numpy as np
import pytest

from mglue import gluing, newton_picard
from mglue.gluing import flow_problem, preglue, quintic_cutoff, shoot_halves
from mglue.invariant_manifolds import build_tangent_system, solve_tangent_lift
from mglue.linear_theory import LinearTheory
from mglue.newton_picard import (MAX_ITER, TOL_ZERO, ContractionError,
                                 IFTCertificate, NPBlockResult, NPProblem,
                                 NPResult, _fd_jacobian, _unit,
                                 ift_certificate, np_differential, np_solve,
                                 np_tangent_solve, precondition_check)


def columnwise(M):
    """v -> M v of a vector, or of each column of a block, summed over the
    columns of M in a fixed order: a column has the same bits alone and in
    a block (a matrix product need not)."""
    return lambda v: sum(np.multiply.outer(M[:, j], v[j])
                         for j in range(M.shape[1]))


def F_of(p, x):
    """The map of the problem p at x, D x + N(x)."""
    return p.apply_D(x) + p.N(x)


def dF_of(p, x):
    """The differential of the map of p at x, v -> D v + dN(x) v."""
    dN = p.dN(x)
    return lambda v: p.apply_D(v) + dN(v)


def xy2_problem(delta=2.0, c=1.0):
    """F(x, y) = x + y^2 with D = dF(0) restricted through im Q = e_x: the
    remainder is N(x, y) = y^2.  D, Q, N and dN also map the columns of a
    block."""
    Dm = np.array([[1.0, 0.0]])
    Qm = np.array([[1.0], [0.0]])

    def N(v):
        return np.array([v[1] ** 2])

    def dN(x):
        return lambda v: np.array([2 * x[1] * v[1]])

    return NPProblem(N=N, apply_D=columnwise(Dm), apply_Q=columnwise(Qm),
                     c=c, delta=delta, norm_dom=np.linalg.norm,
                     norm_cod=np.linalg.norm, dN=dN)


def linear_problem(dF_scale=1.0):
    """F(v) = A v + b with D = A, Q = A^{-1}, the remainder N = b (in each
    column of a block) and the differential dF_scale * A (exact for
    dF_scale = 1), so dN is (dF_scale - 1) A."""
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    Ainv = np.linalg.inv(A)
    b = np.array([0.1, -0.2])

    def N(v):
        return b if v.ndim == 1 else np.repeat(b[:, None], v.shape[1], axis=1)

    return NPProblem(N=N, apply_D=columnwise(A), apply_Q=columnwise(Ainv),
                     c=2.0, delta=10.0,
                     norm_dom=np.linalg.norm, norm_cod=np.linalg.norm,
                     dN=lambda x: lambda v: (dF_scale - 1.0) * (A @ v))


def np_neumann_defect(p, x1, rng):
    """Measured norm of D Phi(x1) - (Id - P) on 20 random probes, where
    D Phi(x1) = (Id + Q dF(x1) - P)^{-1} (Id - P) is the differential of the
    Newton-Picard map (np_differential) and P = QD: the defect of
    (Id + Q dF(x1) - P)^{-1} - Id on the image of Id - P.  Bounded by
    ||Id - P|| / (mu - 1) when ||dF(x1) - D|| <= 1/(mu c) for some
    mu > 1."""
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(len(x1))
        u = np_differential(p, x1, v).x
        w = v - p.apply_Q(p.apply_D(v))
        worst = max(worst, p.norm_dom(u - w) / p.norm_dom(v))
    return float(worst)


NEUMANN_TOL = 1e-12
NEUMANN_MAX_TERMS = 100


def neumann_solve_reference(p, x1, w):
    """The former _neumann_solve: (Id + Q dN(x1)) u = w by the Neumann
    iteration u <- w - Q dN(x1) u from u = w, to a step below
    NEUMANN_TOL * max(1, ||w||); ContractionError after NEUMANN_MAX_TERMS
    terms."""
    dN1 = p.dN(x1)
    u = w.copy()
    for _ in range(NEUMANN_MAX_TERMS):
        u_new = w - p.apply_Q(dN1(u))
        if p.norm_dom(u_new - u) <= NEUMANN_TOL * max(1.0, p.norm_dom(w)):
            return u_new
        u = u_new
    raise ContractionError("Neumann iteration did not converge")


def np_differential_reference(p, x1, v):
    """The former np_differential: the Neumann solve of
    (Id + Q dN(x1)) u = (Id - P) v, P = QD."""
    v = np.asarray(v, dtype=float)
    return neumann_solve_reference(p, x1, v - p.apply_Q(p.apply_D(v)))


def np_tangent_solve_reference(p, x1, xi1):
    """The former np_tangent_solve: np_solve on the doubled problem
    TF(x, xi) = (F(x), dF(x) xi) with linear part D + D, remainder
    (N(x), dN(x) xi), right inverse Q + Q (one call of apply_Q on two
    columns), p's c and delta, and the max norm max(||x||, ||xi||) on both
    sides.  Returns ((x, xi), NPResult)."""
    x1 = np.asarray(x1, dtype=float)
    xi1 = np.asarray(xi1, dtype=float)
    n = x1.size

    def TN(z):
        return np.concatenate([p.N(z[:n]), p.dN(z[:n])(z[n:])])

    def TD(z):
        return np.concatenate([p.apply_D(z[:n]), p.apply_D(z[n:])])

    def TQ(z):
        return p.apply_Q(z.reshape(2, -1).T).T.reshape(-1)

    def tnorm_dom(z):
        return max(p.norm_dom(z[:n]), p.norm_dom(z[n:]))

    def tnorm_cod(z):
        m = z.size // 2
        return max(p.norm_cod(z[:m]), p.norm_cod(z[m:]))

    tp = NPProblem(N=TN, apply_D=TD, apply_Q=TQ, c=p.c, delta=p.delta,
                   norm_dom=tnorm_dom, norm_cod=tnorm_cod)
    res = np_solve(tp, np.concatenate([x1, xi1]))
    return (res.x[:n], res.x[n:]), res


def _np_loop(p, x1, step_rhs):
    """The Newton-Picard loop x <- x1 - Q(step_rhs(x)) from x = x1, with
    np_solve's precondition record, stopping rule and ratio checks."""
    x1 = np.asarray(x1, dtype=float)
    [pre], _, _ = precondition_check(p, x1)
    tol = TOL_ZERO * max(1.0, p.norm_dom(x1))
    if pre["fx_norm"] <= tol:
        return NPResult(x=x1.copy(), iterations=0, correction_norm=0.0,
                        contraction_ratios=(), precond=pre)
    x = x1.copy()
    ratios = []
    prev_step = None
    iters = 0
    for iters in range(1, MAX_ITER + 1):
        x_new = x1 - p.apply_Q(step_rhs(x))
        step = p.norm_dom(x_new - x)
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


def np_solve_reference(p, x1):
    """The former np_solve loop: each step evaluates F(x) = D x + N(x) and
    D(x - x1), the first one F(x1) again and D(x1 - x1)."""
    return _np_loop(p, x1, lambda x: F_of(p, x) - p.apply_D(x - x1))


def np_solve_remainder_reference(p, x1):
    """The remainder form written plainly: each step evaluates N(x) + D x1,
    the first one N(x1) again, with D x1 evaluated once."""
    d1 = p.apply_D(np.asarray(x1, dtype=float))
    return _np_loop(p, x1, lambda x: p.N(x) + d1)


def counted(p):
    """p with counting N, dN, apply_D and apply_Q, and the dict of their
    call counts."""
    calls = {"N": 0, "dN": 0, "D": 0, "Q": 0}

    def wrap(key, fn):
        def counting(*args):
            calls[key] += 1
            return fn(*args)
        return counting

    return dataclasses.replace(
        p, N=wrap("N", p.N), dN=wrap("dN", p.dN), apply_D=wrap("D", p.apply_D),
        apply_Q=wrap("Q", p.apply_Q)), calls


def count_apply_F(monkeypatch):
    """A list that grows by one with each gluing.apply_F call."""
    seen = []
    apply_F = gluing.apply_F
    monkeypatch.setattr(gluing, "apply_F",
                        lambda *a: seen.append(a) or apply_F(*a))
    return seen


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_result(r, ref):
    """Bit-equal NPResults: x, every scalar, the ratios and the record."""
    assert_same_bits(r.x, ref.x)
    assert r.iterations == ref.iterations
    assert_same_bits(r.correction_norm, ref.correction_norm)
    assert_same_bits(r.contraction_ratios, ref.contraction_ratios)
    assert r.precond.keys() == ref.precond.keys()
    for key in r.precond:
        assert_same_bits(r.precond[key], ref.precond[key])


def assert_close(norm, x, ref):
    """norm(x - ref) within 1e-13 max(1, norm(ref)): the two loops round
    differently, not more."""
    assert norm(x - ref) <= 1e-13 * max(1.0, norm(ref))


def flow_case_at(c1, cc, T):
    """(flow problem, pre-glued x1, pre-glued tangent xi1) of c1 at T
    from the seeds 0.3 / -0.2, as tangent_convergence_sweep sets them up."""
    lt = LinearTheory(c1, T, 0.02, cc)
    wp, wm = shoot_halves(lt, [0.3], [-0.2])
    spec = build_tangent_system(1)
    lift_p = solve_tangent_lift(c1, wp, spec, [[1.0]])[0]
    lift_m = solve_tangent_lift(c1, wm, spec, [[1.0]])[0]
    beta = quintic_cutoff()
    x1 = preglue(beta, wp, wm, T).samples.reshape(-1)
    xi1 = preglue(beta, lift_p, lift_m, T).samples.reshape(-1)
    return flow_problem(lt), x1, xi1


@pytest.fixture(scope="module", params=[3.0, 8.0])
def flow_case(request, c1, cc):
    return flow_case_at(c1, cc, request.param)


def small_cases():
    """(problem, x1, xi1) of the xy2 and the linear test problems."""
    return [(xy2_problem(), np.array([0.1, 0.05]), np.array([0.0, 0.3])),
            (xy2_problem(), np.array([0.1, 0.2]), np.array([0.2, -0.4])),
            (linear_problem(), np.array([0.3, -0.1]), np.array([1.0, 0.5]))]


class TestSavedWork:
    """np_solve iterates x <- x1 - Q(N(x) + D x1): the bits of the plain
    remainder loop, and the iterations of the former loop, which
    evaluated F(x) and D(x - x1) on each step, to rounding.  It takes D x1
    and F(x1) = D x1 + N(x1) from the precondition and evaluates nothing
    at the result: one D in all, one N for F(x1) and one per step after
    the first, one Q per step, and no apply_F.  np_tangent_solve runs the
    same loop twice, on the problem and on its linearization."""

    def check_np_solve(self, p, x1):
        plain = np_solve_remainder_reference(p, x1)
        ref = np_solve_reference(p, x1)
        cp, calls = counted(p)
        res = np_solve(cp, x1)
        assert_same_result(res, plain)
        assert res.iterations == ref.iterations
        assert_close(p.norm_dom, res.x, ref.x)
        assert calls == {"N": res.iterations, "dN": 0, "D": 1,
                         "Q": res.iterations}
        # the former loop: F(x1) twice, then F(x) and D(x - x1) per step
        cp, ref_calls = counted(p)
        np_solve_reference(cp, x1)
        assert ref_calls == {"N": ref.iterations + 1, "dN": 0,
                             "D": 2 * ref.iterations + 1,
                             "Q": ref.iterations}

    def check_tangent(self, p, x1, xi1, monkeypatch):
        base, res = np_tangent_solve(p, x1, xi1)
        with monkeypatch.context() as m:
            m.setattr(newton_picard, "np_solve", np_solve_remainder_reference)
            base_plain, plain = np_tangent_solve(p, x1, xi1)
            m.setattr(newton_picard, "np_solve", np_solve_reference)
            base_ref, ref = np_tangent_solve(p, x1, xi1)
        assert_same_result(base, base_plain)
        assert_same_result(res, plain)
        assert base.iterations == base_ref.iterations
        assert res.iterations == ref.iterations
        assert_close(p.norm_dom, base.x, base_ref.x)
        assert_close(p.norm_dom, res.x, ref.x)

    def test_flow_problem_np_solve(self, flow_case, monkeypatch):
        p, x1, _ = flow_case
        seen = count_apply_F(monkeypatch)
        self.check_np_solve(p, x1)
        assert seen == []

    def test_flow_problem_tangent_solve(self, flow_case, monkeypatch):
        self.check_tangent(*flow_case, monkeypatch)

    @pytest.mark.parametrize("case", range(len(small_cases())))
    def test_small_problems(self, case, monkeypatch):
        p, x1, xi1 = small_cases()[case]
        self.check_np_solve(p, x1)
        self.check_tangent(p, x1, xi1, monkeypatch)

    def norm_dom_calls(self, p, x1):
        """(np_solve's result from x1, its count of norm_dom calls)."""
        calls = []
        cp = dataclasses.replace(
            p, norm_dom=lambda v: calls.append(1) or p.norm_dom(v))
        return np_solve(cp, x1), len(calls)

    def test_norm_dom_calls_flow_problem(self, flow_case):
        # ||x1|| once, in the precondition record, where the tolerance
        # reads it, then one norm per step and one of the correction
        res, n = self.norm_dom_calls(*flow_case[:2])
        assert res.iterations >= 1
        assert n == res.iterations + 2

    def test_norm_dom_calls_small_problems(self):
        for p, x1, _ in small_cases():
            res, n = self.norm_dom_calls(p, x1)
            assert res.iterations >= 1
            assert n == res.iterations + 2
        # a start point at a zero: only the record's norm
        res, n = self.norm_dom_calls(xy2_problem(), np.array([-0.04, 0.2]))
        assert (res.iterations, n) == (0, 1)
        # a block: each column's count
        res, n = self.norm_dom_calls(*block_cases()[0])
        assert n == sum(c.iterations + 2 if c.iterations else 1
                        for c in res.columns)

    def test_exact_zero_one_F_call(self):
        # F(x1) = D x1 + N(x1), and nothing else
        cp, calls = counted(xy2_problem())
        res = np_solve(cp, np.array([-0.04, 0.2]))
        assert res.iterations == 0
        assert calls == {"N": 1, "dN": 0, "D": 1, "Q": 0}

    def test_tangent_solve_F_calls_c1_T5(self, c1, cc, monkeypatch):
        # the base solve: N once per iteration (the first for the
        # precondition's F) and D x1 once; the tangent solve: dN once, at
        # the glued path, its linear map once per iteration and D xi1 once;
        # one single-column Q per iteration of each.  The former doubled
        # solve made 7 doubled N and dN calls and 7 two-column Q calls
        p, x1, xi1 = flow_case_at(c1, cc, 5.0)
        cp, calls = counted(p)
        shapes = []
        applied = []
        apply_Q, dN = cp.apply_Q, cp.dN

        def counting_dN(x):
            lin = dN(x)
            return lambda v: applied.append(1) or lin(v)

        cp = dataclasses.replace(
            cp, apply_Q=lambda v: shapes.append(v.shape) or apply_Q(v),
            dN=counting_dN)
        seen = count_apply_F(monkeypatch)
        base, res = np_tangent_solve(cp, x1, xi1)
        # 6 base and 7 tangent iterations
        assert (base.iterations, res.iterations) == (6, 7)
        assert calls == {"N": 6, "dN": 1, "D": 2, "Q": 6 + 7}
        assert len(applied) == 7
        assert shapes == [x1.shape] * (6 + 7)
        assert seen == []


def divergent_problem():
    """Phi(x) = -2 x^2 componentwise (N(x) = 2 x^2, D = Q = Id): a start
    point of norm 0.1 converges, one of norm 0.9 breaks the ratio test."""
    return NPProblem(N=lambda v: 2.0 * v**2, apply_D=lambda v: v,
                     apply_Q=lambda w: w, c=1.0, delta=1.0,
                     norm_dom=np.linalg.norm, norm_cod=np.linalg.norm)


def block_cases():
    """(problem, block of start points) for the small problems: the
    columns take different step counts, and the third column of xy2's and
    of the linear problem's block is a zero to rounding."""
    return [(xy2_problem(), np.array([[0.1, 0.1, -0.04, 0.02],
                                      [0.05, 0.2, 0.2, -0.1]])),
            (linear_problem(), np.array([[0.3, -0.2, -1.0 / 12.0],
                                         [-0.1, 0.4, 1.0 / 15.0]])),
            (divergent_problem(), np.array([[0.1, -0.05], [0.02, 0.07]]))]


def assert_block_is_solo(p, X1):
    """np_solve on the block X1 against np_solve on each column: every
    field of every column bit for bit, and the block's iterations the sum
    of the columns'."""
    res = np_solve(p, X1)
    solo = [np_solve(p, np.ascontiguousarray(c)) for c in X1.T]
    assert isinstance(res, NPBlockResult)
    assert res.x.shape == X1.shape
    assert res.iterations == sum(r.iterations for r in solo)
    assert len(res.columns) == len(solo)
    for j, (col, ref) in enumerate(zip(res.columns, solo)):
        assert isinstance(col, NPResult)
        assert_same_result(col, ref)
        assert_same_bits(res.x[:, j], ref.x)
    return res


class TestBlocks:
    """np_solve on a (size, k) block iterates the columns in one loop, each
    to its own stopping step: every column has the bits of its solo
    solve."""

    def test_c1_flow_cases(self, c1, cc):
        # per T, the four seed pairs of flow_cases_c1 as one block
        cases = flow_cases_c1(c1, cc)
        for i in range(6):
            group = cases[i::6]
            assert_block_is_solo(group[0][0],
                                 np.stack([x1 for _, x1, _ in group], axis=1))

    @pytest.mark.parametrize("case", range(len(block_cases())))
    def test_small_problems(self, case):
        res = assert_block_is_solo(*block_cases()[case])
        assert len({c.iterations for c in res.columns}) > 1

    @pytest.mark.parametrize("case", range(len(block_cases())))
    def test_contraction_ratio_max_over_columns(self, case):
        res = np_solve(*block_cases()[case])
        ratios = [r for c in res.columns for r in c.contraction_ratios]
        # a number, not the largest of the columns' tuples of ratios
        assert isinstance(res.contraction_ratio_max, float)
        assert res.contraction_ratio_max == max(ratios)
        assert res.contraction_ratio_max == max(
            c.contraction_ratio_max for c in res.columns)

    def test_block_of_one_is_the_vector(self, flow_case):
        p, x1, _ = flow_case
        assert_same_result(np_solve(p, x1[:, None]).columns[0],
                           np_solve(p, x1))

    def test_active_columns_shrink(self):
        # N and Q see the block of the columns still iterating, and a
        # column at an exact zero (the third) never iterates
        p, X1 = block_cases()[0]
        shapes = []
        cp = dataclasses.replace(
            p, apply_Q=lambda w: shapes.append(w.shape) or p.apply_Q(w))
        res = np_solve(cp, X1)
        iters = [c.iterations for c in res.columns]
        widths = [s[1] for s in shapes]
        assert widths[0] == 3 and widths == sorted(widths, reverse=True)
        assert len(widths) == max(iters)
        assert sum(widths) == res.iterations
        assert iters[2] == 0

    def test_failing_column_fails_the_block(self):
        p = divergent_problem()
        bad = np.array([0.9, 0.0])
        with pytest.raises(ContractionError, match="contraction ratio"):
            np_solve(p, bad)
        with pytest.raises(ContractionError, match="contraction ratio"):
            np_solve(p, np.stack([np.array([0.1, 0.0]), bad], axis=1))

    def test_non_finite_column_fails_the_block(self):
        p = divergent_problem()
        X1 = np.array([[0.1, np.nan], [0.0, 0.0]])
        with pytest.raises(ContractionError, match="non-finite"):
            np_solve(p, X1[:, 1])
        with pytest.raises(ContractionError, match="non-finite"):
            np_solve(p, X1)

    def test_flow_callables_map_columns(self, flow_case):
        # N, D, Q and the maps of dN act on a block column by column, with
        # each column's bits; the norms take one vector
        p, x1, xi1 = flow_case
        X = np.stack([x1, xi1, 0.5 * x1 - xi1], axis=1)
        dN = p.dN(x1)
        for fn in (p.N, p.apply_D, p.apply_Q, dN):
            out = fn(X)
            assert out.shape == X.shape
            for j, c in enumerate(X.T):
                assert_same_bits(np.ascontiguousarray(out[:, j]),
                                 fn(np.ascontiguousarray(c)))

    def test_precondition_check_of_a_block(self, flow_case):
        p, x1, _ = flow_case
        X1 = np.stack([x1, 0.5 * x1], axis=1)
        recs, F1, D1 = precondition_check(p, X1)
        assert len(recs) == X1.shape[1]
        for j, c in enumerate(X1.T):
            [rec], f1, d1 = precondition_check(p, np.ascontiguousarray(c))
            assert recs[j] == rec
            assert_same_bits(F1[:, j], f1)
            assert_same_bits(D1[:, j], d1)


def fd_jacobian_reference(F, x, eps):
    """The _fd_jacobian before the per-point one: F(x) evaluated for the
    row count, then the columns filled in place."""
    x = np.asarray(x, dtype=float)
    n = x.size
    J = np.empty((len(F(x)), n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        J[:, j] = (F(x + e) - F(x - e)) / (2 * eps)
    return J


def fd_jacobian_per_point(F, x, eps):
    """The former _fd_jacobian: central differences of F at x, one point
    at a time, 2 n evaluations of F."""
    x = np.asarray(x, dtype=float)
    n = x.size
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        cols.append((F(x + e) - F(x - e)) / (2 * eps))
    return np.stack(cols, axis=1)


def test_fd_jacobian_one_block():
    # F on (..., 3) arrays: the 2 n points are one call, and each column
    # has the bits of the per-point differences
    calls = []

    def F(x):
        calls.append(np.shape(x))
        return np.stack([np.sin(x[..., 0]) * x[..., 1], x[..., 0] ** 3,
                         x[..., 1] - x[..., 2] ** 2], axis=-1)

    x = np.array([0.3, -0.7, 1.1])
    J = _fd_jacobian(F, x, 1e-4)
    assert calls == [(2 * x.size, x.size)]
    assert_same_bits(J, fd_jacobian_reference(F, x, 1e-4))
    assert_same_bits(J, fd_jacobian_per_point(F, x, 1e-4))


class TestNpSolve:
    def test_xy2_example(self):
        p = xy2_problem()
        res = np_solve(p, np.array([0.1, 0.0]))
        assert np.allclose(res.x, [0.0, 0.0], atol=1e-10)
        assert res.correction_norm <= 2 * p.c * 0.1 * (1 + 1e-10)
        assert np.linalg.norm(F_of(p, res.x)) <= 1e-10

    def test_exact_zero_returns_unchanged(self):
        p = xy2_problem()
        x1 = np.array([-0.04, 0.2])          # zero of x + y^2
        res = np_solve(p, x1)
        assert res.iterations == 0
        assert np.array_equal(res.x, x1)

    def test_linear_single_step(self):
        p = linear_problem()
        x1 = np.array([0.3, -0.1])
        res = np_solve(p, x1)
        expect = x1 - np.linalg.inv(np.array([[2.0, 1.0], [0.0, 3.0]])) @ \
            F_of(p, x1)
        assert np.allclose(res.x, expect, atol=1e-12)
        assert res.iterations <= 2

    def test_precondition_violation_reported(self):
        # ||x1|| = 0.09 >= delta/8: measured and reported, not enforced
        p = xy2_problem(delta=0.1)
        pre = np_solve(p, np.array([0.09, 0.0])).precond
        assert not pre["dx_ok"]
        assert pre["dx_norm"] == pytest.approx(0.09)
        assert pre["dx_bound"] == pytest.approx(0.1 / 8.0)

    def test_correction_stays_in_image_of_q(self):
        p = xy2_problem()
        x1 = np.array([0.1, 0.05])
        res = np_solve(p, x1)
        corr = res.x - x1
        assert abs(corr[1]) <= 1e-14        # im Q = span{e_x}
        qd = p.apply_Q(p.apply_D(corr))
        assert np.linalg.norm(corr - qd) <= 1e-10 * np.linalg.norm(corr)

    def test_flow_correction_in_image_of_q(self, flow_case):
        p, x1, _ = flow_case
        corr = np_solve(p, x1).x - x1
        qd = p.apply_Q(p.apply_D(corr))
        assert p.norm_dom(corr - qd) <= 1e-10 * p.norm_dom(corr)

    def test_uniqueness_of_fixed_point(self):
        p = xy2_problem()
        x1 = np.array([0.1, 0.08])
        r1 = np_solve(p, x1)
        r2 = np_solve(p, x1.copy())
        assert np.max(np.abs(r1.x - r2.x)) <= 1e-10

    def test_contraction_ratio_below_half(self):
        p = xy2_problem()
        res = np_solve(p, np.array([0.1, 0.2]))
        if res.iterations >= 3:
            assert res.contraction_ratio_max <= 0.5 + 1e-6

    def test_measured_bounds_in_precondition_check(self):
        p = xy2_problem()
        x1 = np.array([0.1, 0.0])
        [rec], f1, d1 = precondition_check(p, x1)
        assert rec["dx_ok"] and rec["fx_ok"]
        assert_same_bits(f1, F_of(p, x1))
        assert_same_bits(d1, p.apply_D(x1))
        assert rec["fx_norm"] == np.linalg.norm(f1)

    def test_overflowing_start_norms_raise(self):
        # ||x1|| and ||F(x1)|| overflow to inf, so the tolerance
        # TOL_ZERO * max(1, ||x1||) would be inf and accept x1 as a zero
        calls = []

        def N(x):
            calls.append(1)
            return 0.1 * x**2

        p = NPProblem(N=N, apply_D=lambda x: x, apply_Q=lambda y: y,
                      c=1.0, delta=1.0,
                      norm_dom=np.linalg.norm, norm_cod=np.linalg.norm)
        with np.errstate(over="ignore"):
            with pytest.raises(ContractionError, match="non-finite"):
                np_solve(p, np.array([1e200, 1e200]))
        assert len(calls) == 1

    def test_differential_overflowing_direction_raises(self):
        # the differential runs through np_solve, so the start check holds
        # for its direction too
        with np.errstate(over="ignore"):
            with pytest.raises(ContractionError, match="non-finite"):
                np_differential(xy2_problem(), np.array([0.1, 0.0]),
                                np.array([1e200, 1e200]))

    @pytest.mark.parametrize("start", [1e120, np.nan])
    def test_non_finite_step_stops_at_once(self, start):
        # N(1e120) overflows to inf and a nan start stays nan: the first
        # step has no finite norm, and its nan ratios would pass the ratio
        # test for all MAX_ITER steps
        calls = []

        def N(x):
            calls.append(1)
            return 1e3 * x**3

        p = NPProblem(N=N, apply_D=lambda x: x, apply_Q=lambda y: y,
                      c=1.0, delta=1.0,
                      norm_dom=np.linalg.norm, norm_cod=np.linalg.norm)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ContractionError, match="non-finite"):
                np_solve(p, np.array([start, 0.0, 0.0]))
        assert len(calls) <= 2


class TestNpDifferential:
    def test_identity_minus_p_at_origin(self):
        p = xy2_problem()
        for v in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                  np.array([0.4, -0.7])):
            out = np_differential(p, np.zeros(2), v).x
            expect = v - np.array([v[0], 0.0])     # (Id - P) v, P = Q D
            assert np.allclose(out, expect, atol=1e-12)

    def test_kernel_direction_linear_map(self):
        p = linear_problem()
        # ker D is trivial here; (Id - P) = 0 for an invertible D with Q its
        # inverse, so the differential vanishes identically
        out = np_differential(p, np.array([0.2, 0.1]),
                              np.array([1.0, 1.0])).x
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_matches_finite_difference(self):
        p = xy2_problem()
        x1 = np.array([0.1, 0.0])
        v = np.array([0.0, 1.0])
        eps = 1e-5
        fd = (np_solve(p, x1 + eps * v).x - np_solve(p, x1 - eps * v).x) / (
            2 * eps)
        out = np_differential(p, x1, v).x
        assert np.max(np.abs(out - fd)) <= 1e-4


class TestNeumannDefect:
    def test_linear_problem_zero_defect(self):
        # the differential of a linear map is D itself
        d = np_neumann_defect(linear_problem(), np.array([0.1, 0.1]),
                              np.random.default_rng(0))
        assert d <= 1e-10

    def test_unconverged_solve_raises(self):
        # with dF = 3A and P = QD = Id the step of the linearized
        # Newton-Picard map is u <- -2u, which diverges
        p = linear_problem(dF_scale=3.0)
        with pytest.raises(ContractionError):
            np_neumann_defect(p, np.array([0.1, 0.1]),
                              np.random.default_rng(0))

    def test_mu2_bound(self):
        p = xy2_problem()
        d = np_neumann_defect(p, np.array([0.05, 0.1]),
                              np.random.default_rng(1))
        assert d <= 1.0 + 1e-6

    def test_mu5_crafted(self):
        # dF - D has norm exactly 1/(5c) at y = 0.1 when c = 1
        p = xy2_problem()
        x1 = np.array([0.0, 0.1])
        d = np_neumann_defect(p, x1, np.random.default_rng(2))
        assert d <= 0.25 + 1e-6


class TestTangentSolve:
    def test_zero_fiber(self):
        p = xy2_problem()
        base, res = np_tangent_solve(p, np.array([0.1, 0.0]), np.zeros(2))
        assert np.allclose(res.x, 0.0, atol=1e-12)
        assert np.allclose(base.x, np_solve(p, np.array([0.1, 0.0])).x,
                           atol=1e-12)

    def test_xy2_fiber_by_hand(self):
        p = xy2_problem()
        base, res = np_tangent_solve(p, np.array([0.1, 0.0]),
                                     np.array([0.0, 1.0]))
        assert np.allclose(base.x, [0.0, 0.0], atol=1e-10)
        assert np.allclose(res.x, [0.0, 1.0], atol=1e-10)

    def test_base_matches_np_solve(self):
        p = xy2_problem()
        x1 = np.array([0.08, 0.05])
        base, _ = np_tangent_solve(p, x1, np.array([0.0, 0.3]))
        assert np.max(np.abs(base.x - np_solve(p, x1).x)) <= 1e-10

    def test_fiber_solves_linearized_equation(self):
        p = xy2_problem()
        x1 = np.array([0.08, 0.05])
        xi1 = np.array([0.0, 0.3])
        base, res = np_tangent_solve(p, x1, xi1)
        assert abs(dF_of(p, base.x)(res.x)[0]) <= 1e-9
        assert abs((res.x - xi1)[1]) <= 1e-12    # xi - xi1 in im Q


def flow_cases_c1(c1, cc):
    """(flow problem, x1, xi1) of c1 for T = 3..8 and four seed pairs, the
    halves and their tangent lifts shot once per pair to S = 22."""
    lts = [LinearTheory(c1, T, 0.02, cc) for T in range(3, 9)]
    spec = build_tangent_system(1)
    beta = quintic_cutoff()
    cases = []
    for sp, sm in ((0.3, -0.2), (-0.3, 0.2), (0.2, 0.25), (-0.1, -0.3)):
        wp, wm = shoot_halves(lts[-1], [sp], [sm])
        lift_p = solve_tangent_lift(c1, wp, spec, [[1.0]])[0]
        lift_m = solve_tangent_lift(c1, wm, spec, [[1.0]])[0]
        for lt in lts:
            cases.append((flow_problem(lt),
                          preglue(beta, wp, wm, lt.T).samples.reshape(-1),
                          preglue(beta, lift_p, lift_m,
                                  lt.T).samples.reshape(-1)))
    return cases


def assert_rel(norm, x, ref, start, tol):
    """norm(x - ref) within tol times the larger of norm(ref) and the
    start's norm, the scale of the solvers' stopping rules."""
    assert norm(x - ref) <= tol * max(norm(ref), norm(start))


class TestFormerSolvers:
    """np_tangent_solve (np_solve, then np_differential at the glued path)
    against the former doubled solve, to 1e-12 relative in the domain norm
    in both x and xi, and np_differential against the former Neumann
    solve, to 1e-11 relative."""

    def check(self, p, x1, xi1):
        base, res = np_tangent_solve(p, x1, xi1)
        x, xi = base.x, res.x
        (x_ref, xi_ref), _ = np_tangent_solve_reference(p, x1, xi1)
        assert_rel(p.norm_dom, x, x_ref, x1, 1e-12)
        assert_rel(p.norm_dom, xi, xi_ref, xi1, 1e-12)
        # the differential at the glued path, and at the start
        for at in (x, x1):
            u = np_differential(p, at, xi1).x
            assert_rel(p.norm_dom, u, np_differential_reference(p, at, xi1),
                       xi1, 1e-11)

    def test_c1_flow_cases(self, c1, cc):
        for case in flow_cases_c1(c1, cc):
            self.check(*case)

    @pytest.mark.parametrize("case", range(len(small_cases())))
    def test_small_problems(self, case):
        self.check(*small_cases()[case])


class TestIFT:
    def test_identity_map(self):
        rng = np.random.default_rng(4)
        cert = ift_certificate(lambda x: x, 1.0, 1.0, 10, rng, dim=3)
        assert cert.ok
        assert cert.inv_norm_at_0 <= 1.0 + 1e-6
        assert cert.injectivity_failures == 0
        assert cert.preimage_failures == 0

    def test_mild_nonlinearity(self):
        rng = np.random.default_rng(5)
        cert = ift_certificate(lambda x: x + x**2 / 10, 0.5, 1.0, 20, rng,
                               dim=1, fd_eps=1e-6)
        assert cert.ok
        assert cert.max_variation <= 0.5

    def test_singular_jacobian_fails(self):
        rng = np.random.default_rng(6)
        def F(x):
            return np.stack([x[..., 0], 0.0 * x[..., 1]], axis=-1)
        with pytest.raises(ValueError):
            ift_certificate(F, 0.5, 1.0, 10, rng, dim=2)

    @pytest.mark.parametrize("case", ["identity", "mild"])
    def test_equals_reference(self, case):
        # the TestIFT maps: same fields, bit for bit, and the same draws
        F, delta, dim = {"identity": (lambda x: x, 1.0, 3),
                         "mild": (lambda x: x + x**2 / 10, 0.5, 1)}[case]
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        cert = ift_certificate(F, delta, 1.0, 10, rng, dim=dim)
        ref = ift_certificate_reference(F, delta, 1.0, 10, ref_rng, dim=dim)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert_same_certificate(cert, ref)

    def test_equals_reference_on_criterion_08_map(self, c1, cc):
        # diffeo_criterion's certificate at T0, with fewer samples: the
        # blocks of the gluing map give the per-point certificate
        h = 0.02
        lt = LinearTheory(c1, np.ceil(cc.T0 / h) * h, h, cc)
        F = gluing.glue_coordinate_rep(quintic_cutoff(), lt, scale=0.3)
        kwargs = dict(dim=c1.dim, fd_eps=1e-4, slack=1.0 + 5.0 * h,
                      n_pairs=20, n_preimages=3)
        rng, ref_rng = np.random.default_rng(100), np.random.default_rng(100)
        cert = ift_certificate(F, 1.0, cc.k_gamma_inv, 3, rng, **kwargs)
        # the reference evaluates one point at a time, as a block of one
        ref = ift_certificate_reference(lambda x: F(x[None])[0], 1.0,
                                        cc.k_gamma_inv, 3, ref_rng, **kwargs)
        assert cert.ok and cert.injectivity_checked == 20
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert_same_certificate(cert, ref)

    def test_map_of_single_points_raises(self):
        # a map written for one point turns a block into the wrong shape:
        # in the finite-difference Jacobian, and in the pair block when dF
        # is analytic
        def F(x):
            return np.array([x[0], x[1] + x[2] ** 2, 2.0 * x[2]])

        def dF(x):
            return np.array([[1.0, 0, 0], [0, 1.0, 2 * x[2]], [0, 0, 2.0]])

        for kwargs in ({}, {"dF": dF}):
            with pytest.raises(ValueError, match="row by row"):
                ift_certificate(F, 0.1, 1.0, 2, np.random.default_rng(3),
                                dim=3, n_pairs=4, **kwargs)

    def test_pairs_in_blocks_of_pair_block(self):
        # 2 PAIR_BLOCK + 3 pairs: two full blocks and one of 3, each point
        # with the bits of the per-point certificate
        shapes = []
        A = np.array([[1.0, 0.3], [-0.2, 0.9]])

        def F(x):
            shapes.append(np.shape(x))
            return (x[..., :1] * A[:, 0] + x[..., 1:] * A[:, 1]
                    + 0.05 * x ** 2)

        def dF(x):
            return A + np.diag(0.1 * x)

        n_pairs = 2 * newton_picard.PAIR_BLOCK + 3
        kwargs = dict(dim=2, n_pairs=n_pairs, n_preimages=2, dF=dF)
        cert = ift_certificate(F, 0.5, 2.0, 2, np.random.default_rng(9),
                               **kwargs)
        # then the 2 preimage targets, as one block while both are open
        assert shapes[:3] == [(2 * newton_picard.PAIR_BLOCK, 2)] * 2 + [(6, 2)]
        assert shapes[3] == (2, 2)
        assert all(s[0] <= 2 for s in shapes[3:])
        ref = ift_certificate_reference(F, 0.5, 2.0, 2,
                                        np.random.default_rng(9), **kwargs)
        assert cert.ok and cert.injectivity_checked == n_pairs
        assert_same_certificate(cert, ref)

    def test_pairs_closer_than_1e_12_not_counted(self):
        # in a ball of radius 1e-14 every pair is skipped, so none is
        # checked and F sees no pair block
        calls = []

        def F(x):
            calls.append(np.shape(x))
            return x

        cert = ift_certificate(F, 1e-14, 1.0, 2, np.random.default_rng(7),
                               dim=2, n_pairs=6, n_preimages=2)
        assert cert.ok
        assert cert.injectivity_checked == 0
        assert (12, 2) not in calls
        full = ift_certificate(F, 1.0, 1.0, 2, np.random.default_rng(7),
                               dim=2, n_pairs=6, n_preimages=2)
        assert full.injectivity_checked == 6


def assert_same_certificate(cert, ref):
    for field in dataclasses.fields(IFTCertificate):
        assert_same_bits(getattr(cert, field.name), getattr(ref, field.name))


def ift_certificate_reference(F, delta, k, sample_count, rng, dim,
                              fd_eps=1e-6, slack=1.0, n_pairs=200,
                              n_preimages=20, dF=None):
    """The former ift_certificate, which evaluated F one point at a time
    (fd_jacobian_per_point) and found each preimage by Newton's method, with
    the Jacobian evaluated at every step; it counts the pairs it compares.
    Its fields are the chord map's whenever both find every preimage."""
    jac = (lambda x: dF(x)) if dF is not None else (
        lambda x: fd_jacobian_per_point(F, x, fd_eps))
    n = dim
    J0 = jac(np.zeros(n))
    inv0 = 1.0 / float(np.linalg.svd(J0, compute_uv=False)[-1])
    assert inv0 <= k * slack
    worst = 0.0
    worst_x = np.zeros(n)
    for _ in range(sample_count):
        x = delta * rng.uniform(0, 1) ** (1.0 / n) * _unit(rng, n)
        var = float(np.linalg.norm(jac(x) - J0, 2))
        if var > worst:
            worst, worst_x = var, x
    assert worst <= slack / (2.0 * k)
    inj_fail = 0
    inj_checked = 0
    for _ in range(n_pairs):
        x = delta * rng.uniform(0, 1) ** (1.0 / n) * _unit(rng, n)
        y = delta * rng.uniform(0, 1) ** (1.0 / n) * _unit(rng, n)
        if np.linalg.norm(x - y) < 1e-12:
            continue
        inj_checked += 1
        lhs = np.linalg.norm(F(x) - F(y))
        if lhs < np.linalg.norm(x - y) / (2.0 * k) * (1 - 1e-6):
            inj_fail += 1
    pre_fail = 0
    for _ in range(n_preimages):
        y = delta / (2.0 * k) * rng.uniform(0, 1) ** (1.0 / n) * _unit(rng, n)
        x = np.zeros(n)
        ok = False
        for _ in range(50):
            r = F(x) - y
            if np.linalg.norm(r) <= 1e-10:
                ok = True
                break
            x = x - np.linalg.solve(jac(x), r)
            if np.linalg.norm(x) > delta * (1 + 1e-9):
                break
        else:
            ok = np.linalg.norm(F(x) - y) <= 1e-10
        if not (ok and np.linalg.norm(x) <= delta * (1 + 1e-9)):
            pre_fail += 1
    return IFTCertificate(
        ok=(inj_fail == 0 and pre_fail == 0),
        inv_norm_at_0=inv0, k_bound=float(k),
        max_variation=worst, variation_bound=1.0 / (2.0 * k),
        injectivity_checked=inj_checked, injectivity_failures=inj_fail,
        preimages_checked=n_preimages, preimage_failures=pre_fail,
        worst_sample=worst_x, slack=float(slack))


class TestIFTSavedWork:
    A = np.array([[1.0, 0.2, 0.0], [0.0, 1.1, -0.1], [0.1, 0.0, 0.9]])

    def counted_maps(self, dim):
        """A mildly nonlinear map on R^dim, on a point or a block of them,
        and its differential at a point, counting the points F evaluates
        and the calls of dF.  A x is summed in a fixed order, so a point
        has the same bits alone and in a block."""
        A = self.A[:dim, :dim]
        calls = {"F": 0, "dF": 0}

        def F(x):
            calls["F"] += len(np.atleast_2d(x))
            lin = sum(x[..., j, None] * A[:, j] for j in range(dim))
            return lin + 0.05 * x ** 2 + 0.02 * x[..., :1] * x

        def dF(x):
            calls["dF"] += 1
            return A + np.diag(0.1 * x + 0.02 * x[0]) + np.outer(
                0.02 * x, np.eye(dim)[0])

        return F, dF, calls

    def run(self, certify, dim, analytic, seed=8):
        F, dF, calls = self.counted_maps(dim)
        rng = np.random.default_rng(seed)
        cert = certify(F, 0.5, 2.0, 3, rng, dim=dim, fd_eps=1e-5, n_pairs=5,
                       n_preimages=4, dF=dF if analytic else None)
        return cert, calls, rng.bit_generator.state

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("analytic", [False, True])
    def test_same_bits_as_former_loop(self, dim, analytic):
        cert, _, state = self.run(ift_certificate, dim, analytic)
        ref, _, ref_state = self.run(ift_certificate_reference, dim, analytic)
        assert cert.ok and state == ref_state
        assert_same_certificate(cert, ref)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_blocks_of_points(self, dim):
        # dF(0) and each of the 3 variation samples are one block of 2 dim
        # points, the 5 pairs one block of 10; the chord steps of the 4
        # preimages then evaluate F on the block of the targets still open,
        # and take no Jacobian
        F, _, _ = self.counted_maps(dim)
        shapes = []
        ift_certificate(lambda x: shapes.append(np.shape(x)) or F(x), 0.5,
                        2.0, 3, np.random.default_rng(8), dim=dim,
                        fd_eps=1e-5, n_pairs=5, n_preimages=4)
        assert shapes[:5] == [(2 * dim, dim)] * 4 + [(10, dim)]
        assert shapes[5] == (4, dim)
        assert all(len(s) == 2 and s[0] <= 4 and s[1] == dim
                   for s in shapes[5:])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_differential_only_at_zero_and_samples(self, dim):
        # dF runs at 0 and at the 3 variation samples, and finite
        # differences take 2 dim evaluations of F at each of those points;
        # the preimages evaluate the same points either way
        _, fd_calls, _ = self.run(ift_certificate, dim, False)
        _, calls, _ = self.run(ift_certificate, dim, True)
        assert calls["dF"] == 1 + 3
        assert fd_calls["F"] - calls["F"] == (1 + 3) * 2 * dim

    def test_chord_steps_leaving_the_ball_fail(self):
        # F = id with the differential given as 0.4 id: the chord map is
        # x -> x - 2.5 (x - y), whose error grows by 1.5 a step
        cert = ift_certificate(lambda x: x, 1.0, 2.5, 2,
                               np.random.default_rng(8), dim=2, n_pairs=4,
                               n_preimages=5,
                               dF=lambda x: 0.4 * np.eye(2))
        assert cert.injectivity_failures == 0
        assert cert.preimage_failures == 5 and not cert.ok

    def test_preimages_open_after_50_steps_fail(self):
        # with the differential 0.5 id the chord map x -> 2 y - x swaps 2 y
        # and 0 inside the ball: each target is open after 50 steps, each
        # one of them a block row at every step
        shapes = []

        def F(x):
            shapes.append(np.shape(x))
            return x

        cert = ift_certificate(F, 1.0, 2.0, 2, np.random.default_rng(8),
                               dim=2, n_pairs=4, n_preimages=3,
                               dF=lambda x: 0.5 * np.eye(2))
        assert cert.preimage_failures == 3 and not cert.ok
        assert shapes[1:] == [(3, 2)] * 50
