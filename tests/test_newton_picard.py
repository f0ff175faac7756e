import numpy as np
import pytest

from mglue.newton_picard import (ContractionError, IFTCertificate, NPProblem,
                                 estimate_c2, ift_certificate,
                                 np_differential, np_neumann_defect, np_solve,
                                 np_tangent_solve, precondition_check)


def xy2_problem(delta=2.0, c=1.0):
    """F(x, y) = x + y^2 with D = dF(0) restricted through im Q = e_x."""
    def F(v):
        return np.array([v[0] + v[1] ** 2])

    def D(v):
        return np.array([v[0]])

    def Q(w):
        return np.array([w[0], 0.0])

    def dF(x):
        return lambda v: np.array([v[0] + 2 * x[1] * v[1]])

    return NPProblem(F=F, apply_D=D, apply_Q=Q, x0=np.zeros(2), c=c,
                     delta=delta, dF=dF)


def linear_problem(dF_scale=1.0):
    """F(v) = A v + b with D = A, Q = A^{-1} and the differential
    dF_scale * A (exact for dF_scale = 1)."""
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    Ainv = np.linalg.inv(A)

    def F(v):
        return A @ v + np.array([0.1, -0.2])

    return NPProblem(F=F, apply_D=lambda v: A @ v,
                     apply_Q=lambda w: Ainv @ w, x0=np.zeros(2), c=2.0,
                     delta=10.0, dF=lambda x: lambda v: dF_scale * (A @ v))


class TestNpSolve:
    def test_xy2_example(self):
        p = xy2_problem()
        res = np_solve(p, np.array([0.1, 0.0]))
        assert np.allclose(res.x, [0.0, 0.0], atol=1e-10)
        assert res.correction_norm <= 2 * p.c * 0.1 * (1 + 1e-10)
        assert res.residual_final <= 1e-10

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
            p.F(x1)
        assert np.allclose(res.x, expect, atol=1e-12)
        assert res.iterations <= 2

    def test_precondition_violation_reported(self):
        # ||x1 - x0|| = 0.09 >= delta/8: measured and reported, not enforced
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
        assert res.in_image_Q_defect <= 1e-10

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
        rec = precondition_check(p, np.array([0.1, 0.0]))
        assert rec["dx_ok"] and rec["fx_ok"]


class TestNpDifferential:
    def test_identity_minus_p_at_origin(self):
        p = xy2_problem()
        for v in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                  np.array([0.4, -0.7])):
            out = np_differential(p, p.x0, v)
            expect = v - np.array([v[0], 0.0])     # (Id - P) v, P = Q D
            assert np.allclose(out, expect, atol=1e-12)

    def test_kernel_direction_linear_map(self):
        p = linear_problem()
        # ker D is trivial here; (Id - P) = 0 for an invertible D with Q its
        # inverse, so the differential vanishes identically
        out = np_differential(p, np.array([0.2, 0.1]), np.array([1.0, 1.0]))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_matches_finite_difference(self):
        p = xy2_problem()
        x1 = np.array([0.1, 0.0])
        v = np.array([0.0, 1.0])
        eps = 1e-5
        fd = (np_solve(p, x1 + eps * v).x - np_solve(p, x1 - eps * v).x) / (
            2 * eps)
        out = np_differential(p, x1, v)
        assert np.max(np.abs(out - fd)) <= 1e-4


class TestNeumannDefect:
    def test_linear_problem_zero_defect(self):
        # the differential of a linear map is D itself
        d = np_neumann_defect(linear_problem(), np.array([0.1, 0.1]),
                              np.random.default_rng(0))
        assert d <= 1e-10

    def test_unconverged_solve_raises(self):
        # with dF = 3A and P = QD = Id the Neumann step is u <- w - 2u,
        # which diverges
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
        (x, xi), res = np_tangent_solve(p, np.array([0.1, 0.0]),
                                        np.zeros(2))
        assert np.allclose(xi, 0.0, atol=1e-12)
        assert np.allclose(x, np_solve(p, np.array([0.1, 0.0])).x,
                           atol=1e-12)

    def test_xy2_fiber_by_hand(self):
        p = xy2_problem()
        (x, xi), _ = np_tangent_solve(p, np.array([0.1, 0.0]),
                                      np.array([0.0, 1.0]))
        assert np.allclose(x, [0.0, 0.0], atol=1e-10)
        assert np.allclose(xi, [0.0, 1.0], atol=1e-10)

    def test_base_matches_np_solve(self):
        p = xy2_problem()
        x1 = np.array([0.08, 0.05])
        (x, _), _ = np_tangent_solve(p, x1, np.array([0.0, 0.3]))
        assert np.max(np.abs(x - np_solve(p, x1).x)) <= 1e-10

    def test_fiber_solves_linearized_equation(self):
        p = xy2_problem()
        x1 = np.array([0.08, 0.05])
        xi1 = np.array([0.0, 0.3])
        (x, xi), _ = np_tangent_solve(p, x1, xi1)
        assert abs(p.dF(x)(xi)[0]) <= 1e-9
        assert abs((xi - xi1)[1]) <= 1e-12    # xi - xi1 in im Q

    def test_c2_estimate_positive(self):
        # sampled directional estimate of the exact curvature norm 2
        p = xy2_problem()
        c2 = estimate_c2(p, samples=50, rng=np.random.default_rng(3))
        assert 1.0 <= c2 <= 2.2 * 1.1


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
            return np.array([x[0], 0.0 * x[1]])
        with pytest.raises(ValueError):
            ift_certificate(F, 0.5, 1.0, 10, rng, dim=2)
