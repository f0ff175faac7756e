import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mglue.gluing import (apply_F, certify_approx_zero, convergence_sweep,
                          cubic_cutoff, diffeo_criterion, flow_problem, glue,
                          glue_coordinate_rep, linear_halves, preglue,
                          quintic_cutoff, shoot_halves,
                          tangent_convergence_sweep, theta_defect_norm)
from mglue.invariant_manifolds import (linear_half_path, shoot_stable,
                                       shoot_unstable, theta_inverse)
from mglue.linear_theory import (LinearTheory, euclidean_gluing_reference,
                                 gamma_weights)
from mglue.morse_model import compute_constants
from mglue.newton_picard import PreconditionError
from mglue import gluing
from mglue.path_space import (DiscretePath, differentiate, make_grid, norms,
                              sup_norm, symmetric_grid, trapezoid_weights,
                              zero_path)

from test_morse_model import model_3d
from test_path_space import evaluate_ends, path_from_function
from test_linear_theory import gamma_infinitesimal

BETA = quintic_cutoff()


def linearized_glue_check(cutoff, lt):
    """Acceptance criterion 07: central finite differences (step 1e-4) of
    the gluing map along the kernel basis directions at the origin, against
    the infinitesimal gluing map."""
    fd_eps = 1e-4
    ns = lt.model.n_stable

    def glued(seed):
        wp, wm = shoot_halves(lt, seed[:ns], seed[ns:])
        return glue(lt.model, cutoff, wp, wm, lt.T, lt).path.samples

    details = []
    for e in np.eye(lt.model.dim):
        fd = (glued(fd_eps * e) - glued(-fd_eps * e)) / (2.0 * fd_eps)
        ref = gamma_infinitesimal(lt, e[:ns], e[ns:])
        details.append(float(np.max(np.abs(fd - ref.samples))))
    return {"sup_discrepancy": max(details), "per_direction": details}


def sup_dbeta(cutoff):
    """sup |beta'| of a cutoff, sampled on 4001 points of [-1, 1], where
    beta'(s) = p'((s + 1)/2) / 2 for the polynomial p of cutoff.poly."""
    s = np.linspace(-1, 1, 4001)
    dpoly = np.polyder(np.poly1d(list(cutoff.poly)))
    return float(np.max(np.abs(dpoly((s + 1.0) / 2.0) * 0.5)))


@pytest.fixture(scope="module")
def e1_halves(e1):
    S = 22.0
    return (shoot_stable(e1, [0.5], S), shoot_unstable(e1, [0.4], S))


@pytest.fixture(scope="module")
def c1_halves(c1):
    S = 26.0
    return (shoot_stable(c1, [0.3], S), shoot_unstable(c1, [0.3], S))


class TestCutoff:
    def test_endpoints_exact(self):
        for beta in (quintic_cutoff(), cubic_cutoff()):
            assert beta(-1.0) == 0.0 and beta(1.0) == 1.0
            assert beta(-5.0) == 0.0 and beta(5.0) == 1.0

    def test_monotone(self):
        s = np.linspace(-1.5, 1.5, 1001)
        for beta in (quintic_cutoff(), cubic_cutoff()):
            v = beta(s)
            assert np.all(np.diff(v) >= -1e-15)
            assert np.all((v >= 0) & (v <= 1))

    def test_quintic_derivative_sup(self):
        assert sup_dbeta(quintic_cutoff()) == pytest.approx(15.0 / 16.0,
                                                            abs=1e-6)


class TestApplyF:
    def test_zero_path(self, c1):
        g = symmetric_grid(3.0, 0.02)
        assert sup_norm(apply_F(c1, zero_path(g, 2))) == 0.0

    def test_euclidean_flow_line_fine_grid(self, e1):
        g = symmetric_grid(3.0, 2e-4)
        z0 = np.array([0.05, 0.002])   # keeps |w| <= 1 across [-3, 3]
        p = path_from_function(g, lambda s: np.exp(-np.outer(s, e1.a)) * z0)
        res = apply_F(e1, p)
        assert np.max(np.linalg.norm(res.samples[1:-1], axis=1)) <= 1e-8

    def test_c1_constant_hand_value(self, c1):
        g = symmetric_grid(3.0, 0.02)
        p = DiscretePath(g, np.tile([0.1, 0.1], (g.n_nodes, 1)))
        res = apply_F(c1, p)
        assert np.allclose(res.samples[1:-1], [0.102, -0.099], atol=1e-12)


class TestFlowProblemRemainder:
    @pytest.mark.parametrize("name", ["e1", "c1", "model_3d"])
    @pytest.mark.parametrize("T", [3.0, 8.0])
    def test_remainder_plus_d_is_apply_F(self, request, name, T):
        # F = D + N with N = grad f_nl nodewise: the two sums of the same
        # three terms (stencil, A w, grad f_nl) round apart by at most 4 ulp
        # of the sum of their magnitudes
        model = model_3d() if name == "model_3d" else \
            request.getfixturevalue(name)
        lt = LinearTheory(model, T, 0.02, compute_constants(model))
        p = flow_problem(lt)
        rng = np.random.default_rng(int(T))
        for scale in (0.05, 0.3, 1.0):
            w = DiscretePath(lt.grid, scale * rng.standard_normal(
                (lt.grid.n_nodes, model.dim)))
            v = w.samples.reshape(-1)
            got = p.N(v) + p.apply_D(v)
            want = apply_F(model, w).samples.reshape(-1)
            mag = (np.abs(differentiate(w).samples)
                   + np.abs(model.a * w.samples)
                   + np.abs(model.nonlinear_tensor(w.samples, 0)))
            assert np.all(np.abs(got - want)
                          <= 4 * np.spacing(mag.reshape(-1)))


class TestPreglue:
    def test_zero_halves_give_zero(self, c1):
        wp = shoot_stable(c1, [0.0], 12.0)
        wm = shoot_unstable(c1, [0.0], 12.0)
        wt = preglue(BETA, wp, wm, 3.0)
        assert sup_norm(wt) == 0.0

    def test_endpoint_identity_bitwise(self, c1_halves):
        wp, wm = c1_halves
        for T in (3.0, 5.0):
            wt = preglue(BETA, wp, wm, T)
            left, right = evaluate_ends(wt)
            assert np.array_equal(left, wp.samples[0])
            assert np.array_equal(right, wm.samples[-1])

    def test_plateau_identically_zero(self, c1_halves):
        wp, wm = c1_halves
        wt = preglue(BETA, wp, wm, 4.0)
        mask = np.abs(wt.grid.nodes) <= 1.0 + 1e-12
        assert np.all(wt.samples[mask] == 0.0)

    def test_t_below_three_rejected(self, c1_halves):
        wp, wm = c1_halves
        with pytest.raises(ValueError):
            preglue(BETA, wp, wm, 2.0)

    def test_linearity_in_halves(self, c1_halves):
        wp, wm = c1_halves
        T = 4.0
        a = 1.7
        wt = preglue(BETA, wp, wm, T)
        scaled_p = DiscretePath(wp.grid, a * wp.samples)
        scaled_m = DiscretePath(wm.grid, a * wm.samples)
        wt2 = preglue(BETA, scaled_p, scaled_m, T)
        assert np.max(np.abs(wt2.samples - a * wt.samples)) <= 1e-12

    def test_norm_bound(self, c1_halves):
        wp, wm = c1_halves
        bound = 2 * np.sqrt(1 + sup_dbeta(BETA)**2) * np.sqrt(
            norms(wp).w12 ** 2 + norms(wm).w12 ** 2)
        for T in (3.0, 6.0):
            wt = preglue(BETA, wp, wm, T)
            assert norms(wt).w12 <= bound

    def test_half_at_another_spacing_rejected(self, c1, c1_halves):
        # the halves are aligned with the grid by index, never resampled
        wp, wm = c1_halves
        coarse_p = shoot_stable(c1, [0.3], 16.0, h_max=0.04)
        coarse_m = shoot_unstable(c1, [0.3], 16.0, h_max=0.04)
        for halves in ((coarse_p, wm), (wp, coarse_m)):
            with pytest.raises(ValueError, match="spacing"):
                preglue(BETA, *halves, 3.0)

    def test_halves_at_one_other_spacing(self, c1):
        # the grid of the pre-glued path is that of the halves' spacing
        wp = shoot_stable(c1, [0.3], 16.0, h_max=0.04)
        wm = shoot_unstable(c1, [0.3], 16.0, h_max=0.04)
        wt = preglue(BETA, wp, wm, 3.0)
        assert wt.grid == symmetric_grid(3.0, 0.04)
        left, right = evaluate_ends(wt)
        assert np.array_equal(left, wp.samples[0])
        assert np.array_equal(right, wm.samples[-1])

    def test_two_cutoffs_differ(self, c1_halves):
        wp, wm = c1_halves
        a = preglue(quintic_cutoff(), wp, wm, 3.0)
        b = preglue(cubic_cutoff(), wp, wm, 3.0)
        assert np.max(np.abs(a.samples - b.samples)) >= 1e-3

    @pytest.mark.parametrize("cutoff", [quintic_cutoff(), cubic_cutoff()],
                             ids=["quintic", "cubic"])
    def test_cached_weights_same_bits_as_formula(self, c1_halves, cutoff):
        # the weights come from a cache per (cutoff, grid); the pre-glued
        # samples are those of the formula with the cutoff evaluated anew
        wp, wm = c1_halves
        T = 4.0
        s = symmetric_grid(T, wp.grid.h).nodes
        i = round(T / wp.grid.h)
        want = ((1.0 - cutoff(s + 2.0))[:, None] * wp.samples[:2 * i + 1]
                + cutoff(s - 2.0)[:, None] * wm.samples[-2 * i - 1:])
        for _ in range(2):
            got = preglue(cutoff, wp, wm, T).samples
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestCertifyApproxZero:
    def test_zero_halves(self, c1):
        wp = shoot_stable(c1, [0.0], 22.0)
        wm = shoot_unstable(c1, [0.0], 22.0)
        out = certify_approx_zero(c1, BETA, wp, wm, [3, 5, 8])
        assert all(r["resid_l2"] == 0.0 for r in out["rows"])

    def test_support_confined_to_bands(self, c1, c1_halves, cc):
        wp, wm = c1_halves
        out = certify_approx_zero(c1, BETA, wp, wm, [3, 4, 5, 6])
        for r in out["rows"]:
            assert r["support_violation"] <= 1e-8

    def test_c1_decay_fit(self, c1, c1_halves, cc):
        wp, wm = c1_halves
        out = certify_approx_zero(c1, BETA, wp, wm, list(range(3, 11)))
        assert out["rate_fit"] >= 0.9 * cc.sigma
        assert out["r2"] >= 0.99

    def test_euclidean_rate(self, e1, e1_halves, ce):
        wp, wm = e1_halves
        out = certify_approx_zero(e1, BETA, wp, wm, [3, 4, 5, 6, 7, 8])
        assert out["rate_fit"] >= 0.9 * ce.sigma
        for r in out["rows"]:
            assert r["support_violation"] <= 1e-10


class TestGlue:
    def test_euclidean_matches_reference(self, e1, ce, e1_halves):
        wp, wm = e1_halves
        T = 3.0
        lt = LinearTheory(e1, T, 0.02, ce)
        rep = glue(e1, BETA, wp, wm, T, lt)
        ref = euclidean_gluing_reference(lt, wp.samples[0],
                                         wm.samples[-1])
        assert np.max(np.abs(rep.path.samples - ref.samples)) <= 5e-5
        assert rep.np_iterations <= 2

    def test_zero_halves_zero_iterations(self, c1, cc):
        wp = shoot_stable(c1, [0.0], 12.0)
        wm = shoot_unstable(c1, [0.0], 12.0)
        lt = LinearTheory(c1, 3.0, 0.02, cc)
        rep = glue(c1, BETA, wp, wm, 3.0, lt)
        assert rep.np_iterations == 0
        assert sup_norm(rep.path) == 0.0

    def test_c1_correction_bound(self, c1, cc, c1_halves):
        wp, wm = c1_halves
        lt = LinearTheory(c1, 5.0, 0.02, cc)
        rep = glue(c1, BETA, wp, wm, 5.0, lt)
        assert rep.correction_norm <= rep.bound_2c_F * 1.01
        assert rep.residual_final <= 1e-11
        assert rep.boundary_defect <= 1e-14

    def test_flowness_by_reintegration(self, e1, ce):
        T = 3.0
        lt = LinearTheory(e1, T, 0.005, ce)
        wp, wm = shoot_halves(lt, [0.5], [0.4])
        rep = glue(e1, BETA, wp, wm, T, lt)
        sol = solve_ivp(lambda s, z: -e1.grad(z), (-T, T),
                        rep.path.samples[0], t_eval=lt.grid.nodes,
                        rtol=1e-12, atol=1e-14)
        assert np.max(np.abs(sol.y.T - rep.path.samples)) <= 1e-5

    @pytest.mark.parametrize("other", ["model", "T"])
    def test_bundle_of_another_model_or_t_rejected(self, e1, c1, cc,
                                                   c1_halves, other):
        wp, wm = c1_halves
        lt = LinearTheory(c1, 3.0, 0.02, cc)
        model, T = (e1, 3.0) if other == "model" else (c1, 4.0)
        with pytest.raises(ValueError, match="different T or model"):
            glue(model, BETA, wp, wm, T, lt)

    def test_halves_at_another_spacing_rejected(self, c1, cc):
        lt = LinearTheory(c1, 3.0, 0.02, cc)
        wp = shoot_stable(c1, [0.3], 12.0, h_max=0.04)
        wm = shoot_unstable(c1, [0.3], 12.0, h_max=0.04)
        with pytest.raises(ValueError, match="bundle grid spacing 0.02"):
            glue(c1, BETA, wp, wm, 3.0, lt)

    def test_domain_uniform_over_t(self, c1, cc, c1_halves):
        wp, wm = c1_halves
        for T in (3.0, 5.0, 8.0):
            lt = LinearTheory(c1, T, 0.02, cc)
            rep = glue(c1, BETA, wp, wm, T, lt)
            assert rep.residual_final <= 1e-11


class TestLinearizedGluing:
    def test_euclidean_discrepancy(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        out = linearized_glue_check(BETA, lt)
        assert out["sup_discrepancy"] <= 5e-5

    def test_c1_discrepancy(self, c1, cc):
        lt = LinearTheory(c1, 4.0, 0.02, cc)
        out = linearized_glue_check(BETA, lt)
        assert out["sup_discrepancy"] <= 1e-3

    def test_beta_independence_of_infinitesimal_map(self, c1, cc):
        # the infinitesimal map is cutoff-free while the pre-glue is not
        lt = LinearTheory(c1, 3.0, 0.02, cc)
        g = gamma_infinitesimal(lt, [1.0], [1.0])
        g2 = gamma_infinitesimal(lt, [1.0], [1.0])
        assert np.max(np.abs(g.samples - g2.samples)) <= 1e-12


class TestConvergence:
    def test_euclidean_t3_value(self, e1, ce):
        sw = convergence_sweep(e1, BETA, ([1.0], [1.0]), [3.0],
                               constants=ce)
        assert sw["rows"][0]["ev_error"] == pytest.approx(
            np.sqrt(2) * np.exp(-6.0), rel=1e-3)

    def test_zero_seeds(self, c1, cc):
        sw = convergence_sweep(c1, BETA, ([0.0], [0.0]), [3.0, 4.0],
                               constants=cc)
        assert all(r["ev_error"] == 0.0 for r in sw["rows"])

    def test_c1_rate(self, c1, cc):
        sw = convergence_sweep(c1, BETA, ([0.3], [0.3]),
                               list(range(3, 11)), constants=cc)
        assert sw["rate_fit"] >= 0.9 * cc.sigma
        assert sw["r2"] >= 0.99


def w12_inner_reference(p, q):
    """The former W^{1,2} inner product: trapezoidal quadrature of
    p q + p' q' with the stencil derivatives."""
    wts = trapezoid_weights(p.grid)
    dp = differentiate(p).samples
    dq = differentiate(q).samples
    return float(np.sum(wts * np.sum(p.samples * q.samples + dp * dq,
                                     axis=1)))


def theta_defect_norm_reference(cutoff, lt, seed_radius):
    """The former theta_defect_norm, whose output Gram is the pairwise loop
    of w12_inner_reference."""
    model = lt.model
    n = model.dim
    ns = model.n_stable
    halves = shoot_halves(lt, [seed_radius] * ns, [seed_radius] * (n - ns))
    outs = []
    for i, e in enumerate(np.eye(n)):
        k = int(i >= ns)
        half = halves[k]
        v = model.p_minus(e) if k else model.p_plus(e)
        xi_lin = linear_half_path(model, half.side, v, half.grid.nodes)
        xi_pull, _ = theta_inverse(model, half, v)
        diffs = [zero_path(h.grid, n) for h in halves]
        diffs[k] = DiscretePath(half.grid, xi_lin - xi_pull.samples)
        outs.append(preglue(cutoff, *diffs, lt.T))
    H = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            H[i, j] = H[j, i] = w12_inner_reference(outs[i], outs[j])
    W = np.diag(gamma_weights(lt)[0])
    M = np.linalg.solve(np.sqrt(W), np.linalg.solve(np.sqrt(W), H).T)
    return float(np.sqrt(max(np.max(np.linalg.eigvalsh(M)), 0.0)))


def glue_coordinate_rep_shooting_reference(cutoff, lt, scale=1.0):
    """The former glue_coordinate_rep, which glued the two halves shot to
    S = 2T + 6 from the seeds instead of the linear halves."""
    model = lt.model
    ns = model.n_stable
    dom_w, img_w = gamma_weights(lt)
    sd = np.sqrt(dom_w)
    si = np.sqrt(img_w)

    def F(u):
        u = np.asarray(u, dtype=float) * scale
        wp, wm = shoot_halves(lt, u[:ns] / sd[:ns], u[ns:] / sd[ns:])
        rep = glue(model, cutoff, wp, wm, lt.T, lt)
        v_plus = model.p_plus(rep.path.samples[0])
        v_minus = model.p_minus(rep.path.samples[-1])
        return np.concatenate([v_plus * si[:ns], v_minus * si[ns:]]) / scale

    return F


class TestLinearHalves:
    @pytest.mark.parametrize("name", ["c1", "model_3d"])
    @pytest.mark.parametrize("twice", [False, True])
    def test_map_matches_shooting_reference(self, request, name, twice):
        # the K_T data of the pre-glued path are the seeds for either pair
        # of halves, so the glued line, and the map, agree to rounding
        model = model_3d() if name == "model_3d" else \
            request.getfixturevalue(name)
        consts = compute_constants(model)
        h = 0.02
        T = np.ceil(consts.T0 / h) * h * (2 if twice else 1)
        lt = LinearTheory(model, T, h, consts)
        F = glue_coordinate_rep(BETA, lt, scale=0.3)
        G = glue_coordinate_rep_shooting_reference(BETA, lt, scale=0.3)
        # 18 points of the certificate's seed box [-1, 1]^dim / sqrt(dim)
        rng = np.random.default_rng(int(10 * T))
        U = rng.uniform(-1.0, 1.0, (18, model.dim)) / np.sqrt(model.dim)
        for u, v in zip(U, F(U)):
            assert np.max(np.abs(v - G(u))) <= 1e-13

    def test_map_evaluation_does_not_shoot(self, c1, cc, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a map evaluation shot a half trajectory")
        monkeypatch.setattr(gluing, "shoot_stable", refuse)
        monkeypatch.setattr(gluing, "shoot_unstable", refuse)
        lt = LinearTheory(c1, 5.0, 0.02, cc)
        F = glue_coordinate_rep(BETA, lt, scale=0.3)
        assert np.all(np.isfinite(F([[0.4, -0.3]])))

    @pytest.mark.parametrize("name", ["c1", "model_3d"])
    def test_seeds_are_the_preglued_kt_data(self, request, name):
        model = model_3d() if name == "model_3d" else \
            request.getfixturevalue(name)
        lt = LinearTheory(model, 4.0, 0.02, compute_constants(model))
        ns = model.n_stable
        seed_p = [0.3, -0.17][:ns]
        seed_m = [0.23, 0.11][:model.dim - ns]
        wp, wm = linear_halves(lt, seed_p, seed_m)
        assert wp.grid == make_grid(0.0, 8.0, 0.02)
        assert wm.grid == make_grid(-8.0, 0.0, 0.02)
        wt = preglue(BETA, wp, wm, lt.T)
        assert np.array_equal(model.p_plus(wt.samples[0]), seed_p)
        assert np.array_equal(model.p_minus(wt.samples[-1]), seed_m)


def assert_same_report(rep, ref):
    """Bit-equal GlueReports: the path and every other field."""
    assert rep.path.grid == ref.path.grid
    assert rep.path.samples.tobytes() == ref.path.samples.tobytes()
    for field in ("T", "preglue_resid_l2", "np_iterations", "residual_final",
                  "correction_norm", "bound_2c_F", "contraction_ratio_max",
                  "ev_error", "precond", "boundary_defect"):
        assert getattr(rep, field) == getattr(ref, field), field


class TestBlocks:
    """glue on lists of halves solves their pre-glued paths as one block, and
    the map of glue_coordinate_rep takes a block of points: each pair and
    each point has the bits of its solo evaluation."""

    @pytest.mark.parametrize("T", [4.0, 8.0])
    def test_glue_lists_equal_solo(self, c1, cc, T):
        lt = LinearTheory(c1, T, 0.02, cc)
        halves = [shoot_halves(lt, [sp], [sm]) for sp, sm in
                  ((0.3, -0.2), (-0.3, 0.2), (0.0, 0.0), (0.2, 0.25))]
        halves.append(linear_halves(lt, [0.1], [-0.15]))
        reps = glue(c1, BETA, [wp for wp, _ in halves],
                    [wm for _, wm in halves], T, lt)
        assert len(reps) == len(halves)
        for rep, (wp, wm) in zip(reps, halves):
            assert_same_report(rep, glue(c1, BETA, wp, wm, T, lt))
        # the zero seeds glue in no iterations, the others do not
        assert reps[2].np_iterations == 0
        assert min(r.np_iterations for r in reps[:2] + reps[3:]) > 0

    def test_glue_list_of_one(self, c1, cc):
        lt = LinearTheory(c1, 4.0, 0.02, cc)
        wp, wm = shoot_halves(lt, [0.3], [0.3])
        [rep] = glue(c1, BETA, [wp], [wm], 4.0, lt)
        assert_same_report(rep, glue(c1, BETA, wp, wm, 4.0, lt))

    def test_glue_lists_of_unequal_length(self, c1, cc):
        lt = LinearTheory(c1, 4.0, 0.02, cc)
        wp, wm = linear_halves(lt, [0.3], [0.3])
        with pytest.raises(ValueError, match="2 stable halves against 1"):
            glue(c1, BETA, [wp, wp], [wm], 4.0, lt)

    def test_pair_outside_the_ball_fails_the_list(self, c1, cc):
        # the seeds (1.5, 1.5) leave the contraction ball at T = 3, alone
        # or second in a list
        lt = LinearTheory(c1, 3.0, 0.02, cc)
        good = linear_halves(lt, [0.3], [0.3])
        bad = linear_halves(lt, [1.5], [1.5])
        with pytest.raises(PreconditionError, match="contraction ball"):
            glue(c1, BETA, *bad, 3.0, lt)
        with pytest.raises(PreconditionError, match="contraction ball"):
            glue(c1, BETA, [good[0], bad[0]], [good[1], bad[1]], 3.0, lt)

    @pytest.mark.parametrize("name", ["c1", "model_3d"])
    @pytest.mark.parametrize("twice", [False, True])
    def test_map_block_equals_points(self, request, name, twice):
        model = model_3d() if name == "model_3d" else \
            request.getfixturevalue(name)
        consts = compute_constants(model)
        h = 0.02
        T = np.ceil(consts.T0 / h) * h * (2 if twice else 1)
        F = glue_coordinate_rep(BETA, LinearTheory(model, T, h, consts),
                                scale=0.3)
        rng = np.random.default_rng(int(10 * T))
        for k in (1, 4, 8):
            U = rng.uniform(-1.0, 1.0, (k, model.dim)) / np.sqrt(model.dim)
            out = F(U)
            assert out.shape == (k, model.dim)
            assert out.tobytes() == np.concatenate(
                [F(U[i:i + 1]) for i in range(k)]).tobytes()

    def test_map_block_outside_the_ball_fails(self, c1, cc):
        lt = LinearTheory(c1, 3.0, 0.02, cc)
        F = glue_coordinate_rep(BETA, lt, scale=1.0)
        sd = np.sqrt(gamma_weights(lt)[0])
        far = 1.5 * sd
        with pytest.raises(PreconditionError):
            F(far[None])
        with pytest.raises(PreconditionError):
            F(np.stack([0.1 * sd, far]))


class TestDiffeo:
    def test_theta_defect_small(self, c1, cc):
        lt = LinearTheory(c1, 5.0, 0.02, cc)
        tn = theta_defect_norm(BETA, lt, 0.3)
        assert tn <= 1.0 / (8 * cc.k_gamma_inv * cc.d_proj)

    @pytest.mark.parametrize("name,T", [("c1", 5.0), ("c1", 8.0),
                                        ("3d", 4.0)])
    def test_theta_defect_matches_pairwise_reference(self, request, name,
                                                     T):
        model = model_3d() if name == "3d" else request.getfixturevalue(name)
        lt = LinearTheory(model, T, 0.02, compute_constants(model))
        assert theta_defect_norm(BETA, lt, 0.3) == pytest.approx(
            theta_defect_norm_reference(BETA, lt, 0.3), rel=1e-13, abs=0.0)

    def test_certificate_passes(self, c1, cc):
        lt = LinearTheory(c1, 5.0, 0.02, cc)
        out = diffeo_criterion(c1, BETA, lt, sample_count=5,
                               rng=np.random.default_rng(0),
                               seed_box_radius=0.3, n_pairs=20,
                               n_preimages=4)
        assert out["ift"].ok
        assert out["theta_ok"]

    def test_bundle_of_another_model_rejected(self, e1, c1, cc):
        lt = LinearTheory(c1, 5.0, 0.02, cc)
        with pytest.raises(ValueError, match="different model"):
            diffeo_criterion(e1, BETA, lt, sample_count=1,
                             rng=np.random.default_rng(0),
                             seed_box_radius=0.3, n_pairs=1, n_preimages=1)

    def test_coordinate_rep_is_weighted_identity(self, c1, cc):
        """On the seed box, the gluing map in the certificate's chart is the
        linear map diag(sqrt(img/dom)).  The Newton-Picard correction lies in
        K_T, whose boundary entries are zero, and the pre-glued path carries
        the two seeds as its K_T boundary data.  So the glued path's kernel
        coefficients are the seeds by construction, and the certificate sees
        a fixed diagonal map."""
        h = 0.02
        lt = LinearTheory(c1, np.ceil(cc.T0 / h) * h, h, cc)
        F = glue_coordinate_rep(BETA, lt, scale=0.3)
        dom, img = gamma_weights(lt)
        rng = np.random.default_rng(21)
        U = rng.uniform(-1.0, 1.0, (8, c1.dim)) / np.sqrt(c1.dim)
        assert np.max(np.abs(F(U) - np.sqrt(img / dom) * U)) <= 1e-13


class TestTangentSweep:
    def test_base_rows_are_convergence_rows(self, c1, cc):
        # the base solve of each T is glue's: the ev error and iteration
        # count of convergence_sweep's row, bit for bit
        kwargs = dict(constants=cc, h_max=0.02)
        a = tangent_convergence_sweep(c1, BETA, ([0.3], [0.3]),
                                      ([1.0], [1.0]), [3.0, 4.0], **kwargs)
        b = convergence_sweep(c1, BETA, ([0.3], [0.3]), [3.0, 4.0],
                              **kwargs)
        assert [(r["ev_error"], r["base_np_iters"]) for r in a["rows"]] == \
            [(r["ev_error"], r["np_iters"]) for r in b["rows"]]

    @pytest.mark.parametrize("order_m", [0, 2])
    def test_only_order_1(self, c1, cc, order_m):
        with pytest.raises(ValueError, match="m = 1 only"):
            tangent_convergence_sweep(c1, BETA, ([0.3], [0.3]),
                                      ([1.0], [1.0]), [3.0], constants=cc,
                                      order_m=order_m)

    def test_euclidean_m1_rate(self, e1, ce):
        sw = tangent_convergence_sweep(e1, BETA, ([0.5], [0.4]),
                                       ([1.0], [1.0]),
                                       [3, 4, 5, 6], constants=ce)
        assert sw["rate_fit"] == pytest.approx(2.0, abs=0.1)

    def test_m1_checks_glue_hypothesis(self, c1, cc):
        # at T = 3 the pre-glued path of the seeds (1.5, 1.5) has sup 1.5,
        # outside the ball of radius 2 delta_2 on which glue corrects
        with pytest.raises(PreconditionError, match="contraction ball"):
            tangent_convergence_sweep(c1, BETA, ([1.5], [1.5]),
                                      ([1.0], [1.0]), [3.0], constants=cc,
                                      order_m=1)

    def test_c1_m1_rate(self, c1, cc):
        sw = tangent_convergence_sweep(c1, BETA, ([0.3], [0.3]),
                                       ([1.0], [1.0]),
                                       [3, 4, 5, 6, 7], constants=cc)
        assert sw["rate_fit"] >= 0.9 * cc.sigma
