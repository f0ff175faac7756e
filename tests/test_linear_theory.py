import numpy as np
import pytest
from scipy.linalg import cholesky, eigh, solve_triangular, svdvals
from scipy.sparse import csr_matrix, diags, identity, issparse, kron

from mglue import linear_theory
from mglue.linear_theory import (LinearTheory, apply_D,
                                 apply_Q, apply_Q_exact,
                                 euclidean_gluing_reference, gamma_svd_bounds,
                                 kernel_path, measured_opnorm,
                                 measured_projection_norm, measured_q_norm,
                                 projection_matrix, q_matrix)
from mglue.invariant_manifolds import shoot_stable, shoot_unstable
from mglue.morse_model import MorseModel, compute_constants
from mglue.path_space import (DiscretePath, _flow_band, diff_matrix, kt_rows,
                              l2_norm, l2_weights, norms, sup_norm, w12_gram,
                              zero_path)

from test_morse_model import model_3d
from test_path_space import (assert_same_band, fourier_path,
                             path_from_function)


def gamma_infinitesimal(lt, xi0, eta0):
    """Infinitesimal gluing: coefficients (xi0, eta0) of the stable/unstable
    kernel elements, realized as the explicit glued kernel path."""
    if lt.T < 3:
        raise ValueError("need T >= 3")
    return kernel_path(lt, np.atleast_1d(xi0), np.atleast_1d(eta0))


def interior_sup(p):
    return float(np.max(np.linalg.norm(p.samples[1:-1], axis=1)))


def D_path(lt, p):
    """apply_D on the flattened samples of the path p, as a path."""
    return DiscretePath(lt.grid, apply_D(lt, p.samples.reshape(-1))
                        .reshape(p.samples.shape))


def Q_path(lt, p):
    """apply_Q on the flattened samples of the path p, as a path."""
    return DiscretePath(lt.grid, apply_Q(lt, p.samples.reshape(-1))
                        .reshape(p.samples.shape))


class TestApplyD:
    def test_kernel_element_residual_fine_grid(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 2e-4, ce)
        kp = kernel_path(lt, np.array([1.0]), np.array([1.0]))
        res = D_path(lt, kp)
        assert interior_sup(res) <= 1e-8

    def test_affine_hand_value(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        p = path_from_function(lt.grid,
                               lambda s: np.stack([s, 0 * s], axis=-1))
        out = D_path(lt, p)
        assert np.allclose(out.samples[:, 0], 1.0 + lt.grid.nodes,
                           atol=1e-10)
        assert np.allclose(out.samples[:, 1], 0.0, atol=1e-12)

    def test_linearity(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        rng = np.random.default_rng(0)
        p = fourier_path(lt.grid, rng)
        q = fourier_path(lt.grid, rng)
        lhs = D_path(lt, DiscretePath(lt.grid,
                                      2 * p.samples - 3 * q.samples))
        rhs = 2 * D_path(lt, p).samples - 3 * D_path(lt, q).samples
        assert np.max(np.abs(lhs.samples - rhs)) <= 1e-9 * (
            1 + np.max(np.abs(rhs)))

    @pytest.mark.parametrize("name", ["c1", "model_3d"])
    def test_flattened_samples_have_the_path_bits(self, request, name):
        # each column of a (size, k) block maps to the bits of its own
        # flattened vector, in the shape of the block
        model = model_3d() if name == "model_3d" else \
            request.getfixturevalue(name)
        lt = LinearTheory(model, 3.0, 0.02, compute_constants(model))
        rng = np.random.default_rng(1)
        paths = [fourier_path(lt.grid, rng, dim=model.dim) for _ in range(3)]
        block = np.stack([p.samples.reshape(-1) for p in paths], axis=1)
        out = apply_D(lt, block)
        assert out.shape == block.shape
        for j, p in enumerate(paths):
            ref = D_path(lt, p).samples.reshape(-1)
            vec = apply_D(lt, p.samples.reshape(-1))
            assert vec.tobytes() == ref.tobytes()
            assert np.ascontiguousarray(out[:, j]).tobytes() == ref.tobytes()


def project(lt, z):
    """projection_matrix applied to the path z."""
    v = projection_matrix(lt) @ z.samples.ravel()
    return DiscretePath(lt.grid, v.reshape(z.samples.shape))


class TestProjectE:
    """The projection onto the kernel E_T along K_T (projection_matrix):
    coefficients are the stable boundary value at -T and the unstable one at
    +T."""

    def test_idempotence(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        z = fourier_path(lt.grid, np.random.default_rng(1))
        pz = project(lt, z)
        assert np.array_equal(project(lt, pz).samples, pz.samples)

    def test_remainder_in_complement_exactly(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        z = fourier_path(lt.grid, np.random.default_rng(2))
        rem = z.samples - project(lt, z).samples
        assert rem[0, 0] == 0.0
        assert rem[-1, 1] == 0.0

    def test_complement_element_projects_to_zero(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        z = fourier_path(lt.grid, np.random.default_rng(3))
        samples = z.samples.copy()
        samples[0, 0] = 0.0
        samples[-1, 1] = 0.0
        assert sup_norm(project(lt, DiscretePath(lt.grid, samples))) == 0.0

    def test_norm_bound(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        slack = 1 + 5 * lt.grid.h
        rng = np.random.default_rng(4)
        for _ in range(50):
            z = fourier_path(lt.grid, rng)
            assert norms(project(lt, z)).w12 <= \
                ce.d_proj * norms(z).w12 * slack

    def test_measured_projection_norm_below_bound(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        pi = measured_projection_norm(lt)
        assert pi <= ce.d_proj * (1 + 5 * lt.grid.h)


class TestApplyQ:
    def test_zero(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        out = Q_path(lt, zero_path(lt.grid, 2))
        assert sup_norm(out) == 0.0

    def test_constant_forcing_closed_form(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        eta = DiscretePath(lt.grid, np.tile([1.0, 0.0], (lt.grid.n_nodes, 1)))
        z = Q_path(lt, eta)
        expect = 1.0 - np.exp(-(lt.grid.nodes + 3.0))
        assert np.max(np.abs(z.samples[:, 0] - expect)) <= 1e-4
        assert np.max(np.abs(z.samples[:, 1])) <= 1e-12

    def test_image_in_complement_exactly(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        z = Q_path(lt, fourier_path(lt.grid, np.random.default_rng(6)))
        assert z.samples[0, 0] == 0.0 and z.samples[-1, 1] == 0.0

    def test_norm_bound_on_corpus(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        slack = 1 + 5 * lt.grid.h
        rng = np.random.default_rng(7)
        for _ in range(50):
            eta = fourier_path(lt.grid, rng)
            assert norms(Q_path(lt, eta)).w12 <= \
                ce.c_rightinv * l2_norm(eta) * slack

    def test_exact_right_inverse_identity(self, e1, ce):
        # the linear-system realization satisfies D Q = Id to rounding on
        # interior rows at any h
        lt = LinearTheory(e1, 3.0, 0.01, ce)
        eta = fourier_path(lt.grid, np.random.default_rng(8))
        q = apply_Q_exact(lt, eta.samples.ravel())
        assert q.shape == (eta.samples.size,)
        image = DiscretePath(lt.grid, q.reshape(eta.samples.shape))
        defect = D_path(lt, image).samples - eta.samples
        assert np.max(np.abs(defect[1:-1])) <= 1e-6

    def test_duhamel_defect_second_order(self, e1, ce):
        # the recursion realization carries an O(h^2) defect
        vals = []
        for h in (0.02, 0.01):
            lt = LinearTheory(e1, 3.0, h, ce)
            eta = path_from_function(
                lt.grid, lambda s: np.stack([np.cos(s), np.sin(s)], axis=-1))
            defect = D_path(lt, Q_path(lt, eta)).samples - eta.samples
            vals.append(np.max(np.abs(defect[1:-1])))
        assert vals[0] <= 1e-3
        assert vals[1] <= vals[0] / 3.0

    def test_measured_q_norm_below_bound(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        q = measured_q_norm(lt)
        assert q <= ce.c_rightinv * (1 + 5 * lt.grid.h)


class TestGamma:
    def test_e1_value_at_origin(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        g = gamma_infinitesimal(lt, [1.0], [1.0])
        j = np.argmin(np.abs(lt.grid.nodes))
        assert np.allclose(g.samples[j], [np.exp(-3.0), np.exp(-3.0)],
                           atol=1e-12)

    def test_zero_coefficients(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        assert sup_norm(gamma_infinitesimal(lt, [0.0], [0.0])) == 0.0

    def test_boundary_recovery_exact(self, c1, cc):
        lt = LinearTheory(c1, 4.0, 0.02, cc)
        g = gamma_infinitesimal(lt, [0.7], [-0.2])
        assert g.samples[0, 0] == 0.7
        assert g.samples[-1, 1] == -0.2

    def test_t_below_three_rejected(self, e1, ce):
        lt = LinearTheory(e1, 2.0, 0.02, ce)
        with pytest.raises(ValueError):
            gamma_infinitesimal(lt, [1.0], [1.0])

    def test_e1_svd_closed_form(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        gmax, gmin = gamma_svd_bounds(lt)
        val = np.sqrt(1 - np.exp(-12.0))
        assert gmax == pytest.approx(val, abs=1e-14)
        assert gmin == pytest.approx(val, abs=1e-14)

    def test_bounds_any_model(self, c1, cc):
        for T in (3.0, 5.0, 8.0):
            lt = LinearTheory(c1, T, 0.02, cc)
            gmax, gmin = gamma_svd_bounds(lt)
            assert gmax <= 1.0
            assert gmin**2 >= 1 - np.exp(-12 * cc.sigma)


def euclidean_ev_reference(model, w_plus_0, w_minus_0, T):
    """Closed-form boundary evaluation of the Euclidean glued line."""
    a = model.a
    left = np.asarray(w_plus_0) + np.exp(2 * T * a) * np.asarray(w_minus_0)
    right = np.asarray(w_minus_0) + np.exp(-2 * T * a) * np.asarray(w_plus_0)
    return left, right


class TestEuclideanReference:
    def test_value_at_origin(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        ref = euclidean_gluing_reference(lt, [1.0, 0.0], [0.0, 1.0])
        j = np.argmin(np.abs(ref.grid.nodes))
        assert np.allclose(ref.samples[j], [np.exp(-3.0), np.exp(-3.0)],
                           atol=1e-14)

    def test_flow_residual_fine_grid(self, e1, ce):
        lt = LinearTheory(e1, 3.0, 2e-4, ce)
        ref = euclidean_gluing_reference(lt, [0.5, 0.0], [0.0, 0.4])
        res = D_path(lt, ref)
        assert interior_sup(res) <= 1e-8

    def test_ev_identity(self, e1, ce):
        wp0 = np.array([0.7, 0.0])
        wm0 = np.array([0.0, -0.3])
        T = 3.0
        ref = euclidean_gluing_reference(LinearTheory(e1, T, 0.02, ce), wp0,
                                         wm0)
        left, right = euclidean_ev_reference(e1, wp0, wm0, T)
        assert np.allclose(ref.samples[0], left, atol=1e-14)
        assert np.allclose(ref.samples[-1], right, atol=1e-14)

    def test_ev_error_closed_form(self, e1):
        left, right = euclidean_ev_reference(e1, [1.0, 0.0], [0.0, 1.0], 3.0)
        err = np.sqrt(np.sum((left - [1.0, 0.0]) ** 2)
                      + np.sum((right - [0.0, 1.0]) ** 2))
        assert err == pytest.approx(np.sqrt(2) * np.exp(-6.0), rel=1e-12)

    def test_non_euclidean_rejected(self, c1, cc):
        with pytest.raises(ValueError):
            euclidean_gluing_reference(LinearTheory(c1, 3.0, 0.02, cc),
                                       [1.0, 0.0], [0.0, 1.0])

    def test_zero_polynomial_text_is_euclidean(self, e1, ce):
        # the text is not "0", but its polynomial has no terms
        zero = MorseModel(dim=2, index=1, eig=(1, -1),
                          nonlinearity="x1^3 - x1^3")
        refs = [euclidean_gluing_reference(LinearTheory(m, 3.0, 0.02, ce),
                                           [1.0, 0.0], [0.0, 1.0])
                for m in (zero, e1)]
        assert np.array_equal(refs[0].samples, refs[1].samples)

    def test_former_closed_form_on_halves(self, e1, ce):
        # the former formula sums over all components; it gives the same
        # bits, because the unstable part of w_+(0) and the stable part of
        # w_-(0) are exactly 0 on the Euclidean half trajectories
        lt = LinearTheory(e1, 3.0, 0.02, ce)
        wp0 = shoot_stable(e1, [0.5], 12.0).samples[0]
        wm0 = shoot_unstable(e1, [0.4], 12.0).samples[-1]
        assert e1.p_minus(wp0) == 0.0 and e1.p_plus(wm0) == 0.0
        s, a = lt.grid.nodes, e1.a
        former = (np.exp(-np.outer(s + lt.T, a)) * wp0
                  + np.exp(np.outer(lt.T - s, a)) * wm0)
        assert np.array_equal(
            euclidean_gluing_reference(lt, wp0, wm0).samples, former)


class TestUniformity:
    def test_kernel_of_restricted_d_trivial(self, e1, ce):
        vals = [d_restricted_min_sv_dense_reference(
                    LinearTheory(e1, T, 0.05, ce)) for T in (3.0, 5.0, 8.0)]
        # grid-stable positive floor; the continuum bound 1/c is diluted by
        # an O(sqrt(h)) boundary mode, so the floor is empirical at h = 0.05
        assert all(v >= 0.05 for v in vals)
        assert (max(vals) - min(vals)) / min(vals) <= 0.05

    def test_norms_uniform_in_t(self, c1, cc):
        pis, qs, kinvs = [], [], []
        for T in (3.0, 5.0, 8.0, 12.0):
            lt = LinearTheory(c1, T, 0.02, cc)
            pis.append(measured_projection_norm(lt))
            qs.append(measured_q_norm(lt))
            _, gmin = gamma_svd_bounds(lt)
            kinvs.append(1.0 / gmin)
        for vals in (pis, qs, kinvs):
            assert (max(vals) - min(vals)) / min(vals) < 0.05


def dense_opnorm_reference(M, gram_out, gram_in):
    """sqrt of the top eigenvalue of M^T G_out M v = lam G_in v, by a dense
    generalized eigensolve."""
    lam = eigh(M.T @ gram_out.toarray() @ M, gram_in.toarray(),
               eigvals_only=True)
    return float(np.sqrt(lam[-1]))


def apply_Q_loop_reference(lt, eta):
    """The former apply_Q: the Duhamel recursion as a per-node Python loop,
    stable components forward from -T, unstable ones backward from +T."""
    m = lt.model
    h = lt.grid.h
    n_nodes = lt.grid.n_nodes
    out = np.zeros_like(eta.samples)
    for i, a in enumerate(m.a):
        e = eta.samples[:, i]
        z = np.zeros(n_nodes)
        if a > 0:
            f = np.exp(-a * h)
            for j in range(n_nodes - 1):
                z[j + 1] = f * z[j] + 0.5 * h * (f * e[j] + e[j + 1])
        else:
            f = np.exp(a * h)
            for j in range(n_nodes - 1, 0, -1):
                z[j - 1] = f * z[j] - 0.5 * h * (e[j - 1] + f * e[j])
        out[:, i] = z
    return out


def q_matrix_dense_reference(lt):
    """The former q_matrix: the dense Duhamel matrix, one column per call of
    the loop recursion."""
    n = lt.model.dim
    N = lt.grid.n_nodes
    M = np.zeros((N * n, N * n))
    eta = np.zeros((N, n))
    for j in range(N * n):
        eta.reshape(-1)[j] = 1.0
        M[:, j] = apply_Q_loop_reference(
            lt, DiscretePath(lt.grid, eta)).reshape(-1)
        eta.reshape(-1)[j] = 0.0
    return M


def projection_matrix_dense_reference(lt):
    """The former projection_matrix: the dense product K @ B of the kernel
    basis paths K and the boundary coefficient extraction B."""
    m = lt.model
    n = m.dim
    N = lt.grid.n_nodes
    cols = []
    for i in range(n):
        cols.append(kernel_path(lt, np.eye(n)[i][:m.n_stable],
                                np.eye(n)[i][m.n_stable:]).samples.reshape(-1))
    K = np.stack(cols, axis=1)  # (N*n, n)
    B = np.zeros((n, N * n))
    for i in range(m.n_stable):
        B[i, i] = 1.0
    for i in range(m.n_stable, n):
        B[i, (N - 1) * n + i] = 1.0
    return K @ B


@pytest.mark.parametrize("T", [3.0, 12.0])
@pytest.mark.parametrize("model,consts", [("e1", "ce"), ("c1", "cc")])
def test_apply_Q_matches_loop_reference(request, model, consts, T):
    lt = LinearTheory(request.getfixturevalue(model), T, 0.02,
                      request.getfixturevalue(consts))
    eta = DiscretePath(lt.grid, np.random.default_rng(14).standard_normal(
        (lt.grid.n_nodes, lt.model.dim)))
    ref = apply_Q_loop_reference(lt, eta)
    assert np.max(np.abs(Q_path(lt, eta).samples - ref)) <= \
        1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("T", [3.0, 12.0])
def test_norm_operators_adjoint_identity(c1, cc, T):
    lt = LinearTheory(c1, T, 0.02, cc)
    rng = np.random.default_rng(15)
    for op in (q_matrix(lt), projection_matrix(lt)):
        u = rng.standard_normal(op.shape[0])
        v = rng.standard_normal(op.shape[1])
        defect = abs(u @ (op @ v) - (op.T @ u) @ v)
        assert defect <= 1e-13 * np.linalg.norm(u) * np.linalg.norm(v)


@pytest.mark.parametrize("name", ["c1", "model_3d", "repeated"])
def test_norm_operators_match_dense_references(request, name):
    # both sides of the bidiagonal solve and of R, forward and transposed
    lt = bundle(name, request, h=0.1)
    eye = np.eye(lt.grid.n_nodes * lt.model.dim)
    Q = q_matrix_dense_reference(lt)
    P = projection_matrix_dense_reference(lt)
    assert np.max(np.abs(q_matrix(lt) @ eye - Q)) <= 1e-14 * np.max(np.abs(Q))
    assert np.max(np.abs(q_matrix(lt).T @ eye - Q.T)) <= \
        1e-14 * np.max(np.abs(Q))
    assert np.array_equal(projection_matrix(lt) @ eye, P)
    assert np.array_equal(projection_matrix(lt).T @ eye, P.T)


@pytest.mark.parametrize("h", [0.1, 0.05])
def test_measured_norms_match_dense_eigh(c1, cc, h):
    lt = LinearTheory(c1, 3.0, h, cc)
    Gw = w12_gram(lt.grid, c1.dim)
    Gl = diags(l2_weights(lt.grid, c1.dim))
    q = measured_q_norm(lt)
    assert q == pytest.approx(
        dense_opnorm_reference(q_matrix_dense_reference(lt), Gw, Gl),
        rel=1e-12)
    pi = measured_projection_norm(lt)
    assert pi == pytest.approx(
        dense_opnorm_reference(projection_matrix_dense_reference(lt), Gw, Gw),
        rel=1e-12)


@pytest.mark.parametrize("T,exact", [(3.0, 1.001855646092076),
                                     (12.0, 1.001852586440758)])
def test_projection_norm_exact_values(c1, cc, T, exact):
    # the rank-n eigenproblem, no Lanczos: former Lanczos values differed
    # from these by up to 1e-14, depending on the start vector
    lt = LinearTheory(c1, T, 0.02, cc)
    assert measured_projection_norm(lt) == pytest.approx(exact, abs=1e-12)


def test_projection_matrix_is_sparse_rank_n(c1, cc):
    lt = LinearTheory(c1, 3.0, 0.1, cc)
    P = projection_matrix(lt)
    assert issparse(P)
    assert P.nnz == lt.grid.n_nodes * c1.dim
    assert np.array_equal(np.unique(P.indices), np.sort(lt._kt_rows))


def test_measured_opnorm_diagonal_closed_form():
    # M, G_out and the weights diagonal: the norm is max |m| sqrt(g / w)
    rng = np.random.default_rng(16)
    m, g, w = rng.uniform(0.5, 2.0, (3, 40))
    got = measured_opnorm(diags(m), diags(g), w)
    assert got == pytest.approx(np.max(m * np.sqrt(g / w)), rel=1e-12)


@pytest.mark.parametrize("which", ["Q", "Pi"])
def test_measured_norms_3d_match_dense_eigh(which):
    # n = 3: Pi's norm is a 3 x 3 eigenproblem, and Q's Lanczos solve runs
    # on three components
    model = model_3d()
    lt = LinearTheory(model, 3.0, 0.1, compute_constants(model))
    Gw = w12_gram(lt.grid, model.dim)
    Gl = diags(l2_weights(lt.grid, model.dim))
    if which == "Q":
        got = measured_q_norm(lt)
        ref = dense_opnorm_reference(q_matrix_dense_reference(lt), Gw, Gl)
    else:
        got = measured_projection_norm(lt)
        ref = dense_opnorm_reference(projection_matrix_dense_reference(lt),
                                     Gw, Gw)
    assert got == pytest.approx(ref, rel=1e-12)


def test_measured_norms_share_one_gram(c1, cc):
    # the W^{1,2} Gram is built once per (grid, dim), and two bundles on one
    # grid measure the same bits
    lt = LinearTheory(c1, 3.0, 0.1, cc)
    fresh = LinearTheory(c1, 3.0, 0.1, cc)
    assert w12_gram(lt.grid, c1.dim) is w12_gram(fresh.grid, c1.dim)

    def measured(bundle):
        return measured_projection_norm(bundle), measured_q_norm(bundle)

    assert measured(lt) == measured(fresh)


def d_restricted_min_sv_dense_reference(lt):
    """Smallest singular value of D on K_T from W^{1,2} to L^2, the
    reciprocal of the L^2 -> W^{1,2} norm of apply_Q_exact (D's inverse on
    K_T): dense restrictions, Cholesky factors of both Gram matrices and the
    full SVD of the whitened matrix."""
    n = lt.model.dim
    N = lt.grid.n_nodes
    keep = np.ones(N * n, dtype=bool)
    keep[kt_rows(N, n, lt.model.n_stable)] = False
    M = d_system_matrix_lil_reference(lt).toarray()[np.ix_(keep, keep)]
    Gin = w12_gram(lt.grid, n).toarray()[np.ix_(keep, keep)]
    Gout = np.diag(l2_weights(lt.grid, n)[keep])
    Lin = cholesky(Gin, lower=True)
    Lout = cholesky(Gout, lower=True)
    B = Lout.T @ solve_triangular(Lin, M.T, lower=True).T
    return float(np.min(svdvals(B)))


@pytest.mark.parametrize("h,norm", [(0.05, 8.8064), (0.025, 12.5509),
                                    (0.0125, 17.8188)])
def test_glue_q_norm_grows_as_h_shrinks(c1, cc, h, norm):
    # the L^2 -> W^{1,2} norm of the Q that glue corrects with grows like
    # h^{-1/2}, far above the certified c = sqrt(5) (ROADMAP item 3)
    lt = LinearTheory(c1, 3.0, h, cc)
    assert 1.0 / d_restricted_min_sv_dense_reference(lt) == \
        pytest.approx(norm, abs=5e-5)


@pytest.mark.parametrize("T", [3.0, 5.0, 8.0])
def test_apply_Q_exact_norm_is_the_reciprocal_dense_min_sv(e1, ce, T):
    # the dense reference measures the Q that glue corrects with: apply_Q_exact
    # on the unit vectors off the K_T rows, normed from L^2 to W^{1,2}
    lt = LinearTheory(e1, T, 0.05, ce)
    size = lt.grid.n_nodes * e1.dim
    keep = np.ones(size, dtype=bool)
    keep[lt._kt_rows] = False
    Q = apply_Q_exact(lt, np.eye(size)[:, keep])
    norm = dense_opnorm_reference(Q, w12_gram(lt.grid, e1.dim),
                                  diags(l2_weights(lt.grid, e1.dim)[keep]))
    assert norm == pytest.approx(1.0 / d_restricted_min_sv_dense_reference(lt),
                                 rel=1e-9)


def d_system_matrix_lil_reference(lt):
    """The former builder of the matrix of D: tolil, then row surgery."""
    m = lt.model
    n = m.dim
    ns = m.n_stable
    N = lt.grid.n_nodes
    D1 = diff_matrix(lt.grid)
    A = kron(identity(N, format="csr"), diags(m.a), format="csr")
    M = (kron(D1, identity(n, format="csr"), format="csr") + A).tolil()
    for i in range(ns):
        M.rows[i] = [i]
        M.data[i] = [1.0]
    base = (N - 1) * n
    for i in range(ns, n):
        M.rows[base + i] = [base + i]
        M.data[base + i] = [1.0]
    return csr_matrix(M)


@pytest.mark.parametrize("T,h", [(3.0, 0.02), (4.08, 0.02), (3.0, 0.1),
                                 (8.0, 0.05)])
def test_d_system_matrix_matches_lil_reference(c1, cc, T, h):
    lt = LinearTheory(c1, T, h, cc)
    A = np.broadcast_to(c1.A, (lt.grid.n_nodes, c1.dim, c1.dim))
    assert_same_band(_flow_band(lt.grid, A, c1.n_stable),
                     d_system_matrix_lil_reference(lt), 2 * c1.dim)


# besides the cubic model_3d, two linear models: a rate repeated on the
# stable side, and each rate on both sides
OTHER_MODELS = {
    "model_3d": model_3d,
    "repeated": lambda: MorseModel(dim=3, index=1, eig=(1.0, 1.0, -1.0)),
    "mirrored": lambda: MorseModel(dim=4, index=2,
                                   eig=(2.0, 1.0, -1.0, -2.0)),
}


def bundle(name, request, T=3.0, h=0.05):
    """LinearTheory of the fixture model e1 or c1, or of a model of
    OTHER_MODELS (model_3d: two stable components and one unstable)."""
    if name in OTHER_MODELS:
        model = OTHER_MODELS[name]()
        consts = compute_constants(model)
    else:
        model = request.getfixturevalue(name)
        consts = request.getfixturevalue({"e1": "ce", "c1": "cc"}[name])
    return LinearTheory(model, T, h, consts)


def test_unstable_block_is_the_reflected_stable_block(request):
    # component 3 (rate 2) and component 2 (rate 1) are unstable: their
    # blocks are -J Q_s J with J the node reversal and Q_s the stable block
    # of the same rate, components 0 and 1
    lt = bundle("mirrored", request)
    Q = q_matrix(lt) @ np.eye(lt.grid.n_nodes * 4)
    block = [Q[c::4, c::4] for c in range(4)]
    for s, u in ((0, 3), (1, 2)):
        reflected = -block[s][::-1, ::-1]
        assert np.max(np.abs(block[u] - reflected)) <= \
            1e-15 * np.max(np.abs(block[s]))
    # no block couples two components
    assert not Q[0::4, 1::4].any() and not Q[2::4, 3::4].any()


@pytest.mark.parametrize("name,n_rates", [("e1", 1), ("c1", 1),
                                          ("model_3d", 3), ("repeated", 1),
                                          ("mirrored", 2)])
def test_decoupled_norms_match_the_coupled_dense_references(
        request, monkeypatch, name, n_rates):
    # measured_q_norm runs Lanczos on one block per distinct rate, and the
    # closed-form projection norm is the dense eigenproblem's
    lt = bundle(name, request, T=3.0, h=0.05)
    n = lt.model.dim
    Gw = w12_gram(lt.grid, n)
    sizes = []

    def spy(M, gram_out, w_in):
        sizes.append(M.shape[1])
        return measured_opnorm(M, gram_out, w_in)

    monkeypatch.setattr(linear_theory, "measured_opnorm", spy)
    q = measured_q_norm(lt)
    assert sizes == [n_rates * lt.grid.n_nodes]
    assert q == pytest.approx(
        dense_opnorm_reference(q_matrix_dense_reference(lt), Gw,
                               diags(l2_weights(lt.grid, n))), rel=1e-12)
    assert measured_projection_norm(lt) == pytest.approx(
        dense_opnorm_reference(projection_matrix_dense_reference(lt), Gw, Gw),
        rel=1e-12)


@pytest.mark.parametrize("name", ["c1", "e1", "model_3d"])
@pytest.mark.parametrize("T", [3.0, 8.0])
def test_exact_lu_solves_the_lil_reference(request, name, T):
    # the stable and the unstable components take the two end-row branches
    # of the tridiagonal factor
    lt = bundle(name, request, T=T)
    M = d_system_matrix_lil_reference(lt).toarray()
    rhs = np.random.default_rng(7).standard_normal(M.shape[0])
    want = np.linalg.solve(M, rhs)
    assert np.max(np.abs(lt._exact_lu.solve(rhs) - want)) <= \
        1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["c1", "model_3d"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_apply_Q_exact_k_columns_equal_single_solves(request, name, k):
    # one solve with k right-hand sides gives each column the bits of its
    # own solve; the 3-d model has three components
    lt = bundle(name, request)
    size = lt.grid.n_nodes * lt.model.dim
    etas = np.random.default_rng(9).standard_normal((size, k))
    got = apply_Q_exact(lt, etas)
    assert got.shape == (size, k)
    for j in range(k):
        single = apply_Q_exact(lt, etas[:, j])
        assert single.shape == (size,)
        assert got[:, j].tobytes() == single.tobytes()


def test_apply_Q_exact_reads_kt_rows_as_zero(c1, cc):
    lt = LinearTheory(c1, 3.0, 0.05, cc)
    eta = np.random.default_rng(10).standard_normal(lt.grid.n_nodes * 2)
    zeroed = eta.copy()
    zeroed[lt._kt_rows] = 0.0
    q = apply_Q_exact(lt, eta)
    assert q.tobytes() == apply_Q_exact(lt, zeroed).tobytes()
    # the pivoted factor meets the K_T identity rows to rounding
    assert np.max(np.abs(q[lt._kt_rows])) <= 1e-14 * np.max(np.abs(q))
    # the caller's array is left as it was
    assert np.all(eta[lt._kt_rows] != 0.0)


def test_apply_Q_exact_rejects_bad_samples(c1, cc):
    lt = LinearTheory(c1, 3.0, 0.05, cc)
    size = lt.grid.n_nodes * 2
    for shape in ((size - 2,), (size + 2, 2), (lt.grid.n_nodes, 2),
                  (size, 1, 1)):
        with pytest.raises(ValueError, match="does not match"):
            apply_Q_exact(lt, np.ones(shape))
    # a NaN anywhere, also on a K_T row or in one column of several, and an
    # inf raise
    for row in (5, lt._kt_rows[0]):
        eta = np.ones(size)
        eta[row] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            apply_Q_exact(lt, eta)
    eta = np.ones((size, 2))
    eta[7, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        apply_Q_exact(lt, eta)


def test_off_grid_T_rejected(c1, cc):
    # 3.01 is not a multiple of h = 1/50: the grid would be [-3, 3] while
    # glue pre-glues with the shift 3.01
    with pytest.raises(ValueError, match="not a node"):
        LinearTheory(c1, 3.01, 0.02, cc)
    # ceil(T0 / h) h and twice it, as criterion 08 and its benchmark use
    T0 = np.ceil(cc.T0 / 0.02) * 0.02
    for T in (T0, 2 * T0):
        lt = LinearTheory(c1, T, 0.02, cc)
        assert lt.grid.t_max == pytest.approx(T, abs=1e-12)
