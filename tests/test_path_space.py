import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import diags, identity, kron, lil_matrix

from mglue import path_space
from mglue.harness import path_csv_rows, write_csv
from mglue.path_space import (DiagonalFlowLU, DiscretePath, FlowLU, Grid,
                              _flow_band, diff_matrix, differentiate,
                              grid_unit, l2_norm, l2_weights, make_grid,
                              norms, sup_norm, symmetric_grid,
                              trapezoid_weights, w12_gram, zero_path)


def path_from_function(grid, fn):
    """Sample a vector-valued callable fn(s) at the grid nodes.  Each value
    is flattened, so fn may return shape (dim,) or (1, dim)."""
    vals = np.array([np.ravel(fn(s)) for s in grid.nodes], dtype=float)
    return DiscretePath(grid, vals)


def evaluate_ends(p):
    """(p(t_min), p(t_max)) — the boundary evaluation map."""
    return p.samples[0].copy(), p.samples[-1].copy()


def fourier_path(grid, rng, dim=2, modes=10):
    """Random band-limited path: sum of <= `modes` Fourier modes."""
    span = grid.t_max - grid.t_min
    s = grid.nodes
    out = np.zeros((grid.n_nodes, dim))
    for _ in range(modes):
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        k = rng.integers(0, modes + 1)
        out += np.outer(np.cos(2 * np.pi * k * s / span), a)
        out += np.outer(np.sin(2 * np.pi * k * s / span), b)
    return DiscretePath(grid, out)


class TestGrid:
    def test_symmetric_grid_has_origin_node(self):
        g = symmetric_grid(3.0, 0.02)
        assert g.n_nodes % 2 == 1
        assert 0.0 in g.nodes
        assert g.h == pytest.approx(0.02)

    def test_make_grid_snaps_spacing_to_unit_fraction(self):
        g = make_grid(-3.0, 3.0, 0.019)
        assert abs(round(1.0 / g.h) - 1.0 / g.h) < 1e-12
        for target in (-3.0, -1.0, 1.0, 3.0):
            assert np.min(np.abs(g.nodes - target)) < 1e-12

    # for 4320 units m from 23294 to 65530, 1 / grid.h exceeds m by more
    # than 1e-12, which an absolute tolerance rounded up to m + 1
    @pytest.mark.parametrize("m", [2, 50, 80, 5000, 23294, 65530])
    @pytest.mark.parametrize("span", [(0.0, 12.0), (-30.0, 0.0), (-3.0, 3.0)])
    def test_grid_spacing_gives_back_its_unit(self, m, span):
        g = make_grid(*span, 1.0 / m)
        assert grid_unit(g.h) == m
        assert symmetric_grid(3.0, g.h) == symmetric_grid(3.0, 1.0 / m)

    @pytest.mark.parametrize("h,m", [(0.02, 50), (0.019, 53), (0.7, 2),
                                     (2e-4, 5000), (1e-9, 10**9)])
    def test_grid_unit_values(self, h, m):
        assert grid_unit(h) == m

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^5 nodes on \[-1, 1\], fewer than 9$"):
            Grid(-1.0, 1.0, 5)

    def test_even_node_count_rejected(self):
        with pytest.raises(ValueError):
            Grid(-1.0, 1.0, 10)

    def test_equal_grids_share_the_per_grid_caches(self):
        # two grids built apart are equal and hash alike, so each cache
        # lookup finds the other's entry
        g, other = symmetric_grid(3.0, 0.05), make_grid(-3.0, 3.0, 0.05)
        assert g is not other and g == other and hash(g) == hash(other)
        assert l2_weights(other, 2) is l2_weights(g, 2)
        assert w12_gram(other, 2) is w12_gram(g, 2)
        # equality and the hash are those of the three fields
        assert hash(g) == hash((g.t_min, g.t_max, g.n_nodes))
        assert g != Grid(g.t_min, g.t_max, g.n_nodes + 2)
        assert repr(g) == "Grid(t_min=-3.0, t_max=3.0, n_nodes=121)"


class TestDifferentiate:
    def test_constant_path(self):
        g = symmetric_grid(2.0, 0.1)
        p = DiscretePath(g, np.full((g.n_nodes, 2), 3.7))
        assert sup_norm(differentiate(p)) <= 1e-13

    def test_affine_exact(self):
        g = symmetric_grid(2.0, 0.1)
        p = path_from_function(g, lambda s: np.stack([s, -2 * s], axis=-1))
        d = differentiate(p)
        assert np.allclose(d.samples[:, 0], 1.0, atol=1e-12)
        assert np.allclose(d.samples[:, 1], -2.0, atol=1e-12)

    def test_quadratic_exact_including_endpoints(self):
        g = make_grid(-2.0, 2.0, 0.1)
        p = path_from_function(g, lambda s: s**2)
        d = differentiate(p)
        assert np.max(np.abs(d.samples[:, 0] - 2 * g.nodes)) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-2, 2), b=st.floats(-2, 2),
           seed=st.integers(0, 2**31))
    def test_linearity(self, a, b, seed):
        g = symmetric_grid(1.0, 0.05)
        rng = np.random.default_rng(seed)
        p = fourier_path(g, rng)
        q = fourier_path(g, rng)
        lhs = differentiate(DiscretePath(g, a * p.samples + b * q.samples))
        rhs = a * differentiate(p).samples + b * differentiate(q).samples
        assert np.max(np.abs(lhs.samples - rhs)) <= 1e-9 * (
            1 + np.max(np.abs(rhs)))


class TestNorms:
    def test_constant_one_on_unit_interval(self):
        g = make_grid(-1.0, 1.0, 0.02)
        p = DiscretePath(g, np.ones((g.n_nodes, 1)))
        n = norms(p)
        assert n.l2 == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert sup_norm(p) == 1.0
        assert n.w12 == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_exponential_l2_closed_form(self):
        g = make_grid(0.0, 5.0, 1e-3)
        p = path_from_function(g, lambda s: np.exp(-s))
        assert l2_norm(p) ** 2 == pytest.approx((1 - np.exp(-10)) / 2,
                                                abs=1e-4)

    def test_zero_path(self):
        g = symmetric_grid(1.0, 0.05)
        p = zero_path(g, 3)
        n = norms(p)
        assert (n.l2, n.w12, sup_norm(p)) == (0.0, 0.0, 0.0)

    def test_w12_dominates_l2(self):
        g = symmetric_grid(2.0, 0.02)
        p = fourier_path(g, np.random.default_rng(5))
        n = norms(p)
        assert n.w12 >= n.l2

    def test_invariance_under_sign_flip_and_reversal(self):
        g = symmetric_grid(2.0, 0.02)
        p = fourier_path(g, np.random.default_rng(6))
        for samples in (-p.samples, p.samples[::-1]):
            q = DiscretePath(g, samples)
            m = norms(q)
            n = norms(p)
            assert m.l2 == pytest.approx(n.l2, rel=1e-12)
            assert m.w12 == pytest.approx(n.w12, rel=1e-9)
            assert sup_norm(q) == sup_norm(p)

    def test_matches_composition(self):
        # the Gram forms agree with the trapezoidal L2 norm of the path and
        # of its stencil derivative to rounding
        rng = np.random.default_rng(9)
        for T, dim in ((3.0, 2), (8.0, 3), (1.0, 1)):
            g = symmetric_grid(T, 0.02)
            for scale in (1e-3, 1.0, 1e3):
                p = DiscretePath(g, scale * rng.standard_normal(
                    (g.n_nodes, dim)))
                l2 = l2_norm(p)
                w12 = float(np.hypot(l2, l2_norm(differentiate(p))))
                n = norms(p)
                assert n.l2 == l2
                assert n.w12 == pytest.approx(w12, rel=1e-13, abs=0.0)
                trapz = np.sqrt(trapezoid_weights(g)
                                @ np.sum(p.samples ** 2, axis=1))
                assert l2 == pytest.approx(trapz, rel=1e-13, abs=0.0)

    def test_same_bits_as_gram_forms(self):
        # L2 as the weighted sum v @ (w * v) is the diagonal Gram's matvec
        # bit for bit, and the weights are that Gram's diagonal
        rng = np.random.default_rng(10)
        for T, dim in ((3.0, 2), (8.0, 3), (1.0, 1)):
            g = symmetric_grid(T, 0.02)
            for scale in (1e-3, 1.0, 1e3):
                p = DiscretePath(g, scale * rng.standard_normal(
                    (g.n_nodes, dim)))
                v = p.samples.reshape(-1)
                gram = kron(diags(trapezoid_weights(g)),
                            identity(dim, format="csr"), format="csr")
                assert l2_weights(g, dim).tobytes() == \
                    gram.diagonal().tobytes()
                l2 = float(np.sqrt(v @ (gram @ v)))
                w12 = float(np.sqrt(v @ (w12_gram(g, dim) @ v)))
                assert l2_norm(p) == l2
                assert norms(p) == path_space.PathNorms(l2=l2, w12=w12)

    def test_overflowing_derivative_raises(self):
        g = symmetric_grid(1.0, 0.05)
        samples = np.zeros((g.n_nodes, 2))
        samples[1] = 1.5e308  # 2 w[1] / h overflows at the first node
        p = DiscretePath(g, samples)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                differentiate(p)

    def test_grams_are_cached_and_read_only(self):
        g = symmetric_grid(1.0, 0.05)
        w = l2_weights(g, 2)
        assert l2_weights(g, 2) is w
        assert not w.flags.writeable
        G = w12_gram(g, 2)
        assert w12_gram(g, 2) is G
        for a in (G.data, G.indices, G.indptr):
            assert not a.flags.writeable


class TestSobolevEmbedding:
    def test_random_corpus(self):
        rng = np.random.default_rng(7)
        for span in (2.0, 6.0, 16.0):
            g = make_grid(-span / 2, span / 2, 0.02)
            slack = 1 + 5 * g.h
            for _ in range(350):
                p = fourier_path(g, rng)
                assert sup_norm(p) <= 2 * norms(p).w12 * slack

    def test_ev_bound(self):
        rng = np.random.default_rng(8)
        g = symmetric_grid(3.0, 0.02)
        slack = 1 + 5 * g.h
        for _ in range(200):
            p = fourier_path(g, rng)
            left, right = evaluate_ends(p)
            val = np.sqrt(np.sum(left**2) + np.sum(right**2))
            assert val <= 2 * np.sqrt(2) * norms(p).w12 * slack


class TestEvaluateEnds:
    def test_constant(self):
        g = symmetric_grid(1.0, 0.05)
        p = DiscretePath(g, np.tile([1.5, -2.0], (g.n_nodes, 1)))
        left, right = evaluate_ends(p)
        assert np.array_equal(left, [1.5, -2.0])
        assert np.array_equal(right, [1.5, -2.0])

    def test_linear_flow_ends(self):
        T = 2.0
        a = np.array([1.0, -1.0])
        z0 = np.array([0.3, 0.7])
        g = symmetric_grid(T, 0.02)
        p = path_from_function(g, lambda s: np.exp(-np.outer(s, a)) * z0)
        left, right = evaluate_ends(p)
        assert np.allclose(left, np.exp(T * a) * z0, rtol=1e-12)
        assert np.allclose(right, np.exp(-T * a) * z0, rtol=1e-12)


def test_csv_dump_format(tmp_path):
    g = Grid(-1.0, 1.0, 9)
    p = path_from_function(g, lambda s: np.stack([s, s**2], axis=-1))
    path = str(tmp_path / "p.csv")
    write_csv(path, *path_csv_rows(p))
    with open(path, "rb") as f:
        lines = f.read().decode().split("\r\n")
    assert lines[0] == "s,x1,x2"
    assert len(lines) == g.n_nodes + 2 and lines[-1] == ""
    first = lines[1].split(",")
    assert float(first[0]) == -1.0 and float(first[2]) == 1.0


class TestPathShapes:
    def test_row_vector_callable_gives_2d_samples(self):
        a = np.array([1.0, -1.0])
        z0 = np.array([0.3, 0.7])
        g = symmetric_grid(1.0, 0.05)
        p = path_from_function(g, lambda s: np.exp(-np.outer(s, a)) * z0)
        assert p.samples.shape == (g.n_nodes, 2)
        assert p.dim == 2
        np.testing.assert_allclose(p.samples,
                                   np.exp(-np.outer(g.nodes, a)) * z0,
                                   rtol=1e-15, atol=0)

    def test_samples_of_rank_three_rejected(self):
        g = symmetric_grid(1.0, 0.05)
        with pytest.raises(ValueError, match="1-D or 2-D"):
            DiscretePath(g, np.zeros((g.n_nodes, 1, 2)))


def assert_same_csr(a, b):
    """Same CSR arrays, bit for bit: the same stored entries (no explicit
    zeros) in the same order, with the same index dtypes and values."""
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices),
                 (a.data, b.data)):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


def assert_same_band(ab, ref, k):
    """The LAPACK band ab (kl = ku = k, entry (i, j) in row 2k + i - j of
    column j, the first k rows zero) holds the sparse matrix ref bit for
    bit, and ref has no entry outside the band."""
    R = ref.toarray()
    want = np.zeros((3 * k + 1, R.shape[0]))
    for d in range(-k, k + 1):
        j = np.arange(max(0, -d), min(R.shape[0], R.shape[0] - d))
        want[2 * k + d, j] = R[j + d, j]
    assert ab.dtype == want.dtype and ab.shape == want.shape
    assert ab.tobytes() == want.tobytes()
    assert np.count_nonzero(want) == np.count_nonzero(R)


def diff_matrix_lil_reference(grid):
    """The former element-by-element lil builder of diff_matrix."""
    n = grid.n_nodes
    h = grid.h
    M = lil_matrix((n, n))
    M[0, 0], M[0, 1], M[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    for j in range(1, n - 1):
        M[j, j - 1] = -0.5 / h
        M[j, j + 1] = 0.5 / h
    M[n - 1, n - 3], M[n - 1, n - 2], M[n - 1, n - 1] = \
        0.5 / h, -2.0 / h, 1.5 / h
    return M.tocsr()


@pytest.mark.parametrize("grid", [Grid(0.0, 1.0, 9), symmetric_grid(1.0, 0.05),
                                  symmetric_grid(4.08, 0.02),
                                  make_grid(-22.0, 0.0, 0.02)])
def test_diff_matrix_matches_lil_reference(grid):
    D = diff_matrix(grid)
    assert_same_csr(D, diff_matrix_lil_reference(grid))
    p = fourier_path(grid, np.random.default_rng(3))
    np.testing.assert_allclose(D @ p.samples, differentiate(p).samples,
                               rtol=1e-12, atol=1e-9)


def clear_stencil_caches():
    """Drop the cached stencil bands and the flow-band templates built from
    them, for a test that replaces diff_matrix."""
    path_space._stencil_band.cache_clear()
    path_space._flow_band_template.cache_clear()


def flow_band_reference(grid, jac_blocks, n_stable):
    """The former _flow_band: J written into a zero band, the stencil added
    on each component, then the K_T rows zeroed and given a unit diagonal."""
    N, n, _ = jac_blocks.shape
    k = 2 * n
    size = N * n
    diag = 2 * k
    ab = np.zeros((size, 3 * k + 1)).T
    by = ab.reshape(3 * k + 1, N, n)
    for a in range(n):
        for b in range(n):
            by[diag + a - b, :, b] = jac_blocks[:, a, b]
    ab[diag - k:diag + k + 1:n] += np.repeat(path_space._stencil_band(grid),
                                             n, axis=1)
    rows = path_space.kt_rows(N, n, n_stable)
    j = rows[:, None] + np.arange(-k, k + 1)
    inside = (j >= 0) & (j < size)
    ab[(diag + rows[:, None] - j)[inside], j[inside]] = 0.0
    ab[diag, rows] = 1.0
    return ab


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def band_to_dense(ab, k):
    """The dense matrix of LAPACK band storage with kl = ku = k."""
    size = ab.shape[1]
    M = np.zeros((size, size))
    for d in range(-k, k + 1):
        j = np.arange(max(0, -d), min(size, size - d))
        M[j + d, j] = ab[2 * k + d, j]
    return M


# (eigenvalues, stable count): one or two stable components, and no
# unstable or no stable one, so each end-row branch runs alone too
DIAGONALS = [((1.0, -1.0), 1), ((2.0, 1.0, -1.5), 2), ((3.0, 1.0), 2),
             ((-1.0, -2.0), 0)]


class TestDiagonalFlowLU:
    def relerr(self, got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    @pytest.mark.parametrize("T", [3.0, 12.0])
    @pytest.mark.parametrize("a,ns", DIAGONALS)
    def test_matches_band_lu(self, T, a, ns):
        grid = symmetric_grid(T, 0.05)
        jac = np.broadcast_to(np.diag(a), (grid.n_nodes, len(a), len(a)))
        lu = DiagonalFlowLU(grid, a, ns)
        band = FlowLU(grid, jac, ns)
        rhs = np.random.default_rng(11).standard_normal(
            (grid.n_nodes * len(a), 2))
        for b in (rhs, rhs[:, 0]):
            got = lu.solve(b)
            assert got.shape == b.shape
            assert self.relerr(got, band.solve(b)) <= 1e-13

    @pytest.mark.parametrize("a,ns", DIAGONALS)
    def test_solve_matches_dense(self, a, ns):
        grid = symmetric_grid(3.0, 0.05)
        k = 2 * len(a)
        jac = np.broadcast_to(np.diag(a), (grid.n_nodes, len(a), len(a)))
        M = band_to_dense(_flow_band(grid, jac, ns), k)
        rhs = np.random.default_rng(12).standard_normal((M.shape[0], 2))
        lu = DiagonalFlowLU(grid, a, ns)
        got = lu.solve(rhs)
        assert self.relerr(got, np.linalg.solve(M, rhs)) <= 1e-13
        for j in range(2):
            assert got[:, j].tobytes() == lu.solve(rhs[:, j]).tobytes()

    def test_wrong_length_rejected(self):
        lu = DiagonalFlowLU(symmetric_grid(3.0, 0.05), (1.0, -1.0), 1)
        with pytest.raises(ValueError, match="does not match"):
            lu.solve(np.ones(2 * 121 + 2))

    def test_end_rows_follow_diff_matrix(self, monkeypatch):
        # the factor reads its entries and row operations from the stencil
        # of diff_matrix: with the end rows scaled by 3 and 5 the neighbour
        # multipliers become 3 and 5, and the solve still matches the band
        def scaled_ends(grid):
            D = diff_matrix(grid).tolil()
            D[0, :] *= 5.0
            D[-1, :] *= 3.0
            return D.tocsr()

        grid = symmetric_grid(3.0, 0.05)
        a, ns = (2.0, 1.0, -1.5), 2
        monkeypatch.setattr(path_space, "diff_matrix", scaled_ends)
        clear_stencil_caches()
        try:
            lu = DiagonalFlowLU(grid, a, ns)
            jac = np.broadcast_to(np.diag(a), (grid.n_nodes, 3, 3))
            band = FlowLU(grid, jac, ns)
        finally:
            clear_stencil_caches()
        assert (lu.mult_right, lu.mult_left) == (3.0, 5.0)
        rhs = np.random.default_rng(13).standard_normal(grid.n_nodes * 3)
        assert self.relerr(lu.solve(rhs), band.solve(rhs)) <= 1e-13


class TestFlowBandTemplate:
    @pytest.mark.parametrize("a,ns", DIAGONALS)
    def test_diagonal_same_bits_as_reference(self, a, ns):
        grid = symmetric_grid(3.0, 0.05)
        jac = np.broadcast_to(np.diag(a), (grid.n_nodes, len(a), len(a)))
        assert_same_bits(_flow_band(grid, jac, ns),
                         flow_band_reference(grid, jac, ns))

    @pytest.mark.parametrize("dim,ns", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_random_blocks_same_bits_as_reference(self, dim, ns):
        # random blocks with signed zeros: off-diagonal entries keep their
        # sign, diagonal ones are added to the stencil
        grid = make_grid(0.0, 2.0, 0.05)
        jac = np.random.default_rng(4).standard_normal(
            (grid.n_nodes, dim, dim))
        jac[::3] = -0.0
        band = _flow_band(grid, jac, ns)
        assert band.flags.f_contiguous and band.flags.writeable
        assert_same_bits(band, flow_band_reference(grid, jac, ns))

    def test_k_t_rows_stay_identity_rows(self):
        # inf and nan in J on the K_T rows never reach the band: no inf * 0
        grid = symmetric_grid(1.0, 0.05)
        dim, ns = 3, 2
        jac = np.ones((grid.n_nodes, dim, dim))
        jac[0, :ns] = np.inf
        jac[-1, ns:] = np.nan
        M = band_to_dense(_flow_band(grid, jac, ns), 2 * dim)
        rows = path_space.kt_rows(grid.n_nodes, dim, ns)
        assert_same_bits(M[rows], np.eye(M.shape[0])[rows])
        others = np.setdiff1d(np.arange(M.shape[0]), rows)
        assert np.isfinite(M[others]).all()

    def test_template_read_only_and_unchanged_by_factors(self):
        grid = make_grid(0.0, 1.0, 0.05)
        template = path_space._flow_band_template(grid, 2, 1)
        before = template.copy()
        with pytest.raises(ValueError):
            template[8, 0] = 1.0
        jac = np.random.default_rng(6).standard_normal((grid.n_nodes, 2, 2))
        for _ in range(2):
            FlowLU(grid, jac, 1)
        assert path_space._flow_band_template(grid, 2, 1) is template
        assert_same_bits(template, before)

    def test_cache_is_bounded(self):
        assert path_space._flow_band_template.cache_info().maxsize == \
            path_space.STENCIL_CACHE_SIZE
