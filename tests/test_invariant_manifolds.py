import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.sparse import block_diag, csr_matrix, identity, kron

from mglue.gluing import ev_error, preglue, quintic_cutoff
from mglue.invariant_manifolds import (MAX_ITER, TOL_FLOW, HalfTrajectory,
                                       ShootError, _flow_res_with_bc,
                                       _half_grid, _interior_residual,
                                       _seed_values, _tensor_forcing,
                                       build_tangent_system, decay_fit,
                                       digit_inverse, digit_map,
                                       hamming_weight, linear_half_path,
                                       partitions, shoot_stable,
                                       shoot_unstable,
                                       solve_tangent_lift,
                                       theta_identification, theta_inverse)
from mglue import path_space
from mglue.morse_model import model_c1
from mglue.path_space import (DiscretePath, FlowLU, _flow_band, diff_matrix,
                              make_grid, symmetric_grid, zero_path)

from test_morse_model import model_3d, model_quartic
from test_path_space import (assert_same_band, assert_same_bits,
                             clear_stencil_caches, flow_band_reference,
                             path_from_function)


class TestDigits:
    def test_examples(self):
        assert digit_map(9) == {1, 4}
        assert digit_map(1) == {1}
        assert digit_map(6) == {2, 3}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            digit_map(0)

    def test_roundtrip_full_range(self):
        for k in range(1, 4097):
            assert digit_inverse(digit_map(k)) == k

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 10**9))
    def test_roundtrip_property(self, k):
        D = digit_map(k)
        assert digit_inverse(D) == k
        assert len(D) == hamming_weight(k)


def stirling2(n, k):
    if k == 0:
        return 1 if n == 0 else 0
    if n == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def brute_force_partitions(D, ell):
    D = sorted(D)
    out = set()
    for labels in itertools.product(range(ell), repeat=len(D)):
        if len(set(labels)) != ell:
            continue
        blocks = {}
        for x, lab in zip(D, labels):
            blocks.setdefault(lab, []).append(x)
        out.add(frozenset(tuple(b) for b in blocks.values()))
    return out


class TestPartitions:
    def test_single_block(self):
        assert partitions({1, 4}, 1) == [(tuple(sorted((1, 4))),)] or \
            len(partitions({1, 4}, 1)) == 1

    def test_two_singletons(self):
        parts = partitions({1, 2}, 2)
        assert len(parts) == 1

    def test_three_set_two_blocks(self):
        assert len(partitions({1, 2, 3}, 2)) == 3

    def test_counts_match_stirling(self):
        for n in range(1, 7):
            D = set(range(1, n + 1))
            for ell in range(1, n + 1):
                assert len(partitions(D, ell)) == stirling2(n, ell)

    def test_matches_brute_force(self):
        D = {1, 3, 5, 6}
        for ell in (1, 2, 3, 4):
            got = {frozenset(tuple(sorted(b)) for b in p)
                   for p in partitions(D, ell)}
            assert got == brute_force_partitions(D, ell)

    def test_bad_block_count(self):
        with pytest.raises(ValueError):
            partitions({1}, 0)


class TestTangentSystem:
    def test_m1_structure(self):
        spec = build_tangent_system(1)
        assert spec.n_components == 2
        terms = spec.components[0]
        assert [t[0] for t in terms] == [1]
        assert terms[0][1] == (1,)

    def test_m2_k3_has_one_second_order_term(self):
        spec = build_tangent_system(2)
        terms = spec.components[2]  # component k = 3
        orders = sorted(t[0] for t in terms)
        assert orders == [1, 2]
        second = [t for t in terms if t[0] == 2][0]
        assert sorted(second[1]) == [1, 2]

    def test_m3_k7_term_counts(self):
        spec = build_tangent_system(3)
        terms = spec.components[6]  # component k = 7
        from collections import Counter
        counts = Counter(t[0] for t in terms)
        assert counts[3] == 1 and counts[2] == 3 and counts[1] == 1

    def test_term_multiset_vs_brute_force(self):
        for m in (1, 2, 3):
            spec = build_tangent_system(m)
            for k in range(1, 2**m):
                D = digit_map(k)
                terms = spec.components[k - 1]
                for ell in range(2, hamming_weight(k) + 1):
                    expect = brute_force_partitions(D, ell)
                    got = [t for t in terms if t[0] == ell]
                    assert len(got) == len(expect)
                    for _, args in got:
                        blocks = frozenset(tuple(sorted(digit_map(a)))
                                           for a in args)
                        assert blocks in expect


class TestShooting:
    def test_e1_stable_closed_form(self, e1):
        half = shoot_stable(e1, [0.5], 10.0, h_max=0.02)
        assert half.residual <= 1e-10
        s = half.grid.nodes
        assert np.max(np.abs(half.samples[:, 0]
                             - 0.5 * np.exp(-s))) <= 5e-5
        assert np.max(np.abs(half.samples[:, 1])) <= 1e-12

    def test_e1_unstable_closed_form(self, e1):
        half = shoot_unstable(e1, [0.5], 10.0, h_max=0.02)
        assert half.residual <= 1e-10
        s = half.grid.nodes
        assert np.max(np.abs(half.samples[:, 1]
                             - 0.5 * np.exp(s))) <= 5e-5
        assert np.max(np.abs(half.samples[:, 0])) <= 1e-12

    def test_zero_seed_gives_constant_zero(self, c1):
        for shoot in (shoot_stable, shoot_unstable):
            half = shoot(c1, [0.0], 8.0)
            assert np.max(np.abs(half.samples)) <= 1e-12

    def test_c1_stable_decay(self, c1, cc):
        S = 12.0
        half = shoot_stable(c1, [0.3], S)
        assert half.residual <= 1e-9
        fit = decay_fit(half, (2.0, S - 2.0))
        assert fit.rate >= 0.9 * cc.sigma
        assert fit.r2 >= 0.99

    def test_c1_unstable_tail_bound(self, c1, cc):
        S = 12.0
        half = shoot_unstable(c1, [0.3], S)
        assert half.residual <= 1e-9
        assert np.linalg.norm(half.samples[0]) <= \
            2 * 0.3 * np.exp(-0.9 * cc.sigma * S)


def shoot_damped_reference(model, seed, S, side, h_max):
    """The former _shoot: damped Newton, halving each step up to 20 times
    until the residual 2-norm drops, ShootError when no halving does."""
    seed = np.atleast_1d(np.asarray(seed, dtype=float))
    n = model.dim
    ns = model.n_stable
    grid = _half_grid(side, S, h_max)
    N = grid.n_nodes
    bc_rows = path_space.kt_rows(N, n, ns)
    bc_vals = _seed_values(model, side, seed)
    w = linear_half_path(model, side, seed, grid.nodes)
    res = _flow_res_with_bc(model, w, grid.h, bc_rows, bc_vals)
    rnorm = np.linalg.norm(res)
    for _ in range(MAX_ITER):
        if _interior_residual(res, bc_rows) < TOL_FLOW:
            break
        step = FlowLU(grid, model.dgrad_tensor(w, 1), ns).solve(-res)
        lam = 1.0
        for _ in range(20):
            w_new = w + lam * step.reshape(N, n)
            res_new = _flow_res_with_bc(model, w_new, grid.h, bc_rows,
                                        bc_vals)
            rnorm_new = np.linalg.norm(res_new)
            if rnorm_new < rnorm or rnorm == 0.0:
                break
            lam *= 0.5
        else:
            raise ShootError("damped Newton stalled")
        w, res, rnorm = w_new, res_new, rnorm_new
    else:
        raise ShootError("Newton did not converge")
    resid = _interior_residual(res, bc_rows)
    if resid > TOL_FLOW:
        raise ShootError("flow residual above tol_flow")
    return HalfTrajectory(grid, w, side=side, S=float(S), residual=resid)


class TestFullNewtonShoot:
    """The shoot takes the full Newton step and stops at the first step
    that does not reduce the residual 2-norm: the bits of the former damped
    shoot wherever it succeeds, and a failure wherever it fails."""

    @pytest.mark.parametrize("make_model",
                             [model_c1, model_3d, model_quartic],
                             ids=["c1", "3d", "quartic"])
    @pytest.mark.parametrize("side", ["stable", "unstable"])
    def test_same_bits_as_damped_shoot(self, make_model, side):
        model = make_model()
        shoot = shoot_stable if side == "stable" else shoot_unstable
        size = model.n_stable if side == "stable" else model.index
        for seed in (-3.0, -2.0, -1.0, -0.3, 0.3, 1.0, 2.0, 3.0):
            try:
                ref = shoot_damped_reference(model, [seed] * size, 12.0,
                                             side, 0.02)
            except ShootError:
                with pytest.raises(ShootError):
                    shoot(model, [seed] * size, 12.0)
                continue
            half = shoot(model, [seed] * size, 12.0)
            assert_same_bits(half.samples, ref.samples)
            assert half.residual.hex() == ref.residual.hex()
            assert half.grid == ref.grid


class TestTangentLift:
    def test_e1_m1_closed_form(self, e1):
        base = shoot_stable(e1, [0.5], 8.0)
        lift = solve_tangent_lift(e1, base, build_tangent_system(1), [[1.0]])[0]
        s = base.grid.nodes
        assert np.max(np.abs(lift.samples[:, 0] - np.exp(-s))) <= 5e-5
        assert np.max(np.abs(lift.samples[:, 1])) <= 1e-12

    def test_zero_seeds_give_zero_components(self, c1):
        base = shoot_stable(c1, [0.3], 8.0)
        spec = build_tangent_system(2)
        lifts = solve_tangent_lift(c1, base, spec, [[0.0], [0.0], [0.0]])
        for lift in lifts:
            assert np.max(np.abs(lift.samples)) <= 1e-12

    def test_c1_m1_vs_finite_difference(self, c1):
        S, eps = 8.0, 1e-4
        base = shoot_stable(c1, [0.3], S)
        lift = solve_tangent_lift(c1, base, build_tangent_system(1), [[1.0]])[0]
        hp = shoot_stable(c1, [0.3 + eps], S)
        hm = shoot_stable(c1, [0.3 - eps], S)
        fd = (hp.samples - hm.samples) / (2 * eps)
        assert np.max(np.abs(lift.samples - fd)) <= 1e-5

    def test_c1_m2_vs_finite_difference(self, c1):
        S, eps = 8.0, 3e-3
        base = shoot_stable(c1, [0.3], S)
        spec = build_tangent_system(2)
        lifts = solve_tangent_lift(c1, base, spec, [[1.0], [1.0], [0.0]])
        hp = shoot_stable(c1, [0.3 + eps], S)
        hm = shoot_stable(c1, [0.3 - eps], S)
        fd2 = (hp.samples - 2 * base.samples
               + hm.samples) / eps**2
        assert np.max(np.abs(lifts[2].samples - fd2)) <= 1e-3

    def test_lift_decay(self, c1, cc):
        S = 12.0
        base = shoot_stable(c1, [0.2], S)
        spec = build_tangent_system(2)
        lifts = solve_tangent_lift(c1, base, spec, [[1.0], [1.0], [0.0]])
        for lift in lifts:
            fit = decay_fit(lift, (2.0, S - 2.0))
            assert fit.rate >= 0.9 * cc.sigma
            assert fit.r2 >= 0.99


class TestTheta:
    def test_identity_at_constant_base(self, c1):
        base = shoot_stable(c1, [0.0], 8.0)
        v = np.exp(-np.outer(base.grid.nodes, c1.a_plus))
        xi = DiscretePath(base.grid, np.concatenate(
            [v, np.zeros((base.grid.n_nodes, 1))], axis=1))
        # tol_lin loosened to the O(h^2) defect of sampling the closed form
        assert np.allclose(theta_identification(c1, base, xi, tol_lin=1e-4),
                           [1.0], atol=1e-6)

    def test_zero_maps_to_zero(self, c1):
        base = shoot_stable(c1, [0.3], 8.0)
        xi = DiscretePath(base.grid,
                          np.zeros((base.grid.n_nodes, 2)))
        assert np.allclose(theta_identification(c1, base, xi), 0.0)

    def test_roundtrip(self, c1):
        base = shoot_stable(c1, [0.3], 8.0)
        xi, _ = theta_inverse(c1, base, [0.7])
        assert np.allclose(theta_identification(c1, base, xi), [0.7],
                           atol=1e-6)

    def test_linearity(self, c1):
        base = shoot_stable(c1, [0.3], 8.0)
        spec = build_tangent_system(1)
        xi1 = solve_tangent_lift(c1, base, spec, [[1.0]])[0]
        xi2 = solve_tangent_lift(c1, base, spec, [[-0.4]])[0]
        combo = DiscretePath(base.grid,
                             2.0 * xi1.samples + 3.0 * xi2.samples)
        lhs = theta_identification(c1, base, combo)
        rhs = 2.0 * theta_identification(c1, base, xi1) \
            + 3.0 * theta_identification(c1, base, xi2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


class TestHalfTrajectoryIsAPath:
    def test_same_bits_as_its_path(self, c1):
        S = 16.0
        halves = (shoot_stable(c1, [0.3], S), shoot_unstable(c1, [0.3], S))
        paths = [DiscretePath(h.grid, h.samples) for h in halves]
        beta = quintic_cutoff()
        for T in (3.0, 5.0):
            assert np.array_equal(preglue(beta, *halves, T).samples,
                                  preglue(beta, *paths, T).samples)
        gamma = zero_path(symmetric_grid(5.0, 0.02), c1.dim)
        assert ev_error(gamma, *halves) == ev_error(gamma, *paths) > 0.0
        windows = ((2.0, S - 2.0), (-(S - 2.0), -2.0))
        for half, path, window in zip(halves, paths, windows):
            assert decay_fit(half, window) == decay_fit(path, window)


class TestDecayFit:
    def test_pure_exponential(self):
        g = make_grid(0.0, 10.0, 0.02)
        p = path_from_function(g, lambda s: np.exp(-s))
        fit = decay_fit(p, (1.0, 9.0))
        assert fit.rate == pytest.approx(1.0, abs=1e-3)
        assert fit.r2 >= 0.9999

    def test_e1_stable_trajectory(self, e1):
        half = shoot_stable(e1, [0.5], 10.0)
        fit = decay_fit(half, (2.0, 8.0))
        assert fit.rate >= 0.999

    def test_rate_inheritance_from_forcing(self):
        # xi' + (1 + e^{-s}) xi = e^{-s/2}: the slowly decaying forcing sets
        # the asymptotic rate of the solution
        def rhs(s, y):
            return -(1 + np.exp(-s)) * y + np.exp(-0.5 * s)

        g = make_grid(0.0, 24.0, 0.02)
        sol = solve_ivp(rhs, (0.0, 24.0), [0.3], t_eval=g.nodes,
                        rtol=1e-10, atol=1e-12)
        p = DiscretePath(g, sol.y.T)
        fit = decay_fit(p, (12.0, 23.0))
        assert fit.rate >= 0.5 * (1 - 0.02)
        assert fit.rate <= 0.6


def assemble_system_lil_reference(Dk, jac_blocks, bc_rows):
    """The former collocation Jacobian: block_diag, then lil row surgery."""
    J = (Dk + block_diag(jac_blocks, format="csr")).tolil()
    for r in bc_rows:
        J.rows[r] = [r]
        J.data[r] = [1.0]
    return csr_matrix(J)


def collocation_lil_reference(model, base):
    """The former collocation Jacobian along a half trajectory, from the
    former stencil kron(diff_matrix, I) and boundary rows spelled out."""
    n, ns, N = model.dim, model.n_stable, base.grid.n_nodes
    Dk = kron(diff_matrix(base.grid), identity(n, format="csr"),
              format="csr")
    bc_rows = list(range(ns)) + [(N - 1) * n + i for i in range(ns, n)]
    blocks = np.stack([model.dgrad_tensor(z, 1) for z in base.samples])
    return assemble_system_lil_reference(Dk, blocks, bc_rows)


class TestAssembly:
    @pytest.mark.parametrize("S", [1.0, 4.0, 14.0])
    @pytest.mark.parametrize("shoot", [shoot_stable, shoot_unstable])
    @pytest.mark.parametrize("seed", [0.0, 0.3])
    def test_collocation_jacobian_matches_lil_reference(self, c1, S, shoot,
                                                        seed):
        # seed 0 gives the zero trajectory: the Jacobian blocks hold exact
        # zeros, which the reference stores as zeros too
        base = shoot(c1, [seed], S)
        ab = _flow_band(base.grid, c1.dgrad_tensor(base.samples, 1),
                        c1.n_stable)
        assert_same_band(ab, collocation_lil_reference(c1, base),
                         2 * c1.dim)

    @pytest.mark.parametrize("S", [1.0, 4.0])
    @pytest.mark.parametrize("shoot", [shoot_stable, shoot_unstable])
    def test_band_solve_matches_dense_solve(self, c1, S, shoot):
        base = shoot(c1, [0.3], S)
        lu = FlowLU(base.grid, c1.dgrad_tensor(base.samples, 1),
                    c1.n_stable)
        M = collocation_lil_reference(c1, base).toarray()
        rhs = np.random.default_rng(5).standard_normal((M.shape[0], 2))
        want = np.linalg.solve(M, rhs)
        assert np.max(np.abs(lu.solve(rhs) - want)) <= \
            1e-12 * np.max(np.abs(want))
        np.testing.assert_array_equal(lu.solve(rhs[:, 0]), lu.solve(rhs)[:, 0])

    def test_zero_column_raises(self, monkeypatch):
        # no stencil reaches node 4, and its Jacobian block is zero, so the
        # columns of node 4 are zero and the factor is exactly singular
        def stencil_without_node_4(grid):
            D = diff_matrix(grid).tolil()
            D[:, 4] = 0.0
            return D.tocsr()

        monkeypatch.setattr(path_space, "diff_matrix", stencil_without_node_4)
        grid = make_grid(0.0, 1.0, 0.05)
        # the stencil band and the flow-band template are cached: drop any
        # built from the real diff_matrix, and the broken ones on the way out
        clear_stencil_caches()
        try:
            with pytest.raises(RuntimeError, match="singular"):
                FlowLU(grid, np.zeros((grid.n_nodes, 2, 2)), 1)
        finally:
            clear_stencil_caches()


class TestStencilCache:
    def factors(self, c1, base):
        jac = c1.dgrad_tensor(base.samples, 1)
        lu = FlowLU(base.grid, jac, c1.n_stable)
        return _flow_band(base.grid, jac, c1.n_stable), lu._lu, lu._piv

    @pytest.mark.parametrize("shoot", [shoot_stable, shoot_unstable])
    def test_cold_and_warm_cache_same_bits(self, c1, shoot):
        base = shoot(c1, [0.3], 4.0)
        warm = self.factors(c1, base)
        clear_stencil_caches()
        cold = self.factors(c1, base)
        again = self.factors(c1, base)
        for a, b, c in zip(warm, cold, again):
            assert a.dtype == b.dtype == c.dtype
            assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_diff_matrix_runs_on_first_factor_only(self, monkeypatch):
        calls = []

        def counted_diff_matrix(grid):
            calls.append(grid)
            return diff_matrix(grid)

        monkeypatch.setattr(path_space, "diff_matrix", counted_diff_matrix)
        clear_stencil_caches()
        grid = make_grid(0.0, 2.0, 0.05)
        for _ in range(3):
            FlowLU(grid, np.ones((grid.n_nodes, 2, 2)), 1)
        assert calls == [grid]

    def test_cached_band_is_read_only(self):
        band = path_space._stencil_band(make_grid(0.0, 1.0, 0.05))
        with pytest.raises(ValueError):
            band[2, 0] = 1.0

    def test_cache_is_bounded(self):
        assert path_space._stencil_band.cache_info().maxsize == \
            path_space.STENCIL_CACHE_SIZE

    @pytest.mark.parametrize("name,seed", [("c1", [0.3]),
                                           ("3d", [0.2, 0.2])])
    def test_band_from_template_same_bits_as_reference(self, request, name,
                                                       seed):
        # the band copied from the cached template, with J added, is the
        # former builder's band on the Jacobians along a stable half
        model = model_3d() if name == "3d" else request.getfixturevalue(name)
        base = shoot_stable(model, seed, 4.0)
        jac = model.dgrad_tensor(base.samples, 1)
        for _ in range(2):
            assert_same_bits(_flow_band(base.grid, jac, model.n_stable),
                             flow_band_reference(base.grid, jac,
                                                 model.n_stable))


def tangent_forcing_references(model, w, W, ell, args):
    """Per-node loops for one forcing term: the former tensordot form, and the
    same contractions as plain unfused multiply-adds in Python floats."""
    dotted = np.empty_like(w)
    plain = np.empty_like(w)
    for j in range(len(w)):
        v = model.dgrad_tensor(w[j], ell)
        t = v.tolist()
        for a in args:
            v = np.tensordot(v, W[a][j], axes=([v.ndim - 1], [0]))
            t = _contract_last(t, W[a][j].tolist())
        dotted[j] = v
        plain[j] = t
    return dotted, plain


def _contract_last(t, x):
    if not isinstance(t[0], list):
        acc = 0.0
        for tb, xb in zip(t, x):
            acc = acc + tb * xb
        return acc
    return [_contract_last(row, x) for row in t]


class TestTangentForcing:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("shoot", [shoot_stable, shoot_unstable])
    def test_einsum_forcing_matches_per_node_loops(self, c1, m, shoot):
        base = shoot(c1, [0.3], 8.0)
        spec = build_tangent_system(m)
        seeds = [[1.0], [0.5], [0.2], [-0.7], [0.3], [0.1], [0.4]]
        lifts = solve_tangent_lift(c1, base, spec, seeds[:2 ** m - 1])
        w = base.samples
        W = {k + 1: lift.samples for k, lift in enumerate(lifts)}
        eps = np.finfo(float).eps
        for k in range(1, spec.n_components):
            for ell, args in spec.components[k - 1]:
                if ell == 1:
                    continue
                got = _tensor_forcing(c1.dgrad_tensor(w, ell),
                                      [W[a] for a in args])
                dotted, plain = tangent_forcing_references(c1, w, W, ell,
                                                           args)
                assert np.array_equal(got, plain)
                # tensordot goes through BLAS, which may fuse a multiply-add:
                # each of the ell two-term dots may round differently
                scale = _tensor_forcing(np.abs(c1.dgrad_tensor(w, ell)),
                                        [np.abs(W[a]) for a in args])
                assert np.all(np.abs(got - dotted) <= 2 * ell * eps * scale)
