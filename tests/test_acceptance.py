"""Acceptance suite: one test per criterion, each printing a single
pass/fail line with its measured numbers."""

import os

import numpy as np

from mglue.gluing import (certify_approx_zero, convergence_sweep,
                          cubic_cutoff, diffeo_criterion,
                          estimate_decay_constant, flow_problem, glue,
                          half_trajectory_length, preglue, quintic_cutoff)
from mglue.harness import main
from mglue.invariant_manifolds import (build_tangent_system, decay_fit,
                                       digit_inverse, digit_map, partitions,
                                       shoot_stable, shoot_unstable,
                                       solve_tangent_lift)
from mglue.linear_theory import (LinearTheory, euclidean_gluing_reference,
                                 gamma_svd_bounds, measured_projection_norm,
                                 measured_q_norm)
from mglue.newton_picard import np_solve, np_tangent_solve
from mglue.path_space import DiscretePath, make_grid, norms, sup_norm, w12_gram

from test_gluing import linearized_glue_check
from test_invariant_manifolds import stirling2
from test_linear_theory import gamma_infinitesimal
from test_path_space import fourier_path

BETA = quintic_cutoff()


def report(n, ok, detail):
    print("ACCEPTANCE CRITERION %d: %s  (%s)" % (n, "PASS" if ok else "FAIL",
                                                 detail))
    assert ok, detail


def test_criterion_01_euclidean_exactness(e1, ce):
    h = 0.004
    seed_pairs = [(0.5, 0.5), (-0.5, 0.25), (0.3, -0.45)]
    S = 22.0
    worst_sup, worst_iters = 0.0, 0
    halves = [(shoot_stable(e1, [x0], S, h_max=h),
               shoot_unstable(e1, [y0], S, h_max=h))
              for x0, y0 in seed_pairs]
    for T in (3.0, 5.0, 8.0):
        lt = LinearTheory(e1, T, h, ce)
        for wp, wm in halves:
            rep = glue(e1, BETA, wp, wm, T, lt)
            ref = euclidean_gluing_reference(lt, wp.samples[0],
                                             wm.samples[-1])
            worst_sup = max(worst_sup,
                            float(np.max(np.abs(rep.path.samples
                                                - ref.samples))))
            worst_iters = max(worst_iters, rep.np_iterations)
    report(1, worst_sup <= 1e-6 and worst_iters <= 2,
           "sup %.3g <= 1e-6, iterations %d <= 2" % (worst_sup, worst_iters))


def test_criterion_02_approximate_zero_decay(c1, cc):
    S = 26.0
    wp = shoot_stable(c1, [0.3], S)
    wm = shoot_unstable(c1, [0.3], S)
    out = certify_approx_zero(c1, BETA, wp, wm, list(range(3, 11)))
    support = max(r["support_violation"] for r in out["rows"])
    ok = (out["rate_fit"] >= 0.9 * cc.sigma and out["r2"] >= 0.99
          and support <= 1e-8)
    report(2, ok, "rate %.4f >= %.2f, r2 %.5f, support %.2g <= 1e-8"
           % (out["rate_fit"], 0.9 * cc.sigma, out["r2"], support))


def test_criterion_03_newton_picard_contract(c1, cc):
    rng = np.random.default_rng(42)
    lts = {}
    worst = {"resid": 0.0, "bdef": 0.0, "ratio": 0.0, "excess": 0.0}
    for _ in range(50):
        T = float(rng.integers(3, 9))
        x0, y0 = rng.uniform(-0.3, 0.3, size=2)
        S = 2 * T + 6
        wp = shoot_stable(c1, [x0], S)
        wm = shoot_unstable(c1, [y0], S)
        if T not in lts:
            lts[T] = LinearTheory(c1, T, 0.02, cc)
        rep = glue(c1, BETA, wp, wm, T, lts[T])
        worst["resid"] = max(worst["resid"], rep.residual_final)
        worst["bdef"] = max(worst["bdef"], rep.boundary_defect)
        worst["ratio"] = max(worst["ratio"], rep.contraction_ratio_max)
        worst["excess"] = max(worst["excess"],
                              rep.correction_norm / (rep.bound_2c_F * 1.01))
    ok = (worst["resid"] <= 1e-8 and worst["bdef"] <= 1e-13
          and worst["excess"] <= 1.0 and worst["ratio"] <= 0.55)
    report(3, ok, "residual %.2g <= 1e-8, boundary %.2g, correction ratio "
           "%.3f <= 1, contraction %.3f <= 0.55"
           % (worst["resid"], worst["bdef"], worst["excess"], worst["ratio"]))


def test_criterion_04_uniform_bounds(c1, cc):
    h = 0.02
    slack = 1 + 5 * h
    pis, qs, gmaxs, gmins = [], [], [], []
    for T in (3.0, 5.0, 8.0, 12.0):
        lt = LinearTheory(c1, T, h, cc)
        pis.append(measured_projection_norm(lt))
        qs.append(measured_q_norm(lt))
        gmax, gmin = gamma_svd_bounds(lt)
        gmaxs.append(gmax)
        gmins.append(gmin)
    floor = np.sqrt(1 - np.exp(-12 * cc.sigma)) - 1e-9
    var = max((max(v) - min(v)) / min(v) for v in (pis, qs, gmins))
    ok = (max(pis) <= cc.d_proj * slack and max(qs) <= cc.c_rightinv * slack
          and max(gmaxs) <= 1 + 1e-9 and min(gmins) >= floor and var < 0.05)
    report(4, ok, "Pi %.3f <= %.3f, Q %.3f <= %.3f, Gamma %.6f <= 1, "
           "minSV %.6f >= %.6f, variation %.2g%% < 5%%"
           % (max(pis), cc.d_proj * slack, max(qs), cc.c_rightinv * slack,
              max(gmaxs), min(gmins), floor, 100 * var))


def test_criterion_05_sobolev_constant():
    rng = np.random.default_rng(13)
    violations = 0
    for T in (1.0, 3.0, 8.0):
        g = make_grid(-T, T, 0.02)
        slack = 1 + 5 * g.h
        for _ in range(1000):
            p = fourier_path(g, rng)
            if sup_norm(p) > 2 * norms(p).w12 * slack:
                violations += 1
    report(5, violations == 0, "%d violations in 3000 paths" % violations)


def test_criterion_05_sobolev_constant_exact():
    # for the one-component Gram G1 of the W^{1,2} norm,
    # sup_z |z_j| / ||z|| = sqrt((G1^-1)_jj), attained by z = G1^-1 e_j, so
    # K_h = max_j sqrt((G1^-1)_jj) is the exact constant of the sampled
    # check above, and a vector path has the same one
    for T in (1.0, 3.0, 8.0):
        g = make_grid(-T, T, 0.02)
        G1inv = np.linalg.inv(w12_gram(g, 1).toarray())
        j = int(np.argmax(np.diag(G1inv)))
        K = float(np.sqrt(G1inv[j, j]))
        z = DiscretePath(g, G1inv[:, j:j + 1].copy())
        print("criterion 05 by computation: K_h %.5f at T = %g, node %d"
              % (K, T, j))
        assert abs(sup_norm(z) / norms(z).w12 - K) <= 1e-12 * K
        assert K <= 2 * (1 + 5 * g.h)


def test_criterion_06_evaluation_convergence(c1, cc):
    T_list = list(range(3, 11))
    box = np.linspace(-0.3, 0.3, 5)
    C = estimate_decay_constant(c1, BETA, [([xp], [ym]) for xp in box
                                           for ym in box],
                                T_list, half_trajectory_length(max(T_list)),
                                0.02)
    sw = convergence_sweep(c1, BETA, ([0.3], [0.3]), T_list, constants=cc)
    c = cc.c_rightinv
    over = 0
    for r in sw["rows"]:
        bound = np.sqrt(2) * 4 * c * C * np.exp(-cc.epsilon * r["T"]) * 1.2
        if r["ev_error"] > bound:
            over += 1
    ok = (sw["rate_fit"] >= cc.epsilon and sw["r2"] >= 0.99
          and over == 0)
    report(6, ok, "rate %.4f >= %.2f, r2 %.5f, %d/%d points above bound "
           "(C = %.3f)" % (sw["rate_fit"], cc.epsilon, sw["r2"], over,
                           len(sw["rows"]), C))


def test_criterion_07_linearized_gluing(e1, ce, c1, cc):
    ltc = LinearTheory(c1, 3.0, 0.01, cc)
    c1_disc = linearized_glue_check(BETA, ltc)["sup_discrepancy"]
    lte = LinearTheory(e1, 3.0, 2.5e-4, ce)
    e1_disc = linearized_glue_check(BETA, lte)["sup_discrepancy"]
    # cutoff independence: the infinitesimal map is cutoff-free while the
    # pre-glued paths visibly depend on the cutoff
    lt = LinearTheory(c1, 3.0, 0.02, cc)
    ga = gamma_infinitesimal(lt, [1.0], [1.0])
    gb = gamma_infinitesimal(lt, [1.0], [1.0])
    gamma_diff = float(np.max(np.abs(ga.samples - gb.samples)))
    S = 12.0
    wp = shoot_stable(c1, [0.3], S)
    wm = shoot_unstable(c1, [0.3], S)
    pa = preglue(quintic_cutoff(), wp, wm, 3.0)
    pb = preglue(cubic_cutoff(), wp, wm, 3.0)
    preglue_diff = float(np.max(np.abs(pa.samples - pb.samples)))
    ok = (c1_disc <= 1e-3 and e1_disc <= 1e-8 and gamma_diff <= 1e-12
          and preglue_diff >= 1e-3)
    report(7, ok, "curved %.2g <= 1e-3, euclidean %.2g <= 1e-8, "
           "infinitesimal-map cutoff difference %.2g <= 1e-12, "
           "pre-glue cutoff difference %.2g >= 1e-3"
           % (c1_disc, e1_disc, gamma_diff, preglue_diff))


def test_criterion_08_diffeomorphism_certificate(c1, cc):
    h = 0.02
    T0 = np.ceil(cc.T0 / h) * h
    results = []
    for i, T in enumerate((T0, 2 * T0)):
        lt = LinearTheory(c1, T, h, cc)
        out = diffeo_criterion(c1, BETA, lt, sample_count=10,
                               rng=np.random.default_rng(100 + i),
                               seed_box_radius=0.3, n_pairs=200,
                               n_preimages=20)
        results.append(out)
    ok = all(r["ift"].ok and r["theta_ok"]
             and r["ift"].injectivity_failures == 0
             and r["ift"].preimage_failures == 0 for r in results)
    report(8, ok, "T in {%.2f, %.2f}: injective 200/200 pairs, 20/20 "
           "preimages, theta %.4f <= %.4f"
           % (T0, 2 * T0, max(r["theta_norm"] for r in results),
              results[0]["theta_bound"]))


def test_criterion_09_tangent_machinery(c1, cc):
    # digit/partition enumeration vs brute force
    digits_ok = all(digit_inverse(digit_map(k)) == k
                    for k in range(1, 4097))
    parts_ok = all(
        len(partitions(set(range(1, n + 1)), ell)) == stirling2(n, ell)
        for n in range(1, 7) for ell in range(1, n + 1))

    # tangent lifts vs finite differences of the base flow
    S = 12.0
    base = shoot_stable(c1, [0.3], S)
    spec2 = build_tangent_system(2)
    lifts = solve_tangent_lift(c1, base, spec2, [[1.0], [1.0], [0.0]])
    eps1 = 1e-4
    hp = shoot_stable(c1, [0.3 + eps1], S)
    hm = shoot_stable(c1, [0.3 - eps1], S)
    fd1 = (hp.samples - hm.samples) / (2 * eps1)
    err1 = float(np.max(np.abs(lifts[0].samples - fd1)))
    eps2 = 3e-3
    hp2 = shoot_stable(c1, [0.3 + eps2], S)
    hm2 = shoot_stable(c1, [0.3 - eps2], S)
    fd2 = (hp2.samples - 2 * base.samples
           + hm2.samples) / eps2**2
    err2 = float(np.max(np.abs(lifts[2].samples - fd2)))

    # decay of all lifts
    rates = [decay_fit(base, (2.0, S - 2.0)).rate]
    rates += [decay_fit(p, (2.0, S - 2.0)).rate for p in lifts]
    decay_ok = min(rates) >= 0.9 * cc.sigma

    # tangent solve base equals the plain solve on the glued problem
    T = 3.0
    lt = LinearTheory(c1, T, 0.02, cc)
    wp = shoot_stable(c1, [0.3], 2 * T + 6)
    wm = shoot_unstable(c1, [0.3], 2 * T + 6)
    wt = preglue(BETA, wp, wm, T)
    prob = flow_problem(lt)
    x1 = wt.samples.reshape(-1)
    xi1 = preglue(BETA,
                  solve_tangent_lift(c1, wp, build_tangent_system(1),
                                     [[1.0]])[0],
                  solve_tangent_lift(c1, wm, build_tangent_system(1),
                                     [[1.0]])[0],
                  T).samples.reshape(-1)
    base, _ = np_tangent_solve(prob, x1, xi1)
    base_gap = float(np.max(np.abs(base.x - np_solve(prob, x1).x)))

    # differential norms of the corrected gluing at the origin: the
    # differential of every order is block diagonal with projection blocks,
    # and d bounds d^(2^m) from below, so the m = 0 check is the tightest
    slack = 1 + 5 * lt.grid.h
    norm_ok = measured_projection_norm(lt) <= cc.d_proj * slack

    ok = (digits_ok and parts_ok and err1 <= 1e-5 and err2 <= 1e-3
          and decay_ok and base_gap <= 1e-10 and norm_ok)
    report(9, ok, "digits/partitions ok, lift fd errors %.2g <= 1e-5 / "
           "%.2g <= 1e-3, min decay rate %.3f, base gap %.2g <= 1e-10, "
           "differential norms ok" % (err1, err2, min(rates), base_gap))


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("model = c1\nT_list = 3\nh = 0.02\n"
                   "seed_plus = 0.3\nseed_minus = 0.3\nseed = 21\n")
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        code = main(["verify", "--config", str(cfg), "--out", out,
                     "--seed", "21"])
        assert code == 0
        outs.append(open(os.path.join(out, "verify_report.txt"),
                         "rb").read())
    ok = outs[0] == outs[1]
    report(10, ok, "exit 0 twice, reports byte-identical: %s" % ok)
