"""The benchmark's four workloads.

Every workload uses the curved model ``c1``, the quintic cutoff and grid
spacing h = 0.02, and calls mglue only through module attributes, so that a
traced run sees each call.  Requests come in blocks drawn from
``(workload seed, block index)``; a run times whole blocks.  Within a block
the inputs that set a request's cost (the gluing length ``T``, the seed
magnitudes) are stratified rather than drawn independently, so that runs
with different seeds do the same mix of work and their figures can be
compared.

Each workload gives, per request: the call itself, the output check against
the repository's acceptance bounds, a digest of the numeric outputs formatted
with ``%.17g``, and a label used to break a traced run down by input size.
"""

import contextlib
import hashlib
import io
import os

import numpy as np

from mglue import (gluing, harness, invariant_manifolds, linear_theory,
                   morse_model, newton_picard)

H = 0.02
SEED_RADIUS = 0.3

# Exceptions a request may raise by design; anything else is a bug in the
# benchmark and ends the run.
REQUEST_ERRORS = (invariant_manifolds.ShootError,
                  newton_picard.PreconditionError,
                  newton_picard.ContractionError, ValueError)


def _fmt(values):
    return ",".join("%.17g" % v for v in values).encode()


def _stratified(rng, k, radius=SEED_RADIUS):
    """k points of [-radius, radius], one uniform draw in each of k equal
    bins, in random order."""
    u = (rng.permutation(k) + rng.uniform(size=k)) / k
    return -radius + 2.0 * radius * u


class _Base:
    def __init__(self, workdir):
        self.model = morse_model.model_c1()
        self.consts = morse_model.compute_constants(
            self.model, rng=np.random.default_rng(0))
        self.cutoff = gluing.quintic_cutoff()

    def block(self, seed, index):
        return self._block(np.random.default_rng([seed, index]))


class Glue(_Base):
    """Criterion 03's distribution: T from 3..8, seeds from [-0.3, 0.3],
    both halves shot at S = 2T + 6, one LinearTheory per T."""

    name = "glue"
    T_VALUES = tuple(float(t) for t in range(3, 9))
    reaches = ("path_space.diff_matrix", "path_space.differentiate",
               "path_space.norms", "morse_model.MorseModel.grad",
               "morse_model.MorseModel.dgrad_tensor",
               "invariant_manifolds.shoot", "linear_theory.apply_Q_exact",
               "linear_theory.apply_D", "newton_picard.np_solve",
               "gluing.glue", "gluing.apply_F", "gluing.preglue")

    def __init__(self, workdir):
        super().__init__(workdir)
        self.lts = {T: linear_theory.LinearTheory(self.model, T, H,
                                                  self.consts)
                    for T in self.T_VALUES}

    def _block(self, rng):
        k = len(self.T_VALUES)
        Ts = rng.permutation(self.T_VALUES)
        return list(zip(Ts.tolist(), _stratified(rng, k).tolist(),
                        _stratified(rng, k).tolist()))

    def label(self, inp):
        return "T=%g" % inp[0]

    def request(self, inp):
        T, x0, y0 = inp
        S = 2.0 * T + 6.0
        wp = invariant_manifolds.shoot_stable(self.model, [x0], S, h_max=H)
        wm = invariant_manifolds.shoot_unstable(self.model, [y0], S, h_max=H)
        return gluing.glue(self.model, self.cutoff, wp, wm, T, self.lts[T])

    def check(self, rep):
        bad = []
        if not rep.residual_final <= 1e-8:
            bad.append("residual %.3g > 1e-8" % rep.residual_final)
        if not rep.boundary_defect <= 1e-13:
            bad.append("boundary defect %.3g > 1e-13" % rep.boundary_defect)
        if not rep.contraction_ratio_max <= 0.55:
            bad.append("contraction %.3g > 0.55" % rep.contraction_ratio_max)
        if not rep.correction_norm <= 1.01 * rep.bound_2c_F:
            bad.append("correction %.6g > 1.01 * %.6g"
                       % (rep.correction_norm, rep.bound_2c_F))
        return bad

    def digest(self, inp, rep):
        return _fmt(list(inp) + [
            rep.np_iterations, rep.residual_final, rep.correction_norm,
            rep.bound_2c_F, rep.contraction_ratio_max, rep.ev_error,
            rep.boundary_defect]) + _fmt(rep.path.samples.ravel())


class Sweep(_Base):
    """The library paths of ``mglue converge`` and ``mglue tangent``: one seed
    pair, convergence_sweep over T = 3..10, then the m = 1 tangent sweep over
    T = 3..8.

    Seed components have magnitudes in [0.1, 0.3] and balanced signs.  The
    Newton-Picard iteration count, and with it the cost of a sweep, grows
    with the log of the seed magnitude (a zero seed pair glues in no
    iterations), and a run holds only a dozen or so sweeps."""

    name = "sweep"
    T_CONVERGE = [float(t) for t in range(3, 11)]
    T_TANGENT = [float(t) for t in range(3, 9)]
    BLOCK = 4
    MIN_SEED = 0.1
    reaches = ("path_space.diff_matrix", "path_space.differentiate",
               "path_space.norms", "morse_model.MorseModel.grad",
               "morse_model.MorseModel.dgrad_tensor",
               "invariant_manifolds.shoot",
               "invariant_manifolds.solve_tangent_lift",
               "linear_theory.LinearTheory", "linear_theory.apply_Q_exact",
               "linear_theory.apply_D", "newton_picard.np_solve",
               "newton_picard.np_tangent_solve", "gluing.glue",
               "gluing.apply_F", "gluing.preglue")

    def _block(self, rng):
        def component():
            u = (rng.permutation(self.BLOCK) + rng.uniform(size=self.BLOCK)
                 ) / self.BLOCK
            sign = rng.permutation(np.resize([1.0, -1.0], self.BLOCK))
            return sign * (self.MIN_SEED + (SEED_RADIUS - self.MIN_SEED) * u)

        return list(zip(component().tolist(), component().tolist()))

    def label(self, inp):
        return "sweep"

    def request(self, inp):
        seeds = ([inp[0]], [inp[1]])
        m = self.model
        sw = gluing.convergence_sweep(m, self.cutoff, seeds, self.T_CONVERGE,
                                      h_max=H, constants=self.consts)
        tw = gluing.tangent_convergence_sweep(
            m, self.cutoff, seeds, ([1.0] * m.n_stable, [1.0] * m.index),
            self.T_TANGENT, order_m=1, h_max=H, constants=self.consts)
        return sw, tw

    def check(self, out):
        sw, tw = out
        rate = 0.9 * self.consts.sigma
        bad = []
        if not sw["rate_fit"] >= rate:
            bad.append("ev rate %.4g < %.4g" % (sw["rate_fit"], rate))
        if not sw["r2"] >= 0.99:
            bad.append("ev fit r2 %.6g < 0.99" % sw["r2"])
        if not tw["rate_fit"] >= rate:
            bad.append("tangent rate %.4g < %.4g" % (tw["rate_fit"], rate))
        return bad

    def digest(self, inp, out):
        sw, tw = out
        vals = list(inp) + [sw["rate_fit"], sw["r2"], tw["rate_fit"]]
        for r in sw["rows"]:
            vals += [r["T"], r["preglue_resid"], r["np_iters"],
                     r["corr_norm"], r["bound_2cF"], r["ev_error"]]
        for r in tw["rows"]:
            vals += [r["T"], r["ev_error"], r["tangent_ev_error"],
                     r["np_iters"]]
        return _fmt(vals)


class Certificate(_Base):
    """Criterion 08's code path with reduced counts: T alternates between T0
    (rounded up to the grid) and 2 T0, seed box radius 0.3, a fresh rng seed
    per request."""

    name = "certificate"
    SAMPLE_COUNT = 1
    N_PAIRS = 4
    N_PREIMAGES = 1
    reaches = ("morse_model.MorseModel.grad",
               "morse_model.MorseModel.dgrad_tensor",
               "invariant_manifolds.shoot",
               "invariant_manifolds.solve_tangent_lift",
               "linear_theory.LinearTheory", "linear_theory.apply_Q_exact",
               "newton_picard.np_solve", "newton_picard.ift_certificate",
               "gluing.coordinate_map", "gluing.glue",
               "gluing.theta_defect_norm")

    def __init__(self, workdir):
        super().__init__(workdir)
        self.T0 = float(np.ceil(self.consts.T0 / H) * H)

    def _block(self, rng):
        return [(T, int(rng.integers(2**32))) for T in (self.T0, 2 * self.T0)]

    def label(self, inp):
        return "T=%.2f" % inp[0]

    def request(self, inp):
        T, rng_seed = inp
        lt = linear_theory.LinearTheory(self.model, T, H, self.consts)
        return gluing.diffeo_criterion(
            self.model, self.cutoff, lt, sample_count=self.SAMPLE_COUNT,
            rng=np.random.default_rng(rng_seed),
            seed_box_radius=SEED_RADIUS, n_pairs=self.N_PAIRS,
            n_preimages=self.N_PREIMAGES)

    def check(self, out):
        ift = out["ift"]
        bad = []
        if not ift.ok:
            bad.append("IFT certificate not ok")
        if not out["theta_ok"]:
            bad.append("theta %.6g above bound %.6g"
                       % (out["theta_norm"], out["theta_bound"]))
        if ift.injectivity_failures or ift.preimage_failures:
            bad.append("%d injectivity and %d preimage failures"
                       % (ift.injectivity_failures, ift.preimage_failures))
        return bad

    def digest(self, inp, out):
        ift = out["ift"]
        return _fmt(list(inp) + [
            ift.inv_norm_at_0, ift.max_variation, ift.injectivity_failures,
            ift.preimage_failures, out["theta_norm"], out["theta_bound"]]
            + list(ift.worst_sample))


class Norms(_Base):
    """``mglue constants`` in-process through harness.main, on a generated
    config whose T_list is one T from {3, 5, 8, 12} (criterion 04's shape)."""

    name = "norms"
    T_VALUES = (3, 5, 8, 12)
    reaches = ("path_space.diff_matrix", "morse_model.compute_constants",
               "linear_theory.LinearTheory", "linear_theory.apply_Q",
               "linear_theory.q_matrix", "linear_theory.projection_matrix",
               "linear_theory.measured_opnorm", "harness.main",
               "harness.cmd_constants", "harness.write_csv")

    def __init__(self, workdir):
        super().__init__(workdir)
        self.configs = {}
        for T in self.T_VALUES:
            path = os.path.join(workdir, "constants_T%d.cfg" % T)
            with open(path, "w", encoding="utf-8") as f:
                f.write("model = c1\ncutoff = quintic\nh = %r\nT_list = %d\n"
                        % (H, T))
            self.configs[T] = path
        self.out_dir = os.path.join(workdir, "out")

    def _block(self, rng):
        # a fixed order: peak RSS depends on the order in which the dense
        # matrices of different sizes are allocated and freed
        return [(T, int(rng.integers(2**31))) for T in self.T_VALUES]

    def label(self, inp):
        return "T=%d" % inp[0]

    def request(self, inp):
        T, rng_seed = inp
        with contextlib.redirect_stdout(io.StringIO()):
            return harness.main(["constants", "--config", self.configs[T],
                                 "--out", self.out_dir,
                                 "--seed", str(rng_seed)])

    def check(self, rc):
        return [] if rc == 0 else ["mglue constants exited with %r" % rc]

    def digest(self, inp, rc):
        with open(os.path.join(self.out_dir, "constants.csv"), "rb") as f:
            return _fmt(list(inp) + [rc]) + f.read()


WORKLOADS = {cls.name: cls for cls in (Glue, Sweep, Certificate, Norms)}


def request_digest(data):
    return hashlib.sha256(data).hexdigest()
