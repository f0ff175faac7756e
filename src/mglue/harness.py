"""Command-line harness: configuration ingestion, experiment orchestration,
result persistence, and the verification suite runner.

Exit codes: 0 pass, 1 usage/IO/config error, 2 verification failure or a
failed hypothesis of the construction (precondition, contraction, shooting).
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .morse_model import (MIN_GLUING_T, compute_constants, model_c1,
                          model_e1, model_from_config, parse_flat_config)
from .linear_theory import (LinearTheory, euclidean_gluing_reference,
                            gamma_svd_bounds, measured_projection_norm,
                            measured_q_norm, measurement_slack)
from .invariant_manifolds import (FitError, decay_fit, digit_map,
                                  partitions, shoot_stable, shoot_unstable)
from .gluing import (_rate_over_T, convergence_sweep, cubic_cutoff,
                     estimate_decay_constant, glue, half_trajectory_length,
                     preglue, quintic_cutoff, shoot_halves,
                     tangent_convergence_sweep)
from .newton_picard import TOL_ZERO, ContractionError, PreconditionError
from .path_space import grid_unit, make_grid

FMT = "%.17g"

# Most nodes a half-trajectory grid [0, S] may hold.  Each shooting step
# holds the (n_nodes, dim, dim) Jacobian blocks and a (6 dim + 1, n_nodes dim)
# flow band: at 10^6 nodes and dim 2, the band alone takes 208 MB.
MAX_GRID_NODES = 10**6


# ---------------------------------------------------------------------------
# configuration

class ConfigError(Exception):
    pass


_BUILTIN_MODELS = {"e1": model_e1, "c1": model_c1}
_CUTOFFS = {"quintic": quintic_cutoff, "cubic": cubic_cutoff}

_CONFIG_KEYS = ("model", "cutoff", "seed_plus", "seed_minus", "T_list", "h",
                "out", "seed", "S", "C_decay")


def _config_grid(what, t_min, t_max, h):
    """make_grid(t_min, t_max, h), whose ValueError is a ConfigError that
    names what the grid is for."""
    try:
        return make_grid(t_min, t_max, h)
    except ValueError as exc:
        raise ConfigError("%s at h = %r: %s" % (what, h, exc)) from exc


def _read_flat_config(path):
    with open(path, encoding="utf-8") as f:
        return parse_flat_config(f.read())


class ExperimentConfig:
    """Flat key = value experiment description.

    Keys: model (builtin name or path to a model config file), cutoff
    (quintic|cubic), seed_plus, seed_minus (comma lists, empty for no
    values), T_list, h, out, seed (an integer that is parsed and reaches no
    output), S (default half_trajectory_length(max(T_list))), C_decay.
    Any other key is a ConfigError, and so is a non-finite number, a
    T_list that is not strictly increasing or starts below MIN_GLUING_T, a
    C_decay <= 0, a bad model file, S < 2 max(T_list), a T or S whose grid
    [-T, T] or [0, S] make_grid rejects at h, or a grid [0, S] of more than
    MAX_GRID_NODES nodes."""

    def __init__(self, raw, base_dir="."):
        unknown = sorted(set(raw) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError("unknown config key(s): %s" % ", ".join(unknown))
        model_key = raw.get("model", "c1").strip()
        self.epsilon = None
        self.delta_max = 1.0
        if model_key.lower() in _BUILTIN_MODELS:
            self.model = _BUILTIN_MODELS[model_key.lower()]()
        else:
            path = os.path.join(base_dir, model_key)
            if not os.path.exists(path):
                raise ConfigError("model file not found: %s" % path)
            try:
                self.model, self.epsilon, self.delta_max = model_from_config(
                    _read_flat_config(path))
            except ValueError as exc:
                raise ConfigError("model file %s: %s" % (path, exc)) from exc
        cname = raw.get("cutoff", "quintic").strip().lower()
        if cname not in _CUTOFFS:
            raise ConfigError("unknown cutoff: %s" % cname)
        self.cutoff = _CUTOFFS[cname]()
        self.T_list = [float(t) for t in
                       raw.get("T_list", "3,4,5,6,7,8").split(",")]
        self.h = float(raw.get("h", "0.02"))
        for key in ("seed_plus", "seed_minus"):
            text = raw.get(key, "0.3")      # empty: no values
            setattr(self, key,
                    [float(v) for v in text.split(",")] if text else [])
        self.out = raw.get("out", ".")
        int(raw.get("seed", "0"))       # a non-integer seed is an error
        self.S = float(raw.get("S", half_trajectory_length(max(self.T_list))))
        self.C_decay = float(raw["C_decay"]) if "C_decay" in raw else None
        # an unset C_decay (None) counts as finite
        for key in ("T_list", "h", "seed_plus", "seed_minus", "S", "C_decay"):
            if not np.all(np.isfinite(getattr(self, key) or 0.0)):
                raise ConfigError("%s must be finite" % key)
        if np.any(np.diff(self.T_list) <= 0) or self.T_list[0] < MIN_GLUING_T:
            raise ConfigError("T_list must be strictly increasing with "
                              "min >= %d" % MIN_GLUING_T)
        if self.C_decay is not None and self.C_decay <= 0:
            raise ConfigError("C_decay must be positive")
        if self.h <= 0:
            raise ConfigError("h must be positive")
        for k, want in (("seed_plus", self.model.n_stable),
                        ("seed_minus", self.model.index)):
            if len(getattr(self, k)) != want:
                raise ConfigError("%s needs %d value(s) for this model"
                                  % (k, want))
        # the paths live on grids of spacing 1/m <= h; each [-T, T] and
        # [0, S] is built here, so that make_grid's rule is a config rule
        self.grid_h = 1.0 / grid_unit(self.h)
        if self.S < 2.0 * max(self.T_list):
            raise ConfigError("S = %r is below 2 max(T_list) = %r"
                              % (self.S, 2.0 * max(self.T_list)))
        for T in self.T_list:
            _config_grid("T = %r" % T, -T, T, self.h)
        nodes = _config_grid("S = %r" % self.S, 0.0, self.S, self.h).n_nodes
        if nodes > MAX_GRID_NODES:
            raise ConfigError("h = %r and S = %r give %d nodes on [0, S], "
                              "above %d" % (self.h, self.S, nodes,
                                            MAX_GRID_NODES))

    def constants(self):
        """The model's constants; a model without them (no positive
        admissible radius) is a ConfigError."""
        try:
            return compute_constants(self.model, epsilon=self.epsilon,
                                     delta_max=self.delta_max)
        except ValueError as exc:
            raise ConfigError("model constants: %s" % exc) from exc


def load_config(path, out_override=None):
    if not os.path.exists(path):
        raise ConfigError("config file not found: %s" % path)
    cfg = ExperimentConfig(_read_flat_config(path),
                           base_dir=os.path.dirname(path) or ".")
    if out_override is not None:
        cfg.out = out_override
    return cfg


# ---------------------------------------------------------------------------
# persistence helpers

def _atomic_write(path, data):
    """Write bytes (or text) atomically: temp file in the target directory,
    then rename over the destination."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, mode, newline="" if mode == "w" else None) as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """RFC-4180-style CSV: CRLF line endings, '.' decimal separator,
    17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            FMT % v if isinstance(v, float) else str(v) for v in row))
    _atomic_write(path, "\r\n".join(lines) + "\r\n")


def write_json(path, obj):
    """Strict JSON: a non-finite float is a ValueError, not Infinity or NaN
    in the file."""
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")


def path_csv_rows(p):
    n = p.samples.shape[1]
    header = ["s"] + ["x%d" % (i + 1) for i in range(n)]
    rows = [[float(s)] + [float(v) for v in smp]
            for s, smp in zip(p.grid.nodes, p.samples)]
    return header, rows


# ---------------------------------------------------------------------------
# commands

def cmd_constants(cfg):
    consts = cfg.constants()
    slack = measurement_slack(cfg.grid_h)
    rows = []
    for T in cfg.T_list:
        lt = LinearTheory(cfg.model, T, cfg.h, consts)
        pi = measured_projection_norm(lt)
        q = measured_q_norm(lt)
        gmax, gmin = gamma_svd_bounds(lt)
        rows.append([T, pi, consts.d_proj, q, consts.c_rightinv,
                     gmax, gmin, consts.k_gamma_inv])
    write_csv(os.path.join(cfg.out, "constants.csv"),
              ["T", "norm_Pi_measured", "d_bound", "norm_Q_measured",
               "c_bound", "gamma_opnorm", "gamma_minsv", "k_bound"], rows)
    ok = all(r[1] <= r[2] * slack and r[3] <= r[4] * slack
             and r[5] <= 1.0 + 1e-9 for r in rows)
    for r in rows:
        print("T=%g  Pi %.6g <= %.6g  Q %.6g <= %.6g  Gamma %.6g"
              % (r[0], r[1], r[2] * slack, r[3], r[4] * slack, r[5]))
    return 0 if ok else 2


def cmd_glue(cfg):
    model = cfg.model
    consts = cfg.constants()
    T = cfg.T_list[0]
    wp = shoot_stable(model, cfg.seed_plus, cfg.S, h_max=cfg.h)
    wm = shoot_unstable(model, cfg.seed_minus, cfg.S, h_max=cfg.h)
    lt = LinearTheory(model, T, cfg.h, consts)
    rep = glue(model, cfg.cutoff, wp, wm, T, lt)
    header, rows = path_csv_rows(rep.path)
    write_csv(os.path.join(cfg.out, "glued_path.csv"), header, rows)
    write_json(os.path.join(cfg.out, "glue_report.json"), {
        "iterations": rep.np_iterations,
        "residual_final": rep.residual_final,
        "correction_norm": rep.correction_norm,
        "bound_2c_f": rep.bound_2c_F,
        "contraction_ratio_max": rep.contraction_ratio_max,
        "precondition": rep.precond,
    })
    print("glue T=%g: %d iterations, correction %.6g <= %.6g, ev error %.3g"
          % (T, rep.np_iterations, rep.correction_norm, rep.bound_2c_F,
             rep.ev_error))
    return 0


def _decay_prefactor(cfg):
    if cfg.C_decay is not None:
        return cfg.C_decay
    T_fit = cfg.T_list if len(cfg.T_list) >= 2 else [3.0, 5.0, 7.0]
    for T in T_fit:
        _config_grid("T = %r of the C_decay fit" % T, -T, T, cfg.h)
    S = max(cfg.S, 2.0 * max(T_fit) + 2.0)
    return estimate_decay_constant(cfg.model, cfg.cutoff,
                                   [(cfg.seed_plus, cfg.seed_minus)], T_fit,
                                   S, cfg.h)


def cmd_converge(cfg):
    """converge.csv, one row per T, and converge_fit.json with the fitted
    exponential rate of ev_error over T and its r2; both are null when
    fewer than two ev errors lie above the fit's floor (one T, say)."""
    model = cfg.model
    consts = cfg.constants()
    C = _decay_prefactor(cfg)
    sw = convergence_sweep(model, cfg.cutoff, (cfg.seed_plus, cfg.seed_minus),
                           cfg.T_list, h_max=cfg.h, S=cfg.S, constants=consts)
    c = consts.c_rightinv
    rows = []
    for r in sw["rows"]:
        ev_bound = np.sqrt(2.0) * 4.0 * c * C * np.exp(
            -consts.epsilon * r["T"]) * 1.2
        rows.append([r["T"], r["preglue_resid"], r["np_iters"],
                     r["corr_norm"], r["bound_2cF"], r["ev_error"],
                     float(ev_bound)])
    write_csv(os.path.join(cfg.out, "converge.csv"),
              ["T", "preglue_resid", "np_iters", "corr_norm", "bound_2cF",
               "ev_error", "ev_bound"], rows)
    fitted = np.isfinite(sw["rate_fit"])
    write_json(os.path.join(cfg.out, "converge_fit.json"),
               {"rate_fit": sw["rate_fit"] if fitted else None,
                "r2": sw["r2"] if fitted else None, "C_decay": float(C)})
    if fitted:
        print("ev convergence: fitted rate %.4f (r2 %.6f) over T in %s"
              % (sw["rate_fit"], sw["r2"], cfg.T_list))
    else:
        print("ev convergence: no rate fitted over T in %s" % cfg.T_list)
    return 0


def _rate_words(rate, T_list):
    """A sweep's fitted rate as cmd_converge prints it: the rate, or that
    none was fitted (_rate_over_T's inf)."""
    return ("rate %.4f" % rate if np.isfinite(rate)
            else "no rate fitted over T in %s" % T_list)


def cmd_tangent(cfg):
    model = cfg.model
    consts = cfg.constants()
    sw = tangent_convergence_sweep(
        model, cfg.cutoff, (cfg.seed_plus, cfg.seed_minus),
        ([1.0] * model.n_stable, [1.0] * model.index), cfg.T_list,
        h_max=cfg.h, S=cfg.S, constants=consts)
    # the m = 0 rows are the base solves, which are glue's
    rows = [[0.0, r["T"], r["ev_error"], r["ev_error"], r["base_np_iters"]]
            for r in sw["rows"]]
    print("m=0 sweep: %s" % _rate_words(
        _rate_over_T(sw["rows"], "ev_error")[0], cfg.T_list))
    rows += [[1.0, r["T"], r["ev_error"], r["tangent_ev_error"],
              r["np_iters"]] for r in sw["rows"]]
    print("m=1 sweep: %s" % _rate_words(sw["rate_fit"], cfg.T_list))
    write_csv(os.path.join(cfg.out, "tangent_sweep.csv"),
              ["m", "T", "ev_error", "tangent_ev_error", "np_iters"], rows)
    # The differential of the m-th tangent gluing map at the origin is block
    # diagonal with kernel-projection blocks, so its measured norm is the
    # projection norm for every m, and since d >= sqrt(8) > 1 the bound d
    # lies below d^(2^m).  One row per T therefore covers every order.
    slack = measurement_slack(cfg.grid_h)
    brows = []
    for T in cfg.T_list:
        lt = LinearTheory(model, T, cfg.h, consts)
        brows.append([T, measured_projection_norm(lt),
                      consts.d_proj * slack])
    write_csv(os.path.join(cfg.out, "tangent_norms.csv"),
              ["T", "norm_measured", "bound"], brows)
    ok = all(r[1] <= r[2] for r in brows)
    return 0 if ok else 2


def cmd_decay(cfg):
    # the sides with seeds (a side of no directions has none) are shot and
    # fitted before either is written, so a failed fit leaves no file
    fits = []
    for side, seed, shoot in (("stable", cfg.seed_plus, shoot_stable),
                              ("unstable", cfg.seed_minus, shoot_unstable)):
        if not seed:
            continue
        half = shoot(cfg.model, seed, cfg.S, h_max=cfg.h)
        window = (2.0, cfg.S - 2.0) if side == "stable" \
            else (-(cfg.S - 2.0), -2.0)
        fits.append((side, seed, half, decay_fit(half, window)))
    for side, seed, half, fit in fits:
        header, rows = path_csv_rows(half)
        write_csv(os.path.join(cfg.out, "decay_%s.csv" % side), header, rows)
        write_json(os.path.join(cfg.out, "decay_%s.json" % side), {
            "side": side, "S": cfg.S, "residual": half.residual,
            "x0_or_y0": list(seed), "decay_rate": fit.rate, "r2": fit.r2,
        })
        print("%s: rate %.5f (r2 %.6f), flow residual %.3g"
              % (side, fit.rate, fit.r2, half.residual))
    return 0


# ---------------------------------------------------------------------------
# verification matrix

# the check matrix's bundles are on [-VERIFY_T, VERIFY_T] at the config's h
VERIFY_T = 3.0


def _verify_checks(cfg):
    """Deterministic check matrix over the shipped models.  Yields
    (name, measured, bound, ok) tuples; a check passes when measured <= bound,
    or measured >= bound with at_least, unless ok is given."""
    out = []

    def check(name, measured, bound, ok=None, at_least=False):
        if ok is None:
            ok = measured >= bound if at_least else measured <= bound
        out.append((name, float(measured), float(bound), bool(ok)))

    e1 = model_e1()
    ce = compute_constants(e1)
    check("E1 right-inverse constant c = sqrt(5)",
          abs(ce.c_rightinv - np.sqrt(5.0)), 1e-12)
    check("E1 projection constant d = 2*sqrt(2)",
          abs(ce.d_proj - 2.0 * np.sqrt(2.0)), 1e-12)
    check("E1 inverse-bound k", abs(ce.k_gamma_inv - 1.0 / (1.0 - np.exp(-12.0))),
          1e-12)

    beta = quintic_cutoff()
    T = VERIFY_T
    lt = LinearTheory(e1, T, cfg.h, ce)
    gmax, gmin = gamma_svd_bounds(lt)
    check("E1 gamma operator norm", gmax, 1.0 + 1e-9)
    check("E1 gamma min singular value >= sqrt(1-e^-12)",
          gmin, np.sqrt(1.0 - np.exp(-12.0 * ce.sigma)) - 1e-9,
          at_least=True)

    wp, wm = shoot_halves(lt, [0.5], [0.4])
    wt = preglue(beta, wp, wm, T)
    check("preglue left endpoint exact",
          np.max(np.abs(wt.samples[0] - wp.samples[0])), 0.0, ok=bool(
              np.all(wt.samples[0] == wp.samples[0])))
    plateau = np.abs(lt.grid.nodes) <= 1.0 + 1e-12
    check("preglue plateau is identically 0 on [-1,1]",
          np.max(np.abs(wt.samples[plateau])), 0.0,
          ok=bool(np.all(wt.samples[plateau] == 0.0)))

    rep = glue(e1, beta, wp, wm, T, lt)
    ref = euclidean_gluing_reference(lt, wp.samples[0], wm.samples[-1])
    check("E1 glued path vs closed form (sup)",
          np.max(np.abs(rep.path.samples - ref.samples)), 5e-5)
    check("E1 correction count <= 2 iterations", rep.np_iterations, 2)
    check("E1 correction boundary structure to rounding",
          rep.boundary_defect, 1e-14)

    c1 = model_c1()
    cc = compute_constants(c1)
    ltc = LinearTheory(c1, T, cfg.h, cc)
    wpc, wmc = shoot_halves(ltc, [0.3], [0.3])
    repc = glue(c1, beta, wpc, wmc, T, ltc)
    check("C1 glued flow residual (interior sup)", repc.residual_final,
          10.0 * TOL_ZERO)
    check("C1 correction norm <= 2 c ||F(w_T)||",
          repc.correction_norm, repc.bound_2c_F * 1.01)
    check("C1 contraction ratio", repc.contraction_ratio_max, 0.55)
    fit = decay_fit(wpc, (2.0, wpc.S - 2.0))
    check("C1 stable-trajectory decay rate >= 0.9 sigma",
          fit.rate, cc.epsilon, at_least=True)

    check("C1 projection norm (exact) <= d (1+5h)",
          measured_projection_norm(ltc),
          cc.d_proj * measurement_slack(cfg.grid_h))
    check("C1 Duhamel Q norm (Lanczos, lower bound) <= c (1+5h)",
          measured_q_norm(ltc), cc.c_rightinv * measurement_slack(cfg.grid_h))

    check("digit set of 9 is {1,4}", 0.0, 0.0,
          ok=digit_map(9) == {1, 4})
    n_parts = len(partitions({1, 2, 3}, 2))
    check("partition count of a 3-set into 2 blocks", n_parts, 3,
          ok=n_parts == 3)
    return out


def cmd_verify(cfg):
    _config_grid("verify's T = %r" % VERIFY_T, -VERIFY_T, VERIFY_T, cfg.h)
    checks = _verify_checks(cfg)
    lines = []
    all_ok = True
    for name, measured, bound, ok in checks:
        all_ok &= ok
        line = "%-55s  measured %- .10e  bound %- .10e  %s" % (
            name, measured, bound, "PASS" if ok else "FAIL")
        lines.append(line)
        print(line)
    lines.append("overall: %s" % ("PASS" if all_ok else "FAIL"))
    print(lines[-1])
    _atomic_write(os.path.join(cfg.out, "verify_report.txt"),
                  "\r\n".join(lines) + "\r\n")
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------

COMMANDS = {
    "constants": cmd_constants,
    "glue": cmd_glue,
    "converge": cmd_converge,
    "tangent": cmd_tangent,
    "decay": cmd_decay,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mglue",
        description="Gluing laboratory for Morse gradient flow lines.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        cfg = load_config(args.config, out_override=args.out)
    except (ConfigError, OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    try:
        return COMMANDS[args.command](cfg)
    except (ConfigError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except (PreconditionError, ContractionError, FitError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
