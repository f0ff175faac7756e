import json
import os

import numpy as np
import pytest

from mglue import gluing, harness, invariant_manifolds, newton_picard
from mglue.gluing import (convergence_sweep, half_trajectory_length, preglue,
                          quintic_cutoff, shoot_halves,
                          tangent_convergence_sweep)
from mglue.harness import (ConfigError, ExperimentConfig, load_config, main,
                           write_csv)
from mglue.linear_theory import LinearTheory
from mglue.morse_model import MIN_GLUING_T

from test_morse_model import TEXT_QUARTIC


def write_cfg(tmp_path, name="exp.cfg", **over):
    base = {"model": "c1", "T_list": "3,4", "h": "0.02",
            "seed_plus": "0.3", "seed_minus": "0.3", "seed": "11"}
    base.update(over)
    text = "".join("%s = %s\n" % kv for kv in base.items())
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfig:
    def test_defaults_and_parsing(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.model.dim == 2
        assert cfg.T_list == [3.0, 4.0]
        # the seed reaches no output, but a non-integer one is an error
        assert main(["constants", "--config",
                     write_cfg(tmp_path, name="bad.cfg", seed="1.5")]) == 1

    def test_unsorted_t_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, T_list="5,3"))

    @pytest.mark.parametrize("t_list", ["3,3", "3,4,4"])
    def test_repeated_t_rejected(self, tmp_path, capsys, t_list):
        # a rate fitted over one distinct T is no fit at all
        cfg = write_cfg(tmp_path, T_list=t_list)
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_config(cfg)
        assert main(["converge", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: T_list") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_nonpositive_c_decay_rejected(self, tmp_path, capsys, value):
        cfg = write_cfg(tmp_path, C_decay=value)
        with pytest.raises(ConfigError, match="C_decay must be positive"):
            load_config(cfg)
        assert main(["converge", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: C_decay must be positive\n"

    def test_t_below_three_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, T_list="2,3"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.cfg"))

    def test_model_file_reference(self, tmp_path):
        (tmp_path / "mdl.cfg").write_text(
            "dim = 2\nindex = 1\neig = 1,-1\nnonlinearity = 0.1*x1^2*x2\n")
        cfg = load_config(write_cfg(tmp_path, model="mdl.cfg"))
        assert np.allclose(cfg.model.grad([1.0, 1.0]), [1.2, -0.9])

    def test_unknown_cutoff_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, cutoff="boxcar"))

    def test_nonpositive_step_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="h must be positive"):
            load_config(write_cfg(tmp_path, h="0"))

    @pytest.mark.parametrize("over", [
        {"T_list": "3", "S": "4"},        # S below 2T: the head is too short
        {"T_list": "3.01"},               # T off the grid of spacing 1/50
        {"T_list": "3", "S": "12.02"},    # even node count on [0, S]
        {"T_list": "3.25", "h": "0.7"},   # T off the grid of spacing 1/2
    ])
    def test_off_grid_t_or_s_rejected(self, tmp_path, capsys, over):
        cfg = write_cfg(tmp_path, **over)
        with pytest.raises(ConfigError):
            load_config(cfg)
        assert main(["glue", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_grid_above_node_bound_rejected(self):
        # checked on the config only: a command at this h would ask for a
        # grid of 1.2e10 nodes
        with pytest.raises(ConfigError, match=r"h = 1e-09 and S = 12.0 give "
                           r"12000000001 nodes on \[0, S\], above 1000000"):
            ExperimentConfig({"model": "c1", "T_list": "3", "h": "1e-9"})

    def test_slack_spacing_is_the_grid_spacing(self, tmp_path):
        # h = 0.7 puts the paths on the grid of spacing 1/2
        cfg = load_config(write_cfg(tmp_path, T_list="3", h="0.7"))
        assert cfg.grid_h == 0.5

    @pytest.mark.parametrize("key", ["seed_plus", "seed_minus"])
    def test_seed_dimension_rejected(self, tmp_path, key):
        # c1 has one stable and one unstable direction
        with pytest.raises(ConfigError, match=key):
            load_config(write_cfg(tmp_path, **{key: "0.3,0.1"}))

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, debug_scale_q="10")
        with pytest.raises(ConfigError, match="debug_scale_q"):
            load_config(cfg)
        assert main(["constants", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config key") \
            and err.count("\n") == 1

    @pytest.mark.parametrize("key,value", [
        ("h", "inf"), ("h", "nan"), ("T_list", "3,inf"), ("T_list", "nan"),
        ("S", "inf"), ("S", "nan"), ("seed_plus", "nan"),
        ("seed_minus", "-inf"), ("C_decay", "nan"), ("C_decay", "inf"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, key, value):
        cfg = write_cfg(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=key + " must be finite"):
            load_config(cfg)
        assert main(["glue", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: %s must be finite\n" % key

    @pytest.mark.parametrize("text,message", [
        ("dim = 2\nindex = 1\neig = 1,-1\nnonlinarity = 0.1*x1^2*x2\n",
         "unknown key nonlinarity"),
        ("dim = 2\nindex = 1\n", "missing key eig"),
        ("index = 1\neig = 1,-1\n", "missing key dim"),
        ("dim = 2\neig = 1,-1\n", "missing key index"),
        ("dim = 2\nindex = 1\neig = 1,-1\nepsilon = 5\n",
         "need 0 < epsilon < sigma"),
        ("dim = 2\nindex = 1\neig = 1,-1\nepsilon = nan\n",
         "need 0 < epsilon < sigma"),
        ("dim = 2\nindex = 1\neig = 1,-1\ndelta_max = inf\n",
         "need 0 < delta_max < inf"),
        ("dim = 2\nindex = 1\neig = 1,-1\ndelta_max = -1\n",
         "need 0 < delta_max < inf"),
        ("dim = 2\nindex = 1\neig = 1,-1\ndelta_max = 1e308\n",
         "need 2 delta_max finite"),
        ("dim = 2\nindex = 1\neig = inf,-1\n",
         "eig must be finite, got inf, -1.0"),
        ("dim = 2\nindex = 1\neig = nan,-1\n",
         "eig must be finite, got nan, -1.0"),
        ("dim = 2\nindex = 1\neig = 1,-1\nnonlinearity = 0.1*x1^2*x2\n"
         "nonlinearity = 0.2*x1^2*x2\n", "line 5: repeated key nonlinearity"),
    ], ids=["typo", "no_eig", "no_dim", "no_index", "epsilon_5",
            "epsilon_nan", "delta_max_inf", "delta_max_negative",
            "delta_max_overflow", "eig_inf", "eig_nan", "repeated_key"])
    def test_bad_model_file_rejected(self, tmp_path, capsys, text, message):
        (tmp_path / "mdl.cfg").write_text(text)
        cfg = write_cfg(tmp_path, model="mdl.cfg")
        with pytest.raises(ConfigError, match=message):
            load_config(cfg)
        assert main(["glue", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model file ") and message in err
        assert err.count("\n") == 1

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # the second T_list would otherwise win silently
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model = c1\nT_list = 3\nT_list = 4\nh = 0.02\n")
        assert main(["glue", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            "error: line 3: repeated key T_list\n"
        assert not (tmp_path / "out").exists()

    def test_model_file_epsilon_kept(self, tmp_path):
        (tmp_path / "mdl.cfg").write_text(
            "dim = 2\nindex = 1\neig = 1,-1\nepsilon = 0.5\n")
        assert load_config(write_cfg(tmp_path, model="mdl.cfg")).epsilon \
            == 0.5

    def test_overrides(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path), out_override="/tmp/x")
        assert cfg.out == "/tmp/x"


def strict_json_load(path):
    """json.load that raises on the non-standard constants Infinity,
    -Infinity and NaN instead of reading them as floats."""
    def refuse(name):
        raise ValueError("non-finite JSON constant %s" % name)
    with open(path) as f:
        return json.load(f, parse_constant=refuse)


class TestJson:
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_value_refused(self, tmp_path, value):
        path = tmp_path / "x.json"
        with pytest.raises(ValueError):
            harness.write_json(str(path), {"v": value})
        assert not path.exists()


class TestCsv:
    def test_rfc4180_crlf_and_digits(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["a", "b"], [[1.0 / 3.0, 2]])
        raw = open(path, "rb").read()
        assert raw == b"a,b\r\n0.33333333333333331,2\r\n"


class TestCommands:
    def test_missing_config_exits_1(self, capsys):
        assert main(["constants", "--config", "/nonexistent.cfg"]) == 1

    def test_constants_ok(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, T_list="3", model="e1")
        out = str(tmp_path / "out")
        assert main(["constants", "--config", cfg, "--out", out]) == 0
        lines = open(os.path.join(out, "constants.csv"), "rb").read() \
            .decode().split("\r\n")
        assert lines[0] == ("T,norm_Pi_measured,d_bound,norm_Q_measured,"
                            "c_bound,gamma_opnorm,gamma_minsv,k_bound")
        row = lines[1].split(",")
        assert float(row[2]) == pytest.approx(2 * np.sqrt(2))
        assert float(row[4]) == pytest.approx(np.sqrt(5))
        assert float(row[7]) == pytest.approx(1 / (1 - np.exp(-12)))

    def test_constants_bound_violation_exits_2(self, tmp_path, capsys,
                                               monkeypatch):
        measured = harness.measured_q_norm
        monkeypatch.setattr(harness, "measured_q_norm",
                            lambda lt: 10.0 * measured(lt))
        cfg = write_cfg(tmp_path, T_list="3", model="e1")
        assert main(["constants", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_failed_precondition_exits_2(self, tmp_path, capsys):
        # seeds of size 2 put the pre-glued path outside the contraction ball
        cfg = write_cfg(tmp_path, T_list="3", seed_plus="2.0",
                        seed_minus="2.0")
        assert main(["glue", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: pre-glued path leaves the contraction")
        assert err.count("\n") == 1

    def test_glue_zero_seeds_zero_iterations(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, seed_plus="0.0", seed_minus="0.0",
                        T_list="3")
        out = str(tmp_path / "out")
        assert main(["glue", "--config", cfg, "--out", out]) == 0
        rep = json.load(open(os.path.join(out, "glue_report.json")))
        assert rep["iterations"] == 0

    def test_glue_reports_failed_paper_preconditions(self, tmp_path, capsys):
        # the default c1 seeds miss both of the paper's bounds at T = 3; glue
        # runs under the sup-ball hypothesis and reports them
        cfg = write_cfg(tmp_path, T_list="3")
        out = str(tmp_path / "out")
        assert main(["glue", "--config", cfg, "--out", out]) == 0
        pre = json.load(open(os.path.join(out, "glue_report.json")))[
            "precondition"]
        assert pre["dx_ok"] is False and pre["fx_ok"] is False
        assert pre["dx_norm"] >= pre["dx_bound"] > 0
        assert pre["fx_norm"] >= pre["fx_bound"] > 0

    def test_converge_euclidean_t3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, model="e1", T_list="3",
                        seed_plus="1.0", seed_minus="1.0", C_decay="1.0")
        out = str(tmp_path / "out")
        assert main(["converge", "--config", cfg, "--out", out]) == 0
        row = open(os.path.join(out, "converge.csv"), "rb").read() \
            .decode().split("\r\n")[1].split(",")
        assert float(row[5]) == pytest.approx(np.sqrt(2) * np.exp(-6),
                                              rel=1e-3)

    def test_converge_one_t_writes_null_fit(self, tmp_path, capsys):
        # one T gives no rate: the sidecar says null, in strict JSON
        cfg = write_cfg(tmp_path, T_list="3")
        out = str(tmp_path / "out")
        assert main(["converge", "--config", cfg, "--out", out]) == 0
        fit = strict_json_load(os.path.join(out, "converge_fit.json"))
        assert fit["rate_fit"] is None and fit["r2"] is None
        assert fit["C_decay"] > 0
        assert "no rate fitted" in capsys.readouterr().out

    def test_converge_zero_seeds_exits_2(self, tmp_path, capsys):
        # zero seeds pre-glue the zero path: no residual decays, so no
        # prefactor C_decay is fitted; one error line, exit 2, no file
        cfg = write_cfg(tmp_path, seed_plus="0", seed_minus="0")
        out = tmp_path / "out"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: no decay prefactor to fit over T in [3.0, 4.0]")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not list(out.glob("converge*"))
        # a configured C_decay skips the fit
        cfg = write_cfg(tmp_path, seed_plus="0", seed_minus="0",
                        C_decay="1.0")
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        fit = strict_json_load(str(out / "converge_fit.json"))
        assert fit["C_decay"] == 1.0

    def test_tangent_one_t_fits_no_rate(self, tmp_path, capsys):
        # one T gives no rate for either sweep: the words of converge, not
        # the fit's inf sentinel
        cfg = write_cfg(tmp_path, T_list="3")
        assert main(["tangent", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:2] == [
            "m=%d sweep: no rate fitted over T in [3.0]" % m for m in (0, 1)]
        assert "inf" not in out

    def test_tangent_one_norm_row_per_t_and_deterministic(self, tmp_path,
                                                          capsys):
        cfg = write_cfg(tmp_path, T_list="3,4")
        files = ("tangent_sweep.csv", "tangent_norms.csv")
        runs = []
        for name, seed in (("a", "1"), ("b", "2")):
            out = str(tmp_path / name)
            assert main(["tangent", "--config", cfg, "--out", out,
                         "--seed", seed]) == 0
            runs.append([open(os.path.join(out, f), "rb").read()
                         for f in files])
        assert runs[0] == runs[1]
        lines = runs[0][1].decode().split("\r\n")
        assert lines[0] == "T,norm_measured,bound"
        assert [line.split(",")[0] for line in lines[1:-1]] == ["3", "4"]
        # two T fit a rate for each sweep
        printed = capsys.readouterr().out.splitlines()
        for m, line in enumerate(printed[:2]):
            assert line.startswith("m=%d sweep: rate " % m)
            assert np.isfinite(float(line.rsplit(" ", 1)[1]))

    def test_tangent_shoots_once_and_solves_each_t_once(self, tmp_path,
                                                       capsys, monkeypatch):
        # one m = 1 sweep: the two halves, and per T the base solve and the
        # tangent solve (the m = 0 sweep shot and solved again before)
        calls = {"shoot": 0, "np_solve": 0}

        def counting(name, f):
            def counted(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return counted

        for shoot in ("shoot_stable", "shoot_unstable"):
            monkeypatch.setattr(gluing, shoot,
                                counting("shoot", getattr(gluing, shoot)))
        solve = counting("np_solve", newton_picard.np_solve)
        monkeypatch.setattr(newton_picard, "np_solve", solve)
        monkeypatch.setattr(gluing, "np_solve", solve)
        cfg = write_cfg(tmp_path, T_list="3,4,5")
        assert main(["tangent", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        assert calls == {"shoot": 2, "np_solve": 2 * 3}

    def test_tangent_m0_rows_are_converge_rows(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, T_list="3,4")
        out = str(tmp_path / "out")
        for command in ("converge", "tangent"):
            assert main([command, "--config", cfg, "--out", out]) == 0
        converge, tangent = (
            [line.split(",") for line in open(os.path.join(out, name),
                                              newline="").read()
             .split("\r\n")[1:-1]]
            for name in ("converge.csv", "tangent_sweep.csv"))
        # m, T, ev_error, tangent_ev_error = ev_error, np_iters
        assert [r[1:] for r in tangent if r[0] == "0"] == \
            [[r[0], r[5], r[5], r[2]] for r in converge]

    def test_decay_sidecar(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, T_list="3", S="12")
        out = str(tmp_path / "out")
        assert main(["decay", "--config", cfg, "--out", out]) == 0
        rep = json.load(open(os.path.join(out, "decay_stable.json")))
        assert rep["side"] == "stable"
        assert rep["decay_rate"] >= 0.9
        assert rep["r2"] >= 0.99
        assert rep["residual"] <= 1e-9

    def test_decay_zero_seed_exits_2(self, tmp_path, capsys):
        # a zero seed shoots the zero half trajectory, which has no decay to
        # measure: one error line and exit 2, no traceback
        cfg = write_cfg(tmp_path, T_list="3", seed_plus="0")
        assert main(["decay", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no decay to fit on [2, ")
        assert err.count("\n") == 1

    def test_decay_zero_unstable_seed_writes_nothing(self, tmp_path, capsys):
        # the stable side fits, the unstable one has no decay: exit 2 with
        # one error line, and no half result set in the out directory
        cfg = write_cfg(tmp_path, T_list="3", seed_minus="0")
        out = tmp_path / "out"
        assert main(["decay", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: no decay to fit on [-")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not list(out.glob("decay_*"))

    def test_decay_shooting_failure_exits_2(self, tmp_path, capsys,
                                            monkeypatch):
        # the quartic model's unstable half from seed 2 fails to shoot: a
        # contraction failure, exit 2 with one error line and no decay file;
        # the failing shoot stops at its first Newton step (the damped
        # reference makes 50 factors there)
        (tmp_path / "quartic.cfg").write_text(
            "dim = 2\nindex = 1\neig = 1,-1\nnonlinearity = %s\n"
            % TEXT_QUARTIC)
        (tmp_path / "decay.cfg").write_text(
            "model = quartic.cfg\nT_list = 3\nh = 0.02\nseed_minus = 2.0\n")
        unstable_factors = []
        lu = invariant_manifolds.FlowLU

        def counting(grid, *rest):
            if grid.nodes[-1] == 0.0:
                unstable_factors.append(grid)
            return lu(grid, *rest)

        monkeypatch.setattr(invariant_manifolds, "FlowLU", counting)
        out = tmp_path / "out"
        assert main(["decay", "--config", str(tmp_path / "decay.cfg"),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unstable half from seed "
                                       "[2.0]: Newton step did not reduce")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not list(out.glob("decay_*"))
        assert 1 <= len(unstable_factors) <= 2

    def test_constants_overflowing_bound_exits_1(self, tmp_path, capsys):
        # the certified deviation slope overflows, so no radius is admissible:
        # a config error, one error line and no traceback
        (tmp_path / "huge.cfg").write_text(
            "dim = 2\nindex = 1\neig = 1,-1\nnonlinearity = 1e200*x1^2*x2\n")
        cfg = write_cfg(tmp_path, model="huge.cfg")
        out = tmp_path / "out"
        assert main(["constants", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: model constants: no positive "
                                "admissible radius (degenerate scale)\n")
        assert captured.out == ""
        assert not out.exists()

    def test_constants_of_a_degree_171_model(self, tmp_path, capsys):
        # 171! overflows a float, the slope read off the coefficient does not
        (tmp_path / "high.cfg").write_text(
            "dim = 2\nindex = 1\neig = 1,-1\nnonlinearity = x1^170*x2\n")
        cfg = write_cfg(tmp_path, model="high.cfg")
        out = tmp_path / "out"
        assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "constants.csv").exists()

    @pytest.mark.parametrize("model", ["e1", "c1"])
    def test_constants_byte_identical_across_seeds(self, tmp_path, capsys,
                                                   model):
        # neither the constants nor the measured norms use an rng
        cfg = write_cfg(tmp_path, T_list="3,4", model=model)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out, seed in ((out1, "1"), (out2, "2")):
            assert main(["constants", "--config", cfg, "--out", out,
                         "--seed", seed]) == 0
        a = open(os.path.join(out1, "constants.csv"), "rb").read()
        b = open(os.path.join(out2, "constants.csv"), "rb").read()
        assert a == b

    def test_verify_passes_and_is_deterministic(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, T_list="3")
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["verify", "--config", cfg, "--out", out1]) == 0
        assert main(["verify", "--config", cfg, "--out", out2]) == 0
        a = open(os.path.join(out1, "verify_report.txt"), "rb").read()
        b = open(os.path.join(out2, "verify_report.txt"), "rb").read()
        assert a == b

    def test_verify_report_columns(self, tmp_path, capsys):
        # a ">=" row prints its measured value under "measured" and its
        # floor under "bound"; the norm rows name what they measure
        cfg = write_cfg(tmp_path, T_list="3")
        out = str(tmp_path / "out")
        assert main(["verify", "--config", cfg, "--out", out]) == 0
        rows = {}
        for line in open(os.path.join(out, "verify_report.txt"),
                         "rb").read().decode().split("\r\n")[:-2]:
            name, rest = line.split(" measured ")
            measured, bound, verdict = rest.replace("bound", "").split()
            rows[name.strip()] = (float(measured), float(bound), verdict)
        assert all(v == "PASS" for _, _, v in rows.values())
        rate, floor, _ = rows["C1 stable-trajectory decay rate >= 0.9 sigma"]
        assert rate == pytest.approx(0.99993, abs=1e-5)
        assert floor == pytest.approx(0.9)
        gmin, floor, _ = rows["E1 gamma min singular value >= sqrt(1-e^-12)"]
        assert gmin == pytest.approx(np.sqrt(1.0 - np.exp(-12.0)), abs=1e-12)
        assert floor == pytest.approx(gmin - 1e-9, abs=1e-12)
        pi, d, _ = rows["C1 projection norm (exact) <= d (1+5h)"]
        q, c, _ = rows["C1 Duhamel Q norm (Lanczos, lower bound) <= c (1+5h)"]
        assert 1.0 < pi < d and 1.0 < q < c

    def test_glue_wrong_seed_dimension_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, seed_plus="0.3,0.1")
        assert main(["glue", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed_plus") and err.count("\n") == 1

    def test_bad_usage_exits_nonzero(self, capsys):
        assert main(["frobnicate", "--config", "x"]) == 1

    @pytest.mark.parametrize("index,eig,seeds,side", [
        ("0", "2,1", {"seed_plus": "0.3,0.3", "seed_minus": ""}, "stable"),
        ("2", "-1,-2", {"seed_plus": "", "seed_minus": "0.3,0.3"},
         "unstable"),
    ])
    def test_one_sided_model(self, tmp_path, capsys, index, eig, seeds,
                             side):
        # the side without directions takes an empty seed list
        (tmp_path / "mdl.cfg").write_text(
            "dim = 2\nindex = %s\neig = %s\n" % (index, eig))
        cfg = write_cfg(tmp_path, model="mdl.cfg", T_list="3", **seeds)
        for command in ("constants", "glue", "converge", "tangent", "decay"):
            assert main([command, "--config", cfg,
                         "--out", str(tmp_path / command)]) == 0
        # decay shoots and fits only the side with seeds, whose rate has
        # the size of the slower eigenvalue
        out = tmp_path / "decay"
        assert sorted(os.listdir(out)) == ["decay_%s.%s" % (side, ext)
                                           for ext in ("csv", "json")]
        rep = json.loads((out / ("decay_%s.json" % side)).read_text())
        assert abs(rep["decay_rate"]) == pytest.approx(1.0, abs=1e-3)
        assert capsys.readouterr().out.splitlines()[-1].startswith(side)


class TestCoarseGrid:
    """A grid [-T, T] of fewer than 9 nodes is a config error: exit 1 with
    one error line and no output file, not a traceback from Grid."""

    @pytest.mark.parametrize("command", ["glue", "constants", "verify",
                                         "converge", "tangent", "decay"])
    def test_h_1_t_3_exits_1(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, h="1", T_list="3")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: T = 3.0 at h = 1.0: 7 nodes on [-3, 3], fewer than 9\n")
        assert not out.exists()

    def test_nine_nodes_accepted(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, h="1", T_list="4"))
        assert cfg.T_list == [4.0]

    @pytest.mark.parametrize("command,what", [
        # the check matrix builds its bundles on [-3, 3]
        ("verify", "verify's T = 3.0"),
        # with no C_decay and one T, converge fits the prefactor over
        # T = 3, 5, 7
        ("converge", "T = 3.0 of the C_decay fit"),
    ])
    def test_command_checks_its_own_grids(self, tmp_path, capsys, command,
                                          what):
        # T_list = 4 passes at h = 1, but [-3, 3] has 7 nodes
        cfg = write_cfg(tmp_path, h="1", T_list="4")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: %s at h = 1.0: 7 nodes on [-3, 3], fewer than 9\n"
            % what)
        assert not out.exists()


class TestTinyStep:
    """An h whose reciprocal overflows has no grid: exit 1 with one error
    line and no output file, not an OverflowError from grid_unit."""

    def test_h_1e_320_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, h="1e-320")
        with pytest.raises(ValueError, match="1/h is not finite"):
            load_config(cfg)
        out = tmp_path / "out"
        assert main(["constants", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: 1/h is not finite for h = 1e-320\n")
        assert not out.exists()


def recorded_lengths(monkeypatch, module):
    """The list that collects the S of each shoot_stable call made through
    module, which still shoots."""
    seen = []
    shoot = invariant_manifolds.shoot_stable

    def recording(model, seed, S, **kwargs):
        seen.append(S)
        return shoot(model, seed, S, **kwargs)

    monkeypatch.setattr(module, "shoot_stable", recording)
    return seen


class TestRunRules:
    """Each rule of a gluing run has one definition that every site reads:
    the half-trajectory length, the shortest gluing length and the decay
    rate epsilon."""

    def test_half_trajectory_length(self):
        assert half_trajectory_length(4.0) == 14.0

    def test_config_default_s(self, tmp_path, capsys, monkeypatch):
        seen = recorded_lengths(monkeypatch, harness)
        assert main(["glue", "--config", write_cfg(tmp_path, T_list="3,4"),
                     "--out", str(tmp_path / "out")]) == 0
        assert seen == [half_trajectory_length(4.0)]

    def test_shoot_halves_and_sweeps(self, c1, cc, monkeypatch):
        seen = recorded_lengths(monkeypatch, gluing)
        shoot_halves(LinearTheory(c1, 4.0, 0.02, cc), [0.3], [0.3])
        convergence_sweep(c1, quintic_cutoff(), ([0.3], [0.3]), [3.0, 4.0],
                          constants=cc)
        tangent_convergence_sweep(c1, quintic_cutoff(), ([0.3], [0.3]),
                                  ([1.0], [1.0]), [3.0, 4.0], constants=cc)
        assert seen == [half_trajectory_length(4.0)] * 3

    def test_t_just_below_min_gluing_t_rejected(self, tmp_path, c1):
        T = MIN_GLUING_T - 0.02
        with pytest.raises(ConfigError, match="min >= 3"):
            load_config(write_cfg(tmp_path, T_list="%r,4" % T))
        wp = invariant_manifolds.shoot_stable(c1, [0.3], 12.0)
        wm = invariant_manifolds.shoot_unstable(c1, [0.3], 12.0)
        with pytest.raises(ValueError, match="need T >= 3"):
            preglue(quintic_cutoff(), wp, wm, T)

    def test_model_file_epsilon_sets_ev_bound_rate(self, tmp_path, capsys):
        model = "dim = 2\nindex = 1\neig = 1,-1\nnonlinearity = 0.1*x1^2*x2\n"
        runs = {}
        for name, extra in (("default", ""), ("eps", "epsilon = 0.5\n")):
            (tmp_path / (name + ".mdl")).write_text(model + extra)
            cfg = write_cfg(tmp_path, name=name + ".cfg",
                            model=name + ".mdl", T_list="3,4")
            out = tmp_path / name
            assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
            runs[name] = [row.split(",") for row in (out / "converge.csv")
                          .read_bytes().decode().split("\r\n")[1:-1]]
        # every column but ev_bound keeps its bytes
        assert [r[:-1] for r in runs["eps"]] == \
            [r[:-1] for r in runs["default"]]
        for name, rate in (("default", 0.9), ("eps", 0.5)):
            b3, b4 = (float(r[-1]) for r in runs[name])
            assert b4 / b3 == pytest.approx(np.exp(-rate), rel=1e-12)
