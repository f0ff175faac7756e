"""The import path of every run stays light: no run imports sympy, not
even one that reads a model file's polynomial, which morse_model parses
itself.  scipy.interpolate has no user under src/ (half trajectories are
aligned with the gluing grid by index, never resampled).  The guards stay so
that neither comes back unnoticed.  Each case runs in a fresh interpreter,
because this test session may have imported both already."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
HEAVY = ("sympy", "scipy.interpolate")

SCRIPT = """
import json, sys
import mglue.harness, mglue.gluing
code = mglue.harness.main(["constants", "--config", sys.argv[1],
                           "--out", sys.argv[2]])
print(json.dumps([code, [m for m in %r if m in sys.modules]]))
""" % (HEAVY,)


def run_constants(tmp_path, model):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("model = %s\nT_list = 3\nh = 0.02\nseed = 11\n" % model)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        check=False)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert (tmp_path / "out" / "constants.csv").exists()
    return loaded


@pytest.mark.parametrize("model", ["c1", "e1"])
def test_builtin_models_import_neither_sympy_nor_interpolate(tmp_path,
                                                             model):
    assert run_constants(tmp_path, model) == []


@pytest.mark.parametrize("nonlinearity", [
    "nonlinearity = 0.1*x1^2*x2\n",
    "",                           # no polynomial to read
])
def test_model_file_imports_neither_sympy_nor_interpolate(tmp_path,
                                                          nonlinearity):
    (tmp_path / "mdl.cfg").write_text(
        "dim = 2\nindex = 1\neig = 1,-1\n" + nonlinearity)
    assert run_constants(tmp_path, "mdl.cfg") == []
