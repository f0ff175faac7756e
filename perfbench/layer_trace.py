"""Call tracing for the benchmark's traced runs.

The tracer wraps the public functions of each mglue module from outside the
package: nothing under src/ knows about it.  A module-level function is
replaced in its defining module and in every mglue module that bound the name
with ``from ... import`` (and in module-level dicts such as the harness
command table), so calls through any alias are seen.  ``MorseModel.grad`` and
``MorseModel.dgrad_tensor`` run once per grid node, hundreds of thousands of
times per run; they get count-only wrappers that read no clock, because a
timed wrapper there distorts the time shares of everything around it.

Spans are kept in memory, each with its parent span and the index of the
request it belongs to (None during set-up), and written out when the run ends.
"""

import functools
import importlib
import json
import time
from collections import defaultdict

MODULES = ("path_space", "morse_model", "invariant_manifolds",
           "linear_theory", "newton_picard", "gluing", "harness")

# (module, attribute, span name, stat read from the return value).  Several
# attributes may share one span name: the two shooting directions are one
# layer operation.
FUNCTION_SPANS = (
    ("path_space", "diff_matrix", "path_space.diff_matrix", None),
    ("path_space", "differentiate", "path_space.differentiate", None),
    ("path_space", "norms", "path_space.norms", None),
    ("morse_model", "compute_constants", "morse_model.compute_constants",
     None),
    ("invariant_manifolds", "shoot_stable", "invariant_manifolds.shoot", None),
    ("invariant_manifolds", "shoot_unstable", "invariant_manifolds.shoot",
     None),
    ("invariant_manifolds", "solve_tangent_lift",
     "invariant_manifolds.solve_tangent_lift", None),
    ("linear_theory", "apply_Q_exact", "linear_theory.apply_Q_exact", None),
    ("linear_theory", "apply_Q", "linear_theory.apply_Q", None),
    ("linear_theory", "apply_D", "linear_theory.apply_D", None),
    ("linear_theory", "q_matrix", "linear_theory.q_matrix", None),
    ("linear_theory", "projection_matrix", "linear_theory.projection_matrix",
     None),
    ("linear_theory", "measured_opnorm", "linear_theory.measured_opnorm",
     None),
    ("linear_theory", "measured_q_norm", "linear_theory.measured_q_norm",
     None),
    ("linear_theory", "measured_projection_norm",
     "linear_theory.measured_projection_norm", None),
    ("newton_picard", "np_solve", "newton_picard.np_solve",
     lambda res: res.iterations),
    ("newton_picard", "np_tangent_solve", "newton_picard.np_tangent_solve",
     lambda out: out[1].iterations),
    ("newton_picard", "ift_certificate", "newton_picard.ift_certificate",
     None),
    ("gluing", "apply_F", "gluing.apply_F", None),
    ("gluing", "preglue", "gluing.preglue", None),
    ("gluing", "glue", "gluing.glue", None),
    ("gluing", "theta_defect_norm", "gluing.theta_defect_norm", None),
    ("harness", "main", "harness.main", None),
    ("harness", "cmd_constants", "harness.cmd_constants", None),
    ("harness", "write_csv", "harness.write_csv", None),
)

# The map returned by this factory is the certificate's gluing-map
# evaluation; each call becomes a span of this name.
MAP_FACTORY = ("gluing", "glue_coordinate_rep")
MAP_SPAN = "gluing.coordinate_map"

# (module, class, method, span name); None as span name means count-only.
METHOD_WRAPPERS = (
    ("linear_theory", "LinearTheory", "__init__",
     "linear_theory.LinearTheory"),
    ("morse_model", "MorseModel", "grad", None),
    ("morse_model", "MorseModel", "dgrad_tensor", None),
)

# Per-layer metrics of a traced run, per request of the timed window unless
# the unit says otherwise: (name, unit, better).
LAYER_METRICS = (
    ("path_space.diff_matrix.calls", "calls/req", "lower"),
    ("path_space.diff_matrix.busy_s", "s/req", "lower"),
    ("path_space.differentiate.calls", "calls/req", "lower"),
    ("path_space.norms.busy_s", "s/req", "lower"),
    ("morse_model.MorseModel.grad.calls", "calls/req", "lower"),
    ("morse_model.MorseModel.dgrad_tensor.calls", "calls/req", "lower"),
    ("morse_model.compute_constants.busy_s", "s/req", "lower"),
    ("morse_model.compute_constants.setup_busy_s", "s", "lower"),
    ("invariant_manifolds.shoot.calls", "calls/req", "lower"),
    ("invariant_manifolds.shoot.busy_s", "s/req", "lower"),
    ("invariant_manifolds.shoot.self_s", "s/req", "lower"),
    ("invariant_manifolds.shoot.errors", "errors/req", "lower"),
    ("invariant_manifolds.solve_tangent_lift.calls", "calls/req", "lower"),
    ("invariant_manifolds.solve_tangent_lift.busy_s", "s/req", "lower"),
    ("linear_theory.LinearTheory.calls", "calls/req", "lower"),
    ("linear_theory.apply_Q_exact.calls", "calls/req", "lower"),
    ("linear_theory.apply_Q_exact.busy_s", "s/req", "lower"),
    ("linear_theory.apply_Q.calls", "calls/req", "lower"),
    ("linear_theory.apply_Q.busy_s", "s/req", "lower"),
    ("linear_theory.apply_D.busy_s", "s/req", "lower"),
    ("linear_theory.q_matrix.busy_s", "s/req", "lower"),
    ("linear_theory.projection_matrix.busy_s", "s/req", "lower"),
    ("linear_theory.measured_opnorm.calls", "calls/req", "lower"),
    ("linear_theory.measured_opnorm.busy_s", "s/req", "lower"),
    ("newton_picard.np_solve.calls", "calls/req", "lower"),
    ("newton_picard.np_solve.busy_s", "s/req", "lower"),
    ("newton_picard.np_solve.self_s", "s/req", "lower"),
    ("newton_picard.np_solve.errors", "errors/req", "lower"),
    ("newton_picard.np_solve.iterations", "iters/req", "lower"),
    ("newton_picard.np_tangent_solve.busy_s", "s/req", "lower"),
    ("newton_picard.np_tangent_solve.iterations", "iters/req", "lower"),
    ("newton_picard.ift_certificate.busy_s", "s/req", "lower"),
    ("newton_picard.ift_certificate.self_s", "s/req", "lower"),
    ("newton_picard.ift_certificate.map_evals", "evals/req", "lower"),
    ("gluing.coordinate_map.busy_s", "s/req", "lower"),
    ("gluing.glue.calls", "calls/req", "lower"),
    ("gluing.glue.busy_s", "s/req", "lower"),
    ("gluing.glue.self_s", "s/req", "lower"),
    ("gluing.apply_F.calls", "calls/req", "lower"),
    ("gluing.apply_F.busy_s", "s/req", "lower"),
    ("gluing.preglue.busy_s", "s/req", "lower"),
    ("gluing.theta_defect_norm.busy_s", "s/req", "lower"),
    ("harness.main.busy_s", "s/req", "lower"),
    ("harness.cmd_constants.self_s", "s/req", "lower"),
    ("harness.write_csv.busy_s", "s/req", "lower"),
)


class TraceError(RuntimeError):
    """A wrapper target is missing, or a layer a workload must reach
    recorded no calls."""


# span record fields
_ID, _PARENT, _NAME, _START, _END, _REQUEST, _FAILED, _VALUE = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None          # index of the request being timed
        self._open = []              # ids of the spans enclosing the caller
        self._counters = {}          # count-only wrappers: name -> [calls]
        self._counts_at_start = {}
        self.aliases = {}            # target -> names it was replaced under

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, stat=None):
        """fn wrapped so that each call records a span of this name; stat,
        if given, reads a number from the return value into the span."""
        spans, opened = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), opened[-1] if opened else None, name, 0.0, 0.0,
                   self.request, False, 0]
            spans.append(rec)
            opened.append(rec[_ID])
            rec[_START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[_FAILED] = True
                raise
            finally:
                rec[_END] = time.perf_counter()
                opened.pop()
            if stat is not None:
                rec[_VALUE] = stat(out)
            return out

        return wrapper

    def counted(self, name, fn):
        cell = self._counters.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target; raise TraceError if one is missing."""
        mods = {m: importlib.import_module("mglue." + m) for m in MODULES}
        targets = [(mod, attr, lambda f, n=name, s=stat: self.span(n, f, s))
                   for mod, attr, name, stat in FUNCTION_SPANS]
        targets.append((*MAP_FACTORY, self._map_factory))
        for mod, attr, make in targets:
            orig = getattr(mods[mod], attr, None)
            if not callable(orig):
                raise TraceError("trace target mglue.%s.%s is missing"
                                 % (mod, attr))
            self.aliases["%s.%s" % (mod, attr)] = _rebind(
                mods.values(), orig, make(orig))
        for mod, cls_name, meth, name in METHOD_WRAPPERS:
            cls = getattr(mods[mod], cls_name, None)
            orig = getattr(cls, meth, None)
            if orig is None:
                raise TraceError("trace target mglue.%s.%s.%s is missing"
                                 % (mod, cls_name, meth))
            label = "%s.%s.%s" % (mod, cls_name, meth)
            setattr(cls, meth, self.counted(label, orig) if name is None
                    else self.span(name, orig))

    def _map_factory(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return self.span(MAP_SPAN, factory(*args, **kwargs))

        return wrapper

    # -- results -------------------------------------------------------------

    def start_timed(self):
        self._counts_at_start = {k: v[0] for k, v in self._counters.items()}

    def stats(self):
        """name -> {calls, busy_s, self_s, errors, value} over the spans of
        the timed window (totals, not per request), plus the count-only
        wrappers' calls and a few derived figures."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] is not None:
                child_s[rec[_PARENT]] += rec[_END] - rec[_START]
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                   "errors": 0, "value": 0})
        setup_busy = defaultdict(float)
        map_evals = 0
        shoot_in_map_s = 0.0
        diff_matrix_parents = defaultdict(int)
        for rec in spans:
            dur = rec[_END] - rec[_START]
            name = rec[_NAME]
            if rec[_REQUEST] is None:
                setup_busy[name] += dur
                continue
            agg = out[name]
            agg["calls"] += 1
            agg["busy_s"] += dur
            agg["self_s"] += dur - child_s[rec[_ID]]
            agg["errors"] += rec[_FAILED]
            agg["value"] += rec[_VALUE]
            parent = rec[_PARENT]
            parent_name = spans[parent][_NAME] if parent is not None else None
            if name == MAP_SPAN and self._has_ancestor(
                    rec, "newton_picard.ift_certificate"):
                map_evals += 1
            if name == "invariant_manifolds.shoot" and parent_name == MAP_SPAN:
                shoot_in_map_s += dur
            if name == "path_space.diff_matrix":
                diff_matrix_parents[parent_name or "request"] += 1
        for label, cell in self._counters.items():
            out[label]["calls"] = cell[0] - self._counts_at_start.get(label, 0)
        map_busy = out[MAP_SPAN]["busy_s"]
        derived = {
            "map_evals": map_evals,
            "shoot_share_of_map": (shoot_in_map_s / map_busy
                                   if map_busy else None),
            "diff_matrix_by_parent": dict(diff_matrix_parents),
            "setup_busy_s": dict(setup_busy),
        }
        return dict(out), derived

    def busy_by_label(self, labels):
        """Per request label, mean inclusive seconds of each span name."""
        n = defaultdict(int)
        for lab in labels:
            n[lab] += 1
        busy = defaultdict(lambda: defaultdict(float))
        for rec in self.spans:
            if rec[_REQUEST] is not None:
                busy[labels[rec[_REQUEST]]][rec[_NAME]] += (rec[_END]
                                                            - rec[_START])
        return {lab: {name: s / n[lab] for name, s in sorted(d.items())}
                for lab, d in sorted(busy.items())}

    def layer_metrics(self, n_requests):
        """The LAYER_METRICS values, per request of the timed window."""
        stats, derived = self.stats()
        values = {}
        for name, _, _ in LAYER_METRICS:
            layer, stat = name.rsplit(".", 1)
            if stat == "map_evals":
                total = derived["map_evals"]
            elif stat == "setup_busy_s":
                values[name] = derived["setup_busy_s"].get(layer, 0.0)
                continue
            elif stat == "iterations":
                total = stats.get(layer, {}).get("value", 0)
            else:
                total = stats.get(layer, {}).get(stat, 0)
            values[name] = total / n_requests
        return values, stats, derived

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(dict(zip(
                    ("id", "parent", "name", "start", "end", "request",
                     "failed", "value"), rec))) + "\n")

    def _has_ancestor(self, rec, name):
        parent = rec[_PARENT]
        while parent is not None:
            if self.spans[parent][_NAME] == name:
                return True
            parent = self.spans[parent][_PARENT]
        return False


def _rebind(modules, orig, wrapped):
    """Replace orig by wrapped wherever a module (or a module-level dict)
    holds it; return the names replaced."""
    replaced = []
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapped)
                replaced.append("%s.%s" % (short, key))
            elif isinstance(val, dict):
                for dkey, dval in list(val.items()):
                    if dval is orig:
                        val[dkey] = wrapped
                        replaced.append("%s.%s[%r]" % (short, key, dkey))
    return replaced
