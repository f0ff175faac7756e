"""Benchmark of mglue: four workloads, end-to-end and per-layer metrics.

One workload in this process::

    python3 perfbench/run.py --workload glue --seed 1 --seconds 24 --trace 0

prints every end-to-end metric by name with its unit, checks every request's
outputs against the repository's acceptance bounds, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1``
the public functions of each mglue module are wrapped from outside the
package (see layer_trace.py) and the JSON line carries the per-layer metrics
instead; the spans go to ``perfbench/.work/``.

All four workloads, each in its own process, untraced and then traced::

    python3 perfbench/run.py --seed 1 --seconds 24

prints each workload's metrics, compares the traced run's output digest with
the untraced one and states the tracing overhead.  Both forms exit non-zero
when an output check fails.

The load is a closed loop with one caller: the next request starts when the
previous one has returned.  mglue is a batch toolkit, so there is no arrival
rate.  The package is imported from ``src/`` next to this directory; BLAS
threads are capped at the number of usable cores and ``MGLUE_THREADS`` is
removed, so the harness runs one worker.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
WORKLOAD_NAMES = ("glue", "sweep", "certificate", "norms")

# (name, unit, better); bounds live in BENCHMARK.json.
E2E_METRICS = (
    ("throughput_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("cpu_per_request_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing package, spec mismatch)."""


def _cap_threads():
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    os.environ.pop("MGLUE_THREADS", None)


def _import_package():
    """Import mglue from this checkout's src/ and the benchmark modules that
    depend on it; the BLAS caps must be set before numpy loads."""
    _cap_threads()
    if not os.path.isdir(os.path.join(SRC, "mglue")):
        raise BenchError("no mglue package under %s" % SRC)
    sys.path.insert(0, SRC)
    import mglue
    where = os.path.realpath(os.path.dirname(mglue.__file__))
    if where != os.path.realpath(os.path.join(SRC, "mglue")):
        raise BenchError("mglue imported from %s, not from %s" % (where, SRC))
    import layer_trace
    import workloads
    return layer_trace, workloads


def _check_spec(layer_metrics):
    """The metric names, units and directions in BENCHMARK.json must be the
    ones this code reports."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    for key, ours in (("end_to_end", E2E_METRICS),
                      ("per_layer", layer_metrics)):
        theirs = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if sorted(theirs) != sorted(ours):
            raise BenchError("BENCHMARK.json %s does not match the metrics "
                             "run.py reports" % key)
    names = sorted(w["name"] for w in spec["workloads"])
    if names != sorted(WORKLOAD_NAMES):
        raise BenchError("BENCHMARK.json workloads do not match run.py")


def _environment():
    import numpy
    import scipy
    import sympy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas["name"], blas["version"])
    except (AttributeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = {"nproc": NPROC, "cpu": cpu, "python": sys.version.split()[0],
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "sympy": sympy.__version__, "blas": blas,
           "MGLUE_THREADS": os.environ.get("MGLUE_THREADS")}
    env.update({var: os.environ.get(var) for var in THREAD_VARS})
    return env


def _setup_probes(workload, seed):
    """Set-up time of fresh processes: from spawning the interpreter to the
    moment the first request could start (imports, the lambdified c1 model,
    compute_constants, generated inputs and configs)."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            cwd=ROOT, check=False)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
            raise BenchError("set-up probe failed: %s" % proc.stderr.strip())
        times.append(float(lines[1]) - start)
    return times


def run_workload(args):
    """One workload in this process.  Returns the exit code."""
    layer_trace, workloads = _import_package()
    _check_spec(layer_trace.LAYER_METRICS)
    tracer = None
    if args.trace:
        tracer = layer_trace.Tracer()
        try:
            tracer.install()
        except layer_trace.TraceError as exc:
            raise BenchError(str(exc)) from exc
    scratch = os.path.join(WORKDIR, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(scratch)
    try:
        wl = workloads.WORKLOADS[args.workload](scratch)
        if args.setup_probe:
            print("ready %r" % time.perf_counter())
            return 0
        return _timed_run(args, wl, workloads, layer_trace, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _timed_run(args, wl, workloads, layer_trace, tracer):
    latencies, digests, labels, failures = [], [], [], []
    if tracer is not None:
        tracer.start_timed()
    cpu0 = time.process_time()
    t0 = block_start = time.perf_counter()
    block = 0
    while True:
        for inp in wl.block(args.seed, block):
            index = len(latencies)
            labels.append(wl.label(inp))
            if tracer is not None:
                tracer.request = index
            start = time.perf_counter()
            try:
                out = wl.request(inp)
            except workloads.REQUEST_ERRORS as exc:
                out, bad = None, ["%s: %s" % (type(exc).__name__, exc)]
            latencies.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.request = None
            if out is not None:
                bad = wl.check(out)
                digests.append(workloads.request_digest(wl.digest(inp, out)))
            else:
                digests.append("error")
            if bad:
                failures.append({"request": index, "input": inp, "why": bad})
        block += 1
        # stop at the block boundary nearest to the requested run length
        now = time.perf_counter()
        if now - t0 + 0.5 * (now - block_start) >= args.seconds:
            break
        block_start = now
    wall = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    n = len(latencies)
    passed = n - len(failures)
    lat_ms = sorted(1e3 * v for v in latencies)
    p90 = statistics.quantiles(lat_ms, n=10)[-1] if n >= 2 else None
    above_p90 = sum(v > p90 for v in lat_ms) if p90 is not None else 0
    e2e = {
        "throughput_per_s": passed / wall,
        "latency_p50_ms": statistics.median(lat_ms),
        "cpu_per_request_ms": 1e3 * cpu_s / n,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "requests": n, "failed": len(failures),
        "failed_frac": len(failures) / n,
        "wall_s": wall, "blocks": block,
        "latency_p90_ms": p90 if above_p90 >= 10 else None,
        "samples_above_p90": above_p90,
        "digest": workloads.request_digest("".join(digests).encode()),
        "request_digests": [d[:16] for d in digests],
        "failures": failures[:5],
        "env": _environment(),
    }
    detail.update(e2e)

    correct = not failures
    if tracer is None:
        probes = _setup_probes(args.workload, args.seed)
        e2e["setup_s"] = statistics.median(probes)
        detail["setup_probes_s"] = probes
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit, _ in E2E_METRICS}
    else:
        values, stats, derived = tracer.layer_metrics(n)
        missing = [name for name in wl.reaches
                   if stats.get(name, {}).get("calls", 0) == 0]
        if missing:
            correct = False
            detail["unreached_layers"] = missing
        detail["derived"] = derived
        detail["aliases"] = tracer.aliases
        detail["busy_by_label"] = tracer.busy_by_label(labels)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layer_trace.LAYER_METRICS}
        spans_path = os.path.join(WORKDIR, "spans-%s-seed%d.jsonl"
                                  % (args.workload, args.seed))
        tracer.write(spans_path)
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)

    _print_human(detail, metrics)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": n,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


def _print_human(detail, metrics):
    print("workload %s  seed %d  trace %d  (%d requests in %d blocks, "
          "%.2f s timed)" % (detail["workload"], detail["seed"],
                             detail["trace"], detail["requests"],
                             detail["blocks"], detail["wall_s"]))
    print("env " + json.dumps(detail["env"], sort_keys=True))
    for name, m in metrics.items():
        print("  %-45s %14.6g %s" % (name, m["value"], m["unit"]))
    n = detail["requests"]
    if detail["trace"]:
        print("  throughput while traced %.6g 1/s"
              % detail["throughput_per_s"])
    else:
        print("  latency_p50_ms over n = %d samples" % n)
        if detail["latency_p90_ms"] is not None:
            print("  %-45s %14.6g ms (n = %d, %d above)"
                  % ("latency_p90_ms", detail["latency_p90_ms"], n,
                     detail["samples_above_p90"]))
        else:
            print("  latency_p90_ms: not defined (n = %d, %d samples above "
                  "p90, needs 10)" % (n, detail["samples_above_p90"]))
    print("  %-45s %14.6g (%d of %d)" % ("failed_frac", detail["failed_frac"],
                                         detail["failed"], n))
    derived = detail.get("derived")
    if derived:
        if derived["shoot_share_of_map"] is not None:
            print("  shooting share of a certificate map evaluation %.4f"
                  % derived["shoot_share_of_map"])
        print("  diff_matrix calls by calling span "
              + json.dumps(derived["diff_matrix_by_parent"], sort_keys=True))
    print("  output digest %s" % detail["digest"])
    for f in detail["failures"]:
        print("  FAILED request %d %r: %s" % (f["request"], f["input"],
                                             "; ".join(f["why"])))
    for name in detail.get("unreached_layers", ()):
        print("  FAILED: traced layer %s recorded no calls" % name)


# ---------------------------------------------------------------------------
# all workloads, untraced and traced, each in its own process

def _child(workload, seed, seconds, traced):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", "1" if traced else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.splitlines()
    detail = next((json.loads(line[len("detail "):]) for line in lines
                   if line.startswith("detail ")), None)
    result = json.loads(lines[-1]) if lines and detail is not None else None
    return proc, detail, result


def run_all(args):
    ok = True
    env_shown = False
    for name in WORKLOAD_NAMES:
        plain, d0, r0 = _child(name, args.seed, args.seconds, False)
        traced, d1, r1 = _child(name, args.seed, args.seconds, True)
        if d0 is None or d1 is None:
            for proc in (plain, traced):
                sys.stdout.write(proc.stdout)
                sys.stderr.write(proc.stderr)
            print("%s: a run failed to report (exit %d / %d)"
                  % (name, plain.returncode, traced.returncode))
            ok = False
            continue
        if not env_shown:
            print("env " + json.dumps(d0["env"], sort_keys=True))
            env_shown = True
        print("== %s  (seed %d, %d requests untraced, %d traced)"
              % (name, args.seed, d0["requests"], d1["requests"]))
        for metric, m in r0["metrics"].items():
            print("  %-24s %14.6g %s" % (metric, m["value"], m["unit"]))
        if d0["latency_p90_ms"] is not None:
            print("  %-24s %14.6g ms (%d samples above)"
                  % ("latency_p90_ms", d0["latency_p90_ms"],
                     d0["samples_above_p90"]))
        else:
            print("  %-24s %14s (%d samples above p90 of %d, needs 10)"
                  % ("latency_p90_ms", "not defined",
                     d0["samples_above_p90"], d0["requests"]))
        print("  %-24s %14.6g" % ("failed_frac", d0["failed_frac"]))
        common = min(d0["requests"], d1["requests"])
        same = d0["request_digests"][:common] == d1["request_digests"][:common]
        print("  traced digest %s untraced over the first %d requests"
              % ("equals" if same else "DIFFERS FROM", common))
        print("  tracing overhead: traced/untraced throughput = %.4f"
              % (d1["throughput_per_s"] / d0["throughput_per_s"]))
        for proc, d, r in ((plain, d0, r0), (traced, d1, r1)):
            if proc.returncode != 0 or not r["correct"]:
                print("  FAILED (trace %d, exit %d): %s"
                      % (d["trace"], proc.returncode,
                         json.dumps(d["failures"] or
                                    d.get("unreached_layers"))))
                ok = False
        ok = ok and same
    print("overall: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            return run_all(args)
        return run_workload(args)
    except (BenchError, ImportError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
