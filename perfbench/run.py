"""Benchmark of the cuspwind command line: time to a checked spectrum.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it runs the CLI from the
checkout's `src/` (nothing to build) in child processes with BLAS pinned to
one thread, and checks every output.  NAME is one of WORKLOADS, or `all`
to run each in turn.  With `--trace 0` the last line of standard output is
a JSON object with the end-to-end metrics; with `--trace 1` the run also
makes one traced CLI invocation (see child.py) and reports the per-layer
metrics instead.  README.md in this directory defines every metric, why
each workload is here, and which layer metric should move which end-to-end
metric.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
RUN_BUDGET_S = 170.0  # every run must have ended after 180 s

WORKLOADS = {
    # the default grid narrowed from 33 to 5 points so that one CLI run fits
    # the run length; beta = 0 and all twelve extension betas stay
    "gamma2-spectrum": {"command": "spectrum", "preset": "gamma2-type",
                        "cap": 400, "beta_steps": 5},
    "onecusp-spectrum": {"command": "spectrum",
                         "preset": "one-cusp-one-hyperbolic",
                         "cap": 400, "beta_steps": 33},
    "gamma2-delta-cap6400": {"command": "delta", "preset": "gamma2-type",
                             "cap": 6400},
}
GAMMA2 = "gamma2-type"  # Poincare exponent exactly 1
# The one-cusp group has no known exact delta.  Its delta error is bounded
# below by half the spread of the computed delta over charts of the same
# group: the run's own chart and these conjugations (z+0.3, 4z, z/(0.4z+1)).
CHART_MAPS = ((1.0, 0.3, 0.0, 1.0), (2.0, 0.0, 0.0, 0.5), (1.0, 0.0, 0.4, 1.0))
CHILD_ENV = {"PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "VECLIB_MAXIMUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "delta_abs_err": "1"}
# per-layer metric -> (unit, the spans it is computed from)
FE, PR, SYS = "gdms.free_energy", "gdms.pressure", "induced.fuchsian_system"
PER_LAYER = {
    "fuchsian.build_group.s": ("s", ["fuchsian.build_group"]),
    "induced.fuchsian_system.s": ("s", [SYS]),
    "induced.n_keys": ("count", [SYS]),
    "induced.n_edges": ("count", [SYS]),
    "gdms.free_energy.calls": ("count", [FE]),
    "gdms.free_energy.self_s": ("s", [FE, PR]),
    "gdms.pressure.calls": ("count", [PR]),
    "gdms.pressure.s": ("s", [PR]),
    "gdms.pressure.ms_per_call": ("ms", [PR]),
    "gdms.calls_per_solve.p50": ("count", [FE, PR]),
    "gdms.calls_per_solve.max": ("count", [FE, PR]),
    "gdms.solve_s.grid": ("s", [FE]),
    "gdms.solve_s.ext": ("s", [FE]),
    "gdms.t_dev_vs_ref": ("1", [FE]),
    "spectrum.spectrum.s": ("s", ["spectrum.spectrum"]),
    "coding.poincare_divergence_probe.s":
        ("s", ["coding.poincare_divergence_probe"]),
    "figures.emit_figure.s": ("s", ["figures.emit_figure"]),
    "cli.write.s": ("s", ["cli.write"]),
    "trace.overhead_s": ("s", []),
}
EXT_BETA = 25.0  # the default grid ends at |beta| = 20, extensions start at 30


class CheckFailed(Exception):
    """A CLI output that is missing, unparsable or wrong."""


# --- inputs -----------------------------------------------------------------

def seeded_chart(seed):
    """Seeded Moebius map z -> lam * z / (c z + 1) + u, as a matrix."""
    rng = random.Random("chart-%d" % seed)
    u = rng.uniform(-0.5, 0.5)
    lam = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    c = rng.uniform(-0.5, 0.5)
    s = math.sqrt(lam)
    return {"u": u, "dilation": lam, "c": c,
            "matrix": [s + u * c / s, u / s, c / s, 1.0 / s]}


def make_inputs(name, seed, chart=False):
    """The CLI inputs of one run.  Seed 0 is the shipped setting.

    Other seeds vary what the cost should not depend on: the half-width of
    the central beta grid (in [16, 20]; beta = 0 and the extensions stay)
    or, for `delta`, the cap (6272 to 6400).  With `chart`, nonzero seeds
    also conjugate the preset by a seeded map (see README.md).
    """
    w = WORKLOADS[name]
    rng = random.Random(seed)
    inp = {"workload": name, "seed": seed, "command": w["command"],
           "preset": w["preset"], "cap": w["cap"]}
    if w["command"] == "spectrum":
        inp["beta_half_width"] = 20.0 * (1.0 - 0.2 * rng.random()) if seed \
            else 20.0
        inp["beta_steps"] = w["beta_steps"]
    elif seed:
        inp["cap"] -= 32 * rng.randrange(5)
    if chart and seed:
        inp["chart"] = seeded_chart(seed)
    return inp


def chart_config(preset, matrix, path):
    """Write `preset` conjugated by `matrix` in the CLI's config format."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from cuspwind import MobiusMap, conjugate_config, preset_config

    cfg = conjugate_config(preset_config(preset),
                           MobiusMap.from_entries(*matrix))
    lines = ['name = "%s"' % cfg["name"]]
    for gen in cfg["generators"]:
        lines.append("[generator]")
        lines += ['%s = "%s"' % (k, gen[k])
                  for k in ("label", "inverse_label", "kind")]
        lines += ["%s = [%s]" % (k, ", ".join(repr(float(v)) for v in gen[k]))
                  for k in ("matrix", "interval", "interval_inverse")]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def cli_argv(inp, run_dir):
    argv = [inp["command"]]
    if "chart" in inp:
        argv += ["--config", chart_config(
            inp["preset"], inp["chart"]["matrix"],
            os.path.join(run_dir, "chart.cfg"))]
    else:
        argv += ["--preset", inp["preset"]]
    argv += ["--cap", str(inp["cap"])]
    if inp["command"] == "spectrum":
        half = inp["beta_half_width"]
        argv += ["--beta-min=%r" % -half, "--beta-max=%r" % half,
                 "--beta-steps", str(inp["beta_steps"])]
    return argv


# --- child processes --------------------------------------------------------

def invoke(mode, argv, out_dir, deadline):
    """Run child.py once and read what it wrote.

    The wall time runs from the start of the process to the return of the
    CLI, as the child reports it, and the peak RSS is the child's at that
    point.  Without a report (the CLI failed) they run to the exit.
    """
    os.makedirs(out_dir)
    result_path = os.path.join(out_dir, "child.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, result_path,
           "--", *argv, "--out", out_dir]
    env = dict(os.environ, **CHILD_ENV)
    with open(os.path.join(out_dir, "stdout"), "wb") as out, \
            open(os.path.join(out_dir, "stderr"), "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                stderr=err)
        done = threading.Event()

        def kill():
            if not done.is_set():
                proc.kill()

        timer = threading.Timer(max(deadline - start, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            done.set()
            timer.cancel()
            timer.join()
        end = time.monotonic()
    rc = os.waitstatus_to_exitcode(status)
    r = {"rc": rc, "wall_s": end - start, "rss_mb": usage.ru_maxrss / 1024.0,
         "dir": out_dir, "child": None}
    if rc == 0:
        try:
            r["child"] = read_json(result_path)
            r["wall_s"] = r["child"]["cli_end"] - start
            r["rss_mb"] = r["child"].get("rss_mb", r["rss_mb"])
        except (CheckFailed, KeyError, TypeError) as exc:
            r["rc"], r["error"] = -1, "child report: %s" % exc
    return r


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed("%s: %s" % (path, exc)) from None


def check_spectrum(out_dir, preset):
    """Return t(0) after checking the CSV: alpha in [0, 1], max f = t(0)."""
    path = os.path.join(out_dir, "spectrum.csv")
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [ln.strip() for ln in fh if not ln.startswith("#")]
        header = rows[0].split(",")
        data = [dict(zip(header, map(float, r.split(",")))) for r in rows[1:]]
    except (OSError, IndexError, ValueError) as exc:
        raise CheckFailed("%s: %s" % (path, exc)) from None
    if not data or not all(math.isfinite(v) for r in data for v in r.values()):
        raise CheckFailed("spectrum.csv is empty or has non-finite values")
    alphas = [r["alpha"] for r in data]
    # alpha is -t'(beta); the left tail reaches 0 up to roundoff (~1e-13)
    if min(alphas) < -1e-9 or max(alphas) > 1.0 + 1e-9:
        raise CheckFailed("alpha leaves [0, 1]: %r..%r"
                          % (min(alphas), max(alphas)))
    at_zero = [r["f"] for r in data if r["beta_source"] == 0.0]
    if len(at_zero) != 1:
        raise CheckFailed("no unique beta = 0 sample")
    t0 = at_zero[0]
    if abs(max(r["f"] for r in data) - t0) > 1e-6:
        raise CheckFailed("max f differs from t(0) = %r" % t0)
    if not os.path.getsize(os.path.join(out_dir, "spectrum.svg")):
        raise CheckFailed("empty spectrum.svg")
    check_delta_value(t0, preset)
    return t0


def check_delta(out_dir, preset):
    """Return delta after checking delta.json."""
    data = read_json(os.path.join(out_dir, "delta.json")).get("data", {})
    try:
        delta, delta_c = float(data["delta"]), float(data["delta_c"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed("delta.json: %r" % exc) from None
    if not 0.0 < delta_c < delta:
        raise CheckFailed("need 0 < delta_c < delta, got %r, %r"
                          % (delta_c, delta))
    check_delta_value(delta, preset)
    return delta


def check_delta_value(delta, preset):
    # the tolerance of acceptance criterion 7
    if preset == GAMMA2 and abs(delta - 1.0) > 0.05:
        raise CheckFailed("|delta - 1| = %r > 0.05 for Gamma(2)"
                          % abs(delta - 1.0))


def cli_run(mode, argv, inp, out_dir, deadline):
    """One checked CLI invocation; `value` is t(0) = delta, or None."""
    r = invoke(mode, argv, out_dir, deadline)
    r["value"] = None
    if r["rc"] != 0:
        r.setdefault("error", "exit code %d" % r["rc"])
        return r
    check = check_spectrum if inp["command"] == "spectrum" else check_delta
    try:
        r["value"] = check(out_dir, inp["preset"])
    except CheckFailed as exc:
        r["error"] = str(exc)
    return r


# --- metrics ----------------------------------------------------------------

def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def layer_metrics(trace, reference):
    """Per-layer metrics from the spans of one traced CLI invocation."""
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def outermost(name):
        out = []
        for s in spans:
            p = s["parent"]
            while p is not None and by_id[p]["name"] != name:
                p = by_id[p]["parent"]
            if s["name"] == name and p is None:
                out.append(s)
        return out

    def total(name):
        return sum(dur(s) for s in outermost(name))

    solves = outermost(FE)
    calls = [sum(c["name"] == PR for c in children.get(s["id"], ()))
             for s in solves]
    n_press = len(outermost(PR))
    systems = [s for s in outermost(SYS) if not s.get("restricted")]
    m = {
        "fuchsian.build_group.s": total("fuchsian.build_group"),
        "induced.fuchsian_system.s": total(SYS),
        "induced.n_keys": max((s["n_keys"] for s in systems), default=None),
        "induced.n_edges": max((s["n_edges"] for s in systems), default=None),
        "gdms.free_energy.calls": len(solves),
        "gdms.free_energy.self_s": sum(
            dur(s) - sum(dur(c) for c in children.get(s["id"], ()))
            for s in solves),
        "gdms.pressure.calls": n_press,
        "gdms.pressure.s": total(PR),
        "gdms.pressure.ms_per_call":
            1e3 * total(PR) / n_press if n_press else None,
        "gdms.calls_per_solve.p50": median_or_none(calls),
        "gdms.calls_per_solve.max": max(calls, default=None),
        "gdms.solve_s.grid": sum(dur(s) for s in solves
                                 if abs(s["beta"]) < EXT_BETA),
        "gdms.solve_s.ext": sum(dur(s) for s in solves
                                if abs(s["beta"]) >= EXT_BETA),
        "gdms.t_dev_vs_ref": t_deviation(solves, reference),
        "spectrum.spectrum.s": total("spectrum.spectrum"),
        "coding.poincare_divergence_probe.s":
            total("coding.poincare_divergence_probe"),
        "figures.emit_figure.s": total("figures.emit_figure"),
        "cli.write.s": total("cli.write"),
    }
    # a layer whose entry point no longer exists reports null
    wrapped = set(trace["wrapped"])
    for key in m:
        if not wrapped.issuperset(PER_LAYER[key][1]):
            m[key] = None
    return m, solves, calls


def t_deviation(solves, reference):
    """Largest |t(beta) - stored seed-0 value| over the betas stored."""
    devs = []
    for s in solves:
        ref = reference.get("delta_c") if s["delta_c"] else \
            reference.get("t", {}).get(repr(s["beta"]))
        if ref is not None and math.isfinite(s["t"]):
            devs.append(abs(s["t"] - ref))
    return max(devs, default=None)


def environment(sizes):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    caches = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            caches[key] = int(subprocess.run(
                ["getconf", key], capture_output=True, text=True,
                check=True).stdout)
        except (OSError, ValueError, subprocess.CalledProcessError):
            caches[key] = None
    n_edges = sizes.get("n_edges")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in CHILD_ENV.items() if k != "PYTHONPATH"},
        "python": sys.version.split()[0],
        "numpy": version("numpy"), "scipy": version("scipy"),
        "cache_bytes_reported": caches,
        "working_set_computed": {
            "n_keys": sizes.get("n_keys"), "n_edges": n_edges,
            "bytes_per_edge_array": 8 * n_edges if n_edges else None},
    }


# --- one run ----------------------------------------------------------------

class Run:
    """The child processes of one benchmark run and what they returned."""

    def __init__(self, inp, run_dir):
        self.inp = inp
        self.run_dir = run_dir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.argv = cli_argv(inp, run_dir)
        self.ops = []     # every checked child process, failed ones too

    def next_dir(self):
        return os.path.join(self.run_dir, "op%03d" % len(self.ops))

    def cli(self, mode, argv=None, inp=None):
        r = cli_run(mode, argv or self.argv, inp or self.inp, self.next_dir(),
                    self.deadline)
        self.ops.append(r)
        return r

    def timed_loop(self, seconds, reserve):
        """Untraced CLI runs for about `seconds`; returns the checked ones."""
        start = time.monotonic()
        runs = []
        while True:
            step_start = time.monotonic()
            runs.append(self.cli("run"))
            now = time.monotonic()
            # stop when the next step would end past the run length by more
            # than half its duration, or leave too little for `reserve` more
            step = now - step_start
            if now - start > seconds - 0.5 * step \
                    or now + (1.0 + reserve) * 1.5 * step + 5.0 > self.deadline:
                break
        return [r for r in runs if r["value"] is not None] or runs

    def delta_err(self, t0):
        if self.inp["preset"] == GAMMA2:
            return abs(t0 - 1.0)
        deltas = [t0]
        for k, matrix in enumerate(CHART_MAPS):
            cfg = chart_config(self.inp["preset"], matrix,
                               os.path.join(self.run_dir, "chart%d.cfg" % k))
            r = self.cli("run", ["delta", "--config", cfg, "--cap",
                                 str(self.inp["cap"])],
                         {"command": "delta", "preset": self.inp["preset"]})
            deltas.append(r["value"])
        if None in deltas:
            return None
        return 0.5 * (max(deltas) - min(deltas))


def run_workload(name, seed, seconds, trace, chart=False):
    inp = make_inputs(name, seed, chart)
    run_dir = os.path.join(RUNS, "%s-seed%d-%d" % (name, seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        run = Run(inp, run_dir)
        if trace:
            timed = run.timed_loop(seconds, reserve=1)
            wall = median_or_none(r["wall_s"] for r in timed)
            metrics, sizes = traced_metrics(run, wall, seed, chart)
            units = {k: u for k, (u, _) in PER_LAYER.items()}
        else:
            timed = run.timed_loop(seconds, reserve=0)
            wall = median_or_none(r["wall_s"] for r in timed)
            t0 = median_or_none(r["value"] for r in timed)
            reports = [r["child"] for r in timed if r["child"]]
            setups = [s for c in reports for s in c["setup_s"]]
            metrics = {
                "wall_s": wall,
                "setup_s": median_or_none(setups),
                "peak_rss_mb": median_or_none(r["rss_mb"] for r in timed),
                "delta_abs_err": None if t0 is None else run.delta_err(t0),
            }
            sizes = reports[0] if reports else {}
            if sizes.get("missing"):
                print("missing " + json.dumps(sizes["missing"]))
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = run.ops
    failed = [r for r in ops if r["value"] is None]
    print("inputs " + json.dumps(inp))
    print("env " + json.dumps(environment(sizes)))
    for r in failed:
        print("failed %s: %s" % (os.path.basename(r["dir"]), r["error"]))
    print("%s: %d child runs, %d failed; wall_s is the median of n=%d"
          % (name, len(ops), len(failed), len(timed))
          + ("" if trace else ", setup_s of n=%d" % len(setups)))
    for key, value in metrics.items():
        print("  %-36s %-14s %s" % (key, "null" if value is None
                                    else "%.6g" % value, units[key]))
    print("  %-36s %-14.6g (%d/%d)" % ("failed_frac", len(failed) / len(ops),
                                       len(failed), len(ops)))
    return {"correct": not failed, "attempted": len(ops),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def traced_metrics(run, wall, seed, chart):
    """One traced CLI run; per-layer metrics, null where spans are missing."""
    name = run.inp["workload"]
    r = run.cli("trace")
    spans = r["child"]
    if spans is None:
        r["value"] = None
        return {k: None for k in PER_LAYER}, {}
    reference = {} if chart else read_json(
        os.path.join(HERE, "reference.json")).get(name, {})
    metrics, solves, calls = layer_metrics(spans, reference)
    metrics["trace.overhead_s"] = r["wall_s"] - wall
    shutil.copy(os.path.join(r["dir"], "child.json"),
                os.path.join(RUNS, "%s-seed%d-spans.json" % (name, seed)))
    print("solves [beta, delta_c, t, pressure calls, s] " + json.dumps(
        [[s["beta"], s["delta_c"], s["t"], c, s["end"] - s["start"]]
         for s, c in zip(solves, calls)]))
    if spans["missing"]:
        print("missing " + json.dumps(spans["missing"]))
    return metrics, {"n_keys": metrics["induced.n_keys"],
                     "n_edges": metrics["induced.n_edges"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--chart", action="store_true",
                   help="conjugate the preset by a seeded Moebius map; "
                        "exposes chart dependence and NoSignChange aborts")
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "cuspwind", "cli.py")):
        sys.stderr.write("no cuspwind source under %s\n" % SRC)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace),
                               args.chart) for n in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
