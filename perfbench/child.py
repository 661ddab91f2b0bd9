"""One cuspwind CLI process, started by perfbench/run.py.

    python3 child.py run   OUT.json -- CLI ARGS...   CLI run, set-up timed
    python3 child.py trace OUT.json -- CLI ARGS...   CLI run with spans

Both enter through cuspwind.cli.main and exit with its code.

`run` times the set-up the CLI does itself: the calls it makes to
`build_group` and `fuchsian_system`.  It records those calls, and after the
CLI returns it makes the same calls again, with the results of earlier
calls passed on as the CLI passed them, until the replays have taken
REPLAY_S (at least one, at most MAX_REPLAYS).  OUT.json gets the time at
which the CLI returned, its peak RSS at that point, one set-up time per
pass (the CLI's own first; none if no set-up call was made) and the size of
the main system.

`trace` wraps the public entry point of each layer under the name its
caller looks up, keeps the spans (name, start, end, parent) in memory and
writes them, with the time at which the CLI returned, to OUT.json.

A name that no longer exists is listed as missing instead of wrapped, so
the benchmark keeps working while the program is refactored.
"""

import json
import resource
import sys
import time

REPLAY_S = 2.0
MAX_REPLAYS = 20


class SetupClock:
    """Times and records the outermost set-up calls of one CLI run."""

    def __init__(self):
        self.calls = []  # (function, args, kwargs); Ref(k) marks call k's result
        self.outs = []   # results, held only until the CLI returns
        self.seconds = 0.0
        self.depth = 0
        self.sizes = {}
        self.missing = []

    def wrap(self, module, attr):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append("%s.%s" % (module.__name__, attr))
            return

        def wrapper(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            self.depth += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self.depth -= 1
            self.calls.append((fn, [self.ref(a) for a in args],
                               {k: self.ref(v) for k, v in kwargs.items()}))
            self.outs.append(out)
            if not kwargs.get("restricted") and hasattr(out, "n_edges"):
                self.sizes.setdefault("n_keys", getattr(out, "n_keys", None))
                self.sizes.setdefault("n_edges", out.n_edges)
            return out

        setattr(module, attr, wrapper)

    def ref(self, value):
        for k, out in enumerate(self.outs):
            if value is out:
                return Ref(k)
        return value

    def replay(self):
        """Make the recorded calls once more; returns their time."""
        made = []

        def get(v):
            return made[v.k] if isinstance(v, Ref) else v

        start = time.perf_counter()
        for fn, args, kwargs in self.calls:
            made.append(fn(*map(get, args),
                           **{k: get(v) for k, v in kwargs.items()}))
        return time.perf_counter() - start


class Ref:
    def __init__(self, k):
        self.k = k


def install_setup_clock(clock):
    from cuspwind import cli, induced

    clock.wrap(cli, "build_group")
    clock.wrap(cli, "fuchsian_system")
    # gdms.delta_c and gdms.delta import this name lazily from the module
    clock.wrap(induced, "fuchsian_system")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.wrapped = set()
        self.missing = []

    def wrap(self, module, attr, name, info=None):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append("%s.%s" % (module.__name__, attr))
            return

        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self.stack[-1] if self.stack else None}
            self.spans.append(span)
            self.stack.append(span["id"])
            out = None
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                if info is not None:  # out is None if fn raised
                    span.update(info(args, kwargs, out))

        setattr(module, attr, wrapper)
        self.wrapped.add(name)


def _solve_info(args, kwargs, out):
    beta = kwargs.get("beta", args[1] if len(args) > 1 else None)
    return {"beta": float(beta),
            "delta_c": kwargs.get("tail", True) is False,
            "t": float(getattr(out, "t", float("nan")))}


def _system_info(args, kwargs, out):
    return {"restricted": bool(kwargs.get("restricted", False)),
            "n_keys": getattr(out, "n_keys", None),
            "n_edges": getattr(out, "n_edges", None)}


def install_tracer(tracer):
    from cuspwind import cli, gdms, induced
    import cuspwind.spectrum as spectrum_mod

    tracer.wrap(cli, "build_group", "fuchsian.build_group")
    tracer.wrap(cli, "fuchsian_system", "induced.fuchsian_system", _system_info)
    # gdms.delta_c and gdms.delta import this name lazily from the module
    tracer.wrap(induced, "fuchsian_system", "induced.fuchsian_system",
                _system_info)
    tracer.wrap(gdms, "pressure", "gdms.pressure")
    tracer.wrap(gdms, "free_energy", "gdms.free_energy", _solve_info)
    tracer.wrap(gdms, "free_energy_curve", "gdms.free_energy_curve")
    tracer.wrap(gdms, "delta_c", "gdms.delta_c")
    tracer.wrap(spectrum_mod, "spectrum", "spectrum.spectrum")
    tracer.wrap(cli, "poincare_divergence_probe",
                "coding.poincare_divergence_probe")
    tracer.wrap(cli, "emit_figure", "figures.emit_figure")
    for writer in ("write_result", "write_json", "write_csv"):
        tracer.wrap(cli, writer, "cli.write")


def main(argv):
    mode, out_path, sep, cli_argv = argv[0], argv[1], argv[2], argv[3:]
    if mode not in ("run", "trace") or sep != "--":
        raise SystemExit(__doc__)
    from cuspwind import cli

    clock = tracer = None
    if mode == "run":
        clock = SetupClock()
        install_setup_clock(clock)
    else:
        tracer = Tracer()
        install_tracer(tracer)
    rc = 1
    try:
        rc = cli.main(cli_argv)
    finally:
        if tracer is not None:
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump({"rc": rc, "cli_end": time.monotonic(),
                           "spans": tracer.spans,
                           "wrapped": sorted(tracer.wrapped),
                           "missing": tracer.missing}, fh)
    if clock is not None and rc == 0:
        # time.monotonic is the clock of the parent's start time
        payload = {"cli_end": time.monotonic(),
                   "rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "setup_s": [clock.seconds] if clock.calls else [],
                   "missing": clock.missing,
                   **clock.sizes}
        clock.outs.clear()
        spent = 0.0
        while clock.calls and (len(payload["setup_s"]) < 2 or (
                spent < REPLAY_S and len(payload["setup_s"]) <= MAX_REPLAYS)):
            payload["setup_s"].append(clock.replay())
            spent += payload["setup_s"][-1]
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
