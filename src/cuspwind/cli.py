"""Command line: validate, code, pressure, free-energy, spectrum, delta.

Results go to CSV or JSON files whose header carries the group, cap and
timestamp; the spectrum command additionally emits a deterministic
two-panel SVG.  Exit codes: 0 success, 1 computational error or internal
fault, 2 configuration error; errors are written to stderr as a
machine-readable JSON object, never as a traceback.

Groups with a cusp at infinity work directly (the engine evaluates
boundary derivatives in a chart covering the whole circle); if a
presentation with all-finite data is preferred, conjugate it first with
cuspwind.fuchsian.conjugate_config.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

from . import gdms, spectrum as sp
from .coding import code_point, conjugacy_check, poincare_divergence_probe
from .config import (
    _SCALARS,
    ConfigError,
    RunConfig,
    config_from_preset,
    load_config,
)
from .errors import ReachedCusp
from .figures import emit_figure
from .fuchsian import build_group
from .induced import fuchsian_system, primitivity_witness
from .presets import PRESETS


def build_parser():
    """One subcommand per command, each with --config and --preset plus
    only the options it reads; any other option is an argparse error.
    Each subcommand carries its command function as ``run``."""
    p = argparse.ArgumentParser(
        prog="cuspwind",
        description="Cusp-winding multifractal spectra of free Fuchsian groups")
    sub = p.add_subparsers(dest="command", required=True)
    grid = ("cap", "beta", "out", "format")
    for name, run, helptext, options in (
        ("validate", cmd_validate,
         "run the presentation and coding invariant suite", ("seed",)),
        ("code", cmd_code, "print the block coding of a boundary point",
         ("point",)),
        ("pressure", cmd_pressure, "pressure grid over (t, beta)",
         grid + ("t",)),
        ("free-energy", cmd_free_energy, "free energy curve t(beta)", grid),
        ("spectrum", cmd_spectrum, "spectrum curve f(alpha) plus SVG figure",
         grid),
        ("delta", cmd_delta,
         "limit-set dimension delta and bounded-type delta_c",
         ("cap", "out")),
    ):
        q = sub.add_parser(name, help=helptext)
        q.set_defaults(run=run)
        q.add_argument("--config", help="path to a run configuration file")
        q.add_argument("--preset", choices=sorted(PRESETS),
                       help="built-in presentation")
        if "seed" in options:
            q.add_argument("--seed", type=int)
        if "point" in options:
            q.add_argument("--point", type=float, required=True)
            q.add_argument("--blocks", type=int, default=6)
        if "cap" in options:
            q.add_argument("--cap", type=int, help="parabolic exponent cap")
        if "beta" in options:
            q.add_argument("--beta-min", type=float)
            q.add_argument("--beta-max", type=float)
            q.add_argument("--beta-steps", type=int)
        if "out" in options:
            q.add_argument("--out", dest="out_dir",
                           help="output directory (default: the config's "
                                "out_dir, else .)")
        if "format" in options:
            q.add_argument("--format", choices=("csv", "json"),
                           dest="out_format")
        if "t" in options:
            q.add_argument("--t-min", type=float, default=0.6)
            q.add_argument("--t-max", type=float, default=1.4)
            q.add_argument("--t-steps", type=int, default=9)
    return p


def resolve_config(args) -> RunConfig:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        cfg = load_config(args.config)
    elif args.preset:
        cfg = config_from_preset(args.preset)
    else:
        raise ConfigError("need --config PATH or --preset NAME")
    for key in _SCALARS:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    # the numbers that only the command line carries
    if getattr(args, "blocks", 1) < 1:
        raise ConfigError("--blocks must be at least 1")
    if getattr(args, "t_steps", 1) < 1:
        raise ConfigError("--t-steps must be at least 1")
    for attr in ("point", "t_min", "t_max"):
        if not math.isfinite(getattr(args, attr, 0.0)):
            raise ConfigError("--%s must be finite" % attr.replace("_", "-"))
    return cfg.validate()


def _meta(cfg: RunConfig, **extra) -> dict:
    meta = {
        "group": cfg.name,
        "cap": cfg.cap,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    meta.update(extra)
    return meta


def write_csv(path: str, meta: dict, columns: dict) -> None:
    names = list(columns)
    rows = len(columns[names[0]])
    with open(path, "w", encoding="utf-8") as fh:
        for k, v in meta.items():
            fh.write("# %s = %s\n" % (k, v))
        fh.write(",".join(names) + "\n")
        for i in range(rows):
            fh.write(",".join("%.17g" % float(columns[n][i]) for n in names))
            fh.write("\n")


def write_json(path: str, meta: dict, data: dict) -> None:
    def clean(obj):
        if isinstance(obj, np.ndarray):
            return [clean(float(x)) for x in obj]
        if isinstance(obj, (np.floating, np.integer)):
            obj = float(obj)
        if isinstance(obj, float) and not math.isfinite(obj):
            return repr(obj)  # strict-JSON friendly: "inf" / "-inf" / "nan"
        if isinstance(obj, list):
            return [clean(v) for v in obj]
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        return obj

    payload = {"meta": meta, "data": {k: clean(v) for k, v in data.items()}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def write_result(cfg: RunConfig, stem: str, meta: dict, columns: dict) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.out_format == "json":
        path = os.path.join(cfg.out_dir, stem + ".json")
        write_json(path, meta, columns)
    else:
        path = os.path.join(cfg.out_dir, stem + ".csv")
        write_csv(path, meta, columns)
    return path


# --- commands ---------------------------------------------------------------

def cmd_validate(cfg: RunConfig, args) -> int:
    pres = build_group(cfg.group_config())
    checks = [("build+markov+horoballs", True, "validated by construction")]
    mismatches, resampled = conjugacy_check(pres, samples=40,
                                            letters_each=8, seed=cfg.seed)
    checks.append(("induced conjugacy", not mismatches,
                   "%d mismatches, %d resampled"
                   % (len(mismatches), resampled)))
    ell, n_pairs = primitivity_witness(pres)
    checks.append(("finite irreducibility witness", ell is not None,
                   "connector length %s over %d pairs" % (ell, n_pairs)))

    ok = all(c[1] for c in checks)
    for name, passed, detail in checks:
        print("%-36s %s (%s)" % (name, "ok" if passed else "FAIL", detail))
    return 0 if ok else 1


def cmd_code(cfg: RunConfig, args) -> int:
    pres = build_group(cfg.group_config())
    cusp = None
    try:
        word = code_point(pres, args.point, args.blocks)
    except ReachedCusp as exc:
        word, cusp = exc.word, exc.cusp
    winds = word.windings(pres)
    print("point %.12g -> %d blocks" % (args.point, len(word)))
    for (label, exp), a in zip(word.blocks, winds):
        print("  %s^%d  winding %d" % (label, exp, a))
    print("windings:", list(winds))
    if cusp is not None:
        print("then the orbit reaches the cusp %.12g" % cusp)
    return 0


def _system(cfg: RunConfig):
    """The presentation and the operator every solving command runs on."""
    pres = build_group(cfg.group_config())
    return pres, fuchsian_system(pres, cfg.cap)


def cmd_pressure(cfg: RunConfig, args) -> int:
    _, sysm = _system(cfg)
    betas = np.linspace(cfg.beta_min, cfg.beta_max, cfg.beta_steps)
    ts, bs = (grid.ravel() for grid in np.meshgrid(
        np.linspace(args.t_min, args.t_max, args.t_steps), betas))
    ps = [sysm.pressure(float(t), float(beta))
          for t, beta in zip(ts, bs)]
    path = write_result(cfg, "pressure", _meta(cfg),
                        {"t": ts, "beta": bs, "pressure": ps})
    print(path)
    return 0


def _curve(cfg: RunConfig):
    betas = cfg.betas()
    pres, sysm = _system(cfg)
    curve = gdms.free_energy_curve(sysm, betas)
    curve.validate()
    return pres, curve


def cmd_free_energy(cfg: RunConfig, args) -> int:
    _, curve = _curve(cfg)
    path = write_result(cfg, "free_energy", _meta(cfg),
                        {"beta": curve.betas, "t": curve.t, "r": curve.r,
                         "err_t": curve.err_t, "calls": curve.calls})
    print(path)
    return 0


def cmd_spectrum(cfg: RunConfig, args) -> int:
    pres, curve = _curve(cfg)
    spec = sp.spectrum(curve)
    spec.validate()
    delta_c = gdms.delta_c(fuchsian_system(pres, 2, restricted=True)).t
    svg = emit_figure(curve, spec, delta_c, title=cfg.name)
    path = write_result(
        cfg, "spectrum",
        _meta(cfg, delta_c=delta_c, alpha0=spec.alpha0, f0=float(spec.f[0]),
              f1=float(spec.f[-1])),
        {"alpha": spec.alphas, "f": spec.f, "beta_source": spec.beta_source,
         "err_t": spec.err_t})
    svg_path = os.path.join(cfg.out_dir, "spectrum.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(path)
    print(svg_path)
    return 0


def cmd_delta(cfg: RunConfig, args) -> int:
    pres, sysm = _system(cfg)
    delta = gdms.free_energy(sysm, 0.0).t
    delta_c = gdms.delta_c(fuchsian_system(pres, 2, restricted=True)).t
    ss = (delta - 0.05, delta + 0.05)
    probe = {}
    for side, s, pair in zip(("below", "above"), ss,
                             poincare_divergence_probe(pres, ss)):
        probe["s_" + side] = s
        probe["ratio_" + side], probe["extrapolated_" + side] = pair
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "delta.json")
    write_json(path, _meta(cfg), {
        "delta": delta, "delta_c": delta_c, "poincare_probe": probe,
        "delta_minus_delta_c": delta - delta_c,
    })
    print(path)
    print(json.dumps({"delta": delta, "delta_c": delta_c}))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(resolve_config(args), args)
    except Exception as exc:  # a ConfigError, a CuspwindError or a fault
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
