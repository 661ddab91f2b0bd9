"""Run configuration: flat key-value format with [generator] sections.

The format is line-based and diff-friendly: ``key = value`` pairs where a
value is a number, a quoted string, inf/-inf, or a flat list in brackets;
repeated ``[generator]`` sections each describe one symmetric generator
pair.  Parse errors carry line numbers and field paths.
"""

from __future__ import annotations

import math

from .presets import preset_config


class ConfigError(Exception):
    """Malformed run configuration (CLI exit code 2)."""


# Largest parabolic exponent cap.  The system stores rows x cap letter
# weights (136 rows on the gamma2 preset at this cap, 36 MB), and t(0)
# converges in the cap long before it: caps 800 and 1600 agree to 5e-12.
MAX_CAP = 2 ** 15


class RunConfig:
    def __init__(self, name: str = "group", generators: list = None,
                 cap: int = 400, beta_min: float = -20.0,
                 beta_max: float = 20.0, beta_steps: int = 33,
                 seed: int = 1234, out_dir: str = ".",
                 out_format: str = "csv"):
        self.name = name
        self.generators = [] if generators is None else generators
        self.cap, self.beta_min, self.beta_max = cap, beta_min, beta_max
        self.beta_steps, self.seed = beta_steps, seed
        self.out_dir, self.out_format = out_dir, out_format

    def group_config(self) -> dict:
        return {"generators": self.generators}

    def betas(self) -> list:
        if not (self.beta_steps >= 2 and self.beta_min < self.beta_max
                and math.isfinite(self.beta_max - self.beta_min)):
            raise ConfigError("need finite beta_min < beta_max and "
                              "beta_steps >= 2")
        step = (self.beta_max - self.beta_min) / (self.beta_steps - 1)
        return [self.beta_min + k * step for k in range(self.beta_steps)]

    def validate(self):
        if not 1 <= self.cap <= MAX_CAP:
            raise ConfigError("cap must be between 1 and %d" % MAX_CAP)
        if self.seed < 0:
            raise ConfigError("seed must be at least 0")
        if not (math.isfinite(self.beta_min)
                and math.isfinite(self.beta_max)):
            raise ConfigError("beta_min and beta_max must be finite")
        if self.beta_steps < 1:
            raise ConfigError("beta_steps must be at least 1")
        if not self.out_dir:
            raise ConfigError("out_dir must not be empty")
        if self.out_format not in ("csv", "json"):
            raise ConfigError("out_format must be \"csv\" or \"json\", got %r"
                              % (self.out_format,))
        return self


# the scalar keys of the config format, each with the type of its default
_SCALARS = {key: type(value) for key, value in vars(RunConfig()).items()
            if key != "generators"}
_GEN_KEYS = {"label", "inverse_label", "kind", "matrix", "interval",
             "interval_inverse"}


def parse_config_text(text: str) -> RunConfig:
    cfg = RunConfig()
    current: dict = None  # None = top level, else the generator being filled
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if line != "[generator]":
                raise ConfigError("line %d: unknown section %r" % (lineno, line))
            current = {}
            cfg.generators.append(current)
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value" % lineno)
        key, _, rhs = line.partition("=")
        key = key.strip()
        try:
            value = _parse_value(rhs.strip())
        except ConfigError as exc:
            raise ConfigError("line %d (%s): %s" % (lineno, key, exc)) from None
        if current is not None:
            if key not in _GEN_KEYS:
                raise ConfigError("line %d: unknown generator field %r"
                                  % (lineno, key))
            current[key] = value
        elif key in _SCALARS:
            want = _SCALARS[key]
            # an integer key takes an integer literal, a float key any
            # number, a string key a quoted string
            try:
                if not isinstance(value, (int, float) if want is float
                                  else want):
                    raise TypeError
                setattr(cfg, key, want(value))
            except (TypeError, OverflowError):
                raise ConfigError("line %d: bad value for %s" % (lineno, key)) \
                    from None
        else:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
    _check_generators(cfg.generators)
    return cfg.validate()


def _strip_comment(raw: str) -> str:
    """The line up to its first ``#`` outside a quoted string."""
    quoted = False
    for i, ch in enumerate(raw):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return raw[:i]
    return raw


def _parse_value(s: str):
    if not s:
        raise ConfigError("empty value")
    if s.startswith("["):
        if not s.endswith("]"):
            raise ConfigError("unterminated list")
        inner = s[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(p.strip()) for p in inner.split(",")]
    if s.startswith('"') and s.endswith('"') and len(s) >= 2:
        return s[1:-1]
    low = s.lower()
    if low in ("inf", "+inf", "oo", "infinity"):
        return math.inf
    if low in ("-inf", "-oo"):
        return -math.inf
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        raise ConfigError("cannot parse value %r" % s) from None


def _check_generators(gens: list):
    for k, g in enumerate(gens):
        path = "generator[%d]" % k
        for need in ("label", "matrix", "interval", "interval_inverse"):
            if need not in g:
                raise ConfigError("%s: missing field %r" % (path, need))
        if not isinstance(g["label"], str):
            raise ConfigError("%s.label: need a quoted string" % path)
        g.setdefault("inverse_label", g["label"].swapcase())
        if not isinstance(g["inverse_label"], str):
            raise ConfigError("%s.inverse_label: need a quoted string" % path)
        if "kind" in g and g["kind"] not in ("parabolic", "hyperbolic"):
            raise ConfigError("%s.kind: need \"parabolic\" or \"hyperbolic\""
                              % path)
        if not _numbers(g["matrix"], 4) or not all(map(math.isfinite,
                                                        g["matrix"])):
            raise ConfigError("%s.matrix: need four finite numbers" % path)
        for fieldname in ("interval", "interval_inverse"):
            if not _numbers(g[fieldname], 2):
                raise ConfigError("%s.%s: need two endpoints, numbers or inf"
                                  % (path, fieldname))


def _numbers(value, n: int) -> bool:
    """A list of n numbers, none of them nan (+-inf allowed)."""
    try:
        return (isinstance(value, list) and len(value) == n
                and all(isinstance(v, (int, float)) and not math.isnan(v)
                        for v in value))
    except OverflowError:  # an integer beyond the double range
        return False


def load_config(path: str) -> RunConfig:
    """Parse the config file at ``path``; a file that cannot be opened or
    is not UTF-8 is a ConfigError like a malformed one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config %r: %s" % (
            path, getattr(exc, "strerror", None) or exc)) from None
    return parse_config_text(text)


def config_from_preset(name: str) -> RunConfig:
    try:
        pc = preset_config(name)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    return RunConfig(name=pc["name"], generators=[
        dict(e) for e in pc["generators"]]).validate()
