import importlib.util
import json
import math
import pathlib
import re
from xml.etree import ElementTree

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from cuspwind import cli, gdms, induced
from cuspwind.config import (
    MAX_CAP,
    ConfigError,
    RunConfig,
    config_from_preset,
    parse_config_text,
)
from cuspwind.errors import CuspwindError
from cuspwind.fuchsian import build_group
from cuspwind.presets import PRESETS, preset_config
from cuspwind.figures import emit_figure
from cuspwind.induced import fuchsian_system

GAMMA2_TEXT = """
name = "gamma2-from-file"
cap = 50
seed = 9

[generator]
label = "a"
inverse_label = "A"
kind = "parabolic"
matrix = [1, 2, 0, 1]
interval = [1, inf]
interval_inverse = [inf, -1]

[generator]
label = "b"
kind = "parabolic"
matrix = [1, 0, 2, 1]
interval = [0, 1]
interval_inverse = [-1, 0]
"""


def test_parse_config_text_roundtrip():
    cfg = parse_config_text(GAMMA2_TEXT)
    assert cfg.name == "gamma2-from-file"
    assert cfg.cap == 50
    assert len(cfg.generators) == 2
    assert cfg.generators[0]["interval"] == [1, math.inf]
    assert cfg.generators[1]["inverse_label"] == "B"  # swapcase default


def test_hash_inside_quotes_is_not_a_comment():
    assert parse_config_text('name = "g #1"  # note\n').name == "g #1"
    cfg = parse_config_text('# a "quoted" comment\n' + GAMMA2_TEXT.replace(
        'label = "a"', 'label = "a"  # the "first" # generator'))
    assert cfg.generators[0]["label"] == "a"


def test_run_configs_do_not_share_generators():
    a, b = RunConfig(), RunConfig()
    a.generators.append({})
    assert a.generators is not b.generators and b.generators == []


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("name = \"x\"\nbogus line without equals\n")
    with pytest.raises(ConfigError, match="generator"):
        parse_config_text("[generator]\nlabel = \"a\"\n")
    # a retired key is an unknown key like any other
    with pytest.raises(ConfigError, match="line 2: unknown key 'cap_ladder'"):
        parse_config_text("name = \"x\"\ncap_ladder = [100, 200]\n")
    with pytest.raises(ConfigError, match="line 2: unknown key 'pressure_tol'"):
        parse_config_text("name = \"x\"\npressure_tol = 1e-8\n")
    with pytest.raises(ConfigError,
                       match="line 1: unknown key 'beta_extensions'"):
        parse_config_text("beta_extensions = [30, nan]\n" + GAMMA2_TEXT)


@pytest.mark.parametrize("line", ["beta_min = nan", "beta_min = -inf",
                                  "beta_max = 1e400"])
def test_beta_grid_needs_finite_ordered_bounds(line):
    with pytest.raises(ConfigError, match="beta"):
        parse_config_text(line + "\n" + GAMMA2_TEXT).betas()


def test_beta_grid_is_the_uniform_grid_alone():
    assert RunConfig().betas() == [-20.0 + 1.25 * k for k in range(33)]
    for name in PRESETS:
        assert config_from_preset(name).betas() == RunConfig().betas()
    assert RunConfig(beta_min=-3000.0, beta_max=3000.0,
                     beta_steps=3).betas() == [-3000.0, 0.0, 3000.0]


def test_preset_configs_load():
    for name in ("gamma2-type", "one-cusp-one-hyperbolic"):
        cfg = config_from_preset(name)
        assert cfg.validate()
    with pytest.raises(ConfigError, match="unknown preset"):
        config_from_preset("no-such-group")


def test_cli_code_fixed_point(capsys):
    rc = cli.main(["code", "--preset", "gamma2-type",
                   "--point", repr(1.0 + math.sqrt(2.0)), "--blocks", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "a^1" in out and "b^1" in out
    assert out.count("winding 0") == 6


@pytest.mark.parametrize("point, blocks, cusp", [
    ("2.5", ["a^1"], "inf"),  # 2.5 -a-> 0.5 -b-> oo, the cusp of a
    ("3", [], "1"),  # 3 -a-> 1, an accidental cusp; the run of a stays open
    ("0.25", [], "inf"),  # 0.25 -b-> 0.5 -b-> oo
    ("0", [], "0"),
    ("-1", [], "-1"),
    # float orbits that pass within 1e-14 of a cusp stop there
    ("0.3", ["b^2", "A^1", "b^1"], "1.12589990684e+15"),
    ("0.4", ["b^1", "a^1"], "4.4408920985e-16"),
    ("0.7", ["b^1", "A^1", "b^2"], "2.81474976711e+14"),
    ("100000.5", ["a^50000"], "inf"),  # one step for the run of a
])
def test_cli_code_reaches_cusp(point, blocks, cusp, capsys):
    # every rational point is a cusp of gamma2: its coding ends there
    rc = cli.main(["code", "--preset", "gamma2-type", "--point", point,
                   "--blocks", "12"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "point %s -> %d blocks" % (point, len(blocks))
    assert [line.split()[0] for line in out[1:-2]] == blocks
    assert out[-1] == "then the orbit reaches the cusp " + cusp


def test_cli_unknown_preset_exit_2(capsys):
    rc = cli.main(["delta", "--preset", "gamma2-type", "--config", "x"])
    assert rc == 2


def test_cli_internal_key_error_not_config_error(monkeypatch, tmp_path,
                                                capsys):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli.gdms, "free_energy", broken)
    rc = cli.main(["delta", "--preset", "one-cusp-one-hyperbolic",
                   "--cap", "10", "--out", str(tmp_path)])
    assert rc == 1
    obj = json.loads(capsys.readouterr().err)
    assert obj == {"error": "KeyError", "message": "'internal'"}


def test_cli_internal_fault_exit_1_json(monkeypatch, tmp_path, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(cli.gdms, "free_energy_curve", broken)
    rc = cli.main(["free-energy", "--preset", "one-cusp-one-hyperbolic",
                   "--cap", "10", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    obj = json.loads(err)
    assert obj == {"error": "RuntimeError", "message": "internal fault"}


def test_cli_config_out_dir_unless_out_given(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "c.cw"
    path.write_text('out_dir = "wanted"\n' + GAMMA2_TEXT)
    argv = ["free-energy", "--config", str(path), "--cap", "10",
            "--beta-min", "0", "--beta-max", "1", "--beta-steps", "2"]
    assert cli.main(argv) == 0
    assert (tmp_path / "wanted" / "free_energy.csv").is_file()
    assert not (tmp_path / "free_energy.csv").exists()
    assert cli.main(argv + ["--out", str(tmp_path / "given")]) == 0
    assert (tmp_path / "given" / "free_energy.csv").is_file()


def test_cli_missing_config_exit_2(capsys):
    rc = cli.main(["delta"])
    assert rc == 2
    err = capsys.readouterr().err
    obj = json.loads(err)
    assert obj["error"] == "ConfigError"


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_cli_unreadable_config_exit_2(kind, tmp_path, capsys):
    # a config file that cannot be read is a configuration error, like a
    # malformed one, never a bare OSError or UnicodeDecodeError
    path = tmp_path / "c.cw"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(GAMMA2_TEXT.replace("gamma2-from-file", "g\xe9")
                         .encode("latin-1"))
    assert cli.main(["validate", "--config", str(path)]) == 2
    obj = json.loads(capsys.readouterr().err)
    assert obj["error"] == "ConfigError"
    assert str(path) in obj["message"]


def test_cli_empty_out_dir_exit_2(tmp_path, capsys):
    assert cli.main(["delta", "--preset", "gamma2-type", "--cap", "10",
                     "--out", ""]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError", "message": "out_dir must not be empty"}


@pytest.mark.parametrize("cap",["1" + "0" * 400, str(MAX_CAP + 1)])
def test_cli_cap_beyond_the_bound_exit_2(cap, monkeypatch, tmp_path, capsys):
    # rejected as a configuration error before any system is built, from a
    # config file and from --cap alike
    def build(*args, **kwargs):
        raise AssertionError("system built")

    monkeypatch.setattr(cli, "fuchsian_system", build)
    path = tmp_path / "c.cw"
    path.write_text(GAMMA2_TEXT.replace("cap = 50", "cap = " + cap))
    for argv in (["delta", "--config", str(path)],
                 ["delta", "--preset", "gamma2-type", "--cap", cap]):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        obj = json.loads(capsys.readouterr().err)
        assert obj["error"] == "ConfigError"
        assert str(MAX_CAP) in obj["message"]
    assert parse_config_text(
        GAMMA2_TEXT.replace("cap = 50", "cap = %d" % MAX_CAP)).cap == MAX_CAP


@pytest.mark.parametrize("argv", [
    ["validate", "--preset", "gamma2-type", "--seed", "-1"],
    ["validate", "--config", "seed = -5"],
    ["code", "--preset", "gamma2-type", "--point", "2.5", "--blocks", "-2"],
    ["code", "--preset", "gamma2-type", "--point", "2.5", "--blocks", "0"],
    ["code", "--preset", "gamma2-type", "--point", "nan"],
    ["code", "--preset", "gamma2-type", "--point", "inf"],
    ["pressure", "--preset", "gamma2-type", "--t-steps", "0"],
    ["pressure", "--preset", "gamma2-type", "--t-min", "nan"],
    ["pressure", "--preset", "gamma2-type", "--beta-steps", "0"],
    ["pressure", "--preset", "gamma2-type", "--beta-min", "nan"],
    ["free-energy", "--preset", "gamma2-type", "--beta-steps", "1"],
    ["spectrum", "--preset", "gamma2-type", "--beta-min", "1",
     "--beta-max", "0"],
], ids=lambda argv: " ".join(argv[3:]) or argv[2])
def test_cli_malformed_numbers_exit_2(argv, monkeypatch, tmp_path, capsys):
    # rejected as configuration errors before any group is built
    def build(*args, **kwargs):
        raise AssertionError("group built")

    monkeypatch.setattr(cli, "build_group", build)
    if argv[1] == "--config":
        path = tmp_path / "c.cw"
        path.write_text(re.sub(r"^seed = .*$", argv[2], GAMMA2_TEXT,
                               count=1, flags=re.M))
        argv = argv[:2] + [str(path)]
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_cli_bad_determinant_exit_1(tmp_path, capsys):
    bad = GAMMA2_TEXT.replace("matrix = [1, 2, 0, 1]", "matrix = [1, 2, 0, 1.1]")
    path = tmp_path / "bad.cw"
    path.write_text(bad)
    rc = cli.main(["validate", "--config", str(path)])
    assert rc == 1
    obj = json.loads(capsys.readouterr().err)
    assert obj["error"] == "NotUnitDeterminant"
    assert "a" in obj["message"]


def test_cli_undeclared_elliptic_generator_exit_1(tmp_path, capsys):
    # without a kind nothing was declared hyperbolic: the message says that
    # the generator is elliptic
    text = preset_text("one-cusp-one-hyperbolic").replace(
        'kind = "hyperbolic"\n', "").replace(
        "matrix = [2.6, 7.2, 0.8, 2.6]", "matrix = [0, -1, 1, 0]")
    path = tmp_path / "elliptic.cw"
    path.write_text(text)
    assert cli.main(["validate", "--config", str(path)]) == 1
    obj = json.loads(capsys.readouterr().err)
    assert obj["error"] == "GroupValidationError"
    assert obj["message"] == "generator 'h' is elliptic: trace^2 = 0"


@pytest.mark.parametrize("case, rc, error", [
    ("matrix = 3", 2, "ConfigError"),
    ('matrix = [1, 2, 0, "q"]', 2, "ConfigError"),
    ("label = 5", 2, "ConfigError"),
    ('interval = ["x", inf]', 2, "ConfigError"),
    ('kind = "elliptic"', 2, "ConfigError"),
    ('out_format = "xml"', 2, "ConfigError"),
    ("interval = [1, 1]", 1, "GroupValidationError"),
    ("interval = [inf, inf]", 1, "GroupValidationError"),
    ("matrix = [-1, 0, 0, -1]", 1, "GroupValidationError"),
    ("cap = 50.5", 2, "ConfigError"),
    ("seed = 2.5", 2, "ConfigError"),
    ("name = [1, 2]", 2, "ConfigError"),
])
def test_cli_config_errors_exit_as_config_or_group_errors(case, rc, error,
                                                          tmp_path, capsys):
    # malformed fields and values (a fractional integer key, a list for a
    # string) are configuration errors; degenerate arcs and the identity
    # are invalid geometry
    key = case.split(" =")[0]
    if key == "out_format":
        text = case + "\n" + GAMMA2_TEXT
    else:
        text = re.sub(r"^%s = .*$" % key, case, GAMMA2_TEXT, count=1,
                      flags=re.M)
    path = tmp_path / "case.cw"
    path.write_text(text)
    assert cli.main(["validate", "--config", str(path)]) == rc
    assert json.loads(capsys.readouterr().err)["error"] == error


def preset_text(name):
    """A preset in the config file format."""
    lines = ['name = "%s"' % name]
    for gen in preset_config(name)["generators"]:
        lines.append("[generator]")
        lines += ['%s = "%s"' % (k, gen[k])
                  for k in ("label", "inverse_label", "kind")]
        lines += ["%s = [%s]" % (k, ", ".join(repr(float(v)) for v in gen[k]))
                  for k in ("matrix", "interval", "interval_inverse")]
    return "\n".join(lines) + "\n"


@st.composite
def mutated_preset_text(draw):
    """A preset text with one to three fields of its generators replaced:
    wrong types, coincident or infinite endpoints, determinants off by
    1e-9, swapped arcs."""
    name = draw(st.sampled_from(sorted(PRESETS)))
    gens = [dict(g) for g in preset_config(name)["generators"]]
    raw = [{} for _ in gens]  # field -> replacement text, written last
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(gens) - 1))
        g = gens[i]
        kind = draw(st.sampled_from(
            ["type", "coincide", "infinite", "determinant", "swap",
             "reverse"]))
        arc = draw(st.sampled_from(["interval", "interval_inverse"]))
        if kind == "type":
            key = draw(st.sampled_from(
                ["label", "inverse_label", "kind", "matrix", "interval"]))
            raw[i][key] = draw(st.sampled_from(
                ['"x"', "3", "[1, 2]", '["inf", 1]', "[]", "nan", "[nan, 1]",
                 '"parabolic"', "[1, 2, 3, 4, 5]", "[1%s, 0, 0, 1]" % (
                     "0" * 400)]))
        elif kind == "coincide":
            end = draw(st.sampled_from(g[arc]))
            g[arc] = [end, end]
        elif kind == "infinite":
            g[arc] = list(g[arc])
            g[arc][draw(st.integers(0, 1))] = draw(
                st.sampled_from(["inf", "-inf"]))
        elif kind == "determinant":
            g["matrix"] = list(g["matrix"])
            k = draw(st.integers(0, 3))
            g["matrix"][k] = g["matrix"][k] + draw(
                st.sampled_from([1e-9, -1e-9]))
        elif kind == "swap":
            g["interval"], g["interval_inverse"] = \
                g["interval_inverse"], g["interval"]
        else:
            g[arc] = list(reversed(g[arc]))
    lines = ['name = "%s"' % name]
    for g, text in zip(gens, raw):
        lines.append("[generator]")
        for key, value in g.items():
            if key in text:
                value = text[key]
            elif isinstance(value, list):
                value = "[%s]" % ", ".join(
                    v if isinstance(v, str) else repr(float(v)) for v in value)
            else:
                value = '"%s"' % value
            lines.append("%s = %s" % (key, value))
    return "\n".join(lines) + "\n"


def test_preset_text_builds_the_preset():
    for name in PRESETS:
        pres = build_group(parse_config_text(preset_text(name)).group_config())
        assert list(pres.gens) == list(build_group(preset_config(name)).gens)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mutated_preset_text())
def test_config_fuzz_returns_group_or_library_error(text):
    # every mutated config builds a group or fails with a configuration
    # error or a library error, never a bare Python exception
    try:
        build_group(parse_config_text(text).group_config())
    except (ConfigError, CuspwindError):
        pass


def test_cli_invalid_curve_exit_1(monkeypatch, tmp_path, capsys):
    def increasing(sysm, betas):
        betas = np.asarray(sorted(betas), dtype=float)
        return cli.gdms.FreeEnergyCurve(betas, betas.copy(), np.ones_like(betas),
                                        np.zeros_like(betas),
                                        np.ones_like(betas))

    monkeypatch.setattr(cli.gdms, "free_energy_curve", increasing)
    rc = cli.main(["free-energy", "--preset", "one-cusp-one-hyperbolic",
                   "--cap", "10", "--out", str(tmp_path)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidCurve"


def test_cli_missing_parabolic_surfaced(tmp_path, capsys):
    text = """
name = "hyp-only"
[generator]
label = "h"
kind = "hyperbolic"
matrix = [2.6, 7.2, 0.8, 2.6]
interval = [2.0, 4.142857142857143]
interval_inverse = [-5.0, -2.0]

[generator]
label = "k"
kind = "hyperbolic"
matrix = [2.6, -7.2, -0.8, 2.6]
interval = [-4.142857142857143, -2.0]
interval_inverse = [2.0, 5.0]
"""
    path = tmp_path / "nopar.cw"
    path.write_text(text)
    rc = cli.main(["validate", "--config", str(path)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "NoParabolic"


def test_cli_repeated_generator_label_exit_1(tmp_path, capsys):
    # one-cusp's a, then h twice: three generator pairs, not the preset
    text = preset_text("one-cusp-one-hyperbolic")
    path = tmp_path / "dup.cw"
    path.write_text(text + text[text.rindex("[generator]"):])
    rc = cli.main(["delta", "--config", str(path), "--cap", "60",
                   "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GroupValidationError"
    assert "'h' is used by two generators" in err["message"]
    assert not (tmp_path / "delta.json").exists()


def test_cli_delta_json(tmp_path, capsys):
    rc = cli.main(["delta", "--preset", "one-cusp-one-hyperbolic",
                   "--cap", "100", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "delta.json").read_text())
    assert payload["data"]["delta"] > payload["data"]["delta_c"] > 0.0
    assert payload["meta"]["cap"] == 100
    assert "seed" not in payload["meta"]  # delta draws no random numbers


PERFBENCH_CHILD = pathlib.Path(__file__).parents[1] / "perfbench" / "child.py"


@pytest.mark.parametrize("command", ["spectrum", "delta"])
def test_setup_clock_records_the_restricted_build(command, monkeypatch,
                                                  tmp_path):
    # perfbench's setup_s times the CLI's calls to build_group and
    # fuchsian_system, the restricted delta_c system among them: each
    # comes through a name the clock wraps, restricted as a keyword
    spec = importlib.util.spec_from_file_location("perfbench_child",
                                                  PERFBENCH_CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    for module, attr in ((cli, "build_group"), (cli, "fuchsian_system"),
                         (induced, "fuchsian_system")):
        # the clock replaces these names; monkeypatch puts them back
        monkeypatch.setattr(module, attr, getattr(module, attr))
    clock = child.SetupClock()
    child.install_setup_clock(clock)
    assert cli.main([command, "--preset", "gamma2-type", "--cap", "60",
                     "--out", str(tmp_path)]) == 0
    assert clock.missing == []
    group, main_system, restricted = clock.calls
    assert group[0] is build_group and group[2] == {}
    for (fn, args, kwargs), cap, keywords in (
            (main_system, 60, {}), (restricted, 2, {"restricted": True})):
        assert fn is fuchsian_system and kwargs == keywords
        assert isinstance(args[0], child.Ref) and args[0].k == 0
        assert args[1:] == [cap]
    # the main system alone gives the run's size
    main = clock.outs[1]
    assert clock.sizes == {"n_keys": main.n_keys, "n_edges": main.n_edges}


@pytest.mark.parametrize("argv", [
    ["delta", "--preset", "gamma2-type", "--format", "json"],
    ["validate", "--preset", "gamma2-type", "--cap", "5"],
    ["code", "--preset", "gamma2-type", "--point", "2", "--out", "."],
    ["spectrum", "--preset", "gamma2-type", "--seed", "3"],
])
def test_cli_rejects_options_the_command_ignores(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_negative_exponent_form_with_equals(tmp_path):
    # argparse takes a separate "-1e3" for an option; joined by "=" it is
    # the value of --beta-min
    rc = cli.main(["free-energy", "--preset", "gamma2-type", "--cap", "20",
                   "--beta-min=-1e3", "--beta-steps", "3",
                   "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "free_energy.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[-3:]] == ["-1000", "-490", "20"]


def test_cli_free_energy_csv_roundtrip(tmp_path):
    rc = cli.main(["free-energy", "--preset", "one-cusp-one-hyperbolic",
                   "--cap", "60", "--beta-min", "-4", "--beta-max", "4",
                   "--beta-steps", "5", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "free_energy.csv").read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("cap = 60" in l for l in header)
    cols = lines[len(header)].split(",")
    assert cols == ["beta", "t", "r", "err_t", "calls"]
    rows = [l.split(",") for l in lines[len(header) + 1:]]
    assert [float(r[0]) for r in rows] == [-4.0, -2.0, 0.0, 2.0, 4.0]
    # 17 significant digits round-trip exactly
    from cuspwind.fuchsian import build_group
    from cuspwind.induced import fuchsian_system
    from cuspwind import gdms
    cfg = config_from_preset("one-cusp-one-hyperbolic")
    sysm = fuchsian_system(build_group(cfg.group_config()), 60)
    pt = gdms.free_energy(sysm, -4.0)
    row = next(r for r in rows if float(r[0]) == -4.0)
    assert float(row[1]) == pt.t
    assert 0.0 <= float(row[3]) <= 1e-12 and int(row[4]) >= 1


def test_cli_spectrum_outputs(tmp_path):
    rc = cli.main(["spectrum", "--preset", "one-cusp-one-hyperbolic",
                   "--cap", "60", "--beta-steps", "17", "--out", str(tmp_path)])
    assert rc == 0
    csv_text = (tmp_path / "spectrum.csv").read_text()
    lines = [l for l in csv_text.splitlines() if not l.startswith("#")]
    assert lines[0].split(",") == ["alpha", "f", "beta_source", "err_t"]
    data = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    alphas, f = data[:, 0], data[:, 1]
    keep = np.concatenate([[True], np.diff(alphas) > 1e-9])
    aa, ff = alphas[keep], f[keep]
    slopes = np.diff(ff) / np.diff(aa)
    gaps = np.diff(aa)
    assert np.all(np.diff(slopes) * np.minimum(gaps[:-1], gaps[1:]) <= 1e-6)
    svg = (tmp_path / "spectrum.svg").read_text()
    assert svg.startswith("<?xml")
    assert "delta_c" in svg and "</svg>" in svg


@pytest.mark.parametrize("name", ["gamma2-type", "one-cusp-one-hyperbolic"])
def test_cli_spectrum_header_gives_the_end_values(name, tmp_path):
    # the header's f0 and f1 are the f of the first and last rows, the
    # samples nearest alpha -> 0 and alpha -> 1
    rc = cli.main(["spectrum", "--preset", name, "--cap", "60",
                   "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    header = dict(l[2:].split(" = ") for l in lines if l.startswith("#"))
    rows = [l.split(",") for l in lines[len(header) + 1:]]
    assert float(header["f0"]) == float(rows[0][1])
    assert float(header["f1"]) == float(rows[-1][1])


def test_cli_pressure_grid(tmp_path, onecusp):
    rc = cli.main(["pressure", "--preset", "one-cusp-one-hyperbolic",
                   "--cap", "40", "--beta-min", "-1", "--beta-max", "1",
                   "--beta-steps", "3", "--out", str(tmp_path),
                   "--format", "json"])
    assert rc == 0
    payload = json.loads((tmp_path / "pressure.json").read_text())
    data = payload["data"]
    assert list(data) == ["t", "beta", "pressure"]
    # each value is the pressure of the run's system, bit for bit ("inf"
    # where the series diverges)
    sysm = fuchsian_system(onecusp, 40)
    got = [float(p) for p in data["pressure"]]
    assert got == [gdms.pressure(sysm, t, beta)
                   for t, beta in zip(data["t"], data["beta"])]
    assert 0 < sum(map(math.isfinite, got)) < len(got)


def test_svg_deterministic(onecusp):
    from cuspwind import gdms
    from cuspwind.induced import fuchsian_system
    from cuspwind import spectrum as sp

    sysm = fuchsian_system(onecusp, 50)
    curve = gdms.free_energy_curve(sysm, list(np.linspace(-6, 6, 13)))
    spec = sp.spectrum(curve)
    a = emit_figure(curve, spec, 0.4, title="determinism")
    b = emit_figure(curve, spec, 0.4, title="determinism")
    assert a == b
    assert a.startswith("<?xml")


def test_svg_title_is_escaped():
    # the title is the config's free-text name
    from cuspwind import spectrum as sp
    from cuspwind.gdms import FreeEnergyCurve

    betas = np.linspace(-5.0, 5.0, 21)
    t = np.sqrt(1.0 + betas ** 2)
    curve = FreeEnergyCurve(betas, t, t - (0.5 - betas), np.zeros(21),
                            np.zeros(21, int))
    svg = emit_figure(curve, sp.spectrum(curve), 0.4, title="a<b & c")
    root = ElementTree.fromstring(svg.encode("utf-8"))
    assert root.find("{http://www.w3.org/2000/svg}text").text == "a<b & c"


def test_cli_spectrum_with_few_betas_in_the_figure_window(tmp_path):
    # fewer than two betas with |beta| <= 21: the left panel shows all
    for k, grid in enumerate((["--beta-min", "25", "--beta-max", "28"],
                              ["--beta-min", "20", "--beta-max", "25",
                               "--beta-steps", "2"])):
        out = tmp_path / str(k)
        rc = cli.main(["spectrum", "--preset", "one-cusp-one-hyperbolic",
                       "--cap", "20", "--out", str(out)] + grid)
        assert rc == 0
        root = ElementTree.fromstring((out / "spectrum.svg").read_bytes())
        assert root.tag == "{http://www.w3.org/2000/svg}svg"


def test_svg_marks_t0_only_on_a_grid_with_beta_zero():
    from cuspwind import spectrum as sp
    from cuspwind.gdms import FreeEnergyCurve

    def svg(steps):
        betas = np.linspace(-20.0, 20.0, steps)
        t = np.log1p(np.exp(-betas)) - math.log(2.0) + 0.5
        curve = FreeEnergyCurve(betas, t, t - (0.5 - betas),
                                np.zeros(steps), np.zeros(steps, int))
        return emit_figure(curve, sp.spectrum(curve), 0.4)

    assert ">t(0)</text>" in svg(33)
    assert ">t(0)</text>" not in svg(4)  # no beta = 0 sample
    assert ">delta_c</text>" in svg(4)


def test_cli_spectrum_f_above_one_exit_1(tmp_path, capsys):
    # 4 betas from -20 to 20 miss beta = 0, and the finite-difference
    # alpha of so coarse a grid gives f = 2.4 at beta = 6.67: refused as
    # an invalid curve, not written
    rc = cli.main(["spectrum", "--preset", "gamma2-type", "--cap", "60",
                   "--beta-steps", "4", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "InvalidCurve",
                   "message": "spectrum exceeds 1 by more than 1e-9"}
    assert not (tmp_path / "spectrum.csv").exists()


def test_validate_command_both_presets(capsys):
    for preset in ("gamma2-type", "one-cusp-one-hyperbolic"):
        rc = cli.main(["validate", "--preset", preset, "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "FAIL" not in out
        assert re.search(r"induced conjugacy .*\d+ resampled", out)
