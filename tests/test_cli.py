import json
import math
import os
import re

import numpy as np
import pytest

from cuspwind import cli
from cuspwind.config import ConfigError, config_from_preset, parse_config_text
from cuspwind.figures import emit_figure

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


def test_cli_unknown_preset_exit_2(capsys):
    rc = cli.main(["delta", "--preset", "gamma2-type", "--config", "x"])
    assert rc == 2


def test_cli_internal_key_error_not_config_error(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli.gdms, "free_energy", broken)
    with pytest.raises(KeyError, match="internal"):
        cli.main(["delta", "--preset", "one-cusp-one-hyperbolic",
                  "--cap", "10", "--out", str(tmp_path)])


def test_cli_missing_config_exit_2(capsys):
    rc = cli.main(["delta"])
    assert rc == 2
    err = capsys.readouterr().err
    obj = json.loads(err)
    assert obj["error"] == "ConfigError"


def test_cli_bad_determinant_exit_1(tmp_path, capsys):
    bad = GAMMA2_TEXT.replace("matrix = [1, 2, 0, 1]", "matrix = [1, 2, 0, 1.1]")
    path = tmp_path / "bad.cw"
    path.write_text(bad)
    rc = cli.main(["validate", "--config", str(path)])
    assert rc == 1
    obj = json.loads(capsys.readouterr().err)
    assert obj["error"] == "NotUnitDeterminant"
    assert "a" in obj["message"]


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


def test_cli_delta_json(tmp_path, capsys):
    rc = cli.main(["delta", "--preset", "one-cusp-one-hyperbolic",
                   "--cap", "100", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "delta.json").read_text())
    assert payload["data"]["delta"] > payload["data"]["delta_c"] > 0.0
    assert payload["meta"]["cap"] == 100


def test_cli_free_energy_csv_roundtrip(tmp_path):
    rc = cli.main(["free-energy", "--preset", "one-cusp-one-hyperbolic",
                   "--cap", "60", "--beta-min", "-4", "--beta-max", "4",
                   "--beta-steps", "5", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "free_energy.csv").read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("cap = 60" in l for l in header)
    cols = lines[len(header)].split(",")
    assert cols == ["beta", "t", "r", "residual"]
    rows = [l.split(",") for l in lines[len(header) + 1:]]
    # 17 significant digits round-trip exactly
    from cuspwind.fuchsian import build_group
    from cuspwind.induced import fuchsian_system
    from cuspwind import gdms
    cfg = config_from_preset("one-cusp-one-hyperbolic")
    sysm = fuchsian_system(build_group(cfg.group_config()), 60)
    pt = gdms.free_energy(sysm, -4.0)
    row = next(r for r in rows if float(r[0]) == -4.0)
    assert float(row[1]) == pt.t


def test_cli_spectrum_outputs(tmp_path):
    rc = cli.main(["spectrum", "--preset", "one-cusp-one-hyperbolic",
                   "--cap", "60", "--beta-steps", "17", "--out", str(tmp_path)])
    assert rc == 0
    csv_text = (tmp_path / "spectrum.csv").read_text()
    lines = [l for l in csv_text.splitlines() if not l.startswith("#")]
    assert lines[0].split(",") == ["alpha", "f", "beta_source", "residual"]
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


def test_cli_pressure_grid(tmp_path):
    rc = cli.main(["pressure", "--preset", "one-cusp-one-hyperbolic",
                   "--cap", "40", "--beta-min", "-1", "--beta-max", "1",
                   "--beta-steps", "3", "--out", str(tmp_path),
                   "--format", "json"])
    assert rc == 0
    payload = json.loads((tmp_path / "pressure.json").read_text())
    assert set(payload["data"]) == {"t", "beta", "pressure",
                                    "letter_series_log"}


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


def test_svg_empty_inputs_valid():
    svg = emit_figure(None, None, None)
    assert svg.startswith("<?xml") and svg.rstrip().endswith("</svg>")


def test_validate_command_both_presets(capsys):
    for preset in ("gamma2-type", "one-cusp-one-hyperbolic"):
        rc = cli.main(["validate", "--preset", preset, "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "FAIL" not in out
        assert re.search(r"induced conjugacy .*\d+ resampled", out)
