import json
import math

import pytest

from dropflow import ConfigError, ScenarioConfig, parse_config_text
from dropflow.cli import main
from dropflow.config import parse_config

GOOD_CONFIG = """\
# scenario: gentle mode-2 perturbation
shape = fourier(1;2:0.05)
vol = 1.0
m = 64            # boundary samples
t_end = 0.2
snapshot_stride = 10
"""


def test_parse_config_text_defaults_and_comments():
    cfg = parse_config_text(GOOD_CONFIG, source="good.cfg")
    assert cfg.shape == "fourier(1;2:0.05)"
    assert cfg.m == 64
    assert cfg.t_end == 0.2
    # untouched keys keep their defaults
    assert cfg.vol == 1.0
    assert cfg.law == "quadratic"
    assert cfg.cfl == 0.4
    assert cfg.tol_stationary == 1e-7
    assert cfg.outdir == "."


def test_parse_config_text_error_messages():
    with pytest.raises(ConfigError, match=r"t\.cfg:2: unknown key 'mass'"):
        parse_config_text("shape = circle(1)\nmass = 2\n", source="t.cfg")
    with pytest.raises(ConfigError, match=r"duplicate key 'm'"):
        parse_config_text("shape = circle(1)\nm = 64\nm = 128\n", source="t.cfg")
    with pytest.raises(ConfigError, match=r"bad value for 'm'"):
        parse_config_text("shape = circle(1)\nm = many\n", source="t.cfg")
    with pytest.raises(ConfigError, match=r"missing required key 'shape'"):
        parse_config_text("m = 64\n", source="t.cfg")
    with pytest.raises(ConfigError, match=r"expected 'key = value'"):
        parse_config_text("shape circle(1)\n", source="t.cfg")


def test_parse_config_text_range_checks():
    for line in ("m = 15", "m = 4096", "vol = 0", "cfl = 1.5", "t_end = 0",
                 "tol_stationary = 1", "snapshot_stride = 0", "seed = -1"):
        with pytest.raises(ConfigError, match="out of range"):
            parse_config_text(f"shape = circle(1)\n{line}\n")


def test_parse_config_text_shape_and_law_validation():
    with pytest.raises(ConfigError, match="bad shape spec"):
        parse_config_text("shape = blob(1)\n")
    with pytest.raises(ConfigError, match="unknown velocity law"):
        parse_config_text("shape = circle(1)\nlaw = exp\n")
    with pytest.raises(ConfigError, match="bad polynomial law"):
        parse_config_text("shape = circle(1)\nlaw = poly:1,x\n")
    with pytest.raises(ConfigError, match="vanish"):
        parse_config_text("shape = circle(1)\nlaw = poly:0,1\n")


def test_polynomial_law_from_config():
    cfg = parse_config_text("shape = circle(1)\nlaw = poly:-1,0,0,1\n")
    law = cfg.velocity_law()
    assert abs(law(1.0)) < 1e-15
    assert abs(law(2.0) - 7.0) < 1e-15
    assert not law.is_quadratic
    default = ScenarioConfig(shape="circle(1)").velocity_law()
    assert default.is_quadratic


def test_as_dict_covers_every_key():
    cfg = parse_config_text(GOOD_CONFIG)
    d = cfg.as_dict()
    assert set(d) == {"shape", "vol", "m", "n_radial", "law", "dt0", "cfl",
                      "t_end", "tol_stationary", "snapshot_stride",
                      "filter_strength", "seed", "outdir"}
    assert d["shape"] == cfg.shape


def test_parse_config_file_and_missing_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(GOOD_CONFIG)
    cfg = parse_config(path)
    assert cfg.m == 64
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(tmp_path / "nope.cfg")


def test_cli_ball_json(capsys):
    assert main(["ball", "--n", "2", "--vol", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["r_star"] - (4 / math.pi) ** (1 / 3)) < 1e-12
    assert abs(payload["j_star"] - 5.535810445932086) < 1e-12
    notes = payload["consistency"]
    assert notes["j_star_coefficients_consistent"] is True
    assert abs(notes["j_star_coeff_2n_plus_1"] - 4.613175371610072) < 1e-12


def test_cli_verify_single_shape(tmp_path, capsys):
    jsonl = tmp_path / "verify.jsonl"
    code = main(["verify", "--shape", "circle(1)", "--m", "64",
                 "--json", str(jsonl)])
    out = capsys.readouterr().out
    assert code == 0
    assert "14/14 identity checks passed" in out
    lines = jsonl.read_text().strip().splitlines()
    assert len(lines) == 14
    first = json.loads(lines[0])
    assert first["identity"] == "pohozaev"
    assert first["pass"] is True


def test_cli_stability_sweep_and_failures(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["stability", "--modes", "2", "--eps-grid", "0.05:0.1:2",
                 "--m", "64", "--out", str(out)])
    assert code == 0
    text = out.read_text().splitlines()
    assert text[0].startswith("shape,k,eps,asymmetry")
    assert len(text) == 3

    bad = tmp_path / "bad.csv"
    code = main(["stability", "--shape", "fourier(1;2:1.5)", "--m", "64",
                 "--out", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert "row failed" in err

    assert main(["stability", "--eps-grid", "nonsense"]) == 2


def test_cli_stability_rejects_nonpositive_vol(tmp_path, capsys):
    assert main(["stability", "--vol", "0", "--out", str(tmp_path / "s.csv")]) == 2
    assert "--vol must be positive" in capsys.readouterr().err


def test_cli_run_writes_outputs(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DROPFLOW_OUTDIR", raising=False)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(GOOD_CONFIG + f"outdir = {tmp_path / 'out'}\n")
    code = main(["run", str(cfg)])
    assert code == 0
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] in ("t_end", "stationary")
    assert summary["steps"] > 0
    assert summary["config"]["shape"] == "fourier(1;2:0.05)"
    assert (out / "timeseries.csv").exists()
    assert (out / "final_shape.csv").exists()
    assert (out / "snapshot_0000.csv").exists()
    stdout_summary = json.loads(capsys.readouterr().out)
    assert stdout_summary == summary


def test_cli_run_outdir_env_override(tmp_path, monkeypatch):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(GOOD_CONFIG + f"outdir = {tmp_path / 'ignored'}\n")
    forced = tmp_path / "forced"
    monkeypatch.setenv("DROPFLOW_OUTDIR", str(forced))
    assert main(["run", str(cfg)]) == 0
    assert (forced / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_run_config_error(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("shape = circle(1)\nmass = 1\n")
    assert main(["run", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
