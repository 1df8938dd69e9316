import csv
import json
import math

import numpy as np
import pytest

from dropflow import ConfigError, ScenarioConfig, parse_config_text, quadratic_law
from dropflow.cli import main
from dropflow.config import parse_config
from dropflow.dynamics import _FIT_WINDOW

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
    # keys that dropflow run never read, the first step and filter
    # strength, which are fixed, and cfl: the flow has no CFL cap
    for line in ("seed = 0", "n_radial = 24", "dt0 = 0.1", "filter_strength = 1",
                 "cfl = 1.5"):
        key = line.split()[0]
        with pytest.raises(ConfigError, match=rf"t\.cfg:2: unknown key '{key}'"):
            parse_config_text(f"shape = circle(1)\n{line}\n", source="t.cfg")


def test_parse_config_text_range_checks():
    for line in ("m = 15", "m = 4096", "vol = 0", "t_end = 0",
                 "tol_stationary = 1", "snapshot_stride = 0"):
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
    with pytest.raises(ConfigError, match="finite"):
        parse_config_text("shape = circle(1)\nlaw = poly:nan,1\n")


def test_polynomial_law_from_config():
    cfg = parse_config_text("shape = circle(1)\nlaw = poly:-1,0,0,1\n")
    law = cfg.velocity_law()
    assert abs(law(1.0)) < 1e-15
    assert abs(law(2.0) - 7.0) < 1e-15
    assert law != quadratic_law()
    default = ScenarioConfig(shape="circle(1)").velocity_law()
    assert default == quadratic_law()


def test_as_dict_covers_every_key():
    cfg = parse_config_text(GOOD_CONFIG)
    d = cfg.as_dict()
    assert set(d) == {"shape", "vol", "m", "law", "t_end",
                      "tol_stationary", "snapshot_stride", "outdir"}
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


def test_cli_verify_halts_on_a_solver_failure(capsys):
    # a shape the solver cannot solve is a runtime halt, as in `run` and
    # `stability`; a shape that cannot be built stays a config error
    assert main(["verify", "--shape", "ellipse(3,0.4)", "--m", "32"]) == 3
    err = capsys.readouterr().err
    assert "runtime halt on 'ellipse(3,0.4)': boundary gradient" in err
    assert main(["verify", "--shape", "fourier(1;2:1.5)", "--m", "32"]) == 2
    assert "config error on 'fourier(1;2:1.5)'" in capsys.readouterr().err


@pytest.mark.parametrize("bad, code", [("ellipse(3,0.4)", 3), ("fourier(1;2:1.5)", 2)])
def test_cli_verify_halt_keeps_the_finished_reports(tmp_path, capsys, bad, code):
    # a battery halted by a shape it cannot solve (exit 3) or build (exit 2)
    # still writes the reports of the shapes before it
    jsonl = tmp_path / "verify.jsonl"
    assert main(["verify", "--shape", "circle(1)", "--shape", bad, "--m", "32",
                 "--json", str(jsonl)]) == code
    out = capsys.readouterr().out
    assert out.count(" PASS") == 14
    reports = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len(reports) == 14 and all(r["pass"] for r in reports)
    assert reports[0]["identity"] == "pohozaev"
    # halted on the first shape, the file is written and empty
    assert main(["verify", "--shape", bad, "--m", "32", "--json", str(jsonl)]) == code
    assert jsonl.read_text() == ""


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


@pytest.mark.parametrize("command", ["verify", "stability", "run"])
def test_cli_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.delenv("DROPFLOW_OUTDIR", raising=False)
    blocker = tmp_path / "file"         # a regular file as the parent directory
    blocker.write_text("")
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(GOOD_CONFIG + f"outdir = {blocker / 'out'}\n")
    argv = {
        "verify": ["verify", "--shape", "circle(1)", "--m", "16",
                   "--json", str(blocker / "r.jsonl")],
        "stability": ["stability", "--modes", "2", "--eps-grid", "0.1:0.1:1",
                      "--m", "32", "--out", str(blocker / "s.csv")],
        "run": ["run", str(cfg)],
    }[command]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("cannot write output:") and err.count("\n") == 1


def test_cli_verify_json_checks_its_directory_before_solving(tmp_path, capsys, monkeypatch):
    from dropflow import cli

    def no_solve(*args, **kw):
        raise AssertionError("solve_torsion ran before the --json path was checked")
    monkeypatch.setattr(cli, "solve_torsion", no_solve)
    for parent in (tmp_path / "missing", tmp_path / "file"):
        (tmp_path / "file").write_text("")
        code = main(["verify", "--m", "512", "--json", str(parent / "r.jsonl")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("cannot write output:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_cli_stability_checks_its_directory_before_sweeping(tmp_path, capsys, monkeypatch):
    from dropflow import cli

    def no_sweep(*args, **kw):
        raise AssertionError("sweep_stability ran before the --out path was checked")
    monkeypatch.setattr(cli, "sweep_stability", no_sweep)
    for parent in (tmp_path / "missing", tmp_path / "file"):
        (tmp_path / "file").write_text("")
        code = main(["stability", "--m", "1024", "--out", str(parent / "s.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("cannot write output:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("argv", [["verify", "--m", "512", "--json"],
                                  ["stability", "--m", "1024", "--out"]])
def test_cli_output_path_that_is_a_directory_exits_2_before_solving(tmp_path, capsys,
                                                                    monkeypatch, argv):
    from dropflow import cli, stability

    def no_solve(*args, **kw):
        raise AssertionError("solve_torsion ran before the output path was checked")
    monkeypatch.setattr(cli, "solve_torsion", no_solve)
    monkeypatch.setattr(stability, "solve_torsion", no_solve)
    (tmp_path / "dir").mkdir()
    assert main(argv + [str(tmp_path / "dir")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output:") and err.count("\n") == 1
    assert "is a directory" in err
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]


@pytest.mark.parametrize("grid", ["0.1:nan:2", "inf:0.2:2", "0.1:-inf:3"])
def test_cli_stability_rejects_non_finite_eps_bounds(tmp_path, capsys, grid):
    out = tmp_path / "s.csv"
    assert main(["stability", "--modes", "2", "--eps-grid", grid, "--m", "32",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "--eps-grid bounds must be finite\n"
    assert not out.exists()


def test_cli_stability_rejects_a_malformed_shape_before_sweeping(tmp_path, capsys,
                                                               monkeypatch):
    from dropflow import cli

    def no_sweep(*args, **kw):
        raise AssertionError("sweep_stability ran on a malformed --shape")
    monkeypatch.setattr(cli, "sweep_stability", no_sweep)
    out = tmp_path / "x.csv"
    assert main(["stability", "--shape", "foo(1)", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "foo" in err and err.count("\n") == 1
    assert not out.exists()


def test_cli_stability_rejects_nonpositive_vol(tmp_path, capsys):
    assert main(["stability", "--vol", "0", "--out", str(tmp_path / "s.csv")]) == 2
    assert "--vol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--vol", "0"], "--vol must be positive"),
    (["verify", "--n-radial", "1"], "--n-radial must be >= 2"),
    (["ball", "--vol", "0"], "--vol must be positive"),
    (["ball", "--n", "1"], "--n must be >= 2"),
    (["stability", "--m", "17"], "--m must be even and >= 16"),
    (["verify", "--vol", "inf"], "--vol must be positive"),
    (["verify", "--vol", "1e300"], "--vol must be positive"),
    (["stability", "--vol", "1e300"], "--vol must be positive"),
    (["ball", "--vol", "inf"], "--vol must be positive"),
    (["ball", "--n", "400"], "ball closed forms leave the float range"),
    (["stability", "--m", "2050", "--modes", "2", "--eps-grid", "0.1:0.1:1"],
     "--m must be even and >= 16"),
    (["verify", "--n-radial", "257"], "--n-radial must be >= 2 and <= 256"),
    (["stability", "--eps-grid", "0.1:0.2:0"], "--eps-grid N must be >= 1 and <= 10000"),
    (["stability", "--eps-grid", "0.1:0.2:100000000000"],
     "--eps-grid N must be >= 1 and <= 10000"),
])
def test_cli_rejects_out_of_range_arguments(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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
    stdout = capsys.readouterr().out
    # one serialization goes to both: the printed summary is the file's text
    assert stdout == (out / "summary.json").read_text()
    assert json.loads(stdout) == summary


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


def test_cli_run_summary_reports_stats(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DROPFLOW_OUTDIR", raising=False)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(GOOD_CONFIG + f"outdir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    stats = summary["stats"]
    assert stats["accepted_steps"] == summary["steps"]
    assert stats["stage_solves"] == 3 * stats["attempted_steps"]
    assert sum(stats["dt_bound"].values()) == stats["attempted_steps"]
    header = (out / "timeseries.csv").read_text().splitlines()[0]
    assert header == "t,J,lambda,deficit,asymmetry,max_Vn,dt"


def test_cli_run_summary_reports_blas_threads_and_ranges(tmp_path, capsys, monkeypatch):
    import os
    monkeypatch.delenv("DROPFLOW_OUTDIR", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(GOOD_CONFIG + f"outdir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                       "OMP_NUM_THREADS": None,
                                       "MKL_NUM_THREADS": None}
    # recorded, never set by the package
    assert "OMP_NUM_THREADS" not in os.environ
    assert "MKL_NUM_THREADS" not in os.environ
    stats = summary["stats"]
    assert 1.0 <= stats["cond_min"] <= stats["cond_max"]
    assert 0.0 <= stats["grad_tail_max"] < 1.0


def test_cli_run_summary_carries_the_decay_fit_samples(tmp_path, capsys, monkeypatch):
    # fourier(1;3:0.1) at m = 64 takes long steps: the fit samples the dense
    # output between the accepted states, so timeseries.csv alone holds
    # fewer rows inside the fit window than the fit used
    monkeypatch.delenv("DROPFLOW_OUTDIR", raising=False)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(f"shape = fourier(1;3:0.1)\nm = 64\nt_end = 20\noutdir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 0
    fit = json.loads((tmp_path / "out" / "summary.json").read_text())["decay_fit"]
    samples = [tuple(s) for s in fit["samples"]]
    assert len(samples) == fit["n_points"]
    with open(tmp_path / "out" / "timeseries.csv", newline="") as fh:
        rows = [(float(r["t"]), float(r["asymmetry"])) for r in csv.DictReader(fh)]
    lo, hi = _FIT_WINDOW
    inside = [row for row in rows if lo <= row[1] <= hi]
    assert 0 < len(inside) < 5 <= fit["n_points"]
    row_times = {t for t, _ in rows}
    assert [s for s in samples if s[0] in row_times] == inside
    # the summary's own samples reproduce its rate with the trapezoid weights
    tt, ll = np.array(samples).T
    ll = np.log(ll)
    h = np.diff(tt)
    w = np.append(h, 0.0) + np.insert(h, 0, 0.0)
    slope = np.polyfit(tt, ll, 1, w=np.sqrt(w))[0]
    assert abs(-slope / fit["rate"] - 1.0) < 1e-12
