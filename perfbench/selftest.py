"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest perfbench/selftest.py -q

They check that inputs follow the seed, that every oracle flags a
perturbed result, the timing and self-time arithmetic, and that a
smoke-size run of each workload passes its checks.  About a minute.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _stream(gen, n):
    return list(itertools.islice(gen, n))


@pytest.fixture(scope="module")
def df():
    return run.import_program()


# -- seeded inputs ---------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda s: _stream(workloads.solve_inputs(s), 60),
    workloads.diagnose_inputs,
    lambda s: workloads.flow_inputs(s, "out"),
])
def test_inputs_follow_the_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_inputs_stay_in_their_families():
    for item in _stream(workloads.solve_inputs(3), 200):
        if item["kind"] == "fourier":
            body = item["spec"][len("fourier("):-1].split(";")[1]
            amps = [float(part.split(":")[1]) for part in body.split(",")]
            assert 1 <= len(amps) <= 3 and sum(map(abs, amps)) <= 0.15 + 1e-12
    flows = workloads.flow_inputs(3, "out")
    assert sorted((f["m"], f["k"]) for f in flows) == \
        [(32, k) for k in (2, 3, 4) for _ in range(2)] + [(64, k) for k in (2, 3, 4)]
    for k in (2, 3, 4):
        eps = sorted(f["eps"] for f in flows if f["k"] == k and f["m"] == 32)
        assert 0.05 <= eps[0] <= 0.085 <= eps[1] <= 0.12
    assert {f["eps"] for f in flows if f["m"] == 64} == {0.1}
    items = workloads.diagnose_inputs(3)
    assert [i["spec"] for i in items[:4]] == list(workloads.STANDARD_SHAPES)
    assert [i["op"] for i in items].count("sweep") == 1
    assert [(i["dist"], i["alpha"]) for i in items if i["op"] == "reflect"] == \
        list(workloads.REFLECTION_DISKS)


def test_passes_repeat_in_a_seeded_order(df, tmp_path):
    ops = _stream(workloads.make_ops(df, "flow", 5, str(tmp_path)), 27)
    passes = [[op.key for op in ops[i:i + 9]] for i in (0, 9, 18)]
    assert all(sorted(keys) == list(range(9)) for keys in passes)
    assert passes[0] != passes[1] or passes[1] != passes[2]
    assert [op.boundary for op in ops] == [i % 9 == 0 for i in range(27)]


# -- oracles ----------------------------------------------------------------------

def test_ellipse_oracle():
    exact = checks.ellipse_lambda(1.2, 0.8)
    assert checks.check_ellipse(exact, 1.2, 0.8)[0]
    assert not checks.check_ellipse(exact * (1 + 1e-8), 1.2, 0.8)[0]


def test_pohozaev_oracle_flags_a_perturbed_solve(df):
    sol = df.torsion.solve_torsion(df.geometry.build_star_domain("fourier(1;3:0.1)", 64), 1.0)
    assert checks.check_pohozaev_report(df.identities.check_pohozaev(sol))[0]
    sol.lambda_ *= 1 + 1e-3
    assert not checks.check_pohozaev_report(df.identities.check_pohozaev(sol))[0]


def _verify_lines(residual=1e-12, passed=True, n=checks.VERIFY_REPORTS_PER_SHAPE):
    rep = {"identity": "pohozaev", "lhs": 1.0, "rhs": 1.0, "residual": residual,
           "tolerance": 1e-5, "pass": passed, "metadata": {}}
    return "\n".join(json.dumps(rep) for _ in range(n)) + "\n"


def test_verify_oracle():
    assert checks.check_verify(0, _verify_lines())[0]
    assert not checks.check_verify(1, _verify_lines())[0]
    assert not checks.check_verify(0, _verify_lines(passed=False))[0]
    assert not checks.check_verify(0, _verify_lines(residual=2e-5))[0]
    assert not checks.check_verify(0, _verify_lines(n=13))[0]


def _flow_result():
    lam = checks.ball_lambda_star()
    summary = {"status": "stationary", "steps": 10, "lambda_final": lam,
               "asymmetry_final": 1e-8,
               "decay_fit": {"rate": 1.9, "r_squared": 0.999}}
    series = {"asymmetry": [0.1, 0.05, 0.01], "deficit": [1.0, 0.5, 0.1]}
    return summary, series


@pytest.mark.parametrize("perturb", [
    lambda s, t: s.update(status="t_end"),
    lambda s, t: s.update(lambda_final=s["lambda_final"] * (1 + 1e-5)),
    lambda s, t: s["decay_fit"].update(r_squared=0.98),
    lambda s, t: s.update(decay_fit=None),
    lambda s, t: t["asymmetry"].append(0.01 + 1e-9),
    lambda s, t: t["deficit"].append(0.1 + 1e-9),
])
def test_flow_oracle_flags_each_perturbation(perturb):
    summary, series = _flow_result()
    assert checks.check_flow(0, summary, series)[0]
    perturb(summary, series)
    assert not checks.check_flow(0, summary, series)[0]


def test_sweep_oracle(tmp_path):
    path = tmp_path / "sweep.csv"
    header = "shape,k,eps,asymmetry,deficit,ratio_thm1,fk_gap,fk_cor_ratio,lhs_l2dist\n"
    path.write_text(header + "fourier(1;2:0.1),2,0.1,1,1,0.3,1,1,1\n")
    assert checks.check_sweep(0, path, 1)[0]
    assert not checks.check_sweep(3, path, 1)[0]
    path.write_text(header + "fourier(1;2:0.1),2,0.1,nan,nan,nan,nan,nan,nan\n")
    assert not checks.check_sweep(0, path, 1)[0]


def test_reflection_oracle():
    assert checks.check_disk_reflection(0.2005, 0.2)[0]
    assert not checks.check_disk_reflection(0.2 * 1.02, 0.2)[0]


# -- tracer -----------------------------------------------------------------------

def test_self_time_on_a_synthetic_span_tree():
    tr = spans.Tracer()
    root = tr.record("cli.main", 0.0, 10.0)
    a = tr.record("torsion.solve_torsion", 1.0, 4.0, parent=root)
    b = tr.record("torsion.solve_torsion", 5.0, 9.0, parent=root)
    tr.record("torsion.lu", 6.0, 7.0, parent=b)
    tr.record("torsion.lu", 2.0, 2.5, parent=a)
    assert tr.self_times().tolist() == [3.0, 2.5, 3.0, 1.0, 0.5]
    s = tr.summary()
    assert s["cli.main"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0, "errors": 0}
    assert s["torsion.solve_torsion"]["busy_s"] == 7.0
    assert s["torsion.solve_torsion"]["self_s"] == 5.5
    assert tr.count_children("torsion.lu", "torsion.solve_torsion") == 2
    assert tr.count_children("torsion.lu", "cli.main") == 0


def test_install_records_and_uninstall_restores(df):
    original = df.torsion.solve_torsion
    tr = spans.Tracer()
    tr.install(df)
    assert df.torsion.solve_torsion is not original
    assert df.dynamics.solve_torsion is df.torsion.solve_torsion
    tr.active = True
    try:
        df.torsion.solve_torsion(df.geometry.build_star_domain("circle(1)", 32), 1.0)
    finally:
        tr.active = False
        tr.uninstall()
    assert df.torsion.solve_torsion is original and df.dynamics.solve_torsion is original
    s = tr.summary()
    assert s["torsion.solve_torsion"]["calls"] == 1
    assert s["torsion.lu"]["calls"] == 3
    assert tr.count_children("torsion.lu", "torsion.solve_torsion") == 3
    assert tr.counters["torsion.lu.flop_count"] == pytest.approx(2 / 3 * 32**3)


def test_missing_names_record_zero_calls():
    pkg = types.SimpleNamespace(torsion=types.ModuleType("dropflow.torsion"))
    tr = spans.Tracer()
    tr.install(pkg)
    values, _ = run.layer_metrics(tr, 0.0)
    assert values["torsion.solve_torsion.calls"] == 0
    assert values["dynamics.solves_per_flow"] == 0


# -- timing arithmetic -------------------------------------------------------------

def _op(kind, key=-1, boundary=False):
    return workloads.Op(kind, f"{kind} {key}", boundary, lambda: None, lambda out: (True, {}),
                        key=key)


def test_class_times_take_each_inputs_median_then_the_mean():
    records = [(_op("light", 0), 3.0), (_op("light", 1), 5.0), (_op("light", 0), 1.0),
               (_op("light", 1), 7.0), (_op("light", 0), 2.0), (_op("heavy", 2), 10.0),
               (_op("heavy", 2), 12.0)]
    assert workloads.class_times(records) == (4.0, 11.0)


def test_reference_scales_each_op_by_the_bursts_around_it():
    ref = run.Reference()
    ref.close(0.010)
    ref.pending = [(_op("light"), 0.02)]
    ref.close(0.012)
    assert ref.pending == [] and len(ref.scaled) == 1
    assert ref.scaled[0][1] == pytest.approx(0.02 * run.REFERENCE_MS / 1e3 / 0.011)
    ref.burst()
    ref.burst()
    assert len(ref.bursts) == 3 and ref.slowdown() > 0


def test_measure_runs_whole_blocks():
    ops = [_op("light", i % 3, boundary=i % 3 == 0) for i in range(30)]
    executed, records, failures, _ = run.measure(iter(ops), 0.0)
    assert len(executed) == len(records) == 3 and failures == []


# -- smoke runs -------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_its_checks(df, workload, tmp_path):
    ops = workloads.make_ops(df, workload, 1, str(tmp_path))
    executed, records, failures, _ = run.measure(ops, 0.0)
    assert failures == []
    assert {op.kind for op in executed} == {"light", "heavy"}
    light_s, heavy_s = workloads.class_times(records)
    assert light_s > 0 and heavy_s > 0
    assert all(math.isfinite(v) for v, _ in workloads.summarize(workload, records).values())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_the_metrics_named_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in run.PER_LAYER]
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--workload", "diagnose", "--seed", "3", "--seconds", "0",
                      "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]
        for m in spec[key]:
            value = result["metrics"][m["name"]]
            assert value["unit"] == m["unit"] and math.isfinite(value["value"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
    assert not os.path.exists(tmp_path / ".perfbench_work")
