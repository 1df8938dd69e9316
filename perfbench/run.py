"""dropflow benchmark: one seeded workload per process, single-threaded.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from a source checkout: the program is imported from ./src, never from
an installed copy, and the run fails without printing a result when ./src
is missing.  `--trace 0` times the workload and prints the end-to-end
metrics; `--trace 1` reruns it with every layer wrapped in spans and
prints the per-layer metrics.  `--workload all` runs each workload in its
own process and prints the named end-to-end metrics of all three.  The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads: on the 2-core reference
# machine two OpenBLAS threads measured slower and noisier for M = 1024.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DROPFLOW_OUTDIR", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

# Machine-speed reference.  On a shared host the program runs up to 1.9x
# slower for seconds to minutes at a time, often longer than a run, so no
# statistic within a run removes it.  A fixed kernel of the program's kind
# of work, which calls nothing of dropflow, runs in bursts between ops, and
# each op's time is scaled by REFERENCE_MS over the kernel's time in the
# bursts around it.  REFERENCE_MS is about the kernel's time on the quiet
# 2-vCPU Xeon host the benchmark was tuned on, so the scaled times read as
# milliseconds on that host.
REFERENCE_MS = 5.5
REF_N = 384
REF_INTERVAL_S = 1.0
REF_BURST = 5

# Per-layer metrics of a traced run, in BENCHMARK.json order: (name, unit).
PER_LAYER = (
    ("torsion.solve_torsion.calls", "count"),
    ("torsion.solve_torsion.busy_s", "s"),
    ("torsion.solve_torsion.self_s", "s"),
    ("torsion.solve_torsion.errors", "count"),
    ("torsion.lu.busy_s", "s"),
    ("torsion.lu.flop_count", "flop"),
    ("torsion.lu.bytes_computed", "B"),
    ("torsion.lu.gflops", "GFLOP/s"),
    ("torsion.quadrature_data.busy_s", "s"),
    ("torsion.eval_interior.calls", "count"),
    ("torsion.eval_interior.points", "count"),
    ("torsion.eval_interior.busy_s", "s"),
    ("torsion.eval_interior.self_s", "s"),
    ("geometry.interior_quadrature.busy_s", "s"),
    ("geometry.boundary_distance.calls", "count"),
    ("geometry.boundary_distance.points", "count"),
    ("geometry.boundary_distance.busy_s", "s"),
    ("geometry.in_radius.calls", "count"),
    ("geometry.in_radius.busy_s", "s"),
    ("geometry.asymmetry_to_ball.calls", "count"),
    ("geometry.asymmetry_to_ball.busy_s", "s"),
    ("geometry.asymmetry_to_ball.nfev", "count"),
    ("geometry.rho_reflection_min.busy_s", "s"),
    ("geometry.contains.calls", "count"),
    ("geometry.contains.points", "count"),
    ("geometry.contains.busy_s", "s"),
    ("geometry.StarDomain.calls", "count"),
    ("geometry.StarDomain.busy_s", "s"),
    ("geometry.recentered.calls", "count"),
    ("spectral.eval_at_angles.calls", "count"),
    ("spectral.eval_at_angles.points", "count"),
    ("spectral.eval_at_angles.busy_s", "s"),
    ("spectral.deriv.calls", "count"),
    ("spectral.deriv.busy_s", "s"),
    ("dynamics.run_flow.calls", "count"),
    ("dynamics.run_flow.self_s", "s"),
    ("dynamics.advance_step.calls", "count"),
    ("dynamics.steps_accepted", "count"),
    ("dynamics.step_accept_ratio", "ratio"),
    ("dynamics.stage_solves", "count"),
    ("dynamics.attempted_steps_per_flow", "count"),
    ("dynamics.accepted_steps_per_flow", "count"),
    ("dynamics.stage_solves_per_flow", "count"),
    ("dynamics.solves_per_flow", "count"),
    ("identities.identity_suite.busy_s", "s"),
    ("identities.identity_suite.self_s", "s"),
    ("stability.stability_report.busy_s", "s"),
    ("stability.stability_report.self_s", "s"),
    ("stability.l2_distance_lhs.busy_s", "s"),
    ("stability.l2_distance_lhs.nfev", "count"),
    ("stability.rho0_estimate.busy_s", "s"),
    ("stability.normalized_domain.busy_s", "s"),
    ("config.parse_config.busy_s", "s"),
    ("cli.io.busy_s", "s"),
    ("cli.io.bytes", "B"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
)
SPAN_FIELDS = ("calls", "busy_s", "self_s", "errors")


def environment():
    """Machine and library versions the numbers were taken on."""
    import scipy
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = platform.processor() or "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        info["blas"] = "unknown"
    return info


def import_program():
    sys.path.insert(0, str(SRC))
    import dropflow
    import dropflow.cli  # noqa: F401  - the CLI is not imported by the package
    if Path(dropflow.__file__).resolve().parent != (SRC / "dropflow").resolve():
        raise ImportError(f"dropflow resolved to {dropflow.__file__}, not {SRC}")
    return dropflow


def run_op(op, tracer=None, op_id=0):
    """Time one op; returns (seconds, ok, accuracy, error message or None)."""
    if tracer is not None:
        tracer.op_id = op_id
        tracer.active = True
    t0 = time.perf_counter()
    try:
        out = op.run()
        err = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, err = None, f"{type(exc).__name__}: {exc}"
    sec = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if err is not None:
        return sec, False, {}, err
    try:
        ok, acc = op.check(out)
    except Exception as exc:  # unreadable or missing output fails the check
        return sec, False, {}, f"check: {type(exc).__name__}: {exc}"
    return sec, ok, acc, None if ok else "check failed"


class Reference:
    """The machine-speed reference kernel, and op times scaled by it.

    The kernel mixes the three kinds of work the program does: a
    Python-level loop of small numpy calls, a dense N x N log-distance
    matrix built elementwise, and its LU factorisation and solve.
    """

    def __init__(self):
        self.theta = np.linspace(0.0, 2.0 * np.pi, REF_N, endpoint=False)
        self.z = np.exp(1j * self.theta) * (1.0 + 0.1 * np.cos(3.0 * self.theta))
        self.bursts = []    # median kernel seconds of each burst
        self.pending = []   # (op, seconds) timed since the last burst
        self.scaled = []    # (op, scaled seconds)
        self.last = -float("inf")

    def kernel(self):
        import scipy.linalg
        th, z = self.theta, self.z
        acc = 0.0
        for i in range(150):
            acc += float(np.cos(th[:32] * i).sum())
        k = (np.log(np.abs(np.subtract.outer(z, z)) + np.eye(REF_N))
             * np.cos(np.subtract.outer(th, th)))
        lu = scipy.linalg.lu_factor(k + REF_N * np.eye(REF_N))
        return acc + scipy.linalg.lu_solve(lu, np.ones(REF_N))[0]

    def burst(self, force=False):
        """Time REF_BURST kernels if REF_INTERVAL_S has passed since the last burst."""
        if not force and time.perf_counter() - self.last < REF_INTERVAL_S:
            return
        times = []
        for _ in range(REF_BURST):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        self.last = time.perf_counter()
        self.close(float(np.median(times)))

    def close(self, kernel_s):
        """Scale the pending ops by the mean kernel time of this burst and the last."""
        around = 0.5 * (kernel_s + (self.bursts[-1] if self.bursts else kernel_s))
        self.scaled += [(op, sec * REFERENCE_MS / 1e3 / around) for op, sec in self.pending]
        self.pending = []
        self.bursts.append(kernel_s)

    def slowdown(self):
        """Median burst time over REFERENCE_MS."""
        return 1e3 * float(np.median(self.bursts)) / REFERENCE_MS


def measure(ops, seconds, tracer=None, reference=None):
    """Run ops for about `seconds`, stopping only before a boundary op.

    A block is the ops from one boundary to the next.  The run stops at the
    first boundary from which one more block, at the mean block time so far,
    would end after `seconds`; the first block always runs.  A `reference`
    runs its bursts between ops.
    """
    executed, records, failures, accuracy = [], [], [], {}
    start = time.perf_counter()
    blocks = 0
    for i, op in enumerate(ops):
        if op.boundary and executed:
            blocks += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / blocks > seconds:
                break
        if reference is not None:
            reference.burst()
        sec, ok, acc, err = run_op(op, tracer, i)
        executed.append(op)
        if ok:
            records.append((op, sec))
            if reference is not None:
                reference.pending.append((op, sec))
        else:
            failures.append(f"{op.label}: {err}")
        for key, val in acc.items():
            if val is None:
                continue
            lo, hi = accuracy.get(key, (val, val))
            accuracy[key] = (min(lo, val), max(hi, val))
    if reference is not None:
        reference.burst(force=True)
    return executed, records, failures, accuracy


def setup(workload, seed, workdir):
    """Import, generate the inputs and run the warm-up.

    Returns (dropflow package, op stream, warm-up op count, failures).
    """
    df = import_program()
    import workloads
    ops = workloads.make_ops(df, workload, seed, workdir)
    warmup = workloads.warmup_ops(df, workload, seed, workdir)
    failures = []
    for op in warmup:
        _, ok, _, err = run_op(op)
        if not ok:
            failures.append(f"warm-up {op.label}: {err}")
    return df, ops, len(warmup), failures


def setup_times(workload, seed):
    """Wall times of SETUP_REPEATS fresh processes that only set up.

    Returns (raw times, scale): reference bursts run before and after each
    process, and the scale is REFERENCE_MS over their median kernel time.
    """
    reference = Reference()
    reference.burst(force=True)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=str(ROOT), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        reference.burst(force=True)
    return times, 1.0 / reference.slowdown()


def layer_metrics(tracer, overhead_pct):
    summary = tracer.summary()

    def span(name, field):
        return summary.get(name, {}).get(field, 0)

    counters = tracer.counters
    values = {}
    for name, _unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in SPAN_FIELDS:
            values[name] = span(base, field)
        elif name in counters:
            values[name] = counters[name]
    lu_busy = span("torsion.lu", "busy_s")
    values["torsion.lu.gflops"] = (counters.get("torsion.lu.flop_count", 0) / lu_busy / 1e9
                                   if lu_busy else 0.0)
    flows = span("dynamics.run_flow", "calls")
    attempted = span("dynamics.advance_step", "calls")
    accepted = counters.get("dynamics.steps_accepted", 0)
    stage = tracer.count_children("torsion.solve_torsion", "dynamics.advance_step")
    flow_solves = tracer.count_in_ops_with("torsion.solve_torsion", "dynamics.run_flow")
    values.update({
        "dynamics.steps_accepted": accepted,
        "dynamics.step_accept_ratio": accepted / attempted if attempted else 0.0,
        "dynamics.stage_solves": stage,
        "dynamics.attempted_steps_per_flow": attempted / flows if flows else 0.0,
        "dynamics.accepted_steps_per_flow": accepted / flows if flows else 0.0,
        "dynamics.stage_solves_per_flow": stage / flows if flows else 0.0,
        "dynamics.solves_per_flow": flow_solves / flows if flows else 0.0,
        "trace.spans": len(tracer.t0),
        "trace.overhead_pct": overhead_pct,
    })
    for name, _unit in PER_LAYER:
        values.setdefault(name, 0)
    return values, summary


def print_layer_table(summary, counters):
    print("layer spans (calls, busy s, self s, errors):")
    for name in sorted(summary):
        s = summary[name]
        if s["calls"]:
            print(f"  {name:40s} {s['calls']:9d} {s['busy_s']:11.4f} {s['self_s']:11.4f} "
                  f"{s['errors']:4d}")
    for key in sorted(counters):
        print(f"  {key:40s} {counters[key]:.6g}")
    print("waiting: none recorded - one process, no queue; every span is busy time")


def run_workload(args, workdir):
    import workloads
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    setup_s = None
    if not args.trace:
        times, scale = setup_times(args.workload, args.seed)
        setup_s = scale * statistics.median(times)
        print("setup_s samples: " + ", ".join(f"{t:.4f}" for t in times)
              + f"; median scaled by {scale:.4f}")
    df, ops, attempted, failures = setup(args.workload, args.seed, workdir)

    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install(df)
        # both passes scaled by the reference, so that the host's speed
        # changes between them do not read as tracing overhead
        traced_ref, plain_ref = Reference(), Reference()
        executed, _, failed, accuracy = measure(ops, args.seconds, tracer, traced_ref)
        tracer.uninstall()
        _, _, rerun_failed, _ = measure(iter(executed), float("inf"), reference=plain_ref)
        traced_total = sum(sec for _, sec in traced_ref.scaled)
        plain_total = sum(sec for _, sec in plain_ref.scaled)
        overhead = 100.0 * (traced_total / plain_total - 1.0) if plain_total else 0.0
        attempted += len(executed)  # the untraced rerun
        failed += [f"untraced rerun {f}" for f in rerun_failed]
        values, summary = layer_metrics(tracer, overhead)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
        print_layer_table(summary, tracer.counters)
        print(f"tracing overhead: {overhead:.2f}% ({traced_total:.3f} s traced vs "
              f"{plain_total:.3f} s untraced, scaled, over the same {len(executed)} ops)")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        reference = Reference()
        executed, records, failed, accuracy = measure(ops, args.seconds, reference=reference)
        light_s, heavy_s = workloads.class_times(reference.scaled)
        raw_light_s, raw_heavy_s = workloads.class_times(records)
        named = workloads.summarize(args.workload, records)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        named.update({"setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB")})
        for kind in ("light", "heavy"):
            ms = np.array([sec for op, sec in records if op.kind == kind]) * 1e3
            if ms.size:
                print(f"{kind}: {ms.size} samples, ms at p0/p10/p25/p50/p75: " + " ".join(
                    f"{np.percentile(ms, q):.4f}" for q in (0, 10, 25, 50, 75)))
        print(f"reference kernel: {len(reference.bursts)} bursts, slowdown "
              f"{reference.slowdown():.4f} (median burst over {REFERENCE_MS} ms)")
        print(f"unscaled: light {1e3 * raw_light_s:.4f} ms, heavy {1e3 * raw_heavy_s:.4f} ms")
        for name, (value, unit) in named.items():
            print(f"{args.workload}: {name} = {value:.6g} {unit}")
        print("named: " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in named.items()}))
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
                   "light_norm_ms": {"value": 1e3 * light_s, "unit": "ms"},
                   "heavy_norm_ms": {"value": 1e3 * heavy_s, "unit": "ms"}}
    for key, (lo, hi) in sorted(accuracy.items()):
        print(f"accuracy: {key} min {lo:.6g} max {hi:.6g}")
    failed = failures + failed
    for line in failed[:20]:
        print(f"FAILED {line}")
    attempted += len(executed)
    return {"correct": not failed, "attempted": attempted,
            "failed": len(failed), "metrics": metrics}


def run_all(args):
    """Each workload in its own process; prints every named end-to-end metric."""
    import workloads
    named, correct = {}, True
    for wl in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {wl} failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        for line in lines:
            if line.startswith("named: "):
                for key, val in json.loads(line[len("named: "):]).items():
                    name = key if "." in key else f"{wl}.{key}"
                    named[name] = val
    for name, val in named.items():
        print(f"{name} = {val['value']:.6g} {val['unit']}")
    print(json.dumps({"correct": correct, "metrics": named}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("solve", "diagnose", "flow", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "dropflow" / "__init__.py").is_file():
        print(f"error: no dropflow source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        run_all(args)
        return 0
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            _, _, _, failures = setup(args.workload, args.seed, str(workdir))
            return 1 if failures else 0
        result = run_workload(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
