"""Command line front end.

Subcommands:
    run        evolve a scenario config; writes time series, snapshots and a
               JSON summary into the output directory
    verify     run the integral-identity battery on one or more shapes
    stability  stability-metric sweep over perturbed balls (CSV)
    ball       equilibrium-ball closed forms as JSON

Exit codes: 0 success, 1 verification failure, 2 configuration/usage error,
3 runtime halt (flow stopped early, sweep row failed).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import parse_config
from .dynamics import fit_decay_rate, run_flow, save_timeseries_csv
from .errors import ConfigError, ShapeError, SolverError
from .geometry import build_star_domain, save_domain_csv
from .identities import identity_suite
from .stability import (ball_closed_forms, ball_consistency_notes,
                        sweep_stability, write_sweep_csv)
from .torsion import solve_torsion

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_HALT = 3

_DEFAULT_VERIFY_SHAPES = (
    "circle(1)",
    "ellipse(1.2,0.8)",
    "fourier(1;2:0.1)",
    "fourier(1;3:0.1,5:0.03)",
)


def _outdir(cfg_outdir):
    out = os.environ.get("DROPFLOW_OUTDIR", cfg_outdir)
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_run(args):
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = _outdir(cfg.outdir)
    try:
        domain = build_star_domain(cfg.shape, m=cfg.m)
        law = cfg.velocity_law()
        traj = run_flow(domain, cfg.vol, law=law, t_end=cfg.t_end,
                        dt0=cfg.dt0 or None, cfl=cfg.cfl,
                        tol_stationary=cfg.tol_stationary,
                        snapshot_stride=cfg.snapshot_stride,
                        filter_alpha=cfg.filter_strength or None)
    except (ShapeError, SolverError) as exc:
        print(f"runtime halt: {exc}", file=sys.stderr)
        return EXIT_HALT
    save_timeseries_csv(traj, out / "timeseries.csv")
    save_domain_csv(traj.final_state.domain, out / "final_shape.csv")
    for i, st in enumerate(traj.states):
        save_domain_csv(st.domain, out / f"snapshot_{i:04d}.csv")
    try:
        fit = fit_decay_rate(traj)
        fit_obj = (None if not fit.signal else
                   {"rate": fit.rate, "amplitude": fit.amplitude,
                    "r_squared": fit.r_squared, "n_points": fit.n_points})
    except ValueError:
        fit_obj = None
    summary = {
        "version": __version__,
        "status": traj.status,
        "halt_reason": traj.halt_reason,
        "steps": int(len(traj.times) - 1),
        "t_final": float(traj.times[-1]),
        "J_final": float(traj.energy[-1]),
        "lambda_final": float(traj.lambdas[-1]),
        "deficit_final": float(traj.deficits[-1]),
        "asymmetry_final": float(traj.asymmetries[-1]),
        "max_vn_final": float(traj.max_vns[-1]),
        "decay_fit": fit_obj,
        "config": cfg.as_dict(),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary, indent=2))
    return EXIT_HALT if traj.status == "halted" else EXIT_OK


def cmd_verify(args):
    shapes = args.shape or list(_DEFAULT_VERIFY_SHAPES)
    reports = []
    failed = False
    json_lines = []
    for spec in shapes:
        try:
            d = build_star_domain(spec, m=args.m)
            sol = solve_torsion(d, args.vol)
        except (ShapeError, SolverError) as exc:
            print(f"config error on {spec!r}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        for rep in identity_suite(sol, n_radial=args.n_radial):
            verdict = "PASS" if rep.passed else "FAIL"
            failed |= not rep.passed
            print(f"{spec:28s} {rep.identity:12s} lhs={rep.lhs: .10e} "
                  f"rhs={rep.rhs: .10e} residual={rep.residual:.3e} {verdict}")
            json_lines.append(rep.to_json())
            reports.append(rep)
    if args.json:
        Path(args.json).write_text("\n".join(json_lines) + "\n")
    n_pass = sum(r.passed for r in reports)
    print(f"{n_pass}/{len(reports)} identity checks passed")
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def cmd_stability(args):
    try:
        modes = tuple(int(k) for k in args.modes.split(","))
        lo, hi, n = args.eps_grid.split(":")
        amplitudes = np.linspace(float(lo), float(hi), int(n))
    except ValueError:
        print("bad --modes/--eps-grid", file=sys.stderr)
        return EXIT_CONFIG
    if args.vol <= 0.0:
        print("--vol must be positive", file=sys.stderr)
        return EXIT_CONFIG
    shapes = [args.shape] if args.shape else None
    rows = sweep_stability(modes=modes, amplitudes=amplitudes, vol=args.vol,
                           m=args.m, shapes=shapes)
    write_sweep_csv(rows, args.out)
    n_fail = sum(r["failed"] for r in rows)
    for row in rows:
        if row["failed"]:
            print(f"row failed: {row['shape']}: {row.get('error', '?')}",
                  file=sys.stderr)
    print(f"wrote {len(rows)} rows to {args.out} ({n_fail} failed)")
    return EXIT_HALT if n_fail else EXIT_OK


def cmd_ball(args):
    b = ball_closed_forms(args.n, args.vol)
    notes = ball_consistency_notes(args.n, args.vol)
    payload = {
        "n": b.n, "vol": b.vol, "r_star": b.r_star,
        "lambda_star": b.lambda_star, "j_star": b.j_star,
        "lambda_at_r_star": b.lambda_of_r(b.r_star),
        "j_second_at_r_star": b.j_second_of_r(b.r_star),
        "consistency": notes,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="dropflow", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="evolve a scenario config")
    pr.add_argument("config", help="path to a key=value scenario file")
    pr.set_defaults(func=cmd_run)

    pv = sub.add_parser("verify", help="integral-identity battery")
    pv.add_argument("--shape", action="append",
                    help="shape spec (repeatable; default: standard family)")
    pv.add_argument("--vol", type=float, default=1.0)
    pv.add_argument("--m", type=int, default=128)
    pv.add_argument("--n-radial", type=int, default=24, dest="n_radial")
    pv.add_argument("--json", help="write one JSON object per report here")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("stability", help="perturbed-ball stability sweep")
    ps.add_argument("--modes", default="2,3,4")
    ps.add_argument("--eps-grid", default="0.02:0.2:10", dest="eps_grid")
    ps.add_argument("--shape", help="single shape instead of the sweep")
    ps.add_argument("--vol", type=float, default=1.0)
    ps.add_argument("--m", type=int, default=128)
    ps.add_argument("--out", default="sweep.csv")
    ps.set_defaults(func=cmd_stability)

    pb = sub.add_parser("ball", help="equilibrium-ball closed forms")
    pb.add_argument("--n", type=int, default=2)
    pb.add_argument("--vol", type=float, default=1.0)
    pb.set_defaults(func=cmd_ball)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
