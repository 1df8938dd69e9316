"""Per-operation oracles for the benchmark.

Each check takes what the program produced for one operation and returns
``(ok, accuracy)``: ``ok`` is False when the output is wrong, and
``accuracy`` holds the numbers printed beside the times.  The checks use
closed forms computed here, or the program's own output files, never the
timing.  A failed check counts its operation as failed.
"""
from __future__ import annotations

import csv
import json
import math

ELLIPSE_REL_TOL = 1e-10
MONOTONE_SLACK = 1e-10          # as acceptance criterion c06
LAMBDA_STAR_REL_TOL = 1e-6
DECAY_R2_MIN = 0.99
DISK_RHO_REL_TOL = 0.01
VERIFY_REPORTS_PER_SHAPE = 14   # 6 identities, trace expanded to 9 members


def ellipse_lambda(a, b, vol=1.0):
    """Exact multiplier of the torsion problem on an ellipse with semi-axes a, b.

    u = c (1 - x^2/a^2 - y^2/b^2) with c = lambda / (2 (1/a^2 + 1/b^2)) and
    int u = c pi a b / 2 = vol.
    """
    return 4.0 * vol * (a * a + b * b) / (math.pi * a**3 * b**3)


def ball_lambda_star(vol=1.0):
    """Multiplier of the planar equilibrium ball, r* = (4 vol / pi)^(1/3)."""
    r_star = (4.0 * vol / math.pi) ** (1.0 / 3.0)
    return 2.0 / r_star


def check_ellipse(lambda_, a, b, vol=1.0):
    err = abs(lambda_ - ellipse_lambda(a, b, vol)) / ellipse_lambda(a, b, vol)
    return err <= ELLIPSE_REL_TOL, {"ellipse_lambda_rel_err": err}


def check_pohozaev_report(report):
    """A Fourier solve must pass the program's Pohozaev identity."""
    return bool(report.passed), {"pohozaev_residual": float(report.residual)}


def check_verify(exit_code, json_text):
    """Every identity report of one `dropflow verify --shape S --json F` passes.

    The worst residual is kept per tolerance class (the tolerance each
    report carries), so that loose interior identities do not hide the
    tight boundary ones.
    """
    reports = [json.loads(line) for line in json_text.splitlines() if line.strip()]
    acc = {}
    for rep in reports:
        key = f"worst_residual_tol_{rep['tolerance']:g}"
        acc[key] = max(acc.get(key, 0.0), float(rep["residual"]))
    ok = (exit_code == 0 and len(reports) == VERIFY_REPORTS_PER_SHAPE
          and all(rep["pass"] and rep["residual"] <= rep["tolerance"] for rep in reports))
    return ok, acc


def read_timeseries(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(r[key]) for r in rows] for key in rows[0]} if rows else {}


def max_increment(values):
    return max((b - a for a, b in zip(values, values[1:])), default=-math.inf)


def check_flow(exit_code, summary, series, vol=1.0):
    """A decay flow ends stationary at the ball, monotonely, with a clean fit."""
    lam_star = ball_lambda_star(vol)
    fit = summary.get("decay_fit") or {}
    asym_inc = max_increment(series.get("asymmetry", []))
    def_inc = max_increment(series.get("deficit", []))
    lam_err = abs(summary["lambda_final"] - lam_star) / lam_star
    r2 = fit.get("r_squared")
    acc = {
        "steps": summary["steps"],
        "asymmetry_final": summary["asymmetry_final"],
        "lambda_star_rel_err": lam_err,
        "decay_rate": fit.get("rate"),
        "decay_r_squared": r2,
        "max_asymmetry_increment": asym_inc,
        "max_deficit_increment": def_inc,
    }
    ok = (exit_code == 0 and summary["status"] == "stationary"
          and asym_inc <= MONOTONE_SLACK and def_inc <= MONOTONE_SLACK
          and lam_err <= LAMBDA_STAR_REL_TOL
          and r2 is not None and r2 >= DECAY_R2_MIN and fit.get("rate", 0.0) > 0.0)
    return ok, acc


def check_sweep(exit_code, csv_path, rows_expected):
    """No sweep row failed, and every Theorem-1 ratio is finite."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ratios = [float(r["ratio_thm1"]) for r in rows]
    ok = (exit_code == 0 and len(rows) == rows_expected
          and all(math.isfinite(x) for x in ratios))
    finite = [x for x in ratios if math.isfinite(x)]
    return ok, {"ratio_thm1_min": min(finite, default=math.nan),
                "ratio_thm1_max": max(finite, default=math.nan)}


def check_disk_reflection(rho, dist):
    """The reflection radius of an off-centre unit disk is its offset."""
    err = abs(rho - dist) / dist
    return err <= DISK_RHO_REL_TOL, {"disk_rho_rel_err": err}
