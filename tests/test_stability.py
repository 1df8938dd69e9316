import csv
import math

import numpy as np
import pytest

from dropflow import (ball_closed_forms, ball_consistency_notes,
                      build_star_domain, faber_krahn_gap, l2_distance_lhs,
                      normalized_domain, serrin_deficit, solve_torsion,
                      stability_report, sweep_stability, total_energy,
                      write_sweep_csv)
from dropflow.stability import SWEEP_HEADER, omega_ball

R_STAR = (4.0 / math.pi) ** (1.0 / 3.0)


def test_omega_ball_low_dimensions():
    assert abs(omega_ball(2) - math.pi) < 1e-15
    assert abs(omega_ball(3) - 4 * math.pi / 3) < 1e-15
    assert abs(omega_ball(4) - math.pi**2 / 2) < 1e-15


def test_ball_closed_forms_frozen_values():
    b = ball_closed_forms(2, 1.0)
    assert abs(b.r_star - 1.0838521402785781) < 1e-15
    assert abs(b.lambda_star - 1.8452701486440282) < 1e-15
    assert abs(b.j_star - 5.535810445932086) < 1e-14
    assert abs(b.lambda_of_r(1.0) - 8.0 / math.pi) < 1e-15
    assert abs(b.j_second_of_r(b.r_star) - 37.6991118430775) < 1e-12


def test_ball_forms_dimension_three():
    vol = 2.0
    b = ball_closed_forms(3, vol)
    om = 4 * math.pi / 3
    assert abs(b.r_star - (5 * vol / om) ** 0.25) < 1e-15
    assert abs(b.lambda_of_r(1.3) - 15 * vol / (om * 1.3**5)) < 1e-13
    assert abs(b.lambda_star - 3.0 / b.r_star) < 1e-15


def test_ball_closed_forms_rejects_bad_input():
    with pytest.raises(ValueError):
        ball_closed_forms(1, 1.0)
    with pytest.raises(ValueError):
        ball_closed_forms(2, 0.0)


def test_j_minimum_sits_at_r_star():
    b = ball_closed_forms(2, 1.0)
    assert b.j_of_r(b.r_star) == b.j_star
    for h in (1e-3, 1e-2, 0.1):
        assert b.j_of_r(b.r_star * (1 + h)) > b.j_star
        assert b.j_of_r(b.r_star * (1 - h)) > b.j_star


def test_j_second_matches_finite_difference():
    b = ball_closed_forms(2, 1.0)
    r = b.r_star
    h = 1e-4 * r
    fd = (b.j_of_r(r + h) - 2 * b.j_of_r(r) + b.j_of_r(r - h)) / h**2
    assert abs(fd - b.j_second_of_r(r)) < 1e-6 * abs(fd)


def test_consistency_notes_expose_both_variants():
    notes = ball_consistency_notes(2, 1.0)
    assert abs(notes["j_star_direct"] - 5.535810445932086) < 1e-14
    assert abs(notes["j_star_coeff_2n_plus_2"] - 5.535810445932086) < 1e-14
    assert abs(notes["j_star_coeff_2n_plus_1"] - 4.613175371610072) < 1e-14
    assert notes["j_star_coefficients_consistent"]
    # at vol = 1 both J'' variants coincide; at vol != 1 only the vol^2
    # version survives a finite difference check
    assert abs(notes["j_second_vol_squared"] - notes["j_second_vol_linear"]) < 1e-12
    notes2 = ball_consistency_notes(2, 2.0)
    assert abs(notes2["j_second_vol_squared"] - notes2["j_second_vol_linear"]) > 1.0
    b2 = ball_closed_forms(2, 2.0)
    r = b2.r_star
    h = 1e-4 * r
    fd = (b2.j_of_r(r + h) - 2 * b2.j_of_r(r) + b2.j_of_r(r - h)) / h**2
    assert abs(fd - notes2["j_second_vol_squared"]) < 1e-5 * abs(fd)


def test_total_energy_unit_disk(disk_sol):
    assert abs(total_energy(disk_sol) - (8.0 / math.pi + math.pi)) < 1e-10


def test_serrin_deficit_unit_disk(disk_sol):
    expect = 2 * math.pi * (16.0 / math.pi**2 - 1.0) ** 2
    assert abs(serrin_deficit(disk_sol) - expect) < 1e-10
    assert abs(expect - 2.4241382212151223) < 1e-15


def test_serrin_deficit_vanishes_at_equilibrium():
    sol = solve_torsion(build_star_domain(f"circle({R_STAR!r})", 128), 1.0)
    assert serrin_deficit(sol) < 1e-24


def test_l2_distance_lhs_vanishes_at_equilibrium():
    sol = solve_torsion(build_star_domain(f"circle({R_STAR!r})", 128), 1.0)
    val, center = l2_distance_lhs(sol)
    assert val < 1e-20
    assert np.abs(center).max() < 1e-6


@pytest.mark.parametrize("a", [0.9, 1.2])
def test_l2_distance_lhs_offset_disk(a):
    # the disk's own centre is optimal, where every node has |x - x0| = a
    d = build_star_domain(f"circle({a})", 128).translated((0.3, -0.2))
    sol = solve_torsion(d, 1.0)
    val, center = l2_distance_lhs(sol)
    exact = 2.0 * math.pi * a * (0.5 * sol.lambda_ * a - 1.0) ** 2
    assert abs(val / exact - 1.0) < 1e-12
    assert np.abs(center - [0.3, -0.2]).max() < 1e-12
    val2, center2 = l2_distance_lhs(sol, x0=(0.35, -0.1))
    assert abs(val2 / exact - 1.0) < 1e-12
    assert np.abs(center2 - [0.3, -0.2]).max() < 1e-9


def test_faber_krahn_gap_zero_on_disks():
    for r in (0.7, 1.0, 1.6):
        sol = solve_torsion(build_star_domain(f"circle({r})", 128), 1.0)
        assert abs(faber_krahn_gap(sol)) < 1e-9


def test_faber_krahn_gap_positive_off_ball(ellipse_sol, fourier2_sol):
    assert faber_krahn_gap(ellipse_sol) > 1e-3
    assert faber_krahn_gap(fourier2_sol) > 1e-4


def test_scaled_area_lambda_product_invariant(fourier2_sol):
    base = fourier2_sol.domain.area**2 * fourier2_sol.lambda_
    scaled = solve_torsion(fourier2_sol.domain.scaled(2.0), fourier2_sol.vol)
    other = scaled.domain.area**2 * scaled.lambda_
    assert abs(other - base) < 1e-8 * abs(base)


def test_stability_report_degenerate_on_equilibrium_ball():
    sol = solve_torsion(build_star_domain(f"circle({R_STAR!r})", 128), 1.0)
    rep = stability_report(sol)
    assert rep.degenerate
    assert rep.ratio_thm1 == 0.0
    assert rep.fk_cor_ratio == 0.0
    assert rep.asymmetry < 1e-6
    assert rep.deficit < 1e-12
    assert abs(rep.energy - rep.j_star) < 1e-10


def test_stability_report_perturbed_shape(fourier2_sol):
    rep = stability_report(fourier2_sol)
    assert not rep.degenerate
    assert rep.asymmetry > 1e-3
    assert rep.deficit > 1e-3
    assert rep.ratio_thm1 > 0
    assert math.isfinite(rep.ratio_thm1)
    assert rep.fk_gap > 0
    assert rep.rhs_l2dist == rep.deficit
    assert rep.diam_over_rho0 >= rep.diam_over_rstar > 0


def test_normalized_domain_hits_ball_area():
    target = math.pi * R_STAR**2
    d1 = normalized_domain("fourier(1;2:0.1)")
    assert abs(d1.area - target) < 1e-12
    prebuilt = build_star_domain("ellipse(1.2,0.8)", 128)
    d2 = normalized_domain(prebuilt)
    assert abs(d2.area - target) < 1e-12


def test_sweep_rows_and_failure_isolation(tmp_path):
    rows = sweep_stability(shapes=["circle(1)", "fourier(1;2:1.5)",
                                   "fourier(1;3:0.1)"], m=64)
    assert len(rows) == 3
    assert not rows[0]["failed"]
    assert rows[1]["failed"] and "error" in rows[1]
    assert math.isnan(rows[1]["asymmetry"])
    assert not rows[2]["failed"]
    assert rows[2]["ratio_thm1"] > 0

    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert list(parsed[0].keys()) == list(SWEEP_HEADER)
    assert float(parsed[2]["ratio_thm1"]) == rows[2]["ratio_thm1"]


def test_sweep_isolates_solver_errors_only(monkeypatch):
    from dropflow import SolverError, stability

    def raise_solver_error(domain, vol):
        raise SolverError("forced solver failure")
    monkeypatch.setattr(stability, "solve_torsion", raise_solver_error)
    rows = sweep_stability(shapes=["circle(1)"], m=32)
    assert rows[0]["failed"] and rows[0]["error"] == "forced solver failure"
    assert math.isnan(rows[0]["deficit"])

    def raise_type_error(domain, vol):
        raise TypeError("programming error")
    monkeypatch.setattr(stability, "solve_torsion", raise_type_error)
    with pytest.raises(TypeError, match="programming error"):
        sweep_stability(shapes=["circle(1)"], m=32)


def test_sweep_mode_family_ratio_spread():
    rows = sweep_stability(modes=(2, 3), amplitudes=(0.05, 0.1), m=64)
    assert [row["k"] for row in rows] == [2, 2, 3, 3]
    ratios = np.array([row["ratio_thm1"] for row in rows])
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
    # within a mode the ratio is nearly amplitude-independent
    assert abs(ratios[0] - ratios[1]) < 0.3 * ratios[0]
    assert abs(ratios[2] - ratios[3]) < 0.3 * ratios[2]
