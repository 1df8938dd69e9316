import csv
import math

import numpy as np
import pytest

from dropflow import (FlowHalt, Trajectory, VelocityLaw, advance_step,
                      ball_closed_forms, build_star_domain,
                      dissipation_residuals, fit_decay_rate, normalized_domain,
                      polynomial_law, quadratic_law, run_flow,
                      save_timeseries_csv, solve_torsion)

R_STAR = (4.0 / math.pi) ** (1.0 / 3.0)


@pytest.fixture(scope="module")
def decay_traj():
    d = normalized_domain("fourier(1;2:0.1)", m=64)
    return run_flow(d, 1.0, t_end=4.0)


def test_velocity_law_validation():
    with pytest.raises(ValueError):
        VelocityLaw(coeffs=(0.0, 1.0))       # F(1) = 1, no rest state
    with pytest.raises(ValueError):
        VelocityLaw(coeffs=(1.0, -1.0))      # decreasing law
    with pytest.raises(ValueError):
        VelocityLaw(coeffs=(-1.0,))          # degree 0
    cubic = VelocityLaw(coeffs=(-1.0, 0.0, 0.0, 1.0))
    assert abs(cubic(1.0)) < 1e-15
    assert not cubic.is_quadratic


def test_quadratic_law_values():
    law = quadratic_law()
    assert law.is_quadratic
    assert law(1.0) == 0.0
    assert abs(law(2.0) - 3.0) < 1e-15
    assert abs(law(0.5) + 0.75) < 1e-15
    assert abs(law.deriv(3.0) - 6.0) < 1e-15
    vec = law(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(vec, [-1.0, 0.0, 3.0])


def test_polynomial_law_helper():
    law = polynomial_law([-1, 0, 0.5, 0.5])
    assert not law.is_quadratic
    assert abs(law(1.0)) < 1e-15


def test_advance_step_keeps_equilibrium_ball():
    d = build_star_domain(f"circle({R_STAR!r})", 64)
    d2 = advance_step(d, 1.0, quadratic_law(), 0.01)
    assert np.abs(d2.radii - d.radii).max() < 1e-12


def test_advance_step_reuses_given_solution():
    d = build_star_domain("fourier(1;2:0.1)", 64)
    sol = solve_torsion(d, 1.0)
    a = advance_step(d, 1.0, quadratic_law(), 0.005)
    b = advance_step(d, 1.0, quadratic_law(), 0.005, sol=sol)
    assert np.array_equal(a.radii, b.radii)


def test_advance_step_halts_on_radius_collapse():
    # a large disk shrinks (|Du| < 1 there); a huge step drives a stage
    # radius negative
    d = build_star_domain("circle(2)", 64)
    with pytest.raises(FlowHalt) as info:
        advance_step(d, 1.0, quadratic_law(), 20.0)
    assert info.value.reason == "radius_collapse"


def test_hold_at_equilibrium_ball():
    d = build_star_domain(f"circle({R_STAR!r})", 128)
    traj = run_flow(d, 1.0, t_end=0.3, tol_stationary=1e-300)
    b = ball_closed_forms(2, 1.0)
    assert traj.status == "t_end"
    assert traj.max_vns.max() < 1e-6
    assert np.abs(traj.energy - b.j_star).max() < 1e-8
    assert len(traj.times) > 5


def test_immediate_stationary_detection():
    d = build_star_domain(f"circle({R_STAR!r})", 64)
    traj = run_flow(d, 1.0, t_end=1.0)
    assert traj.status == "stationary"
    assert traj.times[-1] == 0.0


def test_decay_run_monotone_and_convergent(decay_traj):
    traj = decay_traj
    assert traj.status == "t_end"
    jj = traj.energy
    slack = 1e-10 * max(1.0, np.abs(jj).max())
    assert np.all(np.diff(jj) <= slack)
    assert traj.asymmetries[-1] < 1e-3 < traj.asymmetries[0]
    assert traj.deficits[-1] < 1e-4 < traj.deficits[0]
    b = ball_closed_forms(2, 1.0)
    assert jj[-1] - b.j_star < 1e-4
    assert jj[-1] - b.j_star > -1e-10


def test_stationary_exit_from_near_ball():
    d = build_star_domain(f"circle({R_STAR * 1.01!r})", 64)
    traj = run_flow(d, 1.0, t_end=50.0, tol_stationary=1e-5)
    assert traj.status == "stationary"
    assert traj.times[-1] < 50.0
    assert traj.max_vns[-1] < 1e-5


def test_dt_max_is_respected():
    d = normalized_domain("fourier(1;2:0.1)", m=64)
    traj = run_flow(d, 1.0, t_end=0.1, dt_max=0.004)
    assert traj.dts[1:].max() <= 0.004 + 1e-15


def test_flow_recenters_drifting_domain():
    # disk of radius 1 about (0.3, 0) sampled from the origin: the
    # parameterization center starts far from the barycenter
    psi = 2 * np.pi * np.arange(64) / 64
    r = 0.3 * np.cos(psi) + np.sqrt(1.0 - 0.09 * np.sin(psi) ** 2)
    from dropflow import Samples
    d = build_star_domain(Samples(tuple(r)), 64)
    assert np.linalg.norm(d.barycenter - d.center) > 0.1 * d.in_radius
    traj = run_flow(d, 1.0, t_end=0.2)
    final = traj.final_state.domain
    assert np.linalg.norm(final.center) > 0.1
    assert np.linalg.norm(final.barycenter - final.center) <= 0.1 * final.in_radius + 1e-9


@pytest.mark.parametrize("fail", ["solve", "recenter"])
def test_flow_halts_with_data_when_recentering_fails(monkeypatch, fail):
    from dropflow import ShapeError, SolverError, StarDomain, dynamics
    d = build_star_domain("fourier(1;1:0.05,2:0.1)", 32)
    if fail == "solve":
        real_solve = dynamics.solve_torsion

        def solve(domain, vol, **kw):
            # only the recentered domain has moved its star center
            if np.any(domain.center != 0.0):
                raise SolverError("forced recentering failure")
            return real_solve(domain, vol, **kw)
        monkeypatch.setattr(dynamics, "solve_torsion", solve)
    else:
        def recentered(self, point=None, m=None):
            raise ShapeError("forced recentering failure")
        monkeypatch.setattr(StarDomain, "recentered", recentered)
    traj = run_flow(d, 1.0, t_end=1.0, recenter_fraction=0.0)
    assert traj.status == "halted"
    assert traj.halt_reason.startswith("recenter_failed")
    assert "forced recentering failure" in traj.halt_reason
    # the accepted step before the failed recentering is kept
    assert len(traj.times) == 2 and traj.times[-1] > 0.0
    assert traj.final_state.t == traj.times[-1]
    assert np.all(traj.final_state.domain.center == 0.0)


@pytest.mark.parametrize("law", [quadratic_law(), polynomial_law([-1, 0, 1])],
                         ids=["quadratic", "poly"])
def test_energy_guard_rejects_steps_for_every_law(monkeypatch, law):
    from dropflow import StarDomain, dynamics

    def deform(domain, vol, law, dt, **kw):
        # a step that deepens the mode-3 bump, away from the ball: J rises
        return StarDomain(domain.center,
                          domain.radii * (1.0 + 0.05 * np.cos(3 * domain.theta)))
    monkeypatch.setattr(dynamics, "advance_step", deform)
    traj = run_flow(build_star_domain("fourier(1;2:0.1)", 32), 1.0, law=law,
                    t_end=1.0, max_rejects=3)
    assert traj.status == "halted"
    assert traj.halt_reason == "energy_increase"
    assert len(traj.times) == 1


def test_timeseries_csv_roundtrip(tmp_path, decay_traj):
    path = tmp_path / "ts.csv"
    save_timeseries_csv(decay_traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == ["t", "J", "lambda", "deficit",
                                    "asymmetry", "max_Vn", "dt"]
    assert len(rows) == len(decay_traj.times)
    assert float(rows[-1]["J"]) == decay_traj.energy[-1]
    assert float(rows[0]["dt"]) == 0.0


def test_snapshot_stride_and_final_state(decay_traj):
    traj = decay_traj
    n_accepted = len(traj.times) - 1
    expect = 1 + n_accepted // 50
    assert len(traj.states) in (expect, expect + 1)
    assert traj.states[0].t == 0.0
    assert traj.final_state is traj.states[-1]
    assert traj.final_state.t == traj.times[-1]


def test_dissipation_residuals_small_on_decay(decay_traj):
    rep = dissipation_residuals(decay_traj)
    assert len(rep.interval) == len(decay_traj.times) - 1
    assert np.median(rep.interval) < 0.02
    assert rep.integrated[-1] < 0.02
    assert rep.integrated[0] == 0.0


def test_dissipation_residuals_needs_two_states():
    traj = Trajectory(times=np.array([0.0]), energy=np.array([1.0]),
                      lambdas=np.array([1.0]), deficits=np.array([0.0]),
                      asymmetries=np.array([0.0]), max_vns=np.array([0.0]),
                      dts=np.array([0.0]), dissipations=np.array([0.0]),
                      states=[None], status="t_end")
    with pytest.raises(ValueError):
        dissipation_residuals(traj)


def test_fit_decay_rate_on_decay_run(decay_traj):
    fit = fit_decay_rate(decay_traj)
    assert fit.signal
    assert fit.n_points >= 5
    assert fit.rate > 0
    assert fit.r_squared > 0.98
    # linearized mode-2 prediction: rate = 2 (k - 1) / r_star
    assert abs(fit.rate - 2.0 / R_STAR) < 0.1 * (2.0 / R_STAR)


def test_fit_decay_rate_no_signal():
    d = build_star_domain(f"circle({R_STAR!r})", 64)
    traj = run_flow(d, 1.0, t_end=0.05, tol_stationary=1e-300)
    fit = fit_decay_rate(traj)
    assert not fit.signal
    assert fit.n_points == 0
    assert fit.rate is None


def test_fit_decay_rate_too_few_points():
    traj = Trajectory(times=np.array([0.0, 0.1, 0.2]),
                      energy=np.ones(3), lambdas=np.ones(3),
                      deficits=np.ones(3),
                      asymmetries=np.array([1e-3, 9e-4, 8e-4]),
                      max_vns=np.ones(3), dts=np.zeros(3),
                      dissipations=np.zeros(3), states=[None], status="t_end")
    with pytest.raises(ValueError):
        fit_decay_rate(traj)


def _mode_amplitude(domain, k):
    return 2.0 * abs(np.fft.rfft(domain.radii)[k]) / domain.m


def test_step_count_to_stationarity_hardly_depends_on_m():
    # the explicit stepper's stiffness bound doubled the steps with M
    steps = []
    for m in (32, 64, 128):
        traj = run_flow(normalized_domain("fourier(1;2:0.1)", m=m), 1.0,
                        t_end=20.0)
        assert traj.status == "stationary"
        steps.append(len(traj.times) - 1)
    assert max(steps) <= 1.3 * min(steps), steps


def test_step_damps_mode_three_at_the_linear_ball_rate():
    # about the ball, radius mode k decays at 2 (k - 1) / r_star; the
    # integrating factor takes that damping exactly, also at a step where
    # explicit RK4 is 1% off
    d = build_star_domain(f"fourier({R_STAR!r};3:1e-6)", 64)
    dt = 0.25
    d2 = advance_step(d, 1.0, quadratic_law(), dt)
    ratio = _mode_amplitude(d2, 3) / _mode_amplitude(d, 3)
    assert abs(ratio / math.exp(-4.0 * dt / R_STAR) - 1.0) < 1e-4


def test_step_beyond_the_explicit_bound_damps_high_modes():
    from dropflow import dynamics
    d = build_star_domain(f"fourier({R_STAR!r};20:1e-8)", 64)
    law = quadratic_law()
    dt = 4.0 * dynamics._stiff_dt(d, solve_torsion(d, 1.0), law)
    d2 = advance_step(d, 1.0, law, dt)
    ratio = _mode_amplitude(d2, 20) / _mode_amplitude(d, 20)
    # explicit RK4 amplifies the mode about 30x at this step
    assert ratio < 1.0
    assert abs(ratio / math.exp(-38.0 * dt / R_STAR) - 1.0) < 1e-3


def test_flow_stats_add_up():
    # the drifting disk of test_flow_recenters_drifting_domain recenters
    psi = 2 * np.pi * np.arange(64) / 64
    r = 0.3 * np.cos(psi) + np.sqrt(1.0 - 0.09 * np.sin(psi) ** 2)
    from dropflow import Samples
    traj = run_flow(build_star_domain(Samples(tuple(r)), 64), 1.0, t_end=0.2)
    st = traj.stats
    assert st["accepted_steps"] == len(traj.times) - 1
    assert st["attempted_steps"] == st["accepted_steps"] + sum(st["rejects"].values())
    assert sum(st["dt_bound"].values()) == st["attempted_steps"]
    assert set(st["dt_bound"]) <= {"cfl", "accuracy", "dt_max", "t_end", "growth"}
    assert st["stage_solves"] == 3 * st["attempted_steps"]
    assert st["recenters"] >= 1
    assert st["solves"] == 1 + 4 * st["attempted_steps"] + st["recenters"]


def test_flow_stats_count_ball_evaluations():
    # one asymmetry search per accepted state, at least one evaluation each
    traj = run_flow(normalized_domain("fourier(1;3:0.1)", m=32), 1.0, t_end=0.5)
    assert traj.stats["ball_evals"] >= len(traj.times)


def test_trajectory_stats_default_empty():
    traj = Trajectory(np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1),
                      np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1),
                      [None], "t_end")
    assert traj.stats == {}


def test_energy_halt_names_du_outside_the_checked_range(monkeypatch):
    # a small disk has |Du| = 4 vol / (pi r^3) ~ 19.9 > 10; shrinking it
    # raises J, and the halt reason says that |Du| left the law's check
    from dropflow import StarDomain, dynamics

    def shrink(domain, vol, law, dt, **kw):
        return StarDomain(domain.center, 0.9 * domain.radii)
    monkeypatch.setattr(dynamics, "advance_step", shrink)
    traj = run_flow(build_star_domain("circle(0.4)", 32), 1.0, t_end=1.0,
                    max_rejects=3)
    assert traj.status == "halted"
    assert traj.halt_reason.startswith("energy_increase: |Du| spans [")
    assert "[0.1, 10]" in traj.halt_reason
    assert traj.stats["rejects"] == {"energy_increase": 4}
