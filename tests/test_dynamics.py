import csv
import math
from collections import Counter

import numpy as np
import pytest

from dropflow import (FlowHalt, Samples, Trajectory, VelocityLaw, advance_step,
                      ball_closed_forms, build_star_domain,
                      dissipation_residuals, fit_decay_rate, normalized_domain,
                      polynomial_law, quadratic_law, run_flow,
                      save_timeseries_csv, solve_torsion)
from dropflow.spectral import mode_tail_fraction

from conftest import energy_gap_rate

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
    assert cubic != quadratic_law()


def test_quadratic_law_values():
    law = quadratic_law()
    assert law == polynomial_law([-1, 0, 1])
    assert law(1.0) == 0.0
    assert abs(law(2.0) - 3.0) < 1e-15
    assert abs(law(0.5) + 0.75) < 1e-15
    assert abs(law.deriv(3.0) - 6.0) < 1e-15
    vec = law(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(vec, [-1.0, 0.0, 3.0])


def test_velocity_law_takes_lists_and_tuples_as_polyval_does():
    law = polynomial_law([-1.0, 0.5, 0.25, 0.25])
    c = np.asarray(law.coeffs)
    for s in ([2.0], (0.5, 2.0), [[0.5], [3.0]]):
        expected = np.polynomial.polynomial.polyval(s, c)
        assert np.array_equal(law(s), expected)
        assert np.shape(law(s)) == np.shape(s)
    assert np.array_equal(law.deriv((0.5, 2.0)), [0.5 + 0.5 * 0.5 + 0.75 * 0.25,
                                                  0.5 + 0.5 * 2.0 + 0.75 * 4.0])


def test_polynomial_law_helper():
    law = polynomial_law([-1, 0, 0.5, 0.5])
    assert law != quadratic_law()
    assert abs(law(1.0)) < 1e-15


def _step(d, dt, law=None):
    """The domain after one `advance_step` of the volume-1 flow from d,
    started from d's own solve."""
    law = quadratic_law() if law is None else law
    return advance_step(d, 1.0, law, dt, solve_torsion(d, 1.0), Counter())[0]


def test_advance_step_keeps_equilibrium_ball():
    d = build_star_domain(f"circle({R_STAR!r})", 64)
    d2 = _step(d, 0.01)
    assert np.abs(d2.radii - d.radii).max() < 1e-12


def test_advance_step_reuses_given_solution():
    # the step starts from its caller's solve and makes only its three
    # stage solves
    d = build_star_domain("fourier(1;2:0.1)", 64)
    sol, stats = solve_torsion(d, 1.0), Counter()
    a, _ = advance_step(d, 1.0, quadratic_law(), 0.005, sol, stats)
    b = _step(d, 0.005)
    assert np.array_equal(a.radii, b.radii)
    assert (stats["solves"], stats["stage_solves"]) == (3, 3)


def test_advance_step_halts_on_radius_collapse():
    # a large disk shrinks (|Du| < 1 there); a huge step drives a stage
    # radius negative
    d = build_star_domain("circle(2)", 64)
    with pytest.raises(FlowHalt) as info:
        _step(d, 20.0)
    assert info.value.reason == "radius_collapse"


def test_advance_step_stays_in_mode_space(monkeypatch):
    # the stages and the step never go back to samples to differentiate,
    # resample or integrate them: a step makes exactly the
    # transforms of its four solves (the DtN pair and the 4M radii each)
    # and four domains built from modes (one inverse each), plus one
    # forward transform of each of the four radius rates and one of the
    # reference ball's radius
    calls = {}
    for name in ("rfft", "irfft", "fft", "ifft"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kw):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kw)
        monkeypatch.setattr(np.fft, name, counted)
    d = build_star_domain("fourier(1;2:0.1)", 64)
    calls.clear()
    d2 = _step(d, 0.01)
    assert calls == {"rfft": 4 + 4 + 1, "irfft": 4 * 2 + 4}
    assert d2.m == 64 and 0.0 < np.abs(d2.radii - d.radii).max() < 0.01


def test_stage_domain_halts_on_negative_modes_radius():
    from dropflow import ShapeError, dynamics
    th = 2 * np.pi * np.arange(32) / 32
    modes = np.fft.rfft(0.2 + np.cos(th))           # negative near theta = pi
    with pytest.raises(FlowHalt) as info:
        dynamics._stage_domain(np.zeros(2), modes)
    assert info.value.reason == "radius_collapse"
    modes[2] = np.inf                               # non-finite stays a ShapeError
    with pytest.raises(ShapeError):
        dynamics._stage_domain(np.zeros(2), modes)


def test_velocity_law_derivative_is_cached_and_exact(monkeypatch):
    law = polynomial_law([-1.0, 0.5, 0.25, 0.25])
    s = np.linspace(0.1, 3.0, 7)
    dc = np.polynomial.polynomial.polyder(np.asarray(law.coeffs))
    expected = np.polynomial.polynomial.polyval(s, dc)

    def forbidden(*args, **kw):
        raise AssertionError("derivative coefficients recomputed")
    monkeypatch.setattr(np.polynomial.polynomial, "polyder", forbidden)
    assert np.array_equal(law.deriv(s), expected)


def test_hold_at_equilibrium_ball():
    d = build_star_domain(f"circle({R_STAR!r})", 128)
    traj = run_flow(d, 1.0, t_end=3.0, tol_stationary=1e-300)
    b = ball_closed_forms(2, 1.0)
    assert traj.status == "t_end"
    assert traj.max_vns.max() < 1e-6
    assert np.abs(traj.energy - b.j_star).max() < 1e-8
    assert len(traj.times) > 5
    # on the ball sigma_2 = F'(1) lambda*/2 = lambda*; the first step is
    # 0.2 / sigma_2, and the error estimate, about 0 here, never grows a
    # step by more than the controller's clip of 2
    assert abs(traj.dts[1] * b.lambda_star / 0.2 - 1.0) < 1e-12
    assert np.all(traj.dts[2:] <= 2.0 * traj.dts[1:-1])


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


def test_stationary_on_the_step_that_lands_on_t_end():
    # the step that brings max |V| under tol_stationary is the one capped to
    # end at t_end: the run is stationary, not merely at its end time
    d = build_star_domain("fourier(1;3:0.1)", 64)
    free = run_flow(d, 1.0, t_end=20.0)
    assert free.status == "stationary"
    capped = run_flow(d, 1.0, t_end=float(free.times[-1]))
    assert capped.status == "stationary"
    assert np.array_equal(capped.times, free.times)
    assert capped.max_vns[-1] < 1e-7


def test_dt_max_is_respected():
    d = normalized_domain("fourier(1;2:0.1)", m=64)
    traj = run_flow(d, 1.0, t_end=0.1, dt_max=0.004)
    assert traj.dts[1:].max() <= 0.004 + 1e-15


def _offset_disk(dist, m):
    """Unit disk about (dist, 0), sampled about the origin."""
    psi = 2 * np.pi * np.arange(m) / m
    r = dist * np.cos(psi) + np.sqrt(1.0 - dist**2 * np.sin(psi) ** 2)
    return build_star_domain(Samples(tuple(r)), m)


def test_flow_recenters_drifting_domain():
    from dropflow import dynamics
    # the parameterization center starts far from the barycenter
    d = _offset_disk(0.3, 64)
    frac = dynamics._RECENTER_FRACTION
    assert np.linalg.norm(d.barycenter - d.center) > frac * d.radii.min()
    traj = run_flow(d, 1.0, t_end=0.2)
    final = traj.final_state.domain
    assert np.linalg.norm(final.center) > 0.1
    assert np.linalg.norm(final.barycenter - final.center) <= frac * final.radii.min() + 1e-9


# fourier(1;1:0.05,2:0.1) is parameterized off its barycentre, by less
# than a tenth of its least radius: unrecentered, its ball keeps an offset
# that Lawson's scheme does not hold fixed, and the flow took 40 steps with
# 2 rejects; recentered at 3 % drift it takes 8 and none
@pytest.mark.parametrize("start, m, t_end, status, recenters, steps", [
    (0.3, 64, 0.2, "t_end", 1, 3),
    (0.5, 64, 0.2, "t_end", 1, 3),
    ("fourier(1;1:0.05,2:0.1)", 32, 20.0, "stationary", 1, 8),
    ("fourier(1;1:0.1,3:0.15)", 32, 20.0, "stationary", 1, 7),
])
def test_pinned_recenter_and_step_counts(start, m, t_end, status, recenters, steps):
    # offset disks and mode-1 starts, each recentered once by the drift
    # test against the least radius sample
    d = build_star_domain(start, m) if isinstance(start, str) else _offset_disk(start, m)
    traj = run_flow(d, 1.0, t_end=t_end)
    assert traj.status == status
    assert (traj.stats["recenters"], traj.stats["accepted_steps"]) == (recenters, steps)


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
    monkeypatch.setattr(dynamics, "_RECENTER_FRACTION", 0.0)
    traj = run_flow(d, 1.0, t_end=1.0)
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

    def deform(domain, vol, law, dt, *args):
        # a step that deepens the mode-3 bump, away from the ball: J rises
        return StarDomain(domain.center,
                          domain.radii * (1.0 + 0.05 * np.cos(3 * domain.theta))), None
    monkeypatch.setattr(dynamics, "advance_step", deform)
    monkeypatch.setattr(dynamics, "_MAX_REJECTS", 3)
    traj = run_flow(build_star_domain("fourier(1;2:0.1)", 32), 1.0, law=law,
                    t_end=1.0)
    assert traj.status == "halted"
    assert traj.halt_reason == "energy_increase"
    assert len(traj.times) == 1


def test_rejected_step_retries_at_half_size_once(monkeypatch):
    from dropflow import dynamics
    real_step, dts = dynamics.advance_step, []

    def step(domain, vol, law, dt, *args):
        dts.append(dt)
        if len(dts) == 1:
            raise FlowHalt("forced")
        return real_step(domain, vol, law, dt, *args)
    monkeypatch.setattr(dynamics, "advance_step", step)
    traj = run_flow(normalized_domain("fourier(1;2:0.1)", m=32), 1.0, t_end=1.0)
    assert traj.stats["rejects"] == {"forced": 1}
    assert dts[1] == dts[0] / 2.0 and traj.dts[1] == dts[1]
    # the halved step is the controller's own: no separate cap holds it, and
    # once it is accepted the controller grows the next attempt from it
    assert "retry" not in traj.stats["dt_bound"]
    assert dts[2] > dts[1]


def _flow_with_ratios(monkeypatch, ratio_of=None):
    """The normalized mode-2 flow at M = 32 with each step's error ratio,
    or with the ratio `ratio_of(true ratio)` put in its place."""
    from dropflow import dynamics
    real_ratio, ratios = dynamics._Step.error_ratio, []

    def error_ratio(step, *args):
        r, k5 = real_ratio(step, *args)
        ratios.append(r if ratio_of is None else ratio_of(r))
        return ratios[-1], k5
    monkeypatch.setattr(dynamics._Step, "error_ratio", error_ratio)
    return run_flow(normalized_domain("fourier(1;2:0.1)", m=32), 1.0, t_end=20.0), ratios


def test_accepted_steps_follow_the_elementary_controller(monkeypatch):
    # dt_next = dt * min(max(0.9 r^(-1/4), 0.2), 2): the exponent is
    # 1/(q + 1) for the third-order embedded estimate, and no memory of
    # the last ratio holds the growth back
    traj, ratios = _flow_with_ratios(monkeypatch)
    assert traj.status == "stationary" and traj.stats["rejects"] == {}
    dts = traj.dts[1:]
    assert len(ratios) == len(dts) >= 5
    for r, dt, dt_next in zip(ratios, dts, dts[1:]):
        assert 0.0 < r <= 1.0
        assert dt_next == pytest.approx(dt * min(max(0.9 * r ** -0.25, 0.2), 2.0),
                                        rel=1e-13)


def test_a_zero_error_ratio_doubles_the_step(monkeypatch):
    traj, _ = _flow_with_ratios(monkeypatch, ratio_of=lambda r: 0.0)
    assert traj.status != "halted" and traj.stats["rejects"] == {}
    assert traj.stats["dt_bound"]["error"] >= 3
    dts = traj.dts[1:]
    assert dts[1] == 2.0 * dts[0] and dts[2] == 2.0 * dts[1]


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


def _exponential_trajectory(steps, a=0.5, c=2.0):
    """A trajectory with the exact energy J = a exp(-ct) and D = J'."""
    tt = np.concatenate([[0.0], np.cumsum(steps)])
    jj = a * np.exp(-c * tt)
    n = len(tt)
    return Trajectory(times=tt, energy=jj, lambdas=np.ones(n), deficits=np.zeros(n),
                      asymmetries=np.zeros(n), max_vns=np.zeros(n), dts=np.zeros(n),
                      dissipations=-c * jj, states=[None], status="t_end")


def _trapezoid_residuals(traj):
    """|dJ/dt - h/2 (D0 + D1) / h| per interval, relative to the mean."""
    jj, dd = traj.energy, traj.dissipations
    return np.abs(np.diff(jj) / np.diff(traj.times) / (0.5 * (dd[1:] + dd[:-1])) - 1.0)


def test_dissipation_residuals_end_corrected_rule():
    # at uneven steps of 0.1-0.3 the corrected rule (now the logarithmic
    # mean) reads the exact balance far below the trapezoid
    traj = _exponential_trajectory(np.tile([0.1, 0.3, 0.2], 10))
    rep = dissipation_residuals(traj)
    assert np.median(rep.interval) * 20.0 < np.median(_trapezoid_residuals(traj))
    assert rep.integrated[-1] < 1e-3
    # the logarithmic mean is exact for an exponential D, with two states and
    # over long intervals too, where the trapezoid is far off
    two = _exponential_trajectory([5.0])
    assert dissipation_residuals(two).interval[0] < 1e-12 < _trapezoid_residuals(two)[0]


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
    # the explicit stepper's stiffness bound doubled the steps with M; the
    # error-controlled steps, with mode 0 damped about the ball, reach it in
    # at most 40 solves at every M
    steps = []
    for m in (32, 64, 128, 256):
        traj = run_flow(normalized_domain("fourier(1;2:0.1)", m=m), 1.0,
                        t_end=20.0)
        assert traj.status == "stationary"
        assert traj.stats["rejects"] == {} and traj.stats["solves"] <= 40
        steps.append(len(traj.times) - 1)
    assert max(steps) <= 1.1 * min(steps), steps


def test_step_damps_mode_three_at_the_linear_ball_rate():
    # about the ball, radius mode k decays at 2 (k - 1) / r_star; the
    # integrating factor takes that damping exactly, also at a step where
    # explicit RK4 is 1% off
    d = build_star_domain(f"fourier({R_STAR!r};3:1e-6)", 64)
    dt = 0.25
    d2 = _step(d, dt)
    ratio = _mode_amplitude(d2, 3) / _mode_amplitude(d, 3)
    assert abs(ratio / math.exp(-4.0 * dt / R_STAR) - 1.0) < 1e-4


def test_step_damps_mode_zero_at_three_lambda_star():
    # about the ball the volume-normalized mode 0 decays at 3 lambda*; the
    # integrating factor takes it exactly, at twice explicit RK4's bound
    b = ball_closed_forms(2, 1.0)
    d = build_star_domain(f"circle({R_STAR * (1.0 + 1e-6)!r})", 64)
    dt = 1.0                    # explicit RK4's bound is 2.785 / (3 lambda*) = 0.50
    d2 = _step(d, dt)
    ratio = (d2.radii.mean() - b.r_star) / (d.radii.mean() - b.r_star)
    assert abs(ratio / math.exp(-3.0 * b.lambda_star * dt) - 1.0) < 1e-4
    # the exact ball is a fixed point of every step, however long
    ball = build_star_domain(f"circle({R_STAR!r})", 64)
    d5 = _step(ball, 5.0)
    assert np.abs(d5.radii - ball.radii).max() < 1e-13


def _offset_ball(dist, phase, m):
    """B_{r*} about dist * e^{i phase}, sampled about the origin."""
    psi = 2 * np.pi * np.arange(m) / m - phase
    return dist * np.cos(psi) + np.sqrt(R_STAR**2 - (dist * np.sin(psi)) ** 2)


def test_step_holds_a_ball_off_the_star_center():
    # a flow settles on a ball about its barycentre, off the star center by
    # up to the recentering drift; the step's reference ball is the exact
    # ball that mode 1 centres, so that ball stays put over a long step
    # (1e-4 with the reference ball about the star center)
    for m in (32, 64):
        for frac in (0.005, 0.01, 0.02, 0.03):
            for phase in 2 * np.pi * np.arange(5) / 5 + 0.4:
                d = build_star_domain(Samples(tuple(_offset_ball(frac * R_STAR, phase, m))), m)
                d2 = _step(d, 5.0)
                assert np.abs(d2.radii - d.radii).max() < 1e-12, (m, frac, phase)


# these starts settle on balls up to 3 % of r* off the star center, below
# the recentering drift: a reference ball that is not exact there (an
# expansion in the offset) is no fixed point of the step, and such a flow
# stalls at max |V| ~ 1e-7 to 1e-6 until t_end
@pytest.mark.parametrize("m", [32, 64])
@pytest.mark.parametrize("start, t_stationary, solves", [
    (0.01, 6.80, 25),
    (0.02, 6.80, 25),
    (0.028, 6.80, 25),
    ("fourier(1;1:0.02,3:0.1)", 7.44, 29),
    ("fourier(1;1:0.025,3:0.1)", 7.45, 29),
    ("fourier(1;1:0.02,2:0.1)", 15.43, 33),
])
def test_flows_off_the_star_center_end_stationary(start, t_stationary, solves, m):
    if isinstance(start, str):
        d = build_star_domain(start, m)
    else:
        # the offset ball with 0.03 r* cos 3 theta added to its radius
        psi = 2 * np.pi * np.arange(m) / m
        r = _offset_ball(start * R_STAR, 0.0, m) + 0.03 * R_STAR * np.cos(3 * psi)
        d = build_star_domain(Samples(tuple(r)), m)
    traj = run_flow(d, 1.0, t_end=20.0)
    assert traj.status == "stationary"
    assert round(float(traj.times[-1]), 2) == t_stationary
    st = traj.stats
    assert (st["solves"], st["rejects"], st["recenters"]) == (solves, {}, 0)


# starts whose mode 1 puts the disk's center beyond r* (|p| = 0.3 and 0.2
# against r* = 0.234 and 0.108): no disk of radius r* about p holds the
# star center, and the reference ball must stay finite until the first
# recentering moves the center
@pytest.mark.parametrize("shape, vol, steps, solves", [
    ("fourier(1;1:0.3)", 0.01, 7, 45),
    ("fourier(1;1:0.2)", 0.001, 8, 57),
])
def test_flows_from_mode_one_beyond_r_star_end_stationary(shape, vol, steps, solves):
    from dropflow.dynamics import _ball_modes
    d = build_star_domain(shape, 32)
    r_star = ball_closed_forms(2, vol).r_star
    assert 2.0 * abs(d.modes[1]) / d.m > r_star
    assert np.all(np.isfinite(_ball_modes(r_star, d.modes)))
    for dt in (1e-3, 1e-2):
        d2, _ = advance_step(d, vol, quadratic_law(), dt, solve_torsion(d, vol), Counter())
        assert np.all(np.isfinite(d2.modes)) and d2.radii.min() > 0.0
    traj = run_flow(d, vol, t_end=20.0)
    st = traj.stats
    assert traj.status == "stationary" and st["recenters"] == 1
    assert (st["accepted_steps"], st["solves"]) == (steps, solves)


def test_phi_functions_match_their_exact_series():
    from fractions import Fraction
    from dropflow.dynamics import _phi
    z = np.array([0.0, -1e-9, -0.3, -0.999, -1.0, -1.001, -4.0, -40.0])
    got = _phi(z)
    for i, zi in enumerate(z):
        x = Fraction(zi)
        for k in (1, 2, 3):
            exact = sum(x**j / math.factorial(j + k) for j in range(200))
            assert abs(got[k - 1][i] / float(exact) - 1.0) < 1e-14, (zi, k)


def test_dense_output_reproduces_the_accepted_states(decay_traj):
    # at each accepted time the dense output of the step that ends there
    # has the accepted state's asymmetry, and at the start it is the start
    from dropflow.geometry import asymmetry_to_ball
    traj = decay_traj
    assert len(traj.dense) == len(traj.times) - 1
    for t, a in zip(traj.times, traj.asymmetries):
        dense_a, _ = asymmetry_to_ball(traj.domain_at(t), R_STAR)
        assert abs(dense_a / a - 1.0) < 1e-2, t
    start = traj.states[0].domain
    assert np.abs(traj.domain_at(0.0).radii - start.radii).max() < 1e-13
    with pytest.raises(ValueError):
        traj.domain_at(traj.times[-1] + 1.0)


def test_step_beyond_the_explicit_bound_damps_high_modes():
    d = build_star_domain(f"fourier({R_STAR!r};20:1e-8)", 64)
    law = quadratic_law()
    sol = solve_torsion(d, 1.0)
    # explicit RK4's stability bound for the top mode M/2, whose rate about a
    # near-ball state is close to F'(|Du|) (lambda/2) M/2
    s_max = float(sol.boundary_grad.max())
    rate = abs(law.deriv(s_max)) * 0.5 * abs(sol.lambda_) * 32.0
    rate *= float((d.speed / d.radii).max())
    dt = 4.0 * (2.5 / rate)
    d2 = _step(d, dt, law)
    ratio = _mode_amplitude(d2, 20) / _mode_amplitude(d, 20)
    # explicit RK4 amplifies the mode about 30x at this step
    assert ratio < 1.0
    assert abs(ratio / math.exp(-38.0 * dt / R_STAR) - 1.0) < 1e-3


@pytest.mark.parametrize("start, m, tail", [
    ("fourier(1;12:0.05)", 32, 0.34210967),
    ("fourier(1;12:0.05)", 48, 0.08415858),
    ("fourier(1;8:0.05)", 32, 0.04528235),
])
def test_flow_drops_the_nyquist_mode_at_the_resolution_limit(start, m, tail):
    # the integrating factor does not damp the Nyquist mode, which the rate
    # map grows; each new state sets it to 0, else these starts halt on
    # failed solves with that mode grown to about 5
    traj = run_flow(build_star_domain(start, m), 1.0, t_end=20.0, snapshot_stride=1)
    assert traj.status == "stationary"
    # the error estimate leaves out the dropped Nyquist mode too
    assert traj.stats["rejects"] == {}
    assert len(traj.states) == len(traj.times)
    assert all(s.domain.modes[-1] == 0 for s in traj.states[1:])
    assert traj.stats["grad_tail_max"] <= tail * (1 + 1e-6)


def test_flow_stats_add_up():
    # the drifting disk of test_flow_recenters_drifting_domain recenters
    traj = run_flow(_offset_disk(0.3, 64), 1.0, t_end=0.2)
    st = traj.stats
    assert st["accepted_steps"] == len(traj.times) - 1
    assert st["attempted_steps"] == st["accepted_steps"] + sum(st["rejects"].values())
    assert sum(st["dt_bound"].values()) == st["attempted_steps"]
    assert set(st["dt_bound"]) <= {"error", "dt_max", "t_end"}
    assert st["stage_solves"] == 3 * st["attempted_steps"]
    assert st["recenters"] >= 1
    assert st["solves"] == 1 + 4 * st["attempted_steps"] + st["recenters"]


def test_flow_stats_count_ball_evaluations():
    # one asymmetry search per accepted state, at least one evaluation each
    traj = run_flow(normalized_domain("fourier(1;3:0.1)", m=32), 1.0, t_end=0.5)
    assert traj.stats["ball_evals"] >= len(traj.times)


def test_flow_stats_report_condition_and_gradient_tail_ranges():
    traj = run_flow(normalized_domain("fourier(1;3:0.1)", m=32), 1.0, t_end=0.5)
    st = traj.stats
    conds = [s.solution.condition_estimate for s in traj.states]
    assert 1.0 <= st["cond_min"] <= min(conds)
    assert max(conds) <= st["cond_max"] < 1e8
    tails = [mode_tail_fraction(np.fft.rfft(s.solution.boundary_grad))
             for s in traj.states]
    assert max(tails) <= st["grad_tail_max"] < 1e-3


@pytest.mark.parametrize("k", [2, 3, 4])
def test_energy_gap_decays_at_the_linear_ball_rate(k):
    # the slowest mode decays at sigma_k = (k - 1) lambda*, and so does
    # D / 2 (J - J*); the error control keeps the flow that close to it
    traj = run_flow(normalized_domain(f"fourier(1;{k}:0.1)", m=64), 1.0, t_end=20.0)
    lam = ball_closed_forms(2, 1.0).lambda_star
    assert abs(energy_gap_rate(traj) - (k - 1) * lam) < 1e-3


def test_pinned_mode_three_flow():
    # fourier(1;3:0.1) at M = 32 to stationarity, pinned to the results
    # of error-controlled steps
    traj = run_flow(build_star_domain("fourier(1;3:0.1)", 32), 1.0, t_end=20.0)
    assert traj.status == "stationary"
    assert len(traj.times) - 1 == 7
    pinned = {"solves": 29, "stage_solves": 21, "ball_evals": 9,
              "dt_bound": {"error": 7}, "rejects": {}}
    assert {k: traj.stats[k] for k in pinned} == pinned
    assert abs(fit_decay_rate(traj).rate / 3.795921530327308 - 1.0) < 1e-10
    assert abs(traj.lambdas[-1] - 1.845270148644029) < 1e-13


def test_pinned_mode_three_flow_at_m64():
    # the benchmark's heavy flow start: M = 64, where the LU path runs too
    traj = run_flow(build_star_domain("fourier(1;3:0.1)", 64), 1.0, t_end=20.0)
    assert traj.status == "stationary"
    assert len(traj.times) - 1 == 7
    pinned = {"solves": 29, "stage_solves": 21, "ball_evals": 8,
              "dt_bound": {"error": 7}, "rejects": {}}
    assert {k: traj.stats[k] for k in pinned} == pinned
    assert abs(fit_decay_rate(traj).rate / 3.795921544828902 - 1.0) < 1e-10
    assert abs(traj.lambdas[-1] - 1.845270148644029) < 1e-13


def test_trajectory_stats_default_empty():
    traj = Trajectory(np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1),
                      np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1),
                      [None], "t_end")
    assert traj.stats == {}


def test_energy_halt_names_du_outside_the_checked_range(monkeypatch):
    # a small disk has |Du| = 4 vol / (pi r^3) ~ 19.9 > 10; shrinking it
    # raises J, and the halt reason says that |Du| left the law's check
    from dropflow import StarDomain, dynamics

    def shrink(domain, vol, law, dt, *args):
        return StarDomain(domain.center, 0.9 * domain.radii), None
    monkeypatch.setattr(dynamics, "advance_step", shrink)
    monkeypatch.setattr(dynamics, "_MAX_REJECTS", 3)
    traj = run_flow(build_star_domain("circle(0.4)", 32), 1.0, t_end=1.0)
    assert traj.status == "halted"
    assert traj.halt_reason.startswith("energy_increase: |Du| spans [")
    assert "[0.1, 10]" in traj.halt_reason
    assert traj.stats["rejects"] == {"energy_increase": 4}


def _recenter_fails(monkeypatch):
    from dropflow import ShapeError, StarDomain, dynamics

    def recentered(self):
        raise ShapeError("forced recentering failure")
    monkeypatch.setattr(StarDomain, "recentered", recentered)
    monkeypatch.setattr(dynamics, "_RECENTER_FRACTION", 0.0)


def _energy_rises(monkeypatch):
    from dropflow import StarDomain, dynamics

    def shrink(domain, vol, law, dt, *args):
        return StarDomain(domain.center, 0.9 * domain.radii), None
    monkeypatch.setattr(dynamics, "advance_step", shrink)
    monkeypatch.setattr(dynamics, "_MAX_REJECTS", 3)


@pytest.mark.parametrize("start, m, t_end, patch, status", [
    ("fourier(1;3:0.1)", 32, 20.0, None, "stationary"),
    ("fourier(1;2:0.1)", 32, 0.3, None, "t_end"),
    ("circle(0.4)", 32, 1.0, _energy_rises, "halted"),
    ("fourier(1;1:0.05,2:0.1)", 32, 1.0, _recenter_fails, "halted"),
])
def test_every_exit_searches_the_asymmetry_of_every_state(monkeypatch, start, m, t_end,
                                                          patch, status):
    # the asymmetries are searched in one batch before run_flow's single
    # return: each row and each kept state has its own, finite, and equal
    # bit for bit to the state's search alone
    from dropflow.geometry import _asymmetries
    if patch is not None:
        patch(monkeypatch)
    traj = run_flow(build_star_domain(start, m), 1.0, t_end=t_end, snapshot_stride=1)
    assert traj.status == status
    assert traj.asymmetries.shape == traj.times.shape
    assert np.all(np.isfinite(traj.asymmetries))
    assert len(traj.states) == len(traj.times)
    stats = {}
    for state, t, a in zip(traj.states, traj.times, traj.asymmetries):
        assert state.t == t and state.asymmetry == a
        d = state.domain
        assert _asymmetries(d.modes[None], d.center[None], R_STAR, None, stats)[0][0] == a
    assert traj.stats["ball_evals"] == stats["ball_evals"]


def test_decay_fit_samples_the_dense_output_at_midpoints():
    # the fit's midpoint modes come from one stacked dense-output expression,
    # with no domain built; each asymmetry equals the search on the domain
    # that Trajectory.domain_at builds there, bit for bit
    from dropflow.geometry import asymmetry_to_ball
    traj = run_flow(build_star_domain("fourier(1;3:0.1)", 64), 1.0, t_end=20.0)
    fit = fit_decay_rate(traj)
    mids = [(t, a) for t, a in fit.samples if t not in traj.times]
    assert len(mids) >= 3
    for t, a in mids:
        assert asymmetry_to_ball(traj.domain_at(t), R_STAR)[0] == a
