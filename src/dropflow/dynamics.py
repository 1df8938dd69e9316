"""Quasi-static normal-velocity flow of star domains.

The boundary moves with outward normal speed V = F(|Du|), where u is the
volume-normalized torsion solution re-solved at every stage.  In the star
parameterization this is the radius law

    dr/dt(theta) = F(|Du|(theta)) * sqrt(r^2 + r_theta^2) / r.

About the ball B_{r*}, radius mode k >= 1 decays at sigma_k = F'(|Du|)
(lambda/2) (k - 1), a rate that grows with k and would tie an explicit step
to 1/M, and mode 0 at sigma_0 = 3 sigma_2 (|Du| = 4 vol/(pi r^3) on a
disk, so d/dr F(|Du|) = -3 F'(1)/r*).  The stepper is Lawson's
integrating-factor RK4 on the departure delta of the radius's Fourier
modes from the ball's: that linear damping is integrated exactly and only
the nonlinear remainder is explicit, so the ball is a fixed point of every
step, wherever mode 1 centres it (its modes are those of the exact disk);
the stages are domains built from the modes.  The integrating factor is
the only damping; the Nyquist mode, which the rate map grows, is set to 0
in each new state.  Each step returns one record (`_Step`) of what it
computed.  The step size is error-controlled: the rate at the new state,
whose solve the energy check makes anyway, gives the record Balac and
Mahe's embedded third-order companion (RK4(3)IP) at no extra solve, and
the elementary controller of that order turns its error into the next
step; the step is also capped by dt_max and the time left.  A step whose
error is too large is retried at the controller's size; one rejected for
an energy increase under any law, or a degenerate stage, is retried at
half its size.  The record of each accepted step is its dense output,
which costs no solve (`Trajectory.domain_at`): the exact linear part plus
the remainder's quadratic through its start, mid-step and end values,
integrated against the integrating factor; the decay fit samples it
between the accepted states.
"""
from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import FlowHalt, ShapeError, SolverError
from .geometry import StarDomain, _asymmetries
from .stability import ball_closed_forms, serrin_deficit, total_energy
from .torsion import solve_torsion

log = logging.getLogger(__name__)

_J_SLACK = 1e-10
_FIRST_DT = 0.2             # first attempt, in units of the mode-2 damping time
_ERROR_TOL = 1e-2           # embedded error, relative to the step's own change
_ERROR_EXPONENT = 1.0 / 4   # 1/(q + 1) for the third-order embedded companion
_SAFETY = 0.9
_STEP_FACTOR = (0.2, 2.0)   # least and largest change of dt from one attempt
_RATE_FLOOR = 1e-9          # rounding in the rates, per sigma_2 times the radius
_LAW_CHECK_RANGE = (0.1, 10.0)
_DT_MIN_FRACTION = 1e-12
_RECENTER_FRACTION = 0.03   # barycenter drift, in least radius samples, to recenter
_MAX_REJECTS = 40           # consecutive rejected steps before a halt
_FIT_WINDOW = (1e-4, 1e-1)  # asymmetry range of the decay fit


# ----------------------------------------------------------------------------
# velocity laws
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class VelocityLaw:
    """Polynomial normal-velocity law V = F(s), ascending coefficients.

    Must vanish at s = 1 and be strictly increasing on [0.1, 10] so the flow
    damps gradient excess and inflates deficit.  Monotonicity is checked on
    that range only: where |Du| leaves it, a law that turns down can raise
    the energy, and `run_flow` then halts with an `energy_increase` reason
    that names the observed |Du| range.
    """

    coeffs: tuple

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.size < 2:
            raise ValueError("law needs degree >= 1")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if abs(_horner(c, 1.0)) > 1e-12:
            raise ValueError("velocity law must vanish at s = 1")
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_dc", np.polynomial.polynomial.polyder(c))
        if np.any(self.deriv(np.linspace(*_LAW_CHECK_RANGE, 256)) <= 0.0):
            raise ValueError("velocity law must be strictly increasing on [0.1, 10]")

    def __call__(self, s):
        return _horner(self._c, s)

    def deriv(self, s):
        return _horner(self._dc, s)


def _horner(c, s):
    """sum_k c_k s^k by Horner's rule, in numpy's `polyval` order; like
    `polyval`, a list or tuple of s is taken as an array."""
    if isinstance(s, (tuple, list)):
        s = np.asarray(s)
    v = c[-1] + s * 0
    for ck in c[-2::-1]:
        v = ck + v * s
    return v


def quadratic_law():
    """The default law F(s) = s^2 - 1."""
    return VelocityLaw(coeffs=(-1.0, 0.0, 1.0))


def polynomial_law(coeffs):
    return VelocityLaw(coeffs=tuple(float(c) for c in coeffs))


# ----------------------------------------------------------------------------
# states and trajectories
# ----------------------------------------------------------------------------

@dataclass
class FlowState:
    """One accepted flow time with its solved torsion problem."""

    t: float
    domain: StarDomain
    solution: object
    energy: float
    deficit: float
    asymmetry: float
    max_vn: float
    dissipation: float


@dataclass
class Trajectory:
    """Dense per-step diagnostics plus sparse state snapshots, and each
    accepted step's continuous output (`domain_at`)."""

    times: np.ndarray
    energy: np.ndarray
    lambdas: np.ndarray
    deficits: np.ndarray
    asymmetries: np.ndarray
    max_vns: np.ndarray
    dts: np.ndarray
    dissipations: np.ndarray
    states: list
    status: str            # "stationary" | "t_end" | "halted"
    halt_reason: str | None = None
    vol: float = 1.0
    stats: dict = field(default_factory=dict)
    dense: list = field(default_factory=list)   # one _Step per accepted step

    @property
    def final_state(self):
        return self.states[-1]

    def domain_at(self, t):
        """The flow's domain at time t, from the dense output of the accepted
        step whose interval holds t (the earlier one at an accepted time)."""
        n = len(self.dense)
        if n == 0 or not self.times[0] <= t <= self.times[n]:
            raise ValueError(f"no accepted step covers t = {t!r}")
        i = int(np.searchsorted(self.times, t)) - 1
        step = self.dense[max(i, 0)]
        return StarDomain(step.center, modes=_dense_modes([step], [t])[0])


def _phi(z):
    """phi_1, phi_2, phi_3 of z <= 0, elementwise: phi_k(z) = sum_j z^j/(j + k)!.

    Taylor sums by Horner's rule where |z| < 1 (18 terms reach rounding),
    and phi_1 = expm1(z)/z, phi_{k+1} = (phi_k - 1/k!)/z elsewhere.
    """
    small = np.abs(z) < 1.0
    zs = np.where(small, z, 0.0)
    zb = np.where(small, -1.0, z)
    out = []
    big = np.expm1(zb) / zb
    for k in (1, 2, 3):
        if k > 1:
            big = (big - 1.0 / math.factorial(k - 1)) / zb
        v = np.full_like(zs, 1.0 / math.factorial(17 + k))
        for j in range(16, -1, -1):
            v = 1.0 / math.factorial(j + k) + zs * v
        out.append(np.where(small, v, big))
    return out


def _dense_modes(steps, times):
    """The radius modes of the dense output of steps[i] at times[i], one
    row each, from one stacked expression (one `_phi` call).

    By variation of constants the departure from the ball is

        delta(tau) = e^{-sigma tau} delta_0 + tau phi_1(-sigma tau) N_0
                     + tau^2 phi_2(-sigma tau) a + 2 tau^3 phi_3(-sigma tau) b,

    tau = t - t0, where N(s) = N_0 + a s + b s^2 is the quadratic of
    `_Step.accept`: exact for the linear part and stable for every
    sigma dt.  Its Nyquist mode is 0, as in the states the steps make.
    """
    def rows(name):
        return np.array([getattr(step, name) for step in steps])
    tau = (np.asarray(times, dtype=float) - rows("t0"))[:, None]
    z = -rows("sigma") * tau
    p1, p2, p3 = _phi(z)
    modes = (rows("ref") + np.exp(z) * rows("delta")
             + tau * (p1 * rows("n0") + tau * (p2 * rows("a") + 2.0 * tau * p3 * rows("b"))))
    modes[:, -1] = 0.0
    return modes


def save_timeseries_csv(traj, path):
    """Dense diagnostics, fixed header, 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write("t,J,lambda,deficit,asymmetry,max_Vn,dt\n")
        for i in range(len(traj.times)):
            cells = (traj.times[i], traj.energy[i], traj.lambdas[i],
                     traj.deficits[i], traj.asymmetries[i], traj.max_vns[i],
                     traj.dts[i])
            fh.write(",".join(f"{v:.17g}" for v in cells) + "\n")


# ----------------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------------

def _radius_rate(domain, sol, law):
    vn = law(sol.boundary_grad)
    return vn * domain.speed / domain.radii


def _damping_rates(sol, law, m):
    """sigma_k, k = 0 ... M/2: the damping rates of the radius modes about
    the ball, (k - 1) * sigma_2 for k >= 1 and 3 * sigma_2 for k = 0.

    sigma_2 = F'(|Du|) * lambda/2, with |Du| taken at its boundary mean.
    """
    s = float(np.mean(sol.boundary_grad))
    sigma2 = max(float(law.deriv(s)), 0.0) * 0.5 * abs(sol.lambda_)
    k = np.arange(m // 2 + 1) - 1.0
    return sigma2 * np.where(k < 0.0, 3.0, k)


def _stage_domain(center, modes):
    try:
        return StarDomain(center, modes=modes)
    except ShapeError:
        if np.all(np.isfinite(modes)):          # so a radius sample is <= 0
            raise FlowHalt("radius_collapse") from None
        raise


def _solve(domain, vol, stats):
    """`solve_torsion`, counted in the stats with its condition estimate."""
    stats["solves"] += 1
    sol = solve_torsion(domain, vol)
    cond = sol.condition_estimate
    stats["cond_min"] = min(stats.get("cond_min", cond), cond)
    stats["cond_max"] = max(stats.get("cond_max", cond), cond)
    return sol


def _ball_modes(r_star, modes):
    """The radius modes of the ball B_{r*} centred where the mode 1 of
    `modes` puts it, in rfft scaling, its Nyquist bin 0.

    Seen from the origin, the disk of radius R about p has the radius
    p.e + sqrt(R^2 - (p x e)^2), whose mode 1 is exactly p.e: so
    p = conj(2 modes[1]/M), and with q = conj(p) e^{i theta}, the radius
    is R + Re q - (Im q)^2/(R + sqrt(R^2 - (Im q)^2)), in a form that
    cancels nothing.  Its modes are one rfft of all but R, with R M added
    to mode 0.  So a ball off the star center, where a flow settles while
    its drift stays below the recentering threshold, is a fixed point of
    the step too, at any offset and phase.  Where |p| >= r*, before a far
    start's first recentering, no such disk holds the star center; the
    square root is then taken at 0, which keeps the modes finite, as the
    step's linearization point needs no more.
    """
    m = 2 * modes.size - 2
    q = (2.0 / m) * modes[1] * spectral.unit_circle(m)
    root = np.sqrt(np.maximum(r_star**2 - q.imag**2, 0.0))
    ref = np.fft.rfft(q.real - q.imag**2 / (r_star + root))
    ref[0] += r_star * m
    ref[-1] = 0.0
    return ref


class _Step:
    """One Lawson step of `advance_step`, as its embedded error estimate
    and its dense output need it: the star center, the ball's modes `ref`,
    the start's departure `delta` from them, the damping rates `sigma`,
    the step `dt`, the rate modes at the start and the remainders k1,
    (k2 + k3)/2 ("k23") and k4.  `error_ratio` reads them; `accept`, once
    a step is accepted, replaces the rate modes and remainders by the
    dense output's start time t0 and coefficients n0, a and b, which
    `_dense_modes` reads.
    """

    def __init__(self, center, ref, delta, sigma, dt, rate, k1, k23, k4):
        self.center, self.ref, self.delta, self.sigma, self.dt = center, ref, delta, sigma, dt
        self.rate, self.k1, self.k23, self.k4 = rate, k1, k23, k4

    def error_ratio(self, domain, sol, law):
        """The embedded RK4(3)IP error of the step, which ended at `domain`,
        over _ERROR_TOL times its own change (the step passes at <= 1), and
        the remainder rate k5 at `domain`, for `accept`.

        Balac and Mahe's companion of the step is third order; it differs
        from the step by (dt/10)(k4 - k5), where k5 is the remainder rate
        at the new state with the step's own sigma and ball, built from
        that state's solve `sol`.  The change is dt times the rate modes at
        the step's start, so dt cancels.  Both norms leave out mode 1,
        which moves the shape and does not decay, and the Nyquist mode,
        which the new state drops.
        """
        sigma = self.sigma
        k5 = np.fft.rfft(_radius_rate(domain, sol, law)) + sigma * (domain.modes - self.ref)
        err = np.linalg.norm(np.delete(self.k4 - k5, [1, -1]))
        change = (np.linalg.norm(np.delete(self.rate, [1, -1]))
                  + _RATE_FLOOR * sigma[2] * np.linalg.norm(domain.modes) + 1e-300)
        return float(err / (10.0 * _ERROR_TOL * change)), k5

    def accept(self, t0, k5):
        """Make the record the dense output of the accepted step from t0:
        its remainder N(s) = n0 + a s + b s^2 is the quadratic through k1
        at 0, k23 at dt/2 and k5 at dt.  What only `error_ratio` reads is
        dropped, so a record keeps no more than the dense output.
        """
        h, k1, km = self.dt, self.k1, self.k23
        self.t0, self.n0, self.a = t0, k1, (4.0 * km - 3.0 * k1 - k5) / h
        self.b = 2.0 * (k1 - 2.0 * km + k5) / h**2
        del self.rate, self.k1, self.k23, self.k4


def advance_step(domain, vol, law, dt, sol, stats):
    """One integrating-factor RK4 step of the radius law from `domain`,
    whose solved state is `sol`; returns the new domain, its Nyquist mode
    set to 0, and the step's `_Step` record.

    Lawson's scheme on delta, the departure of the radius's Fourier modes
    from those of the ball B_{r*} that `_ball_modes` centres by the
    domain's mode 1: the linear damping of mode k about the ball,
    sigma_k = (k - 1) * sigma_2 for k >= 1 and sigma_0 = 3 * sigma_2, is
    integrated exactly by the factors exp(-sigma_k dt/2), and RK4 treats
    only the remainder rate(r) + sigma * delta, which is 0 at the ball:
    the ball is a fixed point of every step.  The Nyquist mode
    cos(M theta/2) is not damped: the rate map grows it, so the new state
    drops it.  `stats`, a Counter, counts the three stage solves
    ("solves", "stage_solves") and their range of condition estimates
    ("cond_min", "cond_max").
    """
    c = domain.center
    sigma = _damping_rates(sol, law, domain.m)
    ref = _ball_modes(ball_closed_forms(2, vol).r_star, domain.modes)
    e = np.exp(-0.5 * dt * sigma)

    def rate(d, s):
        return np.fft.rfft(_radius_rate(d, s, law))

    def stage(dh):
        d = _stage_domain(c, ref + dh)
        stats["stage_solves"] += 1
        return rate(d, _solve(d, vol, stats)) + sigma * dh

    d0 = domain.modes - ref
    rate0 = rate(domain, sol)
    k1 = rate0 + sigma * d0
    k2 = stage(e * (d0 + 0.5 * dt * k1))
    k3 = stage(e * d0 + 0.5 * dt * k2)
    k4 = stage(e * e * d0 + dt * e * k3)
    r_new = ref + e * e * (d0 + (dt / 6.0) * k1) + (dt / 6.0) * (2.0 * e * (k2 + k3) + k4)
    r_new[-1] = 0.0
    step = _Step(c, ref, d0, sigma, dt, rate0, k1, 0.5 * (k2 + k3), k4)
    return _stage_domain(c, r_new), step


def _diagnose(t, domain, sol, law, stats):
    """The accepted state at t; its asymmetry (NaN here) is searched with
    all the others' at the end of the run."""
    bg = sol.boundary_grad
    vn = law(bg)
    dissipation = float(np.sum((1.0 - bg**2) * vn * domain.arc_weights))
    tail = spectral.mode_tail_fraction(np.fft.rfft(bg))
    stats["grad_tail_max"] = max(stats.get("grad_tail_max", tail), tail)
    return FlowState(
        t=t, domain=domain, solution=sol, energy=total_energy(sol),
        deficit=serrin_deficit(sol), asymmetry=math.nan,
        max_vn=float(np.abs(vn).max()), dissipation=dissipation)


def _row(state, dt):
    """The dense diagnostics of one accepted state, in Trajectory's order,
    without the asymmetry; the domain's modes and center, for its search."""
    return (state.t, state.energy, state.solution.lambda_, state.deficit,
            state.max_vn, dt, state.dissipation, state.domain.modes, state.domain.center)


def _energy_halt_reason(*sols):
    """'energy_increase', plus the |Du| range when it leaves the law's check."""
    lo, hi = _LAW_CHECK_RANGE
    s = np.concatenate([sol.boundary_grad for sol in sols])
    if lo <= s.min() and s.max() <= hi:
        return "energy_increase"
    return (f"energy_increase: |Du| spans [{s.min():.4g}, {s.max():.4g}], but the "
            f"law is checked to increase only on [{lo:g}, {hi:g}]")


def run_flow(domain, vol, law=None, t_end=10.0, dt_max=np.inf,
             tol_stationary=1e-7, snapshot_stride=50):
    """Evolve a star domain under the normal-velocity law.

    Step size: the least of the error-controlled step ("error"), dt_max and
    the time left to t_end.  The first attempt is a fifth of the mode-2
    damping time 1/sigma_2.  Each step's embedded RK4(3)IP error, taken
    from the solve at the new state that the energy check makes anyway,
    is measured against the step's own change (`_Step.error_ratio`), and
    the next attempt is dt * min(max(0.9 * ratio^(-1/4), 0.2), 2), the
    elementary controller of the third-order estimate.  A step whose ratio
    is above 1 is rejected ("error") and retried at that size, which is
    then below 0.9 dt; a step rejected for any other reason (an energy
    increase under any law, or a degenerate stage) is retried at dt/2.
    There is no stiffness or CFL cap: the integrating-factor step damps
    the high modes, and mode 0 about the ball, exactly, so the step count
    to stationarity hardly depends on M and the steps grow as the flow
    settles.  The domain is recentered when its barycenter drifts from the
    center by 3 % of its smallest radius sample about that center; below
    that drift the step holds the ball about the barycenter exactly.  The
    record (`_Step`) of each accepted step, completed by `_Step.accept`
    with its start time, is its dense output, kept in `Trajectory.dense`
    and read by `Trajectory.domain_at` and the decay fit; it costs no solve and keeps
    no domain.
    The run ends at t_end, at stationarity (max |V| below tol_stationary),
    or with a halted trajectory recording the reason (41 rejects in a row,
    say); a failed recentering halts after keeping the accepted step it
    followed.  The run keeps the radius modes and center of every accepted
    state, and before it returns, on every exit, it searches their
    asymmetries in one batch, each from the state's barycenter (the search
    of `asymmetry_to_ball`, with the same result for each state).
    `Trajectory.stats` counts the solves (all of them) and stage solves,
    the attempted and accepted steps, rejects by reason, recenters, the
    ball-overlap evaluations of each state's asymmetry search
    ("ball_evals"), and per attempted step the bound that set dt, the
    condition-estimate range of all solves ("cond_min", "cond_max") and
    the largest top-third |Du| tail of the accepted states
    ("grad_tail_max").
    """
    law = quadratic_law() if law is None else law
    b = ball_closed_forms(2, vol)
    counts = Counter(solves=0, stage_solves=0, attempted_steps=0,
                     accepted_steps=0, recenters=0, ball_evals=0)
    sol = _solve(domain, vol, counts)
    reject_reasons, dt_bound = Counter(), Counter()
    state = _diagnose(0.0, domain, sol, law, counts)
    rows, states, dense = [_row(state, 0.0)], [state], []
    snaps = [0]     # the row of each kept state
    status, halt_reason = "t_end", None
    t, rejects = 0.0, 0
    dt_error = _FIRST_DT / max(_damping_rates(sol, law, domain.m)[2], 1e-300)
    shrink, grow = _STEP_FACTOR
    while not state.max_vn < tol_stationary and t < t_end * (1.0 - 1e-12):
        caps = {"error": dt_error, "dt_max": dt_max, "t_end": t_end - t}
        bound = min(caps, key=caps.get)
        dt_try = caps[bound]
        if dt_try < _DT_MIN_FRACTION * t_end:
            status, halt_reason = "halted", "dt_underflow"
            break
        counts["attempted_steps"] += 1
        dt_bound[bound] += 1
        try:
            new_domain, step = advance_step(domain, vol, law, dt_try, sol, counts)
            new_sol = _solve(new_domain, vol, counts)
            slack = _J_SLACK * max(1.0, abs(state.energy))
            if total_energy(new_sol) > state.energy + slack:
                raise FlowHalt("energy_increase")
            ratio, k5 = step.error_ratio(new_domain, new_sol, law)
            gain = _SAFETY * ratio ** -_ERROR_EXPONENT if ratio > 0.0 else grow
            if ratio > 1.0:
                raise FlowHalt("error")
        except (FlowHalt, ShapeError, SolverError) as exc:
            reason = exc.reason if isinstance(exc, FlowHalt) else type(exc).__name__
            reject_reasons[reason] += 1
            rejects += 1
            dt_error = dt_try * max(gain, shrink) if reason == "error" else dt_try / 2.0
            log.debug("step rejected at t=%.6g (%s); dt -> %.3g", t, exc, dt_error)
            if rejects > _MAX_REJECTS:
                status = "halted"
                halt_reason = (_energy_halt_reason(sol, new_sol)
                               if reason == "energy_increase" else
                               exc.reason if isinstance(exc, FlowHalt) else str(exc))
                break
            continue

        step.accept(t, k5)
        dense.append(step)
        t += dt_try
        rejects = 0
        dt_error = dt_try * min(max(gain, shrink), grow)
        domain, sol = new_domain, new_sol
        drift = np.linalg.norm(domain.barycenter - domain.center)
        if drift > _RECENTER_FRACTION * domain.radii.min():
            try:
                moved = domain.recentered()
                domain, sol = moved, _solve(moved, vol, counts)
                counts["recenters"] += 1
            except (ShapeError, SolverError) as exc:
                # keep the accepted, un-recentered state and stop here
                status, halt_reason = "halted", f"recenter_failed: {exc}"
        state = _diagnose(t, domain, sol, law, counts)
        counts["accepted_steps"] += 1
        rows.append(_row(state, dt_try))
        if counts["accepted_steps"] % snapshot_stride == 0:
            states.append(state)
            snaps.append(len(rows) - 1)
        if status == "halted":
            break
    if status == "t_end" and state.max_vn < tol_stationary:
        status = "stationary"   # also when the step that got there ended at t_end
    if states[-1] is not state:
        states.append(state)
        snaps.append(len(rows) - 1)
    *cols, modes, centers = map(np.array, zip(*rows))
    asym = _asymmetries(modes, centers, b.r_star, None, counts)[0]
    for i, kept in zip(snaps, states):
        kept.asymmetry = float(asym[i])
    return Trajectory(
        *cols[:4], asym, *cols[4:], states=states, status=status,
        halt_reason=halt_reason, vol=vol,
        stats=dict(counts, rejects=dict(reject_reasons), dt_bound=dict(dt_bound)),
        dense=dense)


# ----------------------------------------------------------------------------
# a-posteriori checks
# ----------------------------------------------------------------------------

@dataclass
class DissipationReport:
    """Energy balance residuals along a trajectory.

    interval: per accepted interval, |dJ/dt - mean dissipation| relative to
    the dissipation scale, the mean taken by the logarithmic mean.
    integrated: per state, the defect of J against the time-integrated
    dissipation, relative to the total drop.
    """

    interval: np.ndarray
    integrated: np.ndarray


def dissipation_residuals(traj):
    """Check dJ/dt = oint (1 - |Du|^2) F(|Du|) dsigma discretely.

    The dissipation D is averaged over each interval by the logarithmic
    mean (D1 - D0)/ln(D1/D0) of its ends, exact for D = c exp(-rate t)
    whatever the interval's length, as near the ball, where the flow's long
    steps fall; where D changes sign or vanishes, by the plain mean.
    """
    tt, jj, dd = traj.times, traj.energy, traj.dissipations
    if len(tt) < 2:
        raise ValueError("need at least two accepted states")
    dt = np.diff(tt)
    rate = np.diff(jj) / dt
    d0, d1 = dd[:-1], dd[1:]
    x = np.divide(d1, d0, out=np.ones_like(d0), where=d0 * d1 > 0.0)
    plain = x == 1.0
    avg = np.where(plain, 0.5 * (d0 + d1), d0 * (x - 1.0) / np.log(np.where(plain, 2.0, x)))
    floor = 1e-14 * max(1.0, np.abs(jj).max())
    interval = np.abs(rate - avg) / (np.abs(avg) + floor)
    cum = np.concatenate([[0.0], np.cumsum(avg * dt)])
    drop = np.abs(jj - jj[0])
    integrated = np.abs(jj - (jj[0] + cum)) / (drop + floor)
    return DissipationReport(interval=interval, integrated=integrated)


@dataclass
class DecayFit:
    """Least-squares exponential decay fit of the asymmetry history, with
    the (t, asymmetry) samples it fitted, in time order (n_points x 2)."""

    rate: float | None
    amplitude: float | None
    r_squared: float | None
    n_points: int
    signal: bool
    samples: np.ndarray


def fit_decay_rate(traj):
    """Fit log(asymmetry) = log(amplitude) - rate * t inside _FIT_WINDOW.

    The samples are the accepted states and, for each accepted interval
    whose end asymmetries reach into the window, the asymmetry of the dense
    output at its midpoint: all midpoints' radius modes come from one
    stacked dense-output expression, and their asymmetries from one batch
    of searches, each from the midpoint domain's barycenter, with no solve
    and no `StarDomain` built.
    Each sample is weighted by the time it stands for (its trapezoid
    weight), so the fit, and its R^2, are taken over the window's time
    span and do not depend on where the steps fall.  Returns a no-signal
    fit when the asymmetry never enters the window; raises ValueError when
    it does but with fewer than 5 samples.
    """
    lo, hi = _FIT_WINDOW
    tt, a = traj.times, traj.asymmetries
    k = len(traj.dense)     # the intervals with a dense output
    i = np.flatnonzero((np.maximum(a[:k], a[1:k + 1]) >= lo)
                       & (np.minimum(a[:k], a[1:k + 1]) <= hi))
    mid_t, mid_a = 0.5 * (tt[i] + tt[i + 1]), []
    if i.size:
        steps = [traj.dense[k] for k in i]
        mid_a = _asymmetries(_dense_modes(steps, mid_t), [step.center for step in steps],
                             ball_closed_forms(2, traj.vol).r_star, None, None)[0]
    tt = np.concatenate([tt, mid_t])
    a = np.concatenate([a, mid_a])
    order = np.argsort(tt)
    tt, a = tt[order], a[order]
    mask = (a >= lo) & (a <= hi)
    samples = np.column_stack((tt[mask], a[mask]))
    n = len(samples)
    if n == 0:
        return DecayFit(None, None, None, 0, signal=False, samples=samples)
    if n < 5:
        raise ValueError(f"only {n} samples inside the fit window; need >= 5")
    tt, ll = samples[:, 0], np.log(samples[:, 1])
    h = np.diff(tt)
    w = np.append(h, 0.0) + np.insert(h, 0, 0.0)    # twice the trapezoid weights
    slope, icept = np.polyfit(tt, ll, 1, w=np.sqrt(w))
    pred = slope * tt + icept
    ss_res = float(np.sum(w * (ll - pred) ** 2))
    ss_tot = float(np.sum(w * (ll - np.average(ll, weights=w)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(rate=float(-slope), amplitude=float(np.exp(icept)),
                    r_squared=float(r2), n_points=n, signal=True, samples=samples)
