"""Quasi-static normal-velocity flow of star domains.

The boundary moves with outward normal speed V = F(|Du|), where u is the
volume-normalized torsion solution re-solved at every stage.  In the star
parameterization this is the radius law

    dr/dt(theta) = F(|Du|(theta)) * sqrt(r^2 + r_theta^2) / r.

About a ball, radius mode k >= 1 decays at sigma_k = F'(|Du|) (lambda/2)
(k - 1), a rate that grows with k and would tie an explicit step to 1/M.
The stepper is Lawson's integrating-factor RK4 in the radius's Fourier
modes: that linear damping is integrated exactly and only the nonlinear
remainder is explicit.  A spectral low-pass filter on the top third of the
radius modes controls aliasing growth after each step.  The step size is
the smallest of an advective CFL bound, a fixed fraction of the mode-2
damping time, dt_max and a running step that is halved whenever a step is
rejected (an energy increase under any law, or a degenerate stage) and
doubled after clean steps.
"""
from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import FlowHalt, ShapeError, SolverError
from .geometry import StarDomain, asymmetry_to_ball
from .stability import ball_closed_forms, serrin_deficit, total_energy
from .torsion import solve_torsion

log = logging.getLogger(__name__)

_J_SLACK = 1e-10
_ACCURACY = 0.2             # step cap, in units of the mode-2 damping time
_LAW_CHECK_RANGE = (0.1, 10.0)
_DT_MIN_FRACTION = 1e-12
_CLEAN_STEPS_TO_GROW = 10


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
    name: str = "polynomial"

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.size < 2:
            raise ValueError("law needs degree >= 1")
        if abs(np.polynomial.polynomial.polyval(1.0, c)) > 1e-12:
            raise ValueError("velocity law must vanish at s = 1")
        grid = np.linspace(*_LAW_CHECK_RANGE, 256)
        dc = np.polynomial.polynomial.polyder(c)
        if np.any(np.polynomial.polynomial.polyval(grid, dc) <= 0.0):
            raise ValueError("velocity law must be strictly increasing on [0.1, 10]")

    def __call__(self, s):
        return np.polynomial.polynomial.polyval(s, np.asarray(self.coeffs))

    def deriv(self, s):
        dc = np.polynomial.polynomial.polyder(np.asarray(self.coeffs, dtype=float))
        return np.polynomial.polynomial.polyval(s, dc)

    @property
    def is_quadratic(self):
        return self.name == "quadratic"


def quadratic_law():
    """The default law F(s) = s^2 - 1."""
    return VelocityLaw(coeffs=(-1.0, 0.0, 1.0), name="quadratic")


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
    """Dense per-step diagnostics plus sparse state snapshots."""

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

    @property
    def final_state(self):
        return self.states[-1]


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
    vn = law(sol.boundary_grad.values)
    return vn * domain.speed / domain.radii


def _damping_slope(sol, law):
    """sigma_2 = F'(|Du|) * lambda/2, the damping rate of radius mode 2.

    About a ball, radius mode k >= 1 decays at (k - 1) * sigma_2; |Du| is
    taken at its boundary mean.
    """
    s = float(np.mean(sol.boundary_grad.values))
    return max(float(law.deriv(s)), 0.0) * 0.5 * abs(sol.lambda_)


def _stiff_dt(domain, sol, law):
    """Explicit-RK4 stability bound of the highest resolved mode.

    Linearized about a near-ball state, a radius mode k decays at a rate
    close to F'(|Du|) * (lambda/2) * k, so an explicit step must shrink
    like 1/M.  The integrating-factor step does not need this bound; it
    only seeds the first step size when no dt0 is given.
    """
    k_max = 0.5 * domain.radii.size
    s_max = float(sol.boundary_grad.values.max())
    rate = abs(law.deriv(s_max)) * 0.5 * abs(sol.lambda_) * k_max
    rate *= float((domain.speed / domain.radii).max())
    return 2.5 / max(rate, 1e-300)


def _stage_domain(center, radii):
    if np.any(radii <= 0.0):
        raise FlowHalt("radius_collapse")
    return StarDomain(center, radii)


def advance_step(domain, vol, law, dt, sol=None, filter_frac=1.0 / 3.0,
                 filter_alpha=None, stats=None):
    """One integrating-factor RK4 step of the radius law; returns the new
    (filtered) domain.

    Lawson's scheme in the Fourier modes of the radius: the linear damping
    sigma_k = (k - 1) * sigma_2 of mode k >= 1 about the ball is integrated
    exactly by the factors exp(-sigma_k dt/2), and RK4 treats only the
    remainder rate(r) + sigma * r.  `sol` may pass in the already-solved
    state at `domain` to avoid one of the four stage solves; `stats`, a
    dict, counts the stage solves under "stage_solves".
    """
    c = domain.center
    m = domain.m
    if sol is None:
        sol = solve_torsion(domain, vol)
    sigma = _damping_slope(sol, law) * np.maximum(np.arange(m // 2 + 1) - 1.0, 0.0)
    e = np.exp(-0.5 * dt * sigma)

    def remainder(d, s, rh):
        return np.fft.rfft(_radius_rate(d, s, law)) + sigma * rh

    def stage(rh):
        d = _stage_domain(c, np.fft.irfft(rh, m))
        if stats is not None:
            stats["stage_solves"] += 1
        return remainder(d, solve_torsion(d, vol), rh)

    r0 = np.fft.rfft(domain.radii)
    k1 = remainder(domain, sol, r0)
    k2 = stage(e * (r0 + 0.5 * dt * k1))
    k3 = stage(e * r0 + 0.5 * dt * k2)
    k4 = stage(e * e * r0 + dt * e * k3)
    r_new = e * e * (r0 + (dt / 6.0) * k1) + (dt / 6.0) * (2.0 * e * (k2 + k3) + k4)
    r_new = spectral.exp_filter(np.fft.irfft(r_new, m), frac=filter_frac,
                                alpha=filter_alpha)
    return _stage_domain(c, r_new)


def _diagnose(t, domain, sol, law, r_star, asym_center, stats):
    vn = law(sol.boundary_grad.values)
    bg = sol.boundary_grad.values
    dissipation = float(np.sum((1.0 - bg**2) * vn * domain.arc_weights))
    asym, center = asymmetry_to_ball(domain, r_star, center0=asym_center,
                                     return_center=True, stats=stats)
    return FlowState(
        t=t, domain=domain, solution=sol, energy=total_energy(sol),
        deficit=serrin_deficit(sol), asymmetry=asym,
        max_vn=float(np.abs(vn).max()), dissipation=dissipation), center


def _energy_halt_reason(*sols):
    """'energy_increase', plus the |Du| range when it leaves the law's check."""
    lo, hi = _LAW_CHECK_RANGE
    s = np.concatenate([sol.boundary_grad.values for sol in sols])
    if lo <= s.min() and s.max() <= hi:
        return "energy_increase"
    return (f"energy_increase: |Du| spans [{s.min():.4g}, {s.max():.4g}], but the "
            f"law is checked to increase only on [{lo:g}, {hi:g}]")


def run_flow(domain, vol, law=None, t_end=10.0, dt0=None, dt_max=np.inf,
             cfl=0.4, tol_stationary=1e-7, snapshot_stride=50,
             filter_frac=1.0 / 3.0, filter_alpha=None, recenter_fraction=0.1,
             max_rejects=40):
    """Evolve a star domain under the normal-velocity law.

    Step size: the smallest of the advective CFL bound cfl * min node
    spacing / max |V|, the accuracy bound of a fixed fraction of the mode-2
    damping time 1/sigma_2, dt_max, the time left to t_end, and the running
    step ("growth").  The running step starts at dt0 (default: the
    explicit-RK4 bound of `_stiff_dt`, a conservative first step), is
    halved on a rejected step (an energy increase under any law, or a
    degenerate stage) and doubled after 10 clean accepted steps.  There is
    no stiffness cap: the integrating-factor step damps the high modes
    exactly, so the step count to stationarity hardly depends on M.
    The run ends at t_end, at stationarity (max |V| below tol_stationary),
    or with a halted trajectory recording the reason; a failed recentering
    halts after keeping the accepted step it followed.  `Trajectory.stats`
    counts the solves (all of them) and stage solves, the attempted and
    accepted steps, rejects by reason, recenters, the ball-overlap
    evaluations of the asymmetry searches ("ball_evals"), and per attempted
    step the bound that set dt.
    """
    law = quadratic_law() if law is None else law
    b = ball_closed_forms(2, vol)
    sol = solve_torsion(domain, vol)
    counts = Counter(solves=1, stage_solves=0, attempted_steps=0,
                     accepted_steps=0, recenters=0, ball_evals=0)
    reject_reasons, dt_bound = Counter(), Counter()
    state, asym_center = _diagnose(0.0, domain, sol, law, b.r_star,
                                   domain.barycenter, counts)
    dense = {k: [getattr(state, k)] for k in
             ("t", "energy", "deficit", "asymmetry", "max_vn", "dissipation")}
    dense["lambda"] = [sol.lambda_]
    dense["dt"] = [0.0]
    states = [state]
    status, halt_reason = "t_end", None
    t = 0.0
    dt = dt0
    clean = 0
    rejects = 0
    while t < t_end * (1.0 - 1e-12):
        if state.max_vn < tol_stationary:
            status = "stationary"
            break
        caps = {
            "cfl": cfl * domain.arc_weights.min() / max(state.max_vn, 1e-300),
            "accuracy": _ACCURACY / max(_damping_slope(sol, law), 1e-300),
            "dt_max": dt_max,
            "t_end": t_end - t,
        }
        if dt is None:
            dt = min(caps["cfl"], _stiff_dt(domain, sol, law), dt_max)
        caps["growth"] = dt
        bound = min(caps, key=caps.get)
        dt_try = caps[bound]
        if dt_try < _DT_MIN_FRACTION * t_end:
            status, halt_reason = "halted", "dt_underflow"
            break
        counts["attempted_steps"] += 1
        dt_bound[bound] += 1
        try:
            new_domain = advance_step(domain, vol, law, dt_try, sol=sol,
                                      filter_frac=filter_frac,
                                      filter_alpha=filter_alpha, stats=counts)
            counts["solves"] += 1
            new_sol = solve_torsion(new_domain, vol)
        except (FlowHalt, ShapeError, SolverError) as exc:
            reject_reasons[exc.reason if isinstance(exc, FlowHalt)
                           else type(exc).__name__] += 1
            rejects += 1
            clean = 0
            dt = dt_try / 2.0
            log.debug("step rejected at t=%.6g (%s); dt -> %.3g", t, exc, dt)
            if rejects > max_rejects:
                status = "halted"
                halt_reason = exc.reason if isinstance(exc, FlowHalt) else str(exc)
                break
            continue
        new_energy = total_energy(new_sol)
        if new_energy > state.energy + _J_SLACK * max(1.0, abs(state.energy)):
            reject_reasons["energy_increase"] += 1
            rejects += 1
            clean = 0
            dt = dt_try / 2.0
            if rejects > max_rejects:
                status, halt_reason = "halted", _energy_halt_reason(sol, new_sol)
                break
            continue

        t += dt_try
        rejects = 0
        clean += 1
        domain, sol = new_domain, new_sol
        drift = np.linalg.norm(domain.barycenter - domain.center)
        if drift > recenter_fraction * domain.in_radius:
            try:
                moved = domain.recentered()
                counts["solves"] += 1
                domain, sol = moved, solve_torsion(moved, vol)
                counts["recenters"] += 1
            except (ShapeError, SolverError) as exc:
                # keep the accepted, un-recentered state and stop here
                status, halt_reason = "halted", f"recenter_failed: {exc}"
        state, asym_center = _diagnose(t, domain, sol, law, b.r_star, asym_center,
                                       counts)
        counts["accepted_steps"] += 1
        for key in ("t", "energy", "deficit", "asymmetry", "max_vn", "dissipation"):
            dense[key].append(getattr(state, key))
        dense["lambda"].append(sol.lambda_)
        dense["dt"].append(dt_try)
        if counts["accepted_steps"] % snapshot_stride == 0:
            states.append(state)
        if status == "halted":
            break
        if clean >= _CLEAN_STEPS_TO_GROW:
            dt = 2.0 * dt_try
            clean = 0
    if states[-1] is not state:
        states.append(state)
    counts["solves"] += counts["stage_solves"]
    return Trajectory(
        times=np.array(dense["t"]), energy=np.array(dense["energy"]),
        lambdas=np.array(dense["lambda"]), deficits=np.array(dense["deficit"]),
        asymmetries=np.array(dense["asymmetry"]),
        max_vns=np.array(dense["max_vn"]), dts=np.array(dense["dt"]),
        dissipations=np.array(dense["dissipation"]), states=states,
        status=status, halt_reason=halt_reason, vol=vol,
        stats=dict(counts, rejects=dict(reject_reasons), dt_bound=dict(dt_bound)))


# ----------------------------------------------------------------------------
# a-posteriori checks
# ----------------------------------------------------------------------------

@dataclass
class DissipationReport:
    """Energy balance residuals along a trajectory.

    interval: per accepted interval, |dJ/dt - mean endpoint dissipation|
    relative to the dissipation scale.  integrated: per state, the defect of
    J against the time-integrated dissipation, relative to the total drop.
    """

    interval: np.ndarray
    integrated: np.ndarray


def dissipation_residuals(traj, law=None):
    """Check dJ/dt = oint (1 - |Du|^2) F(|Du|) dsigma discretely."""
    tt, jj, dd = traj.times, traj.energy, traj.dissipations
    if len(tt) < 2:
        raise ValueError("need at least two accepted states")
    dt = np.diff(tt)
    rate = np.diff(jj) / dt
    avg = 0.5 * (dd[1:] + dd[:-1])
    floor = 1e-14 * max(1.0, np.abs(jj).max())
    interval = np.abs(rate - avg) / (np.abs(avg) + floor)
    cum = np.concatenate([[0.0], np.cumsum(avg * dt)])
    drop = np.abs(jj - jj[0])
    integrated = np.abs(jj - (jj[0] + cum)) / (drop + floor)
    return DissipationReport(interval=interval, integrated=integrated)


@dataclass
class DecayFit:
    """Least-squares exponential decay fit of the asymmetry history."""

    rate: float | None
    amplitude: float | None
    r_squared: float | None
    n_points: int
    signal: bool


def fit_decay_rate(traj, window=(1e-4, 1e-1)):
    """Fit log(asymmetry) = log(amplitude) - rate * t inside the window.

    Returns a no-signal fit when the asymmetry never enters the window;
    raises ValueError when it does but with fewer than 5 samples.
    """
    lo, hi = window
    a = traj.asymmetries
    mask = (a >= lo) & (a <= hi)
    n = int(mask.sum())
    if n == 0:
        return DecayFit(None, None, None, 0, signal=False)
    if n < 5:
        raise ValueError(f"only {n} samples inside the fit window; need >= 5")
    tt = traj.times[mask]
    ll = np.log(a[mask])
    slope, icept = np.polyfit(tt, ll, 1)
    pred = slope * tt + icept
    ss_res = float(np.sum((ll - pred) ** 2))
    ss_tot = float(np.sum((ll - ll.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(rate=float(-slope), amplitude=float(np.exp(icept)),
                    r_squared=float(r2), n_points=n, signal=True)
