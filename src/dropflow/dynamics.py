"""Quasi-static normal-velocity flow of star domains.

The boundary moves with outward normal speed V = F(|Du|), where u is the
volume-normalized torsion solution re-solved at every stage.  In the star
parameterization this is the radius law

    dr/dt(theta) = F(|Du|(theta)) * sqrt(r^2 + r_theta^2) / r,

integrated with classical RK4.  A spectral low-pass filter on the top third
of the radius modes controls aliasing growth after each step; the step size
follows a CFL bound from the boundary node spacing and, for the default
monotone law, is rejected and halved whenever the base energy J increases.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import FlowHalt, ShapeError, SolverError
from .geometry import StarDomain, asymmetry_to_ball
from .stability import ball_closed_forms, serrin_deficit, total_energy
from .torsion import solve_torsion

log = logging.getLogger(__name__)

_J_SLACK = 1e-10
_DT_MIN_FRACTION = 1e-12
_CLEAN_STEPS_TO_GROW = 10


# ----------------------------------------------------------------------------
# velocity laws
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class VelocityLaw:
    """Polynomial normal-velocity law V = F(s), ascending coefficients.

    Must vanish at s = 1 and be strictly increasing on [0.1, 10] so the flow
    damps gradient excess and inflates deficit.
    """

    coeffs: tuple
    name: str = "polynomial"

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.size < 2:
            raise ValueError("law needs degree >= 1")
        if abs(np.polynomial.polynomial.polyval(1.0, c)) > 1e-12:
            raise ValueError("velocity law must vanish at s = 1")
        grid = np.linspace(0.1, 10.0, 256)
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


def _stiff_dt(domain, sol, law):
    """Step-size cap from the damping rate of the highest resolved mode.

    Linearized about a near-ball state, a radius mode k decays at a rate
    close to F'(|Du|) * (lambda/2) * k, which grows with k and binds the
    explicit stepper long after the advective bound has gone slack.  The
    cap keeps the whole spectrum up to the Nyquist mode inside the RK4
    stability region; the spectral filter only mops up aliasing above it.
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
                 filter_alpha=None):
    """One RK4 step of the radius law; returns the new (filtered) domain.

    `sol` may pass in the already-solved state at `domain` to avoid one of
    the four stage solves.
    """
    c = domain.center
    r0 = domain.radii
    if sol is None:
        sol = solve_torsion(domain, vol)
    k1 = _radius_rate(domain, sol, law)
    d2 = _stage_domain(c, r0 + 0.5 * dt * k1)
    k2 = _radius_rate(d2, solve_torsion(d2, vol), law)
    d3 = _stage_domain(c, r0 + 0.5 * dt * k2)
    k3 = _radius_rate(d3, solve_torsion(d3, vol), law)
    d4 = _stage_domain(c, r0 + dt * k3)
    k4 = _radius_rate(d4, solve_torsion(d4, vol), law)
    r_new = r0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    r_new = spectral.exp_filter(r_new, frac=filter_frac, alpha=filter_alpha)
    return _stage_domain(c, r_new)


def _diagnose(t, domain, sol, law, r_star, asym_center):
    vn = law(sol.boundary_grad.values)
    bg = sol.boundary_grad.values
    dissipation = float(np.sum((1.0 - bg**2) * vn * domain.arc_weights))
    asym, center = asymmetry_to_ball(domain, r_star, center0=asym_center,
                                     return_center=True)
    return FlowState(
        t=t, domain=domain, solution=sol, energy=total_energy(sol),
        deficit=serrin_deficit(sol), asymmetry=asym,
        max_vn=float(np.abs(vn).max()), dissipation=dissipation), center


def run_flow(domain, vol, law=None, t_end=10.0, dt0=None, dt_max=np.inf,
             cfl=0.4, tol_stationary=1e-7, snapshot_stride=50,
             filter_frac=1.0 / 3.0, filter_alpha=None, recenter_fraction=0.1,
             max_rejects=40):
    """Evolve a star domain under the normal-velocity law.

    Step size: capped by the advective CFL bound cfl * min node spacing /
    max |V| and by the high-mode damping bound of `_stiff_dt`; halved on a
    rejected step (energy increase under the default law, or a degenerate
    stage), cautiously doubled after 10 clean accepted steps.
    The run ends at t_end, at stationarity (max |V| below tol_stationary),
    or with a halted trajectory recording the reason; a failed recentering
    halts after keeping the accepted step it followed.
    """
    law = quadratic_law() if law is None else law
    b = ball_closed_forms(2, vol)
    sol = solve_torsion(domain, vol)
    state, asym_center = _diagnose(0.0, domain, sol, law, b.r_star,
                                   domain.barycenter)
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
    accepted = 0
    while t < t_end * (1.0 - 1e-12):
        if state.max_vn < tol_stationary:
            status = "stationary"
            break
        dt_cfl = cfl * domain.arc_weights.min() / max(state.max_vn, 1e-300)
        dt_stiff = _stiff_dt(domain, sol, law)
        if dt is None:
            dt = min(dt_cfl, dt_stiff, dt_max)
        dt_try = min(dt, dt_cfl, dt_stiff, dt_max, t_end - t)
        if dt_try < _DT_MIN_FRACTION * t_end:
            status, halt_reason = "halted", "dt_underflow"
            break
        try:
            new_domain = advance_step(domain, vol, law, dt_try, sol=sol,
                                      filter_frac=filter_frac,
                                      filter_alpha=filter_alpha)
            new_sol = solve_torsion(new_domain, vol)
        except (FlowHalt, ShapeError, SolverError) as exc:
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
        if law.is_quadratic and new_energy > state.energy + _J_SLACK * max(1.0, abs(state.energy)):
            rejects += 1
            clean = 0
            dt = dt_try / 2.0
            if rejects > max_rejects:
                status, halt_reason = "halted", "energy_increase"
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
                domain, sol = moved, solve_torsion(moved, vol)
            except (ShapeError, SolverError) as exc:
                # keep the accepted, un-recentered state and stop here
                status, halt_reason = "halted", f"recenter_failed: {exc}"
        state, asym_center = _diagnose(t, domain, sol, law, b.r_star, asym_center)
        accepted += 1
        for key in ("t", "energy", "deficit", "asymmetry", "max_vn", "dissipation"):
            dense[key].append(getattr(state, key))
        dense["lambda"].append(sol.lambda_)
        dense["dt"].append(dt_try)
        if accepted % snapshot_stride == 0:
            states.append(state)
        if status == "halted":
            break
        if clean >= _CLEAN_STEPS_TO_GROW:
            dt = 2.0 * dt_try
            clean = 0
    if states[-1] is not state:
        states.append(state)
    return Trajectory(
        times=np.array(dense["t"]), energy=np.array(dense["energy"]),
        lambdas=np.array(dense["lambda"]), deficits=np.array(dense["deficit"]),
        asymmetries=np.array(dense["asymmetry"]),
        max_vns=np.array(dense["max_vn"]), dts=np.array(dense["dt"]),
        dissipations=np.array(dense["dissipation"]), states=states,
        status=status, halt_reason=halt_reason, vol=vol)


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
