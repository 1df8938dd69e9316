"""Ball reference quantities and shape-stability metrics.

Closed forms for the equilibrium ball (optimal radius, multiplier, energy
and its radial derivatives) plus a report comparing a solved domain to the
best-matching ball: symmetric-difference asymmetry, the boundary gradient
deficit, their quotient, the scale-invariant base-energy gap and the
centered L2 boundary distance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, ShapeError, SolverError
from .geometry import (_NEWTON_GAIN_TOL, _NEWTON_STEP_TOL, StarDomain, _newton_2d,
                       asymmetry_to_ball, build_star_domain, parse_shape,
                       rho0_estimate)
from .torsion import solve_torsion

_DEGENERATE_DEFICIT = 1e-12
_DEGENERATE_ASYM = 1e-6


def omega_ball(n):
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass
class BallQuantities:
    """Equilibrium-ball closed forms at space dimension n and mass vol."""

    n: int
    vol: float
    r_star: float
    lambda_star: float
    j_star: float
    lambda_of_r: Callable[[float], float] = field(repr=False)
    j_of_r: Callable[[float], float] = field(repr=False)
    j_second_of_r: Callable[[float], float] = field(repr=False)


def ball_closed_forms(n, vol):
    """Ball formulas: lambda(B_r), J(B_r), J''(B_r), r*, lambda*, J*.

    J''(r) carries vol^2 (same as J itself), and J* evaluates J at r*
    directly; see ball_consistency_notes for the alternative printed
    coefficients these were checked against.
    """
    n = int(n)
    if n < 2 or vol <= 0:
        raise ValueError("need n >= 2 and vol > 0")
    om = omega_ball(n)

    def lam(r):
        return n * (n + 2) * vol / (om * r ** (n + 2))

    def jval(r):
        return lam(r) * vol + om * r**n

    def jsec(r):
        return (n * (n + 2) ** 2 * (n + 3) * vol**2 / (om * r ** (n + 4))
                + n * (n - 1) * om * r ** (n - 2))

    r_star = ((n + 2) * vol / om) ** (1.0 / (n + 1))
    return BallQuantities(n=n, vol=float(vol), r_star=float(r_star),
                          lambda_star=float(n / r_star), j_star=float(jval(r_star)),
                          lambda_of_r=lam, j_of_r=jval, j_second_of_r=jsec)


def ball_consistency_notes(n, vol):
    """Cross-checks of the ball energy formulas, with both printed variants.

    The direct substitution J(B_{r*}) equals ((2n+2)/(n+2)) omega r*^n; the
    (2n+1) coefficient variant that circulates does not match the direct sum
    and is reported here for the record.  Likewise J'' is homogeneous of
    degree 2 in vol; the variant with a single power of vol fails a finite
    difference check at vol != 1.
    """
    b = ball_closed_forms(n, vol)
    om = omega_ball(n)
    direct = b.j_star
    coeff_2n2 = (2 * n + 2) / (n + 2) * om * b.r_star**n
    coeff_2n1 = (2 * n + 1) / (n + 2) * om * b.r_star**n
    jsec_vol1 = (n * (n + 2) ** 2 * (n + 3) * vol / (om * b.r_star ** (n + 4))
                 + n * (n - 1) * om * b.r_star ** (n - 2))
    return {
        "j_star_direct": direct,
        "j_star_coeff_2n_plus_2": coeff_2n2,
        "j_star_coeff_2n_plus_1": coeff_2n1,
        "j_star_coefficients_consistent": bool(
            abs(direct - coeff_2n2) <= 1e-12 * abs(direct)),
        "j_second_vol_squared": b.j_second_of_r(b.r_star),
        "j_second_vol_linear": jsec_vol1,
    }


def total_energy(sol):
    """Base energy lambda * vol + |domain| of a solved state."""
    return sol.lambda_ * sol.vol + sol.domain.area


def serrin_deficit(sol):
    """oint (|Du|^2 - 1)^2 dsigma, zero exactly at the equilibrium ball."""
    bg = sol.boundary_grad.values
    return float(np.sum((bg**2 - 1.0) ** 2 * sol.domain.arc_weights))


def l2_distance_lhs(sol, x0=None):
    """min over centers of oint ((lam/2)|x - x0| - 1)^2 dsigma.

    Returns (value, minimizing center).  Newton's method from the
    barycenter (or `x0`) with the closed-form gradient and Hessian; where
    the Hessian is not positive definite its Gauss-Newton part
    2 sum w (lam/2)^2 e e^T, e = (x - x0)/|x - x0|, is used instead.  The
    search stops at a step of 1e-10 times 2/lam, the radius the distance is
    measured from, or at a predicted decrease of 1e-15 times the perimeter.
    """
    d = sol.domain
    a = 0.5 * sol.lambda_
    w = d.arc_weights

    def evaluate(p):
        v = d.z - (p[0] + 1j * p[1])
        rho = np.abs(v)
        e = np.column_stack([v.real, v.imag]) / rho[:, None]
        res = a * rho - 1.0
        grad = -2.0 * a * ((w * res) @ e)
        gauss = (2.0 * a * a) * (e.T * w) @ e
        hess = gauss + (2.0 * a) * (np.sum(w * res / rho) * np.eye(2)
                                     - (e.T * (w * res / rho)) @ e)
        if not (hess[0, 0] > 0.0 and np.linalg.det(hess) > 0.0):
            hess = gauss
        return float(np.sum(w * res**2)), grad, hess

    p0 = d.barycenter if x0 is None else np.asarray(x0, dtype=float)
    center, val, _ = _newton_2d(evaluate, p0, _NEWTON_STEP_TOL / a,
                                _NEWTON_GAIN_TOL * w.sum(), 0.25 / a)
    return max(val, 0.0), center


def faber_krahn_gap(sol):
    """|Omega|^2 lambda(Omega) - |B|^2 lambda(B) for the same-area disk.

    The ball term is area-independent: |B|^2 lambda(B) = 8 pi vol at n = 2.
    """
    area = sol.domain.area
    return float(area**2 * sol.lambda_ - 8.0 * math.pi * sol.vol)


@dataclass
class StabilityReport:
    asymmetry: float
    deficit: float
    ratio_thm1: float
    fk_gap: float
    fk_cor_ratio: float
    lhs_l2dist: float
    rhs_l2dist: float
    r_star: float
    lambda_: float
    energy: float
    j_star: float
    diam_over_rho0: float
    diam_over_rstar: float
    degenerate: bool
    best_center: np.ndarray


def stability_report(sol):
    """Compare a solved domain to the equilibrium ball of the same mass.

    Near-equilibrium inputs (both asymmetry and deficit at noise level) are
    flagged degenerate and the indeterminate ratios are reported as zero.
    """
    d = sol.domain
    b = ball_closed_forms(2, sol.vol)
    asym, center = asymmetry_to_ball(d, b.r_star, return_center=True)
    deficit = serrin_deficit(sol)
    energy = total_energy(sol)
    lhs_l2, _ = l2_distance_lhs(sol)
    fk = faber_krahn_gap(sol)
    degenerate = deficit < _DEGENERATE_DEFICIT and asym < _DEGENERATE_ASYM
    if degenerate:
        ratio = 0.0
        cor_ratio = 0.0
    else:
        ratio = asym / math.sqrt(deficit / b.r_star)
        gap_j = max(energy - b.j_star, 0.0)
        cor_ratio = math.sqrt(gap_j) / (math.sqrt(b.j_star) * asym) if asym > 0 else 0.0
    rho0 = rho0_estimate(d)
    return StabilityReport(
        asymmetry=float(asym), deficit=float(deficit), ratio_thm1=float(ratio),
        fk_gap=float(fk), fk_cor_ratio=float(cor_ratio),
        lhs_l2dist=float(lhs_l2), rhs_l2dist=float(deficit),
        r_star=b.r_star, lambda_=sol.lambda_, energy=float(energy),
        j_star=b.j_star, diam_over_rho0=float(d.diameter / rho0),
        diam_over_rstar=float(d.diameter / b.r_star),
        degenerate=degenerate, best_center=center)


def normalized_domain(shape, vol=1.0, m=128):
    """Dilate a shape (or prebuilt domain) to the area of the equilibrium ball."""
    d = shape if isinstance(shape, StarDomain) else build_star_domain(shape, m=m)
    b = ball_closed_forms(2, vol)
    target = math.pi * b.r_star**2
    return d.scaled(math.sqrt(target / d.area))


SWEEP_HEADER = ("shape", "k", "eps", "asymmetry", "deficit", "ratio_thm1",
                "fk_gap", "fk_cor_ratio", "lhs_l2dist")


def sweep_stability(modes=(2, 3, 4), amplitudes=None, vol=1.0, m=128,
                    shapes=None):
    """Stability metrics across a perturbed-ball family (or explicit shapes).

    Returns a list of row dicts matching SWEEP_HEADER plus a `failed` flag;
    shape, solver and convergence errors mark the row failed instead of
    aborting the sweep, and any other exception propagates.
    """
    if amplitudes is None:
        amplitudes = np.linspace(0.02, 0.2, 10)
    jobs = []
    if shapes is not None:
        for s in shapes:
            spec = parse_shape(s) if isinstance(s, str) else s
            label = s if isinstance(s, str) else repr(s)
            jobs.append((label, spec, 0, 0.0))
    else:
        for k in modes:
            for eps in amplitudes:
                label = f"fourier(1;{k}:{eps:g})"
                jobs.append((label, label, int(k), float(eps)))
    rows = []
    for label, spec, k, eps in jobs:
        row = {"shape": label, "k": k, "eps": eps, "failed": False}
        try:
            d = normalized_domain(spec, vol=vol, m=m)
            sol = solve_torsion(d, vol)
            rep = stability_report(sol)
            row.update(asymmetry=rep.asymmetry, deficit=rep.deficit,
                       ratio_thm1=rep.ratio_thm1, fk_gap=rep.fk_gap,
                       fk_cor_ratio=rep.fk_cor_ratio, lhs_l2dist=rep.lhs_l2dist)
        except (ShapeError, SolverError, ConvergenceError) as exc:
            row.update(asymmetry=math.nan, deficit=math.nan, ratio_thm1=math.nan,
                       fk_gap=math.nan, fk_cor_ratio=math.nan,
                       lhs_l2dist=math.nan, failed=True, error=str(exc))
        rows.append(row)
    return rows


def write_sweep_csv(rows, path):
    """Write sweep rows in the fixed column order, 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SWEEP_HEADER) + "\n")
        for row in rows:
            cells = [str(row["shape"]), str(row["k"]), f"{row['eps']:.17g}"]
            for key in SWEEP_HEADER[3:]:
                cells.append(f"{row[key]:.17g}")
            fh.write(",".join(cells) + "\n")
