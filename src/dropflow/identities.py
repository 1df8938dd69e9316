"""Integral identities satisfied by the volume-normalized torsion solution.

Each check evaluates both sides of an identity from quadrature data of one
TorsionSolution and reports a relative residual.  Boundary-only identities
(pohozaev, cube, trace) are spectrally exact and carry a tight tolerance
in DEFAULT_TOLERANCES; the ones integrating interior Hessians (kappa_cube,
fund_est) get a looser one.  fund_est is reported in two forms: the signed
boundary integral from the underlying derivation, which is an exact
equality and is used as `rhs`, and the absolute-value majorant, kept in
the metadata together with the one-sided inequality verdict.  s2_divfree's
boundary side is (1/2) oint kappa |Du|^2: u = 0 on the boundary, so
Du = -|Du| nu and S_2'(D^2u) Du . nu = -|Du| u_tt = kappa |Du|^2.  The base
point x0 of pohozaev, cube and fund_est is the barycenter, kept in their
metadata.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


DEFAULT_TOLERANCES = {
    "pohozaev": 1e-5,
    "cube": 1e-5,
    "trace": 1e-5,
    "s2_divfree": 1e-5,
    "kappa_cube": 1e-3,
    "fund_est": 1e-3,
}

_FUND_EST_CONSTANT = 0.25  # 1/(2 N (N-1)) at N = 2
_INEQ_SLACK = 1e-6


@dataclass
class IdentityReport:
    identity: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool
    metadata: dict = field(default_factory=dict)

    def to_json(self):
        # numpy arrays and scalars in the metadata become lists and numbers
        return json.dumps({
            "identity": self.identity,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            "metadata": self.metadata,
        }, default=lambda v: v.tolist())


def _residual(lhs, rhs, scale):
    # The floor, 1e-12 of the size `scale` of the terms an identity sums,
    # keeps identities whose both sides vanish (fund_est on every disk) from
    # dividing machine noise by machine noise, at every size of the domain
    # and of vol; a floor of 1e-12 absolute failed fund_est on circle(0.5).
    floor = 1e-12 * max(scale, abs(lhs), abs(rhs))
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + floor)


def _report(identity, lhs, rhs, scale, metadata, name=None):
    """The report of one identity, `scale` the size of the terms it sums;
    `name` labels a member of a family."""
    res = _residual(lhs, rhs, scale)
    tolerance = DEFAULT_TOLERANCES[identity]
    return IdentityReport(name or identity, float(lhs), float(rhs), res,
                          tolerance, res <= tolerance, metadata)


def _boundary(sol):
    d = sol.domain
    bg = sol.boundary_grad
    return d, d.arc_weights, d.nodes, d.normal, bg


def check_pohozaev(sol):
    """oint <(lam/2)(x - x0), nu> |Du|^2 dsigma = 2 lam^2 vol."""
    d, w, x, nu, bg = _boundary(sol)
    x0 = d.barycenter.copy()
    lam = sol.lambda_
    moment = ((x - x0) * nu).sum(axis=1)
    lhs = float(np.sum(w * (lam / 2.0) * moment * bg**2))
    rhs = 2.0 * lam**2 * sol.vol
    return _report("pohozaev", lhs, rhs, rhs, {"x0": x0})


def check_cube(sol):
    """oint |Du|^3 = 2 lam^2 vol - oint <(lam/2)(x-x0) + Du, nu>(|Du|^2 - 1)."""
    d, w, x, nu, bg = _boundary(sol)
    x0 = d.barycenter.copy()
    lam = sol.lambda_
    moment = ((x - x0) * nu).sum(axis=1)
    lhs = float(np.sum(w * bg**3))
    corr = np.sum(w * ((lam / 2.0) * moment - bg) * (bg**2 - 1.0))
    main = 2.0 * lam**2 * sol.vol
    rhs = main - float(corr)
    return _report("cube", lhs, rhs, main, {"x0": x0, "main_term": main})


def check_kappa_cube(sol, n_radial):
    """int kappa |Du|^3 dx = -(3 lam^2/2) vol + (1/2) oint |Du|^3 dsigma.

    kappa is the level-set mean curvature; kappa |Du|^3 is evaluated in the
    division-free form Tr(D^2u)|Du|^2 - <D^2u Du, Du>, regular across the
    interior critical point.
    """
    d, w, x, nu, bg = _boundary(sol)
    quad, u, grad, hess = sol.quadrature_data(n_radial)
    tr = hess[:, 0, 0] + hess[:, 1, 1]
    hg = np.einsum("nij,nj->ni", hess, grad)
    integrand = tr * (grad**2).sum(axis=1) - (grad * hg).sum(axis=1)
    lhs = float(np.sum(quad.weights * integrand))
    lam = sol.lambda_
    rhs = -1.5 * lam**2 * sol.vol + 0.5 * float(np.sum(w * bg**3))
    return _report("kappa_cube", lhs, rhs, 1.5 * lam**2 * sol.vol, {"n_radial": n_radial})


def check_trace(sol, k, part, n_radial):
    """oint f^2 |Du| dsigma = 2 int |Df|^2 u dx + lam int f^2 dx.

    f = Re or Im of ((x1 - a) + i (x2 - b))^k about the domain center.
    """
    if k < 0 or k > 4:
        raise ValueError("trace family is tabulated for 0 <= k <= 4")
    if part not in ("re", "im"):
        raise ValueError("part must be 're' or 'im'")
    d, w, x, nu, bg = _boundary(sol)
    quad, u, grad, hess = sol.quadrature_data(n_radial)
    zb = d.z - d.zc
    zq = (quad.nodes[:, 0] - d.center[0]) + 1j * (quad.nodes[:, 1] - d.center[1])
    fb = (zb**k).real if part == "re" else (zb**k).imag
    fq = (zq**k).real if part == "re" else (zq**k).imag
    df2 = (k**2) * np.abs(zq) ** (2 * (k - 1)) if k > 0 else np.zeros_like(fq)
    lam = sol.lambda_
    lhs = float(np.sum(w * fb**2 * bg))
    rhs = 2.0 * float(np.sum(quad.weights * df2 * u)) \
        + lam * float(np.sum(quad.weights * fq**2))
    return _report("trace", lhs, rhs, lhs, {"k": k, "part": part, "n_radial": n_radial},
                   name=f"trace_k{k}_{part}")


def check_fund_est(sol, n_radial):
    """int u ((Tr D^2u / 2)^2 - det D^2u) dx against its boundary form.

    rhs is the signed integral -(1/4) oint <(lam/2)(x-x0)+Du, nu>(|Du|^2-1),
    an exact equality.  metadata carries the absolute-value majorant
    (1/4) oint |(lam/2)(x-x0)+Du| |(|Du|^2-1)| and the one-sided verdicts,
    including the Frobenius-deviation form int u |D^2u + (lam/2) Id|^2
    bounded through the quadratic-growth constant 1/2.
    """
    d, w, x, nu, bg = _boundary(sol)
    x0 = d.barycenter.copy()
    lam = sol.lambda_
    quad, u, grad, hess = sol.quadrature_data(n_radial)
    s1 = 0.5 * (hess[:, 0, 0] + hess[:, 1, 1])
    s2 = hess[:, 0, 0] * hess[:, 1, 1] - hess[:, 0, 1] ** 2
    lhs = float(np.sum(quad.weights * u * (s1**2 - s2)))

    vec = (lam / 2.0) * (x - x0) - bg[:, None] * nu  # (lam/2)(x-x0) + Du
    vdotn = (vec * nu).sum(axis=1)
    rhs_signed = -_FUND_EST_CONSTANT * float(np.sum(w * vdotn * (bg**2 - 1.0)))
    # both sides vanish on every disk, so the residual's floor is the size
    # of the terms that cancel on each side
    moment = (lam / 2.0) * ((x - x0) * nu).sum(axis=1)
    scale = float(np.sum(quad.weights * u * (s1**2 + np.abs(s2)))
                  + _FUND_EST_CONSTANT * np.sum(w * (np.abs(moment) + bg) * np.abs(bg**2 - 1.0)))
    rhs_abs = _FUND_EST_CONSTANT * float(
        np.sum(w * np.sqrt((vec**2).sum(axis=1)) * np.abs(bg**2 - 1.0)))

    dev = ((hess[:, 0, 0] + lam / 2.0) ** 2 + (hess[:, 1, 1] + lam / 2.0) ** 2
           + 2.0 * hess[:, 0, 1] ** 2)
    hessian_lhs = float(np.sum(quad.weights * u * dev))

    return _report("fund_est", lhs, rhs_signed, scale, {
        "x0": x0,
        "rhs_abs": rhs_abs,
        "inequality_ok": lhs <= rhs_abs + _INEQ_SLACK,
        "hessian_lhs": hessian_lhs,
        "hessian_inequality_ok": hessian_lhs <= 2.0 * rhs_abs + _INEQ_SLACK,
        "n_radial": n_radial,
    })


def check_s2_divfree(sol, n_radial):
    """int det(D^2u) dx = (1/2) oint kappa |Du|^2 dsigma.

    The boundary side, (1/2) oint (S_2'(D^2u) Du) . nu in closed form, reads
    only the curvature and |Du|: it is independent of the interior
    layer-potential Hessians on the lhs.
    """
    d, w, x, nu, bg = _boundary(sol)
    quad, u, grad, hess = sol.quadrature_data(n_radial)
    s2 = hess[:, 0, 0] * hess[:, 1, 1] - hess[:, 0, 1] ** 2
    lhs = float(np.sum(quad.weights * s2))
    rhs = 0.5 * float(np.sum(w * d.curvature * bg**2))
    return _report("s2_divfree", lhs, rhs, 0.5 * float(np.sum(w * np.abs(d.curvature) * bg**2)),
                   {"n_radial": n_radial})


def identity_suite(sol, n_radial=24):
    """Run the full identity battery about the barycenter; trace expands over
    its function family (k = 0 and the real and imaginary parts for k = 1..4)."""
    out = [check_pohozaev(sol), check_cube(sol), check_kappa_cube(sol, n_radial),
           check_trace(sol, 0, "re", n_radial)]
    for k in range(1, 5):
        out.append(check_trace(sol, k, "re", n_radial))
        out.append(check_trace(sol, k, "im", n_radial))
    return out + [check_fund_est(sol, n_radial), check_s2_divfree(sol, n_radial)]
