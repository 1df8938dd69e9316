"""Volume-normalized torsion solve on star domains via one Cauchy kernel.

Solves -Delta u = lambda in the domain with u = 0 on the boundary, the
multiplier lambda fixed by int u = vol.  With u = lambda * phi and
phi = -|x - c|^2/4 + h, the harmonic correction h is a double-layer
potential whose density solves the second-kind system (-I/2 + K) mu = g,
g = |x - c|^2/4.  Written as a Cauchy integral, h = -Re Phi with

    Phi(z) = (1/2 pi i) oint mu(zeta) dzeta / (zeta - z),

and a single matrix w_j / (z_j - z_i), w_j = z'_j 2 pi/M, serves both the
Nystrom system (its imaginary part is the double-layer kernel) and the
interior boundary values

    Phi_-(z_i) = mu_i + (1/2 pi i) [sum_{j != i} (mu_j - mu_i) w_j/(z_j - z_i)
                                    + mu'(theta_i) 2 pi/M],

whose integrand is smooth.  The boundary normal derivative of h is the
tangential derivative of the conjugate, d_n h = -d_s Im Phi_-.  Interior
values, gradients and Hessians of h come from Phi, Phi' and Phi'': their
boundary values are formed once on a 4M-point resampled grid (the M grid
aliases the product integrand and loses digits in Phi'') and continued
inside by the barycentric Cauchy formula
sum_j w_j F_j / (z_j - z) / sum_j w_j / (z_j - z), which stays accurate
up to the boundary.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgecon

from . import spectral
from .errors import EvaluationError, SolverError
from .geometry import BoundaryField, interior_quadrature


def _dtheta(f):
    """Spectral d/dtheta of complex periodic samples."""
    return spectral.deriv(f.real) + 1j * spectral.deriv(f.imag)


def _cauchy_matrix(z, w):
    """C_ij = w_j / (z_j - z_i) off the diagonal, 0 on it."""
    diff = z[None, :] - z[:, None]
    np.fill_diagonal(diff, np.inf)
    return w[None, :] / diff


def _boundary_values(c, mu):
    """Interior limit Phi_-(z_i) of the Cauchy integral of mu at the nodes."""
    # a complex @ real matmul misses BLAS in numpy, hence the cast
    s = (c @ mu.astype(complex) - mu * c.sum(axis=1)
         + spectral.deriv(mu) * (2.0 * np.pi / mu.size))
    return mu + s / (2j * np.pi)


class TorsionSolution:
    """Solved torsion problem; exposes boundary fields and interior evaluation.

    Attributes
    ----------
    domain : StarDomain
    vol : float
        Prescribed value of int u.
    lambda_ : float
        Volume-normalized multiplier.
    phi_integral : float
        int phi over the domain (so lambda_ = vol / phi_integral).
    boundary_grad : BoundaryField
        |Du| at the boundary nodes (Du = -|Du| nu there).
    density : BoundaryField
        Double-layer density of the harmonic part.
    condition_estimate : float
        1-norm condition estimate of the boundary system.
    """

    def __init__(self, domain, vol, lambda_, phi_integral, mu, dn_h, cond):
        self.domain = domain
        self.vol = float(vol)
        self.lambda_ = float(lambda_)
        self.phi_integral = float(phi_integral)
        self.density = BoundaryField(domain, mu)
        self._dn_h = dn_h
        d = domain
        rel = d.z - d.zc
        dn_phi = -(rel.real * d.normal_c.real + rel.imag * d.normal_c.imag) / 2.0 + dn_h
        self._dn_phi = dn_phi
        self.boundary_grad = BoundaryField(domain, -lambda_ * dn_phi)
        self.condition_estimate = float(cond)
        self._sources = None
        self._quad_cache = {}

    # -- boundary quantities --------------------------------------------------

    def normal_derivative(self):
        """d u/d nu at the nodes (negative of boundary_grad)."""
        return BoundaryField(self.domain, self.lambda_ * self._dn_phi)

    def boundary_hessian(self):
        """Full Hessian of u at the boundary nodes, shape (M, 2, 2).

        Uses u_tt = kappa u_n, u_tn = d(u_n)/ds and u_nn = -lambda - kappa u_n,
        which pin the Hessian of a function vanishing on the boundary.
        """
        d = self.domain
        un = self.lambda_ * self._dn_phi
        u_tt = d.curvature * un
        u_tn = spectral.deriv(un) / d.speed
        u_nn = -self.lambda_ - u_tt
        t, n = d.tangent, d.normal
        tt = t[:, :, None] * t[:, None, :]
        nn = n[:, :, None] * n[:, None, :]
        tn = t[:, :, None] * n[:, None, :] + n[:, :, None] * t[:, None, :]
        return (u_tt[:, None, None] * tt + u_tn[:, None, None] * tn
                + u_nn[:, None, None] * nn)

    # -- interior evaluation ---------------------------------------------------

    def _cauchy_sources(self):
        """4M-grid nodes z_j and columns w_j * (Phi_-, Phi_-', Phi_-'', 1)."""
        if self._sources is None:
            d = self.domain
            mq = 4 * d.m
            zq = d.dense_boundary(4)
            zp = _dtheta(zq)
            w = zp * (2.0 * np.pi / mq)
            muq = spectral.resample(self.density.values, mq)
            phi = _boundary_values(_cauchy_matrix(zq, w), muq)
            dphi = _dtheta(phi) / zp
            d2phi = _dtheta(dphi) / zp
            cols = np.column_stack([phi, dphi, d2phi, np.ones(mq)])
            self._sources = (zq, w[:, None] * cols)
        return self._sources

    def _harmonic_parts(self, zt):
        """Barycentric h = -Re Phi, Psi' = -Phi' and Psi'' = -Phi'' at targets."""
        zq, cols = self._cauchy_sources()
        sums = np.empty((zt.size, 4), dtype=complex)
        # blocks of 1024 targets bound the kernel temporary to 1024 x 4M
        for lo in range(0, zt.size, 1024):
            sums[lo: lo + 1024] = (1.0 / (zq[None, :] - zt[lo: lo + 1024, None])) @ cols
        f = sums[:, :3] / sums[:, 3:]
        return -f[:, 0].real, -f[:, 1], -f[:, 2]

    def eval_interior(self, pts, min_distance=None):
        """u, Du and D^2 u at strictly interior points.

        Parameters
        ----------
        pts : (n, 2) array_like
        min_distance : float, optional
            Reject points closer to the boundary than this (default: a
            machine-scale fraction of the domain size).

        Returns
        -------
        u : (n,) ndarray;  grad : (n, 2) ndarray;  hess : (n, 2, 2) ndarray
        """
        d = self.domain
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        zt = pts[:, 0] + 1j * pts[:, 1]
        if min_distance is None:
            min_distance = 1e-9 * d.out_radius
        inside = d.contains(pts, tol=0.0)
        dist = d.boundary_distance(pts)
        bad = np.nonzero(~inside | (dist < min_distance))[0]
        if bad.size:
            raise EvaluationError(
                f"{bad.size} evaluation points outside the domain or closer "
                f"than {min_distance:g} to the boundary", bad_indices=bad)
        h, p1, p2 = self._harmonic_parts(zt)
        rel = zt - d.zc
        lam = self.lambda_
        u = lam * (-np.abs(rel) ** 2 / 4.0 + h)
        grad = lam * np.column_stack([-rel.real / 2.0 + p1.real,
                                      -rel.imag / 2.0 - p1.imag])
        hess = np.empty((len(pts), 2, 2))
        hess[:, 0, 0] = lam * (-0.5 + p2.real)
        hess[:, 0, 1] = hess[:, 1, 0] = lam * (-p2.imag)
        hess[:, 1, 1] = lam * (-0.5 - p2.real)
        return u, grad, hess

    def quadrature_data(self, n_radial=24):
        """(quadrature, u, grad, hess) at a tensor interior rule, memoized."""
        key = int(n_radial)
        if key not in self._quad_cache:
            quad = interior_quadrature(self.domain, n_radial)
            u, grad, hess = self.eval_interior(quad.nodes)
            self._quad_cache[key] = (quad, u, grad, hess)
        return self._quad_cache[key]


def _phi_integral_boundary(d, g, dn_h):
    """int phi by Green's identity: only boundary data of h are needed.

    int_Omega h dx = oint h d_n(|x-c|^2/4) - oint (|x-c|^2/4) d_n h, and the
    quartic moment of the radius gives int |x-c|^2 dx exactly.
    """
    rel = d.z - d.zc
    xdn = rel.real * d.normal_c.real + rel.imag * d.normal_c.imag
    int_h = np.sum((g * xdn / 2.0 - g * dn_h) * d.arc_weights)
    int_x2 = spectral.dealiased_power_sum(d.radii, 4) / 4.0
    return float(-int_x2 / 4.0 + int_h)


def solve_torsion(domain, vol, cond_limit=1e8, check_volume=False, n_radial=24):
    """Solve the volume-normalized torsion problem on a star domain.

    Parameters
    ----------
    domain : StarDomain
    vol : float
        Target value of int u (positive).
    cond_limit : float
        Raise SolverError when the boundary system's 1-norm condition
        estimate exceeds this.
    check_volume : bool
        Recompute int u by interior quadrature and require 1e-8 relative
        agreement (slower; used by verification paths).
    n_radial : int
        Radial order of the interior rule used when check_volume is set.
    """
    if vol <= 0.0:
        raise ValueError("vol must be positive")
    d = domain
    rel = d.z - d.zc
    g = np.abs(rel) ** 2 / 4.0

    # -Im(C)/2pi is the Nystrom double-layer kernel (arc weights included);
    # its diagonal limit is the curvature term.
    c = _cauchy_matrix(d.z, d.arc_weights * d.tangent_c)
    a = -c.imag / (2.0 * np.pi)
    np.fill_diagonal(a, -0.5 - d.curvature * d.arc_weights / (4.0 * np.pi))
    anorm = np.linalg.norm(a, 1)
    lu, piv = lu_factor(a)
    rcond, info = dgecon(lu, anorm, norm="1")
    cond = np.inf if rcond == 0.0 else 1.0 / rcond
    if info != 0 or cond > cond_limit:
        raise SolverError(
            f"boundary system condition estimate {cond:.3e} exceeds "
            f"limit {cond_limit:.3e}", condition_estimate=cond)
    mu = lu_solve((lu, piv), g)
    dn_h = -spectral.deriv(_boundary_values(c, mu).imag) / d.speed

    int_phi = _phi_integral_boundary(d, g, dn_h)
    if int_phi <= 0.0:
        raise SolverError("nonpositive torsion integral; domain too degenerate",
                          condition_estimate=cond)
    lam = vol / int_phi
    sol = TorsionSolution(d, vol, lam, int_phi, mu, dn_h, cond)

    if np.any(sol.boundary_grad.values <= 0.0):
        raise SolverError("boundary gradient is not strictly positive",
                          condition_estimate=cond)
    if check_volume:
        quad, u, _, _ = sol.quadrature_data(n_radial)
        vol_num = float(np.sum(u * quad.weights))
        if abs(vol_num - vol) > 1e-8 * abs(vol):
            raise SolverError(
                f"volume constraint check failed: quadrature gives {vol_num!r} "
                f"for target {vol!r}", condition_estimate=cond)
    return sol


def eval_interior(sol, pts, min_distance=None):
    """Module-level alias for TorsionSolution.eval_interior."""
    return sol.eval_interior(pts, min_distance=min_distance)
