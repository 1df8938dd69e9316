"""Volume-normalized torsion solve on star domains via one Cauchy kernel.

Solves -Delta u = lambda in the domain with u = 0 on the boundary, the
multiplier lambda fixed by int u = vol.  With u = lambda * phi and
phi = -|x - c|^2/4 + h, the harmonic correction h is a double-layer
potential whose density solves the second-kind system (-I/2 + K) mu = g,
g = |x - c|^2/4.  Written as a Cauchy integral, h = -Re Phi with

    Phi(z) = (1/2 pi i) oint mu(zeta) dzeta / (zeta - z),

and a single matrix w_j / (z_j - z_i), w_j = z'_j 2 pi/M, serves both the
Nystrom system (its imaginary part is the double-layer kernel) and the
interior boundary values, summed once, in the solve:

    Phi_-(z_i) = mu_i + (1/2 pi i) [S_i + mu'(theta_i) 2 pi/M],
    S_i = sum_{j != i} (mu_j - mu_i) w_j/(z_j - z_i),

whose integrand is smooth, so that Re Phi_- = mu + Im S/2 pi and
Im Phi_- = -Re S/2 pi - mu'/M are spectrally accurate on the M grid.  The
boundary normal derivative of h is the tangential derivative of the
conjugate, d_n h = -d_s Im Phi_-, one real FFT pair.  Interior values,
gradients and Hessians of h come from Phi, Phi' and Phi''.  The 4M-point
grid carries only the interpolant of Phi_-: one `spectral.jet` of its
modes gives Phi_- and its theta-derivatives, and the chain rule through z'
and z'' turns them into Phi_-' and Phi_-''.  The barycentric Cauchy formula
sum_j w_j F_j / (z_j - z) / sum_j w_j / (z_j - z) continues them inside
and stays accurate up to the boundary.

Only the M x M system is ever held whole.  The barycentric sums from the
4M grid to the interior targets are formed in row blocks of about
_BLOCK_ENTRIES kernel entries in one buffer reused across blocks, so their
memory does not grow with M or with the number of targets, and the
reported values do not depend on the blocking.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgecon, dlange

from . import spectral
from .errors import EvaluationError, SolverError
from .geometry import interior_quadrature

_COND_LIMIT = 1e8   # largest accepted 1-norm condition estimate of the system


def _cauchy_matrix(z, w):
    """C_ij = w_j / (z_j - z_i) off the diagonal, 0 on it."""
    c = z[None, :] - z[:, None]
    np.fill_diagonal(c, np.inf)
    return np.divide(w[None, :], c, out=c)


# A kernel block holds about 2**16 complex entries (1 MB, half of one core's
# 2 MB L2 cache on the Xeon it was timed on), so it stays cache-resident from
# the subtraction through the division to the product.  Budgets of 2**15 to
# 2**20 entries timed within noise of each other at M = 128, 512 and 1024.
# The buffer is allocated once per call: touching fresh pages for every
# block cost more than the arithmetic.
_BLOCK_ENTRIES = 2**16


def _difference_blocks(zs, zt):
    """Yield (rows, k) with k = zs[None, :] - zt[rows, None], in one reused buffer.

    The targets are split into blocks of near-equal size, at most
    _BLOCK_ENTRIES / zs.size rows each, so no block has a single row unless
    zt does: numpy sends a one-row product to a dot or gemv kernel whose
    rounding differs from gemm's, and a row's sums would then depend on how
    many targets share the call.
    """
    n = zt.size
    step = max(1, _BLOCK_ENTRIES // zs.size)
    blocks = -(-n // step)
    buf = np.empty((min(n, step), zs.size), dtype=complex)
    for b in range(blocks):
        lo, hi = b * n // blocks, (b + 1) * n // blocks
        k = buf[: hi - lo]
        np.subtract(zs[None, :], zt[lo:hi, None], out=k)
        yield slice(lo, hi), k


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
    boundary_grad : (M,) ndarray
        |Du| at the boundary nodes (Du = -|Du| nu there; the outward normal
        derivative is -boundary_grad).
    density : (M,) ndarray
        Double-layer density of the harmonic part at the boundary nodes.
    condition_estimate : float
        1-norm condition estimate of the boundary system.
    """

    def __init__(self, domain, vol, lambda_, phi_integral, mu, s, im_phi, dn_h, cond):
        self.domain = domain
        self.vol = float(vol)
        self.lambda_ = float(lambda_)
        self.phi_integral = float(phi_integral)
        self.density = mu
        self._s, self._im_phi = s, im_phi
        d = domain
        rel = d.z - d.zc
        self._dn_phi = dn_phi = -(rel.real * d.normal_c.real
                                  + rel.imag * d.normal_c.imag) / 2.0 + dn_h
        self.boundary_grad = -lambda_ * dn_phi
        self.condition_estimate = float(cond)
        self._sources = None
        self._quad_cache = {}

    # -- boundary quantities --------------------------------------------------

    def boundary_hessian(self):
        """Full Hessian of u at the boundary nodes, shape (M, 2, 2).

        Uses u_tt = kappa u_n, u_tn = d(u_n)/ds and u_nn = -lambda - kappa u_n,
        which pin the Hessian of a function vanishing on the boundary.
        """
        d = self.domain
        un = self.lambda_ * self._dn_phi
        u_tt = d.curvature * un
        u_tn = spectral.jet(np.fft.rfft(un), d.m, 1)[1] / d.speed
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
            e = spectral.unit_circle(mq)
            r, rp, rpp = spectral.jet(d.modes, mq, 2)
            zq = d.zc + r * e
            zp = (rp + 1j * r) * e
            zpp = (rpp - r + 2j * rp) * e
            # Re Phi_- from the kept S; the solve kept the modes of Im Phi_-
            re_phi = np.fft.rfft(self.density) + np.fft.rfft(self._s.imag) / (2.0 * np.pi)
            f = spectral.jet(np.stack([re_phi, self._im_phi]), mq, 2)
            phi, phi_t, phi_tt = f[:, 0] + 1j * f[:, 1]
            d1 = phi_t / zp
            d2 = (phi_tt - d1 * zpp) / zp**2
            w = zp * (2.0 * np.pi / mq)
            cols = np.column_stack([phi, d1, d2, np.ones(mq)])
            self._sources = (zq, w[:, None] * cols)
        return self._sources

    def _harmonic_parts(self, zt):
        """Barycentric h = -Re Phi, Psi' = -Phi' and Psi'' = -Phi'' at targets."""
        zq, cols = self._cauchy_sources()
        sums = np.empty((zt.size, 4), dtype=complex)
        # 1/(zeta_j - z) is formed in place in one reused buffer of about
        # _BLOCK_ENTRIES entries, so memory stays bounded for any M
        for rows, k in _difference_blocks(zq, zt):
            np.divide(1.0, k, out=k)
            np.matmul(k, cols, out=sums[rows])
        f = sums[:, :3] / sums[:, 3:]
        return -f[:, 0].real, -f[:, 1], -f[:, 2]

    def eval_interior(self, pts):
        """u, Du and D^2 u at strictly interior points.

        A point is rejected with EvaluationError when it lies less than
        1e-9 * out_radius inside the boundary along its ray from the
        domain's center (`StarDomain.contains` with that negative
        tolerance): every point outside or on the curve, and inside only
        points that close to it, since the depth along the ray is never
        below the distance to the curve.

        Parameters
        ----------
        pts : (n, 2) array_like

        Returns
        -------
        u : (n,) ndarray;  grad : (n, 2) ndarray;  hess : (n, 2, 2) ndarray
        """
        d = self.domain
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        depth = 1e-9 * d.out_radius
        bad = np.nonzero(~d.contains(pts, tol=-depth))[0]
        if bad.size:
            raise EvaluationError(
                f"{bad.size} evaluation points outside the domain or less "
                f"than {depth:g} inside its boundary", bad_indices=bad)
        zt = pts[:, 0] + 1j * pts[:, 1]
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
    int_x2 = (2.0 * np.pi / (4 * d.m)) * float(np.sum(d.refined_radii(4) ** 4)) / 4.0
    return float(-int_x2 / 4.0 + int_h)


def solve_torsion(domain, vol):
    """Solve the volume-normalized torsion problem on a star domain.

    Parameters
    ----------
    domain : StarDomain
    vol : float
        Target value of int u (positive).

    Raises SolverError when the boundary system's 1-norm condition estimate
    exceeds _COND_LIMIT, or when int phi or |Du| is not positive.
    """
    if not 0.0 < vol < np.inf:
        raise ValueError("vol must be positive and finite")
    d = domain
    rel = d.z - d.zc
    g = np.abs(rel) ** 2 / 4.0

    # -Im(C)/2pi is the Nystrom double-layer kernel (arc weights included);
    # its diagonal limit is the curvature term.
    c = _cauchy_matrix(d.z, d.arc_weights * d.tangent_c)
    # Fortran order lets getrf factor a in place
    a = np.divide(c.imag, -2.0 * np.pi, out=np.empty(c.shape, order="F"))
    np.fill_diagonal(a, -0.5 - d.curvature * d.arc_weights / (4.0 * np.pi))
    # LAPACK sums the columns in place; np.linalg.norm(a, 1) would form |a|,
    # one more M x M array
    anorm = dlange("1", a)
    lu, piv = lu_factor(a, overwrite_a=True)
    rcond, info = dgecon(lu, anorm, norm="1")
    cond = np.inf if rcond == 0.0 else 1.0 / rcond
    if info != 0 or cond > _COND_LIMIT:
        raise SolverError(
            f"boundary system condition estimate {cond:.3e} exceeds "
            f"limit {_COND_LIMIT:.3e}", condition_estimate=cond)
    mu = lu_solve((lu, piv), g)
    # d_n h = -d_theta Im Phi_-/speed, from the modes of Im Phi_- (module docstring)
    s = c @ mu.astype(complex) - mu * c.sum(axis=1)
    fh = np.fft.rfft(np.stack([s.real, mu]))
    ik = 1j * np.arange(d.m // 2 + 1)
    im_phi = -fh[0] / (2.0 * np.pi) - ik * fh[1] / d.m
    dim = ik * im_phi
    dim[-1] = 0.0
    dn_h = -np.fft.irfft(dim, d.m) / d.speed

    int_phi = _phi_integral_boundary(d, g, dn_h)
    if int_phi <= 0.0:
        raise SolverError("nonpositive torsion integral; domain too degenerate",
                          condition_estimate=cond)
    lam = vol / int_phi
    sol = TorsionSolution(d, vol, lam, int_phi, mu, s, im_phi, dn_h, cond)

    if np.any(sol.boundary_grad <= 0.0):
        raise SolverError("boundary gradient is not strictly positive",
                          condition_estimate=cond)
    return sol

