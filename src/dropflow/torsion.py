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
grid carries the interpolant of Phi_-: one `spectral.jet` of its modes
gives Phi_- and its theta-derivatives, and the chain rule through z' and
z'' turns them into Phi_-' and Phi_-''.  The barycentric Cauchy formula
sum_j w_j F_j / (z_j - z) / sum_j w_j / (z_j - z) (Helsing & Ojala, J.
Comput. Phys. 227, 2008) continues them inside and stays accurate up to
the boundary.  Each target sums over the coarsest of the grids of M, 2M
and 4M points, every fourth, every second and every point of the 4M grid,
whose error estimate (`_depth_bounds`) is below _GRID_TOL: in the
barycentric form only the part of the data that is not the trace of a
function analytic inside is left, bounded by the modes of the columns
above M/3, and the N-point rule sees mode p of it through the kernel's
decay e^{-(N - p) eta} (Barnett, SIAM J. Sci. Comput. 36, 2014), eta the
target's complex-parameter distance from the curve.  Deep targets take
the M grid, targets near the curve the 4M grid.

Only the real M x M system and Re C are ever held whole.  The complex
Cauchy matrix is formed in row blocks of about _BLOCK_ENTRIES entries in
one buffer reused across blocks, each block writing its rows of the system,
of Re C and of the row sums of C; S comes afterwards from Re C mu and from
the system's own equation.  The system, Re C and the block buffer are kept
per thread (`_scratch`) and reused by the next solve, so a large solve does
not touch fresh pages; no result points into them.  Below _KRYLOV_M nodes
the system is factored by LU, calling LAPACK's dgetrf, dgecon and dgetrs
directly (this module's lu_factor and lu_solve; scipy's functions of those
names reach the same routines through Python wrappers that cost more than a
small factorization; `_lapack` loads the routines from scipy's compiled
_flapack extension, because importing scipy.linalg cost each process more
set-up time than a whole small flow), from _KRYLOV_M up it is solved by
GMRES, whose iteration count the second-kind system keeps independent of
M, so the solve costs O(M^2) there.
The barycentric sums to interior targets run through the same blocks, so
their memory does not grow with M or with the number of targets, and a
target's values depend only on the target and the solution, not on the
other targets of the call.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import threading

import numpy as np

from . import spectral
from .errors import EvaluationError, SolverError
from .geometry import _BLOCK_ENTRIES, interior_quadrature


def _lapack():
    """(dgetrf, dgetrs, dgecon, dlange) from scipy's compiled LAPACK
    extension, scipy/linalg/_flapack, loaded from its file.

    Loading the file runs neither scipy's nor scipy.linalg's package
    __init__.  `import scipy.linalg` pulls in scipy._lib, array_api_compat
    and numpy.f2py: it took 0.17-0.18 s and 24 MB of each process's set-up
    (`import dropflow, dropflow.cli` 0.30-0.36 s and 56.6 MB peak RSS, now
    0.11-0.14 s and 32.7 MB, numpy's 0.06 s included; 2-vCPU Xeon, scipy
    1.17.1), where the extension alone loads in 3-5 ms.  The routines are
    the objects scipy.linalg.lapack exports, so results are bit-identical.
    Where the file is missing or does not load, they come from
    scipy.linalg.lapack.
    """
    scipy = importlib.util.find_spec("scipy")   # imports nothing
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if scipy else ():
        path = os.path.join(scipy.submodule_search_locations[0], "linalg",
                            "_flapack" + suffix)
        if not os.path.isfile(path):
            continue
        spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
        try:
            flapack = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(flapack)
        except ImportError:
            break
        return flapack.dgetrf, flapack.dgetrs, flapack.dgecon, flapack.dlange
    from scipy.linalg.lapack import dgecon, dgetrf, dgetrs, dlange
    return dgetrf, dgetrs, dgecon, dlange


dgetrf, dgetrs, dgecon, dlange = _lapack()

_COND_LIMIT = 1e8   # largest accepted condition estimate of the boundary system

# From _KRYLOV_M nodes on, GMRES solves the system instead of LU.  With the
# direct LAPACK calls and one BLAS thread, GMRES took 0.10-0.78 ms against
# 0.84-1.17 ms for LU + dgecon at M = 256 on the standard shapes and
# ellipse(2,0.5), and 0.14-0.60 ms against 0.43-0.67 ms at M = 192; at
# M = 160 the two overlap, at M = 128 LU is cheaper on all but the circle,
# and at M = 64 on all five.  The switch stays at 256, where it was first
# measured, because moving it changes the results at M = 192...255.  At
# M = 256...2048 GMRES took 2-26 iterations on fourier(1;k:eps), k <= 8,
# eps <= 0.3, and on ellipse(a,1/a), a <= 3, and 31 on ellipse(4,0.25) at
# M = 2048 (lambda 3.5e-6 off); every shape that took more than 34 had
# lambda more than 10 % off, so _KRYLOV_ITERATIONS leaves a margin of two.
_KRYLOV_M = 256
_KRYLOV_ITERATIONS = 64


# This thread's flat scratch arrays by name, each grown to the largest size
# asked of it.  For the kernel block buffer (`_BLOCK_ENTRIES` entries),
# touching fresh pages for every block, or for every call, cost more than
# the arithmetic.  Freed at the end of every solve, the system, Re C and the
# block buffer together passed glibc's trim threshold, so the next large
# solve faulted fresh pages in again: in blocks of one M = 1024 and 24
# M = 128 solves (one BLAS thread, 2-vCPU Xeon) the M = 1024 median was
# 24-28 ms with 53,000-72,000 minor faults per 40 blocks, and 17-22 ms with
# at most 14 faults once the arrays were kept.
_workspace = threading.local()


def _scratch(name, n, dtype):
    """A view of the first n entries of this thread's flat array `name`."""
    buf = getattr(_workspace, name, None)
    if buf is None or buf.size < n:
        buf = np.empty(n, dtype)
        setattr(_workspace, name, buf)
    return buf[:n]


def _difference_blocks(zs, zt):
    """Yield (rows, k) with k = zs[None, :] - zt[rows, None], in this thread's
    block buffer.

    The targets are split into blocks of near-equal size, at most
    _BLOCK_ENTRIES / zs.size rows each, so no block has a single row unless
    zt does: numpy sends a one-row product to a dot or gemv kernel whose
    rounding differs from gemm's, and a row's sums would then depend on how
    many targets share the call.
    """
    n = zt.size
    step = max(1, _BLOCK_ENTRIES // zs.size)
    blocks = -(-n // step)
    buf = _scratch("block", min(n, step) * zs.size, complex).reshape(-1, zs.size)
    for b in range(blocks):
        lo, hi = b * n // blocks, (b + 1) * n // blocks
        k = buf[: hi - lo]
        np.subtract(zs[None, :], zt[lo:hi, None], out=k)
        yield slice(lo, hi), k


# A grid of M or 2M points serves a target whose error estimate
# (`_depth_bounds`) is below _GRID_TOL relative to the columns' scale; the
# 4M grid serves every other target.
_GRID_TOL = 4e-15


def _depth_bounds(d, f, rq):
    """Depth fractions s = |x - c|/r up to which the M and 2M grids serve;
    -inf where even the center's estimate is not below _GRID_TOL.

    f holds the columns Phi_-, Phi_-' and Phi_-'' on the 4M grid, each
    scaled here by the larger of its largest value and R^(2-k), R the
    largest radius sample, and rq is r'/r there.  a_p is the largest of
    |c_p| and |c_-p| over the scaled columns' Fourier coefficients c, p up
    to 2M, whose bin on the 4M grid also holds the modes beyond it.  The
    modes p > M/3 bound the part of the data that is not the trace of a
    function analytic inside, which alone the barycentric form does not
    cancel (taking p > M/2 instead let M-grid targets at depth fraction
    0.99 come out 5x less accurate than on the 4M grid).  The N-point
    estimate at complex-parameter distance eta is

        E_N(eta)^2 = sum_{p > M/3} a_p^2 e^{-2 eta max(N - p, 0)},

    the modes from N up aliasing whole.  Each term falls with N, so no
    coarser grid's estimate is below the 4M grid's, and a grid serves where
    its estimate is below _GRID_TOL.  A point at radial gap g below
    gamma(theta) is gamma(theta + i eta) with eta = g r/(r^2 + r'^2) to
    first order; with the largest r'/r on the curve, eta is at least
    (1 - s)/(1 + max (r'/r)^2), from the depth fraction alone.  log E_N^2 is
    a convex, falling function of eta, so Newton's method from eta = 0
    climbs to where E_N meets _GRID_TOL without passing it; each step is
    lengthened by 0.1 %, so the last one ends just past it (a grid whose
    climb has not ended in 64 steps serves no target).  Costs O(M log M),
    whatever the number of targets.
    """
    m = d.m
    scale = np.maximum(np.abs(f).max(axis=1), d.radii.max() ** np.array([2.0, 1.0, 0.0]))
    c = np.abs(np.fft.fft(f / scale[:, None], axis=1)) / f.shape[1]
    p = np.arange(m // 3 + 1, 2 * m + 1)
    a2 = np.maximum(c[:, p], c[:, -p]).max(axis=0) ** 2
    tol2 = _GRID_TOL**2
    q = 1.0 + float((rq**2).max())
    bounds = []
    for n in (m, 2 * m):
        k = 2.0 * np.maximum(n - p, 0)
        eta = 0.0
        for _ in range(64):
            t = a2 * np.exp(-eta * k)
            e2, slope = t.sum(), t @ k
            if e2 <= tol2 or eta * q >= 1.0 or slope == 0.0:
                break
            eta += 1.001 * e2 * math.log(e2 / tol2) / slope
        bounds.append(1.0 - q * eta if e2 <= tol2 else -np.inf)
    return np.array(bounds)


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
        Condition estimate of the boundary system: LAPACK's 1-norm estimate
        below _KRYLOV_M nodes, and from _KRYLOV_M up the 2-norm estimate
        sigma_max / sigma_min of the GMRES Hessenberg matrix, a lower bound
        on the 2-norm condition number.
    """

    def __init__(self, domain, vol, lambda_, phi_integral, mu, im_s, im_phi, dn_phi, cond):
        self.domain = domain
        self.vol = float(vol)
        self.lambda_ = float(lambda_)
        self.phi_integral = float(phi_integral)
        self.density = mu
        self._im_s, self._im_phi = im_s, im_phi
        self.boundary_grad = -lambda_ * dn_phi
        self.condition_estimate = float(cond)
        self._sources = None
        self._quad_cache = {}

    # -- interior evaluation ---------------------------------------------------

    def _cauchy_sources(self):
        """(bounds, grids): the source grids of M, 2M and 4M points, each a
        pair of nodes z_j and columns w_j * (Phi_-, Phi_-', Phi_-'', 1), and
        the depth fractions up to which the M and 2M grids serve
        (`_depth_bounds`), all built once per solution.

        The coarser grids are every fourth and every second point of the 4M
        grid, their weights those of the 4M grid: a power of two that the
        barycentric ratio cancels exactly.
        """
        if self._sources is None:
            d = self.domain
            mq = 4 * d.m
            e = spectral.unit_circle(mq)
            r, rp, rpp = spectral.jet(d.modes, mq, 2)
            zq = d.zc + r * e
            zp = (rp + 1j * r) * e
            zpp = (rpp - r + 2j * rp) * e
            # Re Phi_- from the kept Im S; the solve kept the modes of Im Phi_-
            re_phi = np.fft.rfft(self.density) + np.fft.rfft(self._im_s) / (2.0 * np.pi)
            f = spectral.jet(np.stack([re_phi, self._im_phi]), mq, 2)
            phi, phi_t, phi_tt = f[:, 0] + 1j * f[:, 1]
            d1 = phi_t / zp
            d2 = (phi_tt - d1 * zpp) / zp**2
            w = zp * (2.0 * np.pi / mq)
            cols = w[:, None] * np.column_stack([phi, d1, d2, np.ones(mq)])
            bounds = _depth_bounds(d, np.stack([phi, d1, d2]), rp / r)
            grids = [(zq[::k].copy(), cols[::k].copy()) for k in (4, 2)]
            self._sources = (bounds, grids + [(zq, cols)])
        return self._sources

    def _harmonic_parts(self, zt, s):
        """Barycentric h = -Re Phi, Psi' = -Phi' and Psi'' = -Phi'' at targets
        zt at depth fractions s, each summed over the coarsest grid of
        `_cauchy_sources` that serves its depth."""
        bounds, grids = self._cauchy_sources()
        grid = (s[:, None] > bounds).sum(axis=1)
        sums = np.empty((zt.size, 4), dtype=complex)
        for g, (zs, cols) in enumerate(grids):
            idx = np.flatnonzero(grid == g)
            # a lone target takes a twin: numpy would send its one-row
            # product to gemv, whose rounding differs from gemm's
            zg = zt[np.repeat(idx, 2) if idx.size == 1 else idx]
            part = np.empty((zg.size, 4), dtype=complex)
            # 1/(zeta_j - z) is formed in place in the thread's block buffer
            # of about _BLOCK_ENTRIES entries, so memory stays bounded for any M
            for rows, k in _difference_blocks(zs, zg):
                np.divide(1.0, k, out=k)
                np.matmul(k, cols, out=part[rows])
            sums[idx] = part[:idx.size]
        f = sums[:, :3] / sums[:, 3:]
        return -f[:, 0].real, -f[:, 1], -f[:, 2]

    def eval_interior(self, pts):
        """u, Du and D^2 u at strictly interior points.

        A point is rejected with EvaluationError when it lies less than
        1e-9 times the largest radius sample inside the boundary along its
        ray from the domain's center (the radial gap of `StarDomain.contains`
        at that depth): every point outside or on the curve, and inside only
        points that close to it, since the depth along the ray is never
        below the distance to the curve.  The same ray gives the
        point's depth fraction s = |x - c|/r, which picks its source grid
        (`_harmonic_parts`), so a point's values do not depend on the other
        points of the call.

        Parameters
        ----------
        pts : (n, 2) array_like

        Returns
        -------
        u : (n,) ndarray;  grad : (n, 2) ndarray;  hess : (n, 2, 2) ndarray
        """
        d = self.domain
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        depth = 1e-9 * d.radii.max()
        rho, r = d._ray(pts)
        bad = np.nonzero(~(rho <= r - depth))[0]
        if bad.size:
            raise EvaluationError(
                f"{bad.size} evaluation points outside the domain or less "
                f"than {depth:g} inside its boundary", bad_indices=bad)
        zt = pts[:, 0] + 1j * pts[:, 1]
        h, p1, p2 = self._harmonic_parts(zt, rho / r)
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

    def quadrature_data(self, n_radial):
        """(quadrature, u, grad, hess) at a tensor interior rule, memoized."""
        key = int(n_radial)
        if key not in self._quad_cache:
            quad = interior_quadrature(self.domain, n_radial)
            u, grad, hess = self.eval_interior(quad.nodes)
            self._quad_cache[key] = (quad, u, grad, hess)
        return self._quad_cache[key]


def _phi_integral_boundary(d, g, xdn, dn_h):
    """int phi by Green's identity: only boundary data of h are needed.

    int_Omega h dx = oint h d_n(|x-c|^2/4) - oint (|x-c|^2/4) d_n h, with
    xdn = (x - c).nu, and the quartic moment of the radius gives
    int |x-c|^2 dx exactly.
    """
    int_h = ((g * xdn / 2.0 - g * dn_h) * d.arc_weights).sum()
    int_x2 = (2.0 * np.pi / (4 * d.m)) * float((d.refined_radii(4) ** 4).sum()) / 4.0
    return float(-int_x2 / 4.0 + int_h)


def _gmres(a, g):
    """Solve a x = g by unrestarted GMRES; return x and the condition estimate.

    The start x0 is a fixed pseudo-random vector of norm about |g|, so the
    Krylov space holds every direction of the spectrum, the odd-symmetric
    ones that a symmetric g lacks included, and the singular values of the
    Arnoldi Hessenberg matrix H approach the extreme ones of a:
    sigma_max(H) / sigma_min(H) estimates the 2-norm condition number from
    below.  Classical Gram-Schmidt runs twice per step, and the residual
    norm comes from Givens rotations of the columns of H in Python floats.
    """
    m = g.size
    gnorm = float(np.linalg.norm(g))
    tol = 4.0 * float(np.spacing(gnorm))
    x0 = np.random.default_rng(0).standard_normal(m) * (gnorm / np.sqrt(m))
    r = g - a @ x0
    beta = float(np.linalg.norm(r))
    v = np.empty((_KRYLOV_ITERATIONS + 1, m))
    h = np.zeros((_KRYLOV_ITERATIONS + 1, _KRYLOV_ITERATIONS))
    np.divide(r, beta, out=v[0])
    rotations, res = [], beta
    for k in range(_KRYLOV_ITERATIONS):
        w = a @ v[k]
        basis = v[: k + 1]
        hk = basis @ w
        w -= hk @ basis
        dh = basis @ w
        w -= dh @ basis
        hk += dh
        h[: k + 1, k] = hk
        h[k + 1, k] = hnext = float(np.linalg.norm(w))
        col = hk.tolist()
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        rho = math.hypot(col[k], hnext)
        c, s = (col[k] / rho, hnext / rho) if rho else (1.0, 0.0)
        rotations.append((c, s))
        res *= abs(s)
        if res <= tol:
            break
        np.divide(w, hnext, out=v[k + 1])
    else:
        raise SolverError(
            f"GMRES reached relative residual {res / gnorm:.3e} in "
            f"{_KRYLOV_ITERATIONS} iterations")
    n = k + 1
    u, sv, vt = np.linalg.svd(h[: n + 1, :n], full_matrices=False)
    cond = _checked(sv[0] / sv[-1] if sv[-1] else np.inf)
    return x0 + (vt.T @ (beta * u[0] / sv)) @ v[:n], cond


def lu_factor(a):
    """(lu, piv): LAPACK's dgetrf of the Fortran-ordered square `a`, in place.

    scipy.linalg.lu_factor without its Python wrappers, which cost more
    than a small factorization, and without importing scipy.linalg: dgetrf
    comes from scipy's compiled _flapack extension, loaded from its file
    (`_lapack`), and is the object scipy.linalg.lapack exports.  An exactly
    zero pivot is a SolverError with condition_estimate inf, where scipy
    only warns.
    """
    lu, piv, info = dgetrf(a, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrf")
    if info > 0:
        raise SolverError(f"boundary system is singular: pivot {info} of its "
                          "LU factorization is zero", condition_estimate=np.inf)
    return lu, piv


def lu_solve(lu_and_piv, b, trans):
    """x with A x = b (trans 0) or A^T x = b (trans 1), from `lu_factor`'s
    factors of A: LAPACK's dgetrs, as scipy.linalg.lu_solve calls it."""
    x, info = dgetrs(*lu_and_piv, b, trans=trans)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrs")
    return x


def _checked(cond):
    """cond, or SolverError when it exceeds _COND_LIMIT or is NaN."""
    if not cond <= _COND_LIMIT:
        raise SolverError(
            f"boundary system condition estimate {cond:.3e} exceeds "
            f"limit {_COND_LIMIT:.3e}", condition_estimate=cond)
    return cond


def solve_torsion(domain, vol):
    """Solve the volume-normalized torsion problem on a star domain.

    Below _KRYLOV_M nodes the boundary system is factored by LU (LAPACK's
    dgetrf and dgetrs, called directly) and its condition estimate is
    LAPACK's 1-norm estimate (dgecon); from _KRYLOV_M
    up it is solved by GMRES and the estimate is the 2-norm one of the
    Krylov Hessenberg matrix, a lower bound that was within 0.25 % of the
    exact value on the standard shapes.

    Parameters
    ----------
    domain : StarDomain
    vol : float
        Target value of int u (positive).

    Raises SolverError when the LU factor has an exactly zero pivot
    (condition_estimate inf), when the boundary system's condition estimate
    exceeds _COND_LIMIT, when GMRES does not reach its residual within
    _KRYLOV_ITERATIONS steps, or when int phi or |Du| is not positive.
    """
    if not 0.0 < vol < np.inf:
        raise ValueError("vol must be positive and finite")
    d = domain
    m = d.m
    rel = d.z - d.zc
    g = np.abs(rel) ** 2 / 4.0
    xdn = rel.real * d.normal_c.real + rel.imag * d.normal_c.imag

    # Row blocks of C_ij = w_j / (z_j - z_i), 0 on the diagonal, write the
    # system a = -Im C/2pi (the Nystrom double-layer kernel, arc weights
    # included), Re C and the row sums of C; C itself is never held whole.
    w = d.arc_weights * d.tangent_c
    a = _scratch("system", m * m, float).reshape(m, m)
    re_c = _scratch("re_c", m * m, float).reshape(m, m)
    rowsum = np.empty(m, dtype=complex)
    for rows, k in _difference_blocks(d.z, d.z):
        k.reshape(-1)[rows.start::m + 1] = np.inf
        np.divide(w, k, out=k)
        np.divide(k.imag, -2.0 * np.pi, out=a[rows])
        re_c[rows] = k.real
        k.sum(axis=1, out=rowsum[rows])
    # the diagonal limit of the kernel is the curvature term
    diag = -0.5 - d.curvature * d.arc_weights / (4.0 * np.pi)
    np.fill_diagonal(a, diag)
    if m < _KRYLOV_M:
        # a.T is the Fortran-ordered A^T, which dgetrf factors in place; the
        # infinity norm of A^T is the 1-norm of A.  The system is finite
        # because StarDomain checks its radii.
        anorm = dlange("I", a.T)
        lu = lu_factor(a.T)
        rcond, info = dgecon(lu[0], anorm, norm="I")
        cond = _checked(np.inf if info != 0 or rcond == 0.0 else 1.0 / rcond)
        mu = lu_solve(lu, g, trans=1)
    else:
        mu, cond = _gmres(a, g)
    # S = C mu - mu rowsum(C), Re S beside mu for one real FFT pair; a mu = g
    # gives Im(C mu) = -2pi (g - diag mu)
    pair = np.empty((2, m))
    np.subtract(re_c @ mu, mu * rowsum.real, out=pair[0])
    pair[1] = mu
    im_s = -2.0 * np.pi * (g - diag * mu) - mu * rowsum.imag
    # d_n h = -d_theta Im Phi_-/speed, from the modes of Im Phi_- (module docstring)
    fh = np.fft.rfft(pair)
    ik = spectral.derivative_factors(m // 2 + 1)
    im_phi = -fh[0] / (2.0 * np.pi) - ik * fh[1] / m
    dim = ik * im_phi
    dim[-1] = 0.0
    dn_h = -np.fft.irfft(dim, m) / d.speed

    int_phi = _phi_integral_boundary(d, g, xdn, dn_h)
    if int_phi <= 0.0:
        raise SolverError("nonpositive torsion integral; domain too degenerate",
                          condition_estimate=cond)
    lam = vol / int_phi
    sol = TorsionSolution(d, vol, lam, int_phi, mu, im_s, im_phi, -xdn / 2.0 + dn_h, cond)

    if (sol.boundary_grad <= 0.0).any():
        raise SolverError("boundary gradient is not strictly positive",
                          condition_estimate=cond)
    return sol
