"""Shared solved problems for the test suite.

The torsion solves are the expensive step, so the standard shape family is
solved once per session and reused across modules.  All fixtures use the
default discretization (M = 128, vol = 1) unless a test needs otherwise.
The plain functions below are reference implementations that tests compare
the package against: they take the trigonometric interpolant of samples by
their own route, not through `spectral.jet`, and `scipy_lu_solve` runs the
solve's LU through scipy's own wrappers; `first_exit_reflection_radius`
finds the reflection radius's first exits by marching along each ray, and
`complex_key_exit_seeds` finds their seeds by the reference search; and
`saint_venant_domain` with `saint_venant_fields` is an exact torsion
solution on a domain that is not an ellipse; `energy_gap_rate` reads a
flow's asymptotic decay rate off its energy balance.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

from dropflow import (FourierShape, StarDomain, ball_closed_forms, build_star_domain,
                      quadratic_law, solve_torsion, torsion, total_energy)

# random smooth shapes for hypothesis: modes 2...8 of relative amplitude up
# to 0.08 about a base radius 0.5...2 (`smooth_shape`), at M = 64
SMOOTH_SHAPES = dict(modes=st.lists(st.tuples(st.integers(2, 8), st.floats(-0.08, 0.08)),
                                    max_size=3, unique_by=lambda km: km[0]),
                     base=st.floats(0.5, 2.0), m=st.just(64))


def smooth_shape(modes, base):
    return FourierShape(base, tuple((k, base * eps) for k, eps in modes))


@pytest.fixture(scope="session")
def disk_sol():
    return solve_torsion(build_star_domain("circle(1)", 128), 1.0)


@pytest.fixture(scope="session")
def ellipse_sol():
    return solve_torsion(build_star_domain("ellipse(1.2,0.8)", 128), 1.0)


@pytest.fixture(scope="session")
def fourier2_sol():
    return solve_torsion(build_star_domain("fourier(1;2:0.1)", 128), 1.0)


@pytest.fixture(scope="session")
def fourier35_sol():
    return solve_torsion(build_star_domain("fourier(1;3:0.1,5:0.03)", 128), 1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260815)


def eval_at_angles(f, psi):
    """Trigonometric interpolant of samples f at arbitrary angles, summed in
    cosines and sines."""
    f = np.asarray(f, dtype=float)
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    m = f.shape[-1]
    fh = np.fft.rfft(f) / m
    kp = np.arange(1, m // 2) * psi[:, None]
    return (fh[0].real
            + np.cos(kp) @ (2.0 * fh[1:-1].real)
            - np.sin(kp) @ (2.0 * fh[1:-1].imag)
            + fh[-1].real * np.cos((m // 2) * psi))


def resample(f, m_new):
    """Trigonometric interpolation of real samples onto a finer uniform grid.

    The Nyquist bin is halved: on the finer grid it is an ordinary mode that
    irfft counts twice, and the interpolant carries it as cos(M*theta/2).
    """
    f = np.asarray(f, dtype=float)
    m = f.shape[-1]
    fh = np.fft.rfft(f)
    fh[..., -1] *= 0.5
    return np.fft.irfft(fh, m_new) * (m_new / m)


def dealiased_power_sum(f, power):
    """(2pi/M)*sum of f(theta)^power with the product de-aliased by upsampling."""
    m = np.shape(f)[-1]
    mq = int(power) * m
    fq = resample(f, mq)
    return (2.0 * np.pi / mq) * float(np.sum(fq ** power))


def scipy_lu_solve(domain, vol):
    """`solve_torsion` with its LU path run through scipy.linalg's
    `lu_factor` and `lu_solve` in place of the direct LAPACK calls."""
    def factor(a):
        return lu_factor(a, overwrite_a=True, check_finite=False)

    def solve(lu_and_piv, b, trans):
        return lu_solve(lu_and_piv, b, trans=trans, check_finite=False)

    with mock.patch.multiple(torsion, lu_factor=factor, lu_solve=solve):
        return solve_torsion(domain, vol)


def first_exit_reflection_radius(d, step=1e-3):
    """Brute-force reflection radius about the origin: the largest x.e - l/2
    over nodes x and directions e = e^{i alpha_i} whose ray x - t e enters
    the domain (e.nu > 0), l its first exit; x.e for the other pairs; and 0.

    Each ray is marched, 16 points per pass, in steps of `step` times the
    largest cloud radius until the radial test |x - c| <= r of `d._ray`
    (`contains` with no tolerance) fails, and the exit is
    bisected between the last point inside and the first outside.
    """
    dirs = np.exp(2j * np.pi * np.arange(d.m) / d.m)
    x, e = np.repeat(d.z, d.m), np.tile(dirs, d.m)
    proj = (np.conj(e) * x).real
    enters = (np.conj(e) * np.repeat(d.normal_c, d.m)).real > 0.0
    lead = proj[~enters].max(initial=0.0)
    x, e, proj = x[enters], e[enters], proj[enters]

    def inside(z):
        rho, r = d._ray(np.column_stack([z.real.ravel(), z.imag.ravel()]))
        return (rho <= r).reshape(z.shape)

    h = step * np.abs(d.dense_boundary(8)).max()
    t_in = np.zeros(x.size)
    t_out = np.full(x.size, np.inf)
    rays = np.arange(x.size)
    while rays.size:
        t = t_in[rays, None] + h * np.arange(1, 17)
        ok = inside(x[rays, None] - t * e[rays, None])
        out = ~ok.all(axis=1)
        first = np.argmin(ok, axis=1)
        t_in[rays] = np.where(out, t_in[rays] + h * first, t[:, -1])
        t_out[rays[out]] = t[out, first[out]]
        rays = rays[~out]
    for _ in range(60):
        mid = 0.5 * (t_in + t_out)
        ok = inside(x - mid * e)
        t_in, t_out = np.where(ok, mid, t_in), np.where(ok, t_out, mid)
    return max(lead, float((proj - 0.5 * t_in).max(initial=0.0)))



def complex_key_exit_seeds(d, ce, cloud, jet, delta, bound):
    """`geometry._exit_seeds` with the crossing search it had before the
    per-direction one: the node heights of every direction sorted as
    complex keys row + i height, and all cloud heights found among them by
    one `searchsorted` (numpy orders complex numbers lexicographically)."""
    m, n, h = d.m, cloud.size, 2.0 * np.pi / cloud.size
    rows = np.arange(ce.shape[0])[:, None]
    w, xw, tw = ce * cloud, ce * d.z, ce * jet[0]
    bound = max(bound, xw.real[tw.imag <= 0.0].max(initial=0.0))
    bpp = (ce * jet[1]).imag
    s = np.divide(-2.0 * tw.imag, bpp, out=np.zeros_like(bpp), where=bpp != 0.0)
    near = np.nonzero((tw.imag > 0.0) & (tw.real * s < 0.0) & (np.abs(s) <= 2.0 * h))
    s = s[near]
    order = np.argsort(xw.imag, axis=1)
    keys = (rows + 1j * np.take_along_axis(xw.imag, order, axis=1)).ravel()
    idx = np.searchsorted(keys, (rows + 1j * w.imag).ravel()) - np.repeat(rows * m, n)
    nxt = np.roll(idx.reshape(-1, n), -1, axis=1).ravel()
    cnt = np.abs(nxt - idx)
    seg = np.repeat(np.arange(cnt.size), cnt)
    r, k = np.divmod(seg, n)
    j = order[r, np.arange(seg.size) - np.repeat(np.cumsum(cnt) - cnt - np.minimum(idx, nxt), cnt)]
    q = (k - n // m * j) % n
    r, j, k, q = (col[(q != 0) & (q != n - 1)] for col in (r, j, k, q))
    p0, p1, x = w[r, k], w[r, (k + 1) % n], xw[r, j]
    da, db = p1.real - p0.real, p1.imag - p0.imag
    tau = (x.imag - p0.imag) / db
    a = p0.real + tau * da
    err = delta + np.minimum(delta * np.abs(da / db), np.abs(da))
    value = 0.5 * (x.real + a)
    bound = max(bound, (value - 0.5 * err)[a < x.real - err].max(initial=0.0))
    keep = (a < x.real + err) & (value + 0.5 * err >= bound)
    q = np.where(q < n // 2, q, q - n)[keep]
    return bound, ((r[keep], j[keep], (q + tau[keep]) * h, q * h, (q + 1) * h,
                    -db[keep], (value + 0.5 * err)[keep]),
                   (near[0], near[1], s, *np.sort((0.5 * s, 2.0 * s), axis=0),
                    np.full(s.size, np.nan), np.full(s.size, np.inf)))

# Saint-Venant's torsion function u0 = a - |x|^2/4 + Re(c3 z^3): -Delta u0 = 1,
# and u0 vanishes on the boundary of {u0 > 0}, a rounded triangle
SAINT_VENANT_A, SAINT_VENANT_C3 = 0.25, 0.05


def saint_venant_domain(m):
    """StarDomain of {u0 > 0} about the origin from its radii at the M
    grid angles: the roots of r^2/4 - c3 r^3 cos(3 theta) = a nearest to
    2 sqrt(a), by Newton's method."""
    a, c3 = SAINT_VENANT_A, SAINT_VENANT_C3
    cos3 = np.cos(3.0 * 2.0 * np.pi * np.arange(m) / m)
    r = np.full(m, 2.0 * np.sqrt(a))
    for _ in range(50):
        r -= (r**2 / 4.0 - c3 * r**3 * cos3 - a) / (r / 2.0 - 3.0 * c3 * r**2 * cos3)
    return StarDomain((0.0, 0.0), r)


def saint_venant_fields(pts):
    """u0, Du0 and D^2 u0 at (n, 2) points: the torsion function phi, with
    lambda = 1, of `saint_venant_domain`."""
    a, c3 = SAINT_VENANT_A, SAINT_VENANT_C3
    z = pts[:, 0] + 1j * pts[:, 1]
    u = a - np.abs(z) ** 2 / 4.0 + c3 * (z**3).real
    d1 = 3.0 * c3 * z**2        # u_x - i u_y of the cubic
    d2 = 6.0 * c3 * z           # u_xx - i u_xy of the cubic
    grad = np.column_stack([-pts[:, 0] / 2.0 + d1.real, -pts[:, 1] / 2.0 - d1.imag])
    hess = np.empty((len(pts), 2, 2))
    hess[:, 0, 0] = -0.5 + d2.real
    hess[:, 0, 1] = hess[:, 1, 0] = -d2.imag
    hess[:, 1, 1] = -0.5 - d2.real
    return u, grad, hess


def energy_gap_rate(traj, window=(1e-10, 1e-8)):
    """Median of |D| / (2 (J - J*)) over the states whose energy gap
    J - J* lies in `window`.  Near the ball the gap decays like
    exp(-2 sigma_k t) for the slowest radius mode k present, and D = dJ/dt,
    so this reads sigma_k = (k - 1) lambda* of the flow.

    Where no accepted state lies in the window, the states are the flow's
    dense output (`Trajectory.domain_at`) at five times inside the interval
    whose gap falls across it, placed by interpolating log(J - J*) linearly
    in t, and solved here under the default law F(s) = s^2 - 1; those whose
    gap lies in the window count.
    """
    j_star = ball_closed_forms(2, traj.vol).j_star
    gap = traj.energy - j_star
    dd = traj.dissipations
    near = (window[0] < gap) & (gap < window[1])
    if not near.any():
        i = int(np.argmax(gap < window[0])) - 1
        lg0, lg1 = np.log(gap[i]), np.log(max(gap[i + 1], 1e-300))
        targets = np.log(np.geomspace(*window, 7)[1:-1])
        times = traj.times[i] + (targets - lg0) / (lg1 - lg0) * (traj.times[i + 1] - traj.times[i])
        law = quadratic_law()
        gap, dd = [], []
        for t in times:
            d = traj.domain_at(t)
            sol = solve_torsion(d, traj.vol)
            bg = sol.boundary_grad
            gap.append(total_energy(sol) - j_star)
            dd.append(np.sum((1.0 - bg**2) * law(bg) * d.arc_weights))
        gap, dd = np.array(gap), np.array(dd)
        near = (window[0] < gap) & (gap < window[1])
    return float(np.median(np.abs(dd[near]) / (2.0 * gap[near])))
