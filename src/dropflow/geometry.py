"""Star-shaped planar domains with spectral boundary geometry.

A domain is represented by M radius samples on the uniform angle grid
theta_j = 2*pi*j/M about a center point.  The boundary is one curve, the
trigonometric interpolant r(theta) swept around the center:
gamma(theta) = center + r(theta) e^{i theta}.  Everything else is derived
from r and its spectral derivatives r', r'': the nodes, the tangent, normal,
speed, curvature and arc weights (from gamma' and gamma''), the curve at
arbitrary angles, membership, and the cached dense node clouds that the
distance queries (through a k-d tree of the 8M cloud), ray casting and the
crossing search of the ball overlap read.

Besides the representation itself this module provides area/moment
computations, a tensor-product interior quadrature, ball-comparison metrics
(symmetric-difference asymmetry, the boundary-distance estimate pair, the
minimal reflection radius) and CSV snapshot I/O.  The overlap with a ball
is exact: the curve's crossings with the circle split the boundary of the
intersection into curve arcs, whose area comes from the Fourier
coefficients of r^2, and circle arcs; its gradient and Hessian in the ball
center come in closed form from the same crossings, and the asymmetry
search is Newton's method on them.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from . import spectral
from .errors import ConvergenceError, ShapeError

_MIN_M = 16


# ----------------------------------------------------------------------------
# shape specifications
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Circle:
    radius: float


@dataclass(frozen=True)
class Ellipse:
    a: float
    b: float


@dataclass(frozen=True)
class FourierShape:
    """r(theta) = base + sum_k eps_k * cos(k*theta)."""

    base: float
    modes: tuple = ()


@dataclass(frozen=True)
class Samples:
    radii: tuple


def parse_shape(text):
    """Parse a shape spec string.

    Grammar: ``circle(R)``, ``ellipse(a,b)``,
    ``fourier(R; k1:eps1, k2:eps2, ...)``.
    """
    s = text.strip().lower()
    if not s.endswith(")") or "(" not in s:
        raise ShapeError(f"malformed shape spec: {text!r}")
    head, _, body = s[:-1].partition("(")
    head = head.strip()
    try:
        if head == "circle":
            return Circle(float(body))
        if head == "ellipse":
            a, b = (float(t) for t in body.split(","))
            return Ellipse(a, b)
        if head == "fourier":
            base_s, _, modes_s = body.partition(";")
            modes = []
            if modes_s.strip():
                for item in modes_s.split(","):
                    k_s, _, eps_s = item.partition(":")
                    modes.append((int(k_s), float(eps_s)))
            return FourierShape(float(base_s), tuple(modes))
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"malformed shape spec: {text!r}") from exc
    raise ShapeError(f"unknown shape kind: {head!r}")


def _shape_radii(shape, theta):
    if isinstance(shape, str):
        shape = parse_shape(shape)
    if isinstance(shape, Circle):
        return np.full_like(theta, float(shape.radius))
    if isinstance(shape, Ellipse):
        a, b = float(shape.a), float(shape.b)
        return a * b / np.sqrt((b * np.cos(theta)) ** 2 + (a * np.sin(theta)) ** 2)
    if isinstance(shape, FourierShape):
        r = np.full_like(theta, float(shape.base))
        for k, eps in shape.modes:
            r = r + eps * np.cos(int(k) * theta)
        return r
    if isinstance(shape, Samples):
        r = np.asarray(shape.radii, dtype=float)
        if r.shape != theta.shape:
            raise ShapeError("explicit samples must match the angle grid size")
        return r.copy()
    raise ShapeError(f"unsupported shape spec: {shape!r}")


# ----------------------------------------------------------------------------
# the domain type
# ----------------------------------------------------------------------------

class BoundaryGeometry(NamedTuple):
    tangent: np.ndarray
    normal: np.ndarray
    speed: np.ndarray
    curvature: np.ndarray
    arc_weights: np.ndarray


class StarDomain:
    """Star-shaped domain from uniform-angle radius samples.

    Parameters
    ----------
    center : (2,) array_like
        Star center; the radius parameterization is taken about it.
    radii : (M,) array_like
        Positive radius samples at theta_j = 2*pi*j/M, M even, M >= 16.
    """

    def __init__(self, center, radii):
        center = np.asarray(center, dtype=float).reshape(2)
        radii = np.asarray(radii, dtype=float).copy()
        m = radii.size
        if m < _MIN_M or m % 2 != 0:
            raise ShapeError(f"need an even number of samples >= {_MIN_M}, got {m}")
        if not np.all(np.isfinite(radii)) or np.any(radii <= 0.0):
            raise ShapeError("radius samples must be finite and positive")
        self.center = center
        self.radii = radii
        self.m = m
        self.theta = spectral.angle_grid(m)

        # boundary nodes and differential geometry from r, r', r''
        self._rp = spectral.deriv(radii)
        self._rpp = spectral.deriv(radii, 2)
        e = spectral.unit_circle(m)
        self.zc = center[0] + 1j * center[1]
        self.z = self.zc + radii * e
        zp = (self._rp + 1j * radii) * e
        zpp = (self._rpp + 2j * self._rp - radii) * e
        self.speed = np.abs(zp)
        self.tangent_c = zp / self.speed
        self.normal_c = -1j * self.tangent_c
        self.curvature = -(np.conj(zpp) * self.normal_c).real / self.speed**2
        self.arc_weights = (2.0 * np.pi / m) * self.speed

        self.nodes = np.column_stack([self.z.real, self.z.imag])
        self.tangent = np.column_stack([self.tangent_c.real, self.tangent_c.imag])
        self.normal = np.column_stack([self.normal_c.real, self.normal_c.imag])

        self.area = 0.5 * spectral.dealiased_power_sum(radii, 2)
        self._dense = {}

    def dense_boundary(self, factor=16):
        """Cached curve points (complex) on the factor*M uniform angle grid."""
        if factor not in self._dense:
            mq = factor * self.m
            self._dense[factor] = (self.zc + spectral.resample(self.radii, mq)
                                   * spectral.unit_circle(mq))
        return self._dense[factor]

    @cached_property
    def spectral_tail(self):
        """Relative l2 weight of the top third of the radius modes."""
        return spectral.tail_fraction(self.radii)

    # -- scalar geometry ----------------------------------------------------

    @cached_property
    def barycenter(self):
        # first moment (1/3) oint r^3 e^{i psi} dpsi, with r^3 e^{i psi} = |g|^2 g
        g = self.dense_boundary(4) - self.zc
        mom = np.sum(np.abs(g) ** 2 * g) * (2.0 * np.pi / (3.0 * g.size))
        return self.center + np.array([mom.real, mom.imag]) / self.area

    @cached_property
    def _extremes(self):
        """(min, max) distance from the barycenter to the boundary curve.

        Newton on d|gamma - p|^2/dtheta = 0, seeded at the nearest and the
        farthest point of the 8M cloud and iterated on both together.
        """
        pc = self.barycenter[0] + 1j * self.barycenter[1]
        seed = np.abs(self.dense_boundary(8) - pc)
        th = spectral.angle_grid(8 * self.m)[[seed.argmin(), seed.argmax()]]
        for _ in range(4):
            g, gp, gpp = self.curve_jet(th)
            gme = g - pc
            f1 = (np.conj(gme) * gp).real
            f2 = (np.abs(gp) ** 2 + (np.conj(gme) * gpp).real)
            th = th - np.divide(f1, f2, out=np.zeros_like(f1), where=f2 != 0.0)
        dist = np.abs(self.curve_points(th) - pc)
        return float(dist[0]), float(dist[1])

    @property
    def in_radius(self):
        return self._extremes[0]

    @property
    def out_radius(self):
        return self._extremes[1]

    @cached_property
    def diameter(self):
        d = self.nodes[:, None, :] - self.nodes[None, :, :]
        return float(np.sqrt((d**2).sum(-1)).max())

    # -- curve evaluation at arbitrary parameter angles ----------------------

    def radius_at(self, psi):
        """Trig-interpolated radius at arbitrary angles about the center."""
        return spectral.eval_at_angles(self.radii, psi)

    def curve_points(self, th):
        """gamma(theta) = center + r(theta) e^{i theta}, exact interpolant."""
        u = np.exp(1j * np.atleast_1d(np.asarray(th, dtype=float)))
        return self.zc + self._radius_jet(u, 0)[0] * u

    def curve_jet(self, th):
        """gamma, gamma' and gamma'' at parameter angles th, from r, r', r''."""
        u = np.exp(1j * np.atleast_1d(np.asarray(th, dtype=float)))
        r, rp, rpp = self._radius_jet(u)
        return self.zc + r * u, (rp + 1j * r) * u, (rpp + 2j * rp - r) * u

    @cached_property
    def _radius_poly(self):
        """Coefficients c_k, k = 0..M/2, of r(theta) = Re sum_k c_k e^{i k theta}."""
        c = np.fft.rfft(self.radii) * (2.0 / self.m)
        c[0] *= 0.5
        c[-1] = 0.5 * c[-1].real
        return c

    @cached_property
    def _jet_poly(self):
        """Rows c_k, i k c_k, -k^2 c_k: r, r' and r'' as Re sum_k row_k u^k.

        r' drops the Nyquist term, as `spectral.deriv` does.
        """
        c = self._radius_poly
        ik = 1j * np.arange(c.size)
        cp = ik * c
        cp[-1] = 0.0
        return np.stack([c, cp, ik * ik * c])

    @cached_property
    def _sector_poly(self):
        """(a_0, b_k for k = 0..M): the integral of r^2/2 from 0 to theta is
        a_0 theta + Re sum_k b_k u^k up to a constant (b_0 = 0).

        r^2 is a trigonometric polynomial of degree M, so one rfft of its
        samples |gamma - center|^2 on the 4M cloud gives its coefficients
        exactly.
        """
        g = self.dense_boundary(4) - self.zc
        a = np.fft.rfft(0.5 * (g.real**2 + g.imag**2))[: self.m + 1] * (0.5 / self.m)
        b = np.zeros_like(a)
        b[1:] = a[1:] / (1j * np.arange(1, self.m + 1))
        return 0.5 * a[0].real, b

    def _radius_jet(self, u, order=2):
        """r, ..., r^(order) in the directions u = e^{i theta}, one row each.

        The powers u^k come from cumulative products (`np.vander`), so
        besides u itself no trigonometric function is taken.
        """
        coef = self._jet_poly[: order + 1]
        return (np.vander(u, coef.shape[1], increasing=True) @ coef.T).real.T

    # -- membership ----------------------------------------------------------

    def _radius_toward(self, u):
        """r in the directions of unit complex numbers u, as Re P(u).

        P(u) = sum_k c_k u^k is evaluated by Horner's rule, so no
        trigonometric function is taken.
        """
        c = self._radius_poly
        p = np.full_like(u, c[-1])
        for ck in c[-2::-1]:
            p *= u
            p += ck
        return p.real

    def contains(self, pts, tol=1e-10):
        """Point-in-domain test |x - center| <= r + tol.

        r is the radius interpolant in the point's direction
        u = (x - center)/|x - center|, from the Horner form of
        `_radius_toward`; the center itself takes u = 1 (angle 0).
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rel = (pts[:, 0] - self.center[0]) + 1j * (pts[:, 1] - self.center[1])
        rho = np.abs(rel)
        u = np.divide(rel, rho, out=np.ones_like(rel), where=rho > 0.0)
        return rho <= self._radius_toward(u) + tol

    @cached_property
    def _distance_tree(self):
        dense = self.dense_boundary(8)
        return cKDTree(np.column_stack([dense.real, dense.imag]))

    def boundary_distance(self, pts):
        """Distance to the nearest point of the 8M node cloud (lower-accuracy).

        The nearest node comes from a k-d tree of the cloud, built once per
        domain.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self._distance_tree.query(pts)[0]

    # -- derived domains -----------------------------------------------------

    def translated(self, vec):
        return StarDomain(self.center + np.asarray(vec, dtype=float), self.radii)

    def scaled(self, factor):
        """Dilation about the center by `factor` (> 0)."""
        if factor <= 0:
            raise ShapeError("scale factor must be positive")
        return StarDomain(self.center, factor * self.radii)

    def recentered(self, point=None, m=None):
        """Re-parameterize the same curve about a new star center.

        Default recenters at the barycenter.  Raises ShapeError if the curve
        is not star-shaped about the requested point.
        """
        p = self.barycenter if point is None else np.asarray(point, dtype=float)
        m = self.m if m is None else int(m)
        rho = ray_radii(self, p, spectral.angle_grid(m))
        return StarDomain(p, rho)


def build_star_domain(shape, m=128, center=(0.0, 0.0)):
    """Construct a StarDomain from a shape spec (object or string).

    The constructor rejects a bad M and non-positive radii.
    """
    return StarDomain(center, _shape_radii(shape, spectral.angle_grid(m)))


def boundary_geometry(d):
    """Tangent, outward normal, speed, curvature and arc weights at the nodes."""
    return BoundaryGeometry(d.tangent, d.normal, d.speed, d.curvature, d.arc_weights)


# ----------------------------------------------------------------------------
# boundary fields
# ----------------------------------------------------------------------------

@dataclass
class BoundaryField:
    """Scalar samples on the boundary nodes of a StarDomain."""

    domain: StarDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.domain.m,):
            raise ValueError("field size does not match the domain grid")

    def integrate(self):
        """Line integral over the boundary."""
        return float(np.sum(self.values * self.domain.arc_weights))


# ----------------------------------------------------------------------------
# interior quadrature
# ----------------------------------------------------------------------------

@dataclass
class InteriorQuadrature:
    """Tensor product rule: Gauss-Legendre radial x trapezoid angular.

    `offset` is the minimal node distance to the boundary in units of the
    largest boundary node spacing.
    """

    nodes: np.ndarray
    weights: np.ndarray
    offset: float
    n_radial: int
    m: int


def interior_quadrature(d, n_radial=24):
    """Quadrature for integrals over the domain interior.

    Nodes are x = center + s*r(theta_j)*u(theta_j) with s at Gauss-Legendre
    points of (0,1); the weight carries the exact Jacobian s*r^2.
    """
    if n_radial < 2:
        raise ValueError("n_radial must be >= 2")
    s, v = np.polynomial.legendre.leggauss(int(n_radial))
    s = 0.5 * (s + 1.0)
    v = 0.5 * v
    u = spectral.unit_circle(d.m)
    zn = d.zc + np.outer(s, d.radii * u)
    nodes = np.column_stack([zn.real.ravel(), zn.imag.ravel()])
    w = (2.0 * np.pi / d.m) * np.outer(s * v, d.radii**2)
    ring = d.zc + s[-1] * d.radii * u
    mind = d.boundary_distance(np.column_stack([ring.real, ring.imag])).min()
    offset = float(mind / d.arc_weights.max())
    return InteriorQuadrature(nodes, w.ravel(), offset, int(n_radial), d.m)


# ----------------------------------------------------------------------------
# ray casting about arbitrary interior points
# ----------------------------------------------------------------------------

def ray_radii(d, p, psi, newton_iters=3):
    """Radius of the boundary curve about point p at angles psi.

    Requires the curve to be star-shaped about p; raises ShapeError when the
    dense angular image fails to be monotone (winding defect).
    """
    p = np.asarray(p, dtype=float).reshape(2)
    pc = p[0] + 1j * p[1]
    thq = spectral.angle_grid(8 * d.m)
    rel = d.dense_boundary(8) - pc
    ang = np.unwrap(np.angle(rel))
    if np.any(np.diff(ang) <= 0.0) or ang[-1] >= ang[0] + 2.0 * np.pi:
        raise ShapeError("curve is not star-shaped about the requested point")
    psi = np.asarray(psi, dtype=float)
    # map targets into the covered branch and seed by inverse interpolation
    base = ang[0]
    tgt = np.mod(psi - base, 2.0 * np.pi) + base
    th = np.interp(tgt, np.append(ang, ang[0] + 2 * np.pi), np.append(thq, 2 * np.pi))
    ux, uy = np.cos(psi), np.sin(psi)
    for _ in range(newton_iters):
        g, gp, _ = d.curve_jet(th)
        g = g - pc
        f = g.real * uy - g.imag * ux
        fp = gp.real * uy - gp.imag * ux
        th = th - f / fp
    g = d.curve_points(th) - pc
    rho = g.real * ux + g.imag * uy
    if np.any(rho <= 0.0):
        raise ShapeError("ray casting produced non-positive radii")
    return rho


# ----------------------------------------------------------------------------
# ball-comparison metrics
# ----------------------------------------------------------------------------

_NEWTON_STEP_TOL = 1e-10    # stop at a step this short, in units of the radius
_NEWTON_GAIN_TOL = 1e-15    # or at a predicted gain this small, in ball areas
_NEWTON_MAX_EVALS = 60
_HALLEY_MAX_STEPS = 8       # per crossing search; one step is the rule
_TANGENCY_FLOOR = 1e-13     # least dip of |gamma - p|^2/radius^2 - 1 seeding a pair


def _newton_2d(evaluate, p0, step_tol, gain_tol, max_step):
    """Minimize a smooth function of a point in the plane: Newton's method
    with backtracking.

    evaluate(p) returns (value, gradient, Hessian).  Where the Hessian is
    not positive definite the step goes max_step down the gradient
    instead, so a start outside the basin of the minimum still reaches it.
    The search ends at a zero gradient with such a Hessian, when halving
    the step finds no decrease before it falls below step_tol, or when the
    Newton step is shorter than step_tol or predicts a decrease below
    gain_tol.  That last step is too small to measure against rounding, so
    it is taken on the quadratic model without another evaluation.
    Returns (point, value, evaluations).
    """
    p = np.asarray(p0, dtype=float).copy()
    val, g, h = evaluate(p)
    n = 1
    while n < _NEWTON_MAX_EVALS:
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        if h[0, 0] > 0.0 and det > 0.0:
            step = np.array([h[0, 1] * g[1] - h[1, 1] * g[0],
                             h[1, 0] * g[0] - h[0, 0] * g[1]]) / det
            gain = -0.5 * float(g @ step)
            size = float(np.hypot(step[0], step[1]))
            if size <= step_tol or gain <= gain_tol:
                return p + step, val - gain, n
        else:
            # no minimum in the quadratic model: steepest descent
            gnorm = float(np.hypot(g[0], g[1]))
            if gnorm == 0.0:
                break
            step, size = -g * (max_step / gnorm), max_step
        t = 1.0
        while True:
            trial = evaluate(p + t * step)
            n += 1
            if trial[0] < val:
                p = p + t * step
                val, g, h = trial
                break
            t *= 0.5
            if t * size <= step_tol or n >= _NEWTON_MAX_EVALS:
                return p, val, n
    return p, val, n


def _circle_f(d, pc, radius, th):
    """f = |gamma - pc|^2 - radius^2 and its first two theta-derivatives."""
    g, gp, gpp = d.curve_jet(th)
    w = g - pc
    f = w.real**2 + w.imag**2 - radius**2
    fp = 2.0 * (np.conj(w) * gp).real
    fpp = 2.0 * (gp.real**2 + gp.imag**2 + (np.conj(w) * gpp).real)
    return f, fp, fpp


def _circle_crossings(d, pc, radius):
    """Parameter angles where the curve crosses the circle |z - pc| = radius.

    The crossings are the sign changes of f = |gamma - pc|^2 - radius^2 on
    the 4M cloud, seeded by linear interpolation.  A pair closer than one
    grid interval (a near-tangency) shows as a node triple whose parabola
    dips to zero; Newton on f' finds its extremum, and where f changes sign
    there by more than rounding (1e-13 radius^2; a shallower pair bounds a
    sliver of area ~1e-20) the pair is seeded on either side.  Halley steps
    (cubic convergence) refine them all; a step that leaves the crossing's
    shrinking sign bracket, or stalls near a zero of f', is replaced by
    bisection.  One step suffices, as good as two Newton steps, unless a
    seed was off by more than 1 % of a grid interval, as on wiggly curves
    at small M or near a tangency.  Returns the angles in increasing
    order, whether the curve leaves the disk at each, and whether the
    curve starts (theta = 0) inside it.
    """
    g = d.dense_boundary(4) - pc
    f = g.real**2 + g.imag**2 - radius**2
    h = 2.0 * np.pi / f.size
    fe = np.concatenate((f[-1:], f, f[:1]))
    fl, fr = fe[:-2], fe[2:]
    j = np.flatnonzero((f < 0.0) != (fr < 0.0))
    lo, hi = j * h, (j + 1) * h
    th = lo + h * (f[j] / (f[j] - fr[j]))
    exits = f[j] < 0.0
    # near-tangencies: the parabola through three same-sign nodes has its
    # vertex within a step, bends toward zero and dips past zero there
    dd, sl = fr - 2.0 * f + fl, fr - fl
    near = np.flatnonzero(np.abs(sl) < 2.0 * np.abs(dd))
    fn, dn, sn = f[near], dd[near], sl[near]
    near = near[(fn * dn > 0.0) & (8.0 * np.abs(fn * dn) - sn * sn < 8.0 * dn * dn)
                & (fn * fl[near] > 0.0) & (fn * fr[near] > 0.0)]
    if near.size:
        tc = (near - 0.5 * sl[near] / dd[near]) * h
        for _ in range(2):
            _, fp, fpp = _circle_f(d, pc, radius, tc)
            step = np.divide(fp, fpp, out=np.zeros_like(fp), where=fpp != 0.0)
            tc = np.clip(tc - step, (near - 1) * h, (near + 1) * h)
        fc, _, fpp = _circle_f(d, pc, radius, tc)
        keep = ((fc * f[near] < 0.0) & (fpp * f[near] > 0.0)
                & (np.abs(fc) > _TANGENCY_FLOOR * radius**2))
        # neighbouring triples can find the same extremum: seed its pair once
        kept = np.flatnonzero(keep)
        t = np.append(tc[kept], tc[kept[:1]])
        dup = np.abs(np.angle(np.exp(1j * np.diff(t)))) < 0.5 * h
        keep[kept[1:][dup[:-1]]] = False
        if kept.size > 2 and dup[-1]:
            keep[kept[-1]] = False
        if keep.any():
            near, tc, fin = near[keep], tc[keep], f[near[keep]] < 0.0
            half = np.sqrt(-2.0 * fc[keep] / fpp[keep])
            th = np.concatenate((th, tc - half, tc + half))
            lo = np.concatenate((lo, (near - 1) * h, tc))
            hi = np.concatenate((hi, tc, (near + 1) * h))
            exits = np.concatenate((exits, fin, ~fin))
            order = np.argsort(th)
            th, lo, hi, exits = th[order], lo[order], hi[order], exits[order]
    for _ in range(_HALLEY_MAX_STEPS):
        fv, fp, fpp = _circle_f(d, pc, radius, th)
        den = 2.0 * fp * fp - fv * fpp
        step = np.divide(2.0 * fv * fp, den, out=np.zeros_like(den), where=den != 0.0)
        new = th - step
        # Halley's step stalls where f' = 0 short of a root: trust it only
        # where it is at least half of Newton's step f/f'
        ok = 2.0 * np.abs(step * fp) >= np.abs(fv)
        if (ok.all() and np.all((lo <= new) & (new <= hi))
                and not np.abs(step).max(initial=0.0) > 1e-2 * h):
            return new, exits, bool(f[0] < 0.0)
        # f < 0 on the lo side exactly at an exit: shrink the brackets to th
        # and bisect where the step is not trusted or leaves them
        below = (fv < 0.0) == exits
        lo, hi = np.where(below, th, lo), np.where(below, hi, th)
        bad = ~(ok & (lo <= new) & (new <= hi))
        new[bad] = 0.5 * (lo[bad] + hi[bad])
        th = new
    return th, exits, bool(f[0] < 0.0)


def _ball_overlap_jet(d, p, radius):
    """|domain  intersect  B_radius(p)| with its gradient and Hessian in p.

    The boundary of the intersection is made of curve arcs inside the disk
    and circle arcs inside the domain, joined at the crossings theta_i.  By
    Green's theorem about p a curve arc from theta_a to theta_b adds
    int r^2/2 dtheta + Im(conj(center - p) (gamma_b - gamma_a))/2, and a
    circle arc adds radius^2/2 times its angle.  The circle arc that
    starts at a crossing, counter-clockwise in psi = arg(gamma - p), lies
    in the domain exactly when the curve leaves the disk there, and it ends
    at the next crossing in psi.  None of this needs the domain to be
    star-shaped about p.  Moving p moves the disk's edge, so the gradient
    is radius * int e^{i psi} dpsi over those arcs, i (sum over exits minus
    sum over entries of gamma_i); the Hessian follows from how each
    crossing slides along the curve as p moves.
    """
    pc = p[0] + 1j * p[1]
    th, exits, start_inside = _circle_crossings(d, pc, radius)
    if th.size == 0:
        if start_inside:
            area = d.area
        else:
            area = np.pi * radius**2 if d.contains(np.asarray(p)[None, :])[0] else 0.0
        return area, np.zeros(2), np.zeros((2, 2))
    u = np.exp(1j * th)
    powers = np.vander(u, d.m + 1, increasing=True)
    r, rp = (powers[:, : d.m // 2 + 1] @ d._jet_poly[:2].T).real.T
    w = d.zc + r * u - pc
    gp = (rp + 1j * r) * u
    s = np.where(exits, 1.0, -1.0)
    a0, b = d._sector_poly
    sector = a0 * th + (powers @ b).real
    sw = s @ w
    curve = s @ sector + 0.5 * (np.conj(d.zc - pc) * sw).imag
    if exits[0]:
        curve += 2.0 * np.pi * a0           # the arc inside the disk wraps theta = 0
    psi = np.angle(w)
    order = np.argsort(psi, kind="stable")
    psi = np.append(psi[order], psi[order[0]] + 2.0 * np.pi)
    area = curve + 0.5 * radius**2 * np.diff(psi)[exits[order]].sum()
    grad = 1j * sw
    dot = (np.conj(w) * gp).real
    q = np.divide(1j * s * gp, dot, out=np.zeros_like(gp), where=dot != 0.0)
    hx, hy = q @ w.real, q @ w.imag
    hess = np.array([[hx.real, hy.real], [hx.imag, hy.imag]])
    return float(area), np.array([grad.real, grad.imag]), 0.5 * (hess + hess.T)


def _ball_overlap(d, p, radius):
    """|domain  intersect  B_radius(p)|, exact for any p (see `_ball_overlap_jet`)."""
    return _ball_overlap_jet(d, p, radius)[0]


def asymmetry_to_ball(d, radius, center0=None, return_center=False, stats=None):
    """Scaled symmetric difference to the best-matching ball of given radius.

    Minimizes |domain DELTA B_radius(x)| / |B_radius| over the ball center
    x, that is, maximizes the exact overlap of `_ball_overlap_jet`, by
    Newton's method with its analytic gradient and Hessian (steepest
    ascent, from steps of radius/4, where the overlap is not concave),
    started at the barycenter (or `center0`, such as the previous center
    in a flow).  The
    search stops at a step of 1e-10 radius or a predicted gain of 1e-15
    ball areas, below which rounding decides.  `stats`, a dict, counts the
    overlap evaluations under "ball_evals".
    """
    ball_area = np.pi * radius**2

    def evaluate(p):
        area, grad, hess = _ball_overlap_jet(d, p, radius)
        return -area, -grad, -hess

    x0 = d.barycenter if center0 is None else center0
    center, neg_area, evals = _newton_2d(evaluate, x0, _NEWTON_STEP_TOL * radius,
                                         _NEWTON_GAIN_TOL * ball_area, 0.25 * radius)
    if stats is not None:
        stats["ball_evals"] = stats.get("ball_evals", 0) + evals
    val = max((d.area + ball_area + 2.0 * neg_area) / ball_area, 0.0)
    if return_center:
        return val, center
    return val


def lemma_distance_check(d, radius):
    """(lhs, rhs) of the boundary-distance estimate about the origin.

    lhs = |domain DELTA B_radius(0)| / |B_radius|, from the exact overlap,
    rhs = sqrt(radius^{-1} * oint (|x|/radius - 1)^2 dsigma).
    """
    ov = _ball_overlap(d, np.zeros(2), radius)
    ball_area = np.pi * radius**2
    lhs = (d.area + ball_area - 2.0 * ov) / ball_area
    rr = np.abs(d.z)
    rhs = np.sqrt(np.sum((rr / radius - 1.0) ** 2 * d.arc_weights) / radius)
    return float(lhs), float(rhs)


def rho0_estimate(d):
    """Interior-ball scale: min(inscribed radius, 1/max positive curvature).

    The curvature (r^2 + 2 r'^2 - r r'')/(r^2 + r'^2)^(3/2) is sampled on
    the 4M grid, with r, r', r'' from one inverse FFT of the radius jet.
    """
    n = 4 * d.m
    scale = np.full(d.m // 2 + 1, 0.5 * n)
    scale[0] = n
    r, rp, rpp = np.fft.irfft(d._jet_poly * scale, n)
    kmax = ((r * r + 2.0 * rp * rp - r * rpp) / (r * r + rp * rp) ** 1.5).max()
    if kmax <= 0.0:
        return d.in_radius
    return float(min(d.in_radius, 1.0 / kmax))


@dataclass
class ReflectionReport:
    """Minimal reflection radius with oscillation diagnostics."""

    rho: float
    oscillation: float
    star_radius: float
    ball_bound: float


def _reflections_pass(d, rho, dirs, nodes, proj, tol=1e-10):
    """All boundary nodes reflect into the closure across every admissible cut.

    The cuts s = rho, rho + ds, ... are tested deepest first, each in one
    membership call over every direction, so a failing rho usually stops at
    the first cut.
    """
    ds = 0.5 * d.arc_weights.min()
    for s in np.arange(rho, proj.max(), ds):
        j, i = np.nonzero(proj > s + 1e-14)
        if j.size == 0:
            continue
        shift = 2.0 * (s - proj[j, i])
        pts = np.column_stack([nodes[j, 0] + shift * dirs[i, 0],
                               nodes[j, 1] + shift * dirs[i, 1]])
        if not d.contains(pts, tol=tol).all():
            return False
    return True


def rho_reflection_min(d, n_directions=None, tol=1e-4):
    """Smallest rho passing the halfplane-reflection test about the origin.

    Bisection over rho: a candidate passes when B_rho(0) fits inside the
    domain and, for every sampled direction e and cut offset s >= rho, each
    boundary node x with x.e > s reflects across the cut line into the
    closed domain.  Each pass tests its cuts deepest first (s = rho, then
    outward), every direction at once, and stops at the first failing cut.
    """
    if not d.contains(np.zeros((1, 2)))[0]:
        raise ShapeError("reflection radius needs the origin inside the domain")
    nd = d.m if n_directions is None else int(n_directions)
    alpha = spectral.angle_grid(nd)
    dirs = np.column_stack([np.cos(alpha), np.sin(alpha)])
    nodes = d.nodes
    proj = nodes @ dirs.T
    rr = np.abs(d.dense_boundary(8))        # cloud distances to the origin
    ball = float(rr.min())
    hi = ball
    if not _reflections_pass(d, hi, dirs, nodes, proj):
        raise ConvergenceError(
            "no admissible reflection radius up to the inscribed-ball bound",
            best_value=hi)
    lo = 0.0
    if _reflections_pass(d, lo, dirs, nodes, proj):
        hi = lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _reflections_pass(d, mid, dirs, nodes, proj):
            hi = mid
        else:
            lo = mid
    rho = hi
    osc = float(rr.max() - rr.min())
    star = float(np.sqrt(max(rr.min() ** 2 - rho**2, 0.0)))
    return ReflectionReport(rho=float(rho), oscillation=osc, star_radius=star,
                            ball_bound=ball)


# ----------------------------------------------------------------------------
# snapshot I/O
# ----------------------------------------------------------------------------

def save_domain_csv(d, path):
    """Write the (theta, r) samples, 17 significant digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "r"])
        for th, r in zip(d.theta, d.radii):
            w.writerow([f"{th:.17g}", f"{r:.17g}"])


def load_domain_csv(path):
    """Read a (theta, r) snapshot back; the center is not stored and the
    loaded domain is parameterized about the origin."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["theta", "r"]:
        raise ShapeError(f"{path}: expected 'theta,r' header")
    data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    m = len(data)
    if m < _MIN_M or m % 2 != 0:
        raise ShapeError(f"{path}: need an even sample count >= {_MIN_M}")
    if not np.allclose(data[:, 0], spectral.angle_grid(m), atol=1e-12):
        raise ShapeError(f"{path}: angle column is not the uniform grid")
    return StarDomain((0.0, 0.0), data[:, 1])
