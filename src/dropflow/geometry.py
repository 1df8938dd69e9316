"""Star-shaped planar domains with spectral boundary geometry.

A domain is represented by M radius samples on the uniform angle grid
theta_j = 2*pi*j/M about a center point.  The boundary is one curve, the
trigonometric interpolant r(theta) swept around the center:
gamma(theta) = center + r(theta) e^{i theta}.  Everything else is derived
from r and its spectral derivatives r', r'': the nodes, the tangent, normal,
speed, curvature and arc weights (from gamma' and gamma''), the curve at
arbitrary angles, membership, and the cached dense node clouds that the
distance queries, ray casting and the ball overlap read.

Besides the representation itself this module provides area/moment
computations, a tensor-product interior quadrature, ball-comparison metrics
(symmetric-difference asymmetry, the boundary-distance estimate pair, the
minimal reflection radius) and CSV snapshot I/O.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize

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

    @property
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

    def boundary_distance(self, pts):
        """Distance to the boundary, via the 8M node cloud (lower-accuracy)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        dense = self.dense_boundary(8)
        zt = pts[:, 0] + 1j * pts[:, 1]
        out = np.empty(len(pts))
        for lo in range(0, len(pts), 2048):
            blk = zt[lo: lo + 2048]
            out[lo: lo + 2048] = np.abs(blk[:, None] - dense[None, :]).min(axis=1)
        return out

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

def _ball_overlap(d, p, radius, factor=16):
    """|domain  intersect  B_radius(p)| for any point p off the curve.

    Green's theorem in polar form about p: the area is (1/2) oint
    min(|gamma - p|, r)^2 dpsi, taken in traversal order along the dense
    cloud (trapezoid in the signed angle increments), so every ray crossing
    counts with its sign and no star-shapedness about p is needed.
    """
    g = d.dense_boundary(factor) - (p[0] + 1j * p[1])
    f = np.minimum(np.abs(g), radius) ** 2
    dpsi = np.angle(np.roll(g, -1) / g)
    return 0.25 * float(np.sum((f + np.roll(f, -1)) * dpsi))


def asymmetry_to_ball(d, radius, center0=None, return_center=False):
    """Scaled symmetric difference to the best-matching ball of given radius.

    Minimizes |domain DELTA B_radius(x)| / |B_radius| over the ball center x
    with a Nelder-Mead search started at the barycenter (or `center0`).
    """
    ball_area = np.pi * radius**2

    def objective(p):
        ov = _ball_overlap(d, p, radius)
        return (d.area + ball_area - 2.0 * ov) / ball_area

    x0 = np.asarray(center0 if center0 is not None else d.barycenter, dtype=float)
    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"xatol": 1e-10 * radius, "fatol": np.inf,
                            "maxiter": 600, "maxfev": 1200})
    val = float(max(res.fun, 0.0))
    if return_center:
        return val, res.x.copy()
    return val


def lemma_distance_check(d, radius):
    """(lhs, rhs) of the boundary-distance estimate about the origin.

    lhs = |domain DELTA B_radius(0)| / |B_radius|,
    rhs = sqrt(radius^{-1} * oint (|x|/radius - 1)^2 dsigma).
    """
    ov = _ball_overlap(d, np.zeros(2), radius)
    ball_area = np.pi * radius**2
    lhs = (d.area + ball_area - 2.0 * ov) / ball_area
    rr = np.abs(d.z)
    rhs = np.sqrt(np.sum((rr / radius - 1.0) ** 2 * d.arc_weights) / radius)
    return float(lhs), float(rhs)


def rho0_estimate(d):
    """Interior-ball scale: min(inscribed radius, 1/max positive curvature)."""
    dense = StarDomain(d.center, spectral.resample(d.radii, 4 * d.m))
    kmax = dense.curvature.max()
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
    ball = float(d.boundary_distance(np.zeros((1, 2)))[0])
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
    rr = np.abs(d.dense_boundary(8))
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
