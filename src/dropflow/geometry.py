"""Star-shaped planar domains with spectral boundary geometry.

A domain is represented by M radius samples on the uniform angle grid
theta_j = 2*pi*j/M about a center point; the boundary curve is the
trigonometric interpolant r(theta) swept around the center.  All boundary
differential geometry (tangent, normal, speed, curvature, arc weights) is
computed by FFT differentiation of the complex boundary nodes.

Besides the representation itself this module provides area/moment
computations, a tensor-product interior quadrature, ball-comparison metrics
(symmetric-difference asymmetry, the boundary-distance estimate pair, the
minimal reflection radius) and CSV snapshot I/O.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
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
        self.spectral_tail = spectral.tail_fraction(radii)

        # boundary nodes and FFT differential geometry (complex form)
        cz = center[0] + 1j * center[1]
        self.zc = cz
        self.z = cz + radii * np.exp(1j * self.theta)
        k = np.fft.fftfreq(m, 1.0 / m)
        zh = np.fft.fft(self.z)
        zp = np.fft.ifft(zh * (1j * k))
        zpp = np.fft.ifft(zh * (1j * k) ** 2)
        self.speed = np.abs(zp)
        self.tangent_c = zp / self.speed
        self.normal_c = -1j * self.tangent_c
        self.curvature = -(np.conj(zpp) * self.normal_c).real / self.speed**2
        self.arc_weights = (2.0 * np.pi / m) * self.speed

        self.nodes = np.column_stack([self.z.real, self.z.imag])
        self.tangent = np.column_stack([self.tangent_c.real, self.tangent_c.imag])
        self.normal = np.column_stack([self.normal_c.real, self.normal_c.imag])

        self.area = 0.5 * spectral.dealiased_power_sum(radii, 2)
        self._rp = spectral.deriv(radii)
        self._rpp = spectral.deriv(radii, 2)
        self._barycenter = None
        self._extremes = None
        self._dense = {}

    def dense_boundary(self, factor=16):
        """Cached spectrally-resampled boundary nodes (complex)."""
        if factor not in self._dense:
            self._dense[factor] = spectral.resample_complex(self.z, factor * self.m)
        return self._dense[factor]

    # -- scalar geometry ----------------------------------------------------

    @property
    def barycenter(self):
        if self._barycenter is None:
            mq = 4 * self.m
            psi = spectral.angle_grid(mq)
            r3 = spectral.resample(self.radii, mq) ** 3 / 3.0
            dpsi = 2.0 * np.pi / mq
            mom = dpsi * np.array([np.sum(r3 * np.cos(psi)), np.sum(r3 * np.sin(psi))])
            self._barycenter = self.center + mom / self.area
        return self._barycenter

    def _extreme_dists(self, p):
        """(min, max) distance from point p to the boundary curve."""
        mq = 8 * self.m
        thq = spectral.angle_grid(mq)
        g = self.curve_points(thq)
        d2 = np.abs(g - (p[0] + 1j * p[1])) ** 2
        out = []
        for pick in (np.argmin, np.argmax):
            th = thq[pick(d2)]
            pc = p[0] + 1j * p[1]
            for _ in range(4):
                gme = self.curve_points(th) - pc
                gp = self.curve_deriv(th)
                gpp = self.curve_deriv(th, 2)
                f1 = (np.conj(gme) * gp).real
                f2 = (np.abs(gp) ** 2 + (np.conj(gme) * gpp).real)
                if f2 == 0.0:
                    break
                th = th - f1 / f2
            out.append(float(np.abs(self.curve_points(th) - pc)[0]))
        return out[0], out[1]

    @property
    def in_radius(self):
        if self._extremes is None:
            self._extremes = self._extreme_dists(self.barycenter)
        return self._extremes[0]

    @property
    def out_radius(self):
        if self._extremes is None:
            self._extremes = self._extreme_dists(self.barycenter)
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
        th = np.asarray(th, dtype=float)
        return self.zc + spectral.eval_at_angles(self.radii, th) * np.exp(1j * th)

    def curve_deriv(self, th, order=1):
        th = np.asarray(th, dtype=float)
        r = spectral.eval_at_angles(self.radii, th)
        rp = spectral.eval_at_angles(self._rp, th)
        e = np.exp(1j * th)
        if order == 1:
            return (rp + 1j * r) * e
        rpp = spectral.eval_at_angles(self._rpp, th)
        return (rpp + 2j * rp - r) * e

    # -- membership ----------------------------------------------------------

    def contains(self, pts, tol=1e-10):
        """Point-in-domain test against the interpolated radius function."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rel = (pts[:, 0] - self.center[0]) + 1j * (pts[:, 1] - self.center[1])
        rho = np.abs(rel)
        rb = self.radius_at(np.angle(rel))
        return rho <= rb + tol

    def boundary_distance(self, pts):
        """Distance to the boundary, via a dense node cloud (lower-accuracy)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        dense = spectral.resample_complex(self.z, 8 * self.m)
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
    """Construct a StarDomain from a shape spec (object or string)."""
    if m < _MIN_M or m % 2 != 0:
        raise ShapeError(f"M must be even and >= {_MIN_M}, got {m}")
    theta = spectral.angle_grid(m)
    radii = _shape_radii(shape, theta)
    if np.any(radii <= 0.0):
        raise ShapeError("shape spec produces non-positive radii")
    return StarDomain(center, radii)


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

    def deriv_theta(self):
        return BoundaryField(self.domain, spectral.deriv(self.values))

    def deriv_arc(self):
        return BoundaryField(self.domain, spectral.deriv(self.values) / self.domain.speed)

    def __array__(self, dtype=None):
        return np.asarray(self.values, dtype=dtype)


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
    u = np.exp(1j * d.theta)
    zn = d.zc + np.outer(s, d.radii * u)
    nodes = np.column_stack([zn.real.ravel(), zn.imag.ravel()])
    w = (2.0 * np.pi / d.m) * np.outer(s * v, d.radii**2)
    ring = d.zc + s[-1] * d.radii * u
    dense = spectral.resample_complex(d.z, 8 * d.m)
    mind = np.abs(ring[:, None] - dense[None, :]).min()
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
    mq = 8 * d.m
    thq = spectral.angle_grid(mq)
    rel = d.curve_points(thq) - pc
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
        g = d.curve_points(th) - pc
        gp = d.curve_deriv(th)
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
    """|domain  intersect  B_radius(p)| by angular integration about p.

    Uses the dense resampled boundary cloud: angles about p, star check by
    monotone winding, then a sorted nonuniform trapezoid of min(rho, r)^2/2.
    Falls back to an indicator lattice when not star-shaped about p.
    """
    g = d.dense_boundary(factor) - (p[0] + 1j * p[1])
    psi = np.angle(g)
    if np.any(np.diff(np.unwrap(psi)) <= 0.0):
        return _ball_overlap_lattice(d, p, radius)
    rho = np.abs(g)
    order = np.argsort(psi)
    psi_s = psi[order]
    f = np.minimum(rho[order], radius) ** 2
    dpsi = np.diff(np.append(psi_s, psi_s[0] + 2.0 * np.pi))
    fw = np.append(f, f[0])
    return 0.25 * float(np.sum((fw[1:] + fw[:-1]) * dpsi))


def _ball_overlap_lattice(d, p, radius, n=512):
    """Indicator-grid fallback when the domain is not star-shaped about p."""
    lo = np.minimum(d.nodes.min(axis=0), p - radius)
    hi = np.maximum(d.nodes.max(axis=0), p + radius)
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    in_ball = ((pts[:, 0] - p[0]) ** 2 + (pts[:, 1] - p[1]) ** 2) <= radius**2
    hits = in_ball.copy()
    hits[in_ball] = d.contains(pts[in_ball])
    return float(hits.sum()) * cell


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
    mq = 4 * d.m
    dense = StarDomain(d.center, spectral.resample(d.radii, mq)) if mq >= _MIN_M else d
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
    """All boundary nodes reflect into the closure across every admissible cut."""
    h = d.arc_weights.min()
    ds = 0.5 * h
    for i in range(dirs.shape[0]):
        e = dirs[i]
        a = proj[:, i]
        smax = a.max()
        if smax <= rho:
            continue
        s = np.arange(rho, smax, ds)
        mask = a[None, :] > s[:, None] + 1e-14
        if not mask.any():
            continue
        shift = 2.0 * (s[:, None] - a[None, :])
        px = nodes[None, :, 0] + shift * e[0]
        py = nodes[None, :, 1] + shift * e[1]
        pts = np.column_stack([px[mask], py[mask]])
        if not d.contains(pts, tol=tol).all():
            return False
    return True


def rho_reflection_min(d, n_directions=None, tol=1e-4):
    """Smallest rho passing the halfplane-reflection test about the origin.

    Bisection over rho: a candidate passes when B_rho(0) fits inside the
    domain and, for every sampled direction e and cut offset s >= rho, each
    boundary node x with x.e > s reflects across the cut line into the
    closed domain.
    """
    if not d.contains(np.zeros((1, 2)))[0]:
        raise ShapeError("reflection radius needs the origin inside the domain")
    nd = d.m if n_directions is None else int(n_directions)
    alpha = spectral.angle_grid(nd)
    dirs = np.column_stack([np.cos(alpha), np.sin(alpha)])
    nodes = d.nodes
    proj = nodes @ dirs.T
    hi = float(d.boundary_distance(np.zeros((1, 2)))[0])
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
    rr = np.abs(spectral.resample_complex(d.z, 8 * d.m))
    osc = float(rr.max() - rr.min())
    star = float(np.sqrt(max(rr.min() ** 2 - rho**2, 0.0)))
    return ReflectionReport(rho=float(rho), oscillation=osc, star_radius=star,
                            ball_bound=float(d.boundary_distance(np.zeros((1, 2)))[0]))


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
