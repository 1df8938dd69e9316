"""Star-shaped planar domains with spectral boundary geometry.

A domain is held by its radius modes, the real FFT of M radius samples on
the uniform angle grid theta_j = 2*pi*j/M about a center point, and is
built from either.  The boundary is one curve, the interpolant r(theta)
swept around the center: gamma(theta) = center + r(theta) e^{i theta}.
Everything is derived from the modes by `spectral.jet`: r, r', r'' on the
M grid, then the nodes, tangent, normal, speed, curvature and arc weights;
the radii on refined grids (cached) behind the dense clouds that ray
casting, the ball overlap and the reflection radius read.  The area comes
by Parseval, and the curve at arbitrary angles, membership included, from
the coefficients of r and of its derivatives (`spectral.jet_modes`).
Membership is the one test of a point against the curve: the ray from the
center meets it once, so the radial gap r - |x - center| is exact, and
interior evaluation takes its depth guard from the same test.

Besides the representation itself this module provides area/moment
computations, a tensor-product interior quadrature, ball-comparison metrics
(symmetric-difference asymmetry, the boundary-distance estimate pair, the
minimal reflection radius) and CSV snapshot I/O.  The overlap with a ball
is exact: the curve's crossings with the circle split the boundary of the
intersection into curve arcs, whose area comes from the Fourier
coefficients of r^2, and circle arcs; its gradient and Hessian in the ball
center come in closed form from the same crossings, and the asymmetry
search is Newton's method on them, run on a stack of same-M domains (one
row each) so that a flow's or a sweep's searches share every numpy call.
The reflection radius is the largest midpoint of a node and the first exit
of its ray back along a sampled direction, the exits found on the 8M cloud
and refined on the curve.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

# Functions of the radius modes, along their last axis, shared by a domain
# and the stacks of domains that the asymmetry search reads (`_Stack`).

def _parseval_area(modes):
    """(1/2) int r^2 dtheta by Parseval, the Nyquist mode a cosine."""
    m = 2 * np.shape(modes)[-1] - 2
    p = modes.real**2 + modes.imag**2
    return np.pi * (p[..., 0] + 2.0 * p[..., 1:-1].sum(axis=-1) + 0.5 * p[..., -1]) / m**2


def _radius_poly(modes):
    """Coefficients c_k, k = 0..M/2, of r(theta) = Re sum_k c_k e^{i k theta}."""
    m = 2 * np.shape(modes)[-1] - 2
    c = modes * (2.0 / m)
    c[..., 0] *= 0.5
    c[..., -1] = 0.5 * c[..., -1].real
    return c


def _horner(c, u):
    """Re sum_k c_k u^k by Horner's rule, so no trigonometric function is
    taken: one polynomial (c of shape (M/2 + 1,)) at every u, or one per
    u (c of shape u.shape + (M/2 + 1,))."""
    p = np.zeros_like(u) + c[..., -1]
    for k in range(c.shape[-1] - 2, -1, -1):
        p *= u
        p += c[..., k]
    return p.real


def _ray(c, rel):
    """(|rel|, r): r is the radius interpolant of the coefficients c
    (`_horner`) in the direction u = rel/|rel| of a point rel from the star
    center; the center itself takes u = 1 (angle 0)."""
    rho = np.abs(rel)
    u = np.divide(rel, rho, out=np.ones_like(rel), where=(rho > 0.0) & (rho < np.inf))
    return rho, _horner(c, u)


def _moment_center(rel, center, area):
    """Barycenter from the curve's dense cloud about the star center, rel
    (..., n): the first moment (1/3) oint r^3 e^{i psi} dpsi, with
    r^3 e^{i psi} = |g|^2 g."""
    mom = np.sum(np.abs(rel) ** 2 * rel, axis=-1) * (2.0 * np.pi / (3.0 * rel.shape[-1]))
    return center + np.asarray(mom)[..., None].view(float) / np.asarray(area)[..., None]


class StarDomain:
    """Star-shaped domain from uniform-angle radius samples or their modes.

    Parameters
    ----------
    center : (2,) array_like
        Star center; the radius parameterization is taken about it.
    radii : (M,) array_like
        Positive radius samples at theta_j = 2*pi*j/M, M even, M >= 16.
    modes : (M/2 + 1,) array_like, keyword only
        Instead of `radii`: their real FFT, ``np.fft.rfft(radii)``.
    """

    def __init__(self, center, radii=None, *, modes=None):
        center = np.asarray(center, dtype=float).reshape(2)
        given = (np.array(radii, dtype=float) if modes is None
                 else np.array(modes, dtype=complex))
        m = given.size if modes is None else 2 * given.size - 2
        if m < _MIN_M or m % 2 != 0:
            raise ShapeError(f"need an even number of samples >= {_MIN_M}, got {m}")
        if not np.isfinite(given).all():
            raise ShapeError("radius samples must be finite and positive")
        if not np.isfinite(center).all():
            raise ShapeError("center must be finite")
        if modes is None:
            radii, modes = given, np.fft.rfft(given)
        else:
            radii, modes = None, given
            modes[0] = modes[0].real
            modes[-1] = modes[-1].real
        # r, r', r'' in one inverse FFT; given samples are kept as they are
        r, rp, rpp = spectral.jet(modes, m, 2)
        radii = r if radii is None else radii
        if (radii <= 0.0).any():
            raise ShapeError("radius samples must be finite and positive")
        self.center = center
        self.modes = modes
        self.radii = radii
        self.m = m

        # boundary nodes and differential geometry from r, r', r''
        e = spectral.unit_circle(m)
        self.zc = center[0] + 1j * center[1]
        self.z = self.zc + radii * e
        zp = (rp + 1j * radii) * e
        zpp = (rpp + 2j * rp - radii) * e
        self.speed = np.abs(zp)
        self.tangent_c = zp / self.speed
        self.normal_c = -1j * self.tangent_c
        self.curvature = -(np.conj(zpp) * self.normal_c).real / self.speed**2
        self.arc_weights = (2.0 * np.pi / m) * self.speed

        self.area = float(_parseval_area(modes))
        self._refined = {}

    theta = cached_property(lambda self: spectral.angle_grid(self.m))
    # (M, 2) real views of the complex z and normal_c
    nodes = cached_property(lambda self: self.z.view(float).reshape(-1, 2))
    normal = cached_property(lambda self: self.normal_c.view(float).reshape(-1, 2))

    def refined_radii(self, factor):
        """Cached r on the factor*M uniform angle grid (`spectral.jet`)."""
        if factor not in self._refined:
            self._refined[factor] = spectral.jet(self.modes, factor * self.m, 0)[0]
        return self._refined[factor]

    def dense_boundary(self, factor):
        """Curve points (complex) on the factor*M uniform angle grid."""
        u = spectral.unit_circle(factor * self.m)
        return self.zc + self.refined_radii(factor) * u

    # -- scalar geometry ----------------------------------------------------

    @cached_property
    def barycenter(self):
        return _moment_center(self.dense_boundary(4) - self.zc, self.center, self.area)

    # -- curve evaluation at arbitrary parameter angles ----------------------

    def curve_points(self, th):
        """gamma(theta) = center + r(theta) e^{i theta}, exact interpolant."""
        u = np.exp(1j * np.atleast_1d(np.asarray(th, dtype=float)))
        return self.zc + (np.vander(u, self._radius_poly.size, increasing=True)
                          @ self._radius_poly).real * u

    def curve_jet(self, th):
        """gamma, gamma' and gamma'' at parameter angles th, from r, r', r''."""
        u = np.exp(1j * np.atleast_1d(np.asarray(th, dtype=float)))
        r, rp, rpp = self._radius_jet(u)
        return self.zc + r * u, (rp + 1j * r) * u, (rpp + 2j * rp - r) * u

    _radius_poly = cached_property(lambda self: _radius_poly(self.modes))

    @cached_property
    def _jet_poly(self):
        """r, r' and r'' as Re sum_k row_k u^k (rows of `spectral.jet_modes`)."""
        return spectral.jet_modes(self._radius_poly, 2)

    def _radius_jet(self, u):
        """r, r' and r'' in the directions u = e^{i theta}, one row each.

        The powers u^k come from cumulative products (`np.vander`), so
        besides u itself no trigonometric function is taken.
        """
        coef = self._jet_poly
        return (np.vander(u, coef.shape[1], increasing=True) @ coef.T).real.T

    # -- membership ----------------------------------------------------------

    def _ray(self, pts):
        """(|x - center|, r) for (n, 2) points: r is the radius interpolant in
        the point's direction, from `_ray`."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rel = np.ascontiguousarray(pts - self.center).view(complex)[:, 0]
        return _ray(self._radius_poly, rel)

    def contains(self, pts):
        """Point-in-domain test |x - center| <= r + 1e-10 R, r from `_ray`,
        R the largest radius sample: the same test at every scale.

        The ray from the center meets the curve once, so r - |x - center| is
        the exact depth along it, negative outside and never below the
        distance to the curve.  A NaN or infinite coordinate is outside.
        """
        rho, r = self._ray(pts)
        return rho <= r + 1e-10 * self.radii.max()

    # -- derived domains -----------------------------------------------------

    def scaled(self, factor):
        """Dilation about the center by `factor` (> 0)."""
        if factor <= 0:
            raise ShapeError("scale factor must be positive")
        return StarDomain(self.center, factor * self.radii)

    def recentered(self):
        """Re-parameterize the same curve about its barycenter.

        Raises ShapeError if the curve is not star-shaped about it.
        """
        p = self.barycenter
        return StarDomain(p, ray_radii(self, p, self.theta))


def build_star_domain(shape, m=128, center=(0.0, 0.0)):
    """Construct a StarDomain from a shape spec (object or string).

    The constructor rejects a bad M and non-positive radii.
    """
    return StarDomain(center, _shape_radii(shape, spectral.angle_grid(m)))


# ----------------------------------------------------------------------------
# interior quadrature
# ----------------------------------------------------------------------------

@dataclass
class InteriorQuadrature:
    """Tensor product rule: Gauss-Legendre radial x trapezoid angular."""

    nodes: np.ndarray
    weights: np.ndarray


def interior_quadrature(d, n_radial):
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
    return InteriorQuadrature(nodes, w.ravel())


# ----------------------------------------------------------------------------
# ray casting about arbitrary interior points
# ----------------------------------------------------------------------------

def ray_radii(d, p, psi):
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
    for _ in range(3):      # Newton on the cross product of gamma - p and the ray
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

# A working block, a Cauchy kernel block of `torsion`, a block of rotated
# cloud points here or the 4M clouds of a block of domains in the asymmetry
# search, holds about 2**16 complex entries (1 MB, half of one core's 2 MB
# L2 cache on the Xeon it was timed on), so it stays cache-resident from
# the subtraction through the division to the product.  Budgets of 2**15
# to 2**20 entries timed within noise of each other at M = 128, 512 and
# 1024.
_BLOCK_ENTRIES = 2**16
_NEWTON_STEP_TOL = 1e-10    # stop at a step this short, in units of the radius
_NEWTON_GAIN_TOL = 1e-15    # or at a predicted gain this small, in ball areas
_NEWTON_MAX_EVALS = 60
_HALLEY_MAX_STEPS = 8       # per crossing search; one step is the rule
_TANGENCY_FLOOR = 1e-13     # least dip of |gamma - p|^2/radius^2 - 1 seeding a pair


def _newton_2d(evaluate, p0, radius, scale):
    """Minimize smooth functions of a point in the plane, one per row of
    p0 (D, 2): Newton's method with backtracking, each row on its own.

    evaluate(p, rows) returns the values (k,), gradients (k, 2) and
    Hessians (k, 2, 2) of the functions `rows` (indices into p0) at the
    points p (k, 2); each round evaluates, in one call, every row that
    needs a point.  Lengths are measured in `radius`, values in `scale`.
    Where a Hessian is not positive definite the step goes radius/4 down
    the gradient instead, so a start outside the basin of the minimum
    still reaches it.  A row's search ends at a zero gradient with such a
    Hessian, when halving its step finds no decrease before it falls below
    _NEWTON_STEP_TOL radius, or when its Newton step is shorter than that
    or predicts a decrease below _NEWTON_GAIN_TOL scale.  That last step is
    too small to measure against rounding, so it is taken on the quadratic
    model without another evaluation.  A row keeps its step fraction t;
    the step is formed anew each round from its gradient and Hessian.
    Returns (points, values, evaluations), one row each.
    """
    step_tol, gain_tol = _NEWTON_STEP_TOL * radius, _NEWTON_GAIN_TOL * scale
    max_step = 0.25 * radius
    p = np.array(p0, dtype=float).reshape(-1, 2)
    val, g, h = evaluate(p, np.arange(p.shape[0]))
    n = np.ones(p.shape[0], dtype=int)
    t = np.ones_like(val)           # the fraction of its step a row tries; 0: done
    while True:
        i = np.flatnonzero(t)
        gi, hi = g[i], h[i]
        (h00, h01), (h10, h11) = hi[:, 0].T, hi[:, 1].T
        det = h00 * h11 - h01 * h10
        newton = (h00 > 0.0) & (det > 0.0)
        gnorm = np.hypot(gi[:, 0], gi[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(newton[:, None],
                            np.stack((h01 * gi[:, 1] - h11 * gi[:, 0],
                                      h10 * gi[:, 0] - h00 * gi[:, 1]), axis=-1) / det[:, None],
                            # no minimum in the quadratic model: steepest descent
                            gi * (-max_step / gnorm[:, None]))
        gain = -0.5 * (gi[:, 0] * step[:, 0] + gi[:, 1] * step[:, 1])
        size = np.where(newton, np.hypot(step[:, 0], step[:, 1]), max_step)
        # a backtracking row's step failed this test before: never true here
        last = newton & ((size <= step_tol) | (gain <= gain_tol))
        p[i[last]] += step[last]
        val[i[last]] -= gain[last]
        go = ~last & (newton | (gnorm != 0.0))
        t[i[~go]] = 0.0
        i, step, size = i[go], step[go], size[go]
        if i.size == 0:
            return p, val, n
        trial = evaluate(p[i] + t[i, None] * step, i)
        n[i] += 1
        better = trial[0] < val[i]
        k = i[better]
        p[k] += t[k, None] * step[better]
        val[k], g[k], h[k] = (part[better] for part in trial)
        t[k] = 1.0
        t[i[~better]] *= 0.5
        t[i[(~better & (t[i] * size <= step_tol)) | (n[i] >= _NEWTON_MAX_EVALS)]] = 0.0


class _Stack:
    """Same-M domains as arrays, one row each, built from their radius
    modes (D, M/2 + 1) and star centers (D, 2): what the ball overlap reads.

    Per row: the center zc, the radius coefficients (`poly`, see
    `_radius_poly`) with the rows of r, r' and r'' (`jet`, D x 3 x
    (M/2 + 1)), the 4M cloud, the area and the barycenter, each from the
    same function as a domain's, and the sector polynomial (a0, b): the
    integral of r^2/2 from 0 to theta is a0 theta + Re sum_k b_k u^k,
    k = 0..M, up to a constant (b_0 = 0).  r^2 is a trigonometric
    polynomial of degree M, so one rfft of its samples on the 4M grid gives
    its coefficients exactly.
    """

    def __init__(self, modes, centers):
        modes = np.array(modes, dtype=complex)
        modes[:, 0] = modes[:, 0].real
        modes[:, -1] = modes[:, -1].real
        self.m = m = 2 * modes.shape[1] - 2
        self.center = np.asarray(centers, dtype=float)
        self.zc = self.center[:, 0] + 1j * self.center[:, 1]
        self.poly = _radius_poly(modes)
        self.jet = np.ascontiguousarray(spectral.jet_modes(self.poly, 2).transpose(1, 0, 2))
        r = spectral.jet(modes, 4 * m, 0)[0]
        self.cloud = self.zc[:, None] + r * spectral.unit_circle(4 * m)
        a = np.fft.rfft(0.5 * r**2)[:, : m + 1] * (0.5 / m)
        self.a0 = 0.5 * a[:, 0].real
        self.b = np.zeros_like(a)
        self.b[:, 1:] = a[:, 1:] / (1j * np.arange(1, m + 1))
        self.area = _parseval_area(modes)
        self.barycenter = _moment_center(self.cloud - self.zc[:, None], self.center,
                                         self.area)


def _circle_f(coef, zp, radius, th):
    """f = |gamma - p|^2 - radius^2 and its first two theta-derivatives at
    angles th, one each on the curves whose rows of r, r', r'' are coef
    (n, 3, M/2 + 1) and whose star centers lie at zp from the disks'.

    In the frame of the ray, v = conj(u) (gamma - p) = conj(u) zp + r with
    u = e^{i theta}, gamma' = (r' + i r) u and gamma'' = (r'' - r + 2i r') u,
    so f = |v|^2 - radius^2, f' = 2 (Re v r' + Im v r) and
    f'' = 2 (r'^2 + r^2 + Re v (r'' - r) + 2 Im v r').
    """
    u = np.exp(1j * th)
    r, rp, rpp = (np.vander(u, coef.shape[2], increasing=True)[:, None] * coef).sum(-1).real.T
    v = np.conj(u) * zp
    vr, vi = v.real + r, v.imag
    f = vr * vr + vi * vi - radius**2
    fp = 2.0 * (vr * rp + vi * r)
    fpp = 2.0 * (rp * rp + r * r + vr * (rpp - r) + 2.0 * vi * rp)
    return f, fp, fpp


def _circle_crossings(st, rows, pc, radius):
    """Parameter angles where the curves of stack rows `rows` cross the
    circles |z - pc| = radius, one circle each.

    The crossings are the sign changes of f = |gamma - pc|^2 - radius^2 on
    the 4M clouds, all rows in one scan, seeded by linear interpolation.  A
    pair closer than one grid interval (a near-tangency) shows as a node
    triple whose parabola dips to zero; Newton on f' finds its extremum,
    and where f changes sign there by more than rounding (1e-13 radius^2;
    a shallower pair bounds a sliver of area ~1e-20) the pair is seeded on
    either side.  Halley steps (cubic convergence) refine them all; a step
    that leaves the crossing's shrinking sign bracket, or stalls near a
    zero of f', is replaced by bisection.  One step suffices, as good as
    two Newton steps, unless a seed was off by more than 1 % of a grid
    interval, as on wiggly curves at small M or near a tangency; a row's
    crossings stop together, at the first step that suffices for all of
    them.  Returns the angles, the position in `rows` of each one's curve,
    in increasing (position, angle) order, whether the curve leaves the
    disk there, and per row whether the curve starts (theta = 0) inside it.
    """
    k, n = rows.size, st.cloud.shape[1]
    g = st.cloud[rows] - pc[:, None]
    f = g.real**2 + g.imag**2 - radius**2
    h = 2.0 * np.pi / n
    fe = np.concatenate((f[:, -1:], f, f[:, :1]), axis=1)
    fl, fr = fe[:, :-2], fe[:, 2:]
    dom, j = np.divmod(np.flatnonzero((f < 0.0) != (fr < 0.0)), n)
    lo, hi = j * h, (j + 1) * h
    fj = f[dom, j]
    th = lo + h * (fj / (fj - fr[dom, j]))
    exits = fj < 0.0
    # near-tangencies: the parabola through three same-sign nodes has its
    # vertex within a step, bends toward zero and dips past zero there
    dd, sl = fr - 2.0 * f + fl, fr - fl
    nd, near = np.divmod(np.flatnonzero(np.abs(sl) < 2.0 * np.abs(dd)), n)
    fn, dn, sn = f[nd, near], dd[nd, near], sl[nd, near]
    sel = ((fn * dn > 0.0) & (8.0 * np.abs(fn * dn) - sn * sn < 8.0 * dn * dn)
           & (fn * fl[nd, near] > 0.0) & (fn * fr[nd, near] > 0.0))
    if sel.any():
        nd, near, fn = nd[sel], near[sel], fn[sel]
        coef, zp = st.jet[rows[nd]], st.zc[rows[nd]] - pc[nd]
        tc = (near - 0.5 * sn[sel] / dn[sel]) * h
        for _ in range(2):
            _, fp, fpp = _circle_f(coef, zp, radius, tc)
            step = np.divide(fp, fpp, out=np.zeros_like(fp), where=fpp != 0.0)
            tc = np.clip(tc - step, (near - 1) * h, (near + 1) * h)
        fc, _, fpp = _circle_f(coef, zp, radius, tc)
        keep = (fc * fn < 0.0) & (fpp * fn > 0.0) & (np.abs(fc) > _TANGENCY_FLOOR * radius**2)
        # neighbouring triples can find the same extremum: seed its pair
        # once, comparing each extremum with the next of its row and the
        # row's last with its first
        kept = np.flatnonzero(keep)
        first, last = _segments(nd[kept])
        nxt = np.arange(1, kept.size + 1)
        nxt[last] = first
        dup = np.abs(np.angle(np.exp(1j * (tc[kept][nxt] - tc[kept])))) < 0.5 * h
        wrap = dup[last] & (last - first >= 2)
        dup[last] = False
        drop = np.zeros_like(dup)
        drop[1:] = dup[:-1]
        drop[last] |= wrap
        keep[kept[drop]] = False
        if keep.any():
            nd, near, tc, fin = nd[keep], near[keep], tc[keep], fn[keep] < 0.0
            half = np.sqrt(-2.0 * fc[keep] / fpp[keep])
            parts = ((th, tc - half, tc + half), (dom, nd, nd), (lo, (near - 1) * h, tc),
                     (hi, tc, (near + 1) * h), (exits, fin, ~fin))
            th, dom, lo, hi, exits = map(np.concatenate, parts)
            order = np.lexsort((th, dom))
            th, dom, lo, hi, exits = th[order], dom[order], lo[order], hi[order], exits[order]
    out, start_inside = th.copy(), f[:, 0] < 0.0
    if th.size == 0:
        return out, dom, exits, start_inside
    at, d, ex = np.arange(th.size), dom, exits      # the crossings still refined
    coef, zp = st.jet[rows[dom]], st.zc[rows[dom]] - pc[dom]
    for _ in range(_HALLEY_MAX_STEPS):
        fv, fp, fpp = _circle_f(coef, zp, radius, th)
        den = 2.0 * fp * fp - fv * fpp
        step = np.divide(2.0 * fv * fp, den, out=np.zeros_like(den), where=den != 0.0)
        new = th - step
        # Halley's step stalls where f' = 0 short of a root: trust it only
        # where it is at least half of Newton's step f/f'
        ok = 2.0 * np.abs(step * fp) >= np.abs(fv)
        good = ok & (lo <= new) & (new <= hi) & ~(np.abs(step) > 1e-2 * h)
        left = np.bincount(d, ~good, minlength=k)[d] != 0.0
        out[at[~left]] = new[~left]
        if not left.any():
            break
        # f < 0 on the lo side exactly at an exit: shrink the brackets to th
        # and bisect where the step is not trusted or leaves them
        below = (fv < 0.0) == ex
        lo, hi = np.where(below, th, lo), np.where(below, hi, th)
        bad = ~(ok & (lo <= new) & (new <= hi))
        new[bad] = 0.5 * (lo[bad] + hi[bad])
        at, th, d, lo, hi, ex, coef, zp = (
            col[left] for col in (at, new, d, lo, hi, ex, coef, zp))
    else:
        out[at] = th
    return out, dom, exits, start_inside


def _segments(key):
    """First and last index of each run of equal values in a sorted key."""
    cut = np.empty(key.size + 1, dtype=bool)
    cut[0] = cut[-1] = True
    np.not_equal(key[1:], key[:-1], out=cut[1:-1])
    edge = np.flatnonzero(cut)
    return edge[:-1], edge[1:] - 1


def _ball_overlap_jet(st, rows, p, radius):
    """|domain  intersect  B_radius(p)| with its gradient and Hessian in p,
    (k,), (k, 2) and (k, 2, 2), for the domains of stack rows `rows` and
    the ball centers p (k, 2), one each.

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
    crossing slides along the curve as p moves.  A row's sums over its
    crossings are one segment of `np.add.reduceat`, and its psi order one
    segment of a `np.lexsort`.
    """
    pc = p[:, 0] + 1j * p[:, 1]
    th, dom, exits, start_inside = _circle_crossings(st, rows, pc, radius)
    area = np.where(start_inside, st.area[rows], 0.0)
    grad, hess = np.zeros((rows.size, 2)), np.zeros((rows.size, 2, 2))
    first, last = _segments(dom)
    i = dom[first]                      # the rows with crossings
    # no crossing: the disk holds the curve, or its center lies >= radius in or out
    out = ~start_inside
    out[i] = False
    if out.any():
        rho, r = _ray(st.poly[rows[out]], pc[out] - st.zc[rows[out]])
        area[out] = np.where(rho <= r, np.pi * radius**2, 0.0)
    if th.size == 0:
        return area, grad, hess
    rr = rows[dom]
    u = np.exp(1j * th)
    powers = np.vander(u, st.m + 1, increasing=True)
    r, rp = (powers[:, None, : st.m // 2 + 1] * st.jet[rr, :2]).sum(-1).real.T
    w = st.zc[rr] + r * u - pc[dom]
    gp = (rp + 1j * r) * u
    s = np.where(exits, 1.0, -1.0)
    dot = (np.conj(w) * gp).real
    q = np.divide(1j * s * gp, dot, out=np.zeros_like(gp), where=dot != 0.0)
    # the circle arc from each exit ends at the next crossing in psi
    psi = np.angle(w)
    order = np.lexsort((psi, dom))
    psi = psi[order]
    nxt = psi[np.append(np.arange(1, psi.size), 0)]
    nxt[last] = psi[first] + 2.0 * np.pi
    sector = s * (st.a0[rr] * th + (powers * st.b[rr]).sum(-1).real)
    sw, sec, hx, hy = np.add.reduceat(np.array((
        s * w, sector + 1j * np.where(exits[order], nxt - psi, 0.0),
        q * w.real, q * w.imag)), first, axis=1)
    curve = sec.real + 0.5 * (np.conj(st.zc[rows[i]] - pc[i]) * sw).imag
    # the arc inside the disk wraps theta = 0
    curve += np.where(exits[first], 2.0 * np.pi * st.a0[rows[i]], 0.0)
    area[i] = curve + 0.5 * radius**2 * sec.imag
    grad[i, 0], grad[i, 1] = -sw.imag, sw.real
    # the symmetric part of [[Re hx, Re hy], [Im hx, Im hy]]
    hess[i, 0, 0], hess[i, 1, 1] = hx.real, hy.imag
    hess[i, 0, 1] = hess[i, 1, 0] = 0.5 * (hy.real + hx.imag)
    return area, grad, hess


def _asymmetries(modes, centers, radius, starts):
    """(asymmetries, centers, evaluations) of `asymmetry_to_ball` for the
    same-M domains given by their radius modes (D, M/2 + 1) and star
    centers (D, 2), searched together from `starts` (D, 2), or from their
    barycenters where `starts` is None.

    Each Newton round evaluates, in one pass, the overlap of every domain
    that needs a point (`_newton_2d`), and a domain's result, its
    evaluation count included, is the same bit for bit alone or in any
    batch: every sum runs over one domain's row or segment.  The domains
    go in blocks of about _BLOCK_ENTRIES cloud points.
    """
    modes, centers = np.asarray(modes), np.asarray(centers, dtype=float)
    ball_area = np.pi * radius**2
    asym, found = np.empty(len(modes)), np.empty((len(modes), 2))
    evals = np.empty(len(modes), dtype=int)
    block = max(1, _BLOCK_ENTRIES // (8 * modes.shape[-1] - 8))
    for lo in range(0, len(modes), block):
        part = slice(lo, lo + block)
        st = _Stack(modes[part], centers[part])

        def evaluate(p, rows):
            area, grad, hess = _ball_overlap_jet(st, rows, p, radius)
            return -area, -grad, -hess

        found[part], neg_area, evals[part] = _newton_2d(
            evaluate, st.barycenter if starts is None else starts[part], radius, ball_area)
        asym[part] = np.maximum((st.area + ball_area + 2.0 * neg_area) / ball_area, 0.0)
    return asym, found, evals


def asymmetry_to_ball(d, radius):
    """(asymmetry, center): the scaled symmetric difference to the
    best-matching ball of given radius, and that ball's center.

    Minimizes |domain DELTA B_radius(x)| / |B_radius| over the ball center
    x, that is, maximizes the exact overlap of `_ball_overlap_jet`, by
    Newton's method with its analytic gradient and Hessian (steepest
    ascent, from steps of radius/4, where the overlap is not concave),
    started at the barycenter.  The search stops at a step of 1e-10
    radius or a predicted gain of 1e-15 ball areas, below which rounding
    decides.  It is `_asymmetries` on a stack of one domain:
    the flow, its decay fit and the stability sweep search all their
    domains in one batch, and each gets the same result as here.

    The value (|domain| + pi radius^2 - 2 overlap) / (pi radius^2) subtracts
    areas of order one, so it carries about 1e-16 absolute rounding: near
    stationarity, at an asymmetry of about 6e-8, only about 8 digits are
    meaningful.
    """
    asym, center, _ = _asymmetries(d.modes[None], d.center[None], radius, None)
    return float(asym[0]), center[0]


def lemma_distance_check(d, radius):
    """(lhs, rhs) of the boundary-distance estimate about the origin.

    lhs = |domain DELTA B_radius(0)| / |B_radius|, from the exact overlap,
    rhs = sqrt(radius^{-1} * oint (|x|/radius - 1)^2 dsigma).
    """
    st = _Stack(d.modes[None], d.center[None])
    ov = _ball_overlap_jet(st, np.zeros(1, dtype=int), np.zeros((1, 2)), radius)[0][0]
    ball_area = np.pi * radius**2
    lhs = (d.area + ball_area - 2.0 * ov) / ball_area
    rr = np.abs(d.z)
    rhs = np.sqrt(np.sum((rr / radius - 1.0) ** 2 * d.arc_weights) / radius)
    return float(lhs), float(rhs)


_EXIT_NEWTON_STEPS = 6      # five reached rounding on 200 random shapes, M = 32...128


@dataclass
class ReflectionReport:
    """Minimal reflection radius with oscillation diagnostics."""

    rho: float
    oscillation: float


def _chord(d, j):
    """s -> gamma(theta_j + s) - gamma(theta_j) at nodes j without cancellation: with
    v = e^{is}, v^k - 1 = (v - 1)(1 + ... + v^{k-1}) and v - 1 = 2i sin(s/2) e^{is/2}.
    The powers of u = e^{i theta_j} and r(theta_j) are taken once for every s."""
    c = d._radius_poly
    u = spectral.unit_circle(d.m)[j]
    powers = np.vander(u, c.size, increasing=True)
    r = (powers @ c).real

    def chord(s):
        v, w = np.exp(1j * s), 2j * np.sin(0.5 * s) * np.exp(0.5j * s)
        vk = np.vander(v, c.size, increasing=True)
        sums = np.cumsum(vk, axis=1) - vk
        return u * ((w * ((powers * sums) @ c)).real * v + r * w)
    return chord


def _exit_seeds(d, ce, cloud, jet, delta, bound):
    """The lower bound `bound` of the reflection radius raised by the rays
    x - t e, e = conj(ce), from the nodes x, and the crossings behind x that
    may raise it further, as two sets of columns: direction, node, offset
    s = theta - theta_j, bracket s_lo, s_hi, the sign of f(s_lo) (NaN: not
    known) and upper bound of (x.e + a)/2.

    In w = ce z a ray's height returns to the node's on each cloud segment
    whose ends straddle it: per direction, one real `searchsorted` of the
    cloud heights among the sorted node heights counts the nodes below each
    cloud point, and the nodes that a segment straddles are the ones
    between its two ends' counts, listed for the segments whose count
    changes.  The curve lies within delta of the chord, so a segment spanning
    (da, db) puts the crossing's a within delta (1 + |da/db|), and
    |da| + delta, of the chord's.  A node's own two segments meet its ray
    only at the node; a near-tangent exit inside them is seeded by the local
    quadratic's root.
    """
    m, n, h = d.m, cloud.size, 2.0 * np.pi / cloud.size
    # the cloud closed by its first point, so segment k ends at column k + 1
    w, xw, tw = ce * np.append(cloud, cloud[0]), ce * d.z, ce * jet[0]    # Im tw = |gamma'| e.nu
    bound = max(bound, xw.real[tw.imag <= 0.0].max(initial=0.0))
    bpp = (ce * jet[1]).imag
    s = np.divide(-2.0 * tw.imag, bpp, out=np.zeros_like(bpp), where=bpp != 0.0)
    # the own two segments and one more for the quadratic's error
    near = np.nonzero((tw.imag > 0.0) & (tw.real * s < 0.0) & (np.abs(s) <= 2.0 * h))
    s = s[near]
    order = np.argsort(xw.imag, axis=1)
    # the nodes below each cloud point (int32: half the memory of the counts)
    below = np.empty(w.shape, dtype=np.int32)
    for row, key, wi in zip(below, np.sort(xw.imag, axis=1), w.imag):
        row[:] = key.searchsorted(wi)
    step = np.diff(below, axis=1).ravel()       # segment k of direction r at n r + k
    seg = np.flatnonzero(step != 0)     # the segments that straddle a node's height
    step = step.take(seg)
    r, cnt = seg // n, np.abs(step)
    # one (segment, node) pair per straddled node: the nodes' places in
    # `order` run on from the count at the segment's lower end
    pair = np.repeat(np.arange(seg.size), cnt)
    place = ((below.take(seg + r) + np.minimum(step, 0) + m * r + cnt - np.cumsum(cnt))
             .take(pair) + np.arange(pair.size))
    seg, j = seg.take(pair), order.take(place)
    q = seg - n // m * j
    q -= n * (q // n)                   # segment k counted from the node's cloud point
    pair = np.flatnonzero((q != 0) & (q != n - 1))
    seg, j, q = (col.take(pair) for col in (seg, j, q))
    r = seg // n
    p0, p1, x = w.take(seg + r), w.take(seg + r + 1), xw.take(m * r + j)
    da, db = p1.real - p0.real, p1.imag - p0.imag
    tau = (x.imag - p0.imag) / db
    a = p0.real + tau * da
    err = delta + np.minimum(delta * np.abs(da / db), np.abs(da))
    value = 0.5 * (x.real + a)
    bound = max(bound, (value - 0.5 * err)[a < x.real - err].max(initial=0.0))
    keep = np.flatnonzero((a < x.real + err) & (value + 0.5 * err >= bound))
    r, j, q, tau, db, value, err = (col.take(keep) for col in (r, j, q, tau, db, value, err))
    q = np.where(q < n // 2, q, q - n)  # signed: s keeps its precision near 0
    return bound, ((r, j, (q + tau) * h, q * h, (q + 1) * h, -db, value + 0.5 * err),
                   (near[0], near[1], s, *np.sort((0.5 * s, 2.0 * s), axis=0),
                    np.full(s.size, np.nan), np.full(s.size, np.inf)))


def rho_reflection_min(d):
    """Smallest rho passing the halfplane-reflection test about the origin.

    Every cut s >= rho along a sampled direction e reflects each node x with
    x.e > s to x - 2 (x.e - s) e, which must lie in the closed domain: the
    ray x - t e up to t = 2 (x.e - rho).  So a pair whose ray enters the
    domain (e.nu > 0) needs rho >= x.e - l/2, the midpoint of x and its
    first exit at distance l, any other rho >= x.e, and rho is the largest
    bound and 0, exact up to rounding.  Every crossing behind x bounds rho
    the same way, the first exit the most, so the crossings that
    `_exit_seeds` finds on the 8M cloud and that may be largest are refined
    by bracketed Newton steps on the curve.  ShapeError: the origin is
    outside by more than 1e-10 of the largest radius sample;
    ConvergenceError: rho exceeds the least cloud radius.
    """
    if not d.contains(np.zeros((1, 2)))[0]:
        raise ShapeError("reflection radius needs the origin inside the domain")
    cloud = d.dense_boundary(8)
    # the curve stays within (h^2/8) max|gamma''| of each chord, h = 2 pi/8M,
    # and gamma'' = (r'' + 2i r' - r) e^{i theta} has |gamma''| <= sum (k+1)^2 |c_k|
    c = np.abs(d._radius_poly)
    delta = 0.5 * (np.pi / cloud.size) ** 2 * float((np.arange(c.size) + 1.0) ** 2 @ c)
    jet = d.curve_jet(d.theta)[1:]
    ce = np.conj(spectral.unit_circle(d.m))     # conjugate sampled directions
    block = max(1, _BLOCK_ENTRIES // cloud.size)
    bound, seeds = 0.0, []
    for start in range(0, d.m, block):
        bound, found = _exit_seeds(d, ce[start:start + block, None], cloud, jet, delta, bound)
        seeds += [(cols[0] + start,) + cols[1:] for cols in found]
    i, j, s, lo, hi, flo, upper = (np.concatenate(col) for col in zip(*seeds))
    i, j, s, lo, hi, flo = (col[upper >= bound] for col in (i, j, s, lo, hi, flo))
    ce, near = ce[i], np.isnan(flo)
    # f falls across a segment whose height falls, so f(s_lo) has the sign of
    # -db; a near-tangent bracket without a sign change holds no crossing
    chord = _chord(d, j[near])
    flo[near], f_hi = ((ce[near] * chord(end[near])).imag for end in (lo, hi))
    live = ~near
    live[near] = flo[near] * f_hi <= 0.0
    ce, j, s, lo, hi, flo = (col[live] for col in (ce, j, s, lo, hi, flo))
    chord, th = _chord(d, j), d.theta[j]
    for _ in range(_EXIT_NEWTON_STEPS):
        f = (ce * chord(s)).imag
        fp = (ce * d.curve_jet(th + s)[1]).imag
        below = (f < 0.0) == (flo < 0.0)
        lo, hi = np.where(below, s, lo), np.where(below, hi, s)
        s = s - np.divide(f, fp, out=np.full_like(f, np.inf), where=fp != 0.0)
        # a step that leaves the shrinking bracket bisects it instead
        out = ~((lo <= s) & (s <= hi))
        s[out] = 0.5 * (lo[out] + hi[out])
    back = (ce * chord(s)).real
    x = (ce * d.z[j]).real
    rho = max(bound, float((x + 0.5 * back)[back < 0.0].max(initial=0.0)))
    rr = np.abs(cloud)          # cloud distances to the origin
    if rho > rr.min():
        raise ConvergenceError(
            "no admissible reflection radius up to the inscribed-ball bound")
    return ReflectionReport(rho=rho, oscillation=float(rr.max() - rr.min()))


# ----------------------------------------------------------------------------
# snapshot I/O
# ----------------------------------------------------------------------------

def save_domain_csv(d, path):
    """Write the (theta, r) samples, 17 significant digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
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
    data = []
    for ln, row in enumerate(rows[1:], start=2):
        try:
            theta, r = (float(cell) for cell in row)
        except ValueError:
            raise ShapeError(f"{path}: row {ln} is not two numbers: {row!r}") from None
        data.append((theta, r))
    data = np.array(data)
    m = len(data)
    if m < _MIN_M or m % 2 != 0:
        raise ShapeError(f"{path}: need an even sample count >= {_MIN_M}")
    if not np.allclose(data[:, 0], spectral.angle_grid(m), atol=1e-12):
        raise ShapeError(f"{path}: angle column is not the uniform grid")
    return StarDomain((0.0, 0.0), data[:, 1])
