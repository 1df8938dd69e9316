import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from conftest import (complex_key_exit_seeds, dealiased_power_sum, eval_at_angles,
                      first_exit_reflection_radius, resample, smooth_shape)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipe

import dropflow
from dropflow import (Circle, ConvergenceError, Ellipse, FourierShape, Samples,
                      ShapeError, StarDomain, asymmetry_to_ball,
                      build_star_domain, interior_quadrature,
                      lemma_distance_check, load_domain_csv, parse_shape,
                      ray_radii, rho_reflection_min, save_domain_csv,
                      spectral)
from dropflow import geometry
from dropflow.geometry import _Stack, _asymmetries, _ball_overlap_jet, _horner

R_STAR = (4.0 / math.pi) ** (1.0 / 3.0)


# -- shape grammar ------------------------------------------------------------

def test_parse_shape_grammar():
    assert parse_shape("circle(1)") == Circle(1.0)
    assert parse_shape("ellipse(1.2, 0.8)") == Ellipse(1.2, 0.8)
    fs = parse_shape("fourier(1; 2:0.1, 5:0.03)")
    assert isinstance(fs, FourierShape)
    assert fs.base == 1.0
    assert fs.modes == ((2, 0.1), (5, 0.03))


@pytest.mark.parametrize("bad", [
    "circle", "circle(", "blob(1)", "ellipse(1)", "fourier(1)x",
    "fourier(1;2)",
])
def test_parse_shape_rejects_malformed(bad):
    with pytest.raises(ShapeError):
        parse_shape(bad)


@pytest.mark.parametrize("flat", ["circle(0)", "circle(-1)"])
def test_nonpositive_radius_rejected_at_build(flat):
    with pytest.raises(ShapeError):
        build_star_domain(flat, 32)


def test_build_examples_trivial_radii():
    d = build_star_domain("circle(1)", 64)
    assert np.allclose(d.radii, 1.0, atol=1e-15)

    e = build_star_domain("ellipse(1.2,0.8)", 128)
    assert abs(eval_at_angles(e.radii, 0.0) - 1.2) < 1e-12
    assert abs(eval_at_angles(e.radii, np.pi / 2) - 0.8) < 1e-12

    f = build_star_domain("fourier(1;3:0.1)", 128)
    assert abs(eval_at_angles(f.radii, 0.0) - 1.1) < 1e-12
    assert abs(eval_at_angles(f.radii, np.pi / 3) - 0.9) < 1e-12


def test_build_rejects_bad_discretizations():
    with pytest.raises(ShapeError):
        build_star_domain("circle(1)", 33)
    with pytest.raises(ShapeError):
        build_star_domain("circle(1)", 8)
    with pytest.raises(ShapeError):
        build_star_domain("fourier(1;2:1.5)", 64)


def test_samples_shape_roundtrips_values():
    theta = 2 * np.pi * np.arange(32) / 32
    radii = 1.0 + 0.05 * np.cos(3 * theta)
    d = build_star_domain(Samples(tuple(radii)), 32)
    assert np.allclose(d.radii, radii, atol=1e-15)


# -- boundary geometry --------------------------------------------------------

def test_circle_curvature_and_perimeter():
    for radius in (1.0, 2.0):
        d = build_star_domain(f"circle({radius})", 64)
        assert np.allclose(d.curvature, 1.0 / radius, atol=1e-13)
        assert abs(d.arc_weights.sum() - 2 * np.pi * radius) < 1e-12
        norms = np.linalg.norm(d.normal, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)


def test_normals_point_outward(fourier2_sol):
    d = fourier2_sol.domain
    outward = ((d.nodes - d.center) * d.normal).sum(axis=1)
    assert np.all(outward > 0)


def test_ellipse_perimeter_matches_elliptic_integral():
    # independent oracle: P = 4 a E(1 - b^2/a^2)
    a, b = 1.2, 0.8
    d = build_star_domain("ellipse(1.2,0.8)", 128)
    oracle = 4 * a * ellipe(1 - (b / a) ** 2)
    assert abs(d.arc_weights.sum() - oracle) < 1e-8


def test_area_and_moments_closed_forms():
    d = build_star_domain("circle(1)", 64)
    assert abs(d.area - np.pi) < 1e-13

    f = build_star_domain("fourier(1;3:0.1)", 128)
    assert abs(f.area - np.pi * (1 + 0.1**2 / 2)) < 1e-12

    e = build_star_domain("ellipse(1.2,0.8)", 128)
    assert abs(e.area - 0.96 * np.pi) < 1e-10


def test_barycenter_tracks_translation():
    f = build_star_domain("fourier(1;3:0.1)", 128)
    d = StarDomain(f.center + (0.7, -0.4), f.radii)
    assert np.allclose(d.barycenter, [0.7, -0.4], atol=1e-12)
    r = d.recentered()
    assert np.allclose(r.center, d.barycenter, atol=1e-12)
    assert abs(r.area - d.area) < 1e-10


def test_scaled_dilates_area():
    d = build_star_domain("fourier(1;2:0.1)", 64)
    assert abs(d.scaled(2.0).area - 4 * d.area) < 1e-12
    with pytest.raises(ShapeError):
        d.scaled(-1.0)


def test_spectral_tail_reports_roughness(rng):
    smooth = build_star_domain("fourier(1;2:0.1)", 64)
    assert spectral.mode_tail_fraction(smooth.modes) < 1e-12
    rough = build_star_domain(
        Samples(tuple(1.0 + 0.01 * rng.standard_normal(64))), 64)
    assert spectral.mode_tail_fraction(rough.modes) > 1e-3  # reported, not fatal


# -- membership and rays ------------------------------------------------------

def test_contains_inside_and_outside():
    d = build_star_domain("circle(1)", 64)
    inside = np.array([[0.0, 0.0], [0.5, 0.5]])
    outside = np.array([[1.5, 0.0], [0.0, -1.01]])
    assert d.contains(inside).all()
    assert not d.contains(outside).any()
    # a transposed (2, n) array is a Fortran-ordered (n, 2) one
    both = np.vstack([inside, outside])
    assert np.array_equal(d.contains(np.asfortranarray(both)), [True, True, False, False])


def test_contains_is_scale_covariant():
    # the tolerance is relative to the largest radius: an absolute 1e-10
    # put (2t, 0) inside circle(t) for t <= 1e-11
    for t in (10.0 ** k for k in range(-12, 7)):
        d = build_star_domain(f"circle({t!r})", 32)
        pts = np.array([[0.5 * t, 0.0], [2.0 * t, 0.0]])
        assert d.contains(pts).tolist() == [True, False], t


def test_import_leaves_scipy_spatial_out():
    # membership needs no spatial index, so the package must not pull in
    # scipy.spatial (and the scipy.sparse and scipy.special behind it); the
    # LAPACK routines come from scipy's compiled extension, so neither
    # scipy.linalg's package nor the numpy.f2py it imports is loaded either
    src = str(pathlib.Path(dropflow.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for module in ("scipy.spatial", "scipy.linalg", "numpy.f2py"):
        code = f"import sys, dropflow, dropflow.cli; print({module!r} in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=path), check=True)
        assert out.stdout.strip() == "False", module


@settings(max_examples=40, deadline=None)
@given(modes=st.lists(st.tuples(st.integers(1, 8), st.floats(-0.08, 0.08)),
                      max_size=3, unique_by=lambda km: km[0]),
       nyquist=st.floats(-0.02, 0.02), base=st.floats(0.5, 2.0),
       m=st.sampled_from([32, 64, 128]),
       center=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       seed=st.integers(0, 2**32 - 1))
def test_contains_matches_trig_radius(modes, nyquist, base, m, center, seed):
    # the Horner form of contains against |rel| <= r(angle(rel)) + tol;
    # the (-1)^j samples exercise the halved cos(M theta/2) coefficient
    th = spectral.angle_grid(m)
    radii = base + nyquist * np.cos(0.5 * m * th)
    for k, eps in modes:
        radii = radii + eps * np.cos(k * th)
    d = StarDomain(center, radii)
    rng = np.random.default_rng(seed)
    psi = rng.uniform(-np.pi, np.pi, 400)
    u = np.exp(1j * psi)
    assert np.abs(_horner(d._radius_poly, u) - eval_at_angles(radii, psi)).max() <= 1e-14
    # points at random and within 1e-9..1e-15 of the boundary, both sides
    near = rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-15, -9, 200)
    scale = np.concatenate([rng.uniform(0.0, 1.5, 200), 1.0 + near])
    rel = scale * eval_at_angles(radii, psi) * u
    pts = np.column_stack([center[0] + rel.real, center[1] + rel.imag])
    pts = np.vstack([pts, [center]])
    rel = (pts[:, 0] - center[0]) + 1j * (pts[:, 1] - center[1])
    rho = np.abs(rel)
    u = np.divide(rel, rho, out=np.ones_like(rel), where=rho > 0.0)
    ray_rho, ray_r = d._ray(pts)
    # contains at its tolerance, and the raw radial margins that the
    # reflection radius's brute force and the interior guard test
    for tol in (1e-10 * radii.max(), 0.0, -1e-9 * radii.max()):
        margin = np.abs(rel) - (eval_at_angles(radii, np.angle(rel)) + tol)
        got = d.contains(pts) if tol > 0.0 else ray_rho <= ray_r + tol
        # point for point the radial test of the Horner form
        assert np.array_equal(got, rho <= _horner(d._radius_poly, u) + tol)
        far = np.abs(margin) > 1e-12
        assert np.array_equal(got[far], margin[far] <= 0.0)
        assert got[-1]


def test_ray_radii_from_center_matches_radius():
    d = build_star_domain("ellipse(1.2,0.8)", 128)
    psi = np.linspace(0, 2 * np.pi, 17, endpoint=False)
    rr = ray_radii(d, np.zeros(2), psi)
    assert np.allclose(rr, eval_at_angles(d.radii, psi), atol=1e-10)


def test_ray_radii_off_center_disk_closed_form():
    # unit disk seen from p = (c, 0): ray length = sqrt(1 - c^2 sin^2 psi) - c cos(pi - psi)
    d = build_star_domain("circle(1)", 128)
    c = 0.3
    psi = np.linspace(0, 2 * np.pi, 13, endpoint=False)
    rr = ray_radii(d, np.array([c, 0.0]), psi)
    exact = -c * np.cos(psi) + np.sqrt(1 - (c * np.sin(psi)) ** 2)
    assert np.allclose(rr, exact, atol=1e-10)


# -- the Nyquist mode between the nodes ----------------------------------------
# r = 1 + 0.05 cos 3 theta + a (-1)^j at M = 64: the (-1)^j samples are the
# Nyquist mode a cos(32 theta), whose derivative -32 a sin(32 theta) vanishes
# at the nodes only

def _nyquist_domain(a, m=64):
    th = spectral.angle_grid(m)
    return StarDomain((0.0, 0.0), 1.0 + 0.05 * np.cos(3 * th) + a * (-1.0) ** np.arange(m))


@pytest.mark.parametrize("a", [1e-3, 0.02])
def test_curve_jet_matches_central_differences(a):
    d = _nyquist_domain(a)
    t = np.linspace(0.0, 2.0 * np.pi, 997, endpoint=False) + 0.123
    h = 1e-6
    _, gp, gpp = d.curve_jet(t)
    fd1 = (d.curve_points(t + h) - d.curve_points(t - h)) / (2.0 * h)
    fd2 = (d.curve_jet(t + h)[1] - d.curve_jet(t - h)[1]) / (2.0 * h)
    assert np.abs(gp - fd1).max() <= 1e-6 * np.abs(gp).max()
    assert np.abs(gpp - fd2).max() <= 1e-6 * np.abs(gpp).max()


@pytest.mark.parametrize("a", [1e-3, 0.02])
def test_ray_radii_lands_on_the_curve(a):
    d = _nyquist_domain(a)
    p = np.array([0.05, -0.03])
    psi = np.linspace(0.0, 2.0 * np.pi, 101, endpoint=False)
    q = (p[0] + 1j * p[1]) + ray_radii(d, p, psi) * np.exp(1j * psi)
    assert np.abs(np.abs(q) - eval_at_angles(d.radii, np.angle(q))).max() <= 1e-14


@pytest.mark.parametrize("a", [1e-3, 0.02])
def test_rho0_estimate_radius_derivative_matches_central_differences(a):
    # r' of the radius jet on the 4M grid against a fourth-order central
    # difference of r on a 16 times finer grid
    d = _nyquist_domain(a)
    rp = spectral.jet(d.modes, 4 * d.m, 2)[1]
    fine = d.refined_radii(64)
    h = 2.0 * np.pi / fine.size
    fd = (8.0 * (np.roll(fine, -1) - np.roll(fine, 1))
          - (np.roll(fine, -2) - np.roll(fine, 2))) / (12.0 * h)
    assert np.abs(rp - fd[::16]).max() <= 1e-6 * np.abs(rp).max()


# -- interior quadrature ------------------------------------------------------

def test_interior_quadrature_weights_and_moment():
    d = build_star_domain("circle(1)", 64)
    q = interior_quadrature(d, 16)
    assert abs(q.weights.sum() - np.pi) < 1e-12
    x2 = (q.nodes**2).sum(axis=1)
    assert abs((q.weights * x2).sum() - np.pi / 2) < 1e-12
    assert d.contains(q.nodes).all()

    e = build_star_domain("ellipse(1.2,0.8)", 128)
    qe = interior_quadrature(e, 24)
    assert abs(qe.weights.sum() - 0.96 * np.pi) < 1e-10


# -- ball-distance functionals ------------------------------------------------

def test_asymmetry_translated_disk_is_zero():
    d = StarDomain((0.3, -0.2), build_star_domain("circle(1)", 128).radii)
    val, center = asymmetry_to_ball(d, 1.0)
    assert val < 1e-8
    assert np.allclose(center, [0.3, -0.2], atol=1e-6)


def test_asymmetry_concentric_disks():
    d = build_star_domain("circle(1.1)", 128)
    assert abs(asymmetry_to_ball(d, 1.0)[0] - 0.21) < 1e-6


def test_asymmetry_fourier_matches_quadrature_oracle():
    # |Omega delta B(0)| via adaptive quadrature of |r^2 - r*^2| for the
    # area-normalized mode-2 shape (fixture-independent frozen value).
    oracle = 0.12673006190459143
    d = build_star_domain("fourier(1;2:0.1)", 128)
    d = d.scaled(R_STAR / math.sqrt(d.area / math.pi))
    assert abs(asymmetry_to_ball(d, R_STAR)[0] - oracle) < 1e-5


def test_dense_boundary_is_the_radius_interpolant():
    # one curve: the dense cloud is r(theta) swept about the center, also on
    # a rough shape whose Nyquist mode is not negligible
    rng = np.random.default_rng(11)
    th = spectral.angle_grid(64)
    radii = (1.0 + 0.1 * np.cos(2 * th)) * (1.0 + 0.01 * rng.standard_normal(64))
    d = build_star_domain(Samples(tuple(radii)), 64)
    dense = d.dense_boundary(8)
    assert np.abs(dense - d.curve_points(spectral.angle_grid(512))).max() <= 1e-14
    assert np.abs(dense[::8] - d.z).max() <= 1e-14


def _rough_radii(m, seed):
    rng = np.random.default_rng(seed)
    th = spectral.angle_grid(m)
    return (1.0 + 0.1 * np.cos(2 * th)) * (1.0 + 0.01 * rng.standard_normal(m))


@pytest.mark.parametrize("m", [16, 64, 128])
def test_domain_from_modes_matches_domain_from_samples(m):
    # a rough shape, so the Nyquist mode matters; the modes path derives
    # r, r', r'' in one inverse FFT, the samples path keeps r as given
    radii = _rough_radii(m, 7)
    a = StarDomain((0.2, -0.1), radii)
    b = StarDomain((0.2, -0.1), modes=np.fft.rfft(radii))
    assert np.array_equal(a.radii, radii)
    assert np.array_equal(a.modes, b.modes)

    def close(x, y):
        # 1e-14 relative to the field's size (the curvature reaches ~30)
        return np.abs(x - y).max() <= 1e-14 * np.abs(x).max()
    for name in ("z", "speed", "curvature", "arc_weights", "nodes", "normal"):
        assert close(getattr(a, name), getattr(b, name)), name
    assert close(a.area, b.area)
    assert close(a.dense_boundary(4), b.dense_boundary(4))
    assert close(a._jet_poly, b._jet_poly)
    assert spectral.mode_tail_fraction(b.modes) == spectral.mode_tail_fraction(np.fft.rfft(radii))


def test_domain_from_modes_rejects_bad_modes():
    with pytest.raises(ShapeError, match="even number"):
        StarDomain((0.0, 0.0), modes=np.ones(8))          # M = 14
    bad = np.fft.rfft(np.full(32, 1.0))
    bad[3] = np.nan
    with pytest.raises(ShapeError, match="finite"):
        StarDomain((0.0, 0.0), modes=bad)
    with pytest.raises(ShapeError, match="positive"):
        StarDomain((0.0, 0.0), modes=np.fft.rfft(np.full(32, -1.0)))
    with pytest.raises(ShapeError, match="center must be finite"):
        StarDomain((np.nan, 0.0), np.ones(32))


@pytest.mark.parametrize("m", [16, 64, 256])
def test_parseval_area_matches_dealiased_quadrature(m):
    radii = _rough_radii(m, 3)
    d = StarDomain((0.0, 0.0), radii)
    ref = 0.5 * dealiased_power_sum(radii, 2)
    assert abs(d.area / ref - 1.0) <= 1e-15


def test_refined_radii_is_the_resampled_interpolant():
    radii = _rough_radii(64, 5)
    d = StarDomain((0.0, 0.0), radii)
    assert np.array_equal(d.refined_radii(4), resample(radii, 256))
    assert d.refined_radii(4) is d.refined_radii(4)


def _overlap(d, p, r):
    """|d intersect B_r(p)|, through a stack of one domain."""
    st = _Stack(d.modes[None], d.center[None])
    return _ball_overlap_jet(st, np.zeros(1, dtype=int), np.reshape(p, (1, 2)), r)[0][0]


def _lens_area(c, r):
    """|B_1(0) intersect B_r((c, 0))| for circles that cross."""
    d1 = (c * c + 1.0 - r * r) / (2.0 * c)
    d2 = c - d1
    return (math.acos(d1) - d1 * math.sqrt(1.0 - d1 * d1)
            + r * r * math.acos(d2 / r) - d2 * math.sqrt(r * r - d2 * d2))


@pytest.mark.parametrize("c, r", [(1.2, 0.5), (1.5, 1.0), (2.0, 1.5), (0.6, 0.7)])
def test_ball_overlap_matches_lens_area(c, r):
    # centres outside the disk (not star-shaped about them) and one inside
    d = build_star_domain("circle(1)", 128)
    assert abs(_overlap(d, np.array([c, 0.0]), r) - _lens_area(c, r)) < 1e-5


@pytest.mark.parametrize("c, r", [(1.2, 0.5), (1.5, 1.0), (2.0, 1.5), (0.6, 0.7)])
def test_ball_overlap_is_exact_lens_area(c, r):
    # the crossing-point formula has no quadrature error
    d = build_star_domain("circle(1)", 128)
    assert abs(_overlap(d, np.array([c, 0.0]), r) - _lens_area(c, r)) < 1e-13


@pytest.mark.parametrize("c, r", [(1.5 - 1e-5, 0.5), (0.5 + 1e-5, 0.5),
                                  (2.0 - 1e-6, 1.0)])
@pytest.mark.parametrize("node", [57.5, 0.5, 511.5])
def test_ball_overlap_finds_crossings_between_nodes(c, r, node):
    # near-tangent circles whose two crossings fall between two nodes of
    # the 4M cloud (M = 128), also across theta = 0; the lens is 1e-9-1e-8
    d = build_star_domain("circle(1)", 128)
    ang = 2.0 * np.pi * node / 512
    p = np.array([c * math.cos(ang), c * math.sin(ang)])
    assert abs(_overlap(d, p, r) - _lens_area(c, r)) < 1e-13


@pytest.mark.parametrize("r", [1.0, 0.5])
def test_ball_overlap_crossings_near_an_extremum(r):
    # crossing pairs 0.3-3 grid intervals apart at M = 32, where f has its
    # extremum between the two roots and a root-finder can stall on f' = 0
    d = build_star_domain("circle(1)", 32)
    h = 2.0 * np.pi / 128
    for half in np.linspace(0.3, 3.0, 28) * h:
        c = math.cos(half) + math.sqrt(math.cos(half) ** 2 - 1.0 + r * r)
        for ang in (np.linspace(0.0, 1.0, 9) + 0.3) * h:
            p = np.array([c * math.cos(ang), c * math.sin(ang)])
            assert abs(_overlap(d, p, r) - _lens_area(c, r)) < 1e-13


def test_ball_overlap_matches_fine_quadrature():
    # random shapes, centres and radii, including centres outside and balls
    # cutting wiggly curves at M = 32, against the Richardson-extrapolated
    # polar trapezoid sum of (1/2) min(|gamma - p|, r)^2 on a 2048M cloud
    def trapezoid(d, p, r, factor):
        g = d.dense_boundary(factor) - (p[0] + 1j * p[1])
        f = np.minimum(np.abs(g), r) ** 2
        return 0.25 * float(np.sum((f + np.roll(f, -1)) * np.angle(np.roll(g, -1) / g)))

    rng = np.random.default_rng(7)
    for _ in range(40):
        ks = rng.choice(np.arange(2, 9), size=int(rng.integers(1, 4)), replace=False)
        modes = tuple((int(k), float(rng.uniform(-0.25, 0.25)) / len(ks)) for k in ks)
        d = build_star_domain(FourierShape(1.0, modes), int(rng.choice([32, 64, 128])),
                              center=tuple(rng.uniform(-0.5, 0.5, 2)))
        p, r = rng.uniform(-1.5, 1.5, 2), rng.uniform(0.1, 2.0)
        fine = (4.0 * trapezoid(d, p, r, 2048) - trapezoid(d, p, r, 1024)) / 3.0
        assert abs(_overlap(d, p, r) - fine) < 1e-8


def _search(d, radius, start):
    """(asymmetry, center, evaluations) of `asymmetry_to_ball` on d from
    `start` (the barycenter where None), searched by `_asymmetries` on a
    stack of one."""
    starts = None if start is None else np.reshape(start, (1, 2))
    asym, center, evals = _asymmetries(d.modes[None], d.center[None], radius, starts)
    return float(asym[0]), center[0], int(evals[0])


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_asymmetry_matches_first_order_closed_form(k):
    # normalized r*(1 + eps cos k theta): |Omega delta B|/|B| = 4 eps/pi + O(eps^3)
    eps = 1e-6
    d = build_star_domain(f"fourier(1;{k}:{eps})", 128)
    d_norm = d.scaled(R_STAR / math.sqrt(d.area / math.pi))
    assert abs(asymmetry_to_ball(d_norm, R_STAR)[0] / (4.0 * eps / math.pi) - 1.0) < 1e-8


def test_best_center_follows_translation():
    d = build_star_domain("fourier(1;3:0.1,5:0.03)", 128)
    val, center = asymmetry_to_ball(d, 1.0)
    shift = np.array([0.31, -0.17])
    start = center + shift + np.array([0.05, 0.0])
    moved, center_t, _ = _search(StarDomain(d.center + shift, d.radii), 1.0, start)
    assert np.abs(center_t - center - shift).max() < 1e-9
    assert abs(moved - val) < 1e-12


@pytest.mark.parametrize("spec", ["fourier(1;2:0.01)", "fourier(1;3:0.1,5:0.03)"])
def test_asymmetry_from_a_start_outside_the_newton_basin(spec):
    # 0.3 off, where the overlap is not concave: steepest descent leads in
    d = build_star_domain(spec, 64)
    d = d.scaled(R_STAR / math.sqrt(d.area / math.pi))
    ref = asymmetry_to_ball(d, R_STAR)[0]
    for ang in (0.0, 2.0, 4.0):
        start = d.barycenter + 0.3 * np.array([math.cos(ang), math.sin(ang)])
        assert abs(_search(d, R_STAR, start)[0] / ref - 1.0) < 1e-12


@pytest.mark.parametrize("spec", ["fourier(1;2:0.1)", "fourier(1;3:0.1,5:0.03)",
                                  "fourier(1;2:0.05,3:0.02)"])
def test_asymmetry_does_not_depend_on_the_start(spec):
    # a start moved by 1e-12 ends at the same optimum (Nelder-Mead moved in
    # the 3rd-4th digit under a 3e-17 change near stationarity)
    d = build_star_domain(spec, 64)
    d = d.scaled(R_STAR / math.sqrt(d.area / math.pi))
    ref = asymmetry_to_ball(d, R_STAR)[0]
    for off in ([1e-12, 0.0], [0.0, -1e-12], [7e-13, 7e-13]):
        val = _search(d, R_STAR, d.barycenter + np.array(off))[0]
        assert abs(val / ref - 1.0) < 1e-10


def test_asymmetry_counts_overlap_evaluations():
    # no crossings: gradient and Hessian vanish, the search stops at the start
    val, _, evals = _search(build_star_domain("circle(1.1)", 64), 1.0, None)
    assert abs(val - 0.21) < 1e-12
    assert evals == 1
    d = build_star_domain("fourier(1;3:0.1,5:0.03)", 64)
    assert _search(d, 1.0, d.barycenter + 0.05)[2] > 2


def test_asymmetry_search_is_batch_invariant():
    # a domain's asymmetry, center and evaluation count are the same bit for
    # bit searched alone or in any batch, in any order: every sum of the
    # batched search runs over one domain's row or segment
    near = 2.0 * math.pi * 57.5 / 256     # between two nodes of the 4M cloud
    cases = [
        # no crossings: 0.21 after one evaluation
        ("circle(1.1)", None),
        # the disk starts outside, near-tangent: a crossing pair between nodes
        ("circle(2)", (3.0 - 2e-5) * np.array([math.cos(near), math.sin(near)])),
        # a start outside the Newton basin, where steepest descent leads in
        ("fourier(1;3:0.1,5:0.03)", 0.3 * np.array([math.cos(2.0), math.sin(2.0)])),
        ("fourier(1;2:0.01)", None),
        ("ellipse(1.2,0.8)", np.array([0.1, -0.2])),
    ]
    domains = [build_star_domain(spec, 64) for spec, _ in cases]
    starts = np.array([d.barycenter if off is None else off
                       for d, (_, off) in zip(domains, cases)])
    alone = [_search(d, 1.0, start) for d, start in zip(domains, starts)]
    assert alone[0][0] == pytest.approx(0.21, abs=1e-12) and alone[0][2] == 1
    assert alone[1][2] > 2 and alone[2][2] > 2
    modes = np.array([d.modes for d in domains])
    centers = np.array([d.center for d in domains])
    rng = np.random.default_rng(5)
    for batch in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [1, 1, 0], [2], *(
            rng.permutation(5)[: rng.integers(2, 6)] for _ in range(4))):
        vals, found, evals = _asymmetries(modes[batch], centers[batch], 1.0, starts[batch])
        for k, i in enumerate(batch):
            assert vals[k] == alone[i][0], (batch, i)
            assert np.array_equal(found[k], alone[i][1]), (batch, i)
            assert evals[k] == alone[i][2], (batch, i)
    # barycenter starts, the flow's, are batch-invariant too
    vals = _asymmetries(modes, centers, 1.0, None)[0]
    assert [float(v) for v in vals] == [asymmetry_to_ball(d, 1.0)[0] for d in domains]


def test_lemma_distance_annulus_anchor():
    d = build_star_domain("circle(1.1)", 256)
    lhs, rhs = lemma_distance_check(d, 1.0)
    assert abs(lhs - 0.21) < 1e-6
    assert abs(rhs - math.sqrt(0.022 * math.pi)) < 1e-6


def test_lemma_distance_on_exact_ball_vanishes():
    d = build_star_domain("circle(1)", 128)
    lhs, rhs = lemma_distance_check(d, 1.0)
    assert abs(lhs) < 1e-12
    assert abs(rhs) < 1e-10


# -- reflection diagnostics ---------------------------------------------------

def test_rho_reflection_off_center_disk():
    d = StarDomain((0.2, 0.0), build_star_domain("circle(1)", 64).radii)
    rep = rho_reflection_min(d)
    assert abs(rep.rho - 0.2) < 0.01
    assert abs(rep.oscillation - 0.4) < 1e-10
    assert rep.oscillation <= 4 * rep.rho + 4e-4


def test_rho_reflection_centered_disk_is_zero():
    d = build_star_domain("circle(1)", 64)
    rep = rho_reflection_min(d)
    assert rep.rho < 2e-4
    assert rep.oscillation < 1e-12


def _offcenter_disk_samples(dist, alpha, m):
    # radii about the origin of the unit disk centred at dist * e^{i alpha}
    psi = 2.0 * np.pi * np.arange(m) / m - alpha
    return Samples(tuple(dist * np.cos(psi) + np.sqrt(1.0 - (dist * np.sin(psi)) ** 2)))


# the benchmark's off-centre unit disks (offset, direction)
BENCHMARK_DISKS = ((0.24, 4.2), (0.2, 0.0), (0.12, 2.1), (0.28, 1.0))


# the last four are the benchmark's off-centre unit disks at M = 64
@pytest.mark.parametrize("spec, m, rho, osc", [
    ("fourier(1;2:0.1)", 128, 0.19590380572519908, 0.20000000000000018),
    ("fourier(1;3:0.1,5:0.03)", 128, 0.38537351473147935, 0.26000000000000023),
    ("ellipse(1.2,0.8)", 128, 0.3999867957269848, 0.3999999999999998),
    (_offcenter_disk_samples(0.24, 4.2, 64), 64, 0.2399444540534481, 0.4799977986732047),
    (_offcenter_disk_samples(0.2, 0.0, 64), 64, 0.2000000000000003, 0.3999999999999999),
    (_offcenter_disk_samples(0.12, 2.1, 64), 64, 0.11991186028080125, 0.23999972483399268),
    (_offcenter_disk_samples(0.28, 1.0, 64), 64, 0.2799533608127918, 0.5599899856126727),
], ids=["fourier2", "fourier35", "ellipse", "offcenter-disk", "disk-0.2", "disk-0.12",
        "disk-0.28"])
def test_rho_reflection_pinned_values(spec, m, rho, osc):
    rep = rho_reflection_min(build_star_domain(spec, m))
    assert (rep.rho, rep.oscillation) == (rho, osc)


@pytest.mark.parametrize("m", [64, 128, 256, 512])
def test_rho_reflection_is_exact_on_offcenter_disks(m):
    # every chord of the disk about p along e has its midpoint at p.e, so
    # rho = |p| max_i cos(alpha_i - phi) over the sampled directions
    alpha = spectral.angle_grid(m)
    for dist, phi in BENCHMARK_DISKS:
        d = build_star_domain(_offcenter_disk_samples(dist, phi, m), m)
        exact = dist * np.cos(alpha - phi).max()
        assert abs(rho_reflection_min(d).rho / exact - 1.0) <= 2e-13


def _random_offcenter_shapes(count, seed):
    # smooth shapes of the SMOOTH_SHAPES family (`smooth_shape`) about star
    # centers up to a tenth of the base radius off the origin
    rng = np.random.default_rng(seed)
    shapes = []
    for _ in range(count):
        base = rng.uniform(0.5, 2.0)
        ks = rng.choice(np.arange(2, 9), size=rng.integers(1, 4), replace=False)
        modes = [(int(k), float(rng.uniform(-0.08, 0.08))) for k in ks]
        shapes.append((smooth_shape(modes, base), tuple(base * rng.uniform(-0.1, 0.1, 2))))
    return shapes


@pytest.mark.parametrize("spec, m, center", [
    ("ellipse(1.2,0.8)", 64, (0.0, 0.0)),
    ("fourier(1;5:0.2)", 64, (0.0, 0.0)),
    ("fourier(1;2:0.1,7:0.05)", 64, (0.05, -0.03)),
] + [(spec, 32, center) for spec, center in _random_offcenter_shapes(4, 32)],
    ids=["ellipse", "fourier5", "fourier27-off"] + [f"random-{i}" for i in range(4)])
def test_rho_reflection_matches_brute_force_first_exits(spec, m, center):
    # convex shapes take their maximum from near-tangent rays, whose exit
    # can fall within a cloud step of the node; fourier(1;5:0.2) is not convex
    d = build_star_domain(spec, m, center)
    assert abs(rho_reflection_min(d).rho - first_exit_reflection_radius(d)) <= 1e-12


def test_rho_reflection_above_least_radius_raises():
    # about (0.05, -0.03) the first exits of fourier(1;5:0.2) give rho 0.7689,
    # above its least radius 0.7506
    with pytest.raises(ConvergenceError):
        rho_reflection_min(build_star_domain("fourier(1;5:0.2)", 64, (0.05, -0.03)))


@pytest.mark.parametrize("spec", ["fourier(1;2:0.1)", _offcenter_disk_samples(0.12, 2.1, 64)],
                         ids=["fourier2", "offcenter-disk"])
def test_rho_reflection_is_scale_covariant(spec):
    # the chord-error bound that selects the exits to refine scales with
    # the radius modes, and no other length enters
    d = build_star_domain(spec, 64)
    rho = rho_reflection_min(d).rho
    for t in (1e-6, 1e-3, 1e2, 1e6):
        assert abs(rho_reflection_min(d.scaled(t)).rho / t - rho) <= 1e-13 * rho


def test_exit_seeds_match_the_complex_key_search(monkeypatch, reflection_reports):
    # every block's bound and seed columns, in the same order, as the one
    # complex-key `searchsorted` over all directions finds them
    blocks = []

    def both(*args):
        got, ref = fast(*args), complex_key_exit_seeds(*args)
        assert got[0] == ref[0]
        for cols, ref_cols in zip(got[1], ref[1]):
            for col, ref_col in zip(cols, ref_cols):
                assert np.array_equal(col, ref_col, equal_nan=True)
        blocks.append(got[1][0][0].size)
        return got

    fast = geometry._exit_seeds
    monkeypatch.setattr(geometry, "_exit_seeds", both)
    domains = [d for d, _ in reflection_reports if d.m < 512]
    domains += [build_star_domain(spec, 32, center)
                for spec, center in _random_offcenter_shapes(8, 33)]
    for d in domains:
        rho_reflection_min(d)
    assert len(blocks) > len(domains) and sum(blocks) > 0      # M = 128 takes two blocks


def test_rho_reflection_origin_check_is_scale_covariant():
    # the circle of radius t about (t (1 + 1e-6), 0) leaves the origin 1e-6
    # radii outside at every scale t, and is refused as such
    radii = build_star_domain("circle(1)", 64).radii
    for t in 10.0 ** np.arange(-6, 7):
        with pytest.raises(ShapeError, match="origin inside"):
            rho_reflection_min(StarDomain((t * (1.0 + 1e-6), 0.0), t * radii))


@pytest.fixture(scope="module")
def reflection_reports():
    # the pinned shapes and the benchmark disks at M = 512, with their
    # reports at the default block budget
    domains = [build_star_domain(spec, m) for spec, m in (
        ("fourier(1;2:0.1)", 128), ("fourier(1;3:0.1,5:0.03)", 128),
        ("ellipse(1.2,0.8)", 128))]
    domains += [build_star_domain(_offcenter_disk_samples(dist, phi, m), m)
                for m in (64, 512) for dist, phi in BENCHMARK_DISKS]
    return [(d, rho_reflection_min(d)) for d in domains]


@pytest.mark.parametrize("entries", [8 * 512, 5 * 8 * 512 + 123],
                         ids=["one-direction", "ragged"])
def test_rho_reflection_is_block_invariant(monkeypatch, reflection_reports, entries):
    # the lower bound each block of directions passes to the next prunes
    # crossings, but never the ones that decide rho.  At M = 512 a budget
    # of 8M entries holds one direction a block; the other holds 5, 20 and
    # 40 directions at M = 512, 128 and 64, and leaves a ragged last block
    monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", entries)
    for d, rep in reflection_reports:
        assert rho_reflection_min(d) == rep


# -- snapshot I/O -------------------------------------------------------------

def test_domain_csv_roundtrip_is_bit_exact(tmp_path):
    d = build_star_domain("fourier(1;3:0.1,5:0.03)", 64)
    path = tmp_path / "shape.csv"
    save_domain_csv(d, path)
    back = load_domain_csv(path)
    assert back.m == d.m
    assert np.array_equal(back.radii, d.radii)
    assert np.allclose(back.center, 0.0)


def test_domain_csv_lines_end_in_newline_only(tmp_path):
    # like timeseries.csv and the sweep CSV: no carriage returns
    d = build_star_domain("fourier(1;2:0.1)", 32)
    path = tmp_path / "snapshot_0000.csv"
    save_domain_csv(d, path)
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.count(b"\n") == d.m + 1


def test_domain_csv_loader_validates(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,1\n")
    with pytest.raises(ShapeError):
        load_domain_csv(bad)
    skew = tmp_path / "skew.csv"
    rows = ["theta,r"] + [f"{0.1 * i},1.0" for i in range(32)]
    skew.write_text("\n".join(rows) + "\n")
    with pytest.raises(ShapeError):
        load_domain_csv(skew)


@pytest.mark.parametrize("row", ["0.5,abc", "0.5", "0.5,1.0,2.0"])
def test_domain_csv_loader_names_a_bad_row(tmp_path, row):
    d = build_star_domain("circle(1)", 16)
    path = tmp_path / "shape.csv"
    save_domain_csv(d, path)
    lines = path.read_text().splitlines()
    lines[3] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ShapeError, match=r"shape\.csv: row 4 is not two numbers"):
        load_domain_csv(path)
