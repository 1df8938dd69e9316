import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipe

from dropflow import (Circle, Ellipse, FourierShape, Samples, ShapeError,
                      StarDomain, asymmetry_to_ball, boundary_geometry,
                      build_star_domain, interior_quadrature,
                      lemma_distance_check, load_domain_csv, parse_shape,
                      ray_radii, rho0_estimate, rho_reflection_min,
                      save_domain_csv, spectral)
from dropflow.geometry import _ball_overlap

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
    assert abs(e.radius_at(0.0) - 1.2) < 1e-12
    assert abs(e.radius_at(np.pi / 2) - 0.8) < 1e-12

    f = build_star_domain("fourier(1;3:0.1)", 128)
    assert abs(f.radius_at(0.0) - 1.1) < 1e-12
    assert abs(f.radius_at(np.pi / 3) - 0.9) < 1e-12


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
        geo = boundary_geometry(d)
        assert np.allclose(geo.curvature, 1.0 / radius, atol=1e-13)
        assert abs(geo.arc_weights.sum() - 2 * np.pi * radius) < 1e-12
        norms = np.linalg.norm(geo.normal, axis=1)
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
    assert abs(d.in_radius - 1.0) < 1e-12
    assert abs(d.out_radius - 1.0) < 1e-12
    assert abs(d.diameter - 2.0) < 1e-10

    f = build_star_domain("fourier(1;3:0.1)", 128)
    assert abs(f.area - np.pi * (1 + 0.1**2 / 2)) < 1e-12

    e = build_star_domain("ellipse(1.2,0.8)", 128)
    assert abs(e.area - 0.96 * np.pi) < 1e-10
    assert abs(e.diameter - 2.4) < 1e-10
    assert abs(e.in_radius - 0.8) < 1e-10
    assert abs(e.out_radius - 1.2) < 1e-10


def test_barycenter_tracks_translation():
    d = build_star_domain("fourier(1;3:0.1)", 128).translated((0.7, -0.4))
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
    assert smooth.spectral_tail < 1e-12
    rough = build_star_domain(
        Samples(tuple(1.0 + 0.01 * rng.standard_normal(64))), 64)
    assert rough.spectral_tail > 1e-3  # reported, not fatal


# -- membership and rays ------------------------------------------------------

def test_contains_and_boundary_distance():
    d = build_star_domain("circle(1)", 64)
    inside = np.array([[0.0, 0.0], [0.5, 0.5]])
    outside = np.array([[1.5, 0.0], [0.0, -1.01]])
    assert d.contains(inside).all()
    assert not d.contains(outside).any()
    assert abs(d.boundary_distance(np.zeros((1, 2)))[0] - 1.0) < 1e-6


def test_boundary_distance_is_the_cloud_minimum(rng):
    d = build_star_domain("fourier(1;3:0.1,5:0.03)", 64, center=(0.2, -0.1))
    pts = rng.uniform(-1.4, 1.4, size=(500, 2))
    dense = d.dense_boundary(8)
    brute = np.abs((pts[:, 0] + 1j * pts[:, 1])[:, None] - dense[None, :]).min(axis=1)
    assert np.abs(d.boundary_distance(pts) - brute).max() < 1e-15


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
    assert np.abs(d._radius_toward(u) - d.radius_at(psi)).max() <= 1e-14
    # points at random and within 1e-9..1e-15 of the boundary, both sides
    near = rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-15, -9, 200)
    scale = np.concatenate([rng.uniform(0.0, 1.5, 200), 1.0 + near])
    rel = scale * d.radius_at(psi) * u
    pts = np.column_stack([center[0] + rel.real, center[1] + rel.imag])
    pts = np.vstack([pts, [center]])
    rel = (pts[:, 0] - center[0]) + 1j * (pts[:, 1] - center[1])
    for tol in (1e-10, 0.0):
        margin = np.abs(rel) - (d.radius_at(np.angle(rel)) + tol)
        got = d.contains(pts, tol=tol)
        far = np.abs(margin) > 1e-12
        assert np.array_equal(got[far], margin[far] <= 0.0)
        assert got[-1]


def test_ray_radii_from_center_matches_radius():
    d = build_star_domain("ellipse(1.2,0.8)", 128)
    psi = np.linspace(0, 2 * np.pi, 17, endpoint=False)
    rr = ray_radii(d, np.zeros(2), psi)
    assert np.allclose(rr, d.radius_at(psi), atol=1e-10)


def test_ray_radii_off_center_disk_closed_form():
    # unit disk seen from p = (c, 0): ray length = sqrt(1 - c^2 sin^2 psi) - c cos(pi - psi)
    d = build_star_domain("circle(1)", 128)
    c = 0.3
    psi = np.linspace(0, 2 * np.pi, 13, endpoint=False)
    rr = ray_radii(d, np.array([c, 0.0]), psi)
    exact = -c * np.cos(psi) + np.sqrt(1 - (c * np.sin(psi)) ** 2)
    assert np.allclose(rr, exact, atol=1e-10)


# -- interior quadrature ------------------------------------------------------

def test_interior_quadrature_weights_and_moment():
    d = build_star_domain("circle(1)", 64)
    q = interior_quadrature(d, 16)
    assert abs(q.weights.sum() - np.pi) < 1e-12
    x2 = (q.nodes**2).sum(axis=1)
    assert abs((q.weights * x2).sum() - np.pi / 2) < 1e-12
    assert d.contains(q.nodes).all()
    assert q.offset > 0

    e = build_star_domain("ellipse(1.2,0.8)", 128)
    qe = interior_quadrature(e, 24)
    assert abs(qe.weights.sum() - 0.96 * np.pi) < 1e-10


# -- ball-distance functionals ------------------------------------------------

def test_asymmetry_translated_disk_is_zero():
    d = build_star_domain("circle(1)", 128).translated((0.3, -0.2))
    val, center = asymmetry_to_ball(d, 1.0, return_center=True)
    assert val < 1e-8
    assert np.allclose(center, [0.3, -0.2], atol=1e-6)


def test_asymmetry_concentric_disks():
    d = build_star_domain("circle(1.1)", 128)
    assert abs(asymmetry_to_ball(d, 1.0) - 0.21) < 1e-6


def test_asymmetry_fourier_matches_quadrature_oracle():
    # |Omega delta B(0)| via adaptive quadrature of |r^2 - r*^2| for the
    # area-normalized mode-2 shape (fixture-independent frozen value).
    oracle = 0.12673006190459143
    d = build_star_domain("fourier(1;2:0.1)", 128)
    d = d.scaled(R_STAR / math.sqrt(d.area / math.pi))
    assert abs(asymmetry_to_ball(d, R_STAR) - oracle) < 1e-5


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
    assert abs(_ball_overlap(d, np.array([c, 0.0]), r) - _lens_area(c, r)) < 1e-5


@pytest.mark.parametrize("c, r", [(1.2, 0.5), (1.5, 1.0), (2.0, 1.5), (0.6, 0.7)])
def test_ball_overlap_is_exact_lens_area(c, r):
    # the crossing-point formula has no quadrature error
    d = build_star_domain("circle(1)", 128)
    assert abs(_ball_overlap(d, np.array([c, 0.0]), r) - _lens_area(c, r)) < 1e-13


@pytest.mark.parametrize("c, r", [(1.5 - 1e-5, 0.5), (0.5 + 1e-5, 0.5),
                                  (2.0 - 1e-6, 1.0)])
@pytest.mark.parametrize("node", [57.5, 0.5, 511.5])
def test_ball_overlap_finds_crossings_between_nodes(c, r, node):
    # near-tangent circles whose two crossings fall between two nodes of
    # the 4M cloud (M = 128), also across theta = 0; the lens is 1e-9-1e-8
    d = build_star_domain("circle(1)", 128)
    ang = 2.0 * np.pi * node / 512
    p = np.array([c * math.cos(ang), c * math.sin(ang)])
    assert abs(_ball_overlap(d, p, r) - _lens_area(c, r)) < 1e-13


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
            assert abs(_ball_overlap(d, p, r) - _lens_area(c, r)) < 1e-13


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
        assert abs(_ball_overlap(d, p, r) - fine) < 1e-8


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_asymmetry_matches_first_order_closed_form(k):
    # normalized r*(1 + eps cos k theta): |Omega delta B|/|B| = 4 eps/pi + O(eps^3)
    eps = 1e-6
    d = build_star_domain(f"fourier(1;{k}:{eps})", 128)
    d_norm = d.scaled(R_STAR / math.sqrt(d.area / math.pi))
    assert abs(asymmetry_to_ball(d_norm, R_STAR) / (4.0 * eps / math.pi) - 1.0) < 1e-8


def test_best_center_follows_translation():
    d = build_star_domain("fourier(1;3:0.1,5:0.03)", 128)
    val, center = asymmetry_to_ball(d, 1.0, return_center=True)
    shift = np.array([0.31, -0.17])
    start = center + shift + np.array([0.05, 0.0])
    moved, center_t = asymmetry_to_ball(d.translated(shift), 1.0, center0=start,
                                        return_center=True)
    assert np.abs(center_t - center - shift).max() < 1e-9
    assert abs(moved - val) < 1e-12


@pytest.mark.parametrize("spec", ["fourier(1;2:0.01)", "fourier(1;3:0.1,5:0.03)"])
def test_asymmetry_from_a_start_outside_the_newton_basin(spec):
    # 0.3 off, where the overlap is not concave: steepest descent leads in
    d = build_star_domain(spec, 64)
    d = d.scaled(R_STAR / math.sqrt(d.area / math.pi))
    ref = asymmetry_to_ball(d, R_STAR)
    for ang in (0.0, 2.0, 4.0):
        start = d.barycenter + 0.3 * np.array([math.cos(ang), math.sin(ang)])
        assert abs(asymmetry_to_ball(d, R_STAR, center0=start) / ref - 1.0) < 1e-12


@pytest.mark.parametrize("spec", ["fourier(1;2:0.1)", "fourier(1;3:0.1,5:0.03)",
                                  "fourier(1;2:0.05,3:0.02)"])
def test_asymmetry_does_not_depend_on_the_start(spec):
    # a start moved by 1e-12 ends at the same optimum (Nelder-Mead moved in
    # the 3rd-4th digit under a 3e-17 change near stationarity)
    d = build_star_domain(spec, 64)
    d = d.scaled(R_STAR / math.sqrt(d.area / math.pi))
    ref = asymmetry_to_ball(d, R_STAR)
    for off in ([1e-12, 0.0], [0.0, -1e-12], [7e-13, 7e-13]):
        val = asymmetry_to_ball(d, R_STAR, center0=d.barycenter + np.array(off))
        assert abs(val / ref - 1.0) < 1e-10


def test_asymmetry_counts_overlap_evaluations():
    stats = {}
    # no crossings: gradient and Hessian vanish, the search stops at the start
    assert abs(asymmetry_to_ball(build_star_domain("circle(1.1)", 64), 1.0,
                                 stats=stats) - 0.21) < 1e-12
    assert stats == {"ball_evals": 1}
    d = build_star_domain("fourier(1;3:0.1,5:0.03)", 64)
    asymmetry_to_ball(d, 1.0, center0=d.barycenter + 0.05, stats=stats)
    assert stats["ball_evals"] > 2


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
    d = build_star_domain("circle(1)", 64).translated((0.2, 0.0))
    rep = rho_reflection_min(d)
    assert abs(rep.rho - 0.2) < 0.01
    assert abs(rep.oscillation - 0.4) < 1e-10
    assert rep.oscillation <= 4 * rep.rho + 4e-4
    assert abs(rep.star_radius - math.sqrt(0.8**2 - rep.rho**2)) < 1e-3


def test_rho_reflection_centered_disk_is_zero():
    d = build_star_domain("circle(1)", 64)
    rep = rho_reflection_min(d)
    assert rep.rho < 2e-4
    assert rep.oscillation < 1e-12


def _offcenter_disk_samples(dist, alpha, m):
    # radii about the origin of the unit disk centred at dist * e^{i alpha}
    psi = 2.0 * np.pi * np.arange(m) / m - alpha
    return Samples(tuple(dist * np.cos(psi) + np.sqrt(1.0 - (dist * np.sin(psi)) ** 2)))


@pytest.mark.parametrize("spec, m, rho", [
    ("fourier(1;2:0.1)", 128, 0.19594116210937496),
    ("fourier(1;3:0.1,5:0.03)", 128, 0.38540405273437495),
    ("ellipse(1.2,0.8)", 128, 0.39999999999999997),
    (_offcenter_disk_samples(0.24, 4.2, 64), 64, 0.2400051469772701),
], ids=["fourier2", "fourier35", "ellipse", "offcenter-disk"])
def test_rho_reflection_pinned_values(spec, m, rho):
    assert rho_reflection_min(build_star_domain(spec, m)).rho == rho


def test_rho0_estimate_disk():
    assert abs(rho0_estimate(build_star_domain("circle(1)", 64)) - 1.0) < 1e-10


def test_rho0_estimate_ellipse_curvature_radius():
    # 1/max curvature of the ellipse is b^2/a, below its in-radius b
    d = build_star_domain("ellipse(1.2,0.8)", 128)
    assert abs(rho0_estimate(d) - 0.8**2 / 1.2) < 1e-12


# -- snapshot I/O -------------------------------------------------------------

def test_domain_csv_roundtrip_is_bit_exact(tmp_path):
    d = build_star_domain("fourier(1;3:0.1,5:0.03)", 64)
    path = tmp_path / "shape.csv"
    save_domain_csv(d, path)
    back = load_domain_csv(path)
    assert back.m == d.m
    assert np.array_equal(back.radii, d.radii)
    assert np.allclose(back.center, 0.0)


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
