import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (SMOOTH_SHAPES, eval_at_angles, saint_venant_domain,
                      saint_venant_fields, scipy_lu_solve, smooth_shape)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dropflow import (EvaluationError, FourierShape, SolverError, StarDomain,
                      build_star_domain, interior_quadrature, solve_torsion,
                      spectral, torsion)
from dropflow.geometry import _horner

LAMBDA_DISK = 8.0 / math.pi
LAMBDA_ELLIPSE = 4.0 * (1.2**2 + 0.8**2) / (math.pi * 1.2**3 * 0.8**3)


def disk_closed_form(lam, pts):
    """u, Du, D^2u for u = lam (1 - |x|^2) / 4 on the unit disk."""
    r2 = (pts**2).sum(axis=1)
    u = lam * (1.0 - r2) / 4.0
    grad = -lam / 2.0 * pts
    hess = np.broadcast_to(-lam / 2.0 * np.eye(2), (len(pts), 2, 2))
    return u, grad, hess


def test_lambda_disk_matches_closed_form(disk_sol):
    assert abs(disk_sol.lambda_ - LAMBDA_DISK) < 1e-8 * LAMBDA_DISK


def test_lambda_ellipse_matches_closed_form(ellipse_sol):
    assert abs(ellipse_sol.lambda_ - LAMBDA_ELLIPSE) < 1e-6


def test_lambda_scales_with_volume():
    d = build_star_domain("circle(1)", 64)
    s1 = solve_torsion(d, 1.0)
    s2 = solve_torsion(d, 2.5)
    assert abs(s2.lambda_ - 2.5 * s1.lambda_) < 1e-12 * s2.lambda_


# random smooth shapes (`SMOOTH_SHAPES`) at M = 64; the examples at M = 256
# take the GMRES path
_GMRES_SHAPES = ({"modes": [(3, 0.08), (7, -0.05)], "base": 1.3, "m": 256},
                 {"modes": [(2, -0.06), (5, 0.04), (8, 0.02)], "base": 0.6, "m": 256})


def _smooth_lambda(modes, base, m, center=(0.0, 0.0), roll=0, scale=1.0):
    d = build_star_domain(smooth_shape(modes, base), m, center=center)
    return solve_torsion(StarDomain(d.center, scale * np.roll(d.radii, roll)), 1.0).lambda_


@settings(max_examples=40, deadline=None)
@given(**SMOOTH_SHAPES, center=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
@example(**_GMRES_SHAPES[0], center=(1.5, -0.7))
@example(**_GMRES_SHAPES[1], center=(-0.3, 1.9))
def test_lambda_is_invariant_under_translation(modes, base, m, center):
    lam = _smooth_lambda(modes, base, m)
    assert abs(_smooth_lambda(modes, base, m, center=center) - lam) <= 1e-13 * lam


@settings(max_examples=40, deadline=None)
@given(**SMOOTH_SHAPES, steps=st.integers(1, 63))
@example(**_GMRES_SHAPES[0], steps=37)
@example(**_GMRES_SHAPES[1], steps=200)
def test_lambda_is_invariant_under_grid_rotation(modes, base, m, steps):
    # rotation through a whole number of grid steps permutes the samples;
    # other angles change the discretization (5e-10 at M = 64)
    lam = _smooth_lambda(modes, base, m)
    assert abs(_smooth_lambda(modes, base, m, roll=steps) - lam) <= 1e-13 * lam


@settings(max_examples=40, deadline=None)
@given(**SMOOTH_SHAPES, t=st.floats(0.5, 2.0))
@example(**_GMRES_SHAPES[0], t=1.7)
@example(**_GMRES_SHAPES[1], t=0.55)
def test_lambda_scales_as_the_inverse_fourth_power(modes, base, m, t):
    # at fixed vol, u scales as t^2 on t Omega, so int u = vol needs t^-4 lambda
    lam = _smooth_lambda(modes, base, m)
    assert abs(_smooth_lambda(modes, base, m, scale=t) * t**4 - lam) <= 1e-13 * lam


def test_lambda_converges_in_m():
    lam = []
    for m in (32, 64):
        sol = solve_torsion(build_star_domain("fourier(1;3:0.1,5:0.03)", m), 1.0)
        lam.append(sol.lambda_)
    ref = solve_torsion(build_star_domain("fourier(1;3:0.1,5:0.03)", 128), 1.0).lambda_
    assert abs(lam[1] - ref) < abs(lam[0] - ref)
    assert abs(lam[1] - ref) < 1e-9 * ref


def test_boundary_gradient_disk(disk_sol):
    # |Du| = lam R / 2 on the boundary of the unit disk
    expect = LAMBDA_DISK / 2.0
    assert np.allclose(disk_sol.boundary_grad, expect, atol=1e-10)


def test_boundary_gradient_on_equilibrium_ball():
    r_star = (4.0 / math.pi) ** (1.0 / 3.0)
    sol = solve_torsion(build_star_domain(f"circle({r_star!r})", 128), 1.0)
    assert np.allclose(sol.boundary_grad, 1.0, atol=1e-12)


def test_normal_derivative_sign(fourier35_sol):
    # u decreases outward, so du/dn = -|Du| on the boundary: the interior
    # gradient 1e-6 of the radius inside each node agrees to O(1e-6)
    sol = fourier35_sol
    d = sol.domain
    _, grad, _ = sol.eval_interior(d.center + (1.0 - 1e-6) * (d.nodes - d.center))
    assert np.allclose((grad * d.normal).sum(axis=1), -sol.boundary_grad, atol=1e-5)


def test_interior_evaluation_disk(disk_sol, rng):
    rho = np.sqrt(rng.uniform(0.0, 0.9, 40))
    ang = rng.uniform(0, 2 * np.pi, 40)
    pts = np.column_stack([rho * np.cos(ang), rho * np.sin(ang)])
    u, grad, hess = disk_sol.eval_interior(pts)
    u0, g0, h0 = disk_closed_form(disk_sol.lambda_, pts)
    assert np.allclose(u, u0, atol=1e-12)
    assert np.allclose(grad, g0, atol=1e-11)
    assert np.allclose(hess, h0, atol=1e-10)


def test_interior_evaluation_near_boundary(disk_sol):
    # within a twentieth of the node spacing off the wall
    h = 2 * np.pi / 128
    pts = np.array([[1.0 - 0.05 * h, 0.0], [0.0, -(1.0 - 0.05 * h)]])
    u, grad, hess = disk_sol.eval_interior(pts)
    u0, g0, h0 = disk_closed_form(disk_sol.lambda_, pts)
    assert np.allclose(u, u0, atol=1e-10)
    assert np.allclose(grad, g0, atol=1e-9)
    assert np.allclose(hess, h0, atol=1e-7)


def ellipse_closed_form(lam, pts, a=1.2, b=0.8):
    """u, Du, D^2u for the quadratic u = c (1 - x^2/a^2 - y^2/b^2)."""
    c = lam * a**2 * b**2 / (2.0 * (a**2 + b**2))
    u = c * (1.0 - pts[:, 0] ** 2 / a**2 - pts[:, 1] ** 2 / b**2)
    grad = np.column_stack([-2.0 * c * pts[:, 0] / a**2, -2.0 * c * pts[:, 1] / b**2])
    hess = np.broadcast_to(np.diag([-2.0 * c / a**2, -2.0 * c / b**2]), (len(pts), 2, 2))
    return u, grad, hess


# the ids of the first two cases predate the a and b parameters
@pytest.mark.parametrize("a, b, m, tol_u, tol_grad, tol_hess", [
    pytest.param(1.2, 0.8, 64, 3e-11, 1e-9, 5e-8, id="64-3e-11-1e-09-5e-08"),
    pytest.param(1.2, 0.8, 128, 2e-14, 6e-13, 6e-11, id="128-2e-14-6e-13-6e-11"),
    (2.0, 0.5, 1024, 3e-13, 5e-11, 3e-8)])
def test_interior_evaluation_ellipse_at_quadrature_nodes(a, b, m, tol_u, tol_grad, tol_hess):
    # every node of the 24-point radial rule, the outermost Gauss ring
    # (about a fifth of a node spacing off the wall) included
    sol = solve_torsion(build_star_domain(f"ellipse({a},{b})", m), 1.0)
    quad, u, grad, hess = sol.quadrature_data(24)
    u0, g0, h0 = ellipse_closed_form(sol.lambda_, quad.nodes, a, b)
    assert np.abs(u - u0).max() < tol_u
    assert np.abs(grad - g0).max() < tol_grad
    assert np.abs(hess - h0).max() < tol_hess


@pytest.mark.parametrize("m, pinned", [
    # max |error| of u, Du, D^2u (over lambda) at the 24-ring rule's nodes,
    # then at depth fractions 1 - 10^-k, k = 1...6; measured 2.85e-9,
    # 6.60e-7, 1.90e-5 and 2.44e-8, 7.20e-7, 2.33e-5 at M = 64 (the curve is
    # under-resolved there), 1.54e-15, 3.68e-13, 2.73e-11 and 8.94e-15,
    # 4.64e-13, 3.29e-11 at M = 128
    (64, ((1e-8, 3e-6, 1e-4), (1e-7, 3e-6, 1e-4))),
    (128, ((1e-14, 2e-12, 1e-10), (5e-14, 2e-12, 1e-10))),
])
def test_interior_evaluation_matches_saint_venant_torsion(m, pinned):
    # u0 = 1/4 - |x|^2/4 + Re(0.05 z^3) is the torsion function of {u0 > 0},
    # a rounded triangle: u = lambda u0 inside, at the quadrature nodes and
    # up to 1e-6 of the radius from the curve
    d = saint_venant_domain(m)
    sol = solve_torsion(d, 1.0)
    quad, *fields = sol.quadrature_data(24)
    ang = np.random.default_rng(m).uniform(0.0, 2.0 * np.pi, m)
    s = 1.0 - 10.0 ** -np.arange(1.0, 7.0)
    rho = np.outer(s, eval_at_angles(d.radii, ang)).ravel()
    ang = np.tile(ang, s.size)
    near = np.column_stack([rho * np.cos(ang), rho * np.sin(ang)])
    for pts, got, bounds in ((quad.nodes, fields, pinned[0]),
                             (near, sol.eval_interior(near), pinned[1])):
        for x, exact, bound in zip(got, saint_venant_fields(pts), bounds):
            assert np.abs(x / sol.lambda_ - exact).max() < bound


def test_interior_evaluation_converges_to_fine_solve(fourier35_sol):
    # the M = 512 solve carries about 2e-10 of round-off in its Hessians
    ref = solve_torsion(build_star_domain("fourier(1;3:0.1,5:0.03)", 512), 1.0)
    quad, u, grad, hess = fourier35_sol.quadrature_data(24)
    u_ref, g_ref, h_ref = ref.eval_interior(quad.nodes)
    assert np.abs(u - u_ref).max() < 3e-14
    assert np.abs(grad - g_ref).max() < 5e-12
    assert np.abs(hess - h_ref).max() < 1e-9


@settings(max_examples=25, deadline=None)
@given(modes=st.lists(st.tuples(st.integers(2, 8), st.floats(-0.08, 0.08)),
                      max_size=3, unique_by=lambda km: km[0]),
       base=st.floats(0.5, 2.0),
       center=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       s=st.floats(0.0, 0.5), angle=st.floats(0.0, 2.0 * np.pi))
def test_cauchy_weights_sum_to_two_pi_i_inside(modes, base, center, s, angle):
    # sum_j w_j / (z_j - z) with w_j = z'_j 2pi/M is the trapezoid rule for
    # oint dzeta / (zeta - z) = 2 pi i, the barycentric denominator
    shape = FourierShape(base, tuple((k, base * eps) for k, eps in modes))
    d = build_star_domain(shape, 128, center=center)
    z = d.zc + s * eval_at_angles(d.radii, angle)[0] * np.exp(1j * angle)
    w = d.arc_weights * d.tangent_c
    assert abs(np.sum(w / (d.z - z)) - 2j * np.pi) < 1e-12


def _one_shot_parts(sol, zt, s):
    """h, Phi' and Phi'' at targets zt of depth fractions s from whole
    (unblocked) barycentric sums, each over the grid of `_cauchy_sources`
    that its depth picks; every row is summed twice, so even a single
    target's product is a matrix product, as in `_harmonic_parts`."""
    bounds, grids = sol._cauchy_sources()
    grid = (s[:, None] > bounds).sum(axis=1)
    f = np.empty((zt.size, 3), dtype=complex)
    for g, (zs, cols) in enumerate(grids):
        zg = np.repeat(zt[grid == g], 2)
        sums = ((1.0 / (zs[None, :] - zg[:, None])) @ cols)[::2]
        f[grid == g] = sums[:, :3] / sums[:, 3:]
    return -f[:, 0].real, -f[:, 1], -f[:, 2]


def test_interior_evaluation_is_independent_of_the_blocking(fourier35_sol, rng):
    # targets at every depth, in batches at and around the block sizes of
    # the three grids, give exactly the one-shot barycentric sums over the
    # grid that each one's depth picks, alone or in a batch
    sol, d = fourier35_sol, fourier35_sol.domain
    bounds, grids = sol._cauchy_sources()
    assert [zs.size for zs, _ in grids] == [d.m, 2 * d.m, 4 * d.m]
    assert 0.0 < bounds[0] < bounds[1] < 1.0
    blocks = [torsion._BLOCK_ENTRIES // zs.size for zs, _ in grids]
    assert min(blocks) > 2
    for n in sorted({0, 1, 2, 3 * blocks[0] + 7, *(b + i for b in blocks for i in (-1, 0, 1))}):
        ang = rng.uniform(0.0, 2.0 * np.pi, n)
        s = rng.uniform(0.0, 0.999, n)
        rho = s * eval_at_angles(d.radii, ang)
        pts = d.center + np.column_stack([rho * np.cos(ang), rho * np.sin(ang)])
        u, grad, hess = sol.eval_interior(pts)
        zt = pts[:, 0] + 1j * pts[:, 1]
        rel, lam = zt - d.zc, sol.lambda_
        rho, r = d._ray(pts)
        h, p1, p2 = _one_shot_parts(sol, zt, rho / r)
        assert np.array_equal(u, lam * (-np.abs(rel) ** 2 / 4.0 + h))
        assert np.array_equal(grad, lam * np.column_stack(
            [-rel.real / 2.0 + p1.real, -rel.imag / 2.0 - p1.imag]))
        assert np.array_equal(hess[:, 0, 0], lam * (-0.5 + p2.real))
        assert np.array_equal(hess[:, 0, 1], lam * (-p2.imag))
        assert np.array_equal(hess[:, 1, 0], lam * (-p2.imag))
        assert np.array_equal(hess[:, 1, 1], lam * (-0.5 - p2.real))
        for i in range(min(n, 5)):
            one = sol.eval_interior(pts[i:i + 1])
            assert np.array_equal(one[0], u[i:i + 1])
            assert np.array_equal(one[1], grad[i:i + 1])
            assert np.array_equal(one[2], hess[i:i + 1])


@pytest.mark.parametrize("fixture", ["disk_sol", "ellipse_sol", "fourier2_sol",
                                     "fourier35_sol"])
def test_boundary_values_match_the_full_cauchy_matrix(fixture, request):
    # the Phi_- column, interpolated from the M-grid sum of the solve, equals
    # mu + (C mu - mu rowsum(C) + mu' 2pi/M) / 2pi i summed on the 4M grid
    # with the whole (4M)^2 matrix C_ij = w_j / (z_j - z_i), 0 on the diagonal;
    # the M and 2M grids are every fourth and every second point of it, with
    # its weights
    sol = request.getfixturevalue(fixture)
    d = sol.domain
    mq = 4 * d.m
    zq = d.dense_boundary(4)
    r, rp = spectral.jet(d.modes, mq, 1)
    w = (rp + 1j * r) * spectral.unit_circle(mq) * (2.0 * np.pi / mq)
    mu, dmu = spectral.jet(np.fft.rfft(sol.density), mq, 1)
    diff = zq[None, :] - zq[:, None]
    np.fill_diagonal(diff, np.inf)
    c = w[None, :] / diff
    s = (c @ mu.astype(complex) - mu * c.sum(axis=1)
         + dmu * (2.0 * np.pi / mq))
    ref = mu + s / (2j * np.pi)
    _, grids = sol._cauchy_sources()
    zs, cols = grids[-1]
    assert np.array_equal(zs, zq)
    assert np.abs(cols[:, 0] / w - ref).max() < 1e-13 * np.abs(ref).max()
    for step, (zs, sub) in zip((4, 2), grids):
        assert np.array_equal(zs, zq[::step])
        assert np.array_equal(sub, cols[::step])


def test_interior_sources_make_no_cauchy_sum(monkeypatch):
    # the boundary values are summed once, in the solve (which assembles its
    # system through the same blocks); only the interior targets go through
    # the blocked Cauchy sums afterwards, one call per source grid that
    # their depths pick, and a lone target takes a twin
    calls = []
    blocks = torsion._difference_blocks

    def spy(zs, zt):
        calls.append((zs.size, zt.size))
        return blocks(zs, zt)

    sol = solve_torsion(build_star_domain("fourier(1;3:0.1,5:0.03)", 128), 1.0)
    monkeypatch.setattr(torsion, "_difference_blocks", spy)
    bounds, _ = sol._cauchy_sources()
    assert calls == []
    # depth fractions 0, 0.5, (s_M + s_2M)/2 and 0.99
    s = np.array([0.0, 0.0, 0.5, bounds.mean(), 0.99])
    assert bounds[0] < s[3] < bounds[1] < s[4]
    pts = np.column_stack([s * sol.domain.radii[0], np.zeros(5)])
    sol.eval_interior(pts)
    assert calls == [(128, 3), (256, 2), (512, 2)]


def test_quadrature_data_memory_is_bounded():
    # the interior sources were once formed from the whole (4M)^2 Cauchy
    # matrix: a 129 MB peak at M = 512, about 2 GB at M = 2048
    sol = solve_torsion(build_star_domain("fourier(1;3:0.1,5:0.03)", 512), 1.0)
    tracemalloc.start()
    try:
        sol.quadrature_data(24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def _in_fresh_thread(fn):
    """fn() run in a new thread, whose solve workspace starts empty."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and len(out) == 1
    return out[0]


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_bit_identical(got, want):
    for name in ("lambda_", "density", "boundary_grad", "condition_estimate"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_solve_memory_is_the_cauchy_matrix_and_the_system():
    # at M = 512 the real system and Re C hold 4.2 MB, one Cauchy block
    # 1 MB; the 1-norm of the system once formed |a| as well, an 8.4 MB peak.
    # A fresh thread allocates the workspace, so its solve's peak holds it
    d = build_star_domain("fourier(1;3:0.1,5:0.03)", 512)
    solve_torsion(d, 1.0)
    peak = _in_fresh_thread(lambda: _traced_peak(lambda: solve_torsion(d, 1.0)))
    assert peak < 7 * 2**20


def test_interior_evaluation_rejects_outside(disk_sol):
    with pytest.raises(EvaluationError) as exc:
        disk_sol.eval_interior(np.array([[1.5, 0.0], [0.0, 0.0]]))
    assert exc.value.bad_indices == [0]


def test_interior_evaluation_rejects_non_finite_points(disk_sol):
    # outside for contains, with no RuntimeWarning from an inf/inf direction
    pts = np.array([[0.0, 0.0], [np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.3],
                    [np.inf, np.nan], [np.inf, -np.inf], [0.5, 0.5]])
    assert disk_sol.domain.contains(pts).tolist() == [True] + [False] * 5 + [True]
    with pytest.raises(EvaluationError) as exc:
        disk_sol.eval_interior(pts)
    assert np.array_equal(exc.value.bad_indices, np.arange(1, 6))


@pytest.mark.parametrize("fixture", ["disk_sol", "ellipse_sol", "fourier2_sol",
                                     "fourier35_sol"])
def test_interior_evaluation_rejects_points_on_and_just_inside_the_curve(fixture, request):
    # midway between the nodes of the 8M cloud, where the distance to the
    # cloud is about 1e-3 however close a point is to the curve
    sol = request.getfixturevalue(fixture)
    d = sol.domain
    psi = spectral.angle_grid(8 * d.m) + np.pi / (8 * d.m)
    for depth in (0.0, 1e-12, 1e-10):
        rho = _horner(d._radius_poly, np.exp(1j * psi)) - depth
        pts = d.center + np.column_stack([rho * np.cos(psi), rho * np.sin(psi)])
        with pytest.raises(EvaluationError) as exc:
            sol.eval_interior(pts)
        assert np.array_equal(exc.value.bad_indices, np.arange(psi.size))
    u, _, _ = sol.eval_interior(interior_quadrature(d, 24).nodes)
    assert np.all(u > 0.0)


@settings(max_examples=40, deadline=None)
@given(modes=st.lists(st.tuples(st.integers(2, 8), st.floats(-0.08, 0.08)),
                      max_size=3, unique_by=lambda km: km[0]),
       base=st.floats(0.5, 2.0),
       center=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       seed=st.integers(0, 2**32 - 1))
def test_interior_evaluation_guard_is_the_radial_depth(modes, base, center, seed):
    # a point delta * max(radii) inside the curve along its ray from the
    # center is rejected for delta <= 5e-10 and accepted for delta >= 2e-9
    shape = FourierShape(base, tuple((k, base * eps) for k, eps in modes))
    sol = solve_torsion(build_star_domain(shape, 64, center=center), 1.0)
    d = sol.domain
    rng = np.random.default_rng(seed)
    psi = rng.uniform(0.0, 2.0 * np.pi, 200)
    delta = np.concatenate([[0.0, 5e-10], 10.0 ** rng.uniform(-16.0, np.log10(5e-10), 98),
                            [2e-9], 10.0 ** rng.uniform(np.log10(2e-9), -1.0, 99)])
    rho = _horner(d._radius_poly, np.exp(1j * psi)) - delta * d.radii.max()
    pts = np.column_stack([center[0] + rho * np.cos(psi), center[1] + rho * np.sin(psi)])
    with pytest.raises(EvaluationError) as exc:
        sol.eval_interior(pts)
    assert np.array_equal(exc.value.bad_indices, np.arange(100))


def test_phi_integral_disk(disk_sol):
    # int phi over the unit disk = pi / 8, computed boundary-only
    assert abs(disk_sol.phi_integral - math.pi / 8) < 1e-12


def test_condition_estimate_and_limit(monkeypatch):
    from dropflow import torsion
    d = build_star_domain("ellipse(1.2,0.8)", 64)
    sol = solve_torsion(d, 1.0)
    assert 1.0 <= sol.condition_estimate < 1e4
    monkeypatch.setattr(torsion, "_COND_LIMIT", 1.0)
    with pytest.raises(SolverError):
        solve_torsion(d, 1.0)


STANDARD_SHAPES = ("circle(1)", "ellipse(1.2,0.8)", "fourier(1;2:0.1)",
                   "fourier(1;3:0.1,5:0.03)", "ellipse(2,0.5)")


def _rel(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


def _fine_columns(sol, mq):
    """Nodes and columns w_j (Phi_-, Phi_-', Phi_-'', 1) of the same
    interpolants as `_cauchy_sources`, on an mq-point grid."""
    d = sol.domain
    e = spectral.unit_circle(mq)
    r, rp, rpp = spectral.jet(d.modes, mq, 2)
    zp, zpp = (rp + 1j * r) * e, (rpp - r + 2j * rp) * e
    re_phi = np.fft.rfft(sol.density) + np.fft.rfft(sol._im_s) / (2.0 * np.pi)
    f = spectral.jet(np.stack([re_phi, sol._im_phi]), mq, 2)
    phi, phi_t, phi_tt = f[:, 0] + 1j * f[:, 1]
    d1 = phi_t / zp
    d2 = (phi_tt - d1 * zpp) / zp**2
    cols = np.column_stack([phi, d1, d2, np.ones(mq)])
    return d.zc + r * e, zp[:, None] * cols


def _barycentric(zs, cols, zt):
    """Re Phi, Phi' and Phi'' at targets zt from whole barycentric sums."""
    f = np.empty((zt.size, 3), dtype=complex)
    step = 2**16 // zs.size
    for lo in range(0, zt.size, step):
        k = zs[None, :] - zt[lo:lo + step, None]
        sums = np.divide(1.0, k, out=k) @ cols
        f[lo:lo + step] = sums[:, :3] / sums[:, 3:]
    f[:, 0] = f[:, 0].real
    return f


@pytest.mark.parametrize("m", [64, 128, 256])
@pytest.mark.parametrize("shape", STANDARD_SHAPES)
def test_interior_sums_are_never_less_accurate_than_the_4m_grid(shape, m):
    # against the barycentric sums of the same interpolants over 16M points,
    # at every node of the 24-ring rule and at depth fractions 1 - 10^-k,
    # k = 2...6, at random angles, each of Re Phi, Phi' and Phi'' is as
    # accurate on the grid its depth picks as on the 4M grid, or within
    # 4e-15 of its column's scale (the larger of its largest boundary
    # value and R^(2-k))
    sol = solve_torsion(build_star_domain(shape, m), 1.0)
    d = sol.domain
    ang = np.random.default_rng(m).uniform(0.0, 2.0 * np.pi, m)
    s = 1.0 - 10.0 ** -np.arange(2.0, 7.0)
    near = d.zc + np.outer(s, eval_at_angles(d.radii, ang) * np.exp(1j * ang)).ravel()
    pts = np.vstack([interior_quadrature(d, 24).nodes,
                     np.column_stack([near.real, near.imag])])
    zt = pts[:, 0] + 1j * pts[:, 1]
    rho, r = d._ray(pts)
    h, p1, p2 = sol._harmonic_parts(zt, rho / r)
    got = np.column_stack([-h, -p1, -p2])
    zq, cols = sol._cauchy_sources()[1][-1]
    ref = _barycentric(*_fine_columns(sol, 16 * m), zt)
    scale = np.maximum(np.abs(cols[:, :3] / cols[:, 3:]).max(axis=0),
                       d.radii.max() ** np.array([2.0, 1.0, 0.0]))
    err = np.abs(got - ref) / scale
    err_4m = np.abs(_barycentric(zq, cols, zt) - ref) / scale
    assert (err <= np.maximum(err_4m, 4e-15)).all()


@pytest.mark.parametrize("m", [32, 64, 128, 192])
@pytest.mark.parametrize("shape", STANDARD_SHAPES)
def test_lu_path_matches_scipy_lu_bit_for_bit(shape, m):
    d = build_star_domain(shape, m)
    _assert_bit_identical(solve_torsion(d, 1.0), scipy_lu_solve(d, 1.0))


def test_zero_pivot_is_a_solver_error(monkeypatch):
    # row 3 of the system is column 3 of the transpose that dgetrf factors;
    # the singular factor reaches neither dgecon nor dgetrs, and no
    # LinAlgWarning is issued
    dgetrf = torsion.dgetrf

    def singular(a, **kw):
        a[:, 3] = 0.0
        return dgetrf(a, **kw)

    def unreachable(*args, **kw):
        raise AssertionError("called on a singular factor")

    monkeypatch.setattr(torsion, "dgetrf", singular)
    monkeypatch.setattr(torsion, "dgecon", unreachable)
    monkeypatch.setattr(torsion, "dgetrs", unreachable)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="singular") as exc:
            solve_torsion(build_star_domain("ellipse(1.2,0.8)", 32), 1.0)
    assert exc.value.condition_estimate == np.inf


def _lapack_systems():
    """(A^T in Fortran order, right-hand side): two small systems and the
    transposed boundary system that `solve_torsion` factors at M = 64."""
    rng = np.random.default_rng(29)
    yield pytest.param(np.asfortranarray(rng.standard_normal((5, 5))),
                       rng.standard_normal(5), id="random-5")
    i = np.arange(8.0)
    yield pytest.param(np.asfortranarray(1.0 / (i[:, None] + i + 1.0)), np.ones(8),
                       id="hilbert-8")
    d, seen = build_star_domain("fourier(1;3:0.1)", 64), []
    with pytest.MonkeyPatch.context() as mp:
        factor = torsion.lu_factor
        mp.setattr(torsion, "lu_factor", lambda a: (seen.append(a.copy(order="F")), factor(a))[1])
        solve_torsion(d, 1.0)
    yield pytest.param(seen[0], np.abs(d.z - d.zc) ** 2 / 4.0, id="boundary-64")


def _same(got, want):
    """Equal LAPACK outputs: each array of the two tuples, bit for bit."""
    return len(got) == len(want) and all(map(np.array_equal, got, want))


@pytest.mark.parametrize("a, b", _lapack_systems())
def test_lapack_routines_match_scipy_linalg_lapack(a, b):
    # the routines loaded from scipy's compiled extension give the outputs
    # of scipy.linalg.lapack's
    from scipy.linalg import lapack
    factors = torsion.dgetrf(a.copy(order="F"))
    assert _same(factors, lapack.dgetrf(a.copy(order="F"))) and factors[2] == 0
    lu, piv, _ = factors
    for norm in ("I", "1"):
        anorm = torsion.dlange(norm, a)
        assert np.array_equal(anorm, lapack.dlange(norm, a))
        assert _same(torsion.dgecon(lu, anorm, norm=norm), lapack.dgecon(lu, anorm, norm=norm))
    for trans in (0, 1):
        assert _same(torsion.dgetrs(lu, piv, b, trans=trans),
                     lapack.dgetrs(lu, piv, b, trans=trans))


@pytest.mark.parametrize("fail", ["no file", "load error"])
def test_lapack_falls_back_to_scipy_linalg_lapack(fail, monkeypatch):
    # with the extension's file not found, or failing to load, the routines
    # come from scipy.linalg.lapack
    import importlib.machinery
    import importlib.util

    from scipy.linalg import lapack
    if fail == "no file":
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    else:
        def broken(spec):
            raise ImportError(f"cannot load {spec.origin}")
        monkeypatch.setattr(importlib.util, "module_from_spec", broken)
    assert torsion._lapack() == (lapack.dgetrf, lapack.dgetrs, lapack.dgecon, lapack.dlange)


@pytest.mark.parametrize("m", [256, 1024])
@pytest.mark.parametrize("shape", STANDARD_SHAPES)
def test_krylov_solve_matches_a_dense_solve(shape, m, monkeypatch):
    # the same system solved by np.linalg.solve in place of GMRES; measured
    # at most 3.6e-15 / 2.8e-14 / 2.3e-12 (circle(1) at M = 1024 for the last
    # two), and an LU of the transposed system alone moves |Du| by 2e-12
    d = build_star_domain(shape, m)
    sol = solve_torsion(d, 1.0)
    monkeypatch.setattr(torsion, "_gmres", lambda a, g: (np.linalg.solve(a, g), 1.0))
    ref = solve_torsion(d, 1.0)
    assert _rel(sol.lambda_, ref.lambda_) <= 1e-14
    assert _rel(sol.density, ref.density) <= 5e-14
    assert _rel(sol.boundary_grad, ref.boundary_grad) <= 5e-12


def test_krylov_condition_estimate_is_the_2_norm_condition_from_below(monkeypatch):
    # sigma_max / sigma_min of the Arnoldi Hessenberg matrix; measured within
    # 0.2 % of the exact value on these shapes at M = 256
    gmres, seen = torsion._gmres, []

    def spy(a, g):
        seen.append(a.copy())
        return gmres(a, g)

    monkeypatch.setattr(torsion, "_gmres", spy)
    for shape in STANDARD_SHAPES:
        sol = solve_torsion(build_star_domain(shape, torsion._KRYLOV_M), 1.0)
        exact = np.linalg.cond(seen[-1])
        assert 0.95 * exact <= sol.condition_estimate <= exact * (1.0 + 1e-12)


def test_krylov_condition_limit(monkeypatch):
    d = build_star_domain("ellipse(1.2,0.8)", torsion._KRYLOV_M)
    monkeypatch.setattr(torsion, "_COND_LIMIT", 1.0)
    with pytest.raises(SolverError, match="condition estimate"):
        solve_torsion(d, 1.0)


def test_krylov_iteration_cap_names_the_residual(monkeypatch):
    d = build_star_domain("fourier(1;3:0.1,5:0.03)", torsion._KRYLOV_M)
    monkeypatch.setattr(torsion, "_KRYLOV_ITERATIONS", 1)
    with pytest.raises(SolverError, match=r"relative residual \d\.\d{3}e[+-]\d\d in 1 iterations"):
        solve_torsion(d, 1.0)


def test_krylov_solve_memory_holds_no_complex_cauchy_matrix():
    # the real system, Re C, one 1 MB Cauchy block and the Krylov basis: a
    # 17.7 MB peak at M = 1024, where the whole complex C made it 25.0 MB
    d = build_star_domain("fourier(1;3:0.1,5:0.03)", 1024)
    solve_torsion(d, 1.0)
    peak = _in_fresh_thread(lambda: _traced_peak(lambda: solve_torsion(d, 1.0)))
    assert peak < 20 * 2**20


def test_warm_solve_reuses_the_workspace():
    # a second solve in the same thread takes the system, Re C and the block
    # buffer from the thread's workspace: what is left is the Krylov basis
    # and the M-vectors, 0.65 MiB at M = 1024 against a 17.7 MiB first solve
    d = build_star_domain("fourier(1;3:0.1,5:0.03)", 1024)
    solve_torsion(d, 1.0)
    assert _traced_peak(lambda: solve_torsion(d, 1.0)) < 2 * 2**20


def test_solve_after_a_larger_one_reads_no_stale_workspace():
    # each shape differs from the one before, so a solve that read what the
    # previous one left in the workspace would not match a fresh thread's,
    # and a result that pointed into the workspace is overwritten by the
    # solves after it before it is compared
    specs = [("fourier(1;3:0.1,5:0.03)", 1024), ("ellipse(2,0.5)", 256),
             ("fourier(1;2:0.1)", 128), ("ellipse(1.2,0.8)", 1024)]
    domains = [build_star_domain(spec, m) for spec, m in specs]

    def in_sequence():
        return [solve_torsion(d, 1.0) for d in domains]

    for got, d in zip(_in_fresh_thread(in_sequence), domains):
        _assert_bit_identical(got, _in_fresh_thread(lambda: solve_torsion(d, 1.0)))


def test_concurrent_solves_match_the_serial_ones():
    # more threads than cores, each growing its own workspace through a
    # different order of M, with thread switches forced often
    specs = ["circle(1)", "ellipse(2,0.5)", "fourier(1;2:0.1)",
             "fourier(1;3:0.1,5:0.03)"]
    sizes = [64, 128, 256, 512]
    jobs = [[build_star_domain(spec, sizes[(i + j) % 4]) for j in range(4)]
            for i, spec in enumerate(specs)]
    serial = [[solve_torsion(d, 1.0) for d in job] for job in jobs]
    results = [None] * len(jobs)

    def work(i):
        results[i] = [solve_torsion(d, 1.0) for d in jobs[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and None not in results
    for got, want in zip(results, serial):
        for a, b in zip(got, want):
            _assert_bit_identical(a, b)


def test_volume_recheck_passes():
    # int u by the default interior quadrature meets the prescribed volume
    d = build_star_domain("fourier(1;2:0.1)", 128)
    sol = solve_torsion(d, 1.0)
    quad, u, _, _ = sol.quadrature_data(24)
    assert abs(float(np.sum(u * quad.weights)) - 1.0) <= 1e-8
    assert sol.lambda_ > 0


def test_quadrature_data_is_memoized(fourier2_sol):
    a = fourier2_sol.quadrature_data(24)
    b = fourier2_sol.quadrature_data(24)
    assert a[0] is b[0]


def test_solve_runtime_budget():
    d = build_star_domain("fourier(1;3:0.1,5:0.03)", 128)
    t0 = time.perf_counter()
    solve_torsion(d, 1.0)
    assert time.perf_counter() - t0 < 1.0
