import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropflow import (EvaluationError, FourierShape, SolverError,
                      build_star_domain, eval_interior, solve_torsion)

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
    assert np.allclose(disk_sol.boundary_grad.values, expect, atol=1e-10)


def test_boundary_gradient_on_equilibrium_ball():
    r_star = (4.0 / math.pi) ** (1.0 / 3.0)
    sol = solve_torsion(build_star_domain(f"circle({r_star!r})", 128), 1.0)
    assert np.allclose(sol.boundary_grad.values, 1.0, atol=1e-12)


def test_normal_derivative_sign(disk_sol):
    # u decreases outward, so du/dn = -|Du| on the boundary
    dn = disk_sol.normal_derivative()
    assert np.allclose(dn.values, -disk_sol.boundary_grad.values, atol=1e-12)


def test_boundary_hessian_disk(disk_sol):
    hb = disk_sol.boundary_hessian()
    expect = -LAMBDA_DISK / 2.0 * np.eye(2)
    assert np.allclose(hb, expect[None, :, :], atol=1e-9)


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


@pytest.mark.parametrize("m, tol_u, tol_grad, tol_hess",
                         [(64, 3e-11, 1e-9, 5e-8), (128, 2e-14, 6e-13, 6e-11)])
def test_interior_evaluation_ellipse_at_quadrature_nodes(m, tol_u, tol_grad, tol_hess):
    # every node of the 24-point radial rule, the outermost Gauss ring
    # (about a fifth of a node spacing off the wall) included
    sol = solve_torsion(build_star_domain("ellipse(1.2,0.8)", m), 1.0)
    quad, u, grad, hess = sol.quadrature_data(24)
    u0, g0, h0 = ellipse_closed_form(sol.lambda_, quad.nodes)
    assert np.abs(u - u0).max() < tol_u
    assert np.abs(grad - g0).max() < tol_grad
    assert np.abs(hess - h0).max() < tol_hess


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
    z = d.zc + s * d.radius_at(np.array([angle]))[0] * np.exp(1j * angle)
    w = d.arc_weights * d.tangent_c
    assert abs(np.sum(w / (d.z - z)) - 2j * np.pi) < 1e-12


def test_interior_evaluation_rejects_outside(disk_sol):
    with pytest.raises(EvaluationError) as exc:
        disk_sol.eval_interior(np.array([[1.5, 0.0], [0.0, 0.0]]))
    assert exc.value.bad_indices == [0]


def test_module_level_eval_matches_method(disk_sol):
    pts = np.array([[0.2, 0.3]])
    a = disk_sol.eval_interior(pts)
    b = eval_interior(disk_sol, pts)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_phi_integral_disk(disk_sol):
    # int phi over the unit disk = pi / 8, computed boundary-only
    assert abs(disk_sol.phi_integral - math.pi / 8) < 1e-12


def test_condition_estimate_and_limit():
    d = build_star_domain("ellipse(1.2,0.8)", 64)
    sol = solve_torsion(d, 1.0)
    assert 1.0 <= sol.condition_estimate < 1e4
    with pytest.raises(SolverError):
        solve_torsion(d, 1.0, cond_limit=1.0)


def test_volume_recheck_passes():
    d = build_star_domain("fourier(1;2:0.1)", 128)
    sol = solve_torsion(d, 1.0, check_volume=True)
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
