import json
import math

import numpy as np
import pytest
from conftest import SMOOTH_SHAPES, smooth_shape
from hypothesis import given, settings
from hypothesis import strategies as st

from dropflow import build_star_domain, identity_suite, solve_torsion
from dropflow.identities import (DEFAULT_TOLERANCES, check_cube, check_fund_est,
                                 check_kappa_cube, check_pohozaev, check_s2_divfree,
                                 check_trace)

R_STAR = (4.0 / math.pi) ** (1.0 / 3.0)


def test_pohozaev_disk_closed_form(disk_sol):
    # both sides equal 2 lambda^2 vol = 128 / pi^2 on the unit disk
    rep = check_pohozaev(disk_sol)
    expect = 128.0 / math.pi**2
    assert abs(rep.lhs - expect) < 1e-10
    assert abs(rep.rhs - expect) < 1e-12
    assert rep.passed


@pytest.mark.parametrize("fixture", ["fourier2_sol", "ellipse_sol"])
def test_pohozaev_and_cube_are_base_point_free(fixture, request):
    # moving x0 by a changes the Pohozaev lhs by -(lam/2) a . oint |Du|^2 nu
    # and the cube rhs by (lam/2) a . oint (|Du|^2 - 1) nu; both vanish
    sol = request.getfixturevalue(fixture)
    d = sol.domain
    wnu = d.arc_weights[:, None] * d.normal
    bg2 = sol.boundary_grad[:, None] ** 2
    assert np.abs((wnu * bg2).sum(axis=0)).max() < 1e-12
    assert np.abs((wnu * (bg2 - 1.0)).sum(axis=0)).max() < 1e-12


def test_cube_equilibrium_disk_closed_form():
    sol = solve_torsion(build_star_domain(f"circle({R_STAR!r})", 128), 1.0)
    rep = check_cube(sol)
    expect = 2 * math.pi * R_STAR  # oint |Du|^3 with |Du| = 1
    assert abs(rep.lhs - expect) < 1e-8
    assert abs(rep.rhs - expect) < 1e-8
    assert rep.residual < 1e-8


def test_kappa_cube_disk_sign_convention(disk_sol):
    # on the unit disk u is radial, kappa |Du|^3 = -(lam/2)^3 r^2 * 2/r * ...
    # collapsing to the division-free integrand -(lam^3/8) r^2; integrating
    # over the disk gives -pi lam^3 / 16 = -32 / pi^2 at vol = 1
    rep = check_kappa_cube(disk_sol, 24)
    expect = -math.pi * disk_sol.lambda_**3 / 16
    assert abs(expect + 32.0 / math.pi**2) < 1e-12
    assert abs(rep.lhs - expect) < 1e-9
    assert rep.passed


def test_trace_identity_all_orders(ellipse_sol):
    for k in range(5):
        parts = ("re",) if k == 0 else ("re", "im")
        for part in parts:
            rep = check_trace(ellipse_sol, k, part, 24)
            assert rep.passed, (k, part, rep.residual)


def test_fund_est_signed_equality_and_inequality(fourier35_sol):
    rep = check_fund_est(fourier35_sol, 24)
    assert rep.passed
    assert rep.metadata["inequality_ok"]
    assert rep.lhs <= rep.metadata["rhs_abs"] + 1e-6
    # Frobenius-deviation form carries the factor-2 relation exactly
    assert abs(rep.metadata["hessian_lhs"] - 2 * rep.lhs) < 1e-9
    assert rep.metadata["hessian_inequality_ok"]


def test_fund_est_verdicts_are_json_booleans(fourier35_sol):
    meta = json.loads(check_fund_est(fourier35_sol, 24).to_json())["metadata"]
    assert meta["inequality_ok"] is True
    assert meta["hessian_inequality_ok"] is True


def test_fund_est_vanishes_on_equilibrium_ball():
    sol = solve_torsion(build_star_domain(f"circle({R_STAR!r})", 128), 1.0)
    rep = check_fund_est(sol, 24)
    assert abs(rep.lhs) < 1e-12
    assert abs(rep.rhs) < 1e-12
    assert rep.passed


@pytest.mark.parametrize("vol", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("radius", [0.3, 0.5, 1.0, 2.0, 3.7])
def test_fund_est_passes_on_every_disk(radius, vol):
    # both sides vanish on every disk; an absolute residual floor of 1e-12
    # once failed 7 of these 15 at M = 128 (circle(0.5) at vol 1 read 2e-2)
    sol = solve_torsion(build_star_domain(f"circle({radius})", 128), vol)
    assert check_fund_est(sol, 24).passed


@pytest.mark.parametrize("fixture, a, b", [("disk_sol", 1.0, 1.0),
                                            ("ellipse_sol", 1.2, 0.8)],
                         ids=["disk_sol", "ellipse_sol"])
def test_s2_divfree_disk_closed_form(fixture, a, b, request):
    # u = C (1 - x^2/a^2 - y^2/b^2) with C = lam / (2 (a^-2 + b^-2)), so
    # det D^2 u = 4 C^2 / (a b)^2, integrated over the ellipse 4 pi C^2/(a b);
    # on the unit disk that is pi (lam/2)^2
    sol = request.getfixturevalue(fixture)
    rep = check_s2_divfree(sol, 24)
    c = sol.lambda_ / (2.0 * (a**-2 + b**-2))
    expect = 4.0 * math.pi * c**2 / (a * b)
    assert abs(rep.lhs - expect) <= 1e-13 * expect
    assert abs(rep.rhs - expect) <= 1e-13 * expect


def test_identity_suite_names_and_verdicts(fourier2_sol):
    reports = identity_suite(fourier2_sol)
    names = [r.identity for r in reports]
    assert names == ["pohozaev", "cube", "kappa_cube",
                     "trace_k0_re", "trace_k1_re", "trace_k1_im",
                     "trace_k2_re", "trace_k2_im", "trace_k3_re",
                     "trace_k3_im", "trace_k4_re", "trace_k4_im",
                     "fund_est", "s2_divfree"]
    assert all(r.passed for r in reports)


def test_report_json_roundtrip(disk_sol):
    rep = check_pohozaev(disk_sol)
    payload = json.loads(rep.to_json())
    assert payload["identity"] == "pohozaev"
    assert payload["pass"] is True
    assert isinstance(payload["lhs"], float)


def test_rotation_invariance_of_scalar_identities(rng):
    # the same shape sampled with a rotated parameterization gives the
    # same pohozaev / cube / fund_est values
    base = build_star_domain("fourier(1;3:0.1)", 128)
    theta = 2 * np.pi * np.arange(128) / 128
    shift = 2 * np.pi * 17 / 128
    from dropflow import Samples
    rot = build_star_domain(Samples(tuple(1.0 + 0.1 * np.cos(3 * (theta + shift)))), 128)
    sa = solve_torsion(base, 1.0)
    sb = solve_torsion(rot, 1.0)
    for check in (check_pohozaev, check_cube, lambda sol: check_fund_est(sol, 24)):
        ra = check(sa)
        rb = check(sb)
        assert abs(ra.lhs - rb.lhs) < 1e-9 * max(1.0, abs(ra.lhs))


# At M = 64, about a third of these shapes fail pohozaev, cube or s2_divfree
# (the solve is under-resolved there, and the verdicts say so), and at
# M = 128 the wiggliest still fail s2_divfree; at M = 256 every report of
# 300 random draws and of the 560 three-mode shapes at amplitude 0.08 (35
# mode triples, 8 sign patterns, base 0.5 and 2) stayed within a quarter
# of its tolerance.
@settings(max_examples=40, deadline=None)
@given(**{**SMOOTH_SHAPES, "m": st.just(256)})
def test_identity_suite_passes_on_random_smooth_shapes(modes, base, m):
    reports = identity_suite(solve_torsion(build_star_domain(smooth_shape(modes, base), m), 1.0))
    assert len(reports) == 14
    for rep in reports:
        family = "trace" if rep.identity.startswith("trace_") else rep.identity
        assert rep.passed and rep.residual <= DEFAULT_TOLERANCES[family], rep
