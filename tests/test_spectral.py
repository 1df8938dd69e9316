import numpy as np
import pytest
from conftest import dealiased_power_sum, eval_at_angles

from dropflow import spectral


def trig_poly(theta):
    return 1.3 - 0.4 * np.cos(2 * theta) + 0.25 * np.sin(5 * theta)


def trig_poly_d1(theta):
    return 0.8 * np.sin(2 * theta) + 1.25 * np.cos(5 * theta)


def trig_poly_d2(theta):
    return 1.6 * np.cos(2 * theta) - 6.25 * np.sin(5 * theta)


def test_deriv_exact_on_band_limited():
    theta = spectral.angle_grid(64)
    f = trig_poly(theta)
    jet = spectral.jet(np.fft.rfft(f), 64, 2)
    assert np.allclose(jet[1], trig_poly_d1(theta), atol=1e-12)
    assert np.allclose(jet[2], trig_poly_d2(theta), atol=1e-11)


def test_deriv_kills_constant():
    f = np.full(32, 2.5)
    assert np.allclose(spectral.jet(np.fft.rfft(f), 32, 1)[1], 0.0, atol=1e-14)


def test_resample_matches_exact_samples():
    coarse = spectral.angle_grid(32)
    fine = spectral.angle_grid(128)
    up = spectral.jet(np.fft.rfft(trig_poly(coarse)), 128, 0)[0]
    assert np.allclose(up, trig_poly(fine), atol=1e-12)
    with pytest.raises(ValueError):
        spectral.jet(np.fft.rfft(trig_poly(coarse)), 16, 0)


def test_resample_carries_the_nyquist_mode_once(rng):
    # the +-M/2 mode is the single term cos(M*theta/2): refining must
    # reproduce the samples at the old nodes and agree with eval_at_angles
    alt = (-1.0) ** np.arange(32)
    assert np.abs(spectral.jet(np.fft.rfft(alt), 128, 0)[0][::4] - alt).max() < 1e-14
    f = rng.standard_normal(32)
    up = spectral.jet(np.fft.rfft(f), 128, 0)[0]
    assert np.abs(up[::4] - f).max() < 1e-13
    assert np.abs(up - eval_at_angles(f, spectral.angle_grid(128))).max() < 1e-13


def test_jet_differentiates_the_nyquist_mode():
    # cos(M theta/2) has derivatives -(M/2) sin(M theta/2) and
    # -(M/2)^2 cos(M theta/2): on a finer grid the odd one shows, on the
    # M grid it vanishes at the nodes
    m = 32
    alt = (-1.0) ** np.arange(m)
    fine = spectral.angle_grid(4 * m)
    r, rp, rpp = spectral.jet(np.fft.rfft(alt), 4 * m, 2)
    assert np.abs(r - np.cos(0.5 * m * fine)).max() < 1e-14
    assert np.abs(rp + 0.5 * m * np.sin(0.5 * m * fine)).max() < 1e-12
    assert np.abs(rpp + (0.5 * m) ** 2 * np.cos(0.5 * m * fine)).max() < 1e-11
    r, rp, rpp = spectral.jet(np.fft.rfft(alt), m, 2)
    assert np.array_equal(r, alt) and np.abs(rp).max() == 0.0
    assert np.abs(rpp + (0.5 * m) ** 2 * alt).max() < 1e-12


def test_jet_takes_batched_rows(rng):
    # leading axes of the modes are batch axes: each row's jet is its own
    f = rng.standard_normal((2, 3, 32))
    fh = np.fft.rfft(f)
    jet = spectral.jet(fh, 64, 2)
    assert jet.shape == (3, 2, 3, 64)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(jet[:, i, j], spectral.jet(fh[i, j], 64, 2))


def test_eval_at_angles_matches_function(rng):
    # the cos/sin reference that the interpolant's other forms are tested against
    theta = spectral.angle_grid(64)
    psi = rng.uniform(0, 2 * np.pi, 501)
    out = eval_at_angles(trig_poly(theta), psi)
    assert np.allclose(out, trig_poly(psi), atol=1e-12)


def test_tail_fraction_detects_high_modes():
    theta = spectral.angle_grid(64)
    smooth = trig_poly(theta)
    rough = smooth + 0.3 * np.cos(30 * theta)
    assert spectral.mode_tail_fraction(np.fft.rfft(smooth)) < 1e-12
    assert spectral.mode_tail_fraction(np.fft.rfft(rough)) > 0.1


def test_dealiased_power_sum_is_exact():
    # (2pi/M) * sum r^4 aliases for band-limited r unless the grid is refined;
    # the dealiased sum must match the closed form for r = 1 + e cos k t:
    # int r^4 = 2pi (1 + 3 e^2 + 3 e^4 / 8).
    eps = 0.3
    theta = spectral.angle_grid(32)
    r = 1.0 + eps * np.cos(4 * theta)
    exact = 2 * np.pi * (1 + 3 * eps**2 + 3 * eps**4 / 8)
    assert abs(dealiased_power_sum(r, 4) - exact) < 1e-12 * exact
