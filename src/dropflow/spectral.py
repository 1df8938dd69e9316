"""Spectral helpers for 2pi-periodic samples on the uniform angle grid.

All routines assume an even number of samples f_j = f(2*pi*j/M) and work
through the real FFT; odd-order derivatives zero the Nyquist mode.
"""
from functools import lru_cache

import numpy as np


def angle_grid(m):
    return 2.0 * np.pi * np.arange(m) / m


@lru_cache(maxsize=16)
def unit_circle(m):
    """e^{i theta_j} on the uniform angle grid (cached, read-only)."""
    e = np.exp(1j * angle_grid(m))
    e.flags.writeable = False
    return e


def deriv(f, order=1):
    """Spectral d^order/dtheta^order of periodic samples."""
    f = np.asarray(f, dtype=float)
    m = f.shape[-1]
    k = np.fft.rfftfreq(m, 1.0 / m)
    fh = np.fft.rfft(f) * (1j * k) ** order
    if order % 2 == 1:
        fh[..., -1] = 0.0
    return np.fft.irfft(fh, m)


def resample(f, m_new):
    """Trigonometric interpolation of real samples onto a finer uniform grid.

    The Nyquist bin is halved: on the finer grid it is an ordinary mode that
    irfft counts twice, and the interpolant carries it as cos(M*theta/2).
    """
    f = np.asarray(f, dtype=float)
    m = f.shape[-1]
    if m_new == m:
        return f.copy()
    if m_new < m:
        raise ValueError("resample only refines")
    fh = np.fft.rfft(f)
    fh[..., -1] *= 0.5
    return np.fft.irfft(fh, m_new) * (m_new / m)


def eval_at_angles(f, psi):
    """Evaluate the trigonometric interpolant of samples f at arbitrary angles."""
    f = np.asarray(f, dtype=float)
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    m = f.shape[-1]
    fh = np.fft.rfft(f) / m
    kp = np.arange(1, m // 2) * psi[:, None]
    return (fh[0].real
            + np.cos(kp) @ (2.0 * fh[1:-1].real)
            - np.sin(kp) @ (2.0 * fh[1:-1].imag)
            + fh[-1].real * np.cos((m // 2) * psi))


def mode_tail_fraction(fh):
    """Relative l2 weight of the top third of the modes fh, the real FFT of
    periodic samples (a smoothness diagnostic)."""
    power = np.abs(fh) ** 2
    power[1:-1] *= 2.0
    kcut = 2 * (len(fh) - 1) // 3
    total = power.sum()
    if total == 0.0:
        return 0.0
    return float(np.sqrt(power[kcut + 1:].sum() / total))


def exp_filter_factor(m, alpha=None):
    """Order-8 exponential low-pass factor on the real FFT of M samples.

    The bottom two thirds of the modes are kept untouched; the default
    alpha damps the top mode to machine epsilon.
    """
    if alpha is None:
        alpha = -np.log(np.finfo(float).eps)
    kmax = m // 2
    k = np.arange(kmax + 1)
    kcut = 2 * kmax // 3
    sigma = np.ones(k.size)
    hi = k > kcut
    sigma[hi] = np.exp(-alpha * ((k[hi] - kcut) / (kmax - kcut)) ** 8)
    return sigma


def dealiased_power_sum(f, power):
    """(2pi/M)*sum of f(theta)^power with the product de-aliased by upsampling."""
    f = np.asarray(f, dtype=float)
    m = f.shape[-1]
    mq = int(power) * m
    fq = resample(f, mq)
    return (2.0 * np.pi / mq) * float(np.sum(fq ** power))
