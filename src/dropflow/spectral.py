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


def tail_fraction(f, frac=1.0 / 3.0):
    """Relative l2 weight of the top `frac` of modes (smoothness diagnostic)."""
    return mode_tail_fraction(np.fft.rfft(np.asarray(f, dtype=float)), frac)


def mode_tail_fraction(fh, frac=1.0 / 3.0):
    """`tail_fraction` of the samples whose real FFT is fh."""
    power = np.abs(fh) ** 2
    power[1:-1] *= 2.0
    kmax = len(fh) - 1
    kcut = int(np.floor((1.0 - frac) * kmax))
    total = power.sum()
    if total == 0.0:
        return 0.0
    return float(np.sqrt(power[kcut + 1:].sum() / total))


def exp_filter(f, frac=1.0 / 3.0, alpha=None, order=8):
    """Exponential low-pass keeping the bottom (1-frac) of modes untouched."""
    m = np.shape(f)[-1]
    return np.fft.irfft(np.fft.rfft(f) * exp_filter_factor(m, frac, alpha, order), m)


def exp_filter_factor(m, frac=1.0 / 3.0, alpha=None, order=8):
    """The factor `exp_filter` applies to the real FFT of M samples; the
    default alpha damps the top mode to machine epsilon."""
    if alpha is None:
        alpha = -np.log(np.finfo(float).eps)
    kmax = m // 2
    k = np.arange(kmax + 1)
    kcut = int(np.floor((1.0 - frac) * kmax))
    sigma = np.ones(k.size)
    hi = k > kcut
    sigma[hi] = np.exp(-alpha * ((k[hi] - kcut) / (kmax - kcut)) ** order)
    return sigma


def dealiased_power_sum(f, power):
    """(2pi/M)*sum of f(theta)^power with the product de-aliased by upsampling."""
    f = np.asarray(f, dtype=float)
    m = f.shape[-1]
    mq = int(power) * m
    fq = resample(f, mq)
    return (2.0 * np.pi / mq) * float(np.sum(fq ** power))
