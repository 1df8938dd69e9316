"""Spectral helpers for 2pi-periodic samples on the uniform angle grid.

All routines assume an even number of samples f_j = f(2*pi*j/M) and work
through their real FFT, the modes.  `jet` is the one place where modes
become values; it differentiates every mode, the Nyquist mode
cos(M theta/2) too (Trefethen, Spectral Methods in MATLAB, ch. 3).
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


@lru_cache(maxsize=16)
def derivative_factors(n):
    """ik, k = 0..n-1: the factors that differentiate n modes (cached, read-only)."""
    ik = 1j * np.arange(n)
    ik.flags.writeable = False
    return ik


def jet_modes(modes, order):
    """Rows (ik)^j c_k, j = 0..order: the modes of f, f', ..., f^(order).
    An odd derivative's Nyquist row is imaginary: irfft drops it on the M
    grid, where that term vanishes, but not on a finer one."""
    c = np.asarray(modes)
    rows = np.empty((order + 1,) + c.shape, dtype=complex)
    rows[0] = c
    ik = p = derivative_factors(c.shape[-1])
    for row in rows[1:]:
        np.multiply(p, c, out=row)
        p = p * ik
    return rows


def jet(modes, m_out, order):
    """f, f', ..., f^(order) of the interpolant on the m_out-point grid,
    m_out >= M, shape (order + 1, ..., m_out); leading axes of `modes` are
    batch axes.  On a finer grid the Nyquist bin is halved: irfft would
    count its term cos(M theta/2) twice.
    """
    m = 2 * np.shape(modes)[-1] - 2
    if m_out < m:
        raise ValueError(f"jet only refines: m_out = {m_out} < M = {m}")
    rows = jet_modes(modes, order)
    if m_out > m:
        rows[..., -1] *= 0.5
    return np.fft.irfft(rows, m_out) * (m_out / m)


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
