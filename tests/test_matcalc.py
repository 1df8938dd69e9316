import math

import numpy as np
import pytest

from dropflow import (growth_constant, maclaurin_chain, quadratic_growth_gap,
                      sym_funcs)


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.1 * np.eye(n)


def test_sym_funcs_known_values():
    # S_k(Id) = 1 for all k; diag(1,2,3): e = (6, 11, 6)
    assert np.allclose(sym_funcs(np.eye(4)), 1.0, atol=1e-14)
    s = sym_funcs(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(s, [6 / 3, 11 / 3, 6 / 1], atol=1e-12)


def test_sym_funcs_s1_trace_sn_det(rng):
    for n in (2, 3, 5):
        m = random_symmetric(rng, n)
        s = sym_funcs(m)
        assert abs(s[0] - np.trace(m) / n) < 1e-12
        assert abs(s[-1] - np.linalg.det(m)) < 1e-10


def test_sym_funcs_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        sym_funcs(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        sym_funcs(np.zeros((2, 3)))


def test_quadratic_growth_is_an_exact_identity(rng):
    # gap == deviation / (n (n-1)) for every symmetric matrix, so the
    # growth constant is attained identically, not just as an infimum.
    for n in (2, 3, 4, 5):
        c = growth_constant(n)
        for _ in range(200):
            m = random_symmetric(rng, n)
            gap, dev = quadratic_growth_gap(m)
            assert abs(gap - c * dev) <= 1e-12 * max(1.0, abs(gap))


def test_growth_constant_values():
    assert growth_constant(2) == 0.5
    assert growth_constant(3) == pytest.approx(1 / 6)
    assert growth_constant(4) == pytest.approx(1 / 12)
    with pytest.raises(ValueError):
        growth_constant(1)


def test_maclaurin_chain_monotone_on_spd(rng):
    for n in (2, 3, 5):
        for _ in range(100):
            chain = maclaurin_chain(random_spd(rng, n))
            assert np.all(np.diff(chain) >= -1e-12)


def test_maclaurin_chain_ends(rng):
    m = random_spd(rng, 4)
    eig = np.linalg.eigvalsh(m)
    chain = maclaurin_chain(m)
    assert chain[0] == pytest.approx(np.prod(eig) ** 0.25, rel=1e-12)
    assert chain[-1] == pytest.approx(eig.mean(), rel=1e-12)


def test_maclaurin_chain_rejects_indefinite():
    with pytest.raises(ValueError):
        maclaurin_chain(np.diag([1.0, -1.0]))


def test_chain_equality_iff_scalar():
    chain = maclaurin_chain(2.5 * np.eye(3))
    assert np.allclose(chain, 2.5, atol=1e-13)
    gap, dev = quadratic_growth_gap(2.5 * np.eye(3))
    assert abs(gap) < 1e-14 and abs(dev) < 1e-14
