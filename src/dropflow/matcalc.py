"""Normalized elementary symmetric functions of symmetric matrices.

S_k(M) is the k-th elementary symmetric function of the eigenvalues divided
by binomial(n, k), so S_1 = trace/n and S_n = det.  The quadratic growth
gap S_1^2 - S_2 against the trace deviation and the AM-GM (Maclaurin) chain
for positive matrices are provided.
"""
import math

import numpy as np

_SYM_TOL = 1e-12


def _check_symmetric(mat):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, np.abs(mat).max())
    if np.abs(mat - mat.T).max() > _SYM_TOL * scale:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (mat + mat.T)


def sym_funcs(mat):
    """All normalized elementary symmetric functions (S_1, ..., S_n)."""
    mat = _check_symmetric(mat)
    n = mat.shape[0]
    eig = np.linalg.eigvalsh(mat)
    # elementary symmetric polynomials by the product recurrence
    e = np.zeros(n + 1)
    e[0] = 1.0
    for lam in eig:
        e[1:] = e[1:] + lam * e[:-1]
    return np.array([e[k] / math.comb(n, k) for k in range(1, n + 1)])


def quadratic_growth_gap(mat):
    """(gap, deviation) with gap = S_1^2 - S_2 and deviation = |M - S_1 Id|_F^2."""
    mat = _check_symmetric(mat)
    n = mat.shape[0]
    s = sym_funcs(mat)
    s1 = s[0]
    gap = s1**2 - s[1]
    dev = float(np.sum((mat - s1 * np.eye(n)) ** 2))
    return float(gap), dev


def growth_constant(n):
    """Largest c with S_1^2 - S_2 >= c |M - S_1 Id|_F^2 for symmetric M.

    Expanding both sides in eigenvalues shows the two quantities are exactly
    proportional: gap == deviation / (n (n - 1)), so the constant is attained
    by every non-scalar matrix.
    """
    n = int(n)
    if n < 2:
        raise ValueError("need n >= 2")
    return 1.0 / (n * (n - 1))


def maclaurin_chain(mat):
    """(S_n^{1/n}, ..., S_2^{1/2}, S_1), nondecreasing for positive definite M."""
    mat = _check_symmetric(mat)
    eig = np.linalg.eigvalsh(mat)
    if eig.min() <= 0.0:
        raise ValueError("Maclaurin chain needs a positive definite matrix")
    s = sym_funcs(mat)
    n = mat.shape[0]
    return np.array([s[k - 1] ** (1.0 / k) for k in range(n, 0, -1)])
