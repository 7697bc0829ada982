"""Hot numeric kernels for joint quadrature density evaluation.

Evaluating P(x_a, x_b) = t(x)^T rho t(x) over many sample points dominates
the Monte-Carlo runtime; the quadratic form is one BLAS product plus an
einsum reduction.
"""

from __future__ import annotations

import numpy as np


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions psi_0..psi_n_max at the points x.

    Convention matches X = (a + a^dag)/sqrt(2): psi_n(x) =
    pi^(-1/4) (2^n n!)^(-1/2) H_n(x) exp(-x^2/2), so the vacuum density
    |psi_0|^2 has variance 1/2.  Uses the stable two-term recurrence.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, x.size))
    out[0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * x * out[n] - np.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


def pdf_quadratic_form(
    rho_real: np.ndarray, psi_a: np.ndarray, psi_b: np.ndarray
) -> np.ndarray:
    """P_i = sum_jk rho[j,k] t_j(i) t_k(i) with t = psi_a (x) psi_b per point."""
    da, npts = psi_a.shape
    db = psi_b.shape[0]
    t = (psi_a[:, None, :] * psi_b[None, :, :]).reshape(da * db, npts)
    return np.einsum("ji,ji->i", t, rho_real @ t)
