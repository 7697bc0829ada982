import numpy as np
import pytest

from eprdistill import DensityMatrix, HilbertConfig


def parity_vector(config: HilbertConfig) -> np.ndarray:
    """(-1)^(total photon number) per flat basis index."""
    total = np.zeros(config.dim, dtype=int)
    for mode in range(config.mode_count):
        total += config.mode_occupations(mode)
    return np.where(total % 2 == 0, 1.0, -1.0)


def random_density_matrix(
    config: HilbertConfig, rng: np.random.Generator, zero_mean: bool = False
) -> DensityMatrix:
    """Random full-rank state; zero_mean symmetrizes under photon parity so
    all first quadrature moments vanish."""
    dim = config.dim
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.real(np.trace(rho))
    if zero_mean:
        par = parity_vector(config)
        rho = 0.5 * (rho + np.outer(par, par) * rho)
    return DensityMatrix(config, rho)


def kron_kraus_sum(state, mode, ops):
    """Reference: sum_i E_i rho E_i^dag with E_i = K_i on `mode`, I elsewhere."""
    cfg = state.config
    eye = np.eye(cfg.dim_per_mode)
    out = np.zeros_like(state.elements)
    for op in ops:
        full = np.array([[1.0]])
        for m in range(cfg.mode_count):
            full = np.kron(full, op if m == mode else eye)
        out += full @ state.elements @ full.conj().T
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)
