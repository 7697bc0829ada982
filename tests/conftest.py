import numpy as np
import pytest

from eprdistill import DensityMatrix, HilbertConfig, apply_unitary, beamsplitter_unitary


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


def fidelity(state: DensityMatrix, amplitudes: np.ndarray) -> float:
    """Fidelity <psi|rho|psi> against a pure target (normalized here)."""
    v = np.asarray(amplitudes, dtype=complex)
    v = v / np.linalg.norm(v)
    return float(np.real(v.conj() @ state.elements @ v))


# Three-mode oracle of the catalysis circuit: the heralded ancilla and the
# full-space beamsplitter, which the library replaces by one Kraus map on
# the signal mode.


def ancilla_photon(eta: float, config: HilbertConfig) -> DensityMatrix:
    """Heralded ancilla: single photon with probability eta, else vacuum."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    if config.mode_count != 1:
        raise ValueError("ancilla lives in a single mode")
    diag = np.zeros(config.dim)
    diag[0] = 1.0 - eta
    diag[1] = eta
    return DensityMatrix(config, np.diag(diag).astype(complex))


def beamsplitter(state: DensityMatrix, mode_a: int, mode_b: int, r: float) -> DensityMatrix:
    """Mix two modes on a beamsplitter of amplitude reflectivity r."""
    return apply_unitary(state, beamsplitter_unitary(state.config, mode_a, mode_b, r))


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)
