import numpy as np
import pytest

from eprdistill import DensityMatrix, HilbertConfig, joint_quadrature_pdf
from eprdistill.channels import beamsplitter_unitary
from eprdistill.fock import apply_unitary


def random_density_matrix(
    config: HilbertConfig, rng: np.random.Generator, zero_mean: bool = False
) -> DensityMatrix:
    """Random full-rank state; zero_mean keeps only the blocks of a two-mode
    state that are diagonal in n_A - n_B, so it is phase-symmetric and all
    first quadrature moments vanish."""
    dim = config.dim
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.real(np.trace(rho))
    if zero_mean:
        rho = rho * ~off_block_mask(config)
    return DensityMatrix(config, rho)


def fock_vector(config: HilbertConfig, occupations) -> np.ndarray:
    """Unit vector of |n_0, n_1, ...>; numpy's C order makes mode 0 the
    slowest index, the order of the fock module."""
    vec = np.zeros(config.dim)
    shape = (config.dim_per_mode,) * config.mode_count
    vec[np.ravel_multi_index(tuple(occupations), shape)] = 1.0
    return vec


def off_block_mask(config: HilbertConfig) -> np.ndarray:
    """True where the row and column n_A - n_B of a two-mode state differ."""
    delta = config.mode_occupations(0) - config.mode_occupations(1)
    return delta[:, None] != delta[None, :]


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


def beamsplitter(state: DensityMatrix, r: float) -> DensityMatrix:
    """Mix the last two modes on a beamsplitter of amplitude reflectivity r."""
    cfg = state.config
    u = beamsplitter_unitary(cfg.n_max, r)
    return apply_unitary(state, np.kron(np.eye(cfg.dim_per_mode ** (cfg.mode_count - 2)), u))


def dense_catalysis_kraus(n_max: int, r, eta: float) -> np.ndarray:
    """`catalysis_kraus_operators` read off the dense two-mode unitary.

    u[g, n, k, b, j] = <n, k|U|b, j> with detector n, surviving output k,
    signal b and ancilla j; K_{n,j} = sqrt(w_j) u[n, :, :, j] for n >= 1,
    n-major and j-minor, with w = (1 - eta, eta).
    """
    d = n_max + 1
    u = beamsplitter_unitary(n_max, np.atleast_1d(r)).reshape(-1, d, d, d, d)[..., :2]
    weighted = u[:, 1:] * np.sqrt([1.0 - eta, eta])
    ops = weighted.transpose(0, 1, 4, 2, 3).reshape(-1, 2 * n_max, d, d)
    return ops if np.ndim(r) else ops[0]


def dense_envelope_bound(state: DensityMatrix, env_var: float) -> float:
    """`quadratures._envelope_bound` from the density at all 401 x 401 grid
    points, divided point by point by the envelope."""
    half_width = 10.0 * max(1.0, np.sqrt(env_var))
    axis = np.linspace(-half_width, half_width, 401)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pdf = joint_quadrature_pdf(state, gx, gy)
    envelope = np.exp(-(gx**2 + gy**2) / (2.0 * env_var)) / (2.0 * np.pi * env_var)
    return float(np.max(pdf / envelope)) * 1.15


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)
