import numpy as np
import pytest

from eprdistill import DensityMatrix, HilbertConfig, joint_quadrature_pdf, tolerances
from eprdistill.channels import beamsplitter_unitary, herald_click
from eprdistill.fock import apply_unitary, tensor_product


def random_state_array(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank dim x dim density matrix as a plain array."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.real(np.trace(rho))


def random_density_matrix(config: HilbertConfig, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank two-mode state: the real part of a random state with
    only its blocks diagonal in n_A - n_B kept, so it is phase-symmetric and
    all first quadrature moments vanish."""
    rho = np.real(random_state_array(config.dim, rng))
    return DensityMatrix(config, rho * ~off_block_mask(config))


def pure_state(config: HilbertConfig, amplitudes: np.ndarray) -> DensityMatrix:
    """Density matrix |psi><psi| of a normalized amplitude vector."""
    vec = np.asarray(amplitudes)
    norm = np.linalg.norm(vec)
    if norm < tolerances.HERALD_MIN_PROBABILITY:
        raise ValueError("cannot normalize a zero amplitude vector")
    vec = vec / norm
    return DensityMatrix(config, np.outer(vec, vec))


def fock_vector(n_max: int, occupations) -> np.ndarray:
    """Unit vector of |n_0, n_1, ...> over len(occupations) modes; numpy's C
    order makes mode 0 the slowest index, the order of the fock module."""
    shape = (n_max + 1,) * len(occupations)
    vec = np.zeros(np.prod(shape, dtype=int))
    vec[np.ravel_multi_index(tuple(occupations), shape)] = 1.0
    return vec


def mode_occupations(n_max: int, modes: int, mode: int) -> np.ndarray:
    """Occupation number of `mode` for each flat index of an array over `modes` modes."""
    return np.indices((n_max + 1,) * modes)[mode].ravel()


def off_block_mask(config: HilbertConfig) -> np.ndarray:
    """True where the row and column n_A - n_B of a two-mode state differ."""
    delta = mode_occupations(config.n_max, 2, 0) - mode_occupations(config.n_max, 2, 1)
    return delta[:, None] != delta[None, :]


def kron_kraus_sum(state: DensityMatrix, mode: int, ops) -> np.ndarray:
    """Reference: sum_i E_i rho E_i^dag with E_i = K_i on `mode`, I on the other."""
    eye = np.eye(state.config.dim_per_mode)
    out = np.zeros(state.elements.shape, np.result_type(state.elements, *ops))
    for op in ops:
        full = np.kron(op, eye) if mode == 0 else np.kron(eye, op)
        out += full @ state.elements @ full.conj().T
    return out


def fidelity(state: DensityMatrix, amplitudes: np.ndarray) -> float:
    """Fidelity <psi|rho|psi> against a pure target (normalized here)."""
    v = np.asarray(amplitudes, dtype=complex)
    v = v / np.linalg.norm(v)
    return float(np.real(v.conj() @ state.elements @ v))


def annihilation_operator(n_max: int) -> np.ndarray:
    """One-mode ladder operator a|n> = sqrt(n) |n-1> on levels 0..n_max.

    The real (float64) matrix has sqrt(1..n_max) on the first superdiagonal.
    Nothing maps up past the cutoff, so a a^dag deviates from a^dag a + 1
    only in the top level.  np.kron(a, I) and np.kron(I, a) act on mode 0
    and mode 1 of a two-mode space.
    """
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1)


# Three-mode oracle of the catalysis circuit, on plain arrays: the heralded
# ancilla, the full-space beamsplitter and the click, which the library
# replaces by one Kraus map on mode B.


def ancilla_photon(eta: float, n_max: int) -> np.ndarray:
    """Heralded single-mode ancilla: one photon with probability eta, else vacuum."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    diag = np.zeros(n_max + 1)
    diag[:2] = 1.0 - eta, eta
    return np.diag(diag)


def beamsplitter(rho: np.ndarray, n_max: int, r: float) -> np.ndarray:
    """Mix the last two modes of a state array on a beamsplitter of
    amplitude reflectivity r."""
    u = beamsplitter_unitary(n_max, r)
    return apply_unitary(rho, np.kron(np.eye(len(rho) // len(u)), u))


def three_mode_catalysis(epr: DensityMatrix, r: float, eta: float):
    """The catalysis circuit written out on the three-mode array (A, B,
    ancilla): the beamsplitter mixes B with the ancilla, a click on mode 1
    heralds, and mode 2, the surviving port, becomes the new mode B.
    Returns `herald_click`'s (state, probability)."""
    n_max = epr.config.n_max
    joint = tensor_product(epr.elements, ancilla_photon(eta, n_max))
    return herald_click(beamsplitter(joint, n_max, r), n_max, 1)


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
