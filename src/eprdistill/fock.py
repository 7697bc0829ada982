"""Dense linear algebra over truncated multimode Fock spaces.

States are immutable value objects: every operation returns a new instance
and the backing arrays are marked read-only, so independent scenarios can
safely be evaluated concurrently.  Operators are plain numpy arrays.

Mode ordering is little-endian: mode 0 is the slowest (leftmost) tensor
factor, i.e. the flat index of |n_0, n_1, ..> is n_0 * d^(M-1) + n_1 * d^(M-2)
+ ... with d = n_max + 1.

Operators are plain truncations of their infinite-dimensional counterparts;
cutoff artifacts (e.g. the commutator defect in the top Fock level) are
quantified in tests rather than hidden behind renormalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances


class InvalidStateError(ValueError):
    """A density matrix violates Hermiticity, positivity or trace bounds."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HilbertConfig:
    """Shape of the truncated state space: per-mode cutoff and mode count."""

    n_max: int = 3
    mode_count: int = 2

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not 1 <= self.mode_count <= 3:
            raise ValueError(f"mode_count must be in 1..3, got {self.mode_count}")

    @property
    def dim_per_mode(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return self.dim_per_mode**self.mode_count

    def check_mode(self, mode: int) -> None:
        if not 0 <= mode < self.mode_count:
            raise ValueError(
                f"mode {mode} out of range for {self.mode_count}-mode space"
            )

    def index_of(self, occupations) -> int:
        """Flat basis index of |n_0, n_1, ...>."""
        occ = tuple(occupations)
        if len(occ) != self.mode_count:
            raise ValueError(f"expected {self.mode_count} occupation numbers")
        idx = 0
        for n in occ:
            if not 0 <= n <= self.n_max:
                raise ValueError(f"occupation {n} outside 0..{self.n_max}")
            idx = idx * self.dim_per_mode + n
        return idx

    def mode_occupations(self, mode: int) -> np.ndarray:
        """Occupation number of `mode` for each flat basis index."""
        self.check_mode(mode)
        d = self.dim_per_mode
        stride = d ** (self.mode_count - 1 - mode)
        return (np.arange(self.dim) // stride) % d


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD matrix over the multimode Fock basis, trace in (0, 1].

    A trace below one encodes a heralded, sub-normalized branch; use
    :func:`normalize` to split it into a conditional state plus probability.
    """

    config: HilbertConfig
    elements: np.ndarray

    def __post_init__(self):
        elems = _frozen(self.elements)
        if elems.shape != (self.config.dim, self.config.dim):
            raise InvalidStateError(
                f"state shape {elems.shape} does not match dimension {self.config.dim}"
            )
        herm_defect = np.max(np.abs(elems - elems.conj().T))
        if herm_defect > tolerances.HERMITICITY_ATOL:
            raise InvalidStateError(f"not Hermitian: max defect {herm_defect:.3e}")
        eigs = np.linalg.eigvalsh(elems)
        if eigs.min() < tolerances.EIGENVALUE_FLOOR:
            raise InvalidStateError(f"negative eigenvalue {eigs.min():.3e}")
        tr = float(np.real(np.trace(elems)))
        if not 0.0 < tr <= 1.0 + tolerances.TRACE_UPPER_SLACK:
            raise InvalidStateError(f"trace {tr:.3e} outside (0, 1]")
        object.__setattr__(self, "elements", elems)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.elements)))


def annihilation_operator(config: HilbertConfig, mode: int) -> np.ndarray:
    """Ladder operator a acting on one mode: a|n> = sqrt(n) |n-1>.

    The cutoff row n_max maps down like any other; nothing maps up past the
    cutoff, so a a^dag deviates from a^dag a + 1 only in the top level.
    The real (float64) matrix has sqrt(n) on the diagonal k = stride of
    `mode`, n the occupation of `mode` at the column index.
    """
    config.check_mode(mode)
    stride = config.dim_per_mode ** (config.mode_count - 1 - mode)
    return np.diag(np.sqrt(config.mode_occupations(mode)[stride:]), k=stride)


def basis_vector(config: HilbertConfig, occupations) -> np.ndarray:
    """Unit vector for the Fock state |n_0, n_1, ...>."""
    vec = np.zeros(config.dim, dtype=complex)
    vec[config.index_of(occupations)] = 1.0
    return vec


def pure_state(config: HilbertConfig, amplitudes: np.ndarray) -> DensityMatrix:
    """Density matrix |psi><psi| of a normalized amplitude vector."""
    vec = np.asarray(amplitudes, dtype=complex)
    norm = np.linalg.norm(vec)
    if norm < tolerances.HERALD_MIN_PROBABILITY:
        raise ValueError("cannot normalize a zero amplitude vector")
    vec = vec / norm
    return DensityMatrix(config, np.outer(vec, vec.conj()))


def vacuum_state(config: HilbertConfig) -> DensityMatrix:
    return pure_state(config, basis_vector(config, (0,) * config.mode_count))


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Joint state a (x) b; the modes of `b` follow those of `a`."""
    if a.config.n_max != b.config.n_max:
        raise ValueError("cutoffs differ between factors")
    joint = HilbertConfig(a.config.n_max, a.config.mode_count + b.config.mode_count)
    return DensityMatrix(joint, np.kron(a.elements, b.elements))


def apply_unitary(state: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    """Conjugate the state: rho -> U rho U^dag.  Trace is preserved."""
    dim = state.config.dim
    if u.shape != (dim, dim):
        raise ValueError(f"unitary shape {u.shape} does not match dimension {dim}")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
    if defect > tolerances.UNITARITY_ATOL:
        raise ValueError(f"operator is not unitary: max defect {defect:.3e}")
    return DensityMatrix(state.config, u @ state.elements @ u.conj().T)


def partial_trace(state: DensityMatrix, mode: int) -> DensityMatrix:
    """Trace out one mode, returning the reduced state over the rest."""
    cfg = state.config
    cfg.check_mode(mode)
    if cfg.mode_count < 2:
        raise ValueError("partial trace needs at least two modes")
    d, m = cfg.dim_per_mode, cfg.mode_count
    tensor = state.elements.reshape((d,) * (2 * m))
    reduced = np.trace(tensor, axis1=mode, axis2=m + mode)
    new_cfg = HilbertConfig(cfg.n_max, m - 1)
    return DensityMatrix(new_cfg, reduced.reshape(new_cfg.dim, new_cfg.dim))


def apply_mode_kraus(state: DensityMatrix, mode: int, ops) -> np.ndarray:
    """Apply rho -> sum_i K_i rho K_i^dag with single-mode operators on `mode`.

    The d x d operators are stacked into the one-mode superoperator
    S[k, l, b, c] = sum_i K_i[k, b] conj(K_i[l, c]), which is contracted with
    the row and column indices of `mode` in the reshaped state tensor; no
    full-size kron(I, K) is formed.  Returns the raw matrix, which is
    sub-normalized for a heralded branch, so the caller can read its trace
    before validating it as a DensityMatrix.
    """
    cfg = state.config
    cfg.check_mode(mode)
    d = cfg.dim_per_mode
    kraus = np.asarray(ops, dtype=complex)
    if kraus.ndim != 3 or kraus.shape[1:] != (d, d):
        raise ValueError(f"expected a stack of {d}x{d} operators, got shape {kraus.shape}")
    superop = np.tensordot(kraus, kraus.conj(), axes=(0, 0)).transpose(0, 2, 1, 3)
    pre, post = d**mode, d ** (cfg.mode_count - 1 - mode)
    tensor = state.elements.reshape(pre, d, post, pre, d, post)
    out = np.tensordot(superop, tensor, axes=([2, 3], [1, 4]))
    return out.transpose(2, 0, 3, 4, 1, 5).reshape(cfg.dim, cfg.dim)


def normalize(state: DensityMatrix) -> tuple[DensityMatrix, float]:
    """Split a sub-normalized branch into (trace-one state, probability)."""
    prob = state.trace
    if prob <= tolerances.HERALD_MIN_PROBABILITY:
        raise InvalidStateError(
            f"trace {prob:.3e} too small to normalize (impossible branch)"
        )
    return DensityMatrix(state.config, state.elements / prob), prob

