"""Dense linear algebra over the truncated two-mode Fock space.

States are immutable value objects: every operation returns a new instance
and the backing arrays are marked read-only, so independent scenarios can
safely be evaluated concurrently.  Operators are plain numpy arrays, and so
are the states of the tests' three-mode oracle, which tensor_product,
apply_unitary and partial_trace take and return.

Mode ordering: mode A (0) is the slower tensor factor, i.e. the flat index
of |n_A, n_B> is n_A d + n_B with d = n_max + 1.

Operators are plain truncations of their infinite-dimensional counterparts;
cutoff artifacts (e.g. the commutator defect in the top Fock level) are
quantified in tests rather than hidden behind renormalization.

Every state is real and phase-symmetric (block diagonal in Delta = n_A - n_B),
as a `DensityMatrix` checks where it is built; so its first moments vanish,
and `quadratures` reads its second moments from photon numbers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tolerances


class InvalidStateError(ValueError):
    """A density matrix violates Hermiticity, positivity or trace bounds."""


class HeraldingImpossibleError(InvalidStateError):
    """A click was conditioned on but carries (numerically) zero probability."""

    def __init__(self, probability: float):
        self.probability = probability
        super().__init__(f"heralding probability {probability:.3e} is vanishing")


@dataclass(frozen=True)
class HilbertConfig:
    """Shape of the truncated two-mode state space: the per-mode cutoff."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def dim_per_mode(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return self.dim_per_mode**2


@functools.cache
def _off_block_mask(d: int) -> np.ndarray:
    """Read-only, one per cutoff: True where row and column n_A - n_B differ."""
    delta = np.subtract.outer(np.arange(d), np.arange(d)).ravel()  # n_A - n_B per flat index
    mask = delta[:, None] != delta
    mask.setflags(write=False)
    return mask


def _check_real(elements) -> None:
    if np.iscomplexobj(elements):
        raise InvalidStateError("state is complex; every state of this model is real")


@dataclass(frozen=True)
class DensityMatrix:
    """Real symmetric PSD matrix over the two-mode Fock basis, trace in (0, 1],
    with no element between Delta blocks above OFF_BLOCK_ATOL times the trace.

    A trace below one encodes a sub-normalized state; :func:`normalize` turns
    a raw heralded branch into a conditional state plus probability.
    """

    config: HilbertConfig
    elements: np.ndarray

    def __post_init__(self):
        _check_real(self.elements)
        rho = np.array(self.elements, dtype=float)
        rho.setflags(write=False)
        dim = self.config.dim
        if rho.shape != (dim, dim):
            raise InvalidStateError(f"state shape {rho.shape} does not match dimension {dim}")
        if not np.all(np.isfinite(rho)):
            raise InvalidStateError("state has a non-finite element")
        herm_defect = np.max(np.abs(rho - rho.T))
        if not herm_defect <= tolerances.HERMITICITY_ATOL:
            raise InvalidStateError(f"not Hermitian: max defect {herm_defect:.3e}")
        lowest = np.linalg.eigvalsh(rho)[0]
        if not lowest >= tolerances.EIGENVALUE_FLOOR:
            raise InvalidStateError(f"negative eigenvalue {lowest:.3e}")
        trace = np.trace(rho)
        if not 0.0 < trace <= 1.0 + tolerances.TRACE_UPPER_SLACK:
            raise InvalidStateError(f"trace {trace:.3e} outside (0, 1]")
        mask = _off_block_mask(self.config.dim_per_mode)
        off_block = np.max(np.abs(rho), where=mask, initial=0.0) / trace
        if not off_block <= tolerances.OFF_BLOCK_ATOL:
            raise InvalidStateError(f"state is not phase-symmetric: off-block element {off_block:.3e}")
        object.__setattr__(self, "elements", rho)

    @property
    def trace(self) -> float:
        return float(np.trace(self.elements))


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Joint state array a (x) b; the modes of `b` follow those of `a`."""
    return np.kron(a, b)


def apply_unitary(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Conjugate a state array: rho -> U rho U^dag.  Trace is preserved."""
    if u.shape != rho.shape:
        raise ValueError(f"unitary shape {u.shape} does not match state shape {rho.shape}")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(len(u))))
    if not defect <= tolerances.UNITARITY_ATOL:
        raise ValueError(f"operator is not unitary: max defect {defect:.3e}")
    return u @ rho @ u.conj().T


def partial_trace(rho: np.ndarray, d: int, mode: int) -> np.ndarray:
    """Trace `mode` out of a state array of m >= 2 modes of d levels each.

    The mode count m is read from the shape (d^m, d^m).
    """
    m = round(np.log(len(rho)) / np.log(d))
    if m < 2 or rho.shape != (d**m, d**m):
        raise ValueError(f"shape {rho.shape} is not a state of two or more {d}-level modes")
    if not 0 <= mode < m:
        raise ValueError(f"mode {mode} out of range for a {m}-mode state")
    reduced = np.trace(rho.reshape((d,) * (2 * m)), axis1=mode, axis2=m + mode)
    return reduced.reshape(d ** (m - 1), d ** (m - 1))


def apply_mode_kraus(state: DensityMatrix, mode: int, ops) -> np.ndarray:
    """Apply rho -> sum_i K_i rho K_i^dag with single-mode operators on `mode`.

    The (n, d, d) family is stacked into the one-mode superoperator
    S[k, l, b, c] = sum_i K_i[k, b] conj(K_i[l, c]), which is contracted with
    the row and column indices of `mode` in the reshaped state tensor; no
    full-size kron(I, K) is formed.  Returns the raw matrix, which is
    sub-normalized for a heralded branch, so the caller can read its trace
    before validating it as a state.
    """
    if mode not in (0, 1):
        raise ValueError(f"mode {mode} out of range for a 2-mode space")
    cfg = state.config
    d = cfg.dim_per_mode
    kraus = np.asarray(ops)
    if kraus.ndim != 3 or kraus.shape[-2:] != (d, d):
        raise ValueError(f"expected a stack of {d}x{d} operators, got shape {kraus.shape}")
    flat = kraus.reshape(len(kraus), d * d)
    superop = (flat.T @ flat.conj()).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    pre, post = d**mode, d ** (1 - mode)
    tensor = state.elements.reshape(pre, d, post, pre, d, post)
    out = np.tensordot(superop, tensor, axes=([2, 3], [1, 4]))
    return out.transpose(2, 0, 3, 4, 1, 5).reshape(cfg.dim, cfg.dim)


def normalize(config: HilbertConfig, branch: np.ndarray) -> tuple[DensityMatrix, float]:
    """Condition a raw heralded branch on its herald: (conditional state, p).

    Reads p = Tr(branch).  Raises InvalidStateError for a complex branch, a
    non-finite element or p above 1 + TRACE_UPPER_SLACK, and
    HeraldingImpossibleError when p <= HERALD_MIN_PROBABILITY; otherwise the
    branch divided by p must be a state.  For p <= 1 that check is at least
    as strict as checking the branch.
    """
    _check_real(branch)
    if not np.all(np.isfinite(branch)):
        raise InvalidStateError("branch has a non-finite element")
    prob = float(np.trace(branch))
    if not prob <= 1.0 + tolerances.TRACE_UPPER_SLACK:
        raise InvalidStateError(f"trace {prob:.3e} outside (0, 1]")
    if not prob > tolerances.HERALD_MIN_PROBABILITY:
        raise HeraldingImpossibleError(prob)
    return DensityMatrix(config, branch / prob), prob

