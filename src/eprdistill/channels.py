"""State preparation and physical channels for the distillation circuit.

Provides the two-mode squeezed vacuum source, photon loss, the mixing
beamsplitter, click heralding, and the noiseless-amplification step (quantum
catalysis), which composes a heralded single-photon ancilla, the
beamsplitter and the click into one heralded Kraus map on the signal mode.

Sign conventions, pinned once so every downstream number is reproducible:

* The two-mode squeezed source uses +gamma^n coefficients on |nn>, which
  makes <X_A X_B> positive and the X-difference the squeezed combination.
* The beamsplitter acts as the real rotation [[t, r], [-r, t]] on the
  annihilation operators of (mode_a, mode_b), t = sqrt(1 - r^2).

With these choices the heralded output of the catalysis step approaches the
superposition of |00> and |11> with weights (r, gamma*tau) and a positive
cross-correlation.
"""

from __future__ import annotations

from math import comb, cos, frexp, radians

import numpy as np

from . import tolerances
from .fock import (
    DensityMatrix,
    HilbertConfig,
    annihilation_operator,
    apply_mode_kraus,
    normalize,
    partial_trace,
    pure_state,
)


class HeraldingImpossibleError(ValueError):
    """A click was conditioned on but carries (numerically) zero probability."""

    def __init__(self, probability: float):
        self.probability = probability
        super().__init__(f"heralding probability {probability:.3e} is vanishing")


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")


def tmsv_state(gamma: float, config: HilbertConfig) -> DensityMatrix:
    """Two-mode squeezed vacuum with coefficients gamma^n on |nn>, truncated.

    gamma is the coefficient ratio of consecutive |nn> terms (equivalently the
    tanh of the squeezing strength), so <(X_A - X_B)^2> = (1-gamma)/(1+gamma)
    up to cutoff error.
    """
    _check_gamma(gamma)
    if config.mode_count != 2:
        raise ValueError("two-mode squeezed vacuum needs a 2-mode space")
    vec = np.zeros(config.dim, dtype=complex)
    for n in range(config.dim_per_mode):
        vec[config.index_of((n, n))] = gamma**n
    return pure_state(config, vec)


def pump_rotation_degrade(gamma: float, theta_deg: float) -> float:
    """Squeezing reduction from rotating the pump polarization by theta."""
    _check_gamma(gamma)
    if not 0.0 <= theta_deg <= 90.0:
        raise ValueError(f"theta must be in [0, 90] degrees, got {theta_deg}")
    return gamma * cos(radians(theta_deg))


def loss_kraus_operators(n_max: int, tau: float) -> list[np.ndarray]:
    """Single-mode photon-loss Kraus family for amplitude transmissivity tau.

    K_k removes k photons: K_k[n-k, n] = sqrt(C(n,k)) tau^(n-k) (1-tau^2)^(k/2).
    The family is complete on the truncated space (sum K^dag K = 1 exactly).
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    d = n_max + 1
    one_minus_t2 = max(0.0, 1.0 - tau * tau)
    ops = []
    for k in range(d):
        mat = np.zeros((d, d), dtype=complex)
        for n in range(k, d):
            mat[n - k, n] = np.sqrt(comb(n, k)) * tau ** (n - k) * one_minus_t2 ** (k / 2.0)
        ops.append(mat)
    completeness = sum(op.conj().T @ op for op in ops)
    defect = np.max(np.abs(completeness - np.eye(d)))
    if defect > 1e-12:
        raise AssertionError(f"Kraus completeness defect {defect:.3e}")
    return ops


def loss_channel(state: DensityMatrix, mode: int, tau: float) -> DensityMatrix:
    """Photon loss on one mode, trace preserving, vacuum fixed point."""
    ops = loss_kraus_operators(state.config.n_max, tau)
    return DensityMatrix(state.config, apply_mode_kraus(state, mode, ops))


def beamsplitter_unitary(
    config: HilbertConfig, mode_a: int, mode_b: int, r: float
) -> np.ndarray:
    """Beamsplitter unitary exp(theta (a^dag b - a b^dag)), sin(theta) = r.

    In the single-photon sector this is [[t, r], [-r, t]] on (|1 0>, |0 1>):
    a photon entering mode_b reaches mode_a with amplitude +r, one entering
    mode_a reaches mode_b with amplitude -r.  Total photon number is
    conserved exactly, including at the cutoff.

    The exponential is a Taylor series with scaling and squaring (Moler &
    Van Loan, SIAM Review 45, 3 (2003)): 14 terms at 1-norm <= 1/2 leave an
    error below 0.5^15 / 15! < 3e-17.  G conserves n_a + n_b and the other
    modes' occupations, so it is block diagonal, and every product keeps the
    elements between blocks exactly 0.0.  U is real.
    """
    config.check_mode(mode_a)
    config.check_mode(mode_b)
    if mode_a == mode_b:
        raise ValueError("beamsplitter needs two distinct modes")
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"reflectivity must be in [0, 1], got {r}")
    a = annihilation_operator(config, mode_a)
    b = annihilation_operator(config, mode_b)
    generator = np.arcsin(r) * (a.T @ b - a @ b.T)
    # the 1-norm is m 2^e with 1/2 <= m < 1, so e + 1 halvings bring it below 1/2
    squarings = max(0, frexp(np.abs(generator).sum(axis=0).max())[1] + 1)
    x = generator / 2**squarings
    term = u = np.eye(config.dim)
    for k in range(1, 15):
        term = term @ x / k
        u = u + term
    return np.linalg.matrix_power(u, 2**squarings)


def herald_click(state: DensityMatrix, mode: int) -> tuple[DensityMatrix, float]:
    """Condition on a click of a non-number-resolving detector on one mode.

    Applies the click POVM E = 1 - |0><0| (diagonal, so E^(1/2) rho E^(1/2)
    reduces to masking the Fock-diagonal blocks), traces out the detected
    mode, and returns the normalized conditional state together with the
    click probability p = Tr[(1 (x) E) rho].
    """
    cfg = state.config
    cfg.check_mode(mode)
    mask = (cfg.mode_occupations(mode) >= 1).astype(float)
    masked = state.elements * np.outer(mask, mask)
    prob = float(np.real(np.trace(masked)))
    if prob <= tolerances.HERALD_MIN_PROBABILITY:
        raise HeraldingImpossibleError(prob)
    reduced = partial_trace(DensityMatrix(cfg, masked), mode)
    conditional, traced_prob = normalize(reduced)
    return conditional, traced_prob


def catalysis_kraus_operators(n_max: int, r: float, eta: float) -> np.ndarray:
    """Heralded Kraus family of the catalysis step, acting on the signal mode.

    With U the two-mode beamsplitter on (detector port, surviving port) fed
    by (signal, ancilla), K_{n,j} = sqrt(w_j) <n|_det U |j>_anc for clicks
    n >= 1 and ancilla j in {0, 1} with weights w = (1 - eta, eta).  The
    three-mode circuit unitary is I_A (x) U, so these operators reproduce it
    exactly, truncation at the cutoff included.  For each j the unheralded
    family (n >= 0) must be complete.  Returns the stack of 2 * n_max
    operators, shape (2 n_max, d, d).
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    d = n_max + 1
    # the ancilla enters port 1 and reaches port 0 with amplitude +r, so
    # port 0 is the detector: u[n, k, b, j] = <n, k| U |b, j> with detector
    # n, surviving output k, signal b and ancilla j
    u = beamsplitter_unitary(HilbertConfig(n_max, 2), 0, 1, r)
    u = u.reshape(d, d, d, d)[..., :2]
    gram = np.einsum("nkbj,nkcj->jbc", u, u)
    defect = np.max(np.abs(gram - np.eye(d)))
    if defect > 1e-12:
        raise AssertionError(f"Kraus completeness defect {defect:.3e}")
    weighted = u[1:] * np.sqrt([1.0 - eta, eta])
    return weighted.transpose(0, 3, 1, 2).reshape(2 * n_max, d, d)


def nla_catalysis(
    epr: DensityMatrix, r: float, eta_ancilla: float
) -> tuple[DensityMatrix, float]:
    """One noiseless-amplification step on mode B of a two-mode state.

    The signal mode interferes with a single-photon ancilla, prepared with
    efficiency eta_ancilla, on a beamsplitter of amplitude reflectivity r
    (the NLA gain is g = 1/r); a click of the detector watching the port
    into which the ancilla is reflected heralds success.  The surviving
    output port (carrying the transmitted ancilla plus the reflected signal)
    replaces mode B of the returned two-mode state.

    The step runs as the heralded Kraus map of `catalysis_kraus_operators`
    on mode B.  The three-mode circuit (ancilla, beamsplitter, click) is
    never built here; the tests keep it as an oracle and check that it gives
    the same state.

    Returns the distilled state and the heralding probability.  For a
    vacuum-signal input the probability is exactly eta_ancilla * r^2.
    """
    if epr.config.mode_count != 2:
        raise ValueError("catalysis expects a 2-mode input state")
    kraus = catalysis_kraus_operators(epr.config.n_max, r, eta_ancilla)
    branch = apply_mode_kraus(epr, 1, kraus)
    prob = float(np.real(np.trace(branch)))
    if prob <= tolerances.HERALD_MIN_PROBABILITY:
        raise HeraldingImpossibleError(prob)
    return normalize(DensityMatrix(epr.config, branch))
