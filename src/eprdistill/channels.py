"""State preparation and physical channels for the distillation circuit.

Provides the two-mode squeezed vacuum source, photon loss, and the
noiseless-amplification step (quantum catalysis), which composes a heralded
single-photon ancilla, the mixing beamsplitter and the click detector into
one heralded Kraus map on mode B, so every state stays a two-mode state.
Loss and that map share one table of binomial beamsplitter amplitudes, loss
being that beamsplitter with a vacuum ancilla.  A gain sweep reads that map
in the Heisenberg picture (`quadratures.kraus_moments` on the families of
`catalysis_kraus_operators`) and builds no heralded state.  Each real Kraus
operator shifts its mode's photon number by a fixed amount, so every state
stays block diagonal in n_A - n_B, as its `DensityMatrix` checks.  The dense
beamsplitter unitary and the three-mode click serve the tests' oracle.

Sign conventions, pinned once so every downstream number is reproducible:

* The two-mode squeezed source uses +gamma^n coefficients on |nn>, which
  makes <X_A X_B> positive and the X-difference the squeezed combination.
* The beamsplitter acts as the real rotation [[t, r], [-r, t]] on the
  annihilation operators of modes (0, 1), t = sqrt(1 - r^2).

With these choices the heralded output of the catalysis step approaches the
superposition of |00> and |11> with weights (r, gamma*tau) and a positive
cross-correlation.
"""

from __future__ import annotations

from math import comb, cos, radians

import numpy as np

from . import tolerances
from .fock import (
    DensityMatrix,
    HilbertConfig,
    apply_mode_kraus,
    normalize,
    partial_trace,
    pure_state,
)


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
    d = config.dim_per_mode
    vec = np.zeros(config.dim)
    vec[:: d + 1] = [gamma**n for n in range(d)]
    return pure_state(config, vec)


def pump_rotation_degrade(gamma: float, theta_deg: float) -> float:
    """Squeezing reduction from rotating the pump polarization by theta."""
    _check_gamma(gamma)
    if not 0.0 <= theta_deg <= 90.0:
        raise ValueError(f"theta must be in [0, 90] degrees, got {theta_deg}")
    return gamma * cos(radians(theta_deg))


def loss_kraus_operators(n_max: int, tau) -> np.ndarray:
    """Single-mode photon-loss Kraus family for amplitude transmissivity tau.

    K_k removes k photons: K_k[n-k, n] = sqrt(C(n,k)) tau^(n-k) (1-tau^2)^(k/2).
    Returns the complete family as a (d, d, d) stack, or for a 1-D array of
    G transmissivities the (G, d, d, d) stack, each slice its single call.
    """
    taus = _check_unit(tau, "tau")
    d = n_max + 1
    k, n = np.triu_indices(d)
    power = np.frompyfunc(pow, 2, 1)  # numpy's SIMD power can differ from pow by an ulp
    tau_powers = power.outer(taus, range(d)).astype(float)
    lost_powers = power.outer(1.0 - taus * taus, np.arange(d) / 2.0).astype(float)
    root_binomials = np.sqrt(np.frompyfunc(comb, 2, 1)(n, k).astype(float))
    ops = np.zeros((len(taus), d, d, d))
    ops[:, k, n - k, n] = root_binomials * tau_powers[:, n - k] * lost_powers[:, k]
    _check_complete(ops)
    return ops if np.ndim(tau) else ops[0]


def _check_complete(families: np.ndarray) -> None:
    """Raise unless every (..., n, d, d) family has sum_i K_i^T K_i = 1."""
    d = families.shape[-1]
    columns = families.reshape(*families.shape[:-3], -1, d)
    defect = np.max(np.abs(columns.swapaxes(-1, -2) @ columns - np.eye(d)))
    if not defect <= tolerances.KRAUS_COMPLETENESS_ATOL:
        raise AssertionError(f"Kraus completeness defect {defect:.3e}")


def _check_unit(value, name: str) -> np.ndarray:
    values = np.atleast_1d(value)
    if not np.all((0.0 <= values) & (values <= 1.0)):
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return values


def loss_channel(state: DensityMatrix, mode: int, tau: float) -> DensityMatrix:
    """Photon loss on one mode, trace preserving, vacuum fixed point."""
    ops = loss_kraus_operators(state.config.n_max, tau)
    return DensityMatrix(state.config, apply_mode_kraus(state, mode, ops))


def beamsplitter_unitary(n_max: int, r) -> np.ndarray:
    """Two-mode beamsplitter exp(theta (a^dag b - a b^dag)), sin(theta) = r.

    In the single-photon sector this is [[t, r], [-r, t]] on (|1 0>, |0 1>):
    a photon entering mode 1 reaches mode 0 with amplitude +r, one entering
    mode 0 reaches mode 1 with amplitude -r.  Total photon number is
    conserved exactly, including at the cutoff.  U is real and dense; the
    pipeline never builds it (`catalysis_kraus_operators` computes only the
    columns it reads), so it serves the tests as an oracle.  A 1-D array of
    G reflectivities gives the (G, D, D) stack, each slice its single call.
    """
    rs = _check_unit(r, "reflectivity")
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)  # the truncated ladder
    u = _expm(np.arcsin(rs)[:, None, None] * (np.kron(a.T, a) - np.kron(a, a.T)))
    return u if np.ndim(r) else u[0]


def _expm(generator: np.ndarray) -> np.ndarray:
    """exp of a (G, m, m) stack by a 14-term Taylor series with scaling and
    squaring (Moler & Van Loan, SIAM Review 45, 3 (2003)), error < 3e-17;
    each slice keeps its own squaring count, so it equals its single call."""
    # the 1-norm is m 2^e with 1/2 <= m < 1, so e + 1 halvings bring it below 1/2
    squarings = np.maximum(0, np.frexp(np.abs(generator).sum(axis=1).max(axis=1))[1] + 1)
    x = generator / (2.0**squarings)[:, None, None]
    term = u = np.eye(generator.shape[1])
    for k in range(1, 15):
        term = term @ x / k
        u = u + term
    for step in range(squarings.max()):
        more = squarings > step
        u[more] = u[more] @ u[more]
    return u


def herald_click(rho: np.ndarray, n_max: int, mode: int) -> tuple[DensityMatrix, float]:
    """Condition a three-mode state array on a click of a non-number-resolving
    detector on `mode`.

    Applies the click POVM E = 1 - |0><0| (diagonal, so E^(1/2) rho E^(1/2)
    reduces to masking the Fock-diagonal blocks), traces out the detected
    mode and normalizes the two-mode branch.  Returns the conditional state
    together with the click probability p = Tr[(1 (x) E) rho].
    """
    d = n_max + 1
    mask = (np.indices((d, d, d))[mode].ravel() >= 1).astype(float)
    branch = partial_trace(rho * np.outer(mask, mask), d, mode)
    return normalize(HilbertConfig(n_max), branch)


def catalysis_kraus_operators(n_max: int, r, eta: float) -> np.ndarray:
    """Heralded Kraus family of the catalysis step, acting on the signal mode.

    With U the two-mode beamsplitter on (detector port, surviving port) fed
    by (signal, ancilla), K_{n,j} = sqrt(w_j) <n|_det U |j>_anc for clicks
    n >= 1 and ancilla j in {0, 1} with weights w = (1 - eta, eta).  The
    three-mode circuit unitary is I_A (x) U, so these operators reproduce it
    exactly, truncation at the cutoff included.  U itself is never built:
    its j = 0 half is the loss family of transmissivity r signed (-1)^k, and
    below the cutoff the j = 1 half is binomial too (Campos, Saleh & Teich,
    PRA 40, 1371 (1989)); only its column b = n_max needs the exponential of
    the truncated n_max x n_max block.  For each j the unheralded family
    (n >= 0) is complete.  Returns the stack of 2 * n_max operators, shape
    (2 n_max, d, d), or for G reflectivities the G families, (G, 2 n_max, d, d).
    """
    _check_unit(eta, "eta")
    rs = _check_unit(r, "reflectivity")
    d = n_max + 1
    ladder = np.sqrt(np.arange(d))
    t = np.sqrt(1.0 - rs * rs)
    # u[g, n, k, b, j] = <n, k|U|b, j> with detector n, surviving output k,
    # signal b and ancilla j.  A signal photon stays with t and crosses with -r,
    u = np.zeros((len(rs), d, d, d, 2))
    u[..., 0] = (-1.0) ** np.arange(d)[:, None] * loss_kraus_operators(n_max, rs)
    # the ancilla photon crosses with r and stays with t,
    u[:, 1:, ..., 1] = rs[:, None, None, None] * ladder[1:, None, None] * u[:, :-1, ..., 0]
    u[:, :, 1:, :, 1] += t[:, None, None, None] * ladder[1:, None] * u[:, :, :-1, :, 0]
    # except that the cutoff truncates the n_max + 1 photons of |n_max, 1>:
    # there a^dag b takes |n, n_max + 1 - n> to |n + 1, n_max - n> with
    # sqrt(n + 1) sqrt(n_max + 1 - n)
    hops = ladder[2:] * ladder[n_max:1:-1]
    block = np.arcsin(rs)[:, None, None] * (np.diag(hops, -1) - np.diag(hops, 1))
    top = np.arange(1, d)
    u[:, top, d - top, n_max, 1] = _expm(block)[:, :, -1]
    _check_complete(u[..., 1])  # loss_kraus_operators checked j = 0
    weighted = u[:, 1:] * np.sqrt([1.0 - eta, eta])
    ops = weighted.transpose(0, 1, 4, 2, 3).reshape(-1, 2 * n_max, d, d)
    return ops if np.ndim(r) else ops[0]


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
    on mode B, so the state never leaves the two-mode space.  The tests
    write the three-mode circuit (ancilla, beamsplitter, click) out on plain
    arrays as an oracle and check that it gives the same state.

    Returns the distilled state and the heralding probability.  For a
    vacuum-signal input the probability is exactly eta_ancilla * r^2.  A
    gain sweep reads the same map through `quadratures.kraus_moments` instead.
    """
    kraus = catalysis_kraus_operators(epr.config.n_max, r, eta_ancilla)
    return normalize(epr.config, apply_mode_kraus(epr, 1, kraus))
