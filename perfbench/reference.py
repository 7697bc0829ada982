"""Independent physics references for the benchmark's output checks.

Nothing here imports eprdistill.  The states are built from their own ladder
matrices, the NLA step is written as a two-mode Kraus map on mode B, moments
use the exact Fock matrix elements of x^2 and p^2, detector efficiencies act
as loss on the state (the program applies them to moments in sweeps), and
the Hermite functions come from scipy.special rather than a recurrence.

Conventions match the program's outputs: two-mode index n_A * d + n_B,
X = (a + a^dag)/sqrt(2) (vacuum variance 1/2), squeezed source sum_n
gamma^n |n n>, beamsplitter exp(theta (b^dag c - b c^dag)) with sin theta = r
between the signal b and the ancilla c; the signal port is the detector and
the ancilla port carries the distilled light.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, pi, sqrt

import numpy as np
from scipy.linalg import expm
from scipy.special import eval_hermite


@dataclass(frozen=True)
class Scenario:
    """The loss-factor-20 scenario: one-sided loss tau^2 = 0.05 on mode B."""

    gamma: float = 0.135
    tau2: float = 0.05
    eta_ancilla: float = 0.65
    eta_a: float = 0.45
    eta_b: float = 0.5

    @property
    def tau(self) -> float:
        return sqrt(self.tau2)

    def beta(self, g: float) -> float:
        return 1.0 / (g * self.gamma * self.tau)


LOSSCHANNEL = Scenario()


def transmission_bound(tau2: float) -> float:
    """Best inseparability any deterministic channel leaves after loss tau2."""
    return (1.0 - tau2) / (1.0 + tau2)


def ladder(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


def squeezed_vacuum(gamma: float, d: int) -> np.ndarray:
    amp = np.zeros(d * d)
    amp[np.arange(d) * (d + 1)] = gamma ** np.arange(d)
    amp /= np.linalg.norm(amp)
    return np.outer(amp, amp).astype(complex)


def loss_kraus(d: int, transmission: float) -> list[np.ndarray]:
    """Kraus operators of loss with intensity transmission `transmission`."""
    ops = []
    for k in range(d):
        op = np.zeros((d, d))
        for n in range(k, d):
            op[n - k, n] = sqrt(comb(n, k) * transmission ** (n - k) * (1.0 - transmission) ** k)
        ops.append(op)
    return ops


def apply_kraus(rho: np.ndarray, ops, mode: int, d: int) -> np.ndarray:
    """Sum_k (K_k on `mode`) rho (K_k on `mode`)^dag; ops may map d to d."""
    r4 = rho.reshape(d, d, d, d)
    spec = "ij,jbkc,lk->iblc" if mode == 0 else "ij,ajbk,lk->aibl"
    out = sum(np.einsum(spec, op, r4, op.conj(), optimize=True) for op in ops)
    return out.reshape(d * d, d * d)


def catalysis_kraus(d: int, r: float, eta_ancilla: float) -> list[np.ndarray]:
    """K_{n,j} = sqrt(w_j) <n|_det U_BS |j>_anc for clicks n >= 1.

    The ancilla holds |1> with weight eta_ancilla and |0> with 1 - eta_ancilla.
    U_BS lives on (signal, ancilla) with the signal slow; its output signal
    port is the click detector and its output ancilla port the new mode B.
    """
    a = ladder(d)
    eye = np.eye(d)
    b, c = np.kron(a, eye), np.kron(eye, a)
    u = expm(np.arcsin(r) * (b.T @ c - b @ c.T)).reshape(d, d, d, d)
    weights = ((0, 1.0 - eta_ancilla), (1, eta_ancilla))
    return [sqrt(w) * u[n, :, :, j] for n in range(1, d) for j, w in weights]


def distill(rho: np.ndarray, d: int, g: float, eta_ancilla: float) -> tuple[np.ndarray, float]:
    """Heralded NLA of gain g on mode B: (normalized state, click probability)."""
    out = apply_kraus(rho, catalysis_kraus(d, 1.0 / g, eta_ancilla), 1, d)
    p = float(np.real(np.trace(out)))
    return out / p, p


def detect(rho: np.ndarray, d: int, eta_a: float, eta_b: float) -> np.ndarray:
    """Homodyne detector efficiencies as loss on each mode."""
    rho = apply_kraus(rho, loss_kraus(d, eta_a), 0, d)
    return apply_kraus(rho, loss_kraus(d, eta_b), 1, d)


def reduced(rho: np.ndarray, d: int, mode: int) -> np.ndarray:
    r4 = rho.reshape(d, d, d, d)
    return np.einsum("abcb->ac", r4) if mode == 0 else np.einsum("abad->bd", r4)


def _squares(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact x^2, p^2 matrix elements on levels 0..d-1 (no cutoff defect)."""
    n = np.arange(d)
    off = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0)) / 2.0
    x2 = np.diag(n + 0.5) + np.diag(off, 2) + np.diag(off, -2)
    p2 = np.diag(n + 0.5) - np.diag(off, 2) - np.diag(off, -2)
    return x2, p2


@dataclass(frozen=True)
class Moments:
    xx_a: float
    pp_a: float
    xx_b: float
    pp_b: float
    xa_xb: float
    pa_pb: float

    @property
    def v_diff(self) -> float:
        return self.xx_a + self.xx_b - 2.0 * self.xa_xb

    @property
    def v_sum(self) -> float:
        return self.xx_a + self.xx_b + 2.0 * self.xa_xb

    def duan(self) -> float:
        """min over a of [<(X_A - a X_B)^2> + <(P_A + a P_B)^2>] / (1 + a^2)."""
        k = self.xa_xb - self.pa_pb
        quad = np.array([[self.xx_a + self.pp_a, -k], [-k, self.xx_b + self.pp_b]])
        return float(np.linalg.eigvalsh(quad)[0])


def moments(rho: np.ndarray, d: int) -> Moments:
    """Second moments Tr(rho O); linear in rho, so pass a trace-one state."""
    x2, p2 = _squares(d)
    a = ladder(d)
    x = (a + a.T) / sqrt(2.0)
    p = (a - a.T) / (1j * sqrt(2.0))
    rho_a, rho_b = reduced(rho, d, 0), reduced(rho, d, 1)

    def ev(op, state):
        return float(np.real(np.sum(state * op.T)))

    return Moments(
        xx_a=ev(x2, rho_a), pp_a=ev(p2, rho_a),
        xx_b=ev(x2, rho_b), pp_b=ev(p2, rho_b),
        xa_xb=ev(np.kron(x, x), rho), pa_pb=ev(np.kron(p, p), rho),
    )


@dataclass(frozen=True)
class SweepPoint:
    v_diff: float
    v_sum: float
    duan_i: float
    herald_p: float


def detected_state(sc: Scenario, n_max: int, g: float) -> tuple[np.ndarray, float]:
    """Source, loss on B, NLA, detector loss: (state, click probability)."""
    d = n_max + 1
    rho = apply_kraus(squeezed_vacuum(sc.gamma, d), loss_kraus(d, sc.tau2), 1, d)
    distilled, p = distill(rho, d, g, sc.eta_ancilla)
    return detect(distilled, d, sc.eta_a, sc.eta_b), p


def sweep_point(sc: Scenario, n_max: int, g: float) -> SweepPoint:
    """One full-numeric sweep row."""
    rho, p = detected_state(sc, n_max, g)
    m = moments(rho, n_max + 1)
    return SweepPoint(m.v_diff, m.v_sum, m.duan(), p)


def single_photon_variances(sc: Scenario, g) -> tuple[np.ndarray, np.ndarray]:
    """(v_diff, v_sum) of the single-photon-level model at gain(s) g, detectors applied.

    Heralded branch with an ancilla photon: beta|00> + |11> with
    beta = r/(gamma tau), weight eta_ancilla.  Without one, only the signal
    photon clicks, leaving |10> with weight 1 - eta_ancilla (in units of
    (gamma tau)^2, like beta^2).  Moments are linear in the state, so the
    variances of each of its four Fock-basis terms are combined per gain.
    """
    beta = np.asarray(sc.beta(np.asarray(g, dtype=float)))[..., None]

    def variances(*pairs):
        rho = np.zeros((4, 4), dtype=complex)
        for i, j in pairs:
            rho[i, j] = 1.0
        m = moments(detect(rho, 2, sc.eta_a, sc.eta_b), 2)
        return np.array([m.v_diff, m.v_sum])

    eta = sc.eta_ancilla
    vac, coherence, pair, lone = (variances((0, 0)), variances((0, 3), (3, 0)),
                                  variances((3, 3)), variances((2, 2)))
    total = eta * (beta**2 * vac + beta * coherence + pair) + (1.0 - eta) * lone
    out = total / (eta * (beta**2 + 1.0) + 1.0 - eta)
    return out[..., 0], out[..., 1]


def equivalent_variances(gamma_eq: float, eta_a: float, eta_b: float) -> tuple[float, float]:
    """Forward map 1 + (eta_a + eta_b)(cosh 2g - 1)/2 -/+ sqrt(eta_a eta_b) sinh 2g."""
    c = np.cosh(2.0 * gamma_eq) - 1.0
    s = np.sinh(2.0 * gamma_eq)
    root = sqrt(eta_a * eta_b)
    mean = 0.5 * (eta_a + eta_b)
    return 1.0 + mean * c - root * s, 1.0 + mean * c + root * s


def hermite_function(n: int, x: np.ndarray) -> np.ndarray:
    norm = 1.0 / sqrt(2.0**n * factorial(n) * sqrt(pi))
    return norm * eval_hermite(n, x) * np.exp(-0.5 * x * x)


def marginal_density(rho_mode: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Position density of a single-mode state at the points x."""
    psi = np.array([hermite_function(n, x) for n in range(rho_mode.shape[0])])
    return np.einsum("mi,mn,ni->i", psi, np.real(rho_mode), psi)
