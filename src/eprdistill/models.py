"""Closed-form reference models for the distillation circuit.

These are the analytic layers the numeric circuit is validated against: the
ideal limit of the heralded superposition, the single-photon-level model
with an inefficient ancilla, the deterministic transmission bound, and the
degraded-state (no heralding) predictions.
"""

from __future__ import annotations

import warnings

import numpy as np

from .quadratures import CovarianceSummary, apply_detection_efficiency

# The squeezed difference variance (beta^2 + 3 - 2 beta)/(beta^2 + 1) is
# minimized here, taking the value 2 - sqrt(2).
BETA_OPTIMAL = 1.0 + np.sqrt(2.0)
V_DIFF_OPTIMAL = 2.0 - np.sqrt(2.0)


def _check_beta(beta: float) -> None:
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")


def beta_from_gain(gain: float, gamma: float, tau: float) -> float:
    """beta = r/(gamma tau) = 1/(g gamma tau) for NLA gain g = 1/r.

    `gain` may be an array of gains, giving one beta per gain.
    """
    if not np.all(gain >= 1.0):
        raise ValueError(f"gain must be >= 1, got {gain}")
    if not gamma * tau > 0.0:
        raise ValueError("gamma * tau must be positive")
    return 1.0 / (gain * gamma * tau)


def ideal_variances(beta: float) -> tuple[float, float]:
    """Sum/difference variances of the ideal distilled superposition.

    v_diff = (beta^2 + 3 - 2 beta)/(beta^2 + 1) carries the squeezing and is
    minimized at beta = 1 + sqrt(2); v_sum is the antisqueezed partner.
    Both tend to 1 (vacuum) as beta -> infinity and their product stays >= 1.
    """
    _check_beta(beta)
    denom = beta * beta + 1.0
    v_diff = (beta * beta + 3.0 - 2.0 * beta) / denom
    v_sum = (beta * beta + 3.0 + 2.0 * beta) / denom
    return v_diff, v_sum


def optimal_gain(gamma: float, tau: float) -> float:
    """Gain that minimizes the two-mode squeezing: g = 1/(gamma tau (1+sqrt 2))."""
    if not gamma * tau > 0.0:
        raise ValueError("gamma * tau must be positive")
    return 1.0 / (gamma * tau * BETA_OPTIMAL)


def sp_model(
    gamma: float, tau: float, gain: float, eta: float
) -> tuple[CovarianceSummary, float]:
    """Distilled-state covariance and click probability in the single-photon-level model.

    Valid deep in the 0/1-photon regime (gamma, tau << 1, r ~ gamma tau);
    eta is the ancilla preparation efficiency.  The returned moments do not
    include detector efficiencies; compose with apply_detection_efficiency
    for the full prediction.  At eta = 1 they reduce exactly to
    ideal_variances.  The heralded branch has unnormalized weight
    eta (r^2 + (gamma tau)^2) from the coherent paths plus
    (1 - eta) (gamma tau)^2 from the ancilla-vacuum branch, relative to the
    input norm 1 + (gamma tau)^2.  `gain` may be an array of gains: the
    moments and the probability are then columns, one element per gain.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    beta = beta_from_gain(gain, gamma, tau)
    denom = 2.0 * (1.0 + eta * beta * beta)
    diag_a = (eta * (beta * beta + 3.0) + 3.0 * (1.0 - eta)) / denom
    diag_b = (eta * (beta * beta + 3.0) + (1.0 - eta)) / denom
    cross = eta * beta / (1.0 + eta * beta * beta)
    r = 1.0 / gain
    gt2 = (gamma * tau) ** 2
    herald_p = (eta * (r * r + gt2) + (1.0 - eta) * gt2) / (1.0 + gt2)
    return CovarianceSummary(xx_a=diag_a, xx_b=diag_b, xa_xb=cross), herald_p


def sp_model_covariance(
    gamma: float, tau: float, gain: float, eta: float
) -> CovarianceSummary:
    """The covariance of sp_model."""
    return sp_model(gamma, tau, gain, eta)[0]


def deterministic_bound(tau: float) -> float:
    """Best inseparability achievable by any state after one-sided loss.

    I = (1 - tau^2)/(1 + tau^2) with tau the amplitude transmissivity; no
    deterministic transmission through the channel can do better, so a
    distilled state below this value beats direct transmission.  At tau = 0
    the bound degenerates to the separability boundary 1 (warned about).
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if tau == 0.0:
        warnings.warn("tau = 0: bound degenerates to the boundary value 1")
        return 1.0
    t2 = tau * tau
    return (1.0 - t2) / (1.0 + t2)


def tmsv_covariance(gamma: float) -> CovarianceSummary:
    """Closed-form second moments of the two-mode squeezed vacuum.

    With tanh(s) = gamma: diagonal moments cosh(2s)/2, cross moments
    +-sinh(2s)/2, hence v_diff = (1-gamma)/(1+gamma).
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    denom = 1.0 - gamma * gamma
    diag = 0.5 * (1.0 + gamma * gamma) / denom
    cross = gamma / denom
    return CovarianceSummary(xx_a=diag, xx_b=diag, xa_xb=cross)


def degraded_variances(
    gamma: float, tau: float, eta_a: float, eta_b: float
) -> tuple[float, float]:
    """Sum/difference variances of the undistilled degraded state.

    Closed-form pipeline: squeezed-source moments, one-sided loss of
    amplitude transmissivity tau on mode B, then detector efficiencies.
    Models what homodyne detection would see without any heralding.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    lossy = apply_detection_efficiency(tmsv_covariance(gamma), 1.0, tau * tau)
    detected = apply_detection_efficiency(lossy, eta_a, eta_b)
    return detected.v_diff, detected.v_sum
