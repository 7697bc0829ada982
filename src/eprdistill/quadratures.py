"""Quadrature observables, covariance extraction, the Duan criterion, and
Monte-Carlo homodyne sampling.

Conventions: X = (a + a^dag)/sqrt(2), P = (a - a^dag)/(i sqrt(2)), so the
vacuum variance is 1/2 per quadrature and the shot-noise level of the
sum/difference combinations equals 1.  All states handled here are
phase-symmetric (block diagonal in n_A - n_B), hence zero-mean; measurements
are evaluated at the canonical phase pair (no local-oscillator phase scanning).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .fock import DensityMatrix, HilbertConfig


@dataclass(frozen=True)
class CovarianceSummary:
    """Second moments of a phase-symmetric state, vacuum variance 1/2.

    Phase symmetry gives <P_i^2> = xx_i and <P_A P_B> = -xa_xb.  v_diff =
    xx_a + xx_b - 2 xa_xb and v_sum = xx_a + xx_b + 2 xa_xb, shot noise at 1.
    """

    xx_a: float
    xx_b: float
    xa_xb: float

    def __post_init__(self):
        for name in ("xx_a", "xx_b"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"diagonal moment {name} must be positive")
        if abs(self.xa_xb) > np.sqrt(self.xx_a * self.xx_b) + tolerances.CROSS_MOMENT_SLACK:
            raise ValueError("xa_xb violates the Cauchy-Schwarz bound")

    @property
    def v_diff(self) -> float:
        return self.xx_a + self.xx_b - 2.0 * self.xa_xb

    @property
    def v_sum(self) -> float:
        return self.xx_a + self.xx_b + 2.0 * self.xa_xb


@dataclass(frozen=True)
class DuanResult:
    """Inseparability value I and the gain factor a that attains it.

    I < 1 certifies inseparability in this normalization (the vacuum and
    every product state sit at the boundary I = 1).
    """

    value: float
    a_star: float


def covariance_summary(state: DensityMatrix) -> CovarianceSummary:
    """Second moments of a phase-symmetric two-mode state.

    Phase-symmetric means block diagonal in Delta = n_A - n_B, as every state
    this library builds is.  Then the reduced states are diagonal and <ab> is
    the one two-mode ladder moment left, so xx = <P^2> = <n> + 1/2 per mode
    and xa_xb = -<P_A P_B> = Re<ab> (Weedbrook et al., RMP 84, 621 (2012)).
    Moments are taken relative to the trace.  Raises if an element between
    Delta blocks exceeds OFF_BLOCK_ATOL, which signals a circuit bug.
    """
    return covariance_summaries(state.config, state.elements[None])[0]


def covariance_summaries(config: HilbertConfig, states: np.ndarray) -> list[CovarianceSummary]:
    """`covariance_summary` of each state of a (G, dim, dim) stack, in one pass."""
    if config.mode_count != 2:
        raise ValueError("covariance extraction expects a 2-mode state")
    d = config.dim_per_mode
    rho = states / np.real(np.trace(states, axis1=1, axis2=2))[:, None, None]
    delta = config.mode_occupations(0) - config.mode_occupations(1)
    off_block = np.max(np.abs(rho[:, delta[:, None] != delta[None, :]]), initial=0.0)
    if off_block > tolerances.OFF_BLOCK_ATOL:
        raise ValueError(f"state is not phase-symmetric: off-block element {off_block:.3e}")
    levels = np.arange(d)
    populations = np.real(np.diagonal(rho, axis1=1, axis2=2)).reshape(-1, d, d)
    # sums, not matmuls: the latter's order of summation varies with G
    n_a = (populations.sum(axis=2) * levels).sum(axis=1)
    n_b = (populations.sum(axis=1) * levels).sum(axis=1)
    # Re<ab> = sum over m, n >= 1 of sqrt(m n) Re rho[(m-1, n-1), (m, n)]
    shifted = np.einsum("gijij->gij", rho.reshape(-1, d, d, d, d)[:, :-1, :-1, 1:, 1:])
    weights = np.sqrt(np.outer(levels[1:], levels[1:]))
    ab = np.sum(weights * np.real(shifted), axis=(1, 2))
    return [
        CovarianceSummary(na + 0.5, nb + 0.5, x)
        for na, nb, x in zip(n_a.tolist(), n_b.tolist(), ab.tolist())
    ]


def apply_detection_efficiency(
    cov: CovarianceSummary, eta_a: float, eta_b: float
) -> CovarianceSummary:
    """Map second moments through homodyne detector efficiencies.

    Diagonal moments mix toward the vacuum, eta*m + (1-eta)/2; cross moments
    scale by sqrt(eta_a * eta_b).  Equivalent to running a loss channel of
    intensity transmissivity eta on each mode before extraction.
    """
    for name, eta in (("eta_a", eta_a), ("eta_b", eta_b)):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {eta}")
    return CovarianceSummary(
        eta_a * cov.xx_a + 0.5 * (1.0 - eta_a),
        eta_b * cov.xx_b + 0.5 * (1.0 - eta_b),
        np.sqrt(eta_a * eta_b) * cov.xa_xb,
    )


def duan_inseparability(cov: CovarianceSummary) -> DuanResult:
    """Minimize I(a) = [<(X_A - a X_B)^2> + <(P_A + a P_B)^2>] / (1 + a^2).

    I(a) is the Rayleigh quotient of the 2x2 matrix [[n_A, -k], [-k, n_B]]
    with n_i = <X_i^2> + <P_i^2> = 2 xx_i and k = 2 xa_xb, evaluated at
    (1, a), so the minimum is its smaller eigenvalue and a* follows from the
    eigenvector (the stationarity condition k a^2 + a (n_B - n_A) - k = 0).
    a* has the sign of k, since n_A - I >= 0.  k is negative at low gain,
    where the catalysis output is dominated by the signal reflected with
    amplitude -r (losschannel at n_max = 3 gives a* < 0 for g = 1 and 1.25,
    a* > 0 for g = 1.5).  When both k vanishes and n_A = n_B every a is
    optimal and a* = 1 is returned by convention.
    """
    n_a = cov.xx_a + cov.xx_a
    n_b = cov.xx_b + cov.xx_b
    k = cov.xa_xb + cov.xa_xb
    gap = np.hypot(n_a - n_b, 2.0 * k)
    value = 0.5 * (n_a + n_b - gap)
    if abs(k) < 1e-15 * max(n_a, n_b):
        if abs(n_a - n_b) < 1e-12 * max(n_a, n_b):
            return DuanResult(0.5 * (n_a + n_b), 1.0)
        # uncorrelated and asymmetric: the infimum sits at a boundary
        return DuanResult(min(n_a, n_b), 0.0 if n_a <= n_b else np.inf)
    return DuanResult(value, (n_a - value) / k)


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions psi_0..psi_n_max at the points x.

    Convention matches X = (a + a^dag)/sqrt(2): psi_n(x) =
    pi^(-1/4) (2^n n!)^(-1/2) H_n(x) exp(-x^2/2), so the vacuum density
    |psi_0|^2 has variance 1/2.  Uses the stable two-term recurrence.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, x.size))
    out[0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * x * out[n] - np.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


def joint_quadrature_pdf(state: DensityMatrix, x_a, x_b) -> np.ndarray | float:
    """Joint position-quadrature density P(x_a, x_b) of a two-mode state.

    P = sum over rho[(m,n),(m',n')] psi_m(x_a) psi_m'(x_a) psi_n(x_b)
    psi_n'(x_b) with the Hermite functions matching the X convention.  The
    result integrates to the state's trace.  Inputs broadcast like numpy
    arrays; scalars in, scalar out.
    """
    cfg = state.config
    if cfg.mode_count != 2:
        raise ValueError("joint quadrature density expects a 2-mode state")
    xa_arr, xb_arr = np.broadcast_arrays(np.asarray(x_a, float), np.asarray(x_b, float))
    shape = xa_arr.shape
    psi_a = hermite_functions(cfg.n_max, xa_arr.ravel())
    psi_b = hermite_functions(cfg.n_max, xb_arr.ravel())
    # t_j(i) = psi_a (x) psi_b per point; P_i = t(i)^T rho t(i)
    t = (psi_a[:, None, :] * psi_b[None, :, :]).reshape(-1, psi_a.shape[1])
    values = np.einsum("ji,ji->i", t, np.real(state.elements).copy() @ t)
    if shape == ():
        return float(values[0])
    return values.reshape(shape)


def _envelope_bound(state: DensityMatrix, env_var: float) -> float:
    """Grid-estimated bound M on P(x)/q(x) for the Gaussian envelope q."""
    half_width = 10.0 * max(1.0, np.sqrt(env_var))
    axis = np.linspace(-half_width, half_width, 401)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pdf = joint_quadrature_pdf(state, gx, gy)
    envelope = np.exp(-(gx**2 + gy**2) / (2.0 * env_var)) / (2.0 * np.pi * env_var)
    return float(np.max(pdf / envelope)) * 1.15


def sample_quadratures(state: DensityMatrix, count: int, seed: int) -> np.ndarray:
    """Draw i.i.d. (x_a, x_b) pairs from the joint quadrature density.

    Rejection sampling against an isotropic Gaussian envelope whose variance
    is 1.5x the largest diagonal moment; exact for the non-Gaussian heralded
    states produced here.  Deterministic for a fixed seed, with no global
    generator state.  Raises if the acceptance rate falls below 1e-3, which
    signals a pathological state, and if any proposal has P > M q, where the
    grid-estimated bound M is too small and the samples would no longer
    follow P.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    cov = covariance_summary(state)
    env_var = 1.5 * max(cov.xx_a, cov.xx_b)
    bound = _envelope_bound(state, env_var)
    rng = np.random.default_rng(seed)
    env_std = np.sqrt(env_var)

    samples = np.empty((count, 2))
    filled = 0
    proposed = 0
    batch = 8192
    while filled < count:
        xy = rng.normal(scale=env_std, size=(batch, 2))
        u = rng.uniform(size=batch)
        envelope = np.exp(-(xy[:, 0] ** 2 + xy[:, 1] ** 2) / (2.0 * env_var)) / (
            2.0 * np.pi * env_var
        )
        pdf = joint_quadrature_pdf(state, xy[:, 0], xy[:, 1])
        over = pdf > bound * envelope
        if over.any():
            worst = np.max(pdf[over] / (bound * envelope[over]))
            raise ValueError(
                f"{np.count_nonzero(over)} of {batch} proposals exceed the envelope "
                f"bound M = {bound:.6g}; largest P/(M q) = {worst:.6g}"
            )
        accepted = xy[u * bound * envelope <= pdf]
        proposed += batch
        take = min(count - filled, accepted.shape[0])
        samples[filled : filled + take] = accepted[:take]
        filled += take
        if proposed >= 4 * batch and filled / proposed < 1e-3:
            raise ValueError(
                f"envelope acceptance rate {filled / proposed:.2e} below 1e-3"
            )
    return samples
