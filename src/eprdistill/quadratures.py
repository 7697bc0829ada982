"""Quadrature observables, covariance extraction, the Duan criterion, and
Monte-Carlo homodyne sampling.

Conventions: X = (a + a^dag)/sqrt(2), P = (a - a^dag)/(i sqrt(2)), so the
vacuum variance is 1/2 per quadrature and the shot-noise level of the
sum/difference combinations equals 1.  All states handled here have
vanishing first moments; measurements are evaluated at the canonical phase
pair (no local-oscillator phase scanning).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tolerances
from .fock import DensityMatrix


@dataclass(frozen=True)
class CovarianceSummary:
    """Second moments of (X_A, P_A, X_B, P_B) in vacuum-variance-1/2 units.

    v_diff and v_sum are derived: v_diff = xx_a + xx_b - 2 xa_xb and
    v_sum = xx_a + xx_b + 2 xa_xb, with shot noise at 1.
    """

    xx_a: float
    pp_a: float
    xx_b: float
    pp_b: float
    xa_xb: float
    pa_pb: float

    def __post_init__(self):
        for name in ("xx_a", "pp_a", "xx_b", "pp_b"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"diagonal moment {name} must be positive")
        if abs(self.xa_xb) > np.sqrt(self.xx_a * self.xx_b) + tolerances.CROSS_MOMENT_SLACK:
            raise ValueError("xa_xb violates the Cauchy-Schwarz bound")
        if abs(self.pa_pb) > np.sqrt(self.pp_a * self.pp_b) + tolerances.CROSS_MOMENT_SLACK:
            raise ValueError("pa_pb violates the Cauchy-Schwarz bound")

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


def _one_mode_quadratures(n_max: int) -> tuple[np.ndarray, ...]:
    """One-mode X, P, X^2 and P^2 on levels 0..n_max, built one level above
    the cutoff and cropped: X and P equal the plain truncations ([X, P] = i
    below the cutoff level), X^2 and P^2 the infinite-dimensional elements,
    so operator moments match the quadrature distribution."""
    d = n_max + 1
    a = np.diag(np.sqrt(np.arange(1, d + 1)), k=1).astype(complex)
    x = (a + a.conj().T) / np.sqrt(2.0)
    p = (a - a.conj().T) / (1j * np.sqrt(2.0))
    return x[:d, :d], p[:d, :d], (x @ x)[:d, :d], (p @ p)[:d, :d]


def covariance_summary(state: DensityMatrix) -> CovarianceSummary:
    """Extract the quadrature second moments of a two-mode state.

    Single-mode moments are read from the two reduced states, the cross
    moments from one contraction of the (d, d, d, d) state tensor with the
    one-mode matrices; no two-mode operator is formed.  Accepts
    sub-normalized states (moments are taken relative to the trace).
    Raises if the first moments do not vanish, which signals a circuit bug:
    every state produced by this library is phase-symmetric.
    """
    cfg = state.config
    if cfg.mode_count != 2:
        raise ValueError("covariance extraction expects a 2-mode state")
    d = cfg.dim_per_mode
    rho = (state.elements / state.trace).reshape(d, d, d, d)
    rho_a = np.trace(rho, axis1=1, axis2=3)
    rho_b = np.trace(rho, axis1=0, axis2=2)
    x, p, xsq, psq = _one_mode_quadratures(cfg.n_max)

    for name, reduced, op in (
        ("X_A", rho_a, x), ("P_A", rho_a, p), ("X_B", rho_b, x), ("P_B", rho_b, p)
    ):
        first = np.trace(reduced @ op)
        if abs(first) > tolerances.FIRST_MOMENT_ATOL:
            raise ValueError(f"first moment <{name}> = {first:.3e} does not vanish")

    def moment(reduced: np.ndarray, op: np.ndarray) -> float:
        return float(np.real(np.trace(reduced @ op)))

    def cross(op: np.ndarray) -> float:
        # Tr(rho (O x O)) = sum rho[i, j, k, l] O[k, i] O[l, j]
        return float(np.real(np.einsum("ijkl,ki,lj->", rho, op, op)))

    return CovarianceSummary(
        xx_a=moment(rho_a, xsq),
        pp_a=moment(rho_a, psq),
        xx_b=moment(rho_b, xsq),
        pp_b=moment(rho_b, psq),
        xa_xb=cross(x),
        pa_pb=cross(p),
    )


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
    root = np.sqrt(eta_a * eta_b)
    return replace(
        cov,
        xx_a=eta_a * cov.xx_a + 0.5 * (1.0 - eta_a),
        pp_a=eta_a * cov.pp_a + 0.5 * (1.0 - eta_a),
        xx_b=eta_b * cov.xx_b + 0.5 * (1.0 - eta_b),
        pp_b=eta_b * cov.pp_b + 0.5 * (1.0 - eta_b),
        xa_xb=root * cov.xa_xb,
        pa_pb=root * cov.pa_pb,
    )


def duan_inseparability(cov: CovarianceSummary) -> DuanResult:
    """Minimize I(a) = [<(X_A - a X_B)^2> + <(P_A + a P_B)^2>] / (1 + a^2).

    I(a) is the Rayleigh quotient of the 2x2 matrix [[n_A, -k], [-k, n_B]]
    with n_i = xx_i + pp_i and k = xa_xb - pa_pb, evaluated at (1, a), so the
    minimum is its smaller eigenvalue and a* follows from the eigenvector
    (the stationarity condition k a^2 + a (n_B - n_A) - k = 0).  a* has the
    sign of k, since n_A - I >= 0.  k is negative at low gain, where the
    catalysis output is dominated by the signal reflected with amplitude -r
    (losschannel at n_max = 3 gives a* < 0 for g = 1 and 1.25, a* > 0 for
    g = 1.5).  When both k vanishes and n_A = n_B
    every a is optimal and a* = 1 is returned by convention.
    """
    n_a = cov.xx_a + cov.pp_a
    n_b = cov.xx_b + cov.pp_b
    k = cov.xa_xb - cov.pa_pb
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
    states produced here.  Deterministic for a fixed seed.  Raises if the
    acceptance rate falls below 1e-3, which signals a pathological state.

    Callers running shards in parallel should pass disjoint seeds; there is
    no global generator state.
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
