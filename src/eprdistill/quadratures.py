"""Quadrature observables, covariance extraction, the Duan criterion, and
Monte-Carlo homodyne sampling.

Conventions: X = (a + a^dag)/sqrt(2), P = (a - a^dag)/(i sqrt(2)), so the
vacuum variance is 1/2 per quadrature and the shot-noise level of the
sum/difference combinations equals 1.  Every `DensityMatrix` is real and
phase-symmetric (block diagonal in n_A - n_B, checked where it is built), hence
zero-mean; measurements are evaluated at the canonical phase pair (no
local-oscillator phase scanning).

Every second moment is read by `kraus_moments` in the Heisenberg picture of
mode-B Kraus families: catalysis in a gain sweep, the identity otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .fock import DensityMatrix, InvalidStateError

# Column widths of the sampler's two products.  Whole, they stall in OpenBLAS's
# thread pool in a fresh process: on 2 shared cores the 45 density calls of a
# 200k-sample call, each one (16, 16) @ (16, 8192), took 63-360 ms, and 28-46 ms
# in 512-column slices (46-66 ms in 54 or 128); the envelope took 1-14 ms, and
# 0.3 ms in 32-column slices.  Each element is the same dot product.
_PDF_COLUMNS = 512
_ENVELOPE_COLUMNS = 32


@dataclass(frozen=True)
class CovarianceSummary:
    """Second moments of a phase-symmetric state, vacuum variance 1/2.

    Phase symmetry gives <P_i^2> = xx_i and <P_A P_B> = -xa_xb.  v_diff =
    xx_a + xx_b - 2 xa_xb and v_sum = xx_a + xx_b + 2 xa_xb, shot noise at 1.
    The fields may be equal-length arrays, one element per state of a
    batch; the checks and properties then hold elementwise.
    """

    xx_a: float
    xx_b: float
    xa_xb: float

    def __post_init__(self):
        for name in ("xx_a", "xx_b"):
            if not np.all(getattr(self, name) > 0.0):
                raise ValueError(f"diagonal moment {name} must be positive")
        bound = np.sqrt(self.xx_a * self.xx_b) + tolerances.CROSS_MOMENT_SLACK
        if not np.all(np.abs(self.xa_xb) <= bound):
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
    every product state sit at the boundary I = 1).  Columns when the
    CovarianceSummary it came from holds columns.
    """

    value: float
    a_star: float


def heisenberg_operators(kraus: np.ndarray) -> tuple[np.ndarray, ...]:
    """E = sum K^T K, N = sum K^T n K and B = sum K^T b K of each real family
    (..., n, d, d), transposed, with n and b the number and ladder operators
    on the rows of K.  Of a `channels.tmsv_ensemble` stack, whose rows are
    n_A, they are the source's (R, W, L) of `kraus_moments`.
    """
    d = kraus.shape[-1]
    levels = np.arange(d)
    lowered = np.zeros_like(kraus)  # b K: row k moves to k - 1 with sqrt(k)
    lowered[..., :-1, :] = np.sqrt(levels[1:, None]) * kraus[..., 1:, :]
    rows = kraus.reshape(*kraus.shape[:-3], -1, d)
    # sum_i (O K_i)^T K_i, the transpose of each Heisenberg operator
    return tuple(
        op.reshape(rows.shape).swapaxes(-1, -2) @ rows
        for op in (kraus, levels[:, None] * kraus, lowered)
    )


def mode_b_operators(state: DensityMatrix) -> tuple[np.ndarray, ...]:
    """The source operators (R, W, L) of a state that `kraus_moments` reads."""
    d = state.config.dim_per_mode
    levels = np.arange(d)
    rho = state.elements.reshape(d, d, d, d)
    diagonal = rho[levels, :, levels, :]  # rho_mm
    below = np.sqrt(levels[1:, None, None]) * rho[levels[1:], :, levels[:-1], :]
    return diagonal.sum(axis=0), (levels[:, None, None] * diagonal).sum(axis=0), below.sum(axis=0)


def kraus_moments(source: tuple[np.ndarray, ...], kraus: np.ndarray) -> tuple[np.ndarray, ...]:
    """Moments of the raw branch sigma = sum_i K_i rho K_i^T for each of G
    real Kraus families on mode B, shape (G, n, d, d): (G,) columns Tr sigma,
    <n_A>, <n_B>, Re<ab>, unnormalized.  No sigma is built.

    The source rho enters as three d x d mode-B operators, (R, W, L) =
    sum_m (rho_mm, m rho_mm, sqrt(m) rho_m,m-1) with rho_mm' its mode-B blocks.
    With K on mode B, Tr[sigma (O_A (x) O_B)] = Tr[rho (O_A (x) sum K^T O_B K)],
    so with each family's `heisenberg_operators` E, N and B, Tr sigma =
    Tr(R E), <n_A> = Tr(W E), <n_B> = Tr(R N) and <ab> = Tr(L B).  A K of
    loss, catalysis or the identity shifts the photon number by a fixed
    amount, so sigma stays phase-symmetric like its source, and <ab> is its
    one two-mode ladder moment.  Each E must lie in [0, 1] (the branch is a
    state of trace <= 1).  A family's columns do not depend on G.
    """
    effect, number, lowering = heisenberg_operators(kraus)
    spectrum = np.linalg.eigvalsh(effect)
    low, high = spectrum[:, 0].min(), spectrum[:, -1].max()
    if not (low >= tolerances.EIGENVALUE_FLOOR and high <= 1.0 + tolerances.TRACE_UPPER_SLACK):
        raise InvalidStateError(f"herald effect spectrum [{low:.3e}, {high:.3e}] outside [0, 1]")
    reduced, weighted, below = source

    def traces(block, transposed):  # Tr(block O) per family, O^T given
        return (block * transposed).reshape(len(transposed), -1).sum(axis=1)

    return (
        traces(reduced, effect),
        traces(weighted, effect),
        traces(reduced, number),
        traces(below, lowering),
    )


def covariance_summary(state: DensityMatrix) -> CovarianceSummary:
    """Second moments of a phase-symmetric two-mode state.

    Phase-symmetric means block diagonal in Delta = n_A - n_B, which every
    `DensityMatrix` checks when it is built.  Then the reduced states are
    diagonal and <ab> is the one two-mode ladder moment left, so xx = <P^2> =
    <n> + 1/2 per mode and xa_xb = -<P_A P_B> = Re<ab> (Weedbrook et al., RMP
    84, 621 (2012)).  Moments are `kraus_moments` of the identity family,
    taken relative to the trace.
    """
    identity = np.eye(state.config.dim_per_mode)[None, None]
    p, n_a, n_b, ab = (float(c[0]) for c in kraus_moments(mode_b_operators(state), identity))
    return CovarianceSummary(n_a / p + 0.5, n_b / p + 0.5, ab / p)


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
    optimal and a* = 1 is returned by convention.  On a CovarianceSummary
    of columns the two cases are masks over the elements.
    """
    n_a = cov.xx_a + cov.xx_a
    n_b = cov.xx_b + cov.xx_b
    k = cov.xa_xb + cov.xa_xb
    gap = np.hypot(n_a - n_b, 2.0 * k)
    value = 0.5 * (n_a + n_b - gap)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_star = (n_a - value) / k
    scale = np.maximum(n_a, n_b)
    uncorrelated = np.abs(k) < 1e-15 * scale
    symmetric = uncorrelated & (np.abs(n_a - n_b) < 1e-12 * scale)
    # uncorrelated and asymmetric: the infimum sits at a boundary
    value = np.where(uncorrelated, np.minimum(n_a, n_b), value)
    a_star = np.where(uncorrelated, np.where(n_a <= n_b, 0.0, np.inf), a_star)
    value = np.where(symmetric, 0.5 * (n_a + n_b), value)
    a_star = np.where(symmetric, 1.0, a_star)
    # [()] turns the 0-d results of a single summary back into scalars
    return DuanResult(value[()], a_star[()])


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

    P_i = t_i^T rho t_i with t_i = psi_a (x) psi_b at point i, over slices of
    _PDF_COLUMNS points padded with zeros to whole slices: a point's value
    does not depend on how many points share the call.
    """
    cfg = state.config
    xa_arr, xb_arr = np.broadcast_arrays(np.asarray(x_a, float), np.asarray(x_b, float))
    shape = xa_arr.shape
    pad = (0, -xa_arr.size % _PDF_COLUMNS)
    psi_a = hermite_functions(cfg.n_max, np.pad(xa_arr.ravel(), pad))
    psi_b = hermite_functions(cfg.n_max, np.pad(xb_arr.ravel(), pad))
    t = (psi_a[:, None, :] * psi_b[None, :, :]).reshape(-1, psi_a.shape[1])
    values = np.empty(t.shape[1])
    for s in range(0, t.shape[1], _PDF_COLUMNS):
        ts = t[:, s : s + _PDF_COLUMNS]
        values[s : s + _PDF_COLUMNS] = np.einsum("ji,ji->i", ts, state.elements @ ts)
    if shape == ():
        return float(values[0])
    return values[: xa_arr.size].reshape(shape)


def _envelope_bound(state: DensityMatrix, env_var: float) -> float:
    """Grid-estimated bound M on P(x)/q(x) for the Gaussian envelope q.

    On the 401 x 401 tensor grid P = A^T R A, with A[(m, m'), i] =
    psi_m(x_i) psi_m'(x_i) and R = rho reshaped from (m, n, m', n') to
    (m m') x (n n').  As q = e(x) e(y) / (2 pi v) with e(x) = exp(-x^2/2v),
    P/q = 2 pi v B^T R B for B = A / e(x), and no (d^2, 401^2) table is
    formed; B^T R times B runs over slices of _ENVELOPE_COLUMNS grid
    columns.  1/e(x) cannot overflow: diagonal moments are >= 1/2, so
    v >= 0.75 and x^2/2v <= 50 max(1, 1/v) <= 200/3.
    """
    half_width = 10.0 * max(1.0, np.sqrt(env_var))
    axis = np.linspace(-half_width, half_width, 401)
    d = state.config.dim_per_mode
    psi = hermite_functions(state.config.n_max, axis)
    b = (psi[:, None, :] * psi[None, :, :]).reshape(d * d, -1) * np.exp(axis**2 / (2.0 * env_var))
    r = state.elements.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    left, w = b.T @ r, _ENVELOPE_COLUMNS
    peak = max(np.max(left @ b[:, s : s + w]) for s in range(0, b.shape[1], w))
    return float(peak) * 2.0 * np.pi * env_var * 1.15


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
