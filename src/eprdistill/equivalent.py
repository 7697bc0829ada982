"""Equivalent-EPR-state inversion.

Given measured sum/difference variances of a (possibly non-Gaussian)
distilled state, find the pure two-mode squeezed state plus two-sided loss
that would show the same statistics.  The recovered channel efficiency of
mode B benchmarks how much loss the distillation effectively undid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerances

GAMMA_EQ_MAX = 5.0


@dataclass(frozen=True)
class EquivalentState:
    """Pure squeezed source (hyperbolic strength gamma_eq) plus two-sided loss."""

    gamma_eq: float
    eta_a_eq: float
    eta_b_eq: float

    def __post_init__(self):
        if not self.gamma_eq >= 0.0:
            raise ValueError(f"gamma_eq must be >= 0, got {self.gamma_eq}")
        for name in ("eta_a_eq", "eta_b_eq"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")


@dataclass(frozen=True)
class EquivalentSolve:
    """Typed outcome of the inversion; never carries NaN.

    status is "ok" (state set), "degenerate" (unit variances: gamma_eq = 0,
    eta_b_eq indeterminate) or "infeasible" (no physical solution; the
    reason records which constraint failed).  Near-boundary inputs are
    common in practice because small variance changes move the solution a
    lot.

    `branches` lists every physical solution in ascending gamma_eq and
    `state` is the first of them, or None.  Each branch is a root of one
    quadratic in cosh 2 gamma_eq (see solve_equivalent), so at most two.  The
    variance pair pins the parameters uniquely whenever
    (v_sum - v_diff)/2 <= 2 eta_a_eq, which covers all experimentally
    relevant inputs; outside that regime the second root, with larger
    squeezing and lower efficiency, can reproduce the same variances, and
    both are reported.
    """

    status: str
    branches: tuple[EquivalentState, ...] = field(default_factory=tuple)
    reason: str = ""

    @property
    def state(self) -> EquivalentState | None:
        return self.branches[0] if self.branches else None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def equivalent_variances(eq: EquivalentState) -> tuple[float, float]:
    """Forward map: sum/difference variances of the equivalent state.

    v_diff/sum = 1 + (eta_a + eta_b)/2 (cosh 2g - 1) -/+ sqrt(eta_a eta_b)
    sinh 2g, which reduces to (exp(-2g), exp(+2g)) at unit efficiencies.
    """
    return _forward(eq.gamma_eq, eq.eta_a_eq, eq.eta_b_eq)


def _forward(gamma_eq, eta_a_eq, eta_b_eq):
    """equivalent_variances of the parameters, elementwise on arrays."""
    c = np.cosh(2.0 * gamma_eq) - 1.0
    s = np.sinh(2.0 * gamma_eq)
    mean_eta = 0.5 * (eta_a_eq + eta_b_eq)
    root = np.sqrt(eta_a_eq * eta_b_eq)
    return 1.0 + mean_eta * c - root * s, 1.0 + mean_eta * c + root * s


def solve_equivalent(v_diff: float, v_sum: float, eta_a_eq: float) -> EquivalentSolve:
    """solve_equivalents of a single variance pair."""
    return solve_equivalents(np.array([v_diff], float), np.array([v_sum], float), eta_a_eq)[0]


def solve_equivalents(
    v_diff: np.ndarray, v_sum: np.ndarray, eta_a_eq: float
) -> list[EquivalentSolve]:
    """Invert the forward map for (gamma_eq, eta_b_eq) at fixed eta_a_eq.

    With k = v_sum + v_diff - 2, d = (v_sum - v_diff)/2 and
    u = cosh 2 gamma_eq - 1, the difference of the two variance equations
    gives eta_b_eq = d^2 / (eta_a u (u + 2)).  Substituting it into their sum
    leaves k = eta_a u + d^2 / (eta_a (u + 2)), the quadratic
    eta_a u^2 + (2 eta_a - k) u + (d^2/eta_a - 2 k) = 0 with discriminant
    (2 eta_a + k)^2 - 4 d^2, evaluated as a product of two factors.  Both
    roots are taken in cancellation-free form; those with gamma_eq in
    (0, GAMMA_EQ_MAX] become branches through gamma_eq = asinh(sqrt(u/2)),
    which keeps full precision near gamma_eq = 0.  Every returned branch
    round-trips through equivalent_variances to 1e-9.

    Each element of the variance arrays is solved on its own, all in one
    pass over (2, n) root arrays; gamma_eq is math.asinh per root, since
    numpy's SIMD arcsinh can differ from libm in the last bit.
    """
    if not 0.0 < eta_a_eq <= 1.0:
        reason = f"eta_a_eq {eta_a_eq} outside (0, 1]"
        return [EquivalentSolve("infeasible", reason=reason)] * len(v_diff)
    atol = tolerances.EQUIV_SOLVER_ATOL
    with np.errstate(all="ignore"):  # rows that fail the checks first may overflow
        degenerate = (np.abs(v_diff - 1.0) < atol) & (np.abs(v_sum - 1.0) < atol)
        k = v_sum + v_diff - 2.0
        d = 0.5 * (v_sum - v_diff)
        b = 2.0 * eta_a_eq - k
        c = d * d / eta_a_eq - 2.0 * k
        disc = (2.0 * eta_a_eq + k - 2.0 * d) * (2.0 * eta_a_eq + k + 2.0 * d)
        q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
        u = np.sort([q / eta_a_eq, c / q], axis=0)
        u_max = math.cosh(2.0 * GAMMA_EQ_MAX) - 1.0
        root = (disc >= 0.0) & (q != 0.0) & (0.0 < u) & (u <= u_max)
        root[1] &= u[1] != u[0]
        eta_b = d * d / (eta_a_eq * u * (u + 2.0))
        in_range = root & (0.0 < eta_b) & (eta_b <= 1.0 + tolerances.CROSS_MOMENT_SLACK)
        gamma_eq = np.frompyfunc(math.asinh, 1, 1)(np.sqrt(0.5 * u)).astype(float)
        eta_b_eq = np.minimum(eta_b, 1.0)
        back_diff, back_sum = _forward(gamma_eq, eta_a_eq, eta_b_eq)
        close = (np.abs(back_diff - v_diff) <= atol) & (np.abs(back_sum - v_sum) <= atol)
        branch = in_range & close & ~degenerate & (d > 0.0) & (k > 0.0)
    # the branches of every element, in element order and ascending gamma_eq
    kept = zip(gamma_eq.T[branch.T].tolist(), eta_b_eq.T[branch.T].tolist())
    states = [EquivalentState(g, eta_a_eq, eta_b) for g, eta_b in kept]
    solves, used = [], 0
    for i, count in enumerate(branch.sum(axis=0).tolist()):
        if count:
            solves.append(EquivalentSolve("ok", tuple(states[used : used + count])))
            used += count
            continue
        status, reason = "infeasible", "no root survives the round trip"
        rejected = eta_b[:, i][root[:, i] & ~in_range[:, i]]
        if degenerate[i]:
            status, reason = "degenerate", "unit variances: gamma_eq = 0, eta_b_eq indeterminate"
        elif d[i] <= 0.0:
            reason = f"need v_sum > v_diff, got ({v_diff[i]:.6g}, {v_sum[i]:.6g})"
        elif k[i] <= 0.0:
            reason = f"need v_sum + v_diff > 2, got {v_sum[i] + v_diff[i]:.6g}"
        elif not root[:, i].any():
            reason = f"variance-sum equation has no root in (0, {GAMMA_EQ_MAX}]"
        elif rejected.size:
            reason = f"required eta_b_eq = {rejected[0]:.6g} outside (0, 1]"
        solves.append(EquivalentSolve(status, reason=reason))
    return solves
