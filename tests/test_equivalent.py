import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eprdistill
from eprdistill import (
    EquivalentSolve,
    EquivalentState,
    equivalent_variances,
    solve_equivalent,
    tolerances,
)
from eprdistill.equivalent import GAMMA_EQ_MAX, solve_equivalents

FIXTURE = EquivalentState(gamma_eq=0.3, eta_a_eq=0.45, eta_b_eq=0.3)
# forward values of FIXTURE, frozen from direct evaluation of the formula
FIXTURE_V_DIFF = 0.8356279939641077
FIXTURE_V_SUM = 1.303470919717593


class TestEquivalentVariances:
    def test_zero_squeezing_is_unit(self):
        for eta_a, eta_b in ((1.0, 1.0), (0.4, 0.9)):
            v_diff, v_sum = equivalent_variances(EquivalentState(0.0, eta_a, eta_b))
            assert v_diff == pytest.approx(1.0)
            assert v_sum == pytest.approx(1.0)

    def test_unit_efficiencies_give_pure_hyperbolic_pair(self):
        v_diff, v_sum = equivalent_variances(EquivalentState(0.3, 1.0, 1.0))
        assert v_diff == pytest.approx(np.exp(-0.6), abs=1e-14)
        assert v_sum == pytest.approx(np.exp(0.6), abs=1e-14)

    def test_fixture_forward_values(self):
        v_diff, v_sum = equivalent_variances(FIXTURE)
        assert v_diff == pytest.approx(FIXTURE_V_DIFF, abs=1e-12)
        assert v_sum == pytest.approx(FIXTURE_V_SUM, abs=1e-12)

    def test_ordering(self):
        v_diff, v_sum = equivalent_variances(EquivalentState(0.5, 0.7, 0.2))
        assert v_sum >= v_diff

    def test_state_validation(self):
        with pytest.raises(ValueError):
            EquivalentState(-0.1, 0.5, 0.5)
        with pytest.raises(ValueError):
            EquivalentState(0.1, 0.0, 0.5)
        with pytest.raises(ValueError):
            EquivalentState(0.1, 0.5, 1.1)


class TestSolveEquivalent:
    def test_fixture_round_trip(self):
        solved = solve_equivalent(FIXTURE_V_DIFF, FIXTURE_V_SUM, 0.45)
        assert solved.ok
        assert solved.state.gamma_eq == pytest.approx(0.3, abs=1e-6)
        assert solved.state.eta_b_eq == pytest.approx(0.3, abs=1e-6)

    def test_grid_round_trip(self):
        # forward/inverse identity across the documented grid; where the
        # variance pair has two physical preimages both are reported and one
        # must match the original parameters
        for gamma in np.linspace(0.05, 1.0, 5):
            for eta_a in (0.1, 0.4, 0.7, 1.0):
                for eta_b in (0.1, 0.4, 0.7, 1.0):
                    v_diff, v_sum = equivalent_variances(
                        EquivalentState(gamma, eta_a, eta_b)
                    )
                    solved = solve_equivalent(v_diff, v_sum, eta_a)
                    assert solved.ok, (gamma, eta_a, eta_b, solved.reason)
                    err = min(
                        max(abs(b.gamma_eq - gamma), abs(b.eta_b_eq - eta_b))
                        for b in solved.branches
                    )
                    assert err < 1e-6

    def test_unique_in_moderate_regime(self):
        # with (v_sum - v_diff)/2 <= 2 eta_a the solution is unique and the
        # primary branch is the exact preimage
        for gamma in (0.1, 0.3, 0.5):
            for eta_b in (0.2, 0.6, 1.0):
                v_diff, v_sum = equivalent_variances(EquivalentState(gamma, 0.45, eta_b))
                assert 0.5 * (v_sum - v_diff) <= 2 * 0.45
                solved = solve_equivalent(v_diff, v_sum, 0.45)
                assert len(solved.branches) == 1
                assert solved.state.gamma_eq == pytest.approx(gamma, abs=1e-6)
                assert solved.state.eta_b_eq == pytest.approx(eta_b, abs=1e-6)

    def test_round_trips_in_variance_space(self):
        solved = solve_equivalent(0.9, 1.3, 0.6)
        assert solved.ok
        back = equivalent_variances(solved.state)
        assert back[0] == pytest.approx(0.9, abs=1e-9)
        assert back[1] == pytest.approx(1.3, abs=1e-9)

    def test_unit_variances_degenerate(self):
        solved = solve_equivalent(1.0, 1.0, 0.5)
        assert solved.status == "degenerate"
        assert solved.state is None

    def test_infeasible_low_energy(self):
        # v_sum + v_diff <= 2 cannot be produced by any lossy squeezed source
        solved = solve_equivalent(0.5, 1.1, 0.45)
        assert solved.status == "infeasible"
        assert "v_sum + v_diff" in solved.reason

    def test_infeasible_ordering(self):
        solved = solve_equivalent(1.2, 1.1, 0.45)
        assert solved.status == "infeasible"
        assert "v_sum > v_diff" in solved.reason

    def test_infeasible_required_efficiency(self):
        # variances built from an unphysical eta_b = 1.2 demand it back
        solved = solve_equivalent(0.8026573319889356, 1.2744181420301273, 0.5)
        assert solved.status == "infeasible"
        assert "eta_b_eq" in solved.reason

    def test_infeasible_no_root(self):
        # correlation too strong for any squeezing level at eta_a = 0.1
        solved = solve_equivalent(0.55, 1.5, 0.1)
        assert solved.status == "infeasible"
        assert "no root" in solved.reason

    def test_never_nan(self):
        pairs = ((1.0, 1.0), (0.5, 1.1), (1.2, 1.1), (0.9, 1.2), (math.nan, 1.2), (0.5, 1e308))
        batch = solve_equivalents(*np.array(pairs).T, 0.45)
        for (v_diff, v_sum), batched in zip(pairs, batch):
            for solved in (solve_equivalent(v_diff, v_sum, 0.45), batched):
                assert isinstance(solved, EquivalentSolve)
                for branch in solved.branches:
                    assert np.isfinite(branch.gamma_eq)
                    assert np.isfinite(branch.eta_b_eq)

    def test_solution_continuity(self):
        # small input perturbations move the solution a little, away from
        # the degenerate boundary
        base = solve_equivalent(FIXTURE_V_DIFF, FIXTURE_V_SUM, 0.45)
        for eps in (1e-6, -1e-6):
            moved = solve_equivalent(FIXTURE_V_DIFF + eps, FIXTURE_V_SUM - eps, 0.45)
            assert moved.ok
            assert abs(moved.state.gamma_eq - base.state.gamma_eq) < 1e-3
            assert abs(moved.state.eta_b_eq - base.state.eta_b_eq) < 1e-3

    def test_two_roots_closer_than_a_scan_step(self):
        # at eta_a = 0.3 and k = 2, d = eta_a + k/2 = 1.3 is exact tangency;
        # 1e-9 inside it the two branches lie 5e-5 apart in gamma_eq
        v_diff, v_sum = 0.7 + 1e-9, 3.3 - 1e-9
        solved = solve_equivalent(v_diff, v_sum, 0.3)
        assert solved.status == "ok"
        assert len(solved.branches) == 2
        low, high = solved.branches
        assert solved.state is low
        assert low.gamma_eq < high.gamma_eq < low.gamma_eq + 1e-4
        assert low.gamma_eq == pytest.approx(0.936883, abs=1e-6)
        assert high.gamma_eq == pytest.approx(0.936937, abs=1e-6)
        for branch in solved.branches:
            assert branch.eta_b_eq == pytest.approx(0.557, abs=1e-3)
            back = equivalent_variances(branch)
            assert back[0] == pytest.approx(v_diff, abs=1e-9)
            assert back[1] == pytest.approx(v_sum, abs=1e-9)

    def test_double_root_at_zero_squeezing_is_no_root(self):
        # k = 2 eta_a and d = 2 eta_a make u = 0 a double root: q = 0 in the
        # cancellation-free form, and no branch has gamma_eq > 0
        solved = solve_equivalent(0.5, 2.5, 0.5)
        assert solved.status == "infeasible"
        assert "no root" in solved.reason


def reference_solve(v_diff: float, v_sum: float, eta_a_eq: float) -> EquivalentSolve:
    """The inversion of solve_equivalents for one pair, in Python floats: the
    oracle of the batched solve (same checks, reasons and branch order)."""
    if not 0.0 < eta_a_eq <= 1.0:
        return EquivalentSolve("infeasible", reason=f"eta_a_eq {eta_a_eq} outside (0, 1]")
    atol = tolerances.EQUIV_SOLVER_ATOL
    if abs(v_diff - 1.0) < atol and abs(v_sum - 1.0) < atol:
        return EquivalentSolve(
            "degenerate", reason="unit variances: gamma_eq = 0, eta_b_eq indeterminate"
        )
    k = v_sum + v_diff - 2.0
    d = 0.5 * (v_sum - v_diff)
    if d <= 0.0:
        return EquivalentSolve(
            "infeasible", reason=f"need v_sum > v_diff, got ({v_diff:.6g}, {v_sum:.6g})"
        )
    if k <= 0.0:
        return EquivalentSolve(
            "infeasible", reason=f"need v_sum + v_diff > 2, got {v_sum + v_diff:.6g}"
        )
    b = 2.0 * eta_a_eq - k
    c = d * d / eta_a_eq - 2.0 * k
    disc = (2.0 * eta_a_eq + k - 2.0 * d) * (2.0 * eta_a_eq + k + 2.0 * d)
    q = -0.5 * (b + math.copysign(math.sqrt(max(disc, 0.0)), b))
    u_max = math.cosh(2.0 * GAMMA_EQ_MAX) - 1.0
    roots = sorted({q / eta_a_eq, c / q}) if disc >= 0.0 and q != 0.0 else []
    roots = [u for u in roots if 0.0 < u <= u_max]
    if not roots:
        return EquivalentSolve(
            "infeasible", reason=f"variance-sum equation has no root in (0, {GAMMA_EQ_MAX}]"
        )
    branches, rejected_eta = [], []
    for u in roots:
        eta_b = d * d / (eta_a_eq * u * (u + 2.0))
        if not 0.0 < eta_b <= 1.0 + tolerances.CROSS_MOMENT_SLACK:
            rejected_eta.append(eta_b)
            continue
        state = EquivalentState(math.asinh(math.sqrt(0.5 * u)), eta_a_eq, min(eta_b, 1.0))
        back_diff, back_sum = equivalent_variances(state)
        if abs(back_diff - v_diff) <= atol and abs(back_sum - v_sum) <= atol:
            branches.append(state)
    if branches:
        return EquivalentSolve("ok", branches=tuple(branches))
    if rejected_eta:
        return EquivalentSolve(
            "infeasible", reason=f"required eta_b_eq = {rejected_eta[0]:.6g} outside (0, 1]"
        )
    return EquivalentSolve("infeasible", reason="no root survives the round trip")


# (v_diff, v_sum) at eta_a_eq = 0.3, each with its outcome
MIXED = (
    ((0.8276112152005637, 1.3207609593932506), "ok"),  # gamma_eq 0.3, eta_b_eq 0.5
    ((0.7 + 1e-9, 3.3 - 1e-9), "ok"),  # two branches
    ((1.0, 1.0), "degenerate"),
    ((1.2, 1.1), "need v_sum > v_diff"),
    ((0.5, 1.1), "need v_sum + v_diff > 2"),
    ((0.55, 1.5), "no root"),
    ((0.757106764392756, 1.5210910629706453), "required eta_b_eq = 1.2"),  # from eta_b 1.2
    ((0.5, 1e308), "no root"),  # overflows
)


class TestBatchedSolve:
    PAIRS = np.array([pair for pair, _ in MIXED])

    def test_every_outcome_in_one_batch(self):
        solves = solve_equivalents(*self.PAIRS.T, 0.3)
        assert [len(s.branches) for s in solves] == [1, 2, 0, 0, 0, 0, 0, 0]
        for ((v_diff, v_sum), outcome), solved in zip(MIXED, solves):
            assert outcome in (solved.status + solved.reason)
            assert solved == solve_equivalent(v_diff, v_sum, 0.3)
            assert solved == reference_solve(v_diff, v_sum, 0.3)

    @pytest.mark.parametrize("order", ["reversed", "rolled", "repeated"])
    def test_rows_do_not_affect_their_neighbours(self, order):
        alone = [solve_equivalent(v_diff, v_sum, 0.3) for v_diff, v_sum in self.PAIRS]
        index = {
            "reversed": np.arange(len(MIXED))[::-1],
            "rolled": np.roll(np.arange(len(MIXED)), 3),
            "repeated": np.repeat(np.arange(len(MIXED)), 3),
        }[order]
        solves = solve_equivalents(*self.PAIRS[index].T, 0.3)
        assert solves == [alone[i] for i in index]

    @pytest.mark.parametrize("eta_a_eq", [0.0, -0.1, 1.5, math.nan])
    def test_eta_a_outside_the_unit_interval(self, eta_a_eq):
        solves = solve_equivalents(*self.PAIRS.T, eta_a_eq)
        assert {s.reason for s in solves} == {f"eta_a_eq {eta_a_eq} outside (0, 1]"}
        for (v_diff, v_sum), solved in zip(self.PAIRS.tolist(), solves):
            assert solved == solve_equivalent(v_diff, v_sum, eta_a_eq)
            assert solved == reference_solve(v_diff, v_sum, eta_a_eq)

    def test_double_root_is_one_branch(self):
        # k = 1.5 and d = 1 at eta_a = 0.25 make the discriminant exactly 0:
        # the two roots coincide at u = 2, one branch with eta_b_eq = 0.5
        (solved,) = solve_equivalents(np.array([0.75]), np.array([2.75]), 0.25)
        assert len(solved.branches) == 1
        assert solved.state.eta_b_eq == 0.5
        assert solved == reference_solve(0.75, 2.75, 0.25)

    def test_empty_batch(self):
        assert solve_equivalents(np.array([]), np.array([]), 0.3) == []

    @pytest.mark.parametrize("eta_a_eq", [0.1, 0.3, 0.45, 1.0])
    def test_batch_equals_the_scalar_oracle(self, eta_a_eq):
        # random pairs over every region, and forward images of random states
        # (gamma_eq up to past GAMMA_EQ_MAX, eta_b_eq up to 1.2)
        rng = np.random.default_rng(11)
        pairs = [rng.uniform(0.0, 3.0, 1500), rng.uniform(0.0, 6.0, 1500)]
        gamma, eta_b = rng.uniform(0.0, 5.5, 1500), rng.uniform(0.01, 1.2, 1500)
        mean, root = 0.5 * (eta_a_eq + eta_b), np.sqrt(eta_a_eq * eta_b)
        c, s = np.cosh(2.0 * gamma) - 1.0, np.sinh(2.0 * gamma)
        v_diff = np.concatenate([pairs[0], 1.0 + mean * c - root * s])
        v_sum = np.concatenate([pairs[1], 1.0 + mean * c + root * s])
        solves = solve_equivalents(v_diff, v_sum, eta_a_eq)
        pairs = zip(v_diff.tolist(), v_sum.tolist())
        assert solves == [reference_solve(*pair, eta_a_eq) for pair in pairs]
        assert {solved.status for solved in solves} == {"ok", "infeasible"}


def test_cli_runners_load_no_scipy(tmp_path):
    # numpy is the only runtime dependency: importing the CLI and running a
    # sweep, a sample and both forms of equiv must load no module outside the
    # standard library, numpy and eprdistill.  The baseline is taken after one
    # draw from numpy's generator, which loads numpy's own Cython helpers.
    code = (
        "import sys, numpy\n"
        "numpy.random.default_rng(0).random()\n"
        "baseline = set(sys.modules)\n"
        "import eprdistill.cli as cli\n"
        "sample, equiv, given = sys.argv[1:]\n"
        "assert cli.main(['sweep', '--preset', 'losschannel', '--gain.g', '8', '--n-max', '4']) == 0\n"
        "assert cli.main(['sample', '--preset', 'losschannel', '--gain.g', '14',\n"
        "                 '--sample-count', '20', '--output', sample]) == 0\n"
        "assert cli.main(['equiv', '--preset', 'losschannel', '--gain.steps', '3',\n"
        "                 '--output', equiv]) == 0\n"
        "assert cli.main(['equiv', '--preset', 'losschannel', '--gain.g', '8',\n"
        "                 '--v-diff', '0.9', '--v-sum', '1.3', '--output', given]) == 0\n"
        "allowed = sys.stdlib_module_names | {'numpy', 'eprdistill'}\n"
        "print(sorted(m for m in set(sys.modules) - baseline\n"
        "             if m.split('.')[0] not in allowed))\n"
    )
    outputs = [tmp_path / name for name in ("sample.json", "equiv.json", "given.json")]
    src = str(Path(eprdistill.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, outputs)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.splitlines()[-1] == "[]"
    assert all(path.exists() for path in outputs)
