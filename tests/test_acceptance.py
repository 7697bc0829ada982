"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them
all; failures also surface the line in the captured output).
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from eprdistill import (
    BETA_OPTIMAL,
    HeraldingImpossibleError,
    HilbertConfig,
    ScenarioConfig,
    apply_detection_efficiency,
    basis_vector,
    beamsplitter_unitary,
    covariance_summary,
    degraded_variances,
    deterministic_bound,
    equivalent_variances,
    ideal_variances,
    loss_channel,
    loss_kraus_operators,
    nla_catalysis,
    pump_rotation_degrade,
    pure_state,
    run_sampling,
    run_scenario,
    sample_quadratures,
    solve_equivalent,
    tmsv_state,
    vacuum_state,
)
from eprdistill.equivalent import EquivalentState
from eprdistill.scenario import evaluate_gain_point

from conftest import beamsplitter, fidelity, random_density_matrix


def report(tag: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def loss_sweep():
    config = ScenarioConfig.from_dict({
        "gamma": 0.135,
        "degrade": {"mode": "loss", "tau2": 0.05},
        "gain": {"g_min": 2.0, "g_max": 30.0, "steps": 57},
        "eta_ancilla": 0.65,
        "eta_a": 0.45,
        "eta_b": 0.5,
        "n_max": 3,
        "model": "full_numeric",
    })
    return run_scenario(config)


def test_criterion_1_ideal_optimum():
    # stationarity of (b^2 - 2b + 3)/(b^2 + 1) reduces to b^2 - 2b - 1 = 0,
    # bracketed root solve localizes the minimizer far below 1e-9
    beta_star = brentq(lambda b: b * b - 2.0 * b - 1.0, 1.0, 5.0, xtol=1e-14)
    v_at_star = ideal_variances(beta_star)[0]
    grid = np.linspace(0.2, 12.0, 5001)
    grid_min = min(ideal_variances(b)[0] for b in grid)
    ok = (
        abs(beta_star - BETA_OPTIMAL) < 1e-9
        and abs(v_at_star - (2.0 - np.sqrt(2.0))) < 1e-9
        and v_at_star <= grid_min + 1e-12
    )
    assert report(
        "1", ok,
        f"squeezing minimum {v_at_star:.12f} at beta {beta_star:.12f} "
        f"(targets {2 - np.sqrt(2):.12f}, {BETA_OPTIMAL:.12f})",
    )


def test_criterion_2_deterministic_bound():
    value = deterministic_bound(np.sqrt(0.05))
    ok = abs(value - 0.95 / 1.05) < 1e-12 and round(value, 3) == 0.905
    assert report("2", ok, f"bound at intensity 0.05 = {value:.6f}, rounds to 0.905")


def test_criterion_3_weak_coupling_limit():
    gamma, r = 0.01, 0.01
    cfg = HilbertConfig(3, 2)
    distilled, _ = nla_catalysis(tmsv_state(gamma, cfg), r, 1.0)
    # two-term target with the relative sign the positive-correlation
    # convention produces
    target = r * basis_vector(cfg, (0, 0)) + gamma * basis_vector(cfg, (1, 1))
    fid = fidelity(distilled, target)
    ok = fid >= 0.999
    assert report("3", ok, f"fidelity with the two-term superposition = {fid:.6f}")


def test_criterion_4_model_cross_validation():
    betas = (6.0, 4.0, BETA_OPTIMAL, 1.5, 1.0, 0.7)

    def discrepancies(gamma, tau2, beta_grid):
        tau = np.sqrt(tau2)
        rows = []
        for beta in beta_grid:
            g = 1.0 / (beta * gamma * tau)
            base = {
                "gamma": gamma, "degrade": {"mode": "loss", "tau2": tau2},
                "gain": {"g": g}, "eta_ancilla": 0.65,
                "eta_a": 0.45, "eta_b": 0.5, "n_max": 3,
            }
            full = evaluate_gain_point(
                ScenarioConfig.from_dict({**base, "model": "full_numeric"}), g
            )
            sp = evaluate_gain_point(
                ScenarioConfig.from_dict({**base, "model": "single_photon"}), g
            )
            rows.append(
                (
                    abs(full.v_diff - sp.v_diff) / sp.v_diff,
                    abs(full.v_sum - sp.v_sum) / sp.v_sum,
                )
            )
        return rows

    weak = discrepancies(0.0135, 0.0005, betas)    # interior minimum spanned
    strong = discrepancies(0.135, 0.05, betas)
    weak_ok = all(dv <= 0.02 and ds <= 0.02 for dv, ds in weak)
    ordering_ok = all(s[0] > w[0] for w, s in zip(weak, strong))
    # at low gain (g = 2, macroscopic reflectivity) the strong-coupling
    # discrepancy blows up well past the weak-regime band
    low_g = discrepancies(0.135, 0.05, (1.0 / (2.0 * 0.135 * np.sqrt(0.05)),))[0]
    low_gain_ok = low_g[0] > 0.02 and low_g[0] > max(s[0] for s in strong)
    ok = weak_ok and ordering_ok and low_gain_ok
    assert report(
        "4", ok,
        f"weak-regime max rel diff {max(max(w) for w in weak):.5f} (<= 2%), "
        f"strong-regime rowwise larger: {ordering_ok}, "
        f"low-gain discrepancy {low_g[0]:.4f}",
    )


def test_criterion_5_curve_shape_and_bound(loss_sweep):
    v_diff = np.array([row.v_diff for row in loss_sweep.rows])
    duan = np.array([row.duan_i for row in loss_sweep.rows])
    gains = np.array([row.g for row in loss_sweep.rows])
    herald = np.array([row.herald_p for row in loss_sweep.rows])
    idx = int(v_diff.argmin())
    interior_minima = [
        j for j in range(1, len(v_diff) - 1)
        if v_diff[j] < v_diff[j - 1] and v_diff[j] < v_diff[j + 1]
    ]
    bound = deterministic_bound(np.sqrt(0.05))
    ok = (
        len(interior_minima) == 1
        and 0 < idx < len(v_diff) - 1
        and 9.0 <= gains[idx] <= 17.0
        and v_diff[idx] < 1.0
        and np.count_nonzero(duan < bound) > 0
        and duan[idx] < bound
        and np.all((herald > 0.0) & (herald <= 1.0))
    )
    assert report(
        "5-curve", ok,
        f"unique interior minimum v_diff={v_diff[idx]:.4f} at g={gains[idx]:.1f}, "
        f"inseparability {duan[idx]:.4f} beats the bound {bound:.4f} on "
        f"{np.count_nonzero(duan < bound)} rows",
    )


def test_criterion_5_degraded_reference_bands():
    # undistilled degraded-state predictions against the reference noise
    # levels, each within +/- 0.02.
    #
    # Both rows use the pump-rotated source (gamma = 0.18 cos 76 deg ~
    # 0.0435).  A channel on mode B leaves mode A's marginal untouched, so
    # for one-sided loss v_sum + v_diff - 2 = 2 (eta_a + eta_b tau^2)
    # gamma^2 / (1 - gamma^2) whatever the cross term is.  The loss
    # references give 0.993 + 1.010 - 2 = 0.003; gamma = 0.18 at 0.5/0.5
    # detection gives 0.035, so no loss on mode B brings the unrotated
    # source onto them.  Two readings fit: (a) one-sided loss on the rotated
    # source -> (0.9912, 1.0108), as in the abstract (loss on one EPR mode)
    # and criterion 2's bound; (b) loss on both modes of gamma = 0.18 ->
    # (0.9924, 1.0110), which needs a channel this package does not model.
    # Only the abstract is available, so the paper's text does not settle
    # which source its loss run used; (a) is the reading used here.
    gamma = pump_rotation_degrade(0.18, 76.0)
    pump = degraded_variances(gamma, 1.0, 0.5, 0.5)
    loss = degraded_variances(gamma, np.sqrt(0.05), 0.5, 0.5)
    checks = [
        ("pump v_diff", pump[0], 0.966),
        ("pump v_sum", pump[1], 1.044),
        ("loss v_diff", loss[0], 0.993),
        ("loss v_sum", loss[1], 1.010),
    ]
    rows = [
        f"{name}: {value:.4f} vs {target} (|delta|={abs(value - target):.4f})"
        for name, value, target in checks
    ]
    ok = all(abs(value - target) <= 0.02 for _, value, target in checks)
    assert report(
        "5-degraded", ok,
        f"source gamma {gamma:.4f} for the pump and loss rows; " + "; ".join(rows),
    )


def test_criterion_6_channel_algebra(rng):
    cfg = HilbertConfig(3, 2)
    # loss composition law
    composition_ok = True
    for tau1, tau2 in ((0.9, 0.6), (0.75, 0.4), (1.0, 0.2)):
        state = random_density_matrix(cfg, rng)
        seq = loss_channel(loss_channel(state, 1, tau1), 1, tau2)
        direct = loss_channel(state, 1, tau1 * tau2)
        composition_ok &= bool(np.max(np.abs(seq.elements - direct.elements)) < 1e-10)
    # Kraus completeness
    kraus_ok = all(
        np.max(np.abs(
            sum(op.conj().T @ op for op in loss_kraus_operators(n_max, tau))
            - np.eye(n_max + 1)
        )) < 1e-12
        for n_max in (3, 4, 6)
        for tau in (0.0, 0.2236, 0.5, 0.9, 1.0)
    )
    # beamsplitter unitarity
    unitary_ok = all(
        np.max(np.abs(
            beamsplitter_unitary(cfg, 0, 1, r).conj().T
            @ beamsplitter_unitary(cfg, 0, 1, r)
            - np.eye(cfg.dim)
        )) < 1e-10
        for r in (0.05, 0.3, 1 / np.sqrt(2), 0.95)
    )
    # Hong-Ou-Mandel null
    hom = beamsplitter(
        pure_state(cfg, basis_vector(cfg, (1, 1))), 0, 1, 1 / np.sqrt(2)
    )
    i11 = cfg.index_of((1, 1))
    hom_ok = abs(hom.elements[i11, i11]) < 1e-12
    # detector-efficiency map vs physical loss channels
    moment_ok = True
    for _ in range(4):
        state = random_density_matrix(cfg, rng, zero_mean=True)
        eta_a, eta_b = rng.uniform(0.2, 1.0, size=2)
        mapped = apply_detection_efficiency(covariance_summary(state), eta_a, eta_b)
        lossy = loss_channel(loss_channel(state, 0, np.sqrt(eta_a)), 1, np.sqrt(eta_b))
        direct = covariance_summary(lossy)
        for attr in ("xx_a", "pp_a", "xx_b", "pp_b", "xa_xb", "pa_pb"):
            moment_ok &= bool(
                abs(getattr(mapped, attr) - getattr(direct, attr)) < 1e-10
            )
    ok = composition_ok and kraus_ok and unitary_ok and hom_ok and moment_ok
    assert report(
        "6", ok,
        f"composition {composition_ok}, completeness {kraus_ok}, "
        f"unitarity {unitary_ok}, interference null {hom_ok}, "
        f"moment-map equivalence {moment_ok}",
    )


def test_criterion_7_heralding_probability_oracle():
    cfg = HilbertConfig(3, 2)
    vacuum_signal = tmsv_state(0.0, cfg)
    worst = 0.0
    ok = True
    for eta in (0.0, 0.5, 0.65, 1.0):
        for r in (0.05, 0.1, 0.3):
            if eta == 0.0:
                # no photon anywhere: the click branch is impossible
                try:
                    nla_catalysis(vacuum_signal, r, eta)
                    ok = False
                except HeraldingImpossibleError as err:
                    ok &= abs(err.probability) < 1e-10
                continue
            _, prob = nla_catalysis(vacuum_signal, r, eta)
            worst = max(worst, abs(prob - eta * r * r))
    ok &= worst < 1e-10
    assert report("7", ok, f"worst |p - eta r^2| = {worst:.2e} over the grid")


def test_criterion_8_equivalence_round_trip():
    worst = 0.0
    ok = True
    for gamma in np.linspace(0.05, 1.0, 5):
        for eta_a in (0.1, 0.4, 0.7, 1.0):
            for eta_b in (0.1, 0.4, 0.7, 1.0):
                v_diff, v_sum = equivalent_variances(
                    EquivalentState(gamma, eta_a, eta_b)
                )
                solved = solve_equivalent(v_diff, v_sum, eta_a)
                if not solved.ok:
                    ok = False
                    continue
                err = min(
                    max(abs(b.gamma_eq - gamma), abs(b.eta_b_eq - eta_b))
                    for b in solved.branches
                )
                worst = max(worst, err)
    ok &= worst < 1e-6
    degenerate = solve_equivalent(1.0, 1.0, 0.5)
    infeasible = solve_equivalent(0.5, 1.1, 0.5)
    typed_ok = degenerate.status == "degenerate" and infeasible.status == "infeasible"
    for outcome in (degenerate, infeasible):
        if outcome.state is not None:
            typed_ok &= np.isfinite(outcome.state.gamma_eq)
    ok &= typed_ok
    assert report(
        "8", ok,
        f"worst grid recovery error {worst:.2e}, typed degenerate/infeasible "
        f"outcomes: {typed_ok}",
    )


def test_criterion_9_sampler_statistics():
    cfg = HilbertConfig(3, 2)
    vac = sample_quadratures(vacuum_state(cfg), 100_000, seed=2024)
    band = 3.0 * 0.5 * np.sqrt(2.0 / 100_000)
    vac_ok = (
        abs(np.mean(vac[:, 0] ** 2) - 0.5) < band
        and abs(np.mean(vac[:, 1] ** 2) - 0.5) < band
    )

    def distilled_check(data):
        config = ScenarioConfig.from_dict(data)
        report_doc = run_sampling(config)
        arr = np.asarray(report_doc["samples"])
        empirical = np.mean((arr[:, 0] - arr[:, 1]) ** 2)
        model = report_doc["metadata"]["model_v_diff"]
        rel = abs(empirical - model) / model
        sub_shot = empirical < 1.0 - 3.0 * model * np.sqrt(2.0 / len(arr))
        return rel, sub_shot

    rel_center, sub_center = distilled_check({
        "gamma": 0.05, "degrade": {"mode": "none"}, "gain": {"g": 6.5},
        "eta_ancilla": 0.65, "eta_a": 0.5, "eta_b": 0.5,
        "model": "full_numeric", "sample_count": 10_000, "seed": 71,
    })
    rel_loss, sub_loss = distilled_check({
        "gamma": 0.135, "degrade": {"mode": "loss", "tau2": 0.05}, "gain": {"g": 10.0},
        "eta_ancilla": 0.65, "eta_a": 0.45, "eta_b": 0.5,
        "model": "full_numeric", "sample_count": 10_000, "seed": 72,
    })
    repeat_a = sample_quadratures(vacuum_state(cfg), 100, seed=5)
    repeat_b = sample_quadratures(vacuum_state(cfg), 100, seed=5)
    deterministic = np.array_equal(repeat_a, repeat_b)
    ok = (
        vac_ok
        and rel_center < 0.05
        and rel_loss < 0.05
        and sub_center
        and sub_loss
        and deterministic
    )
    assert report(
        "9", ok,
        f"vacuum moments within 3 sigma: {vac_ok}; distilled relative errors "
        f"{rel_center:.3%} and {rel_loss:.3%} (< 5%), below shot noise by 3 "
        f"sigma: {sub_center and sub_loss}; deterministic: {deterministic}",
    )
