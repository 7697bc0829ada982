import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from eprdistill import (
    BETA_OPTIMAL,
    HilbertConfig,
    V_DIFF_OPTIMAL,
    apply_detection_efficiency,
    beta_from_gain,
    covariance_summary,
    degraded_variances,
    deterministic_bound,
    ideal_variances,
    loss_channel,
    optimal_gain,
    sp_model_covariance,
    tmsv_covariance,
    tmsv_state,
)
from eprdistill.models import sp_model


class TestIdealVariances:
    def test_optimum_values(self):
        v_diff, _ = ideal_variances(BETA_OPTIMAL)
        assert v_diff == pytest.approx(V_DIFF_OPTIMAL, abs=1e-14)
        assert V_DIFF_OPTIMAL == pytest.approx(2.0 - np.sqrt(2.0))

    def test_vacuum_limit(self):
        v_diff, v_sum = ideal_variances(1e8)
        assert v_diff == pytest.approx(1.0, abs=1e-7)
        assert v_sum == pytest.approx(1.0, abs=1e-7)

    def test_beta_one(self):
        assert ideal_variances(1.0) == (pytest.approx(1.0), pytest.approx(3.0))

    def test_uncertainty_like_product(self):
        for beta in np.geomspace(0.05, 50.0, 40):
            v_diff, v_sum = ideal_variances(beta)
            assert v_diff * v_sum >= 1.0 - 1e-12

    def test_unique_interior_minimum(self):
        betas = np.linspace(0.2, 12.0, 2000)
        values = np.array([ideal_variances(b)[0] for b in betas])
        drops = np.diff(values) < 0
        # strictly decreasing then strictly increasing: one sign change
        assert np.sum(np.diff(drops.astype(int)) != 0) == 1
        result = minimize_scalar(
            lambda b: ideal_variances(b)[0], bounds=(0.5, 10.0), method="bounded",
            options={"xatol": 1e-10},
        )
        assert result.x == pytest.approx(BETA_OPTIMAL, abs=1e-6)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            ideal_variances(0.0)


class TestOptimalGain:
    def test_loss_case_fit_parameters(self):
        g = optimal_gain(0.135, np.sqrt(0.05))
        assert g == pytest.approx(1.0 / (0.135 * np.sqrt(0.05) * (1 + np.sqrt(2.0))))
        assert g == pytest.approx(13.72, abs=0.01)

    def test_rotated_pump_value(self):
        g = optimal_gain(0.0396, 1.0)
        assert g == pytest.approx(10.46, abs=0.01)

    def test_unit_gain_fixed_point(self):
        gamma_tau = 1.0 / (1.0 + np.sqrt(2.0))
        assert optimal_gain(gamma_tau, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_zero_product(self):
        with pytest.raises(ValueError):
            optimal_gain(0.0, 0.5)


class TestSinglePhotonModel:
    def test_unit_eta_reduces_to_ideal(self):
        for beta in (0.5, 1.0, BETA_OPTIMAL, 4.0, 9.0):
            gamma, tau = 0.01, 0.5
            gain = 1.0 / (beta * gamma * tau)
            cov = sp_model_covariance(gamma, tau, gain, eta=1.0)
            v_diff, v_sum = ideal_variances(beta)
            assert cov.v_diff == pytest.approx(v_diff, abs=1e-12)
            assert cov.v_sum == pytest.approx(v_sum, abs=1e-12)

    def test_zero_eta_lone_photon_moments(self):
        cov = sp_model_covariance(0.01, 0.5, 100.0, eta=0.0)
        assert cov.xx_a == pytest.approx(1.5)
        assert cov.xx_b == pytest.approx(0.5)
        assert cov.xa_xb == pytest.approx(0.0)

    def test_matches_full_numeric_deep_in_weak_regime(self):
        # tiny gamma*tau: the numeric circuit and the analytic model must
        # agree to a fraction of a percent
        from eprdistill import nla_catalysis

        gamma, tau2 = 0.0135, 0.0005
        tau = np.sqrt(tau2)
        beta = BETA_OPTIMAL
        gain = 1.0 / (beta * gamma * tau)
        cfg = HilbertConfig(3)
        state = loss_channel(tmsv_state(gamma, cfg), 1, tau)
        distilled, _ = nla_catalysis(state, 1.0 / gain, 0.65)
        numeric = covariance_summary(distilled)
        model = sp_model_covariance(gamma, tau, gain, eta=0.65)
        assert numeric.v_diff == pytest.approx(model.v_diff, rel=2e-3)
        assert numeric.v_sum == pytest.approx(model.v_sum, rel=2e-3)

    def test_herald_probability_limits(self):
        # eta = 1, vanishing squeezing: p -> r^2
        assert sp_model(1e-9, 1.0, 10.0, 1.0)[1] == pytest.approx(
            0.01, rel=1e-6
        )
        # eta = 0: only the transmitted signal photon clicks
        gamma, tau = 0.1, 0.5
        expected = (gamma * tau) ** 2 / (1.0 + (gamma * tau) ** 2)
        assert sp_model(gamma, tau, 10.0, 0.0)[1] == pytest.approx(expected)


class TestDeterministicBound:
    def test_reference_channel(self):
        value = deterministic_bound(np.sqrt(0.05))
        assert value == pytest.approx(0.95 / 1.05, abs=1e-12)
        assert round(value, 3) == 0.905

    def test_lossless_channel(self):
        assert deterministic_bound(1.0) == pytest.approx(0.0)

    def test_half_intensity(self):
        assert deterministic_bound(np.sqrt(0.5)) == pytest.approx(1.0 / 3.0)

    def test_opaque_channel_degenerates(self):
        with pytest.warns(UserWarning, match="degenerates"):
            assert deterministic_bound(0.0) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            deterministic_bound(1.5)


class TestTmsvCovariance:
    def test_matches_numeric_extraction(self):
        cfg = HilbertConfig(6)
        for gamma in (0.05, 0.135, 0.18):
            closed = tmsv_covariance(gamma)
            numeric = covariance_summary(tmsv_state(gamma, cfg))
            assert numeric.xx_a == pytest.approx(closed.xx_a, abs=1e-6)
            assert numeric.xa_xb == pytest.approx(closed.xa_xb, abs=1e-6)

    def test_difference_variance_identity(self):
        for gamma in (0.05, 0.3, 0.7):
            cov = tmsv_covariance(gamma)
            assert cov.v_diff == pytest.approx((1 - gamma) / (1 + gamma), abs=1e-12)
            assert cov.v_sum == pytest.approx((1 + gamma) / (1 - gamma), abs=1e-12)


class TestDegradedVariances:
    def test_matches_channel_pipeline(self):
        # independent oracle: run the actual loss channels and the detector
        # map on the numeric source state, unrotated and pump-rotated
        tau = np.sqrt(0.05)
        eta_a, eta_b = 0.5, 0.5
        cfg = HilbertConfig(6)
        for gamma in (0.18, 0.18 * np.cos(np.radians(76.0))):
            state = loss_channel(tmsv_state(gamma, cfg), 1, tau)
            cov = apply_detection_efficiency(covariance_summary(state), eta_a, eta_b)
            v_diff, v_sum = degraded_variances(gamma, tau, eta_a, eta_b)
            assert v_diff == pytest.approx(cov.v_diff, abs=1e-6)
            assert v_sum == pytest.approx(cov.v_sum, abs=1e-6)

    @pytest.mark.parametrize("gamma", [0.18, 0.18 * np.cos(np.radians(76.0))])
    def test_one_sided_loss_excess_noise_closed_form(self, gamma):
        # loss on mode B leaves mode A's marginal alone and scales mode B's
        # excess noise by tau^2, so v_sum + v_diff - 2 depends only on the
        # marginals: 2 (eta_a + eta_b tau^2) gamma^2 / (1 - gamma^2).  At
        # 0.5/0.5 detection gamma = 0.18 gives at least 0.033 for any tau,
        # against 0.003 implied by the 0.993 / 1.010 loss reference pair, so
        # those references cannot come from one-sided loss on that source.
        eta_a, eta_b = 0.5, 0.5
        cfg = HilbertConfig(6)
        source = tmsv_state(gamma, cfg)
        for tau in (0.0, np.sqrt(0.05), 0.5, 0.9, 1.0):
            state = loss_channel(source, 1, tau)
            cov = apply_detection_efficiency(covariance_summary(state), eta_a, eta_b)
            expected = 2.0 * (eta_a + eta_b * tau**2) * gamma**2 / (1.0 - gamma**2)
            assert cov.v_sum + cov.v_diff - 2.0 == pytest.approx(expected, abs=1e-6)

    def test_identity_pipeline_is_vacuum(self):
        assert degraded_variances(0.0, 1.0, 1.0, 1.0) == (
            pytest.approx(1.0),
            pytest.approx(1.0),
        )

    def test_rotated_pump_reference_levels(self):
        # reduced squeezing 0.18 cos(76 deg) with 0.5/0.5 detection lands on
        # the reference noise levels 0.966 / 1.044 within 0.01
        gamma = 0.18 * np.cos(np.radians(76.0))
        v_diff, v_sum = degraded_variances(gamma, 1.0, 0.5, 0.5)
        assert v_diff == pytest.approx(0.966, abs=0.01)
        assert v_sum == pytest.approx(1.044, abs=0.01)

    def test_frozen_pipeline_values(self):
        # frozen outputs of the closed-form pipeline (guards regressions)
        v_diff, v_sum = degraded_variances(0.18 * np.cos(np.radians(76.0)), 1.0, 0.5, 0.5)
        assert v_diff == pytest.approx(0.9582711795538831, abs=1e-12)
        assert v_sum == pytest.approx(1.0455285236208165, abs=1e-12)
        v_diff, v_sum = degraded_variances(0.18, np.sqrt(0.05), 0.5, 0.5)
        assert v_diff == pytest.approx(0.9759826130684204, abs=1e-12)
        assert v_sum == pytest.approx(1.0591765436078917, abs=1e-12)


class TestBetaFromGain:
    def test_round_trip_with_optimal_gain(self):
        gamma, tau = 0.135, np.sqrt(0.05)
        assert beta_from_gain(optimal_gain(gamma, tau), gamma, tau) == pytest.approx(
            BETA_OPTIMAL, abs=1e-12
        )

    def test_rejects_gain_below_one(self):
        with pytest.raises(ValueError):
            beta_from_gain(0.5, 0.1, 1.0)


class TestModelAgreementOrdering:
    def test_discrepancy_shrinks_with_weaker_coupling(self):
        # |v_diff(analytic) - v_diff(numeric)| must fall monotonically as
        # gamma*tau drops through 3e-2, 3e-3, 3e-4 at fixed beta
        from eprdistill import nla_catalysis

        tau = np.sqrt(0.05)
        cfg = HilbertConfig(3)

        def discrepancy(gamma, beta):
            gain = 1.0 / (beta * gamma * tau)
            state = loss_channel(tmsv_state(gamma, cfg), 1, tau)
            distilled, _ = nla_catalysis(state, 1.0 / gain, 0.65)
            numeric = covariance_summary(distilled)
            model = sp_model_covariance(gamma, tau, gain, eta=0.65)
            return abs(numeric.v_diff - model.v_diff)

        for beta in (1.5, BETA_OPTIMAL, 4.0):
            values = [discrepancy(g, beta) for g in (0.135, 0.0135, 0.00135)]
            assert values[0] > values[1] > values[2]
