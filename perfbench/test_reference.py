"""Tests of the benchmark's references against closed forms, and of its metric list.

    python3 -m pytest perfbench -q
"""

from math import exp, sqrt

import numpy as np
import pytest

import checks
import reference as ref
import spans


def vacuum(d):
    rho = np.zeros((d * d, d * d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def fock_signal(d, n):
    """|0>_A |n>_B."""
    rho = np.zeros((d * d, d * d), dtype=complex)
    rho[n, n] = 1.0
    return rho


@pytest.mark.parametrize("d", [2, 4, 7])
@pytest.mark.parametrize("r", [0.05, 0.3, 0.8])
@pytest.mark.parametrize("eta", [0.65, 1.0])
def test_vacuum_signal_herald_probability_is_eta_r2(d, r, eta):
    _, p = ref.distill(vacuum(d), d, 1.0 / r, eta)
    assert p == pytest.approx(eta * r * r, rel=1e-12)


@pytest.mark.parametrize("r", [0.1, 0.5])
def test_single_photon_signal_click_probabilities(r):
    d = 4
    t2 = 1.0 - r * r
    # ancilla vacuum: the signal photon stays in the detector port w.p. t^2
    _, p = ref.distill(fock_signal(d, 1), d, 1.0 / r, 0.0)
    assert p == pytest.approx(t2, rel=1e-12)
    # ancilla photon: no click only for |0, 2> out, amplitude sqrt(2) r t
    _, p = ref.distill(fock_signal(d, 1), d, 1.0 / r, 1.0)
    assert p == pytest.approx(1.0 - 2.0 * r * r * t2, rel=1e-12)


@pytest.mark.parametrize("gamma", [0.135, 0.3, 0.5])
def test_squeezed_vacuum_moments(gamma):
    m = ref.moments(ref.squeezed_vacuum(gamma, 30), 30)
    assert m.v_diff == pytest.approx((1 - gamma) / (1 + gamma), rel=1e-12)
    assert m.v_sum == pytest.approx((1 + gamma) / (1 - gamma), rel=1e-12)
    assert m.duan() == pytest.approx((1 - gamma) / (1 + gamma), rel=1e-12)


@pytest.mark.parametrize("transmission", [0.0, 0.05, 0.5, 1.0])
def test_loss_kraus_is_complete(transmission):
    ops = ref.loss_kraus(7, transmission)
    assert np.allclose(sum(op.T @ op for op in ops), np.eye(7), atol=1e-14)


@pytest.mark.parametrize("tau2", [0.05, 0.5])
def test_one_sided_loss_moments(tau2):
    gamma, d = 0.3, 25
    rho = ref.apply_kraus(ref.squeezed_vacuum(gamma, d), ref.loss_kraus(d, tau2), 1, d)
    m = ref.moments(rho, d)
    diag = 0.5 * (1 + gamma**2) / (1 - gamma**2)
    cross = gamma / (1 - gamma**2)
    assert m.xx_a == pytest.approx(diag, rel=1e-12)
    assert m.xx_b == pytest.approx(tau2 * diag + 0.5 * (1 - tau2), rel=1e-12)
    assert m.xa_xb == pytest.approx(sqrt(tau2) * cross, rel=1e-12)
    assert m.pa_pb == pytest.approx(-sqrt(tau2) * cross, rel=1e-12)


def test_transmission_bound_for_loss_factor_20():
    assert ref.transmission_bound(0.05) == pytest.approx(0.9047619, rel=1e-6)


def test_single_photon_model_ideal_limit():
    ideal = ref.Scenario(eta_ancilla=1.0, eta_a=1.0, eta_b=1.0)
    for beta in (0.5, 1.0, 1.0 + sqrt(2.0), 4.0):
        g = 1.0 / (beta * ideal.gamma * ideal.tau)
        v_diff, v_sum = ref.single_photon_variances(ideal, g)
        assert v_diff == pytest.approx((beta**2 + 3 - 2 * beta) / (beta**2 + 1), rel=1e-12)
        assert v_sum == pytest.approx((beta**2 + 3 + 2 * beta) / (beta**2 + 1), rel=1e-12)
    best = ref.single_photon_variances(ideal, 1.0 / ((1 + sqrt(2.0)) * ideal.gamma * ideal.tau))
    assert best[0] == pytest.approx(2.0 - sqrt(2.0), rel=1e-12)


def test_full_reference_approaches_single_photon_model_at_weak_coupling():
    weak = ref.Scenario(gamma=0.01)
    g = 1.0 / ((1 + sqrt(2.0)) * weak.gamma * weak.tau)
    point = ref.sweep_point(weak, 3, g)
    v_diff, v_sum = ref.single_photon_variances(weak, g)
    assert point.v_diff == pytest.approx(v_diff, abs=1e-3)
    assert point.v_sum == pytest.approx(v_sum, abs=1e-3)


def test_equivalent_forward_map_at_unit_efficiency():
    for g in (0.0, 0.2, 1.0):
        v_diff, v_sum = ref.equivalent_variances(g, 1.0, 1.0)
        assert v_diff == pytest.approx(exp(-2 * g), rel=1e-12)
        assert v_sum == pytest.approx(exp(2 * g), rel=1e-12)


def test_hermite_functions_are_orthonormal():
    x = np.linspace(-15.0, 15.0, 30001)
    psi = np.array([ref.hermite_function(n, x) for n in range(8)])
    gram = np.trapezoid(psi[:, None, :] * psi[None, :, :], x, axis=-1)
    assert np.allclose(gram, np.eye(8), atol=1e-10)


def test_marginal_density_of_squeezed_vacuum():
    gamma, d = 0.3, 30
    rho_a = ref.reduced(ref.squeezed_vacuum(gamma, d), d, 0)
    x = np.linspace(-15.0, 15.0, 30001)
    pdf = ref.marginal_density(rho_a, x)
    assert np.trapezoid(pdf, x) == pytest.approx(1.0, rel=1e-10)
    var = 0.5 * (1 + gamma**2) / (1 - gamma**2)
    assert np.trapezoid(x * x * pdf, x) == pytest.approx(var, rel=1e-10)


def test_statistical_checks_pass_exact_samples_and_catch_a_wrong_width():
    rng = np.random.default_rng(7)
    x, cdf = checks.marginal_cdf(np.diag([1.0, 0.0]))  # vacuum: variance 1/2
    exact = rng.normal(scale=sqrt(0.5), size=200_000)
    wide = exact * sqrt(1.05)
    assert checks.gof_p(exact, x, cdf) > checks.GOF_P_MIN
    assert checks.variance_z(exact, 0.5) < checks.MAX_Z
    assert checks.gof_p(wide, x, cdf) < checks.GOF_P_MIN
    assert checks.variance_z(wide, 0.5) > checks.MAX_Z


def test_every_listed_per_layer_metric_is_computed():
    listed = spans.listed_metrics()
    assert list(spans.layer_metrics([])) == [name for name, _ in listed]
