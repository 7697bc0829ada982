import numpy as np
import pytest
from scipy.linalg import expm

from eprdistill import (
    DensityMatrix,
    HeraldingImpossibleError,
    HilbertConfig,
    annihilation_operator,
    apply_mode_kraus,
    basis_vector,
    beamsplitter_unitary,
    catalysis_kraus_operators,
    covariance_summary,
    herald_click,
    loss_channel,
    loss_kraus_operators,
    nla_catalysis,
    pump_rotation_degrade,
    pure_state,
    tensor_product,
    tmsv_state,
    vacuum_state,
)

from conftest import (
    ancilla_photon,
    beamsplitter,
    fidelity,
    kron_kraus_sum,
    random_density_matrix,
)

CFG2 = HilbertConfig(n_max=3, mode_count=2)
CFG1 = HilbertConfig(n_max=3, mode_count=1)


class TestTmsvState:
    def test_zero_squeezing_is_vacuum(self):
        np.testing.assert_allclose(
            tmsv_state(0.0, CFG2).elements, vacuum_state(CFG2).elements
        )

    def test_photon_numbers_perfectly_correlated(self):
        rho = tmsv_state(0.3, CFG2)
        diag = np.real(np.diag(rho.elements))
        for i in range(CFG2.dim):
            n_a = CFG2.mode_occupations(0)[i]
            n_b = CFG2.mode_occupations(1)[i]
            if n_a != n_b:
                assert diag[i] < 1e-15

    def test_difference_variance_closed_form(self):
        # <(X_A - X_B)^2> = (1-gamma)/(1+gamma) up to cutoff error
        cfg = HilbertConfig(n_max=5, mode_count=2)
        cov = covariance_summary(tmsv_state(0.18, cfg))
        assert cov.v_diff == pytest.approx((1 - 0.18) / (1 + 0.18), abs=1e-3)
        assert cov.v_sum == pytest.approx((1 + 0.18) / (1 - 0.18), abs=1e-3)
        assert cov.xa_xb > 0.0

    def test_fit_value_matches_hyperbolic_forms(self):
        # cross-check against cosh/sinh with tanh(s) = gamma
        gamma = 0.135
        cfg = HilbertConfig(n_max=6, mode_count=2)
        cov = covariance_summary(tmsv_state(gamma, cfg))
        diag = 0.5 * (1 + gamma**2) / (1 - gamma**2)
        cross = gamma / (1 - gamma**2)
        assert cov.xx_a == pytest.approx(diag, abs=1e-6)
        assert cov.xx_b == pytest.approx(diag, abs=1e-6)
        assert cov.xa_xb == pytest.approx(cross, abs=1e-6)
        assert cov.pa_pb == pytest.approx(-cross, abs=1e-6)

    def test_gamma_out_of_range(self):
        for gamma in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                tmsv_state(gamma, CFG2)


class TestPumpRotation:
    def test_measured_angle(self):
        # 76 degrees shrinks gamma by cos(76 deg) ~ 0.242; the rounded
        # factor 0.22 would give 0.0396
        out = pump_rotation_degrade(0.18, 76.0)
        assert out == pytest.approx(0.18 * np.cos(np.radians(76.0)))
        assert out == pytest.approx(0.0435, abs=5e-4)
        assert 0.18 * 0.22 == pytest.approx(0.0396)

    def test_zero_angle_unchanged(self):
        assert pump_rotation_degrade(0.18, 0.0) == pytest.approx(0.18)

    def test_ninety_degrees_kills_squeezing(self):
        assert abs(pump_rotation_degrade(0.18, 90.0)) < 1e-15

    def test_angle_out_of_range(self):
        with pytest.raises(ValueError):
            pump_rotation_degrade(0.18, 91.0)


class TestLossChannel:
    def test_vacuum_fixed_point(self):
        for tau in (0.0, 0.3, 1.0):
            out = loss_channel(vacuum_state(CFG1), 0, tau)
            np.testing.assert_allclose(out.elements, vacuum_state(CFG1).elements, atol=1e-14)

    def test_single_photon_binomial_mix(self):
        rho = pure_state(CFG1, basis_vector(CFG1, (1,)))
        out = loss_channel(rho, 0, np.sqrt(0.05))
        diag = np.real(np.diag(out.elements))
        assert diag[0] == pytest.approx(0.95)
        assert diag[1] == pytest.approx(0.05)

    def test_first_order_structure_through_loss(self):
        # weakly squeezed source through loss: coherent (|00> , |11>) part
        # with cross term gamma*tau plus an incoherent gamma^2 (1 - tau^2)
        # population on |10>, matched to third order in gamma
        gamma, tau = 0.05, np.sqrt(0.3)
        rho = loss_channel(tmsv_state(gamma, CFG2), 1, tau)
        el = rho.elements
        i00, i10, i11 = CFG2.index_of((0, 0)), CFG2.index_of((1, 0)), CFG2.index_of((1, 1))
        assert abs(el[i00, i11] - gamma * tau) < 2 * gamma**3
        assert abs(el[i10, i10] - gamma**2 * (1 - tau**2)) < 2 * gamma**4
        assert abs(el[i11, i11] - gamma**2 * tau**2) < 2 * gamma**4

    def test_kraus_completeness(self):
        for n_max in (3, 5):
            for tau in (0.0, 0.12, np.sqrt(0.05), 0.9, 1.0):
                ops = loss_kraus_operators(n_max, tau)
                total = sum(op.conj().T @ op for op in ops)
                assert np.max(np.abs(total - np.eye(n_max + 1))) < 1e-12

    def test_composition_law(self, rng):
        cfg = HilbertConfig(n_max=3, mode_count=2)
        for tau1, tau2 in ((0.9, 0.7), (0.5, 0.5), (1.0, 0.3)):
            rho = random_density_matrix(cfg, rng)
            seq = loss_channel(loss_channel(rho, 1, tau1), 1, tau2)
            direct = loss_channel(rho, 1, tau1 * tau2)
            assert np.max(np.abs(seq.elements - direct.elements)) < 1e-10

    def test_trace_preserving(self, rng):
        rho = random_density_matrix(CFG2, rng)
        out = loss_channel(rho, 0, 0.4)
        assert out.trace == pytest.approx(rho.trace, abs=1e-12)

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            loss_channel(vacuum_state(CFG1), 0, 1.2)

    def test_matches_kron_reference(self, rng):
        rho = random_density_matrix(CFG2, rng)
        for tau in (0.0, np.sqrt(0.05), 0.8):
            ops = loss_kraus_operators(CFG2.n_max, tau)
            for mode in (0, 1):
                out = loss_channel(rho, mode, tau)
                np.testing.assert_allclose(
                    out.elements, kron_kraus_sum(rho, mode, ops), rtol=0.0, atol=1e-15
                )


class TestAncillaPhoton:
    def test_perfect_preparation(self):
        rho = ancilla_photon(1.0, CFG1)
        np.testing.assert_allclose(
            rho.elements, pure_state(CFG1, basis_vector(CFG1, (1,))).elements
        )

    def test_failed_preparation_is_vacuum(self):
        np.testing.assert_allclose(
            ancilla_photon(0.0, CFG1).elements, vacuum_state(CFG1).elements
        )

    def test_partial_efficiency(self):
        rho = ancilla_photon(0.65, CFG1)
        np.testing.assert_allclose(
            np.real(np.diag(rho.elements)), [0.35, 0.65, 0.0, 0.0], atol=1e-15
        )

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            ancilla_photon(1.1, CFG1)


class TestBeamsplitter:
    def test_zero_reflectivity_is_identity(self, rng):
        rho = random_density_matrix(CFG2, rng)
        out = beamsplitter(rho, 0, 1, 0.0)
        assert np.max(np.abs(out.elements - rho.elements)) < 1e-12

    def test_single_photon_splitting_amplitudes(self):
        # photon in mode_a goes to (t, -r) on {|1 0>, |0 1>}
        r = 0.3
        t = np.sqrt(1 - r * r)
        u = beamsplitter_unitary(CFG2, 0, 1, r)
        out = u @ basis_vector(CFG2, (1, 0))
        assert out[CFG2.index_of((1, 0))] == pytest.approx(t)
        assert out[CFG2.index_of((0, 1))] == pytest.approx(-r)
        # photon in mode_b goes to (+r, t)
        out_b = u @ basis_vector(CFG2, (0, 1))
        assert out_b[CFG2.index_of((1, 0))] == pytest.approx(r)
        assert out_b[CFG2.index_of((0, 1))] == pytest.approx(t)
        probs = np.abs(out) ** 2
        assert probs.sum() == pytest.approx(1.0)
        assert probs[CFG2.index_of((0, 1))] == pytest.approx(r * r)

    def test_hong_ou_mandel_null(self):
        # balanced splitter: two single photons never exit one per port
        rho = pure_state(CFG2, basis_vector(CFG2, (1, 1)))
        out = beamsplitter(rho, 0, 1, 1.0 / np.sqrt(2.0))
        i11 = CFG2.index_of((1, 1))
        assert abs(out.elements[i11, i11]) < 1e-12
        diag = np.real(np.diag(out.elements))
        assert diag[CFG2.index_of((2, 0))] == pytest.approx(0.5)
        assert diag[CFG2.index_of((0, 2))] == pytest.approx(0.5)

    def test_unitarity_on_reflectivity_grid(self):
        for r in (0.0, 0.1, 0.5, 1.0 / np.sqrt(2.0), 0.99, 1.0):
            u = beamsplitter_unitary(CFG2, 0, 1, r)
            assert np.max(np.abs(u.conj().T @ u - np.eye(CFG2.dim))) < 1e-10

    def test_total_photon_number_conserved(self, rng):
        n_op = np.diag(CFG2.mode_occupations(0) + CFG2.mode_occupations(1))
        for r in (0.2, 0.7):
            rho = random_density_matrix(CFG2, rng)
            out = beamsplitter(rho, 0, 1, r)
            before = np.trace(rho.elements @ n_op).real
            after = np.trace(out.elements @ n_op).real
            assert after == pytest.approx(before, abs=1e-10)

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError):
            beamsplitter_unitary(CFG2, 1, 1, 0.5)

    def test_reflectivity_out_of_range(self):
        with pytest.raises(ValueError):
            beamsplitter_unitary(CFG2, 0, 1, 1.2)

    @pytest.mark.parametrize(
        "mode_count, n_max",
        [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)] + [(2, 10)],
    )
    def test_matches_expm_with_exact_zeros_between_blocks(self, mode_count, n_max):
        cfg = HilbertConfig(n_max, mode_count)
        occ = [cfg.mode_occupations(m) for m in range(mode_count)]
        for mode_a in range(mode_count):
            for mode_b in range(mode_count):
                if mode_a == mode_b:
                    continue
                a = annihilation_operator(cfg, mode_a)
                b = annihilation_operator(cfg, mode_b)
                generator = a.conj().T @ b - a @ b.conj().T
                # a block is fixed by n_a + n_b and every other occupation
                labels = [occ[mode_a] + occ[mode_b]] + [
                    occ[m] for m in range(mode_count) if m not in (mode_a, mode_b)
                ]
                same_block = np.all([x[:, None] == x[None, :] for x in labels], axis=0)
                for r in (0.0, 0.03, 0.3, 1.0 / np.sqrt(2.0), 1.0):
                    u = beamsplitter_unitary(cfg, mode_a, mode_b, r)
                    assert u.dtype == np.float64
                    reference = expm(np.arcsin(r) * generator)
                    assert np.max(np.abs(u - reference)) <= 1e-13
                    assert np.all(u[~same_block] == 0.0)


class TestHeraldClick:
    def test_vacuum_herald_is_impossible(self):
        with pytest.raises(HeraldingImpossibleError):
            herald_click(vacuum_state(CFG2), 1)

    def test_definite_photon_heralds_with_certainty(self, rng):
        other = random_density_matrix(HilbertConfig(3, 1), rng)
        photon = pure_state(CFG1, basis_vector(CFG1, (1,)))
        joint = tensor_product(other, photon)
        conditional, prob = herald_click(joint, 1)
        assert prob == pytest.approx(1.0)
        np.testing.assert_allclose(conditional.elements, other.elements, atol=1e-12)

    def test_probability_matches_born_rule_sum(self):
        # brute-force Born rule over basis states with a photon in the
        # heralded mode, on a concrete composed circuit
        joint = tensor_product(tmsv_state(0.3, CFG2), ancilla_photon(0.65, CFG1))
        mixed = beamsplitter(joint, 1, 2, 0.35)
        occ = mixed.config.mode_occupations(1)
        brute = sum(
            np.real(mixed.elements[i, i]) for i in range(mixed.config.dim) if occ[i] >= 1
        )
        _, prob = herald_click(mixed, 1)
        assert prob == pytest.approx(brute, abs=1e-14)


def three_mode_catalysis(epr, r, eta):
    """The catalysis circuit written out: ancilla, 3-mode beamsplitter, click."""
    ancilla = ancilla_photon(eta, HilbertConfig(epr.config.n_max, 1))
    mixed = beamsplitter(tensor_product(epr, ancilla), 1, 2, r)
    return herald_click(mixed, 1)


class TestNlaCatalysis:
    @pytest.mark.parametrize("n_max", [3, 6])
    def test_matches_three_mode_circuit(self, rng, n_max):
        cfg = HilbertConfig(n_max, 2)
        epr = random_density_matrix(cfg, rng)
        for r in (0.05, 0.3, 1.0):
            for eta in (0.0, 0.65, 1.0):
                if r == 1.0 and eta == 0.0:
                    # full reflection sends only the (absent) ancilla photon
                    # to the detector: no click on either path
                    with pytest.raises(HeraldingImpossibleError):
                        three_mode_catalysis(epr, r, eta)
                    with pytest.raises(HeraldingImpossibleError):
                        nla_catalysis(epr, r, eta)
                    continue
                out, prob = nla_catalysis(epr, r, eta)
                ref, ref_prob = three_mode_catalysis(epr, r, eta)
                assert out.config == ref.config
                np.testing.assert_allclose(out.elements, ref.elements, rtol=0.0, atol=1e-12)
                assert prob == pytest.approx(ref_prob, rel=1e-12)

    @pytest.mark.parametrize("n_max", [3, 6])
    def test_vacuum_without_ancilla_impossible_on_both_paths(self, n_max):
        vac = vacuum_state(HilbertConfig(n_max, 2))
        for r in (0.05, 0.3, 1.0):
            with pytest.raises(HeraldingImpossibleError):
                nla_catalysis(vac, r, 0.0)
            with pytest.raises(HeraldingImpossibleError):
                three_mode_catalysis(vac, r, 0.0)

    def test_kraus_family_shape_and_trace_nonincreasing(self):
        for n_max in (3, 6):
            d = n_max + 1
            ops = catalysis_kraus_operators(n_max, 0.3, 0.65)
            assert ops.shape == (2 * n_max, d, d)
            heralded = np.einsum("ikb,ikc->bc", ops.conj(), ops)
            assert np.linalg.eigvalsh(np.eye(d) - heralded).min() >= -1e-14
        with pytest.raises(ValueError):
            catalysis_kraus_operators(3, 0.3, 1.5)

    def test_vacuum_signal_heralds_at_eta_r_squared(self):
        for eta in (0.5, 0.65, 1.0):
            for r in (0.05, 0.1, 0.3):
                out, prob = nla_catalysis(tmsv_state(0.0, CFG2), r, eta)
                assert abs(prob - eta * r * r) < 1e-10
                np.testing.assert_allclose(
                    out.elements, vacuum_state(CFG2).elements, atol=1e-12
                )

    def test_impossible_at_zero_eta_and_zero_gamma(self):
        with pytest.raises(HeraldingImpossibleError):
            nla_catalysis(tmsv_state(0.0, CFG2), 0.1, 0.0)

    def test_approaches_two_term_superposition(self):
        # weak squeezing, weak reflectivity: the heralded state approaches
        # the superposition of |00> and |11> with weights (r, gamma*tau);
        # the relative sign follows the positive-correlation convention
        gamma, r = 0.01, 0.01
        out, _ = nla_catalysis(tmsv_state(gamma, CFG2), r, 1.0)
        target = r * basis_vector(CFG2, (0, 0)) + gamma * basis_vector(CFG2, (1, 1))
        assert fidelity(out, target) >= 0.999

    def test_vacuum_ancilla_leaves_lone_photon_branch(self):
        # eta = 0: the only click path transmits the signal photon, leaving
        # a photon in mode A and vacuum in mode B
        gamma, r = 0.01, 0.1
        out, prob = nla_catalysis(tmsv_state(gamma, CFG2), r, 0.0)
        i10 = CFG2.index_of((1, 0))
        assert np.real(out.elements[i10, i10]) > 0.999
        t_sq = 1.0 - r * r
        assert prob == pytest.approx(gamma**2 * t_sq, rel=1e-3)

    def test_full_reflectivity_regression_anchor(self):
        # r = 1 swaps the ancilla into the detector port outright: with a
        # perfect ancilla the click is certain and the output reproduces the
        # input (up to sign flips of odd coherences) wherever the swap stays
        # below the cutoff; the top Fock level carries a ~gamma^3 truncation
        # artifact because signal + ancilla can exceed n_max photons
        gamma = 0.1
        epr = tmsv_state(gamma, CFG2)
        out, prob = nla_catalysis(epr, 1.0, 1.0)
        assert prob == pytest.approx(1.0, abs=1e-12)
        below = (CFG2.mode_occupations(0) <= 2) & (CFG2.mode_occupations(1) <= 2)
        np.testing.assert_allclose(
            np.abs(out.elements[np.ix_(below, below)]),
            np.abs(epr.elements[np.ix_(below, below)]),
            atol=1e-12,
        )
        assert np.max(np.abs(np.abs(out.elements) - np.abs(epr.elements))) < 5e-3
        # the click heralds exactly the ancilla photon at full reflectivity,
        # so its probability equals the preparation efficiency
        _, prob_eta = nla_catalysis(epr, 1.0, 0.65)
        assert prob_eta == pytest.approx(0.65, abs=1e-12)
        with pytest.raises(HeraldingImpossibleError):
            nla_catalysis(epr, 1.0, 0.0)

    def test_herald_probability_monotone_in_eta(self):
        epr = tmsv_state(0.1, CFG2)
        for r in (0.1, 0.3):
            probs = [
                nla_catalysis(epr, r, eta)[1]
                for eta in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
            ]
            assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_herald_probability_equals_branch_trace(self):
        # the heralding probability must equal the trace of the masked
        # (unnormalized) conditional branch
        joint = tensor_product(tmsv_state(0.2, CFG2), ancilla_photon(0.65, CFG1))
        mixed = beamsplitter(joint, 1, 2, 0.2)
        occ = mixed.config.mode_occupations(1)
        mask = (occ >= 1).astype(float)
        masked_trace = float(
            np.real(np.sum(np.diag(mixed.elements) * mask))
        )
        _, prob = herald_click(mixed, 1)
        assert prob == pytest.approx(masked_trace, abs=1e-12)


class TestDeltaBlockStructure:
    """States block-diagonal in Delta = n_A - n_B stay so through the channels.

    Every single-mode Kraus operator here shifts the photon number by a fixed
    amount, so an element whose row and column Delta differ can only be fed
    by elements that are already zero.
    """

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_loss_and_catalysis_keep_off_block_elements_zero(self, rng, n_max):
        cfg = HilbertConfig(n_max, 2)
        delta = cfg.mode_occupations(0) - cfg.mode_occupations(1)
        off_block = delta[:, None] != delta[None, :]

        def check(elements):
            assert np.all(elements[off_block] == 0.0)
            assert np.real(np.trace(elements)) <= 1.0 + 1e-12

        for _ in range(20):
            # zeroing the off-block elements leaves the PSD diagonal blocks
            rho = random_density_matrix(cfg, rng).elements * ~off_block
            state = DensityMatrix(cfg, rho)
            tau_a, tau_b = rng.uniform(0.0, 1.0, size=2)
            r, eta = rng.uniform(0.05, 1.0, size=2)
            state = loss_channel(loss_channel(state, 0, tau_a), 1, tau_b)
            check(state.elements)
            branch = apply_mode_kraus(state, 1, catalysis_kraus_operators(n_max, r, eta))
            check(branch)
            out, prob = nla_catalysis(state, r, eta)
            check(out.elements)
            assert prob == pytest.approx(np.real(np.trace(branch)), rel=1e-14, abs=0.0)
