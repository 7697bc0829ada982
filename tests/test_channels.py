import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from eprdistill import (
    HeraldingImpossibleError,
    HilbertConfig,
    InvalidStateError,
    apply_mode_kraus,
    catalysis_kraus_operators,
    covariance_summary,
    loss_channel,
    loss_kraus_operators,
    nla_catalysis,
    pump_rotation_degrade,
    tmsv_state,
)
from eprdistill import channels, tolerances
from eprdistill.channels import beamsplitter_unitary, ensemble_state, herald_click, tmsv_ensemble
from eprdistill.fock import tensor_product
from eprdistill.quadratures import heisenberg_operators, kraus_moments, mode_b_operators

from conftest import (
    ancilla_photon,
    annihilation_operator,
    beamsplitter,
    dense_catalysis_kraus,
    fidelity,
    fock_vector,
    kron_kraus_sum,
    mode_occupations,
    off_block_mask,
    pure_state,
    random_density_matrix,
    three_mode_catalysis,
)

CFG2 = HilbertConfig(n_max=3)
VACUUM = tmsv_state(0.0, CFG2)


class TestTmsvState:
    def test_zero_squeezing_is_vacuum(self):
        vacuum = pure_state(CFG2, fock_vector(CFG2.n_max, (0, 0)))
        np.testing.assert_allclose(tmsv_state(0.0, CFG2).elements, vacuum.elements)

    def test_photon_numbers_perfectly_correlated(self):
        rho = tmsv_state(0.3, CFG2)
        diag = np.real(np.diag(rho.elements))
        for i in range(CFG2.dim):
            n_a = mode_occupations(CFG2.n_max, 2, 0)[i]
            n_b = mode_occupations(CFG2.n_max, 2, 1)[i]
            if n_a != n_b:
                assert diag[i] < 1e-15

    def test_difference_variance_closed_form(self):
        # <(X_A - X_B)^2> = (1-gamma)/(1+gamma) up to cutoff error
        cfg = HilbertConfig(n_max=5)
        cov = covariance_summary(tmsv_state(0.18, cfg))
        assert cov.v_diff == pytest.approx((1 - 0.18) / (1 + 0.18), abs=1e-3)
        assert cov.v_sum == pytest.approx((1 + 0.18) / (1 - 0.18), abs=1e-3)
        assert cov.xa_xb > 0.0

    def test_fit_value_matches_hyperbolic_forms(self):
        # cross-check against cosh/sinh with tanh(s) = gamma
        gamma = 0.135
        cfg = HilbertConfig(n_max=6)
        cov = covariance_summary(tmsv_state(gamma, cfg))
        diag = 0.5 * (1 + gamma**2) / (1 - gamma**2)
        cross = gamma / (1 - gamma**2)
        assert cov.xx_a == pytest.approx(diag, abs=1e-6)
        assert cov.xx_b == pytest.approx(diag, abs=1e-6)
        assert cov.xa_xb == pytest.approx(cross, abs=1e-6)

    def test_gamma_out_of_range(self):
        for gamma in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                tmsv_state(gamma, CFG2)


def tmsv_vector(gamma: float, n_max: int) -> np.ndarray:
    """gamma^n on |nn>: the squeezed vacuum's amplitudes, not normalized."""
    d = n_max + 1
    vec = np.zeros(d * d)
    vec[:: d + 1] = [gamma**n for n in range(d)]
    return vec


class TestTmsvEnsemble:
    """The lossy source as its stack of branches Phi_k, against the dense path."""

    POINTS = [(0.135, math.sqrt(0.05)), (0.9, 0.7), (0.3, 1.0), (0.0, 0.4), (0.6, 0.0)]

    @staticmethod
    def assert_matches_the_dense_path(n_max, gamma, tau):
        # the densified stack, and its (E, N, B) as the (R, W, L) of that state
        cfg = HilbertConfig(n_max)
        ensemble = tmsv_ensemble(n_max, gamma, tau)
        densified = ensemble_state(cfg, ensemble)
        for source in (tmsv_state(gamma, cfg), pure_state(cfg, tmsv_vector(gamma, n_max))):
            expected = loss_channel(source, 1, tau).elements
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(densified.elements - expected)) <= 1e-15 * scale
        theirs = mode_b_operators(densified)
        top = max(np.max(np.abs(op)) for op in theirs)
        for ours, op in zip(heisenberg_operators(ensemble), theirs):
            assert np.max(np.abs(ours - op)) <= 1e-15 * top

    @pytest.mark.parametrize("n_max", range(1, 7))
    @pytest.mark.parametrize("gamma, tau", POINTS)
    def test_densified_stack_matches_the_dense_path(self, n_max, gamma, tau):
        self.assert_matches_the_dense_path(n_max, gamma, tau)

    @settings(max_examples=80, deadline=None)
    @given(n_max=st.integers(1, 6), gamma=st.floats(0.0, 0.95), tau=st.floats(0.0, 1.0))
    def test_densified_stack_matches_the_dense_path_anywhere(self, n_max, gamma, tau):
        self.assert_matches_the_dense_path(n_max, gamma, tau)

    @settings(max_examples=80, deadline=None)
    @given(n_max=st.integers(1, 6), gamma=st.floats(0.0, 0.95), tau=st.floats(0.0, 1.0))
    def test_each_branch_lies_on_its_line_and_tr_r_is_one(self, n_max, gamma, tau):
        # Phi_k[n_A, n_B] is zero unless n_A - n_B = k, so every Delta block
        # of the state is rank one; the source operator R has trace 1
        ensemble = tmsv_ensemble(n_max, gamma, tau)
        lines = np.subtract.outer(np.arange(n_max + 1), np.arange(n_max + 1))
        assert ensemble.shape == (n_max + 1,) * 3
        for k, branch in enumerate(ensemble):
            assert np.all(branch[lines != k] == 0.0)
        r, _, _ = heisenberg_operators(ensemble)
        assert abs(np.trace(r) - 1.0) <= tolerances.TRACE_UPPER_SLACK

    def test_lossless_stack_is_one_branch(self):
        # at tau = 1, L_0 = 1 and every other L_k vanishes
        ensemble = tmsv_ensemble(3, 0.3, 1.0)
        assert np.all(ensemble[1:] == 0.0)
        psi = np.diag(ensemble[0])
        assert psi == pytest.approx(0.3 ** np.arange(4) / np.linalg.norm(0.3 ** np.arange(4)))


class TestRealArithmetic:
    def test_states_and_channels_are_float64(self):
        # every number of the model is real; states stay float64 through it
        epr = tmsv_state(0.135, CFG2)
        lossy = loss_channel(epr, 1, np.sqrt(0.05))
        distilled, _ = nla_catalysis(lossy, 0.1, 0.65)
        for state in (epr, lossy, distilled):
            assert state.elements.dtype == np.float64
        assert all(op.dtype == np.float64 for op in loss_kraus_operators(3, 0.5))
        assert catalysis_kraus_operators(3, 0.1, 0.65).dtype == np.float64


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
            for mode in (0, 1):
                out = loss_channel(VACUUM, mode, tau)
                np.testing.assert_allclose(out.elements, VACUUM.elements, atol=1e-14)

    def test_single_photon_binomial_mix(self):
        rho = pure_state(CFG2, fock_vector(CFG2.n_max, (1, 0)))
        out = loss_channel(rho, 0, np.sqrt(0.05))
        diag = np.real(np.diag(out.elements))
        assert diag @ fock_vector(CFG2.n_max, (0, 0)) == pytest.approx(0.95)
        assert diag @ fock_vector(CFG2.n_max, (1, 0)) == pytest.approx(0.05)

    def test_first_order_structure_through_loss(self):
        # weakly squeezed source through loss: coherent (|00> , |11>) part
        # with cross term gamma*tau plus an incoherent gamma^2 (1 - tau^2)
        # population on |10>, matched to third order in gamma
        gamma, tau = 0.05, np.sqrt(0.3)
        rho = loss_channel(tmsv_state(gamma, CFG2), 1, tau)
        el = rho.elements
        v00, v10, v11 = (fock_vector(CFG2.n_max, occ) for occ in ((0, 0), (1, 0), (1, 1)))
        assert abs(v00 @ el @ v11 - gamma * tau) < 2 * gamma**3
        assert abs(v10 @ el @ v10 - gamma**2 * (1 - tau**2)) < 2 * gamma**4
        assert abs(v11 @ el @ v11 - gamma**2 * tau**2) < 2 * gamma**4

    def test_kraus_completeness(self):
        for n_max in (3, 5):
            for tau in (0.0, 0.12, np.sqrt(0.05), 0.9, 1.0):
                ops = loss_kraus_operators(n_max, tau)
                total = sum(op.conj().T @ op for op in ops)
                assert np.max(np.abs(total - np.eye(n_max + 1))) < 1e-12

    def test_composition_law(self, rng):
        cfg = HilbertConfig(n_max=3)
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
            loss_channel(VACUUM, 0, 1.2)

    def test_matches_kron_reference(self, rng):
        rho = random_density_matrix(CFG2, rng)
        for tau in (0.0, np.sqrt(0.05), 0.8):
            ops = loss_kraus_operators(CFG2.n_max, tau)
            for mode in (0, 1):
                out = loss_channel(rho, mode, tau)
                np.testing.assert_allclose(
                    out.elements, kron_kraus_sum(rho, mode, ops), rtol=0.0, atol=1e-15
                )

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_entries_match_the_closed_form(self, n_max):
        # the same float operations in the same order, so equal bit for bit;
        # the 1/g values catch numpy's SIMD power, which misses pow by an ulp
        d = n_max + 1
        for tau in (0.0, 0.12, math.sqrt(0.05), 0.5, 0.9, 1.0, *(1.0 / np.arange(2.0, 31.0))):
            ops = loss_kraus_operators(n_max, tau)
            expected = np.zeros((d, d, d))
            for k in range(d):
                for n in range(k, d):
                    expected[k, n - k, n] = (
                        math.sqrt(math.comb(n, k)) * tau ** (n - k) * (1 - tau * tau) ** (k / 2)
                    )
            np.testing.assert_array_equal(ops, expected)

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_stack_equals_single_calls(self, n_max):
        taus = np.concatenate(
            [[0.0, 0.12, np.sqrt(0.05), 0.5, 0.9, 1.0], 1.0 / np.linspace(1.0, 30.0, 57)]
        )
        stacked = loss_kraus_operators(n_max, taus)
        assert stacked.shape == (len(taus), n_max + 1, n_max + 1, n_max + 1)
        assert np.array_equal(stacked, [loss_kraus_operators(n_max, tau) for tau in taus])

    def test_stack_rejects_any_tau_out_of_range(self):
        with pytest.raises(ValueError, match=r"tau must be in \[0, 1\], got"):
            loss_kraus_operators(CFG2.n_max, np.array([0.5, 1.2, 0.3]))


class TestAncillaPhoton:
    def test_perfect_preparation(self):
        photon = fock_vector(3, (1,))
        np.testing.assert_allclose(ancilla_photon(1.0, 3), np.outer(photon, photon))

    def test_failed_preparation_is_vacuum(self):
        vacuum = fock_vector(3, (0,))
        np.testing.assert_allclose(ancilla_photon(0.0, 3), np.outer(vacuum, vacuum))

    def test_partial_efficiency(self):
        np.testing.assert_allclose(
            np.diag(ancilla_photon(0.65, 3)), [0.35, 0.65, 0.0, 0.0], atol=1e-15
        )

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            ancilla_photon(1.1, 3)


class TestBeamsplitter:
    def test_zero_reflectivity_is_identity(self, rng):
        rho = random_density_matrix(CFG2, rng)
        out = beamsplitter(rho.elements, CFG2.n_max, 0.0)
        assert np.max(np.abs(out - rho.elements)) < 1e-12

    def test_single_photon_splitting_amplitudes(self):
        # photon in mode 0 goes to (t, -r) on {|1 0>, |0 1>}
        r = 0.3
        t = np.sqrt(1 - r * r)
        u = beamsplitter_unitary(CFG2.n_max, r)
        v10, v01 = fock_vector(CFG2.n_max, (1, 0)), fock_vector(CFG2.n_max, (0, 1))
        out = u @ v10
        assert out @ v10 == pytest.approx(t)
        assert out @ v01 == pytest.approx(-r)
        # photon in mode 1 goes to (+r, t)
        out_b = u @ v01
        assert out_b @ v10 == pytest.approx(r)
        assert out_b @ v01 == pytest.approx(t)
        probs = np.abs(out) ** 2
        assert probs.sum() == pytest.approx(1.0)
        assert probs @ v01 == pytest.approx(r * r)

    def test_hong_ou_mandel_null(self):
        # balanced splitter: two single photons never exit one per port
        v11 = fock_vector(CFG2.n_max, (1, 1))
        out = beamsplitter(pure_state(CFG2, v11).elements, CFG2.n_max, 1.0 / np.sqrt(2.0))
        assert abs(v11 @ out @ v11) < 1e-12
        diag = np.real(np.diag(out))
        assert diag @ fock_vector(CFG2.n_max, (2, 0)) == pytest.approx(0.5)
        assert diag @ fock_vector(CFG2.n_max, (0, 2)) == pytest.approx(0.5)

    def test_unitarity_on_reflectivity_grid(self):
        for r in (0.0, 0.1, 0.5, 1.0 / np.sqrt(2.0), 0.99, 1.0):
            u = beamsplitter_unitary(CFG2.n_max, r)
            assert np.max(np.abs(u.conj().T @ u - np.eye(CFG2.dim))) < 1e-10

    def test_total_photon_number_conserved(self, rng):
        n_op = np.diag(mode_occupations(CFG2.n_max, 2, 0) + mode_occupations(CFG2.n_max, 2, 1))
        for r in (0.2, 0.7):
            rho = random_density_matrix(CFG2, rng)
            out = beamsplitter(rho.elements, CFG2.n_max, r)
            before = np.trace(rho.elements @ n_op).real
            after = np.trace(out @ n_op).real
            assert after == pytest.approx(before, abs=1e-10)

    def test_reflectivity_out_of_range(self):
        with pytest.raises(ValueError):
            beamsplitter_unitary(CFG2.n_max, 1.2)

    @pytest.mark.parametrize("n_max", [*range(1, 7), 10], ids=lambda n: f"2-{n}")
    def test_matches_expm_with_exact_zeros_between_blocks(self, n_max):
        cfg = HilbertConfig(n_max)
        one, eye = annihilation_operator(n_max), np.eye(cfg.dim_per_mode)
        a, b = np.kron(one, eye), np.kron(eye, one)
        # complex input: scipy's real expm path has errors up to 4.5e-14 here
        generator = (a.T @ b - a @ b.T).astype(complex)
        # a block is fixed by the total photon number n_a + n_b
        total = mode_occupations(cfg.n_max, 2, 0) + mode_occupations(cfg.n_max, 2, 1)
        same_block = total[:, None] == total[None, :]
        for r in (0.0, 0.03, 0.3, 1.0 / np.sqrt(2.0), 1.0):
            u = beamsplitter_unitary(n_max, r)
            assert u.dtype == np.float64
            reference = expm(np.arcsin(r) * generator)
            assert np.max(np.abs(u - reference)) <= 1e-13
            assert np.all(u[~same_block] == 0.0)

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_stack_equals_single_calls(self, n_max):
        # each gain keeps its own squaring count, so the stack is bitwise equal
        gains = np.concatenate([np.linspace(1.0, 30.0, 57), np.geomspace(1.0, 1e4, 20)])
        for rs in (1.0 / gains[:57], 1.0 / gains[57:]):
            stacked = beamsplitter_unitary(n_max, rs)
            assert stacked.shape == (len(rs), (n_max + 1) ** 2, (n_max + 1) ** 2)
            assert np.array_equal(stacked, [beamsplitter_unitary(n_max, r) for r in rs])

    def test_stack_rejects_any_reflectivity_out_of_range(self):
        with pytest.raises(ValueError):
            beamsplitter_unitary(CFG2.n_max, np.array([0.5, 1.2]))


class TestHeraldClick:
    def test_vacuum_herald_is_impossible(self):
        vacuum = tensor_product(VACUUM.elements, ancilla_photon(0.0, CFG2.n_max))
        for mode in range(3):
            with pytest.raises(HeraldingImpossibleError):
                herald_click(vacuum, CFG2.n_max, mode)

    def test_definite_photon_heralds_with_certainty(self, rng):
        other = random_density_matrix(CFG2, rng)
        joint = tensor_product(other.elements, ancilla_photon(1.0, CFG2.n_max))
        conditional, prob = herald_click(joint, CFG2.n_max, 2)
        assert prob == pytest.approx(1.0)
        np.testing.assert_allclose(conditional.elements, other.elements, atol=1e-12)

    def test_probability_matches_born_rule_sum(self):
        # brute-force Born rule over basis states with a photon in the
        # heralded mode, on a concrete composed circuit
        joint = tensor_product(tmsv_state(0.3, CFG2).elements, ancilla_photon(0.65, CFG2.n_max))
        mixed = beamsplitter(joint, CFG2.n_max, 0.35)
        occ = mode_occupations(CFG2.n_max, 3, 1)
        brute = sum(np.real(mixed[i, i]) for i in range(len(mixed)) if occ[i] >= 1)
        _, prob = herald_click(mixed, CFG2.n_max, 1)
        assert prob == pytest.approx(brute, abs=1e-14)


class TestNlaCatalysis:
    @pytest.mark.parametrize("n_max", [3, 6])
    def test_matches_three_mode_circuit(self, rng, n_max):
        cfg = HilbertConfig(n_max)
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
        vac = tmsv_state(0.0, HilbertConfig(n_max))
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

    def test_stacked_kraus_families_equal_single_calls(self):
        rs = 1.0 / np.linspace(1.0, 30.0, 9)
        for n_max in (3, 6):
            d = n_max + 1
            stacked = catalysis_kraus_operators(n_max, rs, 0.65)
            assert stacked.shape == (len(rs), 2 * n_max, d, d)
            singles = [catalysis_kraus_operators(n_max, r, 0.65) for r in rs]
            assert np.array_equal(stacked, singles)

    def test_stack_equals_single_calls_and_masks_impossible_gains(self):
        # each gain's moments are those of its own single-gain call, bit for
        # bit; p stays above the herald floor exactly where nla_catalysis
        # heralds, and a vacuum signal without an ancilla photon never clicks
        rs = np.array([0.1, 0.3, 0.5])
        for epr, eta in ((tmsv_state(0.135, CFG2), 0.65), (tmsv_state(0.0, CFG2), 0.0)):
            columns = np.array(catalysis_moments(epr, rs, eta))
            singles = np.hstack([catalysis_moments(epr, rs[i : i + 1], eta) for i in range(3)])
            assert columns.tobytes() == singles.tobytes()
            for r, p in zip(rs, columns[0]):
                if p > tolerances.HERALD_MIN_PROBABILITY:
                    assert nla_catalysis(epr, r, eta)[1] == pytest.approx(p, rel=1e-14)
                else:
                    with pytest.raises(HeraldingImpossibleError):
                        nla_catalysis(epr, r, eta)
        assert columns.tolist() == [[0.0] * 3] * 4

    def test_vacuum_signal_heralds_at_eta_r_squared(self):
        for eta in (0.5, 0.65, 1.0):
            for r in (0.05, 0.1, 0.3):
                out, prob = nla_catalysis(tmsv_state(0.0, CFG2), r, eta)
                assert abs(prob - eta * r * r) < 1e-10
                np.testing.assert_allclose(
                    out.elements, tmsv_state(0.0, CFG2).elements, atol=1e-12
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
        target = r * fock_vector(CFG2.n_max, (0, 0)) + gamma * fock_vector(CFG2.n_max, (1, 1))
        assert fidelity(out, target) >= 0.999

    def test_vacuum_ancilla_leaves_lone_photon_branch(self):
        # eta = 0: the only click path transmits the signal photon, leaving
        # a photon in mode A and vacuum in mode B
        gamma, r = 0.01, 0.1
        out, prob = nla_catalysis(tmsv_state(gamma, CFG2), r, 0.0)
        v10 = fock_vector(CFG2.n_max, (1, 0))
        assert v10 @ out.elements @ v10 > 0.999
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
        below = np.all([mode_occupations(CFG2.n_max, 2, m) <= 2 for m in (0, 1)], axis=0)
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

    def test_conditional_state_validated_once(self, monkeypatch):
        # one eigendecomposition per catalysis: the branch / p inside normalize
        epr = tmsv_state(0.135, CFG2)
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        nla_catalysis(epr, 0.3, 0.65)
        assert len(calls) == 1

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
        joint = tensor_product(tmsv_state(0.2, CFG2).elements, ancilla_photon(0.65, CFG2.n_max))
        mixed = beamsplitter(joint, CFG2.n_max, 0.2)
        mask = (mode_occupations(CFG2.n_max, 3, 1) >= 1).astype(float)
        masked_trace = float(np.real(np.sum(np.diag(mixed) * mask)))
        _, prob = herald_click(mixed, CFG2.n_max, 1)
        assert prob == pytest.approx(masked_trace, abs=1e-12)


class TestCatalysisAmplitudes:
    """The binomial Kraus amplitudes against the dense unitary, the loss
    family and a larger cutoff."""

    GAINS = 1.0 / np.geomspace(1.0, 12000.0, 40)

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_match_the_dense_unitary(self, n_max):
        for eta in (0.0, 0.65, 1.0):
            ops = catalysis_kraus_operators(n_max, self.GAINS, eta)
            dense = dense_catalysis_kraus(n_max, self.GAINS, eta)
            np.testing.assert_allclose(ops, dense, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_vacuum_ancilla_is_loss_on_the_surviving_port(self, n_max):
        # K_{n,0}[k, b] = sqrt(C(b, n)) t^n (-r)^k: loss of transmissivity r
        # that sends n photons to the detector, with the sign (-1)^k
        eta = 0.65
        signs = (-1.0) ** np.arange(n_max + 1)[:, None]
        for r in self.GAINS:
            ops = catalysis_kraus_operators(n_max, r, eta)
            loss = loss_kraus_operators(n_max, r)
            for n in range(1, n_max + 1):
                np.testing.assert_allclose(
                    ops[2 * (n - 1)] / np.sqrt(1.0 - eta), signs * loss[n], rtol=0.0, atol=1e-15
                )

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_entries_below_the_cutoff_ignore_it(self, n_max):
        # every amplitude with b + j <= n_max is physical, so raising the
        # cutoff by one leaves it bitwise unchanged
        d = n_max + 1
        small = catalysis_kraus_operators(n_max, self.GAINS, 0.65)
        large = catalysis_kraus_operators(n_max + 1, self.GAINS, 0.65)[:, : 2 * n_max, :d, :d]
        b = np.arange(d)
        for j in (0, 1):
            below = b + j <= n_max
            assert np.array_equal(small[:, j::2, :, below], large[:, j::2, :, below])

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_full_reflection_without_ancilla_photon_never_clicks(self, n_max):
        # at r = 1 only the ancilla photon reaches the detector, and there is none
        epr = loss_channel(tmsv_state(0.5, HilbertConfig(n_max)), 1, 0.7)
        assert [c.tolist() for c in catalysis_moments(epr, np.array([1.0]), 0.0)] == [[0.0]] * 4
        with pytest.raises(HeraldingImpossibleError) as err:
            nla_catalysis(epr, 1.0, 0.0)
        assert err.value.probability == 0.0

    def test_completeness_defect_raises(self, monkeypatch):
        expm = channels._expm
        for scale, raises in ((1.0 + 1e-13, False), (1.0 + 1e-11, True)):
            monkeypatch.setattr(channels, "_expm", lambda g, s=scale: s * expm(g))
            if raises:
                with pytest.raises(AssertionError, match="completeness defect"):
                    catalysis_kraus_operators(3, 0.3, 0.65)
            else:
                catalysis_kraus_operators(3, 0.3, 0.65)

    def test_both_families_check_completeness(self, monkeypatch):
        # a negative tolerance fails every family that runs the check
        monkeypatch.setattr(tolerances, "KRAUS_COMPLETENESS_ATOL", -1.0)
        with pytest.raises(AssertionError, match="completeness defect"):
            loss_kraus_operators(3, 0.5)
        with pytest.raises(AssertionError, match="completeness defect"):
            catalysis_kraus_operators(3, 0.3, 0.65)


def catalysis_moments(epr, rs, eta: float) -> tuple[np.ndarray, ...]:
    """kraus_moments of the catalysis families at the reflectivities rs."""
    kraus = catalysis_kraus_operators(epr.config.n_max, rs, eta)
    return kraus_moments(mode_b_operators(epr), kraus)


def dense_moments(epr, r: float, eta: float) -> tuple[float, ...]:
    """(p, xx_a, xx_b, xa_xb) of nla_catalysis' state, by covariance_summary."""
    state, p = nla_catalysis(epr, r, eta)
    cov = covariance_summary(state)
    return p, cov.xx_a, cov.xx_b, cov.xa_xb


def heisenberg_moments(epr, rs, eta: float) -> tuple[np.ndarray, ...]:
    """The same four numbers from catalysis_moments, one column per gain."""
    p, n_a, n_b, ab = catalysis_moments(epr, rs, eta)
    return p, n_a / p + 0.5, n_b / p + 0.5, ab / p


class TestCatalysisMoments:
    """The Heisenberg-picture moments against the state nla_catalysis builds."""

    # (gamma, tau, eta): the losschannel preset, strong squeezing, no loss,
    # no ancilla photon, and a middle point
    POINTS = [(0.135, math.sqrt(0.05), 0.65), (0.9, 0.7, 0.9), (0.3, 1.0, 1.0),
              (0.05, 0.2, 0.0), (0.6, 0.4, 0.3)]

    @pytest.mark.parametrize("n_max", range(1, 7))
    @pytest.mark.parametrize("gamma, tau, eta", POINTS)
    def test_match_the_dense_state(self, n_max, gamma, tau, eta):
        epr = loss_channel(tmsv_state(gamma, HilbertConfig(n_max)), 1, tau)
        gains = np.array([1.5, 8.0, 30.0, 1000.0])
        columns = heisenberg_moments(epr, 1.0 / gains, eta)
        for i, g in enumerate(gains):
            expected = dense_moments(epr, 1.0 / g, eta)
            for column, value in zip(columns, expected):
                assert column[i] == pytest.approx(value, rel=1e-14, abs=0.0)

    @settings(max_examples=80, deadline=None)
    @given(
        n_max=st.integers(1, 6),
        gamma=st.floats(0.0, 0.95),
        tau=st.floats(0.0, 1.0),
        g=st.floats(1.0, 1e4),
        eta=st.floats(0.0, 1.0),
    )
    def test_match_the_dense_state_anywhere(self, n_max, gamma, tau, eta, g):
        # the cross moment can pass through zero, so its error is measured
        # against its Cauchy-Schwarz scale sqrt(xx_a xx_b)
        epr = loss_channel(tmsv_state(gamma, HilbertConfig(n_max)), 1, tau)
        (p,), *_ = catalysis_moments(epr, np.array([1.0 / g]), eta)
        if not p > tolerances.HERALD_MIN_PROBABILITY:
            with pytest.raises(HeraldingImpossibleError):
                nla_catalysis(epr, 1.0 / g, eta)
            return
        p, xx_a, xx_b, xa_xb = (c[0] for c in heisenberg_moments(epr, np.array([1.0 / g]), eta))
        expected = dense_moments(epr, 1.0 / g, eta)
        assert (p, xx_a, xx_b) == pytest.approx(expected[:3], rel=1e-14, abs=0.0)
        assert abs(xa_xb - expected[3]) <= 1e-14 * math.sqrt(xx_a * xx_b)

    def test_source_without_phase_symmetry_is_refused(self):
        vec = fock_vector(CFG2.n_max, (0, 0)) + fock_vector(CFG2.n_max, (0, 1))
        with pytest.raises(InvalidStateError, match="not phase-symmetric"):
            catalysis_moments(pure_state(CFG2, vec), np.array([0.3]), 0.65)

    @pytest.mark.parametrize("name, value", [("EIGENVALUE_FLOOR", 2.0),
                                             ("TRACE_UPPER_SLACK", -1.0)])
    def test_effect_outside_zero_and_one_is_refused(self, monkeypatch, name, value):
        # a tolerance no effect can meet stands in for a broken Kraus family
        epr = loss_channel(tmsv_state(0.135, CFG2), 1, 0.5)
        catalysis_moments(epr, np.array([0.3]), 0.65)
        monkeypatch.setattr(tolerances, name, value)
        with pytest.raises(InvalidStateError, match="herald effect spectrum"):
            catalysis_moments(epr, np.array([0.3]), 0.65)


class TestDeltaBlockStructure:
    """States block-diagonal in Delta = n_A - n_B stay so through the channels.

    Every single-mode Kraus operator here shifts the photon number by a fixed
    amount, so an element whose row and column Delta differ can only be fed
    by elements that are already zero.
    """

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_loss_and_catalysis_keep_off_block_elements_zero(self, rng, n_max):
        cfg = HilbertConfig(n_max)
        off_block = off_block_mask(cfg)

        def check(elements):
            assert np.all(elements[off_block] == 0.0)
            assert np.real(np.trace(elements)) <= 1.0 + 1e-12

        for _ in range(20):
            # zeroing the off-block elements leaves the PSD diagonal blocks
            state = random_density_matrix(cfg, rng)
            tau_a, tau_b = rng.uniform(0.0, 1.0, size=2)
            r, eta = rng.uniform(0.05, 1.0, size=2)
            state = loss_channel(loss_channel(state, 0, tau_a), 1, tau_b)
            check(state.elements)
            branch = apply_mode_kraus(state, 1, catalysis_kraus_operators(n_max, r, eta))
            check(branch)
            out, prob = nla_catalysis(state, r, eta)
            check(out.elements)
            # covariance_summary accepts both as phase-symmetric
            covariance_summary(state)
            covariance_summary(out)
            assert prob == pytest.approx(np.real(np.trace(branch)), rel=1e-14, abs=0.0)
