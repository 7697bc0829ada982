import numpy as np
import pytest
from scipy.linalg import expm

from eprdistill import (
    DensityMatrix,
    HilbertConfig,
    InvalidStateError,
    annihilation_operator,
    apply_mode_kraus,
    apply_unitary,
    basis_vector,
    beamsplitter_unitary,
    loss_channel,
    normalize,
    partial_trace,
    pure_state,
    tensor_product,
    vacuum_state,
)

from conftest import kron_kraus_sum, random_density_matrix


class TestHilbertConfig:
    def test_dimensions(self):
        cfg = HilbertConfig(n_max=3, mode_count=2)
        assert cfg.dim_per_mode == 4
        assert cfg.dim == 16

    def test_mode_zero_is_slowest_index(self):
        cfg = HilbertConfig(n_max=3, mode_count=2)
        assert cfg.index_of((1, 0)) == 4
        assert cfg.index_of((0, 1)) == 1
        assert cfg.index_of((2, 3)) == 11

    def test_mode_occupations(self):
        cfg = HilbertConfig(n_max=2, mode_count=2)
        np.testing.assert_array_equal(
            cfg.mode_occupations(0), [0, 0, 0, 1, 1, 1, 2, 2, 2]
        )
        np.testing.assert_array_equal(
            cfg.mode_occupations(1), [0, 1, 2, 0, 1, 2, 0, 1, 2]
        )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            HilbertConfig(n_max=0, mode_count=1)
        with pytest.raises(ValueError):
            HilbertConfig(n_max=3, mode_count=4)


class TestAnnihilation:
    def test_minimal_ladder(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        a = annihilation_operator(cfg, 0)
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        np.testing.assert_allclose(a, expected)

    def test_lowers_two_photon_state(self):
        cfg = HilbertConfig(n_max=3, mode_count=1)
        a = annihilation_operator(cfg, 0)
        lowered = a @ basis_vector(cfg, (2,))
        np.testing.assert_allclose(lowered, np.sqrt(2.0) * basis_vector(cfg, (1,)))

    def test_commutator_below_cutoff(self):
        # a a^dag - a^dag a equals 1 on n < n_max; the cutoff level deviates
        cfg = HilbertConfig(n_max=3, mode_count=1)
        a = annihilation_operator(cfg, 0)
        delta = a @ a.conj().T - a.conj().T @ a
        np.testing.assert_allclose(delta[:3, :3], np.eye(3), atol=1e-12)
        assert delta[3, 3] == pytest.approx(-3.0)

    def test_mode_out_of_range(self):
        cfg = HilbertConfig(n_max=2, mode_count=2)
        with pytest.raises(ValueError):
            annihilation_operator(cfg, 2)

    def test_embedding_acts_on_addressed_mode_only(self):
        cfg = HilbertConfig(n_max=2, mode_count=2)
        a1 = annihilation_operator(cfg, 1)
        out = a1 @ basis_vector(cfg, (2, 1))
        np.testing.assert_allclose(out, basis_vector(cfg, (2, 0)))


class TestApplyUnitary:
    def test_identity(self, rng):
        cfg = HilbertConfig(n_max=2, mode_count=2)
        rho = random_density_matrix(cfg, rng)
        out = apply_unitary(rho, np.eye(cfg.dim))
        np.testing.assert_allclose(out.elements, rho.elements, atol=1e-14)

    def test_vacuum_preserving_unitary_fixes_vacuum(self):
        cfg = HilbertConfig(n_max=3, mode_count=2)
        u = beamsplitter_unitary(cfg, 0, 1, 0.6)
        out = apply_unitary(vacuum_state(cfg), u)
        np.testing.assert_allclose(out.elements, vacuum_state(cfg).elements, atol=1e-12)

    def test_trace_preserved_for_random_unitaries(self, rng):
        cfg = HilbertConfig(n_max=2, mode_count=2)
        for _ in range(5):
            h = rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
            h = 0.5 * (h + h.conj().T)
            u = expm(1j * h)
            rho = random_density_matrix(cfg, rng)
            out = apply_unitary(rho, u)
            assert out.trace == pytest.approx(rho.trace, abs=1e-12)

    def test_rejects_non_unitary(self, rng):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        rho = vacuum_state(cfg)
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(rho, np.diag([1.0, 2.0]))

    def test_rejects_dimension_mismatch(self):
        small = HilbertConfig(n_max=1, mode_count=1)
        big = HilbertConfig(n_max=2, mode_count=1)
        with pytest.raises(ValueError):
            apply_unitary(vacuum_state(big), np.eye(small.dim))


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        cfg1 = HilbertConfig(n_max=2, mode_count=1)
        rho_a = random_density_matrix(cfg1, rng)
        rho_b = random_density_matrix(cfg1, rng)
        joint = tensor_product(rho_a, rho_b)
        np.testing.assert_allclose(
            partial_trace(joint, 1).elements, rho_a.elements, atol=1e-13
        )
        np.testing.assert_allclose(
            partial_trace(joint, 0).elements, rho_b.elements, atol=1e-13
        )

    def test_bell_like_state_reduces_to_maximally_mixed(self):
        cfg = HilbertConfig(n_max=3, mode_count=2)
        vec = (basis_vector(cfg, (0, 0)) + basis_vector(cfg, (1, 1))) / np.sqrt(2.0)
        rho = pure_state(cfg, vec)
        for mode in (0, 1):
            reduced = partial_trace(rho, mode)
            expected = np.zeros((4, 4))
            expected[0, 0] = expected[1, 1] = 0.5
            np.testing.assert_allclose(reduced.elements, expected, atol=1e-13)

    def test_trace_preserved(self, rng):
        cfg = HilbertConfig(n_max=2, mode_count=3)
        for _ in range(5):
            rho = random_density_matrix(cfg, rng)
            scaled = DensityMatrix(cfg, 0.37 * rho.elements)
            for mode in range(3):
                assert partial_trace(scaled, mode).trace == pytest.approx(
                    scaled.trace, abs=1e-13
                )

    def test_single_mode_rejected(self):
        cfg = HilbertConfig(n_max=2, mode_count=1)
        with pytest.raises(ValueError):
            partial_trace(vacuum_state(cfg), 0)


class TestApplyModeKraus:
    @pytest.mark.parametrize("mode_count", [1, 2, 3])
    def test_matches_kron_sum_on_every_mode(self, rng, mode_count):
        cfg = HilbertConfig(n_max=2, mode_count=mode_count)
        d = cfg.dim_per_mode
        rho = random_density_matrix(cfg, rng)
        ops = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        for mode in range(mode_count):
            np.testing.assert_allclose(
                apply_mode_kraus(rho, mode, ops), kron_kraus_sum(rho, mode, ops),
                rtol=0.0, atol=1e-13,
            )

    def test_complete_family_preserves_trace(self, rng):
        cfg = HilbertConfig(n_max=3, mode_count=2)
        d = cfg.dim_per_mode
        # the d-column isometry V splits into complete blocks: sum K^dag K = V^dag V = 1
        iso, _ = np.linalg.qr(rng.normal(size=(4 * d, d)) + 1j * rng.normal(size=(4 * d, d)))
        ops = iso.reshape(4, d, d)
        rho = random_density_matrix(cfg, rng)
        for mode in (0, 1):
            out = DensityMatrix(cfg, apply_mode_kraus(rho, mode, ops))
            assert out.trace == pytest.approx(rho.trace, abs=1e-13)

    def test_rejects_wrong_operator_shape(self):
        cfg = HilbertConfig(n_max=2, mode_count=2)
        with pytest.raises(ValueError):
            apply_mode_kraus(vacuum_state(cfg), 0, [np.eye(4)])
        with pytest.raises(ValueError):
            apply_mode_kraus(vacuum_state(cfg), 2, [np.eye(3)])


class TestNormalize:
    def test_unit_trace_unchanged(self, rng):
        cfg = HilbertConfig(n_max=2, mode_count=1)
        rho = random_density_matrix(cfg, rng)
        out, prob = normalize(rho)
        assert prob == pytest.approx(1.0)
        np.testing.assert_allclose(out.elements, rho.elements, atol=1e-13)

    def test_subnormalized_branch(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        quarter = DensityMatrix(cfg, 0.25 * vacuum_state(cfg).elements)
        out, prob = normalize(quarter)
        assert prob == pytest.approx(0.25)
        np.testing.assert_allclose(out.elements, vacuum_state(cfg).elements)

    def test_vanishing_trace_rejected(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        tiny = DensityMatrix(cfg, 1e-16 * vacuum_state(cfg).elements)
        with pytest.raises(InvalidStateError):
            normalize(tiny)


class TestStateInvariants:
    def test_construction_rejects_non_hermitian(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        bad = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityMatrix(cfg, bad)

    def test_construction_rejects_negative_eigenvalue(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        bad = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(InvalidStateError, match="eigenvalue"):
            DensityMatrix(cfg, bad)

    def test_construction_rejects_trace_above_one(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        with pytest.raises(InvalidStateError, match="trace"):
            DensityMatrix(cfg, np.diag([0.8, 0.8]).astype(complex))

    def test_elements_are_immutable(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        rho = vacuum_state(cfg)
        with pytest.raises(ValueError):
            rho.elements[0, 0] = 0.0

    def test_disjoint_mode_operations_commute(self, rng):
        cfg = HilbertConfig(n_max=2, mode_count=3)
        rho = random_density_matrix(cfg, rng)
        one = loss_channel(loss_channel(rho, 0, 0.8), 2, 0.6)
        two = loss_channel(loss_channel(rho, 2, 0.6), 0, 0.8)
        assert np.max(np.abs(one.elements - two.elements)) < 1e-12

    def test_unitary_and_disjoint_loss_commute(self, rng):
        cfg = HilbertConfig(n_max=2, mode_count=3)
        rho = random_density_matrix(cfg, rng)
        u = beamsplitter_unitary(cfg, 0, 1, 0.4)
        one = loss_channel(apply_unitary(rho, u), 2, 0.7)
        two = apply_unitary(loss_channel(rho, 2, 0.7), u)
        assert np.max(np.abs(one.elements - two.elements)) < 1e-12

