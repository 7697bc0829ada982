import numpy as np
import pytest
from scipy.linalg import expm

from eprdistill import (
    DensityMatrix,
    HeraldingImpossibleError,
    HilbertConfig,
    InvalidStateError,
    apply_mode_kraus,
    loss_channel,
    normalize,
    pure_state,
)
from eprdistill.channels import beamsplitter_unitary
from eprdistill.fock import (
    _check_states,
    annihilation_operator,
    apply_unitary,
    herald,
    partial_trace,
    tensor_product,
)

from conftest import fock_vector, kron_kraus_sum, random_density_matrix


class TestHilbertConfig:
    def test_dimensions(self):
        cfg = HilbertConfig(n_max=3, mode_count=2)
        assert cfg.dim_per_mode == 4
        assert cfg.dim == 16

    def test_mode_zero_is_slowest_index(self):
        cfg = HilbertConfig(n_max=3, mode_count=2)
        occupations = np.stack([cfg.mode_occupations(0), cfg.mode_occupations(1)], axis=1)
        assert tuple(occupations[4]) == (1, 0)
        assert tuple(occupations[1]) == (0, 1)
        assert tuple(occupations[11]) == (2, 3)

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
        a = annihilation_operator(1)
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        np.testing.assert_allclose(a, expected)

    def test_lowers_two_photon_state(self):
        cfg = HilbertConfig(n_max=3, mode_count=1)
        a = annihilation_operator(cfg.n_max)
        lowered = a @ fock_vector(cfg, (2,))
        np.testing.assert_allclose(lowered, np.sqrt(2.0) * fock_vector(cfg, (1,)))

    def test_commutator_below_cutoff(self):
        # a a^dag - a^dag a equals 1 on n < n_max; the cutoff level deviates
        a = annihilation_operator(3)
        delta = a @ a.conj().T - a.conj().T @ a
        np.testing.assert_allclose(delta[:3, :3], np.eye(3), atol=1e-12)
        assert delta[3, 3] == pytest.approx(-3.0)

    def test_embedding_acts_on_addressed_mode_only(self):
        cfg = HilbertConfig(n_max=2, mode_count=2)
        a1 = np.kron(np.eye(cfg.dim_per_mode), annihilation_operator(cfg.n_max))
        out = a1 @ fock_vector(cfg, (2, 1))
        np.testing.assert_allclose(out, fock_vector(cfg, (2, 0)))


class TestApplyUnitary:
    def test_identity(self, rng):
        cfg = HilbertConfig(n_max=2, mode_count=2)
        rho = random_density_matrix(cfg, rng)
        out = apply_unitary(rho, np.eye(cfg.dim))
        np.testing.assert_allclose(out.elements, rho.elements, atol=1e-14)

    def test_vacuum_preserving_unitary_fixes_vacuum(self):
        cfg = HilbertConfig(n_max=3, mode_count=2)
        vac = pure_state(cfg, fock_vector(cfg, (0, 0)))
        out = apply_unitary(vac, beamsplitter_unitary(cfg.n_max, 0.6))
        np.testing.assert_allclose(out.elements, vac.elements, atol=1e-12)

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
        rho = pure_state(cfg, fock_vector(cfg, (0,)))
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(rho, np.diag([1.0, 2.0]))

    def test_rejects_dimension_mismatch(self):
        small = HilbertConfig(n_max=1, mode_count=1)
        big = HilbertConfig(n_max=2, mode_count=1)
        with pytest.raises(ValueError):
            apply_unitary(pure_state(big, fock_vector(big, (0,))), np.eye(small.dim))


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
        vec = (fock_vector(cfg, (0, 0)) + fock_vector(cfg, (1, 1))) / np.sqrt(2.0)
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
            partial_trace(pure_state(cfg, fock_vector(cfg, (0,))), 0)


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

    def test_gain_axis_stacks_each_family(self, rng):
        cfg = HilbertConfig(n_max=2, mode_count=3)
        d = cfg.dim_per_mode
        rho = random_density_matrix(cfg, rng)
        families = rng.normal(size=(4, 3, d, d)) + 1j * rng.normal(size=(4, 3, d, d))
        for mode in range(3):
            stacked = apply_mode_kraus(rho, mode, families)
            assert stacked.shape == (4, cfg.dim, cfg.dim)
            for out, ops in zip(stacked, families):
                np.testing.assert_array_equal(out, apply_mode_kraus(rho, mode, ops))

    def test_rejects_wrong_operator_shape(self):
        cfg = HilbertConfig(n_max=2, mode_count=2)
        vac = pure_state(cfg, fock_vector(cfg, (0, 0)))
        with pytest.raises(ValueError):
            apply_mode_kraus(vac, 0, [np.eye(4)])
        with pytest.raises(ValueError):
            apply_mode_kraus(vac, 2, [np.eye(3)])


class TestNormalize:
    def test_unit_trace_unchanged(self, rng):
        cfg = HilbertConfig(n_max=2, mode_count=1)
        rho = random_density_matrix(cfg, rng)
        out, prob = normalize(cfg, rho.elements)
        assert prob == pytest.approx(1.0)
        np.testing.assert_allclose(out.elements, rho.elements, atol=1e-13)

    def test_subnormalized_branch(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        out, prob = normalize(cfg, np.diag([0.25, 0.0]))
        assert prob == pytest.approx(0.25)
        np.testing.assert_allclose(out.elements, np.diag([1.0, 0.0]))

    def test_vanishing_trace_rejected(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        with pytest.raises(HeraldingImpossibleError, match="vanishing") as err:
            normalize(cfg, np.diag([1e-16, 0.0]))
        assert isinstance(err.value, InvalidStateError)
        assert err.value.probability == 1e-16

    def test_trace_above_one_rejected(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        with pytest.raises(InvalidStateError, match="trace"):
            normalize(cfg, np.diag([1.0, 2e-12]).astype(complex))

    def test_stack_keeps_only_the_heralding_branches(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        vac = np.diag([1.0, 0.0])
        states, probs, heralded = herald(cfg, np.stack([0.25 * vac, 1e-16 * vac, 0.5 * vac]))
        np.testing.assert_array_equal(probs, [0.25, 1e-16, 0.5])
        np.testing.assert_array_equal(heralded, [True, False, True])
        np.testing.assert_array_equal(states, [vac, vac])
        assert not states.flags.writeable
        with pytest.raises(InvalidStateError, match="trace"):
            herald(cfg, np.stack([0.25 * vac, np.diag([1.0, 2e-12])]))
        with pytest.raises(InvalidStateError, match="eigenvalue"):
            herald(cfg, np.stack([0.25 * vac, np.diag([0.6, -0.1])]))

    def test_nothing_heralds(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        states, _, heralded = herald(cfg, np.zeros((3, 2, 2)))
        assert states.shape == (0, 2, 2)
        assert not heralded.any()


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

    def test_real_input_stays_real(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        assert DensityMatrix(cfg, np.diag([0.75, 0.25])).elements.dtype == np.float64
        assert pure_state(cfg, fock_vector(cfg, (0,))).elements.dtype == np.float64

    def test_complex_hermitian_state_accepted(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        rho = DensityMatrix(cfg, np.array([[0.5, 0.25j], [-0.25j, 0.5]]))
        assert rho.elements.dtype == np.complex128
        assert rho.elements[0, 1] == 0.25j

    def test_imaginary_part_breaking_hermiticity_rejected(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityMatrix(cfg, np.array([[0.5, 0.25j], [0.25j, 0.5]]))

    def test_stack_check_names_the_failing_invariant(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        good = np.diag([0.75, 0.25])
        _check_states(cfg, np.stack([good, good]))
        _check_states(cfg, np.empty((0, 2, 2)))  # nothing to validate
        cases = [
            (np.diag([1.2, -0.2]), "eigenvalue"),
            (np.diag([0.8, 0.8]), "trace 1.600e\\+00"),
            (np.array([[0.5, 0.1], [0.3, 0.5]]), "Hermitian"),
            (np.eye(3) / 3, "shape"),
        ]
        for bad, message in cases:
            stack = np.stack([good, bad]) if bad.shape == good.shape else bad[None]
            with pytest.raises(InvalidStateError, match=message):
                _check_states(cfg, stack)

    def test_elements_are_immutable(self):
        cfg = HilbertConfig(n_max=1, mode_count=1)
        rho = pure_state(cfg, fock_vector(cfg, (0,)))
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
        u = np.kron(beamsplitter_unitary(cfg.n_max, 0.4), np.eye(cfg.dim_per_mode))
        one = loss_channel(apply_unitary(rho, u), 2, 0.7)
        two = apply_unitary(loss_channel(rho, 2, 0.7), u)
        assert np.max(np.abs(one.elements - two.elements)) < 1e-12

