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
    loss_kraus_operators,
    normalize,
)
from eprdistill.channels import beamsplitter_unitary
from eprdistill import fock
from eprdistill.fock import apply_unitary, partial_trace, tensor_product

from conftest import (
    annihilation_operator,
    fock_vector,
    kron_kraus_sum,
    mode_occupations,
    off_block_mask,
    pure_state,
    random_density_matrix,
    random_state_array,
)


def padded(block) -> np.ndarray:
    """A 2 x 2 block on |0, 0> and |0, 1> of the 4 x 4 two-mode space at
    n_max = 1, zero elsewhere."""
    out = np.zeros((4, 4), dtype=np.result_type(np.asarray(block), float))
    out[:2, :2] = block
    return out


class TestHilbertConfig:
    def test_dimensions(self):
        cfg = HilbertConfig(n_max=3)
        assert cfg.dim_per_mode == 4
        assert cfg.dim == 16

    def test_mode_zero_is_slowest_index(self):
        cfg = HilbertConfig(n_max=3)
        occupations = np.stack([mode_occupations(cfg.n_max, 2, m) for m in (0, 1)], axis=1)
        assert tuple(occupations[4]) == (1, 0)
        assert tuple(occupations[1]) == (0, 1)
        assert tuple(occupations[11]) == (2, 3)

    def test_mode_occupations(self):
        cfg = HilbertConfig(n_max=2)
        np.testing.assert_array_equal(
            mode_occupations(cfg.n_max, 2, 0), [0, 0, 0, 1, 1, 1, 2, 2, 2]
        )
        np.testing.assert_array_equal(
            mode_occupations(cfg.n_max, 2, 1), [0, 1, 2, 0, 1, 2, 0, 1, 2]
        )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            HilbertConfig(n_max=0)
        # the space has two modes: no field sets another count, and no
        # config takes the 64 x 64 state of three modes at n_max = 3
        with pytest.raises(TypeError):
            HilbertConfig(3, 3)
        with pytest.raises(InvalidStateError, match=r"shape \(64, 64\)"):
            DensityMatrix(HilbertConfig(3), np.eye(64) / 64)
        vac = pure_state(HilbertConfig(3), fock_vector(3, (0, 0)))
        for mode in (-1, 2):
            with pytest.raises(ValueError, match=f"mode {mode} out of range"):
                apply_mode_kraus(vac, mode, np.eye(4)[None])


class TestAnnihilation:
    def test_minimal_ladder(self):
        a = annihilation_operator(1)
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        np.testing.assert_allclose(a, expected)

    def test_lowers_two_photon_state(self):
        a = annihilation_operator(3)
        lowered = a @ fock_vector(3, (2,))
        np.testing.assert_allclose(lowered, np.sqrt(2.0) * fock_vector(3, (1,)))

    def test_commutator_below_cutoff(self):
        # a a^dag - a^dag a equals 1 on n < n_max; the cutoff level deviates
        a = annihilation_operator(3)
        delta = a @ a.conj().T - a.conj().T @ a
        np.testing.assert_allclose(delta[:3, :3], np.eye(3), atol=1e-12)
        assert delta[3, 3] == pytest.approx(-3.0)

    def test_embedding_acts_on_addressed_mode_only(self):
        cfg = HilbertConfig(n_max=2)
        a1 = np.kron(np.eye(cfg.dim_per_mode), annihilation_operator(cfg.n_max))
        out = a1 @ fock_vector(cfg.n_max, (2, 1))
        np.testing.assert_allclose(out, fock_vector(cfg.n_max, (2, 0)))


class TestApplyUnitary:
    def test_identity(self, rng):
        cfg = HilbertConfig(n_max=2)
        rho = random_density_matrix(cfg, rng)
        out = apply_unitary(rho.elements, np.eye(cfg.dim))
        np.testing.assert_allclose(out, rho.elements, atol=1e-14)

    def test_vacuum_preserving_unitary_fixes_vacuum(self):
        cfg = HilbertConfig(n_max=3)
        vac = pure_state(cfg, fock_vector(cfg.n_max, (0, 0)))
        out = apply_unitary(vac.elements, beamsplitter_unitary(cfg.n_max, 0.6))
        np.testing.assert_allclose(out, vac.elements, atol=1e-12)

    def test_trace_preserved_for_random_unitaries(self, rng):
        cfg = HilbertConfig(n_max=2)
        for _ in range(5):
            h = rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
            h = 0.5 * (h + h.conj().T)
            u = expm(1j * h)
            rho = random_density_matrix(cfg, rng)
            # a random unitary mixes the n_A - n_B blocks: no DensityMatrix
            out = apply_unitary(rho.elements, u)
            assert np.real(np.trace(out)) == pytest.approx(rho.trace, abs=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(np.diag([1.0, 0.0]), np.diag([1.0, 2.0]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            apply_unitary(np.diag([1.0, 0.0, 0.0]), np.eye(2))


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        rho_a = random_state_array(3, rng)
        rho_b = random_state_array(3, rng)
        joint = tensor_product(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(joint, 3, 1), rho_a, atol=1e-13)
        np.testing.assert_allclose(partial_trace(joint, 3, 0), rho_b, atol=1e-13)

    def test_bell_like_state_reduces_to_maximally_mixed(self):
        cfg = HilbertConfig(n_max=3)
        vec = (fock_vector(cfg.n_max, (0, 0)) + fock_vector(cfg.n_max, (1, 1))) / np.sqrt(2.0)
        rho = pure_state(cfg, vec)
        for mode in (0, 1):
            reduced = partial_trace(rho.elements, cfg.dim_per_mode, mode)
            expected = np.zeros((4, 4))
            expected[0, 0] = expected[1, 1] = 0.5
            np.testing.assert_allclose(reduced, expected, atol=1e-13)

    def test_trace_preserved(self, rng):
        # three modes of three levels each
        for _ in range(5):
            scaled = 0.37 * random_state_array(27, rng)
            for mode in range(3):
                reduced = partial_trace(scaled, 3, mode)
                assert reduced.shape == (9, 9)
                assert np.real(np.trace(reduced)) == pytest.approx(0.37, abs=1e-13)

    def test_single_mode_rejected(self):
        for rho in (np.diag([1.0, 0.0, 0.0]), np.eye(10) / 10):
            with pytest.raises(ValueError, match="shape"):
                partial_trace(rho, 3, 0)

    def test_mode_out_of_range_rejected(self, rng):
        rho = random_state_array(27, rng)
        for mode in (-1, 3):
            with pytest.raises(ValueError, match=f"mode {mode} out of range for a 3-mode"):
                partial_trace(rho, 3, mode)


class TestApplyModeKraus:
    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_matches_kron_sum_on_every_mode(self, rng, n_max):
        cfg = HilbertConfig(n_max)
        d = cfg.dim_per_mode
        rho = random_density_matrix(cfg, rng)
        ops = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        for mode in (0, 1):
            np.testing.assert_allclose(
                apply_mode_kraus(rho, mode, ops), kron_kraus_sum(rho, mode, ops),
                rtol=0.0, atol=1e-13,
            )

    def test_complete_family_preserves_trace(self, rng):
        cfg = HilbertConfig(n_max=3)
        d = cfg.dim_per_mode
        # the d-column isometry V splits into complete blocks: sum K^dag K = V^dag V = 1
        iso, _ = np.linalg.qr(rng.normal(size=(4 * d, d)) + 1j * rng.normal(size=(4 * d, d)))
        ops = iso.reshape(4, d, d)
        rho = random_density_matrix(cfg, rng)
        for mode in (0, 1):
            out = apply_mode_kraus(rho, mode, ops)  # complex, and mixes the blocks
            assert np.real(np.trace(out)) == pytest.approx(rho.trace, abs=1e-13)

    def test_rejects_wrong_operator_shape(self):
        cfg = HilbertConfig(n_max=2)
        vac = pure_state(cfg, fock_vector(cfg.n_max, (0, 0)))
        with pytest.raises(ValueError):
            apply_mode_kraus(vac, 0, [np.eye(4)])
        with pytest.raises(ValueError):
            apply_mode_kraus(vac, 2, [np.eye(3)])
        with pytest.raises(ValueError):
            apply_mode_kraus(vac, 0, np.eye(3)[None, None])


class TestNormalize:
    def test_unit_trace_unchanged(self, rng):
        cfg = HilbertConfig(n_max=2)
        rho = random_density_matrix(cfg, rng)
        out, prob = normalize(cfg, rho.elements)
        assert prob == pytest.approx(1.0)
        np.testing.assert_allclose(out.elements, rho.elements, atol=1e-13)

    def test_subnormalized_branch(self):
        cfg = HilbertConfig(n_max=1)
        out, prob = normalize(cfg, np.diag([0.25, 0.0, 0.0, 0.0]))
        assert prob == pytest.approx(0.25)
        np.testing.assert_allclose(out.elements, np.diag([1.0, 0.0, 0.0, 0.0]))

    def test_vanishing_trace_rejected(self):
        cfg = HilbertConfig(n_max=1)
        with pytest.raises(HeraldingImpossibleError, match="vanishing") as err:
            normalize(cfg, np.diag([1e-16, 0.0, 0.0, 0.0]))
        assert isinstance(err.value, InvalidStateError)
        assert err.value.probability == 1e-16

    def test_trace_above_one_rejected(self):
        cfg = HilbertConfig(n_max=1)
        with pytest.raises(InvalidStateError, match="trace"):
            normalize(cfg, np.diag([1.0, 2e-12, 0.0, 0.0]))

    def test_stack_keeps_only_the_heralding_branches(self):
        # of a stack of branches, each that can herald becomes a read-only
        # state, and each other one raises
        cfg = HilbertConfig(n_max=1)
        vac = np.diag([1.0, 0.0, 0.0, 0.0])
        for branch, prob in ((0.25 * vac, 0.25), (0.5 * vac, 0.5)):
            state, p = normalize(cfg, branch)
            assert p == prob
            np.testing.assert_array_equal(state.elements, vac)
            assert not state.elements.flags.writeable
        with pytest.raises(HeraldingImpossibleError):
            normalize(cfg, 1e-16 * vac)
        with pytest.raises(InvalidStateError, match="trace"):
            normalize(cfg, np.diag([1.0, 2e-12, 0.0, 0.0]))
        with pytest.raises(InvalidStateError, match="eigenvalue"):
            normalize(cfg, np.diag([0.6, -0.1, 0.0, 0.0]))

    def test_nothing_heralds(self):
        cfg = HilbertConfig(n_max=1)
        with pytest.raises(HeraldingImpossibleError) as err:
            normalize(cfg, np.zeros((4, 4)))
        assert err.value.probability == 0.0


class TestStateInvariants:
    def test_construction_rejects_non_hermitian(self):
        cfg = HilbertConfig(n_max=1)
        bad = padded(np.array([[0.5, 0.1], [0.3, 0.5]]))
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityMatrix(cfg, bad)

    def test_construction_rejects_negative_eigenvalue(self):
        cfg = HilbertConfig(n_max=1)
        bad = padded(np.diag([1.2, -0.2]))
        with pytest.raises(InvalidStateError, match="eigenvalue"):
            DensityMatrix(cfg, bad)

    def test_construction_rejects_trace_above_one(self):
        cfg = HilbertConfig(n_max=1)
        with pytest.raises(InvalidStateError, match="trace"):
            DensityMatrix(cfg, padded(np.diag([0.8, 0.8])))

    def test_real_input_stays_real(self):
        cfg = HilbertConfig(n_max=1)
        assert DensityMatrix(cfg, padded(np.diag([0.75, 0.25]))).elements.dtype == np.float64
        assert pure_state(cfg, fock_vector(cfg.n_max, (0, 0))).elements.dtype == np.float64

    @pytest.mark.parametrize("elements", [
        pytest.param(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), id="zero-imaginary-part"),
        pytest.param(padded(np.array([[0.5, 0.25j], [-0.25j, 0.5]])), id="hermitian"),
        pytest.param(padded(np.array([[0.5, 0.25j], [0.25j, 0.5]])), id="not-hermitian"),
    ])
    def test_complex_state_rejected(self, elements):
        # every state of the model is real; a complex one is refused as such,
        # before any cast could drop its imaginary part with a ComplexWarning
        cfg = HilbertConfig(n_max=1)
        with pytest.raises(InvalidStateError, match="complex"):
            DensityMatrix(cfg, elements)
        with pytest.raises(InvalidStateError, match="complex"):
            normalize(cfg, 0.5 * elements)

    def test_zero_amplitude_vector_rejected(self):
        with pytest.raises(ValueError, match="cannot normalize a zero amplitude vector"):
            pure_state(HilbertConfig(n_max=1), np.zeros(4))

    def test_off_block_bound_is_relative_to_the_trace(self):
        # |0, 0> and |0, 1> lie in the blocks n_A - n_B = 0 and -1
        cfg = HilbertConfig(n_max=1)
        for element in (0.4e-9, -0.4e-9):
            DensityMatrix(cfg, padded(np.array([[0.25, element], [element, 0.25]])))
        for element in (0.6e-9, -0.6e-9):
            with pytest.raises(InvalidStateError, match="phase-symmetric: off-block element 1.2"):
                DensityMatrix(cfg, padded(np.array([[0.25, element], [element, 0.25]])))

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_off_block_mask_is_one_read_only_array_per_cutoff(self, n_max):
        cfg = HilbertConfig(n_max)
        mask = fock._off_block_mask(cfg.dim_per_mode)
        assert mask is fock._off_block_mask(cfg.dim_per_mode)
        assert not mask.flags.writeable
        assert np.array_equal(mask, off_block_mask(cfg))

    def test_state_check_names_the_failing_invariant(self):
        cfg = HilbertConfig(n_max=1)
        DensityMatrix(cfg, padded(np.diag([0.75, 0.25])))
        cases = [
            (padded(np.diag([1.2, -0.2])), "eigenvalue"),
            (padded(np.diag([0.8, 0.8])), "trace 1.600e\\+00"),
            (padded(np.array([[0.5, 0.1], [0.3, 0.5]])), "Hermitian"),
            (np.eye(3) / 3, "shape"),
        ]
        for bad, message in cases:
            with pytest.raises(InvalidStateError, match=message):
                DensityMatrix(cfg, bad)

    def test_elements_are_immutable(self):
        cfg = HilbertConfig(n_max=1)
        rho = pure_state(cfg, fock_vector(cfg.n_max, (0, 0)))
        with pytest.raises(ValueError):
            rho.elements[0, 0] = 0.0

    def test_disjoint_mode_operations_commute(self, rng):
        cfg = HilbertConfig(n_max=2)
        rho = random_density_matrix(cfg, rng)
        one = loss_channel(loss_channel(rho, 0, 0.8), 1, 0.6)
        two = loss_channel(loss_channel(rho, 1, 0.6), 0, 0.8)
        assert np.max(np.abs(one.elements - two.elements)) < 1e-12

    def test_unitary_and_disjoint_loss_commute(self, rng):
        cfg = HilbertConfig(n_max=2)
        rho = random_density_matrix(cfg, rng)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        eye = np.eye(cfg.dim_per_mode)
        u = np.kron(expm(0.5j * (h + h.conj().T)), eye)  # on mode A
        # U mixes the n_A - n_B blocks, so loss after it runs on the array
        rotated = apply_unitary(rho.elements, u)
        full = [np.kron(eye, op) for op in loss_kraus_operators(cfg.n_max, 0.7)]
        one = sum(op @ rotated @ op.T for op in full)
        two = apply_unitary(loss_channel(rho, 1, 0.7).elements, u)
        assert np.max(np.abs(one - two)) < 1e-12
