import numpy as np
import pytest

from eprdistill import (
    CovarianceSummary,
    HilbertConfig,
    ScenarioConfig,
    apply_detection_efficiency,
    basis_vector,
    covariance_summary,
    duan_inseparability,
    joint_quadrature_pdf,
    loss_channel,
    nla_catalysis,
    pure_state,
    sample_quadratures,
    tensor_product,
    tmsv_state,
    vacuum_state,
)
from eprdistill.cli import load_preset
from eprdistill.fock import annihilation_operator
from eprdistill.quadratures import _one_mode_quadratures, hermite_functions
from eprdistill.scenario import build_distilled_state

from conftest import random_density_matrix

CFG2 = HilbertConfig(n_max=3, mode_count=2)


def golden_section_min(f, lo, hi, tol=1e-13):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def duan_objective(cov):
    n_a = cov.xx_a + cov.pp_a
    n_b = cov.xx_b + cov.pp_b
    k = cov.xa_xb - cov.pa_pb
    return lambda a: (n_a - 2.0 * a * k + a * a * n_b) / (1.0 + a * a)


def random_covariance(rng, positive_k=True):
    cfg = HilbertConfig(3, 2)
    cov = covariance_summary(random_density_matrix(cfg, rng, zero_mean=True))
    if positive_k and cov.xa_xb - cov.pa_pb < 0:
        cov = CovarianceSummary(
            cov.xx_a, cov.pp_a, cov.xx_b, cov.pp_b, -cov.xa_xb, -cov.pa_pb
        )
    return cov


def kron_reference_moments(state):
    """The six second moments from full-space operator products.

    The state is zero-padded one level above its cutoff, where the embedded
    X^2 and P^2 carry their exact top-level elements.
    """
    cfg = state.config
    d = cfg.dim_per_mode
    big = HilbertConfig(cfg.n_max + 1, 2)
    tensor = state.elements.reshape(d, d, d, d) / state.trace
    rho = np.pad(tensor, [(0, 1)] * 4).reshape(big.dim, big.dim)
    ops = {}
    for mode, name in ((0, "a"), (1, "b")):
        a = annihilation_operator(big, mode)
        ops["x" + name] = (a + a.conj().T) / np.sqrt(2.0)
        ops["p" + name] = (a - a.conj().T) / (1j * np.sqrt(2.0))

    def moment(left, right):
        return float(np.real(np.trace(rho @ ops[left] @ ops[right])))

    return {
        "xx_a": moment("xa", "xa"), "pp_a": moment("pa", "pa"),
        "xx_b": moment("xb", "xb"), "pp_b": moment("pb", "pb"),
        "xa_xb": moment("xa", "xb"), "pa_pb": moment("pa", "pb"),
    }


class TestQuadratureOperators:
    """The one-mode X, P, X^2 and P^2 behind covariance_summary."""

    def test_vacuum_variance_one_half(self):
        x, p, xsq, psq = _one_mode_quadratures(3)
        assert (x @ x)[0, 0].real == pytest.approx(0.5)
        assert (p @ p)[0, 0].real == pytest.approx(0.5)
        assert xsq[0, 0].real == pytest.approx(0.5)
        assert psq[0, 0].real == pytest.approx(0.5)

    def test_one_photon_x_squared_three_halves(self):
        x, _, xsq, _ = _one_mode_quadratures(3)
        assert (x @ x)[1, 1].real == pytest.approx(1.5)
        assert xsq[1, 1].real == pytest.approx(1.5)

    def test_hermitian(self):
        for op in _one_mode_quadratures(3):
            assert np.max(np.abs(op - op.conj().T)) < 1e-14

    def test_canonical_commutator_below_cutoff(self):
        x, p, _, _ = _one_mode_quadratures(4)
        comm = x @ p - p @ x
        np.testing.assert_allclose(comm[:4, :4], 1j * np.eye(4), atol=1e-12)


class TestCovarianceSummary:
    def test_two_mode_vacuum(self):
        cov = covariance_summary(vacuum_state(CFG2))
        for value in (cov.xx_a, cov.pp_a, cov.xx_b, cov.pp_b):
            assert value == pytest.approx(0.5, abs=1e-12)
        assert cov.xa_xb == pytest.approx(0.0, abs=1e-12)
        assert cov.v_diff == pytest.approx(1.0, abs=1e-12)
        assert cov.v_sum == pytest.approx(1.0, abs=1e-12)

    def test_tmsv_oracle(self):
        cfg = HilbertConfig(6, 2)
        cov = covariance_summary(tmsv_state(0.18, cfg))
        assert cov.v_diff == pytest.approx(0.6949152542, abs=1e-6)
        assert cov.v_sum == pytest.approx(1.4390243902, abs=1e-6)

    def test_two_term_superposition_matches_closed_forms(self):
        # (c0|00> + c1|11>): diagonals (beta^2+3)/(2(beta^2+1)) and cross
        # beta/(beta^2+1) with beta = c0/c1
        beta = 2.5
        vec = beta * basis_vector(CFG2, (0, 0)) + basis_vector(CFG2, (1, 1))
        cov = covariance_summary(pure_state(CFG2, vec))
        denom = beta**2 + 1.0
        assert cov.xx_a == pytest.approx((beta**2 + 3.0) / (2 * denom), abs=1e-12)
        assert cov.xx_b == pytest.approx((beta**2 + 3.0) / (2 * denom), abs=1e-12)
        assert cov.xa_xb == pytest.approx(beta / denom, abs=1e-12)
        assert cov.pa_pb == pytest.approx(-beta / denom, abs=1e-12)

    def test_derived_combinations_are_consistent(self, rng):
        cov = random_covariance(rng)
        assert cov.v_diff == pytest.approx(cov.xx_a + cov.xx_b - 2 * cov.xa_xb, abs=1e-12)
        assert cov.v_sum == pytest.approx(cov.xx_a + cov.xx_b + 2 * cov.xa_xb, abs=1e-12)

    @pytest.mark.parametrize(
        "name, occupations, phase",
        [("X_A", (1, 0), 1.0), ("P_A", (1, 0), 1j), ("X_B", (0, 1), 1.0), ("P_B", (0, 1), 1j)],
        ids=["X_A", "P_A", "X_B", "P_B"],
    )
    def test_nonzero_first_moment_rejected(self, name, occupations, phase):
        # |00> + phase |one photon>: only the named quadrature has a mean
        vec = basis_vector(CFG2, (0, 0)) + phase * basis_vector(CFG2, occupations)
        with pytest.raises(ValueError, match=f"first moment <{name}>"):
            covariance_summary(pure_state(CFG2, vec))

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_matches_kron_reference_on_random_states(self, rng, n_max):
        cfg = HilbertConfig(n_max, 2)
        for _ in range(5):
            state = random_density_matrix(cfg, rng, zero_mean=True)
            cov = covariance_summary(state)
            for attr, value in kron_reference_moments(state).items():
                assert getattr(cov, attr) == pytest.approx(value, abs=1e-13), attr

    @pytest.mark.parametrize("n_max", [3, 6])
    def test_matches_kron_reference_on_pipeline_states(self, n_max):
        source = tmsv_state(0.135, HilbertConfig(n_max, 2))
        lossy = loss_channel(source, 1, np.sqrt(0.05))
        for g in (2.0, 14.0, 30.0):
            state, _ = nla_catalysis(lossy, 1.0 / g, 0.65)
            cov = covariance_summary(state)
            for attr, value in kron_reference_moments(state).items():
                assert getattr(cov, attr) == pytest.approx(value, abs=1e-13), attr

    def test_cauchy_schwarz_enforced(self):
        with pytest.raises(ValueError, match="Cauchy-Schwarz"):
            CovarianceSummary(0.5, 0.5, 0.5, 0.5, 0.9, -0.1)


class TestDetectionEfficiency:
    def test_unit_efficiency_is_identity(self, rng):
        cov = random_covariance(rng)
        out = apply_detection_efficiency(cov, 1.0, 1.0)
        assert out == cov

    def test_zero_efficiency_gives_vacuum(self, rng):
        out = apply_detection_efficiency(random_covariance(rng), 0.0, 0.0)
        assert out.xx_a == pytest.approx(0.5)
        assert out.pp_b == pytest.approx(0.5)
        assert out.xa_xb == pytest.approx(0.0)

    def test_matches_loss_channels_on_random_states(self, rng):
        # the moment map must equal physically attenuating each mode with
        # intensity transmissivity eta before extraction
        for _ in range(5):
            state = random_density_matrix(CFG2, rng, zero_mean=True)
            eta_a, eta_b = rng.uniform(0.2, 1.0, size=2)
            mapped = apply_detection_efficiency(covariance_summary(state), eta_a, eta_b)
            lossy = loss_channel(state, 0, np.sqrt(eta_a))
            lossy = loss_channel(lossy, 1, np.sqrt(eta_b))
            direct = covariance_summary(lossy)
            for attr in ("xx_a", "pp_a", "xx_b", "pp_b", "xa_xb", "pa_pb"):
                assert getattr(mapped, attr) == pytest.approx(
                    getattr(direct, attr), abs=1e-10
                )

    def test_out_of_range(self, rng):
        with pytest.raises(ValueError):
            apply_detection_efficiency(random_covariance(rng), 1.2, 0.5)


class TestDuanInseparability:
    def test_vacuum_sits_at_boundary(self):
        result = duan_inseparability(covariance_summary(vacuum_state(CFG2)))
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert result.a_star == pytest.approx(1.0)

    def test_symmetric_state_with_equal_combinations(self):
        # symmetric moments with v_diff = 0.86 and the momentum analog equal:
        # the minimum is 0.86 at a* = 1
        m, c = 0.515, 0.085
        cov = CovarianceSummary(m, m, m, m, c, -c)
        assert cov.v_diff == pytest.approx(0.86)
        result = duan_inseparability(cov)
        assert result.value == pytest.approx(0.86, abs=1e-12)
        assert result.a_star == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_bounds_random_gain_grid(self, rng):
        cov = random_covariance(rng)
        result = duan_inseparability(cov)
        objective = duan_objective(cov)
        for a in np.concatenate([rng.uniform(1e-3, 50.0, 200)]):
            assert result.value <= objective(a) + 1e-12

    def test_closed_form_matches_golden_section_scan(self, rng):
        for _ in range(100):
            cov = random_covariance(rng)
            result = duan_inseparability(cov)
            objective = duan_objective(cov)
            a_scan = golden_section_min(objective, 1e-6, 1e3)
            assert result.value == pytest.approx(objective(a_scan), abs=1e-8)
            assert objective(result.a_star) == pytest.approx(result.value, abs=1e-12)

    @pytest.mark.parametrize("g, sign", [(1.0, -1.0), (1.25, -1.0), (1.5, 1.0)])
    def test_a_star_takes_the_sign_of_k_at_low_gain(self, g, sign):
        # at low gain the catalysis output is dominated by the signal that the
        # beamsplitter reflects with amplitude -r, which makes k < 0
        config = ScenarioConfig.from_dict(
            {**load_preset("losschannel"), "n_max": 3, "gain": {"g": g}}
        )
        distilled, _ = build_distilled_state(config, g)
        cov = apply_detection_efficiency(
            covariance_summary(distilled), config.eta_a, config.eta_b
        )
        result = duan_inseparability(cov)
        n_a, n_b = cov.xx_a + cov.pp_a, cov.xx_b + cov.pp_b
        k = cov.xa_xb - cov.pa_pb
        assert np.sign(k) == np.sign(result.a_star) == sign
        smaller = np.linalg.eigvalsh([[n_a, -k], [-k, n_b]])[0]
        assert result.value == pytest.approx(smaller, rel=1e-14)
        if sign < 0:
            assert result.value < 1.0

    def test_degenerate_uncorrelated_symmetric(self):
        cov = CovarianceSummary(0.7, 0.7, 0.7, 0.7, 0.0, 0.0)
        result = duan_inseparability(cov)
        assert result.value == pytest.approx(1.4)
        assert result.a_star == 1.0


class TestJointQuadraturePdf:
    def test_vacuum_is_product_gaussian(self):
        vac = vacuum_state(CFG2)
        xs = np.linspace(-3, 3, 7)
        for xa in xs:
            for xb in xs:
                expected = np.exp(-xa * xa) * np.exp(-xb * xb) / np.pi
                assert joint_quadrature_pdf(vac, xa, xb) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_single_photon_marginal_shape(self):
        # |1> (x) |0>: density 2 x^2 exp(-x^2)/sqrt(pi) in x_a times vacuum
        cfg1 = HilbertConfig(3, 1)
        one = pure_state(cfg1, basis_vector(cfg1, (1,)))
        state = tensor_product(one, vacuum_state(cfg1))
        for xa, xb in ((0.0, 0.0), (0.5, -1.0), (2.0, 1.0)):
            expected = (
                2.0 * xa * xa * np.exp(-xa * xa) / np.sqrt(np.pi)
            ) * (np.exp(-xb * xb) / np.sqrt(np.pi))
            assert joint_quadrature_pdf(state, xa, xb) == pytest.approx(expected, abs=1e-12)

    def test_normalization_on_reference_grid(self, rng):
        from eprdistill import DensityMatrix

        axis = np.arange(-6.0, 6.0 + 0.025, 0.05)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        branch = DensityMatrix(CFG2, 0.4 * tmsv_state(0.15, CFG2).elements)
        for state in (
            vacuum_state(CFG2),
            tmsv_state(0.2, CFG2),
            random_density_matrix(CFG2, rng, zero_mean=True),
            branch,  # sub-normalized: the density integrates to the trace
        ):
            pdf = joint_quadrature_pdf(state, gx, gy)
            assert pdf.min() >= -1e-12
            integral = np.trapezoid(np.trapezoid(pdf, axis, axis=1), axis)
            assert integral == pytest.approx(state.trace, abs=1e-6)

    def test_grid_moment_matches_operator_moment(self):
        state = tmsv_state(0.25, CFG2)
        axis = np.arange(-6.0, 6.0 + 0.025, 0.05)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        pdf = joint_quadrature_pdf(state, gx, gy)
        moment = np.trapezoid(np.trapezoid(pdf * gx**2, axis, axis=1), axis)
        cov = covariance_summary(state)
        assert moment == pytest.approx(cov.xx_a, abs=1e-4)


class TestHermiteFunctions:
    def test_orthonormal_on_fine_grid(self):
        x = np.arange(-12.0, 12.0, 0.01)
        psi = hermite_functions(5, x)
        gram = psi @ psi.T * 0.01
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)


class TestSampleQuadratures:
    def test_vacuum_moments(self):
        samples = sample_quadratures(vacuum_state(CFG2), 20000, seed=7)
        # variance of x^2 under a Gaussian is 2 var^2; stay within 3 sigma
        band = 3.0 * 0.5 * np.sqrt(2.0 / 20000)
        assert np.mean(samples[:, 0] ** 2) == pytest.approx(0.5, abs=band)
        assert np.mean(samples[:, 1] ** 2) == pytest.approx(0.5, abs=band)

    def test_tmsv_difference_variance(self):
        state = tmsv_state(0.18, CFG2)
        samples = sample_quadratures(state, 10000, seed=3)
        emp = np.mean((samples[:, 0] - samples[:, 1]) ** 2)
        assert emp == pytest.approx(covariance_summary(state).v_diff, rel=0.05)

    def test_deterministic_for_fixed_seed(self):
        state = tmsv_state(0.1, CFG2)
        one = sample_quadratures(state, 500, seed=123)
        two = sample_quadratures(state, 500, seed=123)
        np.testing.assert_array_equal(one, two)
        other = sample_quadratures(state, 500, seed=124)
        assert not np.array_equal(one, other)

    def test_single_sample(self):
        out = sample_quadratures(vacuum_state(CFG2), 1, seed=0)
        assert out.shape == (1, 2)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_quadratures(vacuum_state(CFG2), 0, seed=0)
