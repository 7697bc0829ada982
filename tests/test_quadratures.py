import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from eprdistill import (
    CovarianceSummary,
    DensityMatrix,
    HilbertConfig,
    ScenarioConfig,
    apply_detection_efficiency,
    covariance_summary,
    duan_inseparability,
    joint_quadrature_pdf,
    loss_channel,
    loss_kraus_operators,
    nla_catalysis,
    pure_state,
    sample_quadratures,
    tmsv_state,
)
from eprdistill import quadratures
from eprdistill.cli import load_preset
from eprdistill.quadratures import hermite_functions, kraus_moments
from eprdistill.scenario import build_distilled_state

from conftest import (
    annihilation_operator,
    dense_envelope_bound,
    fock_vector,
    random_density_matrix,
)

CFG2 = HilbertConfig(n_max=3)
VACUUM = tmsv_state(0.0, CFG2)


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
    n_a = cov.xx_a + cov.xx_a
    n_b = cov.xx_b + cov.xx_b
    k = cov.xa_xb + cov.xa_xb
    return lambda a: (n_a - 2.0 * a * k + a * a * n_b) / (1.0 + a * a)


def random_covariance(rng, positive_k=True):
    cfg = HilbertConfig(3)
    cov = covariance_summary(random_density_matrix(cfg, rng))
    if positive_k and cov.xa_xb < 0:
        cov = CovarianceSummary(cov.xx_a, cov.xx_b, -cov.xa_xb)
    return cov


def kron_reference_moments(config, rho):
    """The six second moments of the unit-trace state array `rho` from
    full-space operator products.

    The state is zero-padded one level above its cutoff, where the embedded
    X^2 and P^2 carry their exact top-level elements.
    """
    d = config.dim_per_mode
    big = HilbertConfig(config.n_max + 1)
    tensor = rho.reshape(d, d, d, d)
    rho = np.pad(tensor, [(0, 1)] * 4).reshape(big.dim, big.dim)
    ops = {}
    one, eye = annihilation_operator(big.n_max), np.eye(big.dim_per_mode)
    for name, a in (("a", np.kron(one, eye)), ("b", np.kron(eye, one))):
        ops["x" + name] = (a + a.conj().T) / np.sqrt(2.0)
        ops["p" + name] = (a - a.conj().T) / (1j * np.sqrt(2.0))

    def moment(left, right):
        return float(np.real(np.trace(rho @ ops[left] @ ops[right])))

    return {
        "xx_a": moment("xa", "xa"), "pp_a": moment("pa", "pa"),
        "xx_b": moment("xb", "xb"), "pp_b": moment("pb", "pb"),
        "xa_xb": moment("xa", "xb"), "pa_pb": moment("pa", "pb"),
    }


def assert_matches_kron_reference(state):
    """The three stored moments against all six oracle moments: phase
    symmetry gives <P^2> = <X^2> per mode and <P_A P_B> = -<X_A X_B>."""
    cov = covariance_summary(state)
    ref = kron_reference_moments(state.config, state.elements / state.trace)
    expected = {
        "xx_a": (ref["xx_a"], ref["pp_a"]),
        "xx_b": (ref["xx_b"], ref["pp_b"]),
        "xa_xb": (ref["xa_xb"], -ref["pa_pb"]),
    }
    for attr, values in expected.items():
        for value in values:
            assert getattr(cov, attr) == pytest.approx(value, abs=1e-13), attr


class TestCovarianceSummary:
    def test_two_mode_vacuum(self):
        cov = covariance_summary(VACUUM)
        for value in (cov.xx_a, cov.xx_b):
            assert value == pytest.approx(0.5, abs=1e-12)
        assert cov.xa_xb == pytest.approx(0.0, abs=1e-12)
        assert cov.v_diff == pytest.approx(1.0, abs=1e-12)
        assert cov.v_sum == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_a, n_b", [(1, 0), (0, 1), (2, 3)])
    def test_fock_state_variances_are_n_plus_half(self, n_a, n_b):
        # one photon gives 3/2; a product of Fock states has no cross moment
        cov = covariance_summary(pure_state(CFG2, fock_vector(CFG2.n_max, (n_a, n_b))))
        assert (cov.xx_a, cov.xx_b, cov.xa_xb) == (n_a + 0.5, n_b + 0.5, 0.0)

    def test_tmsv_oracle(self):
        cfg = HilbertConfig(6)
        cov = covariance_summary(tmsv_state(0.18, cfg))
        assert cov.v_diff == pytest.approx(0.6949152542, abs=1e-6)
        assert cov.v_sum == pytest.approx(1.4390243902, abs=1e-6)

    def test_two_term_superposition_matches_closed_forms(self):
        # (c0|00> + c1|11>): diagonals (beta^2+3)/(2(beta^2+1)) and cross
        # beta/(beta^2+1) with beta = c0/c1
        beta = 2.5
        vec = beta * fock_vector(CFG2.n_max, (0, 0)) + fock_vector(CFG2.n_max, (1, 1))
        cov = covariance_summary(pure_state(CFG2, vec))
        denom = beta**2 + 1.0
        assert cov.xx_a == pytest.approx((beta**2 + 3.0) / (2 * denom), abs=1e-12)
        assert cov.xx_b == pytest.approx((beta**2 + 3.0) / (2 * denom), abs=1e-12)
        assert cov.xa_xb == pytest.approx(beta / denom, abs=1e-12)

    def test_moments_are_relative_to_the_trace(self, rng):
        # scaling by a power of two is exact, so a sub-normalized state has
        # the moments of its normalized form bit for bit
        for _ in range(5):
            state = random_density_matrix(CFG2, rng)
            scaled = DensityMatrix(CFG2, 0.25 * state.elements)
            assert covariance_summary(scaled) == covariance_summary(state)

    def test_derived_combinations_are_consistent(self, rng):
        cov = random_covariance(rng)
        assert cov.v_diff == pytest.approx(cov.xx_a + cov.xx_b - 2 * cov.xa_xb, abs=1e-12)
        assert cov.v_sum == pytest.approx(cov.xx_a + cov.xx_b + 2 * cov.xa_xb, abs=1e-12)

    @pytest.mark.parametrize(
        "occupations, phase, message",
        [
            ((1, 0), 1.0, r"not phase-symmetric: off-block element 5\.000e-01"),
            ((1, 0), 1j, "complex"),
            ((0, 1), 1.0, r"not phase-symmetric: off-block element 5\.000e-01"),
            ((0, 1), 1j, "complex"),
        ],
        ids=["X_A", "P_A", "X_B", "P_B"],
    )
    def test_nonzero_first_moment_rejected(self, occupations, phase, message):
        # |00> + phase |one photon>: only the named quadrature has a mean, and
        # the coherence between n_A - n_B = 0 and +-1 is 1/2.  A real state
        # has <P> = 0, so a P mean needs a complex state, which is refused
        vec = fock_vector(CFG2.n_max, (0, 0)) + phase * fock_vector(CFG2.n_max, occupations)
        with pytest.raises(ValueError, match=message):
            pure_state(CFG2, vec)

    def test_zero_mean_state_without_phase_symmetry_rejected(self):
        # (|00> + |20>)/sqrt(2) is parity-even, so every first moment vanishes,
        # but its coherence between n_A - n_B = 0 and 2 gives xx_a != pp_a
        vec = fock_vector(CFG2.n_max, (0, 0)) + fock_vector(CFG2.n_max, (2, 0))
        rho = np.outer(vec, vec) / 2.0
        moments = kron_reference_moments(CFG2, rho)
        assert moments["xx_a"] != pytest.approx(moments["pp_a"])
        with pytest.raises(ValueError, match=r"not phase-symmetric: off-block element 5\.000e-01"):
            DensityMatrix(CFG2, rho)

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_matches_kron_reference_on_random_states(self, rng, n_max):
        cfg = HilbertConfig(n_max)
        for _ in range(5):
            assert_matches_kron_reference(random_density_matrix(cfg, rng))

    @pytest.mark.parametrize("n_max", [3, 6])
    def test_matches_kron_reference_on_pipeline_states(self, n_max):
        source = tmsv_state(0.135, HilbertConfig(n_max))
        lossy = loss_channel(source, 1, np.sqrt(0.05))
        for g in (2.0, 14.0, 30.0):
            assert_matches_kron_reference(nla_catalysis(lossy, 1.0 / g, 0.65)[0])

    def test_cauchy_schwarz_enforced(self):
        with pytest.raises(ValueError, match="Cauchy-Schwarz"):
            CovarianceSummary(0.5, 0.5, 0.9)


class TestKrausMoments:
    """The moment reader on a family other than the identity and catalysis."""

    TAUS = np.array([0.0, 0.3, np.sqrt(0.05), 0.9, 1.0])

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_loss_families_match_the_lossy_state(self, rng, n_max):
        # the loss family is complete, so p = 1; a stack of G families gives
        # each family's single-call columns bit for bit.  The cross moment can
        # pass through zero, so its error is measured against sqrt(xx_a xx_b)
        state = random_density_matrix(HilbertConfig(n_max), rng)
        columns = np.array(kraus_moments(state, loss_kraus_operators(n_max, self.TAUS)))
        singles = np.hstack(
            [kraus_moments(state, loss_kraus_operators(n_max, tau)[None]) for tau in self.TAUS]
        )
        assert columns.tobytes() == singles.tobytes()
        for (p, n_a, n_b, ab), tau in zip(columns.T, self.TAUS):
            cov = covariance_summary(loss_channel(state, 1, tau))
            assert p == pytest.approx(1.0, rel=1e-14)
            assert (n_a / p + 0.5, n_b / p + 0.5) == pytest.approx(
                (cov.xx_a, cov.xx_b), rel=1e-14, abs=0.0
            )
            assert abs(ab / p - cov.xa_xb) <= 1e-14 * np.sqrt(cov.xx_a * cov.xx_b)


class TestDetectionEfficiency:
    def test_unit_efficiency_is_identity(self, rng):
        cov = random_covariance(rng)
        out = apply_detection_efficiency(cov, 1.0, 1.0)
        assert out == cov

    def test_zero_efficiency_gives_vacuum(self, rng):
        out = apply_detection_efficiency(random_covariance(rng), 0.0, 0.0)
        assert out.xx_a == pytest.approx(0.5)
        assert out.xx_b == pytest.approx(0.5)
        assert out.xa_xb == pytest.approx(0.0)

    def test_matches_loss_channels_on_random_states(self, rng):
        # the moment map must equal physically attenuating each mode with
        # intensity transmissivity eta before extraction
        for _ in range(5):
            state = random_density_matrix(CFG2, rng)
            eta_a, eta_b = rng.uniform(0.2, 1.0, size=2)
            mapped = apply_detection_efficiency(covariance_summary(state), eta_a, eta_b)
            lossy = loss_channel(state, 0, np.sqrt(eta_a))
            lossy = loss_channel(lossy, 1, np.sqrt(eta_b))
            direct = covariance_summary(lossy)
            for attr in ("xx_a", "xx_b", "xa_xb"):
                assert getattr(mapped, attr) == pytest.approx(
                    getattr(direct, attr), abs=1e-10
                )

    def test_out_of_range(self, rng):
        with pytest.raises(ValueError):
            apply_detection_efficiency(random_covariance(rng), 1.2, 0.5)


class TestDuanInseparability:
    def test_vacuum_sits_at_boundary(self):
        result = duan_inseparability(covariance_summary(VACUUM))
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert result.a_star == pytest.approx(1.0)

    def test_symmetric_state_with_equal_combinations(self):
        # symmetric moments with v_diff = 0.86 and the momentum analog equal:
        # the minimum is 0.86 at a* = 1
        m, c = 0.515, 0.085
        cov = CovarianceSummary(m, m, c)
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
        n_a, n_b = 2.0 * cov.xx_a, 2.0 * cov.xx_b
        k = 2.0 * cov.xa_xb
        assert np.sign(k) == np.sign(result.a_star) == sign
        smaller = np.linalg.eigvalsh([[n_a, -k], [-k, n_b]])[0]
        assert result.value == pytest.approx(smaller, rel=1e-14)
        if sign < 0:
            assert result.value < 1.0

    @pytest.mark.parametrize(
        "xx_a, xx_b, a_star", [(0.6, 0.9, 0.0), (0.9, 0.6, np.inf)], ids=["n_a<n_b", "n_a>n_b"]
    )
    def test_uncorrelated_asymmetric_sits_at_a_boundary(self, xx_a, xx_b, a_star):
        # with k = 0, I(a) runs monotonically from n_A at a = 0 to n_B as a -> inf
        cov = CovarianceSummary(xx_a, xx_b, 0.0)
        result = duan_inseparability(cov)
        assert result.value == min(xx_a + xx_a, xx_b + xx_b)
        assert result.a_star == a_star
        assert duan_objective(cov)(min(a_star, 1e9)) == pytest.approx(result.value, abs=1e-15)

    def test_degenerate_uncorrelated_symmetric(self):
        cov = CovarianceSummary(0.7, 0.7, 0.0)
        result = duan_inseparability(cov)
        assert result.value == pytest.approx(1.4)
        assert result.a_star == 1.0

    def test_columns_equal_the_single_summaries(self, rng):
        # a batch of summaries mixing correlated rows of both signs with the
        # two uncorrelated cases: each element is the single summary's result
        covs = [random_covariance(rng) for _ in range(4)] + [
            CovarianceSummary(0.6, 0.9, 0.0), CovarianceSummary(0.9, 0.6, 0.0),
            CovarianceSummary(0.7, 0.7, 0.0), CovarianceSummary(0.515, 0.515, 0.085),
            CovarianceSummary(0.515, 0.515, -0.085),
        ]
        columns = CovarianceSummary(*(np.array(c) for c in zip(
            *[(cov.xx_a, cov.xx_b, cov.xa_xb) for cov in covs]
        )))
        batch = duan_inseparability(columns)
        singles = [duan_inseparability(cov) for cov in covs]
        assert batch.value.tolist() == [result.value for result in singles]
        assert batch.a_star.tolist() == [result.a_star for result in singles]


class TestJointQuadraturePdf:
    def test_vacuum_is_product_gaussian(self):
        xs = np.linspace(-3, 3, 7)
        for xa in xs:
            for xb in xs:
                expected = np.exp(-xa * xa) * np.exp(-xb * xb) / np.pi
                assert joint_quadrature_pdf(VACUUM, xa, xb) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_single_photon_marginal_shape(self):
        # |1> (x) |0>: density 2 x^2 exp(-x^2)/sqrt(pi) in x_a times vacuum
        state = pure_state(CFG2, fock_vector(CFG2.n_max, (1, 0)))
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
            VACUUM,
            tmsv_state(0.2, CFG2),
            random_density_matrix(CFG2, rng),
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

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_prefixes_equal_the_full_call_bit_for_bit(self, rng, n_max):
        # a point's density must not depend on how many points share its call
        state = random_density_matrix(HilbertConfig(n_max), rng)
        x_a, x_b = rng.normal(scale=2.0, size=(2, 8192 + 700))
        full = joint_quadrature_pdf(state, x_a, x_b)
        for k in (1, 511, 512, 513, 8192):
            assert np.array_equal(joint_quadrature_pdf(state, x_a[:k], x_b[:k]), full[:k])


class TestHermiteFunctions:
    def test_orthonormal_on_fine_grid(self):
        x = np.arange(-12.0, 12.0, 0.01)
        psi = hermite_functions(5, x)
        gram = psi @ psi.T * 0.01
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)


def sampled_state(preset, g, n_max=None):
    """The detected state that `sample` draws from."""
    data = load_preset(preset)
    config = ScenarioConfig.from_dict({**data, "n_max": n_max or data["n_max"]})
    state, _ = build_distilled_state(config, g)
    state = loss_channel(state, 0, float(np.sqrt(config.eta_a)))
    return loss_channel(state, 1, float(np.sqrt(config.eta_b)))


def envelope_variance(state):
    cov = covariance_summary(state)
    return 1.5 * max(cov.xx_a, cov.xx_b)


PRESETS = ("losschannel", "lowsqueeze", "figS2a", "figS2b")


class TestEnvelopeBound:
    @pytest.mark.parametrize("n_max", range(1, 7))
    @pytest.mark.parametrize("preset", PRESETS)
    def test_matches_dense_oracle_on_presets(self, preset, n_max):
        for g in (3.0, 30.0):
            state = sampled_state(preset, g, n_max)
            env_var = envelope_variance(state)
            dense = dense_envelope_bound(state, env_var)
            assert quadratures._envelope_bound(state, env_var) == pytest.approx(dense, rel=4e-15)

    @pytest.mark.parametrize("wide", [False, True], ids=["env_var<1", "env_var>=1"])
    @settings(max_examples=30, deadline=None)
    @given(n_max=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), weight=st.floats(0.0, 1.0))
    def test_matches_dense_oracle_on_random_states(self, wide, n_max, seed, weight):
        cfg = HilbertConfig(n_max)
        noise = random_density_matrix(cfg, np.random.default_rng(seed))
        # at most 1/(6 n_max) of a random state keeps <n> < 1/6 per mode, so
        # env_var = 1.5 (<n> + 1/2) < 1; the unmixed random states are wider
        weight = 1.0 if wide else weight / (6.5 * n_max)
        mixed = (1 - weight) * tmsv_state(0.0, cfg).elements + weight * noise.elements
        state = DensityMatrix(cfg, mixed)
        env_var = envelope_variance(state)
        assert (env_var >= 1.0) == wide
        # Near the vacuum, P/q peaks near |x| = |y| = 4.3, where the oracle's
        # exponent (x^2 + y^2)/2v is about 25: its rounding puts the oracle up
        # to 5.2e-15 from a 40-digit reference, the separable bound 1.4e-15.
        rel = 4e-15 if wide else 1e-14
        dense = dense_envelope_bound(state, env_var)
        assert quadratures._envelope_bound(state, env_var) == pytest.approx(dense, rel=rel)

    @pytest.mark.parametrize("env_var", [0.75, 4.0])
    def test_vacuum_closed_form(self, env_var):
        # P/q = 2v exp(-(x^2 + y^2)(1 - 1/2v)) peaks at the origin
        bound = quadratures._envelope_bound(VACUUM, env_var)
        assert bound == pytest.approx(2.0 * env_var * 1.15, rel=1e-15)

    def test_memory_stays_small(self):
        state = sampled_state("losschannel", 14.0, 6)
        env_var = envelope_variance(state)
        tracemalloc.start()
        try:
            quadratures._envelope_bound(state, env_var)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # dense_envelope_bound peaks at 148 MB on this state
        assert peak < 8e6

    @pytest.mark.parametrize("preset", PRESETS)
    def test_dense_oracle_draws_the_same_samples(self, monkeypatch, preset):
        state = sampled_state(preset, 14.0)
        samples = sample_quadratures(state, 20000, seed=5)
        monkeypatch.setattr(quadratures, "_envelope_bound", dense_envelope_bound)
        assert np.array_equal(sample_quadratures(state, 20000, seed=5), samples)


class TestSampleQuadratures:
    def test_vacuum_moments(self):
        samples = sample_quadratures(VACUUM, 20000, seed=7)
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
        out = sample_quadratures(VACUUM, 1, seed=0)
        assert out.shape == (1, 2)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_quadratures(VACUUM, 0, seed=0)

    def test_too_small_envelope_bound_raises(self, monkeypatch):
        bound = quadratures._envelope_bound
        monkeypatch.setattr(quadratures, "_envelope_bound", lambda *args: bound(*args) / 2)
        with pytest.raises(ValueError, match=r"exceed the envelope bound .* P/\(M q\) = 1\."):
            sample_quadratures(tmsv_state(0.3, CFG2), 1000, seed=0)

    def test_acceptance_rate_floor_raises(self, monkeypatch):
        # a bound 1e4 times too loose accepts about one proposal in 30 000
        bound = quadratures._envelope_bound
        monkeypatch.setattr(quadratures, "_envelope_bound", lambda *args: bound(*args) * 1e4)
        with pytest.raises(ValueError, match=r"envelope acceptance rate \d\.\d\de-0\d below 1e-3"):
            sample_quadratures(sampled_state("losschannel", 14.0), 1000, seed=7)

    @pytest.mark.parametrize("preset, g, n_max", [
        ("losschannel", 14.0, 3), ("losschannel", 8.0, 6), ("losschannel", 30.0, 6),
        ("lowsqueeze", 30.0, 3),
    ])
    def test_marginals_pass_chi_square(self, preset, g, n_max):
        # 50 bins of equal exact probability per marginal (Devroye 1986, ch. II)
        config = ScenarioConfig.from_dict({**load_preset(preset), "n_max": n_max})
        state, _ = build_distilled_state(config, g)
        count, bins = 20000, 50
        samples = sample_quadratures(state, count, seed=5)
        d = n_max + 1
        rho = np.real(state.elements).reshape(d, d, d, d) / state.trace
        grid = np.linspace(-12.0, 12.0, 24001)
        psi = hermite_functions(n_max, grid)
        for column, reduced in enumerate(
            (np.trace(rho, axis1=1, axis2=3), np.trace(rho, axis1=0, axis2=2))
        ):
            density = np.einsum("mx,mn,nx->x", psi, reduced, psi)
            cdf = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) / 2)])
            edges = np.interp(np.arange(1, bins) / bins, cdf / cdf[-1], grid)
            observed = np.bincount(np.searchsorted(edges, samples[:, column]), minlength=bins)
            assert stats.chisquare(observed).pvalue >= 1e-9
