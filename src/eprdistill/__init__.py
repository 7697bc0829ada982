"""Truncated-Fock-basis simulator for heralded distillation of two-mode
squeezed light by noiseless linear amplification, with analytic reference
models, entanglement measures, and an equivalent-state solver."""

from .channels import (
    HeraldingImpossibleError,
    beamsplitter_unitary,
    catalysis_kraus_operators,
    herald_click,
    loss_channel,
    loss_kraus_operators,
    nla_catalysis,
    pump_rotation_degrade,
    tmsv_state,
)
from .equivalent import EquivalentSolve, EquivalentState, equivalent_variances, solve_equivalent
from .fock import (
    DensityMatrix,
    HilbertConfig,
    InvalidStateError,
    annihilation_operator,
    apply_mode_kraus,
    apply_unitary,
    basis_vector,
    normalize,
    partial_trace,
    pure_state,
    tensor_product,
    vacuum_state,
)
from .models import (
    BETA_OPTIMAL,
    V_DIFF_OPTIMAL,
    beta_from_gain,
    degraded_variances,
    deterministic_bound,
    ideal_variances,
    optimal_gain,
    sp_model_covariance,
    sp_model_herald_probability,
    tmsv_covariance,
)
from .quadratures import (
    CovarianceSummary,
    DuanResult,
    apply_detection_efficiency,
    covariance_summary,
    duan_inseparability,
    joint_quadrature_pdf,
    sample_quadratures,
)
from .scenario import (
    ConfigError,
    DegradeSpec,
    GainSpec,
    ScenarioConfig,
    SweepResult,
    SweepRow,
    run_equivalence,
    run_sampling,
    run_scenario,
)

__version__ = "0.1.0"
