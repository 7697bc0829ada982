"""Truncated-Fock-basis simulator for heralded distillation of two-mode
squeezed light by noiseless linear amplification, with analytic reference
models, entanglement measures, and an equivalent-state solver."""

from .channels import (
    catalysis_kraus_operators,
    loss_channel,
    loss_kraus_operators,
    nla_catalysis,
    pump_rotation_degrade,
    tmsv_state,
)
from .equivalent import EquivalentSolve, EquivalentState, equivalent_variances, solve_equivalent
from .fock import (
    DensityMatrix,
    HeraldingImpossibleError,
    HilbertConfig,
    InvalidStateError,
    apply_mode_kraus,
    normalize,
    pure_state,
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
