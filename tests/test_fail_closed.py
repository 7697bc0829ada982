"""Every invariant check fails closed: a NaN is outside every bound.

A check written as "raise if value > bound" lets NaN through, since every
comparison with NaN is false; these are written as "raise unless value is
within bound" instead.
"""

import math

import numpy as np
import pytest

from eprdistill import (
    ConfigError,
    CovarianceSummary,
    DensityMatrix,
    EquivalentState,
    GainSpec,
    HilbertConfig,
    InvalidStateError,
    beta_from_gain,
    catalysis_kraus_operators,
    ideal_variances,
    normalize,
    optimal_gain,
    sp_model_covariance,
    tmsv_state,
)
from eprdistill.channels import _check_complete
from eprdistill.fock import apply_unitary
from eprdistill.models import sp_model
from eprdistill.quadratures import kraus_moments, mode_b_operators

NAN = math.nan
CFG1 = HilbertConfig(1)


def vacuum_with(index, value) -> np.ndarray:
    """|00><00| at n_max = 1 with one element set to `value`."""
    rho = np.diag([1.0, 0.0, 0.0, 0.0])
    rho[index] = value
    return rho


@pytest.mark.parametrize("make, error", [
    pytest.param(lambda: DensityMatrix(CFG1, np.diag([NAN, 0.0, 0.0, 0.0])),
                 InvalidStateError, id="state-nan-diagonal"),
    pytest.param(lambda: DensityMatrix(CFG1, np.full((4, 4), NAN)),
                 InvalidStateError, id="state-all-nan"),
    pytest.param(lambda: DensityMatrix(CFG1, vacuum_with((0, 0), math.inf)),
                 InvalidStateError, id="state-inf"),
    pytest.param(lambda: normalize(CFG1, np.diag([NAN, 0.0, 0.0, 0.0])),
                 InvalidStateError, id="herald-nan-probability"),
    # zero trace alone would reject this branch as one that cannot herald
    pytest.param(lambda: normalize(CFG1, np.triu(np.full((4, 4), NAN), 1)),
                 InvalidStateError, id="herald-nan-off-diagonal-zero-trace"),
    pytest.param(lambda: CovarianceSummary(NAN, NAN, NAN), ValueError, id="moments-nan"),
    pytest.param(lambda: CovarianceSummary(0.5, 0.5, NAN), ValueError, id="cross-moment-nan"),
    pytest.param(lambda: DensityMatrix(CFG1, vacuum_with((0, 1), NAN)),
                 ValueError, id="off-block-nan"),
    pytest.param(lambda: kraus_moments(mode_b_operators(tmsv_state(0.1, CFG1)),
                                       catalysis_kraus_operators(1, np.array([0.5, NAN]), 0.65)),
                 ValueError, id="catalysis-moments-r-nan"),
    pytest.param(lambda: kraus_moments(mode_b_operators(tmsv_state(0.1, CFG1)),
                                       np.full((1, 1, 2, 2), NAN)),
                 InvalidStateError, id="kraus-moments-family-nan"),
    pytest.param(lambda: EquivalentState(NAN, 0.5, 0.5), ValueError, id="gamma-eq-nan"),
    pytest.param(lambda: beta_from_gain(NAN, 0.1, 1.0), ValueError, id="gain-nan"),
    pytest.param(lambda: beta_from_gain(2.0, NAN, 1.0), ValueError, id="gamma-tau-nan"),
    pytest.param(lambda: beta_from_gain(np.array([2.0, NAN]), 0.1, 1.0), ValueError,
                 id="gain-column-nan"),
    pytest.param(lambda: CovarianceSummary(np.array([0.5, NAN]), np.full(2, 0.5), np.zeros(2)),
                 ValueError, id="moment-column-nan"),
    pytest.param(lambda: sp_model(0.1, 0.2, 2.0, NAN)[1], ValueError, id="herald-eta-nan"),
    pytest.param(lambda: sp_model(0.1, 0.2, NAN, 0.5)[1], ValueError, id="herald-gain-nan"),
    pytest.param(lambda: optimal_gain(NAN, 1.0), ValueError, id="optimal-gain-nan"),
    pytest.param(lambda: ideal_variances(NAN), ValueError, id="beta-nan"),
    pytest.param(lambda: _check_complete(np.full((1, 2, 2), NAN)),
                 AssertionError, id="kraus-nan"),
    pytest.param(lambda: apply_unitary(np.eye(4) / 4, np.full((4, 4), NAN)),
                 ValueError, id="unitary-nan"),
    pytest.param(lambda: GainSpec(g=NAN), ConfigError, id="gain-spec-g-nan"),
    pytest.param(lambda: GainSpec(g_min=NAN, g_max=2.0), ConfigError, id="gain-spec-min-nan"),
    pytest.param(lambda: GainSpec(g_min=1.0, g_max=NAN), ConfigError, id="gain-spec-max-nan"),
])
def test_nan_is_rejected(make, error):
    with pytest.raises(error):
        make()


@pytest.mark.parametrize("model", [
    sp_model_covariance,
    pytest.param(lambda *args: sp_model(*args)[1], id="sp_model_herald_probability"),
])
@pytest.mark.parametrize("gain, eta", [(0.5, 1.5), (0.5, 0.5), (2.0, 1.5), (2.0, -0.1)])
def test_single_photon_model_checks_gain_and_eta(model, gain, eta):
    # the covariance and the click probability share one check of g >= 1
    # and eta in [0, 1]
    with pytest.raises(ValueError, match="must be"):
        model(0.1, 0.2, gain, eta)
    with pytest.raises(ValueError, match="must be"):
        model(0.1, 0.2, np.array([2.0, gain, 3.0]), eta)
