"""Checks of each CLI output against the independent references.

Each check returns (items, errors): the items the call finished (CSV rows,
accepted samples written, equivalent-state rows) and a list of messages,
empty when the output is right.  Statistical checks use thresholds whose
false-alarm rate is about 1e-9 per check, so a correct program does not
fail them on any seed in practice.
"""

from __future__ import annotations

import csv
import json
from functools import lru_cache

import numpy as np
from scipy.stats import chi2

import reference as ref
from workloads import SAMPLE_COUNT, SAMPLE_GAIN, SWEEP_N_MAX

SC = ref.LOSSCHANNEL
SAMPLE_N_MAX = 3  # the preset's cutoff
VALUE_RTOL = 1e-9       # outputs carry 12 significant digits
ROUND_TRIP_ATOL = 1e-8  # forward map of the rounded equivalent state
MAX_Z = 6.0             # sample variance against its standard error
GOF_BINS = 50
GOF_P_MIN = 1e-9


def _close(value: float, want: float, rtol: float = VALUE_RTOL) -> bool:
    return abs(value - want) <= rtol * max(abs(want), 1e-3)


def _grid(gains) -> np.ndarray:
    g_min, g_max, steps = gains
    return np.linspace(g_min, g_max, steps)


def check_sweep(call, path) -> tuple[int, list[str]]:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    errors = []
    grid = _grid(call.gains)
    if len(rows) != len(grid):
        errors.append(f"{len(rows)} rows for {len(grid)} gains")
    for row, g_want in zip(rows, grid):
        g = float(row["g"])
        if not _close(g, g_want):
            errors.append(f"row g={g} where the grid has {g_want}")
            continue
        want = ref.sweep_point(SC, SWEEP_N_MAX, g)
        for col, value in (("v_diff", want.v_diff), ("v_sum", want.v_sum),
                           ("duan_I", want.duan_i), ("herald_p", want.herald_p)):
            if not _close(float(row[col]), value):
                errors.append(f"g={g}: {col} {row[col]} != reference {value:.12g}")
    bound = ref.transmission_bound(SC.tau2)
    best = min((float(row["duan_I"]) for row in rows), default=np.inf)
    if not best < bound:
        errors.append(f"no row beats the transmission bound {bound:.4f} (best {best:.4f})")
    return len(rows), errors


@lru_cache(maxsize=None)
def _sample_reference():
    """Detected state at the sampled gain, its variances and marginal CDFs."""
    d = SAMPLE_N_MAX + 1
    rho, herald_p = ref.detected_state(SC, SAMPLE_N_MAX, SAMPLE_GAIN)
    cdfs = [marginal_cdf(ref.reduced(rho, d, mode)) for mode in (0, 1)]
    return ref.moments(rho, d), herald_p, cdfs


def marginal_cdf(rho_mode: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact marginal CDF of x on a fine grid (trapezoid rule)."""
    x = np.linspace(-14.0, 14.0, 56001)
    pdf = ref.marginal_density(rho_mode, x)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(x))])
    return x, cdf / cdf[-1]


def variance_z(values: np.ndarray, want: float) -> float:
    """z-score of the sample mean of values^2 against the exact variance."""
    sq = values * values
    return abs(sq.mean() - want) / (sq.std(ddof=1) / np.sqrt(sq.size))


def gof_p(values: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> float:
    """Chi-square p-value of equal-probability bins under the exact marginal."""
    inner = np.interp(np.arange(1, GOF_BINS) / GOF_BINS, cdf, x)
    counts = np.bincount(np.searchsorted(inner, values), minlength=GOF_BINS)
    expected = values.size / GOF_BINS
    stat = float(((counts - expected) ** 2 / expected).sum())
    return float(chi2.sf(stat, GOF_BINS - 1))


def check_sample(call, path) -> tuple[int, list[str]]:
    with open(path) as handle:
        report = json.load(handle)
    samples = np.array(report["samples"], dtype=float)
    del report["samples"]
    m, herald_p, cdfs = _sample_reference()
    errors = []
    if samples.shape != (SAMPLE_COUNT, 2):
        errors.append(f"samples have shape {samples.shape}, want ({SAMPLE_COUNT}, 2)")
        return 0, errors
    meta = report["metadata"]
    for key, want in (("herald_probability", herald_p), ("model_v_diff", m.v_diff),
                      ("model_v_sum", m.v_sum)):
        if not _close(meta[key], want):
            errors.append(f"{key} {meta[key]} != reference {want:.12g}")
    if report["config"]["seed"] != call.seed:
        errors.append(f"report echoes seed {report['config']['seed']}, not {call.seed}")
    xa, xb = samples[:, 0], samples[:, 1]
    for name, values, want in (("v_diff", xa - xb, m.v_diff), ("v_sum", xa + xb, m.v_sum)):
        z = variance_z(values, want)
        if z > MAX_Z:
            errors.append(f"sample {name} is {z:.1f} standard errors from {want:.6f}")
    for mode, values in enumerate((xa, xb)):
        p = gof_p(values, *cdfs[mode])
        if p < GOF_P_MIN:
            errors.append(f"marginal of mode {mode} fails goodness of fit (p = {p:.2e})")
    return samples.shape[0], errors


def check_equiv(call, path) -> tuple[int, list[str]]:
    with open(path) as handle:
        report = json.load(handle)
    rows = report["rows"]
    errors = []
    grid = _grid(call.gains)
    if len(rows) != len(grid):
        errors.append(f"{len(rows)} rows for {len(grid)} gains")
    eta_a = report["eta_a_eq"]
    if eta_a != SC.eta_a:
        errors.append(f"eta_a_eq {eta_a} != {SC.eta_a}")
    model = ref.single_photon_variances(SC, [row["g"] for row in rows])
    for row, g_want, v_diff, v_sum in zip(rows, grid, *model):
        g = row["g"]
        if not _close(g, g_want):
            errors.append(f"row g={g} where the grid has {g_want}")
            continue
        if not (_close(row["v_diff"], v_diff) and _close(row["v_sum"], v_sum)):
            errors.append(f"g={g}: ({row['v_diff']}, {row['v_sum']}) != single-photon "
                          f"model ({v_diff:.12g}, {v_sum:.12g})")
        if row["status"] != "ok":
            errors.append(f"g={g}: status {row['status']}: {row.get('reason', '')}")
            continue
        back = ref.equivalent_variances(row["gamma_eq"], eta_a, row["eta_b_eq"])
        if max(abs(back[0] - row["v_diff"]), abs(back[1] - row["v_sum"])) > ROUND_TRIP_ATOL:
            errors.append(f"g={g}: equivalent state maps to {back}, not its row")
    return len(rows), errors


CHECKS = {"sweep-n6": check_sweep, "sample-n3": check_sample, "equiv-sp": check_equiv}
