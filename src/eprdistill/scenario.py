"""Scenario configuration and reproducible experiment runners.

A scenario is one JSON document: source squeezing, an optional degradation
(pump rotation or a lossy channel on mode B), the NLA gain (single value or
sweep), efficiencies, cutoff, model selection and sampling controls.
Runners turn a scenario into a gain-sweep table, a quadrature-sample file,
or an equivalent-state report.  Identical configurations (seed included)
produce byte-identical output on one machine.  Across CPUs the last bit of
a result can differ (numpy's SIMD arcsin and exp against libm), and a
printed 12th digit within a few ulp of a rounding midpoint can then flip.
"""

import functools
import json
import math
import typing
from dataclasses import MISSING, Field, asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import tolerances
from .channels import (
    catalysis_kraus_operators,
    loss_channel,
    nla_catalysis,
    pump_rotation_degrade,
    tmsv_state,
)
from .equivalent import solve_equivalents
from .fock import DensityMatrix, HeraldingImpossibleError, HilbertConfig
from .models import beta_from_gain, sp_model
from .quadratures import (
    CovarianceSummary,
    apply_detection_efficiency,
    duan_inseparability,
    kraus_moments,
    sample_quadratures,
)

MODELS = ("ideal", "single_photon", "full_numeric")
DEGRADE_MODES = ("none", "pump_rotation", "loss")

CSV_HEADER = "g,beta,v_diff,v_sum,duan_I,duan_a_star,herald_p,model"

# Largest cutoff, sweep and sample sizes accepted; larger requests are
# refused as config errors before any array is sized from them.
MAX_N_MAX = 6
MAX_GAIN_STEPS = 100_000
MAX_SAMPLE_COUNT = 1_000_000

# Radius of the shot-noise reference circle for scatter plots: one vacuum
# standard deviation, sqrt(1/2), in these units.
SHOT_NOISE_RADIUS = float(np.sqrt(0.5))

# Gains of a full_numeric sweep evaluated as one stack: their catalysis
# families and kraus_moments peak at about 15 KB per gain at n_max = 6
# (tracemalloc), so a stack stays near 1 MB however long the sweep.
_GAIN_CHUNK = 64

# Sample pairs formatted per write of a sample report: large enough to
# amortise the writes, small enough that no whole-document string is built.
_SAMPLE_CHUNK = 4096


class ConfigError(ValueError):
    """Scenario validation failure with a field-level message."""

    def __init__(self, fld: str, message: str):
        self.field = fld
        super().__init__(f"{fld}: {message}")


_KIND_NAMES = {
    float: "a finite number", int: "an integer", str: "a string", bool: "true or false",
}


def _type_name(value) -> str:
    return "null" if value is None else type(value).__name__


def _preview(value) -> str:
    """repr(value), cut to 60 characters so no message grows with the input."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


def _value_type(hint) -> tuple[type, bool]:
    """The value type of a field annotation, and whether it admits null."""
    args = typing.get_args(hint)  # the only unions are `X | None`
    return (args[0], True) if args else (hint, False)


def _is_kind(value, kind: type) -> bool:
    # bool is an int subclass in Python, so it is rejected explicitly wherever
    # a number is due; Python's JSON reader accepts NaN and Infinity, which
    # no field may take.
    if kind in (int, float):
        return (
            isinstance(value, (int, kind))
            and not isinstance(value, bool)
            and -math.inf < value < math.inf
        )
    return isinstance(value, kind)


def _from_json(cls, data, path: str):
    """Build the dataclass `cls` from the JSON object at `path`.

    Raises ConfigError for a non-object, an unknown or missing key, and a
    value not of its field's type, at every level.  null is accepted only
    where the annotation is `X | None`.
    """
    where = path or "config"
    if not isinstance(data, dict):
        raise ConfigError(where, f"expected an object, got {_type_name(data)}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(where, f"unknown keys {_preview(sorted(unknown))}")
    values = {}
    for f in fields(cls):
        if f.name not in data:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(where, f"missing key {f.name!r}")
            continue
        name = f"{path}.{f.name}" if path else f.name
        value = data[f.name]
        kind, nullable = _value_type(f.type)
        if is_dataclass(kind):
            value = _from_json(kind, value, name)
        elif not (value is None and nullable or _is_kind(value, kind)):
            raise ConfigError(
                name, f"expected {_KIND_NAMES[kind]}, got {_type_name(value)} {_preview(value)}"
            )
        values[f.name] = value
    return cls(**values)


def _reject_ignored(spec, section: str, form: str) -> None:
    """Raise ConfigError for a field that `form` ignores but that is set."""
    for f in fields(spec):
        if f.name in spec.ignored() and getattr(spec, f.name) != f.default:
            raise ConfigError(f"{section}.{f.name}", f"not used with {form}")


@dataclass(frozen=True)
class DegradeSpec:
    """No degradation, a pump rotation by theta_deg degrees, or a loss of
    intensity transmissivity tau2 on mode B."""

    mode: str = field(metadata={"choices": DEGRADE_MODES})
    theta_deg: float | None = None
    tau2: float | None = None

    def ignored(self) -> tuple[str, ...]:
        """The fields the chosen mode does not use."""
        used = {"pump_rotation": "theta_deg", "loss": "tau2"}.get(self.mode)
        return tuple(name for name in ("theta_deg", "tau2") if name != used)

    def __post_init__(self):
        if self.mode not in DEGRADE_MODES:
            raise ConfigError("degrade.mode", f"must be one of {DEGRADE_MODES}")
        if self.mode == "pump_rotation":
            if self.theta_deg is None or not 0.0 <= self.theta_deg <= 90.0:
                raise ConfigError(
                    "degrade.theta_deg", f"must be in [0, 90], got {self.theta_deg}"
                )
        if self.mode == "loss":
            if self.tau2 is None or not 0.0 < self.tau2 <= 1.0:
                raise ConfigError("degrade.tau2", f"must be in (0, 1], got {self.tau2}")
        _reject_ignored(self, "degrade", f"mode {self.mode!r}")


@dataclass(frozen=True)
class GainSpec:
    """Single gain g, or a sweep {g_min, g_max, steps, log_spacing}."""

    g: float | None = None
    g_min: float | None = None
    g_max: float | None = None
    steps: int = 2
    log_spacing: bool = False

    def ignored(self) -> tuple[str, ...]:
        """The fields the chosen form does not use."""
        return ("g",) if self.is_sweep else ("g_min", "g_max", "steps", "log_spacing")

    def __post_init__(self):
        if self.g is not None:
            if not self.g >= 1.0:
                raise ConfigError("gain.g", f"gain must be >= 1, got {self.g}")
            _reject_ignored(self, "gain", "a single gain g")
            return
        if self.g_min is None or self.g_max is None:
            raise ConfigError("gain", "provide either g or both g_min and g_max")
        if not self.g_min >= 1.0:
            raise ConfigError("gain.g_min", f"must be >= 1, got {self.g_min}")
        if not self.g_max >= self.g_min:
            raise ConfigError("gain.g_max", f"must be >= g_min, got {self.g_max}")
        if not 2 <= self.steps <= MAX_GAIN_STEPS:
            raise ConfigError(
                "gain.steps", f"sweep needs 2..{MAX_GAIN_STEPS} steps, got {self.steps}"
            )

    @property
    def is_sweep(self) -> bool:
        return self.g is None

    def values(self) -> np.ndarray:
        if not self.is_sweep:
            return np.array([self.g])
        if self.log_spacing:
            return np.geomspace(self.g_min, self.g_max, self.steps)
        return np.linspace(self.g_min, self.g_max, self.steps)


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario.  It and its sections check themselves when built, the
    sections first, so an invalid scenario cannot exist."""

    gamma: float = 0.135
    degrade: DegradeSpec = field(default_factory=lambda: DegradeSpec("none"))
    gain: GainSpec = field(default_factory=GainSpec)
    eta_ancilla: float = 1.0
    eta_a: float = 1.0
    eta_b: float = 1.0
    n_max: int = 3
    model: str = field(default="full_numeric", metadata={"choices": MODELS})
    sample_count: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma", f"must be in (0, 1), got {self.gamma}")
        for name in ("eta_ancilla", "eta_a", "eta_b"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(name, f"must be in [0, 1], got {value}")
        if not 1 <= self.n_max <= MAX_N_MAX:
            raise ConfigError("n_max", f"must be in 1..{MAX_N_MAX}, got {self.n_max}")
        if self.model not in MODELS:
            raise ConfigError("model", f"must be one of {MODELS}")
        if not 1 <= self.sample_count <= MAX_SAMPLE_COUNT:
            raise ConfigError(
                "sample_count", f"must be in 1..{MAX_SAMPLE_COUNT}, got {self.sample_count}"
            )
        if self.seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {self.seed}")
        # beta = 1/(g gamma tau) peaks at the lowest gain; models take 2 beta^2
        g = self.gain.g_min if self.gain.is_sweep else self.gain.g
        scale = g * self.effective_gamma * self.tau
        if scale == 0.0 or not math.isfinite(2.0 / scale / scale):
            raise ConfigError("gamma", f"beta^2 overflows: g gamma tau = {scale:g}")

    @property
    def effective_gamma(self) -> float:
        if self.degrade.mode == "pump_rotation":
            return pump_rotation_degrade(self.gamma, self.degrade.theta_deg)
        return self.gamma

    @property
    def tau(self) -> float:
        """Amplitude transmissivity of the degradation channel (1 if none)."""
        if self.degrade.mode == "loss":
            return float(np.sqrt(self.degrade.tau2))
        return 1.0

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        return _from_json(cls, data, "")

    def to_dict(self) -> dict:
        """The JSON form: every field except those the chosen forms ignore."""
        data = asdict(self)
        for f in fields(self):
            spec = getattr(self, f.name)
            if is_dataclass(spec):
                for name in spec.ignored():
                    del data[f.name][name]
        return data


@functools.cache
def leaf_fields(cls: type = ScenarioConfig, path: str = "") -> tuple[tuple[str, type, Field], ...]:
    """(dotted path, value type, field) of every scalar of the schema, in order."""
    leaves = ()
    for f in fields(cls):
        name = f"{path}.{f.name}" if path else f.name
        kind, _ = _value_type(f.type)
        leaves += leaf_fields(kind, name) if is_dataclass(kind) else ((name, kind, f),)
    return leaves


@dataclass(frozen=True)
class SweepRow:
    g: float
    beta: float
    v_diff: float
    v_sum: float
    duan_i: float
    duan_a_star: float
    herald_p: float
    model: str


@dataclass
class SweepResult:
    """Per-gain rows, ordered by g, plus any skipped (infeasible) gains."""

    rows: list[SweepRow]
    skipped: list[tuple[float, str]] = field(default_factory=list)

    def to_csv_text(self) -> str:
        # a row's __dict__ holds its fields in declaration order, and reads
        # them several times faster than dataclasses.astuple's deep copy
        line = "%.12g," * 7 + "%s\n"
        return CSV_HEADER + "\n" + "".join([line % tuple(vars(row).values()) for row in self.rows])

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(self.to_csv_text())


def _round12(values: list[float]) -> list[float]:
    """Each x as a report writes it, float("%.12g" % x), formatted with one `%`."""
    return list(map(float, ("%.12g " * len(values) % tuple(values)).split()))


def _lossy_source(config: ScenarioConfig) -> DensityMatrix:
    """The squeezed source after its degradation, which does not depend on g.

    A sweep builds it once and shares it between its gain stacks, which is
    safe since a DensityMatrix's elements are read-only.
    """
    state = tmsv_state(config.effective_gamma, HilbertConfig(config.n_max))
    if config.degrade.mode == "loss":
        state = loss_channel(state, 1, config.tau)
    return state


def build_distilled_state(
    config: ScenarioConfig, g: float, _source: DensityMatrix | None = None
) -> tuple[DensityMatrix, float]:
    """Source -> degrade -> catalysis; returns the distilled state and p.
    `_source` stands for `_lossy_source(config)` where the caller has it."""
    return nla_catalysis(_source or _lossy_source(config), 1.0 / g, config.eta_ancilla)


def _rows(config: ScenarioConfig, columns: tuple[np.ndarray, ...]) -> list[SweepRow]:
    return [SweepRow(*row, config.model) for row in zip(*(c.tolist() for c in columns))]


def evaluate_gain_point(
    config: ScenarioConfig, g: float, _source: DensityMatrix | None = None
) -> SweepRow:
    """Evaluate the configured model at a single gain value: the sweep of
    that one gain.  `_source` is as in `build_distilled_state`.  Raises
    HeraldingImpossibleError where a sweep would skip the gain.
    """
    columns, skipped = _sweep(config, np.array([g], dtype=float), _source)
    if skipped:
        raise skipped[0][1]
    return _rows(config, columns)[0]


def _sweep(
    config: ScenarioConfig, gains: np.ndarray, source: DensityMatrix | None = None
) -> tuple[tuple[np.ndarray, ...], list[tuple[float, HeraldingImpossibleError]]]:
    """The columns of the rows at `gains`, in SweepRow's order and g order,
    and the skipped gains with the error each would raise.

    One covariance pipeline serves every model, once over the whole grid:
    the model's second moments, then detector efficiencies, then the
    inseparability minimum.  The analytic models evaluate the grid as one
    batch and report the single-photon-level heralding probability.
    full_numeric reads its moments with `kraus_moments` from catalysis
    families in stacks of _GAIN_CHUNK gains on one lossy source (`source`,
    or `_lossy_source(config)` if None), and skips a gain whose herald
    probability is at or below HERALD_MIN_PROBABILITY.
    """
    skipped = []
    if config.model != "full_numeric":
        eta = 1.0 if config.model == "ideal" else config.eta_ancilla
        cov, p = sp_model(config.effective_gamma, config.tau, gains, eta)
    else:
        source = source or _lossy_source(config)
        stacks = []
        for start in range(0, len(gains), _GAIN_CHUNK):
            chunk = gains[start : start + _GAIN_CHUNK]
            kraus = catalysis_kraus_operators(config.n_max, 1.0 / chunk, config.eta_ancilla)
            stacks.append(kraus_moments(source, kraus))
        p, n_a, n_b, ab = map(np.concatenate, zip(*stacks))
        ok = p > tolerances.HERALD_MIN_PROBABILITY
        skipped = [
            (g, HeraldingImpossibleError(q)) for g, q in zip(gains[~ok].tolist(), p[~ok].tolist())
        ]
        gains, p = gains[ok], p[ok]
        cov = CovarianceSummary(n_a[ok] / p + 0.5, n_b[ok] / p + 0.5, ab[ok] / p)
    cov = apply_detection_efficiency(cov, config.eta_a, config.eta_b)
    duan = duan_inseparability(cov)
    beta = beta_from_gain(gains, config.effective_gamma, config.tau)
    return (gains, beta, cov.v_diff, cov.v_sum, duan.value, duan.a_star, p), skipped


def run_scenario(config: ScenarioConfig) -> SweepResult:
    """Evaluate the scenario over its gain grid, rows emitted in g order.

    Gains whose heralding probability vanishes are reported in `skipped`
    rather than aborting the sweep.
    """
    columns, skipped = _sweep(config, config.gain.values())
    return SweepResult(_rows(config, columns), [(g, str(err)) for g, err in skipped])


def run_sampling(config: ScenarioConfig) -> dict:
    """Draw quadrature samples of the distilled state at the configured gain.

    Requires the full numeric model and a single-valued gain.  The metadata's
    beta, herald probability and model variances are the sweep row at that
    gain (`evaluate_gain_point`), rounded as every report rounds.  The
    heralded state is built only to be sampled, from the same lossy source
    as that row: detector efficiencies are applied to it as loss channels so
    the samples match what the homodyne detectors would record.  The report
    echoes the full configuration and carries the shot-noise reference
    radius.  Its "samples" are the sampler's unrounded (count, 2) array,
    which only dump_json_report and write_json_report can write (rounding as
    they go).
    """
    if config.model != "full_numeric":
        raise ConfigError("model", "sampling requires the full_numeric model")
    if config.gain.is_sweep:
        raise ConfigError("gain", "sampling requires a single gain g, not a sweep")
    g = config.gain.g
    source = _lossy_source(config)
    try:
        row = evaluate_gain_point(config, g, source)
        distilled, _ = build_distilled_state(config, g, source)
    except HeraldingImpossibleError as exc:
        raise ConfigError("gain.g", f"cannot sample at g={g:g}: {exc}") from exc
    detected = loss_channel(distilled, 0, float(np.sqrt(config.eta_a)))
    detected = loss_channel(detected, 1, float(np.sqrt(config.eta_b)))
    keys = ("gain", "beta", "herald_probability", "shot_noise_radius", "model_v_diff",
            "model_v_sum")
    values = [row.g, row.beta, row.herald_p, SHOT_NOISE_RADIUS, row.v_diff, row.v_sum]
    return {
        "config": config.to_dict(),
        "metadata": dict(zip(keys, _round12(values))),
        "samples": sample_quadratures(detected, config.sample_count, config.seed),
    }


def run_equivalence(
    config: ScenarioConfig, variances: tuple[float, float] | None = None
) -> dict:
    """Equivalent-state table: solve (gamma_eq, eta_b_eq) per sweep row.

    The equivalent source efficiency of mode A is fixed to the configured
    detector efficiency eta_a.  With explicit `variances` = (v_diff, v_sum)
    a single externally supplied point is solved instead of running the
    sweep.  Infeasible rows are flagged, never NaN-filled.  Gains the sweep
    skips are listed under "skipped", a key present only when there are any.
    """
    skipped = []
    if variances is not None:
        v_diff, v_sum = variances
        if not (math.isfinite(v_diff) and math.isfinite(v_sum)):
            raise ConfigError("variances", f"must be finite, got ({v_diff}, {v_sum})")
        g = beta = [None]
        v_diff, v_sum = np.array([v_diff], dtype=float), np.array([v_sum], dtype=float)
    else:
        (g, beta, v_diff, v_sum, *_), skipped_gains = _sweep(config, config.gain.values())
        g, beta = _round12(g.tolist()), _round12(beta.tolist())
        skipped = [{"g": _round12([gain])[0], "reason": str(err)} for gain, err in skipped_gains]
    solves = solve_equivalents(v_diff, v_sum, config.eta_a)
    # each column rounded at once; the ok rows' (gamma_eq, eta_b_eq) in turn
    states = [s.state for s in solves if s.ok]
    fits = iter(_round12([x for state in states for x in (state.gamma_eq, state.eta_b_eq)]))
    table = []
    for g_row, beta_row, v_diff_row, v_sum_row, solved in zip(
        g, beta, _round12(v_diff.tolist()), _round12(v_sum.tolist()), solves
    ):
        record = {
            "g": g_row,
            "beta": beta_row,
            "v_diff": v_diff_row,
            "v_sum": v_sum_row,
            "status": solved.status,
            "gamma_eq": next(fits) if solved.ok else None,
            "eta_b_eq": next(fits) if solved.ok else None,
        }
        if not solved.ok:
            record["reason"] = solved.reason
        table.append(record)
    return {
        "config": config.to_dict(),
        "eta_a_eq": _round12([config.eta_a])[0],
        "rows": table,
        **({"skipped": skipped} if skipped else {}),
    }


def _rows_text(rows) -> str | None:
    """The items of a top-level "rows" list as json.dumps(report, indent=2)
    writes them, or None unless `rows` is a non-empty list of non-empty
    dicts of scalars.  json's C encoder (no indent) writes the list with the
    depth-2 separator between all items; as no string holds a raw newline,
    "},\\n      {" only joins rows, and one replace lays those out."""
    if not (isinstance(rows, list) and rows and all(type(row) is dict and row for row in rows)):
        return None
    scalars = {str, int, float, bool, type(None)}
    if not set(map(type, [v for row in rows for v in row.values()])) <= scalars:
        return None
    text = json.dumps(rows, separators=(",\n      ", ": "))[2:-2]
    return "    {\n      " + text.replace("},\n      {", "\n    },\n    {\n      ") + "\n    }"


def dump_json_report(report: dict, handle) -> None:
    """Write `json.dumps(report, indent=2)` and a newline to a text handle.

    A trailing "samples" array of shape (count, 2), the bulk of a sample
    report, is written directly (`indent` forces json's pure-Python encoder)
    in chunks of _SAMPLE_CHUNK pairs, each with one `%` format.  json writes
    x as repr(float(s)) with s = "%.12g" % x, which is s itself when s has a
    "." and no exponent, or an exponent below 1e-4 on a normal float: .12g strips
    trailing zeros, and a float round-trips every decimal of at most 15
    significant digits.  Otherwise x is 0, a subnormal, or within 5e-12 |x| of
    the integer s spells, so a chunk holding any x within 1e-9 max(|x|, 1) of
    an integer is written as "%r" % float(s) instead.

    A "rows" list of flat objects, the bulk of an equivalent-state report,
    is written by _rows_text without that encoder.
    """
    if next(reversed(report), None) != "samples":
        rows = _rows_text(report.get("rows"))
        text = json.dumps(report if rows is None else {**report, "rows": []}, indent=2)
        if rows is not None:
            # json writes a newline inside a string as \\n: only the key's own line matches
            text = text.replace('\n  "rows": []', '\n  "rows": [\n' + rows + "\n  ]", 1)
        handle.write(text + "\n")
        return
    samples = report["samples"]
    head = json.dumps({**report, "samples": []}, indent=2)
    handle.write(head[: -len("[]\n}")] + "[\n")
    for start in range(0, len(samples), _SAMPLE_CHUNK):
        block = samples[start : start + _SAMPLE_CHUNK].ravel()
        values, spec = block.tolist(), ".12g"
        if np.any(np.abs(block - np.rint(block)) <= 1e-9 * np.maximum(np.abs(block), 1)):
            values, spec = _round12(values), "r"
        pair = f"    [\n      %{spec},\n      %{spec}\n    ]"
        text = ",\n".join([pair] * (len(values) // 2)) % tuple(values)
        handle.write(",\n" + text if start else text)
    handle.write("\n  ]\n}\n")


def write_json_report(report: dict, path) -> None:
    """dump_json_report to `path`, LF endings; floats carry 12 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        dump_json_report(report, handle)
