import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprdistill import (
    ConfigError,
    DensityMatrix,
    GainSpec,
    HeraldingImpossibleError,
    HilbertConfig,
    InvalidStateError,
    ScenarioConfig,
    run_equivalence,
    run_sampling,
    run_scenario,
)
from eprdistill import channels, cli, scenario
from eprdistill.cli import build_parser, load_preset, main
from eprdistill.quadratures import covariance_summary
from eprdistill.scenario import (
    CSV_HEADER,
    MAX_GAIN_STEPS,
    MAX_N_MAX,
    MAX_SAMPLE_COUNT,
    SweepResult,
    SweepRow,
    build_distilled_state,
    dump_json_report,
    evaluate_gain_point,
    leaf_fields,
    write_json_report,
)

from conftest import dense_catalysis_kraus

SCENARIO_FLAGS = (
    "--gamma --degrade --theta --tau2 --gain.g --gain.g-min --gain.g-max --gain.steps "
    "--gain.log-spacing --eta-ancilla --eta-a --eta-b --n-max --model --sample-count --seed"
).split()
COMMAND_FLAGS = {"-h", "--config", "--preset", "--output", "--v-diff", "--v-sum", "--strict"}


def row_bits(rows) -> list[tuple]:
    """The fields of each row with every float as its exact hex spelling."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(row))
        for row in rows
    ]


def count_states(monkeypatch) -> list[int]:
    """A list that grows by one for each DensityMatrix built from now on."""
    built, check = [], DensityMatrix.__post_init__
    monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: built.append(1) or check(self))
    return built


def loss_scenario(**overrides) -> ScenarioConfig:
    data = {
        "gamma": 0.135,
        "degrade": {"mode": "loss", "tau2": 0.05},
        "gain": {"g_min": 2.0, "g_max": 30.0, "steps": 29},
        "eta_ancilla": 0.65,
        "eta_a": 0.45,
        "eta_b": 0.5,
        "n_max": 3,
        "model": "full_numeric",
    }
    data.update(overrides)
    return ScenarioConfig.from_dict(data)


class TestConfigValidation:
    def test_round_trip_through_dict(self):
        config = loss_scenario()
        again = ScenarioConfig.from_dict(config.to_dict())
        assert again == config

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"gamma": 1.2}, "gamma"),
            ({"degrade": {"mode": "sideways"}}, "degrade.mode"),
            ({"degrade": {"mode": "loss"}}, "degrade.tau2"),
            ({"degrade": {"mode": "pump_rotation", "theta_deg": 120}}, "degrade.theta_deg"),
            ({"gain": {"g": 0.5}}, "gain.g"),
            ({"gain": {"g_min": 2.0, "g_max": 1.0, "steps": 5}}, "gain.g_max"),
            ({"gain": {"g_min": 2.0, "g_max": 5.0, "steps": 1}}, "gain.steps"),
            ({"eta_a": -0.1}, "eta_a"),
            ({"n_max": MAX_N_MAX + 1}, "n_max"),
            ({"model": "exact"}, "model"),
            ({"sample_count": 0}, "sample_count"),
            ({"degrade": {"tau2": 0.05}}, "degrade"),
            ({"degrade": {"mode": "loss", "tau2": 0.05, "tua2": 1}}, "degrade"),
            ({"degrade": {"mode": "none", "tau2": 0.05}}, "degrade.tau2"),
            ({"degrade": {"mode": "loss", "tau2": 0.05, "theta_deg": 10}}, "degrade.theta_deg"),
            ({"degrade": {"mode": "none", "theta_deg": 10}}, "degrade.theta_deg"),
            ({"gain": {"g": 5.0, "g_min": 2.0, "g_max": 9.0, "steps": 4}}, "gain.g_min"),
            ({"gain": {"g": 5.0, "g_max": 9.0}}, "gain.g_max"),
            ({"gain": {"g": 5.0, "steps": 4}}, "gain.steps"),
            ({"gain": {"g": 5.0, "log_spacing": True}}, "gain.log_spacing"),
            ({"gain": {"g_min": 2.0, "g_max": 5.0, "steps": MAX_GAIN_STEPS + 1}}, "gain.steps"),
            ({"gain": {"g_min": 2.0, "g_max": 5.0, "steps": 10**15}}, "gain.steps"),
            ({"sample_count": MAX_SAMPLE_COUNT + 1}, "sample_count"),
            ({"sample_count": 10**15}, "sample_count"),
            ({"gamma": 0.0}, "gamma"),
            ({"gamma": -0.1}, "gamma"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_field_level_errors(self, overrides, field):
        with pytest.raises(ConfigError) as err:
            loss_scenario(**overrides)
        assert err.value.field == field

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"gamma": "0.1"}, "gamma"),
            ({"n_max": 2.5}, "n_max"),
            ({"sample_count": True}, "sample_count"),
            ({"eta_a": False}, "eta_a"),
            ({"seed": None}, "seed"),
            ({"model": 3}, "model"),
            ({"degrade": {"mode": "loss", "tau2": "0.05"}}, "degrade.tau2"),
            ({"gain": {"g_min": 2.0, "g_max": 5.0, "steps": 4.0}}, "gain.steps"),
            ({"gain": {"g": True}}, "gain.g"),
            ({"gain": {"g": float("nan")}}, "gain.g"),
            ({"gain": {"g_min": 2.0, "g_max": float("inf")}}, "gain.g_max"),
            ({"gain": {"g_min": 2.0, "g_max": 5.0, "log_spacing": 1}}, "gain.log_spacing"),
        ],
    )
    def test_wrong_value_types_rejected(self, overrides, field):
        with pytest.raises(ConfigError) as err:
            loss_scenario(**overrides)
        assert err.value.field == field

    def test_no_invalid_instance_can_be_built(self):
        # the checks run when an instance is built, however it is built
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(loss_scenario(), n_max=MAX_N_MAX + 1)
        assert err.value.field == "n_max"
        with pytest.raises(ConfigError) as err:
            GainSpec(g=0.5)
        assert err.value.field == "gain.g"
        with pytest.raises(ConfigError) as err:
            ScenarioConfig()  # the default gain is a sweep with no endpoints
        assert err.value.field == "gain"

    def test_non_object_config_rejected(self):
        for data in ([1], "loss", None, 3.0):
            with pytest.raises(ConfigError) as err:
                ScenarioConfig.from_dict(data)
            assert err.value.field == "config"

    def test_integral_numbers_accepted_for_floats(self):
        config = loss_scenario(eta_a=1, gain={"g": 3})
        assert config.eta_a == 1 and config.gain.g == 3

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"gamma": 0.1, "gian": {"g": 2.0}})

    def test_gain_grids(self):
        lin = GainSpec(g_min=2.0, g_max=4.0, steps=3)
        np.testing.assert_allclose(lin.values(), [2.0, 3.0, 4.0])
        log = GainSpec(g_min=1.0, g_max=100.0, steps=3, log_spacing=True)
        np.testing.assert_allclose(log.values(), [1.0, 10.0, 100.0])
        single = GainSpec(g=6.5)
        np.testing.assert_allclose(single.values(), [6.5])

    def test_effective_parameters(self):
        pump = ScenarioConfig.from_dict(
            {"gamma": 0.18, "degrade": {"mode": "pump_rotation", "theta_deg": 76.0},
             "gain": {"g": 5.0}}
        )
        assert pump.effective_gamma == pytest.approx(0.18 * np.cos(np.radians(76.0)))
        assert pump.tau == 1.0
        loss = loss_scenario()
        assert loss.tau == pytest.approx(np.sqrt(0.05))


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def one_spoiled(valid, keys: tuple[str, ...]):
    """Valid objects, and valid objects with one key, known or not, set to junk."""
    spoiled = st.builds(lambda obj, key, value: {**obj, key: value},
                        valid, st.sampled_from(keys), JUNK)
    return valid | spoiled


UNIT = st.floats(0.0, 1.0)
DEGRADE = one_spoiled(
    st.just({"mode": "none"})
    | st.fixed_dictionaries({"mode": st.just("pump_rotation"), "theta_deg": st.floats(0.0, 90.0)})
    | st.fixed_dictionaries({"mode": st.just("loss"), "tau2": st.floats(0.01, 1.0)}),
    ("mode", "theta_deg", "tau2", "tua2"),
)
GAIN = one_spoiled(
    st.fixed_dictionaries({"g": st.floats(1.0, 50.0)})
    | st.fixed_dictionaries(
        {"g_min": st.floats(1.0, 10.0), "g_max": st.floats(10.0, 50.0)},
        optional={"steps": st.integers(2, 2 * MAX_GAIN_STEPS), "log_spacing": st.booleans()},
    ),
    ("g", "g_min", "g_max", "steps", "log_spacing", "gmin"),
)
CONFIG = one_spoiled(
    st.fixed_dictionaries(
        {"gain": GAIN},
        optional={
            "gamma": st.floats(0.0, 0.99), "degrade": DEGRADE, "eta_ancilla": UNIT,
            "eta_a": UNIT, "eta_b": UNIT, "n_max": st.integers(1, 6),
            "model": st.sampled_from(("ideal", "single_photon", "full_numeric")),
            "sample_count": st.integers(1, 2 * MAX_SAMPLE_COUNT), "seed": st.integers(0, 2**63),
        },
    ),
    ("gamma", "degrade", "gain", "eta_ancilla", "eta_a", "eta_b", "n_max", "model",
     "sample_count", "seed", "gian"),
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(CONFIG, JUNK))
def test_any_document_validates_or_raises_config_error(document):
    try:
        config = ScenarioConfig.from_dict(document)
    except ConfigError as err:
        assert isinstance(err.field, str)
        return
    assert ScenarioConfig.from_dict(config.to_dict()) == config


class TestRunScenario:
    def test_loss_scenario_interior_minimum(self):
        result = run_scenario(loss_scenario())
        v_diff = np.array([row.v_diff for row in result.rows])
        gains = np.array([row.g for row in result.rows])
        idx = int(v_diff.argmin())
        assert 0 < idx < len(v_diff) - 1
        assert 10.0 <= gains[idx] <= 16.0
        assert not result.skipped

    def test_rows_sorted_and_finite(self):
        result = run_scenario(loss_scenario(gain={"g_min": 2.0, "g_max": 20.0, "steps": 7}))
        gains = [row.g for row in result.rows]
        assert gains == sorted(gains)
        for row in result.rows:
            for value in (row.beta, row.v_diff, row.v_sum, row.duan_i, row.duan_a_star):
                assert np.isfinite(value)
            assert 0.0 < row.herald_p <= 1.0

    def test_vacuum_limit_rows(self):
        config = ScenarioConfig.from_dict(
            {"gamma": 1e-4, "degrade": {"mode": "none"}, "gain": {"g": 2.0},
             "eta_ancilla": 1.0, "eta_a": 1.0, "eta_b": 1.0, "model": "full_numeric"}
        )
        row = run_scenario(config).rows[0]
        assert row.v_diff == pytest.approx(1.0, abs=1e-3)
        assert row.v_sum == pytest.approx(1.0, abs=1e-3)
        assert row.duan_i == pytest.approx(1.0, abs=1e-3)

    def test_model_tags_match_request(self):
        for model in ("ideal", "single_photon", "full_numeric"):
            result = run_scenario(loss_scenario(model=model, gain={"g": 10.0}))
            assert result.rows[0].model == model

    def test_analytic_pair_close_in_weak_regime(self):
        base = {"gamma": 0.0135, "degrade": {"mode": "loss", "tau2": 0.0005},
                "gain": {"g": 3000.0}, "eta_ancilla": 0.65, "eta_a": 0.45, "eta_b": 0.5}
        sp = run_scenario(ScenarioConfig.from_dict({**base, "model": "single_photon"})).rows[0]
        full = run_scenario(ScenarioConfig.from_dict({**base, "model": "full_numeric"})).rows[0]
        assert abs(sp.v_diff - full.v_diff) / full.v_diff < 0.02
        assert abs(sp.v_sum - full.v_sum) / full.v_sum < 0.02

    def test_impossible_rows_skipped_not_fatal(self):
        # herald probabilities 7.5e-19 and 9.4e-19, below the impossible-branch floor
        config = ScenarioConfig.from_dict(
            {"gamma": 1e-9, "degrade": {"mode": "none"},
             "gain": {"g_min": 2.0, "g_max": 4.0, "steps": 2},
             "eta_ancilla": 0.0, "model": "full_numeric"}
        )
        result = run_scenario(config)
        assert not result.rows
        assert len(result.skipped) == 2

    def test_source_built_once_per_sweep(self, monkeypatch):
        calls = []
        original = scenario.tmsv_ensemble
        monkeypatch.setattr(
            scenario, "tmsv_ensemble", lambda *args: calls.append(args) or original(*args)
        )
        # 130 gains run as at least three stacks that share one source
        assert 130 > 2 * scenario._GAIN_CHUNK
        for steps in (8, 130):
            calls.clear()
            config = loss_scenario(gain={"g_min": 2.0, "g_max": 30.0, "steps": steps})
            result = run_scenario(config)
            assert len(result.rows) == steps
            assert calls == [(3, config.gamma, config.tau)]

    def test_sweep_builds_no_density_matrix(self, monkeypatch):
        built = count_states(monkeypatch)
        result = run_scenario(loss_scenario())
        assert len(result.rows) == 29
        assert not built

    def test_one_catalysis_family_stack_per_sweep(self, monkeypatch):
        calls = []
        original = scenario.catalysis_kraus_operators
        monkeypatch.setattr(
            scenario, "catalysis_kraus_operators",
            lambda *args: calls.append(args) or original(*args),
        )
        result = run_scenario(loss_scenario(gain={"g_min": 2.0, "g_max": 30.0, "steps": 8}))
        assert len(result.rows) == 8
        assert len(calls) == 1

    def test_one_detector_map_and_duan_minimum_per_sweep(self, monkeypatch):
        calls = {"apply_detection_efficiency": 0, "duan_inseparability": 0}
        for name in calls:
            original = getattr(scenario, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(scenario, name, counted)
        # 130 gains run as three catalysis stacks, and one column pass after them
        assert 130 > 2 * scenario._GAIN_CHUNK
        data = {**load_preset("losschannel"), "gain": {"g_min": 2.0, "g_max": 30.0, "steps": 130}}
        result = run_scenario(ScenarioConfig.from_dict(data))
        assert len(result.rows) == 130
        assert calls == {"apply_detection_efficiency": 1, "duan_inseparability": 1}

    def test_sweep_checks_each_herald_effect(self, monkeypatch):
        # a family scaled past completeness has an effect above 1
        original = scenario.catalysis_kraus_operators
        monkeypatch.setattr(
            scenario, "catalysis_kraus_operators", lambda *args: 2.0 * original(*args)
        )
        with pytest.raises(InvalidStateError, match="herald effect spectrum"):
            run_scenario(loss_scenario(gain={"g_min": 2.0, "g_max": 30.0, "steps": 8}))

    @pytest.mark.parametrize("factor", [1.0 + 1e-9, 0.5, math.nan])
    def test_sweep_refuses_a_source_off_trace_or_not_finite(self, monkeypatch, factor):
        # the source's R must have trace 1 and every source operator be finite
        original = scenario.tmsv_ensemble
        monkeypatch.setattr(
            scenario, "tmsv_ensemble", lambda *args: math.sqrt(factor) * original(*args)
        )
        with pytest.raises(InvalidStateError, match="source trace"):
            run_scenario(loss_scenario(gain={"g_min": 2.0, "g_max": 30.0, "steps": 8}))

    @pytest.mark.parametrize("n_max", [3, 6])
    @pytest.mark.parametrize("preset", cli.PRESET_NAMES)
    def test_batch_rows_equal_single_gain_rows(self, preset, n_max):
        config = ScenarioConfig.from_dict({**load_preset(preset), "n_max": n_max})
        result = run_scenario(config)
        assert len(result.rows) == config.gain.steps
        singles = [evaluate_gain_point(config, row.g) for row in result.rows]
        assert result.rows == singles
        assert row_bits(result.rows) == row_bits(singles)

    @pytest.mark.parametrize("model", ["single_photon", "ideal"])
    @pytest.mark.parametrize("grid", [
        *({"preset": preset} for preset in cli.PRESET_NAMES),
        {"preset": "losschannel", "gain": {"g_min": 1.0, "g_max": 40.0, "steps": 300,
                                           "log_spacing": True}},
        {"preset": "figS2a", "gain": {"g_min": 2.0, "g_max": 30.0, "steps": 300},
         "gamma": 0.6, "eta_a": 0.9},
    ], ids=lambda grid: f"{grid['preset']}-{grid.get('gain', {}).get('steps', 'preset')}")
    def test_analytic_batch_rows_equal_single_gain_rows(self, model, grid):
        # the analytic models evaluate the grid as one batch of columns; each
        # row equals the single-gain row bit for bit
        data = {**load_preset(grid["preset"]), "model": model}
        data.update((key, value) for key, value in grid.items() if key != "preset")
        config = ScenarioConfig.from_dict(data)
        result = run_scenario(config)
        assert [row.model for row in result.rows] == [model] * config.gain.steps
        assert row_bits(result.rows) == row_bits(
            [evaluate_gain_point(config, row.g) for row in result.rows]
        )

    # gamma 1.2e-7 without an ancilla photon: the herald probability crosses
    # the impossible-branch floor between g = 1.75 and g = 2
    MIXED = {"gamma": 1.2e-7, "degrade": {"mode": "none"},
             "gain": {"g_min": 1.0, "g_max": 3.0, "steps": 9},
             "eta_ancilla": 0.0, "model": "full_numeric"}

    def test_mixed_grid_skips_the_impossible_gains(self):
        config = ScenarioConfig.from_dict(self.MIXED)
        result = run_scenario(config)
        assert [row.g for row in result.rows] == [2.0, 2.25, 2.5, 2.75, 3.0]
        assert result.skipped == [
            (1.0, "heralding probability 0.000e+00 is vanishing"),
            (1.25, "heralding probability 5.184e-15 is vanishing"),
            (1.5, "heralding probability 8.000e-15 is vanishing"),
            (1.75, "heralding probability 9.698e-15 is vanishing"),
        ]
        for g, reason in result.skipped:
            with pytest.raises(HeraldingImpossibleError) as err:
                evaluate_gain_point(config, g)
            assert str(err.value) == reason

    def test_sweep_warns_of_each_skipped_gain(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.MIXED))
        assert main(["sweep", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: skipped g=1: heralding probability 0.000e+00 is vanishing\n"
            "warning: skipped g=1.25: heralding probability 5.184e-15 is vanishing\n"
            "warning: skipped g=1.5: heralding probability 8.000e-15 is vanishing\n"
            "warning: skipped g=1.75: heralding probability 9.698e-15 is vanishing\n"
        )
        assert len(captured.out.splitlines()) == 1 + 5

    @pytest.mark.parametrize("config", [
        loss_scenario(gain={"g_min": 2.0, "g_max": 30.0, "steps": 8}),
        ScenarioConfig.from_dict({**MIXED, "gain": {"g_min": 1.0, "g_max": 2.75, "steps": 8}}),
    ], ids=["possible", "mixed"])
    def test_chunked_rows_equal_one_chunk(self, monkeypatch, config):
        whole = run_scenario(config)
        monkeypatch.setattr(scenario, "_GAIN_CHUNK", 3)
        chunked = run_scenario(config)
        assert chunked.rows == whole.rows
        assert chunked.skipped == whole.skipped
        assert len(whole.rows) + len(whole.skipped) == 8

    def test_distilled_state_is_real(self):
        state, _ = build_distilled_state(loss_scenario(gain={"g": 10.0}), 10.0)
        assert state.elements.dtype == np.float64

    def test_pipeline_never_builds_the_dense_unitary(self, monkeypatch):
        def dense(*args):
            raise AssertionError("the dense beamsplitter unitary was built")

        monkeypatch.setattr(channels, "beamsplitter_unitary", dense)
        config = loss_scenario(n_max=6, gain={"g_min": 2.0, "g_max": 30.0, "steps": 8})
        assert len(run_scenario(config).rows) == 8
        build_distilled_state(config, 10.0)

    @pytest.mark.parametrize("preset", cli.PRESET_NAMES)
    def test_sweep_text_equals_the_dense_oracle_sweep(self, monkeypatch, preset):
        configs = [
            ScenarioConfig.from_dict({**load_preset(preset), "n_max": n_max})
            for n_max in range(1, 7)
        ]
        texts = [run_scenario(config).to_csv_text() for config in configs]
        monkeypatch.setattr(scenario, "catalysis_kraus_operators", dense_catalysis_kraus)
        assert texts == [run_scenario(config).to_csv_text() for config in configs]


class TestCsvOutput:
    def test_header_and_format(self, tmp_path):
        result = run_scenario(loss_scenario(gain={"g_min": 2.0, "g_max": 4.0, "steps": 2}))
        path = tmp_path / "sweep.csv"
        result.write_csv(path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[-1] == "full_numeric"
        assert float(first[0]) == 2.0
        # 12 significant digits
        assert first[2] == f"{result.rows[0].v_diff:.12g}"

    def test_rows_match_the_per_field_format(self):
        # every edge float and non-finite value in every numeric column
        values = [*EDGE_FLOATS, math.inf, -math.inf, math.nan]
        rows = [
            SweepRow(*(values[(i + k) % len(values)] for k in range(7)), model)
            for i in range(len(values)) for model in scenario.MODELS
        ]
        lines = [
            ",".join([format(x, ".12g") for x in dataclasses.astuple(row)[:7]] + [row.model])
            for row in rows
        ]
        assert SweepResult(rows).to_csv_text() == "\n".join([CSV_HEADER, *lines]) + "\n"
        assert SweepResult([]).to_csv_text() == CSV_HEADER + "\n"

    def test_infinite_field_prints_inf(self, capsys):
        # at g = 1e308 the Duan minimiser a* overflows; the row still prints
        assert main(["sweep", "--preset", "lowsqueeze", "--gain.g", "1e308"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[CSV_HEADER.split(",").index("duan_a_star")] == "inf"

    def test_reproducible_bytes(self, tmp_path):
        config = loss_scenario(gain={"g_min": 5.0, "g_max": 15.0, "steps": 5})
        one, two = tmp_path / "a.csv", tmp_path / "b.csv"
        run_scenario(config).write_csv(one)
        run_scenario(config).write_csv(two)
        assert one.read_bytes() == two.read_bytes()


class TestRunSampling:
    def sampling_config(self, count=200, seed=17):
        return ScenarioConfig.from_dict(
            {"gamma": 0.05, "degrade": {"mode": "none"}, "gain": {"g": 6.5},
             "eta_ancilla": 0.65, "eta_a": 0.5, "eta_b": 0.5,
             "model": "full_numeric", "sample_count": count, "seed": seed}
        )

    def test_single_pair_deterministic(self):
        config = self.sampling_config(count=1)
        one = run_sampling(config)
        two = run_sampling(config)
        assert one.keys() == two.keys()
        assert one["config"] == two["config"] and one["metadata"] == two["metadata"]
        assert np.array_equal(one["samples"], two["samples"])
        assert len(one["samples"]) == 1

    def test_byte_identical_reports(self, tmp_path):
        config = self.sampling_config()
        paths = (tmp_path / "one.json", tmp_path / "two.json")
        for path in paths:
            write_json_report(run_sampling(config), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_metadata_contents(self):
        report = run_sampling(self.sampling_config())
        meta = report["metadata"]
        assert meta["shot_noise_radius"] == pytest.approx(np.sqrt(0.5), abs=1e-9)
        assert meta["gain"] == 6.5
        assert 0 < meta["herald_probability"] <= 1
        assert report["config"]["gamma"] == 0.05

    def test_report_holds_the_raw_samples_and_the_writer_rounds_them(
        self, tmp_path, monkeypatch
    ):
        drawn = []
        sample_quadratures = scenario.sample_quadratures

        def recording_sampler(*args):
            drawn.append(sample_quadratures(*args))
            return drawn[-1]

        monkeypatch.setattr(scenario, "sample_quadratures", recording_sampler)
        report = run_sampling(self.sampling_config())
        samples = report["samples"]
        # the sampler's own array, not per-pair objects or a rounded copy
        assert samples is drawn[0]
        assert samples.shape == (200, 2) and samples.dtype == np.float64
        path = tmp_path / "sample.json"
        write_json_report(report, path)
        written = json.loads(path.read_text(encoding="utf-8"))["samples"]
        assert written == [[float(f"{x:.12g}") for x in pair] for pair in samples.tolist()]
        assert written != samples.tolist()  # the writer rounded them

    @staticmethod
    def preset_config(preset, g):
        return ScenarioConfig.from_dict(
            {**load_preset(preset), "n_max": 3, "gain": {"g": g}, "sample_count": 1}
        )

    @pytest.mark.parametrize("preset", cli.PRESET_NAMES)
    @pytest.mark.parametrize("g", [3.0, 14.0, 30.0])
    def test_metadata_equals_the_sweep_at_its_gain(self, preset, g):
        config = self.preset_config(preset, g)
        meta = run_sampling(config)["metadata"]
        row = evaluate_gain_point(config, g)
        sampled = [meta["gain"], meta["herald_probability"], meta["model_v_diff"],
                   meta["model_v_sum"], meta["beta"]]
        assert sampled == scenario._round12([row.g, row.herald_p, row.v_diff, row.v_sum, row.beta])

    @pytest.mark.parametrize("preset", cli.PRESET_NAMES)
    @pytest.mark.parametrize("g", [3.0, 14.0, 30.0])
    def test_sampled_state_has_the_reported_variances(self, monkeypatch, preset, g):
        # the sampler draws from the dense path (heralded state, detector loss
        # channels); the metadata is the sweep's Heisenberg-picture moments and
        # moment-level detector efficiencies, kept to 12 digits
        states = []

        def capturing_sampler(state, count, seed):
            states.append(state)
            return np.zeros((count, 2))

        monkeypatch.setattr(scenario, "sample_quadratures", capturing_sampler)
        meta = run_sampling(self.preset_config(preset, g))["metadata"]
        cov = covariance_summary(states[0])
        assert (float(cov.v_diff), float(cov.v_sum)) == pytest.approx(
            (meta["model_v_diff"], meta["model_v_sum"]), rel=1e-11, abs=0.0
        )

    def test_herald_the_state_path_refuses_is_a_config_error(self, monkeypatch, capsys):
        # near HERALD_MIN_PROBABILITY the sweep's p and the state's own
        # normalisation may disagree on a gain; either refusal exits 2
        def refuse(config, g):
            raise HeraldingImpossibleError(1e-15)

        monkeypatch.setattr(scenario, "build_distilled_state", refuse)
        with pytest.raises(ConfigError, match="cannot sample at g=6.5: heralding probability"):
            run_sampling(self.sampling_config())
        assert main(["sample", "--preset", "losschannel", "--gain.g", "14"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: gain.g: cannot sample at g=14:")
        assert "heralding probability 1.000e-15 is vanishing" in err

    def test_lossy_source_is_built_once(self, monkeypatch):
        # the sampled state's one source DensityMatrix, densified from the
        # loss ensemble, then the two detector losses; no loss_channel
        # degrades the source
        calls = []
        source, loss = scenario.ensemble_state, scenario.loss_channel
        monkeypatch.setattr(
            scenario, "ensemble_state",
            lambda cfg, ensemble: calls.append(("source", cfg)) or source(cfg, ensemble),
        )
        monkeypatch.setattr(
            scenario, "loss_channel",
            lambda state, mode, tau: calls.append(("loss", mode, tau)) or loss(state, mode, tau),
        )
        config = self.preset_config("losschannel", 14.0)
        run_sampling(config)
        assert calls == [
            ("source", HilbertConfig(3)),
            ("loss", 0, float(np.sqrt(config.eta_a))),
            ("loss", 1, float(np.sqrt(config.eta_b))),
        ]

    def test_four_density_matrices_per_run(self, monkeypatch):
        # the source, the heralded state and the two detector losses
        built = count_states(monkeypatch)
        run_sampling(self.preset_config("losschannel", 14.0))
        assert len(built) == 4

    def test_sweep_gain_rejected(self):
        with pytest.raises(ConfigError):
            run_sampling(loss_scenario(sample_count=10))

    def test_analytic_model_rejected(self):
        data = {**self.sampling_config().to_dict(), "model": "ideal"}
        with pytest.raises(ConfigError):
            run_sampling(ScenarioConfig.from_dict(data))


# Floats where json's repr and the .12g rounding disagree on notation or
# digits: signed zero, integral values (repr appends ".0"), the exponents
# where repr (1e-05, 1e+16) and .12g (1e-05, 1e+12) switch to scientific
# notation, and the smallest subnormal and normal numbers.
EDGE_FLOATS = (
    0.0, -0.0, 1.0, -3.0, 1e-5, 9.99999999999e-6, 1.00000000001e-4, 1e12, 999999999999.0,
    1.5e12, 1e16, 9999999999999998.0, 1.2345678901234567e16, 5e-324, 2.2250738585072014e-308,
    -1.7976931348623157e308,
)
SAMPLE_FLOAT = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: float(f"{x:.12g}")),
    st.integers(-10**17, 10**17).map(float),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(SAMPLE_FLOAT, min_size=2, max_size=2), min_size=1, max_size=40),
       st.integers(1, 4))
def test_sample_report_text_matches_json_layout(samples, chunk):
    report = {
        "config": loss_scenario().to_dict(),
        "metadata": {"gain": 14.0, "shot_noise_radius": 0.707106781187},
        "samples": np.array(samples),
    }
    handle = io.StringIO()
    original = scenario._SAMPLE_CHUNK
    scenario._SAMPLE_CHUNK = chunk  # several chunks even for short arrays
    try:
        dump_json_report(report, handle)
    finally:
        scenario._SAMPLE_CHUNK = original
    rounded = [[float(f"{x:.12g}") for x in pair] for pair in samples]
    assert handle.getvalue() == json.dumps({**report, "samples": rounded}, indent=2) + "\n"


# Values whose "%.12g" text is not json's: no "." (0.0, -0.0, 3.0, and those
# that round to an integer) or .12g's exponent from 1e12 up; 5e-05 has an
# exponent in both.
FALLBACK_FLOATS = (0.0, -0.0, 3.0, 0.99999999999999, 2.0000000000001, 5e-05, 1e11, 1.5e12)


@pytest.mark.parametrize("values", [FALLBACK_FLOATS] + [
    (value,) for value in FALLBACK_FLOATS + (1234567890123.5, 5e-324, -1e-310)
])
def test_sample_report_falls_back_per_chunk(values):
    # at the default chunk, ordinary values in the first and third chunks and
    # the fallback ones among ordinary values in the second
    samples = np.random.default_rng(5).normal(size=(10_000, 2))
    second = 2 * scenario._SAMPLE_CHUNK + 15
    samples.flat[second : second + len(values)] = values
    report = {"config": loss_scenario().to_dict(), "samples": samples}
    handle = io.StringIO()
    dump_json_report(report, handle)
    rounded = [[float(f"{x:.12g}") for x in pair] for pair in samples.tolist()]
    assert handle.getvalue() == json.dumps({**report, "samples": rounded}, indent=2) + "\n"


class TestRunEquivalence:
    def test_synthetic_variances_recovered(self):
        from eprdistill import EquivalentState, equivalent_variances

        v_diff, v_sum = equivalent_variances(EquivalentState(0.25, 0.45, 0.4))
        report = run_equivalence(loss_scenario(), variances=(v_diff, v_sum))
        row = report["rows"][0]
        assert row["status"] == "ok"
        assert row["gamma_eq"] == pytest.approx(0.25, abs=1e-6)
        assert row["eta_b_eq"] == pytest.approx(0.4, abs=1e-6)

    def test_vacuum_variances_flagged_degenerate(self):
        report = run_equivalence(loss_scenario(), variances=(1.0, 1.0))
        assert report["rows"][0]["status"] == "degenerate"
        assert report["rows"][0]["gamma_eq"] is None

    def test_sweep_table_ratios_near_optimum(self):
        # the equivalent source near the optimal gain carries two to four
        # times the physical squeezing and roughly three times the channel
        # efficiency
        config = loss_scenario(gain={"g_min": 9.0, "g_max": 12.0, "steps": 4})
        report = run_equivalence(config)
        assert all(row["status"] == "ok" for row in report["rows"])
        for row in report["rows"]:
            assert 1.5 <= row["gamma_eq"] / 0.135 <= 4.0
            assert 2.0 <= row["eta_b_eq"] / 0.05 <= 5.0

    def test_json_report_round_trips(self, tmp_path):
        report = run_equivalence(loss_scenario(), variances=(0.9, 1.2))
        path = tmp_path / "equiv.json"
        write_json_report(report, path)
        loaded = json.loads(path.read_text())
        assert loaded == report


def dumped(report: dict) -> str:
    handle = io.StringIO()
    dump_json_report(report, handle)
    return handle.getvalue()


class TestEquivalenceReportText:
    """dump_json_report writes an equivalent-state report's rows without
    json's indenting encoder; the text must be json's, byte for byte."""

    @pytest.mark.parametrize("model", ["single_photon", "ideal"])
    def test_300_ok_rows(self, model):
        config = loss_scenario(model=model, gain={"g_min": 2.0, "g_max": 30.0, "steps": 300})
        report = run_equivalence(config)
        assert [row["status"] for row in report["rows"]] == ["ok"] * 300
        assert dumped(report) == json.dumps(report, indent=2) + "\n"

    @pytest.mark.parametrize("variances, status", [
        ((0.9, 1.2), "ok"), ((1.0, 1.0), "degenerate"), ((1.2, 1.1), "infeasible"),
        ((0.5, 1.1), "infeasible"), ((0.5, 1e308), "infeasible"),
    ])
    def test_given_variance_rows(self, variances, status):
        report = run_equivalence(loss_scenario(), variances=variances)
        (row,) = report["rows"]
        assert (row["g"], row["beta"], row["status"]) == (None, None, status)
        assert ("reason" in row) == (status != "ok")
        assert dumped(report) == json.dumps(report, indent=2) + "\n"

    # gamma 1.2e-7 without an ancilla photon: gains up to 1.75 cannot herald
    IMPOSSIBLE = {"gamma": 1.2e-7, "degrade": {"mode": "none"}, "eta_ancilla": 0.0}

    @pytest.mark.parametrize("gain, rows", [
        ({"g_min": 1.0, "g_max": 1.75, "steps": 4}, 0),
        ({"g_min": 1.0, "g_max": 3.0, "steps": 9}, 5),
    ], ids=["zero-rows", "rows-and-skipped"])
    def test_trailing_skipped_key(self, gain, rows):
        report = run_equivalence(loss_scenario(**self.IMPOSSIBLE, gain=gain))
        assert len(report["rows"]) == rows
        assert list(report)[-1] == "skipped"
        assert dumped(report) == json.dumps(report, indent=2) + "\n"

    def test_exponent_floats_and_escaped_strings(self):
        rows = [
            {"g": 1e308, "beta": 1e-300, "v_diff": 5e-324, "v_sum": -0.0, "status": "ok"},
            {"g": None, "beta": 1e16, "v_diff": 1e-05, "v_sum": 2.0, "status": "infeasible",
             "reason": 'need "x" }\n,\t{ \0 \u00e9 100%'},
            {"g": math.inf, "beta": -math.inf, "v_diff": math.nan, "v_sum": 3,
             "status": True, "%s": False},
        ]
        report = {"config": {"rows": []}, "eta_a_eq": 0.45, "rows": rows, "skipped": []}
        assert dumped(report) == json.dumps(report, indent=2) + "\n"

    @pytest.mark.parametrize("rows", [
        [], [{}], [{"a": 1.0}, {}], [{"a": [1.0, 2.0]}], [{"a": {"b": 1.0}}], [1.0, 2.0],
        "rows", None,
    ])
    def test_other_rows_fall_back_to_json(self, rows):
        report = {"eta_a_eq": 0.45, "rows": rows}
        assert dumped(report) == json.dumps(report, indent=2) + "\n"


JSON_SCALAR = st.one_of(
    st.floats(), st.sampled_from(EDGE_FLOATS), st.text(), st.none(), st.booleans(),
    st.integers(),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(st.one_of(st.text(), st.integers()), JSON_SCALAR, max_size=8),
                max_size=12))
def test_equivalence_rows_text_matches_json_layout(rows):
    report = {"config": {"gamma": 0.135}, "rows": rows, "skipped": [{"g": 1.0, "reason": "x"}]}
    assert dumped(report) == json.dumps(report, indent=2) + "\n"


def sample_into_closed_pipe(*extra: str) -> tuple[int, bytes]:
    """Exit code and stderr of a `sample` call whose stdout reader leaves
    after the first line.

    20000 pairs make about 1 MB of JSON, more than a pipe holds, so the
    report is still being written when the reader goes away.
    """
    code = "import sys; from eprdistill.cli import main; sys.exit(main(sys.argv[1:]))"
    args = ["sample", "--preset", "losschannel", "--gain.g", "14", "--sample-count", "20000"]
    with subprocess.Popen([sys.executable, "-c", code, *args, *extra],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as run:
        assert run.stdout.readline() == b"{\n"
        run.stdout.close()
        stderr = run.stderr.read()
        return run.wait(timeout=60), stderr


class TestCli:
    def test_closed_stdout_exits_1_without_traceback(self):
        code, stderr = sample_into_closed_pipe()
        assert code == 1
        assert b"Traceback" not in stderr
        assert b"BrokenPipeError" not in stderr

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_closed_stdout_as_output_path_exits_1(self):
        # a broken pipe is the reader's doing, not a config error (exit 2)
        code, stderr = sample_into_closed_pipe("--output", "/dev/stdout")
        assert code == 1
        assert stderr == b""

    def test_presets_listed(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("lowsqueeze", "losschannel", "figS2a", "figS2b"):
            assert name in out

    def test_bundled_presets_validate(self):
        # a ScenarioConfig checks itself when built, so rebuilding one from
        # its own fields must pass the same checks again
        for name in ("lowsqueeze", "losschannel", "figS2a", "figS2b"):
            config = ScenarioConfig.from_dict(load_preset(name))
            assert dataclasses.replace(config) == config

    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main([
            "sweep", "--preset", "losschannel",
            "--gain.g-min", "8", "--gain.g-max", "12", "--gain.steps", "3",
            "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_flag_overrides_reach_config(self, tmp_path, capsys):
        code = main([
            "sweep", "--preset", "lowsqueeze", "--gamma", "0.06",
            "--model", "single_photon", "--gain.g", "5.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].endswith("single_photon")

    def test_config_error_exit_code(self, capsys):
        code = main(["sweep", "--preset", "losschannel", "--gamma", "1.5"])
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document, field",
        [
            ({"gamma": "0.1"}, "gamma"),
            ({"n_max": 2.5}, "n_max"),
            ([1], "config"),
            ({"sample_count": True}, "sample_count"),
            ({"degrade": "loss"}, "degrade"),
            ({"gain": [2.0, 30.0]}, "gain"),
            ({"degrade": {"mode": "loss", "tau2": 0.05, "tua2": 1}}, "degrade"),
            ({"degrade": {"mode": "none", "tau2": 0.05}}, "degrade.tau2"),
            ({"gain": {"g": 5.0, "g_min": 2.0, "g_max": 9.0, "steps": 4}}, "gain.g_min"),
        ],
        ids=["string-gamma", "fractional-n_max", "top-level-list", "bool-sample_count",
             "string-degrade", "list-gain", "unknown-degrade-key", "tau2-without-loss",
             "g-with-sweep-fields"],
    )
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, document, field):
        if isinstance(document, dict):
            document = {**loss_scenario().to_dict(), **document}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        assert main(["sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}:")

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["sweep", "--preset", "losschannel", "--gain.steps", "1000000000000000"],
             "gain.steps"),
            (["sample", "--preset", "losschannel", "--gain.g", "14",
              "--sample-count", "1000000000000000"], "sample_count"),
        ],
        ids=["huge-gain-steps", "huge-sample-count"],
    )
    def test_oversized_request_exits_2(self, capsys, argv, field):
        # refused before an array of that size is allocated
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}:")

    def test_flag_ignored_by_the_chosen_form_exits_2(self, capsys):
        # lowsqueeze has no degradation, so --tau2 would otherwise be dropped
        argv = ["sweep", "--preset", "lowsqueeze", "--tau2", "0.1", "--gain.g", "5"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: degrade.tau2:")

    @pytest.mark.parametrize(
        "document, flags, message",
        [
            ({"gain": {"g": 5.0}}, ["--tau2", "0.1"], "degrade.tau2: not used with mode 'none'"),
            ({"gamma": 0.1}, ["--gain.steps", "4"],
             "gain: provide either g or both g_min and g_max"),
            ({"degrade": 5}, ["--tau2", "0.5"], "degrade: expected an object, got int"),
        ],
        ids=["tau2-without-degrade", "steps-without-gain", "tau2-into-a-number"],
    )
    def test_flag_into_an_absent_section_exits_2(self, tmp_path, capsys, document, flags,
                                                  message):
        # the flag edits the section's default, as if the document had it;
        # a section that is there but not an object is refused
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        assert main(["sweep", "--config", str(path), *flags]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError) as err:
            load_preset("nope")
        assert err.value.field == "preset"

    def test_flags_mirror_schema_leaves(self, capsys):
        commands = build_parser()._subparsers._group_actions[0].choices
        leaves = [path for path, _, _ in leaf_fields()]
        shared = None
        for name in ("sweep", "sample", "equiv"):
            actions = [a for a in commands[name]._actions
                       if not set(a.option_strings) & COMMAND_FLAGS]
            assert [s for a in actions for s in a.option_strings] == SCENARIO_FLAGS
            assert [a.dest for a in actions] == leaves
            # one parent parser declares each scenario flag for all three runners
            shared = shared or actions
            assert all(a is b for a, b in zip(actions, shared))
            with pytest.raises(SystemExit) as exit_:
                main([name, "--help"])
            assert exit_.value.code == 0
            listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                      if line.lstrip().startswith("--")]
            assert [flag for flag in listed if flag in SCENARIO_FLAGS] == SCENARIO_FLAGS
        # runtime classes, not the strings of postponed annotations
        assert {kind for _, kind, _ in leaf_fields()} == {float, str, int, bool}

    def test_schema_leaves_built_once(self):
        # the parser and the override loop share one immutable tuple
        assert isinstance(leaf_fields(), tuple)
        assert leaf_fields() is leaf_fields()

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text('{"gamma": 0.1,')
        assert main(["sweep", "--config", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["[" * 5000 + "]" * 5000, '{"gamma": ' + "[" * 5000 + "]" * 5000 + "}"],
        ids=["deep-array", "deep-gamma"],
    )
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, text):
        # json's decoder recurses per level and ends in a RecursionError
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert main(["sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config: invalid JSON: maximum recursion depth")

    @pytest.mark.parametrize(
        "text",
        [json.dumps({"gamma": "x" * 2_000_000}), '{"gamma": ' + "[" * 990 + "]" * 990 + "}",
         json.dumps({"x" * 2_000_000: 1.0})],
        ids=["long-string", "990-deep-list", "long-unknown-key"],
    )
    def test_large_values_are_cut_in_the_message(self, tmp_path, text):
        # run as the console script runs, from a shallow stack: under pytest's
        # deeper one the 990-deep list would already overflow the JSON decoder
        path = tmp_path / "scenario.json"
        path.write_text(text)
        code = "import sys; from eprdistill.cli import main; sys.exit(main(sys.argv[1:]))"
        run = subprocess.run([sys.executable, "-c", code, "sweep", "--config", str(path)],
                             capture_output=True)
        assert run.returncode == 2
        assert run.stderr.startswith((b"config error: gamma: expected a finite number, got ",
                                      b"config error: config: unknown keys ['xxx"))
        assert run.stderr.endswith(b"...\n")
        assert len(run.stderr) < 200

    @pytest.mark.parametrize("value", ["0.1", "x" * 58], ids=["short", "repr-of-60"])
    def test_short_values_are_echoed_whole(self, tmp_path, capsys, value):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"gamma": value}))
        assert main(["sweep", "--config", str(path)]) == 2
        expected = f"config error: gamma: expected a finite number, got str {value!r}\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize(
        "model_args", [["--model", "single_photon"], ["--n-max", "1"]],
        ids=["single_photon", "full_numeric-n1"],
    )
    def test_uncorrelated_rows_write_infinite_a_star(self, capsys, model_args):
        # without an ancilla photon nothing correlates the modes at these
        # settings, so I(a) only approaches its infimum n_B as a -> inf
        argv = ["sweep", "--preset", "losschannel", "--eta-ancilla", "0", "--gain.g", "2"]
        assert main([*argv, *model_args]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[4:6] == ["1", "inf"]

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith("config error: config: cannot read")

    @pytest.mark.parametrize("command", ["sweep", "sample", "equiv"])
    def test_zero_gamma_exits_2(self, capsys, command):
        # gamma = 0 has no gain-to-beta map; refused before any runner starts
        argv = [command, "--preset", "losschannel", "--gamma", "0", "--gain.g", "3"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: gamma:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["equiv", "--gamma", "1e-320", "--gain.g", "2"],
            ["sample", "--gamma", "1e-320", "--gain.g", "2"],
            ["equiv", "--gamma", "1e-320", "--gain.g", "2", "--model", "single_photon"],
            ["sweep", "--gamma", "1e-320", "--gain.g", "2", "--model", "single_photon"],
            ["sweep", "--gamma", "1e-160", "--gain.g", "2", "--model", "single_photon"],
            ["sweep", "--gamma", "5e-324", "--gain.g-min", "2", "--gain.g-max", "3"],
        ],
        ids=["equiv-beta-inf", "sample-beta-inf", "equiv-sp-beta-inf", "sweep-sp-beta-inf",
             "sweep-sp-beta-squared-inf", "sweep-g-gamma-tau-zero"],
    )
    def test_beta_overflow_exits_2(self, tmp_path, capsys, argv):
        # beta = 1/(g gamma tau), or the single-photon model's beta^2, would
        # reach the output as Infinity or NaN; the last product underflows to 0
        path = tmp_path / "out"
        argv = [argv[0], "--preset", "losschannel", *argv[1:], "--output", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: gamma: beta^2 overflows")
        assert not path.exists()

    def test_largest_accepted_beta_gives_finite_rows(self, capsys):
        argv = ["sweep", "--preset", "losschannel", "--gamma", "2.5e-154", "--gain.g", "2",
                "--model", "single_photon"]
        assert main(argv) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert all(math.isfinite(float(value)) for value in row[:-1])

    @pytest.mark.parametrize(
        "variances",
        [("--v-diff=nan", "--v-sum=1.2"), ("--v-diff=inf", "--v-sum=1.2"),
         ("--v-diff=-inf", "--v-sum=1.2"), ("--v-diff=0.9", "--v-sum=nan")],
        ids=["nan-v_diff", "inf-v_diff", "minus-inf-v_diff", "nan-v_sum"],
    )
    def test_non_finite_variances_exit_2(self, capsys, variances):
        # a NaN or infinity would reach the report as a token JSON does not allow
        assert main(["equiv", "--preset", "losschannel", *variances]) == 2
        assert capsys.readouterr().err.startswith("config error: variances:")

    def test_one_variance_alone_exits_2(self, capsys):
        assert main(["equiv", "--preset", "losschannel", "--v-diff", "1.0"]) == 2
        assert capsys.readouterr().err == (
            "config error: variances: --v-diff and --v-sum must be given together\n"
        )

    def test_strict_equiv_exit_code(self, capsys):
        code = main([
            "equiv", "--preset", "losschannel",
            "--v-diff", "1.2", "--v-sum", "1.1", "--strict",
        ])
        assert code == 3

    # gamma 1e-9 with no ancilla photon heralds with probability 9.989e-19 at g = 30
    IMPOSSIBLE = ["--preset", "lowsqueeze", "--gamma", "1e-9", "--eta-ancilla", "0",
                  "--gain.g", "30"]

    def test_sample_with_impossible_herald_exits_2(self, capsys):
        assert main(["sample", *self.IMPOSSIBLE, "--sample-count", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: gain.g: cannot sample at g=30:")
        assert "heralding probability 9.989e-19 is vanishing" in err

    def test_equiv_reports_skipped_gains(self, capsys):
        assert main(["equiv", *self.IMPOSSIBLE]) == 0
        captured = capsys.readouterr()
        reason = "heralding probability 9.989e-19 is vanishing"
        assert captured.err == f"warning: skipped g=30: {reason}\n"
        report = json.loads(captured.out)
        assert report["rows"] == []
        assert report["skipped"] == [{"g": 30.0, "reason": reason}]

    @pytest.mark.parametrize("command", ["sweep", "sample", "equiv"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command, target):
        path = tmp_path / "absent" / "out" if target == "missing-dir" else tmp_path
        argv = [command, "--preset", "losschannel", "--gain.g", "5", "--output", str(path)]
        if command == "sample":
            argv += ["--sample-count", "5"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: output: cannot write {path}: ")

    RUNNERS = [("sweep", "run_scenario"), ("sample", "run_sampling"), ("equiv", "run_equivalence")]

    @pytest.mark.parametrize("command, runner", RUNNERS)
    def test_output_checked_before_the_run(self, tmp_path, capsys, monkeypatch, command, runner):
        def never(*args):
            raise AssertionError(f"{runner} ran before --output was checked")

        monkeypatch.setattr(cli, runner, never)
        argv = [command, "--preset", "losschannel", "--gain.g", "5", "--output", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"config error: output: cannot write {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("command, runner", RUNNERS)
    def test_failed_run_leaves_no_output_file(self, tmp_path, monkeypatch, command, runner):
        def fail(*args):
            raise ConfigError("gain", "no run")

        monkeypatch.setattr(cli, runner, fail)
        fresh, kept = tmp_path / "fresh", tmp_path / "kept"
        kept.write_text("earlier output")
        for path in (fresh, kept):
            argv = [command, "--preset", "losschannel", "--gain.g", "5", "--output", str(path)]
            assert main(argv) == 2
        assert not fresh.exists()
        assert kept.read_text() == "earlier output"

    @pytest.mark.parametrize("argv", [
        ["sample", "--preset", "losschannel", "--gain.g", "14", "--sample-count", "5000"],
        ["equiv", "--preset", "losschannel"],
    ])
    def test_stdout_bytes_equal_output_file(self, tmp_path, capsys, argv):
        path = tmp_path / "report.json"
        assert main([*argv, "--output", str(path)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == path.read_bytes()

    def test_sample_subcommand(self, tmp_path):
        out = tmp_path / "samples.json"
        code = main([
            "sample", "--preset", "lowsqueeze", "--gain.g", "6.5",
            "--sample-count", "5", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["samples"]) == 5

    def test_config_file_input(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(loss_scenario(gain={"g": 10.0}).to_dict()))
        assert main(["sweep", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
