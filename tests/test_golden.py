"""Golden outputs: today's numbers, pinned against fixed reference files.

The files under tests/golden/ hold full-precision (repr) sweep rows for
every bundled preset at n_max = 3, the losschannel grid at n_max = 6, one
small sampling report and two `equiv` reports as the CLI writes them.  Sweep
rows must agree to 1e-12 relative; the reports, whose floats carry 12
significant digits, must match exactly.  Regenerate only for a deliberate change of behaviour:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from eprdistill import ScenarioConfig, run_sampling, run_scenario
from eprdistill.cli import PRESET_NAMES, load_preset, main
from eprdistill.scenario import dump_json_report

GOLDEN = Path(__file__).resolve().parent / "golden"
ROW_FIELDS = ("g", "beta", "v_diff", "v_sum", "duan_i", "duan_a_star", "herald_p")
RTOL = 1e-12

# (file stem, preset, n_max) of every pinned sweep
SWEEPS = [(f"sweep_{name}_n3", name, 3) for name in PRESET_NAMES]
SWEEPS.append(("sweep_losschannel_n6", "losschannel", 6))

# (file stem, CLI arguments) of every pinned equiv report
EQUIVS = [
    ("equiv_losschannel", ("--preset", "losschannel")),
    ("equiv_losschannel_sp40",
     ("--preset", "losschannel", "--model", "single_photon", "--gain.steps", "40")),
]


def sweep_record(preset: str, n_max: int) -> dict:
    config = ScenarioConfig.from_dict({**load_preset(preset), "n_max": n_max})
    result = run_scenario(config)
    return {
        "preset": preset,
        "n_max": n_max,
        "fields": list(ROW_FIELDS),
        "rows": [[getattr(row, f) for f in ROW_FIELDS] for row in result.rows],
        "models": sorted({row.model for row in result.rows}),
        "skipped": [g for g, _ in result.skipped],
    }


def sampling_config() -> ScenarioConfig:
    data = {**load_preset("losschannel"), "gain": {"g": 14.0}, "sample_count": 300}
    return ScenarioConfig.from_dict(data)


def sampling_report() -> dict:
    # through the report writer, as the CLI writes it: the writer rounds the
    # samples to 12 significant digits
    handle = io.StringIO()
    dump_json_report(run_sampling(sampling_config()), handle)
    return json.loads(handle.getvalue())


def equiv_report(args) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "equiv.json"
        assert main(["equiv", *args, "--output", str(path)]) == 0
        return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("stem, preset, n_max", SWEEPS)
def test_sweep_rows_match_golden(stem, preset, n_max):
    golden = json.loads((GOLDEN / f"{stem}.json").read_text(encoding="utf-8"))
    fresh = sweep_record(preset, n_max)
    assert fresh["fields"] == golden["fields"]
    assert fresh["models"] == golden["models"]
    assert fresh["skipped"] == golden["skipped"]
    assert len(fresh["rows"]) == len(golden["rows"])
    np.testing.assert_allclose(
        np.array(fresh["rows"]), np.array(golden["rows"]), rtol=RTOL, atol=0.0
    )


def test_sampling_report_matches_golden():
    golden = json.loads((GOLDEN / "sample_losschannel_g14.json").read_text(encoding="utf-8"))
    assert sampling_report() == golden


def test_cli_sample_report_matches_golden(tmp_path):
    path = tmp_path / "sample.json"
    argv = ["sample", "--preset", "losschannel", "--gain.g", "14", "--sample-count", "300"]
    assert main([*argv, "--output", str(path)]) == 0
    golden = json.loads((GOLDEN / "sample_losschannel_g14.json").read_text(encoding="utf-8"))
    assert json.loads(path.read_text(encoding="utf-8")) == golden


@pytest.mark.parametrize("stem, args", EQUIVS)
def test_equiv_report_matches_golden(stem, args):
    golden = json.loads((GOLDEN / f"{stem}.json").read_text(encoding="utf-8"))
    assert equiv_report(args) == golden


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, preset, n_max in SWEEPS:
        text = json.dumps(sweep_record(preset, n_max), indent=1)
        (GOLDEN / f"{stem}.json").write_text(text + "\n", encoding="utf-8")
    text = json.dumps(sampling_report(), indent=1)
    (GOLDEN / "sample_losschannel_g14.json").write_text(text + "\n", encoding="utf-8")
    for stem, args in EQUIVS:
        text = json.dumps(equiv_report(args), indent=1)
        (GOLDEN / f"{stem}.json").write_text(text + "\n", encoding="utf-8")
