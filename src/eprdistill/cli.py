"""Command-line interface: sweep, sample, equiv, presets.

Scenarios live in JSON files (or bundled presets); every field can be
overridden by a flag generated from the ScenarioConfig schema.  A flag is
--<field path> with "-" for "_" (--gamma, --eta-ancilla, --gain.g-min),
except the three degradation flags --degrade (degrade.mode), --theta
(degrade.theta_deg) and --tau2 (degrade.tau2).  --degrade and --gain.g start
their section afresh; --gain.g-min and --gain.g-max drop a single gain g.
sweep, sample and equiv share one parser for the scenario: --config or
--preset, the field flags and --output, the report path (default: stdout).
Exit codes: 0 success, 1 stdout closed before the report was written,
2 configuration error, 3 infeasible equivalent-state solve under --strict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from .scenario import (
    ConfigError,
    ScenarioConfig,
    dump_json_report,
    leaf_fields,
    run_equivalence,
    run_sampling,
    run_scenario,
    write_json_report,
)

PRESET_NAMES = ("lowsqueeze", "losschannel", "figS2a", "figS2b")

# The flags not spelled --<field path> with "-" for "_".
FLAG_NAMES = {
    "degrade.mode": "--degrade", "degrade.theta_deg": "--theta", "degrade.tau2": "--tau2",
}


def load_preset(name: str) -> dict:
    if name not in PRESET_NAMES:
        raise ConfigError("preset", f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    ref = resources.files("eprdistill").joinpath(f"presets/{name}.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def _scenario_parser() -> argparse.ArgumentParser:
    """The parent parser of sweep, sample and equiv: each scenario flag once."""
    parser = argparse.ArgumentParser(add_help=False)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a scenario JSON file")
    source.add_argument("--preset", choices=PRESET_NAMES, help="bundled scenario")
    for path, kind, fld in leaf_fields():
        if kind is bool:
            kwargs = {"choices": ("true", "false")}
        elif kind is str:
            kwargs = {"choices": fld.metadata["choices"]}
        else:
            kwargs = {"type": kind}
        flag = FLAG_NAMES.get(path, "--" + path.replace("_", "-"))
        parser.add_argument(flag, dest=path, help=f"sets {path}", **kwargs)
    parser.add_argument("--output", help="report path (default: stdout)")
    return parser


# What a flag edits when the document has no such section: the schema's
# default degradation, and a gain with no fields set.
ABSENT_SECTIONS = {"degrade": {"mode": "none"}, "gain": {}}


def _section(data: dict, key: str) -> dict:
    value = data.get(key, ABSENT_SECTIONS[key])
    if not isinstance(value, dict):
        raise ConfigError(key, f"expected an object, got {type(value).__name__}")
    return dict(value)


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc.strerror}") from exc
        # JSONDecodeError, UnicodeDecodeError, and nesting deeper than the stack
        except (ValueError, RecursionError) as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config", f"expected an object, got {type(data).__name__}")
    else:
        data = load_preset(args.preset)

    # In field order, so a section's form selector (degrade.mode, gain.g)
    # starts that section afresh before its other flags apply, and a sweep
    # endpoint replaces a single gain g.
    for path, kind, _ in leaf_fields():
        value = getattr(args, path)
        if value is None:
            continue
        section, _, key = path.rpartition(".")
        target = data
        if section:
            target = data[section] = _section(data, section)
            if path in ("degrade.mode", "gain.g"):
                target.clear()
            elif path in ("gain.g_min", "gain.g_max"):
                target.pop("g", None)
        target[key] = value == "true" if kind is bool else value
    return ScenarioConfig.from_dict(data)


def _write_output(write, path) -> None:
    try:
        write(path)
    except BrokenPipeError:
        raise  # the reader went away: main exits 1, as for stdout
    except OSError as exc:
        raise ConfigError("output", f"cannot write {path}: {exc.strerror}") from exc


def _check_output(path) -> None:
    """Fail on an unwritable --output before the run rather than after it."""
    existed = os.path.exists(path)
    _write_output(lambda p: open(p, "ab").close(), path)
    if not existed:
        os.remove(path)


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _scenario_from_args(args)
    result = run_scenario(config)
    for g, reason in result.skipped:
        print(f"warning: skipped g={g:g}: {reason}", file=sys.stderr)
    if args.output:
        _write_output(result.write_csv, args.output)
    else:
        sys.stdout.write(result.to_csv_text())
    return 0


def _write_report(report: dict, output) -> None:
    """Write a JSON report to `output`, or to stdout when no path is given."""
    if output:
        _write_output(lambda path: write_json_report(report, path), output)
    else:
        dump_json_report(report, sys.stdout)


def _cmd_sample(args: argparse.Namespace) -> int:
    config = _scenario_from_args(args)
    report = run_sampling(config)
    _write_report(report, args.output)
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    config = _scenario_from_args(args)
    variances = None
    if (args.v_diff is None) != (args.v_sum is None):
        raise ConfigError("variances", "--v-diff and --v-sum must be given together")
    if args.v_diff is not None:
        variances = (args.v_diff, args.v_sum)
    report = run_equivalence(config, variances)
    for entry in report.get("skipped", ()):
        print(f"warning: skipped g={entry['g']:g}: {entry['reason']}", file=sys.stderr)
    _write_report(report, args.output)
    if args.strict and any(row["status"] == "infeasible" for row in report["rows"]):
        print("error: infeasible equivalent-state solve (--strict)", file=sys.stderr)
        return 3
    return 0


def _cmd_presets(_args: argparse.Namespace) -> int:
    for name in PRESET_NAMES:
        data = load_preset(name)
        print(f"{name}: {json.dumps(data)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprdistill",
        description="Fock-basis simulator for heralded distillation of "
        "two-mode squeezed light by noiseless amplification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = [_scenario_parser()]

    sweep = sub.add_parser("sweep", parents=shared, help="gain sweep -> CSV table")
    sweep.set_defaults(func=_cmd_sweep)

    sample = sub.add_parser("sample", parents=shared, help="quadrature samples -> JSON report")
    sample.set_defaults(func=_cmd_sample)

    equiv = sub.add_parser("equiv", parents=shared, help="equivalent-state table -> JSON report")
    equiv.add_argument("--v-diff", type=float, help="externally measured v_diff")
    equiv.add_argument("--v-sum", type=float, help="externally measured v_sum")
    equiv.add_argument("--strict", action="store_true", help="exit 3 if any row is infeasible")
    equiv.set_defaults(func=_cmd_equiv)

    presets = sub.add_parser("presets", help="list bundled scenario presets")
    presets.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "output", None):
            _check_output(args.output)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (`... | head -1`): send what is still
        # buffered to devnull, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
