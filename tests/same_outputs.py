"""Compare the CLI output of this tree with another checkout, byte for byte.

    python tests/same_outputs.py OTHER_TREE

Runs `python -m eprdistill.cli` with PYTHONPATH=<tree>/src for this tree and
for OTHER_TREE on the same 76 calls, 19 per bundled preset: `sweep` at
`--n-max` 1-6, `equiv` at `--n-max` 3 and 6, `sample` at `--gain.g` 3, 14
and 30 and at `--gain.g` 14 with `--n-max` 6 (20000 samples, seed 7),
`sweep` and a 300-gain `equiv` of the `single_photon` and of the `ideal`
model, and `equiv` of the given variance pairs (0.9, 1.2), (1, 1) and
(0.5, 1e308), which solve to an `ok`, a `degenerate` and an infeasible row.
Compares stdout, stderr and exit code, prints each call that differs and
exits 1 if any does.  Both trees run from the same empty working directory,
so neither imports the other's package.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

THIS_TREE = Path(__file__).resolve().parent.parent
PRESETS = ("lowsqueeze", "losschannel", "figS2a", "figS2b")


def calls() -> list[list[str]]:
    out = []
    for preset in PRESETS:
        scenario = ["--preset", preset]
        out += [["sweep", *scenario, "--n-max", str(n_max)] for n_max in range(1, 7)]
        out += [["equiv", *scenario, "--n-max", str(n_max)] for n_max in (3, 6)]
        out += [
            ["sample", *scenario, "--gain.g", str(g), "--sample-count", "20000", "--seed", "7"]
            for g in (3, 14, 30)
        ]
        out.append(["sample", *scenario, "--n-max", "6", "--gain.g", "14",
                    "--sample-count", "20000", "--seed", "7"])
        for model in ("single_photon", "ideal"):
            out.append(["sweep", *scenario, "--model", model])
            out.append(["equiv", *scenario, "--model", model, "--gain.steps", "300"])
        out += [
            ["equiv", *scenario, "--v-diff", v_diff, "--v-sum", v_sum]
            for v_diff, v_sum in (("0.9", "1.2"), ("1", "1"), ("0.5", "1e308"))
        ]
    return out


def run(tree: Path, args: list[str], cwd: str) -> tuple[bytes, bytes, int]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "eprdistill.cli", *args], env=env, cwd=cwd, capture_output=True
    )
    return done.stdout, done.stderr, done.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    if not (other / "src" / "eprdistill").is_dir():
        print(f"no src/eprdistill under {other}", file=sys.stderr)
        return 2
    todo, mismatches = calls(), 0
    with tempfile.TemporaryDirectory() as cwd:
        for args in todo:
            ours, theirs = run(THIS_TREE, args, cwd), run(other, args, cwd)
            differing = [
                part for part, a, b in zip(("stdout", "stderr", "exit code"), ours, theirs)
                if a != b
            ]
            if differing:
                mismatches += 1
                print(f"differ in {', '.join(differing)}: {' '.join(args)}")
    print(f"{mismatches} of {len(todo)} calls differ from {other}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
