"""The CLI calls each workload makes, drawn from the run's seed.

Every workload runs the bundled `losschannel` preset (one-sided loss of
intensity 0.05, the paper's loss factor of 20).  A run repeats whole rounds
of calls; the seed fixes the inputs of every round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PRESET = ("--preset", "losschannel")
GAIN_RANGE = (2.0, 30.0)
SWEEP_N_MAX = 6
SWEEP_STEPS = 8
SAMPLE_GAIN = 14.0
SAMPLE_COUNT = 200_000
EQUIV_STEPS = 300


@dataclass(frozen=True)
class Call:
    """One CLI invocation (without --output) and the inputs its checks need."""

    argv: tuple[str, ...]
    suffix: str
    gains: tuple[float, float, int] | None = None  # g_min, g_max, steps
    seed: int | None = None


def _gain_range(rng: random.Random, jitter: float) -> tuple[float, float]:
    """Endpoints within `jitter` of the preset's range, so every grid spans it."""
    lo, hi = GAIN_RANGE
    return lo + jitter * rng.random(), hi - jitter * rng.random()


def _grid_args(g_min: float, g_max: float, steps: int) -> tuple[str, ...]:
    return ("--gain.g-min", repr(g_min), "--gain.g-max", repr(g_max), "--gain.steps", str(steps))


def _sweep_n6(rng: random.Random, size: int) -> list[Call]:
    # Grid spacing stays below 4, so every call has rows inside the gain
    # window (about 5 to 18) where the Duan value beats the transmission bound.
    calls = []
    for _ in range(size):
        g_min, g_max = _gain_range(rng, 1.5)
        argv = ("sweep", *PRESET, "--n-max", str(SWEEP_N_MAX),
                *_grid_args(g_min, g_max, SWEEP_STEPS))
        calls.append(Call(argv, ".csv", gains=(g_min, g_max, SWEEP_STEPS)))
    return calls


def _sample_n3(rng: random.Random, size: int) -> list[Call]:
    # Calls go in pairs with one seed: the second must write the same bytes.
    calls = []
    for _ in range(size // 2):
        seed = rng.randrange(2**31)
        argv = ("sample", *PRESET, "--gain.g", repr(SAMPLE_GAIN),
                "--sample-count", str(SAMPLE_COUNT), "--seed", str(seed))
        calls += [Call(argv, ".json", seed=seed)] * 2
    return calls


def _equiv_sp(rng: random.Random, size: int) -> list[Call]:
    calls = []
    for _ in range(size):
        g_min, g_max = _gain_range(rng, 1.0)
        argv = ("equiv", *PRESET, "--model", "single_photon",
                *_grid_args(g_min, g_max, EQUIV_STEPS))
        calls.append(Call(argv, ".json", gains=(g_min, g_max, EQUIV_STEPS)))
    return calls


# Each call runs in a fresh process.  equiv-sp needs more processes per
# round: its call time is bimodal between processes (see README.md), so its
# mean settles only over many of them.
ROUNDS = {"sweep-n6": (_sweep_n6, 12), "sample-n3": (_sample_n3, 12),
          "equiv-sp": (_equiv_sp, 36)}


def plan(workload: str, seed: int):
    """Endless rounds of calls; the same seed, the same calls."""
    make_round, size = ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make_round(rng, size)
