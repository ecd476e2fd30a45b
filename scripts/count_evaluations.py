#!/usr/bin/env python3
"""Count evaluations and records built over the bench's chirp scans and figures.

    python scripts/count_evaluations.py [SEED ...]

An evaluation is a call of keyrate.broadened_sigma, which every evaluation
makes exactly once: through evaluate_point, a search's steps, or the source
point a parameter record computes when it is built. A parameter record
built is a call of ScenarioParams.__post_init__ (the constructor and
dataclasses.replace) or of ScenarioParams._at_chirp (a copy with another
chirp). For each seed (1 to 4 by default) this scans every input of one
bench chirp_scan pass (bench/workloads.py, ChirpScan(seed).inputs, built
before counting starts) on its grid; then it runs run_scenario over the six
figures with defaults, counting the records each figure builds. Prints one
line per seed and per figure, the evaluations, then the records, then the
label, and a total for each group. It only reads bench/.
"""

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from dispersive_qkd import analysis, keyrate
from dispersive_qkd.keyrate import ScenarioParams

BENCH = Path(__file__).resolve().parent.parent / "bench"


@contextmanager
def counted():
    """Yield a two-item list that counts, while the block runs, calls of
    keyrate.broadened_sigma (evaluations) and of ScenarioParams.__post_init__
    and ScenarioParams._at_chirp (records built); the real functions are
    restored on exit."""
    counts = [0, 0]
    targets = [
        (keyrate, "broadened_sigma", 0),
        (ScenarioParams, "__post_init__", 1),
        (ScenarioParams, "_at_chirp", 1),
    ]
    reals = [getattr(owner, name) for owner, name, _ in targets]

    def wrap(real, i):
        def wrapper(*args):
            counts[i] += 1
            return real(*args)

        return wrapper

    for (owner, name, i), real in zip(targets, reals):
        setattr(owner, name, wrap(real, i))
    try:
        yield counts
    finally:
        for (owner, name, _), real in zip(targets, reals):
            setattr(owner, name, real)


def show(counts: list[int], label: str) -> None:
    print(f"{counts[0]:8d} {counts[1]:8d}  {label}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 2, 3, 4])
    args = parser.parse_args()
    sys.path.insert(0, str(BENCH))  # bench/ imports its modules by bare name
    import workloads

    total = [0, 0]
    for seed in args.seeds:
        scans = workloads.ChirpScan(seed)
        with counted() as counts:
            for params in scans.inputs:
                analysis.scan_chirp(params, scans.grid)
        total = [t + n for t, n in zip(total, counts)]
        show(counts, f"chirp_scan seed {seed}")
    show(total, "chirp_scan total")
    total = [0, 0]
    for name in analysis.SCENARIOS:
        with counted() as counts:
            analysis.run_scenario(name)
        total = [t + n for t, n in zip(total, counts)]
        show(counts, name)
    show(total, "figures total")


if __name__ == "__main__":
    main()
