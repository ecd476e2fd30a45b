#!/usr/bin/env python3
"""Count pipeline evaluations over the bench's chirp scans and the six figures.

    python scripts/count_evaluations.py [SEED ...]

An evaluation is a call of keyrate.broadened_sigma, which every evaluation
makes exactly once: through evaluate_point, a search's steps, or the source
point a parameter record computes when it is built. For each seed (1 to 4
by default) this scans every input of one bench chirp_scan pass
(bench/workloads.py, ChirpScan(seed).inputs, built before counting starts)
on its grid; then it runs run_scenario over the six figures with defaults,
counting the records each figure builds. Prints one line per seed and per
figure, each count first, and a total for each group. It only reads bench/.
"""

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from dispersive_qkd import analysis, keyrate

BENCH = Path(__file__).resolve().parent.parent / "bench"


@contextmanager
def counted():
    """Yield a one-item list that counts keyrate.broadened_sigma calls while
    the block runs; the real function is restored on exit."""
    calls = [0]
    real = keyrate.broadened_sigma

    def wrapper(*args):
        calls[0] += 1
        return real(*args)

    keyrate.broadened_sigma = wrapper
    try:
        yield calls
    finally:
        keyrate.broadened_sigma = real


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 2, 3, 4])
    args = parser.parse_args()
    sys.path.insert(0, str(BENCH))  # bench/ imports its modules by bare name
    import workloads

    total = 0
    for seed in args.seeds:
        scans = workloads.ChirpScan(seed)
        with counted() as calls:
            for params in scans.inputs:
                analysis.scan_chirp(params, scans.grid)
        total += calls[0]
        print(f"{calls[0]:8d}  chirp_scan seed {seed}")
    print(f"{total:8d}  chirp_scan total")
    total = 0
    for name in analysis.SCENARIOS:
        with counted() as calls:
            analysis.run_scenario(name)
        total += calls[0]
        print(f"{calls[0]:8d}  {name}")
    print(f"{total:8d}  figures total")


if __name__ == "__main__":
    main()
