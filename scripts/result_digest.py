#!/usr/bin/env python3
"""Print one sha256 per bench workload over every result it computes.

    python scripts/result_digest.py

Builds the bench's own inputs (bench/workloads.py): chirp_scan at seeds 1
to 4, point_sweep at seeds 1 and 3, and reproduce_all writing its figures
to a temporary directory. Each input is run and fingerprinted by its
workload's own run() and fingerprint(), the bytes the bench compares
between passes. Prints one line per workload, the digest of its
fingerprints in input order first. Run it in two checkouts to tell whether
a change moved any result. It only reads bench/.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDS = {"chirp_scan": (1, 2, 3, 4), "point_sweep": (1, 3)}


def digest(workloads: list) -> str:
    """sha256 over the fingerprint of every input of each workload, in order."""
    total = hashlib.sha256()
    for workload in workloads:
        for item in workload.inputs:
            workload.prepare(item)
            fingerprint = workload.fingerprint(item, workload.run(item))
            total.update(hashlib.sha256(fingerprint).digest())
    return total.hexdigest()


def main() -> None:
    sys.path.insert(0, str(BENCH))  # bench/ imports its modules by bare name
    import workloads

    for name, seeds in SEEDS.items():
        print(f"{digest([workloads.WORKLOADS[name](seed) for seed in seeds])}  {name}")
    with tempfile.TemporaryDirectory() as outdir:
        print(f"{digest([workloads.ReproduceAll(Path(outdir))])}  reproduce_all")


if __name__ == "__main__":
    main()
