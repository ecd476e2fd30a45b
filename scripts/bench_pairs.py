#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and compare them.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD SEED

Runs the benchmark command of BENCHMARK.json (`python3 bench/run.py`) with
`--workload WORKLOAD --seed SEED --seconds 8 --trace 0` in each checkout,
10 pairs, the parent first in the first pair and the side that goes first
swapped in each pair after it, so that a slow spell of the host does not
always fall on one side. Before the first pair it writes fresh bytecode
for each checkout's src/ and bench/ with the benchmark's interpreter, so
that no run compiles a module whose cached bytecode is missing or stale
(as in a copied tree, and where PYTHONDONTWRITEBYTECODE keeps every run
from caching it). Prints each run's end-to-end metrics as it ends,
then, for each end-to-end metric of BENCHMARK.json, the parent's median and
quartiles, the change's median, and in how many pairs the change read
better by the metric's `better`; ties count for neither side. Exits 1 if
any run is not correct or reports a failed item.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SECONDS = 8


def compile_sources(python: str, checkout: Path) -> None:
    """Rewrite the bytecode of checkout's src/ and bench/ with `python -m
    compileall`, which writes even under PYTHONDONTWRITEBYTECODE."""
    args = [python, "-m", "compileall", "-q", "-f", "src", "bench"]
    subprocess.run(args, cwd=checkout, check=True, stdout=subprocess.DEVNULL)


def run_bench(command: list[str], checkout: Path, workload: str, seed: int) -> dict:
    """The result record (the last stdout line) of one untraced benchmark
    run in checkout; a run that exits non-zero reads as not correct."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(command + args, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "failed": None, "metrics": {}}
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> tuple[str, bool]:
    """(table, ok) for the runs of each side, paired by index: one row per
    end-to-end metric of BENCHMARK.json; ok is False where any run is not
    correct or reports a failed item."""
    runs = parent + change
    bad = sum(1 for r in runs if not (r["correct"] and r["failed"] == 0))
    lines = [f"{len(parent)} pairs; runs not correct or with failed items: {bad} of {len(runs)}"]
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        if not all(name in r["metrics"] for r in runs):
            lines.append(f"{name}: missing from a run")
            continue
        old = [r["metrics"][name]["value"] for r in parent]
        new = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(1 for a, b in zip(old, new) if sign * (b - a) > 0.0)
        q1, _, q3 = statistics.quantiles(old, n=4)
        lines.append(
            f"{name}: parent {statistics.median(old):.6g} [{q1:.6g}, {q3:.6g}], "
            f"change {statistics.median(new):.6g} {unit}; change better in {wins} of {len(old)} pairs"
        )
    return "\n".join(lines), bad == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": (args.parent, []), "change": (args.change, [])}
    for checkout, _ in sides.values():
        compile_sources(spec["command"][0], checkout)
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            checkout, results = sides[side]
            result = run_bench(spec["command"], checkout, args.workload, args.seed)
            results.append(result)
            values = " ".join(f"{k} {m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"pair {pair + 1} {side}: correct {result['correct']}, failed {result['failed']}, {values}")
    table, ok = summarize(spec["end_to_end"], sides["parent"][1], sides["change"][1])
    print(table)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
