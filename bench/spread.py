#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 bench/spread.py [--runs 10] [--workload NAME ...] [--baseline]

Runs bench/run.py untraced once per seed 1..runs for each workload, as
BENCHMARK.json's command does, and prints for each end-to-end metric the
median and the spread (Q3 - Q1) / median, with the quartiles from
statistics.quantiles(values, n=4). A spread above a third of the metric's
bound is marked. --baseline also makes one traced run per workload (seed 1)
and writes all medians and per-layer values to bench/baseline.json, with a
hash of the measured package source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    steady = True
    baseline: dict = {"workloads": {}}
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        results = [run(workload, seed, 0) for seed in range(1, args.runs + 1)]
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {args.runs} runs, {failed} failed items", flush=True)
        entry = {"end_to_end": {}, "failed": failed}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = summarize(values)
            mark = ""
            if s["spread"] > bound / 3:
                mark = "  > bound/3"
                steady = False
            print(f"  {name:<14} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {bound}){mark}", flush=True)
            entry["end_to_end"][name] = dict(s, values=values)
        if args.baseline:
            traced = run(workload, 1, 1)
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        baseline["workloads"][workload] = entry
    if args.baseline:
        sources = sorted((ROOT / "src").rglob("*.py"))
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
        baseline["src_sha256"] = digest
        baseline["run_seconds"] = SPEC["run_seconds"]
        baseline["machine"] = json.loads(
            (ROOT / ".bench_out" / f"{workload}_seed1_trace1.json").read_text(encoding="utf-8")
        )["machine"]
        path = Path(__file__).with_name("baseline.json")
        path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    print("steady" if steady else "NOT steady: a spread exceeds a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
