#!/usr/bin/env python3
"""Benchmark of the dispersive-qkd pipeline, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S]     # every workload

Run from the repository root; the package is imported from `src/`. The
workloads are described in workloads.py. Each pass of a workload runs in a
fresh worker process (worker.py), one at a time, on one thread:

--trace 0  repeats passes for S seconds with tracing off and reports the
           end-to-end metrics, each item's time read against a calibration
           loop timed just before it (see measure). Between passes it times
           set-up: cold `python -m dispersive_qkd.cli point` subprocesses.
--trace 1  runs traced passes, with every layer wrapped by spans.Tracer,
           and reports the per-layer metrics, with the tracing overhead
           measured against untraced passes. A pass is fixed work, so its
           counts repeat exactly for a given seed.

Every output is checked by definition (checks.py) outside the timed
region, and must be identical in every pass; an item that raises, fails
its check or differs counts as failed, and so does a cold start or a
reference value that fails its check. Results go to stdout (a table, then
one JSON line last) and, with machine info and the reference values, to
.bench_out/<workload>_seed<N>_trace<T>.json. Without --workload, each
workload runs untraced and then traced, one after another, and the last
line gathers them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("reproduce_all", "chirp_scan", "point_sweep")

# items that must lie beyond the tail percentile
TAIL_BEYOND = 10
# repeats of each item, so its median has several to choose from
MIN_PASSES = 3
# the calibration loop's median time (worker.calibrate) on the 2-core
# 2.1 GHz Xeon VM that bench/baseline.json was measured on; item costs
# are given in seconds of a host as fast as that one
CAL_REF_S = 0.9e-3
# cold CLI starts per run; set-up reports their median
SETUP_RUNS = 12
# most traced passes, each paired with an untraced one to measure the overhead
TRACE_PAIRS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MiB",
}


class Tally:
    """Operations attempted and failed, with the first few problems kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems[:3])}")


class Passes:
    """Runs passes of one workload in worker processes and tallies items.

    An item whose output fingerprint differs from the first pass's fails.
    """

    def __init__(self, name: str, seed: int, tally: Tally) -> None:
        self.name = name
        self.cmd = [sys.executable, str(BENCH / "worker.py"), name, str(seed)]
        self.tally = tally
        self.first: list[str | None] | None = None

    def __call__(self, trace: bool = False) -> dict:
        cmd = self.cmd + ["--trace"] * trace
        proc = subprocess.run(cmd, cwd=ROOT, input=json.dumps(self.first),
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.tally_items(result["items"], trace)
        return result

    def tally_items(self, items: list[dict], trace: bool = False) -> None:
        if self.first is None:
            self.first = [item["fingerprint"] for item in items]
        for i, item in enumerate(items):
            problems = item["problems"]
            if self.first[i] is None:
                self.first[i] = item["fingerprint"]
            elif not problems and item["fingerprint"] != self.first[i]:
                problems = ["output differs from the first pass"]
            self.tally.add(f"{self.name}[{i}]{' traced' * trace}", problems)


def measure(passes: Passes, seconds: float, cold_start: "ColdStart") -> dict:
    """Repeat passes for `seconds`, and at least MIN_PASSES times.

    The host's speed drifts by tens of percent, over seconds to minutes, and
    stretches every timing alike. So each item is timed against the
    calibration loop that its worker runs just before it (worker.calibrate):
    the item's cost is the median over its repeats of its time divided by
    the loop's, times CAL_REF_S. That reads in seconds of a host on which the
    loop takes CAL_REF_S, whatever the host's speed at the moment. wall_s
    sums the items' costs; item_p50_ms and item_tail_ms are over them, so
    the tail is over the costly inputs, not over the host's slow spells. The
    raw wall and CPU times go to the record beside them. The SETUP_RUNS cold
    starts are spread evenly over the loop, between passes; setup_s is their
    raw median. The warm-up pass counts against `seconds`, and no pass
    starts that would end past it, so a run lasts `seconds` plus its fixed
    start-up.
    """
    wall0 = time.perf_counter()
    n_items = len(passes()["items"])  # warm-up; sets the reference fingerprints
    ratios: list[list[float]] = [[] for _ in range(n_items)]
    raw_s: list[list[float]] = [[] for _ in range(n_items)]
    cal_s: list[float] = []
    pass_s: list[float] = []
    setup_s: list[float] = []
    cpu_s = 0.0
    peak_kib = 0
    last = time.perf_counter() - wall0
    while (
        time.perf_counter() - wall0 + last < seconds
        or len(pass_s) < MIN_PASSES
    ):
        t0 = time.perf_counter()
        result = passes()
        for r, raw, item in zip(ratios, raw_s, result["items"]):
            r.append(item["s"] / item["cal_s"])
            raw.append(item["s"])
            cal_s.append(item["cal_s"])
        pass_s.append(sum(item["s"] for item in result["items"]))
        cpu_s += sum(item["cpu_s"] for item in result["items"])
        peak_kib = max(peak_kib, result["maxrss_kib"])
        if time.perf_counter() - wall0 >= len(setup_s) * seconds / SETUP_RUNS:
            setup_s.append(cold_start())
        last = time.perf_counter() - t0
    while len(setup_s) < SETUP_RUNS:
        setup_s.append(cold_start())
    cost = [statistics.median(r) * CAL_REF_S for r in ratios]
    percentile, tail_ms = item_tail(cost)
    return {
        "passes": len(pass_s),
        "items": len(cal_s),
        "setup_s": statistics.median(setup_s),
        "cold_starts": len(setup_s),
        "wall_s": sum(cost),
        "item_p50_ms": statistics.median(cost) * 1e3,
        "item_tail_ms": tail_ms,
        "tail_percentile": percentile,
        "peak_rss_mb": peak_kib / 1024.0,
        "cost_s": cost,
        "raw_wall_s": sum(statistics.median(raw) for raw in raw_s),
        "cal_median_s": statistics.median(cal_s),
        "cal_ref_s": CAL_REF_S,
        "pass_median_s": statistics.median(pass_s),
        "pass_s": pass_s,
        "items_wall_s": sum(pass_s),
        "items_cpu_s": cpu_s,
        "loop_wall_s": time.perf_counter() - wall0,
    }


def item_tail(cost: list[float]) -> tuple[int, float]:
    """(percentile, ms) of the highest whole percentile of the items' costs
    with at least TAIL_BEYOND items beyond it; a workload of no more
    than TAIL_BEYOND items has the slowest one as its tail (percentile 100).
    Items per pass are fixed, so the percentile is the same on every run."""
    n = len(cost)
    percentile = math.floor(100 * (1 - TAIL_BEYOND / n)) if n > TAIL_BEYOND else 100
    if percentile == 100:
        return percentile, max(cost) * 1e3
    return percentile, statistics.quantiles(cost, n=100)[percentile - 1] * 1e3


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def check_point_output(proc: subprocess.CompletedProcess, expected) -> list[str]:
    """`point` on defaults prints `name = value` lines matching the library."""
    if proc.returncode != 0:
        return [f"point exited {proc.returncode}: {proc.stderr.strip()[:200]}"]
    printed = {}
    for line in proc.stdout.splitlines():
        name, sep, value = line.partition("=")
        if sep:
            try:
                printed[name.strip()] = float(value)
            except ValueError:
                return [f"point printed a non-number: {line!r}"]
    problems = []
    for name in ("p_sig", "p_w", "p_det", "p_raw", "qber", "key_rate"):
        want = getattr(expected, name)
        got = printed.get(name)
        if got is None or abs(got - want) > 1e-9 * abs(want):
            problems.append(f"point {name} = {got}, expected {want}")
    return problems


class ColdStart:
    """Times cold `point` starts, from launch until the result is printed."""

    def __init__(self, tally: Tally) -> None:
        from dispersive_qkd.keyrate import ScenarioParams, evaluate_point

        self.tally = tally
        self.expected = evaluate_point(ScenarioParams(), 0.0)
        self.cmd = [sys.executable, "-m", "dispersive_qkd.cli", "point"]
        self.env = _cli_env()
        self()  # the first start may still write bytecode caches

    def __call__(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(
            self.cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60
        )
        dt = time.perf_counter() - t0
        self.tally.add("setup", check_point_output(proc, self.expected))
        return dt


def reference_values(tally: Tally) -> dict[str, float]:
    """Results a speed-up must not move: default L_max, fig3a/fig4a optima."""
    import checks
    from dispersive_qkd import analysis
    from dispersive_qkd.keyrate import ScenarioParams

    base = ScenarioParams()
    l_max = analysis.max_distance(base)
    tally.add("reference defaults", checks.extinction_edge(base, l_max))
    refs = {"defaults.L_max_km": l_max}
    grid = analysis.default_chirp_grid()
    for fig in ("fig3a", "fig4a"):
        for label, scan in analysis.run_scenario(fig).curves:
            refs[f"{fig}.{label}.c_star"] = scan.c_star
            refs[f"{fig}.{label}.l_max_star"] = scan.l_max_star
            refs[f"{fig}.{label}.at_boundary"] = scan.at_boundary
            params = checks.figure_scan_params(fig, label, base)
            tally.add(f"reference {fig} {label}", checks.scan(params, grid, scan))
    return refs


def traced_run(passes: Passes, seconds: float) -> tuple[dict[str, float], dict]:
    """Traced passes alternating with untraced ones; the best of each kind.

    Pairs run while another fits in `seconds`, at least one and at most
    TRACE_PAIRS. Per-layer values come from the fastest traced pass; its
    counts are the same in every traced pass.
    """
    untraced, traced = [], []
    wall0 = time.perf_counter()
    last = 0.0
    while not traced or (
        len(traced) < TRACE_PAIRS and time.perf_counter() - wall0 + last < seconds
    ):
        t0 = time.perf_counter()
        untraced.append(sum(item["s"] for item in passes()["items"]))
        result = passes(trace=True)
        traced.append((sum(item["s"] for item in result["items"]), result))
        last = time.perf_counter() - t0
    traced_s, result = min(traced, key=lambda t: t[0])
    metrics = dict(result["metrics"], **{"trace.overhead_ratio": traced_s / min(untraced)})
    detail = {
        "traced_pass_s": traced_s,
        "untraced_pass_s": min(untraced),
        "spans": result["spans"],
        "unpatched": result["unpatched"],
        "layers": result["layers"],
    }
    return metrics, detail


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "processor": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full result record."""
    tally = Tally()
    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    record["machine"] = machine()
    record["reference"] = reference_values(tally)
    passes = Passes(name, seed, tally)
    if trace:
        metrics, record["trace_detail"] = traced_run(passes, seconds)
        units = PER_LAYER
    else:
        timing = measure(passes, seconds, ColdStart(tally))
        record["timing"] = timing
        metrics = {k: timing[k] for k in END_TO_END if k in timing}
        metrics["pass_ratio"] = 1.0 - tally.failed / tally.attempted
        units = END_TO_END
    record["result"] = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record["problems"] = tally.problems
    return record


def print_record(record: dict) -> None:
    result = record["result"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"python={record['machine']['python']} nproc={record['machine']['nproc']}")
    if "timing" in record:
        t = record["timing"]
        print(f"#   {t['passes']} passes of {len(t['cost_s'])} items ({t['items']} timed), "
              f"tail = p{t['tail_percentile']} of the items' costs, "
              f"median pass {t['pass_median_s']:.3f} s, {t['cold_starts']} cold starts")
        print(f"#   raw wall_s {t['raw_wall_s']:.3f} s; calibration loop {t['cal_median_s'] * 1e3:.3f} ms "
              f"(reference {t['cal_ref_s'] * 1e3:.3f} ms)")
        print(f"#   items wall {t['items_wall_s']:.3f} s, cpu {t['items_cpu_s']:.3f} s; "
              f"loop wall {t['loop_wall_s']:.3f} s")
        print(f"#   failed_ratio {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']} of {result['attempted']})")
    if "trace_detail" in record:
        d = record["trace_detail"]
        print(f"#   traced pass {d['traced_pass_s']:.3f} s vs untraced {d['untraced_pass_s']:.3f} s, "
              f"{d['spans']} spans")
        print(f"#   {'layer':<32} {'calls':>9} {'total ms':>10} {'self ms':>10} {'self %':>7} {'evals':>8}")
        total_ns = d["traced_pass_s"] * 1e9
        for layer, row in sorted(d["layers"].items(), key=lambda kv: -kv[1]["self_ns"]):
            print(f"#   {layer:<32} {row['calls']:>9} {row['total_ns'] / 1e6:>10.2f} "
                  f"{row['self_ns'] / 1e6:>10.2f} {100 * row['self_ns'] / total_ns:>7.2f} {row['evals']:>8}")
        if d["unpatched"]:
            print(f"#   not traced (attribute missing): {', '.join(d['unpatched'])}")
    print("#   reference " + ", ".join(
        f"{k} {v:.6g}" for k, v in record["reference"].items() if not k.endswith("at_boundary")))
    for name, m in result["metrics"].items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    for problem in record["problems"]:
        print(f"# FAILED {problem}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced; the last line gathers them."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (False, True):
            result = report(run_workload(name, seed, seconds, trace))
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                total["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(total))
    return 0


def report(record: dict) -> dict:
    """Write the record's file and print its table; returns its result."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{record['workload']}_seed{record['seed']}_trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    shutil.rmtree(OUT / "reproduce", ignore_errors=True)
    print_record(record)
    return record["result"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dispersive_qkd" / "__init__.py").is_file():
        sys.stderr.write(f"error: package source not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    result = report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
