#!/usr/bin/env python3
"""One pass of one workload in a fresh process; prints the result as JSON.

    python3 bench/worker.py WORKLOAD SEED [--trace] < KNOWN.json

run.py starts one worker per pass, one at a time. A pass thus starts
without whatever a previous pass left in the package (a cache, say): only
repeats inside a pass can be reused, as in a user's single run.

Per item the worker reports its wall time, the time of the calibration
loop (calibrate) run just before it, the problems its check found (checks
run outside the timed call) and a fingerprint of its output, which run.py
compares across passes. Standard input holds the fingerprints of
the first pass's outputs (a JSON list, or nothing): an output equal to one
of these already passed its check and is not checked again. With --trace
the pass runs with every layer wrapped by spans.Tracer, and the per-layer
metrics are reported.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from math import erf, exp
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# iterations of the calibration loop: about 1 ms on a 2.1 GHz Xeon core
CAL_LOOPS = 3000

PER_LAYER = {
    "numerics.erf.calls": "count",
    "numerics.erf.us_per_call": "us",
    "numerics.erf.share": "ratio",
    "keyrate.evaluate_point.calls": "count",
    "keyrate.evaluate_point.us_per_call": "us",
    "keyrate.evaluate_point.self_us_per_call": "us",
    "twf.broadened_sigma.us_per_call": "us",
    "detection.p_signal.us_per_call": "us",
    "detection.shifted_window_mass.us_per_call": "us",
    "analysis.sweep_distance.us_per_row": "us",
    "analysis.max_distance.calls": "count",
    "analysis.max_distance.evals_per_call": "count",
    "analysis.max_distance.repeat_ratio": "ratio",
    "analysis.scan_chirp.calls": "count",
    "analysis.scan_chirp.evals_per_call": "count",
    "analysis.scan_chirp.repeat_ratio": "ratio",
    "numerics.maximize_scalar.calls": "count",
    "numerics.maximize_scalar.f_evals_per_call": "count",
    "chart.render_chart.ms_per_call": "ms",
    "cli.main.self_ms": "ms",
    "cli.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
}


def trace_targets() -> list:
    """(layer, module, attribute) at every place a caller looks a layer up."""
    from dispersive_qkd import analysis, cli, detection, keyrate

    return [
        ("numerics.erf", detection, "erf"),
        ("twf.broadened_sigma", keyrate, "broadened_sigma"),
        ("detection.p_signal", keyrate, "p_signal"),
        ("detection.shifted_window_mass", keyrate, "shifted_window_mass"),
        ("numerics.binary_entropy", keyrate, "binary_entropy"),
        ("keyrate.evaluate_point", analysis, "evaluate_point"),
        ("keyrate.evaluate_point", cli, "evaluate_point"),
        ("analysis.sweep_distance", analysis, "sweep_distance"),
        ("analysis.max_distance", analysis, "max_distance"),
        ("numerics.maximize_scalar", analysis, "maximize_scalar"),
        ("analysis.scan_chirp", analysis, "scan_chirp"),
        ("analysis.run_scenario", analysis, "run_scenario"),
        ("config.parse_config", cli, "parse_config"),
        ("chart.render_chart", cli, "render_chart"),
        ("cli.main", cli, "main"),
    ]


def build_workload(name: str, seed: int):
    from workloads import WORKLOADS

    if name == "reproduce_all":
        return WORKLOADS[name](OUT / "reproduce")
    return WORKLOADS[name](seed)


def calibrate(loops: int = CAL_LOOPS) -> float:
    """Seconds for a fixed pure-Python loop of float arithmetic, erf and exp.

    It uses nothing of the package, so a change to the program leaves it
    alone, while a slow spell of the host stretches it as it stretches the
    item timed right after it (see run.measure).
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(loops):
        x = i * 1e-3
        acc += erf(x) * exp(-x) + x / (1.0 + x)
    return time.perf_counter() - t0


def _timed(workload, inp):
    """(wall s, cpu s, calibration s, output, problems) of one item's call."""
    workload.prepare(inp)
    cal = calibrate()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        out, problems = workload.run(inp), []
    except Exception as exc:  # an item that raises is a failed item
        out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
    return time.perf_counter() - wall0, time.process_time() - cpu0, cal, out, problems


def _checked(workload, inp, wall, cpu, cal, out, problems, known=None) -> dict:
    """The item's record; an output whose fingerprint equals `known`, one
    that already passed its check, is not checked again."""
    digest = None
    if not problems:
        try:
            digest = hashlib.sha256(workload.fingerprint(inp, out)).hexdigest()
            if digest != known:
                problems = workload.check(inp, out)
        except Exception as exc:  # a malformed output is a failed item
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return {"s": wall, "cpu_s": cpu, "cal_s": cal, "problems": problems,
            "fingerprint": None if problems else digest}


def run_pass(workload, known: list | None = None) -> list[dict]:
    """Each item timed, then checked before the next one runs."""
    known = known or [None] * len(workload.inputs)
    return [_checked(workload, inp, *_timed(workload, inp), k)
            for inp, k in zip(workload.inputs, known)]


def traced_pass(workload, known: list | None = None):
    """The pass under the tracer; checks run after the originals are back."""
    from spans import Tracer

    known = known or [None] * len(workload.inputs)
    with Tracer() as tracer:
        tracer.install(trace_targets())
        timed = [(inp,) + _timed(workload, inp) for inp in workload.inputs]
    return [_checked(workload, *t, k) for t, k in zip(timed, known)], tracer


def layer_metrics(tracer, traced_s: float, written: int) -> dict[str, float]:
    """Per-layer metrics of a traced pass, all but trace.overhead_ratio."""
    table = tracer.layers()
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "evals": 0}

    def row(layer: str) -> dict:
        return table.get(layer, empty)

    def per_call(layer: str, key: str, unit_ns: float) -> float:
        r = row(layer)
        return r[key] / r["calls"] / unit_ns if r["calls"] else 0.0

    sweep = row("analysis.sweep_distance")
    maxi = row("numerics.maximize_scalar")["calls"]
    return {
        "numerics.erf.calls": row("numerics.erf")["calls"],
        "numerics.erf.us_per_call": per_call("numerics.erf", "total_ns", 1e3),
        "numerics.erf.share": row("numerics.erf")["self_ns"] / (traced_s * 1e9),
        "keyrate.evaluate_point.calls": row("keyrate.evaluate_point")["calls"],
        "keyrate.evaluate_point.us_per_call": per_call("keyrate.evaluate_point", "total_ns", 1e3),
        "keyrate.evaluate_point.self_us_per_call": per_call("keyrate.evaluate_point", "self_ns", 1e3),
        "twf.broadened_sigma.us_per_call": per_call("twf.broadened_sigma", "total_ns", 1e3),
        "detection.p_signal.us_per_call": per_call("detection.p_signal", "total_ns", 1e3),
        "detection.shifted_window_mass.us_per_call": per_call(
            "detection.shifted_window_mass", "total_ns", 1e3
        ),
        "analysis.sweep_distance.us_per_row": (
            sweep["total_ns"] / sweep["evals"] / 1e3 if sweep["evals"] else 0.0
        ),
        "analysis.max_distance.calls": row("analysis.max_distance")["calls"],
        "analysis.max_distance.evals_per_call": per_call("analysis.max_distance", "evals", 1),
        "analysis.max_distance.repeat_ratio": tracer.repeat_ratio("analysis.max_distance"),
        "analysis.scan_chirp.calls": row("analysis.scan_chirp")["calls"],
        "analysis.scan_chirp.evals_per_call": per_call("analysis.scan_chirp", "evals", 1),
        "analysis.scan_chirp.repeat_ratio": tracer.repeat_ratio("analysis.scan_chirp"),
        "numerics.maximize_scalar.calls": maxi,
        "numerics.maximize_scalar.f_evals_per_call": tracer.objective_evals / maxi if maxi else 0.0,
        "chart.render_chart.ms_per_call": per_call("chart.render_chart", "total_ns", 1e6),
        "cli.main.self_ms": per_call("cli.main", "self_ns", 1e6),
        "cli.bytes_written": written,
    }


def main(argv: list[str]) -> int:
    name, seed, trace = argv[0], int(argv[1]), "--trace" in argv[2:]
    known = json.loads(sys.stdin.read() or "null")
    sys.path.insert(0, str(ROOT / "src"))
    workload = build_workload(name, seed)
    result: dict = {}
    if trace:
        items, tracer = traced_pass(workload, known)
        traced_s = sum(item["s"] for item in items)
        written = workload.bytes_written() if hasattr(workload, "bytes_written") else 0
        result["metrics"] = layer_metrics(tracer, traced_s, written)
        result["layers"] = tracer.layers()
        result["spans"] = len(tracer.spans)
        result["unpatched"] = tracer.missing
    else:
        items = run_pass(workload, known)
    result["items"] = items
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
