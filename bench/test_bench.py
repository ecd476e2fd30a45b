"""Self-tests of the benchmark: its checks reject wrong results, the
unchanged package passes them, and the printed metrics match BENCHMARK.json.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import ChirpScan, PointSweep, ReproduceAll  # noqa: E402

from dispersive_qkd import analysis  # noqa: E402
from dispersive_qkd.keyrate import ScenarioParams, evaluate_point  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_shifted_l_max_is_rejected():
    base = ScenarioParams()
    l_max = analysis.max_distance(base)
    assert checks.extinction_edge(base, l_max) == []
    assert checks.extinction_edge(base, l_max + 1.0)
    assert checks.extinction_edge(base, l_max - 1.0)


def test_focusing_chirp_zero_range_is_accepted_only_when_dead_at_source():
    focusing = ScenarioParams(sigma=60e-12, chirp=-2.0, jitter=4e-12)
    assert evaluate_point(focusing, 0.0).key_rate == 0.0
    assert analysis.max_distance(focusing) == 0.0
    assert checks.extinction_edge(focusing, 0.0) == []
    assert checks.extinction_edge(ScenarioParams(), 0.0)


def test_key_rate_above_p_raw_is_rejected():
    point = evaluate_point(ScenarioParams(), 10e3)
    assert checks.point_row(10.0, point) == []
    bad = replace(point, key_rate=point.p_raw * 1.01)
    assert any("exceeds p_raw" in p for p in checks.point_row(10.0, bad))
    grid = [0.0, 10.0]
    result = SimpleNamespace(rows=((0.0, evaluate_point(ScenarioParams(), 0.0)), (10.0, bad)))
    assert checks.sweep(grid, result)


def test_scan_check_rejects_a_low_star_an_inflated_star_and_a_shifted_sample():
    params = ScenarioParams()
    grid = [-0.5, -0.25, 0.0]
    scan = analysis.scan_chirp(params, grid)
    assert checks.scan(params, grid, scan) == []
    low = replace(scan, l_max_star=min(l for _, l in scan.samples))
    assert checks.scan(params, grid, low)
    inflated = replace(scan, l_max_star=scan.l_max_star + 1.0)
    assert any("c_star" in p for p in checks.scan(params, grid, inflated))
    shifted = replace(scan, samples=((grid[0], scan.samples[0][1] + 1.0),) + scan.samples[1:])
    assert checks.scan(params, grid, shifted)


def test_reproduced_scan_csvs_are_checked_against_their_own_scenario(tmp_path):
    workload = ReproduceAll(tmp_path)
    for fig, a, b in (("fig3a", "j4ps", "j25ps"), ("fig4a", "beta-1.15", "beta-0.7")):
        assert workload.check(fig, workload.run(fig)) == []
        path_a, path_b = tmp_path / f"{fig}_{a}.csv", tmp_path / f"{fig}_{b}.csv"
        text_a, text_b = path_a.read_text(), path_b.read_text()
        # another curve's scan under this curve's name, as a wrong cache would give
        path_a.write_text(text_b)
        assert any(p.startswith(path_a.name) for p in workload.check(fig, 0))
        # one secure range moved out by 1 km
        lines = text_b.split("\n")
        c, l_max = lines[40].split(",")
        lines[40] = f"{c},{float(l_max) + 1.0:.10g}"
        path_a.write_text(text_a)
        path_b.write_text("\n".join(lines))
        assert any(p.startswith(path_b.name) for p in workload.check(fig, 0))
        path_b.write_text(text_b)
        assert workload.check(fig, 0) == []


def test_figure_files_must_parse_and_satisfy_the_rate_definition(tmp_path):
    good = "L_km,p_sig,p_w,p_det,p_raw,qber,key_rate\n0,0.5,0.01,0.5,0.25,0.02,0.1792797287\n"
    assert checks.figure_file(tmp_path / "a.csv", good.encode()) == []
    bad = good.replace("0.1792797287", "0.3")
    assert checks.figure_file(tmp_path / "a.csv", bad.encode())
    assert checks.figure_file(tmp_path / "a.svg", b"<svg><g></svg>")
    assert checks.figure_file(tmp_path / "a.svg", b'<svg xmlns="http://www.w3.org/2000/svg"/>') == []


def test_unchanged_package_passes_every_workload(tmp_path):
    for workload in (ReproduceAll(tmp_path), ChirpScan(5, per_pass=3), PointSweep(5, per_pass=6)):
        passes = [worker.run_pass(workload) for _ in range(2)]
        assert [item["problems"] for item in passes[0] + passes[1]] == [[]] * 2 * len(workload.inputs)
        assert [i["fingerprint"] for i in passes[0]] == [i["fingerprint"] for i in passes[1]]


def test_wrong_results_count_as_failed(monkeypatch):
    # each workload's first pass gives the known-good fingerprints, so the
    # wrong outputs below are checked as a later pass's would be
    scans, sweeps = ChirpScan(2, per_pass=2), PointSweep(2, per_pass=2)
    known = [[i["fingerprint"] for i in worker.run_pass(w)] for w in (scans, sweeps)]
    real_max = analysis.max_distance
    monkeypatch.setattr(analysis, "max_distance", lambda *a, **k: real_max(*a, **k) + 1.0)
    items = worker.run_pass(scans, known[0])
    monkeypatch.undo()
    real_eval = analysis.evaluate_point

    def inflated(params, distance):
        point = real_eval(params, distance)
        return replace(point, key_rate=point.p_raw * 1.5)

    monkeypatch.setattr(analysis, "evaluate_point", inflated)
    items += worker.run_pass(sweeps, known[1])
    assert all(item["problems"] and item["fingerprint"] is None for item in items)


def test_output_identical_to_a_checked_one_is_not_checked_again(monkeypatch):
    sweeps = PointSweep(3, per_pass=2)
    known = [i["fingerprint"] for i in worker.run_pass(sweeps)]
    monkeypatch.setattr(sweeps, "check", lambda *a: ["checked again"])
    assert [i["fingerprint"] for i in worker.run_pass(sweeps, known)] == known
    assert all(i["problems"] for i in worker.run_pass(sweeps))


def test_output_that_differs_between_passes_fails():
    tally = run.Tally()
    passes = run.Passes("toy", 1, tally)
    passes.tally_items([{"problems": [], "fingerprint": "a"}, {"problems": ["bad"], "fingerprint": None}])
    passes.tally_items([{"problems": [], "fingerprint": "b"}, {"problems": [], "fingerprint": "c"}])
    passes.tally_items([{"problems": [], "fingerprint": "a"}, {"problems": [], "fingerprint": "c"}])
    assert (tally.attempted, tally.failed) == (6, 2)


def test_trace_counts_repeat_and_tracer_restores_the_package():
    originals = [getattr(m, a) for _, m, a in worker.trace_targets()]
    counts = []
    for _ in range(2):
        items, tracer = worker.traced_pass(ChirpScan(4, per_pass=2))
        assert all(not item["problems"] for item in items)
        metrics = worker.layer_metrics(tracer, sum(item["s"] for item in items), 0)
        counts.append({k: v for k, v in metrics.items()
                       if k.endswith((".calls", "evals_per_call", "repeat_ratio"))})
    assert counts[0] == counts[1]
    assert counts[0]["analysis.scan_chirp.calls"] == 2
    assert counts[0]["analysis.max_distance.calls"] >= 2 * 81
    assert [getattr(m, a) for _, m, a in worker.trace_targets()] == originals


def test_self_time_excludes_child_spans():
    def leaf():
        return sum(range(20000))

    mod = SimpleNamespace(leaf=leaf)
    mod.outer = lambda: mod.leaf() + mod.leaf()
    mod.__name__ = "toy"
    with Tracer() as tracer:
        tracer.install([("toy.leaf", mod, "leaf"), ("toy.outer", mod, "outer")])
        mod.outer()
    table = tracer.layers()
    outer, inner = table["toy.outer"], table["toy.leaf"]
    assert (outer["calls"], inner["calls"]) == (1, 2)
    assert outer["self_ns"] == outer["total_ns"] - inner["total_ns"]
    assert mod.leaf is leaf


def test_spec_lists_exactly_the_metrics_the_benchmark_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == [
        ReproduceAll.name, ChirpScan.name, PointSweep.name]
    for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        proc = _bench(ROOT, "point_sweep", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: m["unit"] for k, m in result["metrics"].items()} == names


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "chirp_scan", 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_item_tail_leaves_ten_items_beyond_it():
    for n in (11, 96, 128):
        cost = [i / 1000.0 for i in range(1, n + 1)]
        percentile, tail_ms = run.item_tail(cost)
        assert sum(c * 1e3 > tail_ms for c in cost) == run.TAIL_BEYOND
        assert run.item_tail(cost[: run.TAIL_BEYOND]) == (100, run.TAIL_BEYOND)


def test_item_costs_do_not_follow_the_host_speed():
    """A host that slows every timing alike leaves the costs as they are."""
    base = [0.002, 0.005, 0.011]
    speeds = iter([1.0, 1.0, 1.6, 0.9, 2.5, 1.3, 1.1])

    def passes():
        f = next(speeds)
        items = [{"s": b * f, "cal_s": run.CAL_REF_S * f, "cpu_s": b * f} for b in base]
        return {"items": items, "maxrss_kib": 1024}

    timing = run.measure(passes, 0.0, lambda: 0.1)
    assert timing["passes"] == run.MIN_PASSES
    assert [round(c, 12) for c in timing["cost_s"]] == base
    assert round(timing["wall_s"], 12) == sum(base)
    assert round(timing["item_p50_ms"], 9) == 5.0
