"""The command-line scripts under scripts/, run as their users run them."""

import runpy
import sys
from pathlib import Path

import pytest

from dispersive_qkd import keyrate
from dispersive_qkd.analysis import SCENARIOS, default_chirp_grid, run_scenario, scan_chirp
from dispersive_qkd.config import BETA_UNIT, PS
from dispersive_qkd.keyrate import ScenarioParams

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(capsys, monkeypatch, name: str, *args: str) -> tuple[int | None, str]:
    """(exit status, stdout) of scripts/name run as __main__ with args."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    capsys.readouterr()
    status = None
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        status = exc.code
    return status, capsys.readouterr().out


@pytest.fixture
def figure_dirs(tmp_path):
    """Two directories that each hold the same sweep CSV and chart."""
    csv = "L_km,key_rate,qber\n0,0.5,0.01\n10,0.25,0.02\n"
    svg = '<svg>\n<polyline points="0,1 2,3"/>\n</svg>\n'
    dirs = tmp_path / "a", tmp_path / "b"
    for d in dirs:
        d.mkdir()
        (d / "fig.csv").write_text(csv)
        (d / "fig.svg").write_text(svg)
    return dirs


def _compare(capsys, monkeypatch, dirs) -> tuple[int | None, str]:
    return _run(capsys, monkeypatch, "compare_figures.py", *map(str, dirs))


def test_compare_figures_identical_dirs(capsys, monkeypatch, figure_dirs):
    status, out = _compare(capsys, monkeypatch, figure_dirs)
    assert status == 0
    assert out.startswith("byte-identical: 2 of 2 files\n")
    assert "differing: 0\n" in out and "!" not in out


def test_compare_figures_reports_a_numeric_csv_deviation(capsys, monkeypatch, figure_dirs):
    (figure_dirs[1] / "fig.csv").write_text("L_km,key_rate,qber\n0,0.5,0.01\n10,0.2,0.02\n")
    status, out = _compare(capsys, monkeypatch, figure_dirs)
    assert status == 0
    assert "  ~ fig.csv\n" in out
    assert "  key_rate: abs 0.05 (fig.csv), rel 0.2 (fig.csv)\n" in out
    assert "qber:" not in out and "!" not in out


def test_compare_figures_names_the_first_changed_svg_line(capsys, monkeypatch, figure_dirs):
    (figure_dirs[1] / "fig.svg").write_text('<svg>\n<polyline points="0,1 2,4"/>\n</svg>\n')
    status, out = _compare(capsys, monkeypatch, figure_dirs)
    assert status == 1
    assert "! fig.svg: not a CSV, line 2, column 25: " in out


def test_compare_figures_fails_on_a_file_on_one_side_only(capsys, monkeypatch, figure_dirs):
    (figure_dirs[0] / "extra.csv").write_text("x\n1\n")
    status, out = _compare(capsys, monkeypatch, figure_dirs)
    assert status == 1
    assert f"! only in {figure_dirs[0]}: extra.csv\n" in out


def test_compare_figures_fails_on_a_changed_non_numeric_csv_cell(capsys, monkeypatch, figure_dirs):
    (figure_dirs[1] / "fig.csv").write_text("L_km,key_rate,qber\n0,0.5,0.01\n10,n/a,0.02\n")
    status, out = _compare(capsys, monkeypatch, figure_dirs)
    assert status == 1
    assert "! fig.csv: column key_rate: '0.25' vs 'n/a'\n" in out


def test_chirp_gain_summary_prints_each_configurations_scan(capsys, monkeypatch):
    status, out = _run(capsys, monkeypatch, "chirp_gain_summary.py")
    assert status is None
    header, *rows = out.splitlines()
    assert header.split() == ["jitter_ps", "beta_e26", "L0_km", "c_star", "Lstar_km", "gain_%"]
    assert len(rows) == 9
    for row in rows:
        jitter_ps, beta_e26, _, c_star, l_star = row.split()[:5]
        params = ScenarioParams(jitter=float(jitter_ps) * PS, beta=float(beta_e26) * BETA_UNIT)
        scan = scan_chirp(params, default_chirp_grid())
        assert (c_star, l_star) == (f"{scan.c_star:.3f}", f"{scan.l_max_star:.2f}"), row


def test_count_evaluations_matches_a_direct_count(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds bench/
    status, out = _run(capsys, monkeypatch, "count_evaluations.py", "3")
    assert status is None
    lines = [line.split(None, 2) for line in out.splitlines()]
    counts = {label: (int(evals), int(records)) for evals, records, label in lines}
    assert list(counts) == [
        "chirp_scan seed 3", "chirp_scan total", *SCENARIOS, "figures total"
    ]
    assert counts["chirp_scan seed 3"] == counts["chirp_scan total"]
    # each scan searches on its caller's record: 15,552 records, one per
    # grid chirp, while scan_chirp copied the record at each
    assert counts["chirp_scan seed 3"][0] > 0 == counts["chirp_scan seed 3"][1]
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "bench"))
    import workloads

    scans = workloads.ChirpScan(3)  # the inputs are built before counting
    calls = [0, 0]

    def count(owner, name, column):
        real = getattr(owner, name)

        def counted(*args):
            calls[column] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    count(keyrate, "broadened_sigma", 0)
    count(ScenarioParams, "__post_init__", 1)
    count(ScenarioParams, "_at_chirp", 1)
    for params in scans.inputs:
        scan_chirp(params, scans.grid)
    assert counts["chirp_scan seed 3"] == tuple(calls)
    calls[:] = [0, 0]
    for name in SCENARIOS:
        run_scenario(name)
    figures = tuple(sum(counts[name][i] for name in SCENARIOS) for i in (0, 1))
    assert counts["figures total"] == figures == tuple(calls)
    assert all(counts[name][1] > 0 for name in SCENARIOS)


def test_result_digest_is_stable_and_sees_a_changed_result(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds bench/
    runs = [_run(capsys, monkeypatch, "result_digest.py") for _ in range(2)]
    assert runs[0] == runs[1]
    status, out = runs[0]
    assert status is None
    digests = dict(line.split()[::-1] for line in out.splitlines())
    assert list(digests) == ["chirp_scan", "point_sweep", "reproduce_all"]
    assert all(len(d) == 64 for d in digests.values())
    # halving every key rate moves the sweeps and the figures; the chirp
    # scans read the QBER alone
    real = keyrate.key_rate
    monkeypatch.setattr(keyrate, "key_rate", lambda p_raw, q: 0.5 * real(p_raw, q))
    _, out = _run(capsys, monkeypatch, "result_digest.py")
    patched = dict(line.split()[::-1] for line in out.splitlines())
    assert [name for name in digests if patched[name] != digests[name]] == [
        "point_sweep", "reproduce_all"
    ]


_BOX = '''"""Module docstring,
over two lines."""

import math  # a trailing comment

# a comment line

class Box:
    """Class docstring."""

    size = 2

    def area(self):
        """Function docstring,
        over two lines."""
        text = """a multi-line
string"""
        return math.prod(
            [self.size,
             len(text)],
        )
'''


def test_code_lines_counts_code_and_sums_the_modules(capsys, monkeypatch, tmp_path):
    # Box: the import, the class line, size, def, the string's two lines and
    # the call's four; docstrings, comments and blank lines are not code
    (tmp_path / "box.py").write_text(_BOX)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "one.py").write_text("x = 1\n")
    status, out = _run(capsys, monkeypatch, "code_lines.py", str(tmp_path))
    assert status is None
    lines = out.splitlines()
    assert lines == ["    10  box.py", f"     1  {Path('sub', 'one.py')}", "    11  total"]
    assert sum(int(line.split()[0]) for line in lines[:-1]) == int(lines[-1].split()[0])


def _bench_record(correct: bool = True, failed: int = 0, **values: float) -> dict:
    """A made-up result record of bench/run.py --trace 0, as its last line."""
    metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


def test_bench_pairs_summarizes_made_up_runs():
    summarize = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["summarize"]
    metrics = [
        {"name": "wall_s", "unit": "s", "better": "lower"},
        {"name": "pass_ratio", "unit": "ratio", "better": "higher"},
    ]
    parent = [_bench_record(wall_s=w, pass_ratio=1.0) for w in (0.10, 0.20, 0.30, 0.40, 0.50)]
    # wall_s: lower in pairs 1 and 3, a tie in pair 2, higher in pairs 4 and 5
    change = [_bench_record(wall_s=w, pass_ratio=1.0) for w in (0.05, 0.20, 0.25, 0.45, 0.60)]
    change[4]["metrics"]["pass_ratio"]["value"] = 0.9
    table, ok = summarize(metrics, parent, change)
    assert ok
    assert table.splitlines() == [
        "5 pairs; runs not correct or with failed items: 0 of 10",
        "wall_s: parent 0.3 [0.15, 0.45], change 0.25 s; change better in 2 of 5 pairs",
        "pass_ratio: parent 1 [1, 1], change 1 ratio; change better in 0 of 5 pairs",
    ]


def test_bench_pairs_fails_on_a_run_not_correct_or_with_failed_items():
    summarize = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["summarize"]
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower"}]
    parent = [_bench_record(wall_s=0.1), _bench_record(wall_s=0.2)]
    for change in (
        [_bench_record(wall_s=0.1), _bench_record(correct=False, wall_s=0.2)],
        [_bench_record(wall_s=0.1), _bench_record(failed=1, wall_s=0.2)],
    ):
        table, ok = summarize(metrics, parent, change)
        assert not ok
        assert table.splitlines()[0] == "2 pairs; runs not correct or with failed items: 1 of 4"


# a toy bench/run.py: correct exactly where src/ and bench/ hold bytecode
_TOY_BENCH = """import json, pathlib
root = pathlib.Path(__file__).resolve().parents[1]
fresh = all(any((root / d / "__pycache__").glob("*.pyc")) for d in ("src", "bench"))
print(json.dumps({"correct": fresh, "failed": 0, "metrics": {}}))
"""


def test_bench_pairs_compiles_both_checkouts_before_the_first_pair(
    capsys, monkeypatch, tmp_path
):
    # no run writes bytecode here, so only the compile step can have
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    checkouts = tmp_path / "parent", tmp_path / "change"
    for checkout in checkouts:
        (checkout / "src").mkdir(parents=True)
        (checkout / "src" / "model.py").write_text("x = 1\n")
        (checkout / "bench").mkdir()
        (checkout / "bench" / "run.py").write_text(_TOY_BENCH)
    status, out = _run(capsys, monkeypatch, "bench_pairs.py", *map(str, checkouts), "toy", "1")
    assert status == 0, out
    assert "runs not correct or with failed items: 0 of 20" in out
