import math
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dispersive_qkd import chart
from dispersive_qkd.analysis import ChirpScanResult, SweepResult, max_distance
from dispersive_qkd.chart import render_chart
from dispersive_qkd.cli import CSV_HEADER, SCAN_CSV_HEADER, _csv, main
from dispersive_qkd.config import (
    BETA_UNIT,
    KM,
    PS,
    Config,
    ConfigError,
    parse_assignments,
    parse_config,
    to_params,
)
from dispersive_qkd.keyrate import (
    DarkCountModel,
    ProtocolPoint,
    TransmittanceConvention,
    evaluate_point,
)


def test_parse_config_defaults():
    assert parse_config() == Config()


def test_parse_config_file_with_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# fiber\n"
        "alpha_db_per_km = 0.25\n"
        "\n"
        "jitter_ps = 4  # detector spec sheet\n"
        "dark_model = exact_poisson\n"
    )
    cfg = parse_config(str(path))
    assert cfg.alpha_db_per_km == 0.25
    assert cfg.jitter_ps == 4.0
    assert cfg.dark_model == "exact_poisson"
    assert cfg.sigma_ps == 10.0  # untouched keys keep defaults


def test_parse_config_unknown_key_names_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("sigma_ps = 10\nsigma = 10\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2.*unknown configuration key"):
        parse_config(str(path))


def test_parse_config_bad_value_names_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("jitter_ps = fast\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:1.*jitter_ps"):
        parse_config(str(path))
    # a key repeated in one file is an error at the repeat, not a silent win
    path.write_text("jitter_ps = 4\n# detector B\njitter_ps = 4\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:3: jitter_ps is set twice$"):
        parse_config(str(path))


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config("/nonexistent/run.cfg")


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("distance_km = 10\n")
    cfg = parse_config(str(path), ["distance_km=25"])
    assert cfg.distance_km == 25.0


_ANY = st.floats(allow_nan=False, allow_infinity=False)
_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NEGATIVE = st.floats(max_value=0.0, exclude_max=True, allow_infinity=False)


@st.composite
def valid_configs(draw) -> Config:
    """Any Config that parse_config accepts, enum choices and l_steps included."""
    c_min, c_max = sorted(draw(st.lists(_ANY, min_size=2, max_size=2)))
    l_min, l_top = sorted(draw(st.lists(_NON_NEGATIVE, min_size=2, max_size=2)))
    auto_top = l_top == l_min or draw(st.booleans())
    return Config(
        sigma_ps=draw(_POSITIVE),
        chirp=draw(_ANY),
        beta_e26=draw(_ANY),
        alpha_db_per_km=draw(_NON_NEGATIVE),
        dark_rate_hz=draw(_NON_NEGATIVE),
        period_ps=draw(_POSITIVE),
        jitter_ps=draw(_NON_NEGATIVE),
        window_ps=draw(_POSITIVE),
        dark_model=draw(st.sampled_from([m.value for m in DarkCountModel])),
        transmittance_convention=draw(
            st.sampled_from([c.value for c in TransmittanceConvention])
        ),
        distance_km=draw(_NON_NEGATIVE),
        l_min_km=l_min,
        l_max_km=draw(_NEGATIVE) if auto_top else l_top,
        l_steps=draw(st.integers(min_value=1, max_value=10**6)),
        c_min=c_min,
        c_max=c_max,
        c_step=draw(_POSITIVE),
        rate_units=draw(st.sampled_from(["per_window", "per_second"])),
    )


@settings(deadline=None, max_examples=150)
@given(cfg=valid_configs(), data=st.data())
def test_config_round_trips_through_file_and_set(cfg, data):
    # one parser serves both routes: a config written as key = value lines,
    # in any order between comments and blank lines, or given as --set
    # items, reads back as the same Config
    pairs = data.draw(st.permutations(
        [(key, value if isinstance(value, str) else repr(value))
         for key, value in asdict(cfg).items()]
    ))
    filler = st.lists(st.sampled_from(["", "   ", "# note", "  #x = 1"]), max_size=2)
    lines = []
    for key, value in pairs:
        lines += data.draw(filler)
        eq = data.draw(st.sampled_from(["=", " = ", "  =\t"]))
        trailer = data.draw(st.sampled_from(["", " ", "  # trailing", "#=2 # x=3"]))
        lines.append(f"{key}{eq}{value}{trailer}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        from_file = parse_config(str(path))
    from_set = parse_config(None, [f"{key}={value}" for key, value in pairs])
    for parsed in (from_file, from_set):
        assert parsed == cfg
        assert repr(parsed) == repr(cfg)  # same types and float bits too


def test_parse_assignments_errors():
    with pytest.raises(ConfigError, match="key=value"):
        parse_assignments(["distance_km"])
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_assignments(["speed=3"])
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_assignments(["fig1_fourth_window_ps=25"])  # fig1's windows are fixed
    with pytest.raises(ConfigError, match="l_steps"):
        parse_assignments(["l_steps=many"])
    with pytest.raises(ConfigError, match="must be finite"):
        parse_assignments(["alpha_db_per_km=inf"])
    with pytest.raises(ConfigError, match="^--set: jitter_ps is set twice$"):
        parse_assignments(["jitter_ps=4", "sigma_ps=3", "jitter_ps=4"])
    with pytest.raises(ConfigError, match="^--set: unknown configuration key 'speed'$"):
        parse_config(None, ["speed=3"])


@pytest.mark.parametrize(
    "override,field",
    [
        ("sigma_ps=0", "sigma_ps"),
        ("window_ps=-5", "window_ps"),
        ("jitter_ps=-1", "jitter_ps"),
        ("l_steps=0", "l_steps"),
        ("c_step=0", "c_step"),
        ("dark_model=gaussian", "dark_model"),
        ("rate_units=per_hour", "rate_units"),
    ],
)
def test_validation_names_field(override, field):
    with pytest.raises(ConfigError, match=field):
        parse_config(None, [override])


def test_validation_cross_field():
    with pytest.raises(ConfigError, match="c_min"):
        parse_config(None, ["c_min=1", "c_max=-1"])
    with pytest.raises(ConfigError, match="l_max_km"):
        parse_config(None, ["l_min_km=20", "l_max_km=10"])


def test_to_params_exact_conversions():
    cfg = parse_config(None, ["jitter_ps=4", "beta_e26=-0.7", "distance_km=30"])
    params = to_params(cfg)
    assert params.jitter == 4 * PS
    assert params.beta == -0.7 * BETA_UNIT
    assert params.sigma == 10 * PS
    assert params.period == 100 * PS
    assert cfg.distance_km * KM == 30e3


def test_point_defaults(capsys):
    assert main(["point"]) == 0
    out = capsys.readouterr().out
    assert "key_rate = 0.3141328553" in out
    assert "qber" in out and "p_raw" in out
    assert "#" not in out


def test_point_ideal_limit(capsys):
    args = [
        "point",
        "--set", "dark_rate_hz=0",
        "--set", "period_ps=1e9",
        "--set", "jitter_ps=0",
        "--set", "window_ps=1e6",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    rate = float(out.split("key_rate = ")[1].split()[0])
    assert abs(rate - 0.5) < 1e-6


def test_point_beyond_extinction(capsys):
    assert main(["point", "--set", "distance_km=120"]) == 0
    out = capsys.readouterr().out
    assert "key_rate = 0\n" in out


def test_point_at_zero_raw_key_probability(capsys):
    # no dark counts: the transmittance underflows to 0 but cancels from the
    # QBER, which the table still reports
    args = ["point", "--set", "dark_rate_hz=0", "--set", "alpha_db_per_km=100"]
    assert main([*args, "--set", "distance_km=35"]) == 0
    out = capsys.readouterr().out
    assert "p_raw    = 0\n" in out and "qber     = 0.1054339285\n" in out
    assert out.endswith("# raw-key probability is zero: no key; qber reads 0.5 if undefined\n")
    # 5000 dark counts per window on average: no window holds zero or one,
    # but the QBER reads them through that mean alone and stays exact
    poisson = ["--set", "dark_model=exact_poisson", "--set", "dark_rate_hz=1e14"]
    assert main(["point", *poisson]) == 0
    out = capsys.readouterr().out
    assert "p_raw    = 0\n" in out and "qber     = 0.4998159294\n" in out
    assert "key_rate = 0\n" in out and "# raw-key probability is zero" in out


def test_point_per_second_units(capsys):
    assert main(["point", "--set", "rate_units=per_second"]) == 0
    out = capsys.readouterr().out
    shown = out.split("key_rate = ")[1].split()[0]
    per_window = evaluate_point(to_params(Config()), 0.0).key_rate
    assert shown == f"{per_window / (100 * PS):.10g}"


def test_sweep_csv_contract(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    args = [
        "sweep",
        "--set", "l_steps=2",
        "--set", "l_max_km=30",
        "--out", str(out),
    ]
    assert main(args) == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4  # header + 3 grid points
    assert lines[1].startswith("0,")
    assert lines[3].startswith("30,")
    # values carry 10 significant digits of the pipeline output
    fields = lines[2].split(",")
    point = evaluate_point(to_params(Config()), 15.0 * KM)
    assert fields[1] == f"{point.p_sig:.10g}"
    assert fields[6] == f"{point.key_rate:.10g}"


# any float, with the cells that format unlike a plain decimal drawn often
_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.floats(),
)


@settings(max_examples=300)
@given(
    rows=st.lists(st.tuples(_CELLS, st.builds(ProtocolPoint, *[_CELLS] * 8)), max_size=4),
    samples=st.lists(st.tuples(_CELLS, _CELLS), max_size=4),
    scale=_CELLS,
)
def test_csv_formats_every_cell_with_10_significant_digits(rows, samples, scale):
    def reference(header, table):
        return "".join(
            line + "\n" for line in [header, *(",".join(f"{v:.10g}" for v in row) for row in table)]
        )

    sweep_rows = [
        (l_km, p.p_sig, p.p_w, p.p_det, p.p_raw, p.qber, p.key_rate * scale) for l_km, p in rows
    ]
    assert _csv(SweepResult(rows=tuple(rows)), scale) == reference(CSV_HEADER, sweep_rows)
    scan = ChirpScanResult(samples=tuple(samples), c_star=0.0, l_max_star=0.0)
    assert _csv(scan, scale) == reference(SCAN_CSV_HEADER, samples)


def test_sweep_dead_at_source_spans_one_km(capsys):
    # the auto-scaled top falls back to 1 km past l_min when L_max = 0
    assert main(["sweep", "--set", "jitter_ps=200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    assert [float(line.split(",")[0]) for line in lines[1:]] == [i / 400 for i in range(401)]
    assert all(line.endswith(",0") for line in lines[1:])


def test_sweep_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["sweep", "--set", "l_steps=5", "--set", "l_max_km=40"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_stdout_and_svg(tmp_path, capsys):
    svg_path = tmp_path / "sweep.svg"
    args = [
        "sweep",
        "--set", "l_steps=3",
        "--set", "l_max_km=30",
        "--svg", str(svg_path),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER + "\n")
    text = svg_path.read_text()
    assert text.startswith("<?xml")
    root = ET.fromstring(text)
    assert root.get("version") == "1.1"
    # the key-rate axis is logarithmic; a flat curve spans one decade
    flat = render_chart([("flat", [0.0, 1.0], [1.0, 1.0])], "t", "x", "y", log_y=True)
    labels = [t.text for t in ET.fromstring(flat).iter("{http://www.w3.org/2000/svg}text")]
    assert "1e0" in labels and "1e1" in labels


def test_lmax_output(capsys):
    assert main(["lmax"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("L_max_km = ")
    value = float(out.split("=")[1])
    assert 36.8 < value < 37.1


def test_main_calls_in_one_process_share_no_state(capsys):
    # main builds its parser once per process and reuses it: each call reads
    # its own --set values and none of an earlier call's
    for sets in (["--set", "chirp=-1"], ["--set", "jitter_ps=25"], []):
        assert main(["lmax", *sets]) == 0
        expected = max_distance(to_params(parse_config(None, sets[1::2])))
        assert capsys.readouterr().out == f"L_max_km = {expected:.10g}\n"


def test_module_entry_point_runs_in_its_own_process(capsys):
    # python -m dispersive_qkd.cli: the module's __main__ guard passes main's
    # status to the process
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "dispersive_qkd.cli", *args],
            capture_output=True, text=True, env=env, check=False, timeout=60,
        )

    assert main(["lmax"]) == 0
    done = run("lmax")
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")
    # 1.5 dark counts per window: the parameter record rejects the
    # linearized model when it is built
    done = run("lmax", "--set", "dark_rate_hz=3e10")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: linearized dark model needs rate*window < 1")


def test_optimize_chirp_output(tmp_path, capsys):
    out_csv = tmp_path / "scan.csv"
    args = [
        "optimize-chirp",
        "--set", "c_min=-0.5",
        "--set", "c_max=0.1",
        "--set", "c_step=0.1",
        "--out", str(out_csv),
    ]
    assert main(args) == 0
    captured = capsys.readouterr()
    c_star = float(captured.out.split("c_star = ")[1].splitlines()[0])
    l_star = float(captured.out.split("L_max_km = ")[1].splitlines()[0])
    assert -0.35 <= c_star <= -0.15
    assert l_star > 36.9
    assert "warning" not in captured.err
    lines = out_csv.read_text().splitlines()
    assert lines[0] == SCAN_CSV_HEADER
    assert len(lines) == 8  # header + 7 grid points


def test_optimize_chirp_boundary_warning(capsys):
    args = [
        "optimize-chirp",
        "--set", "c_min=0.5",
        "--set", "c_max=2",
        "--set", "c_step=0.5",
    ]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "boundary" in captured.err


@pytest.mark.parametrize(
    "c_max, c_step", [("1e17", "0.05"), ("1.0000000000000002e17", "16")]
)
def test_optimize_chirp_chart_of_chirps_ulps_apart(tmp_path, capsys, monkeypatch, c_max, c_step):
    # floats near 1e17 lie 16 apart: c - 0.5 rounds back to c, and a tick
    # step under half an ulp would leave the tick loop at one tick for ever;
    # the wrapper fails such a range before the loop starts
    nice_ticks = chart._nice_ticks

    def advancing(lo, hi):
        step = (hi - lo) / 5  # or more
        assert lo + step > lo and hi + step > hi
        return nice_ticks(lo, hi)

    monkeypatch.setattr(chart, "_nice_ticks", advancing)
    svg = tmp_path / "scan.svg"
    sets = ["--set", "c_min=1e17", "--set", f"c_max={c_max}", "--set", f"c_step={c_step}"]
    assert main(["optimize-chirp", *sets, "--svg", str(svg)]) == 0
    assert capsys.readouterr().out.startswith("c_star = 1e+17\n")
    root = ET.fromstring(svg.read_text())
    assert len(list(root.iter("{http://www.w3.org/2000/svg}polyline"))) == 1


def test_optimize_chirp_step_wider_than_the_range_exits_2(capsys):
    # the grid would hold c_min alone: a scan of one chirp, not of the range
    assert main(["optimize-chirp", "--set", "c_step=10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: c_step 10.0 is wider than [-2.0, 2.0]")


def test_optimize_chirp_range_whose_width_overflows_exits_2(capsys):
    args = ["--set", "c_min=-1e308", "--set", "c_max=1e308", "--set", "c_step=1e308"]
    assert main(["optimize-chirp", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the steps of 1e+308 across [-1e+308, 1e+308] overflow to inf\n"


@pytest.mark.parametrize(
    "xs, ys, axis",
    [([-1e308, 1e308], [1.0, 1.0], "x"), ([1.7976931348623157e308] * 2, [1.0, 1.0], "x"),
     ([0.0, 1.0], [-1e308, 1e308], "y"), ([0.0, 1.0], [0.0, 1.75e308], "y")],
)
def test_render_chart_names_the_axis_whose_span_overflows(xs, ys, axis):
    # no tick step divides an infinite span: a ValueError naming the axis, not
    # an OverflowError from _nice_ticks; the last two overflow only with the
    # x pad of 4 ulps or the y headroom of 5%
    with pytest.raises(ValueError, match=f"^{axis} axis span .* overflows$"):
        render_chart([("a", xs, ys)], "t", "x", "y")


def test_optimize_chirp_dead_at_source_warning(capsys):
    # chirp has no effect at L = 0, so the boundary advice would not help
    args = [
        "optimize-chirp",
        "--set", "sigma_ps=60",
        "--set", "jitter_ps=4",
        "--set", "c_step=0.5",
    ]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.out == "c_star = -2\nL_max_km = 0\n"
    assert "key rate is zero at the source" in captured.err
    assert "boundary" not in captured.err


def test_optimize_chirp_takes_the_far_edges_chirp(capsys):
    # secure along the compensating chirp path c(L) on [0, 1.29] km and
    # again from about 78 to 236 km: the best chirp is the far edge's
    # (C = -1.786, 236.07 km), not the near edge's clipped -2 (234.59 km)
    args = [
        "optimize-chirp",
        "--set", "sigma_ps=86.59643233600653",
        "--set", "beta_e26=-1.778279410038923",
        "--set", "alpha_db_per_km=0.25",
        "--set", "dark_rate_hz=749.8942093324558",
        "--set", "period_ps=133.3521432163324",
        "--set", "window_ps=133.3521432163324",
        "--set", "jitter_ps=0",
        "--set", "c_step=0.5",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    c_star = float(out.split("c_star = ")[1].splitlines()[0])
    l_star = float(out.split("L_max_km = ")[1].splitlines()[0])
    assert -1.80 < c_star < -1.77
    assert l_star > 236.0


def test_optimize_chirp_samples_match_lmax_near_unit_chirps(tmp_path, capsys):
    # the scan starts each grid chirp's search at the edge its last
    # neighbours predict, lmax searches cold; both return the secant of a
    # last bracket at most 10 m wide, about 2e-7 km apart here
    out_csv = tmp_path / "scan.csv"
    assert main(["optimize-chirp", "--out", str(out_csv)]) == 0
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    for target in (-1.0, 1.0):
        chirp, sample = min(rows, key=lambda row: abs(float(row[0]) - target))
        capsys.readouterr()
        assert main(["lmax", "--set", f"chirp={chirp}"]) == 0
        cold = float(capsys.readouterr().out.split("=")[1])
        assert abs(float(sample) - cold) <= 0.001, (chirp, sample, cold)


def test_reproduce_fig2(tmp_path, capsys):
    args = [
        "reproduce", "fig2",
        "--set", "l_steps=20",
        "--out", str(tmp_path),
    ]
    assert main(args) == 0
    err = capsys.readouterr().err
    csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert csvs == [
        "fig2_C-1_j25ps.csv",
        "fig2_C-1_j4ps.csv",
        "fig2_C0_j25ps.csv",
        "fig2_C0_j4ps.csv",
        "fig2_C1_j25ps.csv",
        "fig2_C1_j4ps.csv",
    ]
    for name in csvs:
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 22
        assert f"wrote {tmp_path / name}" in err
    svg = (tmp_path / "fig2.svg").read_text()
    assert svg.startswith("<?xml")
    root = ET.fromstring(svg)
    assert root.get("version") == "1.1"


def test_reproduce_fig3a(tmp_path):
    args = [
        "reproduce", "fig3a",
        "--set", "c_min=-0.5",
        "--set", "c_max=0.1",
        "--set", "c_step=0.1",
        "--out", str(tmp_path),
    ]
    assert main(args) == 0
    csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert csvs == ["fig3a_j10ps.csv", "fig3a_j25ps.csv", "fig3a_j4ps.csv"]
    lines = (tmp_path / "fig3a_j4ps.csv").read_text().splitlines()
    assert lines[0] == SCAN_CSV_HEADER
    assert len(lines) == 8
    assert (tmp_path / "fig3a.svg").exists()


def test_reproduce_unknown_figure_writes_nothing(tmp_path, capsys):
    # fig1 is valid, but no figure is written until every one has run
    out = tmp_path / "figs"
    assert main(["reproduce", "fig1", "fig9", "--set", "l_steps=4", "--out", str(out)]) == 2
    assert "unknown scenario 'fig9'" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_takes_no_svg_path(tmp_path, capsys):
    # each chart goes to <out>/<figure>.svg; reproduce has no --svg
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig2", "--svg", str(tmp_path / "x.svg")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_exit_code_2_on_bad_set(capsys):
    assert main(["point", "--set", "speed=3"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["point", "lmax"])
@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_exit_code_2_on_output_flag_of_a_stdout_command(command, flag, tmp_path, capsys):
    # point and lmax only print: an output path is an argparse error, not
    # a silent no-op
    target = tmp_path / "ignored"
    with pytest.raises(SystemExit) as exc:
        main([command, flag, str(target)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_exit_code_2_on_validation(capsys):
    assert main(["lmax", "--set", "sigma_ps=-1"]) == 2
    assert "sigma_ps" in capsys.readouterr().err


def test_exit_code_2_on_infinite_mean_dark_count(capsys):
    # rate * window overflows to inf; lmax used to print 0 from a nan QBER
    args = ["--set", "dark_model=exact_poisson", "--set", "dark_rate_hz=1e300",
            "--set", "window_ps=1e22"]
    for command in ("lmax", "point"):
        assert main([command, *args]) == 2
        assert "dark_rate * window must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("sigma_ps", ["1e-158", "1e-88", "1e112", "1e172"])
def test_exit_code_2_on_sigma_out_of_range(capsys, sigma_ps):
    # sigma^2 or sigma^4 underflows or overflows: rejected up front, not
    # a traceback or a misleading error from deep in the pipeline
    assert main(["point", "--set", f"sigma_ps={sigma_ps}"]) == 2
    assert "sigma" in capsys.readouterr().err


def test_exit_code_2_on_width_overflow(capsys):
    # a width that leaves the float range is one error line and exit 2,
    # whether the square raises, overflows to inf or beta*L is inf (nan)
    commands = [
        ["point", "--set", "beta_e26=1e180", "--set", "chirp=1", "--set", "distance_km=1"],
        ["lmax", "--set", "beta_e26=1e180"],
        ["lmax", "--set", "beta_e26=1e180", "--set", "chirp=1"],
        ["point", "--set", "beta_e26=1e30", "--set", "distance_km=1e305"],
    ]
    for args in commands:
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: broadened width overflows"), err
        assert err.count("\n") == 1


def test_exit_code_3_on_non_convergence(capsys):
    commands = [
        # lossless dispersionless channel: the secure range never ends
        ["lmax", "--set", "alpha_db_per_km=0", "--set", "beta_e26=0"],
        # no dark counts, no dispersion: the QBER, free of the transmittance,
        # sits near 0.004 at every distance
        ["lmax", "--set", "dark_rate_hz=0", "--set", "beta_e26=0"],
    ]
    for args in commands:
        assert main(args) == 3, args
        assert "converge" in capsys.readouterr().err


def test_no_dark_counts_search_past_a_transmittance_underflow(capsys):
    # at 100 dB/km the transmittance underflows to 0 at 32.29 km, while the
    # QBER crosses its threshold only at about 35.8 km
    ideal = ["--set", "dark_rate_hz=0", "--set", "alpha_db_per_km=100"]
    assert main(["lmax", *ideal]) == 0
    assert capsys.readouterr().out == "L_max_km = 35.81729906\n"
    assert main(["sweep", *ideal, "--set", "l_steps=4"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 6
    # past the underflow the raw-key probability is 0, the QBER is not
    assert rows[-1].split(",")[4:] == ["0", "0.1479064109", "0"]
