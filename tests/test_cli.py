import xml.etree.ElementTree as ET

import pytest

from dispersive_qkd.cli import CSV_HEADER, SCAN_CSV_HEADER, main
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
from dispersive_qkd.keyrate import evaluate_point


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


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config("/nonexistent/run.cfg")


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("distance_km = 10\n")
    cfg = parse_config(str(path), ["distance_km=25"])
    assert cfg.distance_km == 25.0


def test_parse_assignments_errors():
    with pytest.raises(ConfigError, match="key=value"):
        parse_assignments(["distance_km"])
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_assignments(["speed=3"])
    with pytest.raises(ConfigError, match="l_steps"):
        parse_assignments(["l_steps=many"])


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
    assert "sentinel" not in out


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


def test_lmax_output(capsys):
    assert main(["lmax"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("L_max_km = ")
    value = float(out.split("=")[1])
    assert 36.8 < value < 37.1


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


def test_exit_code_2_on_bad_set(capsys):
    assert main(["point", "--set", "speed=3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_2_on_validation(capsys):
    assert main(["lmax", "--set", "sigma_ps=-1"]) == 2
    assert "sigma_ps" in capsys.readouterr().err


@pytest.mark.parametrize("sigma_ps", ["1e-158", "1e-88", "1e112", "1e172"])
def test_exit_code_2_on_sigma_out_of_range(capsys, sigma_ps):
    # sigma^2 or sigma^4 underflows or overflows: rejected up front, not
    # a traceback or a misleading error from deep in the pipeline
    assert main(["point", "--set", f"sigma_ps={sigma_ps}"]) == 2
    assert "sigma" in capsys.readouterr().err


def test_exit_code_3_on_non_convergence(capsys):
    # lossless dispersionless channel: the secure range never ends
    args = ["lmax", "--set", "alpha_db_per_km=0", "--set", "beta_e26=0"]
    assert main(args) == 3
    assert "converge" in capsys.readouterr().err
