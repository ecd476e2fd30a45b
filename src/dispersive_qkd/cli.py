"""Command-line interface.

Subcommands: `point` (single-distance table), `sweep` (CSV of the pipeline
along a distance grid), `lmax` (secure range), `optimize-chirp` (grid scan
plus refinement), `reproduce` (standard figure datasets and charts).

Exit codes: 0 success, 2 configuration or validation error, 3 a numeric
routine failed to converge.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from . import analysis
from .chart import Series, render_chart
from .config import KM, PS, Config, ConfigError, parse_config, to_params
from .keyrate import evaluate_point
from .numerics import NonConvergenceError

__all__ = ["main", "build_parser", "CSV_HEADER", "SCAN_CSV_HEADER"]

CSV_HEADER = "L_km,p_sig,p_w,p_det,p_raw,qber,key_rate"
SCAN_CSV_HEADER = "C,L_max_km"


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _rate_scale(cfg: Config) -> float:
    """Key-rate multiplier: 1 per window, or windows per second."""
    if cfg.rate_units == "per_second":
        return 1.0 / (cfg.period_ps * PS)
    return 1.0


def _sweep_csv(sweep: analysis.SweepResult, scale: float) -> str:
    lines = [CSV_HEADER]
    for l_km, p in sweep.rows:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    l_km,
                    p.p_sig,
                    p.p_w,
                    p.p_det,
                    p.p_raw,
                    p.qber,
                    p.key_rate * scale,
                )
            )
        )
    return "\n".join(lines) + "\n"


def _scan_csv(scan: analysis.ChirpScanResult) -> str:
    lines = [SCAN_CSV_HEADER]
    for c, l_max in scan.samples:
        lines.append(f"{_fmt(c)},{_fmt(l_max)}")
    return "\n".join(lines) + "\n"


def _write_text(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(content)


def _emit(content: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(content)
    else:
        _write_text(out, content)


def _chirp_grid(cfg: Config) -> list[float]:
    return analysis.default_chirp_grid(cfg.c_min, cfg.c_max, cfg.c_step)


def _rate_label(cfg: Config) -> str:
    return "key rate (bits/s)" if cfg.rate_units == "per_second" else "key rate (bits/window)"


def cmd_point(cfg: Config, args: argparse.Namespace) -> int:
    params = to_params(cfg)
    point = evaluate_point(params, cfg.distance_km * KM)
    scale = _rate_scale(cfg)
    rows = [
        ("L_km", cfg.distance_km),
        ("p_sig", point.p_sig),
        ("p_w", point.p_w),
        ("p_det", point.p_det),
        ("p_raw", point.p_raw),
        ("qber", point.qber),
        ("key_rate", point.key_rate * scale),
    ]
    width = max(len(name) for name, _ in rows)
    out_lines = [f"{name:<{width}} = {_fmt(value)}" for name, value in rows]
    if point.degenerate:
        out_lines.append("# raw-key probability is zero; qber is the 0.5 sentinel")
    sys.stdout.write("\n".join(out_lines) + "\n")
    return 0


def cmd_sweep(cfg: Config, args: argparse.Namespace) -> int:
    params = to_params(cfg)
    l_max = cfg.l_max_km if cfg.l_max_km >= 0 else None  # negative: auto-scale
    grid = analysis.distance_grid([params], cfg.l_steps, cfg.l_min_km, l_max)
    sweep = analysis.sweep_distance(params, grid)
    scale = _rate_scale(cfg)
    _emit(_sweep_csv(sweep, scale), args.out)
    if args.svg:
        xs = sweep.distances()
        ys = [k * scale for k in sweep.key_rates()]
        svg = render_chart(
            [Series(label="key rate", x=xs, y=ys)],
            title="Key rate vs distance",
            x_label="distance (km)",
            y_label=_rate_label(cfg),
            log_y=True,
        )
        _write_text(args.svg, svg)
    return 0


def cmd_lmax(cfg: Config, args: argparse.Namespace) -> int:
    params = to_params(cfg)
    l_max = analysis.max_distance(params)
    sys.stdout.write(f"L_max_km = {_fmt(l_max)}\n")
    return 0


def cmd_optimize_chirp(cfg: Config, args: argparse.Namespace) -> int:
    params = to_params(cfg)
    scan = analysis.scan_chirp(params, _chirp_grid(cfg))
    sys.stdout.write(f"c_star = {_fmt(scan.c_star)}\n")
    sys.stdout.write(f"L_max_km = {_fmt(scan.l_max_star)}\n")
    if scan.at_boundary:
        sys.stderr.write(
            "warning: maximum sits on the scan boundary; widen [c_min, c_max]\n"
        )
    if args.out:
        _write_text(args.out, _scan_csv(scan))
    if args.svg:
        svg = render_chart(
            [
                Series(
                    label="secure range",
                    x=[c for c, _ in scan.samples],
                    y=[l for _, l in scan.samples],
                )
            ],
            title="Secure range vs chirp",
            x_label="chirp",
            y_label="max secure distance (km)",
            log_y=False,
        )
        _write_text(args.svg, svg)
    return 0


def _scenario_series(
    result: analysis.ScenarioResult, scale: float
) -> tuple[list[Series], bool]:
    """Chart series for a scenario; second value: log-scale y axis."""
    first = result.curves[0][1]
    if isinstance(first, analysis.ChirpScanResult):
        series = [
            Series(label=label, x=[c for c, _ in scan.samples],
                   y=[l for _, l in scan.samples])
            for label, scan in result.curves
        ]
        return series, False
    series = [
        Series(
            label=label,
            x=sweep.distances(),
            y=[k * scale for k in sweep.key_rates()],
        )
        for label, sweep in result.curves
    ]
    return series, True


def cmd_reproduce(cfg: Config, args: argparse.Namespace) -> int:
    params = to_params(cfg)
    outdir = Path(args.out) if args.out else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    result = analysis.run_scenario(
        args.figure,
        params,
        fourth_window=cfg.fig1_fourth_window_ps * PS,
        third_jitter=cfg.fig3_third_jitter_ps * PS,
        l_steps=cfg.l_steps,
        c_grid=_chirp_grid(cfg),
    )
    scale = _rate_scale(cfg)
    written: list[Path] = []
    for label, curve in result.curves:
        path = outdir / f"{result.name}_{label}.csv"
        if isinstance(curve, analysis.ChirpScanResult):
            _write_text(str(path), _scan_csv(curve))
        else:
            _write_text(str(path), _sweep_csv(curve, scale))
        written.append(path)
    series, log_y = _scenario_series(result, scale)
    svg = render_chart(
        series,
        title=result.name,
        x_label="distance (km)" if log_y else "chirp",
        y_label=_rate_label(cfg) if log_y else "max secure distance (km)",
        log_y=log_y,
    )
    svg_path = Path(args.svg) if args.svg else outdir / f"{result.name}.svg"
    _write_text(str(svg_path), svg)
    written.append(svg_path)
    for path in written:
        sys.stderr.write(f"wrote {path}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value config file")
    common.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    common.add_argument("--out", metavar="PATH", help="output file (or directory for reproduce)")
    common.add_argument("--svg", metavar="PATH", help="also render an SVG chart here")

    parser = argparse.ArgumentParser(
        prog="dispersive-qkd",
        description="BB84 key rates for chirped Gaussian pulses in dispersive lossy fiber",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("point", parents=[common], help="evaluate the pipeline at distance_km")
    sub.add_parser("sweep", parents=[common], help="CSV of the pipeline along a distance grid")
    sub.add_parser("lmax", parents=[common], help="largest secure distance in km")
    sub.add_parser(
        "optimize-chirp", parents=[common], help="scan chirp for the largest secure range"
    )
    repro = sub.add_parser(
        "reproduce", parents=[common], help="write a standard figure's datasets and chart"
    )
    repro.add_argument("figure", choices=analysis.SCENARIOS)
    return parser


_COMMANDS = {
    "point": cmd_point,
    "sweep": cmd_sweep,
    "lmax": cmd_lmax,
    "optimize-chirp": cmd_optimize_chirp,
    "reproduce": cmd_reproduce,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.sets)
        return _COMMANDS[args.command](cfg, args)
    except NonConvergenceError as exc:
        sys.stderr.write(f"error: did not converge: {exc}\n")
        return 3
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
