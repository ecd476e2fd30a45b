"""Command-line interface.

Subcommands: `point` (single-distance table), `sweep` (CSV of the pipeline
along a distance grid), `lmax` (secure range), `optimize-chirp` (grid scan
plus the closed-form best chirp), `reproduce` (standard figure datasets and
charts, all six figures unless some are named).

Exit codes: 0 success, 2 configuration or validation error, 3 a numeric
routine failed to converge.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Sequence

from . import analysis
from .chart import render_chart
from .config import KM, PS, Config, ConfigError, parse_config, to_params
from .keyrate import ProtocolPoint, ScenarioParams, evaluate_point

__all__ = ["main", "build_parser", "CSV_HEADER", "SCAN_CSV_HEADER"]

_COLUMNS = ("L_km", "p_sig", "p_w", "p_det", "p_raw", "qber", "key_rate")
CSV_HEADER = ",".join(_COLUMNS)
SCAN_CSV_HEADER = "C,L_max_km"


def _rate_scale(cfg: Config) -> float:
    """Key-rate multiplier: 1 per window, or windows per second.

    A ConfigError where 1 / period overflows (period_ps = 1e-300, say),
    which would print every live key rate as inf and a dead one as nan.
    to_params has rejected a period that rounds to 0 before any command
    runs, and each command that scales takes the scale before it evaluates
    anything.
    """
    if cfg.rate_units != "per_second":
        return 1.0
    scale = 1.0 / (cfg.period_ps * PS)
    if not math.isfinite(scale):
        raise ConfigError(f"per_second needs a finite 1 / period, got period_ps={cfg.period_ps}")
    return scale


def _row(l_km: float, p: ProtocolPoint, scale: float) -> tuple[float, ...]:
    """One distance's values in _COLUMNS order, the key rate times scale."""
    return (l_km, p.p_sig, p.p_w, p.p_det, p.p_raw, p.qber, p.key_rate * scale)


def _csv(curve: analysis.Curve, scale: float) -> str:
    """CSV of a distance sweep (key rate times scale) or of a chirp scan.

    Each row is one %-template of the CLI's one number format, "%.10g",
    which the printed values share: one template per row costs far less
    than one format call per cell.
    """
    if isinstance(curve, analysis.ChirpScanResult):
        lines = [SCAN_CSV_HEADER] + ["%.10g,%.10g" % sample for sample in curve.samples]
    else:
        row = ",".join(["%.10g"] * len(_COLUMNS))
        lines = [CSV_HEADER] + [row % _row(l_km, p, scale) for l_km, p in curve.rows]
    return "\n".join(lines) + "\n"


def _chart(curves: Sequence[tuple[str, analysis.Curve]], title: str, cfg: Config) -> str:
    """SVG of labeled curves: rate vs distance on a log axis, or range vs chirp."""
    if isinstance(curves[0][1], analysis.ChirpScanResult):
        series = [
            (label, [c for c, _ in scan.samples], [l for _, l in scan.samples])
            for label, scan in curves
        ]
        axes = ("chirp", "max secure distance (km)", False)
    else:
        scale = _rate_scale(cfg)
        series = [
            (label, sweep.distances(), [k * scale for k in sweep.key_rates()])
            for label, sweep in curves
        ]
        units = "bits/s" if cfg.rate_units == "per_second" else "bits/window"
        axes = ("distance (km)", f"key rate ({units})", True)
    return render_chart(series, title, *axes)


def _write_text(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(content)


def cmd_point(cfg: Config, params: ScenarioParams, args: argparse.Namespace) -> int:
    scale = _rate_scale(cfg)
    point = evaluate_point(params, cfg.distance_km * KM)
    values = _row(cfg.distance_km, point, scale)
    width = max(map(len, _COLUMNS))
    out_lines = [f"{name:<{width}} = {v:.10g}" for name, v in zip(_COLUMNS, values)]
    if point.degenerate:
        out_lines.append("# raw-key probability is zero: no key; qber reads 0.5 if undefined")
    sys.stdout.write("\n".join(out_lines) + "\n")
    return 0


def cmd_sweep(cfg: Config, params: ScenarioParams, args: argparse.Namespace) -> int:
    scale = _rate_scale(cfg)
    l_max = cfg.l_max_km if cfg.l_max_km >= 0 else None  # negative: auto-scale
    grid = analysis.distance_grid([params], cfg.l_steps, cfg.l_min_km, l_max)
    sweep = analysis.sweep_distance(params, grid)
    csv = _csv(sweep, scale)
    if args.out is None:
        sys.stdout.write(csv)
    else:
        _write_text(args.out, csv)
    if args.svg:
        _write_text(args.svg, _chart([("key rate", sweep)], "Key rate vs distance", cfg))
    return 0


def cmd_lmax(cfg: Config, params: ScenarioParams, args: argparse.Namespace) -> int:
    sys.stdout.write(f"L_max_km = {analysis.max_distance(params):.10g}\n")
    return 0


def cmd_optimize_chirp(cfg: Config, params: ScenarioParams, args: argparse.Namespace) -> int:
    grid = analysis.default_chirp_grid(cfg.c_min, cfg.c_max, cfg.c_step)
    scan = analysis.scan_chirp(params, grid)
    sys.stdout.write(f"c_star = {scan.c_star:.10g}\n")
    sys.stdout.write(f"L_max_km = {scan.l_max_star:.10g}\n")
    if scan.l_max_star == 0.0:
        sys.stderr.write(
            "warning: the key rate is zero at the source, where chirp has no effect; "
            "widening [c_min, c_max] cannot help\n"
        )
    elif scan.at_boundary:
        sys.stderr.write(
            "warning: maximum sits on the scan boundary; widen [c_min, c_max]\n"
        )
    if args.out:
        _write_text(args.out, _csv(scan, 1.0))
    if args.svg:
        _write_text(args.svg, _chart([("secure range", scan)], "Secure range vs chirp", cfg))
    return 0


def cmd_reproduce(cfg: Config, params: ScenarioParams, args: argparse.Namespace) -> int:
    scale = _rate_scale(cfg)
    grid = analysis.default_chirp_grid(cfg.c_min, cfg.c_max, cfg.c_step)
    # every figure is computed before any file is written, so an unknown
    # name or a failed search leaves nothing behind
    results = [
        analysis.run_scenario(name, params, l_steps=cfg.l_steps, c_grid=grid)
        for name in args.figures or analysis.SCENARIOS
    ]
    os.makedirs(args.out or ".", exist_ok=True)
    for result in results:
        files = [
            (f"{result.name}_{label}.csv", _csv(curve, scale))
            for label, curve in result.curves
        ]
        files.append((f"{result.name}.svg", _chart(result.curves, result.name, cfg)))
        # with no --out each file is written and reported by its bare name
        for name, content in files:
            path = os.path.join(args.out or "", name)
            _write_text(path, content)
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
    # sweep and optimize-chirp write one CSV and one chart, reproduce a directory
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", metavar="PATH", help="output file")
    writes.add_argument("--svg", metavar="PATH", help="also render an SVG chart here")

    parser = argparse.ArgumentParser(
        prog="dispersive-qkd",
        description="BB84 key rates for chirped Gaussian pulses in dispersive lossy fiber",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("point", parents=[common], help="evaluate the pipeline at distance_km")
    sub.add_parser(
        "sweep", parents=[common, writes], help="CSV of the pipeline along a distance grid"
    )
    sub.add_parser("lmax", parents=[common], help="largest secure distance in km")
    sub.add_parser(
        "optimize-chirp", parents=[common, writes], help="scan chirp for the largest secure range"
    )
    repro = sub.add_parser(
        "reproduce", parents=[common], help="write standard figures' datasets and charts"
    )
    # no choices: argparse rejects an empty list against them; run_scenario
    # names the figures on an unknown one
    repro.add_argument(
        "figures",
        nargs="*",
        metavar="FIGURE",
        help=f"any of {', '.join(analysis.SCENARIOS)} (default: all six)",
    )
    repro.add_argument("--out", metavar="DIR", help="output directory (default: .)")
    return parser


# built on the first call of main and reused: parse_args leaves the parser
# unchanged, and each call's --set list is a fresh one
_parser = functools.cache(build_parser)

_COMMANDS = {
    "point": cmd_point,
    "sweep": cmd_sweep,
    "lmax": cmd_lmax,
    "optimize-chirp": cmd_optimize_chirp,
    "reproduce": cmd_reproduce,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.sets)
        return _COMMANDS[args.command](cfg, to_params(cfg), args)
    except analysis.NonConvergenceError as exc:
        sys.stderr.write(f"error: did not converge: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
