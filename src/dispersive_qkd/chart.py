"""Minimal deterministic SVG line charts, no plotting dependency.

Output is standalone SVG 1.1 text. Rendering the same data twice produces
byte-identical markup; all coordinates are formatted with fixed precision.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["render_chart"]

_WIDTH = 760
_HEIGHT = 480
_MARGIN_LEFT = 78
_MARGIN_RIGHT = 190
_MARGIN_TOP = 46
_MARGIN_BOTTOM = 58

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
)


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi], about five intervals apart."""
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    ticks, t = [], math.ceil(lo / step) * step
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def render_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    x_label: str,
    y_label: str,
    log_y: bool = False,
) -> str:
    """Render (label, xs, ys) line series to SVG text; log_y drops
    non-positive values."""
    pts_per_series: list[list[tuple[float, float]]] = []
    for _, sx, sy in series:
        pts = [
            (float(x), float(y))
            for x, y in zip(sx, sy)
            if math.isfinite(x) and math.isfinite(y) and (not log_y or y > 0.0)
        ]
        pts_per_series.append(pts)

    all_pts = [p for pts in pts_per_series for p in pts]
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    out.append(
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_esc(title)}</text>'
    )
    if not all_pts:
        out.append(
            f'<text x="{_WIDTH // 2}" y="{_HEIGHT // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">no positive data</text>'
        )
        out.append("</svg>")
        return "\n".join(out) + "\n"

    xs, ys = zip(*all_pts)
    x_lo, x_hi = min(xs), max(xs)
    # a span under 8 ulps widens by 0.5 either side, or by 4 ulps where that
    # is more (from 2**50 on): the tick step, a fifth of the span or more, must
    # exceed half an ulp, or `t += step` in _nice_ticks never moves t
    ulp = math.ulp(max(-x_lo, x_hi))
    if not x_hi - x_lo >= 8.0 * ulp:
        pad = max(0.5, 4.0 * ulp)
        x_lo, x_hi = x_lo - pad, x_hi + pad
    # no tick step divides a span that overflows
    if not x_hi - x_lo < math.inf:
        raise ValueError(f"x axis span [{x_lo}, {x_hi}] overflows")
    y_min, y_max = min(ys), max(ys)
    if log_y:
        hi_dec = math.ceil(math.log10(y_max))
        lo_dec = math.floor(math.log10(y_min))
        lo_dec = max(lo_dec, hi_dec - 12)  # clip runaway tails near extinction
        y_lo, y_hi = float(lo_dec), float(hi_dec)
        if not y_hi > y_lo:
            y_hi = y_lo + 1.0
        y_ticks = [(d, f"1e{d}") for d in range(int(y_lo), int(y_hi) + 1)]
    else:
        y_lo = min(0.0, y_min)
        y_hi = y_max
        if not y_hi > y_lo:
            y_hi = y_lo + 1.0
        y_hi += 0.05 * (y_hi - y_lo)  # headroom above the top curve
        if not y_hi - y_lo < math.inf:
            raise ValueError(f"y axis span [{y_lo}, {y_hi}] overflows")
        y_ticks = [(t, f"{t:g}") for t in _nice_ticks(y_lo, y_hi)]

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x_span, y_span = x_hi - x_lo, y_hi - y_lo

    # axes box
    out.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#000000" stroke-width="1"/>'
    )

    for t in _nice_ticks(x_lo, x_hi):
        x = _MARGIN_LEFT + (t - x_lo) / x_span * plot_w
        out.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_TOP + plot_h}" x2="{x:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h + 5}" stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_MARGIN_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )

    # y ticks hold axis values: the decade exponent on a log axis
    for v, label in y_ticks:
        y = _MARGIN_TOP + (y_hi - v) / y_span * plot_h
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.2f}" '
            f'x2="{_MARGIN_LEFT + plot_w}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )

    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 14}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f"{_esc(x_label)}</text>"
    )
    out.append(
        f'<text x="20" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {_MARGIN_TOP + plot_h / 2:.1f})">'
        f"{_esc(y_label)}</text>"
    )

    # each point maps as the ticks do, formatted in one call; the y range
    # spans every value, so only a log axis clips, at the bottom
    for i, ((label, _, _), pts) in enumerate(zip(series, pts_per_series)):
        color = _PALETTE[i % len(_PALETTE)]
        if pts:
            if log_y:
                vs = [v if v > y_lo else y_lo for v in [math.log10(y) for _, y in pts]]
            else:
                vs = [y for _, y in pts]
            coords = " ".join(
                "%.2f,%.2f" % (_MARGIN_LEFT + (x - x_lo) / x_span * plot_w,
                               _MARGIN_TOP + (y_hi - v) / y_span * plot_h)
                for (x, _), v in zip(pts, vs)
            )
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        ly = _MARGIN_TOP + 14 + 18 * i
        lx = _MARGIN_LEFT + plot_w + 12
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{_esc(label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
