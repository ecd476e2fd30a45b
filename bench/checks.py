"""Correctness checks by definition, not against a snapshot of numbers.

Each check returns a list of problems; an empty list means the output is
correct. They hold for any correct implementation, so a numerics change
that moves results within their tolerances (another erf, another root
finder) still passes, while a wrong answer does not.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

from dispersive_qkd import keyrate

# Secure-range tolerance (km) that max_distance and scan_chirp default to.
L_TOL = 0.01
SWEEP_HEADER = "L_km,p_sig,p_w,p_det,p_raw,qber,key_rate"
SCAN_HEADER = "C,L_max_km"
# key_rate may differ from its defining expression by rounding only
RATE_REL_TOL = 1e-12
# CSV cells carry 10 significant digits
CSV_REL_TOL = 1e-8
PS = 1e-12
BETA_UNIT = 1e-26


def _rate(params: keyrate.ScenarioParams, l_km: float) -> float:
    return keyrate.evaluate_point(params, l_km * 1000.0).key_rate


def binary_entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def extinction_edge(params: keyrate.ScenarioParams, l_max: float, tol: float = L_TOL) -> list[str]:
    """L_max is where the rate dies: positive just below, dead just above.

    L_max = 0.0 is accepted only when the rate is already dead at L = 0;
    that is the documented output for focusing chirps whose secure set
    starts beyond the source, so the defect stays visible but is not a
    failure here.
    """
    if not (math.isfinite(l_max) and l_max >= 0.0):
        return [f"L_max {l_max!r} is not a finite distance"]
    if l_max == 0.0:
        if _rate(params, 0.0) > 0.0:
            return ["L_max is 0 but the rate is positive at L = 0"]
        return []
    problems = []
    below = max(0.0, l_max - tol)
    if not _rate(params, below) > 0.0:
        problems.append(f"rate is dead at L_max - tol = {below:.6g} km")
    if _rate(params, l_max + tol) > 0.0:
        problems.append(f"rate is positive at L_max + tol = {l_max + tol:.6g} km")
    return problems


def scan(params: keyrate.ScenarioParams, grid: list[float], result) -> list[str]:
    """Every sample is an extinction edge, and so is the refined optimum."""
    problems = []
    chirps = [c for c, _ in result.samples]
    if chirps != grid:
        problems.append("scan samples do not follow the chirp grid")
    problems += scan_samples(params, result.samples)
    if not grid[0] <= result.c_star <= grid[-1]:
        problems.append(f"c_star {result.c_star} lies outside the grid")
    return problems + scan_star(params, result)


def scan_samples(params: keyrate.ScenarioParams, samples) -> list[str]:
    """Each (C, L_max) sample is an extinction edge of params at chirp C."""
    problems = []
    for c, l_max in samples:
        for p in extinction_edge(replace(params, chirp=c), l_max):
            problems.append(f"C={c:g}: {p}")
    return problems


def scan_star(params: keyrate.ScenarioParams, result) -> list[str]:
    """l_max_star is the extinction edge at c_star, and tops every sample."""
    if not math.isfinite(result.l_max_star):
        return [f"l_max_star {result.l_max_star!r} is not finite"]
    problems = [
        f"at c_star={result.c_star:g}: {p}"
        for p in extinction_edge(replace(params, chirp=result.c_star), result.l_max_star)
    ]
    best = max(l for _, l in result.samples)
    if result.l_max_star < best:
        problems.append(f"l_max_star {result.l_max_star} is below sample {best}")
    return problems


def figure_scan_params(
    fig: str, label: str, base: keyrate.ScenarioParams
) -> keyrate.ScenarioParams:
    """The scenario of a fig3a or fig4a scan curve, read off its label.

    As run_scenario defines them: fig3a scans jitters (label `j<ps>ps`),
    fig4a scans betas in 1e-26 s^2/m at 25 ps jitter (label `beta<b>`),
    both at a 50 ps window. Raises ValueError for any other curve.
    """
    if fig == "fig3a" and label.startswith("j") and label.endswith("ps"):
        return replace(base, window=50 * PS, jitter=float(label[1:-2]) * PS)
    if fig == "fig4a" and label.startswith("beta"):
        return replace(base, window=50 * PS, jitter=25 * PS, beta=float(label[4:]) * BETA_UNIT)
    raise ValueError(f"{fig}_{label} is not a chirp-scan curve")


def point_row(l_km: float, point, rel_tol: float = RATE_REL_TOL) -> list[str]:
    """Finite probabilities, and key_rate == max(0, p_raw (1 - 2 H(qber)))."""
    fields = {
        "p_sig": point.p_sig,
        "p_w": point.p_w,
        "p_det": point.p_det,
        "p_zero": point.p_zero,
        "p_one": point.p_one,
        "p_raw": point.p_raw,
        "qber": point.qber,
        "key_rate": point.key_rate,
    }
    return _row(l_km, fields, rel_tol)


def _row(l_km: float, fields: dict[str, float], rel_tol: float) -> list[str]:
    bad = [k for k, v in fields.items() if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
    if bad:
        return [f"L={l_km:g} km: {', '.join(bad)} not a finite probability"]
    p_raw, q, k = fields["p_raw"], fields["qber"], fields["key_rate"]
    problems = []
    if k > p_raw:
        problems.append(f"L={l_km:g} km: key_rate {k} exceeds p_raw {p_raw}")
    expected = max(0.0, p_raw * (1.0 - 2.0 * binary_entropy(q)))
    if abs(k - expected) > rel_tol * p_raw:
        problems.append(f"L={l_km:g} km: key_rate {k} != p_raw(1-2H(qber)) = {expected}")
    return problems


def sweep(grid: list[float], result) -> list[str]:
    problems = []
    if [l for l, _ in result.rows] != grid:
        problems.append("sweep rows do not follow the distance grid")
    for l_km, point in result.rows:
        problems += point_row(l_km, point)
        if point.degenerate and not (point.qber == 0.5 and point.key_rate == 0.0):
            problems.append(f"L={l_km:g} km: degenerate row is not the 0.5/0 sentinel")
    return problems


def _csv_rows(text: str) -> tuple[str, list[list[float]]]:
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("file does not end with a newline")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:-1]]
    return lines[0], rows


def figure_file(
    path: Path,
    data: bytes,
    scan_params: keyrate.ScenarioParams | None = None,
    c_grid: list[float] | None = None,
) -> list[str]:
    """A reproduce output parses: an SVG document, or a sweep or scan CSV.

    A scan CSV must follow c_grid, and each of its rows must be an
    extinction edge of scan_params at that row's chirp.
    """
    name = path.name
    try:
        if name.endswith(".svg"):
            root = ET.fromstring(data)
            if not root.tag.endswith("svg"):
                return [f"{name}: root element is {root.tag}, not svg"]
            return []
        header, rows = _csv_rows(data.decode("utf-8"))
    except (ValueError, ET.ParseError) as exc:
        return [f"{name}: does not parse ({exc})"]
    if not rows:
        return [f"{name}: no rows"]
    if header == SCAN_HEADER:
        if any(len(r) != 2 for r in rows):
            return [f"{name}: scan rows are not (C, L_max) pairs"]
        if scan_params is None or c_grid is None:
            return [f"{name}: scan CSV without a scenario to check it against"]
        chirps = [c for c, _ in rows]
        if len(chirps) != len(c_grid) or any(
            abs(c - g) > CSV_REL_TOL * max(1.0, abs(g)) for c, g in zip(chirps, c_grid)
        ):
            return [f"{name}: scan rows do not follow the chirp grid"]
        return [f"{name}: {p}" for p in scan_samples(scan_params, rows)]
    if header != SWEEP_HEADER:
        return [f"{name}: unknown header {header!r}"]
    problems = []
    cols = SWEEP_HEADER.split(",")
    for r in rows:
        if len(r) != len(cols):
            return [f"{name}: row has {len(r)} cells, expected {len(cols)}"]
        fields = dict(zip(cols[1:], r[1:]))
        problems += [f"{name}: {p}" for p in _row(r[0], fields, CSV_REL_TOL)]
    return problems
