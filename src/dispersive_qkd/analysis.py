"""Distance sweeps, secure-range search, chirp optimization, figure runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, Union

from .keyrate import ProtocolPoint, ScenarioParams, evaluate_point
from .numerics import Bracket, NonConvergenceError, maximize_scalar

__all__ = [
    "GridError",
    "SweepResult",
    "ChirpScanResult",
    "ScenarioResult",
    "SCENARIOS",
    "sweep_distance",
    "max_distance",
    "scan_chirp",
    "default_chirp_grid",
    "distance_grid",
    "run_scenario",
]

_M_PER_KM = 1000.0
# hard stop for the secure-range bracket: far beyond any physical fiber
_BRACKET_CEILING_KM = 1e7


class GridError(ValueError):
    """Sweep or scan grid is empty, unsorted, or out of range."""


@dataclass(frozen=True)
class SweepResult:
    """Pipeline outputs along a distance grid; rows are (L_km, point)."""

    rows: tuple[tuple[float, ProtocolPoint], ...]

    def distances(self) -> tuple[float, ...]:
        return tuple(l for l, _ in self.rows)

    def key_rates(self) -> tuple[float, ...]:
        return tuple(p.key_rate for _, p in self.rows)


@dataclass(frozen=True)
class ChirpScanResult:
    """Secure range across a chirp grid; samples are (chirp, L_max_km).

    c_star/l_max_star refine the best grid cell by golden section.
    at_boundary flags a maximum pinned to a grid edge, where the refined
    value is only as good as the grid allows.
    """

    samples: tuple[tuple[float, float], ...]
    c_star: float
    l_max_star: float
    at_boundary: bool = False


def _increasing(values: Iterable[float], what: str) -> list[float]:
    """values as a list of floats, checked non-empty and strictly increasing."""
    grid = [float(v) for v in values]
    if not grid:
        raise GridError(f"{what} grid is empty")
    for a, b in zip(grid, grid[1:]):
        if not a < b:
            raise GridError(f"{what} grid must be strictly increasing, got {a} then {b}")
    return grid


def sweep_distance(params: ScenarioParams, l_grid: Iterable[float]) -> SweepResult:
    """Evaluate the pipeline on a strictly increasing grid of distances (km)."""
    grid = _increasing(l_grid, "distance")
    if grid[0] < 0:
        raise GridError(f"distances must be >= 0 km, got {grid[0]}")
    rows = tuple((l, evaluate_point(params, l * _M_PER_KM)) for l in grid)
    return SweepResult(rows=rows)


def max_distance(params: ScenarioParams, l_hint: float = 50.0, tol: float = 0.01) -> float:
    """Largest secure distance in km; 0.0 if the rate is dead at L = 0.

    Grows a bracket geometrically from l_hint, then bisects the indicator
    key_rate > 0. The rate itself has a kink at the boundary (the positive
    part clips), so sign bisection is the robust choice over any
    derivative-based root finder.
    """
    if not l_hint > 0:
        raise ValueError(f"l_hint must be > 0 km, got {l_hint}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0 km, got {tol}")

    def secure(l_km: float) -> bool:
        return evaluate_point(params, l_km * _M_PER_KM).key_rate > 0.0

    if not secure(0.0):
        return 0.0
    lo = 0.0
    hi = l_hint
    while secure(hi):
        lo = hi
        hi *= 2.0
        if hi > _BRACKET_CEILING_KM:
            raise NonConvergenceError(
                f"key rate still positive at {lo} km; no extinction point to bracket"
            )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if secure(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scan_chirp(
    params: ScenarioParams,
    c_grid: Iterable[float],
    tol: float = 1e-3,
    l_hint: float = 50.0,
    l_tol: float = 0.01,
) -> ChirpScanResult:
    """Secure range over a chirp grid, refined around the best sample.

    The refinement runs golden section on the cell spanning the best grid
    point's neighbors, then keeps whichever of (refined, best sample) has
    the larger range, so the reported maximum never falls below the grid.
    """
    grid = _increasing(c_grid, "chirp")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")

    def range_at(c: float) -> float:
        return max_distance(replace(params, chirp=c), l_hint=l_hint, tol=l_tol)

    samples = tuple((c, range_at(c)) for c in grid)
    best = max(range(len(samples)), key=lambda i: samples[i][1])
    c_star, l_star = samples[best]
    at_boundary = best in (0, len(grid) - 1)
    if len(grid) > 1:
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, len(grid) - 1)]
        c_ref, l_ref = maximize_scalar(range_at, Bracket(lo, hi), tol)
        if l_ref > l_star:
            c_star, l_star = c_ref, l_ref
    else:
        at_boundary = True
    return ChirpScanResult(
        samples=samples, c_star=c_star, l_max_star=l_star, at_boundary=at_boundary
    )


def default_chirp_grid(
    c_min: float = -2.0, c_max: float = 2.0, c_step: float = 0.05
) -> list[float]:
    """Uniform chirp grid, endpoints included (within a half-step slack)."""
    if not c_step > 0:
        raise GridError(f"c_step must be > 0, got {c_step}")
    if not c_min <= c_max:
        raise GridError(f"need c_min <= c_max, got [{c_min}, {c_max}]")
    n = int(math.floor((c_max - c_min) / c_step + 1e-9))
    return [c_min + k * c_step for k in range(n + 1)]


def distance_grid(
    variants: Sequence[ScenarioParams],
    steps: int,
    l_min: float = 0.0,
    l_max: float | None = None,
) -> list[float]:
    """Distances (km) from l_min to l_max in `steps` equal intervals, ends
    included.

    Without l_max the top is 1.2x the longest secure range among the
    variants, or l_min + 1 km where that does not lie above l_min (every
    variant dead at the source, say).
    """
    if steps < 1:
        raise GridError(f"steps must be >= 1, got {steps}")
    if l_max is None:
        l_max = 1.2 * max(max_distance(p) for p in variants)
        if not l_max > l_min:
            l_max = l_min + 1.0
    return [l_min + (l_max - l_min) * i / steps for i in range(steps + 1)]


Curve = Union[SweepResult, ChirpScanResult]


@dataclass(frozen=True)
class ScenarioResult:
    """Named curves of one standard figure; labels are file-name safe."""

    name: str
    curves: tuple[tuple[str, Curve], ...]


SCENARIOS = ("fig1", "fig2", "fig3a", "fig3b", "fig4a", "fig4b")

_PS = 1e-12
_JITTERS = (4e-12, 25e-12)


def _ps_label(value_s: float) -> str:
    return f"{round(value_s / _PS, 6):g}"


def _variants(
    family: str, params: ScenarioParams, fourth_window: float, third_jitter: float
) -> list[tuple[str, ScenarioParams]]:
    """(label, params) of each curve in a figure family, fig1 to fig4."""
    if family == "fig1":
        windows = sorted({5e-12, 50e-12, 125e-12, fourth_window})
        return [
            (f"v{_ps_label(v)}ps_j{_ps_label(j)}ps",
             replace(params, chirp=0.0, window=v, jitter=j))
            for j in _JITTERS
            for v in windows
        ]
    at_50 = replace(params, window=50e-12)
    if family == "fig2":
        return [
            (f"C{c:g}_j{_ps_label(j)}ps", replace(at_50, chirp=c, jitter=j))
            for j in _JITTERS
            for c in (-1.0, 0.0, 1.0)
        ]
    if family == "fig3":
        return [
            (f"j{_ps_label(j)}ps", replace(at_50, jitter=j))
            for j in sorted({4e-12, 25e-12, third_jitter})
        ]
    return [
        (f"beta{round(b / 1e-26, 6):g}", replace(at_50, jitter=25e-12, beta=b))
        for b in (-1.15e-26, -1.5e-26, -0.7e-26)
    ]


def run_scenario(
    name: str,
    params: ScenarioParams = ScenarioParams(),
    *,
    fourth_window: float = 25e-12,
    third_jitter: float = 10e-12,
    l_steps: int = 400,
    c_grid: Sequence[float] | None = None,
    chirp_tol: float = 1e-3,
) -> ScenarioResult:
    """Materialize one standard figure configuration.

    fig1: rate vs distance for four windows x two jitters, unchirped.
    fig2: rate vs distance for chirp in {-1, 0, 1} x two jitters, 50 ps
    window. fig3a: secure range vs chirp for three jitters; fig3b: the
    per-jitter optimally chirped rate curve against the unchirped one.
    fig4a/fig4b: the same pair across three dispersion strengths at fixed
    25 ps jitter. Scenario-defining fields override `params`; the rest
    (sigma, alpha, dark rate, period, conventions) carry through.
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose one of {SCENARIOS}")
    variants = _variants(name[:4], params, fourth_window, third_jitter)
    if name.startswith(("fig3", "fig4")):
        grid = list(c_grid) if c_grid is not None else default_chirp_grid()
        scans = [(label, p, scan_chirp(p, grid, tol=chirp_tol)) for label, p in variants]
        if name.endswith("a"):
            return ScenarioResult(
                name=name, curves=tuple((label, scan) for label, _, scan in scans)
            )
        variants = [
            (f"{label}_{tag}", replace(p, chirp=c))
            for label, p, scan in scans
            for tag, c in (("C0", 0.0), ("Copt", scan.c_star))
        ]
    distances = distance_grid([p for _, p in variants], l_steps)
    curves = tuple((label, sweep_distance(p, distances)) for label, p in variants)
    return ScenarioResult(name=name, curves=curves)
