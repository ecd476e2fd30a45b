"""Distance sweeps, secure-range search, chirp optimization, figure runs."""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace
from operator import itemgetter

from .keyrate import (
    _BETA_UNIT,
    _KM,
    _PS,
    _QBER_LIMIT,
    ProtocolPoint,
    ScenarioParams,
    _qber_stage,
    _threshold_distance,
    evaluate_point,
)

__all__ = [
    "NonConvergenceError",
    "GridError",
    "SweepResult",
    "ChirpScanResult",
    "ScenarioResult",
    "SCENARIOS",
    "sweep_distance",
    "max_distance",
    "optimal_chirp",
    "scan_chirp",
    "default_chirp_grid",
    "distance_grid",
    "run_scenario",
]

# bench/worker.py traces a layer under this name, the golden-section
# refinement that optimal_chirp replaced; None reads there as an untraced
# attribute. Drop it together with that layer.
maximize_scalar = None
# secure-range search: the first bracket top above its live end, the final
# bracket width, and a hard stop far beyond any physical fiber. The result,
# the secant of the last bracket, lies inside it, at most _L_TOL_KM wide.
# Measured against the edge by bisection to adjacent floats, over 14,240
# live random records it lay 0.47 mm off in the median, 87 mm at the 99th
# percentile, at worst 10.5 mm where the range exceeds 1 km and 1.14 m on
# ranges of metres; over the 42,525 live bench chirp-scan samples of seeds
# 1-4, 0.63 mm in the median and 56 mm at worst. The midpoint was 2.2 m off
# in the median and 5 m at worst
_L_HINT_KM = 50.0
_L_TOL_KM = 0.01
_HALF_TOL_KM = 0.5 * _L_TOL_KM
_BRACKET_CEILING_KM = 1e7
# the most chirps default_chirp_grid builds (its default grid has 81) and
# the most intervals distance_grid takes (400 by default): a chirp step of
# 1e-300 across [-2, 2], or l_steps = 1e11, would ask for a list that
# exhausts memory
_MAX_GRID = 100_000


class NonConvergenceError(RuntimeError):
    """An iterative search exhausted its budget without converging."""


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

    c_star and l_max_star are the closed-form best chirp over the grid's
    span and its secure range (see optimal_chirp), or the best sample where
    that is strictly longer.
    """

    samples: tuple[tuple[float, float], ...]
    c_star: float
    l_max_star: float

    @property
    def at_boundary(self) -> bool:
        """c_star sits on a grid edge, where a wider grid may do better."""
        return self.c_star in (self.samples[0][0], self.samples[-1][0])


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
    # built as a list: tuple() of a generator costs more per row
    rows = tuple([(l, evaluate_point(params, l * _KM)) for l in grid])
    return SweepResult(rows=rows)


def _descent_evaluations(step: float, ratio: float) -> float:
    """Evaluations that a descent whose steps shrink by `ratio` each, the
    next one `step` km long, takes to come within _L_TOL_KM of its fixed
    point: steps until one is shorter than _L_TOL_KM, then about
    1 / (1 - ratio) checks _L_TOL_KM apart; inf where steps do not shrink.
    _edge stops descending from b where this exceeds log2(b / _L_TOL_KM)."""
    if not ratio < 1.0:
        return math.inf
    n = 1.0 / (1.0 - ratio)
    if step > _L_TOL_KM and ratio > 0.0:
        n += math.log(step / _L_TOL_KM) / -math.log(ratio)
    return n


def _secant(lo: float, f_lo: float, hi: float, f_hi: float) -> float:
    """Where the chord through (lo, f_lo) and (hi, f_hi) crosses zero; in
    [lo, hi] where f_lo > 0 >= f_hi."""
    return lo + (hi - lo) * f_lo / (f_lo - f_hi)


def _edge(
    params: ScenarioParams, margin: Callable[[float], float], c0: float, near: float | None = None
) -> float:
    """Far edge (km) of the secure set along a chirp path from the source
    chirp c0: where the QBER margin margin(L) = _QBER_LIMIT - qber of the
    pipeline of params, at the path's chirp at L km, is positive; 0.0 if
    L = 0 lies outside it. The one secure-range search, shared by
    max_distance, whose path holds params.chirp, and optimal_chirp. The
    caller builds the margin and knows c0; the search takes no chirp path.

    With dark counts that is where key_rate > 0. Without them the
    transmittance cancels from the QBER, so the QBER still decides where the
    float transmittance has reached 0 and p_raw and key_rate read 0.

    The source point comes with the record: params._source, computed when
    it was built, is the stage at L = 0 at any chirp, so no search evaluates
    L = 0, and a record dead there returns 0.0 before anything else. Each
    further step runs keyrate._qber_stage, the pipeline up to the QBER,
    through the margin, which passes the path's chirp in: it reads the
    record's mu = rate * window and loss divisor, and no step reads the dark
    model, runs the rate tail, or builds a ProtocolPoint or a ScenarioParams.

    The sign of the margin decides the side of every point. Where the
    source chirp c0 focuses (c0 beta > 0),
    the pulse narrows down to the focal point L_f = c0 sigma^2 /
    ((1 + c0^2) beta), so the secure set may die and start again before
    L_f; past L_f the width only grows, so the margin only falls. L_f is
    the anchor. The bracket's live end is L = 0, or L_f where that is
    secure too.

    The threshold transmittance eta* of a point's window masses is the
    transmittance at which the QBER reaches the threshold at that point's
    width; where it exists (keyrate._threshold_distance says where) it does
    not fall as the width grows. g(L), keyrate._threshold_distance of the
    masses at L, is the distance at which the transmittance falls to their
    eta*, and 0.0 where it does not exist.

    A predicted edge g is checked first: `near`, where the caller has one,
    or with beta = 0, where there is no focal point and the width is
    constant, g(0), the edge itself, where eta* exists. Where g +-
    _L_TOL_KM / 2 lie above L_f (above 0 without one) and below
    _BRACKET_CEILING_KM, the search checks g + _L_TOL_KM / 2, and where that
    is not secure, g - _L_TOL_KM / 2. Where the lower is secure the result
    is the secant of the two, after two evaluations. A secure point past
    L_f proves L_f secure, so where either is secure L_f is never
    evaluated; a secure upper point is the bracket's live end. Where both
    are dead the lower is the top, and the descent from L_f follows.

    Where L_f exists and no point checked around g is secure, one loop
    descends from L_f to the far edge, evaluating one point b per pass, L_f
    first. A secure b ends the loop as the bracket's live end; where L_f is
    secure, that is L_f itself. A dead b is the new top, and its masses give
    the next point, g(b), or b itself where g(b) lies above it (inf where
    eta* rounds to 0). The width falls with L on [0, L_f], so one dead b
    proves all of [g(b), b] dead: there the transmittance is at most eta*(b)
    and eta* is at least eta*(b). So where the secure set splits below a
    dead L_f, the loop reaches its far edge first. Where a step b - g(b) is
    shorter than _L_TOL_KM, the next point is b - _L_TOL_KM instead, and
    where that is secure the search returns the secant of it and b. Where
    g(b) itself is secure (at the edge, by rounding) [g(b), b] is the
    bracket. Near a far edge where eta* climbs almost as fast as the
    transmittance falls, the steps shrink slowly, so each step is weighed
    first. The loop stops, and [0, b] is the bracket for the last dead b,
    where the next point would not lie above 0 (at L_f where eta* does not
    exist), or where _descent_evaluations at the ratio of this step to the
    last exceeds log2(b / _L_TOL_KM). A zero step, where g(b) is not below
    b, restarts that ratio, and a second zero step in a row counts as a
    ratio of 1: where eta* rounds to 0 at every point, the loop would
    otherwise walk down _L_TOL_KM at a time. [b, L_f] is already dead, so
    no secure point above b is missed. A bracket with 0 as its live end is
    not certified: where the set splits inside it, the search may stop at a
    near edge. Below a dead L_f the result does not depend on `near`.

    Elsewhere the top starts _L_HINT_KM above the live end, and a secure top
    doubles until it is not. Above the live end the width only grows and
    the transmittance only falls, so the margin falls through zero once
    there: whatever `near` is, the result lies in a bracket at most
    _L_TOL_KM wide around the same root as without it.
    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on that margin,
    which is smooth where the rate's positive part has a kink, then shrinks
    every bracket, whichever way it was found. Its halving of the
    retained end's margin is the one safeguard against a one-sided stall;
    each step lands at least _L_TOL_KM / 2 inside the bracket, which ends
    the loop. Stops at width _L_TOL_KM and returns the secant of the last
    bracket's ends at their true margins, not the halved ones, as Brent's
    zeroin returns its secant estimate (Algorithms for Minimization without
    Derivatives, 1973, ch. 4): inside that bracket, and on the margin's
    smooth stretch far closer to the root than its midpoint (measured
    figures at _L_TOL_KM). Raises NonConvergenceError where the QBER is
    still below the threshold past _BRACKET_CEILING_KM: a secure range that
    never ends.

    The contract both callers meet: the margin's chirp is c0 from 0 to past
    L_f, since the anchor and the descent, which evaluates the window
    masses at c0 itself, hold only along such a path. max_distance's path
    holds c0 = params.chirp throughout. optimal_chirp's is c0 up to sigma^2
    / (|c0| |beta|), which exceeds L_f by the factor (1 + c0^2) / c0^2.
    """
    p_sig, p_w, _, q = params._source
    f_lo = _QBER_LIMIT - q
    if not f_lo > 0.0:
        return 0.0
    lo, f_hi, g, focal_km = 0.0, None, near, 0.0
    if c0 * params.beta > 0.0:
        s2 = params.sigma * params.sigma
        focal_km = c0 * s2 / ((1.0 + c0 * c0) * params.beta) / _KM
        if not focal_km < _BRACKET_CEILING_KM:
            focal_km = 0.0
    elif params.beta == 0.0:
        if 0.0 < (g_src := _threshold_distance(params, p_sig, p_w)) < math.inf:
            g = g_src
    # past L_f the margin only falls, so a secure probe there proves L_f secure
    if g is not None and focal_km < g - _HALF_TOL_KM and g + _HALF_TOL_KM <= _BRACKET_CEILING_KM:
        hi = g + _HALF_TOL_KM
        f_hi = margin(hi)
        if not f_hi > 0.0:
            l_km = g - _HALF_TOL_KM
            if (f := margin(l_km)) > 0.0:
                return _secant(l_km, f, hi, f_hi)
            hi, f_hi = l_km, f
    if focal_km > 0.0 and (f_hi is None or f_hi <= 0.0):
        # descend from L_f: a dead hi proves [g(hi), hi] dead
        l_km, probe, step = focal_km, False, math.inf
        while True:
            p_sig, p_w, _, q = _qber_stage(params, c0, l_km * _KM)
            f = _QBER_LIMIT - q
            if f > 0.0:
                if probe:
                    return _secant(l_km, f, hi, f_hi)
                lo, f_lo = l_km, f
                break
            hi, f_hi = l_km, f
            l_km = min(_threshold_distance(params, p_sig, p_w), hi)
            if step > 0.0:
                ratio = (hi - l_km) / step
            else:  # a zero step restarts the ratio; two in a row do not shrink
                ratio = 1.0 if l_km == hi else 0.0
            step = hi - l_km
            probe = not l_km < hi - _L_TOL_KM
            if probe:
                l_km = hi - _L_TOL_KM
            if not l_km > 0.0 or _descent_evaluations(step, ratio) > math.log2(hi / _L_TOL_KM):
                break
    if f_hi is None:
        hi = lo + _L_HINT_KM
        f_hi = margin(hi)
    while f_hi > 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        if hi > _BRACKET_CEILING_KM:
            raise NonConvergenceError(
                f"QBER still below the threshold at {lo} km; no extinction point to bracket"
            )
        f_hi = margin(hi)
    # the true margins at the bracket's ends, beside the ones Illinois halves
    m_lo, m_hi = f_lo, f_hi
    side = 0  # the end the last step replaced: -1 lo, +1 hi
    while hi - lo > _L_TOL_KM:
        l_km = min(max(_secant(lo, f_lo, hi, f_hi), lo + _HALF_TOL_KM), hi - _HALF_TOL_KM)
        f = margin(l_km)
        if f > 0.0:
            lo, f_lo, m_lo = l_km, f, f
            if side < 0:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi, m_hi = l_km, f, f
            if side > 0:
                f_lo *= 0.5
            side = 1
    return _secant(lo, m_lo, hi, m_hi)


def max_distance(params: ScenarioParams, near: float | None = None) -> float:
    """Largest secure distance in km; 0.0 if the rate is dead at L = 0.

    The far edge of the set where qber < _QBER_LIMIT (with dark counts,
    where key_rate > 0) at params' own chirp: the secant of _edge's last
    bracket, which holds the edge and is at most _L_TOL_KM wide (measured
    errors at _L_TOL_KM). _edge takes the QBER margin at that chirp, one
    Python call around the stage per step, and the chirp itself as its
    source chirp c0; it starts from the source point the record carries,
    so it never evaluates L = 0. Where a focusing chirp
    splits the secure set, that is the far edge, not the near one: the
    search descends in one loop from the focal point, each dead point
    proving the stretch down to the next one dead, until a live point, the
    focal point itself where the rate is live there. Where the threshold
    transmittance does not exist (keyrate._threshold_distance says where),
    the loop stops at a dead focal point and the search runs between 0 and
    it, and so it does below the lowest dead point where the descent's steps
    shrink too slowly to pay; there it may stop at a near edge. Raises
    NonConvergenceError where the QBER is still below the threshold past
    _BRACKET_CEILING_KM.

    near, a predicted edge in km, only saves evaluations where it is close:
    the search checks _L_TOL_KM / 2 either side of it first, before a focal
    point below it. Whatever its value, the result lies in a bracket at
    most _L_TOL_KM wide around the same edge as the one without it.
    """
    c = params.chirp
    return _edge(params, lambda l_km: _QBER_LIMIT - _qber_stage(params, c, l_km * _KM)[3], c, near)


def optimal_chirp(params: ScenarioParams, c_min: float, c_max: float) -> tuple[float, float]:
    """The chirp in [c_min, c_max] with the longest secure range, and that
    range in km, in closed form along one secure-range search.

    At a fixed distance L the width ((sigma^2 - C beta L)^2 + (beta L)^2) /
    sigma^2 is smallest at C = sigma^2 / (beta L), the pre-chirp that
    compensates the fiber's dispersion (Agrawal, Nonlinear Fiber Optics,
    ch. 3). Where the key rate falls as the detected width grows, the best
    chirp at L is c(L) = clip(sigma^2 / (beta L), c_min, c_max), the best
    range L* is the far edge of the secure set along c(L), found by _edge
    with the QBER margin along c(L) and c(0) as its source chirp, from the
    focal point of c(0) like max_distance's, and this returns
    c(L*) and L*. With beta = 0 the chirp has no effect and this returns the
    value nearest 0 and max_distance(params); where the rate is dead at the
    source, c(0), the edge on beta's side, and 0.0.

    L* is also the fixed-chirp edge at c(L*), max_distance's there, by the
    envelope theorem (Milgrom & Segal, Econometrica 70, 2002): where c(L*)
    lies inside [c_min, c_max] the margin's derivative in C is 0 at (L*,
    c(L*)), and where it is clipped the path's chirp is c(L*) from some
    distance below L* on. Measured over the 693 bench chirp scans of seeds
    1-4 with beta != 0, the two lay at most 2.6e-6 km apart. Where mu >= 1
    the rate may rise with the width, yet over 1,940 live exact-Poisson
    draws with beta != 0 and mu in [1, 3) they lay at most 1.1e-4 km apart.

    The rate falls with the width while the window holds at most one dark
    count on average (mu = rate * window <= 1, where one is no likelier than
    none). Beyond that a missed signal photon yields a raw-key bit more
    often than a detected one, a wider pulse can reach farther, and c(L*)
    may fall short of another chirp; scan_chirp keeps its grid samples for
    this case.
    """
    if not c_min <= c_max:
        raise GridError(f"need c_min <= c_max, got [{c_min}, {c_max}]")
    if params.beta == 0.0:
        return min(max(0.0, c_min), c_max), max_distance(params)
    s2 = params.sigma * params.sigma

    def chirp_at(l_km: float) -> float:
        bl = params.beta * (l_km * _KM)
        c = s2 / bl if bl else math.copysign(math.inf, params.beta)
        return min(max(c, c_min), c_max)

    def margin(l_km: float) -> float:
        return _QBER_LIMIT - _qber_stage(params, chirp_at(l_km), l_km * _KM)[3]

    l_star = _edge(params, margin, chirp_at(0.0))
    return chirp_at(l_star), l_star


def scan_chirp(params: ScenarioParams, c_grid: Iterable[float]) -> ChirpScanResult:
    """Secure range at each chirp of a grid, plus the best chirp overall.

    The scan runs by continuation (Allgower & Georg, Numerical Continuation
    Methods, 1990, ch. 2): the first two chirps start cold, the third at the
    linear extrapolation 2 L_-1 - L_-2 of the last two samples, and each
    later one at the quadratic 3 L_-1 - 3 L_-2 + L_-3 of the last three (an
    even grid, such as default_chirp_grid's, is assumed; on another a
    prediction costs evaluations, not accuracy). The samples are secants,
    so their noise is far below the +-_L_TOL_KM / 2 the search checks
    around a prediction. Each sample lies in a bracket at most _L_TOL_KM
    wide around the same edge as max_distance's cold result (measured
    errors at _L_TOL_KM), and equals it
    where that returns 0.0 or the rate is dead at the focal point, where
    the search descends from the focal point whatever the prediction. The
    width at L = 0 is sigma at any chirp, so a source dead at one grid
    chirp is dead at all.

    The best chirp and its range are optimal_chirp's over the grid's span,
    one search along its path and none at the chirp it returns; a grid
    sample that is strictly longer replaces them, so the reported maximum
    never falls below the grid.
    """
    grid = _increasing(c_grid, "chirp")
    ranges = []
    # the last three samples, newest first, and the prediction from them
    l_1 = l_2 = l_3 = near = None
    for c in grid:
        l_3, l_2, l_1 = l_2, l_1, max_distance(params._at_chirp(c), near)
        ranges.append(l_1)
        if l_3 is not None:
            near = 3.0 * (l_1 - l_2) + l_3
        elif l_2 is not None:
            near = 2.0 * l_1 - l_2
    samples = tuple(zip(grid, ranges))
    # max keeps the first of equal items: a sample wins only where longer
    c_star, l_star = max((optimal_chirp(params, grid[0], grid[-1]), *samples), key=itemgetter(1))
    return ChirpScanResult(samples=samples, c_star=c_star, l_max_star=l_star)


def default_chirp_grid(
    c_min: float = -2.0, c_max: float = 2.0, c_step: float = 0.05
) -> list[float]:
    """Uniform chirp grid, endpoints included (within a half-step slack).

    c_min == c_max gives the one-point grid [c_min]. A step wider than a
    range of positive width is an error: the grid would hold c_min alone.
    So is a grid of more than _MAX_GRID chirps, checked on the count of
    steps before any is built, and so a range whose count of steps
    overflows to inf, as its width does at [-1e308, 1e308].
    """
    if not c_step > 0:
        raise GridError(f"c_step must be > 0, got {c_step}")
    if not c_min <= c_max:
        raise GridError(f"need c_min <= c_max, got [{c_min}, {c_max}]")
    steps = (c_max - c_min) / c_step + 1e-9  # slack for a rounded last step
    if not steps < _MAX_GRID:
        raise GridError(f"c_step {c_step} on [{c_min}, {c_max}] makes over {_MAX_GRID} chirps")
    n = int(steps)
    if n == 0 and c_min < c_max:
        raise GridError(
            f"c_step {c_step} is wider than [{c_min}, {c_max}]; the grid would hold c_min alone"
        )
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
    variant dead at the source, say). More than _MAX_GRID intervals is an
    error, checked before any search or list.
    """
    if steps < 1:
        raise GridError(f"steps must be >= 1, got {steps}")
    if steps > _MAX_GRID:
        raise GridError(f"steps must be <= {_MAX_GRID}, got {steps}")
    if l_max is None:
        l_max = 1.2 * max(max_distance(p) for p in variants)
        if not l_max > l_min:
            l_max = l_min + 1.0
    return [l_min + (l_max - l_min) * i / steps for i in range(steps + 1)]


Curve = SweepResult | ChirpScanResult


@dataclass(frozen=True)
class ScenarioResult:
    """Named curves of one standard figure; labels are file-name safe."""

    name: str
    curves: tuple[tuple[str, Curve], ...]


SCENARIOS = ("fig1", "fig2", "fig3a", "fig3b", "fig4a", "fig4b")

_JITTERS = (4e-12, 25e-12)
_FIG1_WINDOWS = (5e-12, 25e-12, 50e-12, 125e-12)
_FIG3_JITTERS = (4e-12, 10e-12, 25e-12)


def _ps_label(value_s: float) -> str:
    return f"{round(value_s / _PS, 6):g}"


def _variants(family: str, params: ScenarioParams) -> list[tuple[str, ScenarioParams]]:
    """(label, params) of each curve in a figure family, fig1 to fig4."""
    if family == "fig1":
        return [
            (f"v{_ps_label(v)}ps_j{_ps_label(j)}ps",
             replace(params, chirp=0.0, window=v, jitter=j))
            for j in _JITTERS
            for v in _FIG1_WINDOWS
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
            for j in _FIG3_JITTERS
        ]
    return [
        (f"beta{round(b / _BETA_UNIT, 6):g}", replace(at_50, jitter=25e-12, beta=b))
        for b in (-1.15e-26, -1.5e-26, -0.7e-26)
    ]


def run_scenario(
    name: str,
    params: ScenarioParams = ScenarioParams(),
    *,
    l_steps: int = 400,
    c_grid: Sequence[float] | None = None,
) -> ScenarioResult:
    """Materialize one standard figure configuration.

    fig1: rate vs distance for windows {5, 25, 50, 125} ps x jitters {4, 25}
    ps, unchirped. fig2: rate vs distance for chirp in {-1, 0, 1} x jitters
    {4, 25} ps, 50 ps window. fig3a: secure range vs chirp for jitters
    {4, 10, 25} ps; fig3b: the per-jitter rate curve at the scan's best chirp
    (scan_chirp's c_star) against the unchirped one.
    fig4a/fig4b: the same pair across three dispersion strengths at fixed
    25 ps jitter. Scenario-defining fields override `params`; the rest
    (sigma, alpha, dark rate, period, conventions) carry through.
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose one of {SCENARIOS}")
    variants = _variants(name[:4], params)
    if name.startswith(("fig3", "fig4")):
        grid = list(c_grid) if c_grid is not None else default_chirp_grid()
        scans = [(label, p, scan_chirp(p, grid)) for label, p in variants]
        if name.endswith("a"):
            return ScenarioResult(
                name=name, curves=tuple((label, scan) for label, _, scan in scans)
            )
        variants = [
            (f"{label}_{tag}", p._at_chirp(c))
            for label, p, scan in scans
            for tag, c in (("C0", 0.0), ("Copt", scan.c_star))
        ]
    distances = distance_grid([p for _, p in variants], l_steps)
    curves = tuple((label, sweep_distance(p, distances)) for label, p in variants)
    return ScenarioResult(name=name, curves=curves)
