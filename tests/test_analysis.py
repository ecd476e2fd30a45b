import functools
import math
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from dispersive_qkd import analysis, keyrate
from dispersive_qkd.analysis import (
    ChirpScanResult,
    GridError,
    NonConvergenceError,
    SweepResult,
    default_chirp_grid,
    distance_grid,
    max_distance,
    optimal_chirp,
    run_scenario,
    scan_chirp,
    sweep_distance,
)
from dispersive_qkd.keyrate import (
    _QBER_LIMIT,
    DarkCountModel,
    ProtocolPoint,
    ScenarioParams,
    TransmittanceConvention,
    binary_entropy,
    evaluate_point,
)
from oracles import (
    best_grid_range,
    bisection_range,
    composed_point,
    domain_params,
    domain_record,
    live_points,
)

PS = 1e-12
KM = 1e3


def test_sweep_single_point_delegates():
    params = ScenarioParams()
    result = sweep_distance(params, [0.0])
    assert len(result.rows) == 1
    assert result.rows[0][0] == 0.0
    assert result.rows[0][1] == evaluate_point(params, 0.0)


@settings(deadline=None, max_examples=60)
@given(
    params=domain_params(),
    stops=st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=8, unique=True),
)
def test_sweep_rows_equal_composed_points(params, stops):
    grid = sorted(stops)
    try:
        expected = tuple((l, composed_point(params, l * KM)) for l in grid)
    except ValueError:
        with pytest.raises(ValueError):
            sweep_distance(params, grid)
        return
    assert sweep_distance(params, grid).rows == expected


def test_sweep_rate_non_increasing_unchirped():
    result = sweep_distance(ScenarioParams(), list(range(0, 201)))
    rates = result.key_rates()
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_sweep_trailing_zeros_beyond_extinction():
    result = sweep_distance(ScenarioParams(), [0.0, 20.0, 50.0, 120.0])
    assert result.rows[-1][1].key_rate == 0.0
    assert result.rows[-2][1].key_rate == 0.0
    assert result.rows[0][1].key_rate > 0.0


@pytest.mark.parametrize("grid", [[], [5.0, 5.0], [10.0, 3.0], [-1.0, 2.0]])
def test_sweep_grid_validation(grid):
    with pytest.raises(GridError):
        sweep_distance(ScenarioParams(), grid)


def test_max_distance_bracketing_contract():
    params = ScenarioParams()
    tol = 0.01
    l_max = max_distance(params)
    assert evaluate_point(params, (l_max - 2 * tol) * KM).key_rate > 0.0
    assert evaluate_point(params, (l_max + 2 * tol) * KM).key_rate == 0.0


def test_max_distance_agrees_with_local_scan():
    params = ScenarioParams()
    l_max = max_distance(params)
    # 10 m scan across the reported boundary
    live = live_points(params, l_max - 0.2, l_max + 0.2)
    assert abs(l_max - (live[-1] + 0.005)) <= 0.02


def test_max_distance_dead_at_source_returns_zero():
    params = ScenarioParams(jitter=200 * PS)  # swamps the window at L = 0
    assert evaluate_point(params, 0.0).key_rate == 0.0
    assert max_distance(params) == 0.0


def test_max_distance_no_extinction_raises():
    # lossless, dispersionless: the rate never dies. At alpha = 5e-324 the
    # loss per km, alpha / 10, rounds to 0, and the transmittance is 1
    for alpha in (0.0, 5e-324):
        with pytest.raises(NonConvergenceError):
            max_distance(ScenarioParams(alpha=alpha, beta=0.0))


@pytest.mark.parametrize(
    "params, expected",
    [
        # the transmittance underflows to 0 at 16145 km, found while the
        # bracket grows; without it the QBER stays near 0.004 at every
        # distance, so the key never dies
        (ScenarioParams(dark_rate=0.0, beta=0.0), NonConvergenceError),
        # the transmittance underflows to 0 at 32.29 km, inside the first
        # bracket; the QBER crosses its threshold only at about 35.8 km
        (ScenarioParams(dark_rate=0.0, alpha=100.0), 35.8172990558421),
    ],
    ids=["bracket", "bisection"],
)
def test_max_distance_reads_the_qber_past_a_transmittance_underflow(params, expected):
    # with no dark counts the QBER does not depend on the transmittance, so
    # the search still sees the threshold where key_rate reads 0 at p_raw = 0
    if expected is NonConvergenceError:
        with pytest.raises(NonConvergenceError, match="no extinction point"):
            max_distance(params)
    else:
        assert max_distance(params) == expected


def test_max_distance_at_a_subnormal_mean_dark_count_ends_past_the_underflow():
    # mu is one subnormal ulp: once the transmittance underflows, the lone
    # dark count makes the QBER 1/2, so the key dies where the few photons
    # left stop outweighing it (with the 1/2 applied before the division the
    # QBER would read 0.0 there, and the search would find no extinction
    # point)
    params = ScenarioParams(
        sigma=0.3e-9, chirp=-1.0, window=5e-9, period=100e-9, jitter=0.0, dark_rate=1.2e-315
    )
    l_max = max_distance(params)
    assert abs(l_max - 16138.1068) <= 1e-4
    assert evaluate_point(params, (l_max - 0.005) * KM).qber < _QBER_LIMIT
    assert not evaluate_point(params, (l_max + 0.005) * KM).qber < _QBER_LIMIT


def _qber_crossing(params, lo_km, hi_km):
    """Where qber reaches _QBER_LIMIT on [lo_km, hi_km], by bisection down
    to adjacent floats."""
    while (mid := 0.5 * (lo_km + hi_km)) not in (lo_km, hi_km):
        if evaluate_point(params, mid * KM).qber < _QBER_LIMIT:
            lo_km = mid
        else:
            hi_km = mid
    return mid


def test_max_distance_without_dark_counts_ends_at_the_threshold():
    # the crossing is 36.9495 km at 0.2 dB/km; at higher loss the
    # transmittance cancels from the QBER as it underflows, and the crossing
    # settles at 35.8173 km. The secant of the last bracket lands within
    # 1e-8 m of both crossings; the bracket's midpoints were 36.94591 and
    # 35.81412 km
    pinned = {
        0.2: 36.94950176945432,
        64.7: 35.8172990558421,
        100.0: 35.8172990558421,
        1000.0: 35.8172990558421,
    }
    for alpha, l_max in pinned.items():
        params = ScenarioParams(dark_rate=0.0, alpha=alpha)
        assert max_distance(params) == l_max
        assert abs(l_max - _qber_crossing(params, 0.0, 100.0)) <= 1e-6


def _outcome(run):
    """run()'s value, or the type of the search error it raised."""
    try:
        return run()
    except (NonConvergenceError, ValueError) as exc:
        return type(exc)


# A focusing chirp whose focal point, 5e7 km, lies past _BRACKET_CEILING_KM:
# the search sets it aside, grows the bracket from 50 km, and ends at
# 327.4714 km in 13 evaluations
FOCAL_POINT_PAST_THE_CEILING = ScenarioParams(beta=1e-33, chirp=1.0)


def test_max_distance_sets_a_focal_point_past_the_ceiling_aside():
    # the bracket grows from 50 km as without a focal point, within the 13
    # evaluations of EVALUATION_BUDGETS; dispersion this weak moves the edge
    # 0.01 m from the beta = 0 edge, 327.4714106 km
    assert _focal_km(FOCAL_POINT_PAST_THE_CEILING) > analysis._BRACKET_CEILING_KM
    assert abs(max_distance(FOCAL_POINT_PAST_THE_CEILING) - 327.4714206439197) <= 1e-6


@settings(deadline=None, max_examples=200)
@given(params=domain_params())
def test_max_distance_is_an_extinction_edge_no_shorter_than_bisection(params):
    got = _outcome(lambda: max_distance(params))
    assume(isinstance(got, float) and got > 0.0)
    tol = 0.01
    assert evaluate_point(params, max(0.0, got - tol) * KM).key_rate > 0.0
    assert evaluate_point(params, (got + tol) * KM).key_rate == 0.0
    # regula falsi may find a farther edge of a split secure set, never a
    # nearer one
    assert got >= bisection_range(params) - tol


@settings(deadline=None, max_examples=300)
@given(params=domain_params())
def test_max_distance_lies_close_to_the_exact_edge(params):
    # the secant of the last bracket against the edge that bisection of the
    # QBER within 10 m of it finds down to adjacent floats. Over 14,240 live
    # draws of this domain it lay 0.47 mm from the edge in the median and
    # 87 mm at the 99th percentile; at worst 10.5 mm where the range exceeds
    # 1 km, and 1.14 m below, on ranges of metres that one bracket spans.
    # Over the 42,525 live samples of bench chirp_scan seeds 1-4 the worst
    # was 30 mm above 1 km and 56 mm in all. The bracket's midpoint was up
    # to 5 m off, 2.2 m in the median
    got = _outcome(lambda: max_distance(params))
    assume(isinstance(got, float) and got > 0.0)
    lo, hi = max(0.0, got - analysis._L_TOL_KM), got + analysis._L_TOL_KM
    assert evaluate_point(params, lo * KM).qber < _QBER_LIMIT
    assert not evaluate_point(params, hi * KM).qber < _QBER_LIMIT
    bound = 0.05e-3 if got > 1.0 else analysis._L_TOL_KM / 4
    assert abs(got - _qber_crossing(params, lo, hi)) <= bound


def test_bisection_floor_reads_the_qber_without_dark_counts():
    # the transmittance underflows to 0 at about 32.3 km, where key_rate
    # reads 0; both searches decide by qber < _QBER_LIMIT and end near its
    # crossing at 35.817 km, not at the underflow
    params = ScenarioParams(dark_rate=0.0, alpha=100.0)
    assert abs(bisection_range(params) - max_distance(params)) <= 0.01


# Focusing chirps whose secure set splits below the focal point L_f =
# C sigma^2 / ((1 + C^2) beta): secure on about [0, 0.8] and [6.9, 26.8] km
# with the rate live at L_f = 17 km, and on [0, 2.8] and [11.3, 41.5] km with
# it dead at L_f = 53 km. Regula falsi from L = 0 stops at the near edge of
# both.
SPLIT_SETS = {
    "live at L_f": ScenarioParams(
        sigma=29 * PS, chirp=-3.5, beta=-1.3e-26, alpha=0.157, dark_rate=25.0,
        period=10 * PS, jitter=0.0, window=59 * PS,
        dark_model=DarkCountModel.EXACT_POISSON,
        transmittance_convention=TransmittanceConvention.LITERAL,
    ),
    "dead at L_f": ScenarioParams(
        sigma=87 * PS, chirp=-6.7, beta=-2.1e-26, alpha=0.16, dark_rate=285.0,
        period=41 * PS, jitter=0.0, window=230 * PS,
        dark_model=DarkCountModel.EXACT_POISSON,
        transmittance_convention=TransmittanceConvention.LITERAL,
    ),
}


@pytest.mark.parametrize("params", SPLIT_SETS.values(), ids=SPLIT_SETS.keys())
def test_max_distance_finds_the_far_edge_of_a_split_set(params):
    l_max = max_distance(params)
    # 10 m brute scan to 1 km past it
    live = live_points(params, 0.0, l_max + 1.0)
    assert any(b - a > 0.015 for a, b in zip(live, live[1:]))  # the set is split
    assert abs(l_max - (live[-1] + 0.005)) <= 0.01


def _focal_km(params: ScenarioParams) -> float:
    c = params.chirp
    return c * params.sigma * params.sigma / ((1.0 + c * c) * params.beta) / KM


def _dead_at_focal_point(params: ScenarioParams) -> bool:
    """The chirp focuses and the QBER at the focal point L_f is not below
    the threshold, so the search descends from L_f."""
    if not params.chirp * params.beta > 0.0:
        return False
    focal_km = _focal_km(params)
    if not 0.0 < focal_km < analysis._BRACKET_CEILING_KM:
        return False
    return not evaluate_point(params, focal_km * KM).qber < _QBER_LIMIT


# A focusing chirp whose rate is live at L = 0 and dead at L_f = 176.53 km,
# secure up to 2.82 km and again on about [15.5, 23.306] km
DESCENT_SPLIT = ScenarioParams(
    sigma=103 * PS, chirp=-5.6, beta=-1.04e-26, alpha=0.27, dark_rate=47.0,
    period=42 * PS, jitter=0.0, window=300 * PS,
    transmittance_convention=TransmittanceConvention.LITERAL,
)


def test_descent_split_set_ends_at_23_306_km():
    params = DESCENT_SPLIT
    assert evaluate_point(params, 20.0 * KM).key_rate > 0.0
    assert evaluate_point(params, 23.2 * KM).key_rate > 0.0
    # 10 m brute scan from 23.32 km up to L_f
    assert _dead_at_focal_point(params)
    assert not live_points(params, 23.32, _focal_km(params))


def test_max_distance_by_descent_finds_the_far_edge():
    assert abs(max_distance(DESCENT_SPLIT) - 23.306) <= analysis._L_TOL_KM


def test_descent_steps_to_the_top_where_eta_star_rounds_to_0(monkeypatch):
    # where eta* rounds to 0, keyrate._threshold_distance is inf, so the
    # descent takes the dead point itself as its next one and probes
    # _L_TOL_KM below it: here below the dead L_f, its first point
    real_eta_star = keyrate._threshold_transmittance
    real_width = keyrate.broadened_sigma
    calls, lengths = [], []

    def eta_star(p_sig, p_w, mu):
        calls.append(mu)
        return 0.0 if len(calls) == 1 else real_eta_star(p_sig, p_w, mu)

    def width(sigma, chirp, beta, length):
        lengths.append(length)
        return real_width(sigma, chirp, beta, length)

    monkeypatch.setattr(keyrate, "_threshold_transmittance", eta_star)
    monkeypatch.setattr(keyrate, "broadened_sigma", width)
    got = max_distance(DESCENT_SPLIT)
    assert lengths[0] / KM == pytest.approx(_focal_km(DESCENT_SPLIT), rel=1e-12)
    assert lengths[1] / KM == pytest.approx(lengths[0] / KM - analysis._L_TOL_KM, rel=1e-12)
    assert abs(got - 23.306) <= analysis._L_TOL_KM


# A focusing record whose mean dark count is one subnormal ulp, dead at its
# focal point L_f = 76,214 km at C = 0.1, whose key dies where the few
# photons left stop outweighing the lone dark count
SUBNORMAL_MU = ScenarioParams(
    sigma=6.257687260357256e-10, chirp=0.1, beta=5.087095195635695e-28,
    alpha=0.27869356057514527, dark_rate=3.3409642211e-313,
    period=6.307505746626643e-09, jitter=5.233840627765336e-12,
    window=1.478811544037639e-11,
    transmittance_convention=TransmittanceConvention.LITERAL,
)


def _count_widths(monkeypatch):
    """Count evaluations, the calls of keyrate.broadened_sigma; more than
    1000 fail at once, as a descent that walks down _L_TOL_KM at a time."""
    real_width = keyrate.broadened_sigma
    calls = [0]

    def width(*args):
        calls[0] += 1
        assert calls[0] <= 1000, "the descent walks down _L_TOL_KM at a time"
        return real_width(*args)

    monkeypatch.setattr(keyrate, "broadened_sigma", width)
    return calls


@pytest.mark.parametrize(
    "chirp, edge_km, evaluations",
    [(0.05, 1150.8564, 9), (0.1, 1150.8542, 8), (1.0, 1150.8574, 8)],
    ids=["C0.05", "C0.1", "C1"],
)
def test_descent_certifies_the_edge_at_one_subnormal_ulp_of_dark_counts(
    monkeypatch, chirp, edge_km, evaluations
):
    # (1/2 - Q) mu rounds to 0 at mu = 5e-324, but eta* multiplies mu in
    # last and stays positive, so each dead point still proves the stretch
    # below it dead and the descent lands on the edge in a few steps
    params = SUBNORMAL_MU._at_chirp(chirp)
    assert params._mu == 5e-324
    assert _dead_at_focal_point(params)
    calls = _count_widths(monkeypatch)
    l_max = max_distance(params)
    assert calls[0] == evaluations
    assert abs(l_max - edge_km) <= 1e-4
    assert evaluate_point(params, (l_max - 0.005) * KM).qber < _QBER_LIMIT
    assert not evaluate_point(params, (l_max + 0.005) * KM).qber < _QBER_LIMIT


def test_descent_stops_at_a_second_zero_step_where_eta_star_rounds_to_0(monkeypatch):
    # with eta* 0 at every point each dead point proves nothing below
    # itself; from L_f = 76,214 km a descent _L_TOL_KM at a time would take
    # 7.5 million evaluations. The second zero step in a row stops it, and
    # regula falsi shrinks [0, b] to the edge
    assert abs(_focal_km(SUBNORMAL_MU) - 76214.3) <= 0.1
    monkeypatch.setattr(keyrate, "_threshold_transmittance", lambda p_sig, p_w, mu: 0.0)
    calls = _count_widths(monkeypatch)
    l_max = max_distance(SUBNORMAL_MU)
    assert calls[0] <= 30
    assert abs(l_max - 1150.8578) <= 1e-4
    assert evaluate_point(SUBNORMAL_MU, (l_max - 0.005) * KM).qber < _QBER_LIMIT
    assert not evaluate_point(SUBNORMAL_MU, (l_max + 0.005) * KM).qber < _QBER_LIMIT


# bench chirp_scan seed 3, draw 150, at C = -1.5: live at L = 0 and dead at
# L_f = 87.14 km, secure up to 2.44 km and again on about [35.19, 36.13] km
SEED_3_DESCENT_SPLIT = ScenarioParams(
    sigma=4.260033579158412e-11, chirp=-1.5, beta=-9.612073750087993e-27,
    alpha=0.17900013290010736, dark_rate=28.849577455104054,
    period=2.98150714637442e-11, jitter=5.182921823353509e-13,
    window=1.246647203548647e-10,
    transmittance_convention=TransmittanceConvention.LITERAL,
)


def test_seed_3_descent_split_set_ends_at_36_13_km():
    params = SEED_3_DESCENT_SPLIT
    assert _dead_at_focal_point(params)
    # 10 m brute scan from the source up to L_f
    live = live_points(params, 0.0, _focal_km(params))
    assert any(b - a > 0.015 for a, b in zip(live, live[1:]))  # the set is split
    assert abs(live[-1] + 0.005 - 36.13) <= 0.01


def test_max_distance_by_descent_finds_the_far_edge_of_seed_3():
    assert abs(max_distance(SEED_3_DESCENT_SPLIT) - 36.13) <= analysis._L_TOL_KM


# The seed-3 record at C = -1.35 (bench chirp_scan seed 3, draw 150): live
# at L = 0, dead at L_f = 90.30 km, and secure up to 2.4275 km alone. From
# 36.33 km the next step would be 5.08 times the last one, so the descent
# stops there, and regula falsi shrinks [0, 36.33]: 15 evaluations in all
SEED_3_GROWING_STEP = replace(SEED_3_DESCENT_SPLIT, chirp=-1.35)


# bench chirp_scan seed 4, draw 111, at C = 1.3: live at L = 0 and dead at
# L_f = 13.72 km, where the descent's steps shrink ever more slowly (each
# 0.64, 0.74, 0.79, ... of the last, toward 1). Descending all the way to
# the edge at 2.096 km took 140 evaluations, so the search stops descending
# and runs regula falsi between 0 and the lowest dead point instead.
SLOW_DESCENT = ScenarioParams(
    sigma=4.2280149637714903e-11, chirp=1.3, beta=6.298976516806349e-26,
    alpha=0.26145921942116473, dark_rate=306040.1621582329,
    period=4.863362802417947e-11, jitter=0.0, window=7.537730652139107e-11,
    dark_model=DarkCountModel.EXACT_POISSON,
)


# draws of the domain, the chirp given beta's sign so that it focuses, live
# at L = 0 and dead at L_f <= 150 km (so the 10 m scan below stays short),
# with 0 < mu < 1, where the search descends from L_f
_FOCUSING = domain_params().map(lambda p: replace(p, chirp=math.copysign(p.chirp, p.beta)))
_DEAD_AT_FOCAL_POINT = _FOCUSING.filter(
    lambda p: p.dark_rate * p.window < 1.0
    and p.chirp * p.beta > 0.0
    and _focal_km(p) <= 150.0
    and evaluate_point(p, 0.0).key_rate > 0.0
    and _dead_at_focal_point(p)
)


@settings(deadline=None, max_examples=10, suppress_health_check=[HealthCheck.filter_too_much])
@given(params=_DEAD_AT_FOCAL_POINT)
@example(params=DESCENT_SPLIT)
@example(params=SEED_3_DESCENT_SPLIT)
@example(params=SEED_3_GROWING_STEP)
@example(params=SLOW_DESCENT)
def test_max_distance_from_a_dead_focal_point_is_the_far_edge(params):
    # 10 m brute scan: nothing live from a step above the result up to L_f,
    # and live half a step below it (or at the source), on draws that
    # domain_params seldom makes
    got = max_distance(params)
    tol = analysis._L_TOL_KM
    assert not live_points(params, got + tol, _focal_km(params))
    assert evaluate_point(params, max(0.0, got - tol / 2) * KM).key_rate > 0.0


# The split record with 1.5 dark counts per window under exact Poisson,
# where eta* does not exist: live at L = 0 and dead at L_f = 176.53 km,
# secure up to about 0.055 km
SPLIT_WITHOUT_ETA_STAR = replace(
    DESCENT_SPLIT, dark_model=DarkCountModel.EXACT_POISSON, dark_rate=1.5 / DESCENT_SPLIT.window
)

# focusing draws without eta* (no dark counts, or mu >= 1 under exact
# Poisson), live at L = 0 and dead at L_f <= 60 km, where the bracket is
# [0, L_f]; domain_params seldom makes them
_WITHOUT_ETA_STAR = _FOCUSING.flatmap(
    lambda p: st.one_of(
        st.just(replace(p, dark_rate=0.0)),
        st.floats(min_value=1.0, max_value=2.0).map(
            lambda mu: replace(
                p, dark_model=DarkCountModel.EXACT_POISSON, dark_rate=mu / p.window
            )
        ),
    )
).filter(
    lambda p: not 0.0 < p.dark_rate * p.window < 1.0
    and p.chirp * p.beta > 0.0
    and _focal_km(p) <= 60.0
    and evaluate_point(p, 0.0).key_rate > 0.0
    and _dead_at_focal_point(p)
)


@settings(deadline=None, max_examples=10, suppress_health_check=[HealthCheck.filter_too_much])
@given(params=_WITHOUT_ETA_STAR)
@example(params=SPLIT_WITHOUT_ETA_STAR)
def test_max_distance_without_eta_star_below_a_dead_focal_point(params):
    # regula falsi on [0, L_f]: the far edge by a 10 m brute scan up to L_f,
    # within the worst-case budget
    got = []
    with pytest.MonkeyPatch.context() as mp:
        used = _counted_evaluations(mp, lambda: got.append(max_distance(params)))
    tol = analysis._L_TOL_KM
    assert not live_points(params, got[0] + tol, _focal_km(params))
    assert evaluate_point(params, max(0.0, got[0] - tol / 2) * KM).key_rate > 0.0
    assert used <= 30


# Secure on about [0, 1.01] and [7.03, 7.81] km below a dead L_f = 13.57 km.
# The descent's step ratios rise 0.54, 0.63, 0.69, so it stops at 8.36 km
# for slow contraction. Regula falsi on [0, 8.36] finds the far edge,
# 7.8107 km, in 9 evaluations in all; bisecting that bracket landed on the
# near edge (1.0164 km) in 16, and descending on would take 25
SLOW_DESCENT_SPLIT = ScenarioParams(
    sigma=4.026084834749438e-11, chirp=-8.200251443070414,
    beta=-1.4348785893431098e-26, alpha=0.1902399425867495,
    dark_rate=55364632.07282456, period=1.8643709033706552e-11,
    jitter=0.0, window=8.809110725835379e-11,
    transmittance_convention=TransmittanceConvention.LITERAL,
)


def test_max_distance_after_a_slow_descent_finds_the_far_edge():
    params = SLOW_DESCENT_SPLIT
    far_km = live_points(params, 0.0, 14.0)[-1] + 0.005  # 10 m brute scan
    assert abs(max_distance(params) - far_km) <= analysis._L_TOL_KM


def _compensating_chirp(params, c_min, c_max, l_km):
    """optimal_chirp's path c(L) at l_km, in its float order."""
    bl = params.beta * (l_km * KM)
    c = params.sigma * params.sigma / bl if bl else math.copysign(math.inf, params.beta)
    return min(max(c, c_min), c_max)


@settings(deadline=None, max_examples=100)
@given(
    params=domain_params(),
    offset=st.one_of(st.just(0.0), st.floats(min_value=-30.0, max_value=30.0)),
)
@example(params=DESCENT_SPLIT, offset=0.0)
@example(params=SEED_3_DESCENT_SPLIT, offset=0.0)
@example(params=SEED_3_GROWING_STEP, offset=0.0)
@example(params=SLOW_DESCENT, offset=0.0)
@example(params=SLOW_DESCENT_SPLIT, offset=0.0)
@example(params=SUBNORMAL_MU, offset=0.0)
def test_each_search_returns_the_secant_of_a_bracket_at_most_the_tolerance_wide(
    params, offset
):
    # a search with a positive range returns its last secant, and that
    # secant's bracket is at most _L_TOL_KM wide, give or take the rounding
    # of its ends: cold, with a prediction `offset` km off the cold edge,
    # and along optimal_chirp's path, whose edge it returns with the chirp
    # there
    calls = []
    real = analysis._secant

    def secant(lo, f_lo, hi, f_hi):
        calls.append((lo, hi, real(lo, f_lo, hi, f_hi)))
        return calls[-1][2]

    def last_secant():
        lo, hi, x = calls[-1]
        assert hi - lo <= analysis._L_TOL_KM + 4.0 * math.ulp(hi), (lo, hi)
        calls.clear()
        return x

    with mock.patch.object(analysis, "_secant", secant):
        cold = _outcome(lambda: max_distance(params))
        if isinstance(cold, float) and cold > 0.0:
            assert last_secant() == cold
            warm = _outcome(lambda: max_distance(params, near=cold + offset))
            if isinstance(warm, float):
                assert last_secant() == warm
        calls.clear()
        best = _outcome(lambda: optimal_chirp(params, -2.0, 2.0))
        if isinstance(best, tuple) and best[1] > 0.0:
            c_star, l_star = best
            assert last_secant() == l_star
            if params.beta != 0.0:
                assert _compensating_chirp(params, -2.0, 2.0, l_star) == c_star


def _count_calls(monkeypatch, owner, name: str, calls: Counter | None = None) -> Counter:
    """Wrap owner.name so that each call adds one to calls[name]; returns
    calls, a new Counter unless one is passed in to share."""
    calls = Counter() if calls is None else calls
    real = getattr(owner, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _counted_evaluations(monkeypatch, run) -> int:
    # every evaluation, through evaluate_point or a search's stages, widens
    # the pulse exactly once
    calls = _count_calls(monkeypatch, keyrate, "broadened_sigma")
    run()
    return calls["broadened_sigma"]


# (record, evaluations), the source point read from the record: plain
# bisection of key_rate > 0 took 15 on the defaults; the overlapping windows
# took 21 while a bisection step followed any two regula falsi steps that
# did not halve the bracket; the records dead at L_f took 16 each while the
# search bisected there. The descent from L_f
# contracts linearly (each step about 0.8 of the last) on the seed-3 record.
# On the slow-descent records it took 140 and 25 to the edge; stopping it and
# running regula falsi on [0, b] takes 7 and 9, where bisecting [0, b] took
# 14 and 16. Without eta* the split record took 17 while the search
# bisected [0, L_f]. The growing-step record stops its descent for a step
# longer than the last, and the record past the ceiling sets its focal point
# aside and grows the bracket from 50 km.
EVALUATION_BUDGETS = {
    "defaults": (ScenarioParams(), 6),
    "overlapping windows": (
        ScenarioParams(
            sigma=47 * PS, chirp=0.1, beta=0.48e-26, alpha=0.276, dark_rate=906.0,
            period=14.6 * PS, jitter=9.6 * PS, window=172 * PS,
        ),
        10,
    ),
    "dead at L_f": (SPLIT_SETS["dead at L_f"], 3),
    "dead at L_f, split": (DESCENT_SPLIT, 7),
    "dead at L_f, seed 3": (SEED_3_DESCENT_SPLIT, 23),
    "dead at L_f, slow descent": (SLOW_DESCENT, 7),
    "dead at L_f, slow descent, split": (SLOW_DESCENT_SPLIT, 9),
    "dead at L_f, without eta*": (SPLIT_WITHOUT_ETA_STAR, 6),
    "dead at L_f, growing step": (SEED_3_GROWING_STEP, 15),
    "focal point past the ceiling": (FOCAL_POINT_PAST_THE_CEILING, 13),
}


def test_max_distance_evaluation_budget(monkeypatch):
    for name, (params, budget) in EVALUATION_BUDGETS.items():
        used = _counted_evaluations(monkeypatch, lambda: max_distance(params))
        assert 0 < used <= budget, name


@settings(deadline=None, max_examples=200)
@given(params=domain_params())
@example(params=SLOW_DESCENT)
def test_max_distance_evaluation_worst_case(params):
    # the 62,976 searches of bench chirp_scan seeds 1-4 take at most 14, 16,
    # 23 and 14, and 49,402 random draws dead at L_f took at most 24 while
    # each search evaluated its source itself: a descent from a dead L_f
    # that would contract slowly stops, and regula falsi shrinks [0, b]
    # instead
    with pytest.MonkeyPatch.context() as mp:
        assert _counted_evaluations(mp, lambda: _outcome(lambda: max_distance(params))) <= 30


def test_max_distance_warm_above_a_live_focal_point_skips_it(monkeypatch):
    # a focusing chirp live at L_f = 17 km, its edge predicted to within
    # 5 m: 5 m on either side of the prediction, the source read from the
    # record. The margin only falls past L_f, so the live lower probe proves
    # L_f live, and the search never evaluates it (4 while it checked L_f
    # first, 3 while it evaluated the source)
    params = SPLIT_SETS["live at L_f"]
    cold = max_distance(params)
    near = cold + 0.004
    assert cold > _focal_km(params)
    got = []
    assert _counted_evaluations(monkeypatch, lambda: got.append(max_distance(params, near))) == 2
    assert abs(got[0] - cold) <= 1e-6


def test_searches_read_the_source_point_from_the_record(monkeypatch):
    # each record evaluates L = 0 once, when it is built; no search, warm or
    # cold, split or not, evaluates it again
    records = [params for params, _ in EVALUATION_BUDGETS.values()]
    lengths = []
    real = keyrate.broadened_sigma

    def recorded(sigma, chirp, beta, length):
        lengths.append(length)
        return real(sigma, chirp, beta, length)

    monkeypatch.setattr(keyrate, "broadened_sigma", recorded)
    for params in records:
        max_distance(params)
        max_distance(params, near=1.0)
    scan_chirp(records[0], default_chirp_grid())
    assert lengths and 0.0 not in lengths


def test_scan_chirp_evaluation_budget(monkeypatch):
    # plain bisection took 1,245: 15 per grid chirp, plus c_star's searches;
    # a cold search per grid chirp took 644, the scan by linear continuation
    # from midpoint edges 504, by second-order continuation from secant edges
    # 306, with the source point read from the record 223, and with
    # optimal_chirp's own range in place of a second search at c_star 216
    grid = default_chirp_grid()
    params = ScenarioParams()
    assert 0 < _counted_evaluations(monkeypatch, lambda: scan_chirp(params, grid)) <= 216


def test_figures_evaluation_budget(monkeypatch):
    # run_scenario over the six figures with defaults makes 13,303, counting
    # one evaluation of the source point per record a figure builds: fig1
    # 3,261, fig2 2,454, fig3a 669, fig3b 3,118, fig4a 676, fig4b 3,125
    # (13,395 while each scan searched again at c_star; 14,386 while each
    # search evaluated its source; 16,744 with midpoint edges and linear
    # continuation, fig3a 1,547 and fig4a 1,513)
    def run():
        for name in analysis.SCENARIOS:
            run_scenario(name)

    assert 0 < _counted_evaluations(monkeypatch, run) <= 13_303


PREDICTED = {
    "defaults": ScenarioParams(),
    "live at L_f": SPLIT_SETS["live at L_f"],
    "dead at L_f": SPLIT_SETS["dead at L_f"],
}


@pytest.mark.parametrize("params", PREDICTED.values(), ids=PREDICTED.keys())
def test_max_distance_with_any_prediction_stays_within_the_tolerance(params):
    # the margin falls through zero once above the bracket's live end, so a
    # prediction, near or far, in range or not, moves no result by more than
    # _L_TOL_KM; dead at L_f, the search descends from there and ignores it
    cold = max_distance(params)
    predictions = [cold, cold - 30.0, cold + 30.0, 1e-3, 2.0 * analysis._BRACKET_CEILING_KM]
    if params.chirp * params.beta > 0.0:
        predictions.append(0.5 * _focal_km(params))  # below L_f
    for near in predictions:
        got = max_distance(params, near=near)
        if _dead_at_focal_point(params):
            assert got == cold, near
        assert abs(got - cold) <= analysis._L_TOL_KM, near


def test_max_distance_at_its_own_prediction_checks_the_edge_alone(monkeypatch):
    # 5 m on either side of the predicted edge, the source read from the
    # record (6 cold)
    params = ScenarioParams()
    cold = max_distance(params)
    got = []
    assert _counted_evaluations(monkeypatch, lambda: got.append(max_distance(params, near=cold))) <= 2
    assert abs(got[0] - cold) <= analysis._L_TOL_KM


def test_max_distance_without_dispersion_is_the_threshold_transmittance_edge(monkeypatch):
    # with beta = 0 the width is constant, so the distance at which the
    # transmittance falls to the threshold transmittance of the source's
    # window masses is the edge: the search reads the source's masses from
    # the record, then checks 5 m on either side of it (growing the bracket
    # from 50 km took 14)
    params = ScenarioParams(beta=0.0)
    got = []
    assert _counted_evaluations(monkeypatch, lambda: got.append(max_distance(params))) <= 2
    assert abs(got[0] - _qber_crossing(params, 0.0, 400.0)) <= 1e-6
    assert abs(got[0] - 327.4714106) <= 1e-6


def test_scan_chirp_without_dispersion_evaluation_budget(monkeypatch):
    # 2 evaluations per grid chirp and for optimal_chirp's range (1,148 from
    # 50 km, 246 while each search evaluated the source)
    grid = default_chirp_grid()
    params = ScenarioParams(beta=0.0)
    assert 0 < _counted_evaluations(monkeypatch, lambda: scan_chirp(params, grid)) <= 164


def test_max_distance_first_top_at_the_threshold_distance(monkeypatch):
    # where the width grows, the edge (21.7774 km by bisection here) lies
    # below the distance at which the transmittance falls to the source's
    # threshold transmittance (31.22 km), so that distance would be a valid
    # first bracket top; with beta != 0 the search starts from 50 km, which
    # it reaches in the same 7 evaluations. The searches read the threshold
    # transmittance only with beta = 0: a first top 10 m above that
    # distance here would end the search at 21.7773921019 km
    params = ScenarioParams(dark_rate=1e9)
    p_sig, p_w, _, _ = params._source
    g = keyrate._threshold_distance(params, p_sig, p_w)
    assert abs(g - 31.22) <= 0.01
    assert not evaluate_point(params, g * KM).key_rate > 0.0
    got = []
    assert 0 < _counted_evaluations(monkeypatch, lambda: got.append(max_distance(params))) <= 7
    assert abs(got[0] - 21.77739208381893) <= 1e-9


def test_scan_chirp_builds_no_parameter_record(monkeypatch):
    # each grid chirp's record copies the validated one with only the chirp
    # checked; replace(params, chirp=c) ran __post_init__ 82 times here
    params = ScenarioParams()
    built = _count_calls(monkeypatch, ScenarioParams, "__post_init__")
    result = scan_chirp(params, default_chirp_grid())
    assert built["__post_init__"] == 0
    assert len(result.samples) == 81


def test_secure_range_search_builds_no_point_record(monkeypatch):
    # the searches read keyrate._qber_stage's tuple; sweeps still build records
    built = _count_calls(monkeypatch, ProtocolPoint, "__init__")
    scan_chirp(ScenarioParams(), [-1.0, -0.2, 1.0])
    assert built["__init__"] == 0
    sweep_distance(ScenarioParams(), [0.0, 10.0])
    assert built["__init__"] == 2


def test_sweep_across_the_edge_builds_a_point_per_row_and_rates_rows_below_the_limit(
    monkeypatch,
):
    # past _QBER_LIMIT evaluate_point writes the rate 0.0 without key_rate
    params = ScenarioParams()
    grid = distance_grid([params], 40)
    calls = _count_calls(monkeypatch, ProtocolPoint, "__init__")
    _count_calls(monkeypatch, keyrate, "key_rate", calls)
    rows = sweep_distance(params, grid).rows
    below = sum(1 for _, point in rows if point.qber < _QBER_LIMIT)
    assert 0 < below < len(rows) == 41
    assert calls == {"__init__": 41, "key_rate": below}


def test_secure_range_search_runs_no_dark_model_or_rate_tail(monkeypatch):
    # the search reads the QBER alone, through mu = rate * window, so it
    # never asks the dark model for p_zero and p_one nor computes the rate;
    # the record asks the dark model once, when it is built, and
    # evaluate_point reads its answer from there
    names = ("dark_probs", "key_rate", "binary_entropy")
    calls = Counter(dict.fromkeys(names, 0))
    for name in names:
        real = getattr(keyrate, name)
        for module in (keyrate, analysis):
            if getattr(module, name, None) is real:
                _count_calls(monkeypatch, module, name, calls)
    params = ScenarioParams()
    built = dict.fromkeys(names, 0) | {"dark_probs": 1}
    assert calls == built
    max_distance(params)
    assert calls == built
    evaluate_point(params, 0.0)
    assert calls == dict.fromkeys(names, 1)


@settings(deadline=None, max_examples=200)
@given(params=domain_params())
def test_max_distance_does_not_depend_on_the_dark_model(params):
    # both models give p_one / p_zero = mu = rate * window, the QBER reads
    # nothing else of them, so below one dark count per window the secure
    # range is the same float under either
    assume(params.dark_rate * params.window < 1.0)

    def under(model):
        return _outcome(lambda: max_distance(replace(params, dark_model=model)))

    assert under(DarkCountModel.PAPER_LINEARIZED) == under(DarkCountModel.EXACT_POISSON)


def test_optimal_chirp_builds_no_parameter_record(monkeypatch):
    # the search passes each step's chirp to keyrate._qber_stage, not a record
    params = ScenarioParams()
    built = _count_calls(monkeypatch, ScenarioParams, "__post_init__")
    optimal_chirp(params, -2.0, 2.0)
    assert built["__post_init__"] == 0


@pytest.mark.parametrize(
    "jitter_ps, best_window_ps, peak_km, limit_km, at_50ps_km",
    [(4, 18.5, 43.161, 42.927, 42.501), (25, 22.0, 37.540, 37.178, 36.949)],
    ids=["jitter4", "jitter25"],
)
def test_range_against_window_peaks_between_the_zero_limit_and_50_ps(
    jitter_ps, best_window_ps, peak_km, limit_km, at_50ps_km
):
    # what the model predicts where acceptance criterion 07 fails: on the
    # defaults at C = 0 the range peaks at a window near 19 ps
    # (4 ps jitter) or 22 ps (25 ps jitter), and as the window goes to 0,
    # where p_sig, p_w and mu all scale with it, it tends to a limit that
    # lies below the peak but above the 50 ps range. The peak is flat to a
    # few cm over +-0.5 ps, so its window is pinned to a step of the grid
    def l_max(window_ps):
        return max_distance(ScenarioParams(jitter=jitter_ps * PS, window=window_ps * PS))

    ranges = {w: l_max(w) for w in (1.0 + 0.5 * k for k in range(99))}
    best = max(ranges, key=ranges.get)
    assert abs(best - best_window_ps) <= 0.5
    assert abs(ranges[best] - peak_km) <= 0.01
    assert abs(ranges[50.0] - at_50ps_km) <= 0.01
    assert abs(l_max(0.001) - limit_km) <= 0.01
    assert ranges[50.0] < l_max(0.001) < ranges[best]


@pytest.mark.parametrize("window", [1e-20, 1e-26, 1e-300])
def test_max_distance_at_a_vanishing_window_is_the_zero_window_limit(window):
    # a window narrow against the detected spread takes the neighbor mass
    # from the midpoint series; the difference of upper tails read 0 from
    # about 1e-26 s down, and the range then 277.309 km
    assert abs(max_distance(ScenarioParams(window=window)) - 37.178) <= 0.01


def test_qber_limit_is_where_the_rate_factor_dies():
    q = analysis._QBER_LIMIT
    assert 1.0 - 2.0 * binary_entropy(math.nextafter(q, 0.0)) > 0.0
    assert 1.0 - 2.0 * binary_entropy(q) <= 0.0


@settings(deadline=None, max_examples=40)
@given(
    params=domain_params(),
    chirps=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=6, unique=True),
)
def test_scan_chirp_samples_are_replaced_params_ranges(params, chirps):
    # each sample is the secure range of the params rebuilt with that chirp:
    # exactly where that search returns 0.0 or is dead at L_f, and
    # within _L_TOL_KM where the scan's predicted edge started it
    grid = sorted(chirps)
    expected = _outcome(lambda: [max_distance(replace(params, chirp=c)) for c in grid])
    got = _outcome(lambda: scan_chirp(params, grid).samples)
    if not isinstance(expected, list):
        assert got == expected
        return
    assert [c for c, _ in got] == grid
    for (c, l_km), cold in zip(got, expected):
        if cold == 0.0 or _dead_at_focal_point(replace(params, chirp=c)):
            assert l_km == cold, c
        assert abs(l_km - cold) <= analysis._L_TOL_KM, c


@settings(deadline=None, max_examples=200)
@given(params=domain_params(), f=st.floats(min_value=0.0, max_value=1.0))
def test_max_distance_does_not_fall_with_dark_rate(params, f):
    # fewer dark counts never shorten the secure range, beyond the search's
    # 10 m resolution
    base = _outcome(lambda: max_distance(params))
    quieter = _outcome(lambda: max_distance(replace(params, dark_rate=f * params.dark_rate)))
    assume(isinstance(base, float) and isinstance(quieter, float))
    assert quieter >= base - 0.01


def test_scan_chirp_finds_negative_peak():
    grid = [round(-0.5 + 0.1 * i, 10) for i in range(7)]  # -0.5 .. 0.1
    result = scan_chirp(ScenarioParams(), grid)
    assert -0.35 <= result.c_star <= -0.15
    assert not result.at_boundary
    assert result.l_max_star >= max(l for _, l in result.samples)
    l0 = dict(result.samples)[round(0.0, 10)]
    assert result.l_max_star > l0


def test_scan_chirp_mirrors_under_beta_flip():
    base = ScenarioParams()
    grid = [round(-0.6 + 0.15 * i, 10) for i in range(9)]  # -0.6 .. 0.6
    fwd = scan_chirp(base, grid)
    rev = scan_chirp(replace(base, beta=-base.beta), grid)
    assert (rev.c_star, rev.l_max_star) == (-fwd.c_star, fwd.l_max_star)


def test_scan_chirp_boundary_flag():
    result = scan_chirp(ScenarioParams(), [0.5, 1.0, 1.5, 2.0])
    assert result.at_boundary
    assert result.c_star == 0.5  # range decays monotonically right of the peak


def test_scan_chirp_grid_validation():
    with pytest.raises(GridError):
        scan_chirp(ScenarioParams(), [])
    with pytest.raises(GridError):
        scan_chirp(ScenarioParams(), [0.2, 0.1])
    # a non-finite chirp, which ScenarioParams rejects
    for grid in ([0.0, math.inf], [-math.inf, 0.0], [math.nan]):
        with pytest.raises(ValueError):
            scan_chirp(ScenarioParams(), grid)


# 1.2 dark counts per window on average: one dark count (p_one) is likelier
# than none (p_zero), so a missed signal photon yields a raw-key bit more
# often than a detected one, and a wider detected pulse can buy rate
DARK_HEAVY = ScenarioParams(
    sigma=5 * PS, beta=3.5e-26, alpha=0.3, dark_rate=2.4e9, period=200 * PS,
    jitter=0.0, window=500 * PS, dark_model=DarkCountModel.EXACT_POISSON,
)


def test_optimal_chirp_defaults_and_edges():
    c_star, l_star = optimal_chirp(ScenarioParams(), -2.0, 2.0)
    assert -0.35 <= c_star <= -0.15
    assert l_star > max_distance(ScenarioParams())
    # beta = 0: chirp has no effect, the grid value nearest 0 and the range
    # at any chirp
    no_dispersion = ScenarioParams(beta=0.0)
    l_flat = max_distance(no_dispersion)
    assert optimal_chirp(no_dispersion, -2.0, 2.0) == (0.0, l_flat)
    assert optimal_chirp(no_dispersion, 0.5, 2.0) == (0.5, l_flat)
    assert optimal_chirp(no_dispersion, -2.0, -0.5) == (-0.5, l_flat)
    # dead at the source: the grid edge on beta's side, and no range
    dead = ScenarioParams(sigma=60 * PS, jitter=4 * PS)
    assert optimal_chirp(dead, -2.0, 2.0) == (-2.0, 0.0)
    assert optimal_chirp(replace(dead, beta=-dead.beta), -2.0, 2.0) == (2.0, 0.0)
    with pytest.raises(GridError):
        optimal_chirp(ScenarioParams(), 1.0, -1.0)


# about one draw in six passes the assume below
@settings(deadline=None, max_examples=30, suppress_health_check=[HealthCheck.filter_too_much])
@given(params=domain_params())
# secure along c(L) on [0, 1.29] km and again from about 78 to 236 km: a
# search from L = 0 stops at the near edge, where c clips to -2 (234.59 km
# against 236.07 km at C = -1.786)
@example(
    params=ScenarioParams(
        sigma=8.659643233600653e-11, beta=-1.778279410038923e-26, alpha=0.25,
        dark_rate=749.8942093324558, period=1.333521432163324e-10, jitter=0.0,
        window=1.333521432163324e-10,
    )
)
def test_optimal_chirp_reaches_a_fine_chirp_grid(params):
    # brute force: the secure range at each of 161 chirps on [-2, 2]; the
    # closed form rests on the rate not rising with the detected width, which
    # holds only while p_one <= p_zero (see the DARK_HEAVY tests)
    point = _outcome(lambda: evaluate_point(params, 0.0))
    assume(params.beta != 0.0 and isinstance(point, ProtocolPoint))
    assume(point.key_rate > 0.0 and point.p_one <= point.p_zero)
    _, l_star = optimal_chirp(params, -2.0, 2.0)
    assert l_star >= best_grid_range(params, -2.0, 2.0, 161) - 0.01


@settings(deadline=None, max_examples=200)
@given(params=domain_params())
@example(params=DARK_HEAVY)
def test_optimal_chirp_returns_the_fixed_chirp_edge_at_its_chirp(params):
    # the envelope theorem: where c(L*) lies inside the grid the margin's
    # derivative in C is 0 at (L*, c(L*)), so the path's far edge L* is
    # also the secure range at the fixed chirp c(L*), within the search's
    # resolution, under either dark model and with mu = rate * window up to
    # 2 (DARK_HEAVY, at mu = 1.2: 2e-8 km apart). With beta = 0 the chirp
    # has no effect, and the pair is the grid value nearest 0 and
    # max_distance's range, to the bit
    got = _outcome(lambda: optimal_chirp(params, -2.0, 2.0))
    if params.beta == 0.0:
        expected = _outcome(lambda: max_distance(params))
        assert got == ((0.0, expected) if isinstance(expected, float) else expected)
        return
    c_star, l_star = got
    tol = analysis._L_TOL_KM
    at_c_star = replace(params, chirp=c_star)
    assert abs(l_star - max_distance(at_c_star)) <= tol
    if l_star == 0.0:  # dead at the source, at every chirp
        assert not params._source[3] < _QBER_LIMIT
        return
    if l_star > tol:
        assert evaluate_point(at_c_star, (l_star - tol) * KM).qber < _QBER_LIMIT
    assert not evaluate_point(at_c_star, (l_star + tol) * KM).qber < _QBER_LIMIT


def test_scan_chirp_keeps_a_sample_that_beats_the_closed_form():
    grid = default_chirp_grid()
    _, l_ref = optimal_chirp(DARK_HEAVY, grid[0], grid[-1])
    scan = scan_chirp(DARK_HEAVY, grid)
    assert (scan.c_star, scan.l_max_star) == max(scan.samples, key=lambda s: s[1])
    assert scan.l_max_star > l_ref + 0.05


def test_scan_chirp_keeps_the_closed_form_best_chirp_of_fig3a():
    # fig3a's 4 ps curve: the closed-form best chirp, -0.2006, reaches 7 mm
    # farther than the grid sample at -0.20, so the scan keeps it (CRITERION
    # 09). With midpoint edges that sample read 0.12 m longer by noise
    # alone and replaced it
    scan = dict(run_scenario("fig3a").curves)["j4ps"]
    params = replace(ScenarioParams(), window=50 * PS, jitter=4 * PS)
    grid = default_chirp_grid()
    assert (scan.c_star, scan.l_max_star) == optimal_chirp(params, grid[0], grid[-1])
    assert round(scan.c_star, 4) == -0.2006


# Where the rate barely depends on the detected width (p_one close to
# p_zero), a wider pulse moves it by rounding only: about 1e-15 relative
# at one dark count per window.
RATE_ROUNDING = 1e-12


@settings(deadline=None, max_examples=200)
@given(
    params=domain_params(),
    l_km=st.floats(min_value=0.0, max_value=500.0),
    factor=st.floats(min_value=1.0, max_value=5.0),
)
def test_rate_does_not_rise_with_loss(params, l_km, factor):
    base = _outcome(lambda: evaluate_point(params, l_km * KM).key_rate)
    assume(isinstance(base, float))
    lossier = replace(params, alpha=params.alpha * factor)
    assert evaluate_point(lossier, l_km * KM).key_rate <= base * (1.0 + RATE_ROUNDING)


@settings(deadline=None, max_examples=200)
@given(
    params=domain_params(),
    l_km=st.floats(min_value=0.0, max_value=500.0),
    factor=st.floats(min_value=1.0, max_value=10.0),
)
def test_rate_does_not_rise_with_jitter_below_one_dark_count_per_window(params, l_km, factor):
    point = _outcome(lambda: evaluate_point(params, l_km * KM))
    assume(isinstance(point, ProtocolPoint) and point.p_one <= point.p_zero)
    wider = replace(params, jitter=params.jitter * factor)
    assert evaluate_point(wider, l_km * KM).key_rate <= point.key_rate * (1.0 + RATE_ROUNDING)


def test_rate_rises_with_jitter_beyond_one_dark_count_per_window():
    point = evaluate_point(DARK_HEAVY, 2 * KM)
    assert point.p_one > point.p_zero
    narrow = evaluate_point(replace(DARK_HEAVY, jitter=5 * PS), 2 * KM).key_rate
    wide = evaluate_point(replace(DARK_HEAVY, jitter=50 * PS), 2 * KM).key_rate
    assert wide > 1.05 * narrow > 0.0


@settings(deadline=None, max_examples=200)
@given(params=domain_params(), l_km=st.floats(min_value=0.0, max_value=500.0))
def test_evaluate_point_mirrors_under_beta_and_chirp_flip(params, l_km):
    # repr is exact for floats, so this compares bit for bit (0.0 != -0.0)
    mirror = replace(params, beta=-params.beta, chirp=-params.chirp)
    got = _outcome(lambda: evaluate_point(params, l_km * KM))
    assert repr(_outcome(lambda: evaluate_point(mirror, l_km * KM))) == repr(got)


@settings(deadline=None, max_examples=100)
@given(
    params=domain_params(),
    ends=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=2, max_size=2),
)
def test_optimal_chirp_mirrors_under_beta_flip(params, ends):
    c_min, c_max = sorted(ends)
    got = _outcome(lambda: optimal_chirp(params, c_min, c_max))
    mirror = replace(params, beta=-params.beta)
    mirrored = _outcome(lambda: optimal_chirp(mirror, -c_max, -c_min))
    assert mirrored == ((-got[0], got[1]) if isinstance(got, tuple) else got)


def test_default_chirp_grid_shape():
    grid = default_chirp_grid()
    assert len(grid) == 81
    assert grid[0] == -2.0
    assert abs(grid[-1] - 2.0) <= 1e-9
    with pytest.raises(GridError):
        default_chirp_grid(c_step=0.0)
    with pytest.raises(GridError):
        default_chirp_grid(c_step=10.0)
    with pytest.raises(GridError, match="c_min <= c_max"):
        default_chirp_grid(1.0, -1.0)
    assert default_chirp_grid(0.0, 0.0, 10.0) == [0.0]
    assert len(default_chirp_grid(0.0, 99_999.0, 1.0)) == 100_000  # the bound


@pytest.mark.parametrize(
    "c_min, c_max, c_step",
    [
        (-1e308, 1e308, 1e308),
        (-math.inf, 0.0, 1.0),
        (0.0, 1e308, 1e-300),
        (-2.0, 2.0, 1e-300),
        (-2.0, 2.0, 1e-9),
        (0.0, 100_000.0, 1.0),
    ],
)
def test_default_chirp_grid_rejects_a_step_count_that_overflows(c_min, c_max, c_step):
    # the width, or the width over the step, is inf: math.floor raised
    # OverflowError, which is not a configuration error. A finite count past
    # the bound of 100,000 chirps, 4e300 or 4e9 steps across [-2, 2], built
    # its list until memory ran out
    with pytest.raises(GridError, match="makes over 100000 chirps"):
        default_chirp_grid(c_min, c_max, c_step)


def test_distance_grid_covers_secure_range():
    params = ScenarioParams()
    grid = distance_grid([params], 400)
    assert len(grid) == 401
    assert grid[0] == 0.0
    l_max = max_distance(params)
    assert abs(grid[-1] - 1.2 * l_max) <= 1e-9 * grid[-1]
    # several variants share the grid of the longest range
    short = replace(params, window=5 * PS, jitter=25 * PS, beta=-1.5e-26)
    assert distance_grid([short, params], 400) == grid
    # dead at the source, or a floor beyond 1.2 L_max: one km past the floor
    dead = ScenarioParams(jitter=200 * PS)
    assert distance_grid([dead], 4) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert distance_grid([params], 2, l_min=50.0) == [50.0, 50.5, 51.0]
    assert distance_grid([], 2, l_min=10.0, l_max=30.0) == [10.0, 20.0, 30.0]
    with pytest.raises(GridError):
        distance_grid([params], 0)


def test_run_scenario_fig1_shape():
    result = run_scenario("fig1", l_steps=40)
    assert len(result.curves) == 8
    labels = [label for label, _ in result.curves]
    assert len(set(labels)) == 8
    assert "v5ps_j4ps" in labels
    assert "v125ps_j25ps" in labels
    assert "v25ps_j4ps" in labels  # configurable fourth window, default 25 ps
    for _, curve in result.curves:
        assert isinstance(curve, SweepResult)
        assert len(curve.rows) == 41


def test_run_scenario_fig2_orderings():
    result = run_scenario("fig2", l_steps=100)
    assert len(result.curves) == 6
    curves = dict(result.curves)
    for jitter in ("j4ps", "j25ps"):
        minus = curves[f"C-1_{jitter}"].key_rates()
        plus = curves[f"C1_{jitter}"].key_rates()
        # negative chirp beats positive chirp at every grid distance
        assert all(m >= p for m, p in zip(minus, plus))
        assert sum(1 for k in minus if k > 0) >= sum(1 for k in plus if k > 0)


def test_run_scenario_fig2_deterministic():
    a = run_scenario("fig2", l_steps=60)
    b = run_scenario("fig2", l_steps=60)
    assert a == b


def test_run_scenario_fig3a_shape():
    grid = [round(-0.5 + 0.1 * i, 10) for i in range(7)]
    result = run_scenario("fig3a", c_grid=grid)
    assert len(result.curves) == 3
    labels = [label for label, _ in result.curves]
    assert labels == ["j4ps", "j10ps", "j25ps"]
    for _, curve in result.curves:
        assert isinstance(curve, ChirpScanResult)
        assert [c for c, _ in curve.samples] == grid


def test_run_scenario_fig3b_pairs_optimum_with_baseline():
    grid = [round(-0.5 + 0.1 * i, 10) for i in range(7)]
    result = run_scenario("fig3b", c_grid=grid, l_steps=50)
    labels = [label for label, _ in result.curves]
    assert len(labels) == 6
    assert "j4ps_C0" in labels and "j4ps_Copt" in labels


def test_run_scenario_fig4a_beta_ordering():
    grid = [round(-0.5 + 0.1 * i, 10) for i in range(7)]
    result = run_scenario("fig4a", c_grid=grid)
    curves = dict(result.curves)
    assert set(curves) == {"beta-1.15", "beta-1.5", "beta-0.7"}
    best_at_c0 = {
        label: dict(scan.samples)[round(0.0, 10)] for label, scan in curves.items()
    }
    # weaker dispersion keeps the channel secure farther
    assert best_at_c0["beta-0.7"] > best_at_c0["beta-1.15"] > best_at_c0["beta-1.5"]


def test_run_scenario_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_scenario("fig9")


# The secure-range search's results, pinned over a fixed record set. The
# tests above hold the search to its definition: an edge within _L_TOL_KM,
# no nearer than bisection, the secant of a bracket at most _L_TOL_KM wide.
# A change of its steps that keeps every result inside that bracket
# (another Illinois factor, say) passes them all; this table catches it.
# Per record it holds the outcome, a value or the name of the error raised,
# of max_distance cold, of max_distance with a prediction within 20 m of the
# cold edge, and of optimal_chirp on [-2, 2], its chirp and its range, plus
# the evaluations (keyrate.broadened_sigma calls) of all of them; each
# column is checked by one test below. The records are 200
# oracles.domain_record draws from a seeded random.Random, whose draws,
# unlike Hypothesis's, do not change between versions, and this module's
# named records. Values match within a relative PINNED_REL_TOL, so that
# last-bit differences between C libraries pass; evaluations match exactly. A change that moves the numerics on
# purpose re-pins the table with
#
#     PYTHONPATH=src python tests/test_analysis.py

PINNED_TABLE = Path(__file__).with_name("pinned_ranges.txt")
PINNED_REL_TOL = 1e-9
COLD, WARM, C_STAR, L_STAR = 1, 2, 3, 4


def _pinned_records() -> list[tuple[str, ScenarioParams, float]]:
    """(label, record, prediction offset in km) of each row, in order."""
    rng = random.Random(33)
    rows = [(f"draw-{i:03d}", domain_record(rng.uniform, rng.choice)) for i in range(200)]
    rows += [
        ("defaults", ScenarioParams()),
        ("dark_rate=1e9", ScenarioParams(dark_rate=1e9)),
        ("underflow-bracket", ScenarioParams(dark_rate=0.0, beta=0.0)),
        ("underflow-bisection", ScenarioParams(dark_rate=0.0, alpha=100.0)),
        ("window=1e-26", ScenarioParams(window=1e-26)),
        ("SPLIT_SETS-live", SPLIT_SETS["live at L_f"]),
        ("SPLIT_SETS-dead", SPLIT_SETS["dead at L_f"]),
        ("FOCAL_POINT_PAST_THE_CEILING", FOCAL_POINT_PAST_THE_CEILING),
        ("DESCENT_SPLIT", DESCENT_SPLIT),
        ("SEED_3_DESCENT_SPLIT", SEED_3_DESCENT_SPLIT),
        ("SEED_3_GROWING_STEP", SEED_3_GROWING_STEP),
        ("SLOW_DESCENT", SLOW_DESCENT),
        ("SLOW_DESCENT_SPLIT", SLOW_DESCENT_SPLIT),
        ("SPLIT_WITHOUT_ETA_STAR", SPLIT_WITHOUT_ETA_STAR),
    ]
    rows += [(f"SUBNORMAL_MU-C{c:g}", SUBNORMAL_MU._at_chirp(c)) for c in (0.05, 0.1, 1.0)]
    return [(label, params, rng.uniform(-0.02, 0.02)) for label, params in rows]


@functools.cache
def _pinned_results() -> tuple[int, list[tuple]]:
    """The evaluations the searches made, and (label, cold, warm, c_star,
    l_star) of each record, warm "-" where the cold search raised, c_star
    and l_star each the error where optimal_chirp raised."""
    rows = []

    def run():
        for label, params, offset in _pinned_records():
            cold = _outcome(lambda: max_distance(params))
            warm = "-"
            if isinstance(cold, float):
                warm = _outcome(lambda: max_distance(params, near=cold + offset))
            best = _outcome(lambda: optimal_chirp(params, -2.0, 2.0))
            rows.append((label, cold, warm, *(best if isinstance(best, tuple) else (best, best))))

    with pytest.MonkeyPatch.context() as mp:
        return _counted_evaluations(mp, run), rows


def _token(outcome) -> str:
    """An outcome as the table writes it: a float's repr, an error's type
    name, or "-"."""
    if isinstance(outcome, type):
        return outcome.__name__
    return outcome if isinstance(outcome, str) else repr(outcome)


def _moved_rows(column: int) -> list[tuple]:
    """The rows whose outcome in `column` (COLD, WARM, C_STAR or L_STAR) is
    off the table, once the rows are checked to be the table's, in order."""
    _, rows = _pinned_results()
    pinned = [line.split() for line in PINNED_TABLE.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == [row[0] for row in pinned]

    def moved(got, token: str) -> bool:
        if isinstance(got, float) and token[-1].isdigit():
            return not abs(got - float(token)) <= PINNED_REL_TOL * abs(float(token))
        return _token(got) != token

    return [row for row, want in zip(rows, pinned) if moved(row[column], want[column])]


def test_max_distance_equals_reference_search():
    # the cold column: every outcome, a range, 0.0 when dead at the source,
    # NonConvergenceError and ValueError. It holds the results of the
    # test-side copy of the search that the table replaced
    moved = _moved_rows(COLD)
    assert not moved, f"{len(moved)} rows moved, the first {moved[:3]}"


def test_max_distance_with_a_prediction_equals_reference_search():
    # the warm column, with a prediction within 20 m of the cold edge: the
    # probe 5 m on either side of it runs before the focal point, and skips
    # it where a probe point is live
    moved = _moved_rows(WARM)
    assert not moved, f"{len(moved)} rows moved, the first {moved[:3]}"


def test_optimal_chirp_and_the_evaluations_match_the_pinned_table():
    for column in (C_STAR, L_STAR):
        moved = _moved_rows(column)
        assert not moved, f"{len(moved)} rows moved, the first {moved[:3]}"
    _, pinned_evaluations = PINNED_TABLE.read_text().splitlines()[0].split()
    assert _pinned_results()[0] == int(pinned_evaluations)


if __name__ == "__main__":
    evaluations, rows = _pinned_results()
    lines = [" ".join(map(_token, row)) for row in rows]
    PINNED_TABLE.write_text("\n".join([f"evaluations {evaluations}", *lines]) + "\n")
