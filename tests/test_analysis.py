import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dispersive_qkd.analysis import (
    ChirpScanResult,
    GridError,
    SweepResult,
    default_chirp_grid,
    distance_grid,
    max_distance,
    run_scenario,
    scan_chirp,
    sweep_distance,
)
from dispersive_qkd.keyrate import ScenarioParams, evaluate_point
from dispersive_qkd.numerics import NonConvergenceError
from oracles import composed_point, domain_params

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
    l_max = max_distance(params, tol=tol)
    assert evaluate_point(params, (l_max - 2 * tol) * KM).key_rate > 0.0
    assert evaluate_point(params, (l_max + 2 * tol) * KM).key_rate == 0.0


def test_max_distance_agrees_with_local_scan():
    params = ScenarioParams()
    l_max = max_distance(params)
    # 10 m sweep across the reported boundary
    step = 0.01
    probe = l_max - 0.2
    while evaluate_point(params, probe * KM).key_rate > 0.0:
        probe += step
    brute = probe - step / 2.0
    assert abs(l_max - brute) <= 0.02


def test_max_distance_dead_at_source_returns_zero():
    params = ScenarioParams(jitter=200 * PS)  # swamps the window at L = 0
    assert evaluate_point(params, 0.0).key_rate == 0.0
    assert max_distance(params) == 0.0


def test_max_distance_no_extinction_raises():
    # lossless, dispersionless: the rate never dies
    params = ScenarioParams(alpha=0.0, beta=0.0)
    with pytest.raises(NonConvergenceError):
        max_distance(params)


def _reference_range(params: ScenarioParams, l_hint: float = 50.0, tol: float = 0.01) -> float:
    """max_distance's documented search, over the pipeline composed from the
    public helpers: 0.0 if dead at the source, else double l_hint until the
    rate dies (giving up past 1e7 km), then bisect the bracket to tol."""

    def secure(l_km: float) -> bool:
        return composed_point(params, l_km * KM).key_rate > 0.0

    if not secure(0.0):
        return 0.0
    lo, hi = 0.0, l_hint
    while secure(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e7:
            raise NonConvergenceError(f"rate still positive at {lo} km")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if secure(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _outcome(run):
    """run()'s value, or the type of the search error it raised."""
    try:
        return run()
    except (NonConvergenceError, ValueError) as exc:
        return type(exc)


@settings(deadline=None, max_examples=100)
@given(params=domain_params())
def test_max_distance_equals_reference_bisection(params):
    # dual route, bit for bit, over every outcome: a range, 0.0 when dead at
    # the source, NonConvergenceError, and the linearized-dark ValueError
    got = _outcome(lambda: max_distance(params))
    assert got == _outcome(lambda: _reference_range(params))


@settings(deadline=None, max_examples=40)
@given(
    params=domain_params(),
    chirps=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=3, unique=True),
)
def test_scan_chirp_samples_equal_replaced_params(params, chirps):
    # each sample is the secure range of the params rebuilt with that chirp
    grid = sorted(chirps)
    expected = _outcome(lambda: tuple((c, max_distance(replace(params, chirp=c))) for c in grid))
    assert _outcome(lambda: scan_chirp(params, grid, tol=0.5).samples) == expected


def test_max_distance_validation():
    with pytest.raises(ValueError):
        max_distance(ScenarioParams(), l_hint=0.0)
    with pytest.raises(ValueError):
        max_distance(ScenarioParams(), tol=-0.01)


def test_scan_chirp_finds_negative_peak():
    grid = [round(-0.5 + 0.1 * i, 10) for i in range(7)]  # -0.5 .. 0.1
    result = scan_chirp(ScenarioParams(), grid, tol=1e-2)
    assert -0.35 <= result.c_star <= -0.15
    assert not result.at_boundary
    assert result.l_max_star >= max(l for _, l in result.samples)
    l0 = dict(result.samples)[round(0.0, 10)]
    assert result.l_max_star > l0


def test_scan_chirp_mirrors_under_beta_flip():
    base = ScenarioParams()
    grid = [round(-0.6 + 0.15 * i, 10) for i in range(9)]  # -0.6 .. 0.6
    fwd = scan_chirp(base, grid, tol=5e-3)
    rev = scan_chirp(replace(base, beta=-base.beta), grid, tol=5e-3)
    assert abs(fwd.c_star + rev.c_star) <= 0.15 + 2 * 5e-3  # one grid step


def test_scan_chirp_boundary_flag():
    result = scan_chirp(ScenarioParams(), [0.5, 1.0, 1.5, 2.0], tol=1e-2)
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


def test_default_chirp_grid_shape():
    grid = default_chirp_grid()
    assert len(grid) == 81
    assert grid[0] == -2.0
    assert abs(grid[-1] - 2.0) <= 1e-9
    with pytest.raises(GridError):
        default_chirp_grid(c_step=0.0)


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
