import math
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from dispersive_qkd import keyrate
from dispersive_qkd.detection import broadened_sigma, erf, p_signal, shifted_window_mass
from dispersive_qkd.keyrate import ScenarioParams, evaluate_point
from oracles import QuadratureSpec, convolve_numeric, integrate

PS = 1e-12
KM = 1e3
TABLE_BETA = -1.15e-26


def gaussian(sigma):
    def density(t):
        return math.exp(-t * t / (2.0 * sigma * sigma)) / (
            math.sqrt(2.0 * math.pi) * sigma
        )

    return density


def test_erf_reference_values():
    assert erf(0.0) == 0.0
    assert abs(erf(40.0) - 1.0) < 1e-15
    assert abs(erf(-40.0) + 1.0) < 1e-15
    assert abs(erf(1.0) - 0.8427007929) <= 1e-9


def test_erf_matches_quadrature():
    rng = random.Random(20260814)
    for _ in range(40):
        x = rng.uniform(1e-3, 6.0)
        ref = (2.0 / math.sqrt(math.pi)) * integrate(
            lambda u: math.exp(-u * u), 0.0, x
        ).real
        assert abs(erf(x) - ref) < 1e-10


@given(st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
def test_erf_is_odd(x):
    assert erf(-x) == -erf(x)


def test_erf_strictly_increasing():
    xs = [i * 0.05 - 3.0 for i in range(121)]
    ys = [erf(x) for x in xs]
    assert all(a < b for a, b in zip(ys, ys[1:]))
    assert all(abs(y) <= 1.0 for y in ys)


def test_broadened_sigma_at_zero():
    assert broadened_sigma(7 * PS, 0.0, TABLE_BETA, 0.0) == 7 * PS
    with pytest.raises(ValueError, match="must be >= 0"):
        broadened_sigma(7 * PS, 0.0, TABLE_BETA, -1.0)


def test_broadened_sigma_rejects_bad_distance():
    # the one distance check of evaluate_point and of every search step
    for length in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"propagation distance .*, got {length}$"):
            broadened_sigma(7 * PS, 0.0, TABLE_BETA, length)


def test_broadened_sigma_overflow_is_value_error():
    cases = [
        # sigma^2 - C*beta*L = -1e157 s^2 cannot be squared in a float
        (1.0, 1e154, 1 * KM),
        # chirp 0: (beta*L)^2 = 1e314 overflows without an exception
        (0.0, 1e154, 1 * KM),
        # beta*L itself is inf, and 0 * inf is nan
        (0.0, 1e4, 1e305),
        (1.0, -1e4, 1e305),
    ]
    for chirp, beta, length in cases:
        with pytest.raises(ValueError, match="width overflows"):
            broadened_sigma(10 * PS, chirp, beta, length)


def test_broadened_sigma_100km():
    got = broadened_sigma(10 * PS, 0.0, TABLE_BETA, 100 * KM)
    assert abs(got - 115.434 * PS) <= 1e-3 * PS


def test_broadened_sigma_focusing_point():
    # chirp*beta > 0: the quadratic term vanishes at L = sigma^2/(chirp*beta)
    got = broadened_sigma(10 * PS, -0.25, TABLE_BETA, 34.783 * KM)
    assert abs(got - 40.0 * PS) <= 0.1 * PS


def test_broadened_sigma_sign_symmetry():
    for l in (0.0, 10 * KM, 47 * KM, 200 * KM):
        assert broadened_sigma(8 * PS, 1.3, -1.2e-26, l) == broadened_sigma(
            8 * PS, -1.3, 1.2e-26, l
        )


def test_focusing_iff_chirp_beta_positive():
    # chirp*beta > 0 narrows the pulse to sigma/sqrt(1+C^2) at
    # L_min = C sigma^2 / ((1+C^2) beta) before re-broadening
    sigma, chirp, beta = 10 * PS, -0.8, TABLE_BETA
    l_min = chirp * sigma * sigma / ((1.0 + chirp * chirp) * beta)
    assert l_min > 0
    w_min = broadened_sigma(sigma, chirp, beta, l_min)
    ref = sigma / math.sqrt(1.0 + chirp * chirp)
    assert abs(w_min - ref) <= 1e-12 * ref
    for frac in (0.5, 1.0, 1.5):
        assert broadened_sigma(sigma, chirp, beta, frac * l_min) < sigma
    assert broadened_sigma(sigma, chirp, beta, 2.5 * l_min) > sigma
    # opposite chirp sign: monotone broadening
    widths = [
        broadened_sigma(sigma, -chirp, beta, f * l_min) for f in (0.0, 0.5, 1.0, 2.0)
    ]
    assert all(a < b for a, b in zip(widths, widths[1:]))


def test_vanishing_term_point_and_chirp_advantage_window():
    # at L* = sigma^2/(C beta) the quadratic term dies: sigma_L = |beta| L*/sigma,
    # and the chirped width stays below the unchirped one out to 2 L*
    sigma, chirp, beta = 10 * PS, -0.25, TABLE_BETA
    l_star = sigma * sigma / (chirp * beta)
    got = broadened_sigma(sigma, chirp, beta, l_star)
    ref = abs(beta) * l_star / sigma
    assert abs(got - ref) <= 1e-12 * ref
    for frac in (0.1, 0.5, 1.0, 1.9):
        l = frac * l_star
        assert broadened_sigma(sigma, chirp, beta, l) < broadened_sigma(sigma, 0.0, beta, l)
    beyond = 2.2 * l_star
    assert broadened_sigma(sigma, chirp, beta, beyond) > broadened_sigma(
        sigma, 0.0, beta, beyond
    )


@given(
    sigma_ps=st.floats(min_value=1.0, max_value=50.0),
    chirp=st.floats(min_value=-3.0, max_value=3.0),
    beta_e26=st.floats(min_value=-2.0, max_value=2.0),
    l_km=st.floats(min_value=0.0, max_value=300.0),
)
def test_broadened_sigma_lower_bound(sigma_ps, chirp, beta_e26, l_km):
    # sigma_L^2 * sigma^2 >= (beta L)^2 for any chirp
    sigma = sigma_ps * PS
    got = broadened_sigma(sigma, chirp, beta_e26 * 1e-26, l_km * KM)
    assert got * sigma >= abs(beta_e26 * 1e-26 * l_km * KM) * (1.0 - 1e-12)


def _detected_sigma(params, distance):
    """The detected spread the QBER stage hands to the window masses."""
    with mock.patch.object(keyrate, "p_signal", wraps=keyrate.p_signal) as spy:
        evaluate_point(params, distance)
    return spy.call_args.args[0]


def test_detected_sigma_identity_and_pythagoras():
    # at L = 0 the width is sigma; the jitter adds to it in quadrature
    assert _detected_sigma(ScenarioParams(sigma=3.7e-11, jitter=0.0), 0.0) == 3.7e-11
    params = ScenarioParams(sigma=3.0, jitter=4.0, window=1.0, period=10.0, dark_rate=0.0)
    assert _detected_sigma(params, 0.0) == 5.0


def test_detected_sigma_table_values():
    # defaults at 100 km: sigma_L = 115.434 ps, detected 118.111 ps
    got = _detected_sigma(ScenarioParams(), 100 * KM)
    assert abs(got - 118.111 * PS) <= 1e-3 * PS


def test_convolve_numeric_delta_limit():
    p = gaussian(1.0)
    for t in (-0.3, 0.0, 0.7):
        got = convolve_numeric(p, 1e-15, t, p_width=1.0)
        assert abs(got - p(t)) <= 1e-6 * p(t)


def test_convolve_numeric_peak_matches_closure():
    sigma_l, jitter = 115.434 * PS, 25 * PS
    got = convolve_numeric(gaussian(sigma_l), jitter, 0.0, p_width=sigma_l)
    ref = 1.0 / (math.sqrt(2.0 * math.pi) * math.hypot(sigma_l, jitter))
    assert abs(got - ref) <= 1e-8 * ref


def test_convolve_numeric_wide_jitter_branch():
    # jitter much wider than the arrival PDF: the other substitution path
    sigma_l, jitter = 1 * PS, 800 * PS
    sigma_tot = math.hypot(sigma_l, jitter)
    for t in (0.0, 0.5 * sigma_tot, 2.0 * sigma_tot):
        got = convolve_numeric(gaussian(sigma_l), jitter, t, p_width=sigma_l)
        ref = gaussian(sigma_tot)(t)
        assert abs(got - ref) <= 1e-8 * ref


def test_convolve_numeric_preserves_normalization():
    sigma_l, jitter = 40 * PS, 25 * PS
    sigma_tot = math.hypot(sigma_l, jitter)
    outer = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)
    val = integrate(
        lambda t: convolve_numeric(gaussian(sigma_l), jitter, t, p_width=sigma_l),
        -12 * sigma_tot,
        12 * sigma_tot,
        outer,
    ).real
    assert abs(val - 1.0) <= 1e-8


def test_convolve_numeric_validation():
    with pytest.raises(ValueError):
        convolve_numeric(gaussian(1.0), 0.0, 0.0, p_width=1.0)
    with pytest.raises(ValueError):
        convolve_numeric(gaussian(1.0), 1.0, 0.0, p_width=0.0)


def test_p_signal_reference_values():
    assert abs(p_signal(1.0, 2.0) - 0.682689) <= 1e-6
    assert abs(p_signal(1.0, 40.0) - 1.0) <= 1e-12
    assert abs(p_signal(10 * PS, 50 * PS) - 0.987581) <= 1e-6
    # the spread of ScenarioParams(jitter=1.5e308, window=1e308): 2 sqrt(2)
    # sigma_tot overflows, but the mass reads window / sigma_tot alone
    assert abs(p_signal(1.5e308, 1e308) - 0.261117) <= 1e-6
    assert p_signal(1.5e308, 1e308) == p_signal(1.5e308 / 16, 1e308 / 16)


def test_p_signal_monotonicity():
    windows = [i * 0.2 + 0.2 for i in range(30)]
    masses = [p_signal(1.0, v) for v in windows]
    assert all(a < b for a, b in zip(masses, masses[1:]))
    sigmas = [0.1 + 0.15 * i for i in range(30)]
    masses = [p_signal(s, 1.0) for s in sigmas]
    assert all(a > b for a, b in zip(masses, masses[1:]))


def test_p_signal_validation():
    with pytest.raises(ValueError):
        p_signal(0.0, 1.0)
    with pytest.raises(ValueError):
        p_signal(1.0, 0.0)
    # and the neighbor's mass: sigma, window, period
    with pytest.raises(ValueError, match="sigma_tot"):
        shifted_window_mass(0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="window"):
        shifted_window_mass(1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="period"):
        shifted_window_mass(1.0, 1.0, 0.0)


def test_shifted_window_mass_reference_values():
    assert abs(shifted_window_mass(1.0, 2.0, 1.0) - 0.477250) <= 1e-6
    assert shifted_window_mass(1 * PS, 10 * PS, 100 * PS) <= 1e-12


def test_shifted_window_mass_against_quadrature():
    cases = [
        (118.111 * PS, 50 * PS, 100 * PS),
        (118.111 * PS, 125 * PS, 100 * PS),  # window wider than the period
        (30 * PS, 50 * PS, 100 * PS),
    ]
    for sigma_tot, window, period in cases:
        got = shifted_window_mass(sigma_tot, window, period)
        ref = integrate(
            gaussian(sigma_tot), period - window / 2.0, period + window / 2.0
        ).real
        assert abs(got - ref) <= 1e-8 * ref


# the defaults' detected spread at L = 0, hypot(sigma, jitter)
_SOURCE_SPREAD = math.hypot(10 * PS, 25 * PS)


@pytest.mark.parametrize(
    "sigma_tot, window, period",
    [
        (10 * PS, 50 * PS, 100 * PS),
        (1.0, 2.0, 8.0),
        (4 * PS, 25 * PS, 100 * PS),  # mass ~2e-106
        # windows narrow against the spread, where the two upper tails
        # cancel: 6e-7 off at 1e-20 s, 1.4% at 1e-24 s, 0 from 1e-26 s down
        (_SOURCE_SPREAD, 1e-20, 100 * PS),
        (_SOURCE_SPREAD, 1e-24, 100 * PS),
        (_SOURCE_SPREAD, 1e-26, 100 * PS),
        (_SOURCE_SPREAD, 1e-300, 100 * PS),
        (4 * PS, 1e-20, 100 * PS),  # mass ~1e-145
        (1.0, 1e-3, 0.5),  # the series at u = 4.8e-4, x = 0.35
        # sqrt(2) sigma_tot overflows at ScenarioParams(jitter=1.5e308,
        # window=1e308, period=1e308)'s spread, and period + window / 2 at
        # the second
        (1.5e308, 1e308, 1e308),
        (1e308, 1e308, 1.7e308),
    ],
)
def test_shifted_window_mass_saturated_relative_accuracy(sigma_tot, window, period):
    # window edges many sigma out: a difference of erf values near 1 would
    # lose every digit here, the difference of upper tails keeps them. The
    # quadrature runs over the offset from the period, so that a narrow
    # window's edges do not round into each other
    tight = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12)
    center = gaussian(1.0)
    half = window / 2.0 / sigma_tot
    ref = integrate(lambda u: center(period / sigma_tot + u), -half, half, tight).real
    got = shifted_window_mass(sigma_tot, window, period)
    assert ref > 0.0
    assert abs(got - ref) <= 1e-9 * ref


def test_shifted_window_mass_reads_0_where_the_period_squared_overflows():
    # the series branch at x = 7e159 spreads: x * x is inf and the mass,
    # exp(-x^2) below every float, reads 0, not 0 * inf = nan
    assert shifted_window_mass(1e-70, 1e-240, 1e90) == 0.0
    params = ScenarioParams(sigma=1e-70, jitter=0.0, period=1e90, window=1e-240)
    assert evaluate_point(params, 0.0).p_w == 0.0


def test_window_mass_closed_forms_match_quadrature_random():
    rng = random.Random(1183)
    for _ in range(12):
        sigma_tot = rng.uniform(1.0, 300.0) * PS
        window = rng.uniform(1.0, 300.0) * PS
        period = rng.uniform(5.0, 300.0) * PS
        g = gaussian(sigma_tot)
        ref_sig = integrate(g, -window / 2.0, window / 2.0).real
        assert abs(p_signal(sigma_tot, window) - ref_sig) <= 1e-9
        ref_shift = integrate(g, period - window / 2.0, period + window / 2.0).real
        assert abs(shifted_window_mass(sigma_tot, window, period) - ref_shift) <= 1e-9


def test_shifted_mass_below_signal_mass():
    rng = random.Random(55)
    for _ in range(30):
        sigma_tot = rng.uniform(1.0, 200.0) * PS
        window = rng.uniform(1.0, 200.0) * PS
        period = rng.uniform(0.5, 300.0) * PS
        assert shifted_window_mass(sigma_tot, window, period) <= p_signal(
            sigma_tot, window
        )


_DEFAULTS = ScenarioParams()


def _stage_p_w(q):
    """The wrong-bit mass p_w the QBER stage makes of a neighbor mass q."""
    with mock.patch.object(keyrate, "shifted_window_mass", return_value=q):
        return evaluate_point(_DEFAULTS, 0.0).p_w


def test_p_wrong_reference_values():
    assert _stage_p_w(0.0) == 0.0
    assert _stage_p_w(0.5) == 0.5
    assert _stage_p_w(1.0) == 0.0


@given(st.floats(min_value=0.0, max_value=1.0))
def test_p_wrong_symmetric_case(q):
    # exactly one of the two neighbors lands: q(1-q) + (1-q)q
    val = _stage_p_w(q)
    assert abs(val - 2.0 * q * (1.0 - q)) <= 1e-15
    assert 0.0 <= val <= 0.5


def test_p_wrong_peaks_at_half():
    qs = [i / 50.0 for i in range(51)]
    vals = [_stage_p_w(q) for q in qs]
    assert max(vals) == vals[25]


def test_overlap_regime_stays_probabilistic():
    # window wider than the period: neighbors overlap the acceptance window
    params = ScenarioParams(window=125 * PS, period=100 * PS)
    point = evaluate_point(params, 100 * KM)
    q = shifted_window_mass(_detected_sigma(params, 100 * KM), 125 * PS, 100 * PS)
    for value in (point.p_sig, q, point.p_w):
        assert 0.0 <= value <= 1.0


def test_window_probabilities_consistency():
    # evaluate_point composes the window helpers on the detected spread;
    # one shifted mass serves both neighbors, which by symmetry see the same
    params = ScenarioParams(sigma=50 * PS, jitter=25 * PS, window=50 * PS, period=100 * PS)
    point = evaluate_point(params, 0.0)
    sigma_tot = math.hypot(50 * PS, 25 * PS)
    q = shifted_window_mass(sigma_tot, 50 * PS, 100 * PS)
    assert point.p_sig == p_signal(sigma_tot, 50 * PS)
    assert point.p_w == 2.0 * q * (1.0 - q)
    q_minus = integrate(gaussian(sigma_tot), -125 * PS, -75 * PS).real
    assert abs(q - q_minus) <= 1e-9
