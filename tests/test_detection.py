import math
import random

import pytest
from hypothesis import given, strategies as st

from dispersive_qkd.detection import (
    detected_sigma,
    p_signal,
    p_wrong,
    shifted_window_mass,
)
from dispersive_qkd.keyrate import ScenarioParams, evaluate_point
from oracles import QuadratureSpec, convolve_numeric, integrate

PS = 1e-12


def gaussian(sigma):
    def density(t):
        return math.exp(-t * t / (2.0 * sigma * sigma)) / (
            math.sqrt(2.0 * math.pi) * sigma
        )

    return density


def test_detected_sigma_identity_and_pythagoras():
    assert detected_sigma(3.7e-11, 0.0) == 3.7e-11
    assert detected_sigma(3.0, 4.0) == 5.0


def test_detected_sigma_table_values():
    got = detected_sigma(115.434 * PS, 25 * PS)
    assert abs(got - 118.111 * PS) <= 1e-3 * PS


def test_detected_sigma_validation():
    with pytest.raises(ValueError):
        detected_sigma(0.0, 1e-12)
    with pytest.raises(ValueError):
        detected_sigma(1e-12, -1e-12)


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


@pytest.mark.parametrize(
    "sigma_tot, window, period",
    [
        (10 * PS, 50 * PS, 100 * PS),
        (1.0, 2.0, 8.0),
        (4 * PS, 25 * PS, 100 * PS),  # mass ~2e-106
    ],
)
def test_shifted_window_mass_saturated_relative_accuracy(sigma_tot, window, period):
    # window edges many sigma out: a difference of erf values near 1 would
    # lose every digit here, the difference of upper tails keeps them
    tight = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12)
    lo = (period - window / 2.0) / sigma_tot
    hi = (period + window / 2.0) / sigma_tot
    ref = integrate(gaussian(1.0), lo, hi, tight).real
    got = shifted_window_mass(sigma_tot, window, period)
    assert ref > 0.0
    assert abs(got - ref) <= 1e-9 * ref


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


def test_p_wrong_reference_values():
    assert p_wrong(0.0, 0.0) == 0.0
    assert p_wrong(0.5, 0.5) == 0.5
    assert p_wrong(1.0, 0.0) == 1.0


@pytest.mark.parametrize("bad", [(-0.1, 0.5), (0.5, 1.2)])
def test_p_wrong_domain(bad):
    with pytest.raises(ValueError):
        p_wrong(*bad)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_p_wrong_symmetric_case(q):
    val = p_wrong(q, q)
    assert abs(val - 2.0 * q * (1.0 - q)) <= 1e-15
    assert 0.0 <= val <= 0.5


def test_p_wrong_peaks_at_half():
    qs = [i / 50.0 for i in range(51)]
    vals = [p_wrong(q, q) for q in qs]
    assert max(vals) == vals[25]


def test_overlap_regime_stays_probabilistic():
    # window wider than the period: neighbors overlap the acceptance window
    sigma_tot = detected_sigma(115.434 * PS, 25 * PS)
    q = shifted_window_mass(sigma_tot, 125 * PS, 100 * PS)
    for value in (p_signal(sigma_tot, 125 * PS), q, p_wrong(q, q)):
        assert 0.0 <= value <= 1.0


def test_window_probabilities_consistency():
    # evaluate_point composes the window helpers on the detected spread;
    # one shifted mass serves both neighbors, which by symmetry see the same
    params = ScenarioParams(sigma=50 * PS, jitter=25 * PS, window=50 * PS, period=100 * PS)
    point = evaluate_point(params, 0.0)
    sigma_tot = detected_sigma(50 * PS, 25 * PS)
    q = shifted_window_mass(sigma_tot, 50 * PS, 100 * PS)
    assert point.p_sig == p_signal(sigma_tot, 50 * PS)
    assert point.p_w == p_wrong(q, q)
    q_minus = integrate(gaussian(sigma_tot), -125 * PS, -75 * PS).real
    assert abs(q - q_minus) <= 1e-9
