"""Pulse propagation: closed forms gated against the propagator-integral
quadrature oracle, plus the broadening/focusing geometry."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dispersive_qkd.detection import broadened_sigma
from oracles import (
    QuadratureSpec,
    initial_state,
    integrate,
    moments,
    pdf,
    propagate_closed_form,
    propagate_numeric,
)

PS = 1e-12
KM = 1e3
TABLE_BETA = -1.15e-26


def test_broadened_sigma_matches_closed_form_state():
    for l in (1 * KM, 20 * KM, 150 * KM):
        state = propagate_closed_form(10 * PS, 0.5, TABLE_BETA, l)
        ref = broadened_sigma(10 * PS, 0.5, TABLE_BETA, l)
        assert abs(state.pdf_sigma - ref) <= 1e-12 * ref


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


def test_pdf_peak_value():
    state = initial_state(10 * PS, 0.0)
    peak = pdf(state, 0.0)
    assert abs(peak - 1.0 / (math.sqrt(2.0 * math.pi) * 10 * PS)) <= 1e-4
    assert abs(peak - 3.989e10) <= 5e6


def test_pdf_ignores_chirp_at_source():
    flat = initial_state(10 * PS, 0.0)
    chirped = initial_state(10 * PS, 3.0)
    for t in (-25 * PS, -3 * PS, 0.0, 14 * PS):
        assert pdf(flat, t) == pdf(chirped, t)


def test_pdf_normalization():
    state = propagate_closed_form(10 * PS, 1.0, TABLE_BETA, 60 * KM)
    s = state.pdf_sigma
    val = integrate(lambda t: pdf(state, t), -12 * s, 12 * s).real
    assert abs(val - 1.0) <= 1e-10


def test_moments_track_broadening():
    state = propagate_closed_form(10 * PS, 0.0, TABLE_BETA, 100 * KM)
    norm, mean, variance = moments(state)
    assert abs(norm - 1.0) <= 1e-9
    assert abs(mean) <= 1e-25
    ref = (115.434 * PS) ** 2
    assert abs(variance - ref) <= 1e-6 * ref


def test_moments_normalization_random_draws():
    rng = random.Random(41)
    for _ in range(10):
        sigma = rng.uniform(1.0, 50.0) * PS
        chirp = rng.uniform(-3.0, 3.0)
        beta = -rng.uniform(0.5, 2.0) * 1e-26
        state = propagate_closed_form(sigma, chirp, beta, rng.uniform(0.0, 300.0) * KM)
        norm, mean, variance = moments(state)
        assert abs(norm - 1.0) <= 1e-9
        assert abs(mean) <= 1e-25
        assert abs(variance - state.pdf_sigma ** 2) <= 1e-8 * state.pdf_sigma ** 2


def test_propagate_numeric_requires_positive_length_and_dispersion():
    with pytest.raises(ValueError):
        propagate_numeric(10 * PS, 0.0, TABLE_BETA, 0.0, 0.0)
    with pytest.raises(ValueError):
        propagate_numeric(10 * PS, 0.0, 0.0, 10 * KM, 0.0)


def test_propagate_numeric_matches_closed_form_at_peak():
    closed = propagate_closed_form(10 * PS, 0.0, TABLE_BETA, 50 * KM)
    amp = propagate_numeric(10 * PS, 0.0, TABLE_BETA, 50 * KM, 0.0)
    ref = pdf(closed, 0.0)
    assert abs(abs(amp) ** 2 - ref) <= 1e-6 * ref


def test_propagate_numeric_beta_sign_symmetry_unchirped():
    for t in (0.0, 20 * PS, 55 * PS):
        plus = abs(propagate_numeric(10 * PS, 0.0, 1.15e-26, 40 * KM, t)) ** 2
        minus = abs(propagate_numeric(10 * PS, 0.0, -1.15e-26, 40 * KM, t)) ** 2
        assert abs(plus - minus) <= 1e-8 * max(plus, minus)


def test_propagate_numeric_unitarity():
    l = 50 * KM
    sigma_l = broadened_sigma(10 * PS, 1.0, TABLE_BETA, l)
    outer = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)

    def density(t):
        return abs(propagate_numeric(10 * PS, 1.0, TABLE_BETA, l, t)) ** 2

    val = integrate(density, -12 * sigma_l, 12 * sigma_l, outer).real
    assert abs(val - 1.0) <= 1e-8


@settings(deadline=None, max_examples=10)
@given(
    sigma_ps=st.floats(min_value=4.0, max_value=20.0),
    chirp=st.floats(min_value=-2.0, max_value=2.0),
    beta_e26=st.floats(min_value=0.6, max_value=1.8),
    flip=st.booleans(),
)
def test_closed_form_gated_by_oracle(sigma_ps, chirp, beta_e26, flip):
    # distance tied to the dispersion scale keeps the kernel phase resolvable
    sigma = sigma_ps * PS
    beta = (-beta_e26 if flip else beta_e26) * 1e-26
    length = min(1.5 * sigma * sigma / abs(beta), 300 * KM)
    closed = propagate_closed_form(sigma, chirp, beta, length)
    sigma_l = closed.pdf_sigma
    for t in (-2.0 * sigma_l, 0.0, 1.5 * sigma_l):
        num = abs(propagate_numeric(sigma, chirp, beta, length, t)) ** 2
        ref = pdf(closed, t)
        assert abs(num - ref) <= 1e-6 * ref
