"""Pulse propagation: broadened_sigma gated against the closed-form and
propagator-integral oracles, plus the broadening/focusing geometry."""

import math

from dispersive_qkd.detection import broadened_sigma
from oracles import QuadratureSpec, integrate, propagate_closed_form, propagate_numeric

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


def test_propagate_numeric_unitarity():
    l = 50 * KM
    sigma_l = broadened_sigma(10 * PS, 1.0, TABLE_BETA, l)
    outer = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)

    def density(t):
        return abs(propagate_numeric(10 * PS, 1.0, TABLE_BETA, l, t)) ** 2

    val = integrate(density, -12 * sigma_l, 12 * sigma_l, outer).real
    assert abs(val - 1.0) <= 1e-8
