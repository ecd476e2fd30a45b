"""The oracles' own machinery in tests/oracles.py: the adaptive quadrature
under the propagator, width and jitter oracles, its bisection root finder,
which criterion 06 uses, the Gaussian state and closed-form propagator
the quadrature oracles start from, its density and moments, and the
numeric propagator integral against the closed form; broadened_sigma
against the closed-form state and the numeric propagator's unit norm."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dispersive_qkd.analysis import NonConvergenceError
from dispersive_qkd.detection import broadened_sigma
from dispersive_qkd.keyrate import binary_entropy
from oracles import (
    Bracket,
    BracketError,
    GaussianState,
    QuadratureSpec,
    find_root,
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


def test_quadrature_spec_defaults():
    spec = QuadratureSpec()
    assert spec.abs_tol == 1e-12
    assert spec.rel_tol == 1e-10
    assert spec.max_subdivisions == 2 ** 14
    assert spec.tail_sigmas == 12.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"abs_tol": 0.0},
        {"abs_tol": -1e-9},
        {"rel_tol": 0.0},
        {"max_subdivisions": 0},
        {"tail_sigmas": 7.9},
    ],
)
def test_quadrature_spec_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        QuadratureSpec(**kwargs)


def test_integrate_constant():
    assert abs(integrate(lambda t: 1.0, 0.0, 1.0).real - 1.0) < 1e-12


def test_integrate_normal_density():
    val = integrate(
        lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi), -12.0, 12.0
    )
    assert abs(val.real - 1.0) < 1e-10
    assert val.imag == 0.0


def test_integrate_odd_integrand():
    val = integrate(lambda t: t * math.exp(-t * t / 2.0), -12.0, 12.0)
    assert abs(val.real) < 1e-12


def test_integrate_complex_integrand():
    val = integrate(lambda t: complex(math.cos(t), math.sin(t)), 0.0, math.pi)
    assert abs(val - 2.0j) < 1e-12


def test_integrate_gaussian_densities_random_scales():
    rng = random.Random(7)
    spec = QuadratureSpec()
    for _ in range(25):
        sigma = 10.0 ** rng.uniform(-12.0, 1.0)
        val = integrate(
            lambda t: math.exp(-t * t / (2.0 * sigma * sigma))
            / (math.sqrt(2.0 * math.pi) * sigma),
            -spec.tail_sigmas * sigma,
            spec.tail_sigmas * sigma,
            spec,
        ).real
        assert abs(val - 1.0) < spec.abs_tol * 10


def test_integrate_rejects_bad_bounds():
    with pytest.raises(ValueError):
        integrate(lambda t: 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate(lambda t: 1.0, 2.0, 1.0)


def test_integrate_raises_on_exhausted_budget():
    spec = QuadratureSpec(max_subdivisions=16)
    with pytest.raises(NonConvergenceError):
        integrate(lambda t: math.sqrt(abs(t)), -1.0, 1.0, spec)
    # the same cusp converges once the budget is realistic
    val = integrate(lambda t: math.sqrt(abs(t)), -1.0, 1.0).real
    assert abs(val - 4.0 / 3.0) < 1e-9


def test_bracket_requires_lo_below_hi():
    with pytest.raises(BracketError):
        Bracket(1.0, 1.0)
    with pytest.raises(BracketError):
        Bracket(2.0, -3.0)


def test_find_root_linear():
    assert abs(find_root(lambda x: x - 3.0, Bracket(0.0, 10.0), 1e-9) - 3.0) <= 1e-9


def test_find_root_sqrt2():
    root = find_root(lambda x: x * x - 2.0, Bracket(1.0, 2.0), 1e-9)
    assert abs(root - 1.41421356) <= 1e-8


def test_find_root_entropy_threshold():
    root = find_root(
        lambda q: 1.0 - 2.0 * binary_entropy(q), Bracket(0.01, 0.49), 1e-7
    )
    assert abs(root - 0.110028) <= 1e-6


def test_find_root_affine_invariance():
    f = lambda x: x ** 3 - 5.0
    tol = 1e-10
    direct = find_root(f, Bracket(0.0, 10.0), tol)
    mapped = find_root(lambda x: f(2.0 * x + 1.0), Bracket(-0.5, 4.5), tol / 2.0)
    assert abs((2.0 * mapped + 1.0) - direct) <= 3.0 * tol


def test_find_root_requires_sign_change():
    with pytest.raises(BracketError):
        find_root(lambda x: x * x + 1.0, Bracket(-1.0, 1.0), 1e-9)


def test_find_root_rejects_bad_tol():
    with pytest.raises(ValueError):
        find_root(lambda x: x, Bracket(-1.0, 1.0), 0.0)


def test_gaussian_state_requires_positive_real_exponent():
    with pytest.raises(ValueError):
        GaussianState(exponent_real=0.0, exponent_imag=1.0, norm=1.0 + 0j)


def test_initial_state_exponent():
    st0 = initial_state(10 * PS, 0.0)
    assert st0.exponent_real == 2.5e21
    assert st0.exponent_imag == 0.0
    st1 = initial_state(10 * PS, 1.0)
    assert st1.exponent_imag == st1.exponent_real == 2.5e21


def test_initial_state_moments_any_chirp():
    norm, mean, variance = moments(initial_state(10 * PS, 3.0))
    assert abs(norm - 1.0) <= 1e-9
    assert abs(mean) <= 1e-25
    assert abs(variance - 1e-22) <= 1e-28


def test_propagate_zero_distance_is_identity():
    out = propagate_closed_form(10 * PS, 0.7, TABLE_BETA, 0.0)
    assert out == initial_state(10 * PS, 0.7)


def test_propagate_zero_beta_is_identity():
    out = propagate_closed_form(10 * PS, -0.4, 0.0, 80 * KM)
    assert out == initial_state(10 * PS, -0.4)


def test_propagate_rejects_negative_distance():
    with pytest.raises(ValueError):
        propagate_closed_form(10 * PS, 0.0, TABLE_BETA, -1.0)


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


def test_broadened_sigma_matches_closed_form_state():
    for l in (1 * KM, 20 * KM, 150 * KM):
        state = propagate_closed_form(10 * PS, 0.5, TABLE_BETA, l)
        ref = broadened_sigma(10 * PS, 0.5, TABLE_BETA, l)
        assert abs(state.pdf_sigma - ref) <= 1e-12 * ref



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


def test_propagate_numeric_unitarity():
    l = 50 * KM
    sigma_l = broadened_sigma(10 * PS, 1.0, TABLE_BETA, l)
    outer = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)

    def density(t):
        return abs(propagate_numeric(10 * PS, 1.0, TABLE_BETA, l, t)) ** 2

    val = integrate(density, -12 * sigma_l, 12 * sigma_l, outer).real
    assert abs(val - 1.0) <= 1e-8
