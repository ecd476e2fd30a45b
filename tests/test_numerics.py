import math
import random

import pytest
from hypothesis import given, strategies as st

from dispersive_qkd.numerics import (
    Bracket,
    BracketError,
    NonConvergenceError,
    binary_entropy,
    erf,
    maximize_scalar,
)
from oracles import QuadratureSpec, find_root, integrate


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


def test_bracket_requires_lo_below_hi():
    with pytest.raises(BracketError):
        Bracket(1.0, 1.0)
    with pytest.raises(BracketError):
        Bracket(2.0, -3.0)


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


def test_binary_entropy_reference_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(0.11) - 0.499916) <= 1e-6


@pytest.mark.parametrize("q", [-1e-9, 1.0000000001, 2.0])
def test_binary_entropy_domain(q):
    with pytest.raises(ValueError):
        binary_entropy(q)


@given(st.floats(min_value=1e-6, max_value=0.999999))
def test_binary_entropy_symmetric(q):
    p = 1.0 - q
    if 1.0 - p == q:  # skip draws where 1-q is not exactly invertible
        assert binary_entropy(q) == binary_entropy(p)


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


def test_maximize_parabola():
    x, fx = maximize_scalar(lambda x: -((x - 1.0) ** 2), Bracket(-2.0, 2.0), 1e-6)
    assert abs(x - 1.0) <= 1e-6
    assert fx <= 0.0


def test_maximize_kinked_peak():
    x, _ = maximize_scalar(lambda x: -abs(x), Bracket(-1.0, 1.0), 1e-6)
    assert abs(x) <= 1e-6


def test_maximize_sin():
    x, fx = maximize_scalar(math.sin, Bracket(0.0, 3.0), 1e-7)
    assert abs(x - 1.5707963) <= 1e-6
    assert 1.0 - 1e-12 < fx <= 1.0  # an evaluated value, never above the true max


def test_maximize_affine_invariance():
    f = lambda x: -((x - 0.7) ** 2)
    x1, _ = maximize_scalar(f, Bracket(-2.0, 2.0), 1e-8)
    x2, _ = maximize_scalar(lambda x: f(3.0 * x - 0.5), Bracket(-0.5, 0.9), 1e-8 / 3.0)
    assert abs((3.0 * x2 - 0.5) - x1) <= 1e-7


def test_maximize_rejects_bad_tol():
    with pytest.raises(ValueError):
        maximize_scalar(math.sin, Bracket(0.0, 1.0), -1.0)
