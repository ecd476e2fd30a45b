"""The bisection root finder in tests/oracles.py, which criterion 06 uses."""

import pytest

from dispersive_qkd.keyrate import binary_entropy
from oracles import Bracket, BracketError, find_root


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
