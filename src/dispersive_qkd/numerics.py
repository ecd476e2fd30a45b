"""Scalar numerics shared by the key-rate and analysis modules.

Everything here is built directly on the standard library: the binary
entropy and a golden-section search. The error function is `math.erf`,
re-exported here as `erf`. It and `math.erfc` are the C library's piecewise
rational approximations in the style of W. J. Cody (Math. Comp. 23, 1969),
accurate to within a few ulp on the real line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import erf
from typing import Callable

__all__ = [
    "Bracket",
    "NonConvergenceError",
    "BracketError",
    "erf",
    "binary_entropy",
    "maximize_scalar",
]


class NonConvergenceError(RuntimeError):
    """An iterative search exhausted its budget without converging."""


class BracketError(ValueError):
    """A root/maximum bracket is inverted or has no sign change."""


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise BracketError(f"bracket needs lo < hi, got [{self.lo}, {self.hi}]")


def binary_entropy(q: float) -> float:
    """H(q) = -q log2 q - (1-q) log2 (1-q), with H(0) = H(1) = 0."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"binary_entropy argument must lie in [0, 1], got {q}")
    if q == 0.0 or q == 1.0:
        return 0.0
    p = 1.0 - q
    return -q * math.log2(q) - p * math.log2(p)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def maximize_scalar(
    f: Callable[[float], float], bracket: Bracket, tol: float
) -> tuple[float, float]:
    """Golden-section maximum of a unimodal f; returns (x_star, f_star).

    f_star is always an actually-evaluated value, never an interpolation, so
    callers can compare it against coarse-grid samples.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    lo, hi = bracket.lo, bracket.hi
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    while hi - lo > tol:
        if f1 < f2:
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
            if f2 > best_f:
                best_x, best_f = x2, f2
        else:
            hi = x2
            x2, f2 = x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
            if f1 > best_f:
                best_x, best_f = x1, f1
        if not x1 < x2:  # section step underflowed
            break
    mid = 0.5 * (lo + hi)
    fm = f(mid)
    if fm >= best_f:
        return mid, fm
    return best_x, best_f
