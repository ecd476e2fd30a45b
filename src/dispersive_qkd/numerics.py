"""Scalar numerics shared by the pulse, detection and key-rate modules.

Everything here is built directly on the standard library so the full
computation chain stays auditable end to end: adaptive Gauss-Kronrod
quadrature, bisection, and golden-section search. The error function is
`math.erf`, re-exported here as `erf`. It and `math.erfc` are the C
library's piecewise rational approximations in the style of W. J. Cody
(Math. Comp. 23, 1969), accurate to within a few ulp on the real line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from math import erf
from typing import Callable

__all__ = [
    "QuadratureSpec",
    "Bracket",
    "NonConvergenceError",
    "BracketError",
    "erf",
    "binary_entropy",
    "integrate",
    "find_root",
    "maximize_scalar",
]


class NonConvergenceError(RuntimeError):
    """An iterative routine exhausted its subdivision budget."""


class BracketError(ValueError):
    """A root/maximum bracket is inverted or has no sign change."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive-quadrature controls.

    tail_sigmas sets where callers truncate infinite-range integrals:
    +-tail_sigmas times the Gaussian scale of the integrand. Every integrand
    in this package has Gaussian tails, so 12 sigma leaves < 1e-30 outside.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2 ** 14
    tail_sigmas: float = 12.0

    def __post_init__(self) -> None:
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if not self.tail_sigmas >= 8:
            raise ValueError("tail_sigmas below 8 truncates visible Gaussian mass")


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


# 15-point Kronrod nodes on [-1, 1] with the embedded 7-point Gauss rule.
_GK_NODES = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_GK_WEIGHTS = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_G_WEIGHTS = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _gk15(f: Callable[[float], complex], a: float, b: float) -> tuple[complex, float]:
    """Kronrod-15 estimate on [a, b]; error gauged against embedded Gauss-7."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = complex(f(mid))
    kron = _GK_WEIGHTS[7] * fc
    gauss = _G_WEIGHTS[3] * fc
    for j in range(7):
        dx = half * _GK_NODES[j]
        pair = complex(f(mid - dx)) + complex(f(mid + dx))
        kron += _GK_WEIGHTS[j] * pair
        if j % 2 == 1:
            gauss += _G_WEIGHTS[j // 2] * pair
    return kron * half, abs((kron - gauss) * half)


def integrate(
    f: Callable[[float], complex],
    a: float,
    b: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> complex:
    """Globally adaptive integral of a complex-valued f over [a, b].

    Splits the interval with the largest Kronrod/Gauss discrepancy until the
    summed error estimate drops below max(abs_tol, rel_tol * |result|).
    """
    if not a < b:
        raise ValueError(f"integration bounds must satisfy a < b, got [{a}, {b}]")
    n_seed = min(16, spec.max_subdivisions)
    step = (b - a) / n_seed
    heap: list[tuple[float, float, float, complex]] = []
    total = 0j
    err_total = 0.0
    for i in range(n_seed):
        lo = a + i * step
        hi = b if i == n_seed - 1 else a + (i + 1) * step
        val, err = _gk15(f, lo, hi)
        total += val
        err_total += err
        heappush(heap, (-err, lo, hi, val))
    count = n_seed
    while err_total > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if count >= spec.max_subdivisions:
            raise NonConvergenceError(
                f"quadrature error {err_total:.3e} still above tolerance "
                f"after {count} subdivisions"
            )
        neg_err, lo, hi, val = heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total += v1 + v2 - val
        err_total += e1 + e2 + neg_err
        heappush(heap, (-e1, lo, mid, v1))
        heappush(heap, (-e2, mid, hi, v2))
        count += 1
    # re-sum the panels once; the running total accumulates update noise
    return sum(item[3] for item in heap)


def find_root(f: Callable[[float], float], bracket: Bracket, tol: float) -> float:
    """Bisection root of f on the bracket.

    Bisection is deliberate: the key-rate curve this serves has a kink where
    the positive part clips to zero, which breaks derivative-based methods.
    The result lies inside a final interval of width <= tol containing the
    sign change.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f = ({flo}, {fhi})")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # tol below float spacing
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


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
