"""Scalar numerics shared by the key-rate and analysis modules.

Everything here is built directly on the standard library: the binary
entropy, the search error type and the probability-argument check.
"""

from __future__ import annotations

import math

__all__ = ["NonConvergenceError", "binary_entropy"]


class NonConvergenceError(RuntimeError):
    """An iterative search exhausted its budget without converging."""


def _probability_error(**named: float) -> ValueError:
    """The error for the first of `named` outside [0, 1].

    The probability helpers test their inputs with one chained comparison
    and build this message only when it fails.
    """
    name, p = next((name, p) for name, p in named.items() if not 0.0 <= p <= 1.0)
    return ValueError(f"{name} must be a probability in [0, 1], got {p}")


def binary_entropy(q: float) -> float:
    """H(q) = -q log2 q - (1-q) log2 (1-q), with H(0) = H(1) = 0."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"binary_entropy argument must lie in [0, 1], got {q}")
    if q == 0.0 or q == 1.0:
        return 0.0
    p = 1.0 - q
    return -q * math.log2(q) - p * math.log2(p)
