"""Chirped Gaussian temporal wave functions in a dispersive medium.

A state here is psi(t) = N exp(-A t^2) with complex A = (1 + i*chirp) /
(4 sigma^2) at the source. Quadratic dispersion maps A -> A / (1 + 4i beta L
A), one code path for both dispersion signs. The arrival-time density
|psi(t)|^2 stays a zero-mean Gaussian whose standard deviation
sqrt(1 / (4 Re A)) is all that downstream detection code consumes.

Units are strict SI: times in seconds, distances in meters, beta in s^2/m.
"""

from __future__ import annotations

import math

__all__ = ["broadened_sigma"]


def broadened_sigma(sigma: float, chirp: float, beta: float, length: float) -> float:
    """Arrival-time spread after `length` meters.

    sigma_L^2 = ((sigma^2 - chirp*beta*L)^2 + (beta*L)^2) / sigma^2. With
    chirp*beta > 0 the pulse first narrows, down to sigma/sqrt(1+chirp^2)
    at L = chirp*sigma^2/((1+chirp^2)*beta), then re-broadens; otherwise it
    broadens monotonically. The test suite gates this expression against
    quadrature moments of the propagator integral.
    """
    if length < 0:
        raise ValueError(f"propagation distance must be >= 0, got {length}")
    s2 = sigma * sigma
    bl = beta * length
    return math.sqrt(((s2 - chirp * bl) ** 2 + bl * bl) / s2)
