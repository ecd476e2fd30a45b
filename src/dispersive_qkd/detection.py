"""Arrival-time model: dispersive broadening, detector jitter and the
acceptance-window probabilities.

Quadratic dispersion keeps a chirped Gaussian pulse Gaussian and changes
only its width (broadened_sigma), so one standard deviation per distance is
all the window masses need. The detector smears arrival times with
zero-mean Gaussian jitter and accepts a click only inside a window of width
`window` centered on the expected arrival. Photons from the neighboring
slots of the pulse train sit one period off-center and leak into the window
once dispersion plus jitter have smeared them enough; exactly one such leak
produces a wrong bit.

Window masses use the standard library's `math.erf` and `math.erfc`: the C
library's piecewise rational approximations in the style of W. J. Cody
(Math. Comp. 23, 1969), accurate to within a few ulp on the real line.

Units are strict SI: times in seconds, distances in meters, beta in s^2/m.
"""

from __future__ import annotations

import math
from math import erf, erfc

__all__ = [
    "broadened_sigma",
    "detected_sigma",
    "p_signal",
    "shifted_window_mass",
    "p_wrong",
]

_SQRT2 = math.sqrt(2.0)


def _probability_error(**named: float) -> ValueError:
    """The error for the first of `named` outside [0, 1].

    The probability helpers test their inputs with one chained comparison
    and build this message only when it fails.
    """
    name, p = next((name, p) for name, p in named.items() if not 0.0 <= p <= 1.0)
    return ValueError(f"{name} must be a probability in [0, 1], got {p}")


def broadened_sigma(sigma: float, chirp: float, beta: float, length: float) -> float:
    """Arrival-time spread after `length` meters.

    sigma_L^2 = ((sigma^2 - chirp*beta*L)^2 + (beta*L)^2) / sigma^2. With
    chirp*beta > 0 the pulse first narrows, down to sigma/sqrt(1+chirp^2)
    at L = chirp*sigma^2/((1+chirp^2)*beta), then re-broadens; otherwise it
    broadens monotonically. The test suite gates this expression against
    quadrature moments of the propagator integral. Raises ValueError where
    length is negative, nan or infinite, the one check of the propagation
    distance on every path, and where the width is not a finite float
    (beta*L or a square overflows).
    """
    if not 0.0 <= length < math.inf:
        raise ValueError(f"propagation distance must be >= 0 m and finite, got {length}")
    s2 = sigma * sigma
    bl = beta * length
    try:
        width = math.sqrt(((s2 - chirp * bl) ** 2 + bl * bl) / s2)
    except OverflowError:
        width = math.inf
    if not width < math.inf:  # also the nan of 0 * inf
        raise ValueError(
            f"broadened width overflows a float at sigma={sigma:g} s, chirp={chirp:g}, "
            f"beta={beta:g} s^2/m, L={length:g} m"
        )
    return width


def detected_sigma(sigma_l: float, jitter: float) -> float:
    """Spread of the measured arrival PDF: Gaussian convolved with Gaussian."""
    if not sigma_l > 0:
        raise ValueError(f"sigma_l must be > 0, got {sigma_l}")
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")
    return math.hypot(sigma_l, jitter)


def p_signal(sigma_tot: float, window: float) -> float:
    """Mass of the centered detection Gaussian inside the window."""
    if not sigma_tot > 0:
        raise ValueError(f"sigma_tot must be > 0, got {sigma_tot}")
    if not window > 0:
        raise ValueError(f"window must be > 0, got {window}")
    return erf(window / (2.0 * _SQRT2 * sigma_tot))


def shifted_window_mass(sigma_tot: float, window: float, period: float) -> float:
    """Window mass of a neighbor pulse centered one period away.

    The two neighbors sit at +-period; by symmetry of the centered window
    both see the same mass, so one number serves for q_plus and q_minus.
    The mass is a difference of upper tails, erfc((P-h)/s) - erfc((P+h)/s),
    which keeps its relative accuracy where the window edges sit many
    sigma out and the equivalent difference of erf values would cancel.
    """
    if not sigma_tot > 0:
        raise ValueError(f"sigma_tot must be > 0, got {sigma_tot}")
    if not window > 0:
        raise ValueError(f"window must be > 0, got {window}")
    if not period > 0:
        raise ValueError(f"period must be > 0, got {period}")
    scale = _SQRT2 * sigma_tot
    half = 0.5 * window
    mass = 0.5 * (erfc((period - half) / scale) - erfc((period + half) / scale))
    # where the two tails nearly coincide, rounding can dip a few ulp below 0
    return mass if mass > 0.0 else 0.0


def p_wrong(q: float) -> float:
    """Probability that exactly one neighbor photon lands in the window.

    Each neighbor lands with the same mass q (shifted_window_mass). Both
    clicking is a discarded double count, hence the exclusive combination
    q(1-q) + (1-q)q.
    """
    if not 0.0 <= q <= 1.0:
        raise _probability_error(q=q)
    return 2.0 * q * (1.0 - q)
