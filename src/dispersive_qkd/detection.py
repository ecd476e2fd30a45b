"""Detector timing response and acceptance-window probabilities.

The detector smears arrival times with zero-mean Gaussian jitter and accepts
a click only inside a window of width `window` centered on the expected
arrival. Photons from the neighboring slots of the pulse train sit one
period off-center and leak into the window once dispersion plus jitter have
smeared them enough; exactly one such leak produces a wrong bit.

Window masses use the standard library's `math.erf` and `math.erfc`.
"""

from __future__ import annotations

import math
from math import erf, erfc

__all__ = ["detected_sigma", "p_signal", "shifted_window_mass", "p_wrong"]

_SQRT2 = math.sqrt(2.0)


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
    return max(0.0, mass)


def p_wrong(q_plus: float, q_minus: float) -> float:
    """Probability that exactly one neighbor photon lands in the window.

    Both neighbors clicking is a discarded double count, hence the exclusive
    combination q+(1-q-) + q-(1-q+).
    """
    for name, q in (("q_plus", q_plus), ("q_minus", q_minus)):
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"{name} must be a probability in [0, 1], got {q}")
    return q_plus * (1.0 - q_minus) + q_minus * (1.0 - q_plus)
