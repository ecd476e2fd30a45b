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
from dataclasses import dataclass
from math import erf, erfc
from typing import Callable

from .numerics import QuadratureSpec, integrate

__all__ = [
    "Detector",
    "PulseTrain",
    "WindowProbabilities",
    "detected_sigma",
    "convolve_numeric",
    "p_signal",
    "shifted_window_mass",
    "p_wrong",
    "window_probabilities",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Detector:
    """jitter: Gaussian timing-noise std (s); window: acceptance width (s)."""

    jitter: float
    window: float

    def __post_init__(self) -> None:
        if self.jitter < 0 or not math.isfinite(self.jitter):
            raise ValueError(f"jitter must be >= 0 seconds, got {self.jitter}")
        if not self.window > 0:
            raise ValueError(f"window must be > 0 seconds, got {self.window}")


@dataclass(frozen=True)
class PulseTrain:
    """period: separation between consecutive photons in the train (s)."""

    period: float

    def __post_init__(self) -> None:
        if not self.period > 0:
            raise ValueError(f"period must be > 0 seconds, got {self.period}")


@dataclass(frozen=True)
class WindowProbabilities:
    p_sig: float
    q_plus: float
    q_minus: float
    p_w: float


def detected_sigma(sigma_l: float, jitter: float) -> float:
    """Spread of the measured arrival PDF: Gaussian convolved with Gaussian."""
    if not sigma_l > 0:
        raise ValueError(f"sigma_l must be > 0, got {sigma_l}")
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")
    return math.hypot(sigma_l, jitter)


def convolve_numeric(
    p_arrival: Callable[[float], float],
    jitter: float,
    t: float,
    spec: QuadratureSpec = QuadratureSpec(),
    *,
    p_width: float,
) -> float:
    """(p_arrival * jitter kernel)(t) by quadrature; oracle for detected_sigma.

    p_arrival is opaque, so its Gaussian scale must be passed as p_width.
    The integration runs in units of the narrower factor; the wider one then
    varies slowly across the panels and neither can slip between quadrature
    nodes, even at extreme scale ratios.
    """
    if not jitter > 0:
        raise ValueError("convolve_numeric needs jitter > 0; jitter = 0 is the identity")
    if not p_width > 0:
        raise ValueError(f"p_width must be > 0, got {p_width}")
    r = spec.tail_sigmas
    k = 1.0 / (math.sqrt(2.0 * math.pi) * jitter)
    inv_2j2 = 1.0 / (2.0 * jitter * jitter)
    if jitter <= p_width:
        # kernel units: w = (t - u) / jitter
        def integrand(w: float) -> float:
            kern = math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)
            return kern * p_arrival(t - jitter * w)

        return integrate(integrand, -r, r, spec).real
    # arrival units: x = u / p_width
    def integrand_x(x: float) -> float:
        u = p_width * x
        d = t - u
        return p_width * p_arrival(u) * k * math.exp(-inv_2j2 * d * d)

    return integrate(integrand_x, -r, r, spec).real


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


def window_probabilities(
    sigma_l: float, detector: Detector, train: PulseTrain
) -> WindowProbabilities:
    """Window bundle for a pulse of spread sigma_l seen by this detector."""
    sigma_tot = detected_sigma(sigma_l, detector.jitter)
    p_sig = p_signal(sigma_tot, detector.window)
    q = shifted_window_mass(sigma_tot, detector.window, train.period)
    return WindowProbabilities(p_sig=p_sig, q_plus=q, q_minus=q, p_w=p_wrong(q, q))
