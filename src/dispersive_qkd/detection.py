"""Arrival-time model: dispersive broadening, detector jitter and the
acceptance-window probabilities.

Quadratic dispersion keeps a chirped Gaussian pulse Gaussian and changes
only its width (broadened_sigma), so one standard deviation per distance is
all the window masses need. The detector smears arrival times with
zero-mean Gaussian jitter and accepts a click only inside a window of width
`window` centered on the expected arrival. Photons from the neighboring
slots of the pulse train sit one period off-center and leak into the window
once dispersion plus jitter have smeared them enough; exactly one such leak
produces a wrong bit. keyrate's QBER stage adds the jitter to the width in
quadrature and combines the masses these functions return.

Window masses use the standard library's `math.erf` and `math.erfc`: the C
library's piecewise rational approximations in the style of W. J. Cody
(Math. Comp. 23, 1969), accurate to within a few ulp on the real line.

Units are strict SI: times in seconds, distances in meters, beta in s^2/m.
"""

from __future__ import annotations

import math
import sys
from math import erf, erfc

__all__ = [
    "broadened_sigma",
    "p_signal",
    "shifted_window_mass",
]

_SQRT2 = math.sqrt(2.0)
_2_SQRT2 = 2.0 * _SQRT2
_2_OVER_SQRTPI = 2.0 / math.sqrt(math.pi)
# where shifted_window_mass's two error bounds meet: the erfc difference's
# eps (1 + x)^2 / u at x <= 27 (beyond it the mass underflows) and the
# midpoint series' 0.14 u^4 both come to about 2e-11 at u = 3.6e-3
_MIDPOINT_BELOW = 3e-3
_NORMAL_MIN = sys.float_info.min


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
    d = s2 - chirp * bl
    width = math.sqrt((d * d + bl * bl) / s2)
    if not width < math.inf:  # also the nan of 0 * inf
        raise ValueError(
            f"broadened width overflows a float at sigma={sigma:g} s, chirp={chirp:g}, "
            f"beta={beta:g} s^2/m, L={length:g} m"
        )
    return width


def p_signal(sigma_tot: float, window: float) -> float:
    """Mass of the centered detection Gaussian inside the window,
    erf(window / (2 sqrt(2) sigma_tot)). It reads window / sigma_tot alone,
    so where 2 sqrt(2) sigma_tot overflows, past about 6.4e307 s, both are
    quartered first: exactly, or where the quotient underflows anyway."""
    if not sigma_tot > 0:
        raise ValueError(f"sigma_tot must be > 0, got {sigma_tot}")
    if not window > 0:
        raise ValueError(f"window must be > 0, got {window}")
    scale = _2_SQRT2 * sigma_tot
    if scale == math.inf:
        window, scale = 0.25 * window, 0.25 * _2_SQRT2 * sigma_tot
    return erf(window / scale)


def shifted_window_mass(sigma_tot: float, window: float, period: float) -> float:
    """Window mass of a neighbor pulse centered one period away.

    The two neighbors sit at +-period; by symmetry of the centered window
    both see the same mass, so one number serves for q_plus and q_minus.
    In units of s = sqrt(2) sigma_tot, with x = P / s and d = h / s for
    the half window h, the mass is a difference of upper tails,
    (erfc(x - d) - erfc(x + d)) / 2, which keeps its relative accuracy
    where the window edges sit many sigma out and the equivalent difference
    of erf values would cancel. Where the window is narrow against the
    spread the two tails cancel instead, to a relative error of about
    eps (1 + x)^2 / u at u = d (1 + x). Below u = _MIDPOINT_BELOW the mass
    is therefore the midpoint series 2 d exp(-x^2) (1 + (4 x^2 - 2) d^2 / 6)
    / sqrt(pi), whose first omitted term is below 0.14 u^4 relative. Over
    30,000 draws of sigma_tot from 1 ps to 10 ns, periods from 10 ps to
    10 ns and u from 1e-8 to 0.3, the mass lay at worst 2.5e-11 off a
    60-digit Taylor reference, relative; the erfc difference alone was 1.4%
    off at the defaults' spread with a 1e-24 s window, and exactly 0 from
    about 1e-26 s down. The series needs d to be a normal float: a
    subnormal d carries fewer bits, and the mass, at most 1.13 d, then lies
    below the normal range and reads 0. A period past about 1e154 spreads
    (x * x overflows) reads 0 too. The mass reads window / sigma_tot and
    period / sigma_tot alone. It is computed in units of 2 s from the whole
    window and twice the period, since half of a window below 2**-1021
    would round away its last bit; where 2 (s + P + h) overflows, as for
    spreads past about 6.4e307 s, all three are quartered first: exactly,
    or where the mass underflows anyway.
    """
    if not sigma_tot > 0:
        raise ValueError(f"sigma_tot must be > 0, got {sigma_tot}")
    if not window > 0:
        raise ValueError(f"window must be > 0, got {window}")
    if not period > 0:
        raise ValueError(f"period must be > 0, got {period}")
    scale = _2_SQRT2 * sigma_tot
    twice = 2.0 * period
    upper = twice + window
    if scale + upper == math.inf:
        sigma_tot, window, period = 0.25 * sigma_tot, 0.25 * window, 0.25 * period
        scale, twice = _2_SQRT2 * sigma_tot, 2.0 * period
        upper = twice + window
    if window < _MIDPOINT_BELOW * scale:  # d < _MIDPOINT_BELOW, one product on the common path
        x, d = twice / scale, window / scale
        if d * (1.0 + x) < _MIDPOINT_BELOW and d >= _NORMAL_MIN:
            # x d < _MIDPOINT_BELOW keeps the correction finite where x * x
            # overflows, and the mass there reads exp(-inf) = 0
            xd = x * d
            series = 1.0 + (4.0 * xd * xd - 2.0 * d * d) / 6.0
            return _2_OVER_SQRTPI * d * math.exp(-x * x) * series
    mass = 0.5 * (erfc((twice - window) / scale) - erfc(upper / scale))
    # where the two tails nearly coincide, rounding can dip a few ulp below 0
    return mass if mass > 0.0 else 0.0

