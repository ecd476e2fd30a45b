"""Chirped Gaussian temporal wave functions in a dispersive medium.

A state here is psi(t) = N exp(-A t^2) with complex A. Quadratic dispersion
maps A -> A / (1 + 4i beta L A) and N -> N (1 + 4i beta L A)^{-1/2}, one code
path for both dispersion signs. The arrival-time density |psi(t)|^2 is a
zero-mean Gaussian whose standard deviation sqrt(1 / (4 Re A)) is all that
downstream detection code consumes.

Units are strict SI: times in seconds, distances in meters, beta in s^2/m.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .numerics import QuadratureSpec, integrate

__all__ = [
    "Pulse",
    "Medium",
    "GaussianState",
    "Moments",
    "initial_state",
    "propagate_closed_form",
    "propagate_numeric",
    "broadened_sigma",
    "pdf",
    "moments",
]


@dataclass(frozen=True)
class Pulse:
    """Emitted photon temporal mode: width sigma (s), dimensionless chirp."""

    sigma: float
    chirp: float = 0.0

    def __post_init__(self) -> None:
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be a positive time in seconds, got {self.sigma}")
        if not math.isfinite(self.chirp):
            raise ValueError(f"chirp must be finite, got {self.chirp}")


@dataclass(frozen=True)
class Medium:
    """Group-velocity dispersion coefficient beta (s^2/m); 0 = no dispersion."""

    beta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")


@dataclass(frozen=True)
class GaussianState:
    """psi(t) = norm * exp(-(exponent_real + 1j*exponent_imag) * t^2)."""

    exponent_real: float  # 1/s^2; > 0 for a normalizable state
    exponent_imag: float  # 1/s^2
    norm: complex

    def __post_init__(self) -> None:
        if not self.exponent_real > 0:
            raise ValueError("exponent_real must be > 0 for a normalizable state")

    @property
    def pdf_sigma(self) -> float:
        """Standard deviation of |psi|^2: sqrt(1 / (4 Re A))."""
        return math.sqrt(1.0 / (4.0 * self.exponent_real))

    def exponent(self) -> complex:
        return complex(self.exponent_real, self.exponent_imag)


@dataclass(frozen=True)
class Moments:
    norm: float
    mean: float  # s
    variance: float  # s^2


def initial_state(pulse: Pulse) -> GaussianState:
    """State at the fiber input: A = (1 + i*chirp) / (4 sigma^2)."""
    quarter_inv_s2 = 1.0 / (4.0 * pulse.sigma * pulse.sigma)
    norm = (2.0 * math.pi) ** -0.25 / math.sqrt(pulse.sigma)
    return GaussianState(
        exponent_real=quarter_inv_s2,
        exponent_imag=pulse.chirp * quarter_inv_s2,
        norm=complex(norm, 0.0),
    )


def propagate_closed_form(pulse: Pulse, medium: Medium, length: float) -> GaussianState:
    """State after propagating `length` meters; identity at L = 0 or beta = 0."""
    if length < 0:
        raise ValueError(f"propagation distance must be >= 0, got {length}")
    state = initial_state(pulse)
    if length == 0.0 or medium.beta == 0.0:
        return state
    a = state.exponent()
    denom = 1.0 + 4.0j * medium.beta * length * a
    a_l = a / denom
    return GaussianState(
        exponent_real=a_l.real,
        exponent_imag=a_l.imag,
        norm=state.norm / cmath.sqrt(denom),
    )


def propagate_numeric(
    pulse: Pulse,
    medium: Medium,
    length: float,
    t: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> complex:
    """Amplitude at time t from the free-propagator integral.

    This is the independent check on propagate_closed_form: it convolves the
    input state with the quadratic-phase kernel by quadrature and never
    touches the closed-form algebra. The integral is truncated where the
    input envelope has fallen tail_sigmas deep. Strongly oscillatory for
    small |beta| * length; callers keep length above the resolvable floor.
    """
    if not length > 0:
        raise ValueError("propagate_numeric requires length > 0; use the closed form at 0")
    if medium.beta == 0.0:
        raise ValueError("propagator kernel is singular at beta = 0")
    state = initial_state(pulse)
    a = state.exponent()
    inv_4bl = 1.0 / (4.0 * medium.beta * length)
    prefactor = state.norm / cmath.sqrt(4.0j * math.pi * medium.beta * length)

    def integrand(u: float) -> complex:
        shift = t - u
        return cmath.exp(1j * inv_4bl * shift * shift - a * u * u)

    # |psi(u)| ~ exp(-u^2 / (4 sigma^2)): scale sqrt(2)*sigma, not sigma
    half_range = spec.tail_sigmas * math.sqrt(2.0) * pulse.sigma
    # short lengths make the kernel spin fast; a panel holding many cycles
    # can alias into a deceptively small error estimate, so cap the phase
    # span per quadrature call
    max_phase = abs(inv_4bl) * (abs(t) + half_range) ** 2
    chunks = max(1, min(256, int(max_phase / (8.0 * math.pi)) + 1))
    edges = [
        -half_range + 2.0 * half_range * i / chunks for i in range(chunks + 1)
    ]
    total = 0.0 + 0.0j
    for lo, hi in zip(edges, edges[1:]):
        total += integrate(integrand, lo, hi, spec)
    return prefactor * total


def broadened_sigma(pulse: Pulse, medium: Medium, length: float) -> float:
    """Arrival-time spread after `length` meters.

    sigma_L^2 = ((sigma^2 - chirp*beta*L)^2 + (beta*L)^2) / sigma^2. With
    chirp*beta > 0 the pulse first narrows, down to sigma/sqrt(1+chirp^2)
    at L = chirp*sigma^2/((1+chirp^2)*beta), then re-broadens; otherwise it
    broadens monotonically. The test suite gates this expression against
    quadrature moments of the propagator integral.

    Only pulse.sigma, pulse.chirp and medium.beta are read, so an already
    validated ScenarioParams, which carries all three, may stand in for
    both records.
    """
    if length < 0:
        raise ValueError(f"propagation distance must be >= 0, got {length}")
    s2 = pulse.sigma * pulse.sigma
    bl = medium.beta * length
    return math.sqrt(((s2 - pulse.chirp * bl) ** 2 + bl * bl) / s2)


def pdf(state: GaussianState, t: float) -> float:
    """Arrival-time density |psi(t)|^2; only Re A and |N| enter."""
    amp2 = abs(state.norm) ** 2
    return amp2 * math.exp(-2.0 * state.exponent_real * t * t)


def moments(state: GaussianState, spec: QuadratureSpec = QuadratureSpec()) -> Moments:
    """Quadrature norm, mean and variance of |psi|^2; no closed forms used.

    Integrates in units of the state's own width so tolerances act on O(1)
    numbers instead of squared attoseconds.
    """
    s = state.pdf_sigma
    r = spec.tail_sigmas

    def density(u: float) -> float:
        return s * pdf(state, s * u)

    # fold the mean integrand onto [0, r]: u*(density(u) - density(-u)).
    # Exact rewrite for any density; for an even one the difference is
    # exactly 0.0 pointwise, so the antisymmetric halves cancel in floating
    # point instead of leaving quadrature residue scaled by the pulse width.
    norm = integrate(density, -r, r, spec).real
    mean_u = integrate(
        lambda u: u * (density(u) - density(-u)), 0.0, r, spec
    ).real
    var_u = integrate(lambda u: (u - mean_u) ** 2 * density(u), -r, r, spec).real
    return Moments(norm=norm, mean=s * mean_u, variance=s * s * var_u)
