"""Raw-key probability, QBER and BB84 secret-key rate.

Per distance: dispersion broadens the pulse, jitter widens the measured
arrival PDF, the acceptance window captures signal mass p_sig and neighbor
leakage p_w, fiber loss passes the photon with probability eta, dark counts
floor the error rate, and the sifted rate pays twice the binary entropy of
the QBER for error correction and privacy amplification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .detection import detected_sigma, p_signal, p_wrong, shifted_window_mass
from .numerics import binary_entropy
from .twf import broadened_sigma

__all__ = [
    "TransmittanceConvention",
    "DarkCountModel",
    "Channel",
    "DarkCounts",
    "ScenarioParams",
    "ProtocolPoint",
    "transmittance",
    "p_detect",
    "dark_probs",
    "p_raw_key",
    "qber",
    "key_rate",
    "evaluate_point",
]


class TransmittanceConvention(str, Enum):
    DB = "db"  # eta = 10^(-alpha * L / 10) with alpha in dB/km
    LITERAL = "literal"  # eta = 10^(-alpha * L), exponent taken at face value


class DarkCountModel(str, Enum):
    PAPER_LINEARIZED = "paper_linearized"  # p_zero = 1 - d*v, p_one = d*v*(1 - d*v)
    EXACT_POISSON = "exact_poisson"  # p_zero = e^(-d*v), p_one = d*v*e^(-d*v)


@dataclass(frozen=True)
class Channel:
    """Fiber of `length` km with attenuation `alpha` (dB/km by default)."""

    alpha: float
    length: float
    convention: TransmittanceConvention = TransmittanceConvention.DB

    def __post_init__(self) -> None:
        if self.alpha < 0 or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.length < 0 or not math.isfinite(self.length):
            raise ValueError(f"length must be >= 0 km, got {self.length}")


@dataclass(frozen=True)
class DarkCounts:
    """Detector dark-count rate (Hz) and the per-window count model."""

    rate: float
    model: DarkCountModel = DarkCountModel.PAPER_LINEARIZED

    def __post_init__(self) -> None:
        if self.rate < 0 or not math.isfinite(self.rate):
            raise ValueError(f"dark rate must be >= 0 Hz, got {self.rate}")


def transmittance(channel: Channel) -> float:
    """Photon survival probability over the channel."""
    return _transmittance(channel.alpha, channel.length, channel.convention)


def _transmittance(
    alpha: float, length: float, convention: TransmittanceConvention
) -> float:
    if convention is TransmittanceConvention.LITERAL:
        return 10.0 ** (-alpha * length)
    return 10.0 ** (-alpha * length / 10.0)


def p_detect(eta: float, p_sig: float, p_w: float) -> float:
    """Click probability in the window: the signal photon, else a leaked
    neighbor that survived while the signal missed."""
    for name, p in (("eta", eta), ("p_sig", p_sig), ("p_w", p_w)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must be a probability in [0, 1], got {p}")
    return eta * (p_sig + p_w * (1.0 - eta * p_sig))


def dark_probs(dark: DarkCounts, window: float) -> tuple[float, float]:
    """(p_zero, p_one): no dark count / exactly one dark count per window."""
    if not window > 0:
        raise ValueError(f"window must be > 0 seconds, got {window}")
    return _dark_probs(dark.rate * window, dark.model)


def _dark_probs(x: float, model: DarkCountModel) -> tuple[float, float]:
    """dark_probs for a mean of x dark counts per window."""
    if model is DarkCountModel.EXACT_POISSON:
        e = math.exp(-x)
        return e, x * e
    if x >= 1.0:
        raise ValueError(
            f"linearized dark model needs rate*window < 1, got {x}; "
            "use the exact_poisson model for this regime"
        )
    return 1.0 - x, x * (1.0 - x)


def p_raw_key(p_det: float, p_zero: float, p_one: float) -> float:
    """Raw-key bit probability per window; the 1/2 sifts basis mismatches."""
    for name, p in (("p_det", p_det), ("p_zero", p_zero), ("p_one", p_one)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must be a probability in [0, 1], got {p}")
    return (p_det * p_zero + (1.0 - p_det) * p_one) / 2.0


def qber(
    eta: float,
    p_sig: float,
    p_w: float,
    p_det: float,
    p_zero: float,
    p_one: float,
    p_raw: float,
) -> float:
    """Error fraction of the sifted key.

    Errors come from a surviving neighbor photon caught while the signal was
    missed, or from a lone dark count; either flips the recorded bit half of
    the time.
    """
    if p_raw <= 0.0:
        raise ValueError("qber is undefined at p_raw = 0 (degenerate denominator)")
    err_mass = eta * p_w * (1.0 - eta * p_sig) * p_zero + (1.0 - p_det) * p_one
    return 0.25 * err_mass / p_raw


def key_rate(p_raw: float, q: float) -> float:
    """Secret bits per window: max{0, p_raw * (1 - 2 H(q))}."""
    if p_raw < 0:
        raise ValueError(f"p_raw must be >= 0, got {p_raw}")
    return max(0.0, p_raw * (1.0 - 2.0 * binary_entropy(q)))


@dataclass(frozen=True)
class ScenarioParams:
    """One physical configuration, strict SI units.

    Defaults are the standard telecom setup used throughout: 10 ps pulses,
    beta = -1.15e-26 s^2/m, 0.2 dB/km loss, 1 kHz dark rate, 100 ps train
    period, 25 ps jitter, 50 ps window.
    """

    sigma: float = 10e-12  # s
    chirp: float = 0.0
    beta: float = -1.15e-26  # s^2/m
    alpha: float = 0.2  # dB/km (or 1/km under the literal convention)
    dark_rate: float = 1000.0  # Hz
    period: float = 100e-12  # s
    jitter: float = 25e-12  # s
    window: float = 50e-12  # s
    dark_model: DarkCountModel = DarkCountModel.PAPER_LINEARIZED
    transmittance_convention: TransmittanceConvention = TransmittanceConvention.DB

    def __post_init__(self) -> None:
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be > 0 seconds, got {self.sigma}")
        if not math.isfinite(self.chirp):
            raise ValueError(f"chirp must be finite, got {self.chirp}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not (self.dark_rate >= 0 and math.isfinite(self.dark_rate)):
            raise ValueError(f"dark_rate must be >= 0 Hz, got {self.dark_rate}")
        if not self.period > 0:
            raise ValueError(f"period must be > 0 seconds, got {self.period}")
        if not (self.jitter >= 0 and math.isfinite(self.jitter)):
            raise ValueError(f"jitter must be >= 0 seconds, got {self.jitter}")
        if not self.window > 0:
            raise ValueError(f"window must be > 0 seconds, got {self.window}")


@dataclass(frozen=True)
class ProtocolPoint:
    """Every intermediate of the pipeline at one distance.

    degenerate marks the p_raw = 0 edge where the QBER denominator vanishes;
    qber then carries the 0.5 sentinel and key_rate is exactly 0.
    """

    p_sig: float
    p_w: float
    p_det: float
    p_zero: float
    p_one: float
    p_raw: float
    qber: float
    key_rate: float
    degenerate: bool = False


def evaluate_point(params: ScenarioParams, distance: float) -> ProtocolPoint:
    """Run the full pipeline at one propagation distance (meters).

    params was validated when it was built, so its scalars feed the
    formulas directly and no per-call record is built.
    """
    if distance < 0 or not math.isfinite(distance):
        raise ValueError(f"distance must be >= 0 meters, got {distance}")
    sigma_l = broadened_sigma(params, params, distance)
    sigma_tot = detected_sigma(sigma_l, params.jitter)
    p_sig = p_signal(sigma_tot, params.window)
    q = shifted_window_mass(sigma_tot, params.window, params.period)
    p_w = p_wrong(q, q)
    eta = _transmittance(
        params.alpha, distance / 1000.0, params.transmittance_convention
    )
    p_det = p_detect(eta, p_sig, p_w)
    p_zero, p_one = _dark_probs(params.dark_rate * params.window, params.dark_model)
    p_raw = p_raw_key(p_det, p_zero, p_one)
    if p_raw == 0.0:
        return ProtocolPoint(
            p_sig=p_sig,
            p_w=p_w,
            p_det=p_det,
            p_zero=p_zero,
            p_one=p_one,
            p_raw=p_raw,
            qber=0.5,
            key_rate=0.0,
            degenerate=True,
        )
    q_err = qber(eta, p_sig, p_w, p_det, p_zero, p_one, p_raw)
    return ProtocolPoint(
        p_sig=p_sig,
        p_w=p_w,
        p_det=p_det,
        p_zero=p_zero,
        p_one=p_one,
        p_raw=p_raw,
        qber=q_err,
        key_rate=key_rate(p_raw, q_err),
    )
