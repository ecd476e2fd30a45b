"""Raw-key probability, QBER and BB84 secret-key rate.

Per distance: dispersion broadens the pulse, jitter widens the measured
arrival PDF, the acceptance window captures signal mass p_sig and neighbor
leakage p_w, fiber loss passes the photon with probability eta, dark counts
floor the error rate, and the sifted rate pays twice the binary entropy of
the QBER for error correction and privacy amplification.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .detection import (
    _probability_error,
    broadened_sigma,
    detected_sigma,
    p_signal,
    p_wrong,
    shifted_window_mass,
)

__all__ = [
    "TransmittanceConvention",
    "DarkCountModel",
    "ScenarioParams",
    "ProtocolPoint",
    "transmittance",
    "p_detect",
    "dark_probs",
    "p_raw_key",
    "qber",
    "binary_entropy",
    "key_rate",
    "evaluate_point",
]


class TransmittanceConvention(str, Enum):
    DB = "db"  # eta = 10^(-alpha * L / 10) with alpha in dB/km
    LITERAL = "literal"  # eta = 10^(-alpha * L), exponent taken at face value


class DarkCountModel(str, Enum):
    PAPER_LINEARIZED = "paper_linearized"  # p_zero = 1 - d*v, p_one = d*v*(1 - d*v)
    EXACT_POISSON = "exact_poisson"  # p_zero = e^(-d*v), p_one = d*v*e^(-d*v)


# Looking a member up on its Enum class takes about as long as a helper's
# arithmetic, so the per-distance helpers compare against these.
_LITERAL = TransmittanceConvention.LITERAL
_EXACT_POISSON = DarkCountModel.EXACT_POISSON


def transmittance(
    alpha: float, length_km: float, convention: TransmittanceConvention
) -> float:
    """Photon survival probability over `length_km` of fiber."""
    if convention is _LITERAL:
        return 10.0 ** (-alpha * length_km)
    return 10.0 ** (-alpha * length_km / 10.0)


def p_detect(eta: float, p_sig: float, p_w: float) -> float:
    """Click probability in the window: the signal photon, else a leaked
    neighbor that survived while the signal missed."""
    if not (0.0 <= eta <= 1.0 and 0.0 <= p_sig <= 1.0 and 0.0 <= p_w <= 1.0):
        raise _probability_error(eta=eta, p_sig=p_sig, p_w=p_w)
    return eta * (p_sig + p_w * (1.0 - eta * p_sig))


def _linearized_domain_error(mean_count: float) -> ValueError:
    return ValueError(
        f"linearized dark model needs rate*window < 1, got {mean_count}; "
        "use the exact_poisson model for this regime"
    )


def dark_probs(mean_count: float, model: DarkCountModel) -> tuple[float, float]:
    """(p_zero, p_one): no dark count / exactly one dark count in a window
    that holds `mean_count` = rate * window dark counts on average."""
    if model is _EXACT_POISSON:
        e = math.exp(-mean_count)
        return e, mean_count * e
    if mean_count >= 1.0:
        raise _linearized_domain_error(mean_count)
    return 1.0 - mean_count, mean_count * (1.0 - mean_count)


def p_raw_key(p_det: float, p_zero: float, p_one: float) -> float:
    """Raw-key bit probability per window; the 1/2 sifts basis mismatches."""
    if not (0.0 <= p_det <= 1.0 and 0.0 <= p_zero <= 1.0 and 0.0 <= p_one <= 1.0):
        raise _probability_error(p_det=p_det, p_zero=p_zero, p_one=p_one)
    return (p_det * p_zero + (1.0 - p_det) * p_one) / 2.0


def qber(eta: float, p_sig: float, p_w: float, p_det: float, mu: float) -> float:
    """Error fraction of the sifted key, given mu = rate * window.

    Errors come from a surviving neighbor photon caught while the signal was
    missed, or from a lone dark count; either flips the recorded bit half of
    the time. That is 0.25 err_mass / p_raw with err_mass = eta leak p_zero +
    (1 - p_det) p_one and leak = p_w (1 - eta p_sig), which reads the dark
    counts only through p_one / p_zero = mu under both models. Divided by
    p_zero it is 0.5 (eta leak + D mu) / (p_det + D mu) with D = 1 - p_det,
    exact where p_zero and p_one underflow. Without dark counts eta cancels
    as well, which keeps it exact down to eta = 0.
    """
    leak = p_w * (1.0 - eta * p_sig)
    if mu > 0.0:
        d_mu = (1.0 - p_det) * mu
        return 0.5 * (eta * leak + d_mu) / (p_det + d_mu)
    if not p_sig + leak > 0.0:
        raise ValueError("qber is undefined at mu = 0 with p_sig = p_w = 0 (0/0)")
    return 0.5 * leak / (p_sig + leak)


def binary_entropy(q: float) -> float:
    """H(q) = -q log2 q - (1-q) log2 (1-q), with H(0) = H(1) = 0."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"binary_entropy argument must lie in [0, 1], got {q}")
    if q == 0.0 or q == 1.0:
        return 0.0
    p = 1.0 - q
    return -q * math.log2(q) - p * math.log2(p)


# the smallest float q at which 1 - 2 H(q) <= 0: key_rate is positive exactly
# where the QBER lies below it and p_raw > 0, unless p_raw is so near the
# bottom of the float range that the rate rounds to 0
_QBER_LIMIT = 0.11002786443835955


def _threshold_transmittance(p_sig: float, p_w: float, mu: float) -> float:
    """The transmittance eta* at which qber reaches _QBER_LIMIT, at fixed
    window masses and 0 < mu < 1; inf where no eta > 0 reaches it.

    With A = p_sig, W = p_w and Q = _QBER_LIMIT, qber < Q holds exactly
    where F(eta) = (1/2 - Q) mu + eta [W/2 - (A + W)(Q + (1/2 - Q) mu)]
    - (1/2 - Q)(1 - mu) A W eta^2 < 0. The constant term is positive and the
    eta^2 term not, so F has one positive root where A W > 0, and the key is
    live exactly above it. Where A W = 0 F is linear, with a positive root
    only where its slope is negative (A > 0 = W). The root is taken from
    q = -(b + sgn(b) sqrt(b^2 - 4ac)) / 2 as c / q or q / a, with no
    cancellation (Numerical Recipes, 3rd ed., section 5.6).
    """
    h = 0.5 - _QBER_LIMIT
    a = -h * (1.0 - mu) * p_sig * p_w
    b = 0.5 * p_w - (p_sig + p_w) * (_QBER_LIMIT + h * mu)
    c = h * mu
    if b < 0.0:
        return 2.0 * c / (math.sqrt(b * b - 4.0 * a * c) - b)
    if a < 0.0:
        return (b + math.sqrt(b * b - 4.0 * a * c)) / (-2.0 * a)
    return math.inf


def key_rate(p_raw: float, q: float) -> float:
    """Secret bits per window: max{0, p_raw * (1 - 2 H(q))}."""
    if p_raw < 0:
        raise ValueError(f"p_raw must be >= 0, got {p_raw}")
    rate = p_raw * (1.0 - 2.0 * binary_entropy(q))
    return rate if rate > 0.0 else 0.0


@dataclass(frozen=True)
class ScenarioParams:
    """One physical configuration, strict SI units.

    Defaults are the standard telecom setup used throughout: 10 ps pulses,
    beta = -1.15e-26 s^2/m, 0.2 dB/km loss, 1 kHz dark rate, 100 ps train
    period, 25 ps jitter, 50 ps window.
    """

    sigma: float = 10e-12  # s
    chirp: float = 0.0
    # -1.15 * 1e-26, the float config.to_params builds from the default
    # beta_e26, which is one ulp off the literal -1.15e-26
    beta: float = -1.15 * 1e-26  # s^2/m
    alpha: float = 0.2  # dB/km (or 1/km under the literal convention)
    dark_rate: float = 1000.0  # Hz
    period: float = 100e-12  # s
    jitter: float = 25e-12  # s
    window: float = 50e-12  # s
    dark_model: DarkCountModel = DarkCountModel.PAPER_LINEARIZED
    transmittance_convention: TransmittanceConvention = TransmittanceConvention.DB

    def __post_init__(self) -> None:
        # the helpers compare members by identity, so a model named by its
        # value (as a config file does) becomes its member here; an unknown
        # name is a ValueError
        if type(self.dark_model) is not DarkCountModel:
            object.__setattr__(self, "dark_model", DarkCountModel(self.dark_model))
        if type(self.transmittance_convention) is not TransmittanceConvention:
            convention = TransmittanceConvention(self.transmittance_convention)
            object.__setattr__(self, "transmittance_convention", convention)
        # the width formula squares sigma^2 and divides by it: sigma^4 must be
        # a normal finite float, or the width rounds to 0 or overflows
        s2 = self.sigma * self.sigma
        if not (self.sigma > 0 and sys.float_info.min <= s2 * s2 < math.inf):
            raise ValueError(
                f"sigma must lie in about [1.2e-77, 1.2e77] seconds, got {self.sigma}"
            )
        _check_chirp(self.chirp)
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
        if not (self.window > 0 and math.isfinite(self.window)):
            raise ValueError(f"window must be > 0 seconds, got {self.window}")
        # dark_probs checks this too, but the QBER reads only mu, so the
        # secure-range search never calls it; an infinite mu makes the QBER
        # inf / inf
        mu = self.dark_rate * self.window
        if not mu < math.inf:
            raise ValueError(f"dark_rate * window must be finite, got {mu}")
        if self.dark_model is DarkCountModel.PAPER_LINEARIZED and mu >= 1.0:
            raise _linearized_domain_error(mu)

    def _at_chirp(self, chirp: float) -> ScenarioParams:
        """This record with its chirp replaced: replace(self, chirp=chirp),
        but with only the chirp checked, since every other field was checked
        when this record was built. scan_chirp builds one per grid chirp."""
        _check_chirp(chirp)
        record = object.__new__(ScenarioParams)
        record.__dict__.update(self.__dict__, chirp=chirp)
        return record


def _check_chirp(chirp: float) -> None:
    if not math.isfinite(chirp):
        raise ValueError(f"chirp must be finite, got {chirp}")


@dataclass(frozen=True, init=False)
class ProtocolPoint:
    """Every intermediate of the pipeline at one distance.

    At the degenerate p_raw = 0 edge key_rate is exactly 0, and qber is
    still exact: it reads the dark counts through mu = rate * window alone,
    and without them the transmittance cancels from it. Only at mu = 0 with
    p_sig = p_w = 0, where it is 0/0, does qber carry the 0.5 sentinel.
    """

    p_sig: float
    p_w: float
    p_det: float
    p_zero: float
    p_one: float
    p_raw: float
    qber: float
    key_rate: float

    def __init__(
        self,
        p_sig: float,
        p_w: float,
        p_det: float,
        p_zero: float,
        p_one: float,
        p_raw: float,
        qber: float,
        key_rate: float,
    ) -> None:
        # one dict update in place of the generated frozen __init__'s
        # object.__setattr__ call per field, which cost more than twice as
        # much; every sweep row builds a point
        self.__dict__.update(
            p_sig=p_sig,
            p_w=p_w,
            p_det=p_det,
            p_zero=p_zero,
            p_one=p_one,
            p_raw=p_raw,
            qber=qber,
            key_rate=key_rate,
        )

    @property
    def degenerate(self) -> bool:
        """True at the p_raw = 0 edge, where no raw key is produced."""
        return self.p_raw == 0.0


def _qber_stage(
    params: ScenarioParams, chirp: float, mu: float, distance: float
) -> tuple[float, float, float, float]:
    """(p_sig, p_w, p_det, qber) at one propagation distance (meters) and
    source chirp, given mu = params.dark_rate * params.window.

    The one composition of the helpers up to the QBER. evaluate_point passes
    params.chirp and adds the rate tail; the secure-range search reads the
    QBER alone, takes mu once per search, and passes the chirp of its path,
    so no step builds a parameter record or reads the dark model. params was
    validated when it was built, so its scalars feed the formulas directly;
    broadened_sigma checks the distance. See ProtocolPoint for the 0.5
    sentinel.
    """
    sigma_l = broadened_sigma(params.sigma, chirp, params.beta, distance)
    sigma_tot = detected_sigma(sigma_l, params.jitter)
    p_sig = p_signal(sigma_tot, params.window)
    q = shifted_window_mass(sigma_tot, params.window, params.period)
    p_w = p_wrong(q)
    eta = transmittance(params.alpha, distance / 1000.0, params.transmittance_convention)
    p_det = p_detect(eta, p_sig, p_w)
    q_err = qber(eta, p_sig, p_w, p_det, mu) if mu > 0.0 or p_sig + p_w > 0.0 else 0.5
    return p_sig, p_w, p_det, q_err


def evaluate_point(params: ScenarioParams, distance: float) -> ProtocolPoint:
    """Run the full pipeline at one propagation distance (meters).

    The QBER stage _qber_stage, shared with the secure-range search, then
    the rate tail: the window's dark-count probabilities, p_raw and the key
    rate. Sweeps and the CLI's point read this record.
    """
    mu = params.dark_rate * params.window
    p_sig, p_w, p_det, q_err = _qber_stage(params, params.chirp, mu, distance)
    p_zero, p_one = dark_probs(mu, params.dark_model)
    p_raw = p_raw_key(p_det, p_zero, p_one)
    return ProtocolPoint(
        p_sig, p_w, p_det, p_zero, p_one, p_raw, q_err, key_rate(p_raw, q_err)
    )
