"""Raw-key probability, QBER and BB84 secret-key rate.

Per distance: dispersion broadens the pulse, jitter widens the measured
arrival PDF, the acceptance window captures signal mass p_sig and neighbor
leakage p_w, fiber loss passes the photon with probability eta, dark counts
floor the error rate, and the sifted rate pays twice the binary entropy of
the QBER for error correction and privacy amplification. One private stage,
_qber_stage, writes the loss law and the QBER out; the record fixes its
loss convention and dark counts once, when it is built.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .detection import broadened_sigma, p_signal, shifted_window_mass

__all__ = [
    "TransmittanceConvention",
    "DarkCountModel",
    "ScenarioParams",
    "ProtocolPoint",
    "dark_probs",
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


# unit scales, SI per human unit; config exports them as PS, KM and BETA_UNIT
_PS = 1e-12  # seconds per picosecond
_KM = 1e3  # meters per kilometer
_BETA_UNIT = 1e-26  # s^2/m per beta_e26 unit


def _threshold_distance(params: ScenarioParams, p_sig: float, p_w: float) -> float:
    """The distance (km) at which params' transmittance falls to the
    threshold transmittance eta* of the window masses p_sig and p_w: the
    inverse of _qber_stage's loss law there, read from the record's mu and
    loss divisor. Not positive where eta* >= 1 (-inf where eta* = inf), and
    inf where eta* rounds to 0, which the transmittance never reaches.

    The one statement of eta*'s domain: it exists only where 0 < mu < 1,
    and a distance reaches it only where the loss per km, alpha over the
    loss divisor, is positive (alpha > 0, and not so small that the
    quotient rounds to 0). Without dark counts, without loss, or with
    mu >= 1 (exact Poisson) this returns 0.0, a distance that certifies
    nothing, so it raises for no record.
    """
    per_km = params.alpha / params._loss_divisor
    if not (0.0 < params._mu < 1.0 and per_km > 0.0):
        return 0.0
    eta_star = _threshold_transmittance(p_sig, p_w, params._mu)
    return -math.log10(eta_star) / per_km if eta_star > 0.0 else math.inf


def dark_probs(mean_count: float, model: DarkCountModel) -> tuple[float, float]:
    """(p_zero, p_one): no dark count / exactly one dark count in a window
    that holds `mean_count` = rate * window dark counts on average."""
    if model is DarkCountModel.EXACT_POISSON:
        e = math.exp(-mean_count)
        return e, mean_count * e
    if mean_count >= 1.0:
        raise ValueError(
            f"linearized dark model needs rate*window < 1, got {mean_count}; "
            "use the exact_poisson model for this regime"
        )
    return 1.0 - mean_count, mean_count * (1.0 - mean_count)


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
    """The transmittance eta* at which _qber_stage's QBER reaches
    _QBER_LIMIT, at fixed window masses and 0 < mu < 1; inf where no eta > 0
    reaches it.

    With A = p_sig, W = p_w and Q = _QBER_LIMIT, the QBER lies below Q exactly
    where F(eta) = (1/2 - Q) mu + eta [W/2 - (A + W)(Q + (1/2 - Q) mu)]
    - (1/2 - Q)(1 - mu) A W eta^2 < 0. The constant term is positive and the
    eta^2 term not, so F has one positive root where A W > 0, and the key is
    live exactly above it. Where A W = 0 F is linear, with a positive root
    only where its slope is negative (A > 0 = W). The root is taken from
    q = -(b + sgn(b) sqrt(b^2 - 4ac)) / 2 as c / q or q / a, with no
    cancellation (Numerical Recipes, 3rd ed., section 5.6). Where c = (1/2 -
    Q) mu is subnormal it has lost the digits of mu, or rounded to 0 at mu
    of one subnormal ulp, so there mu multiplies the quotient instead.
    """
    h = 0.5 - _QBER_LIMIT
    a = -h * (1.0 - mu) * p_sig * p_w
    b = 0.5 * p_w - (p_sig + p_w) * (_QBER_LIMIT + h * mu)
    c = h * mu
    if b < 0.0:
        if c < sys.float_info.min:
            return mu * (2.0 * h / (math.sqrt(b * b - 4.0 * a * c) - b))
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

    Building a record checks its fields, then derives what every evaluation
    of it shares, as attributes that are not fields: _mu, the mean dark
    count rate * window; _dark, dark_probs' (p_zero, p_one) for it, whose
    call is the one check of the linearized model's domain; _loss_divisor,
    the divisor of alpha * L in the loss law's exponent, 10.0 under the db
    convention and 1.0 under the literal one; and _source, _qber_stage's
    (p_sig, p_w, p_det, qber) at L = 0, where the width is sigma at any
    chirp. Every secure-range search of the record, at any chirp along any
    path, reads its source point there. Equality, hashing and repr read the
    fields alone, and replace() derives them anew.
    """

    sigma: float = 10e-12  # s
    chirp: float = 0.0
    # -1.15 * 1e-26, the float config.to_params builds from the default
    # beta_e26, which is one ulp off the literal -1.15e-26
    beta: float = -1.15 * _BETA_UNIT  # s^2/m
    alpha: float = 0.2  # dB/km (or 1/km under the literal convention)
    dark_rate: float = 1000.0  # Hz
    period: float = 100e-12  # s
    jitter: float = 25e-12  # s
    window: float = 50e-12  # s
    dark_model: DarkCountModel = DarkCountModel.PAPER_LINEARIZED
    transmittance_convention: TransmittanceConvention = TransmittanceConvention.DB

    def __post_init__(self) -> None:
        # dark_probs and the loss divisor compare members by identity, so a
        # model or convention named by its value (as a config file does)
        # becomes its member here; an unknown name is a ValueError
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
        # an infinite mu makes the QBER inf / inf
        mu = self.dark_rate * self.window
        if not mu < math.inf:
            raise ValueError(f"dark_rate * window must be finite, got {mu}")
        object.__setattr__(self, "_mu", mu)
        object.__setattr__(self, "_dark", dark_probs(mu, self.dark_model))
        literal = self.transmittance_convention is TransmittanceConvention.LITERAL
        object.__setattr__(self, "_loss_divisor", 1.0 if literal else 10.0)
        object.__setattr__(self, "_source", _qber_stage(self, self.chirp, 0.0))

    def _at_chirp(self, chirp: float) -> ScenarioParams:
        """This record with its chirp replaced: replace(self, chirp=chirp),
        but with only the chirp checked, since every other field was checked
        when this record was built. The derived attributes are carried
        unchanged; for the source point that is exact because at L = 0,
        chirp * beta * 0.0 is +-0.0, so the width is the same float at any
        finite chirp. scan_chirp builds one per grid chirp."""
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
    p_sig = p_w = 0, where it is 0/0, does it carry the 0.5 sentinel, which
    _qber_stage returns there.
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
    params: ScenarioParams, chirp: float, distance: float
) -> tuple[float, float, float, float]:
    """(p_sig, p_w, p_det, qber) at one propagation distance (meters) and
    source chirp.

    The pipeline up to the QBER, in one place. evaluate_point passes
    params.chirp and adds the rate tail from the record's dark-count
    probabilities; a record stores it at L = 0 when it is built; the
    secure-range search reads the QBER alone and passes the chirp of its
    path, so no step builds a parameter record or reads the dark model.
    params was validated when it was built, so its scalars feed the formulas
    directly; broadened_sigma checks the distance. The detected spread is
    the pulse convolved with the Gaussian jitter, hypot(sigma_L, jitter). A
    wrong bit needs exactly one of the two neighbors, each landing with mass
    q, in the window: p_w = 2 q (1 - q), since both landing is a discarded
    double count. The fiber passes a photon with probability eta =
    10^(-alpha L / d), L in km, with the record's loss divisor d: 10 for
    alpha in dB/km, 1 under the literal convention. A click comes from the
    signal photon, else from a leaked neighbor that survived while the
    signal missed: p_det = eta (p_sig + leak) with leak = p_w (1 - eta
    p_sig).

    Errors come from a surviving neighbor photon caught while the signal was
    missed, or from a lone dark count; either flips the recorded bit half of
    the time. So the QBER is 0.25 err_mass / p_raw with err_mass = eta leak
    p_zero + (1 - p_det) p_one, which reads the dark counts only through
    p_one / p_zero = mu = params._mu under both models. Divided by p_zero it
    is 0.5 (eta leak + D mu) / (p_det + D mu) with D = 1 - p_det, exact where
    p_zero and p_one underflow. Without dark counts eta cancels as well,
    which keeps it exact down to eta = 0. The 1/2 is applied after the
    division, where it is exact for every normal ratio; applied first, it
    rounds a sum of one subnormal ulp to 0. At mu = 0 with p_sig = p_w = 0
    the ratio is 0/0, and the stage returns the sentinel 0.5.
    """
    sigma_l = broadened_sigma(params.sigma, chirp, params.beta, distance)
    sigma_tot = math.hypot(sigma_l, params.jitter)
    p_sig = p_signal(sigma_tot, params.window)
    q = shifted_window_mass(sigma_tot, params.window, params.period)
    p_w = 2.0 * q * (1.0 - q)
    eta = 10.0 ** (-params.alpha * (distance / _KM) / params._loss_divisor)
    leak = p_w * (1.0 - eta * p_sig)
    p_det = eta * (p_sig + leak)
    if params._mu > 0.0:
        d_mu = (1.0 - p_det) * params._mu
        return p_sig, p_w, p_det, (eta * leak + d_mu) / (p_det + d_mu) * 0.5
    return p_sig, p_w, p_det, leak / (p_sig + leak) * 0.5 if p_sig + leak > 0.0 else 0.5


def evaluate_point(params: ScenarioParams, distance: float) -> ProtocolPoint:
    """Run the full pipeline at one propagation distance (meters).

    The QBER stage _qber_stage, shared with the secure-range search, then
    the rate tail: the window's dark-count probabilities, which the record
    derived when it was built, the raw-key bit probability p_raw (a click
    with no dark count, or a lone dark count without a click; the 1/2 sifts
    basis mismatches) and the key rate. Sweeps and the CLI's point read this
    record.
    """
    p_sig, p_w, p_det, q_err = _qber_stage(params, params.chirp, distance)
    p_zero, p_one = params._dark
    p_raw = (p_det * p_zero + (1.0 - p_det) * p_one) / 2.0
    return ProtocolPoint(
        p_sig, p_w, p_det, p_zero, p_one, p_raw, q_err, key_rate(p_raw, q_err)
    )
