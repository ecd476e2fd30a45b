"""Quadrature oracles for the closed forms in `dispersive_qkd`.

Only the tests call these. Each recomputes a quantity the package gets in
closed form by an independent route: the propagator integral for the
propagated pulse, quadrature moments for its width, a jitter convolution
for the detected spread, and adaptive Gauss-Kronrod quadrature plus a
bisection root finder underneath them all. `composed_point` rebuilds the
per-distance pipeline from the record's fields, the public formula
functions and what the QBER stage and `evaluate_point` write inline: the
detected spread, the wrong-bit mass, the loss law (`transmittance`), the
click probability and the QBER (`qber`), and the raw-key probability, in
the same float order. It is the reference for `evaluate_point`. The
secure-range search is checked against its definition, not against a copy
of its steps: `live_points` scans a distance range on a 10 m grid, the
brute-force reference for a far edge, `bisection_range` is the plain
bisection the search replaced, and `best_grid_range` takes the longest
`max_distance` over a chirp grid, the brute-force reference for the best
chirp. `threshold_transmittance` bisects the QBER in the transmittance,
the reference for its closed form. `domain_record` builds a
`ScenarioParams` of the documented robustness domain from a source of
draws: `domain_params` draws it by Hypothesis, and the pinned-results test
by a seeded `random.Random`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from typing import Callable

from hypothesis import strategies as st

from dispersive_qkd.analysis import NonConvergenceError, max_distance
from dispersive_qkd.detection import broadened_sigma, p_signal, shifted_window_mass
from dispersive_qkd.keyrate import (
    DarkCountModel,
    ProtocolPoint,
    ScenarioParams,
    TransmittanceConvention,
    dark_probs,
    key_rate,
)


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive-quadrature controls.

    tail_sigmas sets where callers truncate infinite-range integrals:
    +-tail_sigmas times the Gaussian scale of the integrand. Every integrand
    checked here has Gaussian tails, so 12 sigma leaves < 1e-30 outside.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2 ** 14
    tail_sigmas: float = 12.0

    def __post_init__(self) -> None:
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if not self.tail_sigmas >= 8:
            raise ValueError("tail_sigmas below 8 truncates visible Gaussian mass")


# 15-point Kronrod nodes on [-1, 1] with the embedded 7-point Gauss rule.
_GK_NODES = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_GK_WEIGHTS = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_G_WEIGHTS = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _gk15(f: Callable[[float], complex], a: float, b: float) -> tuple[complex, float]:
    """Kronrod-15 estimate on [a, b]; error gauged against embedded Gauss-7."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = complex(f(mid))
    kron = _GK_WEIGHTS[7] * fc
    gauss = _G_WEIGHTS[3] * fc
    for j in range(7):
        dx = half * _GK_NODES[j]
        pair = complex(f(mid - dx)) + complex(f(mid + dx))
        kron += _GK_WEIGHTS[j] * pair
        if j % 2 == 1:
            gauss += _G_WEIGHTS[j // 2] * pair
    return kron * half, abs((kron - gauss) * half)


def integrate(
    f: Callable[[float], complex],
    a: float,
    b: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> complex:
    """Globally adaptive integral of a complex-valued f over [a, b].

    Splits the interval with the largest Kronrod/Gauss discrepancy until the
    summed error estimate drops below max(abs_tol, rel_tol * |result|).
    """
    if not a < b:
        raise ValueError(f"integration bounds must satisfy a < b, got [{a}, {b}]")
    n_seed = min(16, spec.max_subdivisions)
    step = (b - a) / n_seed
    heap: list[tuple[float, float, float, complex]] = []
    total = 0j
    err_total = 0.0
    for i in range(n_seed):
        lo = a + i * step
        hi = b if i == n_seed - 1 else a + (i + 1) * step
        val, err = _gk15(f, lo, hi)
        total += val
        err_total += err
        heappush(heap, (-err, lo, hi, val))
    count = n_seed
    while err_total > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if count >= spec.max_subdivisions:
            raise NonConvergenceError(
                f"quadrature error {err_total:.3e} still above tolerance "
                f"after {count} subdivisions"
            )
        neg_err, lo, hi, val = heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total += v1 + v2 - val
        err_total += e1 + e2 + neg_err
        heappush(heap, (-e1, lo, mid, v1))
        heappush(heap, (-e2, mid, hi, v2))
        count += 1
    # re-sum the panels once; the running total accumulates update noise
    return sum(item[3] for item in heap)


class BracketError(ValueError):
    """A root bracket is inverted or has no sign change."""


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise BracketError(f"bracket needs lo < hi, got [{self.lo}, {self.hi}]")


def find_root(f: Callable[[float], float], bracket: Bracket, tol: float) -> float:
    """Bisection root of f on the bracket.

    Bisection is deliberate: the key-rate curve this serves has a kink where
    the positive part clips to zero, which breaks derivative-based methods.
    The result lies inside a final interval of width <= tol containing the
    sign change.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f = ({flo}, {fhi})")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # tol below float spacing
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def convolve_numeric(
    p_arrival: Callable[[float], float],
    jitter: float,
    t: float,
    spec: QuadratureSpec = QuadratureSpec(),
    *,
    p_width: float,
) -> float:
    """(p_arrival * jitter kernel)(t) by quadrature; oracle for the detected
    spread hypot(sigma_L, jitter).

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


def initial_state(sigma: float, chirp: float) -> GaussianState:
    """State at the fiber input: A = (1 + i*chirp) / (4 sigma^2)."""
    quarter_inv_s2 = 1.0 / (4.0 * sigma * sigma)
    norm = (2.0 * math.pi) ** -0.25 / math.sqrt(sigma)
    return GaussianState(
        exponent_real=quarter_inv_s2,
        exponent_imag=chirp * quarter_inv_s2,
        norm=complex(norm, 0.0),
    )


def propagate_closed_form(
    sigma: float, chirp: float, beta: float, length: float
) -> GaussianState:
    """State after propagating `length` meters; identity at L = 0 or beta = 0."""
    if length < 0:
        raise ValueError(f"propagation distance must be >= 0, got {length}")
    state = initial_state(sigma, chirp)
    if length == 0.0 or beta == 0.0:
        return state
    a = state.exponent()
    denom = 1.0 + 4.0j * beta * length * a
    a_l = a / denom
    return GaussianState(
        exponent_real=a_l.real,
        exponent_imag=a_l.imag,
        norm=state.norm / cmath.sqrt(denom),
    )


def propagate_numeric(
    sigma: float,
    chirp: float,
    beta: float,
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
    if beta == 0.0:
        raise ValueError("propagator kernel is singular at beta = 0")
    state = initial_state(sigma, chirp)
    a = state.exponent()
    inv_4bl = 1.0 / (4.0 * beta * length)
    prefactor = state.norm / cmath.sqrt(4.0j * math.pi * beta * length)

    def integrand(u: float) -> complex:
        shift = t - u
        return cmath.exp(1j * inv_4bl * shift * shift - a * u * u)

    # |psi(u)| ~ exp(-u^2 / (4 sigma^2)): scale sqrt(2)*sigma, not sigma
    half_range = spec.tail_sigmas * math.sqrt(2.0) * sigma
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


def pdf(state: GaussianState, t: float) -> float:
    """Arrival-time density |psi(t)|^2; only Re A and |N| enter."""
    amp2 = abs(state.norm) ** 2
    return amp2 * math.exp(-2.0 * state.exponent_real * t * t)


def moments(
    state: GaussianState, spec: QuadratureSpec = QuadratureSpec()
) -> tuple[float, float, float]:
    """Quadrature (norm, mean, variance) of |psi|^2; no closed forms used.

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
    return norm, s * mean_u, s * s * var_u


# the smallest float q at which 1 - 2 H(q) <= 0, written out apart from
# keyrate's own constant: the searches' security test is qber below it
_QBER_LIMIT = 0.11002786443835955


def transmittance(params: ScenarioParams, l_km: float) -> float:
    """The loss law from the fields alone: 10^(-alpha L / 10) with alpha in
    dB/km, 10^(-alpha L) under the literal convention, in the stage's float
    order (dividing by 1.0 is exact)."""
    literal = params.transmittance_convention is TransmittanceConvention.LITERAL
    return 10.0 ** (-params.alpha * l_km / (1.0 if literal else 10.0))


def qber(eta: float, p_sig: float, p_w: float, mu: float) -> tuple[float, float]:
    """(p_det, QBER) at transmittance eta, window masses p_sig and p_w and
    mean dark count mu, in the stage's float order: the click probability
    eta (p_sig + leak) with leak = p_w (1 - eta p_sig), then 0.5 (eta leak +
    D mu) / (p_det + D mu) with D = 1 - p_det, at mu = 0 the eta-free 0.5
    leak / (p_sig + leak), and the sentinel 0.5 where that is 0/0."""
    leak = p_w * (1.0 - eta * p_sig)
    p_det = eta * (p_sig + leak)
    if mu > 0.0:
        d_mu = (1.0 - p_det) * mu
        return p_det, (eta * leak + d_mu) / (p_det + d_mu) * 0.5
    return p_det, leak / (p_sig + leak) * 0.5 if p_sig + leak > 0.0 else 0.5


def threshold_transmittance(p_sig: float, p_w: float, mu: float) -> float:
    """The transmittance at which the QBER reaches _QBER_LIMIT at fixed
    window masses: bisection of qber in eta on [0, 1] down to adjacent
    floats. Needs the key live at eta = 1; at eta = 0 the QBER is 1/2."""

    def secure(eta: float) -> bool:
        return qber(eta, p_sig, p_w, mu)[1] < _QBER_LIMIT

    dead, live = 0.0, 1.0
    if secure(dead) or not secure(live):
        raise BracketError(f"qber does not cross its threshold on [0, 1] at {p_sig, p_w, mu}")
    while (mid := 0.5 * (dead + live)) not in (dead, live):
        if secure(mid):
            live = mid
        else:
            dead = mid
    return live


def composed_point(params: ScenarioParams, distance: float) -> ProtocolPoint:
    """The pipeline rebuilt from the public functions, with the detected
    spread, the wrong-bit mass, the loss law, the click probability, the
    QBER and the raw-key probability written out in the package's float
    order, from the fields alone: mu, the loss convention and the
    dark-count probabilities are read here, not from the record."""
    sigma_l = broadened_sigma(params.sigma, params.chirp, params.beta, distance)
    sigma_tot = math.hypot(sigma_l, params.jitter)
    p_sig = p_signal(sigma_tot, params.window)
    q = shifted_window_mass(sigma_tot, params.window, params.period)
    p_w = 2.0 * q * (1.0 - q)
    eta = transmittance(params, distance / 1000.0)
    mu = params.dark_rate * params.window
    p_det, q_err = qber(eta, p_sig, p_w, mu)
    p_zero, p_one = dark_probs(mu, params.dark_model)
    p_raw = (p_det * p_zero + (1.0 - p_det) * p_one) / 2.0
    return ProtocolPoint(
        p_sig, p_w, p_det, p_zero, p_one, p_raw, q_err, key_rate(p_raw, q_err)
    )


def live_points(params: ScenarioParams, a_km: float, b_km: float) -> list[float]:
    """The distances (km) of the 10 m grid a, a + 0.01, ... within [a, b]
    at which the composed pipeline's key rate is positive, in order."""
    grid = (a_km + 0.01 * i for i in range(int((b_km - a_km) * 100 + 1e-6) + 1))
    return [l_km for l_km in grid if composed_point(params, l_km * 1e3).key_rate > 0.0]


def bisection_range(params: ScenarioParams) -> float:
    """The far edge by plain bisection of qber below its threshold (with
    dark counts, key_rate > 0) over the composed pipeline, the search
    max_distance ran before regula falsi: 0.0 if dead at the source, else
    double a 50 km first bracket until the rate dies (giving up past 1e7
    km), then bisect it to 10 m."""
    l_hint, tol = 50.0, 0.01

    def secure(l_km: float) -> bool:
        return composed_point(params, l_km * 1e3).qber < _QBER_LIMIT

    if not secure(0.0):
        return 0.0
    lo, hi = 0.0, l_hint
    while secure(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e7:
            raise NonConvergenceError(f"rate still positive at {lo} km")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if secure(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def best_grid_range(params: ScenarioParams, c_min: float, c_max: float, points: int) -> float:
    """Longest max_distance over `points` evenly spaced chirps in
    [c_min, c_max], ends included."""
    step = (c_max - c_min) / (points - 1)
    return max(max_distance(replace(params, chirp=c_min + k * step)) for k in range(points))


def domain_record(uniform: Callable[[float, float], float], pick: Callable) -> ScenarioParams:
    """A ScenarioParams over the documented robustness domain, from a
    source of draws: uniform(lo, hi), a float in [lo, hi], and
    pick(options), one item of a tuple. Sigma, jitter, window and period
    span three decades (windows may overlap), beta = 0 and jitter = 0
    included, |C| up to 10, dark_rate * window from 1e-9 up to 2 under
    exact_poisson and below 1, the record's bound, under paper_linearized
    (a draw of 1 steps down until it lies below 1 after rounding), and
    both transmittance conventions."""

    def decades(lo: float, hi: float) -> float:
        return 10.0 ** uniform(math.log10(lo), math.log10(hi))

    window = decades(1.0, 1000.0) * 1e-12
    dark_model = pick(tuple(DarkCountModel))
    if dark_model is DarkCountModel.EXACT_POISSON:
        exposure = decades(1e-9, 2.0)
    else:
        exposure = decades(1e-9, 1.0)
        while exposure / window * window >= 1.0:
            exposure = math.nextafter(exposure, 0.0)
    return ScenarioParams(
        sigma=decades(1.0, 1000.0) * 1e-12,
        chirp=uniform(-10.0, 10.0),
        beta=pick((0.0, -1.0, 1.0)) * decades(0.1, 10.0) * 1e-26,
        alpha=uniform(0.15, 0.3),
        dark_rate=exposure / window,
        period=decades(10.0, 10000.0) * 1e-12,
        jitter=pick((0.0, 1.0)) * decades(0.1, 100.0) * 1e-12,
        window=window,
        dark_model=dark_model,
        transmittance_convention=pick(tuple(TransmittanceConvention)),
    )


@st.composite
def domain_params(draw) -> ScenarioParams:
    """domain_record's records, drawn by Hypothesis."""
    return domain_record(
        lambda lo, hi: draw(st.floats(min_value=lo, max_value=hi)),
        lambda options: draw(st.sampled_from(options)),
    )
