"""Key-rate assembly: channel loss, dark counts, QBER, and the full
per-distance pipeline."""

import dataclasses
import inspect
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from dispersive_qkd import keyrate
from dispersive_qkd.analysis import distance_grid
from dispersive_qkd.config import BETA_UNIT, Config, to_params
from dispersive_qkd.detection import broadened_sigma, p_signal, shifted_window_mass
from dispersive_qkd.keyrate import (
    _QBER_LIMIT,
    DarkCountModel,
    ProtocolPoint,
    ScenarioParams,
    TransmittanceConvention,
    _qber_stage,
    _threshold_distance,
    _threshold_transmittance,
    binary_entropy,
    dark_probs,
    evaluate_point,
    key_rate,
)
from oracles import composed_point, domain_params, qber, threshold_transmittance, transmittance

PS = 1e-12
KM = 1e3
LITERAL = TransmittanceConvention.LITERAL
LINEARIZED = DarkCountModel.PAPER_LINEARIZED
POISSON = DarkCountModel.EXACT_POISSON
WINDOW = 50 * PS


def _stage_with_masses(p_sig, p_w, distance, **fields):
    """_qber_stage on the defaults, or on `fields` over them, at `distance`
    with the window masses replaced: p_signal returns p_sig and the
    neighbor mass q gives p_w."""
    params = ScenarioParams(**fields)
    q = 0.5 * (1.0 - math.sqrt(1.0 - 2.0 * p_w))  # 2 q (1 - q) = p_w
    with (
        mock.patch.object(keyrate, "p_signal", return_value=p_sig),
        mock.patch.object(keyrate, "shifted_window_mass", return_value=q),
    ):
        return _qber_stage(params, params.chirp, distance)


def _eta(distance, **fields):
    """The stage's transmittance at `distance`: its click probability with
    the whole pulse in the window and no neighbor in it."""
    return _stage_with_masses(1.0, 0.0, distance, **fields)[2]


def test_transmittance_db_convention():
    assert _eta(0.0) == 1.0
    assert abs(_eta(50 * KM) - 0.1) <= 1e-15
    assert abs(_eta(100 * KM) - 0.01) <= 1e-16


def test_transmittance_literal_convention():
    assert abs(_eta(1 * KM, transmittance_convention=LITERAL) - 10.0 ** -0.2) <= 1e-15
    # face-value exponent: 10 dB-convention kilometers collapse to one
    assert _eta(5 * KM, transmittance_convention=LITERAL) == _eta(50 * KM)
    # a convention named by its value is the member, with the same loss law
    assert _eta(5 * KM, transmittance_convention="literal") == _eta(50 * KM)


def test_p_detect_reference():
    # the click probability: the signal photon, else a surviving neighbor
    # while the signal missed; 50 km of 0.2 dB/km pass eta = 0.1, and eta
    # underflows to 0 by 100,000 km
    assert abs(_stage_with_masses(0.9, 0.01, 50 * KM)[2] - 0.090910) <= 1e-9
    assert _stage_with_masses(0.9, 0.01, 1e5 * KM)[2] == 0.0


def test_dark_probs_reference():
    assert dark_probs(0.0 * WINDOW, LINEARIZED) == (1.0, 0.0)
    p_zero, p_one = dark_probs(1000.0 * WINDOW, LINEARIZED)
    assert p_zero == 1.0 - 5e-8
    assert abs(p_one - 5e-8) <= 1e-14


def test_dark_models_agree_at_small_exposure():
    lin = dark_probs(1000.0 * WINDOW, LINEARIZED)
    poi = dark_probs(1000.0 * WINDOW, POISSON)
    assert abs(lin[0] - poi[0]) <= 2.5e-15
    assert abs(lin[1] - poi[1]) <= 2.5e-15


def test_dark_probs_linearized_domain():
    with pytest.raises(ValueError):
        dark_probs(2e9 * 1e-9, LINEARIZED)  # d*v = 2
    p_zero, p_one = dark_probs(2e9 * 1e-9, POISSON)
    assert 0.0 < p_zero < 1.0 and 0.0 < p_one < 1.0


def test_p_raw_key_reference():
    # the raw-key bit probability: a click without a dark count, or a lone
    # dark count without a click; the 1/2 sifts basis mismatches
    dark_free = ScenarioParams(dark_rate=0.0)
    with mock.patch.object(keyrate, "p_signal", return_value=1.0):
        assert evaluate_point(dark_free, 0.0).p_raw == 0.5
    point = evaluate_point(dark_free, 10 * KM)
    assert point.p_raw == point.p_det / 2.0 > 0.0
    point = evaluate_point(ScenarioParams(), 1e5 * KM)  # eta underflows to 0
    assert point.p_det == 0.0
    assert point.p_raw == point.p_one / 2.0 > 0.0
    point = evaluate_point(ScenarioParams(), 10 * KM)
    p_det, p_zero, p_one = map(Fraction, (point.p_det, point.p_zero, point.p_one))
    exact = (p_det * p_zero + (1 - p_det) * p_one) / 2
    assert math.isclose(point.p_raw, float(exact), rel_tol=4e-16)


def test_qber_reference():
    # without dark counts the QBER is 0.5 leak / (p_sig + leak) with leak =
    # p_w (1 - eta p_sig): 0 with no neighbor in the window, 0 at eta = 1
    # with the signal always caught, and about 0.005005 at 50 km (eta = 0.1)
    assert _stage_with_masses(0.5, 0.0, 30 * KM, dark_rate=0.0)[3] == 0.0
    assert _stage_with_masses(1.0, 0.2, 0.0, dark_rate=0.0)[3] == 0.0
    got = _stage_with_masses(0.9, 0.01, 50 * KM, dark_rate=0.0)[3]
    assert abs(got - 0.005005) <= 1e-6


def test_qber_degenerate_denominator():
    # 0/0 only without dark counts and without light in the window, where
    # the stage returns the sentinel 0.5; with dark counts it is D mu / D mu
    assert _stage_with_masses(0.0, 0.0, 50 * KM, dark_rate=0.0)[3] == 0.5
    mu_5000 = {"dark_rate": 1e14, "dark_model": POISSON}
    assert _stage_with_masses(0.0, 0.0, 50 * KM, **mu_5000)[3] == 0.5


def test_qber_halves_after_the_division_at_a_subnormal_mean_dark_count():
    # with no photon through and mu one subnormal ulp the lone dark count
    # is the whole error mass: the QBER is 1/2. Halving the numerator before
    # the division would round 5e-324 to 0 and read 0.0.
    one_ulp = {"dark_rate": 5e-324 / WINDOW}
    assert ScenarioParams(**one_ulp)._mu == 5e-324
    assert _stage_with_masses(0.9, 0.01, 1e5 * KM, **one_ulp)[2:] == (0.0, 0.5)
    params = ScenarioParams(
        sigma=0.3e-9, chirp=-1.0, window=5e-9, period=100e-9, jitter=0.0, dark_rate=1.2e-315
    )
    assert params._mu == 5e-324
    point = evaluate_point(params, 8e9)
    assert point.p_det == 0.0
    assert point.qber == 0.5


def test_binary_entropy_reference_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(0.11) - 0.499916) <= 1e-6


@pytest.mark.parametrize("q", [-1e-9, 1.0000000001, 2.0])
def test_binary_entropy_domain(q):
    with pytest.raises(ValueError):
        binary_entropy(q)


@given(st.floats(min_value=1e-6, max_value=0.999999))
def test_binary_entropy_symmetric(q):
    p = 1.0 - q
    if 1.0 - p == q:  # skip draws where 1-q is not exactly invertible
        assert binary_entropy(q) == binary_entropy(p)


def test_key_rate_reference():
    assert key_rate(0.37, 0.0) == 0.37
    assert key_rate(0.4, 0.25) == 0.0
    assert abs(key_rate(0.4, 0.05) - 0.170882) <= 1e-5


def test_key_rate_threshold():
    # 1 - 2H(q) <= 0 on [0.110028, 1/2], the attainable QBER range
    for q in (0.110028, 0.12, 0.2, 0.3, 0.4, 0.5):
        for p_raw in (1e-6, 0.1, 0.5):
            assert key_rate(p_raw, q) == 0.0
    assert key_rate(0.3, 0.1099) > 0.0
    with pytest.raises(ValueError):
        key_rate(-0.1, 0.05)


def test_scenario_params_defaults():
    params = ScenarioParams()
    assert params.sigma == 10 * PS
    assert params.chirp == 0.0
    assert params.beta == -1.15 * BETA_UNIT
    assert params.alpha == 0.2
    assert params.dark_rate == 1000.0
    assert params.period == 100 * PS
    assert params.jitter == 25 * PS
    assert params.window == 50 * PS
    assert params.dark_model is DarkCountModel.PAPER_LINEARIZED
    assert params.transmittance_convention is TransmittanceConvention.DB


def test_library_defaults_equal_the_cli_defaults():
    # run_scenario on library defaults must compute what `reproduce` does
    assert ScenarioParams() == to_params(Config())


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigma": 0.0},
        {"sigma": -1e-12},
        {"chirp": math.inf},
        {"beta": math.nan},
        {"period": 0.0},
        {"window": -1e-12},
        {"window": 0.0},
        {"jitter": -1e-12},
        {"dark_rate": -1.0},
        {"alpha": -0.2},
        # non-finite values
        {"sigma": math.inf},
        {"sigma": math.nan},
        {"alpha": math.inf},
        {"alpha": math.nan},
        {"dark_rate": math.inf},
        {"dark_rate": math.nan},
        {"jitter": math.inf},
        {"jitter": math.nan},
        {"window": math.inf},
        # sigma^2 or sigma^4 underflows or overflows in the width formula
        {"sigma": 1e-170},
        {"sigma": 1e160},
        {"sigma": 1e-100},
        {"sigma": 1e100},
        # names that are no member's value
        {"dark_model": "gaussian"},
        {"transmittance_convention": "decibel"},
    ],
)
def test_scenario_params_validation(kwargs):
    with pytest.raises(ValueError):
        ScenarioParams(**kwargs)


def test_scenario_params_rejects_linearized_dark_counts_past_one_per_window():
    # the record calls dark_probs once when it is built, so that call refuses
    # mu >= 1 under the linearized model before any search or sweep runs:
    # here mu = 1.5, then exactly 1
    with pytest.raises(ValueError, match="rate\\*window"):
        ScenarioParams(dark_rate=3e10)
    with pytest.raises(ValueError, match="rate\\*window < 1, got 1.0;"):
        ScenarioParams(dark_rate=2e10, dark_model=LINEARIZED.value)
    assert ScenarioParams(dark_rate=3e10, dark_model=POISSON).dark_rate == 3e10


def test_scenario_params_named_by_value_evaluate_like_members():
    # a record that names its models by value, as a config file does, holds
    # the members and evaluates bit for bit like the record built from them,
    # past one dark count per window under the exact model too
    for model in DarkCountModel:
        for convention in TransmittanceConvention:
            for dark_rate in (1000.0, 2.0 / WINDOW) if model is POISSON else (1000.0,):
                named = ScenarioParams(
                    dark_rate=dark_rate,
                    dark_model=model.value,
                    transmittance_convention=convention.value,
                )
                member = ScenarioParams(
                    dark_rate=dark_rate, dark_model=model, transmittance_convention=convention
                )
                assert named.dark_model is model
                assert named.transmittance_convention is convention
                for l_km in (0.0, 10.0, 80.0):
                    assert evaluate_point(named, l_km * KM) == evaluate_point(member, l_km * KM)


def test_scenario_params_accepts_domain_edges():
    # no dispersion, no jitter, and an isolated pulse (no neighbor leakage)
    params = ScenarioParams(beta=0.0, jitter=0.0, period=math.inf)
    point = evaluate_point(params, 10 * KM)
    assert point.p_w == 0.0
    assert point.key_rate > 0.0
    # the extreme widths whose fourth power is still a normal float
    for sigma in (1e-76, 1e76):
        assert evaluate_point(ScenarioParams(sigma=sigma), 0.0).key_rate >= 0.0
    # a 1e308 s jitter leaves erf(1.8e-319) of the signal in the window and
    # no neighbor mass, so the dark counts hold the QBER at 0.5
    assert ScenarioParams(jitter=1e308)._source == (1.9947e-319, 0.0, 1.9947e-319, 0.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"jitter": 1e308},
        {"sigma": 1e-70, "jitter": 1e300},
        {"window": 1e300, "dark_rate": 0.0},
        {"period": 1e-300},
    ],
)
def test_scenario_params_builds_its_source_point_at_the_edges_of_its_fields(kwargs):
    # a record evaluates its source point when it is built, so a record that
    # passes the field checks must not fail there
    params = ScenarioParams(**kwargs)
    assert params._source == _qber_stage(params, params.chirp, 0.0)
    assert 0.0 <= params._source[3] <= 0.5


def test_evaluate_point_at_source():
    point = evaluate_point(ScenarioParams(), 0.0)
    sigma_tot = math.hypot(10 * PS, 25 * PS)
    assert abs(point.p_sig - 0.647) <= 1e-3
    assert abs(point.p_sig - 0.6468396466840122) <= 1e-9
    assert abs(point.qber - 0.0014502706294625) <= 1e-9
    assert abs(point.key_rate - 0.3141328552826011) <= 1e-9
    assert point.key_rate > 0.0
    assert not point.degenerate


def test_evaluate_point_ideal_limit():
    params = ScenarioParams(
        dark_rate=0.0, period=1.0, jitter=0.0, window=1e-3
    )
    point = evaluate_point(params, 0.0)
    assert point.p_raw == 0.5
    assert point.qber == 0.0
    assert point.key_rate == 0.5


def test_evaluate_point_beyond_extinction():
    point = evaluate_point(ScenarioParams(), 60 * KM)
    assert point.key_rate == 0.0
    assert point.qber > 0.110028
    assert not point.degenerate  # raw bits still flow, they are just insecure


def test_evaluate_point_rejects_bad_distance():
    for distance in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="distance"):
            evaluate_point(ScenarioParams(), distance)


def test_evaluate_point_width_overflow_is_value_error():
    # sigma^2 - C*beta*L = -1e157 s^2 cannot be squared in a float
    params = ScenarioParams(beta=1e154, chirp=1.0)
    with pytest.raises(ValueError, match="width overflows"):
        evaluate_point(params, 1 * KM)


def test_scenario_params_rejects_an_infinite_mean_dark_count():
    # rate * window overflows to inf, where the QBER would be inf / inf
    with pytest.raises(ValueError, match="dark_rate \\* window must be finite"):
        ScenarioParams(dark_rate=1e300, window=1e10, dark_model=POISSON)


@settings(deadline=None, max_examples=100)
@given(params=domain_params(), chirp=st.floats(min_value=-10.0, max_value=10.0))
def test_at_chirp_equals_replace(params, chirp):
    got = params._at_chirp(chirp)
    expected = dataclasses.replace(params, chirp=chirp)
    assert type(got) is ScenarioParams
    assert got == expected
    assert hash(got) == hash(expected)
    assert repr(got) == repr(expected)
    assert got.__dict__ == expected.__dict__  # the derived attributes too
    assert params.chirp == params._at_chirp(params.chirp).chirp


@settings(deadline=None, max_examples=100)
@given(params=domain_params(), chirp=st.floats(min_value=-10.0, max_value=10.0))
def test_record_source_point_is_the_source_at_any_chirp(params, chirp):
    # at L = 0 the width is sigma at any chirp, so the source point a record
    # computes when it is built is, bit for bit, the one at every chirp, and
    # the copy _at_chirp makes carries it unchanged
    assert params._source == _qber_stage(params, chirp, 0.0)
    assert params._at_chirp(chirp)._source == dataclasses.replace(params, chirp=chirp)._source


def test_at_chirp_checks_the_chirp():
    for chirp in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="chirp must be finite"):
            ScenarioParams()._at_chirp(chirp)


@settings(deadline=None, max_examples=300)
@given(
    p_sig=st.floats(min_value=1e-6, max_value=1.0),
    p_w=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
    mu=st.floats(min_value=-9.0, max_value=-1e-3).map(lambda e: 10.0 ** e),
)
def test_threshold_transmittance_is_where_the_qber_crosses(p_sig, p_w, mu):
    # where the key is live at eta = 1, the closed form matches a bisection
    # of the QBER in eta
    live = qber(1.0, p_sig, p_w, mu)[1] < _QBER_LIMIT
    got = _threshold_transmittance(p_sig, p_w, mu)
    if live:
        expected = threshold_transmittance(p_sig, p_w, mu)
        assert math.isclose(got, expected, rel_tol=1e-9)
    else:
        assert got >= 1.0 - 1e-9


def _log_uniform(lo: float, hi: float):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda e: 10.0 ** e)


@settings(deadline=None, max_examples=300)
@given(
    window=_log_uniform(1 * PS, 1000 * PS),
    period=_log_uniform(10 * PS, 10000 * PS),
    mu=st.one_of(
        _log_uniform(1e-12, 0.5),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    ),
    widths=st.lists(_log_uniform(0.1 * PS, 10000 * PS), min_size=2, max_size=2),
)
def test_threshold_transmittance_does_not_fall_as_the_width_grows(window, period, mu, widths):
    # at fixed mu the transmittance a wider pulse needs is no lower: one
    # dead point then proves dead every distance whose transmittance is no
    # higher at a width no larger. Widths a few ulp apart can dip by 2e-12
    # relative, so the check allows 1e-9.
    def eta_star(width):
        q = shifted_window_mass(width, window, period)
        p_w = 2.0 * q * (1.0 - q)
        return _threshold_transmittance(p_signal(width, window), p_w, mu)

    narrow, wide = sorted(widths)
    assert eta_star(wide) >= eta_star(narrow) * (1.0 - 1e-9)


@pytest.mark.parametrize("p_w", [0.0, 1e-9, 0.3, 1.0])
@pytest.mark.parametrize("mu", [1e-9, 0.05, 0.999])
def test_threshold_transmittance_is_inf_without_signal(p_w, mu):
    # with p_sig = 0 the QBER never falls below its threshold, and no
    # distance has so high a transmittance
    assert _threshold_transmittance(0.0, p_w, mu) == math.inf
    assert _threshold_distance(ScenarioParams(dark_rate=mu / WINDOW), 0.0, p_w) == -math.inf


@pytest.mark.parametrize("convention", TransmittanceConvention)
@settings(deadline=None, max_examples=150)
@given(params=domain_params(), distance=st.floats(min_value=0.0, max_value=500.0))
def test_threshold_distance_inverts_the_transmittance(convention, params, distance):
    # the loss law at the threshold distance of a point's masses is their
    # eta*: each rounding of the exponent costs an ulp of log10 eta*, so the
    # bound grows with |ln eta*|
    assume(params.dark_rate * params.window < 1.0 and params.alpha > 0.0)
    params = dataclasses.replace(params, transmittance_convention=convention)
    p_sig, p_w, _, _ = _qber_stage(params, params.chirp, distance * KM)
    eta_star = _threshold_transmittance(p_sig, p_w, params._mu)
    assume(0.0 < eta_star < 1.0)
    l_km = _threshold_distance(params, p_sig, p_w)
    eta = transmittance(params, l_km)
    assert l_km > 0.0
    assert abs(eta - eta_star) <= 4.0 * max(1.0, -math.log(eta_star)) * math.ulp(eta_star)


def test_threshold_distance_is_not_positive_where_the_source_is_dead():
    # eta* >= 1: no transmittance a fiber passes makes the QBER secure
    params = ScenarioParams(jitter=200 * PS)
    p_sig, p_w, _, q = params._source
    assert q >= _QBER_LIMIT
    assert _threshold_transmittance(p_sig, p_w, params._mu) >= 1.0
    assert _threshold_distance(params, p_sig, p_w) <= 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dark_rate": 0.0},  # mu = 0
        {"dark_model": POISSON, "dark_rate": 3e10},  # mu = 1.5
        {"alpha": 0.0},
        {"alpha": 5e-324},  # alpha / 10 rounds to 0
    ],
)
def test_threshold_distance_is_0_outside_the_domain_of_eta_star(kwargs):
    # without eta*, or without a loss per km to reach it, the threshold
    # distance certifies nothing; the formula alone reads inf, -5.71 km and
    # a division by 0 on the first three
    params = ScenarioParams(**kwargs)
    p_sig, p_w, _, _ = params._source
    assert _threshold_distance(params, p_sig, p_w) == 0.0


def test_threshold_distance_is_finite_at_one_subnormal_ulp_of_dark_counts():
    # one subnormal ulp of dark counts per window: c = (1/2 - Q) mu rounds
    # to 0, so eta* multiplies mu in last. It is then the subnormal nearest
    # the root c / -b (the root's next term, of relative order a c / b^2,
    # lies far below an ulp), and the transmittance falls to it at 16126 km
    params = ScenarioParams(dark_rate=5e-324 / WINDOW)
    assert params._mu == 5e-324
    p_sig, p_w, _, _ = params._source
    eta_star = _threshold_transmittance(p_sig, p_w, params._mu)
    h = Fraction(0.5) - Fraction(_QBER_LIMIT)
    a, w = Fraction(p_sig), Fraction(p_w)
    b = w / 2 - (a + w) * (Fraction(_QBER_LIMIT) + h * Fraction(5e-324))
    assert abs(Fraction(eta_star) - h * Fraction(5e-324) / -b) <= Fraction(5e-324) / 2
    assert eta_star == 3e-323
    assert abs(_threshold_distance(params, p_sig, p_w) - 16126.4032) <= 1e-4


def test_no_noise_reduction():
    # neighbor leakage suppressed by a huge period, darks off:
    # the rate collapses to eta * p_sig / 2 exactly
    params = ScenarioParams(dark_rate=0.0, period=1.0)
    for l_m in (0.0, 10 * KM, 30 * KM):
        point = evaluate_point(params, l_m)
        assert point.p_w == 0.0
        eta = transmittance(params, l_m / KM)
        assert point.key_rate == eta * point.p_sig / 2.0


def test_protocol_point_is_a_frozen_record_of_its_fields():
    # ProtocolPoint writes its own __init__: it must take exactly the
    # dataclass fields, in order, none with a default
    names = [f.name for f in dataclasses.fields(ProtocolPoint)]
    assert len(names) == 8
    params = inspect.signature(ProtocolPoint).parameters
    assert list(params) == names
    assert all(p.default is inspect.Parameter.empty for p in params.values())
    values = [0.5, 0.01, 0.4, 0.99, 1e-8, 0.2, 0.03, 0.1]
    point = ProtocolPoint(*values)
    assert [getattr(point, n) for n in names] == values
    assert not point.degenerate
    assert point == ProtocolPoint(**dict(zip(names, values)))
    assert hash(point) == hash(ProtocolPoint(*values))
    assert dataclasses.replace(point, qber=0.5).qber == 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.key_rate = 1.0


def test_degenerate_point_sentinel():
    # 5000 dark counts per window on average: e^-5000 underflows, so the
    # window never holds zero or one dark count, and the raw-key probability
    # and the QBER's denominator are both 0
    params = ScenarioParams(dark_model=POISSON, dark_rate=1e14)
    point = evaluate_point(params, 0.0)
    assert point.p_zero == point.p_one == 0.0
    assert point.p_raw == 0.0
    assert point.degenerate
    # the QBER reads the dark counts through mu = 5000 alone, so it stays
    # exact: 0.5 (leak + D mu) / (p_det + D mu) at eta = 1, just below 0.5
    assert abs(point.qber - 0.4998159294104355) <= 1e-15
    assert point.key_rate == 0.0
    # eta underflows to exactly 0 at an absurd distance; with darks off the
    # raw-key probability hits 0, but eta cancels from the QBER, which stays
    # the ratio of leaked to captured light
    params = ScenarioParams(dark_rate=0.0, alpha=1000.0)
    point = evaluate_point(params, 1e7)
    assert point.p_raw == 0.0
    assert point.degenerate
    leak = point.p_w
    assert point.qber == 0.5 * leak / (point.p_sig + leak)
    assert abs(point.qber - 0.3331361892) <= 1e-10
    assert point.key_rate == 0.0


@pytest.mark.parametrize(
    "alpha, l_km, decades",
    [(10.0, 30.0, 30), (100.0, 32.0, 320), (110.0, 30.0, 330), (200.0, 20.0, 400)],
    ids=["eta1e-30", "eta1e-320", "eta1e-330", "eta1e-400"],
)
def test_qber_without_dark_counts_matches_its_exact_definition(alpha, l_km, decades):
    # qber's definition, 0.25 err_mass / p_raw, in exact rationals with
    # eta = 10^-decades exactly: the float eta is subnormal at 1e-320 and 0
    # beyond, where only the eta-free form keeps the QBER exact
    params = ScenarioParams(dark_rate=0.0, alpha=alpha)
    point = evaluate_point(params, l_km * KM)
    eta = Fraction(1, 10 ** decades)
    a, w = Fraction(point.p_sig), Fraction(point.p_w)
    p_zero, p_one = Fraction(point.p_zero), Fraction(point.p_one)
    p_det = eta * (a + w * (1 - eta * a))
    err_mass = eta * w * (1 - eta * a) * p_zero + (1 - p_det) * p_one
    p_raw = (p_det * p_zero + (1 - p_det) * p_one) / 2
    exact = err_mass / (4 * p_raw)
    assert abs(Fraction(point.qber) - exact) <= Fraction(1, 10 ** 12) * exact


@pytest.mark.parametrize(
    "model, mu, l_km",
    [
        (LINEARIZED, 5e-8, 0.0),
        (LINEARIZED, 5e-8, 40.0),
        (LINEARIZED, 0.5, 10.0),
        (POISSON, 5e-8, 40.0),
        (POISSON, 0.5, 10.0),
        (POISSON, 700.0, 0.0),
        (POISSON, 5000.0, 0.0),
        (POISSON, 5000.0, 100.0),
    ],
)
def test_qber_with_dark_counts_matches_its_exact_definition(model, mu, l_km):
    # qber's definition, 0.25 err_mass / p_raw, in exact rationals from the
    # point's own window masses and dark-count probabilities; at mu = 5000
    # e^-mu underflows and p_zero = p_one = 0, so there it is written divided
    # by p_zero, in mu = p_one / p_zero
    params = ScenarioParams(dark_model=model, dark_rate=mu / WINDOW)
    point = evaluate_point(params, l_km * KM)
    eta = Fraction(transmittance(params, l_km))
    a, w = Fraction(point.p_sig), Fraction(point.p_w)
    p_det = eta * (a + w * (1 - eta * a))
    if point.p_zero > 0.0:
        p_zero, p_one = Fraction(point.p_zero), Fraction(point.p_one)
    else:
        p_zero, p_one = Fraction(1), Fraction(params.dark_rate * params.window)
    err_mass = eta * w * (1 - eta * a) * p_zero + (1 - p_det) * p_one
    p_raw = (p_det * p_zero + (1 - p_det) * p_one) / 2
    exact = err_mass / (4 * p_raw)
    assert abs(Fraction(point.qber) - exact) <= Fraction(1, 10 ** 12) * exact


def test_dark_model_equivalence_on_key_rate():
    lin = ScenarioParams(dark_model=DarkCountModel.PAPER_LINEARIZED)
    poi = ScenarioParams(dark_model=DarkCountModel.EXACT_POISSON)
    for l_km in (0.0, 15.0, 30.0, 36.0):
        k_lin = evaluate_point(lin, l_km * KM).key_rate
        k_poi = evaluate_point(poi, l_km * KM).key_rate
        assert abs(k_lin - k_poi) <= 1e-10


def test_monotone_in_distance_unchirped():
    params = ScenarioParams()
    rates = [evaluate_point(params, l * KM).key_rate for l in range(0, 201, 2)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


@settings(deadline=None, max_examples=60)
@given(
    sigma_ps=st.floats(min_value=1.0, max_value=50.0),
    chirp=st.floats(min_value=-3.0, max_value=3.0),
    beta_mag=st.floats(min_value=0.05, max_value=2.0),
    flip=st.booleans(),
    jitter_ps=st.floats(min_value=0.0, max_value=100.0),
    window_ps=st.floats(min_value=1.0, max_value=200.0),
    period_ps=st.floats(min_value=10.0, max_value=500.0),
    dark=st.floats(min_value=0.0, max_value=1e6),
    l_km=st.floats(min_value=0.0, max_value=300.0),
)
def test_point_bounds_hold_everywhere(
    sigma_ps, chirp, beta_mag, flip, jitter_ps, window_ps, period_ps, dark, l_km
):
    params = ScenarioParams(
        sigma=sigma_ps * PS,
        chirp=chirp,
        beta=(-beta_mag if flip else beta_mag) * 1e-26,
        dark_rate=dark,
        period=period_ps * PS,
        jitter=jitter_ps * PS,
        window=window_ps * PS,
    )
    point = evaluate_point(params, l_km * KM)
    for value in (point.p_sig, point.p_w, point.p_det, point.p_zero, point.p_one):
        assert 0.0 <= value <= 1.0
    assert 0.0 <= point.key_rate <= point.p_raw <= 0.5
    assert 0.0 <= point.qber <= 0.5 + 1e-12


@settings(deadline=None, max_examples=300)
@given(params=domain_params(), l_km=st.floats(min_value=0.0, max_value=500.0))
def test_evaluate_point_equals_composed_helpers(params, l_km):
    # dual route: evaluate_point must reproduce, bit for bit, the pipeline
    # oracles.composed_point assembles from the fields and public functions
    assert evaluate_point(params, l_km * KM) == composed_point(params, l_km * KM)


@settings(deadline=None, max_examples=300)
@given(params=domain_params(), l_km=st.floats(min_value=0.0, max_value=500.0))
def test_key_rate_is_positive_exactly_below_the_qber_limit(params, l_km):
    # the secure-range search decides each side by qber < _QBER_LIMIT alone
    try:
        point = evaluate_point(params, l_km * KM)
    except ValueError:
        return
    assert (point.key_rate > 0.0) == (point.qber < _QBER_LIMIT)


@pytest.mark.parametrize("jitter_ps", [4, 25])
def test_chirp_minus_one_beats_zero_below_the_equal_width_distance(jitter_ps):
    # what the model predicts where acceptance criterion 08 fails: with
    # C beta > 0 the width at chirp C equals the unchirped width at
    # L* = 2 sigma^2 / (C beta), so C = -1 focuses the pulse, and out-rates
    # C = 0, exactly below L* = 2 sigma^2 / |beta|, 17.3913 km at the defaults
    focused, plain = (ScenarioParams(chirp=c, jitter=jitter_ps * PS) for c in (-1.0, 0.0))
    l_star = 2.0 * plain.sigma**2 / abs(plain.beta)
    assert abs(l_star / KM - 17.3913) <= 1e-4
    width = broadened_sigma(plain.sigma, -1.0, plain.beta, l_star)
    assert width == broadened_sigma(plain.sigma, 0.0, plain.beta, l_star)
    assert evaluate_point(focused, l_star) == evaluate_point(plain, l_star)
    for f in (0.5, 0.999, 1.001, 1.5):
        k_focused = evaluate_point(focused, f * l_star).key_rate
        k_plain = evaluate_point(plain, f * l_star).key_rate
        assert k_focused > k_plain if f < 1.0 else k_focused < k_plain, (f, k_focused, k_plain)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="key_rate rounds to 0 where p_raw is subnormal and the QBER is below the limit",
)
def test_key_rate_is_positive_below_the_qber_limit_at_a_subnormal_raw_key_rate():
    # no dark counts at 100 dB/km, 32.2356 km: p_raw is 9.88e-324 and the
    # QBER 0.0897, but the rate p_raw (1 - 2 H(qber)) rounds to 0; a
    # log-domain rate would keep it positive
    params = ScenarioParams(dark_rate=0.0, alpha=100.0)
    point = evaluate_point(params, distance_grid([params], 4)[3] * KM)
    assert (point.key_rate > 0.0) == (point.qber < _QBER_LIMIT)
