"""Key-rate assembly: channel loss, dark counts, QBER, and the full
per-distance pipeline."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dispersive_qkd.detection import (
    detected_sigma,
    p_signal,
    p_wrong,
    shifted_window_mass,
)
from dispersive_qkd.keyrate import (
    Channel,
    DarkCountModel,
    DarkCounts,
    ProtocolPoint,
    ScenarioParams,
    TransmittanceConvention,
    dark_probs,
    evaluate_point,
    key_rate,
    p_detect,
    p_raw_key,
    qber,
    transmittance,
)
from dispersive_qkd.twf import Medium, Pulse, broadened_sigma

PS = 1e-12
KM = 1e3


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel(alpha=-0.1, length=10.0)
    with pytest.raises(ValueError):
        Channel(alpha=0.2, length=-1.0)


def test_transmittance_db_convention():
    assert transmittance(Channel(alpha=0.2, length=0.0)) == 1.0
    assert abs(transmittance(Channel(alpha=0.2, length=50.0)) - 0.1) <= 1e-15
    assert abs(transmittance(Channel(alpha=0.2, length=100.0)) - 0.01) <= 1e-16


def test_transmittance_literal_convention():
    ch = Channel(alpha=0.2, length=1.0, convention=TransmittanceConvention.LITERAL)
    assert abs(transmittance(ch) - 10.0 ** -0.2) <= 1e-15
    # face-value exponent: 10 dB-convention kilometers collapse to one
    lit = Channel(alpha=0.2, length=5.0, convention=TransmittanceConvention.LITERAL)
    db = Channel(alpha=0.2, length=50.0)
    assert transmittance(lit) == transmittance(db)


def test_p_detect_reference():
    assert abs(p_detect(0.1, 0.9, 0.01) - 0.090910) <= 1e-9
    assert p_detect(0.0, 0.9, 0.01) == 0.0
    with pytest.raises(ValueError):
        p_detect(1.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        p_detect(0.5, -0.1, 0.5)


def test_dark_probs_reference():
    assert dark_probs(DarkCounts(rate=0.0), 50 * PS) == (1.0, 0.0)
    p_zero, p_one = dark_probs(DarkCounts(rate=1000.0), 50 * PS)
    assert p_zero == 1.0 - 5e-8
    assert abs(p_one - 5e-8) <= 1e-14


def test_dark_models_agree_at_small_exposure():
    lin = dark_probs(DarkCounts(1000.0, DarkCountModel.PAPER_LINEARIZED), 50 * PS)
    poi = dark_probs(DarkCounts(1000.0, DarkCountModel.EXACT_POISSON), 50 * PS)
    assert abs(lin[0] - poi[0]) <= 2.5e-15
    assert abs(lin[1] - poi[1]) <= 2.5e-15


def test_dark_probs_linearized_domain():
    hot = DarkCounts(rate=2e9, model=DarkCountModel.PAPER_LINEARIZED)
    with pytest.raises(ValueError):
        dark_probs(hot, 1e-9)  # d*v = 2
    exact = DarkCounts(rate=2e9, model=DarkCountModel.EXACT_POISSON)
    p_zero, p_one = dark_probs(exact, 1e-9)
    assert 0.0 < p_zero < 1.0 and 0.0 < p_one < 1.0


def test_p_raw_key_reference():
    assert p_raw_key(1.0, 1.0, 0.3) == 0.5
    assert p_raw_key(0.0, 1.0, 0.0) == 0.0
    # the detected and undetected dark terms cancel exactly at p_det = 1/2
    assert p_raw_key(0.5, 1.0 - 5e-8, 5e-8) == 0.25
    with pytest.raises(ValueError):
        p_raw_key(0.5, 1.5, 0.0)


def test_qber_reference():
    assert qber(0.5, 0.5, 0.0, 0.3, 1.0, 0.0, 0.15) == 0.0
    assert qber(1.0, 1.0, 0.2, 1.0, 1.0, 0.0, 0.5) == 0.0
    got = qber(0.1, 0.9, 0.01, 0.090910, 1.0, 0.0, 0.045455)
    assert abs(got - 0.005005) <= 1e-6


def test_qber_degenerate_denominator():
    with pytest.raises(ValueError):
        qber(0.1, 0.9, 0.01, 0.090910, 1.0, 0.0, 0.0)


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
    assert params.beta == -1.15e-26
    assert params.alpha == 0.2
    assert params.dark_rate == 1000.0
    assert params.period == 100 * PS
    assert params.jitter == 25 * PS
    assert params.window == 50 * PS
    assert params.dark_model is DarkCountModel.PAPER_LINEARIZED
    assert params.transmittance_convention is TransmittanceConvention.DB


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigma": 0.0},
        {"period": 0.0},
        {"window": -1e-12},
        {"jitter": -1e-12},
        {"dark_rate": -1.0},
        {"alpha": -0.2},
        # non-finite values the per-call records used to reject
        {"sigma": math.inf},
        {"sigma": math.nan},
        {"alpha": math.inf},
        {"alpha": math.nan},
        {"dark_rate": math.inf},
        {"dark_rate": math.nan},
        {"jitter": math.inf},
        {"jitter": math.nan},
    ],
)
def test_scenario_params_validation(kwargs):
    with pytest.raises(ValueError):
        ScenarioParams(**kwargs)


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
    with pytest.raises(ValueError):
        evaluate_point(ScenarioParams(), -1.0)


def test_no_noise_reduction():
    # neighbor leakage suppressed by a huge period, darks off:
    # the rate collapses to eta * p_sig / 2 exactly
    params = ScenarioParams(dark_rate=0.0, period=1.0)
    for l_m in (0.0, 10 * KM, 30 * KM):
        point = evaluate_point(params, l_m)
        assert point.p_w == 0.0
        eta = transmittance(Channel(alpha=0.2, length=l_m / KM))
        assert point.key_rate == eta * point.p_sig / 2.0


def test_degenerate_point_sentinel():
    # eta underflows to exactly 0 at an absurd distance; with darks off the
    # raw-key probability hits 0 and the sentinel engages
    params = ScenarioParams(dark_rate=0.0, alpha=1000.0)
    point = evaluate_point(params, 1e7)
    assert point.p_raw == 0.0
    assert point.degenerate
    assert point.qber == 0.5
    assert point.key_rate == 0.0


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


def _composed_point(params: ScenarioParams, distance: float) -> ProtocolPoint:
    """The pipeline rebuilt from the public helpers and per-call records."""
    sigma_l = broadened_sigma(
        Pulse(params.sigma, params.chirp), Medium(params.beta), distance
    )
    sigma_tot = detected_sigma(sigma_l, params.jitter)
    p_sig = p_signal(sigma_tot, params.window)
    q = shifted_window_mass(sigma_tot, params.window, params.period)
    p_w = p_wrong(q, q)
    eta = transmittance(
        Channel(params.alpha, distance / KM, params.transmittance_convention)
    )
    p_det = p_detect(eta, p_sig, p_w)
    p_zero, p_one = dark_probs(
        DarkCounts(params.dark_rate, params.dark_model), params.window
    )
    p_raw = p_raw_key(p_det, p_zero, p_one)
    if p_raw == 0.0:
        return ProtocolPoint(
            p_sig, p_w, p_det, p_zero, p_one, p_raw, 0.5, 0.0, degenerate=True
        )
    q_err = qber(eta, p_sig, p_w, p_det, p_zero, p_one, p_raw)
    return ProtocolPoint(
        p_sig, p_w, p_det, p_zero, p_one, p_raw, q_err, key_rate(p_raw, q_err)
    )


def _decades(lo: float, hi: float):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(
        lambda e: 10.0 ** e
    )


@st.composite
def _domain_params(draw) -> ScenarioParams:
    """ScenarioParams over the documented robustness domain: sigma, jitter,
    window and period across three decades (windows may overlap), beta = 0
    and jitter = 0 included, |C| up to 10, dark_rate * window up to and past
    1 under both dark models, both transmittance conventions."""
    window = draw(_decades(1.0, 1000.0)) * PS
    exposure = draw(_decades(1e-9, 2.0))
    return ScenarioParams(
        sigma=draw(_decades(1.0, 1000.0)) * PS,
        chirp=draw(st.floats(min_value=-10.0, max_value=10.0)),
        beta=draw(
            st.one_of(
                st.just(0.0),
                st.builds(
                    lambda mag, sign: sign * mag * 1e-26,
                    _decades(0.1, 10.0),
                    st.sampled_from((-1.0, 1.0)),
                ),
            )
        ),
        alpha=draw(st.floats(min_value=0.15, max_value=0.3)),
        dark_rate=exposure / window,
        period=draw(_decades(10.0, 10000.0)) * PS,
        jitter=draw(st.one_of(st.just(0.0), _decades(0.1, 100.0))) * PS,
        window=window,
        dark_model=draw(st.sampled_from(DarkCountModel)),
        transmittance_convention=draw(st.sampled_from(TransmittanceConvention)),
    )


@settings(deadline=None, max_examples=300)
@given(params=_domain_params(), l_km=st.floats(min_value=0.0, max_value=500.0))
def test_evaluate_point_equals_composed_helpers(params, l_km):
    # dual route: the lean core must reproduce, bit for bit, the pipeline
    # assembled from the public helpers, including the linearized-dark error
    try:
        expected = _composed_point(params, l_km * KM)
    except ValueError as exc:
        with pytest.raises(ValueError, match="rate\\*window"):
            evaluate_point(params, l_km * KM)
        assert "rate*window" in str(exc)
        return
    assert evaluate_point(params, l_km * KM) == expected
