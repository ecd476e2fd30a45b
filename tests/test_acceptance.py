"""Acceptance suite: one test per criterion, reported in the terminal summary.

Every test records a PASS/FAIL line through conftest.record before asserting,
so a red criterion still shows up with its measured numbers.
"""

import math
import random
from dataclasses import replace

import pytest

from conftest import record
from dispersive_qkd.analysis import (
    max_distance,
    run_scenario,
    scan_chirp,
    sweep_distance,
)
from dispersive_qkd.cli import CSV_HEADER, main
from dispersive_qkd.config import KM, PS, Config, to_params
from dispersive_qkd.detection import broadened_sigma, p_signal, shifted_window_mass
from dispersive_qkd.keyrate import (
    DarkCountModel,
    ScenarioParams,
    TransmittanceConvention,
    binary_entropy,
    evaluate_point,
    key_rate,
)
from oracles import (
    Bracket,
    QuadratureSpec,
    find_root,
    initial_state,
    integrate,
    live_points,
    moments,
    pdf,
    propagate_closed_form,
    propagate_numeric,
)

QBER_THRESHOLD = 0.11002786443832518


def _draw_pulse(rng):
    sigma = rng.uniform(1e-12, 50e-12)
    chirp = rng.uniform(-3.0, 3.0)
    beta = 0.0
    while beta == 0.0:
        beta = rng.uniform(-2e-26, 2e-26)
    length = rng.uniform(0.0, 300e3)
    return sigma, chirp, beta, length


@pytest.fixture(scope="module")
def propagated_moments():
    """200 random draws shared by the norm/mean and broadening criteria:
    ((sigma, chirp, beta, length), (norm, mean, variance))."""
    rng = random.Random(20260814)
    entries = []
    for _ in range(200):
        draw = _draw_pulse(rng)
        entries.append((draw, moments(propagate_closed_form(*draw))))
    return entries


def test_criterion_01_density_norm_and_mean(propagated_moments):
    bad = []
    for draw, (norm, mean, _) in propagated_moments:
        if abs(norm - 1.0) > 1e-9 or abs(mean) > 1e-25:
            bad.append((draw, norm, mean))
    # source conditions: unit norm, centered, variance sigma^2
    rng = random.Random(9)
    for _ in range(25):
        sigma, chirp, _, _ = _draw_pulse(rng)
        norm, mean, variance = moments(initial_state(sigma, chirp))
        s2 = sigma**2
        if (
            abs(norm - 1.0) > 1e-9
            or abs(mean) > 1e-25
            or abs(variance - s2) > 1e-8 * s2
        ):
            bad.append(((sigma, chirp), norm, mean, variance))
    ok = not bad
    record(
        1,
        "propagated density stays a unit-norm centered pdf",
        ok,
        f"200 draws + 25 source checks, {len(bad)} outside tolerance",
    )
    assert ok, bad[:3]


def test_criterion_02_closed_form_matches_propagator_integral():
    rng = random.Random(20260815)
    worst = 0.0
    bad = []
    for i in range(50):
        sigma = rng.uniform(2e-12, 40e-12)
        chirp = rng.uniform(-2.0, 2.0)
        mag = rng.uniform(0.3e-26, 2e-26)
        beta = mag if i % 2 == 0 else -mag
        length = min(rng.uniform(0.2, 1.5) * sigma**2 / mag, 300e3)
        state = propagate_closed_form(sigma, chirp, beta, length)
        s_l = state.pdf_sigma
        for k in range(21):
            t = -4.0 * s_l + 8.0 * s_l * k / 20.0
            dens_closed = pdf(state, t)
            dens_numeric = abs(propagate_numeric(sigma, chirp, beta, length, t)) ** 2
            rel = abs(dens_closed - dens_numeric) / dens_numeric
            worst = max(worst, rel)
            if rel > 1e-6:
                bad.append((sigma, chirp, beta, length, t, rel))
    ok = not bad
    record(
        2,
        "closed-form density equals the propagator-integral oracle",
        ok,
        f"50 draws x 21 points, worst rel dev {worst:.2e}",
    )
    assert ok, bad[:3]


def test_criterion_03_broadening_formula_gate(propagated_moments):
    worst = 0.0
    bad = []
    for draw, (_, _, variance) in propagated_moments:
        expected = broadened_sigma(*draw) ** 2
        rel = abs(variance - expected) / expected
        worst = max(worst, rel)
        if rel > 1e-8:
            bad.append((draw, rel))
    ok = not bad
    record(
        3,
        "width formula matches quadrature variance",
        ok,
        f"200 draws, worst rel dev {worst:.2e}",
    )
    assert ok, bad[:3]


def _window_mass_oracle(sigma_tot, lo, hi):
    spec = QuadratureSpec()
    a, b = lo / sigma_tot, hi / sigma_tot
    phi = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return integrate(phi, a, b, spec).real


def test_criterion_04_window_probability_closed_forms():
    rng = random.Random(20260816)
    worst = 0.0
    bad = []
    cases = [(118.111e-12, 125e-12, 100e-12)]  # overlap regime: window > period
    for i in range(99):
        sigma_tot = rng.uniform(1e-12, 200e-12)
        if i % 5 == 0:
            period = rng.uniform(20e-12, 120e-12)
            window = rng.uniform(period, 150e-12)  # forced overlap draws
        else:
            window = rng.uniform(1e-12, 150e-12)
            period = rng.uniform(20e-12, 200e-12)
        cases.append((sigma_tot, window, period))
    for sigma_tot, window, period in cases:
        dev_sig = abs(
            p_signal(sigma_tot, window)
            - _window_mass_oracle(sigma_tot, -window / 2, window / 2)
        )
        dev_shift = abs(
            shifted_window_mass(sigma_tot, window, period)
            - _window_mass_oracle(sigma_tot, period - window / 2, period + window / 2)
        )
        worst = max(worst, dev_sig, dev_shift)
        if dev_sig > 1e-9 or dev_shift > 1e-9:
            bad.append((sigma_tot, window, period, dev_sig, dev_shift))
    ok = not bad
    record(
        4,
        "window probabilities match direct quadrature",
        ok,
        f"100 draws incl. overlap regime, worst abs dev {worst:.2e}",
    )
    assert ok, bad[:3]


def test_criterion_05_dark_count_model_agreement():
    base = ScenarioParams()  # dark_rate * window = 5e-8
    exact = replace(base, dark_model=DarkCountModel.EXACT_POISSON)
    worst = 0.0
    for i in range(101):
        distance = i * 2.0 * KM
        k_lin = evaluate_point(base, distance).key_rate
        k_poi = evaluate_point(exact, distance).key_rate
        worst = max(worst, abs(k_lin - k_poi))
    ok = worst <= 1e-10
    record(
        5,
        "linearized and Poisson dark counts agree",
        ok,
        f"0-200 km sweep, worst abs dev {worst:.2e}",
    )
    assert ok


def test_criterion_06_security_threshold():
    root = find_root(
        lambda q: 1.0 - 2.0 * binary_entropy(q), Bracket(0.05, 0.25), tol=1e-12
    )
    root_ok = abs(root - QBER_THRESHOLD) <= 1e-6
    # attainable error rates cap at 1/2; above the threshold the rate is
    # clamped to zero for every raw-key probability
    zero_ok = True
    for q in [0.110028, 0.1101, 0.12, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5]:
        for p_raw in [1e-9, 0.01, 0.25, 0.5]:
            if key_rate(p_raw, q) != 0.0:
                zero_ok = False
    positive_ok = key_rate(0.25, 0.1099) > 0.0
    ok = root_ok and zero_ok and positive_ok
    record(
        6,
        "extraction dies above the error threshold",
        ok,
        f"bisection root {root:.9f}",
    )
    assert ok


def _l_max_km(params):
    return max_distance(params)


def test_criterion_07_window_50ps_beats_5_and_125():
    results = {}
    for jitter_ps in (4, 25):
        for window_ps in (5, 50, 125):
            params = ScenarioParams(jitter=jitter_ps * PS, window=window_ps * PS)
            results[(jitter_ps, window_ps)] = _l_max_km(params)
    clauses = []
    for jitter_ps in (4, 25):
        clauses.append(results[(jitter_ps, 50)] > results[(jitter_ps, 5)])
        clauses.append(results[(jitter_ps, 50)] > results[(jitter_ps, 125)])
    ok = all(clauses)
    detail = "; ".join(
        f"j{j}: v5={results[(j, 5)]:.2f} v50={results[(j, 50)]:.2f} "
        f"v125={results[(j, 125)]:.2f} km"
        for j in (4, 25)
    )
    record(7, "50 ps window maximizes range against 5 and 125 ps", ok, detail)
    assert ok, detail


def test_criterion_08_chirp_ordering():
    detail_parts = []
    ok = True
    for jitter_ps in (4, 25):
        variants = {
            c: ScenarioParams(chirp=float(c), jitter=jitter_ps * PS)
            for c in (0, -1, 1)
        }
        l_max = {c: _l_max_km(p) for c, p in variants.items()}
        range_ok = l_max[0] > l_max[-1] > l_max[1]
        first_extinction = min(l_max.values())
        grid = [first_extinction * i / 60.0 for i in range(61)]
        sweeps = {c: sweep_distance(p, grid).key_rates() for c, p in variants.items()}
        first_violation = None
        for distance, k0, km1, kp1 in zip(
            grid, sweeps[0], sweeps[-1], sweeps[1]
        ):
            if not (k0 >= km1 >= kp1) and first_violation is None:
                first_violation = (distance, k0, km1, kp1)
        pointwise_ok = first_violation is None
        ok = ok and range_ok and pointwise_ok
        part = (
            f"j{jitter_ps}: Lmax(0)={l_max[0]:.2f} Lmax(-1)={l_max[-1]:.2f} "
            f"Lmax(+1)={l_max[1]:.2f}"
        )
        if first_violation is not None:
            d, k0, km1, kp1 = first_violation
            part += (
                f", rate order breaks at L={d:.2f} km "
                f"(K0={k0:.4g} K-1={km1:.4g} K+1={kp1:.4g})"
            )
        detail_parts.append(part)
    record(8, "zero chirp dominates -1 dominates +1", ok, "; ".join(detail_parts))
    assert ok, detail_parts


def test_criterion_09_optimal_chirp_range():
    details = []
    ok = True
    for jitter_ps in (4, 25):
        params = ScenarioParams(jitter=jitter_ps * PS)
        grid = [-2.0 + 0.05 * i for i in range(81)]
        scan = scan_chirp(params, grid)
        baseline = _l_max_km(replace(params, chirp=0.0))
        ok = ok and -0.35 <= scan.c_star <= -0.15 and scan.l_max_star > baseline
        details.append(
            f"j{jitter_ps}: c*={scan.c_star:.4f}, "
            f"L(c*)={scan.l_max_star:.2f} vs L(0)={baseline:.2f} km"
        )
    record(9, "best chirp lies in [-0.35, -0.15]", ok, "; ".join(details))
    assert ok, details


def test_criterion_10_dispersion_ordering_and_chirp_gain():
    gains = {}
    l_at_zero = {}
    grid = [-2.0 + 0.05 * i for i in range(81)]
    for beta_e26 in (-0.7, -1.15, -1.5):
        params = ScenarioParams(beta=beta_e26 * 1e-26)
        scan = scan_chirp(params, grid)
        baseline = _l_max_km(replace(params, chirp=0.0))
        l_at_zero[beta_e26] = baseline
        gains[beta_e26] = scan.l_max_star / baseline
    range_ok = l_at_zero[-0.7] > l_at_zero[-1.15] > l_at_zero[-1.5]
    gain_ok = gains[-0.7] > gains[-1.15] and gains[-0.7] > gains[-1.5]
    ok = range_ok and gain_ok
    detail = (
        f"Lmax(0): {l_at_zero[-0.7]:.2f}/{l_at_zero[-1.15]:.2f}/"
        f"{l_at_zero[-1.5]:.2f} km, gains {gains[-0.7]:.4f}/"
        f"{gains[-1.15]:.4f}/{gains[-1.5]:.4f} for beta -0.7/-1.15/-1.5e-26"
    )
    record(10, "weak dispersion wins and profits most from chirp", ok, detail)
    assert ok, detail


def test_criterion_11_range_search_matches_brute_scan():
    configs = {
        "defaults": ScenarioParams(),
        "chirp -1": ScenarioParams(chirp=-1.0),
        "tight window": ScenarioParams(jitter=4 * PS, window=5 * PS),
        "weak dispersion": ScenarioParams(beta=-0.7e-26),
        "literal transmittance": ScenarioParams(
            transmittance_convention=TransmittanceConvention.LITERAL
        ),
        # a focusing chirp: secure on [0, 4] and [26, 180] km
        "split set": ScenarioParams(sigma=50 * PS, chirp=-1.0),
    }
    worst = 0.0
    details = []
    found = {}
    for name, params in configs.items():
        found[name] = max_distance(params)
        brute = live_points(params, 0.0, found[name] + 1.0)[-1] + 0.005
        dev = abs(found[name] - brute)
        worst = max(worst, dev)
        details.append(f"{name}: {found[name]:.3f} vs {brute:.3f} km")
    # the scan runs only 1 km past the found edge, so pin the split set's far
    # edge: the near one, at 4 km, is an extinction edge too
    ok = worst <= 0.02 and abs(found["split set"] - 180.40) <= 0.01
    record(
        11,
        "range search matches 10 m brute-force scan",
        ok,
        f"worst dev {worst * 1000:.1f} m; " + "; ".join(details),
    )
    assert ok, details


def test_criterion_12_cli_determinism_and_format(tmp_path):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        assert main(["reproduce", "fig2", "--out", str(d)]) == 0
    names = sorted(p.name for p in dirs[0].glob("*.csv"))
    identical = bool(names) and all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names
    )
    identical = identical and (dirs[0] / "fig2.svg").read_bytes() == (
        dirs[1] / "fig2.svg"
    ).read_bytes()
    lines = (dirs[0] / "fig2_C0_j25ps.csv").read_text().splitlines()
    header_ok = lines[0] == CSV_HEADER
    # spot-check one row: recompute the full-precision grid distance, then
    # confirm the row is that distance in km piped through the SI pipeline
    result = run_scenario("fig2", to_params(Config()))
    rows = dict(result.curves)["C0_j25ps"].rows
    mid = len(rows) // 2
    l_km, point = rows[mid]
    point_si = evaluate_point(
        replace(to_params(Config()), chirp=0.0, jitter=25 * PS), l_km * KM
    )
    row_ok = point_si == point and lines[mid + 1] == ",".join(
        f"{v:.10g}"
        for v in (
            l_km,
            point.p_sig,
            point.p_w,
            point.p_det,
            point.p_raw,
            point.qber,
            point.key_rate,
        )
    )
    ok = identical and header_ok and row_ok
    record(
        12,
        "figure regeneration is byte-identical and format-exact",
        ok,
        f"{len(names)} CSVs + SVG compared",
    )
    assert ok
