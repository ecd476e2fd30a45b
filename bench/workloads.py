"""The three workloads: seeded inputs, the call each item makes, its check.

A pass is the workload's fixed amount of work; the timed loop repeats the
same pass, each time in a fresh process (see worker.py). Draws for one
pass are randomly shifted Halton points over the documented parameter
domain (_halton, draw_params), so two seeds cover the domain alike, in
each pair of parameters too, and their pass times stay comparable.

- reproduce_all: the six figures through `cli.main(["reproduce", ...])`
  with the default config; the job users run, and the only workload that
  reaches config parsing, charts and file output. Half of its scan_chirp
  and max_distance calls repeat an earlier call, so caching or
  de-duplication shows here and nowhere else. Its input is fixed by
  definition; the seed does not change it.
- chirp_scan: `analysis.scan_chirp` on the default 81-point chirp grid,
  |C| <= 2, which holds focusing chirps for every beta != 0. Root search
  dominates, so root-finder and warm-start changes show here. About a third
  of the draws are dead at the source (dark counts or jitter swamp the
  window) and cost one evaluation per chirp; the pass holds 192 scans so
  that share, and with it the pass's cost and the median and tail scan,
  varies little between seeds.
- point_sweep: `analysis.sweep_distance` on explicit 401-point grids, with
  no root search at all; the bypass workload for root-search and
  de-duplication changes, and the one an evaluate_point rewrite moves most.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
from array import array
from operator import attrgetter
from pathlib import Path

import checks
from dispersive_qkd import analysis, cli, config
from dispersive_qkd.keyrate import (
    DarkCountModel,
    ProtocolPoint,
    ScenarioParams,
    TransmittanceConvention,
)

PS = 1e-12
BETA_UNIT = 1e-26
_POINT_FIELDS = attrgetter(*(f.name for f in dataclasses.fields(ProtocolPoint)))


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _radical_inverse(i: int, base: int) -> float:
    """i's digits in `base`, mirrored about the point: 1 -> 1/b, 2 -> 2/b, ..."""
    f, r = 1.0, 0.0
    while i:
        f /= base
        i, digit = divmod(i, base)
        r += digit * f
    return r


def _halton(rng: random.Random, n: int, dims: int) -> list[tuple[float, ...]]:
    """n points in [0, 1)^dims: the Halton sequence, shifted by a seeded
    random vector modulo 1 (a Cranley-Patterson rotation).

    Every seed gives other points, and every seed's points fill the cube
    evenly in each pair of axes, not only along each axis as a Latin
    hypercube does; costs that hinge on two axes at once (window against
    period) are then drawn alike for every seed.
    """
    shift = [rng.random() for _ in range(dims)]
    return [
        tuple((_radical_inverse(i, b) + s) % 1.0 for b, s in zip(PRIMES, shift))
        for i in range(1, n + 1)
    ]


def _log(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


# The documented ScenarioParams domain (ROADMAP, open item 5): sigma, jitter,
# window and period each across three decades around the defaults, so that
# windows often exceed the period and overlap; dark_rate * window up to 1
# under both dark models; beta = 0 and jitter = 0 included; |C| up to 10.
SIGMA_PS = (1.0, 1000.0)
JITTER_PS = (0.1, 100.0)
WINDOW_PS = (1.0, 1000.0)
PERIOD_PS = (10.0, 10000.0)
DARK_PER_WINDOW = (1e-9, 1.0)
BETA_ABS = (0.1, 10.0)
CHIRP_ABS = 10.0
ALPHA = (0.15, 0.3)
# share of draws with jitter = 0, and with beta = 0
ZERO_SHARE = 0.1
DOMAIN_DIMS = 10


def _signed_beta(u: float) -> float:
    """beta = 0 for a ZERO_SHARE of draws; else normal or anomalous, |beta| log-uniform."""
    if u < ZERO_SHARE:
        return 0.0
    v = (u - ZERO_SHARE) / (1.0 - ZERO_SHARE)
    if v < 0.5:
        return -_log(2.0 * v, *BETA_ABS) * BETA_UNIT
    return _log(2.0 * v - 1.0, *BETA_ABS) * BETA_UNIT


def _jitter(u: float) -> float:
    if u < ZERO_SHARE:
        return 0.0
    return _log((u - ZERO_SHARE) / (1.0 - ZERO_SHARE), *JITTER_PS) * PS


def draw_params(u: tuple[float, ...]) -> ScenarioParams:
    """ScenarioParams from DOMAIN_DIMS uniforms in [0, 1)."""
    window = _log(u[2], *WINDOW_PS) * PS
    return ScenarioParams(
        sigma=_log(u[0], *SIGMA_PS) * PS,
        jitter=_jitter(u[1]),
        window=window,
        period=_log(u[3], *PERIOD_PS) * PS,
        dark_rate=_log(u[4], *DARK_PER_WINDOW) / window,
        beta=_signed_beta(u[5]),
        chirp=CHIRP_ABS * (2.0 * u[6] - 1.0),
        alpha=ALPHA[0] + (ALPHA[1] - ALPHA[0]) * u[7],
        dark_model=(
            DarkCountModel.EXACT_POISSON if u[8] < 0.5 else DarkCountModel.PAPER_LINEARIZED
        ),
        transmittance_convention=(
            TransmittanceConvention.LITERAL if u[9] < 0.5 else TransmittanceConvention.DB
        ),
    )


class ReproduceAll:
    name = "reproduce_all"

    def __init__(self, outdir: Path) -> None:
        self.inputs = list(analysis.SCENARIOS)
        self.outdir = outdir
        self.outdir.mkdir(parents=True, exist_ok=True)
        # what `reproduce` runs with no config file, to check its scans against
        cfg = config.parse_config()
        self.base = config.to_params(cfg)
        self.c_grid = analysis.default_chirp_grid(cfg.c_min, cfg.c_max, cfg.c_step)

    def _files(self, fig: str) -> list[Path]:
        return sorted(self.outdir.glob(f"{fig}_*.csv")) + sorted(self.outdir.glob(f"{fig}.svg"))

    def prepare(self, fig: str) -> None:
        for path in self._files(fig):
            path.unlink()

    def run(self, fig: str) -> int:
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["reproduce", fig, "--out", str(self.outdir)])

    def check(self, fig: str, code: int) -> list[str]:
        if code != 0:
            return [f"{fig}: exit code {code}"]
        files = self._files(fig)
        if not any(p.suffix == ".svg" for p in files) or len(files) < 2:
            return [f"{fig}: expected CSVs and an SVG, found {[p.name for p in files]}"]
        problems = []
        for path in files:
            params = None
            if fig in ("fig3a", "fig4a") and path.suffix == ".csv":
                params = checks.figure_scan_params(fig, path.stem[len(fig) + 1:], self.base)
            problems += checks.figure_file(path, path.read_bytes(), params, self.c_grid)
        return problems

    def fingerprint(self, fig: str, code: int) -> bytes:
        """The exit code and the figure's files, names and bytes."""
        return str(code).encode() + b"".join(
            p.name.encode() + b"\0" + p.read_bytes() for p in self._files(fig)
        )

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for fig in self.inputs for p in self._files(fig))


class ChirpScan:
    name = "chirp_scan"

    def __init__(self, seed: int, per_pass: int = 192) -> None:
        rng = random.Random(f"chirp_scan/{seed}")
        self.grid = analysis.default_chirp_grid()
        # the scan sets the chirp, so the draw's own chirp is dropped
        self.inputs = [draw_params(u) for u in _halton(rng, per_pass, DOMAIN_DIMS)]

    def prepare(self, params: ScenarioParams) -> None:
        pass

    def run(self, params: ScenarioParams):
        return analysis.scan_chirp(params, self.grid)

    def check(self, params: ScenarioParams, result) -> list[str]:
        return checks.scan(params, self.grid, result)

    def fingerprint(self, params: ScenarioParams, result) -> bytes:
        return repr(result).encode()


class PointSweep:
    name = "point_sweep"
    points = 401

    def __init__(self, seed: int, per_pass: int = 128) -> None:
        rng = random.Random(f"point_sweep/{seed}")
        self.inputs = []
        for u in _halton(rng, per_pass, DOMAIN_DIMS + 2):
            start = 20.0 * u[DOMAIN_DIMS]
            span = _log(u[DOMAIN_DIMS + 1], 5.0, 250.0)
            grid = [start + span * i / (self.points - 1) for i in range(self.points)]
            self.inputs.append((draw_params(u), grid))

    def prepare(self, item) -> None:
        pass

    def run(self, item):
        params, grid = item
        return analysis.sweep_distance(params, grid)

    def check(self, item, result) -> list[str]:
        return checks.sweep(item[1], result)

    def fingerprint(self, item, result) -> bytes:
        """Every number of the sweep, packed exactly; repr would cost more
        than the sweep itself."""
        return array("d", [v for l_km, p in result.rows for v in (l_km, *_POINT_FIELDS(p))]).tobytes()


WORKLOADS = {w.name: w for w in (ReproduceAll, ChirpScan, PointSweep)}
