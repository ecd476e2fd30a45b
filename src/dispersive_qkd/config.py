"""Flat key=value configuration for the command-line tools.

Files hold one `key = value` pair per line; `#` starts a comment. Keys use
human units (ps, km, dB/km, Hz, beta in units of 1e-26 s^2/m) and are
converted exactly once at the ScenarioParams boundary.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, fields

from .keyrate import _BETA_UNIT as BETA_UNIT, _KM as KM, _PS as PS
from .keyrate import DarkCountModel, ScenarioParams, TransmittanceConvention

__all__ = [
    "ConfigError",
    "Config",
    "parse_config",
    "parse_assignments",
    "to_params",
    "PS",
    "KM",
    "BETA_UNIT",
]


class ConfigError(ValueError):
    """Bad configuration file, key, or value."""


@dataclass(frozen=True)
class Config:
    # physical parameters, human units
    sigma_ps: float = 10.0
    chirp: float = 0.0
    beta_e26: float = -1.15
    alpha_db_per_km: float = 0.2
    dark_rate_hz: float = 1000.0
    period_ps: float = 100.0
    jitter_ps: float = 25.0
    window_ps: float = 50.0
    dark_model: str = "paper_linearized"
    transmittance_convention: str = "db"
    # evaluation and sweep controls
    distance_km: float = 0.0
    l_min_km: float = 0.0
    l_max_km: float = -1.0  # negative: auto-scale to 1.2x the secure range
    l_steps: int = 400
    c_min: float = -2.0
    c_max: float = 2.0
    c_step: float = 0.05
    # output controls
    rate_units: str = "per_window"


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"value must be finite, got {raw!r}")
    return value


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}") from None


def _parse_choice(allowed: tuple[str, ...]) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in allowed:
            raise ConfigError(f"expected one of {', '.join(allowed)}; got {raw!r}")
        return raw

    return parse


_PARSERS: Mapping[str, Callable[[str], object]] = {
    "dark_model": _parse_choice(tuple(m.value for m in DarkCountModel)),
    "transmittance_convention": _parse_choice(
        tuple(c.value for c in TransmittanceConvention)
    ),
    "rate_units": _parse_choice(("per_window", "per_second")),
    "l_steps": _parse_int,
}
_FIELD_NAMES = tuple(f.name for f in fields(Config))


def _validate(cfg: Config) -> None:
    positives = ("sigma_ps", "period_ps", "window_ps", "c_step")
    non_negatives = (
        "alpha_db_per_km",
        "dark_rate_hz",
        "jitter_ps",
        "distance_km",
        "l_min_km",
    )
    for name in positives:
        if not getattr(cfg, name) > 0:
            raise ConfigError(f"{name} must be > 0, got {getattr(cfg, name)}")
    for name in non_negatives:
        if getattr(cfg, name) < 0:
            raise ConfigError(f"{name} must be >= 0, got {getattr(cfg, name)}")
    if cfg.l_steps < 1:
        raise ConfigError(f"l_steps must be >= 1, got {cfg.l_steps}")
    if not cfg.c_min <= cfg.c_max:
        raise ConfigError(f"need c_min <= c_max, got [{cfg.c_min}, {cfg.c_max}]")
    if cfg.l_max_km >= 0 and not cfg.l_max_km > cfg.l_min_km:
        raise ConfigError(
            f"need l_max_km > l_min_km, got [{cfg.l_min_km}, {cfg.l_max_km}]"
        )


def _assign(values: dict[str, object], text: str, where: str) -> None:
    """Parse one `key=value` into values; errors start with `where`.

    A key may be set once per source: a repeat is an error, not a silent
    override.
    """
    key, eq, raw = text.partition("=")
    key = key.strip()
    if not eq:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    if key not in _FIELD_NAMES:
        raise ConfigError(f"{where}: unknown configuration key {key!r}")
    if key in values:
        raise ConfigError(f"{where}: {key} is set twice")
    try:
        values[key] = _PARSERS.get(key, _parse_float)(raw.strip())
    except ConfigError as exc:
        raise ConfigError(f"{where}: {key}: {exc}") from None


def parse_assignments(items: Sequence[str]) -> dict[str, object]:
    """Parse `key=value` strings (command-line overrides)."""
    values: dict[str, object] = {}
    for item in items:
        _assign(values, item, "--set")
    return values


def parse_config(path: str | None = None, overrides: Sequence[str] = ()) -> Config:
    """Load a config file (optional) and apply overrides on top.

    Unknown keys are hard errors: a typo must not silently fall back to a
    default. Parse errors carry the file line number.
    """
    values: dict[str, object] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        for lineno, line in enumerate(lines, start=1):
            text = line.split("#", 1)[0].strip()
            if text:
                _assign(values, text, f"{path}:{lineno}")
    values.update(parse_assignments(overrides))
    cfg = Config(**values)  # type: ignore[arg-type]
    _validate(cfg)
    return cfg


def to_params(cfg: Config) -> ScenarioParams:
    """Exact unit conversion into the SI scenario record."""
    return ScenarioParams(
        sigma=cfg.sigma_ps * PS,
        chirp=cfg.chirp,
        beta=cfg.beta_e26 * BETA_UNIT,
        alpha=cfg.alpha_db_per_km,
        dark_rate=cfg.dark_rate_hz,
        period=cfg.period_ps * PS,
        jitter=cfg.jitter_ps * PS,
        window=cfg.window_ps * PS,
        dark_model=cfg.dark_model,
        transmittance_convention=cfg.transmittance_convention,
    )
