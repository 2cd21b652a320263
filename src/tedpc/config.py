"""Run configuration with flags > config file > defaults precedence."""

from __future__ import annotations

import json
import os
from datetime import date
from pathlib import Path
from typing import NamedTuple

from .concept_registry import default_dod_concepts_path, default_ga_concepts_path
from .episode_builder import MATCH_MAX_DAYS, MATCH_MIN_DAYS
from .csvio import iso_date, open_text
from .errors import ConfigError
from .ga_engine import CONFLICT_WINDOW_DAYS, SEPARATION_WINDOW_DAYS
from .analytics import PANDEMIC_CUTOFF, SUPPRESSION_THRESHOLD, PandemicStratum, pandemic_stratum_of

ENV_DATA_DIR = "TEDPC_DATA_DIR"

_WINDOW_FIELDS = ("pre_window", "peri_window")
# The type of each field but the windows. A path is a str or an os.PathLike (None only where that is the
# default); every other type is exact: bool subclasses int, and datetime subclasses date.
_FIELD_TYPES = {
    **dict.fromkeys(("persons_path", "events_path", "ga_concepts_path", "dod_concepts_path"), Path),
    **dict.fromkeys(("index_events_path", "episodes_path", "out_dir"), Path),
    **dict.fromkeys(("window_days", "match_min_days", "match_max_days", "conflict_days", "suppression_threshold"), int),
    "pandemic_cutoff": date, "apply_filters": bool, "emit_cohorts": bool,
}

_JSON_NAMES = {str: "string", int: "integer", bool: "boolean"}


def resolve_input_path(path: Path | str | None) -> Path | None:
    """Resolve an input path, falling back to $TEDPC_DATA_DIR for relative names."""
    if path is None:
        return None
    path = Path(path)
    # os.path.exists is False for a name the OS refuses, where Path.exists raises; open_text reports it.
    if path.is_absolute() or os.path.exists(path):
        return path
    base = os.environ.get(ENV_DATA_DIR)
    if base:
        candidate = Path(base) / path
        if os.path.exists(candidate):
            return candidate
    return path


class RunConfig(NamedTuple):
    """Paths and engine constants for one pipeline run."""

    persons_path: Path | None = None
    events_path: Path | None = None
    ga_concepts_path: Path = default_ga_concepts_path()
    dod_concepts_path: Path = default_dod_concepts_path()
    index_events_path: Path | None = None
    episodes_path: Path | None = None
    out_dir: Path = Path("out")
    window_days: int = SEPARATION_WINDOW_DAYS
    match_min_days: int = MATCH_MIN_DAYS
    match_max_days: int = MATCH_MAX_DAYS
    conflict_days: int = CONFLICT_WINDOW_DAYS
    suppression_threshold: int = SUPPRESSION_THRESHOLD
    pandemic_cutoff: date = PANDEMIC_CUTOFF
    pre_window: tuple[date, date] | None = None
    peri_window: tuple[date, date] | None = None
    apply_filters: bool = True
    emit_cohorts: bool = False

    def validate(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is Path:
                unset = value is None and self._field_defaults[name] is None
                if not unset and not isinstance(value, (str, os.PathLike)):
                    raise ConfigError(f"{name} must be a path, got {value!r}")
            elif type(value) is not kind:
                raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")
        for name in _WINDOW_FIELDS:
            window = getattr(self, name)
            if window is not None and (
                type(window) is not tuple or len(window) != 2 or any(type(day) is not date for day in window)
            ):
                raise ConfigError(f"{name} must be None or a tuple of two dates, got {window!r}")
        positive = {
            "window_days": self.window_days,
            "match_min_days": self.match_min_days,
            "match_max_days": self.match_max_days,
            "conflict_days": self.conflict_days,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.match_min_days >= self.match_max_days:
            raise ConfigError(
                f"match bounds must satisfy min < max, got [{self.match_min_days}, {self.match_max_days}]"
            )
        pre, peri = self.pre_window, self.peri_window
        if (pre is None) != (peri is None):
            raise ConfigError("pre_window and peri_window must be given together")
        if pre is not None:
            for name, (first, last) in (("pre_window", pre), ("peri_window", peri)):
                if first > last:
                    raise ConfigError(f"{name} starts {first.isoformat()}, after its end {last.isoformat()}")
            # An episode in both windows would be counted pre only.
            if pre[0] <= peri[1] and peri[0] <= pre[1]:
                raise ConfigError("pre_window and peri_window overlap")
        if self.suppression_threshold < 0:
            raise ConfigError("suppression threshold must be non-negative")

    def stratum_of(self, dod: date) -> PandemicStratum | None:
        """A delivery's `stats` stratum: by the windows if set (None in neither), else by `pandemic_cutoff`."""
        if self.pre_window is None:
            return pandemic_stratum_of(dod, self.pandemic_cutoff)
        if self.pre_window[0] <= dod <= self.pre_window[1]:
            return PandemicStratum.PRE
        if self.peri_window[0] <= dod <= self.peri_window[1]:
            return PandemicStratum.PERI
        return None

    def to_json(self) -> str:
        payload = {}
        for name, value in zip(self._fields, self):
            if isinstance(value, Path):
                value = str(value)
            elif isinstance(value, date):
                value = value.isoformat()
            elif isinstance(value, tuple):
                value = [day.isoformat() for day in value]
            payload[name] = value
        return json.dumps(payload, indent=2, sort_keys=True)


def _typed(key: str, value, default):
    """A config-file value as its field's type; ValueError says what is wrong with it."""
    if value is None and default is None:
        return None
    if key in _WINDOW_FIELDS:
        if type(value) is not list or len(value) != 2 or any(type(day) is not str for day in value):
            raise ValueError(f"{key} must be a JSON list of two ISO date strings, got {value!r}")
        return tuple(_parse_date(key, day) for day in value)
    kind = _FIELD_TYPES[key]
    expected = str if kind in (Path, date) else kind
    # Exact type: bool subclasses int, but true is not a window length.
    if type(value) is not expected:
        raise ValueError(f"{key} must be a JSON {_JSON_NAMES[expected]}, got {value!r}")
    return _parse_date(key, value) if kind is date else value


def _parse_date(key: str, text: str) -> date:
    try:
        return iso_date(text)
    except ValueError as exc:
        raise ValueError(f"bad date for {key}: {exc}") from None


def build_config(config_file: Path | str | None, overrides: dict) -> RunConfig:
    """Assemble a RunConfig: defaults, then config-file values, then flags."""
    values: dict = {}
    if config_file is not None:
        with open_text(config_file, ConfigError) as fh:
            text = fh.read()
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # Also an integer of over 4300 digits, or arrays nested too deep to decode.
            raise ConfigError(f"{config_file}: invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{config_file}: expected a JSON object")
        defaults = RunConfig()
        unknown = set(raw) - set(RunConfig._fields)
        if unknown:
            raise ConfigError(f"{config_file}: unknown config keys {sorted(unknown)}")
        try:
            values = {key: _typed(key, value, getattr(defaults, key)) for key, value in raw.items()}
        except ValueError as exc:
            raise ConfigError(f"{config_file}: {exc}") from None
    for key, value in overrides.items():
        if value is not None:
            try:
                values[key] = _parse_date(key, value) if _FIELD_TYPES.get(key) is date else value
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
    for key, value in values.items():
        if _FIELD_TYPES.get(key) is Path and isinstance(value, (str, os.PathLike)):
            # The $TEDPC_DATA_DIR fallback is for inputs: an output directory is always where it is named.
            values[key] = Path(value) if key == "out_dir" else resolve_input_path(value)
    config = RunConfig(**values)
    try:
        config.validate()
    except ConfigError as exc:
        if config_file is None:
            raise
        raise ConfigError(f"{exc} (set in {config_file} or by a flag)") from None
    return config
