"""Engine configuration.

Config files are plain text, one ``key = value`` per line, ``#`` comments
allowed.  Recognized keys and defaults:

    year_start      = 1000    # papers outside [year_start, year_end] are skipped
    year_end        = 9999
    window_length   = 5       # co-authorship window, in years
    n               = 6       # weight mapping threshold (citations at distance >= n weigh 1)
    alpha           = 1       # slope used by the c-index
    exact_distances = false   # true: exact distances (required for c-index / N_w reports);
                              # false: breadth-first search capped at n (x-index only)
    strict_window   = false   # true: the pipeline skips years without a full window;
                              # false: the window is truncated at the corpus start

Every persisted artifact records the hash of the configuration that
produced it, so stages can detect stale or mismatched state.

Light layer: no module-level import of ``collab``, ``corpus`` or
``analytics`` (see ``citedist``).  Every CLI step imports this module.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import CiteDistError, EmptyCorpusError

INDEX_NAMES = ("Q", "h", "g", "c", "N_w", "x")  # report names of the indices

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


class ConfigError(CiteDistError):
    """Malformed configuration file or invalid value."""


class _ConfigFields(NamedTuple):
    year_start: int = 1000
    year_end: int = 9999
    window_length: int = 5
    n: int = 6
    alpha: Fraction = Fraction(1)
    exact_distances: bool = False
    strict_window: bool = False


class Config(_ConfigFields):
    """One engine configuration, checked when it is made."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.year_start > self.year_end:
            raise ConfigError("year_start must not exceed year_end")
        if self.window_length < 1:
            raise ConfigError("window_length must be >= 1")
        if self.n < 0:
            raise ConfigError("n must be >= 0")
        if self.alpha <= 0:
            raise ConfigError("alpha must be > 0")
        return self

    @property
    def distance_cap(self) -> int | None:
        """Search cap for the yearly distance batch; None means exact."""
        return None if self.exact_distances else self.n

    def canonical_text(self) -> str:
        lines = []
        for name, value in zip(self._fields, self):
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{name} = {value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()


def parse_config_text(text: str) -> Config:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in Config._fields:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _convert(key, value, lineno)
    return Config(**values)


def _convert(key: str, value: str, lineno: int):
    kind = type(Config._field_defaults[key])
    try:
        return _BOOL_WORDS[value.lower()] if kind is bool else kind(value)
    except (KeyError, ValueError, ZeroDivisionError):
        raise ConfigError(f"line {lineno}: bad value {value!r} for {key}") from None


def config_span(paper_years: Iterable[int], config: Config) -> tuple[int, int]:
    """The first and last of ``paper_years`` in the config's year range:
    ``year_span()`` of a store built from papers of those years with that
    config.  Raises EmptyCorpusError, as the build would, when none is."""
    kept = [y for y in paper_years if config.year_start <= y <= config.year_end]
    if not kept:
        raise EmptyCorpusError()
    return min(kept), max(kept)


def load_config(path: str | Path) -> Config:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)
