"""Flat key-value experiment configs.

Config files are plain text: one `section.key = value` per line, `#` comment
lines, blank lines ignored. Values stay verbatim strings so every report can
echo the parsed config bit-exactly; typed getters convert on access.
"""
from __future__ import annotations

import math
import re

_KEY_RE = re.compile(r"^[A-Za-z0-9_]+(\.[A-Za-z0-9_]+)*$")


class ConfigError(ValueError):
    """Malformed config text or a violated config invariant."""


class TrackedConfig(dict):
    """A parsed config that records every key a getter looks up, present or not,
    so the keys no command reads can be reported."""

    def __init__(self, cfg: dict[str, str]):
        super().__init__(cfg)
        self.read: set[str] = set()

    def __contains__(self, key: str) -> bool:
        self.read.add(key)
        return super().__contains__(key)

    def __getitem__(self, key: str) -> str:
        self.read.add(key)
        return super().__getitem__(key)

    def unread(self) -> list[str]:
        return [key for key in self if key not in self.read]


def parse_config(text: str) -> dict[str, str]:
    """Parse flat dotted-key config text into an ordered {key: raw value} map."""
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: malformed key {key!r}")
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        cfg[key] = value
    return cfg


def load_config(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_config(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _convert(cfg: dict[str, str], key: str, conv, default):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return conv(cfg[key])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def get_int(cfg: dict[str, str], key: str, default: int | None = None) -> int:
    return _convert(cfg, key, int, default)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def get_float(cfg: dict[str, str], key: str, default: float | None = None) -> float:
    return _convert(cfg, key, _finite, default)


def get_positive(cfg: dict[str, str], key: str, default: float | None = None) -> float:
    value = get_float(cfg, key, default)
    if not value > 0.0:
        raise ConfigError(f"{key} = {value:g}: must be positive")
    return value


def get_bool(cfg: dict[str, str], key: str, default: bool | None = None) -> bool:
    def conv(value: str) -> bool:
        low = value.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")

    return _convert(cfg, key, conv, default)


def get_floats(cfg: dict[str, str], key: str, default: tuple[float, ...] | None = None) -> tuple[float, ...]:
    def conv(value: str) -> tuple[float, ...]:
        parts = [tok.strip() for tok in value.split(",")]
        if any(not tok for tok in parts):
            raise ValueError(f"expected comma-separated numbers, got {value!r}")
        return tuple(_finite(tok) for tok in parts)

    return _convert(cfg, key, conv, default)


# ---------------------------------------------------------------------------
# Config invariants


def check_lattice_n(n: int, key: str) -> None:
    """Lattice sizes must be powers of two in [16, 128]."""
    if n < 16 or n > 128 or (n & (n - 1)) != 0:
        raise ConfigError(f"{key} = {n}: lattice size must be a power of two in [16, 128]")


def check_band_hygiene(pmax: float, sigma: float, pmax_key: str, sigma_key: str) -> None:
    """Packet band-limit hygiene: pmax * sigma >= 20."""
    if pmax * sigma < 20.0:
        raise ConfigError(
            f"{pmax_key} * {sigma_key} = {pmax * sigma:g} < 20: "
            "widen the packet or extend the momentum band"
        )


def check_declared_tolerances(cfg: dict[str, str]) -> None:
    """Every tolerances.* key present in the config must parse to a positive float."""
    for key in cfg:
        if key.startswith("tolerances."):
            get_positive(cfg, key)
