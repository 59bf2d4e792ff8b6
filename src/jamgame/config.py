"""Flat `key = value` scenario configuration files.

One assignment per line, each key at most once, SI-unit numeric literals,
`#` comments::

    # Lab scenario
    t_aj  = 15e-6
    delta = 1e-6
    p_t   = 2
    p_j   = 2
    t_p   = 50e-6
    c_t   = 1e6
    c_t_star = 0

Required keys are the seven GameParams fields except ``c_t_star``, which
defaults to 0.  Extra keys (e.g. xi_min, xi_max, total_cycles,
update_period_cycles) are preserved and available to the commands that use
them.  Dumping a parsed config re-produces an equivalent file.
"""

from __future__ import annotations

import os

from .errors import ConfigError
from .model import GameParams

__all__ = [
    "REQUIRED_KEYS",
    "parse_config_text",
    "read_config",
    "dump_config",
    "game_params_from_config",
]

REQUIRED_KEYS = ("t_aj", "delta", "p_t", "p_j", "t_p", "c_t")


def parse_config_text(text: str) -> dict[str, float]:
    cfg: dict[str, float] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in first_line:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        try:
            cfg[key] = float(value.strip())
        except ValueError:
            raise ConfigError(f"line {lineno}: value for {key!r} is not a number: {value.strip()!r}")
    return cfg


def read_config(path: str | os.PathLike) -> dict[str, float]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def dump_config(cfg: dict[str, float]) -> str:
    lines = [f"{key} = {float(value)!r}" for key, value in cfg.items()]
    return "\n".join(lines) + "\n"


def game_params_from_config(cfg: dict[str, float]) -> GameParams:
    missing = [k for k in REQUIRED_KEYS if k not in cfg]
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(missing)}")
    return GameParams(**{k: cfg[k] for k in GameParams.__match_args__ if k in cfg})
