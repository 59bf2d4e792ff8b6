"""Data model of the jamming game: parameters, strategies, capacity, utilities.

The target node transmits over a timing channel: after each jammed packet it
stays silent for a uniform draw on [0, x] and the receiver decodes the silence
duration with clock precision delta.  A reactive jammer detects a packet after
t_aj seconds and jams for an exponential draw with mean y.  One packet plus
jamming plus silence is a *cycle*.

All math is done in natural units (seconds, watts).  The single log-base
conversion lives in ``GameParams.eta`` = c_t * p_j * ln 2, so capacity can be
written with log2 while the best-response algebra uses natural logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidParams, InvalidStrategy

__all__ = [
    "GameParams",
    "StrategyProfile",
    "UtilityPair",
    "capacity_xy",
    "utilities_xy",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class GameParams:
    """Physical and economic constants of one game instance.

    t_aj     -- jammer reaction delay [s]
    delta    -- clock precision of the timing channel [s]
    p_t      -- target transmit power [W]
    p_j      -- jammer transmit power [W]
    t_p      -- packet duration [s]
    c_t      -- jammer energy-cost weight [bit/(s*J)]
    c_t_star -- target energy-cost weight [bit/(s*J)]
    """

    t_aj: float
    delta: float
    p_t: float
    p_j: float
    t_p: float
    c_t: float
    c_t_star: float = 0.0

    def __post_init__(self):
        for name in ("t_aj", "delta", "p_t", "p_j", "t_p", "c_t"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise InvalidParams(f"{name} must be a positive finite number, got {v!r}")
        v = self.c_t_star
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
            raise InvalidParams(f"c_t_star must be >= 0, got {v!r}")

    @property
    def eta(self) -> float:
        """c_t * p_j * ln 2, the natural-log form of the jammer's cost weight."""
        return self.c_t * self.p_j * _LN2

    @property
    def x_min(self) -> float:
        """Smallest admissible silence bound: at least one bit per cycle."""
        return 2.0 * self.delta


@dataclass(frozen=True)
class StrategyProfile:
    """A point (x, y): target's max silence duration, jammer's mean jam duration."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and self.x > 0):
            raise InvalidStrategy(f"x must be positive and finite, got {self.x!r}")
        if not (math.isfinite(self.y) and self.y >= 0):
            raise InvalidStrategy(f"y must be >= 0 and finite, got {self.y!r}")


class UtilityPair(NamedTuple):
    u_t: float
    u_j: float


def _check_strategy(p: GameParams, x: float, y: float) -> None:
    if x < p.x_min:
        raise InvalidStrategy(f"x must be >= 2*delta = {p.x_min:g}")
    if y < 0:
        raise InvalidStrategy("y must be >= 0")


def capacity_xy(p: GameParams, x: float, y: float) -> float:
    """Timing-channel capacity log2(x/delta) / (t_aj + y + x/2) [bit/s].

    The denominator is the expected cycle length: uniform silence has mean x/2.
    """
    _check_strategy(p, x, y)
    return math.log2(x / p.delta) / (p.t_aj + y + x / 2.0)


def utilities_xy(p: GameParams, x: float, y: float) -> UtilityPair:
    """(u_t, u_j) at (x, y): capacity minus each side's energy cost.

    The jammer's cost charges the commanded mean y; realized-energy accounting
    belongs to the simulator, not to the analytic game.
    """
    c = capacity_xy(p, x, y)
    u_t = c - p.c_t_star * p.t_p * p.p_t
    u_j = -c - p.c_t * y * p.p_j
    return UtilityPair(u_t, u_j)
