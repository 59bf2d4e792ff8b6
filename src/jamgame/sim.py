"""Cycle-level discrete-event simulation of the jamming interaction.

Each cycle: the target transmits a packet, the jammer reacts after t_aj and
jams for an exponential draw with mean y, then the target stays silent for a
uniform draw on [0, x].  Every ``update_period_cycles`` cycles both players
estimate the opponent's strategy from the window just observed and play the
best response to the estimate (simultaneously, mirroring the analytic
best-response dynamics).

All randomness comes from one numpy PCG64 generator seeded from the config,
so a trace is bit-reproducible from (config, seed).  Draw order per run:
initial strategies (if not pinned), then per cycle jam duration followed by
silence duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .best_response import best_response_jammer, best_response_target
from .errors import EmptyWindow, InvalidParams
from .model import GameParams, UtilityPair
from .nash import nash_closed_form, s_prime_bounds

__all__ = [
    "EstimatorRole",
    "SimConfig",
    "CycleEvent",
    "StrategyUpdate",
    "SimTrace",
    "RNG_ALGORITHM",
    "estimate_opponent",
    "run_sim",
    "updates_to_equilibrium",
]

RNG_ALGORITHM = "numpy-PCG64"


class EstimatorRole(Enum):
    TARGET_ESTIMATES_Y = "target_estimates_y"
    JAMMER_ESTIMATES_X = "jammer_estimates_x"


@dataclass(frozen=True)
class SimConfig:
    params: GameParams
    total_cycles: int
    update_period_cycles: int = 10
    rng_seed: int = 0
    # Pin the initial strategies instead of drawing them from the seed.
    x0: Optional[float] = None
    y0: Optional[float] = None

    def __post_init__(self):
        if self.update_period_cycles < 1:
            raise InvalidParams("update_period_cycles must be >= 1")
        if self.total_cycles < self.update_period_cycles:
            raise InvalidParams("total_cycles must be >= update_period_cycles")


@dataclass(frozen=True)
class CycleEvent:
    index: int
    silence_drawn: float
    jam_drawn: float
    bits_conveyed: float
    jam_energy: float


@dataclass(frozen=True)
class StrategyUpdate:
    update_index: int
    x: float
    y: float
    x_estimated_by_jammer: float
    y_estimated_by_target: float


@dataclass(frozen=True)
class SimTrace:
    events: list[CycleEvent]
    strategy_history: list[StrategyUpdate]
    realized_capacity: float
    realized_utilities: UtilityPair
    seed: int
    rng_algorithm: str = RNG_ALGORITHM
    config: Optional[SimConfig] = field(repr=False, default=None)


def estimate_opponent(observations: list[CycleEvent], role: EstimatorRole) -> float:
    """Maximum-likelihood estimate of the opponent's strategy from one window.

    The target sees exponential jam durations, whose mean is estimated by the
    sample mean.  The jammer sees uniform silences on [0, x] and uses the
    bias-corrected maximum (n+1)/n * max.
    """
    if not observations:
        raise EmptyWindow("no observations in the estimation window")
    n = len(observations)
    if role is EstimatorRole.TARGET_ESTIMATES_Y:
        return sum(ev.jam_drawn for ev in observations) / n
    if role is EstimatorRole.JAMMER_ESTIMATES_X:
        return (n + 1) / n * max(ev.silence_drawn for ev in observations)
    raise ValueError(f"unknown role {role!r}")


def _draw_initial(p: GameParams, rng: np.random.Generator) -> tuple[float, float]:
    box = s_prime_bounds(p)
    x0 = rng.uniform(2.0 * p.delta, 4.0 * box.x_m)
    y0 = rng.uniform(0.0, 4.0 * max(box.y_M, p.t_aj))
    return x0, y0


def run_sim(cfg: SimConfig, perfect_observation: bool = False) -> SimTrace:
    """Run the simulation and return the full event and strategy trace.

    ``perfect_observation`` is a testing hook that replaces the estimates by
    the opponent's true current strategy, making the strategy history follow
    the analytic best-response dynamics exactly.
    """
    p = cfg.params
    rng = np.random.default_rng(cfg.rng_seed)

    x = cfg.x0 if cfg.x0 is not None else None
    y = cfg.y0 if cfg.y0 is not None else None
    if x is None or y is None:
        dx, dy = _draw_initial(p, rng)
        x = dx if x is None else x
        y = dy if y is None else y
    x = max(float(x), 2.0 * p.delta)
    y = max(float(y), 0.0)

    events: list[CycleEvent] = []
    history = [StrategyUpdate(0, x, y, math.nan, math.nan)]
    window_start = 0
    update_index = 0

    for k in range(cfg.total_cycles):
        jam = float(rng.exponential(y)) if y > 0.0 else 0.0
        silence = float(rng.uniform(0.0, x))
        events.append(
            CycleEvent(
                index=k,
                silence_drawn=silence,
                jam_drawn=jam,
                bits_conveyed=math.log2(x / p.delta),
                jam_energy=jam * p.p_j,
            )
        )
        if (k + 1) % cfg.update_period_cycles == 0:
            window = events[window_start : k + 1]
            window_start = k + 1
            if perfect_observation:
                x_est, y_est = x, y
            else:
                y_est = estimate_opponent(window, EstimatorRole.TARGET_ESTIMATES_Y)
                x_est = estimate_opponent(window, EstimatorRole.JAMMER_ESTIMATES_X)
                # Estimates are clipped into the admissible strategy space.
                x_est = max(x_est, 2.0 * p.delta)
            x, y = (
                float(best_response_target(p, y_est)),
                float(best_response_jammer(p, x_est)),
            )
            update_index += 1
            history.append(StrategyUpdate(update_index, x, y, x_est, y_est))

    total_bits = sum(ev.bits_conveyed for ev in events)
    total_time = sum(p.t_aj + ev.jam_drawn + ev.silence_drawn for ev in events)
    realized_capacity = total_bits / total_time
    mean_jam_energy = sum(ev.jam_energy for ev in events) / len(events)
    realized = UtilityPair(
        u_t=realized_capacity - p.c_t_star * p.t_p * p.p_t,
        u_j=-realized_capacity - p.c_t * mean_jam_energy,
    )
    return SimTrace(
        events=events,
        strategy_history=history,
        realized_capacity=realized_capacity,
        realized_utilities=realized,
        seed=cfg.rng_seed,
        config=cfg,
    )


def updates_to_equilibrium(trace: SimTrace, p: GameParams, rel_tol: float = 1e-6) -> int:
    """First update index from which the strategy history sits at the NE.

    The profile must be within rel_tol (relative on x, relative to the
    t_aj + y* scale on y) of the closed-form equilibrium and stay there for
    every later update.  Returns -1 if that never happens.
    """
    ne = nash_closed_form(p).profile
    y_scale = p.t_aj + ne.y

    def at_ne(h: StrategyUpdate) -> bool:
        return abs(h.x - ne.x) <= rel_tol * ne.x and abs(h.y - ne.y) <= rel_tol * y_scale

    hit = -1
    for h in trace.strategy_history:
        if at_ne(h):
            if hit < 0:
                hit = h.update_index
        else:
            hit = -1
    return hit
