"""Cycle-level discrete-event simulation of the jamming interaction.

Each cycle: the target transmits a packet, the jammer reacts after t_aj and
jams for an exponential draw with mean y, then the target stays silent for a
uniform draw on [0, x].  Every ``update_period_cycles`` cycles both players
estimate the opponent's strategy from the window just observed (the target
by the mean of the jam durations, the jammer by the bias-corrected maximum
(n+1)/n * max of the silences) and play the best response to the estimate
simultaneously, mirroring the analytic best-response dynamics.

The run is computed as columns; the only Python loop is one pass per window.
All randomness comes from one numpy PCG64 generator seeded from the config,
so a trace is bit-reproducible from (config, seed).  Draw order per run, as
tagged by ``RNG_ALGORITHM``: the initial x then y (uniform) unless both are
pinned, then ``standard_exponential(total_cycles)``, then
``random(total_cycles)``.  A cycle's jam is its exponential draw times the y
in force and its silence its uniform draw times the x in force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .best_response import best_response_jammer, best_response_target
from .errors import InvalidParams
from .model import GameParams, UtilityPair
from .nash import nash_closed_form, s_prime_bounds

__all__ = [
    "SimConfig",
    "StrategyUpdate",
    "SimTrace",
    "RNG_ALGORITHM",
    "event_columns",
    "run_sim",
    "updates_to_equilibrium",
]

RNG_ALGORITHM = "numpy-PCG64/columns-v2"

# Measured with tracemalloc, a run holds ~32 B per cycle (the two float64
# columns and temporaries) and ~300 B per update window (its StrategyUpdate
# and estimates): 1e7 cycles take ~0.6 GB at period 10, ~3.3 GB at period 1.
MAX_TOTAL_CYCLES = 10**7

EVENT_COLUMNS = ("cycle", "silence_s", "jam_s", "bits", "jam_energy_j")


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
        if self.total_cycles > MAX_TOTAL_CYCLES:
            raise InvalidParams(f"total_cycles must be <= {MAX_TOTAL_CYCLES}")


@dataclass(frozen=True, slots=True)
class StrategyUpdate:
    update_index: int
    x: float
    y: float
    x_estimated_by_jammer: float
    y_estimated_by_target: float


@dataclass(frozen=True, eq=False)
class SimTrace:
    """The strategy history and the per-cycle jam and silence durations."""

    jam: np.ndarray
    silence: np.ndarray
    strategy_history: list[StrategyUpdate]
    realized_capacity: float
    realized_utilities: UtilityPair
    seed: int
    rng_algorithm: str = RNG_ALGORITHM
    config: Optional[SimConfig] = field(repr=False, default=None)


def run_sim(cfg: SimConfig, perfect_observation: bool = False) -> SimTrace:
    """Run the simulation and return the strategy history and event columns.

    ``perfect_observation`` is a testing hook that replaces the estimates by
    the opponent's true current strategy, making the strategy history follow
    the analytic best-response dynamics exactly.
    """
    p = cfg.params
    n, period = cfg.total_cycles, cfg.update_period_cycles
    rng = np.random.default_rng(cfg.rng_seed)

    x, y = cfg.x0, cfg.y0
    if x is None or y is None:
        box = s_prime_bounds(p)
        dx = rng.uniform(2.0 * p.delta, 4.0 * box.x_m)
        dy = rng.uniform(0.0, 4.0 * max(box.y_M, p.t_aj))
        x = dx if x is None else x
        y = dy if y is None else y
    x = max(float(x), 2.0 * p.delta)
    y = max(float(y), 0.0)

    jam = rng.standard_exponential(n)
    silence = rng.random(n)
    windows = n // period
    mean_e = jam[: windows * period].reshape(windows, period).mean(axis=1).tolist()
    max_u = silence[: windows * period].reshape(windows, period).max(axis=1).tolist()

    history = [StrategyUpdate(0, x, y, math.nan, math.nan)]
    for k in range(windows):
        if perfect_observation:
            x_est, y_est = x, y
        else:
            y_est = y * mean_e[k]
            # Estimates are clipped into the admissible strategy space.
            x_est = max((period + 1) / period * (x * max_u[k]), 2.0 * p.delta)
        x, y = float(best_response_target(p, y_est)), float(best_response_jammer(p, x_est))
        history.append(StrategyUpdate(k + 1, x, y, x_est, y_est))

    xs = [h.x for h in history]
    jam *= np.repeat([h.y for h in history], period)[:n]
    silence *= np.repeat(xs, period)[:n]

    cycles_in_force = [period] * windows + [n - windows * period]
    total_bits = math.fsum(c * math.log2(xk / p.delta) for c, xk in zip(cycles_in_force, xs))
    jam_total = float(jam.sum())
    realized_capacity = total_bits / (n * p.t_aj + jam_total + float(silence.sum()))
    realized = UtilityPair(
        u_t=realized_capacity - p.c_t_star * p.t_p * p.p_t,
        u_j=-realized_capacity - p.c_t * jam_total * p.p_j / n,
    )
    return SimTrace(
        jam=jam,
        silence=silence,
        strategy_history=history,
        realized_capacity=realized_capacity,
        realized_utilities=realized,
        seed=cfg.rng_seed,
        config=cfg,
    )


def event_columns(trace: SimTrace, start: int, stop: int) -> tuple[np.ndarray, ...]:
    """The event table's columns (``EVENT_COLUMNS``) for cycles [start, stop).

    ``bits`` is log2(x/delta) and ``jam_energy_j`` is jam * p_j, both for the
    strategy in force during the cycle.
    """
    cfg = trace.config
    p, period = cfg.params, cfg.update_period_cycles
    first = start // period
    in_force = trace.strategy_history[first : (stop - 1) // period + 1]
    bits = np.array([math.log2(h.x / p.delta) for h in in_force])
    cycle = np.arange(start, stop)
    jam = trace.jam[start:stop]
    return cycle, trace.silence[start:stop], jam, bits[cycle // period - first], jam * p.p_j


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
