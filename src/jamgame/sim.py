"""Cycle-level discrete-event simulation of the jamming interaction.

Each cycle: the target transmits a packet, the jammer reacts after t_aj and
jams for an exponential draw with mean y, then the target stays silent for a
uniform draw on [0, x].  Every ``update_period_cycles`` cycles both players
estimate the opponent's strategy from the window just observed (the target
by the mean of the jam durations, the jammer by the bias-corrected maximum
(n+1)/n * max of the silences) and play the best response to the estimate
simultaneously, mirroring the analytic best-response dynamics.

The run is computed as columns; the only Python loop is one pass per window.
The trace holds the strategy history as four float64 columns (row k is
update k, row 0 the start) and the per-cycle jam and silence columns.
All randomness comes from one numpy PCG64 generator seeded from the config,
so a trace is bit-reproducible from (config, seed).  Draw order per run, as
tagged by ``RNG_ALGORITHM``: the initial x then y (uniform) unless both are
pinned, then ``standard_exponential(total_cycles)``, then
``random(total_cycles)``.  A cycle's jam is its exponential draw times the y
in force and its silence its uniform draw times the x in force.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

import numpy as np

from .best_response import best_response_jammer, best_response_target
from .config import dump_config, game_params_from_config, read_config
from .errors import ConfigError, DomainError, InvalidParams
from .model import GameParams, UtilityPair, _finite, _log_ratio, _Record
from .nash import nash_closed_form, s_prime_bounds

__all__ = [
    "SimConfig",
    "SimTrace",
    "RNG_ALGORITHM",
    "strategy_columns",
    "event_columns",
    "run_sim",
    "updates_to_equilibrium",
    "write_trace",
]

RNG_ALGORITHM = "numpy-PCG64/columns-v2"

# Measured with tracemalloc, a run peaks at ~16 B per cycle (the two float64
# draw columns) plus ~100 B per update window (its four strategy columns and
# the window lists) and keeps 16 B per cycle plus 32 B per update: 1e7 cycles
# peak at ~0.3 GB at period 10 and ~1.1 GB at period 1.
MAX_TOTAL_CYCLES = 10**7

_AT_NE_REL_TOL = 1e-6  # updates_to_equilibrium

STRATEGY_COLUMNS = ("update", "cycle", "x", "y", "x_est_by_jammer", "y_est_by_target")
EVENT_COLUMNS = ("cycle", "silence_s", "jam_s", "bits", "jam_energy_j")


class SimConfig(_Record):
    """One run of a game; x0 and y0 pin the initial strategies instead of drawing them from the seed."""

    def __init__(
        self, params: GameParams, total_cycles: int, update_period_cycles: int = 10, rng_seed: int = 0,
        x0: Optional[float] = None, y0: Optional[float] = None,
    ):
        self._set(params, total_cycles, update_period_cycles, rng_seed, x0, y0)
        if update_period_cycles < 1:
            raise InvalidParams("update_period_cycles must be >= 1")
        if total_cycles < update_period_cycles:
            raise InvalidParams("total_cycles must be >= update_period_cycles")
        if total_cycles > MAX_TOTAL_CYCLES:
            raise InvalidParams(f"total_cycles must be <= {MAX_TOTAL_CYCLES}")
        if rng_seed < 0:
            raise InvalidParams("rng_seed must be >= 0")


class SimTrace(_Record):
    """The strategy history as columns and the per-cycle jam and silence durations.

    Row k of ``x``, ``y``, ``x_est_by_jammer`` and ``y_est_by_target`` is update
    k, in force from cycle k * update_period_cycles; row 0 is the start, with
    NaN estimates.  The realized capacity and utilities are computed when read.
    """

    __eq__, __hash__ = object.__eq__, object.__hash__  # a trace equals only itself: its columns compare elementwise

    def __init__(
        self, x: np.ndarray, y: np.ndarray, x_est_by_jammer: np.ndarray, y_est_by_target: np.ndarray,
        jam: np.ndarray, silence: np.ndarray, config: SimConfig,
    ):
        self._set(x, y, x_est_by_jammer, y_est_by_target, jam, silence, config)

    @property
    def realized_capacity(self) -> float:
        """The bits of the run over its total time [bit/s]."""
        p, n, period = self.config.params, self.config.total_cycles, self.config.update_period_cycles
        cycles_in_force = [period] * (n // period) + [n % period]
        total_bits = math.fsum(c * b for c, b in zip(cycles_in_force, _bits(self.x, p)))
        return total_bits / (n * p.t_aj + float(self.jam.sum()) + float(self.silence.sum()))

    @property
    def realized_utilities(self) -> UtilityPair:
        """(u_t, u_j): realized capacity minus each side's energy cost, the jammer's for its realized jams.

        Either is refused past the largest double.
        """
        p, c = self.config.params, self.realized_capacity
        return UtilityPair(
            u_t=_finite("u_t", c - p.transmit_cost),
            u_j=_finite("u_j", -c - p.c_t * float(self.jam.sum()) * p.p_j / self.config.total_cycles),
        )


def _bits(x: np.ndarray, p: GameParams):
    # log2(x/delta), lazily, finite where x/delta overflows; np.log2 differs
    # from math.log2 in the last bit for some doubles.
    return (_log_ratio(p, v, log="log2") for v in x.tolist())


def run_sim(cfg: SimConfig, perfect_observation: bool = False) -> SimTrace:
    """Run the simulation and return the strategy and event columns.

    ``perfect_observation`` is a testing hook that replaces the estimates by
    the opponent's true current strategy, making the strategy history follow
    the analytic best-response dynamics exactly.  A run whose per-cycle jam
    energy (jam * p_j) leaves the double range is refused as a DomainError;
    the realized utilities are refused only when read.
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

    xs, ys, x_ests, y_ests = np.full((4, windows + 1), math.nan)
    xs[0], ys[0] = x, y
    for k in range(windows):
        if perfect_observation:
            x_est, y_est = x, y
        else:
            y_est = y * mean_e[k]
            # Estimates are clipped into the admissible strategy space.
            x_est = max((period + 1) / period * (x * max_u[k]), 2.0 * p.delta)
        x, y = best_response_target(p, y_est), best_response_jammer(p, x_est)
        xs[k + 1], ys[k + 1], x_ests[k + 1], y_ests[k + 1] = x, y, x_est, y_est
    # The window lists take ~64 B per window; free them before the scaling.
    del mean_e, max_u

    jam *= np.repeat(ys, period)[:n]
    silence *= np.repeat(xs, period)[:n]
    if not math.isfinite(float(jam.max()) * p.p_j):
        raise DomainError("jam_energy_j = jam_s * p_j leaves the double range")
    return SimTrace(xs, ys, x_ests, y_ests, jam, silence, cfg)


def strategy_columns(trace: SimTrace, start: int, stop: int) -> tuple[np.ndarray, ...]:
    """The strategy table's columns (``STRATEGY_COLUMNS``) for updates [start, stop)."""
    update = np.arange(start, stop)
    history = (trace.x, trace.y, trace.x_est_by_jammer, trace.y_est_by_target)
    return (update, update * trace.config.update_period_cycles, *(c[start:stop] for c in history))


def event_columns(trace: SimTrace, start: int, stop: int) -> tuple:
    """The event table's columns (``EVENT_COLUMNS``) for cycles [start, stop).

    ``bits`` is log2(x/delta) and ``jam_energy_j`` is jam * p_j, both for the
    strategy in force during the cycle.  ``bits`` is a list of the values'
    repr text, formatted once per update window; the other columns are arrays.
    """
    cfg = trace.config
    p, period = cfg.params, cfg.update_period_cycles
    first = start // period
    bits = []
    for k, b in enumerate(_bits(trace.x[first : (stop - 1) // period + 1], p), first):
        bits += [repr(b)] * (min(stop, (k + 1) * period) - max(start, k * period))
    jam = trace.jam[start:stop]
    return np.arange(start, stop), trace.silence[start:stop], jam, bits, jam * p.p_j


def updates_to_equilibrium(trace: SimTrace) -> int:
    """First update index from which the strategy history sits at the NE.

    The profile must be within 1e-6 (relative on x, relative to the
    t_aj + y* scale on y) of the closed-form equilibrium of the trace's own
    parameters and stay there for every later update.  Returns -1 if that
    never happens.
    """
    p = trace.config.params
    ne = nash_closed_form(p).profile
    at_ne = (np.abs(trace.x - ne.x) <= _AT_NE_REL_TOL * ne.x) & (
        np.abs(trace.y - ne.y) <= _AT_NE_REL_TOL * (p.t_aj + ne.y)
    )
    away = np.flatnonzero(~at_ne)
    last_away = int(away[-1]) if away.size else -1
    return -1 if last_away == len(at_ne) - 1 else last_away + 1


def _count(cfg: dict, key: str, default: int) -> int:
    v = cfg.get(key, default)
    if not (math.isfinite(v) and v >= 1 and v == int(v)):
        raise ConfigError(f"{key} must be an integer >= 1, got {v!r}")
    return int(v)


def write_trace(config, out, seed: Optional[int] = None) -> None:
    """``jamgame simulate``: run the config file's game, write its trace to ``out`` and its final row to stdout.

    The config's ``total_cycles`` (default 200) and ``update_period_cycles``
    (default 10) set the run; a seed of None draws one.  A sim setting that
    breaks a rule of SimConfig is a ConfigError.
    """
    import secrets

    from .cli import _slices, _write_table

    cfg = read_config(config)
    p = game_params_from_config(cfg)
    seed = seed if seed is not None else secrets.randbits(63)
    try:
        sim_cfg = SimConfig(
            params=p,
            total_cycles=_count(cfg, "total_cycles", 200),
            update_period_cycles=_count(cfg, "update_period_cycles", 10),
            rng_seed=seed,
        )
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from exc
    trace = run_sim(sim_cfg)
    updates = updates_to_equilibrium(trace)  # may refuse the game: before ``out`` is opened

    period, n = sim_cfg.update_period_cycles, sim_cfg.total_cycles
    head = [
        "# jamgame simulation trace",
        f"# seed={seed}",
        f"# rng={RNG_ALGORITHM}",
        f"# update_period_cycles={period}",
        f"# total_cycles={n}",
        f"# params={dump_config(cfg).strip().replace(chr(10), '; ')}",
    ]
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in head)
        strategy = (strategy_columns(trace, *bounds) for bounds in _slices(len(trace.x)))
        events = (event_columns(trace, *bounds) for bounds in _slices(n))
        _write_table(fh, STRATEGY_COLUMNS, strategy)
        fh.write("\n")
        _write_table(fh, EVENT_COLUMNS, events)

    final = [trace.x[-1:], trace.y[-1:], [updates]]
    _write_table(sys.stdout, ["final_x", "final_y", "updates_to_ne"], [final])
