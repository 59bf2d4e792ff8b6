"""The body of ``jamgame sweep``: ``write_sweep`` solves one figure on a log grid and writes its table.

``FIGURES[id]`` is ``(header, solver)``.  ``solver(p, cfg)`` does once what
does not depend on the grid (the efficiency figure reads its prior and
solves xi_opt) and returns ``solve(v)``: the figure's columns after the
first on a slice v of the grid, each elementwise in v.  ``log_grid`` is the
grid of the sweep; ``belief`` imports it for ``xi_opt``.  No other command
imports this module.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .best_response import best_response_jammer, best_response_target
from .config import game_params_from_config, read_config
from .errors import ConfigError
from .model import GameParams, utilities_xy
from .nash import nash_xy
from .stackelberg import improvement_report, leader_utility, stackelberg_approx_x, stackelberg_x

__all__ = ["FIGURES", "MAX_SWEEP_POINTS", "log_grid", "write_sweep"]

# A sweep holds its grid and the per-slice arrays of every figure column, 8 B a
# point each (1 B for ``improved``), plus one slice of work: 17-74 B a point
# under tracemalloc, and ~44 MB peak RSS for neX at this limit.
MAX_SWEEP_POINTS = 10**6


def log_grid(a: float, b: float, n: int) -> np.ndarray:
    """n points from a to b with a constant ratio between neighbours; the last is b exactly.

    Each point is the Python float ``a * ratio**k``: numpy's vectorised power
    differs from it in the last bit at some k.
    """
    ratio = (b / a) ** (1.0 / (n - 1))
    return np.fromiter((a * ratio**k if k < n - 1 else b for k in range(n)), float, n)


def _finite(cfg: dict, key: str, default: float) -> float:
    v = cfg.get(key, default)
    if not math.isfinite(v):
        raise ConfigError(f"{key} must be finite, got {v!r}")
    return v


def _payoffs(p: GameParams, cfg: dict):
    def solve(v):
        rep = improvement_report(p, v)
        return [rep.u_t_ne, rep.u_j_ne, rep.u_t_se, rep.u_j_se, rep.improved]
    return solve


def _approx(p: GameParams, cfg: dict):
    def solve(v):
        x_se = stackelberg_x(p, v)
        x_ap = stackelberg_approx_x(p, v)
        u_se = utilities_xy(p, x_se, 0.0, v)[0]
        u_ap = leader_utility(p, x_ap, v)
        return [x_se, x_ap, u_se, u_ap, u_ap / u_se]
    return solve


def _efficiency(p: GameParams, cfg: dict):
    from .belief import UniformPrior, efficiency, xi_opt

    prior = UniformPrior(xi_min=_finite(cfg, "xi_min", 1e5), xi_max=_finite(cfg, "xi_max", 1e9))
    opt = xi_opt(p, prior)
    xi_mean = 0.5 * (prior.xi_min + prior.xi_max)
    assumed = np.array([[opt], [xi_mean], [prior.xi_max], [prior.xi_min]])
    return lambda v: [np.full_like(v, opt), *efficiency(p, assumed, v)]


def _comparison(p: GameParams, cfg: dict):
    x_naive = best_response_target(p, 0.0)

    def solve(v):
        rep = improvement_report(p, v)
        y_naive = best_response_jammer(p, x_naive, v)
        # Case A: target ignores the jammer (assumes y ~ 0) and gets jammed.
        u_t_a, u_j_a = utilities_xy(p, x_naive, y_naive, v)
        # Case B: jammer assumes a naive target; the target best-responds.
        u_t_b, u_j_b = utilities_xy(p, best_response_target(p, y_naive), y_naive, v)
        return [rep.u_t_ne, rep.u_j_ne, rep.u_t_se, rep.u_j_se, u_t_a, u_j_a, u_t_b, u_j_b]
    return solve


FIGURES = {
    "brX": (["y", "x_best"], lambda p, cfg: lambda v: [best_response_target(p, v)]),
    "brY": (["x", "y_best"], lambda p, cfg: lambda v: [best_response_jammer(p, v)]),
    "neX": (["c_t", "x_ne"], lambda p, cfg: lambda v: [nash_xy(p, v)[0]]),
    "neY": (["c_t", "y_ne"], lambda p, cfg: lambda v: [nash_xy(p, v)[1]]),
    "seX": (["c_t", "x_ne", "x_se"], lambda p, cfg: lambda v: [nash_xy(p, v)[0], stackelberg_x(p, v)]),
    # The follower never jams a committed leader: y_se is 0 by construction.
    "seY": (["c_t", "y_ne", "y_se"], lambda p, cfg: lambda v: [nash_xy(p, v)[1], np.zeros_like(v)]),
    "payoffs": (["c_t", "u_t_ne", "u_j_ne", "u_t_se", "u_j_se", "improved"], _payoffs),
    "approx": (["c_t", "x_se", "x_se_approx", "u_t_se", "u_t_se_approx", "accuracy_ratio"], _approx),
    "efficiency": (["c_t", "xi_opt", "e_xi_opt", "e_xi_mean", "e_xi_max", "e_xi_min"], _efficiency),
    "comparison": (["c_t", "u_t_ne", "u_j_ne", "u_t_se", "u_j_se",
                    "u_t_case_a", "u_j_case_a", "u_t_case_b", "u_j_case_b"], _comparison),
}


def write_sweep(config, figure: str, log_range, out) -> None:
    """``jamgame sweep``: solve the config file's game on the log grid ``(A, B, N)``, write it to ``out`` or stdout.

    Every slice is solved before ``out`` is opened or a row written, so a refused weight leaves none.
    """
    from .cli import _slices, _write_table

    if figure not in FIGURES:
        raise ConfigError(f"unknown figure id {figure!r}; choose from {sorted(FIGURES)}")
    a, b, n = log_range
    if not (0 < a < b and math.isfinite(b / a)):
        raise ConfigError(f"--log-range needs 0 < A < B with B/A finite, got {a!r} {b!r}")
    if not (math.isfinite(n) and 2 <= n <= MAX_SWEEP_POINTS and n == int(n)):
        raise ConfigError(f"--log-range needs an integer 2 <= N <= {MAX_SWEEP_POINTS}, got {n!r}")
    cfg = read_config(config)
    p = game_params_from_config(cfg)
    v = log_grid(a, b, int(n))
    header, solver = FIGURES[figure]
    # Weights near the ends of the double range overflow or divide by zero on
    # the way into W; the inf that results is refused there as a DomainError.
    with np.errstate(over="ignore", divide="ignore"):
        solve = solver(p, cfg)
        blocks = [[v[start:stop], *solve(v[start:stop])] for start, stop in _slices(len(v))]
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            _write_table(fh, header, blocks)
    else:
        _write_table(sys.stdout, header, blocks)
