"""The sweep solvers and their log grid, in numpy.

Every elementwise kernel (W, psi, chi, both best responses, the capacity and
utilities, the leader's utility and chi's larger zero) is one function of the
core module that owns it, and takes floats or arrays alike; the five that
price the jammer take its weights ``c_t`` in place of ``p.c_t``.  A sweep
solver gives the scalar solver's answer for every weight of a column in one
pass; what is written here alone is their regime masks, the approximation's
refusal and the log grid.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .best_response import _c_t_tilde, _delta_squared, _ratio, best_response_target, chi
from .errors import ApproxUndefined
from .lambertw import BRANCH_POINT, WBranch, lambert_w
from .model import GameParams, _check_strategy, _eta, utilities_xy
from .roots import larger_zero
from .stackelberg import ImprovementReport, _approx_x

__all__ = [
    "EquilibriumColumns", "log_grid", "nash_sweep", "stackelberg_sweep", "stackelberg_approx_sweep",
    "improvement_sweep",
]


def _first(c_t: np.ndarray, refused) -> float:
    """The first weight of the column c_t where ``refused`` holds."""
    return float(c_t.flat[np.argmax(refused)])


def log_grid(a: float, b: float, n: int) -> np.ndarray:
    """n points from a to b with a constant ratio between neighbours; the last is b exactly.

    Each point is the Python float ``a * ratio**k``: numpy's vectorised power
    differs from it in the last bit at some k.
    """
    ratio = (b / a) ** (1.0 / (n - 1))
    return np.fromiter((a * ratio**k if k < n - 1 else b for k in range(n)), float, n)


class EquilibriumColumns(NamedTuple):
    """Equilibria over an array of jammer weights, one array per quantity."""

    x: np.ndarray
    y: np.ndarray
    u_t: np.ndarray
    u_j: np.ndarray


def nash_sweep(p: GameParams, c_t) -> EquilibriumColumns:
    """nash_closed_form(replace(p, c_t=c)) for every weight c in the array c_t.

    As there, 8/(eta*delta^2) is formed only for the weights below c_t_tilde.
    """
    c_t = np.asarray(c_t, dtype=float)
    inner = c_t < _c_t_tilde(p)
    half = np.zeros(c_t.shape)
    with np.errstate(over="ignore"):  # an overflowing ratio is refused by _ratio
        ratio = _ratio("8/(eta*delta^2)", 8.0, _eta(p, c_t[inner], np) * _delta_squared(p), np)
    half[inner] = 0.5 * lambert_w(ratio, WBranch.PRINCIPAL)
    x_star = p.delta * np.exp(half)
    y_star = 0.5 * p.delta * (half - 1.0) * np.exp(half) - p.t_aj
    interior = inner & (y_star > 0.0)
    x = np.where(interior, x_star, best_response_target(p, 0.0))
    y = np.where(interior, y_star, 0.0)
    return EquilibriumColumns(x, y, *utilities_xy(p, x, y, c_t))


def stackelberg_sweep(p: GameParams, c_t) -> np.ndarray:
    """The leader's x of stackelberg_exact(replace(p, c_t=c)) for each weight c in c_t."""
    c_t = np.asarray(c_t, dtype=float)
    x0 = best_response_target(p, 0.0)
    jammed = chi(p, x0, c_t) > 0.0
    x_se = np.full(c_t.shape, x0)
    x_se[jammed] = larger_zero(p, x0, c_t[jammed])
    return x_se


def stackelberg_approx_sweep(p: GameParams, c_t) -> np.ndarray:
    """The x of stackelberg_approx(replace(p, c_t=c)) for each weight c in c_t.

    Raises ApproxUndefined if the approximation is undefined for any of them,
    and InvalidStrategy, as stackelberg_approx does, if any x is below 2*delta.
    """
    c_t = np.asarray(c_t, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing product falls below -1/e and is refused
        arg = -_eta(p, c_t, np) * _delta_squared(p) / 2.0
    if np.any(arg < BRANCH_POINT):
        raise ApproxUndefined(
            f"approximation needs eta*delta^2 <= 2/e, undefined from c_t = {_first(c_t, arg < BRANCH_POINT):g}"
        )
    x = _approx_x(p, arg, np)
    _check_strategy(p, x, 0.0, np, lambda refused: f", not met from c_t = {_first(c_t, refused):g}")
    return x


def improvement_sweep(p: GameParams, c_t) -> ImprovementReport:
    """improvement_report(replace(p, c_t=c)) for every weight c in c_t, as arrays."""
    c_t = np.asarray(c_t, dtype=float)
    ne = nash_sweep(p, c_t)
    x_se = stackelberg_sweep(p, c_t)
    u_t_se, u_j_se = utilities_xy(p, x_se, 0.0, c_t)
    return ImprovementReport(
        u_t_ne=ne.u_t,
        u_t_se=u_t_se,
        u_j_ne=ne.u_j,
        u_j_se=u_j_se,
        improved=u_t_se > ne.u_t + 1e-12,
    )
