"""Array forms of the kernels, the sweep solvers and their log grid, in numpy.

Each elementwise kernel, W and the Newton loop of ``roots`` included, has one
body, in the pure-``math`` core module that owns it, written over a namespace
argument ``xp`` as the Python array API standard writes array code.  The
scalar function passes ``model._floats``, math's functions under numpy's
names; the function of the same name here passes numpy.  It only turns its
arguments into float arrays, takes the jammer weight ``c_t`` explicitly (one
weight per element, or one that broadcasts) and turns numpy's overflow
warnings off.  A sweep solver gives the scalar solver's answer for every
weight of a column in one pass; what is written here alone is their regime
masks, the approximation's refusal and the log grid.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import best_response as br, lambertw, model, roots, stackelberg as st
from .errors import ApproxUndefined
from .lambertw import BRANCH_POINT, WBranch
from .model import GameParams
from .stackelberg import ImprovementReport

__all__ = [
    "EquilibriumColumns", "log_grid", "eta", "lambert_w", "lambert_w_prime", "capacity_xy",
    "utilities_xy", "psi", "chi", "best_response_target", "best_response_jammer", "larger_zero",
    "leader_utility", "nash_sweep", "stackelberg_sweep", "stackelberg_approx_sweep",
    "improvement_sweep",
]


def _on_arrays(body, p: GameParams, *args):
    """body(p, *args, np) on the args as float arrays, with numpy's overflow warnings off."""
    with np.errstate(over="ignore"):
        return body(p, *(np.asarray(a, dtype=float) for a in args), np)


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


def eta(p: GameParams, c_t):
    """p.eta with the weights c_t in place of p.c_t; refused, as there, below the normal doubles."""
    return _on_arrays(model._eta, p, c_t)


def lambert_w(z, branch: WBranch = WBranch.PRINCIPAL) -> np.ndarray:
    """W of every element of z, in the shape of z; errors as in lambertw."""
    return lambertw._lambert_w(np.asarray(z, dtype=float), branch, np)


def lambert_w_prime(z, branch: WBranch = WBranch.PRINCIPAL) -> np.ndarray:
    """dW/dz = W / (z * (W + 1)) of every element of z; errors as in lambertw."""
    return lambertw._lambert_w_prime(np.asarray(z, dtype=float), branch, np)


def capacity_xy(p: GameParams, x, y) -> np.ndarray:
    """log2(x/delta) / (t_aj + y + x/2) for x and y broadcast against each other."""
    return _on_arrays(model._capacity_xy, p, x, y)


def utilities_xy(p: GameParams, x, y, c_t):
    """(u_t, u_j) at (x, y), the jammer's cost priced with the weights c_t."""
    return _on_arrays(model._utilities_xy, p, x, y, c_t)


def psi(p: GameParams, y) -> np.ndarray:
    """Principal-branch W of 2*(t_aj + y) / (e * delta) for every y >= 0."""
    return _on_arrays(br._psi, p, y)


def chi(p: GameParams, x, c_t) -> np.ndarray:
    """sqrt(ln(x/delta)/eta) - t_aj - x/2 for finite x >= delta, with the weights c_t."""
    return _on_arrays(br._chi, p, x, c_t)


def best_response_target(p: GameParams, y) -> np.ndarray:
    """delta * e^(psi(y)+1) for every y; refused past the largest double."""
    return _on_arrays(br._best_response_target, p, y)


def best_response_jammer(p: GameParams, x, c_t) -> np.ndarray:
    """max(chi, 0) for every x >= 2*delta, with the weights c_t; refused past the largest double."""
    return _on_arrays(br._best_response_jammer, p, x, c_t)


def leader_utility(p: GameParams, x, c_t) -> np.ndarray:
    """stackelberg.leader_utility for every x, with the weights c_t."""
    return _on_arrays(st._leader_utility, p, x, c_t)


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
    inner = c_t < br._c_t_tilde(p)
    half = np.zeros(c_t.shape)
    with np.errstate(over="ignore"):  # an overflowing ratio is refused by _ratio
        ratio = br._ratio("8/(eta*delta^2)", 8.0, eta(p, c_t[inner]) * br._delta_squared(p), np)
    half[inner] = 0.5 * lambert_w(ratio, WBranch.PRINCIPAL)
    x_star = p.delta * np.exp(half)
    y_star = 0.5 * p.delta * (half - 1.0) * np.exp(half) - p.t_aj
    interior = inner & (y_star > 0.0)
    x = np.where(interior, x_star, br.best_response_target(p, 0.0))
    y = np.where(interior, y_star, 0.0)
    return EquilibriumColumns(x, y, *utilities_xy(p, x, y, c_t))


def larger_zero(p: GameParams, c_t, x_pos: float) -> np.ndarray:
    """roots.larger_zero for every weight, with chi > 0 at x_pos for each."""
    return _on_arrays(roots._larger_zero, p, c_t, x_pos)


def stackelberg_sweep(p: GameParams, c_t) -> np.ndarray:
    """The leader's x of stackelberg_exact(replace(p, c_t=c)) for each weight c in c_t."""
    c_t = np.asarray(c_t, dtype=float)
    x0 = br.best_response_target(p, 0.0)
    jammed = chi(p, x0, c_t) > 0.0
    x_se = np.full(c_t.shape, x0)
    x_se[jammed] = larger_zero(p, c_t[jammed], x0)
    return x_se


def stackelberg_approx_sweep(p: GameParams, c_t) -> np.ndarray:
    """The x of stackelberg_approx(replace(p, c_t=c)) for each weight c in c_t.

    Raises ApproxUndefined if the approximation is undefined for any of them,
    and InvalidStrategy, as stackelberg_approx does, if any x is below 2*delta.
    """
    c_t = np.asarray(c_t, dtype=float)
    arg = -eta(p, c_t) * br._delta_squared(p) / 2.0
    if np.any(arg < BRANCH_POINT):
        raise ApproxUndefined(
            f"approximation needs eta*delta^2 <= 2/e, undefined from c_t = {_first(c_t, arg < BRANCH_POINT):g}"
        )
    x = st._approx_x(p, arg, np)
    model._check_strategy(p, x, 0.0, np, lambda refused: f", not met from c_t = {_first(c_t, refused):g}")
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
