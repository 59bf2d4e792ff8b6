"""Array forms of the kernels, the sweep solvers and their log grid, in numpy.

Each kernel is the elementwise twin of the scalar function of the same name
in the pure-``math`` core, with ``c_t`` always explicit: one jammer weight
per element, or one that broadcasts.  A sweep solver gives the scalar
solver's answer for every weight of a column in one pass; the Stackelberg
one takes the Newton steps of ``roots`` for all weights at once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import best_response as br
from .errors import ApproxUndefined, DomainError, InvalidStrategy, SingularError
from .lambertw import _SERIES_ONLY_Q, BRANCH_POINT, WBranch, _fritsch
from .model import GameParams
from .roots import _DBL_MAX, _TOO_SMALL, larger_zero_step
from .stackelberg import ImprovementReport

__all__ = [
    "EquilibriumColumns", "log_grid", "eta", "lambert_w", "lambert_w_prime", "capacity_xy",
    "utilities_xy", "psi", "chi", "best_response_target", "best_response_jammer", "larger_zero",
    "leader_utility", "nash_sweep", "stackelberg_sweep", "stackelberg_approx_sweep",
    "improvement_sweep",
]

_LN2 = math.log(2.0)


def log_grid(a: float, b: float, n: int) -> np.ndarray:
    """n points from a to b with a constant ratio between neighbours; the last is b exactly."""
    ratio = (b / a) ** (1.0 / (n - 1))
    return np.array([a * ratio**k for k in range(n - 1)] + [b])


def eta(p: GameParams, c_t):
    """p.eta with the weights c_t in place of p.c_t."""
    return np.asarray(c_t, dtype=float) * p.p_j * _LN2


def lambert_w(z, branch: WBranch = WBranch.PRINCIPAL) -> np.ndarray:
    """W of every element of z, in the shape of z, by the scalar form's guesses and steps."""
    arr = np.asarray(z, dtype=float)
    shape = arr.shape
    arr = np.atleast_1d(arr).ravel()
    if not np.all(np.isfinite(arr)):
        raise DomainError("lambert_w requires finite arguments")

    # e*z + 1 >= 0 characterizes the real domain; tolerate rounding in a
    # caller's own computation of -1/e.
    q = np.e * np.minimum(arr, 1.0) + 1.0  # only matters near -1/e
    if np.any(q < -1e-12):
        raise DomainError("lambert_w argument below -1/e")
    q = np.clip(q, 0.0, None)

    if branch is WBranch.PRINCIPAL:
        w = _principal(arr, q)
    elif branch is WBranch.MINUS1:
        if np.any(arr >= 0.0):
            raise DomainError("Minus1 branch requires -1/e <= z < 0")
        w = _minus1(arr, q)
    else:
        raise DomainError(f"unknown branch {branch!r}")
    step = (q > _SERIES_ONLY_Q) & (arr != 0.0)
    w[step] = _fritsch(w[step], np.log(np.abs(arr[step])), np.log)
    return w.reshape(shape)


def lambert_w_prime(z, branch: WBranch = WBranch.PRINCIPAL) -> np.ndarray:
    """dW/dz = W / (z * (W + 1)) of every element of z; errors as in lambertw."""
    arr = np.asarray(z, dtype=float)
    if np.any(arr == 0.0):
        raise DomainError("lambert_w_prime is undefined at z = 0")
    if np.any(np.e * arr + 1.0 < 1e-14):
        raise SingularError("lambert_w_prime is singular at z = -1/e")
    w = lambert_w(arr, branch)
    return w / (arr * (w + 1.0))


def _branch_series(q: np.ndarray, sign: float) -> np.ndarray:
    # Expansion around the branch point in p = sqrt(2(e*z + 1));
    # sign=+1 gives the principal side, sign=-1 the lower side.
    p = sign * np.sqrt(2.0 * q)
    return -1.0 + p - p * p / 3.0 + (11.0 / 72.0) * p ** 3


def _principal(z: np.ndarray, q: np.ndarray) -> np.ndarray:
    w = np.empty_like(z)

    near = z < -0.2
    w[near] = _branch_series(q[near], +1.0)
    mid = (~near) & (z <= np.e)
    w[mid] = np.log1p(z[mid])
    far = z > np.e
    lz = np.log(z[far])
    w[far] = lz - np.log(lz)
    return w


def _minus1(z: np.ndarray, q: np.ndarray) -> np.ndarray:
    w = np.empty_like(z)

    near = z < -0.25
    w[near] = _branch_series(q[near], -1.0)
    tail = ~near
    lz = np.log(-z[tail])
    w[tail] = lz - np.log(-lz)
    return w


def _check_strategy(p: GameParams, x, y) -> None:
    if np.any(np.asarray(x) < p.x_min):
        raise InvalidStrategy(f"x must be >= 2*delta = {p.x_min:g}")
    if np.any(np.asarray(y) < 0):
        raise InvalidStrategy("y must be >= 0")


def capacity_xy(p: GameParams, x, y) -> np.ndarray:
    """log2(x/delta) / (t_aj + y + x/2) for x and y broadcast against each other."""
    _check_strategy(p, x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.log2(x / p.delta) / (p.t_aj + y + x / 2.0)


def utilities_xy(p: GameParams, x, y, c_t):
    """(u_t, u_j) at (x, y), the jammer's cost priced with the weights c_t."""
    c = capacity_xy(p, x, y)
    u_t = c - p.c_t_star * p.t_p * p.p_t
    u_j = -c - c_t * np.asarray(y, dtype=float) * p.p_j
    return u_t, u_j


def psi(p: GameParams, y) -> np.ndarray:
    """Principal-branch W of 2*(t_aj + y) / (e * delta) for every y >= 0."""
    if np.any(np.asarray(y) < 0):
        raise DomainError("psi requires y >= 0")
    y = np.asarray(y, dtype=float)
    return lambert_w(2.0 * (p.t_aj + y) / (math.e * p.delta), WBranch.PRINCIPAL)


def chi(p: GameParams, x, c_t) -> np.ndarray:
    """sqrt(ln(x/delta)/eta) - t_aj - x/2 for x >= delta, with the weights c_t."""
    x = np.asarray(x, dtype=float)
    if np.any(x < p.delta):
        raise DomainError("chi requires x >= delta")
    return np.sqrt(_log_ratio(p, x) / eta(p, c_t)) - p.t_aj - x / 2.0


def _log_ratio(p: GameParams, x: np.ndarray) -> np.ndarray:
    """ln(x/delta), as ln x - ln delta where x/delta overflows."""
    with np.errstate(over="ignore"):
        r = x / p.delta
    log_r = np.log(r)
    over = np.isinf(r)
    if over.any():
        log_r = np.where(over, np.log(x) - math.log(p.delta), log_r)
    return log_r


def best_response_target(p: GameParams, y) -> np.ndarray:
    """delta * e^(psi(y)+1) for every y."""
    return p.delta * np.exp(psi(p, y) + 1.0)


def best_response_jammer(p: GameParams, x, c_t) -> np.ndarray:
    """max(chi, 0) for every x >= 2*delta, with the weights c_t."""
    if np.any(np.asarray(x) < 2.0 * p.delta):
        raise DomainError("best_response_jammer requires x >= 2*delta")
    return np.maximum(chi(p, x, c_t), 0.0)


def leader_utility(p: GameParams, x, c_t) -> np.ndarray:
    """stackelberg.leader_utility for every x, with the weights c_t."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 2.0 * p.delta):
        raise DomainError("leader_utility requires x >= 2*delta")
    log2x = np.log2(xa / p.delta)
    jammed = np.sqrt(c_t * p.p_j * log2x)
    free = log2x / (p.t_aj + xa / 2.0)
    cost = p.c_t_star * p.t_p * p.p_t
    return np.where(chi(p, xa, c_t) > 0.0, jammed, free) - cost


class EquilibriumColumns(NamedTuple):
    """Equilibria over an array of jammer weights, one array per quantity."""

    x: np.ndarray
    y: np.ndarray
    u_t: np.ndarray
    u_j: np.ndarray


def nash_sweep(p: GameParams, c_t) -> EquilibriumColumns:
    """nash_closed_form(replace(p, c_t=c)) for every weight c in the array c_t."""
    c_t = np.asarray(c_t, dtype=float)
    half = 0.5 * lambert_w(8.0 / (eta(p, c_t) * p.delta**2), WBranch.PRINCIPAL)
    x_star = p.delta * np.exp(half)
    y_star = 0.5 * p.delta * (half - 1.0) * np.exp(half) - p.t_aj
    interior = (c_t < br.thresholds(p).c_t_tilde) & (y_star > 0.0)
    x = np.where(interior, x_star, br.best_response_target(p, 0.0))
    y = np.where(interior, y_star, 0.0)
    return EquilibriumColumns(x, y, *utilities_xy(p, x, y, c_t))


def larger_zero(p: GameParams, c_t, x_pos: float) -> np.ndarray:
    """roots.larger_zero for every weight, with chi > 0 at x_pos for each.

    A masked loop takes the scalar steps until each element takes its own last one.
    """
    c_t = np.asarray(c_t, dtype=float)
    e = eta(p, c_t)
    with np.errstate(over="ignore"):  # an overflowing start is clamped, ln(x/delta)/eta refused
        x = np.minimum(4.0 / (e * p.delta), _DBL_MAX)
        log_r = _log_ratio(p, x)
        too_small = ~np.isfinite(log_r / e)
    if too_small.any():
        raise DomainError(_TOO_SMALL.format(float(np.max(c_t[too_small]))))
    moving = np.ones(x.shape, dtype=bool)
    while moving.any():
        xm = x[moving]
        x_next = larger_zero_step(xm, log_r[moving], e[moving], p.t_aj, np.sqrt)
        down = (x_pos < x_next) & (x_next < xm)
        moving[moving] = down
        x[moving] = x_next[down]
        log_r[moving] = _log_ratio(p, x[moving])
    return x


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

    Raises ApproxUndefined if the approximation is undefined for any of them.
    """
    c_t = np.asarray(c_t, dtype=float)
    arg = -eta(p, c_t) * p.delta**2 / 2.0
    if np.any(arg < BRANCH_POINT):
        bad = float(c_t[np.argmax(arg < BRANCH_POINT)])
        raise ApproxUndefined(
            f"approximation needs eta*delta^2 <= 2/e, undefined from c_t = {bad:g}"
        )
    return p.delta * np.exp(-0.5 * lambert_w(arg, WBranch.MINUS1))


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
