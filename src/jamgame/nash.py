"""Closed-form Nash equilibrium, best-response dynamics, convergence certificate.

The game has a unique Nash equilibrium.  Below the weight threshold c_t_tilde
it is interior (the jammer actively jams); at or above it the equilibrium sits
on the border y = 0 and the target simply maximizes unjammed capacity.

Best-response dynamics (BRD) iterate both players' closed-form best responses
simultaneously (Jacobi update, not Gauss-Seidel): the two-iteration absorption
into the compact box S' below is only valid for the simultaneous scheme.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional

from .best_response import (
    _c_t_tilde,
    _delta_squared,
    _ratio,
    best_response_jammer,
    best_response_target,
    chi,
    psi,
    x_hat,
)
from .errors import DomainError, InvalidStrategy
from .lambertw import WBranch, lambert_w
from .model import GameParams, StrategyProfile, UtilityPair, _eta, _kernel, _log_ratio, utilities_xy
from .roots import larger_zero

__all__ = [
    "Regime",
    "EquilibriumResult",
    "BrdTrace",
    "ConvergenceCert",
    "SPrimeBounds",
    "nash_xy",
    "nash_closed_form",
    "brd",
    "convergence_certificate",
    "s_prime_bounds",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
]

# Convergence test is sup-norm on (x/delta, y/delta): x and y sit orders of
# magnitude above delta, so one scaled tolerance is meaningful for both.
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1000
# brd also stops on a step this many ulp of the larger iterate: past ~1000
# delta, DEFAULT_TOL asks for a step below the iterates' float resolution.
_ROUNDOFF_ULPS = 4


class Regime(Enum):
    INTERIOR_NE = "interior"
    BORDER_NE = "border"
    STACKELBERG_EXACT = "stackelberg_exact"
    STACKELBERG_APPROX = "stackelberg_approx"


class EquilibriumResult(NamedTuple):
    profile: StrategyProfile
    regime: Regime
    utilities: UtilityPair


class ConvergenceCert(NamedTuple):
    """Contraction certificate for the best-response map over S'.

    jb_max is the maximum over S' of the two closed-form best-response
    slopes |db_t/dy| and |db_j/dx|.  When it is below one, BRD contracts and
    predicted_max_iterations bounds the steps needed to bring the scaled
    update below epsilon; otherwise no guarantee is issued (BRD may still
    converge, it just is not certified).
    """

    jb_max: float
    condition_ct_holds: bool
    predicted_max_iterations: Optional[int]


class BrdTrace(NamedTuple):
    iterates: list[StrategyProfile]
    converged: bool
    iterations_used: int
    certificate: Optional[ConvergenceCert] = None


class SPrimeBounds(NamedTuple):
    x_m: float
    x_M: float
    y_M: float


@_kernel
def nash_xy(p: GameParams, c_t=None, *, xp):
    """The unique Nash equilibrium (x, y) in closed form; weights c_t replace p.c_t when given.

    Interior (c_t < c_t_tilde):
        x* = delta * e^(W(8/(eta*delta^2))/2)
        y* = (delta/2) * (W(8/(eta*delta^2))/2 - 1) * e^(W(..)/2) - t_aj
    Border (otherwise): x* = b_t(0), y* = 0.

    The point is a simultaneous fixed point of both best responses to
    machine precision.  A weight numerically indistinguishable from the
    threshold, whose interior y* is not positive, takes the border form.
    """
    c_t = p.c_t if c_t is None else c_t
    interior = inner = c_t < _c_t_tilde(p)
    x = y = 0.0
    if xp.any(inner):
        # A border weight takes the smallest interior weight's W, so its own
        # 8/(eta*delta^2) is neither formed nor refused.
        c_in = xp.where(inner, c_t, xp.min(xp.where(inner, c_t, math.inf)))
        ratio = _ratio("8/(eta*delta^2)", 8.0, _eta(p, c_in, xp) * _delta_squared(p), xp)
        half = 0.5 * lambert_w(ratio, WBranch.PRINCIPAL)
        x = p.delta * xp.exp(half)
        y = 0.5 * p.delta * (half - 1.0) * xp.exp(half) - p.t_aj
        interior = inner & (y > 0.0)
    if xp.all(interior):
        return x, y
    return xp.where(interior, x, best_response_target(p, 0.0)), xp.where(interior, y, 0.0)


def nash_closed_form(p: GameParams) -> EquilibriumResult:
    """nash_xy(p) with its regime tag and utilities: interior where the jammer jams (y* > 0)."""
    x, y = nash_xy(p)
    regime = Regime.INTERIOR_NE if y > 0.0 else Regime.BORDER_NE
    return EquilibriumResult(StrategyProfile(x=x, y=y), regime, utilities_xy(p, x, y))


def _scaled_step(p: GameParams, a: StrategyProfile, b: StrategyProfile) -> float:
    return max(abs(a.x - b.x), abs(a.y - b.y)) / p.delta


def brd(
    p: GameParams,
    start: StrategyProfile,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    with_certificate: bool = False,
) -> BrdTrace:
    """Simultaneous best-response dynamics from ``start``.

    Each iteration plays x_i = b_t(y_{i-1}) and y_i = b_j(x_{i-1}) at once.
    Converged means the scaled sup-norm step dropped to ``tol``, or to a few
    ulp of the iterates (float round-off), within ``max_iter`` iterations;
    non-convergence is reported in the trace, never raised.
    """
    if not (tol > 0):
        raise DomainError("tol must be positive")
    if start.x < 2.0 * p.delta:
        raise InvalidStrategy("start.x must be >= 2*delta")

    cert = convergence_certificate(p, epsilon=tol, start=start) if with_certificate else None

    iterates = [start]
    cur = start
    converged = False
    used = 0
    for _ in range(max_iter):
        nxt = StrategyProfile(x=best_response_target(p, cur.y), y=best_response_jammer(p, cur.x))
        iterates.append(nxt)
        used += 1
        roundoff = _ROUNDOFF_ULPS * math.ulp(max(nxt.x, nxt.y)) / p.delta
        if _scaled_step(p, nxt, cur) <= max(tol, roundoff):
            converged = True
            break
        cur = nxt
    return BrdTrace(iterates=iterates, converged=converged, iterations_used=used, certificate=cert)


def s_prime_bounds(p: GameParams) -> SPrimeBounds:
    """The absorbing box S' = [x_m, x_M] x [0, y_M] of the dynamics.

    x_m = b_t(0) bounds the target's response from below, y_M =
    b_j(max(x_hat, 2*delta)) bounds the jammer's response globally (chi peaks
    at x_hat, which drops below 2*delta for a costly jammer, and decreases
    above it), and x_M = b_t(y_M) closes the box.  Any start lands inside
    within two iterations.
    """
    x_m = best_response_target(p, 0.0)
    y_M = best_response_jammer(p, max(x_hat(p), 2.0 * p.delta))
    x_M = best_response_target(p, y_M)
    return SPrimeBounds(x_m=x_m, x_M=x_M, y_M=y_M)


def _bj_slope(p: GameParams, x: float) -> float:
    """|d b_j / d x| = |(1/(x*sqrt(eta*ln(x/delta))) - 1)| / 2 on the active region."""
    h = 1.0 / (x * math.sqrt(p.eta * _log_ratio(p, x)))
    return 0.5 * abs(h - 1.0)


def convergence_certificate(
    p: GameParams, epsilon: float, start: StrategyProfile
) -> ConvergenceCert:
    """Evaluate the contraction condition and the worst-case iteration bound.

    condition_ct_holds checks the sufficient condition on the weight,
        c_t > 1 / (9 delta^2 ln2 p_j (omega+1) e^(2(omega+1))) = c_t_tilde / 36,
    omega = psi(0), with c_t_tilde taken from _c_t_tilde on the whole double range.
    jb_max maximizes the closed-form best-response slopes over S'.  The slope
    of b_t peaks at y = 0, at 2/(omega+1).  b_j has slope zero wherever the
    clamp is active, and S' reaches its active interval only if chi(x_m) > 0:
    x_m = b_t(0) never lies left of chi's lower zero, because
    t_aj + x_m/2 = (x_m/2) L with L = ln(x_m/delta) makes chi(x_m) >= (x_m/2) L
    wherever x_m <= x_hat.  The slope of b_j is then largest at x_m or at
    min(larger zero, x_M), the larger zero being the one stackelberg_exact
    finds from the same x_m.

    The iteration count needed to push the scaled step below epsilon is
    ceil(log(eps/d1)/log(jb_max)) with d1 the first scaled step, clamped to
    at least 1 (the bound is only informative when epsilon < d1), and
    unavailable when jb_max >= 1.
    """
    if not (epsilon > 0):
        raise DomainError("epsilon must be positive")
    condition = p.c_t > _c_t_tilde(p) / 36.0
    omega = psi(p, 0.0)
    bounds = s_prime_bounds(p)
    jb = 2.0 / (omega + 1.0)
    if chi(p, bounds.x_m) > 0.0:
        b = min(larger_zero(p, bounds.x_m), bounds.x_M)
        jb = max(jb, _bj_slope(p, bounds.x_m), _bj_slope(p, b))

    predicted: Optional[int] = None
    if jb < 1.0:
        first = StrategyProfile(x=best_response_target(p, start.y), y=best_response_jammer(p, start.x))
        d1 = _scaled_step(p, first, start)
        if d1 <= epsilon or jb == 0.0:
            predicted = 1
        else:
            predicted = max(1, math.ceil(math.log(epsilon / d1) / math.log(jb)))
    return ConvergenceCert(jb_max=jb, condition_ct_holds=condition, predicted_max_iterations=predicted)
