"""Stackelberg play: the target commits first, the jammer best-responds.

Committing to a long-enough silence bound makes jamming uneconomical, so the
follower's equilibrium response is always y = 0: the leader either sits at the
unjammed capacity optimum b_t(0) (when that point is already jam-free) or
walks out to the larger zero of chi, trading delay for jammer inhibition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .best_response import best_response_jammer, best_response_target, chi, x_hat
from .errors import ApproxUndefined, DomainError
from .lambertw import BRANCH_POINT, WBranch, lambert_w
from .model import GameParams, StrategyProfile, eta, utilities, utilities_xy
from .nash import EquilibriumResult, Regime, nash_closed_form, nash_sweep
from .roots import bisect_bracket, grow_until_negative

__all__ = [
    "ImprovementReport",
    "leader_utility",
    "stackelberg_exact",
    "stackelberg_sweep",
    "stackelberg_approx",
    "stackelberg_approx_sweep",
    "improvement_report",
    "improvement_sweep",
    "leader_loss_bracket_width",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ImprovementReport:
    """Nash vs Stackelberg utilities; arrays when built by improvement_sweep."""

    u_t_ne: float
    u_t_se: float
    u_j_ne: float
    u_j_se: float
    improved: bool


def leader_utility(p: GameParams, x, c_t=None):
    """Target utility when the jammer best-responds to x.

    Where chi(x) > 0 the jammer jams for chi(x) and the whole cycle collapses
    to sqrt(c_t * p_j * log2(x/delta)) minus the fixed transmit cost; where
    chi(x) <= 0 the channel is unjammed and this is plain capacity at y = 0.
    The two branches agree at the zeros of chi.  Accepts scalars or arrays;
    ``c_t``, an array of weights, evaluates a whole column in place of p.c_t.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 2.0 * p.delta):
        raise DomainError("leader_utility requires x >= 2*delta")
    log2x = np.log2(xa / p.delta)
    jammed = np.sqrt((p.c_t if c_t is None else c_t) * p.p_j * log2x)
    free = log2x / (p.t_aj + xa / 2.0)
    cost = p.c_t_star * p.t_p * p.p_t
    out = np.where(np.asarray(chi(p, xa, c_t)) > 0.0, jammed, free) - cost
    return float(out) if out.ndim == 0 else out


def leader_loss_bracket_width(p: GameParams, leader_loss: float | None = None, c_t=None):
    """Bisection bracket width guaranteeing leader loss at most ``leader_loss``.

    The leader utility's slope on the jammed branch is bounded by
    u_max = sqrt(c_t * p_j) / (4 delta ln 2), so a bracket of width
    leader_loss / u_max costs at most leader_loss in utility.  The default
    loss is 1e-6 of the utility scale at x_hat.  ``c_t`` as in leader_utility.
    """
    if leader_loss is None:
        leader_loss = 1e-6 * np.abs(leader_utility(p, x_hat(p, c_t), c_t))
    u_max = np.sqrt((p.c_t if c_t is None else c_t) * p.p_j) / (4.0 * p.delta * _LN2)
    width = leader_loss / u_max
    return float(width) if np.ndim(width) == 0 else width


def stackelberg_exact(p: GameParams, x_tol: float | None = None) -> EquilibriumResult:
    """Unique Stackelberg equilibrium; the jammer's component is exactly 0.

    If the unjammed optimum b_t(0) already satisfies chi <= 0 (jammer
    inhibited there, which includes every c_t >= c_t_max), the leader plays
    b_t(0).  Otherwise the optimum is the larger zero of chi, bracketed on
    [x_hat, upward] and bisected to width ``x_tol`` (default: the loss-bound
    width from leader_loss_bracket_width); the bracket endpoint with the
    higher leader utility is returned.
    """
    x0 = float(best_response_target(p, 0.0))
    if float(chi(p, x0)) <= 0.0:
        prof = StrategyProfile(x=x0, y=0.0)
        return EquilibriumResult(prof, Regime.STACKELBERG_EXACT, utilities(p, prof))

    if x_tol is None:
        x_tol = leader_loss_bracket_width(p)
    if x_tol <= 0:
        raise ValueError("x_tol must be positive")
    f = lambda x: float(chi(p, x))
    xh = x_hat(p)
    upper = grow_until_negative(f, xh)
    lo, hi = bisect_bracket(f, xh, upper, x_tol)
    x_se = lo if float(leader_utility(p, lo)) >= float(leader_utility(p, hi)) else hi
    prof = StrategyProfile(x=x_se, y=0.0)
    return EquilibriumResult(prof, Regime.STACKELBERG_EXACT, utilities(p, prof))


def stackelberg_sweep(p: GameParams, c_t, x_tol=None) -> np.ndarray:
    """The leader's x of stackelberg_exact(replace(p, c_t=c)) for each weight c in c_t.

    Every element takes the steps of its scalar solve: b_t(0) where jamming
    is inhibited there, else the larger zero of chi grown from x_hat,
    bisected to ``x_tol`` (an array like c_t; default: each weight's
    loss-bound width), keeping the endpoint with the higher leader utility.
    The jammer's component is 0 throughout.
    """
    c_t = np.asarray(c_t, dtype=float)
    x0 = float(best_response_target(p, 0.0))
    jammed = chi(p, x0, c_t) > 0.0
    x_se = np.full(c_t.shape, x0)
    c = c_t[jammed]
    if c.size == 0:
        return x_se
    if x_tol is None:
        tol = leader_loss_bracket_width(p, c_t=c)
    else:
        tol = np.broadcast_to(x_tol, c_t.shape)[jammed]
    if np.any(tol <= 0):
        raise ValueError("x_tol must be positive")
    f = lambda x: chi(p, x, c)
    xh = x_hat(p, c)
    lo, hi = bisect_bracket(f, xh, grow_until_negative(f, xh), tol)
    x_se[jammed] = np.where(leader_utility(p, lo, c) >= leader_utility(p, hi, c), lo, hi)
    return x_se


def stackelberg_approx(p: GameParams) -> EquilibriumResult:
    """Closed-form approximation of the leader's optimum.

    Dropping t_aj against x/2 in chi turns the larger root into
    x = delta * e^(-W_-1(-ln2 c_t p_j delta^2 / 2) / 2); the lower branch of W
    is what selects the root above x_hat (the principal branch would give the
    smaller one).  Undefined when the W argument falls below -1/e.
    """
    arg = -p.eta * p.delta**2 / 2.0
    if arg < BRANCH_POINT:
        raise ApproxUndefined(
            f"approximation needs eta*delta^2 <= 2/e, got argument {arg:g} < -1/e"
        )
    w = lambert_w(arg, WBranch.MINUS1)
    x_approx = p.delta * math.exp(-0.5 * w)
    prof = StrategyProfile(x=x_approx, y=0.0)
    return EquilibriumResult(prof, Regime.STACKELBERG_APPROX, utilities(p, prof))


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


def improvement_report(p: GameParams) -> ImprovementReport:
    """Compare both players' utilities at the Nash and Stackelberg outcomes.

    ``improved`` is a strict comparison with 1e-12 absolute slack, so exactly
    coincident equilibria (border regime) report False.
    """
    ne = nash_closed_form(p)
    se = stackelberg_exact(p)
    y_follow = float(best_response_jammer(p, se.profile.x))
    u_t_se, u_j_se = utilities_xy(p, se.profile.x, y_follow)
    return ImprovementReport(
        u_t_ne=ne.utilities.u_t,
        u_t_se=float(u_t_se),
        u_j_ne=ne.utilities.u_j,
        u_j_se=float(u_j_se),
        improved=float(u_t_se) > ne.utilities.u_t + 1e-12,
    )


def improvement_sweep(p: GameParams, c_t) -> ImprovementReport:
    """improvement_report(replace(p, c_t=c)) for every weight c in c_t, as arrays."""
    c_t = np.asarray(c_t, dtype=float)
    ne = nash_sweep(p, c_t)
    x_se = stackelberg_sweep(p, c_t)
    u_t_se, u_j_se = utilities_xy(p, x_se, best_response_jammer(p, x_se, c_t), c_t)
    return ImprovementReport(
        u_t_ne=ne.u_t,
        u_t_se=u_t_se,
        u_j_ne=ne.u_j,
        u_j_se=u_j_se,
        improved=u_t_se > ne.u_t + 1e-12,
    )
