"""Stackelberg play: the target commits first, the jammer best-responds.

Committing to a long-enough silence bound makes jamming uneconomical, so the
follower's equilibrium response is always y = 0: the leader either sits at the
unjammed capacity optimum b_t(0) (when that point is already jam-free) or
walks out to the larger zero of chi, trading delay for jammer inhibition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .best_response import best_response_jammer, best_response_target, chi, x_hat
from .errors import ApproxUndefined, DomainError
from .lambertw import BRANCH_POINT, WBranch, lambert_w
from .model import GameParams, StrategyProfile, utilities, utilities_xy
from .nash import EquilibriumResult, Regime, nash_closed_form
from .roots import bisect_bracket, grow_until_negative

__all__ = [
    "ImprovementReport",
    "leader_utility",
    "stackelberg_exact",
    "stackelberg_approx",
    "improvement_report",
    "leader_loss_bracket_width",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ImprovementReport:
    """Nash vs Stackelberg utilities; arrays when built by columns.improvement_sweep."""

    u_t_ne: float
    u_t_se: float
    u_j_ne: float
    u_j_se: float
    improved: bool


def leader_utility(p: GameParams, x: float) -> float:
    """Target utility when the jammer best-responds to x.

    Where chi(x) > 0 the jammer jams for chi(x) and the whole cycle collapses
    to sqrt(c_t * p_j * log2(x/delta)) minus the fixed transmit cost; where
    chi(x) <= 0 the channel is unjammed and this is plain capacity at y = 0.
    The two branches agree at the zeros of chi.
    """
    if x < 2.0 * p.delta:
        raise DomainError("leader_utility requires x >= 2*delta")
    log2x = math.log2(x / p.delta)
    if chi(p, x) > 0.0:
        u = math.sqrt(p.c_t * p.p_j * log2x)
    else:
        u = log2x / (p.t_aj + x / 2.0)
    return u - p.c_t_star * p.t_p * p.p_t


def leader_loss_bracket_width(p: GameParams) -> float:
    """Bisection bracket width costing the leader at most 1e-6 of |U_t(x_hat)|.

    The leader utility's slope on the jammed branch is bounded by
    u_max = sqrt(c_t * p_j) / (4 delta ln 2), so a bracket of width
    leader_loss / u_max costs at most leader_loss in utility, with
    leader_loss = 1e-6 of the utility scale at x_hat.
    """
    leader_loss = 1e-6 * abs(leader_utility(p, x_hat(p)))
    u_max = math.sqrt(p.c_t * p.p_j) / (4.0 * p.delta * _LN2)
    return leader_loss / u_max


def stackelberg_exact(p: GameParams, x_tol: float | None = None) -> EquilibriumResult:
    """Unique Stackelberg equilibrium; the jammer's component is exactly 0.

    If the unjammed optimum b_t(0) already satisfies chi <= 0 (jammer
    inhibited there, which includes every c_t >= c_t_max), the leader plays
    b_t(0).  Otherwise the optimum is the larger zero of chi, bracketed on
    [x_hat, upward] and bisected to width ``x_tol`` (default: the loss-bound
    width from leader_loss_bracket_width); the bracket endpoint with the
    higher leader utility is returned.
    """
    x0 = best_response_target(p, 0.0)
    if chi(p, x0) <= 0.0:
        prof = StrategyProfile(x=x0, y=0.0)
        return EquilibriumResult(prof, Regime.STACKELBERG_EXACT, utilities(p, prof))

    if x_tol is None:
        x_tol = leader_loss_bracket_width(p)
    if not (x_tol > 0):
        raise ValueError("x_tol must be positive")
    f = lambda x: chi(p, x)
    xh = x_hat(p)
    upper = grow_until_negative(f, xh)
    lo, hi = bisect_bracket(f, xh, upper, x_tol)
    x_se = lo if leader_utility(p, lo) >= leader_utility(p, hi) else hi
    prof = StrategyProfile(x=x_se, y=0.0)
    return EquilibriumResult(prof, Regime.STACKELBERG_EXACT, utilities(p, prof))


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


def improvement_report(p: GameParams) -> ImprovementReport:
    """Compare both players' utilities at the Nash and Stackelberg outcomes.

    ``improved`` is a strict comparison with 1e-12 absolute slack, so exactly
    coincident equilibria (border regime) report False.
    """
    ne = nash_closed_form(p)
    se = stackelberg_exact(p)
    y_follow = best_response_jammer(p, se.profile.x)
    u_t_se, u_j_se = utilities_xy(p, se.profile.x, y_follow)
    return ImprovementReport(
        u_t_ne=ne.utilities.u_t,
        u_t_se=u_t_se,
        u_j_ne=ne.utilities.u_j,
        u_j_se=u_j_se,
        improved=u_t_se > ne.utilities.u_t + 1e-12,
    )
