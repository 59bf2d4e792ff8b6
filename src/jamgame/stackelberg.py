"""Stackelberg play: the target commits first, the jammer best-responds.

Committing to a long-enough silence bound makes jamming uneconomical, so the
follower's equilibrium response is always y = 0: the leader either sits at the
unjammed capacity optimum b_t(0) (when that point is already jam-free) or
walks out to the larger zero of chi, trading delay for jammer inhibition.
That zero comes from the monotone Newton iteration of ``roots``.  The
committed outcome is priced at (x, 0) everywhere: b_j there is 0 by
construction, and re-solving it would price float noise.
"""

from __future__ import annotations

from typing import NamedTuple

from .best_response import _delta_squared, best_response_target, chi
from .errors import ApproxUndefined, DomainError
from .lambertw import BRANCH_POINT, WBranch, lambert_w
from .model import GameParams, StrategyProfile, _finite, _floats, _kernel, _log_ratio, utilities_xy
from .nash import EquilibriumResult, Regime, nash_closed_form
from .roots import larger_zero

__all__ = [
    "ImprovementReport",
    "leader_utility",
    "stackelberg_exact",
    "stackelberg_approx",
    "improvement_report",
]


class ImprovementReport(NamedTuple):
    """Nash vs Stackelberg utilities; arrays when built by columns.improvement_sweep."""

    u_t_ne: float
    u_t_se: float
    u_j_ne: float
    u_j_se: float
    improved: bool


@_kernel
def leader_utility(p: GameParams, x, c_t=None, *, xp):
    """Target utility when the jammer best-responds to x.

    Where chi(x) > 0 the jammer jams for chi(x) and the whole cycle collapses
    to sqrt(c_t * p_j * log2(x/delta)) minus the fixed transmit cost; where
    chi(x) <= 0 the channel is unjammed and this is plain capacity at y = 0.
    The two branches agree at the zeros of chi.  Weights c_t replace p.c_t
    when given.  Refused past the largest double.
    """
    if xp.any(x < 2.0 * p.delta):
        raise DomainError("leader_utility requires x >= 2*delta")
    c_t = p.c_t if c_t is None else c_t
    jammed = chi(p, x, c_t) > 0.0
    log2x = _log_ratio(p, x, xp, "log2")
    u = xp.where(jammed, xp.sqrt(c_t * p.p_j * log2x), log2x / (p.t_aj + x / 2.0))
    return _finite("u_t", u - p.c_t_star * p.t_p * p.p_t, xp)


def stackelberg_exact(p: GameParams) -> EquilibriumResult:
    """Unique Stackelberg equilibrium; the jammer's component is exactly 0.

    If the unjammed optimum b_t(0) already satisfies chi <= 0 (jammer
    inhibited there, which includes every c_t >= c_t_max), the leader plays
    b_t(0).  Otherwise the optimum is the larger zero of chi, to float
    resolution.
    """
    x = best_response_target(p, 0.0)
    if chi(p, x) > 0.0:
        x = larger_zero(p, x)
    return EquilibriumResult(
        StrategyProfile(x=x, y=0.0), Regime.STACKELBERG_EXACT, utilities_xy(p, x, 0.0)
    )


def stackelberg_approx(p: GameParams) -> EquilibriumResult:
    """Closed-form approximation of the leader's optimum.

    Dropping t_aj against x/2 in chi turns the larger root into
    x = delta * e^(-W_-1(-ln2 c_t p_j delta^2 / 2) / 2); the lower branch of W
    is what selects the root above x_hat (the principal branch would give the
    smaller one).  Undefined when the W argument falls below -1/e.
    """
    arg = -p.eta * _delta_squared(p) / 2.0
    if arg < BRANCH_POINT:
        raise ApproxUndefined(
            f"approximation needs eta*delta^2 <= 2/e, got argument {arg:g} < -1/e"
        )
    x_approx = _approx_x(p, arg, _floats)
    return EquilibriumResult(
        StrategyProfile(x=x_approx, y=0.0), Regime.STACKELBERG_APPROX, utilities_xy(p, x_approx, 0.0)
    )


def _approx_x(p: GameParams, arg, xp):
    return p.delta * xp.exp(-0.5 * lambert_w(arg, WBranch.MINUS1))


def improvement_report(p: GameParams) -> ImprovementReport:
    """Compare both players' utilities at the Nash and Stackelberg outcomes.

    ``improved`` is a strict comparison with 1e-12 absolute slack, so exactly
    coincident equilibria (border regime) report False.
    """
    ne = nash_closed_form(p).utilities
    se = stackelberg_exact(p).utilities
    return ImprovementReport(
        u_t_ne=ne.u_t, u_t_se=se.u_t, u_j_ne=ne.u_j, u_j_se=se.u_j, improved=se.u_t > ne.u_t + 1e-12
    )
