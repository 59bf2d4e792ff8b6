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
from .model import (
    GameParams, StrategyProfile, _check_strategy, _eta, _finite, _kernel, _log_ratio, utilities_xy,
)
from .nash import EquilibriumResult, Regime, nash_xy
from .roots import larger_zero

__all__ = [
    "ImprovementReport",
    "leader_utility",
    "stackelberg_x",
    "stackelberg_exact",
    "stackelberg_approx_x",
    "stackelberg_approx",
    "improvement_report",
]


class ImprovementReport(NamedTuple):
    """Nash vs Stackelberg utilities: arrays, one element per weight, for a column of weights."""

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
    jammed = chi(p, x, c_t, xp=xp) > 0.0
    log2x = _log_ratio(p, x, xp, "log2")
    u = xp.where(jammed, xp.sqrt(c_t * p.p_j * log2x), log2x / (p.t_aj + x / 2.0))
    return _finite("u_t", u - p.transmit_cost, xp)


@_kernel
def stackelberg_x(p: GameParams, c_t=None, *, xp):
    """The leader's x of the unique Stackelberg equilibrium; weights c_t replace p.c_t when given.

    If the unjammed optimum b_t(0) already satisfies chi <= 0 (jammer
    inhibited there, which includes every c_t >= c_t_max), the leader plays
    b_t(0).  Otherwise the optimum is the larger zero of chi, to float
    resolution.
    """
    c_t = p.c_t if c_t is None else c_t
    x0 = best_response_target(p, 0.0)  # constants: in math
    jammed = chi(p, x0, c_t, xp=xp) > 0.0
    x = x0
    if xp.any(jammed):
        # An unjammed weight takes the smallest weight's Newton: chi falls as
        # the weight grows, so that one is jammed.
        x = larger_zero(p, x0, xp.where(jammed, c_t, xp.min(c_t)), xp=xp)
    return xp.where(jammed, x, x0)


def stackelberg_exact(p: GameParams) -> EquilibriumResult:
    """Unique Stackelberg equilibrium, stackelberg_x(p); the jammer's component is exactly 0."""
    x = stackelberg_x(p)
    return EquilibriumResult(StrategyProfile(x=x, y=0.0), Regime.STACKELBERG_EXACT, utilities_xy(p, x, 0.0))


@_kernel
def stackelberg_approx_x(p: GameParams, c_t=None, *, xp):
    """Closed-form approximation of the leader's optimum; weights c_t replace p.c_t when given.

    Dropping t_aj against x/2 in chi turns the larger root into
    x = delta * e^(-W_-1(-ln2 c_t p_j delta^2 / 2) / 2); the lower branch of W
    is what selects the root above x_hat (the principal branch would give the
    smaller one).  Raises ApproxUndefined where the W argument falls below
    -1/e, and InvalidStrategy where x falls below 2*delta; each message names
    the first weight refused (a float weight is a column of one).
    """
    c_t = p.c_t if c_t is None else c_t

    def at(refused):  # the first weight where refused holds
        return f"from c_t = {float(xp.extract(refused, c_t)[0]):g}"

    arg = -_eta(p, c_t, xp) * _delta_squared(p) / 2.0
    if xp.any(arg < BRANCH_POINT):
        raise ApproxUndefined(f"approximation needs eta*delta^2 <= 2/e, undefined {at(arg < BRANCH_POINT)}")
    x = p.delta * xp.exp(-0.5 * lambert_w(arg, WBranch.MINUS1, xp=xp))
    _check_strategy(p, x, 0.0, xp, lambda refused: f", not met {at(refused)}")
    return x


def stackelberg_approx(p: GameParams) -> EquilibriumResult:
    """stackelberg_approx_x(p) as an equilibrium: the jammer's component is 0."""
    x = stackelberg_approx_x(p)
    return EquilibriumResult(StrategyProfile(x=x, y=0.0), Regime.STACKELBERG_APPROX, utilities_xy(p, x, 0.0))


@_kernel
def improvement_report(p: GameParams, c_t=None, *, xp) -> ImprovementReport:
    """Both players' utilities at the Nash and Stackelberg outcomes; weights c_t replace p.c_t when given.

    ``improved`` is a strict comparison with 1e-12 absolute slack, so exactly
    coincident equilibria (border regime) report False.
    """
    x_ne, y_ne = nash_xy(p, c_t, xp=xp)
    u_t_ne, u_j_ne = utilities_xy(p, x_ne, y_ne, c_t, xp=xp)
    u_t_se, u_j_se = utilities_xy(p, stackelberg_x(p, c_t, xp=xp), 0.0, c_t, xp=xp)
    return ImprovementReport(u_t_ne, u_t_se, u_j_ne, u_j_se, improved=u_t_se > u_t_ne + 1e-12)
