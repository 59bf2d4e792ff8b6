"""Closed-form best responses of both players and the jammer's cost thresholds.

Both best responses come from first-order conditions.  The target's optimum
has the Lambert-W form b_t(y) = delta * e^(psi(y)+1); the jammer's optimum is
the clamp b_j(x) = max(chi(x), 0), where chi trades capacity damage against
energy spent jamming.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError
from .lambertw import WBranch, lambert_w
from .model import GameParams

__all__ = [
    "Thresholds",
    "psi",
    "chi",
    "best_response_target",
    "best_response_jammer",
    "x_hat",
    "thresholds",
]

_LN2 = math.log(2.0)


class Thresholds(NamedTuple):
    """Two critical values of the jammer's weight c_t.

    c_t_max   -- above this the jammer never jams: chi < 0 for every x, so
                 its best response is identically zero.
    c_t_tilde -- above this the Nash equilibrium sits on the border y = 0;
                 below it the equilibrium is interior with active jamming.

    No ordering between the two is asserted; both are reported as computed.
    """

    c_t_max: float
    c_t_tilde: float


def psi(p: GameParams, y: float) -> float:
    """Principal-branch W of 2*(t_aj + y) / (e * delta); positive for y >= 0."""
    if y < 0:
        raise DomainError("psi requires y >= 0")
    return lambert_w(2.0 * (p.t_aj + y) / (math.e * p.delta), WBranch.PRINCIPAL)


def chi(p: GameParams, x: float) -> float:
    """sqrt(ln(x/delta)/eta) - t_aj - x/2, the jammer's unclamped optimum.

    Defined for x >= delta (nonnegative log; where x/delta overflows, the log
    is taken as ln x - ln delta).  Where chi < 0 the jammer
    prefers not to jam at all.
    """
    if x < p.delta:
        raise DomainError("chi requires x >= delta")
    return math.sqrt(_log_ratio(p, x) / p.eta) - p.t_aj - x / 2.0


def _log_ratio(p: GameParams, x: float) -> float:
    """ln(x/delta), as ln x - ln delta where x/delta overflows."""
    r = x / p.delta
    return math.log(r) if r < math.inf else math.log(x) - math.log(p.delta)


def best_response_target(p: GameParams, y: float) -> float:
    """Capacity-maximizing silence bound against mean jam duration y.

    Equals delta * e^(psi(y)+1); strictly increasing in y and always > 2*delta
    for t_aj > 0.
    """
    return p.delta * math.exp(psi(p, y) + 1.0)


def best_response_jammer(p: GameParams, x: float) -> float:
    """Utility-maximizing mean jam duration against silence bound x: max(chi, 0)."""
    if x < 2.0 * p.delta:
        raise DomainError("best_response_jammer requires x >= 2*delta")
    return max(chi(p, x), 0.0)


def x_hat(p: GameParams) -> float:
    """Location of the maximum of chi: delta * e^(W(2/(eta*delta^2))/2).

    chi increases below this point and decreases above it, so any positive
    region of chi is an interval straddling x_hat.
    """
    w = lambert_w(2.0 / (p.eta * p.delta**2), WBranch.PRINCIPAL)
    return p.delta * math.exp(0.5 * w)


def thresholds(p: GameParams) -> Thresholds:
    """Compute both critical weights for the current physical parameters."""
    c_t_max = 1.0 / (p.p_j * _LN2 * 2.0 * p.delta * (p.delta + p.t_aj))
    omega = psi(p, 0.0)
    c_t_tilde = (
        4.0
        / (p.delta**2 * p.p_j * _LN2)
        * math.exp(-2.0 * (omega + 1.0))
        / (omega + 1.0)
    )
    return Thresholds(c_t_max=c_t_max, c_t_tilde=c_t_tilde)
