"""Closed-form best responses of both players and the jammer's cost thresholds.

Both best responses come from first-order conditions.  The target's optimum
has the Lambert-W form b_t(y) = delta * e^(psi(y)+1); the jammer's optimum is
the clamp b_j(x) = max(chi(x), 0), where chi trades capacity damage against
energy spent jamming.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DomainError
from .lambertw import WBranch, lambert_w
from .model import GameParams, _eta, _finite, _floats, _kernel, _log_ratio

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
_SQRT_DBL_MAX = math.sqrt(sys.float_info.max)
_LOG_DBL_MAX = math.log(sys.float_info.max)
_LOG_DBL_MIN = math.log(sys.float_info.min)


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


@_kernel
def psi(p: GameParams, y, *, xp):
    """Principal-branch W of 2*(t_aj + y) / (e * delta); positive for y >= 0."""
    if xp.any(y < 0):
        raise DomainError("psi requires y >= 0")
    return lambert_w(2.0 * (p.t_aj + y) / (math.e * p.delta), WBranch.PRINCIPAL)


@_kernel
def chi(p: GameParams, x, c_t=None, *, xp):
    """sqrt(ln(x/delta)/eta) - t_aj - x/2, the jammer's unclamped optimum.

    Defined for finite x >= delta (nonnegative log; where x/delta overflows,
    the log is taken as ln x - ln delta).  Where chi < 0 the jammer
    prefers not to jam at all.  Weights c_t replace p.c_t when given.
    """
    if xp.any(x < p.delta):
        raise DomainError("chi requires x >= delta")
    eta = _eta(p, p.c_t if c_t is None else c_t, xp)
    if not xp.all(xp.isfinite(x)):
        raise DomainError("chi requires a finite x")
    return xp.sqrt(_log_ratio(p, x, xp) / eta) - p.t_aj - x / 2.0


@_kernel
def best_response_target(p: GameParams, y, *, xp):
    """Capacity-maximizing silence bound against mean jam duration y.

    Equals delta * e^(psi(y)+1); strictly increasing in y and always > 2*delta
    for t_aj > 0.  Refused past the largest double.
    """
    return _finite("b_t(y)", p.delta * xp.exp(psi(p, y) + 1.0), xp)


@_kernel
def best_response_jammer(p: GameParams, x, c_t=None, *, xp):
    """Utility-maximizing mean jam duration against silence bound x: max(chi, 0).

    Weights c_t replace p.c_t when given.  Refused past the largest double.
    """
    if xp.any(x < 2.0 * p.delta):
        raise DomainError("best_response_jammer requires x >= 2*delta")
    return _finite("b_j(x)", xp.maximum(chi(p, x, c_t), 0.0), xp)


def x_hat(p: GameParams) -> float:
    """Location of the maximum of chi: delta * e^(W(2/(eta*delta^2))/2).

    chi increases below this point and decreases above it, so any positive
    region of chi is an interval straddling x_hat.
    """
    w = lambert_w(_ratio("2/(eta*delta^2)", 2.0, p.eta * _delta_squared(p)), WBranch.PRINCIPAL)
    return _finite("x_hat", p.delta * math.exp(0.5 * w))


def thresholds(p: GameParams) -> Thresholds:
    """Compute both critical weights for the current physical parameters.

    Refuses either weight past the largest double.  Where the denominator of
    c_t_max overflows, the weight may still be a subnormal double, so there
    it is taken in logs of factors that cannot overflow.
    """
    den = p.p_j * _LN2 * 2.0 * p.delta * (p.delta + p.t_aj)
    if den < math.inf:
        c_t_max = _ratio("c_t_max", 1.0, den)
    else:
        log_half_sum = math.log(0.5 * p.delta + 0.5 * p.t_aj)
        c_t_max = math.exp(-(math.log(p.p_j * _LN2) + 2.0 * _LN2 + math.log(p.delta) + log_half_sum))
    return Thresholds(c_t_max=c_t_max, c_t_tilde=_finite("c_t_tilde", _c_t_tilde(p)))


def _c_t_tilde(p: GameParams) -> float:
    """The weight at which the Nash equilibrium meets the border y = 0; inf past the largest double.

    4/(delta^2 p_j ln2) * e^(-2(omega+1)) / (omega+1), omega = psi(0).  Where
    either factor leaves the normal doubles the product may still be in range,
    so there it is taken in logs.
    """
    omega = psi(p, 0.0)
    den = _delta_squared(p) * p.p_j * _LN2
    scale = 4.0 / den if den else math.inf
    if sys.float_info.min <= scale < math.inf and -2.0 * (omega + 1.0) > _LOG_DBL_MIN:
        return scale * math.exp(-2.0 * (omega + 1.0)) / (omega + 1.0)
    log_den = 2.0 * math.log(p.delta) + math.log(p.p_j * _LN2)
    log_c = math.log(4.0 / (omega + 1.0)) - 2.0 * (omega + 1.0) - log_den
    return math.exp(log_c) if log_c < _LOG_DBL_MAX else math.inf


def _delta_squared(p: GameParams) -> float:
    """delta**2, refused where it overflows or underflows below the normal doubles."""
    d2 = p.delta**2 if p.delta <= _SQRT_DBL_MAX else math.inf
    if not sys.float_info.min <= d2 < math.inf:
        raise DomainError(f"delta**2 leaves the double range, delta = {p.delta!r}")
    return d2


def _ratio(quantity: str, num: float, den, xp=_floats):
    """num / den, refused as _finite does; a den that underflowed to 0 overflows it."""
    return _finite(quantity, num / xp.maximum(den, 5e-324), xp)
