"""Leader play under an uncertain jammer cost weight.

The target does not know the true weight c_t, only a prior for it.  It picks
an assumed weight xi, commits to the corresponding Stackelberg strategy
g(xi), and the true jammer best-responds.  This module evaluates the realized
utility of that play, its expectation under a uniform prior (by the printed
closed form), the expectation-maximizing assumed weight, and the resulting
efficiency relative to perfect knowledge.

Everything here runs on the zero-transmit-cost convention (the constant
c_t_star term cancels from every comparison of interest).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import columns
from .best_response import best_response_target, chi
from .errors import DegenerateUtility, DomainError, InvalidParams
from .lambertw import WBranch, lambert_w
from .model import GameParams
from .stackelberg import leader_loss_bracket_width, stackelberg_exact

__all__ = [
    "UniformPrior",
    "g_of_xi",
    "realized_utility",
    "expected_utility_closed",
    "xi_opt",
    "efficiency",
    "foc_residual",
]

_LN2 = math.log(2.0)
_GRID_POINTS = 241  # per xi_opt pass


@dataclass(frozen=True)
class UniformPrior:
    """Uniform density for the jammer weight on [xi_min, xi_max].

    The bounds must keep xi_max / xi_min and xi_max**2 finite: the log grid
    of xi_opt divides them, and the closed form of the expected utility
    squares xi_max.
    """

    xi_min: float
    xi_max: float

    def __post_init__(self):
        if not (0 < self.xi_min < self.xi_max):
            raise InvalidParams(f"need 0 < xi_min < xi_max, got ({self.xi_min!r}, {self.xi_max!r})")
        if not (math.isfinite(self.xi_max / self.xi_min) and math.isfinite(self.xi_max * self.xi_max)):
            raise InvalidParams(
                f"xi_max / xi_min and xi_max**2 must be finite, got ({self.xi_min!r}, {self.xi_max!r})"
            )

    @property
    def density(self) -> float:
        return 1.0 / (self.xi_max - self.xi_min)


# High-precision leader strategy for an assumed weight: the default loss-bound
# bracket tightened 1000x, so downstream identities that rely on chi(g) = 0
# hold to ~1e-10 relative.
_COMMITTED_TOL = 1e-3

# A jammed weight's bracket starts at x_hat, which takes W of 2/(eta*delta^2);
# at or below this eta*delta^2 that argument overflows, so the weight is refused.
_MIN_ETA_DELTA2 = 2.0 / sys.float_info.max
_TOO_SMALL = "xi = {!r} is too small: x_hat's W argument 2/(eta*delta^2) overflows"


def g_of_xi(p: GameParams, xi):
    """Leader strategy if the jammer's weight were xi.

    The larger zero of chi evaluated with weight xi, or b_t(0) when xi is
    large enough that jamming is inhibited there.  Decreasing in xi.  An
    array of xi is solved in one batched pass.
    """
    if isinstance(xi, (float, int)):
        if not (xi > 0 and math.isfinite(xi)):
            raise DomainError(f"xi must be positive and finite, got {xi!r}")
        p_xi = replace(p, c_t=xi)
        if not p_xi.eta * p.delta**2 > _MIN_ETA_DELTA2:
            raise DomainError(_TOO_SMALL.format(xi))
        x0 = best_response_target(p_xi, 0.0)
        if chi(p_xi, x0) <= 0.0:  # inhibited: the loss-bound width is not needed
            return x0
        x_tol = _COMMITTED_TOL * leader_loss_bracket_width(p_xi)
        return stackelberg_exact(p_xi, x_tol=x_tol).profile.x
    if not np.all((xi > 0) & np.isfinite(xi)):
        raise DomainError("xi must be positive and finite")
    xi = np.asarray(xi, dtype=float)
    if np.any(columns.eta(p, xi) * p.delta**2 <= _MIN_ETA_DELTA2):
        raise DomainError(_TOO_SMALL.format(float(xi.min())))
    # The loss-bound width only for weights jammed at b_t(0), as in
    # stackelberg_sweep; the other weights' x_tol is never read.
    jammed = columns.chi(p, best_response_target(p, 0.0), xi) > 0.0
    x_tol = np.ones_like(xi)
    x_tol[jammed] = _COMMITTED_TOL * columns.leader_loss_bracket_width(p, xi[jammed])
    return columns.stackelberg_sweep(p, xi, x_tol=x_tol)


def realized_utility(p: GameParams, xi, c_t=None):
    """Target utility when it plays g(xi) but the true weight is p.c_t.

    Overestimating the weight (xi > c_t) leaves the channel jammed:
    sqrt(c_t * p_j * log2(g/delta)), with the true c_t under the root and the
    assumed xi inside g.  Underestimating (xi <= c_t) overshoots the silence
    bound but silences the jammer: plain capacity at y = 0.  ``c_t``, an
    array of true weights, evaluates a whole column in place of p.c_t; xi
    may then be an array that broadcasts against it.
    """
    g = g_of_xi(p, xi)
    if c_t is None and isinstance(xi, (float, int)):  # math is ~3x faster on scalars
        log2g = math.log2(g / p.delta)
        if xi > p.c_t:
            return math.sqrt(p.c_t * p.p_j * log2g)
        return log2g / (p.t_aj + g / 2.0)
    c_t = p.c_t if c_t is None else np.asarray(c_t, dtype=float)
    log2g = np.log2(g / p.delta)
    return np.where(xi > c_t, np.sqrt(c_t * p.p_j * log2g), log2g / (p.t_aj + g / 2.0))


def expected_utility_closed(p: GameParams, prior: UniformPrior, xi):
    """Closed form of the prior-expected utility on the prior support.

    p_j * (t_aj + g(xi)/2) / (xi_max - xi_min)
        * [xi*xi_max - xi^2/3 - (2/3)*sqrt(xi)*xi_min^(3/2)]

    Implemented exactly as derived.  The test suite checks it against an
    independent quadrature of the realized utility; a disagreement is not
    silently patched here.  Accepts a scalar or an array of xi.
    """
    if not np.all((prior.xi_min <= xi) & (xi <= prior.xi_max)):
        raise DomainError(f"xi={xi!r} outside prior support [{prior.xi_min}, {prior.xi_max}]")
    g = g_of_xi(p, xi)
    bracket = xi * prior.xi_max - xi**2 / 3.0 - (2.0 / 3.0) * np.sqrt(xi) * prior.xi_min**1.5
    out = p.p_j * (p.t_aj + g / 2.0) * prior.density * bracket
    return float(out) if np.ndim(out) == 0 else out


def xi_opt(p: GameParams, prior: UniformPrior) -> float:
    """Assumed weight maximizing the expected utility over the prior support.

    Each pass solves the expected utility on a 241-point log grid as one
    array and keeps the bracket of the best point between its neighbours;
    the first pass spans the support, and the loop ends once the bracket is
    at most 1e-10 * xi_max wide.  Returns the best point of the last pass.
    A boundary maximizer is a legitimate outcome and is returned as such.
    """
    lo, hi = prior.xi_min, prior.xi_max
    while True:
        grid = columns.log_grid(lo, hi, _GRID_POINTS)
        k = int(np.argmax(expected_utility_closed(p, prior, grid)))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, _GRID_POINTS - 1)]
        if hi - lo <= 1e-10 * prior.xi_max:
            return float(grid[k])


def efficiency(p: GameParams, xi, c_t=None):
    """Realized utility under assumed weight xi relative to perfect knowledge.

    ``c_t``, an array of true weights, gives the whole column at once; xi
    may then be an array that broadcasts against it, such as one row per
    assumed weight.
    """
    denom = realized_utility(p, p.c_t if c_t is None else c_t, c_t)
    if np.any(denom <= 0.0):
        raise DegenerateUtility(
            f"perfect-knowledge utility is non-positive ({np.min(denom):g})"
        )
    return realized_utility(p, xi, c_t) / denom


def foc_residual(p: GameParams, prior: UniformPrior, xi: float) -> float:
    """Relative residual of the printed first-order condition for xi_opt.

    That condition was derived with the closed-form approximate leader
    strategy and with t_aj dropped against g/2, so it is exact only in that
    approximated model; this helper exists to quantify the gap.  Uses the
    lower W branch, the one that selects the root above x_hat.
    """
    w = lambert_w(-p.p_j * _LN2 * p.delta**2 * xi / 2.0, WBranch.MINUS1)
    tail = (2.0 / 3.0) * prior.xi_min**1.5 / math.sqrt(xi)
    lhs = (w / (1.0 + w)) * (prior.xi_max - xi / 3.0 - tail)
    rhs = 2.0 * prior.xi_max - (4.0 / 3.0) * xi - tail
    return (lhs - rhs) / max(abs(lhs), abs(rhs))
