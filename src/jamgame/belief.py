"""Leader play under an uncertain jammer cost weight.

The target does not know the true weight c_t, only a prior for it.  It picks
an assumed weight xi, commits to the corresponding Stackelberg strategy
g(xi) (the x of stackelberg_exact at weight xi), and the true jammer
best-responds.  This module evaluates the realized utility of that play, its
expectation under a uniform prior (by the printed closed form), the
expectation-maximizing assumed weight, and the resulting efficiency relative
to perfect knowledge.  Each quantity but xi_opt is a kernel
(``model._kernel``): a float xi runs in ``math`` and gives a float, and an
array of weights is solved in one numpy pass and gives an array.

Everything here runs on the zero-transmit-cost convention (the constant
c_t_star term cancels from every comparison of interest).
"""

from __future__ import annotations

import math

import numpy as np

from .best_response import _c_t_tilde, _delta_squared, chi
from .errors import DegenerateUtility, DomainError, InvalidParams
from .figures import log_grid
from .lambertw import WBranch, lambert_w
from .model import GameParams, _finite, _kernel, _log_ratio, _Record
from .stackelberg import stackelberg_x

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


class UniformPrior(_Record):
    """Uniform density for the jammer weight on [xi_min, xi_max].

    The bounds must keep xi_max / xi_min and xi_max**2 finite: the log grid
    of xi_opt divides them, and the closed form of the expected utility
    squares xi_max.
    """

    def __init__(self, xi_min: float, xi_max: float):
        self._set(xi_min, xi_max)
        if not (0 < self.xi_min < self.xi_max):
            raise InvalidParams(f"need 0 < xi_min < xi_max, got ({self.xi_min!r}, {self.xi_max!r})")
        if not (math.isfinite(self.xi_max / self.xi_min) and math.isfinite(self.xi_max * self.xi_max)):
            raise InvalidParams(
                f"xi_max / xi_min and xi_max**2 must be finite, got ({self.xi_min!r}, {self.xi_max!r})"
            )

    @property
    def density(self) -> float:
        return 1.0 / (self.xi_max - self.xi_min)


def _float_if_scalar(out):
    """A 0-d result, such as the one of a numpy scalar or a 0-d array, as a Python float; an array as it is."""
    return float(out) if np.ndim(out) == 0 else out


@_kernel
def g_of_xi(p: GameParams, xi, *, xp):
    """Leader strategy if the jammer's weight were xi.

    The leader's x of stackelberg_exact with weight xi, stackelberg_x(p, xi):
    the larger zero of chi, or b_t(0) when xi is large enough that jamming is
    inhibited there.  Decreasing in xi.  It refuses a weight that is not
    positive and finite, and exactly the weights that stackelberg_exact
    refuses.
    """
    if not xp.all((xi > 0) & xp.isfinite(xi)):
        raise DomainError("xi must be positive and finite")
    return _float_if_scalar(stackelberg_x(p, xi))


@_kernel
def realized_utility(p: GameParams, xi, c_t=None, *, xp):
    """Target utility when it plays g(xi) but the true weight is p.c_t.

    Overestimating the weight (xi > c_t) leaves the channel jammed wherever
    the true jammer still jams at g (chi > 0 under c_t):
    sqrt(c_t * p_j * log2(g/delta)), with the true c_t under the root and the
    assumed xi inside g.  It does not jam at g = b_t(0), the leader's x for
    every xi >= c_t_tilde, once c_t >= c_t_tilde too.  Underestimating
    (xi <= c_t) overshoots the silence bound but silences the jammer: plain
    capacity at y = 0, as is every play the true jammer leaves unjammed.
    ``c_t``, an array of true weights, evaluates a whole column in place of
    p.c_t; xi may then be an array that broadcasts against it.  Refused past
    the largest double.
    """
    g = g_of_xi(p, xi)
    c_t = p.c_t if c_t is None else c_t
    log2g = _log_ratio(p, g, xp, "log2")
    jammed = (xi > c_t) & (chi(p, g, c_t) > 0.0)
    u = xp.where(jammed, xp.sqrt(c_t * p.p_j * log2g), log2g / (p.t_aj + g / 2.0))
    return _float_if_scalar(_finite("realized_utility", u, xp))


@_kernel
def expected_utility_closed(p: GameParams, prior: UniformPrior, xi, *, xp):
    """Closed form of the prior-expected utility on the prior support.

    p_j * (t_aj + g(xi)/2) / (xi_max - xi_min)
        * [xi*xi_max - xi^2/3 - (2/3)*sqrt(xi)*xi_min^(3/2)]

    evaluated at min(xi, c_t_tilde).  The printed form is exact for xi <=
    c_t_tilde.  Every larger xi commits to g(xi) = b_t(0), where exactly the
    true jammers with c_t < c_t_tilde jam, so the expectation is the one at
    c_t_tilde.  The test suite checks it against an independent quadrature
    of the realized utility.  Accepts a scalar or an array of xi.
    """
    if not xp.all((prior.xi_min <= xi) & (xi <= prior.xi_max)):
        raise DomainError(f"xi={xi!r} outside prior support [{prior.xi_min}, {prior.xi_max}]")
    xi = xp.minimum(xi, _c_t_tilde(p))
    g = g_of_xi(p, xi)
    bracket = xi * prior.xi_max - xi**2 / 3.0 - (2.0 / 3.0) * xp.sqrt(xi) * prior.xi_min**1.5
    return _float_if_scalar(p.p_j * (p.t_aj + g / 2.0) * prior.density * bracket)


def xi_opt(p: GameParams, prior: UniformPrior) -> float:
    """Assumed weight maximizing the expected utility over the prior support.

    Each pass solves the expected utility on a 241-point log grid as one
    array and keeps the bracket of the best point between its neighbours;
    the first pass spans the support, and the loop ends once the bracket is
    at most 1e-10 * xi_max wide.  Returns the best point of the last pass.
    A boundary maximizer is a legitimate outcome and is returned as such.
    Ties go to the first (smallest) maximizer of each pass: np.argmax takes
    the first, and the expected utility is exactly constant for every xi
    past c_t_tilde.
    """
    lo, hi = prior.xi_min, prior.xi_max
    while True:
        grid = log_grid(lo, hi, _GRID_POINTS)
        k = int(np.argmax(expected_utility_closed(p, prior, grid)))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, _GRID_POINTS - 1)]
        if hi - lo <= 1e-10 * prior.xi_max:
            return float(grid[k])


@_kernel
def efficiency(p: GameParams, xi, c_t=None, *, xp):
    """Realized utility under assumed weight xi relative to perfect knowledge.

    ``c_t``, an array of true weights, gives the whole column at once; xi
    may then be an array that broadcasts against it, such as one row per
    assumed weight.  Refused past the largest double.
    """
    denom = realized_utility(p, p.c_t if c_t is None else c_t, c_t)
    if xp.any(denom <= 0.0):
        raise DegenerateUtility(
            f"perfect-knowledge utility is non-positive ({xp.min(denom):g})"
        )
    return _float_if_scalar(_finite("efficiency", realized_utility(p, xi, c_t) / denom, xp))


def foc_residual(p: GameParams, prior: UniformPrior, xi: float) -> float:
    """Relative residual of the printed first-order condition for xi_opt.

    That condition was derived with the closed-form approximate leader
    strategy and with t_aj dropped against g/2, so it is exact only in that
    approximated model; this helper exists to quantify the gap.  Uses the
    lower W branch, the one that selects the root above x_hat.
    """
    w = lambert_w(-p.p_j * _LN2 * _delta_squared(p) * xi / 2.0, WBranch.MINUS1)
    tail = (2.0 / 3.0) * prior.xi_min**1.5 / math.sqrt(xi)
    lhs = (w / (1.0 + w)) * (prior.xi_max - xi / 3.0 - tail)
    rhs = 2.0 * prior.xi_max - (4.0 / 3.0) * xi - tail
    return (lhs - rhs) / max(abs(lhs), abs(rhs))
