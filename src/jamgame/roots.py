"""The two zeros of chi by one-sided Newton iteration, in pure ``math``.

chi(x) = sqrt(ln(x/delta)/eta) - t_aj - x/2 is strictly concave on x > delta.
A Newton step on a concave function from a point where it is negative lands
on the same side of the nearest zero, closer to it (Fourier's condition), so
each loop below moves one way only and stops when a step no longer moves it.
Floats cannot move one way forever, and a NaN step stops a loop too, so there
is neither a tolerance nor an iteration cap.  The array form of the larger
zero, in ``columns``, takes the same steps.
"""

from __future__ import annotations

import math
import sys

from .best_response import _log_ratio
from .errors import DomainError
from .model import GameParams

__all__ = ["larger_zero", "lower_zero"]

_DBL_MAX = sys.float_info.max
_TOO_SMALL = "jammer weight {!r} is too small: ln(x/delta)/eta overflows at the Newton start"


def larger_zero_step(x, log_r, eta, t_aj, sqrt=math.sqrt):
    """One Newton step on chi from x, given log_r = ln(x/delta).

    Written without chi's x/2 terms, which cancel catastrophically far right
    of the zero.  The array form passes np.sqrt.
    """
    s = sqrt(log_r / eta)
    return (s - t_aj - 0.5 / (eta * s)) / (0.5 - 0.5 / (x * eta * s))


def larger_zero(p: GameParams, x_pos: float) -> float:
    """The larger zero of chi, right of a point x_pos where chi > 0.

    Newton from x = 4/(eta*delta), clamped to the largest double, where chi
    is negative (ln r < r) and decreasing: the iterates fall monotonically
    onto the zero.  A step that would not stay right of x_pos ends the loop
    too; only float noise takes one, where chi is flat at a double zero.
    Refuses a weight so small that ln(x/delta)/eta overflows at the start.
    """
    x = min(4.0 / (p.eta * p.delta), _DBL_MAX)
    log_r = _log_ratio(p, x)
    if not math.isfinite(log_r / p.eta):
        raise DomainError(_TOO_SMALL.format(p.c_t))
    while True:
        x_next = larger_zero_step(x, log_r, p.eta, p.t_aj)
        if not x_pos < x_next < x:
            return x
        x, log_r = x_next, _log_ratio(p, x_next)


def lower_zero(p: GameParams, x_pos: float) -> float:
    """The smaller zero of chi, left of a point x_pos where chi > 0.

    In s = sqrt(ln(x/delta)), chi is f(s) = s/sqrt(eta) - t_aj - delta*e^(s^2)/2:
    concave, with f(0) < 0 and a finite slope 1/sqrt(eta) at s = 0, where x's
    own slope is infinite.  Newton from s = 0 rises monotonically onto the
    zero; as in larger_zero, a step that would not stay left of x_pos ends it.
    """
    k = 1.0 / math.sqrt(p.eta)
    s, x = 0.0, p.delta
    while True:
        s_next = (p.t_aj + x * (0.5 - s * s)) / (k - s * x)
        x_next = p.delta * math.exp(s_next * s_next)
        if not (s_next > s and x_next < x_pos):
            return x
        s, x = s_next, x_next
