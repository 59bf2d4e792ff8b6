"""The larger zero of chi by one-sided Newton iteration, in pure ``math``.

chi(x) = sqrt(ln(x/delta)/eta) - t_aj - x/2 is strictly concave on x > delta.
A Newton step on a concave function from a point where it is negative lands
on the same side of the nearest zero, closer to it (Fourier's condition), so
the loop below moves one way only and stops when a step no longer moves it.
Floats cannot move one way forever, and a NaN step stops the loop too, so
there is neither a tolerance nor an iteration cap.  The array form, in
``columns``, takes the same steps.  This one zero serves the Stackelberg
leader and the BRD certificate alike; neither needs the smaller one.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError
from .model import GameParams, _log_ratio

__all__ = ["larger_zero"]

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
    den = p.eta * p.delta
    x = min(4.0 / den, _DBL_MAX) if den else _DBL_MAX
    log_r = _log_ratio(p, x)
    if not math.isfinite(log_r / p.eta):
        raise DomainError(_TOO_SMALL.format(p.c_t))
    while True:
        x_next = larger_zero_step(x, log_r, p.eta, p.t_aj)
        if not x_pos < x_next < x:
            return x
        x, log_r = x_next, _log_ratio(p, x_next)
