"""The larger zero of chi by one-sided Newton iteration.

chi(x) = sqrt(ln(x/delta)/eta) - t_aj - x/2 is strictly concave on x > delta.
A Newton step on a concave function from a point where it is negative lands
on the same side of the nearest zero, closer to it (Fourier's condition), so
the loop below moves one way only and stops when a step no longer moves it.
Floats cannot move one way forever, and a NaN step stops the loop too, so
there is neither a tolerance nor an iteration cap.  The loop is written once,
over ``xp``, and runs on one weight or on a column of them.  This one zero
serves the Stackelberg leader and the BRD certificate alike; neither needs
the smaller one.
"""

from __future__ import annotations

import sys

from .errors import DomainError
from .model import GameParams, _eta, _kernel, _log_ratio

__all__ = ["larger_zero"]

_DBL_MAX = sys.float_info.max
_TOO_SMALL = "jammer weight {!r} is too small: ln(x/delta)/eta overflows at the Newton start"


def larger_zero_step(x, log_r, eta, t_aj, xp):
    """One Newton step on chi from x, given log_r = ln(x/delta).

    Written without chi's x/2 terms, which cancel catastrophically far right
    of the zero.
    """
    s = xp.sqrt(log_r / eta)
    return (s - t_aj - 0.5 / (eta * s)) / (0.5 - 0.5 / (x * eta * s))


@_kernel
def larger_zero(p: GameParams, x_pos, c_t=None, *, xp):
    """The larger zero of chi, right of a point x_pos where chi > 0.

    Newton from x = 4/(eta*delta), clamped to the largest double, where chi
    is negative (ln r < r) and decreasing: the iterates fall monotonically
    onto the zero.  A step that would not stay right of x_pos ends the loop
    too; only float noise takes one, where chi is flat at a double zero.
    Weights c_t replace p.c_t when given, with chi > 0 at x_pos for each.
    Refuses a weight so small that ln(x/delta)/eta overflows at the start.
    """
    # Every element steps on each pass; one that has stopped takes the same
    # step again and stays where it stopped.  Where eta*delta underflows to 0
    # the floor turns the start into an overflow, clamped like any other.
    c_t = p.c_t if c_t is None else c_t
    eta = _eta(p, c_t, xp)
    x = xp.minimum(4.0 / xp.maximum(eta * p.delta, 5e-324), _DBL_MAX)
    log_r = _log_ratio(p, x, xp)
    finite = xp.isfinite(log_r / eta)
    if not xp.all(finite):
        raise DomainError(_TOO_SMALL.format(float(xp.max(xp.where(finite, 0.0, c_t)))))
    while True:
        x_next = larger_zero_step(x, log_r, eta, p.t_aj, xp)
        down = (x_pos < x_next) & (x_next < x)
        if not xp.any(down):
            return x
        x = xp.where(down, x_next, x)
        log_r = _log_ratio(p, x, xp)
