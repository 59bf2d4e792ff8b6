"""Minimal guarded root bracketing used by the equilibrium solvers.

Both helpers take a function of a float; their array forms, which follow the
same steps for every element of an array of brackets, are in ``columns``.
"""

from __future__ import annotations

from .errors import BracketError

__all__ = ["bisect_bracket", "grow_until_negative"]

# grow_until_negative multiplies x by this factor at most this many times.
_GROW_FACTOR = 2.0
_GROW_STEPS = 200


def bisect_bracket(f, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Shrink a sign-change bracket [lo, hi] of f until hi - lo <= xtol.

    Returns the final (lo, hi).  f(lo) and f(hi) must have opposite signs
    (zero counts as either side).
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo, lo
    if fhi == 0.0:
        return hi, hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(f"no sign change on [{lo:g}, {hi:g}]")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket hit float resolution
            break
        fm = f(mid)
        if fm == 0.0:
            return mid, mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return lo, hi


def grow_until_negative(f, start: float) -> float:
    """Geometrically grow x from start until f(x) < 0; returns that x."""
    x = start
    for _ in range(_GROW_STEPS):
        x *= _GROW_FACTOR
        if f(x) < 0.0:
            return x
    raise BracketError(f"f stayed >= 0 out to {x:g}; parameters look corrupted")
