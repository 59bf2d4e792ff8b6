"""Minimal guarded root bracketing used by the equilibrium solvers.

Both helpers take a scalar function of a float, or, when the bracket ends
are numpy arrays, a function evaluated elementwise on a whole array: each
element then follows exactly the steps its scalar call would take.
"""

from __future__ import annotations

import numpy as np

from .errors import BracketError

__all__ = ["bisect_bracket", "grow_until_negative"]


def bisect_bracket(f, lo, hi, xtol):
    """Shrink a sign-change bracket [lo, hi] of f until hi - lo <= xtol.

    Returns the final (lo, hi).  f(lo) and f(hi) must have opposite signs
    (zero counts as either side).  Array ends bisect every element by these
    rules at once; ``xtol`` may then be an array too.
    """
    if np.ndim(lo):
        return _bisect_brackets(f, lo, hi, xtol)
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


def _bisect_brackets(f, lo, hi, xtol):
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    xtol = np.broadcast_to(np.asarray(xtol, dtype=float), lo.shape)
    flo, fhi = f(lo), f(hi)
    hi = np.where(flo == 0.0, lo, hi)
    lo = np.where((fhi == 0.0) & (flo != 0.0), hi, lo)
    open_ = (flo != 0.0) & (fhi != 0.0)
    unbracketed = open_ & ((flo > 0) == (fhi > 0))
    if np.any(unbracketed):
        k = int(np.argmax(unbracketed))
        raise BracketError(f"no sign change on [{lo[k]:g}, {hi[k]:g}]")
    pos = flo > 0
    active = open_ & (hi - lo > xtol)
    while np.any(active):
        mid = 0.5 * (lo + hi)
        active &= (mid > lo) & (mid < hi)  # bracket hit float resolution
        fm = f(mid)
        root = active & (fm == 0.0)
        lo = np.where(root, mid, lo)
        hi = np.where(root, mid, hi)
        active &= ~root
        left = (fm > 0) == pos
        lo = np.where(active & left, mid, lo)
        hi = np.where(active & ~left, mid, hi)
        active &= hi - lo > xtol
    return lo, hi


def grow_until_negative(f, start, factor: float = 2.0, max_steps: int = 200):
    """Geometrically grow x from start until f(x) < 0; returns that x.

    An array start grows each element until its own f value is negative.
    """
    if np.ndim(start):
        x = np.array(start, dtype=float)
        growing = np.ones(x.shape, dtype=bool)
        for _ in range(max_steps):
            x = np.where(growing, x * factor, x)
            growing &= ~(f(x) < 0.0)
            if not np.any(growing):
                return x
        raise BracketError(f"f stayed >= 0 out to {np.max(x):g}; parameters look corrupted")
    x = start
    for _ in range(max_steps):
        x *= factor
        if f(x) < 0.0:
            return x
    raise BracketError(f"f stayed >= 0 out to {x:g}; parameters look corrupted")
