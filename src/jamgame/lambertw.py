"""Real-valued Lambert W function, both real branches, plus its derivative.

This is the only transcendental kernel the package needs, so it is
self-contained: piecewise initial guesses (branch-point series, log
asymptotics) refined by a fixed three steps of Fritsch's iteration on the log
form ln|w| + w = ln|z| (Fritsch, Shafer & Crowley, CACM 16(2) 1973; Veberic,
arXiv:1209.0735).  No step forms exp(w), so the same steps hold across the
whole double range, tails included.  The guesses and steps are written once,
over a namespace argument ``xp``: a float runs them in pure ``math``, and an
array on numpy, which is imported only then (``model._kernel``).
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import DomainError, SingularError
from .model import _kernel

__all__ = ["WBranch", "lambert_w", "lambert_w_prime", "BRANCH_POINT"]

_INV_E = math.exp(-1.0)
#: Left edge of the real domain, -1/e.  Both branches meet here with W = -1.
BRANCH_POINT = -_INV_E

# Below this value of e*z + 1 the step divides by 1 + w ~ 0; the
# branch-point series alone is already far more accurate than required there.
_SERIES_ONLY_Q = 1e-10

# The iteration converges quartically; two steps from the log-asymptotic
# guess leave ~4e-13 relative error just above z = -0.25 on the lower branch,
# three meet 1e-14 everywhere.
_FRITSCH_STEPS = 3


class WBranch(Enum):
    """The two real branches of W."""

    PRINCIPAL = 0   # W >= -1, defined for z >= -1/e
    MINUS1 = -1     # W <= -1, defined for -1/e <= z < 0


@_kernel
def lambert_w(z, branch: WBranch = WBranch.PRINCIPAL, *, xp):
    """Solve w * exp(w) = z for w on the requested real branch.

    Raises DomainError if z is outside the branch domain.  Accurate to
    |w e^w - z| <= 1e-12 * max(1, |z|) away from the branch point; within
    ~1e-9 of -1/e the branch-point series is used directly (absolute error
    well below 1e-10).  An array z gives an array of the same shape.
    """
    # Each guess is taken on an input clamped into its own domain, so every
    # branch of each where is finite on every element.  Where no step may be
    # taken (at the branch point, and at z = 0) Fritsch runs on the stand-in
    # w = 1, ln|z| = 1, a fixed point, and where drops the result.
    q = _domain(z, branch, xp)
    if branch is WBranch.PRINCIPAL:
        lz = xp.log(xp.maximum(z, math.e))
        w = xp.where(z <= math.e, xp.log1p(z), lz - xp.log(lz))
        w = xp.where(z < -0.2, _branch_series(q, +1.0, xp), w)
    else:
        lz = xp.log(-z)  # _domain refused z >= 0
        w = xp.where(z < -0.25, _branch_series(q, -1.0, xp), lz - xp.log(-lz))
    step = (q > _SERIES_ONLY_Q) & (z != 0.0)
    lz = xp.log(abs(xp.where(step, z, math.e)))
    return xp.where(step, _fritsch(xp.where(step, w, 1.0), lz, xp), w)


def _domain(z, branch: WBranch, xp):
    """e*z + 1, clamped at 0, for a z on the branch's real domain; any other z or branch is refused.

    e*z + 1 >= 0 characterizes the real domain; rounding in a caller's own
    computation of -1/e is tolerated.
    """
    if not xp.all(xp.isfinite(z)):
        raise DomainError("lambert_w requires finite arguments")
    q = math.e * xp.minimum(z, 1.0) + 1.0  # only matters near -1/e
    if xp.any(q < -1e-12):
        raise DomainError("lambert_w argument below -1/e")
    if branch is WBranch.MINUS1 and xp.any(z >= 0.0):
        raise DomainError("Minus1 branch requires -1/e <= z < 0")
    if not isinstance(branch, WBranch):
        raise DomainError(f"unknown branch {branch!r}")
    return xp.maximum(q, 0.0)


@_kernel
def lambert_w_prime(z, branch: WBranch = WBranch.PRINCIPAL, *, xp):
    """Derivative dW/dz = W / (z * (W + 1)) on the requested branch.

    Undefined at z = 0 (use the principal-branch limit 1 by hand if needed)
    and singular at the branch point z = -1/e where W = -1.  An array z
    gives an array of the same shape.
    """
    if xp.any(z == 0.0):
        raise DomainError("lambert_w_prime is undefined at z = 0")
    if xp.any(math.e * z + 1.0 < 1e-14):
        raise SingularError("lambert_w_prime is singular at z = -1/e")
    w = lambert_w(z, branch, xp=xp)
    return w / (z * (w + 1.0))


def _branch_series(q, sign, xp):
    # Expansion around the branch point in p = sqrt(2(e*z + 1)), q = e*z + 1:
    # sign=+1 gives the principal side, sign=-1 the lower one (negating p is
    # exact in every term).
    p = sign * xp.sqrt(2.0 * q)
    return -1.0 + p - p * p / 3.0 + (11.0 / 72.0) * p**3


def _fritsch(w, lz, xp):
    # Fritsch's step on ln|w| + w = lz, for either branch (z and w share a sign).
    for _ in range(_FRITSCH_STEPS):
        zn = lz - xp.log(abs(w)) - w
        wp1 = w + 1.0
        t = 2.0 * wp1 * (wp1 + (2.0 / 3.0) * zn)
        w = w * (1.0 + zn / wp1 * (t - zn) / (t - 2.0 * zn))
    return w
