"""Real-valued Lambert W function, both real branches, plus its derivative.

This is the only transcendental kernel the package needs, so it is
self-contained: piecewise initial guesses (branch-point series, log
asymptotics) refined by a fixed three steps of Fritsch's iteration on the log
form ln|w| + w = ln|z| (Fritsch, Shafer & Crowley, CACM 16(2) 1973; Veberic,
arXiv:1209.0735).  No step forms exp(w), so the same steps hold across the
whole double range, tails included.  Floats in, floats out, in pure ``math``;
a numpy array is handed to the array form in ``columns`` (imported on first use).
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import DomainError, SingularError

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


def lambert_w(z, branch: WBranch = WBranch.PRINCIPAL):
    """Solve w * exp(w) = z for w on the requested real branch.

    Raises DomainError if z is outside the branch domain.  Accurate to
    |w e^w - z| <= 1e-12 * max(1, |z|) away from the branch point; within
    ~1e-9 of -1/e the branch-point series is used directly (absolute error
    well below 1e-10).  An array z gives an array of the same shape.
    """
    if not isinstance(z, (float, int)):
        from .columns import lambert_w as lambert_w_array
        return lambert_w_array(z, branch)
    z = float(z)
    if not math.isfinite(z):
        raise DomainError("lambert_w requires finite arguments")
    q = math.e * z + 1.0
    if q < -1e-12:
        raise DomainError("lambert_w argument below -1/e")
    q = max(q, 0.0)
    if branch is WBranch.PRINCIPAL:
        if z < -0.2:
            p = math.sqrt(2.0 * q)
            w = -1.0 + p - p * p / 3.0 + (11.0 / 72.0) * p**3
        elif z <= math.e:
            w = math.log1p(z)
        else:
            lz = math.log(z)
            w = lz - math.log(lz)
    elif branch is WBranch.MINUS1:
        if z >= 0.0:
            raise DomainError("Minus1 branch requires -1/e <= z < 0")
        if z < -0.25:
            p = math.sqrt(2.0 * q)
            w = -1.0 - p - p * p / 3.0 - (11.0 / 72.0) * p**3
        else:
            lz = math.log(-z)
            w = lz - math.log(-lz)
    else:
        raise DomainError(f"unknown branch {branch!r}")
    if q <= _SERIES_ONLY_Q or z == 0.0:
        return w
    return _fritsch(w, math.log(abs(z)))


def lambert_w_prime(z, branch: WBranch = WBranch.PRINCIPAL):
    """Derivative dW/dz = W / (z * (W + 1)) on the requested branch.

    Undefined at z = 0 (use the principal-branch limit 1 by hand if needed)
    and singular at the branch point z = -1/e where W = -1.  An array z
    gives an array of the same shape.
    """
    if not isinstance(z, (float, int)):
        from .columns import lambert_w_prime as lambert_w_prime_array
        return lambert_w_prime_array(z, branch)
    z = float(z)
    if z == 0.0:
        raise DomainError("lambert_w_prime is undefined at z = 0")
    if math.e * z + 1.0 < 1e-14:
        raise SingularError("lambert_w_prime is singular at z = -1/e")
    w = lambert_w(z, branch)
    return w / (z * (w + 1.0))


def _fritsch(w, lz, log=math.log):
    # Fritsch's step on ln|w| + w = lz, for either branch (z and w share a
    # sign).  Written once for floats and arrays: the array form passes np.log.
    for _ in range(_FRITSCH_STEPS):
        zn = lz - log(abs(w)) - w
        wp1 = w + 1.0
        t = 2.0 * wp1 * (wp1 + (2.0 / 3.0) * zn)
        w = w * (1.0 + zn / wp1 * (t - zn) / (t - 2.0 * zn))
    return w
