"""Real-valued Lambert W function, both real branches, plus its derivative.

This is the only transcendental kernel the package needs, so it is
self-contained: piecewise initial guesses (branch-point series, log
asymptotics) refined by Halley iteration to machine precision.
In the far tails (|ln|z|| above ~690), where exp(w) would overflow or lose
bits to underflow, Newton iteration runs on the log form w + ln|w| = ln|z|
instead (Veberic, arXiv:1209.0735).  Floats in, floats out, in pure ``math``;
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

# Below this value of e*z + 1 the Halley denominator degenerates; the
# branch-point series alone is already far more accurate than required there.
_SERIES_ONLY_Q = 1e-10

# Beyond these arguments (principal z > 1e300, lower branch -1e-300 < z < 0)
# the Halley step's exp(w) overflows or turns subnormal; iterate in log space.
_LOG_SPACE_Z = 1e300


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
            if z > _LOG_SPACE_Z:
                return _log_newton(w, lz)
    elif branch is WBranch.MINUS1:
        if z >= 0.0:
            raise DomainError("Minus1 branch requires -1/e <= z < 0")
        if z < -0.25:
            p = math.sqrt(2.0 * q)
            w = -1.0 - p - p * p / 3.0 - (11.0 / 72.0) * p**3
        else:
            lz = math.log(-z)
            w = lz - math.log(-lz)
            if z > -1.0 / _LOG_SPACE_Z:
                return _log_newton(w, lz)
    else:
        raise DomainError(f"unknown branch {branch!r}")
    if q <= _SERIES_ONLY_Q:
        return w
    return _halley(w, z)


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


def _log_newton(w: float, lz: float) -> float:
    # Newton on w + ln|w| = lz, either branch: four steps reach the fixed point
    # from the log-asymptotic start, whose error is below ln(lz)/lz.
    for _ in range(4):
        w = w - (w + math.log(abs(w)) - lz) / (1.0 + 1.0 / w)
    return w


def _halley(w: float, z: float) -> float:
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - z
        wp1 = w + 1.0
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= dw
        if abs(dw) <= 1e-16 * (2.0 + abs(w)):
            break
    return w
