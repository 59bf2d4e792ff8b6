"""Real-valued Lambert W function, both real branches, plus its derivative.

This is the only transcendental kernel the package needs, so it is
self-contained: piecewise initial guesses (branch-point series, log
asymptotics) refined by vectorized Halley iteration to machine precision.
In the far tails (|ln|z|| above ~690), where exp(w) would overflow or lose
bits to underflow, Newton iteration runs on the log form w + ln|w| = ln|z|
instead (Veberic, arXiv:1209.0735).  Scalars in, scalar out; numpy arrays
in, arrays out.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

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
    well below 1e-10).
    """
    if isinstance(z, (float, int)):
        return _lambert_w_scalar(float(z), branch)
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    shape = arr.shape
    arr = np.atleast_1d(arr).ravel()
    if not np.all(np.isfinite(arr)):
        raise DomainError("lambert_w requires finite arguments")

    # e*z + 1 >= 0 characterizes the real domain; tolerate rounding in a
    # caller's own computation of -1/e.
    q = np.e * np.minimum(arr, 1.0) + 1.0  # only matters near -1/e
    if np.any(q < -1e-12):
        raise DomainError("lambert_w argument below -1/e")
    q = np.clip(q, 0.0, None)

    if branch is WBranch.PRINCIPAL:
        w = _principal(arr, q)
    elif branch is WBranch.MINUS1:
        if np.any(arr >= 0.0):
            raise DomainError("Minus1 branch requires -1/e <= z < 0")
        w = _minus1(arr, q)
    else:
        raise DomainError(f"unknown branch {branch!r}")
    return float(w[0]) if scalar else w.reshape(shape)


def lambert_w_prime(z, branch: WBranch = WBranch.PRINCIPAL):
    """Derivative dW/dz = W / (z * (W + 1)) on the requested branch.

    Undefined at z = 0 (use the principal-branch limit 1 by hand if needed)
    and singular at the branch point z = -1/e where W = -1.
    """
    if isinstance(z, (float, int)):
        zf = float(z)
        if zf == 0.0:
            raise DomainError("lambert_w_prime is undefined at z = 0")
        if math.e * zf + 1.0 < 1e-14:
            raise SingularError("lambert_w_prime is singular at z = -1/e")
        w = _lambert_w_scalar(zf, branch)
        return w / (zf * (w + 1.0))
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr == 0.0):
        raise DomainError("lambert_w_prime is undefined at z = 0")
    if np.any(np.e * arr + 1.0 < 1e-14):
        raise SingularError("lambert_w_prime is singular at z = -1/e")
    w = np.atleast_1d(lambert_w(arr, branch))
    out = w / (arr * (w + 1.0))
    return float(out[0]) if scalar else out


def _log_newton(w, lz):
    """Newton on w + ln|w| = lz from the log-asymptotic start; either branch.

    Works elementwise on floats or arrays; four steps reach the fixed point
    from the asymptotic guess, whose error is below ln(lz)/lz.
    """
    for _ in range(4):
        w = w - (w + np.log(np.abs(w)) - lz) / (1.0 + 1.0 / w)
    return w


def _halley_scalar(w: float, z: float) -> float:
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - z
        wp1 = w + 1.0
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= dw
        if abs(dw) <= 1e-16 * (2.0 + abs(w)):
            break
    return w


def _lambert_w_scalar(z: float, branch: WBranch) -> float:
    # numpy-free path: scalar calls dominate the iterative solvers.
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
                return float(_log_newton(w, lz))
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
                return float(_log_newton(w, lz))
    else:
        raise DomainError(f"unknown branch {branch!r}")
    if q <= _SERIES_ONLY_Q:
        return w
    return _halley_scalar(w, z)


def _branch_series(q: np.ndarray, sign: float) -> np.ndarray:
    # Expansion around the branch point in p = sqrt(2(e*z + 1));
    # sign=+1 gives the principal side, sign=-1 the lower side.
    p = sign * np.sqrt(2.0 * q)
    return -1.0 + p - p * p / 3.0 + (11.0 / 72.0) * p ** 3


def _halley(w: np.ndarray, z: np.ndarray, active: np.ndarray) -> np.ndarray:
    # Standard Halley refinement of w*e^w = z; ~3-5 sweeps suffice.
    for _ in range(100):
        if not np.any(active):
            break
        wa, za = w[active], z[active]
        ew = np.exp(wa)
        f = wa * ew - za
        wp1 = wa + 1.0
        dw = f / (ew * wp1 - (wa + 2.0) * f / (2.0 * wp1))
        wa = wa - dw
        w[active] = wa
        still = np.abs(dw) > 1e-16 * (2.0 + np.abs(wa))
        idx = np.flatnonzero(active)
        active[idx[~still]] = False
    return w


def _principal(z: np.ndarray, q: np.ndarray) -> np.ndarray:
    w = np.empty_like(z)

    near = z < -0.2
    w[near] = _branch_series(q[near], +1.0)
    mid = (~near) & (z <= np.e)
    w[mid] = np.log1p(z[mid])
    far = z > np.e
    lz = np.log(z[far])
    w[far] = lz - np.log(lz)

    huge = z > _LOG_SPACE_Z
    w[huge] = _log_newton(w[huge], np.log(z[huge]))
    return _halley(w, z, (q > _SERIES_ONLY_Q) & ~huge)


def _minus1(z: np.ndarray, q: np.ndarray) -> np.ndarray:
    w = np.empty_like(z)

    near = z < -0.25
    w[near] = _branch_series(q[near], -1.0)
    tail = ~near
    lz = np.log(-z[tail])
    w[tail] = lz - np.log(-lz)

    tiny = z > -1.0 / _LOG_SPACE_Z
    w[tiny] = _log_newton(w[tiny], np.log(-z[tiny]))
    return _halley(w, z, (q > _SERIES_ONLY_Q) & ~tiny)
