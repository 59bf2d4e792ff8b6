"""Independent oracles used to generate and verify expected values.

Deliberately disjoint from the library's numerics: plain Newton iteration for
the W function, in floats and, for the far tails, in Decimal (the library uses
a fixed three steps of Fritsch's iteration on ln|w| + w = ln|z| from series
and log-asymptotic starts), Decimal
arithmetic for extended-precision capacity/chi evaluations, brute-force grid
search for optimality claims, and adaptive quadrature (scipy) for the
prior-expected utility whose closed form the library implements.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext

import numpy as np
from scipy.integrate import quad

from jamgame.belief import UniformPrior, g_of_xi
from jamgame.model import GameParams

getcontext().prec = 60


def newton_w(z: float, w0: float, tol: float = 1e-15) -> float:
    """Solve w*e^w = z by Newton iteration w <- (w^2 + z e^-w)/(1 + w)."""
    w = w0
    for _ in range(200):
        wn = (w * w + z * math.exp(-w)) / (1.0 + w)
        if abs(wn - w) <= tol * max(1.0, abs(wn)):
            return wn
        w = wn
    raise RuntimeError(f"Newton oracle failed to converge for z={z}")


def newton_w_principal(z: float) -> float:
    w0 = math.log(z) if z > math.e else (z if z > -0.3 else -0.9)
    return newton_w(z, w0)


def newton_w_minus1(z: float) -> float:
    lz = math.log(-z)
    w0 = lz - math.log(-lz) if z > -0.3 else -1.2
    return newton_w(z, w0)


def decimal_newton_w(z: float, branch_minus1: bool = False) -> float:
    """Solve w*e^w = z by Newton iteration in 60-digit Decimal arithmetic.

    Decimal exponents reach far past the double range, so e^w neither
    overflows nor underflows for any double z: this covers the far tails
    where float iteration breaks down.  Starts as the float oracles do.
    """
    if branch_minus1:
        lz = math.log(-z)
        w = Decimal(lz - math.log(-lz) if z > -0.3 else -1.2)
    else:
        w = Decimal(math.log(z) if z > math.e else (z if z > -0.3 else -0.9))
    zd = Decimal(z)
    for _ in range(200):
        ew = w.exp()
        step = (w * ew - zd) / (ew * (w + 1))
        w -= step
        if abs(step) <= Decimal("1e-40") * max(Decimal(1), abs(w)):
            return float(w)
    raise RuntimeError(f"Decimal Newton oracle failed to converge for z={z}")


def central_diff(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def decimal_capacity(x: str, y: str, t_aj: str, delta: str) -> float:
    """Capacity evaluated from scratch in 60-digit Decimal arithmetic."""
    xd, yd = Decimal(x), Decimal(y)
    cyc = Decimal(t_aj) + yd + xd / 2
    return float((xd / Decimal(delta)).ln() / Decimal(2).ln() / cyc)


def decimal_chi(x: str, t_aj: str, delta: str, c_t: str, p_j: str) -> float:
    xd = Decimal(x)
    eta = Decimal(c_t) * Decimal(p_j) * Decimal(2).ln()
    return float(((xd / Decimal(delta)).ln() / eta).sqrt() - Decimal(t_aj) - xd / 2)


def grid_argmax(f, lo: float, hi: float, n: int) -> tuple[float, float]:
    """(argmax, max) of f over a log-spaced grid; f must accept arrays."""
    grid = np.logspace(math.log10(lo), math.log10(hi), n)
    vals = np.asarray(f(grid))
    k = int(np.argmax(vals))
    return float(grid[k]), float(vals[k])


def expected_utility_numeric(p: GameParams, prior: UniformPrior, xi: float) -> float:
    """Prior-expected utility of committing to g(xi), by adaptive quadrature.

    Integrates the realized utility against the prior density, split at the
    branch point alpha = xi.  This is the authoritative route; the library's
    closed form ``expected_utility_closed`` is checked against it.
    """
    g = g_of_xi(p, xi)
    log2g = math.log2(g / p.delta)
    a, b = prior.xi_min, prior.xi_max
    dens = prior.density
    split = min(max(xi, a), b)

    total = 0.0
    if split > a:
        val, _ = quad(
            lambda alpha: math.sqrt(alpha * p.p_j * log2g) * dens,
            a,
            split,
            epsabs=0.0,
            epsrel=1e-10,
            limit=200,
        )
        total += val
    if b > split:
        free = log2g / (p.t_aj + g / 2.0) * dens
        val, _ = quad(lambda alpha: free, split, b, epsabs=0.0, epsrel=1e-10, limit=200)
        total += val
    return total
