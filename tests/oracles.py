"""Independent oracles used to generate and verify expected values.

Deliberately disjoint from the library's numerics: plain Newton iteration for
the W function, in floats and, for the far tails, in Decimal (the library uses
a fixed three steps of Fritsch's iteration on ln|w| + w = ln|z| from series
and log-asymptotic starts), Decimal
arithmetic for extended-precision capacity/chi evaluations, bisection in
Decimal for both zeros of chi (the library runs Newton in floats, and only
for the larger one),
brute-force grid search for optimality claims, and adaptive quadrature
(scipy) for the prior-expected utility whose closed form the library
implements.
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
    return float(_decimal_newton_w(Decimal(z), w))


def _decimal_newton_w(zd: Decimal, w: Decimal) -> Decimal:
    """Newton on w*e^w = zd in Decimal from the start w."""
    for _ in range(200):
        ew = w.exp()
        step = (w * ew - zd) / (ew * (w + 1))
        w -= step
        if abs(step) <= Decimal("1e-40") * max(Decimal(1), abs(w)):
            return w
    raise RuntimeError(f"Decimal Newton oracle failed to converge for z={zd}")


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



def c_t_max(p: GameParams) -> float:
    """1/(p_j ln2 2 delta (delta + t_aj)) in 60-digit Decimal, from the exact binary values of p's fields."""
    delta = Decimal(p.delta)
    return float(1 / (Decimal(p.p_j) * Decimal(2).ln() * 2 * delta * (delta + Decimal(p.t_aj))))

def _x_hat(p: GameParams) -> float:
    """The maximum of chi, delta * e^(W(2/(eta*delta^2))/2), with the Newton W."""
    eta = p.c_t * p.p_j * math.log(2.0)
    return p.delta * math.exp(0.5 * newton_w_principal(2.0 / (eta * p.delta**2)))


def _decimal_chi_of(p: GameParams):
    """decimal_chi of p as a function of a Decimal x, with its constants converted once.

    Each field enters with its exact binary value, subnormals included.
    """
    eta = Decimal(p.c_t) * Decimal(p.p_j) * Decimal(2).ln()
    t_aj, delta = Decimal(p.t_aj), Decimal(p.delta)

    def chi(x: Decimal) -> Decimal:
        return ((x / delta).ln() / eta).sqrt() - t_aj - x / 2

    return chi


def c_t_tilde(p: GameParams) -> Decimal:
    """4/(delta^2 p_j ln2) e^(-2(omega+1)) / (omega+1), omega = psi(0), in 60-digit Decimal.

    A Decimal, which holds the weight past either end of the double range.
    Every field enters with its exact binary value, subnormals included.
    """
    delta = Decimal(p.delta)
    z = 2 * Decimal(p.t_aj) / (Decimal(1).exp() * delta)
    omega1 = _decimal_newton_w(z, z.ln() - z.ln().ln() if z > 3 else z) + 1
    return 4 / (delta * delta * Decimal(p.p_j) * Decimal(2).ln()) * (-2 * omega1).exp() / omega1


def best_response_misses(p: GameParams, x: float, y: float) -> tuple[float, float]:
    """How far (x, y) is from a fixed point of both best responses, in 60-digit Decimal.

    Returns (psi(y) + 1 - ln(x/delta), max(chi(x), 0) - y): the first is the
    miss of x against b_t(y) = delta e^(psi(y)+1) in the exponent.  psi is
    W of a Decimal argument, which no double bounds.  Every double enters
    with its exact binary value, subnormals included.
    """
    xd, yd, delta = Decimal(x), Decimal(y), Decimal(p.delta)
    z = 2 * (Decimal(p.t_aj) + yd) / (Decimal(1).exp() * delta)
    psi = _decimal_newton_w(z, z.ln() - z.ln().ln() if z > 3 else z)  # the float oracle's starts
    return float(psi + 1 - (xd / delta).ln()), float(max(_decimal_chi_of(p)(xd), Decimal(0)) - yd)


def exact_chi(p: GameParams, x: float) -> float:
    """chi at x in 60-digit Decimal, from the exact binary values of x and of p's fields."""
    return float(_decimal_chi_of(p)(Decimal(x)))


def _bisect_zero(chi, neg: Decimal, pos: Decimal) -> float:
    """A zero of chi between points where it is <= 0 and > 0, by 200 halvings.

    200 halvings leave the bracket far below a double's resolution.
    """
    for _ in range(200):
        mid = (neg + pos) / 2
        if chi(mid) > 0:
            pos = mid
        else:
            neg = mid
    return float(neg)


def larger_chi_zero(p: GameParams) -> float:
    """The larger zero of chi, by bisection in 60-digit Decimal arithmetic.

    The bracket starts at x_hat, where chi > 0 in a jammed game, and doubles
    its upper end until chi < 0.
    """
    chi = _decimal_chi_of(p)
    lo = Decimal(_x_hat(p))
    if not chi(lo) > 0:
        raise ValueError("chi has no positive value at x_hat: no larger zero to bracket")
    hi = 2 * lo
    while chi(hi) >= 0:
        lo, hi = hi, 2 * hi
    return _bisect_zero(chi, hi, lo)


def lower_chi_zero(p: GameParams) -> float:
    """The smaller zero of chi, by bisection in 60-digit Decimal arithmetic.

    The bracket is [delta, x_hat]: chi(delta) = -t_aj - delta/2 < 0, and
    chi(x_hat) > 0 in a jammed game.
    """
    chi = _decimal_chi_of(p)
    hi = Decimal(_x_hat(p))
    if not chi(hi) > 0:
        raise ValueError("chi has no positive value at x_hat: no lower zero to bracket")
    return _bisect_zero(chi, Decimal(p.delta), hi)


def grid_argmax(f, lo: float, hi: float, n: int) -> tuple[float, float]:
    """(argmax, max) of f over a log-spaced grid; f must accept arrays."""
    grid = np.logspace(math.log10(lo), math.log10(hi), n)
    vals = np.asarray(f(grid))
    k = int(np.argmax(vals))
    return float(grid[k]), float(vals[k])


def expected_utility_numeric(p: GameParams, prior: UniformPrior, xi: float) -> float:
    """Prior-expected utility of committing to g(xi), by adaptive quadrature.

    Integrates the realized utility against the prior density, split at the
    branch point: a true weight alpha is jammed at g when alpha < xi and
    chi(g) > 0 under alpha, that is alpha < ln(g/delta) / (p_j ln2 (t_aj + g/2)^2).
    This is the authoritative route; the library's closed form
    ``expected_utility_closed`` is checked against it.
    """
    g = g_of_xi(p, xi)
    log2g = math.log2(g / p.delta)
    a, b = prior.xi_min, prior.xi_max
    dens = prior.density
    stops_jamming = math.log(g / p.delta) / (p.p_j * math.log(2.0) * (p.t_aj + g / 2.0) ** 2)
    split = min(max(min(xi, stops_jamming), a), b)

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
