"""Independent numerics for checking jamgame's outputs.

Nothing here imports jamgame.  The W function is plain Newton iteration
(the program uses Halley steps from series starts), chi and capacity are
re-derived from the model's definitions, the larger root of chi comes from
bisection in log space, the Nash point from iterating the best responses,
and optimality claims from grid search.  Decimal versions of chi and
capacity give an extended-precision view of the scalar results.

Parameters are plain mappings with the config keys (t_aj, delta, p_t, p_j,
t_p, c_t, c_t_star); the vectorised helpers accept numpy arrays for c_t.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

LN2 = math.log(2.0)
INV_E = math.exp(-1.0)


# ---------------------------------------------------------------------------
# Lambert W by Newton iteration  w <- (w^2 + z e^-w) / (1 + w)

def _newton(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    for _ in range(200):
        wn = (w * w + z * np.exp(-w)) / (1.0 + w)
        done = np.abs(wn - w) <= 1e-15 * np.maximum(1.0, np.abs(wn))
        w = wn
        if np.all(done):
            return w
    raise ArithmeticError("Newton W oracle did not converge")


def w0(z):
    """Principal branch, z > -1/e (vectorised)."""
    z = np.asarray(z, dtype=float)
    start = np.where(z > math.e, np.log(np.maximum(z, math.e)), np.where(z > -0.3, z, -0.9))
    out = _newton(z, start)
    return float(out) if out.ndim == 0 else out


def wm1(z):
    """Lower branch, -1/e < z < 0 (vectorised)."""
    z = np.asarray(z, dtype=float)
    lz = np.log(-z)
    start = np.where(z > -0.3, lz - np.log(-lz), -1.2)
    out = _newton(z, start)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# The game, from its definitions

def eta(p, c_t=None):
    return (p["c_t"] if c_t is None else c_t) * p["p_j"] * LN2


def b_t(p, y):
    """Target best response delta * e^(W(2(t_aj+y)/(e delta)) + 1)."""
    return p["delta"] * np.exp(w0(2.0 * (p["t_aj"] + np.asarray(y, float)) / (math.e * p["delta"])) + 1.0)


def chi(p, x, c_t=None):
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.log(x / p["delta"]) / eta(p, c_t)) - p["t_aj"] - x / 2.0


def b_j(p, x, c_t=None):
    return np.maximum(chi(p, x, c_t), 0.0)


def capacity(p, x, y):
    x = np.asarray(x, dtype=float)
    return np.log2(x / p["delta"]) / (p["t_aj"] + y + x / 2.0)


def utilities(p, x, y, c_t=None):
    c = capacity(p, x, y)
    ct = p["c_t"] if c_t is None else c_t
    return c - p["c_t_star"] * p["t_p"] * p["p_t"], -c - ct * np.asarray(y, float) * p["p_j"]


def x_hat(p, c_t=None):
    """Maximiser of chi: delta * e^(W(2/(eta delta^2))/2)."""
    return p["delta"] * np.exp(0.5 * w0(2.0 / (eta(p, c_t) * p["delta"] ** 2)))


def leader_utility(p, x, c_t=None):
    """Target utility when the jammer best-responds to the commitment x."""
    x = np.asarray(x, dtype=float)
    ct = p["c_t"] if c_t is None else c_t
    log2x = np.log2(x / p["delta"])
    jammed = np.sqrt(ct * p["p_j"] * log2x)
    free = log2x / (p["t_aj"] + x / 2.0)
    return np.where(chi(p, x, c_t) > 0.0, jammed, free) - p["c_t_star"] * p["t_p"] * p["p_t"]


def thresholds(p):
    """(c_t_tilde, c_t_max) from the border and never-jam conditions."""
    omega = w0(2.0 * p["t_aj"] / (math.e * p["delta"]))
    tilde = 4.0 / (p["delta"] ** 2 * p["p_j"] * LN2) * math.exp(-2.0 * (omega + 1.0)) / (omega + 1.0)
    c_max = 1.0 / (p["p_j"] * LN2 * 2.0 * p["delta"] * (p["delta"] + p["t_aj"]))
    return tilde, c_max


def approx_domain_limit(p) -> float:
    """Largest c_t for which -eta delta^2 / 2 stays at or above -1/e."""
    return 2.0 * INV_E / (p["p_j"] * LN2 * p["delta"] ** 2)


def x_hat_limit(p) -> float:
    """Largest c_t for which x_hat >= 2 delta, i.e. W(2/(eta delta^2)) >= 2 ln 2."""
    return 1.0 / (4.0 * LN2 * LN2 * p["delta"] ** 2 * p["p_j"])


def leader_loss_width(p, c_t=None) -> float:
    """Default bracket width of the exact Stackelberg solve (documented bound)."""
    ct = p["c_t"] if c_t is None else c_t
    loss = 1e-6 * abs(float(leader_utility(p, x_hat(p, ct), ct)))
    return loss / (math.sqrt(ct * p["p_j"]) / (4.0 * p["delta"] * LN2))


def chi_larger_root(p, c_t=None):
    """Larger zero of chi by bisection on log x above x_hat (vectorised in c_t)."""
    ct = np.asarray(p["c_t"] if c_t is None else c_t, dtype=float)
    lo = np.log(np.broadcast_to(x_hat(p, ct), ct.shape).astype(float))
    hi = lo.copy()
    for _ in range(200):
        neg = chi(p, np.exp(hi), ct) < 0.0
        if np.all(neg):
            break
        hi = np.where(neg, hi, hi + 1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        pos = chi(p, np.exp(mid), ct) > 0.0
        lo, hi = np.where(pos, mid, lo), np.where(pos, hi, mid)
        if np.all(hi - lo <= 1e-15 * np.abs(hi)):
            break
    out = np.exp(0.5 * (lo + hi))
    return float(out) if out.ndim == 0 else out


def committed_x(p, c_t=None):
    """Leader optimum for weight c_t: b_t(0) if jamming is inhibited there, else the larger chi root."""
    ct = np.asarray(p["c_t"] if c_t is None else c_t, dtype=float)
    x0 = float(b_t(p, 0.0))
    inhibited = chi(p, x0, ct) <= 0.0
    if np.all(inhibited):
        out = np.full(ct.shape, x0)
    else:
        out = np.where(inhibited, x0, chi_larger_root(p, ct))
    return float(out) if out.ndim == 0 else out


def nash_point(p, c_t=None):
    """Nash equilibrium as the limit of simultaneous best responses (vectorised in c_t)."""
    ct = np.asarray(p["c_t"] if c_t is None else c_t, dtype=float)
    x = np.full(ct.shape, float(b_t(p, 0.0)))
    y = np.zeros(ct.shape)
    for _ in range(2000):
        xn, yn = b_t(p, y), b_j(p, x, ct)
        step = np.maximum(np.abs(xn - x), np.abs(yn - y)) / p["delta"]
        x, y = xn, yn
        if np.all(step <= 1e-13 * x / p["delta"]):
            break
    else:
        raise ArithmeticError("best-response iteration did not settle")
    return (float(x), float(y)) if ct.ndim == 0 else (x, y)


def realized_utility(p, xi, c_t=None):
    """Target utility when it commits to the optimum for weight xi and the true weight is c_t."""
    ct = np.asarray(p["c_t"] if c_t is None else c_t, dtype=float)
    g = committed_x(p, xi)
    log2g = np.log2(g / p["delta"])
    return np.where(xi > ct, np.sqrt(ct * p["p_j"] * log2g), log2g / (p["t_aj"] + g / 2.0))


def expected_utility(p, xi_min, xi_max, xi):
    """Documented prior-expected utility of committing to g(xi) (uniform prior)."""
    xi = np.asarray(xi, dtype=float)
    g = committed_x(p, xi)
    bracket = xi * xi_max - xi**2 / 3.0 - (2.0 / 3.0) * np.sqrt(xi) * xi_min**1.5
    return p["p_j"] * (p["t_aj"] + g / 2.0) / (xi_max - xi_min) * bracket


def log_grid(a: float, b: float, n: int) -> np.ndarray:
    """The sweep grid as documented: a * r^k with r = (b/a)^(1/(n-1)), last point b."""
    r = (b / a) ** (1.0 / (n - 1))
    g = a * r ** np.arange(n, dtype=float)
    g[-1] = b
    return g


def grid_argmax(f, lo: float, hi: float, n: int) -> tuple[float, float]:
    grid = np.logspace(math.log10(lo), math.log10(hi), n)
    vals = np.asarray(f(grid))
    k = int(np.argmax(vals))
    return float(grid[k]), float(vals[k])


# ---------------------------------------------------------------------------
# Extended precision

def _dec(v) -> Decimal:
    return Decimal(repr(float(v)))


def decimal_chi(p, x) -> float:
    with localcontext() as ctx:
        ctx.prec = 50
        e = _dec(p["c_t"]) * _dec(p["p_j"]) * Decimal(2).ln()
        xd = _dec(x)
        return float(((xd / _dec(p["delta"])).ln() / e).sqrt() - _dec(p["t_aj"]) - xd / 2)


def decimal_capacity(p, x, y) -> float:
    with localcontext() as ctx:
        ctx.prec = 50
        xd = _dec(x)
        cyc = _dec(p["t_aj"]) + _dec(y) + xd / 2
        return float((xd / _dec(p["delta"])).ln() / Decimal(2).ln() / cyc)
