import numpy as np
import pytest

from jamgame import GameParams


@pytest.fixture
def table1() -> GameParams:
    """Lab scenario: 15 us reaction delay, 1 us clocks, 2 W, 50 us packets."""
    return GameParams(
        t_aj=15e-6, delta=1e-6, p_t=2.0, p_j=2.0, t_p=50e-6, c_t=1e6, c_t_star=0.0
    )


@pytest.fixture
def table2() -> GameParams:
    """Simulation scenario: strongly energy-constrained jammer, border NE."""
    return GameParams(
        t_aj=15e-6, delta=1e-6, p_t=2.0, p_j=2.0, t_p=20e-6, c_t=8e9, c_t_star=1e6
    )


@pytest.fixture
def costly_jammer() -> GameParams:
    """A jammer costly enough that x_hat < 2*delta: chi peaks outside x >= 2*delta."""
    return GameParams(
        t_aj=3.33e-6, delta=4.03e-7, p_t=4.75, p_j=7.5, t_p=6.05e-5, c_t=4.32e11
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def random_params(rng: np.random.Generator, c_t_factor_range=(-3.0, 1.2)) -> GameParams:
    """Physically sensible random parameters spanning both NE regimes.

    t_aj/delta stays >= ~6 so the contraction analysis regime of the game
    (reaction delay well above clock precision) is respected.
    """
    from jamgame import thresholds

    delta = 10.0 ** rng.uniform(-7.0, -5.5)
    t_aj = delta * 10.0 ** rng.uniform(0.8, 2.0)
    p_j = 10.0 ** rng.uniform(-0.5, 1.0)
    p_t = 10.0 ** rng.uniform(-0.5, 1.0)
    base = GameParams(t_aj=t_aj, delta=delta, p_t=p_t, p_j=p_j, t_p=1e-5, c_t=1.0)
    tilde = thresholds(base).c_t_tilde
    c_t = tilde * 10.0 ** rng.uniform(*c_t_factor_range)
    return GameParams(t_aj=t_aj, delta=delta, p_t=p_t, p_j=p_j, t_p=1e-5, c_t=c_t)


def low_ratio_params(rng: np.random.Generator, c_t_factor_range=(-3.0, 0.0)) -> GameParams:
    """Random parameters with t_aj/delta from 1e-6 to 1e2 and c_t up to c_t_max.

    Outside the contraction regime that random_params keeps to: for t_aj/delta
    below ~0.3 and weights just under c_t_max, x_hat can fall below 2*delta
    while b_t(0) is still jammed.
    """
    from jamgame import thresholds

    delta = 10.0 ** rng.uniform(-7.0, -5.5)
    t_aj = delta * 10.0 ** rng.uniform(-6.0, 2.0)
    p_j = 10.0 ** rng.uniform(-0.5, 1.0)
    p_t = 10.0 ** rng.uniform(-0.5, 1.0)
    base = GameParams(t_aj=t_aj, delta=delta, p_t=p_t, p_j=p_j, t_p=1e-5, c_t=1.0)
    c_t = thresholds(base).c_t_max * 10.0 ** rng.uniform(*c_t_factor_range)
    return GameParams(t_aj=t_aj, delta=delta, p_t=p_t, p_j=p_j, t_p=1e-5, c_t=c_t)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))


#: A wide box of the six positive GameParams fields, with no physical sense kept.
WIDE_BOX = dict(t_aj=(1e-15, 1e2), delta=(1e-15, 1e2), p_t=(1e-3, 1e3), p_j=(1e-3, 1e3), t_p=(1e-6, 1.0),
                c_t=(1e-20, 1e25))
#: Every positive double for each of the six, from the smallest subnormal up.
FULL_RANGE = dict.fromkeys(WIDE_BOX, (5e-324, 1.7e308))


def wide_params(rng: np.random.Generator, box: dict):
    """(GameParams, prior (xi_min, xi_max), sweep range (a, b)) drawn from a box.

    ``box`` maps each of the six positive fields to its (lo, hi); the prior
    and the sweep range of weights lie in 1e-20 to 1e25; all log-uniform.
    """
    p = GameParams(**{name: _log_uniform(rng, lo, hi) for name, (lo, hi) in box.items()})
    prior = sorted(_log_uniform(rng, 1e-20, 1e25) for _ in range(2))
    weights = sorted(_log_uniform(rng, 1e-20, 1e25) for _ in range(2))
    return p, tuple(prior), tuple(weights)
