"""Tests for the game's data model: cycle timing, capacity, utilities."""

import math

import numpy as np
import pytest

from jamgame import (
    GameParams,
    InvalidParams,
    InvalidStrategy,
    StrategyProfile,
    UtilityPair,
    best_response_target,
    capacity_xy,
    columns,
    utilities_xy,
)
from .oracles import decimal_capacity

# Frozen from the 60-digit Decimal oracle in tests/oracles.py.
CAPACITY_AT_166U = 173953.27624289968


def cycle_length(p, x, y):
    """The expected cycle length t_aj + y + x/2, read off capacity_xy's denominator."""
    return math.log2(x / p.delta) / capacity_xy(p, x, y)


def test_cycle_duration_values(table1):
    assert cycle_length(table1, 2e-6, 0.0) == pytest.approx(16e-6, rel=1e-15)
    assert cycle_length(table1, 5e-4, 2.8e-4) == pytest.approx(5.45e-4, rel=1e-15)
    # symbolic: x = 2*delta, y = 0 -> one bit over t_aj + delta, exactly
    assert capacity_xy(table1, 2 * table1.delta, 0.0) == 1.0 / (table1.t_aj + table1.delta)


def test_capacity_values(table1):
    assert capacity_xy(table1, 2e-6, 0.0) == pytest.approx(62500.0, rel=1e-14)
    assert capacity_xy(table1, 2e-6, 1.0) < 1.0
    # frozen value re-derivable from the extended-precision oracle
    assert decimal_capacity("1.66e-5", "0", "15e-6", "1e-6") == pytest.approx(
        CAPACITY_AT_166U, rel=1e-15
    )
    assert capacity_xy(table1, 1.66e-5, 0.0) == pytest.approx(
        CAPACITY_AT_166U, rel=1e-12
    )


def test_capacity_rejects_small_x(table1):
    with pytest.raises(InvalidStrategy):
        capacity_xy(table1, 1.9e-6, 0.0)
    with pytest.raises(InvalidStrategy):
        capacity_xy(table1, 1e-6, 0.0)


def test_utilities_zero_cost_reductions(table1):
    u = utilities_xy(table1, 3e-5, 2e-5)
    assert u.u_t == capacity_xy(table1, 3e-5, 2e-5)          # c_t_star = 0
    u0 = utilities_xy(table1, 3e-5, 0.0)
    assert u0.u_j == -capacity_xy(table1, 3e-5, 0.0)  # y = 0


def test_utilities_xy_returns_a_pair_that_unpacks(table1):
    u = utilities_xy(table1, 3e-5, 2e-5)
    assert type(u) is UtilityPair
    u_t, u_j = u
    assert (u_t, u_j) == (u.u_t, u.u_j)


def test_utilities_table2_point(table2):
    u = utilities_xy(table2, 2e-6, 0.0)
    # capacity = 62500 exactly; costs by direct arithmetic
    assert u.u_t == pytest.approx(62500.0 - 1e6 * 20e-6 * 2.0, rel=1e-13)
    assert u.u_j == pytest.approx(-62500.0, rel=1e-13)


def test_eta_positive_and_value(table1):
    assert table1.eta == pytest.approx(1e6 * 2.0 * np.log(2.0), rel=1e-15)
    assert table1.eta > 0


@pytest.mark.parametrize(
    "field,value",
    [
        ("t_aj", -1e-6), ("t_aj", 0.0), ("delta", 0.0), ("p_t", -2.0),
        ("p_j", 0.0), ("t_p", -1.0), ("c_t", 0.0), ("c_t_star", -1.0),
        ("c_t_star", "1"), ("c_t_star", None), ("c_t_star", math.nan),
    ],
)
def test_invalid_params_name_the_field(table1, field, value):
    kwargs = {
        "t_aj": table1.t_aj, "delta": table1.delta, "p_t": table1.p_t,
        "p_j": table1.p_j, "t_p": table1.t_p, "c_t": table1.c_t,
        "c_t_star": table1.c_t_star,
    }
    kwargs[field] = value
    with pytest.raises(InvalidParams, match=field):
        GameParams(**kwargs)


def test_invalid_strategy_fields():
    with pytest.raises(InvalidStrategy):
        StrategyProfile(x=-1.0, y=0.0)
    with pytest.raises(InvalidStrategy):
        StrategyProfile(x=1e-5, y=-1e-9)


def test_target_utility_concave_then_decreasing(table1):
    # concave up to the best response, strictly decreasing past it
    for y in [0.0, 1e-4, 1e-3]:
        bt = float(best_response_target(table1, y))
        xs = np.linspace(2 * table1.delta, bt, 400)
        u = columns.utilities_xy(table1, xs, y, table1.c_t)[0]
        assert np.all(np.diff(u, 2) < 0)
        xs_after = np.linspace(bt, 50 * bt, 400)
        u_after = columns.utilities_xy(table1, xs_after, y, table1.c_t)[0]
        assert np.all(np.diff(u_after) < 0)


def test_jammer_utility_concave_in_y(table1):
    for x in [2e-6, 1e-4, 1e-3]:
        ys = np.linspace(0.0, 2e-2, 400)
        u = columns.utilities_xy(table1, x, ys, table1.c_t)[1]
        assert np.all(np.diff(u, 2) <= 1e-18)


def test_capacity_decreasing_in_y(table1, rng):
    for x in 10 ** rng.uniform(-5.5, -3.0, size=8):
        ys = np.linspace(0.0, 1e-2, 300)
        c = columns.capacity_xy(table1, float(x), ys)
        assert np.all(np.diff(c) < 0)
