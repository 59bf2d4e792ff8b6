"""Tests for the committed (leader-follower) game."""

import math
from dataclasses import replace

import numpy as np
import pytest

from jamgame import (
    ApproxUndefined,
    DomainError,
    GameParams,
    Regime,
    best_response_jammer,
    best_response_target,
    capacity_xy,
    chi,
    columns,
    improvement_report,
    leader_utility,
    nash_closed_form,
    stackelberg_approx,
    stackelberg_exact,
    stackelberg_sweep,
    thresholds,
    x_hat,
)
from .conftest import low_ratio_params, random_params
from .oracles import larger_chi_zero, leader_loss_bracket_width
from .test_columns import ULPS

# The reproducer of a jammed game with x_hat < 2*delta: the solver used to
# evaluate the leader utility at x_hat and refused it.
X_HAT_BELOW_TWO_DELTA = GameParams(
    t_aj=1.4809649168771154e-05, delta=10.127894486139459, p_t=245.8, p_j=1058199.88,
    t_p=0.3, c_t=4.804555729874667e-09,
)


def test_leader_utility_branches_agree_at_root(table1):
    x2 = larger_chi_zero(table1)
    jammed = math.sqrt(table1.c_t * table1.p_j * math.log2(x2 / table1.delta))
    free = math.log2(x2 / table1.delta) / (table1.t_aj + x2 / 2.0)
    assert jammed == pytest.approx(free, rel=1e-6)
    assert leader_utility(table1, x2) == pytest.approx(jammed, rel=1e-6)


def test_leader_utility_reduces_to_capacity_when_unjammed(table1):
    x2 = stackelberg_exact(table1).profile.x
    x = 3.0 * x2  # chi < 0 out here
    assert chi(table1, x) < 0
    assert leader_utility(table1, x) == capacity_xy(table1, x, 0.0)


def test_leader_utility_grid_matches_piecewise_arithmetic(table1):
    grid = np.logspace(np.log10(2 * table1.delta), -2, 2000)
    log2x = np.log(grid / table1.delta) / math.log(2.0)
    expected = np.where(
        np.asarray(columns.chi(table1, grid, table1.c_t)) > 0,
        np.sqrt(table1.c_t * table1.p_j * log2x),
        log2x / (table1.t_aj + grid / 2.0),
    )
    assert np.allclose(columns.leader_utility(table1, grid, table1.c_t), expected, rtol=1e-12)


def test_leader_utility_domain(table1):
    with pytest.raises(DomainError):
        leader_utility(table1, table1.delta)


def test_exact_inhibited_regime_closed_form(table1):
    th = thresholds(table1)
    p = replace(table1, c_t=2 * th.c_t_max)
    se = stackelberg_exact(p)
    assert se.regime is Regime.STACKELBERG_EXACT
    assert se.profile.y == 0.0
    assert se.profile.x == best_response_target(p, 0.0)


def test_exact_active_regime_root_properties(table1):
    se = stackelberg_exact(table1)
    assert se.profile.y == 0.0
    assert se.profile.x > x_hat(table1)
    assert abs(chi(table1, se.profile.x)) <= leader_loss_bracket_width(table1)


def test_follower_never_jams_at_equilibrium(table1):
    for c_t in np.logspace(5, 9, 20):
        p = replace(table1, c_t=float(c_t))
        se = stackelberg_exact(p)
        assert se.profile.y == 0.0
        assert best_response_jammer(p, se.profile.x) <= leader_loss_bracket_width(p)


def test_root_ordering(table1):
    # chi changes sign across x1 < x_hat < x2
    xh = x_hat(table1)
    x2 = stackelberg_exact(table1).profile.x
    assert x2 == pytest.approx(larger_chi_zero(table1), rel=1e-15)
    assert xh < x2
    assert chi(table1, xh) > 0 > chi(table1, 1.0001 * x2)
    assert chi(table1, 1.0001 * table1.delta) < 0


def test_global_optimality_on_grid(table1):
    se = stackelberg_exact(table1)
    u_star = float(leader_utility(table1, se.profile.x))
    grid = np.logspace(np.log10(2 * table1.delta), np.log10(10 * se.profile.x), 10**4)
    assert np.max(columns.leader_utility(table1, grid, table1.c_t)) <= u_star * (1 + 1e-12)


def test_bisection_loss_bound(table1):
    # The leader loses at most the 1e-6 share the former bisection allowed.
    p = replace(table1, c_t=2e6)
    eps_star = 1e-6 * abs(float(leader_utility(p, x_hat(p))))
    loss = abs(
        float(leader_utility(p, stackelberg_exact(p).profile.x))
        - float(leader_utility(p, larger_chi_zero(p)))
    )
    assert loss <= eps_star


def test_jammed_game_with_x_hat_below_two_delta():
    p = X_HAT_BELOW_TWO_DELTA
    assert x_hat(p) < 2.0 * p.delta < best_response_target(p, 0.0)
    assert chi(p, best_response_target(p, 0.0)) > 0.0
    x = stackelberg_exact(p).profile.x
    assert x > x_hat(p)
    assert abs(chi(p, x)) <= 1e-15 * (p.t_aj + x / 2.0)
    assert x == pytest.approx(larger_chi_zero(p), rel=1e-15)


def test_array_newton_takes_each_scalar_path_down_to_tiny_t_aj_over_delta():
    # t_aj/delta from 1e-6 up, with weights up to c_t_max: some games have
    # x_hat < 2*delta, and the array loop stops each weight at its own step.
    rng = np.random.default_rng(20240917)
    jammed = []
    for _ in range(2000):
        p = low_ratio_params(rng)
        x = stackelberg_exact(p).profile.x
        assert abs(stackelberg_sweep(p, np.array([p.c_t]))[0] - x) <= ULPS * math.ulp(x)
        if chi(p, best_response_target(p, 0.0)) > 0.0:
            jammed.append(p)
            assert abs(chi(p, x)) <= 1e-15 * (p.t_aj + x / 2.0)
    assert len(jammed) > 1500
    assert any(x_hat(p) < 2.0 * p.delta for p in jammed)


def test_approx_satisfies_reduced_equation(table1):
    for c_t in np.logspace(5, 9, 10):
        p = replace(table1, c_t=float(c_t))
        ap = stackelberg_approx(p)
        x = ap.profile.x
        assert ap.regime is Regime.STACKELBERG_APPROX
        assert ap.profile.y == 0.0
        lhs = math.log(x / p.delta) / p.eta
        assert lhs == pytest.approx((x / 2.0) ** 2, rel=1e-9)
        assert x >= p.delta * math.exp(0.5)


def test_approx_accuracy_floor_and_trend(table1):
    ratios = []
    for c_t in np.logspace(5, 9, 25):
        p = replace(table1, c_t=float(c_t))
        r = float(leader_utility(p, stackelberg_approx(p).profile.x)) / float(
            leader_utility(p, stackelberg_exact(p).profile.x)
        )
        assert 0.82 <= r <= 1.0
        ratios.append(r)
    # approximation error grows with the weight: ratio drifts down toward 1e9
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] > 0.99


def test_approx_undefined_for_coarse_clocks(table1):
    p = replace(table1, delta=1e-3, c_t=1e9)  # eta*delta^2 >> 2/e
    with pytest.raises(ApproxUndefined):
        stackelberg_approx(p)


def test_improvement_iff_below_tilde(table1):
    th = thresholds(table1)
    for c_t in [1e5, 1e7, 1e9, 0.9 * th.c_t_tilde]:
        rep = improvement_report(replace(table1, c_t=float(c_t)))
        assert rep.improved
        assert rep.u_t_se > rep.u_t_ne
    for c_t in [th.c_t_tilde * 1.01, 5e9, 2 * th.c_t_max]:
        rep = improvement_report(replace(table1, c_t=float(c_t)))
        assert not rep.improved
        assert rep.u_t_se == pytest.approx(rep.u_t_ne, rel=1e-9)


def test_improvement_report_prices_the_committed_outcome():
    # The follower's response at x_se is 0 by construction; re-solving b_j
    # there gave a positive float-noise y in ~29 % of these games.
    rng = np.random.default_rng(1)
    games = [random_params(rng) for _ in range(1000)] + [low_ratio_params(rng) for _ in range(1000)]
    for p in games:
        rep = improvement_report(p)
        assert (rep.u_t_se, rep.u_j_se) == stackelberg_exact(p).utilities, p


def test_jammer_also_gains_at_stackelberg(table1):
    for c_t in np.logspace(5, 9, 15):
        rep = improvement_report(replace(table1, c_t=float(c_t)))
        assert rep.u_j_se >= rep.u_j_ne


def test_coincides_with_border_nash_when_inhibited(table1):
    th = thresholds(table1)
    for c_t in [th.c_t_tilde * 1.2, 1e10, th.c_t_max * 3]:
        p = replace(table1, c_t=float(c_t))
        ne = nash_closed_form(p)
        se = stackelberg_exact(p)
        assert ne.regime is Regime.BORDER_NE
        assert se.profile == ne.profile
