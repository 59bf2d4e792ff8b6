"""Tests for the cycle-level simulator and its estimators."""

import math

import pytest

from jamgame import (
    CycleEvent,
    EmptyWindow,
    EstimatorRole,
    InvalidParams,
    SimConfig,
    StrategyProfile,
    brd,
    capacity_xy,
    estimate_opponent,
    run_sim,
    updates_to_equilibrium,
)


def _event(i, silence=0.0, jam=0.0):
    return CycleEvent(index=i, silence_drawn=silence, jam_drawn=jam, bits_conveyed=1.0, jam_energy=0.0)


def test_estimator_mean_of_constants():
    evs = [_event(i, jam=3.5e-4) for i in range(7)]
    assert estimate_opponent(evs, EstimatorRole.TARGET_ESTIMATES_Y) == pytest.approx(3.5e-4, rel=1e-15)


def test_estimator_bias_corrected_max():
    evs = [_event(0, silence=0.2), _event(1, silence=0.8), _event(2, silence=0.5)]
    assert estimate_opponent(evs, EstimatorRole.JAMMER_ESTIMATES_X) == pytest.approx(
        (4.0 / 3.0) * 0.8, rel=1e-15
    )


def test_estimator_empty_window():
    with pytest.raises(EmptyWindow):
        estimate_opponent([], EstimatorRole.TARGET_ESTIMATES_Y)


def test_estimator_consistency_large_window(rng):
    x_true, y_true = 3e-4, 2e-4
    evs = [
        _event(i, silence=float(rng.uniform(0, x_true)), jam=float(rng.exponential(y_true)))
        for i in range(10**4)
    ]
    y_est = estimate_opponent(evs, EstimatorRole.TARGET_ESTIMATES_Y)
    x_est = estimate_opponent(evs, EstimatorRole.JAMMER_ESTIMATES_X)
    assert abs(y_est - y_true) <= 0.02 * y_true
    assert abs(x_est - x_true) <= 0.02 * x_true


def test_config_invariants(table2):
    with pytest.raises(InvalidParams):
        SimConfig(params=table2, total_cycles=5, update_period_cycles=10)
    with pytest.raises(InvalidParams):
        SimConfig(params=table2, total_cycles=10, update_period_cycles=0)


def test_reproducibility_bit_identical(table2):
    cfg = SimConfig(params=table2, total_cycles=120, update_period_cycles=10, rng_seed=99)
    assert run_sim(cfg) == run_sim(cfg)


def test_different_seeds_differ(table2):
    a = run_sim(SimConfig(params=table2, total_cycles=50, update_period_cycles=10, rng_seed=1))
    b = run_sim(SimConfig(params=table2, total_cycles=50, update_period_cycles=10, rng_seed=2))
    assert a != b


def test_event_accounting(table2):
    cfg = SimConfig(params=table2, total_cycles=60, update_period_cycles=10, rng_seed=5)
    tr = run_sim(cfg)
    assert len(tr.events) == 60
    for ev in tr.events:
        assert ev.jam_energy == ev.jam_drawn * table2.p_j
        assert 0.0 <= ev.jam_drawn
    total = sum(ev.jam_energy for ev in tr.events)
    assert total == sum(ev.jam_drawn for ev in tr.events) * table2.p_j


def test_silences_within_current_bound(table2):
    cfg = SimConfig(
        params=table2, total_cycles=40, update_period_cycles=10, rng_seed=8, x0=1e-4, y0=5e-5
    )
    tr = run_sim(cfg)
    bound = {0: 1e-4}
    for h in tr.strategy_history:
        bound[h.update_index] = h.x
    for ev in tr.events:
        x_cur = bound[ev.index // cfg.update_period_cycles]
        assert 0.0 <= ev.silence_drawn <= x_cur
        assert ev.bits_conveyed == math.log2(x_cur / table2.delta)


def test_history_bookkeeping_single_period(table2):
    cfg = SimConfig(params=table2, total_cycles=30, update_period_cycles=30, rng_seed=0)
    tr = run_sim(cfg)
    assert len(tr.strategy_history) == 2  # initial + one update
    assert math.isnan(tr.strategy_history[0].x_estimated_by_jammer)


def test_history_length_formula(table2):
    cfg = SimConfig(params=table2, total_cycles=95, update_period_cycles=10, rng_seed=0)
    tr = run_sim(cfg)
    assert len(tr.strategy_history) == 95 // 10 + 1


def test_realized_capacity_matches_analytic_when_static(table1):
    # jammer silent, strategies pinned: law of large numbers against the
    # analytic capacity at (x, 0)
    x = 1e-4
    cfg = SimConfig(
        params=table1, total_cycles=10**4, update_period_cycles=10**4,
        rng_seed=7, x0=x, y0=0.0,
    )
    tr = run_sim(cfg)
    cap = capacity_xy(table1, x, 0.0)
    assert abs(tr.realized_capacity - cap) <= 0.05 * cap


def test_perfect_observation_tracks_brd(table1):
    start = StrategyProfile(3e-4, 1e-4)
    cfg = SimConfig(
        params=table1, total_cycles=80, update_period_cycles=10,
        rng_seed=42, x0=start.x, y0=start.y,
    )
    tr = run_sim(cfg, perfect_observation=True)
    ref = brd(table1, start, tol=1e-30, max_iter=len(tr.strategy_history))
    for h, it in zip(tr.strategy_history, ref.iterates):
        assert abs(h.x - it.x) <= 1e-9 * it.x
        assert abs(h.y - it.y) <= 1e-9 * max(it.y, table1.delta)


def test_border_equilibrium_reached_quickly(table2):
    reached = 0
    for seed in range(20):
        cfg = SimConfig(params=table2, total_cycles=100, update_period_cycles=10, rng_seed=seed)
        tr = run_sim(cfg)
        k = updates_to_equilibrium(tr, table2)
        if 0 <= k <= 5:
            reached += 1
    assert reached == 20


def test_realized_utilities_definition(table2):
    cfg = SimConfig(params=table2, total_cycles=50, update_period_cycles=10, rng_seed=13)
    tr = run_sim(cfg)
    mean_energy = sum(ev.jam_energy for ev in tr.events) / len(tr.events)
    assert tr.realized_utilities.u_t == pytest.approx(
        tr.realized_capacity - table2.c_t_star * table2.t_p * table2.p_t, rel=1e-12
    )
    assert tr.realized_utilities.u_j == pytest.approx(
        -tr.realized_capacity - table2.c_t * mean_energy, rel=1e-12
    )


def test_drawn_start_when_x_hat_below_two_delta(costly_jammer):
    tr = run_sim(SimConfig(params=costly_jammer, total_cycles=10, rng_seed=1))
    assert len(tr.events) == 10 and len(tr.strategy_history) == 2
