"""Tests for the cycle-level simulator and its per-window estimates."""

import math
import tracemalloc

import numpy as np
import pytest

from jamgame import (
    DomainError,
    GameParams,
    InvalidParams,
    SimConfig,
    SimTrace,
    StrategyProfile,
    best_response_jammer,
    best_response_target,
    brd,
    capacity_xy,
    nash_closed_form,
    run_sim,
    updates_to_equilibrium,
)
from jamgame.sim import event_columns


def _windows(column, period):
    n = len(column) // period * period
    return column[:n].reshape(-1, period)


def test_estimator_window_mean_of_jam(table1):
    cfg = SimConfig(params=table1, total_cycles=95, update_period_cycles=10, rng_seed=3, x0=3e-4, y0=1e-4)
    tr = run_sim(cfg)
    want = _windows(tr.jam, 10).mean(axis=1)
    got = tr.y_est_by_target[1:]
    assert np.all(np.abs(got - want) <= 1e-15 * want)


def test_estimator_bias_corrected_max(table1):
    cfg = SimConfig(params=table1, total_cycles=95, update_period_cycles=10, rng_seed=4, x0=3e-4, y0=1e-4)
    tr = run_sim(cfg)
    want = np.maximum(11 / 10 * _windows(tr.silence, 10).max(axis=1), 2.0 * table1.delta)
    got = tr.x_est_by_jammer[1:]
    assert np.all(np.abs(got - want) <= 1e-15 * want)


def test_estimator_consistency_large_window(table1):
    x_true, y_true = 3e-4, 2e-4
    cfg = SimConfig(
        params=table1, total_cycles=10**4, update_period_cycles=10**4,
        rng_seed=20240817, x0=x_true, y0=y_true,
    )
    tr = run_sim(cfg)
    assert abs(tr.y_est_by_target[1] - y_true) <= 0.02 * y_true
    assert abs(tr.x_est_by_jammer[1] - x_true) <= 0.02 * x_true


def _per_cycle_reference(cfg):
    """The simulator as a plain per-cycle loop over the same draws (pinned start)."""
    p, period = cfg.params, cfg.update_period_cycles
    rng = np.random.default_rng(cfg.rng_seed)
    e, u = rng.standard_exponential(cfg.total_cycles), rng.random(cfg.total_cycles)
    x, y = cfg.x0, cfg.y0
    history, jam, silence = [(x, y)], [], []
    for k in range(cfg.total_cycles):
        jam.append(float(e[k]) * y)
        silence.append(float(u[k]) * x)
        if (k + 1) % period == 0:
            y_est = sum(jam[-period:]) / period
            x_est = max((period + 1) / period * max(silence[-period:]), 2.0 * p.delta)
            x, y = best_response_target(p, y_est), best_response_jammer(p, x_est)
            history.append((x, y))
    return history, jam, silence


@pytest.mark.parametrize("cycles, period", [(200, 10), (95, 7), (12, 1)])
def test_columns_match_per_cycle_reference(table1, cycles, period):
    cfg = SimConfig(
        params=table1, total_cycles=cycles, update_period_cycles=period, rng_seed=17, x0=3e-4, y0=1e-4
    )
    tr = run_sim(cfg)
    history, jam, silence = _per_cycle_reference(cfg)
    # The window mean is summed in another order, so values agree to rounding.
    assert np.allclose(np.column_stack([tr.x, tr.y]), history, rtol=1e-12, atol=0.0)
    assert np.allclose(tr.jam, jam, rtol=1e-12, atol=0.0)
    assert np.allclose(tr.silence, silence, rtol=1e-12, atol=0.0)


def test_config_invariants(table2):
    with pytest.raises(InvalidParams):
        SimConfig(params=table2, total_cycles=5, update_period_cycles=10)
    with pytest.raises(InvalidParams):
        SimConfig(params=table2, total_cycles=10, update_period_cycles=0)
    with pytest.raises(InvalidParams):
        SimConfig(params=table2, total_cycles=10**7 + 1)
    with pytest.raises(InvalidParams):
        SimConfig(params=table2, total_cycles=10, rng_seed=-1)


def test_reproducibility_bit_identical(table2):
    cfg = SimConfig(params=table2, total_cycles=120, update_period_cycles=10, rng_seed=99)
    a, b = run_sim(cfg), run_sim(cfg)
    assert a.jam.tobytes() == b.jam.tobytes() and a.silence.tobytes() == b.silence.tobytes()
    for col in ("x", "y", "x_est_by_jammer", "y_est_by_target"):
        assert getattr(a, col).tobytes() == getattr(b, col).tobytes()  # nan != nan, so compare bytes
    assert (a.realized_capacity, a.realized_utilities) == (b.realized_capacity, b.realized_utilities)


def test_different_seeds_differ(table2):
    a = run_sim(SimConfig(params=table2, total_cycles=50, update_period_cycles=10, rng_seed=1))
    b = run_sim(SimConfig(params=table2, total_cycles=50, update_period_cycles=10, rng_seed=2))
    assert not np.array_equal(a.silence, b.silence)


def test_event_accounting(table2):
    cfg = SimConfig(params=table2, total_cycles=60, update_period_cycles=10, rng_seed=5)
    tr = run_sim(cfg)
    cycle, silence, jam, _, energy = event_columns(tr, 0, 60)
    assert len(tr.jam) == len(tr.silence) == 60
    assert np.array_equal(cycle, np.arange(60))
    assert np.array_equal(silence, tr.silence) and np.array_equal(jam, tr.jam)
    assert np.array_equal(energy, jam * table2.p_j)
    assert np.all(jam >= 0.0)


def test_silences_within_current_bound(table2):
    cfg = SimConfig(
        params=table2, total_cycles=40, update_period_cycles=10, rng_seed=8, x0=1e-4, y0=5e-5
    )
    tr = run_sim(cfg)
    assert tr.x[0] == 1e-4
    # Any chunking of the event table gives the same columns.
    chunks = [event_columns(tr, a, b) for a, b in ((0, 7), (7, 10), (10, 33), (33, 40))]
    cycle, silence, jam, bits, _ = (np.concatenate(c) for c in zip(*chunks))
    for k in range(40):
        x, y = tr.x[k // cfg.update_period_cycles], tr.y[k // cfg.update_period_cycles]
        assert cycle[k] == k
        assert 0.0 <= silence[k] <= x
        assert (jam[k] == 0.0) or y > 0.0
        assert float(bits[k]) == math.log2(float(x) / table2.delta)


def test_history_bookkeeping_single_period(table2):
    cfg = SimConfig(params=table2, total_cycles=30, update_period_cycles=30, rng_seed=0)
    tr = run_sim(cfg)
    assert len(tr.x) == len(tr.y) == 2  # initial + one update
    assert math.isnan(tr.x_est_by_jammer[0]) and math.isnan(tr.y_est_by_target[0])


def test_history_length_formula(table2):
    cfg = SimConfig(params=table2, total_cycles=95, update_period_cycles=10, rng_seed=0)
    tr = run_sim(cfg)
    for col in (tr.x, tr.y, tr.x_est_by_jammer, tr.y_est_by_target):
        assert len(col) == 95 // 10 + 1


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
    ref = brd(table1, start, tol=1e-30, max_iter=len(tr.x))
    for x, y, it in zip(tr.x, tr.y, ref.iterates):
        assert abs(x - it.x) <= 1e-9 * it.x
        assert abs(y - it.y) <= 1e-9 * max(it.y, table1.delta)


def test_border_equilibrium_reached_quickly(table2):
    reached = 0
    for seed in range(20):
        cfg = SimConfig(params=table2, total_cycles=100, update_period_cycles=10, rng_seed=seed)
        tr = run_sim(cfg)
        k = updates_to_equilibrium(tr)
        if 0 <= k <= 5:
            reached += 1
    assert reached == 20


def _trace_with_rows(p, rows):
    """A trace whose row k is the NE of p ('N'), or off it in x ('x') or in y ('y')."""
    ne = nash_closed_form(p).profile
    x = np.array([1.1 * ne.x if r == "x" else ne.x for r in rows])
    y = np.array([ne.y + 0.1 * (p.t_aj + ne.y) if r == "y" else ne.y for r in rows])
    n = len(rows)
    nan = np.full(n, math.nan)
    return SimTrace(
        x=x, y=y, x_est_by_jammer=nan, y_est_by_target=nan,
        jam=np.zeros(n - 1), silence=np.zeros(n - 1),
        config=SimConfig(params=p, total_cycles=n - 1, update_period_cycles=1),
    )


@pytest.mark.parametrize(
    "rows, want",
    [
        pytest.param("NNNNN", 0, id="from-start"),
        pytest.param("xyxyx", -1, id="never"),
        pytest.param("NNxyNN", 4, id="re-entry"),
        pytest.param("NNNNx", -1, id="away-in-last-row"),
    ],
)
def test_updates_to_equilibrium_rows(table2, rows, want):
    assert updates_to_equilibrium(_trace_with_rows(table2, rows)) == want


def test_trace_holds_only_columns(table1):
    # Six float64 columns take 48 B per cycle at period 1: 4 per update, 2 per cycle.
    cfg = SimConfig(params=table1, total_cycles=20_000, update_period_cycles=1, rng_seed=1)
    run_sim(cfg)  # first-call allocations are not the trace's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tr = run_sim(cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tr.x) == cfg.total_cycles + 1
    assert held <= 64 * cfg.total_cycles


def test_realized_utilities_definition(table2):
    cfg = SimConfig(params=table2, total_cycles=50, update_period_cycles=10, rng_seed=13)
    tr = run_sim(cfg)
    mean_energy = event_columns(tr, 0, 50)[4].mean()
    assert tr.realized_utilities.u_t == pytest.approx(
        tr.realized_capacity - table2.c_t_star * table2.t_p * table2.p_t, rel=1e-12
    )
    assert tr.realized_utilities.u_j == pytest.approx(
        -tr.realized_capacity - table2.c_t * mean_energy, rel=1e-12
    )


def test_drawn_start_when_x_hat_below_two_delta(costly_jammer):
    tr = run_sim(SimConfig(params=costly_jammer, total_cycles=10, rng_seed=1))
    assert len(tr.jam) == len(tr.silence) == 10 and len(tr.x) == len(tr.y) == 2


def test_bits_where_x_over_delta_overflows():
    # x0/delta = 1e310 overflows: the bits are log2 x - log2 delta, not inf.
    p = GameParams(t_aj=15e-6, delta=1e-10, p_t=2.0, p_j=2.0, t_p=50e-6, c_t=1e6)
    tr = run_sim(SimConfig(params=p, total_cycles=20, x0=1e300, y0=0.0))
    bits = event_columns(tr, 0, 20)[3]
    assert bits[:10] == [repr(math.log2(1e300) - math.log2(1e-10))] * 10
    assert float(bits[0]) == pytest.approx(1029.7977, rel=1e-7)
    assert math.isfinite(tr.realized_capacity) and tr.realized_capacity > 0.0
    assert math.isfinite(tr.realized_utilities.u_t) and math.isfinite(tr.realized_utilities.u_j)


def test_realized_utilities_past_the_double_range_are_refused(table1):
    # c_t_star * t_p * p_t = 1e410: u_t would be -inf.
    p = GameParams(t_aj=15e-6, delta=1e-6, p_t=1e200, p_j=2.0, t_p=1e200, c_t=1e6, c_t_star=1e10)
    tr = run_sim(SimConfig(params=p, total_cycles=20, x0=3e-6, y0=1e-6))
    with pytest.raises(DomainError, match="^u_t leaves the double range$"):
        tr.realized_utilities
