"""Tests for the closed-form equilibrium, BRD, and the contraction certificate."""

import math
import sys
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest

from jamgame import (
    GameParams,
    JamGameError,
    Regime,
    StrategyProfile,
    best_response_jammer,
    best_response_target,
    brd,
    convergence_certificate,
    nash_closed_form,
    psi,
    s_prime_bounds,
    thresholds,
    x_hat,
)
from . import oracles
from .conftest import FULL_RANGE, low_ratio_params, random_params, wide_params

# Frozen from the Newton-oracle evaluation of the closed forms (Table-1
# physics, c_t = 1e6): see tests/oracles.py.
XNE_CT1E6 = 0.0006661826962418663
YNE_CT1E6 = 0.001817523353413098
BT_AT_0 = 1.658715395451558e-05


def iters_to_ball(p, trace, ne, rtol=1e-2):
    """First iterate index from which the trace stays within rtol of the NE.

    x is compared relatively; y relative to the natural scale t_aj + y*.
    """
    y_scale = p.t_aj + ne.profile.y
    hit = None
    for i, s in enumerate(trace.iterates):
        ok = abs(s.x - ne.profile.x) <= rtol * ne.profile.x and abs(
            s.y - ne.profile.y
        ) <= rtol * y_scale
        if ok and hit is None:
            hit = i
        elif not ok:
            hit = None
    return hit


def test_border_equilibrium_table2(table2):
    ne = nash_closed_form(table2)
    assert ne.regime is Regime.BORDER_NE
    assert ne.profile.y == 0.0
    assert ne.profile.x == pytest.approx(BT_AT_0, rel=1e-12)
    assert ne.profile.x == best_response_target(table2, 0.0)


def test_interior_equilibrium_values_and_fixed_point(table1):
    ne = nash_closed_form(table1)
    assert ne.regime is Regime.INTERIOR_NE
    assert ne.profile.x == pytest.approx(XNE_CT1E6, rel=1e-12)
    assert ne.profile.y == pytest.approx(YNE_CT1E6, rel=1e-12)
    # simultaneous fixed point of both best responses
    assert best_response_target(table1, ne.profile.y) == pytest.approx(ne.profile.x, rel=1e-9)
    assert best_response_jammer(table1, ne.profile.x) == pytest.approx(ne.profile.y, rel=1e-9)


def test_interior_fixed_point_across_weights(table1):
    for c_t in np.logspace(5, 9, 17):
        p = replace(table1, c_t=float(c_t))
        ne = nash_closed_form(p)
        assert ne.profile.y > 0
        assert best_response_target(p, ne.profile.y) == pytest.approx(ne.profile.x, rel=1e-9)
        assert best_response_jammer(p, ne.profile.x) == pytest.approx(ne.profile.y, rel=1e-9)


def test_regime_boundary_continuity(table1):
    tilde = thresholds(table1).c_t_tilde
    lo = nash_closed_form(replace(table1, c_t=tilde * (1 - 1e-6)))
    hi = nash_closed_form(replace(table1, c_t=tilde * (1 + 1e-6)))
    assert lo.regime is Regime.INTERIOR_NE
    assert hi.regime is Regime.BORDER_NE
    assert lo.profile.x == pytest.approx(hi.profile.x, rel=1e-3)


def test_brd_fixed_point_matches_closed_form(table1, rng):
    ne = nash_closed_form(table1)
    start = StrategyProfile(float(rng.uniform(2e-6, 1e-3)), float(rng.uniform(0, 1e-2)))
    t = brd(table1, start)
    assert t.converged
    assert t.iterates[-1].x == pytest.approx(ne.profile.x, rel=1e-6)
    assert t.iterates[-1].y == pytest.approx(ne.profile.y, rel=1e-6)


def test_brd_reaches_reference_iteration_count(table1, rng):
    # the reference count (7, hard cap 10) is stated at ~1% resolution
    ne = nash_closed_form(table1)
    over_soft = 0
    for _ in range(50):
        start = StrategyProfile(float(rng.uniform(2e-6, 5e-3)), float(rng.uniform(0, 2e-2)))
        t = brd(table1, start, tol=1e-12, max_iter=400)
        hit = iters_to_ball(table1, t, ne)
        assert hit is not None and hit <= 10
        if hit > 7:
            over_soft += 1
    if over_soft:
        print(f"\n[brd] {over_soft}/50 starts needed more than 7 iterations (<=10)")


def test_brd_from_equilibrium_converges_immediately(table1):
    ne = nash_closed_form(table1)
    t = brd(table1, ne.profile)
    assert t.converged and t.iterations_used == 1
    assert t.iterates[-1].x == pytest.approx(ne.profile.x, rel=1e-12)


def test_brd_table2_three_updates(table2, rng):
    for _ in range(10):
        start = StrategyProfile(float(rng.uniform(2e-6, 1e-3)), float(rng.uniform(0, 1e-3)))
        t = brd(table2, start)
        assert t.converged and t.iterations_used <= 3
        assert t.iterates[-1].y == 0.0


def test_brd_nonconvergence_is_reported_not_raised(table1):
    t = brd(table1, StrategyProfile(1.0, 1.0), tol=1e-15, max_iter=2)
    assert not t.converged and t.iterations_used == 2


def test_brd_refuses_nan_tol(table1):
    # A NaN tolerance would never be met: all max_iter steps, then converged=False.
    with pytest.raises(ValueError, match="tol must be positive") as exc:
        brd(table1, StrategyProfile(2 * table1.delta, 0.0), tol=math.nan)
    assert isinstance(exc.value, JamGameError)


def test_brd_stops_on_roundoff_step_far_from_delta():
    # NE at y ~ 3760 delta: the default tol asks for a step below 2 ulp of y,
    # and the dynamics settle into a two-cycle of exactly that size.
    p = GameParams(
        t_aj=7.125323126434531e-05, delta=7.861808031172878e-07, p_t=1.2131697223927964,
        p_j=3.1330438349838863, t_p=3.707780922584244e-06, c_t=265103.4042779403,
    )
    t = brd(p, StrategyProfile(2 * p.delta, 0.0))
    ne = nash_closed_form(p).profile
    assert t.converged and t.iterations_used < 100
    assert abs(t.iterates[-1].x - ne.x) <= 1e-12 * ne.x
    assert abs(t.iterates[-1].y - ne.y) <= 1e-12 * ne.y


def test_brd_attaches_certificate_on_request(table1):
    t = brd(table1, StrategyProfile(3e-5, 1e-5), with_certificate=True)
    assert t.certificate is not None
    assert t.certificate.jb_max >= 0.0
    assert brd(table1, StrategyProfile(3e-5, 1e-5)).certificate is None


def test_brd_uniqueness_many_starts(table1, rng):
    finals = []
    for _ in range(100):
        start = StrategyProfile(float(rng.uniform(2e-6, 1e-2)), float(rng.uniform(0, 1e-1)))
        t = brd(table1, start)
        assert t.converged
        finals.append((t.iterates[-1].x, t.iterates[-1].y))
    xs, ys = zip(*finals)
    assert max(xs) - min(xs) <= 1e-6 * min(xs)
    assert max(ys) - min(ys) <= 1e-6 * min(ys)


def test_s_prime_bounds_definitions(table1):
    b = s_prime_bounds(table1)
    assert b.x_m == best_response_target(table1, 0.0)
    assert b.y_M == best_response_jammer(table1, x_hat(table1))
    assert b.x_M == best_response_target(table1, b.y_M)
    assert b.x_m < b.x_M


def test_s_prime_bounds_and_certificate_when_x_hat_below_two_delta(costly_jammer):
    p = costly_jammer
    assert x_hat(p) < 2 * p.delta
    b = s_prime_bounds(p)
    assert b.y_M == best_response_jammer(p, 2 * p.delta)
    t = brd(p, StrategyProfile(2 * p.delta, 0.0), with_certificate=True)
    assert t.converged and t.certificate is not None


def test_absorbed_into_s_prime_by_second_iteration(table1, rng):
    b = s_prime_bounds(table1)
    for _ in range(100):
        start = StrategyProfile(
            float(rng.uniform(2 * table1.delta, 100 * b.x_M)),
            float(rng.uniform(0.0, 100 * b.y_M)),
        )
        t = brd(table1, start, tol=1e-30, max_iter=20)
        for s in t.iterates[2:]:
            assert b.x_m * (1 - 1e-12) <= s.x <= b.x_M * (1 + 1e-12)
            assert 0.0 <= s.y <= b.y_M * (1 + 1e-12)


def test_certificate_condition_implies_contraction(table1, rng):
    conditioned = 0
    for c_t in np.logspace(5, 10, 40):
        p = replace(table1, c_t=float(c_t))
        start = StrategyProfile(3e-5, 1e-5)
        cert = convergence_certificate(p, epsilon=1e-9, start=start)
        assert cert.jb_max >= 0.0
        if cert.condition_ct_holds:
            conditioned += 1
            assert cert.jb_max < 1.0
            assert cert.predicted_max_iterations is not None
    assert conditioned > 0


def test_certificate_condition_is_c_t_above_c_t_tilde_over_36_on_the_full_range():
    # The printed bound 1/(9 delta^2 ln2 p_j (omega+1) e^(2(omega+1))) is
    # c_t_tilde/36, here in Decimal past either end of the double range.
    # Draws within 1e-12 of it are left out: there the bound's last bits decide.
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(1500):
        p, _, _ = wide_params(rng, FULL_RANGE)
        try:
            start = StrategyProfile(min(2.0 * p.delta, sys.float_info.max), 0.0)
            cert = convergence_certificate(p, epsilon=1e-9, start=start)
        except JamGameError:
            continue
        bound = oracles.c_t_tilde(p) / 36
        if abs(Decimal(p.c_t) - bound) <= Decimal("1e-12") * bound:
            continue
        assert cert.condition_ct_holds == (Decimal(p.c_t) > bound), (p, bound)
        checked += 1
    assert checked >= 500


def test_certificate_target_slope_at_zero(table1):
    # in the strongly conditioned regime the target-side slope dominates and
    # jb_max collapses to its y = 0 value 2/(psi(0)+1)
    p = replace(table1, c_t=5e8)
    cert = convergence_certificate(p, epsilon=1e-9, start=StrategyProfile(3e-5, 1e-5))
    assert cert.jb_max == pytest.approx(2.0 / (psi(p, 0.0) + 1.0), rel=1e-12)


def test_certificate_jb_max_matches_difference_slopes(rng):
    # jb_max against slopes read off the best responses themselves: b_t's
    # by a forward difference at y = 0, b_j's as the steepest secant on a
    # 20 001-point log grid over [x_m, x_M].
    jammer_dominated = 0
    for i in range(200):
        p = (random_params if i % 2 else low_ratio_params)(rng)
        h = 1e-6 * p.t_aj
        bt_slope = (best_response_target(p, h) - best_response_target(p, 0.0)) / h
        b = s_prime_bounds(p)
        bj_slope = 0.0
        if b.x_M > b.x_m:
            x = np.geomspace(b.x_m, b.x_M, 20001)
            y = best_response_jammer(p, x, p.c_t)
            bj_slope = float(np.max(np.abs(np.diff(y) / np.diff(x))))
        cert = convergence_certificate(p, epsilon=1e-9, start=StrategyProfile(b.x_m, 0.0))
        assert cert.jb_max == pytest.approx(max(bt_slope, bj_slope), rel=1e-3)
        jammer_dominated += bj_slope > bt_slope
    assert 0 < jammer_dominated < 200


def test_certificate_bound_holds_empirically(table1, rng):
    p = replace(table1, c_t=5e8)
    for _ in range(100):
        start = StrategyProfile(float(rng.uniform(2e-6, 1e-3)), float(rng.uniform(0, 1e-3)))
        cert = convergence_certificate(p, epsilon=1e-9, start=start)
        assert cert.condition_ct_holds and cert.jb_max < 1.0
        t = brd(p, start, tol=1e-9, max_iter=500)
        assert t.converged
        assert t.iterations_used <= cert.predicted_max_iterations


def test_certificate_epsilon_larger_than_first_step(table1):
    cert = convergence_certificate(table1, epsilon=1e12, start=StrategyProfile(3e-5, 1e-5))
    if cert.predicted_max_iterations is not None:
        assert cert.predicted_max_iterations == 1


@pytest.mark.parametrize("epsilon", [0.0, math.nan])
def test_certificate_refuses_non_positive_epsilon(table2, epsilon):
    start = StrategyProfile(3e-5, 1e-5)
    assert convergence_certificate(table2, epsilon=1e-9, start=start).jb_max < 1.0  # contracting
    with pytest.raises(ValueError, match="epsilon must be positive") as exc:
        convergence_certificate(table2, epsilon=epsilon, start=start)
    assert isinstance(exc.value, JamGameError)


def test_interior_identity_at_equilibrium(table1):
    # (y* + t_aj)^2 * eta * (psi(y*) + 1) = psi(y*)^2 at every interior NE
    for c_t in np.logspace(5, 9, 9):
        p = replace(table1, c_t=float(c_t))
        ne = nash_closed_form(p)
        ps = float(psi(p, ne.profile.y))
        lhs = (ne.profile.y + p.t_aj) ** 2
        rhs = ps * ps / (p.eta * (ps + 1.0))
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_random_params_fixed_point(rng):
    for _ in range(25):
        p = random_params(rng)
        ne = nash_closed_form(p)
        assert best_response_target(p, ne.profile.y) == pytest.approx(ne.profile.x, rel=1e-9)
        bj = float(best_response_jammer(p, ne.profile.x))
        assert bj == pytest.approx(ne.profile.y, rel=1e-9, abs=1e-15)
