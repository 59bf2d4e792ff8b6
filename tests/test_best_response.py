"""Tests for closed-form best responses and the jammer's cost thresholds."""

import math
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest

from jamgame import (
    DomainError,
    GameParams,
    best_response_jammer,
    best_response_target,
    chi,
    nash_closed_form,
    nash_xy,
    psi,
    stackelberg_approx,
    thresholds,
    utilities_xy,
    x_hat,
)
from jamgame.roots import larger_zero
from . import oracles
from .conftest import low_ratio_params, random_params
from .oracles import decimal_chi, decimal_newton_w, lower_chi_zero, newton_w_principal

# Frozen oracle values, Table-1 physics (see tests/oracles.py):
PSI_AT_0 = 1.808628537617992            # Newton oracle, W(30/e)
BT_AT_0 = 1.658715395451558e-05          # delta * e^(psi(0) + 1)
CHI_5E4_CT1E6 = 0.0018522841430311245    # Decimal oracle
BJ_2DELTA_CT1E6 = 0.0006911067811865476  # Decimal oracle
XHAT_CT1E6 = 0.0003508415801293142       # Newton oracle
CTT_TABLE1 = 3733932641.001237           # threshold via Newton-oracle omega
CTM_TABLE1 = 22542110013.890057          # direct arithmetic


def test_psi_values(table1):
    assert psi(table1, 0.0) == pytest.approx(PSI_AT_0, rel=1e-12)
    # monotone increasing
    ys = np.linspace(0.0, 1e-2, 500)
    assert np.all(np.diff(psi(table1, ys)) > 0)
    # degenerate geometry making the W argument exactly e, so psi = 1
    p = replace(table1, delta=2 * table1.t_aj / math.e**2)
    assert psi(p, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_psi_rejects_negative_y(table1):
    with pytest.raises(DomainError):
        psi(table1, -1e-9)


def test_chi_values(table1):
    # log term vanishes at x = delta
    assert chi(table1, table1.delta) == -table1.t_aj - table1.delta / 2.0
    assert chi(table1, 5e-4) == pytest.approx(CHI_5E4_CT1E6, rel=1e-12)
    with pytest.raises(DomainError):
        chi(table1, 0.5 * table1.delta)


def test_chi_peaks_at_x_hat(table1):
    xh = x_hat(table1)
    assert xh == pytest.approx(XHAT_CT1E6, rel=1e-12)
    c0 = chi(table1, xh)
    assert chi(table1, xh * (1 + 1e-3)) < c0
    assert chi(table1, xh * (1 - 1e-3)) < c0
    # first central difference ~ 0 at the peak
    h = 1e-7 * xh
    slope = (chi(table1, xh + h) - chi(table1, xh - h)) / (2 * h)
    assert abs(slope) < 1e-4


def test_x_hat_limits(table1):
    # enormous energy cost drives the peak down to delta (W(0) = 0)
    p = replace(table1, c_t=1e18)
    assert x_hat(p) == pytest.approx(p.delta, rel=1e-3)


def test_best_response_target_values(table1):
    assert best_response_target(table1, 0.0) == pytest.approx(BT_AT_0, rel=1e-12)
    ys = np.logspace(-7, -2, 50)
    bt = best_response_target(table1, ys)
    assert np.all(np.diff(bt) > 0)
    assert np.all(bt > 2 * table1.delta)


def test_best_response_target_grid_optimality(table1):
    y = 2.8e-4
    bt = best_response_target(table1, y)
    grid = np.logspace(np.log10(2 * table1.delta), np.log10(100 * bt), 4001)
    u = utilities_xy(table1, grid, y, table1.c_t)[0]
    k = int(np.argmax(u))
    # true optimum beats every grid point and sits within one grid step
    assert utilities_xy(table1, bt, y)[0] >= u[k]
    step = grid[min(k + 1, len(grid) - 1)] / grid[k]
    assert grid[k] / step <= bt <= grid[k] * step


def test_best_response_jammer_values(table1):
    assert best_response_jammer(table1, 2e-6) == pytest.approx(BJ_2DELTA_CT1E6, rel=1e-12)
    # clamp: chi < 0 for an inhibited jammer
    p = replace(table1, c_t=8e9)
    assert best_response_jammer(p, float(best_response_target(p, 0.0))) == 0.0
    with pytest.raises(DomainError):
        best_response_jammer(table1, 1.5e-6)


def test_jammer_inhibited_above_c_t_max(table1):
    th = thresholds(table1)
    p = replace(table1, c_t=1.01 * th.c_t_max)
    grid = np.logspace(np.log10(2 * p.delta), -1, 2000)
    assert np.all(best_response_jammer(p, grid, p.c_t) == 0.0)
    assert np.max(chi(p, grid, p.c_t)) < 0


def test_thresholds_values(table1):
    th = thresholds(table1)
    assert th.c_t_max == pytest.approx(CTM_TABLE1, rel=1e-12)
    assert th.c_t_tilde == pytest.approx(CTT_TABLE1, rel=1e-12)
    assert th.c_t_max > 0 and th.c_t_tilde > 0


def test_chi_sign_structure_over_sweep(table1):
    # across the studied weight range the positive region of chi is an
    # interval straddling x_hat: negative hard against delta, positive at
    # the peak, negative again far out
    for c_t in np.logspace(5, 9, 9):
        p = replace(table1, c_t=float(c_t))
        xh = x_hat(p)
        assert chi(p, xh) > 0
        assert chi(p, p.delta * (1 + 1e-9)) < 0
        x2 = larger_zero(p, xh)
        assert xh < x2
        assert chi(p, 10 * x2) < 0
        # sign change across the larger root
        assert chi(p, x2 * (1 - 1e-6)) > 0 > chi(p, x2 * (1 + 1e-6))


def test_b_t_zero_never_left_of_the_lower_zero(rng):
    # x_m = b_t(0) satisfies t_aj + x_m/2 = (x_m/2) ln(x_m/delta), so
    # chi(x_m) >= (x_m/2) ln(x_m/delta) > 0 wherever x_m <= x_hat: x_m never
    # lies left of chi's lower zero, and the BRD certificate needs no lower
    # zero.  Checked on chi in Decimal and on the zero by Decimal bisection.
    below, jammed = 0, 0
    for i in range(3000):
        p = (random_params if i % 2 else low_ratio_params)(rng)
        x_m, xh = best_response_target(p, 0.0), x_hat(p)
        if x_m <= xh:
            below += 1
            assert decimal_chi(repr(x_m), repr(p.t_aj), repr(p.delta), repr(p.c_t), repr(p.p_j)) > 0
        if jammed < 30 and chi(p, xh) > 0:
            jammed += 1
            assert lower_chi_zero(p) < x_m
    assert below > 1000 and jammed == 30


def test_chi_zeros_at_the_tangent_weight(table1):
    # The weight at which max chi = chi(x_hat) is the smallest positive value
    # chi can show, found by bisecting c_t to float resolution: both zeros
    # are double there, and the Newton loop converges only linearly.
    def peak(c):
        p = replace(table1, c_t=c)
        return chi(p, x_hat(p))

    lo, hi = 1e9, 1e12
    assert peak(lo) > 0.0 >= peak(hi)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if peak(mid) > 0.0 else (lo, mid)
    p = replace(table1, c_t=lo)
    xh = x_hat(p)
    assert 0.0 < chi(p, xh) <= 4.0 * math.ulp(p.t_aj + xh / 2.0)
    x2 = larger_zero(p, xh)
    assert xh < x2
    # The positive interval is ~1e-8 wide here, so the signs are taken at
    # x_hat and just outside it rather than at x2 +- 1e-6.
    assert chi(p, xh * (1 - 1e-6)) < 0 < chi(p, xh)
    assert chi(p, x2 * (1 + 1e-6)) < 0
    assert (x2 - xh) / xh < 1e-6


def test_bj_bounded_by_value_at_x_hat(table1):
    xh = x_hat(table1)
    cap = best_response_jammer(table1, xh)
    grid = np.logspace(np.log10(2 * table1.delta), 0, 3000)
    assert np.all(best_response_jammer(table1, grid, table1.c_t) <= cap + 1e-18)


def test_best_response_optimality_random_params(rng):
    for _ in range(100):
        p = random_params(rng)
        y = float(rng.uniform(0.0, 50.0 * p.t_aj))
        bt = float(best_response_target(p, y))
        grid = np.logspace(np.log10(2 * p.delta), np.log10(100 * bt), 2000)
        assert utilities_xy(p, bt, y)[0] >= np.max(utilities_xy(p, grid, y, p.c_t)[0])

        x = float(rng.uniform(2 * p.delta, 20 * bt))
        bj = float(best_response_jammer(p, x))
        y_hi = max(10 * float(best_response_jammer(p, x_hat(p))), 10 * p.t_aj)
        ygrid = np.linspace(0.0, y_hi, 2000)
        assert utilities_xy(p, x, bj)[1] >= np.max(utilities_xy(p, x, ygrid, p.c_t)[1])


def test_chi_where_x_over_delta_overflows(table1):
    # x/delta overflows above ~1.8e302: ln x - ln delta keeps chi finite there.
    for x in (1e303, 1.7e308):
        want = math.sqrt((math.log(x) - math.log(table1.delta)) / table1.eta) - table1.t_aj - x / 2.0
        assert chi(table1, x) == want
        assert chi(table1, np.array([1e-3, x]), table1.c_t)[1] == want
        assert best_response_jammer(table1, x) == 0.0


def test_chi_matches_decimal_oracle_random_points(rng):
    for _ in range(20):
        p = random_params(rng)
        x = float(rng.uniform(2 * p.delta, 1e3 * p.delta))
        expected = decimal_chi(repr(x), repr(p.t_aj), repr(p.delta), repr(p.c_t), repr(p.p_j))
        assert chi(p, x) == pytest.approx(expected, rel=1e-10, abs=1e-18)


def test_psi_matches_newton_oracle_random_points(rng):
    for _ in range(20):
        p = random_params(rng)
        y = float(rng.uniform(0.0, 1e3 * p.delta))
        z = 2.0 * (p.t_aj + y) / (math.e * p.delta)
        assert psi(p, y) == pytest.approx(newton_w_principal(z), rel=1e-12)


def test_c_t_tilde_where_its_factors_leave_the_normal_doubles():
    # 4/(delta^2 p_j ln2) overflows and e^(-2(omega+1)) underflows to 0, so the
    # plain product is nan, but c_t_tilde itself is a normal double.
    p = GameParams(t_aj=1.49e180, delta=2.23e-74, p_t=1.0, p_j=1.38e-162, t_p=1.0, c_t=1.0)
    omega = Decimal(decimal_newton_w(2.0 * p.t_aj / (math.e * p.delta)))
    want = 4 / (Decimal(p.delta) ** 2 * Decimal(p.p_j) * Decimal(2).ln()) * (-2 * (omega + 1)).exp() / (omega + 1)
    assert thresholds(p).c_t_tilde == pytest.approx(float(want), rel=1e-12)



def test_c_t_max_where_its_denominator_overflows(rng):
    # p_j ln2 2 delta (delta + t_aj) overflows, but c_t_max is still a
    # subnormal double: ~5.3e-310 for the first game, not 0.0.  The others
    # draw t_aj and delta over the full range and set p_j so that the
    # denominator lies between the largest double and 1/(smallest subnormal),
    # skipping the games whose c_t_tilde is refused.  The log form errs by a
    # few ulp of its ~700-sized logs: 1e-12 relative.
    p = GameParams(t_aj=4.49e-220, delta=6.98e19, p_t=1.0, p_j=2.81e269, t_p=1e-3, c_t=1.0)
    assert thresholds(p).c_t_max == pytest.approx(5.26899004624925e-310, rel=1e-12)
    checked = 0
    while checked < 15:
        t_aj, delta = (10.0 ** float(e) for e in rng.uniform(-323.0, 308.0, 2))
        log_p_j = float(rng.uniform(709.8, 744.4)) - math.log(2.0 * math.log(2.0) * delta) - math.log(delta + t_aj)
        if not math.log(5e-324) < log_p_j < math.log(1.7e308):
            continue
        p = GameParams(t_aj=t_aj, delta=delta, p_t=1.0, p_j=math.exp(log_p_j), t_p=1.0, c_t=1.0)
        try:
            got = thresholds(p).c_t_max
        except DomainError:
            continue
        want = oracles.c_t_max(p)
        assert abs(got - want) <= 1e-12 * want + 5e-324, (p, got, want)
        checked += 1


@pytest.mark.parametrize("delta", [1e-155, 2e154])
def test_delta_squared_outside_the_normal_doubles_is_refused(table1, delta):
    # 1e-155 squares to a subnormal, 2e154 past the largest double.
    p = replace(table1, delta=delta)
    for solve in (thresholds, x_hat, nash_closed_form, stackelberg_approx):
        with pytest.raises(DomainError, match=r"delta\*\*2 leaves the double range"):
            solve(p)
    with pytest.raises(DomainError, match=r"delta\*\*2 leaves the double range"):
        nash_xy(p, np.array([1e6]))
