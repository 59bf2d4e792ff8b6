"""Acceptance gate: one test per exit criterion, at the stated tolerances.

Run ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line per
criterion.  Criterion 7a (the 75% efficiency floor) evaluates a quantitative
claim of the source analysis that is not reproducible from its own equations;
the test implements the claim verbatim, prints a reproducible discrepancy
report, and is expected to fail.  See notes in the repository docs.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from jamgame import (
    BRANCH_POINT,
    GameParams,
    StrategyProfile,
    UniformPrior,
    WBranch,
    best_response_jammer,
    best_response_target,
    brd,
    capacity_xy,
    convergence_certificate,
    efficiency,
    expected_utility_closed,
    improvement_report,
    lambert_w,
    lambert_w_prime,
    leader_utility,
    nash_closed_form,
    psi,
    run_sim,
    s_prime_bounds,
    stackelberg_approx,
    stackelberg_exact,
    thresholds,
    updates_to_equilibrium,
    utilities_xy,
    x_hat,
    SimConfig,
)
from .oracles import exact_chi, expected_utility_numeric

TABLE1 = GameParams(t_aj=15e-6, delta=1e-6, p_t=2.0, p_j=2.0, t_p=50e-6, c_t=1e6, c_t_star=0.0)
TABLE2 = GameParams(t_aj=15e-6, delta=1e-6, p_t=2.0, p_j=2.0, t_p=20e-6, c_t=8e9, c_t_star=1e6)

C_T_SWEEP = np.logspace(5, 9, 50)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def sweep_params():
    return [replace(TABLE1, c_t=float(c)) for c in C_T_SWEEP]


# ---------------------------------------------------------------------------
# 1. W kernel: defining identity and derivative identity, under 1 second.

def test_c1_lambert_kernel():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)

    z = BRANCH_POINT + rng.random(10**4) * 1e6
    w = lambert_w(z)
    res_p = np.abs(w * np.exp(w) - z) / np.maximum(1.0, np.abs(z))

    zm = BRANCH_POINT * rng.random(10**4)
    zm = np.where(zm == 0.0, -1e-30, zm)
    wm = lambert_w(zm, WBranch.MINUS1)
    res_m = np.abs(wm * np.exp(wm) - zm) / np.maximum(1.0, np.abs(zm))

    grid = np.logspace(-3, 8, 200)  # log-spaced, away from the branch point
    fd = (lambert_w(grid * (1 + 1e-7)) - lambert_w(grid * (1 - 1e-7))) / (2e-7 * grid)
    dw = lambert_w_prime(grid)
    dres = np.abs(dw - fd) / np.abs(fd)

    elapsed = time.perf_counter() - t0
    ok = (
        res_p.max() <= 1e-12
        and res_m.max() <= 1e-12
        and dres.max() <= 1e-6
        and elapsed < 1.0
    )
    report(
        "1",
        ok,
        f"identity residuals {res_p.max():.2e}/{res_m.max():.2e} (<=1e-12), "
        f"derivative vs FD {dres.max():.2e} (<=1e-6), runtime {elapsed:.2f}s (<1s)",
    )


# ---------------------------------------------------------------------------
# 2. Closed-form NE == BRD fixed point on the weight sweep; iteration counts.

def test_c2_nash_closed_form_vs_brd():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_rel = 0.0
    over_soft: list[tuple[float, int]] = []
    hard_ok = True

    for p in sweep_params():
        ne = nash_closed_form(p)
        b = s_prime_bounds(p)
        tight = brd(p, StrategyProfile(4 * p.delta, 0.0), tol=1e-12)
        assert tight.converged
        rel = max(
            abs(tight.iterates[-1].x - ne.profile.x) / ne.profile.x,
            abs(tight.iterates[-1].y - ne.profile.y) / max(ne.profile.y, p.delta),
        )
        worst_rel = max(worst_rel, rel)

        y_scale = p.t_aj + ne.profile.y
        for _ in range(100):
            start = StrategyProfile(
                float(rng.uniform(2 * p.delta, 10 * b.x_M)),
                float(rng.uniform(0.0, 10 * max(b.y_M, p.t_aj))),
            )
            t = brd(p, start, tol=1e-30, max_iter=12)
            hit = None
            for i, s in enumerate(t.iterates):
                in_ball = (
                    abs(s.x - ne.profile.x) <= 1e-2 * ne.profile.x
                    and abs(s.y - ne.profile.y) <= 1e-2 * y_scale
                )
                if in_ball and hit is None:
                    hit = i
                elif not in_ball:
                    hit = None
            if hit is None or hit > 10:
                hard_ok = False
            elif hit > 7:
                over_soft.append((p.c_t, hit))

    elapsed = time.perf_counter() - t0
    if over_soft:
        outliers = {}
        for c_t, hit in over_soft:
            outliers[hit] = outliers.get(hit, 0) + 1
        print(f"\n[criterion 2] outliers beyond 7 iterations (allowed <=10): {outliers}")
    ok = worst_rel <= 1e-6 and hard_ok and elapsed < 10.0
    report(
        "2",
        ok,
        f"closed-form vs BRD fixed point worst rel {worst_rel:.2e} (<=1e-6), "
        f"{len(over_soft)}/5000 starts over 7 iters, hard bound 10 "
        f"{'held' if hard_ok else 'VIOLATED'}, runtime {elapsed:.1f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# 3. Absorption into S' by iteration 2, containment through iteration 50.

def test_c3_absorbing_box():
    rng = np.random.default_rng(3)
    p = TABLE1
    b = s_prime_bounds(p)
    slack = 1e-12
    ok = True
    for _ in range(1000):
        start = StrategyProfile(
            float(rng.uniform(2 * p.delta, 100 * b.x_M)),
            float(rng.uniform(0.0, 100 * b.y_M)),
        )
        t = brd(p, start, tol=1e-30, max_iter=50)
        for s in t.iterates[2:]:
            if not (
                b.x_m * (1 - slack) <= s.x <= b.x_M * (1 + slack)
                and -1e-30 <= s.y <= b.y_M * (1 + slack)
            ):
                ok = False
    report("3", ok, "1000 random starts inside S' from iteration 2 through 50 (tol 1e-12)")


# ---------------------------------------------------------------------------
# 4. Certificate soundness wherever the sufficient condition holds.

def test_c4_certificate_soundness():
    rng = np.random.default_rng(4)
    conditioned = 0
    contraction_ok = True
    bound_ok = True
    for p in sweep_params():
        start = StrategyProfile(
            float(rng.uniform(2 * p.delta, 1e-3)), float(rng.uniform(0.0, 1e-3))
        )
        cert = convergence_certificate(p, epsilon=1e-9, start=start)
        if not cert.condition_ct_holds:
            continue
        conditioned += 1
        if not cert.jb_max < 1.0:
            contraction_ok = False
            continue
        for _ in range(20):
            s0 = StrategyProfile(
                float(rng.uniform(2 * p.delta, 1e-3)), float(rng.uniform(0.0, 1e-3))
            )
            c = convergence_certificate(p, epsilon=1e-9, start=s0)
            t = brd(p, s0, tol=1e-9, max_iter=1000)
            if not (t.converged and t.iterations_used <= c.predicted_max_iterations):
                bound_ok = False
    ok = conditioned > 0 and contraction_ok and bound_ok
    report(
        "4",
        ok,
        f"condition held at {conditioned}/50 sweep points; jb_max<1 "
        f"{'ok' if contraction_ok else 'VIOLATED'}; empirical iterations <= "
        f"predicted {'ok' if bound_ok else 'VIOLATED'}",
    )


# ---------------------------------------------------------------------------
# 5. Stackelberg: follower inhibited, root residual, global optimality,
#    improvement exactly below the border threshold.

def test_c5_stackelberg():
    y_ok = True
    resid_ok = True
    glob_ok = True
    for p in sweep_params():
        se = stackelberg_exact(p)
        if se.profile.y != 0.0:
            y_ok = False
        # The leader sits on the larger zero of chi to float resolution: the
        # exact chi there is a few ulp of its largest term, t_aj + x/2.
        if abs(exact_chi(p, se.profile.x)) > 4 * math.ulp(p.t_aj + se.profile.x / 2):
            resid_ok = False
        u_star = float(leader_utility(p, se.profile.x))
        grid = np.logspace(
            math.log10(2 * p.delta), math.log10(10 * se.profile.x), 10**4
        )
        if np.max(leader_utility(p, grid, p.c_t)) > u_star * (1 + 1e-12):
            glob_ok = False

    improve_ok = all(improvement_report(p).improved for p in sweep_params())
    tilde = thresholds(TABLE1).c_t_tilde
    equal_ok = True
    for c_t in [tilde * 1.000001, tilde * 1.5, 5e9, 1e10, 5e10]:
        rep = improvement_report(replace(TABLE1, c_t=float(c_t)))
        if rep.improved or abs(rep.u_t_se - rep.u_t_ne) > 1e-9 * abs(rep.u_t_ne):
            equal_ok = False

    ok = y_ok and resid_ok and glob_ok and improve_ok and equal_ok
    report(
        "5",
        ok,
        f"y_se=0 {'ok' if y_ok else 'VIOLATED'}; exact chi residual within 4 ulp "
        f"{'ok' if resid_ok else 'VIOLATED'}; 1e4-grid optimality "
        f"{'ok' if glob_ok else 'VIOLATED'}; improvement iff c_t below the "
        f"border threshold {'ok' if improve_ok and equal_ok else 'VIOLATED'} "
        f"(equality tol 1e-9)",
    )


# ---------------------------------------------------------------------------
# 6. Closed-form approximation keeps at least 82% of the leader utility.

def test_c6_approximation_floor():
    worst = 1.0
    for p in sweep_params():
        r = float(leader_utility(p, stackelberg_approx(p).profile.x)) / float(
            leader_utility(p, stackelberg_exact(p).profile.x)
        )
        worst = min(worst, r)
    ok = worst >= 0.82
    report("6", ok, f"worst approximation accuracy over sweep {worst:.4f} (floor 0.82)")


# ---------------------------------------------------------------------------
# 7. Imperfect knowledge (prior 1e5..1e9): efficiency floor, xi_opt vs xi_max,
#    closed form vs quadrature.

PRIOR = UniformPrior(xi_min=1e5, xi_max=1e9)


def _efficiency_table():
    from jamgame import xi_opt

    opt = xi_opt(TABLE1, PRIOR)
    xi_mean = 0.5 * (PRIOR.xi_min + PRIOR.xi_max)
    rows = []
    for p in sweep_params():
        rows.append(
            (
                p.c_t,
                efficiency(p, opt),
                efficiency(p, xi_mean),
                efficiency(p, PRIOR.xi_max),
            )
        )
    return opt, rows


def test_c7a_efficiency_floor():
    # Implements the published floor verbatim: e > 0.75 for
    # xi in {xi_opt, xi_mean, xi_max} at every swept weight.  Under the
    # model's own equations the floor does not hold at the low-weight end
    # (the committed strategy for a large assumed weight is far too short
    # when the true jammer is cheap to run), so this criterion documents a
    # reproducible discrepancy rather than an implementation defect: the
    # same quantities normalized by the Nash utility instead of the
    # perfect-knowledge utility do clear 0.75 everywhere.
    opt, rows = _efficiency_table()
    failures = [r for r in rows if min(r[1], r[2], r[3]) <= 0.75]
    if failures:
        print("\n[criterion 7a] discrepancy report: efficiency <= 0.75 at")
        print("    c_t          e(xi_opt)  e(xi_mean)  e(xi_max)")
        for c_t, e_o, e_m, e_x in failures:
            print(f"    {c_t:<12.6g} {e_o:<10.4f} {e_m:<11.4f} {e_x:<9.4f}")
        mins = (
            min(r[1] for r in rows),
            min(r[2] for r in rows),
            min(r[3] for r in rows),
        )
        print(
            f"[criterion 7a] minima over sweep: e(xi_opt)={mins[0]:.4f}, "
            f"e(xi_mean)={mins[1]:.4f}, e(xi_max)={mins[2]:.4f} (xi_opt={opt:.4g})"
        )
    ok = not failures
    report(
        "7a",
        ok,
        f"efficiency floor 0.75 for xi_opt/xi_mean/xi_max across sweep: "
        f"{len(failures)}/50 weights below the floor",
    )


def test_c7b_xi_opt_close_to_xi_max():
    _, rows = _efficiency_table()
    worst_gap = max(r[1] - r[3] for r in rows)
    ok = worst_gap <= 0.02
    report("7b", ok, f"max e(xi_opt) - e(xi_max) over sweep = {worst_gap:.4f} (<=0.02)")


def test_c7c_closed_form_vs_quadrature():
    worst = 0.0
    for xi in np.logspace(5, 9, 20):
        c = expected_utility_closed(TABLE1, PRIOR, float(xi))
        q = expected_utility_numeric(TABLE1, PRIOR, float(xi))
        worst = max(worst, abs(c - q) / abs(q))
    ok = worst <= 1e-6
    report("7c", ok, f"closed form vs quadrature worst rel diff {worst:.2e} (<=1e-6)")


# ---------------------------------------------------------------------------
# 8. Simulation reaches the border equilibrium; perfect-observation hook
#    reproduces the analytic dynamics.

def test_c8_simulation():
    t0 = time.perf_counter()
    success = 0
    for seed in range(100):
        cfg = SimConfig(params=TABLE2, total_cycles=100, update_period_cycles=10, rng_seed=seed)
        k = updates_to_equilibrium(run_sim(cfg))
        if 0 <= k <= 5:  # 3 updates plus 2-update estimation-noise allowance
            success += 1

    start = StrategyProfile(3e-4, 1e-4)
    cfg = SimConfig(
        params=TABLE1, total_cycles=100, update_period_cycles=10,
        rng_seed=0, x0=start.x, y0=start.y,
    )
    tr = run_sim(cfg, perfect_observation=True)
    ref = brd(TABLE1, start, tol=1e-30, max_iter=len(tr.x))
    hook_ok = all(
        abs(x - it.x) <= 1e-9 * it.x and abs(y - it.y) <= 1e-9 * max(it.y, TABLE1.delta)
        for x, y, it in zip(tr.x, tr.y, ref.iterates)
    )
    elapsed = time.perf_counter() - t0
    ok = success >= 95 and hook_ok and elapsed < 30.0
    report(
        "8",
        ok,
        f"{success}/100 seeds reached the border NE within 5 updates (>=95); "
        f"perfect-observation history == BRD iterates to 1e-9: {hook_ok}; "
        f"runtime {elapsed:.1f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# 9. Utility-shape properties and the interior-equilibrium identity.

def test_c9_shape_properties_and_identity():
    p = TABLE1
    shape_ok = True
    for y in [0.0, 1e-4, 1e-3, 5e-3]:
        bt = float(best_response_target(p, y))
        xs = np.linspace(2 * p.delta, bt, 500)
        if not np.all(np.diff(utilities_xy(p, xs, y, p.c_t)[0], 2) < 0):
            shape_ok = False
        xs_after = np.linspace(bt, 100 * bt, 500)
        if not np.all(np.diff(utilities_xy(p, xs_after, y, p.c_t)[0]) < 0):
            shape_ok = False
    y_M = s_prime_bounds(p).y_M
    for x in [2e-6, 1e-4, 1e-3]:
        ys = np.linspace(0.0, 10 * y_M, 500)
        if not np.all(np.diff(utilities_xy(p, x, ys, p.c_t)[1], 2) <= 1e-18):
            shape_ok = False
        if not np.all(np.diff(capacity_xy(p, x, ys)) < 0):
            shape_ok = False

    ident_ok = True
    for c_t in C_T_SWEEP:
        pp = replace(p, c_t=float(c_t))
        ne = nash_closed_form(pp)
        ps = float(psi(pp, ne.profile.y))
        lhs = (ne.profile.y + pp.t_aj) ** 2
        rhs = ps * ps / (pp.eta * (ps + 1.0))
        if abs(lhs - rhs) > 1e-9 * lhs:
            ident_ok = False

    ok = shape_ok and ident_ok
    report(
        "9",
        ok,
        f"utility shape grids {'ok' if shape_ok else 'VIOLATED'}; interior "
        f"identity to 1e-9 {'ok' if ident_ok else 'VIOLATED'}",
    )
