"""Output checks: every value the program prints is re-derived or bounded here.

The checks use ``oracles`` (independent numerics) and required properties of
the game, never a stored copy of an earlier output.  Each raises
``CheckFailed`` naming the first violated property.

Tolerances: best responses and closed forms are matched to 1e-10 relative
(the program and the oracles agree to ~1e-14); Stackelberg points to the
documented bisection bracket (``leader_loss_width``) and the matching
utility loss.
"""

from __future__ import annotations

import math

import numpy as np

import oracles as O

FIGURE_COLUMNS = {
    "brX": ["y", "x_best"],
    "brY": ["x", "y_best"],
    "neX": ["c_t", "x_ne"],
    "seX": ["c_t", "x_ne", "x_se"],
    "seY": ["c_t", "y_ne", "y_se"],
    "payoffs": ["c_t", "u_t_ne", "u_j_ne", "u_t_se", "u_j_se", "improved"],
    "approx": ["c_t", "x_se", "x_se_approx", "u_t_se", "u_t_se_approx", "accuracy_ratio"],
    "efficiency": ["c_t", "xi_opt", "e_xi_opt", "e_xi_mean", "e_xi_max", "e_xi_min"],
    "comparison": ["c_t", "u_t_ne", "u_j_ne", "u_t_se", "u_j_se",
                   "u_t_case_a", "u_j_case_a", "u_t_case_b", "u_j_case_b"],
}
REL = 1e-10


class CheckFailed(AssertionError):
    pass


def require(ok, what: str) -> None:
    if not bool(np.all(ok)):
        raise CheckFailed(what)


def close(a, b, rel, what: str, abs_tol=0.0) -> None:
    a, b = np.asarray(a, float), np.asarray(b, float)
    bad = ~(np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b)) + abs_tol)
    if np.any(bad):
        k = int(np.flatnonzero(np.atleast_1d(bad))[0])
        raise CheckFailed(f"{what}: {np.atleast_1d(a)[k]!r} != {np.atleast_1d(b)[k]!r} (index {k})")


def _bool(s: str) -> bool:
    if s not in ("true", "false"):
        raise CheckFailed(f"not a boolean: {s!r}")
    return s == "true"


def parse_blocks(text: str) -> list[tuple[list[str], list[list[str]]]]:
    """CSV blocks separated by blank lines, each as (header, rows)."""
    blocks = []
    for chunk in text.strip("\n").split("\n\n"):
        lines = chunk.split("\n")
        blocks.append((lines[0].split(","), [ln.split(",") for ln in lines[1:]]))
    return blocks


# ---------------------------------------------------------------------------
# Single-scenario results

def check_ne(p, x, y, regime, u_t, u_j, c_t_tilde=None, c_t_max=None) -> None:
    tilde, c_max = O.thresholds(p)
    require(x > 2.0 * p["delta"] and y >= 0.0, "NE outside the strategy space")
    close(x, O.b_t(p, y), REL, "x_ne is not the target best response to y_ne")
    close(y, O.b_j(p, x), 0.0, "y_ne is not the jammer best response to x_ne",
          abs_tol=REL * (p["t_aj"] + x))
    interior = p["c_t"] < tilde
    require(regime == ("interior" if interior else "border"), f"regime {regime} but c_t/c_t_tilde = {p['c_t'] / tilde:.3g}")
    require((y > 0.0) == interior, "jamming at the NE disagrees with the regime")
    cap = O.decimal_capacity(p, x, y)
    close(u_t, cap - p["c_t_star"] * p["t_p"] * p["p_t"], REL, "u_t at the NE", abs_tol=REL * cap)
    close(u_j, -cap - p["c_t"] * y * p["p_j"], REL, "u_j at the NE", abs_tol=REL * cap)
    if c_t_tilde is not None:
        close(c_t_tilde, tilde, 1e-12, "c_t_tilde")
        close(c_t_max, c_max, 1e-12, "c_t_max")


def check_brd(p, iterates, tol, start, ne_xy, max_iter=1000) -> None:
    """Each step is (b_t(y_k), b_j(x_k)); the trace stops within tol, at the NE."""
    it = np.asarray(iterates, dtype=float)
    require(it.ndim == 2 and it.shape[1] == 2 and len(it) >= 2, "BRD trace is empty")
    require(len(it) - 1 <= max_iter, "BRD trace longer than max_iter")
    require(it[0, 0] == start[0] and it[0, 1] == start[1], "BRD trace does not begin at the start")
    xs, ys = it[:, 0], it[:, 1]
    close(xs[1:], O.b_t(p, ys[:-1]), REL, "BRD x_{k+1} != b_t(y_k)")
    close(ys[1:], O.b_j(p, xs[:-1]), 0.0, "BRD y_{k+1} != b_j(x_k)", abs_tol=REL * (p["t_aj"] + xs[:-1]))
    d = p["delta"]
    last = max(abs(xs[-1] - xs[-2]), abs(ys[-1] - ys[-2])) / d
    require(last <= tol, f"BRD stopped with scaled step {last:.3g} > tol {tol:.3g}")
    to_ne = max(abs(xs[-1] - ne_xy[0]), abs(ys[-1] - ne_xy[1])) / d
    require(to_ne <= tol + 1e-13 * xs[-1] / d, f"BRD ends {to_ne:.3g} (scaled) from the NE, tol {tol:.3g}")


def check_certificate(iterations_used, converged, jb_max, predicted) -> None:
    require(jb_max >= 0.0, "certificate slope is negative")
    if predicted is not None:
        require(jb_max < 1.0, "iteration bound issued without contraction")
        require(converged and iterations_used <= predicted,
                f"BRD took {iterations_used} iterations, certificate promised <= {predicted}")


def check_se(p, x_se, y_se, u_t_se, u_t_ne, improved, x_tol=None) -> None:
    """y_se = 0, chi(x_se) within the bracket, grid optimality, improved iff c_t < c_t_tilde."""
    require(y_se == 0.0, "the follower jams at the Stackelberg point")
    x0 = float(O.b_t(p, 0.0))
    width = O.leader_loss_width(p) if x_tol is None else x_tol
    loss = 1e-6 * abs(float(O.leader_utility(p, O.x_hat(p))))
    if O.decimal_chi(p, x0) <= 0.0:
        close(x_se, x0, 1e-12, "x_se must be b_t(0) when jamming is inhibited there")
    else:
        require(x_se > float(O.x_hat(p)), "x_se is not above x_hat (wrong root of chi)")
        require(abs(O.decimal_chi(p, x_se)) <= width * (1.0 + 1e-9),
                f"|chi(x_se)| = {abs(O.decimal_chi(p, x_se)):.3g} exceeds the bracket width {width:.3g}")
    u_se = float(O.leader_utility(p, x_se))
    _, best = O.grid_argmax(lambda g: O.leader_utility(p, g), 2.0 * p["delta"], 10.0 * x_se, 4000)
    require(best <= u_se + loss + 1e-12 * abs(u_se), "a grid point beats the Stackelberg leader utility")
    u_follow, _ = O.utilities(p, x_se, O.b_j(p, x_se))
    close(u_t_se, u_follow, REL, "u_t_se", abs_tol=REL * abs(u_se))
    x_ne, y_ne = O.nash_point(p)
    u_ne, _ = O.utilities(p, x_ne, y_ne)
    close(u_t_ne, u_ne, 1e-9, "u_t_ne", abs_tol=1e-9 * abs(u_se))
    tilde, _ = O.thresholds(p)
    require(improved == (p["c_t"] < tilde), f"improved={improved} but c_t/c_t_tilde = {p['c_t'] / tilde:.3g}")


def approx_x(p, c_t=None):
    """x_se_approx = delta * e^(-W_-1(-eta delta^2 / 2) / 2)."""
    return p["delta"] * np.exp(-0.5 * O.wm1(-O.eta(p, c_t) * p["delta"] ** 2 / 2.0))


def check_approx_ratio(p, x_se, ratio) -> None:
    x_ap = approx_x(p)
    want = float(O.leader_utility(p, x_ap)) / float(O.leader_utility(p, x_se))
    close(ratio, want, 1e-9, "accuracy_ratio")
    require(0.0 < ratio <= 1.0 + 1e-9, "approximation beats the exact optimum")


# ---------------------------------------------------------------------------
# CLI outputs

def check_nash_output(op: dict, stdout: str) -> None:
    p = op["params"]
    blocks = parse_blocks(stdout)
    header, rows = blocks[0]
    require(header == ["x_ne", "y_ne", "regime", "u_t", "u_j", "c_t_tilde", "c_t_max"], "nash header")
    require(len(rows) == 1, "nash prints one row")
    r = rows[0]
    x, y = float(r[0]), float(r[1])
    check_ne(p, x, y, r[2], float(r[3]), float(r[4]), float(r[5]), float(r[6]))
    if "brd" in op:
        require(len(blocks) == 2, "nash --brd prints a second block")
        header, rows = blocks[1]
        require(header == ["iteration", "x", "y"], "BRD header")
        require([int(row[0]) for row in rows] == list(range(len(rows))), "BRD iteration column")
        check_brd(p, [(float(a), float(b)) for _, a, b in rows], op["brd"]["tol"], op["brd"]["start"], (x, y))
    else:
        require(len(blocks) == 1, "plain nash prints one block")


def check_stackelberg_output(op: dict, stdout: str) -> None:
    p = op["params"]
    (header, rows), = parse_blocks(stdout)
    want = ["x_se", "y_se", "u_t_se", "u_t_ne", "improved"] + (["accuracy_ratio"] if op.get("approx") else [])
    require(header == want, "stackelberg header")
    require(len(rows) == 1, "stackelberg prints one row")
    r = rows[0]
    check_se(p, float(r[0]), float(r[1]), float(r[2]), float(r[3]), _bool(r[4]))
    if op.get("approx"):
        check_approx_ratio(p, float(r[0]), float(r[5]))


def check_query_output(op: dict, stdout: str) -> None:
    if op["args"][0] == "nash":
        check_nash_output(op, stdout)
    else:
        check_stackelberg_output(op, stdout)


def _se_columns(p, c_t, x_se) -> None:
    """Vectorised Stackelberg check over a c_t sweep."""
    x0 = float(O.b_t(p, 0.0))
    inhibited = O.chi(p, x0, c_t) <= 0.0
    close(np.where(inhibited, x_se, x0), x0, 1e-12, "x_se must be b_t(0) when jamming is inhibited")
    widths = np.array([O.leader_loss_width(p, c) for c in c_t])
    resid = np.abs(O.chi(p, x_se, c_t))
    require(inhibited | (resid <= widths * (1.0 + 1e-9)), "|chi(x_se)| exceeds the bracket width")
    for k in range(0, len(c_t), max(1, len(c_t) // 8)):
        q = dict(p, c_t=float(c_t[k]))
        loss = 1e-6 * abs(float(O.leader_utility(q, O.x_hat(q))))
        u_se = float(O.leader_utility(q, x_se[k]))
        _, best = O.grid_argmax(lambda g: O.leader_utility(q, g), 2.0 * p["delta"], 10.0 * x_se[k], 4000)
        require(best <= u_se + loss + 1e-12 * abs(u_se), f"a grid point beats x_se at c_t={c_t[k]:g}")


def _ne_x_columns(p, c_t, x_ne) -> None:
    """Mutual best response from x alone: x = b_t(b_j(x))."""
    close(x_ne, O.b_t(p, O.b_j(p, x_ne, c_t)), REL, "x_ne is not a fixed point of b_t(b_j(x))")


def check_sweep_output(op: dict, text: str) -> None:
    fig, p = op["figure"], op["params"]
    a, b, n = op["range"]
    (header, rows), = parse_blocks(text)
    require(header == FIGURE_COLUMNS[fig], f"{fig} header")
    require(len(rows) == n, f"{fig} has {len(rows)} rows, expected {n}")
    require(all(len(r) == len(header) for r in rows), f"{fig} row width")
    flags = None
    if fig == "payoffs":
        flags = np.array([_bool(r[-1]) for r in rows])
        rows = [r[:-1] for r in rows]
    cols = np.array(rows, dtype=float).T
    v = cols[0]
    close(v, O.log_grid(a, b, n), 1e-13, f"{fig} grid")
    c_t = v
    tilde, _ = O.thresholds(p)

    if fig == "brX":
        close(cols[1], O.b_t(p, v), REL, "brX x_best")
    elif fig == "brY":
        close(cols[1], O.b_j(p, v), 0.0, "brY y_best", abs_tol=REL * (p["t_aj"] + v))
    elif fig == "neX":
        _ne_x_columns(p, c_t, cols[1])
    elif fig == "seX":
        _ne_x_columns(p, c_t, cols[1])
        _se_columns(p, c_t, cols[2])
    elif fig == "seY":
        y_ne = cols[1]
        x_ne = O.b_t(p, y_ne)
        close(y_ne, O.b_j(p, x_ne, c_t), 0.0, "y_ne is not b_j(b_t(y_ne))", abs_tol=REL * (p["t_aj"] + x_ne))
        require((y_ne > 0.0) == (c_t < tilde), "seY: jamming at the NE disagrees with the regime")
        require(cols[2] == 0.0, "seY: y_se must be 0")
    elif fig in ("payoffs", "comparison"):
        x_ne, y_ne = O.nash_point(p, c_t)
        u_t_ne, u_j_ne = O.utilities(p, x_ne, y_ne, c_t)
        close(cols[1], u_t_ne, 1e-9, f"{fig} u_t_ne")
        close(cols[2], u_j_ne, 1e-9, f"{fig} u_j_ne")
        root = O.committed_x(p, c_t)
        u_t_se, u_j_se = O.utilities(p, root, O.b_j(p, root, c_t), c_t)
        # x_se may sit anywhere in its bisection bracket: allow the documented loss.
        loss = 1e-6 * np.abs(O.leader_utility(p, O.x_hat(p, c_t), c_t))
        width = np.array([O.leader_loss_width(p, c) for c in c_t])
        close(cols[3], u_t_se, 1e-9, f"{fig} u_t_se", abs_tol=loss)
        close(cols[4], u_j_se, 1e-9, f"{fig} u_j_se", abs_tol=loss + c_t * p["p_j"] * width)
        if fig == "payoffs":
            require(flags == (c_t < tilde), "payoffs: improved disagrees with c_t < c_t_tilde")
        else:
            x_n = float(O.b_t(p, 0.0))
            y_n = O.b_j(p, x_n, c_t)
            ua_t, ua_j = O.utilities(p, x_n, y_n, c_t)
            ub_t, ub_j = O.utilities(p, O.b_t(p, y_n), y_n, c_t)
            for k, (want, name) in enumerate(((ua_t, "u_t_case_a"), (ua_j, "u_j_case_a"),
                                              (ub_t, "u_t_case_b"), (ub_j, "u_j_case_b"))):
                close(cols[5 + k], want, 1e-9, f"comparison {name}")
    elif fig == "approx":
        _se_columns(p, c_t, cols[1])
        close(cols[2], approx_x(p, c_t), REL, "x_se_approx != delta e^(-W_-1(-eta delta^2/2)/2)")
        close(cols[3], O.leader_utility(p, cols[1], c_t), REL, "approx u_t_se")
        close(cols[4], O.leader_utility(p, cols[2], c_t), REL, "approx u_t_se_approx")
        close(cols[5], cols[4] / cols[3], 1e-12, "approx accuracy_ratio")
    elif fig == "efficiency":
        xi_min, xi_max = op["prior"]
        xi = cols[1]
        require(xi == xi[0], "efficiency: xi_opt differs between rows")
        require((xi_min <= xi[0]) & (xi[0] <= xi_max), "efficiency: xi_opt outside the prior")
        e = cols[2:]
        require((e > 0.0) & (e <= 1.0), "efficiency outside (0, 1]")
        denom = O.realized_utility(p, c_t, c_t)
        for k, assumed in enumerate((xi[0], 0.5 * (xi_min + xi_max), xi_max, xi_min)):
            want = O.realized_utility(p, np.full(n, assumed), c_t) / denom
            close(e[k], want, 1e-7, f"efficiency column {FIGURE_COLUMNS[fig][2 + k]}")
        grid = np.logspace(math.log10(xi_min), math.log10(xi_max), 2000)
        best = float(np.max(O.expected_utility(p, xi_min, xi_max, grid)))
        at = float(O.expected_utility(p, xi_min, xi_max, xi[0]))
        require(at >= best * (1.0 - 1e-9), "a grid point beats xi_opt in expected utility")
    else:
        raise CheckFailed(f"no check for figure {fig}")


def parse_sim_file(text: str):
    lines = text.split("\n")
    head = {}
    k = 0
    while lines[k].startswith("#"):
        key, sep, val = lines[k][2:].partition("=")
        if sep:
            head[key] = val
        k += 1
    rest = "\n".join(lines[k:])
    (sh, srows), (eh, erows) = parse_blocks(rest)
    return head, sh, np.array(srows, dtype=float), eh, np.array(erows, dtype=float)


def check_simulate_output(op: dict, text: str, stdout: str) -> None:
    """Replays the strategy table from the event table with the oracle best responses."""
    p, period, cycles = op["params"], op["period"], op["cycles"]
    head, sh, strat, eh, ev = parse_sim_file(text)
    require(head.get("seed") == str(op["seed"]), "seed header")
    require(head.get("total_cycles") == str(cycles) and head.get("update_period_cycles") == str(period),
            "cycle-count headers")
    require(sh == ["update", "cycle", "x", "y", "x_est_by_jammer", "y_est_by_target"], "strategy header")
    require(eh == ["cycle", "silence_s", "jam_s", "bits", "jam_energy_j"], "event header")
    updates = cycles // period
    require(strat.shape == (updates + 1, 6), f"strategy table has {len(strat)} rows, expected {updates + 1}")
    require(ev.shape == (cycles, 5), f"event table has {len(ev)} rows, expected {cycles}")
    require(strat[:, 0] == np.arange(updates + 1), "update index column")
    require(strat[:, 1] == period * np.arange(updates + 1), "update cycle column")
    require(ev[:, 0] == np.arange(cycles), "event cycle column")

    x, y = strat[:, 2], strat[:, 3]
    silence, jam, bits, energy = ev[:, 1], ev[:, 2], ev[:, 3], ev[:, 4]
    in_force = np.arange(cycles) // period  # strategy row that applies to each cycle
    xc, yc = x[in_force], y[in_force]
    require((silence >= 0.0) & (silence <= xc), "a silence lies outside [0, x]")
    require((jam >= 0.0) & ((yc > 0.0) | (jam == 0.0)), "jam draws inconsistent with y")
    close(bits, np.log2(xc / p["delta"]), 1e-12, "bits != log2(x/delta)")
    close(energy, jam * p["p_j"], 1e-12, "jam_energy != jam * p_j")

    n = period
    y_est = jam[: updates * n].reshape(updates, n).sum(axis=1) / n
    x_est = np.maximum((n + 1) / n * silence[: updates * n].reshape(updates, n).max(axis=1), 2.0 * p["delta"])
    close(strat[1:, 5], y_est, 1e-12, "y_est_by_target != window mean of jam draws")
    close(strat[1:, 4], x_est, 1e-12, "x_est_by_jammer != (n+1)/n window max of silences")
    close(x[1:], O.b_t(p, y_est), REL, "strategy update x != b_t(y_est)")
    close(y[1:], O.b_j(p, x_est), 0.0, "strategy update y != b_j(x_est)", abs_tol=REL * (p["t_aj"] + x_est))

    (sumh, sumrows), = parse_blocks(stdout)
    require(sumh == ["final_x", "final_y", "updates_to_ne"] and len(sumrows) == 1, "summary format")
    fx, fy, hit = sumrows[0]
    require(float(fx) == x[-1] and float(fy) == y[-1], "summary does not match the last strategy row")
    x_ne, y_ne = O.nash_point(p)
    at = (np.abs(x - x_ne) <= 1e-6 * x_ne) & (np.abs(y - y_ne) <= 1e-6 * (p["t_aj"] + y_ne))
    want = -1 if not at[-1] else int(np.flatnonzero(np.r_[True, ~at])[-1])
    require(int(hit) == want, f"updates_to_ne {hit} but the table reaches the NE at {want}")


# ---------------------------------------------------------------------------
# Library results (the api workload)

def check_api_result(scn: dict, r: dict) -> None:
    p = scn["params"]
    ne_x, ne_y, regime, u_t, u_j = r["ne"]
    check_ne(p, ne_x, ne_y, regime, u_t, u_j)
    check_brd(p, r["brd"]["iterates"], 1e-12, scn["start"], (ne_x, ne_y))
    require(r["brd"]["converged"] and r["brd"]["iterations_used"] == len(r["brd"]["iterates"]) - 1,
            "BRD trace bookkeeping")
    check_certificate(r["brd"]["iterations_used"], r["brd"]["converged"], *r["cert"])
    rep = r["report"]
    close(rep["u_t_ne"], u_t, 0.0, "improvement_report u_t_ne differs from nash_closed_form")
    check_se(p, r["se"][0], r["se"][1], rep["u_t_se"], rep["u_t_ne"], rep["improved"])
    close(r["approx"], approx_x(p), REL, "stackelberg_approx x")
