"""Command-line front end: equilibrium queries, sweeps, simulation runs.

Subcommands::

    jamgame nash CONFIG [--brd] [--tol T] [--max-iter N] [--start-x X --start-y Y]
    jamgame stackelberg CONFIG [--approx]
    jamgame sweep CONFIG --figure ID --log-range A B N [--out PATH]
    jamgame simulate CONFIG --out PATH [--seed K]

All output is CSV with a header row; floats are printed with shortest
round-trip precision (repr).  Exit codes: 0 ok, 2 config/usage error,
3 game-invariant violation, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .best_response import best_response_target, thresholds
from .config import dump_config, game_params_from_config, read_config
from .errors import ConfigError, InvalidParams, JamGameError
from .model import GameParams, StrategyProfile
from .nash import DEFAULT_MAX_ITER, DEFAULT_TOL, brd, nash_closed_form
from .stackelberg import improvement_report, leader_utility, stackelberg_approx, stackelberg_exact

__all__ = ["main", "FIGURE_COLUMNS"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_IO = 4

# A sweep holds its grid and one result column per figure column whole, 8 B a
# point each (1 B for ``improved``), plus one slice of work: 16-72 B a point,
# and ~45 MB peak RSS for neX at this limit.
MAX_SWEEP_POINTS = 10**6
# sweep solves and writes, and simulate writes, this many rows at a time, so
# only one slice at a time exists as Python floats and strings.
_CHUNK_ROWS = 4096


# Formatters by the Python type of a column's values; numbers are written with repr.
_FORMAT = {bool: lambda v: "true" if v else "false", str: str}


def _write_table(out, header, blocks) -> None:
    """Write ``header`` and the rows of each block of equal-length lists, ranges or arrays."""
    out.write(",".join(header) + "\n")
    for block in blocks:
        columns = [col.tolist() if hasattr(col, "tolist") else list(col) for col in block]
        rows = zip(*(map(_FORMAT.get(type(c[0]), repr), c) for c in columns))
        out.writelines(",".join(row) + "\n" for row in rows)


def _slices(rows: int):
    """``(start, stop)`` of consecutive slices of at most ``_CHUNK_ROWS`` rows."""
    for start in range(0, rows, _CHUNK_ROWS):
        yield start, min(start + _CHUNK_ROWS, rows)


def _check_positive_finite(name: str, v: float) -> None:
    if not (math.isfinite(v) and v > 0):
        raise ConfigError(f"{name} must be finite and > 0, got {v!r}")


def _finite(cfg: dict, key: str, default: float) -> float:
    v = cfg.get(key, default)
    if not math.isfinite(v):
        raise ConfigError(f"{key} must be finite, got {v!r}")
    return v


def _count(cfg: dict, key: str, default: int) -> int:
    v = cfg.get(key, default)
    if not (math.isfinite(v) and v >= 1 and v == int(v)):
        raise ConfigError(f"{key} must be an integer >= 1, got {v!r}")
    return int(v)


# ---------------------------------------------------------------------------
# nash

def _cmd_nash(args) -> int:
    _check_positive_finite("--tol", args.tol)
    if args.max_iter < 1:
        raise ConfigError(f"--max-iter must be >= 1, got {args.max_iter}")
    cfg = read_config(args.config)
    p = game_params_from_config(cfg)
    res = nash_closed_form(p)
    th = thresholds(p)
    trace = None
    if args.brd:
        start = StrategyProfile(
            x=args.start_x if args.start_x is not None else 2.0 * p.delta,
            y=args.start_y if args.start_y is not None else 0.0,
        )
        trace = brd(p, start, tol=args.tol, max_iter=args.max_iter)
    row = (res.profile.x, res.profile.y, res.regime.value, res.utilities.u_t,
           res.utilities.u_j, th.c_t_tilde, th.c_t_max)
    header = ["x_ne", "y_ne", "regime", "u_t", "u_j", "c_t_tilde", "c_t_max"]
    _write_table(sys.stdout, header, [[[v] for v in row]])
    if trace is not None:
        sys.stdout.write("\n")
        xs, ys = [s.x for s in trace.iterates], [s.y for s in trace.iterates]
        _write_table(sys.stdout, ["iteration", "x", "y"], [[range(len(xs)), xs, ys]])
    return EXIT_OK


# ---------------------------------------------------------------------------
# stackelberg

def _cmd_stackelberg(args) -> int:
    cfg = read_config(args.config)
    p = game_params_from_config(cfg)
    se = stackelberg_exact(p)
    rep = improvement_report(p)
    header = ["x_se", "y_se", "u_t_se", "u_t_ne", "improved"]
    row = [se.profile.x, se.profile.y, rep.u_t_se, rep.u_t_ne, rep.improved]
    if args.approx:
        approx = stackelberg_approx(p)
        ratio = leader_utility(p, approx.profile.x) / se.utilities.u_t
        header.append("accuracy_ratio")
        row.append(ratio)
    _write_table(sys.stdout, header, [[[v] for v in row]])
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

FIGURE_COLUMNS = {
    "brX": ["y", "x_best"],
    "brY": ["x", "y_best"],
    "neX": ["c_t", "x_ne"],
    "neY": ["c_t", "y_ne"],
    "seX": ["c_t", "x_ne", "x_se"],
    "seY": ["c_t", "y_ne", "y_se"],
    "payoffs": ["c_t", "u_t_ne", "u_j_ne", "u_t_se", "u_j_se", "improved"],
    "approx": ["c_t", "x_se", "x_se_approx", "u_t_se", "u_t_se_approx", "accuracy_ratio"],
    "efficiency": ["c_t", "xi_opt", "e_xi_opt", "e_xi_mean", "e_xi_max", "e_xi_min"],
    "comparison": [
        "c_t", "u_t_ne", "u_j_ne", "u_t_se", "u_j_se",
        "u_t_case_a", "u_j_case_a", "u_t_case_b", "u_j_case_b",
    ],
}


def _figure_solver(figure: str, p: GameParams, cfg: dict):
    """``solve(v)``: the figure's columns after the first on a slice v of the grid.

    Every column is elementwise in v; what does not depend on v (the
    efficiency figure's xi_opt) is solved here, once.
    """
    import numpy as np

    from . import columns as col

    if figure == "brX":
        return lambda v: [col.best_response_target(p, v)]
    if figure == "brY":
        return lambda v: [col.best_response_jammer(p, v, p.c_t)]
    if figure == "neX":
        return lambda v: [col.nash_sweep(p, v).x]
    if figure == "neY":
        return lambda v: [col.nash_sweep(p, v).y]
    if figure == "seX":
        return lambda v: [col.nash_sweep(p, v).x, col.stackelberg_sweep(p, v)]
    if figure == "seY":
        # The follower never jams a committed leader: y_se is 0 by construction.
        return lambda v: [col.nash_sweep(p, v).y, np.zeros_like(v)]
    if figure == "payoffs":
        def payoffs(v):
            rep = col.improvement_sweep(p, v)
            return [rep.u_t_ne, rep.u_j_ne, rep.u_t_se, rep.u_j_se, rep.improved]
        return payoffs
    if figure == "approx":
        def approx(v):
            x_se = col.stackelberg_sweep(p, v)
            x_ap = col.stackelberg_approx_sweep(p, v)
            u_se = col.utilities_xy(p, x_se, 0.0, v)[0]
            u_ap = col.leader_utility(p, x_ap, v)
            return [x_se, x_ap, u_se, u_ap, u_ap / u_se]
        return approx
    if figure == "efficiency":
        from .belief import UniformPrior, efficiency, xi_opt

        prior = UniformPrior(
            xi_min=_finite(cfg, "xi_min", 1e5), xi_max=_finite(cfg, "xi_max", 1e9)
        )
        opt = xi_opt(p, prior)
        xi_mean = 0.5 * (prior.xi_min + prior.xi_max)
        assumed = np.array([[opt], [xi_mean], [prior.xi_max], [prior.xi_min]])
        return lambda v: [np.full_like(v, opt), *efficiency(p, assumed, v)]
    x_naive = best_response_target(p, 0.0)

    def comparison(v):
        rep = col.improvement_sweep(p, v)
        y_naive = col.best_response_jammer(p, x_naive, v)
        # Case A: target ignores the jammer (assumes y ~ 0) and gets jammed.
        u_t_a, u_j_a = col.utilities_xy(p, x_naive, y_naive, v)
        # Case B: jammer assumes a naive target; the target best-responds.
        u_t_b, u_j_b = col.utilities_xy(p, col.best_response_target(p, y_naive), y_naive, v)
        return [rep.u_t_ne, rep.u_j_ne, rep.u_t_se, rep.u_j_se, u_t_a, u_j_a, u_t_b, u_j_b]
    return comparison


def _sweep_columns(figure: str, p: GameParams, a: float, b: float, n: int, cfg: dict) -> list:
    """The figure's columns on the n-point log grid from a to b, solved slice by slice.

    Each slice's results fill full-length columns of the first slice's dtypes,
    so only one slice's temporaries exist at a time.
    """
    import numpy as np

    from . import columns as col

    v = col.log_grid(a, b, n)
    table = None
    # Weights near the ends of the double range overflow or divide by zero on
    # the way into W; the inf that results is refused there as a DomainError.
    with np.errstate(over="ignore", divide="ignore"):
        solve = _figure_solver(figure, p, cfg)
        for start, stop in _slices(n):
            part = solve(v[start:stop])
            if table is None:
                table = [np.empty(n, column.dtype) for column in part]
            for column, values in zip(table, part):
                column[start:stop] = values
    return [v, *table]


def _cmd_sweep(args) -> int:
    if args.figure not in FIGURE_COLUMNS:
        raise ConfigError(
            f"unknown figure id {args.figure!r}; choose from {sorted(FIGURE_COLUMNS)}"
        )
    a, b, n = args.log_range
    if not (0 < a < b and math.isfinite(b / a)):
        raise ConfigError(f"--log-range needs 0 < A < B with B/A finite, got {a!r} {b!r}")
    if not (math.isfinite(n) and 2 <= n <= MAX_SWEEP_POINTS and n == int(n)):
        raise ConfigError(f"--log-range needs an integer 2 <= N <= {MAX_SWEEP_POINTS}, got {n!r}")
    cfg = read_config(args.config)
    n = int(n)
    # Every slice is solved before anything is written: a refused weight leaves no rows.
    columns = _sweep_columns(args.figure, game_params_from_config(cfg), a, b, n, cfg)

    header = FIGURE_COLUMNS[args.figure]
    blocks = ([column[start:stop] for column in columns] for start, stop in _slices(n))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_table(fh, header, blocks)
    else:
        _write_table(sys.stdout, header, blocks)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def _cmd_simulate(args) -> int:
    import secrets
    from . import sim

    cfg = read_config(args.config)
    p = game_params_from_config(cfg)
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    try:  # SimConfig owns the sim-setting rules; breaking one is a config error
        sim_cfg = sim.SimConfig(
            params=p,
            total_cycles=_count(cfg, "total_cycles", 200),
            update_period_cycles=_count(cfg, "update_period_cycles", 10),
            rng_seed=seed,
        )
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from exc
    trace = sim.run_sim(sim_cfg)

    period, n = sim_cfg.update_period_cycles, sim_cfg.total_cycles
    head = [
        "# jamgame simulation trace",
        f"# seed={seed}",
        f"# rng={sim.RNG_ALGORITHM}",
        f"# update_period_cycles={period}",
        f"# total_cycles={n}",
        f"# params={dump_config(cfg).strip().replace(chr(10), '; ')}",
    ]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in head)
        strategy = (sim.strategy_columns(trace, *bounds) for bounds in _slices(len(trace.x)))
        events = (sim.event_columns(trace, *bounds) for bounds in _slices(n))
        _write_table(fh, sim.STRATEGY_COLUMNS, strategy)
        fh.write("\n")
        _write_table(fh, sim.EVENT_COLUMNS, events)

    final = [trace.x[-1:], trace.y[-1:], [sim.updates_to_equilibrium(trace)]]
    _write_table(sys.stdout, ["final_x", "final_y", "updates_to_ne"], [final])
    return EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse, with usage errors led by ``error: `` like every other failure."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"error: {message}\n{self.format_usage()}")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="jamgame", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_nash = sub.add_parser("nash", help="closed-form Nash equilibrium (optionally BRD trace)")
    p_nash.add_argument("config")
    p_nash.add_argument("--brd", action="store_true", help="also emit the dynamics trace")
    p_nash.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_nash.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p_nash.add_argument("--start-x", type=float, default=None, help="default 2*delta")
    p_nash.add_argument("--start-y", type=float, default=None, help="default 0")
    p_nash.set_defaults(fn=_cmd_nash)

    p_se = sub.add_parser("stackelberg", help="Stackelberg equilibrium of the committed game")
    p_se.add_argument("config")
    p_se.add_argument("--approx", action="store_true")
    p_se.set_defaults(fn=_cmd_stackelberg)

    p_sw = sub.add_parser("sweep", help="parameter sweep to CSV, one figure id per schema")
    p_sw.add_argument("config")
    p_sw.add_argument("--figure", required=True)
    p_sw.add_argument("--log-range", nargs=3, type=float, required=True, metavar=("A", "B", "N"))
    p_sw.add_argument("--out", default=None)
    p_sw.set_defaults(fn=_cmd_sweep)

    p_sim = sub.add_parser("simulate", help="cycle-level simulation, trace to CSV file")
    p_sim.add_argument("config")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(fn=_cmd_simulate)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except JamGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
