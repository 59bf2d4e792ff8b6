"""Command-line front end: equilibrium queries, sweeps, simulation runs.

Subcommands::

    jamgame nash CONFIG [--brd] [--tol T] [--max-iter N] [--start-x X --start-y Y]
    jamgame stackelberg CONFIG [--approx]
    jamgame sweep CONFIG --figure ID --log-range A B N [--out PATH]
    jamgame simulate CONFIG --out PATH [--seed K]

All output is CSV with a header row; floats are printed with shortest
round-trip precision (repr).  Exit codes: 0 ok, 2 config/usage error,
3 game-invariant violation, 4 I/O error, a failed write to stdout included.
``sweep`` takes each figure's header and solver from ``jamgame.figures``,
which no other command loads.

As a command (``run``), jamgame starts numpy's BLAS with one thread, since
it makes no BLAS call (a user's ``OPENBLAS_NUM_THREADS`` is kept), and the
process ends as soon as its output is flushed, without the interpreter's
teardown.  ``main`` runs the same commands for callers in the process and
returns the exit code.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .best_response import thresholds
from .config import game_params_from_config, read_config
from .errors import ConfigError, JamGameError
from .model import StrategyProfile
from .nash import DEFAULT_MAX_ITER, DEFAULT_TOL, brd, nash_closed_form
from .stackelberg import improvement_report, leader_utility, stackelberg_approx, stackelberg_exact

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_IO = 4

# A sweep holds its grid and the per-slice arrays of every figure column, 8 B a
# point each (1 B for ``improved``), plus one slice of work: 17-74 B a point
# under tracemalloc, and ~44 MB peak RSS for neX at this limit.
MAX_SWEEP_POINTS = 10**6
# _slices cuts every table (sweep's, and simulate's two) into this many rows: a
# slice's solve temporaries then cost about what a 2-point sweep's do.
_CHUNK_ROWS = 1024


# Formatters by the Python type of a column's values; numbers are written with repr.
_FORMAT = {bool: lambda v: "true" if v else "false", str: str}


def _write_table(out, header, blocks) -> None:
    """Write ``header`` and the rows of each block of equal-length lists, ranges or arrays, read in place."""
    out.write(",".join(header) + "\n")
    for block in blocks:
        columns = [memoryview(col) if hasattr(col, "tolist") else col for col in block]
        rows = zip(*(map(_FORMAT.get(type(c[0]), repr), c) for c in columns))
        out.writelines(",".join(row) + "\n" for row in rows)


def _slices(rows: int):
    """``(start, stop)`` of consecutive slices of at most ``_CHUNK_ROWS`` rows."""
    return [(start, min(start + _CHUNK_ROWS, rows)) for start in range(0, rows, _CHUNK_ROWS)]


# ---------------------------------------------------------------------------
# nash

def _cmd_nash(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ConfigError(f"--tol must be finite and > 0, got {args.tol!r}")
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

def _cmd_sweep(args) -> int:
    from .figures import FIGURES, sweep_slices

    if args.figure not in FIGURES:
        raise ConfigError(f"unknown figure id {args.figure!r}; choose from {sorted(FIGURES)}")
    a, b, n = args.log_range
    if not (0 < a < b and math.isfinite(b / a)):
        raise ConfigError(f"--log-range needs 0 < A < B with B/A finite, got {a!r} {b!r}")
    if not (math.isfinite(n) and 2 <= n <= MAX_SWEEP_POINTS and n == int(n)):
        raise ConfigError(f"--log-range needs an integer 2 <= N <= {MAX_SWEEP_POINTS}, got {n!r}")
    cfg = read_config(args.config)
    n = int(n)
    # Every slice is solved before anything is written: a refused weight leaves no rows.
    blocks = sweep_slices(args.figure, game_params_from_config(cfg), cfg, a, b, n, _slices(n))
    header = FIGURES[args.figure][0]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_table(fh, header, blocks)
    else:
        _write_table(sys.stdout, header, blocks)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def _cmd_simulate(args) -> int:
    from .sim import write_trace

    write_trace(args.config, args.out, args.seed)
    return EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse, with usage errors led by ``error: `` like every other failure.

    ``--help`` flushes its text before argparse's SystemExit, and a failed
    write of it raises: argparse's own writer drops the error.
    """

    def error(self, message):
        self.exit(EXIT_CONFIG, f"error: {message}\n{self.format_usage()}")

    def print_help(self, file=None):
        out = file or sys.stdout
        out.write(self.format_help())
        out.flush()


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
    try:
        args = _build_parser().parse_args(argv)  # --help and usage errors raise SystemExit
        code = args.fn(args)
        sys.stdout.flush()  # a failed write to stdout is an I/O error too
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except JamGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    """Run ``main`` and end the process at once with its exit code.

    Every file is closed by then and jamgame registers no ``atexit``
    callback, so the skipped teardown would write nothing.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
