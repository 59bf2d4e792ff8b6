"""Command-line front end: equilibrium queries, sweeps, simulation runs.

Subcommands::

    jamgame nash CONFIG [--brd] [--tol T] [--max-iter N] [--start-x X --start-y Y]
    jamgame stackelberg CONFIG [--approx]
    jamgame sweep CONFIG --figure ID --log-range A B N [--out PATH]
    jamgame simulate CONFIG --out PATH [--seed K]

``--brd`` adds the best-response dynamics from (X, Y), by default (2*delta, 0),
until the scaled step is at most T or for N steps; ``--approx`` adds the W_-1
approximation's accuracy ratio.  Options go before or after CONFIG, as
``--opt V`` or ``--opt=V``, by any unique prefix; the last one given wins.

All output is CSV with a header row; floats are printed with shortest
round-trip precision (repr).  Exit codes: 0 ok, 2 config/usage error,
3 game-invariant violation, 4 I/O error, a failed write to stdout included.
``main`` runs a command in this process and returns its exit code; ``run``
ends the process as soon as the output is flushed.
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace

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


def _cmd_nash(args) -> None:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ConfigError(f"--tol must be finite and > 0, got {args.tol!r}")
    if args.max_iter < 1:
        raise ConfigError(f"--max-iter must be >= 1, got {args.max_iter}")
    p = game_params_from_config(read_config(args.config))
    res = nash_closed_form(p)
    th = thresholds(p)
    if args.brd:
        start = StrategyProfile(2.0 * p.delta if args.start_x is None else args.start_x, args.start_y)
        trace = brd(p, start, tol=args.tol, max_iter=args.max_iter)
    row = (res.profile.x, res.profile.y, res.regime.value, res.utilities.u_t,
           res.utilities.u_j, th.c_t_tilde, th.c_t_max)
    header = ["x_ne", "y_ne", "regime", "u_t", "u_j", "c_t_tilde", "c_t_max"]
    _write_table(sys.stdout, header, [[[v] for v in row]])
    if args.brd:
        sys.stdout.write("\n")
        xs, ys = [s.x for s in trace.iterates], [s.y for s in trace.iterates]
        _write_table(sys.stdout, ["iteration", "x", "y"], [[range(len(xs)), xs, ys]])


def _cmd_stackelberg(args) -> None:
    p = game_params_from_config(read_config(args.config))
    se = stackelberg_exact(p)
    rep = improvement_report(p)
    header = ["x_se", "y_se", "u_t_se", "u_t_ne", "improved"]
    row = [se.profile.x, se.profile.y, rep.u_t_se, rep.u_t_ne, rep.improved]
    if args.approx:
        header.append("accuracy_ratio")
        row.append(leader_utility(p, stackelberg_approx(p).profile.x) / se.utilities.u_t)
    _write_table(sys.stdout, header, [[[v] for v in row]])


def _cmd_sweep(args) -> None:
    from .figures import write_sweep

    write_sweep(args.config, args.figure, args.log_range, args.out)


def _cmd_simulate(args) -> None:
    from .sim import write_trace

    write_trace(args.config, args.out, args.seed)


# The option table: each command's synopsis (the docstring's line), function and
# options, each (type, default, arity, required), where arity 0 makes a flag.
_FLAG = (bool, False, 0, False)
_HELP = {"-h": _FLAG, "--help": _FLAG}
_COMMANDS = {
    "nash": ("jamgame nash CONFIG [--brd] [--tol T] [--max-iter N] [--start-x X --start-y Y]", _cmd_nash, {
        "--brd": _FLAG, "--tol": (float, DEFAULT_TOL, 1, False), "--max-iter": (int, DEFAULT_MAX_ITER, 1, False),
        "--start-x": (float, None, 1, False), "--start-y": (float, 0.0, 1, False)}),
    "stackelberg": ("jamgame stackelberg CONFIG [--approx]", _cmd_stackelberg, {"--approx": _FLAG}),
    "sweep": ("jamgame sweep CONFIG --figure ID --log-range A B N [--out PATH]", _cmd_sweep, {
        "--figure": (str, None, 1, True), "--log-range": (float, None, 3, True), "--out": (str, None, 1, False)}),
    "simulate": ("jamgame simulate CONFIG --out PATH [--seed K]", _cmd_simulate, {
        "--seed": (int, None, 1, False), "--out": (str, None, 1, True)}),
}


def _help(text) -> None:
    sys.stdout.write(text)


def _parse(argv):
    """``(function, argument)`` for argv: a ``_cmd_*`` and its namespace, or ``_help`` and its text.

    Words are read as argparse reads them, but an option's value is the next word (words, at arity 3)
    unless it starts with ``--``.  A usage error raises ConfigError in argparse's words, then a usage line.
    """
    usage, options, table, config, seen = "jamgame {" + ",".join(_COMMANDS) + "} ...", _HELP, None, None, {}
    words, i, dashes, extras = list(argv), 0, False, []
    try:
        while i < len(words):
            word, i = words[i], i + 1
            name, eq, value = word.partition("=")
            names = [name] if name in options else [o for o in options if o.startswith(name)]
            if word == "--" and not dashes:  # every later word is CONFIG or unrecognized
                dashes = True
            elif dashes or word == "-" or not word.startswith("-") or word[1:].replace(".", "", 1).isdecimal():
                if table is None:
                    if word not in _COMMANDS:
                        raise ConfigError(f"argument command: invalid choice: {word!r} "
                                          f"(choose from {', '.join(map(repr, _COMMANDS))})")
                    usage, fn, table = _COMMANDS[word]
                    options, dashes = {**_HELP, **table}, False
                elif config is None:
                    config = word
                else:
                    extras.append(word)
            elif len(names) > 1:
                raise ConfigError(f"ambiguous option: {word} could match {', '.join(names)}")
            elif not names:
                extras.append(word)
            else:
                name, (kind, _, arity, _) = names[0], options[names[0]]
                given = [value] if eq else words[i:i + arity]
                i += 0 if eq else arity
                if len(given) != arity or not eq and any(v.startswith("--") for v in given):
                    wanted = "one argument" if arity == 1 else f"{arity} arguments"
                    raise ConfigError(f"argument {name}: ignored explicit argument {value!r}" if eq and not arity
                                      else f"argument {name}: expected {wanted}")
                if name in _HELP:
                    return _help, f"usage: {usage}\n\n{__doc__ or ''}"
                try:
                    for k, v in enumerate(given):
                        given[k] = kind(v)
                except ValueError:
                    raise ConfigError(f"argument {name}: invalid {kind.__name__} value: {v!r}") from None
                seen[name] = True if arity == 0 else given[0] if arity == 1 else given
        missing = ["command"] if table is None else ["config"] * (config is None) + [
            o for o, spec in table.items() if spec[3] and o not in seen]
        if missing or extras:
            raise ConfigError(f"the following arguments are required: {', '.join(missing)}" if missing
                              else f"unrecognized arguments: {' '.join(extras)}")
    except ConfigError as exc:
        raise ConfigError(f"{exc}\nusage: {usage}") from None
    return fn, SimpleNamespace(config=config, **{o[2:].replace("-", "_"): seen.get(o, s[1]) for o, s in table.items()})


def main(argv=None) -> int:
    try:
        fn, args = _parse(sys.argv[1:] if argv is None else argv)
        fn(args)
        sys.stdout.flush()  # a failed write to stdout is an I/O error too
        return EXIT_OK
    except (JamGameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_CONFIG if isinstance(exc, ConfigError) else
                EXIT_INVARIANT if isinstance(exc, JamGameError) else EXIT_IO)


def run() -> None:
    """Run ``main`` and end the process at once with its exit code.

    Every file is closed by then and jamgame registers no ``atexit``
    callback, so the skipped teardown would write nothing.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads: jamgame makes no BLAS call
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
