"""Byte-identity replay: one fixed list of CLI commands on a revision and on this tree.

    python -m tests.replay REV

Run from the root of the repository.  REV's ``src`` is exported with
``git archive`` into a temporary directory.  Each tree then runs the whole
list in one child process, in process through ``jamgame.cli.main``, with
that tree's ``src`` first on PYTHONPATH and numpy's RuntimeWarning raised as
an error.  A command's digest is its exit code, its stderr, and the SHA-256
of its stdout and of its ``--out`` file.  Every command whose digests
differ is printed, then their count; the exit status is 1 on any
difference.

The list holds the 60 ``query`` commands of benchmark seeds 1-3, the 18
sweeps of seeds 1-2 and the 3 ``simulate`` runs of seed 1, 1e5 cycles each
(``perfbench/scenarios.py``), then the 15 commands of the wide-box exit
test (``tests/test_cli.py``) on the first 120 draws of each of its three
boxes: 5481 valid commands.  Last come the 18 usage errors of
``tests/test_cli.py``'s table, a ``--start-y`` of ``-1e-6`` and two
``--help`` commands, so that a change to the parser shows: 5502 commands.
Two trees on one host are compared, not a stored digest, because numpy's
exp and log may differ in the last bit between CPUs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DRAWS = 120  # per wide box


def commands(workdir: Path) -> list[list[str]]:
    """Write every command's config into workdir; the argv of each, with paths relative to workdir."""
    import numpy as np

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import scenarios as S
    from jamgame.config import dump_config

    from .conftest import FULL_RANGE, WIDE_BOX, wide_params
    from .test_cli import MORE_WIDE_COMMANDS, TABLE1_CFG, TRANSMIT_COST_BOX, USAGE_ERRORS, WIDE_COMMANDS

    argvs = []
    for seed in (1, 2, 3):
        for op in S.query_ops(seed):
            cfg = f"query{seed}_{op['config']}"
            (workdir / cfg).write_text(S.config_text(op["params"]))
            argvs.append([op["args"][0], cfg, *op["args"][2:]])
    for seed in (1, 2):
        for op in S.sweep_ops(seed):
            cfg = f"sweep{seed}.cfg"
            (workdir / cfg).write_text(S.sweep_config(op["params"]))
            argvs.append([*op["args"][:1], cfg, *op["args"][2:-1], f"sweep{seed}_{op['out']}"])
    for op in S.simulate_ops(1):  # many slices per table, where the wide box's runs fill one
        cfg = f"simulate1_{op['config']}"
        (workdir / cfg).write_text(S.simulate_config(op["params"]))
        argvs.append([op["args"][0], cfg, *op["args"][2:]])
    boxes = {"wide": (WIDE_BOX, 16), "full": (FULL_RANGE, 17), "cost": (TRANSMIT_COST_BOX, 18)}
    for name, (box, seed) in boxes.items():
        rng = np.random.default_rng(seed)
        for k in range(DRAWS):
            p, (xi_min, xi_max), (a, b) = wide_params(rng, box)
            cfg = f"{name}{k}.cfg"
            (workdir / cfg).write_text(dump_config(dict(vars(p), xi_min=xi_min, xi_max=xi_max, total_cycles=40)))
            ranges = {"brX": (1e-2 * p.t_aj, 1e2 * p.t_aj), "brY": (2.0 * p.delta, 2e4 * p.delta)}
            for command in WIDE_COMMANDS + MORE_WIDE_COMMANDS:
                argv = [command[0], cfg, *command[1:]]
                if command[0] == "sweep":
                    lo, hi = ranges.get(command[2], (a, b))
                    argv += ["--log-range", repr(lo), repr(hi), "5"]
                if command[0] == "simulate":
                    argv += ["--out", f"{name}{k}.trace.csv"]
                argvs.append(argv)
    (workdir / "usage.cfg").write_text(TABLE1_CFG)
    for argv, _ in USAGE_ERRORS:
        argvs.append([word.replace("{cfg}", "usage.cfg").replace("{out}", "usage.csv") for word in argv])
    argvs += [["nash", "usage.cfg", "--brd", "--start-y", "-1e-6"], ["--help"], ["nash", "--help"]]
    return argvs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(argvs: list[list[str]]) -> list[list]:
    """[exit code, stderr, SHA-256 of stdout, SHA-256 of the --out file or None] of each command, run in the working directory."""
    from jamgame import cli

    out = []
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                # argparse's --help and usage errors, in a tree from before the option table
                code = exc.code
            except RuntimeWarning as exc:
                code = f"RuntimeWarning: {exc}"
        written = None
        target = argv[argv.index("--out") + 1] if "--out" in argv[:-1] else None
        if target is not None and os.path.exists(target):
            written = _sha(Path(target).read_bytes())
            os.remove(target)
        out.append([code, stderr.getvalue(), _sha(stdout.getvalue().encode()), written])
    return out


def differing(base: list[list], change: list[list]) -> list[int]:
    """The indices of the commands whose digests differ."""
    return [i for i, (a, b) in enumerate(zip(base, change, strict=True)) if a != b]


def _run_tree(src: Path, tmp: Path, workdir: Path) -> list[list]:
    """The digests of tmp/commands.json, run by one child on the jamgame in src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT)]), OPENBLAS_NUM_THREADS="1")
    result = tmp / "digests.json"
    subprocess.run([sys.executable, "-m", "tests.replay", "--child", str(tmp / "commands.json"), str(result)],
                   cwd=workdir, env=env, check=True)
    return json.loads(result.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.replay", description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", nargs="?", metavar="REV", help="the revision to compare this tree with")
    ap.add_argument("--child", nargs=2, metavar=("COMMANDS", "DIGESTS"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        argvs = json.loads(Path(args.child[0]).read_text())
        Path(args.child[1]).write_text(json.dumps(digests(argvs)))
        return 0
    if args.rev is None:
        ap.error("REV is required")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base, workdir = tmp / "base", tmp / "work"
        base.mkdir()
        workdir.mkdir()
        archive = subprocess.run(["git", "archive", args.rev, "src"], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        argvs = commands(workdir)
        (tmp / "commands.json").write_text(json.dumps(argvs))
        before = _run_tree(base / "src", tmp, workdir)
        after = _run_tree(ROOT / "src", tmp, workdir)
    differ = differing(before, after)
    for i in differ:
        parts = [name for name, a, b in zip(("exit", "stderr", "stdout", "--out"), before[i], after[i]) if a != b]
        print(f"{' '.join(argvs[i])}  [{', '.join(parts)} differ]")
        print(f"  {args.rev}: exit {before[i][0]} {before[i][1].strip()!r}")
        print(f"  this tree: exit {after[i][0]} {after[i][1].strip()!r}")
    print(f"{len(differ)} of {len(argvs)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
