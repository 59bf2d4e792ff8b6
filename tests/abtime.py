"""Library timings of a revision against this tree, in alternating fresh processes.

    python -m tests.abtime REV [--rounds N] [--repeats K]

Run from the root of the repository.  REV's ``src`` is exported with
``git archive`` (as ``tests.replay`` does).  Each round runs one child
interpreter per tree, with that tree's ``src`` first on PYTHONPATH,
PYTHONDONTWRITEBYTECODE=1 and OPENBLAS_NUM_THREADS=1; the tree that goes
first alternates from round to round.  A child times each call of ``CALLS``
on the lab game as the best of K ``timeit`` repeats, per call; a repeat
times every call once.  For each call this prints REV's median and
quartiles, this tree's median, and in how many rounds this tree was the
faster, then one JSON line holding the same, in microseconds.  A call that
a tree lacks is reported as absent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import timeit
from functools import partial
from pathlib import Path

from .replay import ROOT, export

LAB = dict(t_aj=15e-6, delta=1e-6, p_t=2.0, p_j=2.0, t_p=50e-6, c_t=1e6)


def _lambert_w_column(jg, p):
    import numpy as np

    return partial(jg.lambert_w, np.geomspace(1e-3, 1e3, 30_000))


# name -> (calls per repeat, make(jg, p)): make returns the call, on the jamgame
# package jg and the lab game p.  chi > 0 at x = 3e-5; the belief kernels take
# an assumed weight of 2e6 against the lab game's 1e6.
CALLS = {
    "chi": (2000, lambda jg, p: partial(jg.chi, p, 3e-5)),
    "best_response_target": (1000, lambda jg, p: partial(jg.best_response_target, p, 1e-5)),
    "nash_closed_form": (500, lambda jg, p: partial(jg.nash_closed_form, p)),
    "stackelberg_exact": (500, lambda jg, p: partial(jg.stackelberg_exact, p)),
    "stackelberg_approx": (500, lambda jg, p: partial(jg.stackelberg_approx, p)),
    "improvement_report": (200, lambda jg, p: partial(jg.improvement_report, p)),
    "g_of_xi": (500, lambda jg, p: partial(jg.g_of_xi, p, 2e6)),
    "efficiency": (200, lambda jg, p: partial(jg.efficiency, p, 2e6)),
    "brd_from_2delta": (20, lambda jg, p: partial(jg.brd, p, jg.StrategyProfile(x=2.0 * p.delta, y=0.0))),
    "run_sim_2000": (2, lambda jg, p: partial(
        jg.run_sim, jg.SimConfig(params=p, total_cycles=2000, update_period_cycles=1, rng_seed=1))),
    "lambert_w_30000": (5, _lambert_w_column),
}


def child(repeats: int) -> dict:
    """Seconds per call of each of CALLS on the jamgame on sys.path, None where it lacks the call.

    Each repeat times every call once, so the repeats of one call spread over
    the child's life and its best is less at the mercy of a slow moment.
    """
    import jamgame as jg

    p = jg.GameParams(**LAB)
    calls, out = {}, {}
    for name, (number, make) in CALLS.items():
        try:
            calls[name] = number, make(jg, p)
        except AttributeError:
            out[name] = None
            continue
        calls[name][1]()  # warm: first-call imports and caches are not timed
    for _ in range(repeats):
        for name, (number, call) in calls.items():
            out[name] = min(out.get(name, math.inf), timeit.timeit(call, number=number) / number)
    return {name: out[name] for name in CALLS}


def _time_tree(src: Path, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT)]),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    res = subprocess.run([sys.executable, "-m", "tests.abtime", "--child", str(repeats)],
                         cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def summary(base: list[dict], change: list[dict]) -> dict:
    """Per call, in us: REV's median and quartiles, this tree's median, rounds this tree was faster."""
    out = {}
    for name in CALLS:
        b, c = [r[name] for r in base], [r[name] for r in change]
        if None in b or None in c:
            out[name] = {"absent": "REV" if None in b else "this tree"}
            continue
        b_us, c_us = [1e6 * v for v in b], [1e6 * v for v in c]
        q1, _, q3 = statistics.quantiles(b_us, n=4) if len(b_us) > 1 else b_us * 3
        out[name] = {"rev_median": statistics.median(b_us), "rev_q1": q1, "rev_q3": q3,
                     "median": statistics.median(c_us), "faster_rounds": sum(x < y for x, y in zip(c, b))}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.abtime", description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", nargs="?", metavar="REV", help="the revision to compare this tree with")
    ap.add_argument("--rounds", type=int, default=10, help="child pairs (default 10)")
    ap.add_argument("--repeats", type=int, default=5, help="timeit repeats per call in each child (default 5)")
    ap.add_argument("--child", type=int, metavar="REPEATS", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child)))
        return 0
    if args.rev is None:
        ap.error("REV is required")
    runs = {"rev": [], "tree": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"rev": export(args.rev, Path(tmp)), "tree": ROOT / "src"}
        for k in range(args.rounds):
            for side in ("rev", "tree") if k % 2 == 0 else ("tree", "rev"):
                runs[side].append(_time_tree(trees[side], args.repeats))
    calls = summary(runs["rev"], runs["tree"])
    print(f"{'call (us per call)':22} {args.rev + ' median':>16} {'its quartiles':>19} {'this tree':>10} faster in")
    for name, s in calls.items():
        if "absent" in s:
            print(f"{name:22} absent in {s['absent']}")
        else:
            print(f"{name:22} {s['rev_median']:16.3f} [{s['rev_q1']:8.3f}, {s['rev_q3']:8.3f}] "
                  f"{s['median']:10.3f} {s['faster_rounds']}/{args.rounds}")
    print(json.dumps({"rev": args.rev, "rounds": args.rounds, "repeats": args.repeats, "unit": "us",
                      "calls": calls}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
