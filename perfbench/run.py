#!/usr/bin/env python3
"""End-to-end benchmark of jamgame, with a traced per-layer run.

    python3 perfbench/run.py --workload {query,sweep,simulate,api,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is taken from ``src/``.
The load is one closed loop: at most one child runs at a time and the next
starts when it has been reaped.  Each workload repeats whole rounds of the
same operations until the next round would end after ``--seconds`` (at
least one round, so a run may take longer than ``--seconds`` when one round
does).  The first output of each command is checked against ``checks``;
every repeat of the command must reproduce it byte for byte.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` the same object carries the per-layer metrics of
a separate traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import scenarios as S
from tracer import counts, cli_split, self_times

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
PY = sys.executable

# The workloads of BENCHMARK.json, then two more that run the same way by
# hand but are not gated: with a shared 2-core host, runs long enough to be
# steady fit the time of a full measurement for two workloads only.
WORKLOADS = ("query", "sweep")
EXTRA_WORKLOADS = ("simulate", "api")
# op_tail_ms, nearest rank: p75 (query: at least ten of its >= 40 commands
# lie above it); api p99, at least 60 of its >= 6000 operations lie above it.
TAIL_QUANTILE = {"api": 0.99}
SETUP_REPEATS = 5
# query's round is 20 commands, so two rounds give the tail ten samples.
MIN_ROUNDS = {"query": 2, "sweep": 1, "simulate": 1, "api": 20}
RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s

# Traced-run sizes: a sample of each workload's round, smaller where the
# untraced round is long.
TRACE_QUERY_OPS = 4
TRACE_SWEEP_POINTS = 500
TRACE_SIM_CYCLES = 20_000


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("JAMGAME_THREADS", None)  # the program's default threading, as users run it
    return env


ENV = child_env()


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str = ""
    stderr: str = ""


class Spawner:
    """Client of spawner.py, which forks every measured child (see there why)."""

    def __init__(self):
        self.proc = subprocess.Popen([PY, str(BENCH / "spawner.py")], env=ENV, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.deadline = time.perf_counter() + RUN_LIMIT_S  # children are killed at this time

    def _request(self, argv, cwd: Path, stdout) -> dict:
        timeout = max(1.0, self.deadline - time.perf_counter())
        req = {"argv": [str(a) for a in argv], "cwd": str(cwd), "stdout": stdout,
               "stderr": str(cwd / ".child_stderr"), "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended")
        return json.loads(line)

    def _child(self, r: dict, cwd: Path, stdout: str = "") -> Child:
        stderr = (cwd / ".child_stderr").read_text(encoding="utf-8", errors="replace")
        return Child(r["code"], r["wall_s"], r["rss_mb"], stdout, stderr)

    def run(self, argv, cwd: Path) -> Child:
        """Run one child to completion; wall time from spawn to reap."""
        out = cwd / ".child_stdout"
        r = self._request(argv, cwd, str(out))
        return self._child(r, cwd, out.read_text(encoding="utf-8", errors="replace"))

    def start(self, argv, cwd: Path) -> str:
        """Start a child and return the first line it prints; finish() reaps it."""
        return self._request(argv, cwd, None)["ready"]

    def finish(self, cwd: Path) -> Child:
        return self._child(self._reply(), cwd)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def jamgame_argv(args) -> list[str]:
    return [PY, "-m", "jamgame", *args]


class Run:
    """Counters and samples of one benchmark run."""

    def __init__(self, workload: str, workdir: Path, spawner: Spawner):
        self.workload, self.workdir, self.spawner = workload, workdir, spawner
        self.attempted = self.failed = 0
        self.walls: list[float] = []
        self.items = 0
        self.rss_mb = 0.0
        self.setups: list[float] = []
        self.problems: list[str] = []
        self.rounds = 0

    def child(self, argv) -> Child:
        return self.spawner.run(argv, self.workdir)

    def problem(self, msg: str) -> None:
        self.problems.append(msg)
        print(f"[{self.workload}] {msg}", file=sys.stderr)

    def note_child(self, ch: Child, what) -> bool:
        self.rss_mb = max(self.rss_mb, ch.rss_mb)
        if ch.code != 0:
            self.problem(f"{what}: exit {ch.code}: {ch.stderr.strip()[-400:]}")
            return False
        return True

    def end_to_end(self) -> dict:
        walls = sorted(self.walls)
        tail = walls[math.ceil(TAIL_QUANTILE.get(self.workload, 0.75) * len(walls)) - 1]
        return {"setup_s": (statistics.median(self.setups), "s"),
                "op_p50_ms": (1e3 * statistics.median(walls), "ms"),
                "op_tail_ms": (1e3 * tail, "ms"),
                "items_per_s": (self.items / sum(walls), "items/s"),
                "peak_rss_mb": (self.rss_mb, "MB")}


# ---------------------------------------------------------------------------
# CLI workloads

def op_output(op: dict, workdir: Path) -> str:
    return (workdir / op["out"]).read_text(encoding="utf-8") if "out" in op else ""


def check_op(run: Run, op: dict, ch: Child) -> None:
    command = op["args"][0]
    try:
        if command == "sweep":
            checks.check_sweep_output(op, op_output(op, run.workdir))
        elif command == "simulate":
            checks.check_simulate_output(op, op_output(op, run.workdir), ch.stdout)
        else:
            checks.check_query_output(op, ch.stdout)
    except checks.CheckFailed as exc:
        run.problem(f"check failed for {' '.join(op['args'])}: {exc}")


def digest(op: dict, ch: Child, workdir: Path) -> str:
    return hashlib.sha256((ch.stdout + "\0" + op_output(op, workdir)).encode()).hexdigest()


def make_cli_inputs(workload: str, seed: int, workdir: Path, small: bool = False):
    """Generate this workload's operations and write their config files."""
    if workload == "query":
        ops = S.query_ops(seed)
        files = {op["config"]: S.config_text(op["params"]) for op in ops}
    elif workload == "sweep":
        ops = S.sweep_ops(seed, n=TRACE_SWEEP_POINTS if small else None)
        files = {"sweep.cfg": S.sweep_config(ops[0]["params"])}
    else:
        ops = S.simulate_ops(seed, cycles=TRACE_SIM_CYCLES if small else S.SIM_CYCLES)
        files = {op["config"]: S.simulate_config(op["params"], op["cycles"]) for op in ops}
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return ops


def warmup_args(workload: str, ops: list[dict]) -> list[str]:
    """The untimed warm-up: the first operation, shortened for long ones."""
    args = list(ops[0]["args"])
    if workload == "sweep":
        args[args.index("--log-range") + 3] = "50"
    elif workload == "simulate":
        args[1] = "warmup.cfg"
    return args


def setup_cli(run: Run, seed: int) -> list[dict]:
    ops = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = make_cli_inputs(run.workload, seed, run.workdir)
        if run.workload == "simulate":
            (run.workdir / "warmup.cfg").write_text(S.simulate_config(ops[0]["params"], 1000), encoding="utf-8")
        ch = run.child(jamgame_argv(warmup_args(run.workload, ops)))
        run.setups.append(time.perf_counter() - t0)
        run.note_child(ch, "warm-up")
    return ops


def measure_cli(run: Run, ops: list[dict], seconds: float) -> None:
    reference: dict[tuple, str] = {}  # command line -> digest of its first output
    t0 = time.perf_counter()
    while True:
        for op in ops:
            ch = run.child(jamgame_argv(op["args"]))
            run.attempted += 1
            if not run.note_child(ch, " ".join(op["args"])):
                run.failed += 1
                continue
            run.walls.append(ch.wall_s)
            run.items += items_of(run.workload, op)
            d = digest(op, ch, run.workdir)
            key = tuple(op["args"])
            if key not in reference:
                check_op(run, op, ch)
                reference[key] = d
            elif reference[key] != d:
                run.problem(f"output of {' '.join(op['args'])} differs between repeats")
        run.rounds += 1
        elapsed = time.perf_counter() - t0
        if run.rounds >= MIN_ROUNDS[run.workload] and elapsed * (run.rounds + 1) / run.rounds > seconds:
            return


def items_of(workload: str, op: dict) -> int:
    if workload == "sweep":
        return op["range"][2]
    if workload == "simulate":
        return op["cycles"]
    return 1


# ---------------------------------------------------------------------------
# Library workload

def api_child(run: Run, scns: list[dict], mode: str, seconds: float, min_rounds: int):
    """Start the api child and wait until it is ready; returns (result path, ready)."""
    job = run.workdir / f"api_job_{mode}.json"
    result = run.workdir / f"api_result_{mode}.json"
    job.write_text(json.dumps({"scenarios": scns, "mode": mode, "seconds": seconds,
                               "min_rounds": min_rounds, "result": str(result)}), encoding="utf-8")
    ready = run.spawner.start([PY, BENCH / "api_child.py", job], run.workdir) == "ready"
    return result, ready


def finish_api_child(run: Run, what: str) -> bool:
    return run.note_child(run.spawner.finish(run.workdir), what)


def run_api(run: Run, seed: int, seconds: float, mode: str = "run", min_rounds=None):
    for k in range(SETUP_REPEATS):
        last = k == SETUP_REPEATS - 1
        t0 = time.perf_counter()
        scns = S.api_scenarios(seed)
        result, ready = api_child(run, scns, mode if last else "setup", seconds,
                                  min_rounds or MIN_ROUNDS["api"])
        run.setups.append(time.perf_counter() - t0)
        if not last:
            finish_api_child(run, "api set-up")
    if not (finish_api_child(run, "api run") and ready):
        run.problem("api child did not complete")
        return scns, None
    res = json.loads(result.read_text(encoding="utf-8"))
    run.rounds = res["rounds"]
    run.attempted += len(res["times_ns"])
    run.failed += res["failed"]
    run.walls += [t / 1e9 for t in res["times_ns"]]
    run.items += len(res["times_ns"]) - res["failed"]
    for msg in res["errors"]:
        run.problem(f"library call failed: {msg}")
    if res["mismatches"]:
        run.problem(f"{res['mismatches']} results differ between rounds")
    for scn, r in zip(scns, res["first"]):
        if r is None:
            continue
        try:
            checks.check_api_result(scn, r)
        except checks.CheckFailed as exc:
            run.problem(f"check failed for an api scenario ({scn['kind']}): {exc}")
    return scns, res


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics

def startup_layers(run: Run) -> dict:
    interp, imp, mods = [], [], []
    code = ("import json, sys, time; n = len(sys.modules); t = time.perf_counter(); import jamgame; "
            "print(json.dumps([time.perf_counter() - t, len(sys.modules) - n]))")
    for _ in range(5):
        ch = run.child([PY, "-c", "pass"])
        if run.note_child(ch, "python -c pass"):
            interp.append(ch.wall_s)
        ch = run.child([PY, "-c", code])
        if run.note_child(ch, "import jamgame"):
            t, n = json.loads(ch.stdout)
            imp.append(t)
            mods.append(n)
    return {"cli.interpreter_ms": 1e3 * statistics.median(interp),
            "cli.import_ms": 1e3 * statistics.median(imp),
            "cli.import_modules": statistics.median(mods)}


def probe_layers(run: Run, seed: int) -> dict:
    rng = S.rng_for(seed, "probe")
    scns = [S.draw_params(rng, kind) for kind in (S.INTERIOR, S.BORDER, S.NO_JAM) * 4]
    belief = S.sweep_base(seed)
    (run.workdir / "probe.cfg").write_text(S.config_text(scns[0]), encoding="utf-8")
    (run.workdir / "probe_sweep.cfg").write_text(S.sweep_config(belief), encoding="utf-8")
    job = {"scenarios": scns, "config_path": "probe.cfg", "belief_params": belief,
           "prior": list(S.SWEEP_RANGE), "sweep_config": "probe_sweep.cfg", "sweep_points": 200,
           "sweep_out": "probe_sweep.csv", "sim_params": S.LAB, "sim_cycles": TRACE_SIM_CYCLES,
           "sim_seed": int(rng.integers(0, 2**62)), "result": "probe_result.json"}
    (run.workdir / "probe_job.json").write_text(json.dumps(job), encoding="utf-8")
    ch = run.child([PY, BENCH / "layer_probe.py", "probe_job.json"])
    run.attempted += 1
    if not run.note_child(ch, "layer probe"):
        run.failed += 1
        return {}
    return json.loads((run.workdir / "probe_result.json").read_text(encoding="utf-8"))


def traced_cli_pass(run: Run, ops: list[dict]) -> dict:
    """Each op untraced and traced, alternating which goes first; returns span figures."""
    walls = {"untraced": 0.0, "traced": 0.0}
    splits, out_bytes, n_counts, items, layer_ns = [], [], counts([]), 0, {}
    for i, op in enumerate(ops):
        order = ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")
        outputs = {}
        for mode in order:
            spans_path = run.workdir / "spans.json"
            argv = (jamgame_argv(op["args"]) if mode == "untraced"
                    else [PY, str(BENCH / "cli_traced.py"), str(spans_path), "--", *op["args"]])
            ch = run.child(argv)
            run.attempted += 1
            if not run.note_child(ch, f"{mode} {' '.join(op['args'])}"):
                run.failed += 1
                continue
            walls[mode] += ch.wall_s
            outputs[mode] = digest(op, ch, run.workdir)
            if mode == "untraced":
                check_op(run, op, ch)
            else:
                spans = json.loads(spans_path.read_text(encoding="utf-8"))
                split = cli_split(spans)
                splits.append(split)
                out_bytes.append(len(ch.stdout.encode()) + len(op_output(op, run.workdir).encode()))
                n_counts += counts(spans)
                # The root span's self time would include the main thread
                # waiting on sweep pool threads; count only its time outside layers.
                for layer, ns in dict(self_times(spans), cli=split["rest"]).items():
                    layer_ns[layer] = layer_ns.get(layer, 0) + ns
        items += items_of(run.workload, op)
        if "traced" in outputs and outputs.get("untraced", outputs["traced"]) != outputs["traced"]:
            run.problem(f"tracing changed the output of {' '.join(op['args'])}")
    return {"walls": walls, "splits": splits, "out_bytes": out_bytes, "counts": n_counts,
            "items": items, "layer_ns": layer_ns}


def per_call_counts(n_counts, items) -> dict:
    lam = sum(v for k, v in n_counts.items() if k.startswith("lambertw."))
    br = n_counts["best_response.best_response_target"] + n_counts["best_response.best_response_jammer"]
    return {"lambertw.calls": lam / items, "best_response.calls": br / items}


def print_self_times(workload: str, layer_ns: dict) -> None:
    total = sum(layer_ns.values()) or 1
    print(f"[{workload}] traced self time by layer:", file=sys.stderr)
    for layer, ns in sorted(layer_ns.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:14s} {ns / 1e6:10.2f} ms  {100.0 * ns / total:5.1f} %", file=sys.stderr)


def trace_run(run: Run, seed: int) -> dict:
    m = startup_layers(run)
    m.update(probe_layers(run, seed))
    if run.workload == "api":
        scns, res = run_api(run, seed, 0.0, mode="trace", min_rounds=20)
        if res is None:
            return m
        spans = [tuple(s) for s in res["spans"]]
        overhead = sum(res["traced_ns"]) / sum(res["untraced_ns"]) - 1.0
        m.update(per_call_counts(counts(spans), len(scns)))
        print_self_times(run.workload, self_times(spans))
        # The CLI split of the same scenario's single-scenario commands.
        (run.workdir / "api0.cfg").write_text(S.config_text(scns[0]["params"]), encoding="utf-8")
        p = scns[0]["params"]
        ops = [dict(params=p, args=["nash", "api0.cfg", "--brd"], brd=dict(tol=1e-12, start=scns[0]["start"])),
               dict(params=p, args=["stackelberg", "api0.cfg", "--approx"], approx=True)]
        cli = traced_cli_pass(run, ops)
    else:
        ops = make_cli_inputs(run.workload, seed, run.workdir, small=True)
        if run.workload == "query":
            ops = ops[:TRACE_QUERY_OPS]
        cli = traced_cli_pass(run, ops)
        overhead = cli["walls"]["traced"] / cli["walls"]["untraced"] - 1.0
        m.update(per_call_counts(cli["counts"], cli["items"]))
        print_self_times(run.workload, cli["layer_ns"])
    m["cli.solve_ms"] = statistics.median(s["solve"] for s in cli["splits"]) / 1e6
    m["cli.write_ms"] = statistics.median(s["rest"] for s in cli["splits"]) / 1e6
    m["cli.out_bytes"] = statistics.median(cli["out_bytes"])
    m["trace.overhead_pct"] = 100.0 * overhead
    return m


# ---------------------------------------------------------------------------

UNITS = {
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.import_modules": "count",
    "config.parse_us": "us", "cli.solve_ms": "ms", "cli.write_ms": "ms", "cli.out_bytes": "B",
    "lambertw.scalar_ns": "ns", "lambertw.array_elem_ns": "ns", "lambertw.calls": "count",
    "best_response.target_us": "us", "best_response.jammer_us": "us", "best_response.calls": "count",
    "nash.closed_form_us": "us", "nash.brd_us": "us", "nash.brd_iterations": "count",
    "nash.certificate_us": "us", "stackelberg.exact_us": "us", "stackelberg.chi_evals": "count",
    "stackelberg.approx_us": "us", "stackelberg.improvement_us": "us",
    "belief.xi_opt_cold_ms": "ms", "belief.xi_opt_warm_ms": "ms", "belief.efficiency_us": "us",
    "belief.cache_hit_ratio": "ratio", "sim.us_per_cycle": "us", "sim.bytes_per_cycle": "B",
    "trace.overhead_pct": "%",
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spawner: Spawner) -> dict:
    spawner.deadline = time.perf_counter() + RUN_LIMIT_S
    workdir = BENCH / "out" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(workload, workdir, spawner)
    try:
        if trace:
            layer = trace_run(run, seed)
            missing = sorted(set(UNITS) - set(layer))
            if missing:
                run.problem(f"per-layer metrics missing: {missing}")
            metrics = {k: {"value": layer[k], "unit": u} for k, u in UNITS.items() if k in layer}
        else:
            if workload == "api":
                run_api(run, seed, seconds)
            else:
                measure_cli(run, setup_cli(run, seed), seconds)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in run.end_to_end().items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{workload}: seed {seed}, trace {int(trace)}, rounds {run.rounds}, "
          f"operations {run.attempted} attempted / {run.failed} failed, "
          f"checks {'passed' if not run.problems else 'FAILED'}")
    for name, mv in metrics.items():
        print(f"    {name:28s} {mv['value']:14.6g} {mv['unit']}")
    return {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "jamgame" / "__init__.py").is_file():
        print(f"error: no jamgame sources under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS + EXTRA_WORKLOADS if args.workload == "all" else (args.workload,)
    spawner = Spawner()
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spawner) for w in names}
    finally:
        spawner.close()
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
