"""Each output check accepts a real output of the program and rejects corrupted copies.

Run from the repository root:  python -m pytest perfbench/tests -q
Outputs come from jamgame's CLI and library, called in-process on inputs
from the benchmark's own scenario generator.
"""

import contextlib
import io
import os

import numpy as np
import pytest

import api_child
import checks
import oracles
import scenarios as S
from jamgame import cli
import jamgame

SEED = 3


def run_cli(args, workdir):
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(buf):
            assert cli.main(args) == 0
    finally:
        os.chdir(cwd)
    return buf.getvalue()


def corrupt(v: str) -> str:
    if v in ("true", "false"):
        return "false" if v == "true" else "true"
    f = float(v)
    return repr(f * (1.0 + 1e-4) if f != 0.0 else 1e-9)


def rejects(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


# ---------------------------------------------------------------------------
# query

@pytest.fixture(scope="module")
def query_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("query")
    ops = S.query_ops(SEED)
    kinds = {}
    for op in ops:  # one scenario of each class
        kinds.setdefault(op["kind"], op["config"])
    ops = [op for op in ops if op["config"] in kinds.values()]
    for op in ops:
        (d / op["config"]).write_text(S.config_text(op["params"]))
    return [(op, run_cli(op["args"], d)) for op in ops]


def test_query_outputs_pass(query_outputs):
    assert len(query_outputs) == 12
    for op, out in query_outputs:
        checks.check_query_output(op, out)


def _edit_cell(text, block, row, col, fn):
    blocks = text.strip("\n").split("\n\n")
    lines = blocks[block].split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = fn(cells[col])
    lines[row + 1] = ",".join(cells)
    blocks[block] = "\n".join(lines)
    return "\n\n".join(blocks) + "\n"


def test_query_checks_reject_every_corrupted_value(query_outputs):
    for op, out in query_outputs:
        header = out.split("\n", 1)[0].split(",")
        for col, name in enumerate(header):
            fn = corrupt if name != "regime" else (lambda v: "border" if v == "interior" else "interior")
            bad = _edit_cell(out, 0, 0, col, fn)
            if name == "y_se":  # 0 -> 1e-9
                assert float(bad.split("\n")[1].split(",")[1]) != 0.0
            rejects(checks.check_query_output, op, bad)


def test_brd_trace_checks_reject_edits(query_outputs):
    for op, out in query_outputs:
        if "brd" not in op:
            continue
        n = len(out.strip("\n").split("\n\n")[1].split("\n")) - 1
        for row in (1, n // 2, n - 1):
            rejects(checks.check_query_output, op, _edit_cell(out, 1, row, 1, corrupt))
        # a dropped step, renumbered so only the dynamics are wrong
        head, brd = out.strip("\n").split("\n\n")
        lines = brd.split("\n")
        kept = [lines[0]] + [f"{i}," + ln.split(",", 1)[1] for i, ln in enumerate(lines[1:2] + lines[3:])]
        rejects(checks.check_query_output, op, head + "\n\n" + "\n".join(kept) + "\n")
        # a trace cut short of the tolerance
        rejects(checks.check_query_output, op, head + "\n\n" + "\n".join(lines[:-2]) + "\n")


# ---------------------------------------------------------------------------
# sweep

@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("sweep")
    ops = S.sweep_ops(SEED, n=40)
    (d / "sweep.cfg").write_text(S.sweep_config(ops[0]["params"]))
    for op in ops:
        run_cli(op["args"], d)
    return [(op, (d / op["out"]).read_text()) for op in ops]


def test_sweep_outputs_pass(sweep_outputs):
    assert {op["figure"] for op, _ in sweep_outputs} == set(S.SWEEP_FIGURES)
    for op, text in sweep_outputs:
        checks.check_sweep_output(op, text)


def test_sweep_checks_reject_dropped_and_edited_rows(sweep_outputs):
    for op, text in sweep_outputs:
        lines = text.rstrip("\n").split("\n")
        rejects(checks.check_sweep_output, op, "\n".join(lines[:10] + lines[11:]) + "\n")
        ncols = len(lines[0].split(","))
        for col in range(ncols):
            for row in (0, 17, len(lines) - 2):
                rejects(checks.check_sweep_output, op, _edit_cell(text, 0, row, col, corrupt))


def test_efficiency_check_rejects_values_above_one(sweep_outputs):
    op, text = next((op, t) for op, t in sweep_outputs if op["figure"] == "efficiency")
    rejects(checks.check_sweep_output, op, _edit_cell(text, 0, 5, 2, lambda v: "1.0000001"))


# ---------------------------------------------------------------------------
# simulate

@pytest.fixture(scope="module")
def sim_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("sim")
    outs = []
    for op in S.simulate_ops(SEED, cycles=2000)[:2]:
        (d / op["config"]).write_text(S.simulate_config(op["params"], op["cycles"]))
        stdout = run_cli(op["args"], d)
        outs.append((op, (d / op["out"]).read_text(), stdout))
    return outs


def test_simulate_outputs_pass(sim_outputs):
    assert [op["kind"] for op, _, _ in sim_outputs] == ["border", "interior"]
    for op, text, stdout in sim_outputs:
        checks.check_simulate_output(op, text, stdout)


def _edit_line(text, prefix, col, fn):
    lines = text.split("\n")
    k = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    cells = lines[k].split(",")
    cells[col] = fn(cells[col])
    lines[k] = ",".join(cells)
    return "\n".join(lines)


def test_simulate_checks_reject_edited_events(sim_outputs):
    for op, text, stdout in sim_outputs:
        head, events = text.split("\n\n")
        for row in ("7,", "1234,", "1999,"):
            for col in (3, 4):  # bits, energy
                rejects(checks.check_simulate_output, op, head + "\n\n" + _edit_line(events, row, col, corrupt), stdout)
        # A silence enters the strategy table only as its window's maximum,
        # so edit the maximum of a few windows.
        silences = np.array([float(ln.split(",")[1]) for ln in events.split("\n")[1:] if ln])
        for w in (0, 50, 199):
            row = f"{w * op['period'] + int(np.argmax(silences[w * op['period']:(w + 1) * op['period']]))},"
            for fn in (corrupt, lambda v: repr(float(v) * 0.5)):
                rejects(checks.check_simulate_output, op, head + "\n\n" + _edit_line(events, row, 1, fn), stdout)
        # a dropped event
        ev = events.split("\n")
        rejects(checks.check_simulate_output, op, head + "\n\n" + "\n".join(ev[:5] + ev[6:]), stdout)
        # a changed strategy update and a changed summary
        strat_row = f"{len(head.split(chr(10))) // 2},"
        for col in (2, 3, 4, 5):
            rejects(checks.check_simulate_output, op, _edit_line(head, strat_row, col, corrupt) + "\n\n" + events, stdout)
        rejects(checks.check_simulate_output, op, text, _edit_cell(stdout, 0, 0, 0, corrupt))


def test_simulate_check_rejects_edited_jam_draw(sim_outputs):
    op, text, stdout = sim_outputs[1]  # interior: the jammer is active
    head, events = text.split("\n\n")
    row = next(ln for ln in events.split("\n")[1:] if float(ln.split(",")[2]) > 0.0).split(",")[0] + ","
    rejects(checks.check_simulate_output, op, head + "\n\n" + _edit_line(events, row, 2, corrupt), stdout)


# ---------------------------------------------------------------------------
# api

@pytest.fixture(scope="module")
def api_results():
    out = []
    for scn in S.api_scenarios(SEED)[::7]:
        p = jamgame.GameParams(**scn["params"])
        res = api_child.solve(jamgame, p, jamgame.StrategyProfile(*scn["start"]))
        out.append((scn, api_child.as_json(res)))
    return out


def test_api_results_pass(api_results):
    assert {scn["kind"] for scn, _ in api_results} == {S.INTERIOR, S.BORDER, S.NO_JAM}
    for scn, r in api_results:
        checks.check_api_result(scn, r)


@pytest.mark.parametrize("path", [
    ("ne", 0), ("ne", 1), ("ne", 3), ("ne", 4), ("se", 0), ("approx",),
    ("report", "u_t_se"), ("report", "improved"), ("brd", "iterates", -1, 0), ("brd", "iterates", 1, 1),
])
def test_api_checks_reject_edits(api_results, path):
    import copy
    for scn, r in api_results:
        bad = copy.deepcopy(r)
        node = bad
        for key in path[:-1]:
            node = node[key]
        v = node[path[-1]]
        if isinstance(v, bool):
            node[path[-1]] = not v
        elif v == 0.0:
            if path == ("ne", 1) or path == ("brd", "iterates", 1, 1):
                node[path[-1]] = 1e-9
            else:
                continue
        else:
            node[path[-1]] = v * (1.0 + 1e-4)
        rejects(checks.check_api_result, scn, bad)


# ---------------------------------------------------------------------------
# The oracles themselves and the scenario generator

def test_newton_w_identity():
    z = np.geomspace(1e-3, 1e12, 200)
    w = oracles.w0(z)
    assert np.allclose(w * np.exp(w), z, rtol=1e-14)
    zm = -np.geomspace(1e-12, 0.36, 200)
    wm = oracles.wm1(zm)
    assert np.all(wm <= -1.0) and np.allclose(wm * np.exp(wm), zm, rtol=1e-12)


def test_threshold_formulas_match_their_definitions():
    for kind in (S.INTERIOR, S.BORDER, S.NO_JAM):
        p = S.draw_params(S.rng_for(SEED, "oracle-test"), kind)
        tilde, c_max = oracles.thresholds(p)
        grid = np.geomspace(p["delta"] * 1.0001, 1e4 * p["delta"], 200_000)
        # c_t_max is documented as a sufficient bound: no jamming anywhere above it.
        assert np.max(oracles.chi(p, grid, c_max)) < 0.0
        # c_t_tilde: the jammer's best response at b_t(0) is zero exactly from c_t_tilde up.
        x0 = float(oracles.b_t(p, 0.0))
        assert oracles.chi(p, x0, tilde * 1.001) < 0.0 < oracles.chi(p, x0, tilde * 0.999)


def test_scenarios_follow_the_seed():
    assert S.query_ops(5) == S.query_ops(5)
    assert S.query_ops(5) != S.query_ops(6)
    assert S.simulate_ops(5) != S.simulate_ops(6)
    assert S.sweep_ops(5) != S.sweep_ops(6)
    for op in S.query_ops(7):
        tilde, c_max = oracles.thresholds(op["params"])
        c = op["params"]["c_t"]
        assert {"interior": c < tilde / 1.29, "border": tilde * 1.29 < c < c_max / 1.29,
                "above_c_t_max": c > 1.29 * c_max}[op["kind"]]
        assert c <= 0.5 * min(oracles.approx_domain_limit(op["params"]), oracles.x_hat_limit(op["params"]))
        assert oracles.x_hat(op["params"]) > 2.0 * op["params"]["delta"]


def test_reported_metrics_match_benchmark_json():
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = {m["name"] for m in spec["end_to_end"]}
    r = run.Run("query", Path("."), spawner=None)
    r.walls, r.items, r.setups, r.rss_mb = [0.5] * 40, 40, [1.0, 2.0, 3.0], 80.0
    assert set(r.end_to_end()) == names


def test_api_scenarios_converge_at_the_default_tolerance():
    # Seeds 5 and 25 drew scenarios whose BRD ran out of iterations before
    # brd_resolvable excluded them.
    for seed in (5, 25):
        for scn in S.api_scenarios(seed):
            p = jamgame.GameParams(**scn["params"])
            assert jamgame.brd(p, jamgame.StrategyProfile(*scn["start"])).converged, scn
