"""End-to-end tests of the command-line interface and its file formats."""

import argparse
import ast
import contextlib
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from jamgame import best_response_target, cli, nash_closed_form, thresholds
from jamgame.figures import FIGURES
from jamgame.nash import DEFAULT_MAX_ITER, DEFAULT_TOL
from jamgame.config import dump_config, game_params_from_config, parse_config_text
from . import oracles
from .conftest import FULL_RANGE, WIDE_BOX, wide_params
from .test_sweep import run_sweep

TABLE1_CFG = """\
# lab scenario
t_aj  = 15e-6
delta = 1e-6
p_t   = 2
p_j   = 2
t_p   = 50e-6
c_t   = 1e6
c_t_star = 0
"""

TABLE2_CFG = """\
t_aj  = 15e-6
delta = 1e-6
p_t   = 2
p_j   = 2
t_p   = 20e-6
c_t   = 8e9
c_t_star = 1e6
total_cycles = 100
update_period_cycles = 10
"""


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "jamgame", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines()]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if ln]
    return header, rows


@pytest.fixture
def cfg1(tmp_path):
    path = tmp_path / "table1.cfg"
    path.write_text(TABLE1_CFG)
    return str(path)


@pytest.fixture
def cfg2(tmp_path):
    path = tmp_path / "table2.cfg"
    path.write_text(TABLE2_CFG)
    return str(path)


def test_nash_row(cfg1, table1):
    res = run_cli("nash", cfg1)
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert header == ["x_ne", "y_ne", "regime", "u_t", "u_j", "c_t_tilde", "c_t_max"]
    row = dict(zip(header, rows[0]))
    assert row["regime"] in ("interior", "border")
    ne = nash_closed_form(table1)
    assert float(row["x_ne"]) == ne.profile.x  # round-trip precision
    th = thresholds(table1)
    assert float(row["c_t_tilde"]) == th.c_t_tilde
    assert float(row["c_t_max"]) == th.c_t_max


def test_nash_missing_key_exit_2(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("\n".join(ln for ln in TABLE1_CFG.splitlines() if "delta" not in ln))
    res = run_cli("nash", str(path))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith("error: ") and "delta" in res.stderr


def test_nash_invariant_violation_exit_3(tmp_path):
    path = tmp_path / "neg.cfg"
    path.write_text(TABLE1_CFG.replace("delta = 1e-6", "delta = -1e-6"))
    res = run_cli("nash", str(path))
    assert (res.returncode, res.stdout) == (3, "")
    assert res.stderr.startswith("error: ") and "delta" in res.stderr


def test_nash_brd_trace_converges_to_row(cfg1):
    res = run_cli("nash", cfg1, "--brd", "--tol", "1e-12")
    assert res.returncode == 0
    blocks = res.stdout.strip().split("\n\n")
    assert len(blocks) == 2
    _, eq_rows = parse_csv(blocks[0])
    header, trace_rows = parse_csv(blocks[1])
    assert header == ["iteration", "x", "y"]
    x_eq, y_eq = float(eq_rows[0][0]), float(eq_rows[0][1])
    x_last, y_last = float(trace_rows[-1][1]), float(trace_rows[-1][2])
    assert abs(x_last - x_eq) <= 1e-6 * x_eq
    assert abs(y_last - y_eq) <= 1e-6 * max(y_eq, 1e-12)


def test_stackelberg_row(cfg1):
    res = run_cli("stackelberg", cfg1)
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert header == ["x_se", "y_se", "u_t_se", "u_t_ne", "improved"]
    row = dict(zip(header, rows[0]))
    assert float(row["y_se"]) == 0.0
    assert row["improved"] == "true"


def test_stackelberg_approx_column(cfg1):
    res = run_cli("stackelberg", cfg1, "--approx")
    header, rows = parse_csv(res.stdout)
    assert header[-1] == "accuracy_ratio"
    ratio = float(rows[0][-1])
    assert 0.0 < ratio <= 1.0


def test_stackelberg_no_improvement_above_tilde(tmp_path):
    path = tmp_path / "hi.cfg"
    path.write_text(TABLE1_CFG.replace("c_t   = 1e6", "c_t   = 5e9"))
    res = run_cli("stackelberg", str(path))
    header, rows = parse_csv(res.stdout)
    assert dict(zip(header, rows[0]))["improved"] == "false"


def test_stackelberg_x_tol_is_retired(cfg1):
    # x_se is the zero of chi to float resolution: no stop width is left to set.
    res = run_cli("stackelberg", cfg1, "--x-tol", "1e-9")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "unrecognized arguments: --x-tol 1e-9" in res.stderr


def test_sweep_row_count_and_determinism(cfg1):
    res = run_cli("sweep", cfg1, "--figure", "neX", "--log-range", "1e5", "1e9", "2")
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert header == ["c_t", "x_ne"] and len(rows) == 2
    again = run_cli("sweep", cfg1, "--figure", "neX", "--log-range", "1e5", "1e9", "2")
    assert again.stdout == res.stdout


def test_sweep_payoffs_dominance(cfg1):
    res = run_cli("sweep", cfg1, "--figure", "payoffs", "--log-range", "1e5", "1e9", "12")
    header, rows = parse_csv(res.stdout)
    i_ne, i_se = header.index("u_t_ne"), header.index("u_t_se")
    for row in rows:
        assert float(row[i_se]) >= float(row[i_ne])


def test_sweep_thread_cap_preserves_output(cfg1):
    # JAMGAME_THREADS (the removed sweep thread cap) is read by nothing: a value
    # left in the environment must not change the columns or their order
    plain = run_cli("sweep", cfg1, "--figure", "seX", "--log-range", "1e5", "1e9", "8")
    assert plain.returncode == 0
    header, rows = parse_csv(plain.stdout)
    assert header == FIGURES["seX"][0] and len(rows) == 8
    for threads in ("1", "4"):
        capped = run_cli("sweep", cfg1, "--figure", "seX", "--log-range", "1e5", "1e9", "8",
                         env={"JAMGAME_THREADS": threads})
        assert capped.returncode == 0
        assert capped.stdout == plain.stdout


def test_sweep_comparison_casework(cfg1):
    res = run_cli("sweep", cfg1, "--figure", "comparison", "--log-range", "1e5", "1e9", "6")
    header, rows = parse_csv(res.stdout)
    i = {name: header.index(name) for name in header}
    # strongly-jammed end: the naive target does worse than at equilibrium,
    # the target facing a naively-predicting jammer does better
    first = rows[0]
    assert float(first[i["u_t_case_a"]]) < float(first[i["u_t_ne"]])
    assert float(first[i["u_t_case_b"]]) > float(first[i["u_t_ne"]])
    # the naive-baseline gap (relative to the equilibrium utility) shrinks as
    # the jammer gets more cost-constrained
    def rel_gap(row):
        u_ne = float(row[i["u_t_ne"]])
        return abs(float(row[i["u_t_case_a"]]) - u_ne) / u_ne

    assert rel_gap(rows[-1]) < rel_gap(rows[0])
    for row in rows:
        assert all(np.isfinite(float(v)) for v in row)


def test_sweep_efficiency_columns(cfg1):
    res = run_cli("sweep", cfg1, "--figure", "efficiency", "--log-range", "1e6", "1e8", "4")
    header, rows = parse_csv(res.stdout)
    assert header[:2] == ["c_t", "xi_opt"]
    for row in rows:
        for v in row[2:]:
            assert 0.0 < float(v) <= 1.0 + 1e-12


def test_sweep_efficiency_prior_past_c_t_tilde(tmp_path):
    # xi_max = 1e11 lies past c_t_tilde (3.7e9), where g(xi) = b_t(0): a true
    # jammer past c_t_tilde does not jam there, so efficiency stays in (0, 1].
    path = tmp_path / "scenario.cfg"
    path.write_text(TABLE1_CFG + "xi_max = 1e11\n")
    res = run_cli("sweep", str(path), "--figure", "efficiency", "--log-range", "1e5", "1e12", "8")
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert len(rows) == 8
    c_t_tilde = thresholds(game_params_from_config(parse_config_text(TABLE1_CFG))).c_t_tilde
    for row in rows:
        assert float(row[1]) <= c_t_tilde  # xi_opt: E is constant past c_t_tilde
        for v in row[2:]:
            assert 0.0 < float(v) <= 1.0 + 1e-12


def test_sweep_efficiency_prior_down_to_1e_305_is_solved(tmp_path):
    # eta*delta^2 = 1.4e-317 at xi_min: the leader is still solved there, as
    # stackelberg_exact solves it, so the prior is solved whole.
    path = tmp_path / "scenario.cfg"
    path.write_text(TABLE1_CFG + "xi_min = 1e-305\nxi_max = 1e-5\n")
    res = run_cli("sweep", str(path), "--figure", "efficiency", "--log-range", "1e6", "1e8", "3")
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(res.stdout)
    assert len(rows) == 3
    for row in rows:
        assert 1e-305 <= float(row[1]) <= 1e-5  # xi_opt
        for v in row[2:]:
            assert 0.0 < float(v) <= 1.0


@pytest.mark.parametrize("bound", ["xi_max = 1e300", "xi_min = 1e-300", "xi_min = 1e-320\nxi_max = 2e-320"])
def test_sweep_efficiency_prior_out_of_range_exit_3(tmp_path, bound):
    # xi_max**2 or xi_max / xi_min overflows: the prior is refused, not solved.
    # A weight whose eta underflows is refused by the leader's own rule, which
    # names the smallest weight of xi_opt's first grid: xi_min.
    path = tmp_path / "scenario.cfg"
    path.write_text(TABLE1_CFG + bound + "\n")
    res = run_cli("sweep", str(path), "--figure", "efficiency", "--log-range", "1e6", "1e8", "3")
    assert res.returncode == 3
    assert res.stdout == ""
    assert "Traceback" not in res.stderr and len(res.stderr.splitlines()) == 1
    assert ("(c_t = 1e-320," if "1e-320" in bound else "xi") in res.stderr


def test_sweep_bad_range_exit_2(cfg1):
    res = run_cli("sweep", cfg1, "--figure", "neX", "--log-range", "1e9", "1e5", "5")
    assert res.returncode == 2
    res = run_cli("sweep", cfg1, "--figure", "neX", "--log-range", "1e5", "1e9", "1")
    assert res.returncode == 2


def test_sweep_unknown_figure_exit_2(cfg1):
    res = run_cli("sweep", cfg1, "--figure", "nope", "--log-range", "1e5", "1e9", "3")
    assert res.returncode == 2
    assert "nope" in res.stderr


def test_simulate_reproducible_files(cfg2, tmp_path):
    out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    res_a = run_cli("simulate", cfg2, "--seed", "11", "--out", out_a)
    res_b = run_cli("simulate", cfg2, "--seed", "11", "--out", out_b)
    assert res_a.returncode == res_b.returncode == 0
    assert open(out_a, "rb").read() == open(out_b, "rb").read()
    header, rows = parse_csv(res_a.stdout)
    assert header == ["final_x", "final_y", "updates_to_ne"]
    assert int(rows[0][2]) <= 5


def test_simulate_golden_digest(cfg2, tmp_path):
    # Pins the draw order of RNG_ALGORITHM numpy-PCG64/columns-v2 and the file format.
    out = tmp_path / "t.csv"
    res = run_cli("simulate", cfg2, "--seed", "11", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f94f0089feaa3716375078d529caca64e8cc3fc04b190f18b813ed6ec85ebbcb"
    )


def test_simulate_golden_digest_partial_window(tmp_path):
    # Interior regime (non-zero jams) with a trailing 4-cycle partial window.
    cfg = tmp_path / "partial.cfg"
    cfg.write_text(TABLE1_CFG + "total_cycles = 95\nupdate_period_cycles = 7\n")
    out = tmp_path / "t.csv"
    res = run_cli("simulate", str(cfg), "--seed", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "4d18cfec4b6d023c1c6ce1b5b93ad666661d0aa8519fab33b1aeb9415885cbf2"
    )


def test_simulate_event_chunks_join_seamlessly(cfg2, tmp_path, monkeypatch, capsys):
    from jamgame import cli

    whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
    assert cli.main(["simulate", cfg2, "--seed", "5", "--out", str(whole)]) == 0
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
    assert cli.main(["simulate", cfg2, "--seed", "5", "--out", str(chunked)]) == 0
    assert chunked.read_bytes() == whole.read_bytes()
    assert len(whole.read_text().split("\n\n")[1].splitlines()) == 1 + 100


def test_simulate_draws_and_records_seed(cfg2, tmp_path):
    out = str(tmp_path / "t.csv")
    res = run_cli("simulate", cfg2, "--out", out)
    assert res.returncode == 0
    text = open(out).read()
    seed_lines = [ln for ln in text.splitlines() if ln.startswith("# seed=")]
    assert len(seed_lines) == 1
    int(seed_lines[0].split("=", 1)[1])  # parses as an integer
    assert "# rng=numpy-PCG64/columns-v2" in text


def test_simulate_unwritable_exit_4(cfg2):
    for argv in (["simulate", "--seed", "1"], ["sweep", "--figure", "neX", "--log-range", "1e5", "1e9", "5"]):
        res = run_cli(argv[0], cfg2, *argv[1:], "--out", "/nonexistent-dir/x.csv")
        assert (res.returncode, res.stdout) == (4, ""), argv
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
        assert len(res.stderr.splitlines()) == 1, res.stderr


def test_simulate_refuses_jam_energies_past_the_largest_double(tmp_path):
    # jam_energy_j = jam_s * p_j overflows for p_j near the largest double:
    # refused before the trace file is opened, with no numpy RuntimeWarning.
    cfg = tmp_path / "huge_p_j.cfg"
    cfg.write_text("t_aj = 1\ndelta = 1e-3\np_t = 1\np_j = 1.7e308\nt_p = 1e-3\nc_t = 1e-313\n"
                   "total_cycles = 40\nupdate_period_cycles = 10\n")
    out = tmp_path / "trace.csv"
    code, stdout, err = run_sweep(["simulate", str(cfg), "--seed", "3", "--out", str(out)])
    assert (code, stdout) == (3, "")
    assert err.startswith("error: jam_energy_j")
    assert not out.exists()


def test_simulate_prints_a_game_whose_realized_utility_leaves_the_doubles(tmp_path):
    # c_t * jam * p_j overflows, so the realized u_j would leave the double
    # range; simulate never prints it, so it does not refuse the game for it.
    cfg = tmp_path / "huge_c_t.cfg"
    cfg.write_text(dump_config(dict(
        t_aj=1.3237988800961329e+70, delta=2.1704368044852136e-113, p_t=6.104877443224717e-157,
        p_j=2.0860419044820804e+142, t_p=1.0722357315731347e+244, c_t=9.304509305637352e+304, total_cycles=40,
    )))
    out = tmp_path / "trace.csv"
    code, stdout, err = run_sweep(["simulate", str(cfg), "--seed", "3", "--out", str(out)])
    assert (code, stdout, err) == (0, "final_x,final_y,updates_to_ne\n6.386761906800475e+67,0.0,2\n", "")
    assert out.exists()


def test_config_round_trip():
    cfg = parse_config_text(TABLE2_CFG)
    assert parse_config_text(dump_config(cfg)) == cfg
    game_params_from_config(cfg)  # constructible


def test_config_parse_errors():
    from jamgame import ConfigError

    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="c_t"):
        parse_config_text("c_t = abc\n")
    with pytest.raises(ConfigError, match="line 9: key 'c_t' already set on line 7"):
        parse_config_text(TABLE1_CFG + "c_t = 2e6\n")


def test_nash_brd_bad_start_leaves_no_partial_stdout(cfg1):
    res = run_cli("nash", cfg1, "--brd", "--start-x", "1e-7")
    assert res.returncode == 3
    assert res.stdout == ""


@pytest.mark.parametrize(
    "cfg_text, argv",
    [
        pytest.param(TABLE1_CFG, ["nash", "--brd", "--tol", "0"], id="tol-zero"),
        pytest.param(TABLE1_CFG, ["nash", "--brd", "--tol", "nan"], id="tol-nan"),
        pytest.param(TABLE1_CFG, ["nash", "--brd", "--max-iter", "0"], id="max-iter-zero"),
        pytest.param(TABLE1_CFG, ["stackelberg", "--x-tol", "-1"], id="x-tol-negative"),
        pytest.param(TABLE1_CFG, ["stackelberg", "--x-tol", "inf"], id="x-tol-inf"),
        pytest.param(
            TABLE2_CFG.replace("total_cycles = 100", "total_cycles = nan"),
            ["simulate", "--seed", "1", "--out", "{out}"],
            id="total-cycles-nan",
        ),
        pytest.param(
            TABLE2_CFG.replace("total_cycles = 100", "total_cycles = 10000001"),
            ["simulate", "--seed", "1", "--out", "{out}"],
            id="total-cycles-above-limit",
        ),
        pytest.param(
            TABLE2_CFG.replace("total_cycles = 100", "total_cycles = 5"),
            ["simulate", "--seed", "1", "--out", "{out}"],
            id="total-cycles-below-update-period",
        ),
        pytest.param(TABLE2_CFG, ["simulate", "--seed", "-1", "--out", "{out}"], id="seed-negative"),
        pytest.param(
            TABLE2_CFG.replace("update_period_cycles = 10", "update_period_cycles = 0.5"),
            ["simulate", "--seed", "1", "--out", "{out}"],
            id="update-period-fractional",
        ),
        pytest.param(
            TABLE1_CFG + "xi_min = nan\n",
            ["sweep", "--figure", "efficiency", "--log-range", "1e6", "1e8", "3"],
            id="xi-min-nan",
        ),
        pytest.param(
            TABLE1_CFG + "xi_max = inf\n",
            ["sweep", "--figure", "efficiency", "--log-range", "1e6", "1e8", "3"],
            id="xi-max-inf",
        ),
        pytest.param(TABLE1_CFG + "c_t = 2e6\n", ["nash"], id="duplicate-key"),
        pytest.param(
            TABLE1_CFG, ["sweep", "--figure", "neX", "--log-range", "1e5", "1e9", "2.5"], id="n-fractional"
        ),
        pytest.param(
            TABLE1_CFG, ["sweep", "--figure", "neX", "--log-range", "1e5", "1e9", "nan"], id="n-nan"
        ),
        pytest.param(
            TABLE1_CFG, ["sweep", "--figure", "neX", "--log-range", "1e5", "inf", "3"], id="b-inf"
        ),
        pytest.param(
            TABLE1_CFG, ["sweep", "--figure", "neX", "--log-range", "nan", "1e9", "3"], id="a-nan"
        ),
        pytest.param(
            TABLE1_CFG,
            ["sweep", "--figure", "brY", "--log-range", "0.125", "2.247116418577895e+307", "3"],
            id="span-overflows",
        ),
        pytest.param(
            TABLE1_CFG,
            ["sweep", "--figure", "brX", "--param", "c_t", "--log-range", "1e-6", "1e-3", "3"],
            id="brX-param-c_t",
        ),
        pytest.param(
            TABLE1_CFG,
            ["sweep", "--figure", "neX", "--param", "x", "--log-range", "1e5", "1e9", "3"],
            id="neX-param-x",
        ),
    ],
)
def test_bad_input_exit_2_without_output(tmp_path, cfg_text, argv):
    path = tmp_path / "scenario.cfg"
    path.write_text(cfg_text)
    out = tmp_path / "trace.csv"
    argv = [arg.replace("{out}", str(out)) for arg in argv]
    res = run_cli(argv[0], str(path), *argv[1:])
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr and res.stderr.startswith("error: ")
    assert not out.exists()


def test_cli_import_loads_neither_scipy_nor_thread_pool(cfg1):
    # Importing the package or the CLI, and every query command, in a fresh
    # interpreter: none of them loads numpy, the numpy-backed layers,
    # dataclasses (with its inspect) or argparse (with its gettext and
    # locale); a sweep loads numpy but neither dataclasses nor argparse.
    parsing = ("argparse", "gettext", "locale")
    query_unloaded = (
        "scipy", "concurrent.futures", "numpy", "jamgame.sim", "jamgame.belief", "jamgame.figures",
        "dataclasses", "inspect", *parsing,
    )
    sweep = ["sweep", "--figure", "efficiency", "--log-range", "1e5", "1e9", "20"]
    queries = [None, ["nash"], ["nash", "--brd"], ["stackelberg"], ["stackelberg", "--approx"]]
    inputs = [(argv, query_unloaded) for argv in queries]
    inputs.append((sweep, ("scipy", "concurrent.futures", "jamgame.sim", "dataclasses", *parsing)))
    for argv, unloaded in inputs:
        run = "0" if argv is None else f"jamgame.cli.main([{argv[0]!r}, {cfg1!r}, *{argv[1:]!r}])"
        code = (
            f"import sys, jamgame, jamgame.cli; status = {run}; "
            f"print(status, [m for m in {unloaded!r} if m in sys.modules], file=sys.stderr)"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, (argv, res.stderr)
        assert res.stderr.strip() == "0 []", (argv, res.stderr)
    # Every public name resolves, the numpy-backed ones on first access.
    code = "import jamgame; print([n for n in jamgame.__all__ if not hasattr(jamgame, n)])"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def _synopsis_options(text):
    """{subcommand: its --options} from the ``jamgame SUB CONFIG ...`` lines of a text."""
    found = {}
    for command, rest in re.findall(r"^\s*jamgame (\w+) CONFIG(.*)$", text, re.MULTILINE):
        assert command not in found, f"two synopsis lines for {command}"
        found[command] = set(re.findall(r"--[a-z][a-z-]*", rest))
    return found


def test_usage_synopses_match_the_parser():
    # Each command's synopsis in the option table is its line in the CLI
    # docstring and in the README, and names exactly the options it holds.
    want = {name: set(options) for name, (_, _, options) in cli._COMMANDS.items()}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert _synopsis_options(cli.__doc__) == want
    assert _synopsis_options(readme) == want
    for synopsis, _, _ in cli._COMMANDS.values():
        assert f"\n    {synopsis}\n" in cli.__doc__ and f"\n{synopsis}\n" in readme


class _Refused(Exception):
    pass


class _ArgparseReference(argparse.ArgumentParser):
    def error(self, message):
        raise _Refused(message)


def _argparse_reference():
    """The argparse parser the CLI had before its option table: the reference for how argv is read."""
    ap = _ArgparseReference(prog="jamgame")
    sub = ap.add_subparsers(dest="command", required=True)
    p_nash = sub.add_parser("nash")
    p_nash.add_argument("config")
    p_nash.add_argument("--brd", action="store_true")
    p_nash.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_nash.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p_nash.add_argument("--start-x", type=float, default=None)
    p_nash.add_argument("--start-y", type=float, default=0.0)  # None there, which nash read as 0
    p_se = sub.add_parser("stackelberg")
    p_se.add_argument("config")
    p_se.add_argument("--approx", action="store_true")
    p_sw = sub.add_parser("sweep")
    p_sw.add_argument("config")
    p_sw.add_argument("--figure", required=True)
    p_sw.add_argument("--log-range", nargs=3, type=float, required=True, metavar=("A", "B", "N"))
    p_sw.add_argument("--out", default=None)
    p_sim = sub.add_parser("simulate")
    p_sim.add_argument("config")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", required=True)
    return ap


def _read_by_both(argv):
    """What argparse and the option table make of argv: ("help",), ("error", first line) or (command, values)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            ns = vars(_argparse_reference().parse_args(argv))
        reference = (ns.pop("command"), ns)
    except SystemExit:
        reference = ("help",)
    except _Refused as exc:
        reference = ("error", str(exc))
    try:
        fn, args = cli._parse(argv)
        table = ("help",) if fn is cli._help else (fn.__name__.removeprefix("_cmd_"), vars(args))
    except cli.ConfigError as exc:
        table = ("error", str(exc).split("\n")[0])
    return reference, table


VALID_ARGVS = [
    ["nash", "lab.cfg"],
    ["nash", "lab.cfg", "--brd"],
    ["nash", "--brd", "lab.cfg"],
    ["nash", "lab.cfg", "--brd", "--tol", "1e-9", "--max-iter", "50"],
    ["nash", "lab.cfg", "--tol=1e-9", "--max-iter=50"],
    ["nash", "--tol", "1e-9", "lab.cfg", "--brd"],
    ["nash", "lab.cfg", "--tol", "1e-9", "--tol", "1e-6"],
    ["nash", "lab.cfg", "--start-x", "3e-5", "--start-y", "0"],
    ["nash", "lab.cfg", "--brd", "--start-x", "-0.5"],
    ["nash", "lab.cfg", "--start-y", "-0.5", "--start-x=-1"],
    ["nash", "lab.cfg", "--max", "7", "--b"],
    ["nash", "lab.cfg", "--tol", "inf", "--max-iter", "1_000"],
    ["nash", "--", "lab.cfg"],
    ["nash", "-"],
    ["nash", "-1"],
    ["stackelberg", "lab.cfg"],
    ["stackelberg", "lab.cfg", "--approx"],
    ["stackelberg", "--appr", "lab.cfg"],
    ["stackelberg", "lab.cfg", "--a", "--approx"],
    ["sweep", "lab.cfg", "--figure", "neX", "--log-range", "1e5", "1e9", "5"],
    ["sweep", "--log-range", "5.0", "1e9", "5.0", "--figure", "seX", "lab.cfg"],
    ["sweep", "lab.cfg", "--figure=payoffs", "--log-range", "1", "2", "3", "--out", "o.csv"],
    ["sweep", "lab.cfg", "--fig", "neY", "--log", "1e5", "1e9", "5", "--o=o.csv"],
    ["sweep", "lab.cfg", "--figure", "neX", "--figure", "brX", "--log-range", "-1", "2", "3"],
    ["sweep", "lab.cfg", "--figure", "nope", "--log-range", "inf", "0", "2.5"],
    ["simulate", "lab.cfg", "--out", "t.csv"],
    ["simulate", "lab.cfg", "--out", "t.csv", "--seed", "0"],
    ["simulate", "--seed=7", "--out=t.csv", "lab.cfg"],
    ["simulate", "lab.cfg", "--se", "3", "--ou", "t.csv", "--seed", "4"],
    ["simulate", "lab.cfg", "--out", "-", "--seed", "-1"],
    ["-h"], ["--he"], ["nash", "--help"], ["nash", "lab.cfg", "--h"], ["sweep", "-h", "--figure"],
]


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
def test_the_option_table_reads_valid_argv_as_argparse_did(argv):
    reference, table = _read_by_both(argv)
    assert reference[0] != "error", reference
    assert table == reference


_TOP_USAGE = "jamgame {nash,stackelberg,sweep,simulate} ..."
USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["solve", "{cfg}"], "argument command: invalid choice: 'solve' (choose from 'nash', 'stackelberg', 'sweep', "
                         "'simulate')"),
    (["nash"], "the following arguments are required: config"),
    (["stackelberg", "{cfg}", "--x-tol", "1e-9"], "unrecognized arguments: --x-tol 1e-9"),
    (["nash", "{cfg}", "--tol"], "argument --tol: expected one argument"),
    (["nash", "{cfg}", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
    (["nash", "{cfg}", "--max-iter", "3.0"], "argument --max-iter: invalid int value: '3.0'"),
    (["nash", "{cfg}", "--start", "1"], "ambiguous option: --start could match --start-x, --start-y"),
    (["nash", "{cfg}", "--brd=1"], "argument --brd: ignored explicit argument '1'"),
    (["sweep", "{cfg}", "--figure", "neX", "--log-range", "1e5", "1e9"], "argument --log-range: expected 3 arguments"),
    (["sweep", "{cfg}", "--figure", "neX", "--log-range", "1e5", "1e9", "--out", "{out}"],
     "argument --log-range: expected 3 arguments"),
    (["sweep", "{cfg}", "--figure", "neX", "--log-range", "1", "2", "x", "--out", "{out}"],
     "argument --log-range: invalid float value: 'x'"),
    (["sweep", "{cfg}", "--log-range", "1e5", "1e9", "3", "--out", "{out}"],
     "the following arguments are required: --figure"),
    (["sweep", "--figure", "neX"], "the following arguments are required: config, --log-range"),
    (["simulate", "{cfg}", "--seed", "1"], "the following arguments are required: --out"),
    (["simulate", "{cfg}", "--out"], "argument --out: expected one argument"),
    (["simulate", "{cfg}", "--out", "{out}", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["simulate", "{cfg}", "extra", "--out", "{out}"], "unrecognized arguments: extra"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=[" ".join(argv) or "(none)" for argv, _ in USAGE_ERRORS])
def test_a_usage_error_exits_2_in_argparse_words_with_the_synopsis(cfg1, tmp_path, argv, message):
    out = tmp_path / "out.csv"
    argv = [word.replace("{cfg}", cfg1).replace("{out}", str(out)) for word in argv]
    assert _read_by_both(argv) == (("error", message),) * 2
    synopsis = cli._COMMANDS[argv[0]][0] if argv and argv[0] in cli._COMMANDS else _TOP_USAGE
    assert run_sweep(argv) == (2, "", f"error: {message}\nusage: {synopsis}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["nash", "--help"], ["sweep", "{cfg}", "-h", "--figure"]])
def test_help_prints_the_synopsis_and_the_docstring(cfg1, argv):
    argv = [word.replace("{cfg}", cfg1) for word in argv]
    synopsis = _TOP_USAGE if argv[0] == "--help" else cli._COMMANDS[argv[0]][0]
    assert run_sweep(argv) == (0, f"usage: {synopsis}\n\n{cli.__doc__}", "")


def test_help_without_docstrings_prints_the_synopsis_alone():
    # python -OO strips the docstring that --help prints after the synopsis.
    res = subprocess.run([sys.executable, "-OO", "-m", "jamgame", "nash", "--help"], capture_output=True, text=True)
    assert (res.returncode, res.stdout, res.stderr) == (0, f"usage: {cli._COMMANDS['nash'][0]}\n\n", "")


def test_an_option_value_may_start_with_one_dash(cfg1):
    # argparse read -1e-6 as an option (its negative-number pattern has no
    # exponent) and refused the argv; the value now reaches the strategy
    # check, as -0.5 always did.
    for value, shown in (("-1e-6", "-1e-06"), ("-0.5", "-0.5")):
        code, out, err = run_sweep(["nash", cfg1, "--brd", "--start-y", value])
        assert (code, out, err) == (3, "", f"error: y must be >= 0 and finite, got {shown}\n")


def test_readme_schema_table_matches_the_figures():
    # Each figure id and its header appear backticked in one row of the README's CSV-schema table.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### CSV schemas", 1)[1].split("\n\n")[1]
    for figure, (header, _) in FIGURES.items():
        rows = [row for row in table.splitlines() if f"`{figure}`" in row]
        assert len(rows) == 1, figure
        assert f"`{','.join(header)}`" in rows[0], figure


def test_a_weight_at_the_bottom_of_the_double_range_is_refused(tmp_path):
    # The lab scenario at c_t = 1e-320: every query command needs eta, which underflows.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TABLE1_CFG.replace("c_t   = 1e6", "c_t   = 1e-320"))
    for command in (["nash"], ["nash", "--brd"], ["stackelberg"], ["stackelberg", "--approx"]):
        code, out, err = run_sweep([command[0], str(cfg), *command[1:]])
        assert (code, out) == (3, ""), (command, err)
        assert err.startswith("error: eta = c_t*p_j*ln2 underflows"), (command, err)


def test_nash_and_its_sweeps_word_an_overflowing_nash_ratio_alike(tmp_path):
    # eta*delta^2 = 6.9e-311 at c_t = 1e-300, so 8/(eta*delta^2) leaves the doubles.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(dump_config(dict(t_aj=1e-20, delta=1e-5, p_t=1.0, p_j=1.0, t_p=1e-3, c_t=1e-300)))
    want = (3, "", "error: 8/(eta*delta^2) leaves the double range\n")
    assert run_sweep(["nash", str(cfg)]) == want
    for figure in ("payoffs", "comparison", "neX", "neY", "seX", "seY"):
        assert run_sweep(["sweep", str(cfg), "--figure", figure, "--log-range", "1e-300", "2e-300", "2"]) == want


WIDE_COMMANDS = [
    ["nash"], ["nash", "--brd"], ["stackelberg"], ["stackelberg", "--approx"],
    *(["sweep", "--figure", figure] for figure in ("payoffs", "approx", "efficiency", "comparison")),
]
# Run on the first 100 draws of each box only, to keep the test's time down.
MORE_WIDE_COMMANDS = [
    *(["sweep", "--figure", figure] for figure in ("brX", "brY", "neX", "neY", "seX", "seY")),
    ["simulate", "--seed", "1"],
]
# The full positive range with the transmit cost drawn too: c_t_star * t_p * p_t may overflow.
TRANSMIT_COST_BOX = dict(FULL_RANGE, c_t_star=(5e-324, 1.7e308))


def test_every_command_ends_in_a_documented_exit_on_a_wide_box(tmp_path):
    _every_command_ends_in_a_documented_exit(tmp_path, WIDE_BOX, np.random.default_rng(16), 200)


def test_every_command_ends_in_a_documented_exit_on_the_full_positive_range(tmp_path):
    _every_command_ends_in_a_documented_exit(tmp_path, FULL_RANGE, np.random.default_rng(17), 100)


def test_every_command_ends_in_a_documented_exit_with_the_transmit_cost_drawn(tmp_path):
    # c_t_star * t_p * p_t may overflow: u_t is refused, never printed as -inf.
    _every_command_ends_in_a_documented_exit(tmp_path, TRANSMIT_COST_BOX, np.random.default_rng(18), 100)


def _transmit_cost_draw_0(tmp_path):
    """The first draw of the transmit-cost box, its config file and its range of weights.

    Its c_t_star * t_p overflows, while c_t_star * t_p * p_t is 6.2e226.
    """
    p, _, weights = wide_params(np.random.default_rng(18), TRANSMIT_COST_BOX)
    cfg = tmp_path / "cost0.cfg"
    cfg.write_text(dump_config(vars(p)))
    return p, str(cfg), weights


def test_a_nash_sweep_is_not_refused_on_utilities_it_does_not_print(tmp_path):
    # neX prints only x: it answers where it once priced u_t and refused it.
    p, cfg, (a, b) = _transmit_cost_draw_0(tmp_path)
    code, out, err = run_sweep(["sweep", cfg, "--figure", "neX", "--log-range", repr(a), repr(b), "5"])
    assert (code, err) == (0, "")
    _assert_finite_tables(out, "neX", p)


def test_a_transmit_cost_that_overflows_left_to_right_is_priced(tmp_path):
    p, cfg, _ = _transmit_cost_draw_0(tmp_path)
    assert p.c_t_star * p.t_p == math.inf
    code, out, err = run_sweep(["nash", cfg])
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    cost = float(Decimal(p.c_t_star) * Decimal(p.t_p) * Decimal(p.p_t))
    assert float(dict(zip(header, rows[0]))["u_t"]) == pytest.approx(-cost, rel=1e-15)


def _assert_equilibrium_residuals(command, p, row):
    # Each residual is taken exactly (tests/oracles, in Decimal) at the printed point.
    # nash: the fixed-point residual of both best responses, in ulps of the
    # exponent e = ln(x/delta) = psi(y) + 1 of b_t = delta e^e: an ulp of e
    # is e ulps of x, and the closed form's y carries the same error.
    if command == "nash":
        x, y = float(row["x_ne"]), float(row["y_ne"])
        e = math.log(x) - math.log(p.delta)
        exponent_miss, y_miss = oracles.best_response_misses(p, x, y)
        assert abs(exponent_miss) <= 4 * math.ulp(e), (p, row, exponent_miss)
        assert abs(y_miss) <= 4 * e * math.ulp(p.t_aj + x / 2 + y), (p, row, y_miss)
    # stackelberg: off b_t(0) the leader sits on the larger zero of chi.
    if command == "stackelberg":
        x = float(row["x_se"])
        if x != best_response_target(p, 0.0):
            chi = oracles.exact_chi(p, x)
            assert abs(chi) <= 4 * math.ulp(p.t_aj + x / 2), (p, row, chi)


def _every_command_ends_in_a_documented_exit(tmp_path, box, rng, draws):
    # Any game from the box either gives finite output or is refused with a
    # documented exit code, no traceback, nothing on stdout and no --out file;
    # an equilibrium given meets its defining equations to a few ulp.  brX
    # sweeps y over 1e-2..1e2 t_aj and brY x over 2..2e4 delta; simulate runs
    # 40 cycles.
    cfg, trace = tmp_path / "wide.cfg", tmp_path / "trace.csv"
    for k in range(draws):
        p, (xi_min, xi_max), (a, b) = wide_params(rng, box)
        cfg.write_text(dump_config(dict(vars(p), xi_min=xi_min, xi_max=xi_max, total_cycles=40)))
        ranges = {"brX": (1e-2 * p.t_aj, 1e2 * p.t_aj), "brY": (2.0 * p.delta, 2e4 * p.delta)}
        for command in WIDE_COMMANDS + (MORE_WIDE_COMMANDS if k < 100 else []):
            argv = [command[0], str(cfg), *command[1:]]
            if command[0] == "sweep":
                lo, hi = ranges.get(command[2], (a, b))
                argv += ["--log-range", repr(lo), repr(hi), "5"]
            if command[0] == "simulate":
                argv += ["--out", str(trace)]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, out, err = run_sweep(argv)
            assert code in (0, 2, 3, 4), (argv, p, err)
            assert "Traceback" not in err, (argv, p)
            if code != 0:
                assert out == "" and not trace.exists(), (argv, p)
                continue
            _assert_finite_tables(out, argv, p)
            if command[0] == "simulate":
                body = "".join(ln for ln in trace.read_text().splitlines(True) if not ln.startswith("#"))
                _assert_finite_tables(body, argv, p)
                trace.unlink()
                continue
            header, rows = parse_csv(out.split("\n\n")[0])
            _assert_equilibrium_residuals(command[0], p, dict(zip(header, rows[0])))


def _assert_finite_tables(text, argv, p):
    # Every number of every table is finite, but the opponent estimates in row
    # 0 of simulate's strategy table, which are NaN before the first update.
    for block in text.split("\n\n"):  # nash --brd and simulate write a second table
        header, rows = parse_csv(block)
        for k, row in enumerate(rows):
            for name, v in zip(header, row):
                if v in ("true", "false", "interior", "border") or (k == 0 and "_est_by_" in name):
                    continue
                assert math.isfinite(float(v)), (argv, p, name, v)
                if name.startswith("e_xi"):
                    assert 0.0 < float(v) <= 1.0 + 1e-12, (argv, p, name, v)


# ---------------------------------------------------------------------------
# The process: `python -m jamgame` and the installed `jamgame` both run cli.run


def _buffered_env(**extra):
    """The environment with ``extra``, without PYTHONUNBUFFERED (so the child's stdout is
    block-buffered) and without a user's OPENBLAS_NUM_THREADS."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "OPENBLAS_NUM_THREADS")}
    return {**env, **extra}


@pytest.mark.parametrize("argv", [
    ["nash", "--brd"],
    ["stackelberg", "--approx"],
    ["sweep", "--figure", "payoffs", "--log-range", "1e5", "1e9", "2000"],
    ["sweep", "--figure", "efficiency", "--log-range", "1e5", "1e9", "300", "--out", "{out}"],
    ["simulate", "--seed", "7", "--out", "{out}"],
])
def test_the_process_writes_what_main_writes(cfg1, tmp_path, argv):
    # The process ends with os._exit after main: every byte main writes is out by then.
    def command(out):
        return [a.replace("{out}", str(tmp_path / out)) for a in (argv[0], cfg1, *argv[1:])]

    res = subprocess.run([sys.executable, "-m", "jamgame", *command("process.csv")],
                         capture_output=True, text=True, env=_buffered_env())
    code, out, err = run_sweep(command("main.csv"))
    assert (res.returncode, res.stdout, res.stderr) == (code, out, err) == (0, out, "")
    if "{out}" in argv:
        assert (tmp_path / "process.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["nash"],
    ["stackelberg"],
    ["sweep", "--figure", "brY", "--log-range", "1e-5", "1e-3", "2000"],  # fails before the last flush
    ["simulate", "--seed", "1", "--out", "{out}"],  # the trace goes to a file, the summary row to stdout
])
@pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
def test_a_failed_write_to_stdout_exits_4(cfg1, tmp_path, argv, sink):
    argv = [a.replace("{out}", str(tmp_path / "trace.csv")) for a in argv]
    command = [sys.executable, "-m", "jamgame", argv[0], cfg1, *argv[1:]]
    if sink == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            res = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, text=True, env=_buffered_env())
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = subprocess.run(command, stdout=write_end, stderr=subprocess.PIPE, text=True, env=_buffered_env())
        finally:
            os.close(write_end)
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error: ")
    assert "Exception ignored" not in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["nash", "--help"]], ids=["jamgame", "nash"])
def test_help_to_a_failing_stdout_exits_4(argv, unbuffered):
    # The help text is written as a command's table is, so main's flush
    # reports a failed write of it as an I/O error.
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env = _buffered_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    command = [sys.executable, "-m", "jamgame", *argv]
    with open("/dev/full", "w") as full:
        res = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith("error: ")
    assert "Exception ignored" not in res.stderr and "Traceback" not in res.stderr
    res = subprocess.run(command, capture_output=True, text=True, env=env)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.startswith("usage: jamgame")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
@pytest.mark.parametrize("user_value", [None, "2"])
def test_the_command_starts_numpy_with_one_blas_thread(cfg1, user_value):
    # A sweep loads numpy; main is wrapped to report the process's threads,
    # the BLAS setting and whether numpy is loaded once it returns.  A value
    # the user set is kept (its thread count depends on the host's cores).
    code = (
        "import os, sys, jamgame.cli as cli\n"
        "main = cli.main\n"
        "def reporting():\n"
        "    code = main()\n"
        "    threads = len(os.listdir('/proc/self/task'))\n"
        "    print(threads, os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules, file=sys.stderr)\n"
        "    return code\n"
        "cli.main = reporting\n"
        "cli.run()\n"
    )
    argv = ["sweep", cfg1, "--figure", "brY", "--log-range", "1e-5", "1e-3", "5"]
    env = _buffered_env(**({} if user_value is None else {"OPENBLAS_NUM_THREADS": user_value}))
    res = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    threads, blas_threads, numpy_loaded = res.stderr.split()
    assert (blas_threads, numpy_loaded) == (user_value or "1", "True")
    if user_value is None:
        assert threads == "1"


def test_the_installed_command_runs_what_python_m_runs():
    # pyproject's [project.scripts] target is the function __main__.py calls.
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    target = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]["jamgame"]
    tree = ast.parse((root / "src" / "jamgame" / "__main__.py").read_text(encoding="utf-8"))
    imported = {alias.name: f"jamgame.{node.module}" for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    called = [node.value.func.id for node in tree.body if isinstance(node, ast.Expr)]
    assert [f"{imported[name]}:{name}" for name in called] == [target] == ["jamgame.cli:run"]
