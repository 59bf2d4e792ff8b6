"""End-to-end tests of the command-line interface and its file formats."""

import hashlib
import subprocess
import sys

import numpy as np
import pytest

from jamgame import nash_closed_form, thresholds
from jamgame.cli import FIGURE_COLUMNS
from jamgame.config import dump_config, game_params_from_config, parse_config_text

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
    assert res.returncode == 2
    assert "delta" in res.stderr


def test_nash_invariant_violation_exit_3(tmp_path):
    path = tmp_path / "neg.cfg"
    path.write_text(TABLE1_CFG.replace("delta = 1e-6", "delta = -1e-6"))
    res = run_cli("nash", str(path))
    assert res.returncode == 3
    assert "delta" in res.stderr


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
    assert header == FIGURE_COLUMNS["seX"] and len(rows) == 8
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


@pytest.mark.parametrize(
    "bound",
    ["xi_max = 1e300", "xi_min = 1e-300", "xi_min = 1e-305\nxi_max = 1e-5", "xi_min = 1e-320\nxi_max = 2e-320"],
)
def test_sweep_efficiency_prior_out_of_range_exit_3(tmp_path, bound):
    # xi_max**2 or xi_max / xi_min overflows: the prior is refused, not solved.
    # A weight so small that x_hat's W argument overflows is refused by name.
    path = tmp_path / "scenario.cfg"
    path.write_text(TABLE1_CFG + bound + "\n")
    res = run_cli("sweep", str(path), "--figure", "efficiency", "--log-range", "1e6", "1e8", "3")
    assert res.returncode == 3
    assert res.stdout == ""
    assert "Traceback" not in res.stderr and len(res.stderr.splitlines()) == 1
    assert "xi" in res.stderr


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
    monkeypatch.setattr(cli, "_EVENT_CHUNK", 7)
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
    res = run_cli("simulate", cfg2, "--seed", "1", "--out", "/nonexistent-dir/x.csv")
    assert res.returncode == 4


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
    # interpreter: none of them loads numpy or the numpy-backed layers.
    unloaded = ("scipy", "concurrent.futures", "numpy", "jamgame.columns", "jamgame.sim", "jamgame.belief")
    inputs = [None, ["nash"], ["nash", "--brd"], ["stackelberg"], ["stackelberg", "--approx"]]
    for argv in inputs:
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
