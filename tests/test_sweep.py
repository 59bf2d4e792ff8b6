"""The `sweep` command: whole-column results against the scalar library, and fuzzed input."""

import contextlib
import io
import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamgame import (
    UniformPrior,
    best_response_jammer,
    best_response_target,
    efficiency,
    improvement_report,
    leader_utility,
    nash_closed_form,
    stackelberg_approx,
    stackelberg_exact,
    thresholds,
    utilities_xy,
    xi_opt,
)
from jamgame.cli import FIGURE_COLUMNS, MAX_SWEEP_POINTS, main
from .test_stackelberg import X_HAT_BELOW_TWO_DELTA

C_T_FIGURES = ["neX", "neY", "seX", "seY", "payoffs", "approx", "efficiency", "comparison"]


def scalar_row(figure, p, prior):
    """One sweep row from scalar library calls: the per-point reference."""
    if figure in ("neX", "neY", "seX", "seY"):
        ne = nash_closed_form(p).profile
        se = stackelberg_exact(p).profile
        return {"neX": (ne.x,), "neY": (ne.y,), "seX": (ne.x, se.x), "seY": (ne.y, se.y)}[figure]
    if figure == "payoffs":
        rep = improvement_report(p)
        return (rep.u_t_ne, rep.u_j_ne, rep.u_t_se, rep.u_j_se, rep.improved)
    if figure == "approx":
        se = stackelberg_exact(p)
        x_ap = stackelberg_approx(p).profile.x
        u_se, u_ap = se.utilities.u_t, leader_utility(p, x_ap)
        return (se.profile.x, x_ap, u_se, u_ap, u_ap / u_se)
    if figure == "efficiency":
        opt = xi_opt(p, prior)
        assumed = (opt, 0.5 * (prior.xi_min + prior.xi_max), prior.xi_max, prior.xi_min)
        return (opt, *(efficiency(p, xi) for xi in assumed))
    rep = improvement_report(p)
    x_naive = float(best_response_target(p, 0.0))
    y_naive = float(best_response_jammer(p, x_naive))
    u_a = utilities_xy(p, x_naive, y_naive)
    u_b = utilities_xy(p, float(best_response_target(p, y_naive)), y_naive)
    return (rep.u_t_ne, rep.u_j_ne, rep.u_t_se, rep.u_j_se, *u_a, *u_b)


def config_text(p):
    keys = ("t_aj", "delta", "p_t", "p_j", "t_p", "c_t", "c_t_star")
    return "".join(f"{k} = {getattr(p, k)!r}\n" for k in keys) + "xi_min = 1e5\nxi_max = 1e9\n"


def run_sweep(argv):
    """cli.main in-process: (exit code, stdout, stderr); argparse errors give their exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def same(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= 1e-14 * max(abs(a), abs(b))


@pytest.mark.parametrize("scenario", ["table1", "table2"])
@pytest.mark.parametrize("figure", C_T_FIGURES)
def test_columns_match_scalar_calls(request, tmp_path, scenario, figure):
    p = request.getfixturevalue(scenario)
    th = thresholds(p)
    lo, hi = 1e5, 1e11
    assert lo < th.c_t_tilde < th.c_t_max < hi  # the range crosses both thresholds
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config_text(p))
    code, out, err = run_sweep(["sweep", str(cfg), "--figure", figure, "--log-range", "1e5", "1e11", "31"])
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0].split(",") == FIGURE_COLUMNS[figure]
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 31
    prior = UniformPrior(1e5, 1e9)
    for row in rows:
        want = scalar_row(figure, replace(p, c_t=float(row[0])), prior)
        for name, text, w in zip(FIGURE_COLUMNS[figure][1:], row[1:], want):
            if isinstance(w, bool):
                assert text == ("true" if w else "false"), (name, row[0])
            elif name == "y_se":
                assert text == repr(w) == "0.0"
            else:
                assert same(float(text), w), (name, row[0], text, w)


@pytest.mark.parametrize("scenario", ["table1", "table2"])
def test_u_t_se_is_one_column_in_every_figure(request, tmp_path, scenario):
    # Each figure prices the committed outcome at (x_se, 0), so the three agree bit for bit.
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config_text(request.getfixturevalue(scenario)))
    u_t_se = []
    for figure in ("payoffs", "approx", "comparison"):
        code, out, err = run_sweep(["sweep", str(cfg), "--figure", figure, "--log-range", "1e5", "1e11", "200"])
        assert code == 0, err
        header, *rows = [line.split(",") for line in out.splitlines()]
        k = header.index("u_t_se")
        u_t_se.append([row[k] for row in rows])
    assert u_t_se[0] == u_t_se[1] == u_t_se[2]


def test_undefined_approx_point_exits_3_without_rows(tmp_path, table1):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config_text(table1))
    # The approximation is undefined for c_t above ~5.3e11 in this scenario.
    code, out, err = run_sweep(["sweep", str(cfg), "--figure", "approx", "--log-range", "1e9", "1e12", "5"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: approximation")


def _small_count(text: str) -> bool:
    """Keep in-range fuzzed point counts small: N up to the limit is a memory test, not a parse test."""
    try:
        return not 1000 < abs(float(text)) <= MAX_SWEEP_POINTS
    except ValueError:
        return True


_token = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1e5", "1e9", "5e-324", "0", "-1", "inf", "nan", "2", "2.5", "1e400"]),
    st.text(max_size=6),
)
_positive = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
_log_range = st.one_of(
    st.tuples(_positive, _positive, st.integers(2, 40)).map(
        lambda t: (repr(min(t[:2])), repr(max(t[:2])), str(t[2]))
    ),
    st.tuples(st.sampled_from([1e3, 1e5, 1e7]), st.sampled_from([1e9, 1e10, 1e12]), st.integers(2, 40)).map(
        lambda t: (repr(t[0]), repr(t[1]), str(t[2]))
    ),
    st.tuples(_token, _token, _token.filter(_small_count)),
    st.tuples(st.just("1e5"), st.just("1e9"), st.integers(MAX_SWEEP_POINTS + 1, 10**30).map(str)),
)


@pytest.fixture(scope="module")
def lab_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "lab.cfg"
    path.write_text(
        "t_aj = 15e-6\ndelta = 1e-6\np_t = 2\np_j = 2\nt_p = 50e-6\nc_t = 1e6\n"
    )
    return str(path)


@given(
    figure=st.one_of(st.sampled_from(sorted(FIGURE_COLUMNS)), st.text(max_size=6)),
    log_range=_log_range,
)
@settings(max_examples=300, deadline=None)
def test_fuzzed_sweep_arguments_end_in_a_documented_exit(lab_config, figure, log_range):
    argv = ["sweep", lab_config, "--figure", figure, "--log-range", *log_range]
    a, b, n = log_range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a NaN or overflow warning fails
        code, out, err = run_sweep(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
    else:
        assert math.isfinite(float(a)) and math.isfinite(float(b))
        assert float(n) == int(float(n)) and len(out.splitlines()) == 1 + int(float(n))
        for line in out.splitlines()[1:]:
            for value in line.split(","):
                assert value in ("true", "false") or math.isfinite(float(value)), line


def test_efficiency_sweep_past_x_hat_below_two_delta(tmp_path, table1):
    # x_hat < 2 delta from c_t ~ 2.6e11 on: g is b_t(0) there, and no width is needed.
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config_text(table1))
    code, out, err = run_sweep(["sweep", str(cfg), "--figure", "efficiency", "--log-range", "1e9", "1e12", "5"])
    assert code == 0, err
    assert len(out.splitlines()) == 1 + 5


@pytest.mark.parametrize("figure", ["seX", "payoffs", "approx"])
def test_jammed_weight_with_x_hat_below_two_delta(tmp_path, figure):
    # The last weight is the reproducer in test_stackelberg: b_t(0) jammed,
    # x_hat < 2*delta.  Both commands used to exit 3 on it.
    p = X_HAT_BELOW_TWO_DELTA
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config_text(p))
    code, out, err = run_sweep(["stackelberg", str(cfg), "--approx"])
    assert code == 0, err
    assert same(float(out.splitlines()[1].split(",")[0]), stackelberg_exact(p).profile.x)
    code, out, err = run_sweep(["sweep", str(cfg), "--figure", figure, "--log-range", "1e-9", repr(p.c_t), "3"])
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert float(rows[-1][0]) == p.c_t
    assert all(math.isfinite(float(v)) for row in rows for v in row if v not in ("true", "false"))


def test_best_response_sweep_where_x_over_delta_overflows(tmp_path, table1):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config_text(table1))
    code, out, err = run_sweep(["sweep", str(cfg), "--figure", "brY", "--log-range", "1e300", "1.7e308", "3"])
    assert code == 0, err
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["0.0"] * 3
