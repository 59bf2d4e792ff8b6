"""Each kernel agrees with itself on floats and on arrays, elementwise, and refuses alike.

Floats run it on math and arrays on numpy, whose log, log2 and exp may
differ from libm's in the last bit.  So each pair is compared in ulps of the
scale of its computation: the sum of the magnitudes of the terms it adds,
times a condition number where one is large.  For W that sum is the one of
Fritsch's residual ln|z| - ln|W| - W, whose rounding a step carries into W
times |W|/|1 + W|.  Where the result is exp of a W value, the condition
number is the exponent (exp turns an ulp of its argument into |argument| ulps
of its result).
"""

import math
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jamgame import (
    ApproxUndefined,
    DomainError,
    GameParams,
    InvalidStrategy,
    JamGameError,
    Regime,
    SingularError,
    WBranch,
    best_response_jammer,
    best_response_target,
    capacity_xy,
    chi,
    improvement_report,
    lambert_w,
    lambert_w_prime,
    leader_utility,
    nash_closed_form,
    nash_xy,
    psi,
    stackelberg_approx,
    stackelberg_approx_x,
    stackelberg_exact,
    stackelberg_x,
    thresholds,
    utilities_xy,
)
from jamgame import nash as nash_module
from jamgame import stackelberg as stackelberg_module
from jamgame.belief import g_of_xi
from jamgame.figures import log_grid
from jamgame.roots import larger_zero
from .conftest import FULL_RANGE, WIDE_BOX, random_params, wide_params
from .oracles import decimal_newton_w

ULPS = 4
N = 32


def w_scale(z, w):
    terms = np.abs(np.log(np.abs(z))) + np.abs(np.log(np.abs(w))) + np.abs(w)
    return terms * np.abs(w) / np.abs(1.0 + w)


def w_principal(p, c, x, y, rng):
    z = np.concatenate([-math.exp(-1.0) + 10.0 ** rng.uniform(-12.0, 0.0, N // 2),
                        10.0 ** rng.uniform(-300.0, 300.0, N // 2)])
    w = lambert_w(z)
    return [lambert_w(v) for v in z.tolist()], w, w_scale(z, w)


def w_minus1(p, c, x, y, rng):
    z = -(10.0 ** rng.uniform(-300.0, math.log10(0.36), N))
    w = lambert_w(z, WBranch.MINUS1)
    return [lambert_w(v, WBranch.MINUS1) for v in z.tolist()], w, w_scale(z, w)


def psi_pair(p, c, x, y, rng):
    a = psi(p, y)
    return [psi(p, v) for v in y.tolist()], a, a


def chi_pair(p, c, x, y, rng):
    a = chi(p, x, c)
    scalar = [chi(replace(p, c_t=ck), v) for ck, v in zip(c.tolist(), x.tolist())]
    return scalar, a, np.abs(a) + 2.0 * (p.t_aj + x / 2.0)


def b_t_pair(p, c, x, y, rng):
    a = best_response_target(p, y)
    return [best_response_target(p, v) for v in y.tolist()], a, a * (psi(p, y) + 1.0)


def b_j_pair(p, c, x, y, rng):
    a = best_response_jammer(p, x, c)
    scalar = [best_response_jammer(replace(p, c_t=ck), v) for ck, v in zip(c.tolist(), x.tolist())]
    return scalar, a, np.abs(chi(p, x, c)) + 2.0 * (p.t_aj + x / 2.0)


def capacity_pair(p, c, x, y, rng):
    a = capacity_xy(p, x, y)
    return [capacity_xy(p, u, v) for u, v in zip(x.tolist(), y.tolist())], a, a


def utilities_pair(p, c, x, y, rng):
    u_t, u_j = utilities_xy(p, x, y, c)
    scalar = [utilities_xy(replace(p, c_t=ck), u, v) for ck, u, v in zip(c.tolist(), x.tolist(), y.tolist())]
    cap = capacity_xy(p, x, y)
    scale = np.concatenate([cap + p.c_t_star * p.t_p * p.p_t, cap + c * y * p.p_j])
    return [u for u, _ in scalar] + [u for _, u in scalar], np.concatenate([u_t, u_j]), scale


def leader_utility_pair(p, c, x, y, rng):
    a = leader_utility(p, x, c)
    scalar = [leader_utility(replace(p, c_t=ck), v) for ck, v in zip(c.tolist(), x.tolist())]
    return scalar, a, np.abs(a) + 2.0 * p.c_t_star * p.t_p * p.p_t


def stackelberg_x_pair(p, c, x, y, rng):
    # Each x stops where a Newton step on chi no longer lowers it, so the
    # last step's logs set its last bits.
    a = stackelberg_x(p, c)
    scalar = [stackelberg_exact(replace(p, c_t=ck)).profile.x for ck in c.tolist()]
    return scalar, a, a * np.maximum(1.0, np.log(a / p.delta))


def g_pair(p, c, x, y, rng):
    # xi across 1e5-1e11 crosses c_t_max and the weight where x_hat < 2 delta.
    # g is stackelberg_x_pair's x with the weight xi, so it has the same scale.
    xi = 10.0 ** rng.uniform(5.0, 11.0, N)
    a = g_of_xi(p, xi)
    return [g_of_xi(p, v) for v in xi.tolist()], a, a * np.maximum(1.0, np.log(a / p.delta))


PAIRS = [w_principal, w_minus1, psi_pair, chi_pair, b_t_pair, b_j_pair, capacity_pair,
         utilities_pair, leader_utility_pair, stackelberg_x_pair, g_pair]


@pytest.mark.parametrize("pair", PAIRS, ids=lambda f: f.__name__)
@given(seed=st.integers(0, 2**63 - 1))
@example(seed=69)  # w_principal: 5 ulp of |W| apart at z = 0.0031455148755625633
@example(seed=1287)  # w_principal: 6 ulp of |W| apart at z = -0.005967654590002258
@settings(max_examples=60, deadline=None)
def test_scalar_and_array_kernels_agree(pair, seed):
    rng = np.random.default_rng(seed)
    p = random_params(rng)
    c = thresholds(p).c_t_tilde * 10.0 ** rng.uniform(-3.0, 1.2, N)  # random_params' weight range
    x = 2.0 * p.delta * 10.0 ** rng.uniform(0.0, 3.7, N)
    y = p.t_aj * rng.uniform(0.0, 50.0, N)
    scalar, array, scale = pair(p, c, x, y, rng)
    scalar = np.array(scalar)
    bad = np.abs(scalar - array) > ULPS * np.spacing(np.abs(scale))
    assert not bad.any(), (pair.__name__, scalar[bad], array[bad])


@pytest.mark.parametrize("z", [0.0031455148755625633, -0.005967654590002258])
def test_w_forms_apart_more_than_ulps_both_meet_the_oracle(z):
    # The two z where w_principal's forms differ by 5 and 6 ulp of |W|: each
    # form is still within ULPS of the Decimal oracle there.
    want = decimal_newton_w(z)
    for got in (lambert_w(z), float(lambert_w(np.array([z]))[0])):
        assert abs(got - want) <= ULPS * math.ulp(want)


@pytest.mark.parametrize("a, b", [(1e5, 1e9), (1.5e-7, 1.5e-3)])
def test_log_grid_is_the_python_power_of_each_point(a, b):
    # numpy's vectorised power differs from a * ratio**k in the last bit at
    # about 1100 of these 24 000 points; the sweep CSVs print the Python one.
    n = 24_000
    ratio = (b / a) ** (1.0 / (n - 1))
    want = [a * ratio**k for k in range(n - 1)] + [b]
    assert log_grid(a, b, n).tolist() == want


def _answer(solve):
    """solve()'s values as one float array, or None where it is refused."""
    try:
        with np.errstate(over="ignore", divide="ignore"):  # as figures.write_sweep runs the array forms
            return np.array(solve(), dtype=float).ravel()
    except JamGameError:
        return None


def _solvers(p, x, y):
    """Each solver kernel at p's own weight as a float, with its array forms at the one-element column of it."""
    c, w = p.c_t, np.array([p.c_t])

    def nash(c_t):
        x, y = nash_xy(p, c_t)
        return [x, y, *utilities_xy(p, x, y, c_t)]

    return [
        (lambda: nash(c), [lambda: nash(w)]),
        (lambda: stackelberg_x(p, c), [lambda: stackelberg_x(p, w), lambda: g_of_xi(p, w)]),
        (lambda: stackelberg_approx_x(p, c), [lambda: stackelberg_approx_x(p, w)]),
        (lambda: improvement_report(p, c), [lambda: improvement_report(p, w)]),
        (lambda: best_response_target(p, y), [lambda: best_response_target(p, np.asarray(y))]),
        (lambda: best_response_jammer(p, x), [lambda: best_response_jammer(p, x, w)]),
    ]


@pytest.mark.parametrize("box", [WIDE_BOX, FULL_RANGE], ids=["wide_box", "full_range"])
def test_solvers_and_their_array_forms_refuse_the_same_games(box):
    # Over the whole double range each array form answers where its scalar
    # solver answers, to 1e-13 relative, and is refused where it is refused.
    rng = np.random.default_rng(1)
    answered = 0
    for _ in range(300):
        p, _, _ = wide_params(rng, box)
        x = min(p.delta * 10.0 ** rng.uniform(0.31, 3.0), sys.float_info.max)
        y = p.t_aj * rng.uniform(0.0, 50.0)
        for scalar, arrays in _solvers(p, x, y):
            want = _answer(scalar)
            for array in arrays:
                got = _answer(array)
                assert (want is None) == (got is None), (p, scalar, want, got)
                if want is not None:
                    assert np.allclose(got, want, rtol=1e-13, atol=0.0), (p, want, got)
                    answered += 1
    assert answered >= 600


def test_approx_sweep_refuses_an_x_below_2_delta_as_the_scalar_does():
    # Near the branch point the approximation's x falls below 2*delta: the
    # scalar form refuses it, and so does the array form, naming the weight.
    p = GameParams(t_aj=4.09e-11, delta=1.16e-4, p_t=1.0, p_j=3.70, t_p=1e-3, c_t=2.11e7)
    with pytest.raises(InvalidStrategy, match=r"x must be >= 2\*delta") as scalar:
        stackelberg_approx(p)
    assert str(scalar.value).endswith("from c_t = 2.11e+07")
    for c_t in (np.array([1e6, p.c_t]), p.c_t):  # a column, and one float weight
        with pytest.raises(InvalidStrategy, match=r"x must be >= 2\*delta") as array:
            stackelberg_approx_x(p, c_t)
        assert str(array.value) == str(scalar.value)
    with pytest.raises(ApproxUndefined, match="undefined from c_t = 3e"):
        stackelberg_approx_x(p, 3e7)
    assert stackelberg_approx_x(p, np.array([1e6]))[0] > p.x_min


def _refusal(call):
    """The class and message of the error call() raises, numpy's warnings raised as errors too."""
    with pytest.raises(JamGameError) as exc, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        call()
    return type(exc.value), str(exc.value)


def _non_finite(v):
    # Capacity and the utilities refuse an x or y that is not finite, chi and
    # the leader's utility such an x.
    return {
        f"capacity x = {v}": (InvalidStrategy, lambda p: capacity_xy(p, v, 0.0),
                              lambda p: capacity_xy(p, np.array([1e-5, v]), 0.0)),
        f"capacity y = {v}": (InvalidStrategy, lambda p: capacity_xy(p, 3e-6, v),
                              lambda p: capacity_xy(p, 3e-6, np.array([0.0, v]))),
        f"utilities x = {v}": (InvalidStrategy, lambda p: utilities_xy(p, v, 0.0),
                               lambda p: utilities_xy(p, np.array([1e-5, v]), 0.0, p.c_t)),
        f"utilities y = {v}": (InvalidStrategy, lambda p: utilities_xy(p, 3e-6, v),
                               lambda p: utilities_xy(p, 3e-6, np.array([0.0, v]), p.c_t)),
        f"chi x = {v}": (DomainError, lambda p: chi(p, v), lambda p: chi(p, np.array([1e-5, v]), p.c_t)),
        f"leader_utility x = {v}": (DomainError, lambda p: leader_utility(p, v),
                                    lambda p: leader_utility(p, np.array([1e-5, v]), p.c_t)),
    }


_BELOW = -math.exp(-1.0) - 1e-9  # below the real domain of W
# Each scalar kernel refused, with its array form refused on a column holding
# the same refused value after an admissible one.  Lab scenario: delta = 1e-6.
REFUSALS = {
    "psi y < 0": (DomainError, lambda p: psi(p, -1e-6), lambda p: psi(p, np.array([0.0, -1e-6]))),
    "chi x < delta": (DomainError, lambda p: chi(p, 5e-7),
                      lambda p: chi(p, np.array([1e-5, 5e-7]), p.c_t)),
    "b_t y < 0": (DomainError, lambda p: best_response_target(p, -1e-6),
                  lambda p: best_response_target(p, np.array([0.0, -1e-6]))),
    "b_j x < 2 delta": (DomainError, lambda p: best_response_jammer(p, 1.5e-6),
                        lambda p: best_response_jammer(p, np.array([1e-5, 1.5e-6]), p.c_t)),
    "leader_utility x < 2 delta": (DomainError, lambda p: leader_utility(p, 1.5e-6),
                                   lambda p: leader_utility(p, np.array([1e-5, 1.5e-6]), p.c_t)),
    "capacity x < 2 delta": (InvalidStrategy, lambda p: capacity_xy(p, 1.5e-6, 0.0),
                             lambda p: capacity_xy(p, np.array([1e-5, 1.5e-6]), 0.0)),
    "capacity y < 0": (InvalidStrategy, lambda p: capacity_xy(p, 1e-5, -1e-6),
                       lambda p: capacity_xy(p, 1e-5, np.array([0.0, -1e-6]))),
    "utilities x < 2 delta": (InvalidStrategy, lambda p: utilities_xy(p, 1.5e-6, 0.0),
                              lambda p: utilities_xy(p, np.array([1e-5, 1.5e-6]), 0.0, p.c_t)),
    "utilities y < 0": (InvalidStrategy, lambda p: utilities_xy(p, 1e-5, -1e-6),
                        lambda p: utilities_xy(p, 1e-5, np.array([0.0, -1e-6]), p.c_t)),
    "eta underflows": (DomainError, lambda p: replace(p, c_t=1e-320).eta,
                       lambda p: chi(p, 1e-5, np.array([1.0, 1e-320]))),
    "W non-finite": (DomainError, lambda p: lambert_w(math.inf),
                     lambda p: lambert_w(np.array([1.0, math.inf]))),
    "W below -1/e": (DomainError, lambda p: lambert_w(_BELOW), lambda p: lambert_w(np.array([1.0, _BELOW]))),
    "W_-1 z >= 0": (DomainError, lambda p: lambert_w(0.0, WBranch.MINUS1),
                    lambda p: lambert_w(np.array([-0.1, 0.0]), WBranch.MINUS1)),
    "W unknown branch": (DomainError, lambda p: lambert_w(0.5, "minus1"),
                         lambda p: lambert_w(np.array([0.5]), "minus1")),
    "W' z = 0": (DomainError, lambda p: lambert_w_prime(0.0),
                 lambda p: lambert_w_prime(np.array([1.0, 0.0]))),
    "W' z = -1/e": (SingularError, lambda p: lambert_w_prime(-math.exp(-1.0)),
                    lambda p: lambert_w_prime(np.array([1.0, -math.exp(-1.0)]))),
    "nash 8/(eta*delta^2) overflows": (DomainError, lambda p: nash_closed_form(replace(p, c_t=1e-300)),
                                       lambda p: nash_xy(p, np.array([1e6, 1e-300]))),
    "utilities u_j overflows": (DomainError, lambda p: utilities_xy(p, 3e-6, 1e303),
                                lambda p: utilities_xy(p, 3e-6, np.array([0.0, 1e303]), p.c_t)),
    # ln(x/delta)/eta overflows at the Newton start.
    "larger zero: weight too small": (DomainError, lambda p: larger_zero(replace(p, c_t=2e-308), 3e-6),
                                      lambda p: larger_zero(p, 3e-6, np.array([1e6, 2e-308]))),
    **_non_finite(math.inf),
    **_non_finite(math.nan),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_kernel_and_its_array_form_refuse_alike(table1, case):
    error, scalar, array = REFUSALS[case]
    refusal = _refusal(lambda: scalar(table1))
    assert refusal[0] is error
    assert _refusal(lambda: array(table1)) == refusal


_LAB = GameParams(t_aj=15e-6, delta=1e-6, p_t=2.0, p_j=2.0, t_p=50e-6, c_t=1e6)
# Each kernel's arguments on floats, the lab game first where it takes one;
# an int among them counts as a float.  chi > 0 at x = 3e-5, so larger_zero
# may start there.
KERNEL_ARGS = {
    lambert_w: (0.5,),
    lambert_w_prime: (1,),
    capacity_xy: (_LAB, 3e-5, 0),
    utilities_xy: (_LAB, 3e-5, 1e-5, 10**6),
    psi: (_LAB, 0),
    chi: (_LAB, 3e-5, 10**6),
    best_response_target: (_LAB, 1e-5),
    best_response_jammer: (_LAB, 3e-5, 10**6),
    leader_utility: (_LAB, 3e-5, 10**6),
    larger_zero: (_LAB, 3e-5, 10**6),
    nash_xy: (_LAB, 10**6),
    stackelberg_x: (_LAB, 10**6),
    stackelberg_approx_x: (_LAB, 10**6),
    improvement_report: (_LAB, 10**6),
}
# The kernels that price the jammer, and the index of the weight c_t among their arguments.
WEIGHT_AT = {utilities_xy: 3, chi: 2, best_response_jammer: 2, leader_utility: 2, larger_zero: 2,
             nash_xy: 1, stackelberg_x: 1, stackelberg_approx_x: 1, improvement_report: 1}


def _outputs(kernel, *args):
    """kernel(*args) as a list: each field of a tuple result, or the one result."""
    out = kernel(*args)
    return list(out) if isinstance(out, tuple) else [out]


@pytest.mark.parametrize("kernel", KERNEL_ARGS, ids=lambda f: f.__name__)
def test_a_kernel_gives_floats_for_floats_and_arrays_for_arrays(kernel):
    # Floats and ints give floats (improvement_report's ``improved`` a bool);
    # 2-d arrays give arrays of their shape; a float x with a column of
    # weights gives a column, but for utilities_xy's u_t, which does not
    # depend on the weights and keeps the shape of x and y.
    args = KERNEL_ARGS[kernel]
    assert all(type(v) in (float, bool) for v in _outputs(kernel, *args))
    grid = [a if isinstance(a, GameParams) else np.full((2, 3), float(a)) for a in args]
    assert all(v.shape == (2, 3) for v in _outputs(kernel, *grid))
    if kernel in WEIGHT_AT:
        weights = list(args)
        weights[WEIGHT_AT[kernel]] = np.array([1e6, 2e6])
        shapes = [np.shape(v) for v in _outputs(kernel, *weights)]
        assert shapes == ([(), (2,)] if kernel is utilities_xy else [(2,)] * len(shapes))


def test_every_kernel_on_floats_leaves_numpy_unloaded():
    imports = "; ".join(f"from {f.__module__} import {f.__name__}" for f in KERNEL_ARGS)
    calls = "; ".join(f"{f.__name__}({', '.join(map(repr, args))})" for f, args in KERNEL_ARGS.items())
    code = f"import sys; from jamgame import GameParams; {imports}; {calls}; print('numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (res.returncode, res.stdout.strip()) == (0, "False"), res.stderr


def test_a_float_weight_that_needs_neither_runs_no_w_for_nash_and_no_newton(table1, monkeypatch):
    # Past c_t_tilde and c_t_max the Nash point is b_t(0) and the leader is
    # unjammed there: 8/(eta*delta^2) goes into no W and no weight into Newton.
    def called(*args):
        raise AssertionError("called")

    p = replace(table1, c_t=1e11)
    monkeypatch.setattr(nash_module, "lambert_w", called)
    monkeypatch.setattr(stackelberg_module, "larger_zero", called)
    assert nash_closed_form(p).regime is Regime.BORDER_NE
    assert stackelberg_exact(p).profile.x == best_response_target(p, 0.0)
    assert improvement_report(p).improved is False
