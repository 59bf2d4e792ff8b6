"""Tests for the real-branch Lambert W kernel."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jamgame import BRANCH_POINT, DomainError, SingularError, WBranch, lambert_w, lambert_w_prime
from oracles import central_diff, decimal_newton_w, newton_w_minus1, newton_w_principal

# Frozen from the independent Newton oracle (tests/oracles.py), run to 1e-15.
W_OF_1 = 0.5671432904097838
W_PRIME_OF_1 = 0.36189625663488917
W_MINUS1_OF_MINUS02 = -2.5426413577735265


@pytest.mark.parametrize(
    "z,branch,expected",
    [
        (0.0, WBranch.PRINCIPAL, 0.0),
        (math.e, WBranch.PRINCIPAL, 1.0),
        (-math.exp(-1), WBranch.MINUS1, -1.0),
        (-math.exp(-1), WBranch.PRINCIPAL, -1.0),
    ],
)
def test_exact_points(z, branch, expected):
    assert lambert_w(z, branch) == pytest.approx(expected, abs=2e-10)


def test_against_newton_oracle():
    assert lambert_w(1.0) == pytest.approx(W_OF_1, rel=1e-14)
    assert lambert_w(-0.2, WBranch.MINUS1) == pytest.approx(W_MINUS1_OF_MINUS02, rel=1e-14)
    for z in [1e-6, 0.3, 2.0, 17.0, 1e4, 1e12]:
        assert lambert_w(z) == pytest.approx(newton_w_principal(z), rel=1e-13)
    for z in [-0.36, -0.3, -0.2, -0.05, -1e-4]:
        assert lambert_w(z, WBranch.MINUS1) == pytest.approx(newton_w_minus1(z), rel=1e-13)


def test_defining_identity_random_points(rng):
    z = BRANCH_POINT + rng.random(10**4) * 1e6
    w = lambert_w(z)
    assert np.all(np.abs(w * np.exp(w) - z) <= 1e-12 * np.maximum(1.0, np.abs(z)))

    z = BRANCH_POINT * rng.random(10**4)
    z = z[z < 0]
    w = lambert_w(z, WBranch.MINUS1)
    assert np.all(np.abs(w * np.exp(w) - z) <= 1e-12 * np.maximum(1.0, np.abs(z)))
    assert np.all(w <= -1.0 + 1e-12)


@given(st.floats(min_value=BRANCH_POINT + 1e-12, max_value=1e15))
@settings(max_examples=300, deadline=None)
def test_identity_property_principal(z):
    w = lambert_w(z)
    assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))
    assert w >= -1.0


@given(st.floats(min_value=BRANCH_POINT + 1e-12, max_value=-1e-12))
@settings(max_examples=300, deadline=None)
def test_identity_property_minus1(z):
    w = lambert_w(z, WBranch.MINUS1)
    assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))
    assert w <= -1.0 + 1e-12


@given(st.floats(min_value=-0.3, max_value=1.7976931348623157e308))
@example(-0.2)
@example(0.0)
@example(math.e)
@example(1e300)
@settings(max_examples=300, deadline=None)
def test_whole_range_principal_against_decimal_newton(z):
    """Accurate over the whole double range, including near-overflow and subnormal z."""
    want = decimal_newton_w(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scalar, array = lambert_w(z), lambert_w(np.array([z]))[0]
    for w in (scalar, array):
        assert math.isclose(w, want, rel_tol=1e-14), (z, w, want)


@given(st.floats(min_value=-0.3, max_value=-5e-324))
@example(-0.25)
@example(-1e-300)
@example(-5e-324)
@settings(max_examples=300, deadline=None)
def test_whole_range_minus1_against_decimal_newton(z):
    want = decimal_newton_w(z, branch_minus1=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scalar, array = lambert_w(z, WBranch.MINUS1), lambert_w(np.array([z]), WBranch.MINUS1)[0]
    for w in (scalar, array):
        assert math.isclose(w, want, rel_tol=1e-14), (z, w, want)


def test_near_overflow_and_subnormal_points():
    assert lambert_w(1e308) == pytest.approx(newton_w_principal(1e308), rel=1e-15)
    assert lambert_w(-5e-324, WBranch.MINUS1) == pytest.approx(
        decimal_newton_w(-5e-324, branch_minus1=True), rel=1e-15
    )


def test_monotonicity():
    z = np.linspace(BRANCH_POINT + 1e-9, 50.0, 4000)
    w = lambert_w(z)
    assert np.all(np.diff(w) > 0)

    z = np.linspace(BRANCH_POINT + 1e-9, -1e-6, 4000)
    w = lambert_w(z, WBranch.MINUS1)
    assert np.all(np.diff(w) < 0)


@pytest.mark.parametrize(
    "z,branch",
    [(-0.4, WBranch.PRINCIPAL), (-0.4, WBranch.MINUS1), (0.0, WBranch.MINUS1), (0.5, WBranch.MINUS1)],
)
def test_domain_errors(z, branch):
    with pytest.raises(DomainError):
        lambert_w(z, branch)


def test_prime_exact_and_oracle_values():
    assert lambert_w_prime(math.e) == pytest.approx(1.0 / (2.0 * math.e), rel=1e-14)
    assert lambert_w_prime(1.0) == pytest.approx(W_PRIME_OF_1, rel=1e-13)


def test_prime_matches_finite_difference():
    for z in np.logspace(-3, 6, 19):
        h = 1e-6 * max(abs(z), 1e-2)
        fd = central_diff(lambda t: lambert_w(t), z, h)
        assert lambert_w_prime(z) == pytest.approx(fd, rel=1e-6)
    # lower branch, away from both the branch point and 0
    for z in [-0.3, -0.2, -0.1, -0.02]:
        fd = central_diff(lambda t: lambert_w(t, WBranch.MINUS1), z, 1e-8)
        assert lambert_w_prime(z, WBranch.MINUS1) == pytest.approx(fd, rel=1e-6)


def test_prime_errors():
    with pytest.raises(DomainError):
        lambert_w_prime(0.0)
    with pytest.raises(SingularError):
        lambert_w_prime(-math.exp(-1), WBranch.MINUS1)


def test_array_roundtrip_shapes():
    z = np.array([[0.5, 1.0], [2.0, 3.0]])
    w = lambert_w(z)
    assert w.shape == z.shape
    assert isinstance(lambert_w(0.5), float)
