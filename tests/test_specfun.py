"""Special-function tests against independent oracles.

Oracles used here, all independent of the implementation under test:
stdlib math.erf, mpmath's arbitrary-precision erfc and besseli (I0 and
I1), a direct Maclaurin summation with 1e-17 cutoff, and the two-term
large-x asymptotic of the scaled Bessel function.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermo_transfer import specfun
from thermo_transfer.errors import DomainError

mpmath.mp.dps = 30


# --- oracles (frozen) ------------------------------------------------------

def erf_maclaurin_oracle(x):
    # straight Maclaurin sum, term cutoff 1e-17
    s = 0.0
    u = x
    n = 0
    while abs(u / (2 * n + 1)) > 1e-17:
        s += u / (2 * n + 1)
        n += 1
        u *= -x * x / n
    return 2.0 / math.sqrt(math.pi) * s


def i0_power_series_oracle(x):
    # I0(x) = sum (x^2/4)^k / (k!)^2
    s, t, k = 1.0, 1.0, 0
    while t > 1e-18 * s:
        k += 1
        t *= (0.25 * x * x) / (k * k)
        s += t
    return s


def i0_scaled_asymptotic_oracle(x):
    # two leading terms, adequate at very large x
    return (1.0 + 1.0 / (8.0 * x)) / math.sqrt(2.0 * math.pi * x)


# --- erfc -------------------------------------------------------------------

def test_erfc_relative_accuracy_where_erf_saturates():
    # 1 - erf(x) carries no relative information once erf rounds to 1
    # (x ~ 6); erfc must stay accurate to full relative precision
    for x in (2.0, 3.0, 5.0, 8.0, 15.0, 26.0):
        expect = float(mpmath.erfc(x))
        assert specfun.erfc(x) == pytest.approx(expect, rel=1e-13)


def test_erfc_frozen_value():
    assert specfun.erfc(3.0) == pytest.approx(2.2090496998585441e-05, rel=1e-14)


def test_erfc_relative_accuracy_dense():
    xs = np.concatenate([np.linspace(-8.0, 8.0, 161),
                         [1.5, 1.5 + 1e-7, 24.0, 26.5]])
    worst = max(abs(specfun.erfc(float(x)) - float(mpmath.erfc(float(x))))
                / float(mpmath.erfc(float(x))) for x in xs)
    assert worst <= 2e-14


@given(st.floats(min_value=0.0, max_value=26.0))
def test_erfc_reflection(x):
    assert specfun.erfc(-x) + specfun.erfc(x) == pytest.approx(2.0, rel=1e-15)


@given(st.floats(min_value=-5.0, max_value=5.0))
def test_erfc_consistent_with_erf(x):
    # absolute consistency only: near x = 5 the subtraction itself
    # carries no relative accuracy, which is the point of having erfc
    assert specfun.erfc(x) == pytest.approx(1.0 - math.erf(x), abs=1e-14)


def test_erfc_against_maclaurin_oracle():
    # where erf is not close to +-1, 1 - erfc(x) keeps erf's absolute
    # accuracy
    for x in np.linspace(-2.0, 2.0, 41):
        assert 1.0 - specfun.erfc(float(x)) == pytest.approx(
            erf_maclaurin_oracle(float(x)), abs=1e-15)


def test_erfc_underflow_and_saturation():
    assert specfun.erfc(30.0) == 0.0
    assert specfun.erfc(-30.0) == 2.0


def test_erfc_rejects_nonfinite():
    with pytest.raises(DomainError):
        specfun.erfc(float("nan"))


# --- scaled I0 --------------------------------------------------------------

def test_i0_at_zero():
    assert specfun.i0_scaled(0.0) == 1.0
    assert specfun.log_i0(0.0) == 0.0


def test_i0_one_frozen_value():
    assert specfun.i0_scaled(1.0) == pytest.approx(
        1.2660658777520084 * math.exp(-1.0), rel=1e-14)
    assert specfun.log_i0(1.0) == pytest.approx(
        math.log(1.2660658777520084), abs=1e-14)


def test_i0_series_branch_against_power_series_oracle():
    for x in (0.3, 1.0, 5.0, 12.0, 15.0):
        expect = i0_power_series_oracle(x) * math.exp(-x)
        assert specfun.i0_scaled(x) == pytest.approx(expect, rel=1e-14)


def test_i0_against_mpmath_across_branches():
    for x in (0.1, 1.0, 7.0, 14.9, 15.0, 15.1, 16.0, 25.0, 80.0, 300.0, 700.0):
        expect = float(mpmath.besseli(0, x) * mpmath.exp(-x))
        assert specfun.i0_scaled(x) == pytest.approx(expect, rel=1e-14)


def test_i0_large_argument_no_overflow():
    v = specfun.log_i0(700.0)
    assert math.isfinite(v)
    expect = 700.0 + math.log(i0_scaled_asymptotic_oracle(700.0))
    # two-term asymptotic oracle itself is good to ~1e-5 here
    assert v == pytest.approx(expect, rel=1e-5)
    # and the scaled value keeps full precision
    assert specfun.i0_scaled(700.0) == pytest.approx(
        float(mpmath.besseli(0, 700) * mpmath.exp(-700)), rel=1e-14)


def test_i0_scaled_strictly_decreasing():
    grid = specfun.i0_scaled(np.linspace(1e-3, 100.0, 400))
    assert np.all(np.diff(grid) < 0.0)


def test_i0_scaled_in_unit_interval():
    xs = np.geomspace(1e-6, 1e6, 60)
    vals = specfun.i0_scaled(xs)
    assert np.all(vals > 0.0) and np.all(vals <= 1.0)


def test_i0_vectorized_matches_scalar():
    xs = np.array([0.0, 0.5, 14.0, 15.0, 17.0, 250.0])
    vec = specfun.i0_scaled(xs)
    for x, v in zip(xs, vec):
        assert v == specfun.i0_scaled(float(x))


def test_i0_rejects_negative():
    with pytest.raises(DomainError):
        specfun.i0_scaled(-0.5)
    with pytest.raises(DomainError):
        specfun.log_i0(np.array([1.0, -2.0]))


# --- scaled I1 --------------------------------------------------------------

def test_i1_against_mpmath_on_0_to_700():
    assert specfun.i1_scaled(0.0) == 0.0
    for x in np.concatenate([[1e-8, 1e-3, 0.1, 1.0, 7.0, 15.0],
                             np.linspace(20.0, 700.0, 35)]):
        expect = float(mpmath.besseli(1, x) * mpmath.exp(-x))
        assert specfun.i1_scaled(float(x)) == pytest.approx(expect, rel=1e-14)


def test_i1_vectorized_matches_scalar():
    xs = np.array([0.0, 0.5, 14.0, 15.0, 17.0, 250.0])
    vec = specfun.i1_scaled(xs)
    assert isinstance(vec, np.ndarray)
    assert isinstance(specfun.i1_scaled(1.0), float)
    for x, v in zip(xs, vec):
        assert v == specfun.i1_scaled(float(x))


def test_i1_rejects_negative_and_nonfinite():
    with pytest.raises(DomainError):
        specfun.i1_scaled(-0.5)
    with pytest.raises(DomainError):
        specfun.i1_scaled(np.array([1.0, -2.0]))
    with pytest.raises(DomainError):
        specfun.i1_scaled(float("nan"))
    with pytest.raises(DomainError):
        specfun.i1_scaled(np.array([1.0, np.inf]))


@settings(max_examples=60)
@given(st.floats(min_value=0.0, max_value=750.0))
def test_log_i0_consistent_with_scaled_form(x):
    assert specfun.log_i0(x) == pytest.approx(
        x + np.log(specfun.i0_scaled(x)), rel=1e-13, abs=1e-13)
