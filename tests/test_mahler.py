import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from haloslopes.mahler import (
    MahlerFn,
    NotEnoughSamples,
    SampleVector,
    evaluate,
    mahler_from_samples,
)
from haloslopes.padic_core import PAdicNum

from oracles import mahler_coeff_oracle


def test_square_function_coeffs():
    s = SampleVector(tuple(z * z for z in range(5)))
    f = mahler_from_samples(s, 4)
    assert f.coeffs == (0, 1, 2, 0)


def test_constant_coeffs():
    s = SampleVector((7,) * 6)
    f = mahler_from_samples(s, 6)
    assert f.coeffs == (7, 0, 0, 0, 0, 0)


def test_binomial_round_trip():
    s = SampleVector(tuple(math.comb(z, 3) for z in range(6)))
    f = mahler_from_samples(s, 6)
    assert f.coeffs == (0, 0, 0, 1, 0, 0)
    assert [evaluate(f, z) for z in range(6)] == list(s.values)


def test_not_enough_samples():
    with pytest.raises(NotEnoughSamples):
        mahler_from_samples(SampleVector((1, 2, 3)), 4)


def test_evaluate_empty_basis():
    with pytest.raises(NotEnoughSamples):
        evaluate(MahlerFn(()), 0)


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=9))
def test_coeffs_match_signed_sum(vals):
    f = mahler_from_samples(SampleVector(tuple(vals)), len(vals))
    for m in range(len(vals)):
        assert f.coeffs[m] == mahler_coeff_oracle(vals, m)


@given(st.lists(st.integers(min_value=-40, max_value=40), min_size=1, max_size=8))
def test_round_trip_on_sample_points(vals):
    f = mahler_from_samples(SampleVector(tuple(vals)), len(vals))
    for z, want in enumerate(vals):
        assert evaluate(f, z) == want


@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=2, max_size=8))
def test_difference_commutes_with_expansion(vals):
    # expanding the differenced samples gives the left-shifted coefficients
    f = mahler_from_samples(SampleVector(tuple(vals)), len(vals))
    dvals = tuple(vals[i + 1] - vals[i] for i in range(len(vals) - 1))
    g = mahler_from_samples(SampleVector(dvals), len(dvals))
    assert g.coeffs == f.coeffs[1:]


@pytest.mark.parametrize("p", [3, 5])
def test_geometric_samples_have_pure_power_coeffs(p):
    # differences of (1+p)^z at 0 collapse to p^m by the binomial theorem
    prec = 12
    base = PAdicNum(p, prec, 1 + p)
    vals = [base**z for z in range(8)]
    f = mahler_from_samples(SampleVector(tuple(vals)), 8)
    for m, a in enumerate(f.coeffs):
        assert a == PAdicNum(p, prec, p**m)
