import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from haloslopes.padic_core import (
    BadArgument,
    MismatchedParameters,
    PAdicNum,
    Valuation,
)
from haloslopes.iwasawa import (
    CharOfDelta,
    HaloElt,
    LambdaElt,
    OrderBound,
    eval_valuation,
    halo_T_order,
    mlambda_order,
)

from oracles import one_plus_T_pow


def elt(p, n, trunc, ints):
    return LambdaElt.from_ints(p, n, trunc, ints)


def lambda_elts(p=5, n=4, trunc=5):
    return st.lists(
        st.integers(0, p ** n - 1), min_size=0, max_size=trunc
    ).map(lambda ints: elt(p, n, trunc, ints))


def test_ring_examples():
    one_plus = elt(5, 3, 3, [1, 1])
    one_minus = elt(5, 3, 3, [1, -1])
    assert one_plus * one_minus == elt(5, 3, 3, [1, 0, -1])
    z = LambdaElt.zero(5, 3, 3)
    assert one_plus * z == z
    cube = one_plus * one_plus * one_plus
    assert cube == elt(5, 3, 3, [1, 3, 3])  # T^3 truncated away


def test_mismatched_parameters():
    with pytest.raises(MismatchedParameters):
        elt(5, 3, 3, [1]) + elt(5, 3, 4, [1])
    with pytest.raises(MismatchedParameters):
        elt(5, 3, 3, [1]) * elt(3, 3, 3, [1])


def test_mlambda_order_examples():
    p = 5
    assert mlambda_order(elt(p, 3, 4, [0, p])) == OrderBound(2, True)
    assert mlambda_order(LambdaElt.one(p, 3, 4)) == OrderBound(0, True)
    assert mlambda_order(elt(p, 3, 4, [p ** 2, p, 1])) == OrderBound(2, True)


def test_halo_T_order_examples():
    assert halo_T_order(LambdaElt.t_power(5, 3, 5, 3)) == OrderBound(3, True)
    assert halo_T_order(elt(5, 3, 5, [0, 5])) == OrderBound(2, True)
    assert halo_T_order(elt(3, 4, 5, [0, 3])) == OrderBound(2, True)
    assert halo_T_order(elt(5, 3, 5, [25, 1])) == OrderBound(1, True)


def test_orders_on_zero_are_precision_limited():
    z = LambdaElt.zero(5, 3, 4)
    assert mlambda_order(z) == OrderBound(3, False)
    assert halo_T_order(z) == OrderBound(3, False)


def test_eval_valuation_examples():
    p_plus_T = elt(5, 3, 4, [5, 1])
    v, flag = eval_valuation(p_plus_T, Fraction(1, 2))
    assert (v, flag) == (Valuation.exact(Fraction(1, 2)), True)
    with pytest.raises(BadArgument):
        eval_valuation(p_plus_T, Fraction(1))
    v2, flag2 = eval_valuation(elt(5, 3, 4, [0, 5, 1]), Fraction(1, 2))
    assert (v2.bound, v2.is_exact, flag2) == (Fraction(1), True, True)


def test_eval_valuation_flags_ties():
    # p and T^2 tie at vT = 1/2: both contribute valuation 1
    x = elt(5, 4, 4, [5, 0, 1])
    v, flag = eval_valuation(x, Fraction(1, 2))
    assert not flag and not v.is_exact and v.bound == 1


def test_one_plus_T_pow_small_exponents():
    for g, want in [(0, [1]), (1, [1, 1]), (2, [1, 2, 1])]:
        got = one_plus_T_pow(PAdicNum(5, 8, g), 4, 4)
        assert got == elt(5, 4, 4, want)


@given(st.integers(0, 3 ** 6 - 1), st.integers(0, 3 ** 6 - 1))
def test_one_plus_T_pow_is_vandermonde_multiplicative(a, b):
    p, trunc, n_target = 3, 6, 4
    pad = n_target + 6
    f = one_plus_T_pow(PAdicNum(p, pad, a), trunc, n_target)
    g = one_plus_T_pow(PAdicNum(p, pad, b), trunc, n_target)
    fg = one_plus_T_pow(PAdicNum(p, pad, a + b), trunc, n_target)
    assert f * g == fg


@given(lambda_elts(), lambda_elts())
def test_orders_superadditive(x, y):
    # superadditive up to the precision cap: a zero residue at coefficient m
    # can only certify n + m, never the full sum of factor orders
    prod = x * y
    cap = prod.prec
    mo = mlambda_order(prod)
    assert mo.value >= min(mlambda_order(x).value + mlambda_order(y).value, cap)
    ho = halo_T_order(prod)
    assert ho.value >= min(halo_T_order(x).value + halo_T_order(y).value, cap)


@given(lambda_elts(), st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]))
def test_eval_valuation_dominates_halo_order(x, vT):
    ho = halo_T_order(x)
    v, _ = eval_valuation(x, vT)
    if ho.value >= 0:
        assert v.bound >= ho.value * vT


def test_halo_elt_shifts_order():
    body = elt(5, 4, 4, [25, 1])
    assert HaloElt(-1, body).halo_T_order() == OrderBound(0, True)
    assert HaloElt(2, body).halo_T_order() == OrderBound(3, True)


def test_char_of_delta_wraps_exponent():
    w = CharOfDelta(5, 6)
    assert w.exponent == 2
    assert w.twist(3).exponent == 1
    d0 = PAdicNum(5, 2, 7)
    assert w.value_at(d0) == d0 * d0
    assert CharOfDelta(2, 3).exponent == 1


def test_json_round_trip():
    x = elt(5, 4, 6, [1, 0, 625 - 1, 17])
    back = LambdaElt.from_json(x.to_json())
    assert back == x
    assert x.to_json()["coeffs"][2] == "624"
