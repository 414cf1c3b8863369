import copy
import pickle

import pytest
from fractions import Fraction
from hypothesis import example, given, strategies as st

from haloslopes.padic_core import (
    BadArgument,
    OrderBound,
    PAdicNum,
    PrecisionTooLow,
)
from haloslopes.iwasawa import (
    DEFAULT_TRUNC,
    CharOfDelta,
    HaloElt,
    LambdaElt,
    eval_valuation,
    mlambda_order,
)
from haloslopes.monoid_action import DeltaMat

from oracles import CoeffLambda, eval_valuation_oracle, one_plus_T_pow, order_oracle


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
    with pytest.raises(BadArgument, match=r"\(5,3\) vs \(5,4\)"):
        elt(5, 3, 3, [1]) + elt(5, 3, 4, [1])
    with pytest.raises(BadArgument, match=r"\(5,3\) vs \(3,3\)"):
        elt(5, 3, 3, [1]) * elt(3, 3, 3, [1])


def test_mlambda_order_examples():
    p = 5
    assert mlambda_order(elt(p, 3, 4, [0, p])) == OrderBound(2, True)
    assert mlambda_order(LambdaElt.one(p, 3, 4)) == OrderBound(0, True)
    assert mlambda_order(elt(p, 3, 4, [p ** 2, p, 1])) == OrderBound(2, True)


def test_halo_T_order_examples():
    # on honest power series the halo T-order is the (p, T)-order
    assert mlambda_order(elt(5, 3, 5, [0, 0, 0, 1])) == OrderBound(3, True)
    assert mlambda_order(elt(5, 3, 5, [0, 5])) == OrderBound(2, True)
    assert mlambda_order(elt(3, 4, 5, [0, 3])) == OrderBound(2, True)
    assert mlambda_order(elt(5, 3, 5, [25, 1])) == OrderBound(1, True)
    assert HaloElt(0, elt(5, 3, 5, [25, 1])).halo_T_order() == OrderBound(1, True)


def test_orders_on_zero_are_precision_limited():
    z = LambdaElt.zero(5, 3, 4)
    assert mlambda_order(z) == OrderBound(3, False)
    assert HaloElt(0, z).halo_T_order() == OrderBound(3, False)


@pytest.mark.parametrize(
    "unit, message",
    [
        (1, "entry (4,0) certifies only order 1, bound 2 undecidable"),
        (Fraction(1, 3), "entry (4,0) certifies only order 1/3, bound 2/3 undecidable"),
    ],
    ids=["int", "Fraction"],
)
def test_meets_decides_or_raises(unit, message):
    # reached (either flag), an exact shortfall, or an undecidable AtLeast;
    # int orders and Fraction valuations follow the one rule
    assert OrderBound(2 * unit, True).meets(2 * unit, "x")
    assert OrderBound(3 * unit, False).meets(2 * unit, "x")
    assert OrderBound(unit, True).meets(2 * unit, "x") is False
    with pytest.raises(PrecisionTooLow) as err:
        OrderBound(unit, False).meets(2 * unit, "entry (4,0)")
    assert str(err.value) == message


def test_eval_valuation_examples():
    p_plus_T = elt(5, 3, 4, [5, 1])
    v = eval_valuation(p_plus_T, Fraction(1, 2))
    assert v == OrderBound.exact(Fraction(1, 2))
    with pytest.raises(BadArgument):
        eval_valuation(p_plus_T, Fraction(1))
    v2 = eval_valuation(elt(5, 3, 4, [0, 5, 1]), Fraction(1, 2))
    assert (v2.value, v2.is_exact) == (Fraction(1), True)


def test_eval_valuation_flags_ties():
    # p and T^2 tie at vT = 1/2: both contribute valuation 1
    x = elt(5, 4, 4, [5, 0, 1])
    v = eval_valuation(x, Fraction(1, 2))
    assert v == OrderBound.at_least(1)


@pytest.mark.xfail(strict=True, reason="eval_valuation treats digits past T^trunc as absent")
def test_eval_valuation_counts_the_truncation_tail():
    # the stored digits give min(5, 5 + 1/3) = 5, but a digit at T^2 or later
    # adds only 2/3 or more, so nothing certifies the valuation 5 as exact
    x = elt(3, 10, 2, [3**5, 3**5])
    assert eval_valuation(x, Fraction(1, 3)) != OrderBound.exact(5)


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


@given(lambda_elts(), st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]))
def test_eval_valuation_dominates_halo_order(x, vT):
    ho = mlambda_order(x)
    v = eval_valuation(x, vT)
    if ho.value >= 0:
        assert v.value >= ho.value * vT


def test_halo_elt_shifts_order():
    body = elt(5, 4, 4, [25, 1])
    assert HaloElt(-1, body).halo_T_order() == OrderBound(0, True)
    assert HaloElt(2, body).halo_T_order() == OrderBound(3, True)


def test_char_of_delta_wraps_exponent():
    w = CharOfDelta(5, 6)
    assert w.exponent == 2
    assert CharOfDelta(5, -1).exponent == 3
    assert CharOfDelta(2, 3).exponent == 1


def test_json_round_trip():
    x = elt(5, 4, 6, [1, 0, 625 - 1, 17])
    assert x.to_json() == {"p": "5", "N": "4", "coeffs": ["1", "0", "624", "17", "0", "0"]}


# -- the packed element against the per-coefficient oracle ----------------------


@st.composite
def ring_pairs(draw):
    """Two elements of one ring Z/p^? [T]/T^trunc at independent precisions,
    trunc up to the pipeline's own."""
    p = draw(st.sampled_from([2, 3, 5]))
    trunc = draw(st.integers(1, DEFAULT_TRUNC))

    def element():
        n = draw(st.integers(1, 6))
        digit = st.one_of(
            st.just(0),
            st.integers(0, p**n - 1),
            st.integers(0, p ** (n - 1)).map(lambda k: k * p),
            st.integers(-(10**6), 10**6),
        )
        return LambdaElt.from_ints(p, n, trunc, draw(st.lists(digit, max_size=trunc)))

    return element(), element()


def exact_digits(coeffs):
    return [(c.p, c.prec, c.residue) for c in coeffs]


def assert_same(x, ref):
    """Same p, precision and residues, not merely equal at a shared precision."""
    assert exact_digits(x.coeffs) == exact_digits(ref.coeffs)
    assert x.res == tuple(c.residue for c in ref.coeffs)


VTS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 5)]


@given(ring_pairs(), st.integers(-50, 50))
@example(
    # every digit at its largest, the two operands at different precisions
    (
        LambdaElt.from_ints(5, 6, DEFAULT_TRUNC, [-1] * DEFAULT_TRUNC),
        LambdaElt.from_ints(5, 2, DEFAULT_TRUNC, [-1] * DEFAULT_TRUNC),
    ),
    -1,
)
def test_packed_element_matches_coefficient_oracle(pair, k):
    x, y = pair
    rx, ry = CoeffLambda(x.coeffs), CoeffLambda(y.coeffs)
    assert_same(x + y, rx + ry)
    assert_same(x - y, rx - ry)
    assert_same(-x, -rx)
    assert_same(x * y, rx * ry)
    assert_same(x * k, rx * k)
    assert_same(k * x, rx * k)
    assert (x == y) == (rx == ry)
    assert mlambda_order(x) == order_oracle(rx)
    assert x.to_json() == rx.to_json()
    for vT in VTS:
        assert eval_valuation(x, vT) == eval_valuation_oracle(rx, vT)
    if x == y:
        assert hash(x) == hash(y)


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 6),
    st.integers(1, 6),
    st.lists(st.integers(-(10**5), 10**5), min_size=1, max_size=4),
)
@example(3, 5, 3, [246, 30])  # 246 = 3 and 30 = 3 mod 27
def test_equality_is_the_record(p, n, m, ints):
    # elements at different precisions differ, even where their residues
    # agree at the shared one; equal records hash equal
    x = LambdaElt.from_ints(p, n, len(ints), ints)
    y = LambdaElt.from_ints(p, m, len(ints), ints)
    assert (x == y) == (n == m)
    same = LambdaElt.from_ints(p, n, len(ints), [c + p**n for c in ints])
    assert x == same and hash(x) == hash(same) and len({x, same}) == 1


def test_compatibility_surface():
    # LambdaElt(tuple of PAdicNum), .coeffs and .trunc are public forms
    coeffs = (PAdicNum(3, 4, 80), PAdicNum(3, 4, 0), PAdicNum(3, 4, 9))
    x = LambdaElt(coeffs)
    assert x.trunc == 3 and (x.p, x.prec) == (3, 4)
    assert exact_digits(x.coeffs) == exact_digits(coeffs)
    assert x == elt(3, 4, 3, [80, 0, 9])
    with pytest.raises(BadArgument, match="must share"):
        LambdaElt((PAdicNum(3, 4, 1), PAdicNum(3, 5, 1)))
    with pytest.raises(BadArgument, match="must share"):
        LambdaElt((PAdicNum(3, 4, 1), PAdicNum(5, 4, 1)))
    with pytest.raises(BadArgument, match="must share"):
        LambdaElt((PAdicNum(3, 4, 1), 1))
    with pytest.raises(BadArgument, match="at least one coefficient"):
        LambdaElt(())
    with pytest.raises(BadArgument):
        LambdaElt.from_ints(3, 0, 2, [1])
    # PAdicNum is a (p, prec, residue) record, the residue reduced mod
    # p^prec: a residue bumped past p^prec is the same record
    assert PAdicNum(3, 4, 80 + 3**4).residue == 80
    assert PAdicNum(3, 4, -1) == PAdicNum(3, 4, 80)
    assert hash(PAdicNum(3, 4, -1)) == hash(PAdicNum(3, 4, 80))
    assert len({PAdicNum(3, 4, 80), PAdicNum(3, 4, 161), PAdicNum(3, 4, 80)}) == 1
    # equal values only: no agreement at a shared precision
    assert PAdicNum(3, 4, 80) != PAdicNum(3, 5, 80)
    assert PAdicNum(3, 4, 1) != PAdicNum(5, 4, 1)
    assert PAdicNum(3, 4, 1).is_unit() and not PAdicNum(3, 4, 9).is_unit()
    assert not PAdicNum(3, 4, 0).is_unit()
    with pytest.raises(BadArgument):
        PAdicNum(3, 0, 1)
    # the record carries no arithmetic
    with pytest.raises(TypeError):
        PAdicNum(3, 4, 1) + PAdicNum(3, 4, 1)
    with pytest.raises(TypeError):
        PAdicNum(3, 4, 1) * 2
    # DeltaMat.d and det() are records at the matrix's precision
    p, prec = 3, 4
    mod = p**prec
    unit = DeltaMat(p, prec, 2, 1, 3, 5)
    assert unit.d == PAdicNum(p, prec, 5) and unit.d.is_unit()
    assert unit.det() == PAdicNum(p, prec, 2 * 5 - 1 * 3)
    assert not DeltaMat(p, prec, 2, 1, 3, 6).d.is_unit()
    # the determinant residue lies in [0, p^prec), 0 exactly when it vanishes
    assert DeltaMat(p, prec, 1, 5, 3, 1).det().residue == mod - 14
    vanishing = DeltaMat(p, prec, 1 + mod, 1, 3, 3)
    assert vanishing.det().residue == 0 and vanishing.det().prec == prec
    near = DeltaMat(p, prec, 1, 1, 3, 3 + 3**3)
    assert near.det().residue == 3**3


def test_packed_element_is_immutable_and_hashable():
    x = elt(5, 3, 3, [1, 2])
    with pytest.raises(AttributeError):
        x.prec = 2
    with pytest.raises(AttributeError):
        x.res = (0, 0, 0)
    assert {x, elt(5, 3, 3, [1, 2])} == {x}
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert (y.p, y.prec, y.res) == (x.p, x.prec, x.res)
