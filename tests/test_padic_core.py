import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from haloslopes.padic_core import (
    BadArgument,
    InsufficientPrecision,
    NotAUnit,
    PAdicNum,
    Valuation,
    binom_padic,
    padic_log_ratio,
    phi_q,
    q_for,
    teichmuller,
    val_p,
    val_p_factorial,
)

from oracles import binom_oracle, log_ratio_oracle, teichmuller_oracle, val_int


def test_val_p_examples():
    assert val_p(PAdicNum(5, 3, 50)) == Valuation.exact(2)
    assert val_p(PAdicNum(5, 3, 0)) == Valuation.at_least(3)
    assert val_p(PAdicNum(3, 4, 7)) == Valuation.exact(0)


def test_conventions():
    assert q_for(3) == 3 and q_for(2) == 4
    assert phi_q(5) == 4 and phi_q(2) == 2


def test_arithmetic_min_precision():
    x = PAdicNum(5, 4, 7)
    y = PAdicNum(5, 2, 3)
    assert (x * y).prec == 2
    assert (x + y).prec == 2
    assert (x - y).residue == 4


def test_divexact_p_lowers_precision():
    x = PAdicNum(5, 3, 50)
    y = x.divexact_p(2)
    assert (y.prec, y.residue) == (1, 2)
    with pytest.raises(BadArgument):
        PAdicNum(5, 3, 7).divexact_p(1)
    with pytest.raises(InsufficientPrecision):
        PAdicNum(5, 2, 0).divexact_p(2)


def test_teichmuller_examples():
    assert teichmuller(PAdicNum(5, 2, 2)).residue == 7
    assert teichmuller(PAdicNum(5, 2, 1)).residue == 1
    assert teichmuller(PAdicNum(3, 3, 26)).residue == 26
    with pytest.raises(NotAUnit):
        teichmuller(PAdicNum(5, 3, 10))
    with pytest.raises(BadArgument):
        teichmuller(PAdicNum(2, 3, 3))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_teichmuller_matches_digit_lift_oracle(p):
    for n in (2, 4, 6):
        for d in range(1, min(p ** n, 40)):
            if d % p == 0:
                continue
            assert teichmuller(PAdicNum(p, n, d)).residue == teichmuller_oracle(p, n, d)


def test_teichmuller_is_torsion():
    # spec property: omega(d)^(p-1) = 1 mod p^N, 100 draws per prime
    import random

    rng = random.Random(20260815)
    for p in (3, 5, 7):
        for _ in range(100):
            n = rng.randrange(1, 7)
            d = rng.randrange(1, p ** n)
            if d % p == 0:
                continue
            t = teichmuller(PAdicNum(p, n, d))
            assert (t ** (p - 1)).residue == 1
            assert (t.residue - d) % p == 0


def test_log_ratio_frozen_example():
    # log(6)/5 = 11 mod 25
    out = padic_log_ratio(PAdicNum(5, 6, 6), 5)
    assert out.residue % 25 == 11
    assert padic_log_ratio(PAdicNum(5, 6, 1), 5).residue == 0


def test_log_ratio_against_series_oracle():
    got = padic_log_ratio(PAdicNum(3, 10, 4), 3)
    assert got.prec >= 2
    assert got.residue % 9 == log_ratio_oracle(3, 3, 4, 2)
    got2 = padic_log_ratio(PAdicNum(2, 14, 5), 4)
    assert got2.residue % 2 ** 6 == log_ratio_oracle(2, 4, 5, 6)


def test_log_ratio_rejects_bad_argument():
    with pytest.raises(BadArgument):
        padic_log_ratio(PAdicNum(5, 4, 7), 5)
    with pytest.raises(BadArgument):
        padic_log_ratio(PAdicNum(5, 4, 6), 25)


@given(st.sampled_from([3, 5]), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_log_ratio_is_a_homomorphism(p, a, b):
    n = 10
    u = PAdicNum(p, n, 1 + p * a)
    v = PAdicNum(p, n, 1 + p * b)
    lu = padic_log_ratio(u, p)
    lv = padic_log_ratio(v, p)
    luv = padic_log_ratio(u * v, p)
    assert luv == lu + lv


def test_binom_examples():
    assert binom_padic(PAdicNum(5, 4, 7), 2).residue == 21
    assert binom_padic(PAdicNum(7, 3, 123), 0).residue == 1
    tau = PAdicNum(5, 4, 7)
    got = binom_padic(tau, 5)
    assert got.prec == 4 - val_p_factorial(5, 5) == 3
    assert got.residue == binom_oracle(7, 5, 5, 3) == 21 % 125


def test_binom_large_r_matches_oracle():
    # r = 1200 once overflowed the recursion limit in the unit factorial
    p, prec, u, r = 3, 2000, 12345, 1200
    got = binom_padic(PAdicNum(p, prec, u), r)
    assert got.prec == prec - val_p_factorial(r, p)
    assert got.residue == binom_oracle(u, r, p, got.prec)


def test_binom_insufficient_precision():
    with pytest.raises(InsufficientPrecision):
        binom_padic(PAdicNum(5, 1, 3), 5)


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(0, 5000),
    st.integers(1, 20),
)
def test_binom_matches_integer_oracle(p, u, r):
    n = 12
    got = binom_padic(PAdicNum(p, n + val_p_factorial(r, p), u), r)
    assert got.prec >= n
    assert got.residue % p ** n == binom_oracle(u, r, p, n)


@given(st.sampled_from([2, 3, 5]), st.integers(0, 10 ** 9), st.integers(1, 20))
def test_binom_pascal(p, u, r):
    n = 8
    pad = n + val_p_factorial(r, p)
    lhs = binom_padic(PAdicNum(p, pad, u), r) + binom_padic(PAdicNum(p, pad, u), r - 1)
    rhs = binom_padic(PAdicNum(p, pad, u + 1), r)
    assert lhs.residue % p ** n == rhs.residue % p ** n


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 10 ** 8), st.integers(1, 10 ** 8))
def test_val_p_multiplicative_on_exact(p, a, b):
    n = 30
    x, y = PAdicNum(p, n, a), PAdicNum(p, n, b)
    vx, vy = val_p(x), val_p(y)
    if vx.is_exact and vy.is_exact and vx.bound + vy.bound < n:
        assert val_p(x * y) == Valuation(vx.bound + vy.bound, True)


def test_valuation_comparison_helpers():
    v = Valuation.at_least(3)
    assert v.certainly_at_least(3)
    assert not v.certainly_at_least(Fraction(7, 2))
    assert not v.certainly_below(10)
    assert Valuation.exact(1).certainly_below(2)


def test_val_int_oracle_consistency():
    assert val_int(360, 2) == 3 and val_int(360, 3) == 2 and val_int(360, 5) == 1
