import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from haloslopes.padic_core import (
    BadArgument,
    InsufficientPrecision,
    NotAUnit,
    PAdicNum,
    Valuation,
    binomials,
    log_line,
    phi_q,
    q_for,
    torsion_residue,
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


def test_equality_refuses_plain_ints():
    # no hash agrees with every int equal mod p^prec, so == takes none
    assert PAdicNum(3, 2, 1) != 10 and not PAdicNum(3, 2, 1) == 10
    assert 10 != PAdicNum(3, 2, 1)
    assert PAdicNum(3, 2, 1) == PAdicNum(3, 2, 10)


def test_teichmuller_examples():
    assert torsion_residue(2, 5, 2) == 7
    assert torsion_residue(1, 5, 2) == 1
    assert torsion_residue(26, 3, 3) == 26
    with pytest.raises(NotAUnit):
        torsion_residue(10, 5, 3)
    # for p = 2 the torsion component is the sign mod 4
    assert torsion_residue(3, 2, 3) == 7
    assert torsion_residue(5, 2, 3) == 1
    with pytest.raises(NotAUnit):
        torsion_residue(6, 2, 3)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_teichmuller_matches_digit_lift_oracle(p):
    for n in (2, 4, 6):
        for d in range(1, min(p ** n, 40)):
            if d % p == 0:
                continue
            assert torsion_residue(d, p, n) == teichmuller_oracle(p, n, d)


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
            t = torsion_residue(d, p, n)
            assert pow(t, p - 1, p**n) == 1
            assert (t - d) % p == 0


def test_log_ratio_frozen_example():
    # log(6)/5 = 11 mod 25, as the one-point line at z = 0
    (residue,), eff = log_line(6, 0, 1, 5, 6)
    assert eff >= 2 and residue % 25 == 11
    assert log_line(1, 0, 1, 5, 6)[0] == [0]


def test_log_ratio_against_series_oracle():
    (got,), eff = log_line(4, 0, 1, 3, 10)
    assert eff >= 2
    assert got % 9 == log_ratio_oracle(3, 3, 4, 2)
    (got2,), eff2 = log_line(5, 0, 1, 2, 14)
    assert eff2 >= 6
    assert got2 % 2 ** 6 == log_ratio_oracle(2, 4, 5, 6)


def test_log_ratio_rejects_bad_argument():
    with pytest.raises(BadArgument):
        log_line(7, 0, 1, 5, 4)
    # q is 4 for p = 2, so 1 mod 2 is not enough
    with pytest.raises(BadArgument):
        log_line(3, 0, 1, 2, 8)
    with pytest.raises(InsufficientPrecision):
        log_line(6, 0, 1, 5, 1)


@given(st.sampled_from([3, 5]), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_log_ratio_is_a_homomorphism(p, a, b):
    n = 10
    u, v = 1 + p * a, 1 + p * b
    (lu,), eff = log_line(u, 0, 1, p, n)
    (lv,), _ = log_line(v, 0, 1, p, n)
    (luv,), _ = log_line(u * v, 0, 1, p, n)
    assert (luv - lu - lv) % p**eff == 0


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(8, 40),
    st.integers(0, 10**9),
    st.integers(0, 10**9),
    st.integers(0, 40),
)
def test_log_line_is_log_ratio_at_every_point(p, prec, c, d, count):
    # the kernel's line: g(z) = log((cz + d)/d0)/q with q | c, d a unit
    q, mod = q_for(p), p**prec
    c, d = q * c, d * p + 1 + d % (p - 1)
    d0 = torsion_residue(d, p, prec)
    inv_d0 = pow(d0, -1, mod)
    line, eff = log_line(d * inv_d0 % mod, c * pow(d, -1, mod) % mod, count, p, prec)
    assert len(line) == count
    digits = min(eff, 4)
    for z, g in enumerate(line):
        u = (c * z + d) * inv_d0 % mod
        assert ([g], eff) == log_line(u, 0, 1, p, prec)
        assert g % p**digits == log_ratio_oracle(p, q, u, digits)


def test_log_line_rejects_bad_arguments():
    with pytest.raises(BadArgument):
        log_line(7, 0, 3, 5, 10)
    with pytest.raises(BadArgument):
        log_line(1, 2, 3, 2, 10)
    with pytest.raises(InsufficientPrecision):
        log_line(6, 5, 3, 5, 1)


def test_binom_examples():
    assert binomials(7, 3, 5, 4)[2] == 21
    assert binomials(123, 1, 7, 3) == [1]
    got = binomials(7, 6, 5, 4)
    assert got[:5] == [1, 7, 21, 35, 35]
    # C(7, 5) is certified to 4 - v_5(5!) = 3 digits
    assert 4 - val_p_factorial(5, 5) == 3
    assert got[5] % 125 == binom_oracle(7, 5, 5, 3) == 21 % 125


def test_binom_large_r_matches_oracle():
    # r = 1200 once overflowed the recursion limit in the unit factorial
    p, prec, u, r = 3, 2000, 12345, 1200
    got = binomials(u, r + 1, p, prec)[r]
    certified = prec - val_p_factorial(r, p)
    assert got % p**certified == binom_oracle(u, r, p, certified)


def test_binom_insufficient_precision():
    with pytest.raises(InsufficientPrecision):
        binomials(3, 6, 5, 1)


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(0, 5000),
    st.integers(1, 20),
)
def test_binom_matches_integer_oracle(p, u, r):
    n = 12
    got = binomials(u, r + 1, p, n + val_p_factorial(r, p))[r]
    assert got % p ** n == binom_oracle(u, r, p, n)


@given(st.sampled_from([2, 3, 5]), st.integers(0, 10 ** 9), st.integers(1, 20))
def test_binom_pascal(p, u, r):
    n = 8
    pad = n + val_p_factorial(r, p)
    lhs = binomials(u, r + 1, p, pad)
    rhs = binomials(u + 1, r + 1, p, pad)
    assert (lhs[r] + lhs[r - 1] - rhs[r]) % p ** n == 0


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


def test_val_int_oracle_consistency():
    assert val_int(360, 2) == 3 and val_int(360, 3) == 2 and val_int(360, 5) == 1
