import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from haloslopes.iwasawa import pack, unpack
from haloslopes.monoid_action import difference_triangle

from oracles import mahler_coeff_oracle


def test_square_function_coeffs():
    assert difference_triangle([z * z for z in range(4)]) == [0, 1, 2, 0]


def test_constant_coeffs():
    assert difference_triangle([7] * 6) == [7, 0, 0, 0, 0, 0]


def test_binomial_round_trip():
    vals = [math.comb(z, 3) for z in range(6)]
    coeffs = difference_triangle(vals)
    assert coeffs == [0, 0, 0, 1, 0, 0]
    assert [sum(math.comb(z, m) * a for m, a in enumerate(coeffs)) for z in range(6)] == vals


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=9))
def test_coeffs_match_signed_sum(vals):
    coeffs = difference_triangle(vals)
    assert coeffs == [mahler_coeff_oracle(vals, m) for m in range(len(vals))]


@given(st.lists(st.integers(min_value=-40, max_value=40), min_size=1, max_size=8))
def test_round_trip_on_sample_points(vals):
    coeffs = difference_triangle(vals)
    for z, want in enumerate(vals):
        assert sum(math.comb(z, m) * a for m, a in enumerate(coeffs)) == want


@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=2, max_size=8))
def test_difference_commutes_with_expansion(vals):
    # expanding the differenced samples gives the left-shifted coefficients
    dvals = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    assert difference_triangle(dvals) == difference_triangle(vals)[1:]


@pytest.mark.parametrize("p", [3, 5])
def test_geometric_samples_have_pure_power_coeffs(p):
    # differences of (1+p)^z at 0 collapse to p^m by the binomial theorem
    prec = 12
    mod = p**prec
    coeffs = difference_triangle([pow(1 + p, z, mod) for z in range(8)])
    assert [a % mod for a in coeffs] == [p**m % mod for m in range(8)]


@st.composite
def packed_rows(draw):
    # digits alternate between 0 and p^(2 prec) - 1 along both the samples
    # and the T-coefficients, the pattern that makes |D^m| largest, with
    # random digits mixed in at the positions hypothesis picks
    p = draw(st.sampled_from([2, 3, 5, 7]))
    prec = draw(st.integers(min_value=1, max_value=8))
    size = draw(st.integers(min_value=1, max_value=14))
    trunc = draw(st.integers(min_value=1, max_value=6))
    top = p ** (2 * prec) - 1
    digits = [
        [
            draw(st.one_of(st.just((z + s) % 2 * top), st.integers(0, top)))
            for s in range(trunc)
        ]
        for z in range(size)
    ]
    return p, prec, trunc, digits


@given(packed_rows())
def test_biased_triangle_unpacks_to_integer_differences(case):
    p, prec, trunc, digits = case
    size = len(digits)
    # the packing of action_digits for one matrix: rows are products of two
    # residues mod p^prec, and every level, row 0 included, carries the bias
    # block, which each digit sheds on unpacking
    width = 2 * (p**prec).bit_length() + size
    bias = 1 << (width - 1)
    rows = [sum(d << (width * s) for s, d in enumerate(row)) for row in digits]
    bc = pack((bias,) * trunc, width)
    firsts = difference_triangle(rows)
    assert len(firsts) == size
    for m, level in enumerate(firsts):
        want = [mahler_coeff_oracle([row[s] for row in digits], m) for s in range(trunc)]
        assert [d - bias for d in unpack(level + bc, width, trunc)] == want
