"""Characteristic series: Berkowitz engine, stability window, halo bounds.

Frozen values were computed with the cofactor oracle (an independent
determinant algorithm) and exact Fraction arithmetic on the growth
increments.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from haloslopes import checks
from haloslopes.charpoly import (
    CharSeries,
    berkowitz_charpoly,
    char_input_prec,
    char_series,
    lambda_seq,
    truncation_size,
    verify_char_bound,
    window_blocks,
)
from haloslopes.iwasawa import CharOfDelta, LambdaElt, mlambda_order
from haloslopes.monoid_action import DeltaMat
from haloslopes.padic_core import (
    BadArgument,
    PAdicNum,
    PrecisionTooLow,
    q_for,
)
from haloslopes.up_operator import UpSpec, assemble, synth_up

from oracles import (
    CoeffLambda,
    char_at_point_oracle,
    charpoly_cofactor_oracle,
    valuation_oracle,
)


def elt(p, n, trunc, ints):
    return LambdaElt.from_ints(p, n, trunc, ints)


def rand_elt(rng, p, n, trunc):
    return elt(p, n, trunc, [rng.randrange(p**n) for _ in range(trunc)])


def triv(p):
    return CharOfDelta(p, 0)


# -- growth sequence and stability window ------------------------------------


def test_truncation_size_examples():
    assert truncation_size(4, 5, 2) == 10 + 2
    assert truncation_size(2, 3, 1) == 3 + 1
    assert truncation_size(0, 5, 2) == 0


def test_lambda_seq_examples():
    lam = lambda_seq(5, 2, 10)
    assert lam[0] == 0 and lam[1] == 0
    assert lam[10] == 20
    assert lambda_seq(3, 1, 3)[3] == 3
    assert len(lam) == 11


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4))
def test_lambda_increments_nonnegative_nondecreasing(p, t):
    lam = lambda_seq(p, t, 40)
    incs = [lam[i + 1] - lam[i] for i in range(40)]
    assert all(d >= 0 for d in incs)
    assert all(a <= b for a, b in zip(incs, incs[1:]))


@pytest.mark.parametrize("p,t", [(3, 1), (3, 2), (5, 1), (5, 2), (2, 1)])
def test_lambda_closed_form_at_full_periods(p, t):
    # (p / (q (p-1))) * lambda((k+1) q t) == (k+1)^2 q t / 2
    q = q_for(p)
    for k in range(11):
        n = (k + 1) * q * t
        lam = lambda_seq(p, t, n)
        lhs = Fraction(p, q * (p - 1)) * lam[n]
        assert lhs == Fraction((k + 1) ** 2 * q * t, 2)


# -- Berkowitz against frozen values and the oracle ---------------------------


def test_berkowitz_1x1_scalar():
    cs = berkowitz_charpoly(((elt(5, 6, 4, [5]),),))
    assert cs == (LambdaElt.one(5, 6, 4), elt(5, 6, 4, [-5]))


def test_berkowitz_diag_T_p():
    T = elt(3, 5, 4, [0, 1])
    p3 = elt(3, 5, 4, [3])
    zero = LambdaElt.zero(3, 5, 4)
    cs = berkowitz_charpoly(((T, zero), (zero, p3)))
    assert cs[0] == LambdaElt.one(3, 5, 4)
    assert cs[1] == elt(3, 5, 4, [-3, -1])
    assert cs[2] == elt(3, 5, 4, [0, 3])


def cofactor_reference(mat):
    """det(I - X mat) by cofactor expansion over CoeffLambda entries.

    CoeffLambda multiplies the residues of its PAdicNum records one pair at
    a time, so no part of the packed codec that Berkowitz runs on reaches
    this side.
    """
    p, prec, trunc = mat[0][0].p, mat[0][0].prec, mat[0][0].trunc
    digits = [PAdicNum(p, prec, 0)] * trunc
    zero = CoeffLambda(tuple(digits))
    one = CoeffLambda((PAdicNum(p, prec, 1), *digits[1:]))
    rows = tuple(tuple(CoeffLambda(e.coeffs) for e in row) for row in mat)
    return charpoly_cofactor_oracle(rows, one, zero)


def assert_coefficientwise_equal(got, want):
    assert [[(c.prec, c.residue) for c in x.coeffs] for x in got] == [
        [(c.prec, c.residue) for c in x.coeffs] for x in want
    ]


@pytest.mark.parametrize("p,prec,trunc,size,seed", [
    (5, 4, 5, 4, 1),
    (5, 4, 5, 4, 2),
    (2, 6, 3, 3, 3),
    (3, 5, 4, 5, 4),
])
def test_berkowitz_matches_cofactor_oracle(p, prec, trunc, size, seed):
    rng = random.Random(seed)
    mat = tuple(
        tuple(rand_elt(rng, p, prec, trunc) for _ in range(size)) for _ in range(size)
    )
    assert_coefficientwise_equal(berkowitz_charpoly(mat), cofactor_reference(mat))


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 4),
    st.integers(1, 8),
    st.lists(st.lists(st.booleans(), min_size=6, max_size=6), min_size=1, max_size=6),
)
@example(3, 4, 8, [[True] * 6] * 6)
@example(2, 4, 8, [[False, True] * 3] * 6)
# the largest sums of this family: 0.82 of the top digit of a width one bit
# short of ring_width's
@example(5, 3, 7, [[True] * 6] * 5)
def test_berkowitz_at_the_edges_of_its_width(p, prec, trunc, full):
    # every digit of an entry is p^prec - 1 or every one is 0: products
    # reach the largest digits the packed width holds, and negating a zero
    # digit in the recurrence gives a digit of p^prec
    size = len(full)
    top = elt(p, prec, trunc, [p**prec - 1] * trunc)
    zero = LambdaElt.zero(p, prec, trunc)
    mat = tuple(tuple(top if f else zero for f in row[:size]) for row in full)
    assert_coefficientwise_equal(berkowitz_charpoly(mat), cofactor_reference(mat))


@pytest.mark.parametrize("p,prec,trunc,n", [(31, 1, 15, 12), (5, 3, 7, 12), (127, 1, 15, 12)])
def test_berkowitz_at_the_top_of_its_width(p, prec, trunc, n):
    # the companion matrix of 1 + u X + ... + u X^n, u with every digit
    # p^prec - 1, bordered by a column of u and a row of zeros: the last step
    # sums n products of a block with every digit p^prec and u, whose digit
    # at T^(trunc-1) exceeds 2^(width-1); the size is past the oracle's reach
    pn = p**prec
    zero, one = LambdaElt.zero(p, prec, trunc), LambdaElt.one(p, prec, trunc)
    u = elt(p, prec, trunc, [pn - 1] * trunc)
    rows = [[zero] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        rows[i][n - 1] = -u
        rows[i][n] = u
        if i:
            rows[i][i - 1] = one
    assert berkowitz_charpoly(tuple(map(tuple, rows))) == (one, *[u] * n, zero)


@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.data())
def test_berkowitz_triangular_is_product_of_diagonal(p, size, data):
    prec, trunc = 3, 3
    rng_ints = st.integers(0, p**prec - 1)
    mat = [[LambdaElt.zero(p, prec, trunc) for _ in range(size)] for _ in range(size)]
    diag = []
    for i in range(size):
        for j in range(i, size):
            e = elt(p, prec, trunc, data.draw(st.lists(rng_ints, min_size=trunc, max_size=trunc)))
            mat[i][j] = e
            if i == j:
                diag.append(e)
    # det(I - X M) for triangular M is the product of (1 - d_i X)
    poly = [LambdaElt.one(p, prec, trunc)]
    for d in diag:
        nxt = [poly[0]]
        for i in range(1, len(poly)):
            nxt.append(poly[i] - poly[i - 1] * d)
        nxt.append(-(poly[-1] * d))
        poly = nxt
    assert berkowitz_charpoly(tuple(tuple(r) for r in mat)) == tuple(poly)


def test_berkowitz_rejects_mixed_rings():
    a = elt(5, 4, 3, [1])
    b = elt(5, 5, 3, [1])
    with pytest.raises(BadArgument, match="entries disagree on ring parameters"):
        berkowitz_charpoly(((a, b), (b, a)))
    with pytest.raises(BadArgument, match="empty matrix"):
        berkowitz_charpoly(())


def test_berkowitz_conjugation_invariant():
    p, prec, trunc, size = 5, 6, 4, 4
    rng = random.Random(9)
    mat = [[rand_elt(rng, p, prec, trunc) for _ in range(size)] for _ in range(size)]
    units = [1 + 5 * rng.randrange(1, p ** (prec - 1)) for _ in range(size)]
    conj = tuple(
        tuple(
            mat[i][j] * (units[j] * pow(units[i], -1, p**prec))
            for j in range(size)
        )
        for i in range(size)
    )
    assert berkowitz_charpoly(conj) == berkowitz_charpoly(tuple(map(tuple, mat)))


# -- char_series on operator specs -------------------------------------------


def scaling_spec(p, n, trunc=6):
    delta = DeltaMat.from_ints(p, n, p, 0, 0, 1)
    return UpSpec(1, p, n, trunc, tuple((0, 0, delta) for _ in range(p)))


def test_char_series_scaling_triple_frozen():
    # block matrix is upper triangular with diagonal 3^(m+1), so
    # c_1 = -(3 + 9 + 27 + 81 + 243) = -363 and c_2 = 32670 at window size 5
    N = char_input_prec(3, 1, 3, 6, 6)
    cs = char_series(scaling_spec(3, N), 3, 3, triv(3))
    prec, trunc = cs.coeffs[0].prec, 6
    assert cs.coeffs[0] == LambdaElt.one(3, prec, trunc)
    assert cs.coeffs[1] == elt(3, prec, trunc, [-363])
    assert cs.coeffs[2] == elt(3, prec, trunc, [32670])
    # trace congruence: c_1 = -p modulo m^2
    assert mlambda_order(cs.coeffs[1] - elt(3, prec, trunc, [-3])).meets(2, "c_1")
    assert mlambda_order(cs.coeffs[2] - elt(3, prec, trunc, [27])).meets(4, "c_2")


def two_pass_series(spec, D, r, omega):
    """c_0..c_D from a separate assembly and Berkowitz pass at size S."""
    p, t = spec.p, spec.t
    n_blocks = max(-(-truncation_size(r, p, t) // t), -(-D // t), 1)
    return berkowitz_charpoly(assemble(spec, n_blocks, omega).entries)[: D + 1]


@pytest.mark.parametrize(
    "p,t,r,MT,N,D,seed",
    [
        # the smoke fixtures of the check registry
        (3, 1, 5, 20, char_input_prec(3, 1, 5, 20, 16), 6, 1),
        (5, 2, 4, 14, char_input_prec(5, 2, 4, 14, 10), 6, 1),
        # S certifies 6 digits but S + t only 5; the series keeps 6
        *((3, 2, 5, 3, 9, 6, seed) for seed in range(6)),
    ],
)
def test_char_series_matches_two_pass_reference(p, t, r, MT, N, D, seed):
    spec = synth_up(t, p, N, MT, seed=seed)
    cs = char_series(spec, D, r, triv(p))
    want = two_pass_series(spec, D, r, triv(p))
    assert cs.coeffs == want
    assert [c.prec for c in cs.coeffs] == [c.prec for c in want]


def test_char_series_synthetic_runs_stably():
    N = char_input_prec(3, 1, 2, 6, 4)
    spec = synth_up(1, 3, N, 6, seed=42)
    cs = char_series(spec, 4, 2, triv(3))
    assert cs.degree == 4
    assert cs.r == 2
    assert cs.coeffs[0] == LambdaElt.one(3, cs.coeffs[0].prec, 6)


def test_char_series_degree_zero_is_one():
    N = char_input_prec(3, 1, 1, 6, 2)
    cs = char_series(synth_up(1, 3, N, 6, seed=7), 0, 1, triv(3))
    assert len(cs.coeffs) == 1


def test_char_series_degree_beyond_window_rejected():
    N = char_input_prec(3, 1, 2, 6, 4)
    with pytest.raises(BadArgument):
        char_series(synth_up(1, 3, N, 6, seed=42), 5, 2, triv(3))


def test_char_series_low_precision_rejected():
    N = char_input_prec(3, 1, 2, 6, 1)
    spec = synth_up(1, 3, N, 6, seed=42)
    with pytest.raises(PrecisionTooLow):
        char_series(spec, 2, 2, triv(3))


def test_char_series_detects_unstable_tail():
    # an identity cell is not in the Up class; the resulting trace grows
    # with the window size, which the double computation must flag
    N = char_input_prec(3, 1, 1, 6, 2)
    ident = DeltaMat.from_ints(3, N, 1, 0, 0, 1)
    spec = UpSpec(1, 3, N, 6, ((0, 0, ident),))
    with pytest.raises(PrecisionTooLow, match="c_1 differs between sizes"):
        char_series(spec, 1, 1, triv(3))


@pytest.mark.parametrize("scale", ["smoke", "full"])
def test_fixture_series_match_the_newton_identity_witness(scale):
    # T -> tau = p*u maps Z/p^prec[T]/T^M_T onto Z/p^k, k = min(prec, M_T),
    # so each certified c_n at tau is the X^n coefficient of det(I - X A(tau))
    # mod p^k, computed by an algorithm with no packed codec
    for p, t, D, spec, cs in checks.fixture_series(scale):
        mat = assemble(spec, window_blocks(p, t, cs.r, D), CharOfDelta(p, 0))
        k = min(mat.entry(0, 0).prec, spec.M_T)
        for tau in (p, 2 * p):
            got = [sum(b * tau**s for s, b in enumerate(c.res)) % p**k for c in cs.coeffs]
            assert got == char_at_point_oracle(mat.entries, tau, p**k, D), (p, t, tau)


def test_char_series_undecidable_gap_is_precision_shortfall():
    # c_0 = 1 at sizes 18 and 20, but the size-20 pass is certified to 4
    # digits only: the zero gap has order >= 4, so the bound 5 is undecidable
    spec = synth_up(2, 3, 8, 1, seed=1)
    with pytest.raises(PrecisionTooLow, match="c_0 .* only order 4, bound 5 undecidable"):
        char_series(spec, 0, 5, triv(3))


def test_char_series_rejects_bad_leading_coeff():
    with pytest.raises(BadArgument):
        CharSeries((LambdaElt.zero(3, 4, 4),), 1)


# -- coefficient growth bound -------------------------------------------------


def synthetic_series(p, t, r, D, n_target, seed):
    N = char_input_prec(p, t, r, 6, n_target)
    spec = synth_up(t, p, N, 6, seed=seed)
    return char_series(spec, D, r, triv(p))


def test_verify_char_bound_synthetic():
    cs = synthetic_series(3, 1, 5, 6, 14, seed=11)
    lam = lambda_seq(3, 1, 6)
    report = verify_char_bound(cs, lam)
    assert report.ok
    assert not report.skipped
    assert [n for n, _ in report.checked] == list(range(7))
    assert all(margin >= 0 for _, margin in report.checked)


def test_verify_char_bound_coefficientwise_form_agrees():
    # order >= lambda(n) is the same as v(b_m) >= lambda(n) - m for every m
    cs = synthetic_series(3, 1, 5, 6, 14, seed=11)
    lam = lambda_seq(3, 1, 6)
    for n, c in enumerate(cs.coeffs):
        for m, b in enumerate(c.coeffs):
            assert valuation_oracle(b).meets(max(lam[n] - m, 0), f"b_{m} of c_{n}")


def test_verify_char_bound_two_block_rows():
    cs = synthetic_series(5, 2, 3, 6, 10, seed=2)
    report = verify_char_bound(cs, lambda_seq(5, 2, 6))
    assert report.ok and not report.skipped


def test_verify_char_bound_skips_targets_beyond_precision():
    p, prec, trunc = 3, 4, 6
    one = LambdaElt.one(p, prec, trunc)
    zero = LambdaElt.zero(p, prec, trunc)
    cs = CharSeries((one, zero, zero, zero, zero), 2)
    lam = lambda_seq(3, 1, 4)  # lambda(4) = 5 exceeds the 4-digit budget
    report = verify_char_bound(cs, lam)
    assert report.ok
    assert report.skipped == (4,)
    assert [n for n, _ in report.checked] == [0, 1, 2, 3]


def test_verify_char_bound_flags_violation():
    p, prec, trunc = 3, 4, 6
    one = LambdaElt.one(p, prec, trunc)
    zero = LambdaElt.zero(p, prec, trunc)
    unit = LambdaElt.from_ints(p, prec, trunc, [1])
    cs = CharSeries((one, zero, zero, unit), 2)
    report = verify_char_bound(cs, lambda_seq(3, 1, 3))  # lambda(3) = 3 > 0
    assert not report.ok
    assert [n for n, _ in report.violations] == [3]


def test_verify_char_bound_short_sequence_rejected():
    one = LambdaElt.one(3, 4, 4)
    cs = CharSeries((one, LambdaElt.zero(3, 4, 4)), 1)
    with pytest.raises(BadArgument):
        verify_char_bound(cs, lambda_seq(3, 1, 0))
