import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from haloslopes import monoid_action
from haloslopes.iwasawa import CharOfDelta, LambdaElt, OrderBound, mlambda_order
from haloslopes.monoid_action import (
    COLUMN_GROUP,
    BoundReport,
    DeltaMat,
    MonoidClass,
    NotInMonoid,
    _divisible,
    _order_tests,
    action_digits,
    check_monoid,
    column_input_prec,
    matrix_input_prec,
    verify_entry_bounds,
)
from haloslopes.padic_core import (
    BadArgument,
    InsufficientPrecision,
    PAdicNum,
    PrecisionTooLow,
    Valuation,
    q_for,
    torsion_residue,
    val_p,
    val_p_int,
)
from haloslopes.polygon import PolyPoint

from oracles import ActionColumn, action_column, log_ratio_oracle, teichmuller_oracle


def dm(p, prec, a, b, c, d):
    return DeltaMat.from_ints(p, prec, a, b, c, d)


def triv(p):
    return CharOfDelta(p, 0)


def columns(delta, size, omega, trunc, nt):
    """Packed-kernel columns 0..size-1, each with rows 0..size-1, at nt digits."""
    entries = [[] for _ in range(size)]
    for m, n, digits in action_digits(delta, size, omega, trunc, nt):
        assert m == len(entries[n])
        entries[n].append(LambdaElt.from_ints(delta.p, nt, trunc, digits))
    return [ActionColumn(n, tuple(col)) for n, col in enumerate(entries)]


def oracle_columns(delta, size, omega, trunc, nt):
    """Reference columns 0..size-1 from the per-entry object path."""
    return [action_column(delta, n, omega, size - 1, trunc, nt) for n in range(size)]


# -- value types ------------------------------------------------------------


@pytest.mark.parametrize(
    "value, same",
    [
        (PAdicNum(3, 5, 246), PAdicNum(3, 3, 3)),
        (dm(3, 10, 3, 1, 3, 2), dm(3, 10, 3 + 3**10, 1, 3, 2)),
        (CharOfDelta(5, 7), CharOfDelta(5, 3)),
        (OrderBound(4, False), OrderBound(4, False)),
        (Valuation.exact(Fraction(2, 3)), Valuation(Fraction(4, 6), True)),
        (PolyPoint(2, Valuation.at_least(5)), PolyPoint(2, Valuation(Fraction(5), False))),
        (
            BoundReport(MonoidClass.M1, 3, ((1, 0, OrderBound(0, True)),)),
            BoundReport(MonoidClass.M1, 3, ((1, 0, OrderBound(0, True)),)),
        ),
    ],
    ids=["PAdicNum", "DeltaMat", "CharOfDelta", "OrderBound", "Valuation", "PolyPoint",
         "BoundReport"],
)
def test_value_types_are_slotted_frozen_and_keep_equality(value, same):
    # slotted: no per-instance dict; frozen: no field or new attribute set.
    # Records (NamedTuple) list their fields in _fields, classes in __slots__
    assert not hasattr(value, "__dict__")
    names = getattr(value, "_fields", None) or type(value).__slots__
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == same and hash(value) == hash(same)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value and hash(copy) == hash(value)
    assert [getattr(copy, name) for name in names] == [getattr(value, name) for name in names]


# -- classification ---------------------------------------------------------


def test_classification_examples():
    assert check_monoid(dm(3, 10, 1, 0, 0, 1)) is MonoidClass.M1
    assert check_monoid(dm(3, 10, 3, 0, 0, 1)) is MonoidClass.UpMonoid
    assert check_monoid(dm(3, 10, 1, 0, 1, 1)) is MonoidClass.Neither
    # determinant must not vanish at working precision
    assert check_monoid(dm(5, 10, 5, 1, 5, 1)) is MonoidClass.Neither
    # for p=2 the congruence on c is mod 4
    assert check_monoid(dm(2, 10, 1, 0, 2, 1)) is MonoidClass.Neither
    assert check_monoid(dm(2, 10, 1, 0, 4, 1)) is MonoidClass.M1
    # d must be a unit
    assert check_monoid(dm(3, 10, 1, 1, 3, 3)) is MonoidClass.Neither


def test_torsion_part_components():
    assert torsion_residue(5, 2, 8) == 1
    assert torsion_residue(3, 2, 8) == 2**8 - 1
    assert torsion_residue(2, 5, 12) == teichmuller_oracle(5, 12, 2)


# -- single columns ---------------------------------------------------------


def test_identity_column_is_basis_vector():
    delta = dm(3, 30, 1, 0, 0, 1)
    col = columns(delta, 8, triv(3), 5, 6)[4]
    one = LambdaElt.one(3, 6, 5)
    zero = LambdaElt.zero(3, 6, 5)
    for m, e in enumerate(col.entries):
        assert e == (one if m == 4 else zero)


def test_scaling_matrix_columns():
    delta = dm(5, 30, 5, 0, 0, 1)
    cols = columns(delta, 6, triv(5), 4, 6)
    want = [0, 5, 0, 0, 0, 0]
    for m, e in enumerate(cols[1].entries):
        assert e == LambdaElt.from_ints(5, 6, 4, [want[m]])
    col5 = cols[5]
    assert col5.entries[0] == LambdaElt.zero(5, 6, 4)
    assert col5.entries[1] == LambdaElt.one(5, 6, 4)
    # second difference of C(5z,5) at 0 is C(10,5) - 2C(5,5) = 250
    assert col5.entries[2] == LambdaElt.from_ints(5, 6, 4, [250])


def test_column_rejects_bad_matrix_and_short_precision():
    with pytest.raises(NotInMonoid):
        action_column(dm(3, 20, 1, 0, 1, 1), 0, triv(3), 2)
    with pytest.raises(InsufficientPrecision):
        action_column(dm(3, 3, 1, 0, 0, 1), 6, triv(3), 6, trunc=5, n_target=8)


def test_diagonal_torsion_pipeline_vs_oracles_odd():
    # delta = (1,0;0,2) at p=5: row 0 of column 0 is tau(2) * (1+T)^{log(2/tau(2))/5}
    p, w, nt, trunc = 5, 20, 6, 5
    delta = dm(p, w, 1, 0, 0, 2)
    col = columns(delta, 1, CharOfDelta(p, 1), trunc, nt)[0]
    tau = teichmuller_oracle(p, w, 2)
    u = 2 * pow(tau, -1, p**w) % p**w
    g = log_ratio_oracle(p, p, u, 10)
    for r in range(trunc):
        want = math.comb(g, r) * tau % p**nt
        assert col.entries[0].coeffs[r] == PAdicNum(p, nt, want)


def test_diagonal_torsion_pipeline_vs_oracles_two():
    # delta = (1,0;0,3) at p=2: torsion is the sign, so row 0 of column 0
    # is -(1+T)^{log(-3)/4}
    p, w, nt, trunc = 2, 26, 6, 4
    delta = dm(p, w, 1, 0, 0, 3)
    col = columns(delta, 1, CharOfDelta(p, 1), trunc, nt)[0]
    u = (p**w) - 3
    g = log_ratio_oracle(p, 4, u, 14)
    for r in range(trunc):
        want = -math.comb(g, r) % p**nt
        assert col.entries[0].coeffs[r] == PAdicNum(p, nt, want)


# -- packed engine agrees with the object path ------------------------------


def rand_delta(rng, p, prec, up: bool):
    q = q_for(p)
    while True:
        a = p * rng.randrange(1, p**6) if up else 1 + p * rng.randrange(p**6)
        b = rng.randrange(p**6)
        c = q * rng.randrange(p**6)
        d = 1 + p * rng.randrange(p**6) if p != 2 else 1 + 2 * rng.randrange(2**6)
        delta = dm(p, prec, a, b, c, d)
        if check_monoid(delta) is not MonoidClass.Neither:
            return delta


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("up", [True, False])
def test_packed_matches_object_path(p, up):
    # with slack, and at the exact budget where assemble runs its entries;
    # sizes 1 and 2 leave the triangle no level or a single one
    trunc, nt = 5, 8
    for size in (8, 2, 1):
        for slack in (2, 0):
            prec = matrix_input_prec(p, size, trunc, nt) + slack
            rng = random.Random(90_000 + 10 * p + up)
            for _ in range(3):
                delta = rand_delta(rng, p, prec, up)
                omega = CharOfDelta(p, rng.randrange(4))
                ref = oracle_columns(delta, size, omega, trunc, nt)
                fast = columns(delta, size, omega, trunc, nt)
                assert len(fast) == size
                assert ref == fast


# -- entry bounds -----------------------------------------------------------


def test_bounds_up_class_mixed_congruences():
    # a = p and c = q exercise both congruence constraints at once
    p = 5
    prec = matrix_input_prec(p, 25, 24, 25) + 2
    report = verify_entry_bounds(dm(p, prec, 5, 1, 5, 6), 25, triv(p))
    assert report.ok
    assert report.monoid_class is MonoidClass.UpMonoid


def test_bounds_identity():
    report = verify_entry_bounds(dm(3, 40, 1, 0, 0, 1), 10, triv(3))
    assert report.ok
    assert report.monoid_class is MonoidClass.M1


def test_bounds_m1_class_does_not_assert_up_shape():
    p = 3
    prec = matrix_input_prec(p, 20, 24, 20) + 2
    report = verify_entry_bounds(dm(p, prec, 1, 1, 3, 1), 20, triv(p))
    assert report.ok
    assert report.monoid_class is MonoidClass.M1


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("up", [True, False], ids=["UpMonoid", "M1"])
def test_bounds_report_violation_orders_of_the_reference_path(p, up):
    # a bound raised by one must fail at the unit P_{0,0}; the reported
    # entries are exactly those whose reference order misses the raised
    # claim, in column order across the column groups of the scan, and
    # every reported order matches the object path
    trunc = 6
    step = p if up else 1
    for size in (10, 2 * COLUMN_GROUP + 1):
        rng = random.Random(70_000 + 10 * p + up)
        delta = rand_delta(rng, p, matrix_input_prec(p, size, trunc, size), up)
        omega = CharOfDelta(p, rng.randrange(4))
        report = verify_entry_bounds(delta, size, omega, trunc, raise_by=1)
        assert report.monoid_class is (MonoidClass.UpMonoid if up else MonoidClass.M1)
        assert report.violations[0][:2] == (0, 0)
        ref = oracle_columns(delta, size, omega, trunc, size)
        want = [
            (m, n, mlambda_order(ref[n].entries[m]))
            for n in range(size)
            for m in range(size)
            if m - n // step + 1 > 0
            and not mlambda_order(ref[n].entries[m]).certainly_at_least(m - n // step + 1)
        ]
        assert list(report.violations) == want


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("up", [True, False], ids=["UpMonoid", "M1"])
def test_bound_scan_is_exact_at_its_largest_digits(monkeypatch, p, up):
    # samples alternating between zero and near-largest reduced values
    # drive every m-th difference to 2^(m-1) times the largest row digit,
    # the growth the scan's width is sized for; the scan must report
    # exactly the entries whose own digits miss their bound, here raised
    # by one so that p = 2, whose 2^(m-1) factor meets most bounds, fails too
    size, trunc = 2 * COLUMN_GROUP + 3, 4
    target = p**size
    rng = random.Random(60_000 + 10 * p + up)
    # column 0 a unit, so that P_{1,0} fails its raised bound
    powers = [0] + [rng.randrange(size) for _ in range(size - 1)]
    scalar = [(target - 1) // p**c * p**c for c in powers]
    digit = [(target - 1) * p**s for s in range(trunc)]
    kernel = monoid_action._kernel_samples

    def extreme_samples(*args, **kwargs):
        _scalars, _series, width = kernel(*args, **kwargs)
        packed = sum(d << (width * s) for s, d in enumerate(digit))
        return [[x * (z % 2) for x in scalar] for z in range(size)], [packed] * size, width

    monkeypatch.setattr(monoid_action, "_kernel_samples", extreme_samples)
    delta = rand_delta(rng, p, matrix_input_prec(p, size, trunc, size), up)
    report = verify_entry_bounds(delta, size, triv(p), trunc, raise_by=1)
    step = p if up else 1
    want = []
    for n in range(size):
        for m in range(1, size):
            # the m-th difference of R * (z odd) at 0 is (-1)^(m-1) 2^(m-1) R
            own = [(-1) ** (m - 1) * 2 ** (m - 1) * scalar[n] * d for d in digit]
            need = m - n // step + 1
            if need > 0 and any(d % p**need for d in own):
                b = [d // p**s for s, d in enumerate(own)]
                want.append((m, n, mlambda_order(LambdaElt.from_ints(p, size, trunc, b))))
    assert want
    assert list(report.violations) == want


def test_bounds_refuse_orders_past_the_certified_digits():
    delta = dm(3, matrix_input_prec(3, 10, 6, 10), 3, 1, 3, 2)
    assert verify_entry_bounds(delta, 10, triv(3), 6, raise_by=1).violations
    with pytest.raises(BadArgument):
        verify_entry_bounds(delta, 10, triv(3), 6, raise_by=2)


def test_bounds_need_enough_precision():
    with pytest.raises(PrecisionTooLow):
        verify_entry_bounds(dm(5, 6, 5, 1, 5, 6), 25, triv(5))


def test_bounds_reject_non_monoid():
    with pytest.raises(NotInMonoid):
        verify_entry_bounds(dm(3, 40, 1, 0, 1, 1), 5, triv(3))


@st.composite
def packed_entries(draw):
    # an entry at the bound scan's width: digits anywhere in the certified
    # range, at its ends, zero, or multiples of the tested p^r
    p = draw(st.sampled_from([2, 3, 5, 7]))
    size = draw(st.integers(1, 14))
    trunc = draw(st.integers(1, 8))
    r = draw(st.integers(1, size))
    width = 2 * (p**size).bit_length() + (p ** (trunc - 1)).bit_length() + size + 4
    top = (1 << (width - 5)) - 1
    pi = p**r
    digit = st.one_of(
        st.sampled_from([top, -top, 0]),
        st.integers(-(top // pi), top // pi).map(lambda k: k * pi),
        st.integers(-top, top),
    )
    digits = draw(st.lists(digit, min_size=trunc, max_size=trunc))
    return p, size, trunc, r, width, digits


def pack(digits, width):
    return sum(d << (width * s) for s, d in enumerate(digits))


@given(packed_entries())
def test_order_test_matches_digitwise_divisibility(case):
    p, size, trunc, r, width, digits = case
    tests = _order_tests(p, width, trunc, size)
    assert _divisible(pack(digits, width), *tests[r]) == all(
        d % p**r == 0 for d in digits
    )


@given(packed_entries(), st.data())
def test_order_test_finds_the_one_short_coefficient(case, data):
    # kernel form d_s = p^s b_s: in (p, T)^r iff v(b_s) >= r - s for s < r
    p, size, trunc, r, width, _digits = case
    tests = _order_tests(p, width, trunc, size)
    top = (1 << (width - 5)) - 1
    # room for the one-coefficient change below
    cap = [(top - p**r) // p ** max(r, s) for s in range(trunc)]
    good = [p ** max(r - s, 0) * data.draw(st.integers(-c, c)) for s, c in enumerate(cap)]
    assert _divisible(pack([p**s * b for s, b in enumerate(good)], width), *tests[r])
    assert _divisible(0, *tests[r])
    for s in range(min(r, trunc)):
        unit = data.draw(st.integers(1, p - 1)) * data.draw(st.sampled_from([1, -1]))
        bad = list(good)
        bad[s] = good[s] + unit * p ** (r - s - 1)
        assert val_p_int(bad[s], p) == r - s - 1
        digits = [p**j * b for j, b in enumerate(bad)]
        assert max(map(abs, digits)) <= top
        assert not _divisible(pack(digits, width), *tests[r])


@st.composite
def grouped_entries(draw):
    # up to COLUMN_GROUP entries, column j scaled by p^e_j with e_0 = 0, at
    # the bound scan's width with its bits(p^e_max) term; each column's
    # digits anywhere in its certified range, at its ends, zero, or
    # multiples of p^(r - e_j), the order its own column demands, and half
    # of the columns drawn from the multiples alone
    p = draw(st.sampled_from([2, 3, 5, 7]))
    size = draw(st.integers(1, 14))
    trunc = draw(st.integers(1, 8))
    r = draw(st.integers(1, size))
    steps = draw(st.lists(st.integers(0, 2), min_size=0, max_size=COLUMN_GROUP - 1))
    exps = [sum(steps[:j]) for j in range(len(steps) + 1)]
    width = (
        2 * (p**size).bit_length()
        + (p ** (trunc - 1)).bit_length()
        + (p ** exps[-1]).bit_length()
        + size
        + 4
    )
    top = (1 << (width - 5)) - 1
    columns = []
    for e in exps:
        cap = top // p**e
        pi = p ** max(r - e, 0)
        multiple = st.integers(-(cap // pi), cap // pi).map(lambda k, pi=pi: k * pi)
        ends = st.sampled_from([cap // pi * pi, -(cap // pi) * pi, 0])
        digit = st.one_of(ends, multiple)
        if draw(st.booleans()):
            digit = st.one_of(digit, st.sampled_from([cap, -cap]), st.integers(-cap, cap))
        columns.append(draw(st.lists(digit, min_size=trunc, max_size=trunc)))
    return p, size, trunc, r, width, exps, columns


@given(grouped_entries())
def test_group_test_passes_iff_every_column_passes(case):
    # one test of order r on the scaled, packed group decides each column
    # at its own demand r - e_j, which a column with r <= e_j meets always
    p, size, trunc, r, width, exps, columns = case
    tests = _order_tests(p, width, trunc * COLUMN_GROUP, size)
    scaled = [p**e * d for e, digits in zip(exps, columns) for d in digits]
    own = all(
        r <= e or all(d % p ** (r - e) == 0 for d in digits)
        for e, digits in zip(exps, columns)
    )
    assert _divisible(pack(scaled, width), *tests[r]) == own


def test_column_support_shape():
    # mod m^r, column n of a U_p-class matrix has few nonzero rows
    p, size, r = 3, 12, 3
    nt = size
    prec = matrix_input_prec(p, size, 6, nt) + 2
    delta = dm(p, prec, 3, 1, 3, 2)
    cols = columns(delta, size, triv(p), 6, nt)
    for col in cols:
        live = sum(
            1 for e in col.entries if not mlambda_order(e).certainly_at_least(r)
        )
        assert live <= col.n // p + r


# -- composition ------------------------------------------------------------


def matrix_product(cols_outer, cols_inner, size):
    out = []
    for n in range(size):
        entries = []
        for m in range(size):
            acc = None
            for k in range(size):
                term = cols_outer[k].entries[m] * cols_inner[n].entries[k]
                acc = term if acc is None else acc + term
            entries.append(acc)
        out.append(entries)
    return out


@pytest.mark.parametrize(
    "p,d1,d2",
    [
        (2, (1, 1, 4, 1), (3, 2, 8, 5)),
        (3, (3, 1, 3, 2), (6, 2, 9, 1)),
    ],
)
def test_composition_matches_product(p, d1, d2):
    # applying delta1 then delta2 is the action of delta1*delta2, and the
    # truncated matrices agree where the truncation tail provably vanishes
    size, trunc, nt, prec = 12, 4, 3, 20
    omega = CharOfDelta(p, 1)
    delta1 = dm(p, prec, *d1)
    delta2 = dm(p, prec, *d2)
    (a, b, c, d), (e, f, g, h) = d1, d2
    both = DeltaMat(p, prec, a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    cols1 = columns(delta1, size, omega, trunc, nt)
    cols2 = columns(delta2, size, omega, trunc, nt)
    cols12 = columns(both, size, omega, trunc, nt)
    prod = matrix_product(cols2, cols1, size)
    for n in range(size - size // p):
        for m in range(size):
            assert prod[n][m] == cols12[n].entries[m], (m, n)


# -- non-compactness regression ---------------------------------------------


def test_summed_scaling_column_not_divisible_by_p_squared():
    # sum of f(pz+i) over i < p: at column p^2, row p, the entry is p * unit
    p, nt = 3, 6
    prec = column_input_prec(p, 9, 4, nt) + 2
    acc = None
    for i in range(p):
        col = columns(dm(p, prec, p, i, 0, 1), 10, triv(p), 4, nt)[9]
        acc = col.entries[3] if acc is None else acc + col.entries[3]
    assert acc.coeffs[0] == PAdicNum(p, nt, 66)
    v = val_p(acc.coeffs[0])
    assert v.is_exact and v.bound == 1
