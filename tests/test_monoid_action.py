import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from haloslopes import monoid_action
from haloslopes.checks import random_monoid_matrix
from haloslopes.iwasawa import CharOfDelta, LambdaElt, mlambda_order, pack, unpack
from haloslopes.monoid_action import (
    BoundReport,
    DeltaMat,
    MonoidClass,
    NotInMonoid,
    action_digits,
    check_monoid,
    column_input_prec,
    difference_triangle,
    matrix_input_prec,
    verify_entry_bounds,
)
from haloslopes.padic_core import (
    BadArgument,
    InsufficientPrecision,
    OrderBound,
    PAdicNum,
    PrecisionTooLow,
    phi_q,
    q_for,
    torsion_residue,
)
from haloslopes.polygon import PolyPoint

from oracles import (
    ActionColumn,
    action_column,
    log_ratio_oracle,
    teichmuller_oracle,
    valuation_oracle,
)


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
        (PAdicNum(3, 5, 246), PAdicNum(3, 5, 246 - 3**5)),
        (dm(3, 10, 3, 1, 3, 2), dm(3, 10, 3 + 3**10, 1, 3, 2)),
        (CharOfDelta(5, 7), CharOfDelta(5, 3)),
        (OrderBound(4, False), OrderBound(4, False)),
        (OrderBound.exact(Fraction(2, 3)), OrderBound(Fraction(4, 6), True)),
        (PolyPoint(2, OrderBound.at_least(5)), PolyPoint(2, OrderBound(Fraction(5), False))),
        (
            BoundReport(MonoidClass.M1, 3, ((1, 0, OrderBound(0, True)),)),
            BoundReport(MonoidClass.M1, 3, ((1, 0, OrderBound(0, True)),)),
        ),
    ],
    ids=["PAdicNum", "DeltaMat", "CharOfDelta", "OrderBound", "OrderBound-valuation", "PolyPoint",
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
    # claim, in column order, and every reported order matches the object
    # path
    trunc = 6
    step = p if up else 1
    for size in (10, 9):
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
            and mlambda_order(ref[n].entries[m]).value < m - n // step + 1
        ]
        assert list(report.violations) == want


def extreme_kernel(scalar_rows, series_rows):
    """A _kernel_samples stand-in: the given samples at the kernel's own width.

    series_rows[z][s] is series digit s at sample z, packed as the kernel
    packs it, so that the certificate and the report read the same samples.
    """
    kernel = monoid_action._kernel_samples

    def samples(*args):
        _scalars, _series, width = kernel(*args)
        packed = [pack(row, width) for row in series_rows]
        return scalar_rows, packed, width

    return samples


def counted_reads(monkeypatch):
    """Record every call of action_digits, the report's one reader."""
    reads = []
    reader = monoid_action.action_digits

    def counted_digits(*args):
        reads.append(args)
        return reader(*args)

    monkeypatch.setattr(monoid_action, "action_digits", counted_digits)
    return reads


def held_series(p, size, trunc):
    """Series digit s alternating between p^size - 1 and that less the largest
    multiple of p^(size-1-s) below it, so that its j-th difference is 2^(j-1)
    times that multiple and meets its bound p^(j - s), for odd p at
    j = size - 1 with equality."""
    top = p**size - 1
    drops = [top // p ** (size - 1 - s) * p ** (size - 1 - s) for s in range(trunc)]
    return [[top - (z % 2) * e for e in drops] for z in range(size)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("up", [True, False], ids=["UpMonoid", "M1"])
def test_bound_scan_is_exact_at_its_largest_digits(monkeypatch, p, up):
    # samples alternating between zero and near-largest reduced values
    # drive every m-th difference to 2^(m-1) times the largest row digit;
    # the report must list exactly the entries whose own digits miss their
    # bound, here raised by one so that p = 2, whose 2^(m-1) factor meets
    # most bounds, fails too.  Column 0 is a unit, so the certificate fails
    # and the report reads these digits through action_digits;
    # test_bound_scan_walks_every_group_at_its_largest_digits drives the
    # certificate itself at these digits
    size, trunc = 11, 4
    target = p**size
    rng = random.Random(60_000 + 10 * p + up)
    powers = [0] + [rng.randrange(size) for _ in range(size - 1)]
    scalar = [(target - 1) // p**c * p**c for c in powers]
    rows = [[x * (z % 2) for x in scalar] for z in range(size)]
    series = [[target - 1] * trunc] * size
    monkeypatch.setattr(monoid_action, "_kernel_samples", extreme_kernel(rows, series))
    delta = rand_delta(rng, p, matrix_input_prec(p, size, trunc, size), up)
    report = verify_entry_bounds(delta, size, triv(p), trunc, raise_by=1)
    step = p if up else 1
    want = []
    for n in range(size):
        for m in range(1, size):
            # the m-th difference of R * (z odd) at 0 is (-1)^(m-1) 2^(m-1) R
            own = [(-1) ** (m - 1) * 2 ** (m - 1) * scalar[n] * d for d in series[0]]
            need = m - n // step + 1
            if need > 0 and any(d % p ** max(need - s, 0) for s, d in enumerate(own)):
                want.append((m, n, mlambda_order(LambdaElt.from_ints(p, size, trunc, own))))
    assert want
    assert list(report.violations) == want


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("up", [True, False], ids=["UpMonoid", "M1"])
@pytest.mark.parametrize("raise_by", [0, 1])
@pytest.mark.parametrize("late_fault", [False, True], ids=["held", "late-fault"])
def test_bound_scan_walks_every_group_at_its_largest_digits(
    monkeypatch, p, up, raise_by, late_fault
):
    # the certificate walks every live scalar column and every series digit.
    # Each column alternates between zero and a near-largest reduced value
    # of valuation exactly its largest demand, so each i-th difference is
    # 2^(i-1) times the largest sample and every factor bound holds (for odd
    # p the last row's with equality), and the series digits are held at
    # their largest too: the certificate must pass without reading a digit
    # through action_digits.  With late_fault the last live column instead
    # holds one value, at the last sample, one order short of its demand, so
    # that only the last row of the last live column fails; the certificate
    # must walk there, and the report must list exactly that entry
    size, trunc = 11, 4
    target = p**size
    step = p if up else 1
    rng = random.Random(61_000 + 100 * p + 10 * up + raise_by)
    demand = [size - 1 - n // step + raise_by for n in range(size)]
    last = max(n for n in range(size) if demand[n] > 0)
    powers = [d if d > 0 else rng.randrange(size) for d in demand]
    shape = [[z % 2 for _n in range(size)] for z in range(size)]
    if late_fault:
        powers[last] -= 1
        for z in range(size):
            shape[z][last] = int(z == size - 1)
    scalar = [(target - 1) // p**c * p**c for c in powers]
    rows = [[x * f for x, f in zip(scalar, fs)] for fs in shape]
    series = held_series(p, size, trunc)
    monkeypatch.setattr(monoid_action, "_kernel_samples", extreme_kernel(rows, series))
    reads = counted_reads(monkeypatch)
    delta = rand_delta(rng, p, matrix_input_prec(p, size, trunc, size), up)
    report = verify_entry_bounds(delta, size, triv(p), trunc, raise_by=raise_by)
    want = []
    if late_fault:
        # the m-th difference at 0 of R * (z == size - 1) * G is R * G(size - 1)
        # at m = size - 1, and 0 below it
        own = [scalar[last] * d for d in series[size - 1]]
        want.append((size - 1, last, mlambda_order(LambdaElt.from_ints(p, size, trunc, own))))
        assert want[0][2].value == demand[last] - 1
    assert list(report.violations) == want
    assert len(reads) == late_fault


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("up", [True, False], ids=["UpMonoid", "M1"])
def test_certificate_finds_a_series_digit_one_order_short(monkeypatch, p, up):
    # column 0 is a constant unit and every other scalar column is zero, so
    # P_{m,0} is the m-th difference of the series itself.  The series is
    # held at its largest digits, except digit s0, which holds one value, at
    # the last sample, one order below its bound p^(size-1-s0): the
    # certificate must test that digit's last row, and the report must list
    # exactly (size - 1, 0), one order short of its demand size - 1
    size, trunc = 11, 4
    target = p**size
    rng = random.Random(62_000 + 10 * p + up)
    s0 = rng.randrange(trunc)
    rows = [[target - 1] + [0] * (size - 1) for _z in range(size)]
    series = held_series(p, size, trunc)
    short = (target - 1) // p ** (size - 2 - s0) * p ** (size - 2 - s0)
    for z in range(size):
        series[z][s0] = short * (z == size - 1)
    monkeypatch.setattr(monoid_action, "_kernel_samples", extreme_kernel(rows, series))
    reads = counted_reads(monkeypatch)
    delta = rand_delta(rng, p, matrix_input_prec(p, size, trunc, size), up)
    report = verify_entry_bounds(delta, size, triv(p), trunc)
    assert len(reads) == 1
    # digit s of P_{size-1,0} is (target - 1) times the last difference of
    # series digit s
    own = [
        (target - 1) * difference_triangle([row[s] for row in series], 0)[-1]
        for s in range(trunc)
    ]
    order = mlambda_order(LambdaElt.from_ints(p, size, trunc, own))
    assert order.value == size - 2
    assert list(report.violations) == [(size - 1, 0, order)]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("up", [True, False], ids=["UpMonoid", "M1"])
def test_sample_factors_meet_their_mahler_bounds(monkeypatch, p, up):
    # the i-th Mahler coefficient of scalar column n, C(f(z), n) * omega(d0),
    # is divisible by p^(i - n//step), and the j-th of series digit s by
    # p^(j - s); C(z,i) C(z,j) has integer Mahler coefficients only at
    # max(i,j) <= k <= i+j, so the two bounds multiply to the entry bound
    # that verify_entry_bounds certifies.  At size 40 these are the
    # benchmark's matrices, and they must certify from their factors alone:
    # a factor bound stricter than the truth would send them to the report,
    # which reads every entry through action_digits
    trunc = 8
    step = p if up else 1
    reads = counted_reads(monkeypatch)
    for size in (12, 40):
        rng = random.Random(40_000 + 100 * size + 10 * p + up)
        prec = matrix_input_prec(p, size, trunc, size)
        for _ in range(4):
            delta = random_monoid_matrix(rng, p, prec, up)
            omega = CharOfDelta(p, rng.randrange(phi_q(p)))
            scalars, series, width = monoid_action._kernel_samples(
                delta, size, omega, trunc, size
            )
            for n, column in enumerate(zip(*scalars)):
                for i, coeff in enumerate(difference_triangle(list(column), 0)):
                    assert coeff % p ** max(i - n // step, 0) == 0, (n, i)
            digits = [unpack(packed, width, trunc) for packed in series]
            for s, column in enumerate(zip(*digits)):
                for j, coeff in enumerate(difference_triangle(list(column), 0)):
                    assert coeff % p ** max(j - s, 0) == 0, (s, j)
            assert verify_entry_bounds(delta, size, omega, trunc).ok
    assert reads == []


@given(st.integers(0, 15), st.integers(0, 15))
def test_binomial_products_expand_from_the_larger_index_to_the_sum(i, j):
    # the lemma the certificate rests on: C(z,i) C(z,j) has integer Mahler
    # coefficients, nonzero exactly at max(i,j) <= k <= i+j
    coeffs = difference_triangle([math.comb(z, i) * math.comb(z, j) for z in range(32)], 0)
    assert all(type(c) is int for c in coeffs)
    assert [k for k, c in enumerate(coeffs) if c] == list(range(max(i, j), i + j + 1))


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


def test_column_support_shape():
    # mod m^r, column n of a U_p-class matrix has few nonzero rows
    p, size, r = 3, 12, 3
    nt = size
    prec = matrix_input_prec(p, size, 6, nt) + 2
    delta = dm(p, prec, 3, 1, 3, 2)
    cols = columns(delta, size, triv(p), 6, nt)
    for col in cols:
        live = sum(
            1 for e in col.entries if mlambda_order(e).value < r
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
    v = valuation_oracle(acc.coeffs[0])
    assert v == OrderBound.exact(1)
