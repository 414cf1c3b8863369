import json

import pytest
from hypothesis import given, strategies as st

from haloslopes.iwasawa import CharOfDelta, HaloElt, LambdaElt, mlambda_order
from haloslopes.monoid_action import DeltaMat, NotInMonoid, action_digits, matrix_input_prec
from haloslopes.padic_core import (
    BadArgument,
    InsufficientPrecision,
    OrderBound,
    PrecisionTooLow,
    val_p_int,
)
from haloslopes.up_operator import (
    BlockMatrix,
    Ingested,
    InvariantViolation,
    ParseError,
    Synthetic,
    UpSpec,
    assemble,
    attainable_target,
    block_bound,
    certified_target,
    halo_bound,
    halo_bounds,
    load_up,
    rescale_halo_basis,
    save_up,
    synth_up,
    verify_block_bounds,
)

from oracles import action_column


def triv(p):
    return CharOfDelta(p, 0)


def scaling_spec(p, n, count=None, t=1):
    """t=1 operator made of copies of (p,0;0,1)."""
    delta = DeltaMat.from_ints(p, n, p, 0, 0, 1)
    return UpSpec(t, p, n, 6, tuple((0, 0, delta) for _ in range(count or p)), None)


# -- synthesis --------------------------------------------------------------


def test_synth_single_coset_class():
    spec = synth_up(1, 3, 20, seed=5)
    assert len(spec.cells) == 3
    assert all((i, j) == (0, 0) for i, j, _ in spec.cells)
    spec.validate()


def test_synth_row_and_column_counts():
    spec = synth_up(2, 3, 20, seed=11)
    for axis in (0, 1):
        for idx in range(2):
            assert sum(1 for c in spec.cells if c[axis] == idx) == 3
    spec.validate()


def test_synth_is_deterministic():
    assert synth_up(2, 5, 18, seed=42) == synth_up(2, 5, 18, seed=42)
    assert synth_up(2, 5, 18, seed=42) != synth_up(2, 5, 18, seed=43)


def test_synth_determinant_valuations():
    for p in (2, 3, 5):
        spec = synth_up(2, p, 16, seed=9)
        for _, _, delta in spec.cells:
            a, b, c, d = delta.residues
            assert val_p_int((a * d - b * c) % p**delta.prec, p) == 1


def test_synth_rejects_single_digit_precision():
    # at N = 1 every U_p-class determinant is 0 mod p; the draw loop never ends
    with pytest.raises(BadArgument):
        synth_up(1, 3, 1)


def test_synth_provenance():
    assert synth_up(1, 3, 12, seed=4).provenance == Synthetic(4)


# -- file round trip --------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    spec = synth_up(2, 3, 20, seed=1)
    path = tmp_path / "op.json"
    save_up(spec, str(path))
    loaded = load_up(str(path))
    assert loaded.cells == spec.cells
    assert (loaded.p, loaded.t, loaded.N) == (spec.p, spec.t, spec.N)
    assert loaded.provenance == Ingested(str(path))


def test_load_rejects_bad_counts(tmp_path):
    spec = synth_up(2, 3, 20, seed=1)
    obj = spec.to_json()
    obj["cells"] = obj["cells"][:-1]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(InvariantViolation):
        load_up(str(path))


def test_load_rejects_wrong_class(tmp_path):
    spec = synth_up(1, 3, 20, seed=2)
    obj = spec.to_json()
    obj["cells"][0]["delta"]["a"] = "1"  # p no longer divides a
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(InvariantViolation):
        load_up(str(path))


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_up(str(path))
    path.write_text(json.dumps({"p": 3, "t": 1}))
    with pytest.raises(ParseError):
        load_up(str(path))


# -- assembly ---------------------------------------------------------------


def test_assemble_triple_scaling_matrix():
    spec = scaling_spec(3, 24)
    mat = assemble(spec, 2, triv(3))
    nt = mat.entry(0, 0).prec
    assert mat.entry(0, 0) == LambdaElt.from_ints(3, nt, 6, [3])
    assert mat.entry(1, 1) == LambdaElt.from_ints(3, nt, 6, [9])
    assert mat.entry(0, 1) == LambdaElt.zero(3, nt, 6)
    assert mat.entry(1, 0) == LambdaElt.zero(3, nt, 6)


def test_assemble_single_block_is_weight_action_on_constants():
    spec = scaling_spec(3, 24)
    mat = assemble(spec, 1, triv(3))
    assert mat.size == 1
    nt = mat.entry(0, 0).prec
    assert mat.entry(0, 0) == LambdaElt.from_ints(3, nt, 6, [3])


def test_assemble_empty_cell_gives_zero_block():
    p, n = 3, 24
    d1 = DeltaMat.from_ints(p, n, p, 1, 0, 1)
    d2 = DeltaMat.from_ints(p, n, p, 0, p, 2)
    cells = tuple((0, 0, d1) for _ in range(p)) + tuple((1, 1, d2) for _ in range(p))
    spec = UpSpec(2, p, n, 5, cells, None)
    spec.validate()
    mat = assemble(spec, 2, triv(p))
    nt = mat.entry(0, 0).prec
    zero = LambdaElt.zero(p, nt, 5)
    for m in range(2):
        for n_ in range(2):
            assert mat.entry(2 * m, 2 * n_ + 1) == zero
            assert mat.entry(2 * m + 1, 2 * n_) == zero


def test_assemble_linear_in_cells():
    p, n = 3, 24
    full = scaling_spec(p, n)
    first = UpSpec(1, p, n, 6, full.cells[:1], None)
    rest = UpSpec(1, p, n, 6, full.cells[1:], None)
    whole = assemble(full, 3, triv(p))
    part_a = assemble(first, 3, triv(p))
    part_b = assemble(rest, 3, triv(p))
    for r in range(3):
        for c in range(3):
            assert whole.entry(r, c) == part_a.entry(r, c) + part_b.entry(r, c)


def test_assemble_deterministic():
    spec = synth_up(2, 3, 22, M_T=5, seed=8)
    assert assemble(spec, 3, triv(3)) == assemble(spec, 3, triv(3))


def oracle_assemble(spec, n_blocks, omega, n_target):
    """Block matrix summed entry by entry from the reference action columns."""
    p, t, trunc = spec.p, spec.t, spec.M_T
    size = t * n_blocks
    grid = [[LambdaElt.zero(p, n_target, trunc)] * size for _ in range(size)]
    for i, j, delta in spec.cells:
        for n in range(n_blocks):
            col = action_column(delta, n, omega, n_blocks - 1, trunc, n_target)
            for m in range(n_blocks):
                grid[m * t + i][n * t + j] = grid[m * t + i][n * t + j] + col.entries[m]
    return grid


@pytest.mark.parametrize("p,t,seed", [(2, 1, 5), (3, 2, 8), (5, 1, 3)])
def test_assemble_matches_reference_path(p, t, seed):
    nb, trunc = 3, 5
    N = matrix_input_prec(p, nb, trunc, 6)
    spec = synth_up(t, p, N, trunc, seed=seed)
    omega = CharOfDelta(p, 1)
    mat = assemble(spec, nb, omega)
    nt = attainable_target(p, nb, trunc, N)
    assert {e.prec for row in mat.entries for e in row} == {nt}
    assert [list(row) for row in mat.entries] == oracle_assemble(spec, nb, omega, nt)


@st.composite
def synth_assemblies(draw):
    """A synth_up operator, or a prefix of its cells, with 1 to 3 blocks."""
    p = draw(st.sampled_from([2, 3, 5]))
    t = draw(st.integers(1, 2))
    n_blocks = draw(st.integers(1, 3))
    trunc = draw(st.integers(1, 4))
    N = max(matrix_input_prec(p, n_blocks, trunc, draw(st.integers(1, 6))), 2)
    spec = synth_up(t, p, N, trunc, seed=draw(st.integers(0, 2**16)))
    cells = spec.cells[: draw(st.integers(1, len(spec.cells)))]
    return spec._replace(cells=cells), n_blocks, CharOfDelta(p, draw(st.integers(0, 3)))


@given(synth_assemblies())
def test_assemble_sums_the_kernel_digits_of_each_cell(case):
    # every entry is the sum over its cell's matrices of the digits that the
    # kernel gives for each matrix alone, reduced once; an empty cell's
    # entries are zero
    spec, n_blocks, omega = case
    p, t, trunc = spec.p, spec.t, spec.M_T
    nt = certified_target(spec, n_blocks)
    size = t * n_blocks
    sums = [[[0] * trunc for _ in range(size)] for _ in range(size)]
    for i, j, delta in spec.cells:
        for m, n, digits in action_digits((delta,), n_blocks, omega, trunc, nt):
            acc = sums[m * t + i][n * t + j]
            for s, digit in enumerate(digits):
                acc[s] += digit
    filled = {(i, j) for i, j, _delta in spec.cells}
    mat = assemble(spec, n_blocks, omega)
    for row in range(size):
        for col in range(size):
            entry = mat.entry(row, col)
            assert (entry.p, entry.prec) == (p, nt)
            assert entry.res == tuple(d % p**nt for d in sums[row][col])
            if (row % t, col % t) not in filled:
                assert entry == LambdaElt.zero(p, nt, trunc)


def test_assemble_rejects_bad_matrix_and_short_precision():
    good = DeltaMat.from_ints(3, 24, 3, 0, 0, 1)
    bad = DeltaMat.from_ints(3, 24, 1, 0, 1, 1)
    with pytest.raises(NotInMonoid):
        assemble(UpSpec(1, 3, 24, 6, ((0, 0, good), (0, 0, bad)), None), 2, triv(3))
    short = DeltaMat.from_ints(3, 5, 3, 0, 0, 1)
    with pytest.raises(InsufficientPrecision):
        assemble(UpSpec(1, 3, 24, 6, ((0, 0, good), (0, 0, short)), None), 2, triv(3))


def test_assemble_needs_precision():
    with pytest.raises(InsufficientPrecision):
        assemble(scaling_spec(3, 2), 9, triv(3))


@pytest.mark.parametrize("i, j", [(0, -1), (2, 0)])
def test_assemble_rejects_cell_indices_out_of_range(i, j):
    # a negative index would wrap into the last block column, and one past
    # t would index past the grid
    delta = DeltaMat.from_ints(3, 24, 3, 0, 0, 1)
    spec = UpSpec(2, 3, 24, 4, ((i, j, delta),), None)
    with pytest.raises(InvariantViolation, match=rf"cell index \({i},{j}\) out of range"):
        assemble(spec, 2, triv(3))


# -- block bounds -----------------------------------------------------------


def test_block_bound_formula():
    assert block_bound(7, 0, 2, 3) == 3
    assert block_bound(7, 6, 2, 3) == 2
    assert block_bound(1, 8, 2, 3) == 0


def test_halo_bound_formula():
    # t = 2, p = 3: floor(col/2) - floor(col/6)
    assert [halo_bound(col, 2, 3) for col in range(8)] == [0, 0, 1, 1, 2, 2, 2, 2]
    assert halo_bound(12, 2, 3) == 6 - 2


def test_assembled_bounds_hold():
    p, t, nb = 3, 2, 4
    n = matrix_input_prec(p, nb, 6, 12) + 1
    spec = synth_up(t, p, n, M_T=6, seed=13)
    mat = assemble(spec, nb, triv(p))
    table = verify_block_bounds(mat, p)
    # one row per entry, row by row, each meeting its block bound
    cells = [(row, col) for row in range(t * nb) for col in range(t * nb)]
    assert [(row, col) for row, col, _need, _order in table] == cells
    for row, col, need, order in table:
        assert need == block_bound(row, col, t, p)
        assert order == mlambda_order(mat.entry(row, col))
        assert order.meets(need, f"entry ({row},{col})")


def test_block_bounds_report_exact_violations():
    # exact units miss every positive bound (rows 1 and 2 need order row - 0);
    # the table reports them rather than raising
    one = LambdaElt.one(3, 4, 4)
    mat = BlockMatrix(1, tuple(tuple(one for _ in range(3)) for _ in range(3)))
    short = [
        (row, col, need, order)
        for row, col, need, order in verify_block_bounds(mat, 3)
        if order.value < need
    ]
    unit = OrderBound(0, True)
    assert short == [(row, col, row, unit) for row in (1, 2) for col in range(3)]


def test_block_bounds_undecidable_raises():
    # entry (2,0) needs order 2 but a zero residue at precision 1 only
    # witnesses order >= 1, which neither certifies nor refutes
    zero = LambdaElt.zero(3, 1, 4)
    mat = BlockMatrix(1, tuple(tuple(zero for _ in range(3)) for _ in range(3)))
    with pytest.raises(PrecisionTooLow):
        verify_block_bounds(mat, 3)


# -- rescaling --------------------------------------------------------------


def elt(p, nt, trunc, ints):
    return LambdaElt.from_ints(p, nt, trunc, ints)


def test_rescale_diagonal_same_block_untouched():
    p, nt, tr = 5, 6, 4
    mat = BlockMatrix(
        1,
        (
            (elt(p, nt, tr, [1]), elt(p, nt, tr, [0, 1])),
            (elt(p, nt, tr, [0]), elt(p, nt, tr, [p])),
        ),
    )
    out = rescale_halo_basis(mat)
    e = out.entry(1, 1)
    assert isinstance(e, HaloElt)
    assert e.tshift == 0
    assert e.body == elt(p, nt, tr, [p])


def test_rescale_peels_one_power():
    p, nt, tr = 3, 6, 4
    u = elt(p, nt, tr, [2, 1])
    mat = BlockMatrix(
        1,
        (
            (elt(p, nt, tr, [1]), elt(p, nt, tr, [0, 1])),
            (elt(p, nt, tr, [0, 2, 1]), elt(p, nt, tr, [p])),
        ),
    )
    out = rescale_halo_basis(mat)
    low = out.entry(1, 0)
    assert low.tshift == -1
    ob = low.halo_T_order()
    assert ob.value == 0 and ob.is_exact
    assert mlambda_order(u).value == 0


def test_rescale_synthetic_column_bound():
    p, t, nb = 3, 1, 12
    n = matrix_input_prec(p, nb, 8, 16) + 1
    spec = synth_up(t, p, n, M_T=8, seed=3)
    mat = assemble(spec, nb, triv(p))
    out = rescale_halo_basis(mat)
    want = []
    for col in range(out.size):
        need = col // t - col // (p * t)
        for row in range(out.size):
            order = out.entry(row, col).halo_T_order()
            assert order.meets(need, f"entry ({row},{col})")
            want.append((row, col, need, order))
    assert halo_bounds(out, p) == tuple(want)


def test_rescale_uncertified_negative_power():
    # rescaling only conjugates; the halo table refuses entry (3,0), whose
    # zero residue at precision 2 leaves halo order >= -1 against floor 0
    zero = LambdaElt.zero(3, 2, 4)
    rows = tuple(tuple(zero for _ in range(4)) for _ in range(4))
    out = rescale_halo_basis(BlockMatrix(1, rows))
    with pytest.raises(PrecisionTooLow, match=r"entry \(3,0\) certifies only order -1"):
        halo_bounds(out, 3)


@st.composite
def small_block_matrices(draw):
    """(p, BlockMatrix) with mixed entry precisions and many zero residues."""
    p = draw(st.sampled_from([2, 3, 5]))
    t = draw(st.sampled_from([1, 2]))
    size = t * draw(st.integers(1, 3))
    trunc = draw(st.integers(1, 3))
    digit = st.one_of(st.just(0), st.integers(1, 4), st.sampled_from([p, p * p]))

    def entry():
        n = draw(st.integers(1, 3))
        return LambdaElt.from_ints(p, n, trunc, draw(st.lists(digit, max_size=trunc)))

    rows = tuple(tuple(entry() for _ in range(size)) for _ in range(size))
    return p, BlockMatrix(t, rows)


def shortfalls_or_raise(tabulate):
    """The set of (row, col) entries short of their floor, or 'raises'."""
    try:
        table = tabulate()
    except PrecisionTooLow:
        return "raises"
    return {(row, col) for row, col, need, order in table if order.value < need}


@given(small_block_matrices())
def test_block_and_halo_tables_decide_alike(case):
    # a rescaled entry meets its halo floor exactly when the unshifted entry
    # meets its block bound, so both tables raise together or list the
    # same shortfalls
    p, mat = case
    plain = shortfalls_or_raise(lambda: verify_block_bounds(mat, p))
    halo = shortfalls_or_raise(
        lambda: halo_bounds(rescale_halo_basis(mat), p)
    )
    assert plain == halo


# -- invariant checks on the spec type ---------------------------------------


def test_validate_counts_and_class():
    p, n = 3, 12
    good = DeltaMat.from_ints(p, n, p, 1, 0, 1)
    with pytest.raises(InvariantViolation):
        UpSpec(1, p, n, 6, tuple((0, 0, good) for _ in range(p - 1)), None).validate()
    bad = DeltaMat.from_ints(p, n, 1, 1, 0, 1)
    with pytest.raises(InvariantViolation):
        UpSpec(
            1, p, n, 6, ((0, 0, bad),) + tuple((0, 0, good) for _ in range(p - 1)), None
        ).validate()


def test_attainable_target_monotone():
    assert attainable_target(3, 8, 6, 40) >= attainable_target(3, 8, 6, 20) > 0
    assert attainable_target(3, 12, 6, 3) == 0
