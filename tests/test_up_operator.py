import json

import pytest

from haloslopes.iwasawa import CharOfDelta, HaloElt, LambdaElt, mlambda_order
from haloslopes.monoid_action import DeltaMat, NotInMonoid, matrix_input_prec
from haloslopes.padic_core import (
    BadArgument,
    InsufficientPrecision,
    PrecisionTooLow,
    val_p_int,
)
from haloslopes.up_operator import (
    BlockMatrix,
    Ingested,
    InvariantViolation,
    NegativePowerUncertified,
    ParseError,
    Synthetic,
    UpSpec,
    assemble,
    attainable_target,
    block_bound,
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
            assert val_p_int(delta.det().residue, p) == 1


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


def test_assemble_lead_blocks_certify_the_leading_minor():
    # one matrix carries the leading minor's higher target; that minor is
    # exact there, and every entry is exact at the whole matrix's target
    p, t, nb, trunc, N = 2, 1, 8, 3, 10
    spec = synth_up(t, p, N, trunc, seed=2)
    lead_t = attainable_target(p, nb, trunc, N)
    full_t = attainable_target(p, nb + 1, trunc, N)
    assert lead_t > full_t
    mat = assemble(spec, nb + 1, triv(p), lead_blocks=nb)
    assert {e.prec for row in mat.entries for e in row} == {lead_t}
    lead = oracle_assemble(spec, nb, triv(p), lead_t)
    full = oracle_assemble(spec, nb + 1, triv(p), full_t)
    for row in range(mat.size):
        for col in range(mat.size):
            if row < t * nb and col < t * nb:
                assert mat.entry(row, col) == lead[row][col]
            assert mat.entry(row, col).with_prec(full_t) == full[row][col]


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


# -- block bounds -----------------------------------------------------------


def test_block_bound_formula():
    assert block_bound(7, 0, 2, 3) == 3
    assert block_bound(7, 6, 2, 3) == 2
    assert block_bound(1, 8, 2, 3) == 0


def test_assembled_bounds_hold():
    p, t, nb = 3, 2, 4
    n = matrix_input_prec(p, nb, 6, 12) + 1
    spec = synth_up(t, p, n, M_T=6, seed=13)
    mat = assemble(spec, nb, triv(p))
    assert verify_block_bounds(mat, p) == ()


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
    out = rescale_halo_basis(mat, 1, p)
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
    out = rescale_halo_basis(mat, 1, p)
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
    out = rescale_halo_basis(mat, t, p)
    for col in range(out.size):
        need = col // t - col // (p * t)
        for row in range(out.size):
            assert out.entry(row, col).halo_T_order().certainly_at_least(need)


def test_rescale_uncertified_negative_power():
    zero = LambdaElt.zero(3, 2, 4)
    rows = tuple(tuple(zero for _ in range(4)) for _ in range(4))
    with pytest.raises(NegativePowerUncertified):
        rescale_halo_basis(BlockMatrix(1, rows), 1, 3)


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
