"""Assembly of the block U_p operator from per-coset matrix data.

An operator instance is t x t blocks of monoid matrices, exactly p of them
in each block row and column.  Assembling against the ordered basis
1_0..1_{t-1}, z_0..z_{t-1}, C(z,2)_0.. gives a square matrix over the
coefficient ring whose entry bounds drive everything downstream, and the
rescaled variant conjugates by diag(T^{floor(row/t)}) to reach the
compact-in-the-halo shape.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple

from .iwasawa import DEFAULT_TRUNC, CharOfDelta, HaloElt, LambdaElt, mlambda_order
from .monoid_action import (
    DeltaMat,
    MonoidClass,
    NotInMonoid,
    action_digits,
    check_monoid,
    matrix_input_prec,
)
from .padic_core import (
    BadArgument,
    InsufficientPrecision,
    PadicError,
    is_prime,
    q_for,
)


# The largest p, t, N, M_T, r and D a config or operator file may give; a
# larger one is an input error (exit 2).  Each is several times the largest
# pinned use.  They bound each size, not the run time of their product.
SIZE_CAPS = {"p": 100, "t": 32, "N": 1000, "M_T": 256, "r": 32, "D": 64}


class ParseError(PadicError):
    pass


class InvariantViolation(PadicError):
    pass


class Synthetic(NamedTuple):
    seed: int


class Ingested(NamedTuple):
    file: str


class UpSpec(NamedTuple):
    """t x t cells of monoid matrices, p per block row and block column."""

    t: int
    p: int
    N: int
    M_T: int
    cells: tuple  # ((i, j, DeltaMat), ...) in a fixed order
    provenance: object

    def validate(self) -> None:
        # count first: a huge t must not size the tallies below
        if len(self.cells) != self.p * self.t:
            raise InvariantViolation(
                f"expected {self.p * self.t} matrices, found {len(self.cells)}"
            )
        rows = [0] * self.t
        cols = [0] * self.t
        for i, j, delta in self.cells:
            if not (0 <= i < self.t and 0 <= j < self.t):
                raise InvariantViolation(f"cell index ({i},{j}) out of range")
            if check_monoid(delta) is not MonoidClass.UpMonoid:
                raise InvariantViolation(
                    f"matrix {delta.to_json()} at cell ({i},{j}) is outside "
                    "the U_p class (needs p|a, q|c, unit d, nonzero det)"
                )
            rows[i] += 1
            cols[j] += 1
        for i, count in enumerate(rows):
            if count != self.p:
                raise InvariantViolation(f"block row {i} holds {count} != p matrices")
        for j, count in enumerate(cols):
            if count != self.p:
                raise InvariantViolation(f"block column {j} holds {count} != p matrices")

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "t": self.t,
            "N": self.N,
            "cells": [
                {"i": i, "j": j, "delta": d.to_json()} for i, j, d in self.cells
            ],
        }


def synth_up(
    t: int,
    p: int,
    N: int,
    M_T: int = DEFAULT_TRUNC,
    seed: int = 0,
) -> UpSpec:
    """Random operator data: p uniform permutations place one matrix each.

    Within every column block the p translation parts b hit distinct residues
    mod p, so the image disks partition Z_p the way coset representatives of a
    genuine operator do; without this the summed columns degenerate and the
    characteristic coefficients cancel far past their valuation floor.

    Determinants have valuation exactly 1.  N must be at least 2: p | a and
    q | c make every determinant vanish mod p, so at one digit no matrix
    qualifies.
    """
    if N < 2:
        raise BadArgument(f"synthetic operators need precision N >= 2, not {N}")
    rng = random.Random(seed)
    q = q_for(p)
    rows = []
    for _ in range(p):
        sigma = list(range(t))
        rng.shuffle(sigma)
        rows.append(sigma)
    cells = []
    span = p**6
    for j in range(t):
        translations = list(range(p))
        rng.shuffle(translations)
        for k in range(p):
            i = rows[k][j]
            while True:
                alpha = rng.randrange(1, span)
                b = translations[k] + p * rng.randrange(span)
                gamma = rng.randrange(span)
                d = rng.randrange(1, span)
                if d % p == 0:
                    continue
                delta = DeltaMat.from_ints(p, N, p * alpha, b, q * gamma, d)
                a, b, c, d = delta.residues
                # p | a and q | c force v(det) >= 1; keep it exactly 1
                if (a * d - b * c) % p**2 != 0:
                    break
            cells.append((i, j, delta))
    cells.sort(key=lambda c: (c[0], c[1]))
    return UpSpec(t, p, N, M_T, tuple(cells), Synthetic(seed))


def save_up(spec: UpSpec, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(spec.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _file_int(val, key: str, least: int | None = None) -> int:
    """An integer field of an operator file: a JSON integer or decimal string,
    at most its SIZE_CAPS entry if it has one."""
    if isinstance(val, bool) or not isinstance(val, (int, str)):
        raise ValueError(f"field {key!r} must be an integer, not {val!r}")
    try:
        num = int(val)
    except ValueError:
        raise ValueError(f"field {key!r} is not an integer: {val!r}") from None
    if least is not None and num < least:
        raise ValueError(f"field {key!r} must be at least {least}, not {num}")
    if num > SIZE_CAPS.get(key, num):
        raise ValueError(f"field {key!r} must be at most {SIZE_CAPS[key]}, not {num}")
    return num


def load_up(path: str, M_T: int = DEFAULT_TRUNC) -> UpSpec:
    """Read a save_up file; M_T applies unless the file sets its own."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read operator file {path}: {exc}") from exc
    try:
        if not isinstance(obj, dict):
            raise ValueError("the file must hold a key/value table")
        p = _file_int(obj["p"], "p")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not a prime")
        t = _file_int(obj["t"], "t", least=1)
        n = _file_int(obj["N"], "N", least=1)
        m_t = _file_int(obj.get("M_T", M_T), "M_T", least=1)
        cells = tuple(
            (
                _file_int(c["i"], "i"),
                _file_int(c["j"], "j"),
                DeltaMat.from_ints(p, n, *(_file_int(c["delta"][k], k) for k in "abcd")),
            )
            for c in obj["cells"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed operator file {path}: {exc}") from exc
    spec = UpSpec(t, p, n, m_t, cells, Ingested(path))
    spec.validate()
    return spec


class BlockMatrix(NamedTuple):
    """Square matrix over the coefficient ring, rows/cols indexed m*t + i."""

    t: int
    entries: tuple  # entries[row][col]

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, row: int, col: int):
        return self.entries[row][col]


def attainable_target(p: int, size: int, trunc: int, N: int) -> int:
    """Largest output precision the budget allows for entries of this size."""
    nt = N
    while nt > 0 and matrix_input_prec(p, size, trunc, nt) > N:
        nt -= 1
    return nt


def certified_target(spec: UpSpec, n_blocks: int) -> int:
    """attainable_target for n_blocks blocks of spec, which must be positive."""
    target = attainable_target(spec.p, n_blocks, spec.M_T, spec.N)
    if target <= 0:
        raise InsufficientPrecision(
            f"operator data at precision {spec.N} cannot certify any digits "
            f"for {n_blocks} basis blocks"
        )
    return target


def assemble(spec: UpSpec, n_blocks: int, omega: CharOfDelta) -> BlockMatrix:
    """Entry ((m,i),(n,j)) = sum over cell (i,j) of P_{m,n}(delta).

    Output component i collects the matrices stored at (i, j) applied to
    input component j.  The matrices of each cell run through the packed
    Mahler kernel together, which sums them per entry; each sum is reduced
    once, to the largest precision the budget certifies for n_blocks
    blocks, and a cell with no matrices gives zero entries.  Only indices,
    the monoid test and precision are checked here; counts and the U_p class
    are checked where specs enter (synthesis, file ingestion), so partial
    cell lists can be assembled and summed.
    """
    p, t, trunc = spec.p, spec.t, spec.M_T
    n_target = certified_target(spec, n_blocks)
    need = matrix_input_prec(p, n_blocks, trunc, n_target)
    cells = {}
    for i, j, delta in spec.cells:
        if not (0 <= i < t and 0 <= j < t):
            raise InvariantViolation(f"cell index ({i},{j}) out of range")
        if check_monoid(delta) is MonoidClass.Neither:
            raise NotInMonoid(f"{delta.to_json()} fails the q|c, unit-d, det test")
        if delta.prec < need:
            raise InsufficientPrecision(
                f"{n_blocks} basis blocks need entry precision {need}, "
                f"have {delta.prec}"
            )
        cells.setdefault((i, j), []).append(delta)
    size = t * n_blocks
    grid = [[LambdaElt.zero(p, n_target, trunc)] * size for _ in range(size)]
    for (i, j), deltas in cells.items():
        for m, n, digits in action_digits(deltas, n_blocks, omega, trunc, n_target):
            grid[m * t + i][n * t + j] = LambdaElt.from_ints(p, n_target, trunc, digits)
    return BlockMatrix(t, tuple(map(tuple, grid)))


def block_bound(row: int, col: int, t: int, p: int) -> int:
    return max(row // t - col // (p * t), 0)


def _decided(table: tuple) -> tuple:
    # meets raises where a zero residue leaves an order undecidable; exact
    # shortfalls stay in the table for the caller to report
    for row, col, need, order in table:
        order.meets(need, f"entry ({row},{col})")
    return table


def verify_block_bounds(mat: BlockMatrix, p: int) -> tuple:
    """(row, col, required, OrderBound) of every entry, row by row.

    Entry (row, col) must have order at least block_bound(row, col); the
    caller compares.
    """
    t, size = mat.t, mat.size
    return _decided(
        tuple(
            (row, col, block_bound(row, col, t, p), mlambda_order(mat.entry(row, col)))
            for row in range(size)
            for col in range(size)
        )
    )


def halo_bound(col: int, t: int, p: int) -> int:
    """Halo T-order every entry of column col of the rescaled matrix meets."""
    return col // t - col // (p * t)


def halo_bounds(mat: BlockMatrix, p: int) -> tuple:
    """(row, col, required, OrderBound) of a rescaled matrix, column by column.

    A rescaled entry meets halo_bound exactly when the entry before
    rescaling meets block_bound, so both tables decide every entry alike.
    """
    t, size = mat.t, mat.size
    return _decided(
        tuple(
            (row, col, halo_bound(col, t, p), mat.entry(row, col).halo_T_order())
            for col in range(size)
            for row in range(size)
        )
    )


def rescale_halo_basis(mat: BlockMatrix) -> BlockMatrix:
    """Conjugate by diag(T^{floor(row/t)}); entries become shifted elements.

    Nothing is checked here; halo_bounds decides each entry's column floor.
    """
    t, size = mat.t, mat.size
    return BlockMatrix(
        t,
        tuple(
            tuple(HaloElt(col // t - row // t, mat.entry(row, col)) for col in range(size))
            for row in range(size)
        ),
    )
