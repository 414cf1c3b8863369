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
    _bias_block,
    _kernel_columns,
    _unbiased,
    check_monoid,
    difference_triangle,
    matrix_input_prec,
)
from .padic_core import (
    BadArgument,
    InsufficientPrecision,
    PadicError,
    PrecisionTooLow,
    is_prime,
    q_for,
)


class ParseError(PadicError):
    pass


class InvariantViolation(PadicError):
    pass


class NegativePowerUncertified(PadicError):
    """A rescaled entry's certified T-order fell below its required shift."""

    exit_code = 3


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

    def cell(self, i: int, j: int) -> tuple:
        return tuple(d for (ci, cj, d) in self.cells if (ci, cj) == (i, j))

    def validate(self) -> None:
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
        if len(self.cells) != self.p * self.t:
            raise InvariantViolation(
                f"expected {self.p * self.t} matrices, found {len(self.cells)}"
            )
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
                # p | a and q | c force v(det) >= 1; keep it exactly 1
                if delta.det().residue % p**2 != 0:
                    break
            cells.append((i, j, delta))
    cells.sort(key=lambda c: (c[0], c[1]))
    return UpSpec(t, p, N, M_T, tuple(cells), Synthetic(seed))


def save_up(spec: UpSpec, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(spec.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _file_int(val, key: str, least: int | None = None) -> int:
    """An integer field of an operator file: a JSON integer or decimal string."""
    if isinstance(val, bool) or not isinstance(val, (int, str)):
        raise ValueError(f"field {key!r} must be an integer, not {val!r}")
    try:
        num = int(val)
    except ValueError:
        raise ValueError(f"field {key!r} is not an integer: {val!r}") from None
    if least is not None and num < least:
        raise ValueError(f"field {key!r} must be at least {least}, not {num}")
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


def assemble(
    spec: UpSpec, n_blocks: int, omega: CharOfDelta, lead_blocks: int | None = None
) -> BlockMatrix:
    """Entry ((m,i),(n,j)) = sum over cell (i,j) of P_{m,n}(delta).

    Output component i collects the matrices stored at (i, j) applied to
    input component j.  Each cell matrix runs through the packed Mahler
    kernel once; its unbiased digits are summed per entry as integers and
    reduced once.  All entries share the largest precision the budget
    certifies for the leading lead_blocks blocks (default: all n_blocks).
    With fewer lead blocks, entries outside that leading minor carry the
    same number of digits but are certified only to attainable_target for
    n_blocks; char_series reads its two truncation sizes from one such
    matrix and cuts the larger one to that.  Invariants are checked where
    specs enter the system (synthesis, file ingestion), not here, so
    partial cell lists can be assembled and summed.
    """
    p, t, trunc = spec.p, spec.t, spec.M_T
    lead = n_blocks if lead_blocks is None else lead_blocks
    n_target = attainable_target(p, lead, trunc, spec.N)
    full_target = attainable_target(p, n_blocks, trunc, spec.N)
    for blocks, target in ((lead, n_target), (n_blocks, full_target)):
        if target <= 0:
            raise InsufficientPrecision(
                f"operator data at precision {spec.N} cannot certify any digits "
                f"for {blocks} basis blocks"
            )
    need = max(
        matrix_input_prec(p, lead, trunc, n_target),
        matrix_input_prec(p, n_blocks, trunc, full_target),
    )
    size = t * n_blocks
    grid = [[[0] * trunc for _ in range(size)] for _ in range(size)]
    for i, j, delta in spec.cells:
        if check_monoid(delta) is MonoidClass.Neither:
            raise NotInMonoid(f"{delta.to_json()} fails the q|c, unit-d, det test")
        if delta.prec < need:
            raise InsufficientPrecision(
                f"{n_blocks} basis blocks need entry precision {need}, "
                f"have {delta.prec}"
            )
        for n, rows, width in _kernel_columns(delta, n_blocks, omega, trunc, n_target):
            bias = 1 << (width - 1)
            firsts = difference_triangle(rows, _bias_block(bias, width, trunc))
            for m, packed in enumerate(firsts):
                acc = grid[m * t + i][n * t + j]
                for s, digit in enumerate(_unbiased(packed, m, bias, width, trunc)):
                    acc[s] += digit
    return BlockMatrix(
        t,
        tuple(
            tuple(LambdaElt.from_ints(p, n_target, trunc, acc) for acc in row)
            for row in grid
        ),
    )


def block_bound(row: int, col: int, t: int, p: int) -> int:
    return max(row // t - col // (p * t), 0)


def verify_block_bounds(mat: BlockMatrix, p: int) -> tuple:
    """Certify the block-level entry bound; returns violations as a tuple.

    Entries whose order can neither be certified nor refuted (zero residues
    at too low a precision) raise rather than mislabel.
    """
    t = mat.t
    violations = []
    for row in range(mat.size):
        for col in range(mat.size):
            need = block_bound(row, col, t, p)
            if need == 0:
                continue
            order = mlambda_order(mat.entry(row, col))
            if order.certainly_at_least(need):
                continue
            if order.is_exact:
                violations.append((row, col, order))
            else:
                raise PrecisionTooLow(
                    f"entry ({row},{col}) certifies only order {order.value}, "
                    f"bound {need} undecidable"
                )
    return tuple(violations)


def rescale_halo_basis(mat: BlockMatrix, t: int, p: int) -> BlockMatrix:
    """Conjugate by diag(T^{floor(row/t)}); entries become shifted elements.

    Column col of the result must consist of elements of halo T-order at
    least floor(col/t) - floor(col/pt); entries whose certified order falls
    short (a precision failure, the mathematics guarantees the bound) raise
    NegativePowerUncertified.
    """
    out = []
    for row in range(mat.size):
        line = []
        for col in range(mat.size):
            shifted = HaloElt(col // t - row // t, mat.entry(row, col))
            need = col // t - col // (p * t)
            if not shifted.halo_T_order().certainly_at_least(need):
                raise NegativePowerUncertified(
                    f"entry ({row},{col}) certifies halo order "
                    f"{shifted.halo_T_order().value}, need {need}"
                )
            line.append(shifted)
        out.append(tuple(line))
    return BlockMatrix(t, tuple(out))
