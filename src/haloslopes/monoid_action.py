"""Weighted action of 2x2 matrices on binomial-basis coefficients.

A matrix delta = (a, b; c, d) with q | c, d a unit and nonzero determinant
acts on continuous functions of a p-adic variable.  The image of C(z, n) is
sampled pointwise as

    h_n(z) = C(f(z), n) * omega(d0) * (1+T)^{g(z)}

with f(z) = (az+b)/(cz+d), d0 the torsion component of d, and
g(z) = log((cz+d)/d0)/q, then expanded back into the basis by finite
differences: P_{m,n} = m-th difference of h_n at 0.

One packed kernel computes the residues: all T-coefficients of a sample
sit in a single big integer, so the difference triangle runs in whole-row
operations.  It backs both block assembly (`up_operator.assemble`) and the
bound scan over large matrices, and takes its Teichmuller lifts, logs and
binomials from `padic_core`; the per-entry reference it is tested against
lives with the test oracles and uses none of them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .iwasawa import DEFAULT_TRUNC, CharOfDelta, LambdaElt, mlambda_order
from .padic_core import (
    PAdicNum,
    PadicError,
    PrecisionTooLow,
    binomials,
    log_cutoff,
    log_ratio,
    q_for,
    torsion_residue,
    val_p_factorial,
)


class NotInMonoid(PadicError):
    pass


class MonoidClass(enum.Enum):
    M1 = "M1"
    UpMonoid = "UpMonoid"
    Neither = "Neither"


@dataclass(frozen=True)
class DeltaMat:
    """Entries a, b, c, d as PAdicNum sharing one (p, precision)."""

    a: PAdicNum
    b: PAdicNum
    c: PAdicNum
    d: PAdicNum

    def __post_init__(self):
        ps = {x.p for x in (self.a, self.b, self.c, self.d)}
        ns = {x.prec for x in (self.a, self.b, self.c, self.d)}
        if len(ps) != 1 or len(ns) != 1:
            raise NotInMonoid(f"entries disagree on (p, precision): {ps}, {ns}")

    @classmethod
    def from_ints(cls, p: int, prec: int, a: int, b: int, c: int, d: int):
        return cls(*(PAdicNum(p, prec, x) for x in (a, b, c, d)))

    @property
    def p(self) -> int:
        return self.a.p

    @property
    def prec(self) -> int:
        return self.a.prec

    def det(self) -> PAdicNum:
        return self.a * self.d - self.b * self.c

    def to_json(self) -> dict:
        return {k: str(getattr(self, k).residue) for k in ("a", "b", "c", "d")}


def check_monoid(delta: DeltaMat) -> MonoidClass:
    """q | c, d a unit, det nonzero at working precision; p | a refines."""
    q = q_for(delta.p)
    if delta.c.residue % q != 0:
        return MonoidClass.Neither
    if not delta.d.is_unit():
        return MonoidClass.Neither
    if delta.det().residue == 0:
        return MonoidClass.Neither
    if delta.a.residue % delta.p == 0:
        return MonoidClass.UpMonoid
    return MonoidClass.M1


# -- precision budgeting ---------------------------------------------------


@lru_cache(maxsize=None)
def log_input_prec(p: int, goal: int) -> int:
    """Smallest input precision certifying >= goal digits of log(u)/q."""
    w = goal
    while w - log_cutoff(p, w)[1] < goal:
        w += 1
    return w


def column_input_prec(p: int, n: int, trunc: int, n_target: int) -> int:
    """Entry precision a DeltaMat needs to deliver column n at n_target.

    The scalar factor C(f(z), n) costs v_p(n!); the exponent of the series
    factor must itself survive the binomials in (1+T)^g up to T^trunc.
    """
    scalar = n_target + val_p_factorial(n, p)
    series = log_input_prec(p, n_target + val_p_factorial(trunc - 1, p))
    return max(scalar, series)


def matrix_input_prec(p: int, size: int, trunc: int, n_target: int) -> int:
    return column_input_prec(p, size - 1, trunc, n_target)


# -- packed path -----------------------------------------------------------


def _kernel_columns(delta: DeltaMat, size: int, omega: CharOfDelta, trunc: int):
    """Yield (n, firsts, bias, width) per column; digits raw mod p^prec.

    firsts[m] is the packed value of row m: T-coefficient s of P_{m,n} sits
    in bits [width*s, width*(s+1)), offset by bias for m >= 1.  Digits are
    never reduced during the difference triangle; the packing width leaves
    room for the 2^m growth of m-fold differences, so each digit is exact
    integer data congruent to the entry mod p^prec.
    """
    p, prec = delta.p, delta.prec
    mod = p**prec
    d0 = torsion_residue(delta.d.residue, p, prec)
    w_res = pow(d0, omega.exponent, mod)
    inv_d0 = pow(d0, -1, mod)
    a, b, c, d = (x.residue for x in (delta.a, delta.b, delta.c, delta.d))

    width = 2 * mod.bit_length() + size + 4
    bias = 1 << (width - 1)

    scalars = []
    packed_series = []
    for z in range(size):
        den = (c * z + d) % mod
        fz = (a * z + b) * pow(den, -1, mod) % mod
        # omega(d0) * C(f(z), n) for every column n
        scalars.append([x * w_res % mod for x in binomials(fz, size, p, prec)])
        g, _eff = log_ratio(den * inv_d0 % mod, p, prec)
        acc = 0
        for binom in reversed(binomials(g, trunc, p, prec)):
            acc = (acc << width) | binom
        packed_series.append(acc)

    bc = _bias_block(bias, width, trunc)
    for n in range(size):
        rows = [scalars[z][n] * packed_series[z] for z in range(size)]
        firsts = [rows[0]]
        cur = rows
        for _level in range(1, size):
            cur = [cur[i + 1] - cur[i] + bc for i in range(len(cur) - 1)]
            firsts.append(cur[0])
        yield n, firsts, bias, width


def _bias_block(bias: int, width: int, trunc: int) -> int:
    acc = 0
    for _ in range(trunc):
        acc = (acc << width) | bias
    return acc


def _unbiased(packed: int, m: int, bias: int, width: int, trunc: int) -> list:
    """Row m's digits as integers congruent to the T-coefficients of P_{m,n}."""
    mask = (1 << width) - 1
    off = bias if m else 0
    return [((packed >> (width * s)) & mask) - off for s in range(trunc)]


# -- bound verification ----------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    monoid_class: MonoidClass
    size: int
    violations: tuple  # (m, n, observed OrderBound)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_entry_bounds(
    delta: DeltaMat,
    size: int,
    omega: CharOfDelta,
    trunc: int = DEFAULT_TRUNC,
    raise_by: int = 0,
) -> BoundReport:
    """Certify the entry valuation bounds for all m, n < size.

    For the U_p class the claim is order(P_{m,n}) >= max(m - n//p, 0); for
    the rest of the monoid it is max(m - n, 0).  Certification needs every
    entry known to n_target = size digits, so the input precision must
    cover the budget; short inputs fail fast rather than mislabel AtLeast
    coefficients as violations.  raise_by > 0 demands that much more than
    the claim wherever it is nonnegative, a claim that must fail (P_{0,0}
    is a unit); the acceptance checks use it to show they detect faults.
    """
    cls = check_monoid(delta)
    if cls is MonoidClass.Neither:
        raise NotInMonoid(f"{delta.to_json()} fails the q|c, unit-d, det test")
    p = delta.p
    n_target = size
    need = matrix_input_prec(p, size, trunc, n_target)
    if delta.prec < need:
        raise PrecisionTooLow(
            f"size {size} needs entry precision {need} to certify all "
            f"bounds, have {delta.prec}"
        )
    if cls is MonoidClass.UpMonoid:
        required = lambda m, n: m - n // p + raise_by
    else:
        required = lambda m, n: m - n + raise_by

    mod = p**delta.prec
    pk = [p**k for k in range(size + raise_by + 1)]
    violations = []
    for n, firsts, bias, width in _kernel_columns(delta, size, omega, trunc):
        mask = (1 << width) - 1
        for m in range(size):
            r = required(m, n)
            if r <= 0:
                continue
            packed = firsts[m]
            off = bias if m >= 1 else 0
            for s in range(min(r, trunc)):
                digit = (packed >> (width * s)) & mask
                if (digit - off) % mod % pk[r - s]:
                    digits = _unbiased(packed, m, bias, width, trunc)
                    entry = LambdaElt.from_ints(p, n_target, trunc, digits)
                    violations.append((m, n, mlambda_order(entry)))
                    break
    return BoundReport(cls, size, tuple(violations))
