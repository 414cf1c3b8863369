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
operations.  It backs block assembly (`up_operator.assemble`) and the
entry-bound certificate and report, and takes its Teichmuller lifts, logs
and binomials from `padic_core`; the per-entry reference it is tested against
lives with the test oracles and uses none of them.

The kernel reduces the scalars C(f(z), n) * omega(d0) and the series
digits mod p^n_target, the precision its caller certifies.  The triangle
(`difference_triangle`) is an integer combination of rows, so every digit
of its output is congruent mod p^n_target to the T-coefficient of P_{m,n}.
A row digit is below p^n_target * p^n_target, and an m-th difference digit
is below 2^m times that in absolute value, m < size.  The width

    2 * bits(p^n_target) + size + 5

therefore keeps every digit d of the triangle at |d| < 2^(width-6).
`assemble` adds the bias block, 2^(width-1) in every digit, once to each
first difference; each digit is then a nonnegative field of the packed
value and unpacks to the exact integer difference.  The same function
gives the Mahler coefficients of plain integer samples with a zero bias.

`verify_entry_bounds` certifies from the two sample factors, in plain
integers.  Column n demands order m - shift_n of row m, with
shift_n = n // step - raise_by, and an entry sum_s b_s T^s lies in (p, T)^r
exactly when v(b_s) >= r - s for every s.  Over the samples z < size, write
scalar column n as sum_i a_i C(z, i) and series digit s as
sum_j c_j C(z, j), their Mahler expansions, one triangle each.  The
certificate tests with `%` that p^(i - shift_n) divides a_i and p^(j - s)
divides c_j wherever the exponent is positive.  C(z, i) C(z, j) is an
integer combination of the C(z, k) with max(i, j) <= k <= i + j, so every
term that a_i c_j adds to digit s of P_{k,n} has valuation at least
(i - shift_n) + (j - s) >= k - shift_n - s, and every entry meets its
demand.  The factors are the kernel's reduced samples, whose product
`action_digits` expands, so the certificate holds for the digits it yields;
demands never exceed n_target = size, where those digits are certified.
Columns whose demand is never positive (shift_n + 1 >= size) are a suffix
and are not tested.  When a factor bound fails, the report reads every
entry once through `action_digits` and lists those whose order misses
their demand, in (n, m) order; it is exact on its own, so the certificate
decides only how fast an empty report comes back.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from operator import mul, sub
from typing import NamedTuple

from .iwasawa import DEFAULT_TRUNC, CharOfDelta, LambdaElt, mlambda_order, pack, unpack
from .padic_core import (
    BadArgument,
    Frozen,
    PAdicNum,
    PadicError,
    PrecisionTooLow,
    binomials,
    log_cutoff,
    log_line,
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


class DeltaMat(Frozen):
    """Entries a, b, c, d as residues mod p^prec.

    The package reads `residues` alone; .d and det(), reduced mod p^prec, give
    PAdicNum records for the benchmark's own matrix generator, their last reader.
    """

    __slots__ = ("p", "prec", "a_res", "b_res", "c_res", "d_res")

    def __init__(
        self, p: int, prec: int, a_res: int, b_res: int, c_res: int, d_res: int
    ):
        if prec <= 0:
            raise BadArgument(f"precision must be positive, got {prec}")
        mod = p**prec
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "a_res", a_res % mod)
        object.__setattr__(self, "b_res", b_res % mod)
        object.__setattr__(self, "c_res", c_res % mod)
        object.__setattr__(self, "d_res", d_res % mod)

    def _key(self) -> tuple:
        return self.p, self.prec, self.a_res, self.b_res, self.c_res, self.d_res

    @classmethod
    def from_ints(cls, p: int, prec: int, a: int, b: int, c: int, d: int):
        return cls(p, prec, a, b, c, d)

    @property
    def residues(self) -> tuple:
        return self.a_res, self.b_res, self.c_res, self.d_res

    @property
    def d(self) -> PAdicNum:
        return PAdicNum(self.p, self.prec, self.d_res)

    def det(self) -> PAdicNum:
        return PAdicNum(
            self.p, self.prec, self.a_res * self.d_res - self.b_res * self.c_res
        )

    def to_json(self) -> dict:
        return dict(zip("abcd", map(str, self.residues)))


def check_monoid(delta: DeltaMat) -> MonoidClass:
    """q | c, d a unit, det nonzero at working precision; p | a refines."""
    p = delta.p
    a, b, c, d = delta.residues
    if c % q_for(p) != 0:
        return MonoidClass.Neither
    if d % p == 0:
        return MonoidClass.Neither
    if (a * d - b * c) % p**delta.prec == 0:
        return MonoidClass.Neither
    if a % p == 0:
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


def _kernel_samples(
    delta: DeltaMat, size: int, omega: CharOfDelta, trunc: int, n_target: int
):
    """Return (scalars, series, width) for the samples z < size.

    scalars[z][n] is omega(d0) * C(f(z), n) and series[z] packs the
    T-coefficients of (1+T)^{g(z)}, the one at T^s in bits
    [width*s, width*(s+1)); both are reduced mod p^n_target, so
    scalars[z][n] * series[z] packs h_n(z).  Any integer combination of
    these rows, the difference triangle included, is then congruent mod
    p^n_target to the same combination of the true samples; the width
    leaves room for the 2^m growth of m-fold differences, so every digit
    stays exact integer data.
    """
    p, prec = delta.p, delta.prec
    mod = p**prec
    target = p**n_target
    d0 = torsion_residue(delta.d_res, p, prec)
    w_res = pow(d0, omega.exponent, target)
    a, b, c, d = delta.residues
    width = 2 * target.bit_length() + size + 5

    # g(z) = log((cz + d)/d0)/q = log((d/d0) (1 + (c/d) z))/q on the line
    inv_d = pow(d, -1, mod)
    gs, _eff = log_line(d * pow(d0, -1, mod) % mod, c * inv_d % mod, size, p, prec)
    scalars = []
    series = []
    for z, g in enumerate(gs):
        fz = (a * z + b) * pow((c * z + d) % mod, -1, mod) % mod
        scalars.append([x * w_res % target for x in binomials(fz, size, p, prec)])
        series.append(pack([x % target for x in binomials(g, trunc, p, prec)], width))
    return scalars, series, width


def difference_triangle(rows: list, bc: int) -> list:
    """Forward differences at 0: [rows[0], D^1 rows + bc, D^2 rows + bc, ...].

    Levels are signed, so a negative digit borrows from the one above it;
    bc, added once per first difference, pays every borrow back as long as
    each digit of D^m lies in [-bias, bias).  bc = 0 leaves the signed
    differences themselves.
    """
    firsts = [rows[0]]
    cur = rows
    for _level in range(1, len(rows)):
        cur = list(map(sub, cur[1:], cur))
        firsts.append(cur[0] + bc)
    return firsts


def action_digits(
    delta: DeltaMat, size: int, omega: CharOfDelta, trunc: int, n_target: int
):
    """Yield (m, n, digits) for all m, n < size, column by column.

    digits are trunc integers congruent mod p^n_target to the
    T-coefficients of P_{m,n}(delta): the biased triangle of each packed
    column, unpacked.  Sums of them stay congruent, so callers may add
    digits of several matrices before one reduction.
    """
    scalars, series, width = _kernel_samples(delta, size, omega, trunc, n_target)
    bias = 1 << (width - 1)
    bc = pack((bias,) * trunc, width)
    for n, column in enumerate(zip(*scalars)):
        firsts = difference_triangle(list(map(mul, column, series)), bc)
        for m, packed in enumerate(firsts):
            yield m, n, _unbiased(packed, m, bias, width, trunc)


def _unbiased(packed: int, m: int, bias: int, width: int, trunc: int) -> list:
    """Row m's digits as integers congruent to the T-coefficients of P_{m,n}."""
    off = bias if m else 0
    return [d - off for d in unpack(packed, width, trunc)]


# -- bound verification ----------------------------------------------------


class BoundReport(NamedTuple):
    monoid_class: MonoidClass
    size: int
    violations: tuple  # (m, n, observed OrderBound)

    @property
    def ok(self) -> bool:
        return not self.violations


def _factors_meet_bounds(
    p: int, size: int, shifts: list, scalars: list, digits: list
) -> bool:
    """Whether both sample factors meet their Mahler bounds (module docstring).

    p^(i - shifts[n]) must divide the i-th Mahler coefficient of scalar
    column n, and p^(j - s) the j-th of series digit s, digits[z][s].
    """
    powers = [p**r for r in range(size + 1)]
    for n, column in enumerate(zip(*scalars)):
        shift = shifts[n]
        if shift + 1 >= size:
            break  # no row demands anything of this column or the ones after it
        firsts = difference_triangle(list(column), 0)
        if any(firsts[i] % powers[i - shift] for i in range(max(shift + 1, 0), size)):
            return False
    for s, column in enumerate(zip(*digits)):
        firsts = difference_triangle(list(column), 0)
        if any(firsts[j] % powers[j - s] for j in range(s + 1, size)):
            return False
    return True


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
    coefficients as violations.  raise_by = 1 demands one more than the
    claim wherever it is nonnegative, a claim that must fail (P_{0,0} is a
    unit); the acceptance checks use it to show they detect faults.  A
    larger raise_by would demand orders past the n_target certified digits
    and is refused.
    """
    if raise_by > 1:
        raise BadArgument(
            f"raise_by {raise_by} demands orders past the {size} certified digits"
        )
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
    # column n demands order m - shifts[n] of row m, at most size - 1 + raise_by
    step = p if cls is MonoidClass.UpMonoid else 1
    shifts = [n // step - raise_by for n in range(size)]
    scalars, series, width = _kernel_samples(delta, size, omega, trunc, n_target)
    series_digits = [unpack(packed, width, trunc) for packed in series]
    if _factors_meet_bounds(p, size, shifts, scalars, series_digits):
        return BoundReport(cls, size, ())
    # a factor bound failed: report every entry short of its demand (an order
    # is never negative, so an entry with no demand is never reported)
    violations = []
    for m, n, digits in action_digits(delta, size, omega, trunc, n_target):
        need = m - shifts[n]
        if need > 0:
            order = mlambda_order(LambdaElt.from_ints(p, n_target, trunc, digits))
            if order.value < need:
                violations.append((m, n, order))
    return BoundReport(cls, size, tuple(violations))
