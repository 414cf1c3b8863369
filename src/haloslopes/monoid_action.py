"""Weighted action of 2x2 matrices on binomial-basis coefficients.

A matrix delta = (a, b; c, d) with q | c, d a unit and nonzero determinant
acts on continuous functions of a p-adic variable.  The image of C(z, n) is
sampled pointwise as

    h_n(z) = C(f(z), n) * omega(d0) * (1+T)^{g(z)}

with f(z) = (az+b)/(cz+d), d0 the torsion component of d, and
g(z) = log((cz+d)/d0)/q, then expanded back into the basis by finite
differences: P_{m,n} = m-th difference of h_n at 0.

`_kernel_samples` gives the two factors of every sample as plain ints:
the scalars C(f(z), n) * omega(d0) and the series digits, reduced mod
p^n_target, the precision its caller certifies, each by one reduction.  It
takes its Teichmuller lifts, logs and binomials from `padic_core`; the
per-entry reference it is tested against lives with the test oracles and
uses none of them.
`difference_triangle`, the Mahler transform, is an integer combination of
its rows, so on products of the factors every digit it gives is congruent
mod p^n_target to the T-coefficient of P_{m,n}.

`action_digits` owns the packed form, which backs block assembly
(`up_operator.assemble`) and the entry-bound report, and sums k matrices
(one for the report): the T-coefficients of a sample sit in one big
integer, so a column's triangle runs in whole-row operations.  A row digit
of one matrix is a product of two residues, at most (p^n_target - 1)^2,
so its m-th difference digit has |d| <= 2^m (p^n_target - 1)^2, m < size,
and the sum of k of them stays below 2^(width-1) at the width

    2 * bits(p^n_target) + size + bits(k - 1).

The levels of the k triangles are added to the bias block, 2^(width-1) in
every digit, row 0 included; each digit is then a nonnegative field of the
packed value and unpacks, less the bias, to the exact integer sum.

`verify_entry_bounds` certifies from the two sample factors, in plain
integers.  Column n demands order m - shift_n of row m, with
shift_n = n // step - raise_by, and an entry sum_s b_s T^s lies in (p, T)^r
exactly when v(b_s) >= r - s for every s.  Over the samples z < size, write
scalar column n as sum_i a_i C(z, i) and series digit s as
sum_j c_j C(z, j), their Mahler expansions.  One rule
(`_meets_mahler_bounds`) tests both factors with `%`: p^(i - shift)
divides the i-th Mahler coefficient wherever the exponent is positive,
with shift = shift_n for scalar column n and shift = s for series digit s.
C(z, i) C(z, j) is an integer combination of the C(z, k) with
max(i, j) <= k <= i + j, so every term that a_i c_j adds to digit s of
P_{k,n} has valuation at least (i - shift_n) + (j - s) >= k - shift_n - s,
and every entry meets its demand.  The factors are the kernel's reduced
samples, whose product `action_digits` expands, so the certificate holds
for the digits it yields; demands never exceed n_target = size, where
those digits are certified.  The rule runs once, on the scalar columns
followed by the series digits, and walks one difference level of all
their columns at a time.  A column with no positive exponent
(shift + 1 >= size) is dead and skipped wherever it sits, as the M1
class's last scalar column at raise_by 0 is, before live series columns.
When a factor bound fails, the report reads every entry once through
`action_digits` and lists those whose order misses their demand, in
(n, m) order; it is exact on its own, so the certificate decides only how
fast an empty report comes back.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import accumulate
from operator import add, mul, sub
from typing import NamedTuple

from .iwasawa import DEFAULT_TRUNC, CharOfDelta, LambdaElt, mlambda_order, pack, unpack
from .padic_core import (
    BadArgument,
    Frozen,
    PAdicNum,
    PrecisionTooLow,
    binomials,
    log_cutoff,
    log_line,
    q_for,
    torsion_residue,
    val_p_factorial,
)


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
    """Return (scalars, series) for the samples z < size, as plain ints.

    scalars[z][n] is omega(d0) * C(f(z), n) and series[z][s] the T^s digit
    of (1+T)^{g(z)}, both reduced mod p^n_target, so h_n(z) is congruent
    mod p^n_target to scalars[z][n] * sum_s series[z][s] T^s.  Any integer
    combination of these samples, the difference triangle included, is
    then congruent mod p^n_target to the same combination of the true ones.
    """
    p, prec = delta.p, delta.prec
    mod = p**prec
    target = p**n_target
    d0 = torsion_residue(delta.d_res, p, prec)
    a, b, c, d = delta.residues

    # g(z) = log((cz + d)/d0)/q = log((d/d0) (1 + (c/d) z))/q on the line
    inv_d = pow(d, -1, mod)
    gs, _eff = log_line(d * pow(d0, -1, mod) % mod, c * inv_d % mod, size, p, prec)
    # f(z) = (az + b)/(cz + d): each cz + d is a unit (q | c), so one
    # inversion of their product and a walk back give every inverse
    dens = [(c * z + d) % mod for z in range(size)]
    prefix = list(accumulate(dens, lambda x, y: x * y % mod, initial=1))
    inv, fs = pow(prefix[-1], -1, mod), [0] * size
    for z in reversed(range(size)):
        fs[z], inv = (a * z + b) * inv * prefix[z] % mod, inv * dens[z] % mod
    scalars = binomials(fs, size, p, prec, target, pow(d0, omega.exponent, target))
    return scalars, binomials(gs, trunc, p, prec, target)


def difference_triangle(rows: list) -> list:
    """Forward differences at 0, the Mahler coefficients of the samples rows:
    [rows[0], D^1 rows, D^2 rows, ...], each an integer combination of rows."""
    firsts = [rows[0]]
    cur = rows
    for _level in range(1, len(rows)):
        cur = list(map(sub, cur[1:], cur))
        firsts.append(cur[0])
    return firsts


def action_digits(deltas, size: int, omega: CharOfDelta, trunc: int, n_target: int):
    """Yield (m, n, digits) for all m, n < size, column by column.

    digits are trunc integers congruent mod p^n_target to the T-coefficients
    of the sum of P_{m,n}(delta) over the k matrices deltas.  A level digit
    of one matrix has |d| <= 2^m (p^n_target - 1)^2, m < size, so a sum of
    k stays below 2^(width-1): each column adds the packed levels of every
    matrix to the bias block and unpacks each entry once.
    """
    p = deltas[0].p
    width = 2 * (p**n_target).bit_length() + size + (len(deltas) - 1).bit_length()
    bias = 1 << (width - 1)
    bc = pack((bias,) * trunc, width)
    columns = []
    for delta in deltas:
        scalars, series = _kernel_samples(delta, size, omega, trunc, n_target)
        columns.append((list(zip(*scalars)), [pack(row, width) for row in series]))
    for n in range(size):
        levels = [bc] * size
        for scalars, packed in columns:
            rows = list(map(mul, scalars[n], packed))
            levels = list(map(add, levels, difference_triangle(rows)))
        for m, level in enumerate(levels):
            yield m, n, [d - bias for d in unpack(level, width, trunc)]


# -- bound verification ----------------------------------------------------


class BoundReport(NamedTuple):
    monoid_class: MonoidClass
    size: int
    violations: tuple  # (m, n, observed OrderBound)

    @property
    def ok(self) -> bool:
        return not self.violations


def _meets_mahler_bounds(p: int, rows: list, shifts) -> bool:
    """Whether p^(i - shift) divides the i-th Mahler coefficient of every column.

    rows[z][k] is column k at sample z, and shifts[k] its shift, in any
    order.  The walk takes one difference level of every live column
    (shift + 1 < len(rows), wherever it sits) at a time, and at level i
    tests the first row of each column with i > shift.
    """
    size = len(rows)
    live = [k for k, shift in enumerate(shifts) if shift + 1 < size]
    shifts = [shifts[k] for k in live]
    powers = [p**e for e in range(size - min(shifts, default=0))]
    # one flat list per level, row after row: its first len(live) entries are
    # the first row, and one map over the list shifted by a row differences it
    level = [row[k] for row in rows for k in live]
    for i in range(size):
        if any(x % powers[i - shift] for x, shift in zip(level, shifts) if i > shift):
            return False
        level = list(map(sub, level[len(live):], level))
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
        raise BadArgument(f"{delta.to_json()} fails the q|c, unit-d, det test")
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
    scalars, series = _kernel_samples(delta, size, omega, trunc, n_target)
    rows = list(map(add, scalars, series))
    if _meets_mahler_bounds(p, rows, shifts + list(range(trunc))):
        return BoundReport(cls, size, ())
    # a factor bound failed: report every entry short of its demand (an order
    # is never negative, so an entry with no demand is never reported).  meets
    # never raises here: an AtLeast order is at least n_target, every demand.
    violations = []
    for m, n, digits in action_digits((delta,), size, omega, trunc, n_target):
        need = m - shifts[n]
        if need > 0:
            order = mlambda_order(LambdaElt.from_ints(p, n_target, trunc, digits))
            if not order.meets(need, f"entry P_{m},{n}"):
                violations.append((m, n, order))
    return BoundReport(cls, size, tuple(violations))
