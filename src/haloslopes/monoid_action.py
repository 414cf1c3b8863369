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

The kernel reduces the scalars C(f(z), n) * omega(d0) and the series
digits mod p^n_target, the precision its caller certifies, and may scale
the digit at T^s by t_scale^s.  The triangle (`difference_triangle`) is an
integer combination of rows, so every digit of its output is congruent mod
p^n_target to t_scale^s times the T-coefficient of P_{m,n}.  A row digit
is below p^n_target * p^n_target * t_scale^(trunc-1), times a further
factor below 2^headroom that the caller may apply to whole rows; an m-th
difference digit is below 2^m times that in absolute value.  The width

    2 * bits(p^n_target) + bits(t_scale^(trunc-1)) + headroom + size + 4

therefore keeps every digit d of the triangle at |d| < 2^(width-5).

`assemble` runs at t_scale 1 and adds the bias block, 2^(width-1) in
every digit, once to each first difference; each digit is then a
nonnegative field of the packed value and unpacks to the exact integer
difference.  The same function gives the Mahler coefficients of plain
integer samples with a zero bias.

`verify_entry_bounds` runs at t_scale p with a zero bias and tests each
entry X = sum_s d_s 2^(width s) at once.  An entry sum_s b_s T^s lies in
(p, T)^r exactly when v(b_s) >= r - s for all s, that is, when p^r divides
every d_s = p^s b_s: the order `mlambda_order` computes is the p-adic
order of the image under T -> pT.  Let pi = p^r, L = bits(pi - 1),
k = width - 1 - L, K the block with 2^k in every digit and M the block with
bits k+1 .. width-1 of every digit set, together with every bit from
width * trunc up.  X passes when X % pi == 0 and (X // pi + K) & M == 0.
This is exact, because a representation sum_s e_s 2^(width s) with every
e_s in [-2^(width-1), 2^(width-1)) is unique.  If pi divides every d_s,
then X // pi has the digits d_s / pi, and |d_s / pi| < 2^(width-5) / 2^(L-1)
<= 2^k, so adding K leaves every field in [0, 2^(k+1)) and the AND is 0.
Conversely, if the AND is 0, then X // pi + K has fields f_s in
[0, 2^(k+1)) and nothing above them, so X = sum_s pi (f_s - 2^k)
2^(width s), and pi <= 2^L puts every pi (f_s - 2^k) in
[-2^(width-1), 2^(width-1)); by uniqueness d_s = pi (f_s - 2^k), which pi
divides.  The demanded order never exceeds n_target = size, where the
digits are certified.

The scan tests COLUMN_GROUP consecutive columns at once.  Column n demands
order m - shift_n of row m, with shift_n = n // step - raise_by
nondecreasing in n.  In a group whose first column is f, column n is packed
as p^(e_n) times its samples, e_n = shift_n - shift_f, in its own block of
trunc fields; a group row is one integer with trunc * COLUMN_GROUP fields.
 - Scaling commutes with the triangle, which is an integer combination of
   rows, and multiplies every digit by p^(e_n).  So p^r divides every
   scaled digit of column n exactly when p^(r - e_n) divides every digit
   of its own row, for r > e_n, and always for r <= e_n.
 - At r = m - shift_f, r - e_n = m - shift_n is column n's own demand, so
   the one test of order r on the group row passes exactly when every
   column of the group meets its own demand at row m.
 - A row with no demand for column n (m - shift_n <= 0) has r <= e_n and
   passes for that column, as it is not tested on its own.
 - The scaled row digits are below p^n_target * p^n_target *
   p^(trunc-1) * p^(e_max), so a width with bits(p^(e_max)) more bits, for
   the largest e_n of any group, keeps |d| < 2^(width-5) and the test above
   exact over trunc * COLUMN_GROUP fields.
The scan only certifies: it stops at the first failing group row.  The
report then reads every entry once through `action_digits` at n_target
digits and lists those whose order misses their demand, in (n, m) order.
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
    delta: DeltaMat,
    size: int,
    omega: CharOfDelta,
    trunc: int,
    n_target: int,
    t_scale: int = 1,
    headroom: int = 0,
):
    """Return (scalars, series, width) for the samples z < size.

    scalars[z][n] is omega(d0) * C(f(z), n) and series[z] packs the
    T-coefficients of (1+T)^{g(z)}, the one at T^s multiplied by t_scale^s,
    in bits [width*s, width*(s+1)); both are reduced mod p^n_target, so
    scalars[z][n] * series[z] packs h_n(z).  Any integer combination of
    these rows, the difference triangle included, is then congruent mod
    p^n_target to the same combination of the true samples; the width
    leaves room for the 2^m growth of m-fold differences and for a further
    factor below 2^headroom on each row, so every digit stays exact
    integer data.
    """
    p, prec = delta.p, delta.prec
    mod = p**prec
    target = p**n_target
    d0 = torsion_residue(delta.d_res, p, prec)
    w_res = pow(d0, omega.exponent, target)
    a, b, c, d = delta.residues

    width = (
        2 * target.bit_length()
        + (t_scale ** (trunc - 1)).bit_length()
        + headroom
        + size
        + 4
    )
    scales = [t_scale**s for s in range(trunc)]

    # g(z) = log((cz + d)/d0)/q = log((d/d0) (1 + (c/d) z))/q on the line
    inv_d = pow(d, -1, mod)
    gs, _eff = log_line(d * pow(d0, -1, mod) % mod, c * inv_d % mod, size, p, prec)
    scalars = []
    series = []
    for z, g in enumerate(gs):
        fz = (a * z + b) * pow((c * z + d) % mod, -1, mod) % mod
        scalars.append([x * w_res % target for x in binomials(fz, size, p, prec)])
        binoms = binomials(g, trunc, p, prec)
        series.append(pack([x % target * s for x, s in zip(binoms, scales)], width))
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


# live columns packed side by side into one row per sample in the bound scan
COLUMN_GROUP = 4


@lru_cache(maxsize=None)
def _order_tests(p: int, width: int, trunc: int, top: int) -> tuple:
    """(p^r, K, M) for r = 1..top at index r: the one-entry test of (p, T)^r.

    A signed packed value X passes for r when X % p^r == 0 and
    (X // p^r + K) & M == 0; see the module docstring.
    """
    ones = pack((1,) * trunc, width)
    field = (1 << width) - 1
    above = -(1 << (width * trunc))
    tests = [None]
    for r in range(1, top + 1):
        pi = p**r
        k = width - 1 - (pi - 1).bit_length()
        tests.append((pi, ones << k, (field ^ ((2 << k) - 1)) * ones | above))
    return tuple(tests)


def _divisible(packed: int, pi: int, fill: int, mask: int) -> bool:
    """Whether pi divides every balanced digit of packed (one _order_tests row)."""
    quo, rem = divmod(packed, pi)
    return not rem and not (quo + fill) & mask


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
    # column n demands order m - shifts[n] of row m, at most size - 1 +
    # raise_by; the live columns, those with a demand in some row, are a
    # prefix, tested COLUMN_GROUP at a time at the demand of each group's first
    step = p if cls is MonoidClass.UpMonoid else 1
    shifts = [n // step - raise_by for n in range(size)]
    live = [n for n in range(size) if shifts[n] + 1 < size]
    groups = [live[i : i + COLUMN_GROUP] for i in range(0, len(live), COLUMN_GROUP)]
    e_max = max((shifts[g[-1]] - shifts[g[0]] for g in groups), default=0)
    scalars, series, width = _kernel_samples(
        delta, size, omega, trunc, n_target, t_scale=p, headroom=(p**e_max).bit_length()
    )
    block = width * trunc
    tests = _order_tests(p, width, trunc * COLUMN_GROUP, n_target)
    for group in groups:
        first = shifts[group[0]]
        # column group[j] fills fields j*trunc .. (j+1)*trunc - 1 of a row
        scaled = [(n, p ** (shifts[n] - first)) for n in group]
        columns = [
            [column[n] * scale * packed for column, packed in zip(scalars, series)]
            for n, scale in scaled
        ]
        rows = [pack(samples, block) for samples in zip(*columns)]
        firsts = difference_triangle(rows, 0)
        if not all(
            _divisible(firsts[m], *tests[m - first]) for m in range(max(first + 1, 0), size)
        ):
            break
    else:
        return BoundReport(cls, size, ())
    # a group row failed: report every entry short of its demand (an order
    # is never negative, so an entry with no demand is never reported)
    violations = []
    for m, n, digits in action_digits(delta, size, omega, trunc, n_target):
        need = m - shifts[n]
        if need > 0:
            order = mlambda_order(LambdaElt.from_ints(p, n_target, trunc, digits))
            if order.value < need:
                violations.append((m, n, order))
    return BoundReport(cls, size, tuple(violations))
