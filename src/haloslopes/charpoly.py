"""Characteristic series det(I - X M) of truncated block operators.

The ring Z/p^N [T]/T^M_T has zero divisors among the integers, so the
determinant uses the division-free Berkowitz recurrence: absorb one
row/column at a time, multiplying the coefficient vector by a Toeplitz
matrix generated by [1, -pivot, -R S, -R A S, ...].  Ring elements travel
in the packed form of `iwasawa` (one digit per T-coefficient), so a ring
product is a single integer multiply plus `reduce_digits`, and negating a
reduced value is one subtraction from the block with p^N in every digit.

The truncation size comes from the convergence lemma for the block shape:
beyond the leading floor(ptr/(p-1)) minor the matrix is strictly upper
triangular mod m^r, so coefficients stabilize once the minor is inside.
A series the operator's digits cannot certify mod m^r, and two truncation
sizes that disagree, raise PrecisionTooLow (exit 3).
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .iwasawa import CharOfDelta, LambdaElt, mlambda_order
from .iwasawa import pack, reduce_digits, ring_width, unpack
from .monoid_action import matrix_input_prec
from .padic_core import BadArgument, Frozen, PrecisionTooLow
from .up_operator import UpSpec, assemble, certified_target


class CharSeries(Frozen):
    """Coefficients c_0..c_D of det(I - X M), correct modulo m_Lambda^r."""

    __slots__ = ("coeffs", "r")

    def __init__(self, coeffs: tuple, r: int):
        c0 = coeffs[0]
        if c0 != LambdaElt.one(c0.p, c0.prec, c0.trunc):
            raise BadArgument("a characteristic series must start at 1")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "r", r)

    def _key(self) -> tuple:
        return self.coeffs, self.r

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_json(self) -> dict:
        return {"r": self.r, "coeffs": [c.to_json() for c in self.coeffs]}


def lambda_seq(p: int, t: int, n_max: int) -> tuple:
    """lambda(0..n_max) with increments floor(i/t) - floor(i/pt)."""
    vals = [0]
    for i in range(n_max):
        vals.append(vals[-1] + i // t - i // (p * t))
    return tuple(vals)


def truncation_size(r: int, p: int, t: int) -> int:
    """Matrix size whose characteristic series is stable mod m_Lambda^r.

    The leading floor(ptr/(p-1)) minor plus a one-block margin; zero
    certification order needs no matrix at all.
    """
    if r <= 0:
        return 0
    return p * t * r // (p - 1) + t


def window_blocks(p: int, t: int, r: int, D: int) -> int:
    """Whole blocks covering the stable window mod m^r and c_0..c_D."""
    return max(-(-truncation_size(r, p, t) // t), -(-D // t), 1)


def berkowitz_charpoly(entries) -> tuple:
    """Coefficients (c_0..c_S) of det(I - X M) over the truncated ring.

    Step k absorbs row and column k, so the state after it is the
    polynomial of the leading (k+1) x (k+1) minor (Berkowitz 1984).
    """
    size = len(entries)
    if size == 0:
        raise BadArgument("empty matrix has no characteristic series")
    params = {(e.p, e.prec, e.trunc) for row in entries for e in row}
    if len(params) != 1:
        raise BadArgument(f"entries disagree on ring parameters: {params}")
    ((p, prec, trunc),) = params
    pn = p**prec
    width = ring_width(pn, trunc, size + 1)
    mat = [[pack(e.res, width) for e in row] for row in entries]
    # neg - x negates a reduced x digitwise, each pn - d in [1, pn], no borrow
    neg = pack((pn,) * trunc, width)

    v = [1]
    for k in range(size):
        # c = [1, -pivot, -R S, -R A S, ...], with A the leading k x k block
        # and R, S the rest of row and column k
        c = [1, neg - mat[k][k]]
        w = [mat[i][k] for i in range(k)]
        for j in range(k):
            if j:
                w = [
                    reduce_digits(sum(map(mul, row, w)), pn, width, trunc)
                    for row in mat[:k]
                ]
            c.append(neg - reduce_digits(sum(map(mul, mat[k], w)), pn, width, trunc))
        # the next minor's polynomial: v times the Toeplitz matrix of c
        v = [
            reduce_digits(sum(map(mul, c[i::-1], v)), pn, width, trunc)
            for i in range(k + 2)
        ]

    # every value in the state is reduced, so each digit is below p^prec
    return tuple(LambdaElt._raw(p, prec, unpack(x, width, trunc)) for x in v)


# -- the series of an operator spec ------------------------------------------


def char_input_prec(p: int, t: int, r: int, trunc: int, n_target: int) -> int:
    """Entry precision an UpSpec needs for char_series at this target."""
    blocks = truncation_size(r, p, t) // t + 2
    return matrix_input_prec(p, blocks, trunc, n_target)


def char_series(spec: UpSpec, D: int, r: int, omega: CharOfDelta) -> CharSeries:
    """c_0..c_D of the block operator, certified mod m_Lambda^r.

    The series is that of the matrix at the stable truncation size S
    (rounded up to whole blocks), at the precision certified for that size.
    The convergence lemma says the series at size S + t agrees with it mod
    m^r.  A digit at T^s with s >= r, or one divisible by p^r, only adds
    orders >= r, so that gap is decided over Z/p^k [T]/T^w, with k the
    smaller of r and the precision certified for size S + t and w the
    smaller of r and M_T, from a second assembly whose budget is cut to
    what k digits need.  A certified disagreement and a gap that only zero
    residues bound below r both raise PrecisionTooLow.
    """
    p, t = spec.p, spec.t
    ts = truncation_size(r, p, t)
    if D < 0:
        raise BadArgument(f"degree {D} is negative")
    if D > ts:
        raise BadArgument(f"degree {D} exceeds the stable window {ts}")
    n_blocks = window_blocks(p, t, r, D)
    # a short budget is reported for size S first, then for S + t
    certified_target(spec, n_blocks)
    big_prec = certified_target(spec, n_blocks + 1)
    mat = assemble(spec, n_blocks, omega)
    prec = mat.entry(0, 0).prec
    if prec < r:
        raise PrecisionTooLow(
            f"coefficients certified to {prec} digits cannot witness "
            f"stability mod m^{r}"
        )
    series = berkowitz_charpoly(mat.entries)[: D + 1]
    # one digit when r = 0, where every order meets r
    k, w = max(min(big_prec, r), 1), max(min(spec.M_T, r), 1)
    quotient = spec._replace(M_T=w, N=matrix_input_prec(p, n_blocks + 1, w, k))
    big = berkowitz_charpoly(assemble(quotient, n_blocks + 1, omega).entries)
    sizes = f"sizes {n_blocks * t} and {(n_blocks + 1) * t}"
    for n, c in enumerate(series):
        gap = mlambda_order(LambdaElt.from_ints(p, k, w, c.res[:w]) - big[n])
        if not gap.meets(r, f"the gap of c_{n} between {sizes}"):
            # the convergence lemma forbids a certified disagreement: it is an
            # implementation fault, not a short budget, though it exits 3
            raise PrecisionTooLow(
                f"c_{n} differs between {sizes} at order {gap.value} < {r}"
            )
    return CharSeries(series, r)


# -- coefficient bound -------------------------------------------------------


class BoundReport(NamedTuple):
    """Margins of the halo order of c_n over lambda(n); skipped = out of budget."""

    checked: tuple  # (n, margin)
    skipped: tuple
    violations: tuple  # (n, observed OrderBound)
    orders: tuple  # OrderBound of every c_n, skipped ones included

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_char_bound(cs: CharSeries, lam: tuple) -> BoundReport:
    """Certify c_n in T^{lambda(n)} * (halo ring) wherever precision allows.

    A zero coefficient at precision N witnesses halo order N at most, so
    targets above the coefficient precision are reported as skipped rather
    than guessed; every other target is decided by OrderBound.meets.
    """
    if len(lam) <= cs.degree:
        raise BadArgument(f"lambda sequence stops at {len(lam) - 1} < {cs.degree}")
    checked, skipped, violations = [], [], []
    orders = tuple(mlambda_order(c) for c in cs.coeffs)
    for n, (c, order) in enumerate(zip(cs.coeffs, orders)):
        target = lam[n]
        if target > c.prec:
            skipped.append(n)
        elif order.meets(target, f"c_{n}"):
            checked.append((n, order.value - target))
        else:
            violations.append((n, order))
    return BoundReport(tuple(checked), tuple(skipped), tuple(violations), orders)
