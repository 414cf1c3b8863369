"""Characteristic series det(I - X M) of truncated block operators.

The ring Z/p^N [T]/T^M_T has zero divisors among the integers, so the
determinant uses the division-free Berkowitz recurrence: absorb one
row/column at a time, multiplying the coefficient vector by a Toeplitz
matrix generated by [1, -pivot, -R S, -R A S, ...].  Ring elements travel
as packed big integers (one digit per T-coefficient) so a ring product is
a single integer multiply plus a digitwise reduction.

The truncation size comes from the convergence lemma for the block shape:
beyond the leading floor(ptr/(p-1)) minor the matrix is strictly upper
triangular mod m^r, so coefficients stabilize once the minor is inside.
"""

from __future__ import annotations

from typing import NamedTuple

from .iwasawa import CharOfDelta, LambdaElt, mlambda_order
from .monoid_action import matrix_input_prec
from .padic_core import (
    BadArgument,
    Frozen,
    MismatchedParameters,
    PadicError,
    PrecisionTooLow,
)
from .up_operator import UpSpec, assemble, attainable_target


class StabilityFailure(PadicError):
    """Two truncation sizes disagreed where the convergence lemma forbids it."""

    exit_code = 3


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


# -- packed ring helpers -----------------------------------------------------


def _ring_params(p: int, prec: int, trunc: int, size: int):
    pn = p**prec
    width = 2 * pn.bit_length() + (size + 2).bit_length() + trunc.bit_length() + 2
    return pn, width


def _pack(x: LambdaElt, width: int) -> int:
    acc = 0
    for c in reversed(x.res):
        acc = (acc << width) | c
    return acc


def _reduce(x: int, pn: int, width: int, trunc: int, mask: int) -> int:
    out = 0
    shift = 0
    for _ in range(trunc):
        d = (x >> shift) & mask
        if d:
            out |= (d % pn) << shift
        shift += width
    return out


def _neg(x: int, pn: int, width: int, trunc: int, mask: int) -> int:
    # only applied to reduced values, so each digit is already < pn
    out = 0
    shift = 0
    for _ in range(trunc):
        d = (x >> shift) & mask
        if d:
            out |= (pn - d) << shift
        shift += width
    return out


def berkowitz_charpoly(entries, minor: int | None = None) -> tuple:
    """Coefficients (c_0..c_S) of det(I - X M) over the truncated ring.

    Step k absorbs row and column k, so the state after it is the
    polynomial of the leading (k+1) x (k+1) minor (Berkowitz 1984).  Given
    a minor size, one pass returns the pair (leading minor's coefficients,
    full coefficients).
    """
    size = len(entries)
    if size == 0:
        raise BadArgument("empty matrix has no characteristic series")
    if minor is not None and not 1 <= minor <= size:
        raise BadArgument(f"minor size {minor} is outside 1..{size}")
    params = {(e.p, e.prec, e.trunc) for row in entries for e in row}
    if len(params) != 1:
        raise MismatchedParameters(f"entries disagree on ring parameters: {params}")
    ((p, prec, trunc),) = params
    pn, width = _ring_params(p, prec, trunc, size)
    mask = (1 << width) - 1
    mat = [[_pack(e, width) for e in row] for row in entries]

    one = 1
    v = [one]
    for k in range(size):
        pivot = mat[k][k]
        c = [one, _neg(pivot, pn, width, trunc, mask)]
        if k:
            row_k = mat[k]
            w = [mat[i][k] for i in range(k)]
            for j in range(k):
                acc = 0
                for i in range(k):
                    acc += row_k[i] * w[i]
                c.append(_neg(_reduce(acc, pn, width, trunc, mask), pn, width, trunc, mask))
                if j < k - 1:
                    w_next = []
                    for i in range(k):
                        acc = 0
                        row_i = mat[i]
                        for l in range(k):
                            acc += row_i[l] * w[l]
                        w_next.append(_reduce(acc, pn, width, trunc, mask))
                    w = w_next
        v_new = []
        for i in range(len(v) + 1):
            acc = 0
            for j in range(max(0, i - len(c) + 1), min(i, len(v) - 1) + 1):
                acc += c[i - j] * v[j]
            v_new.append(_reduce(acc, pn, width, trunc, mask))
        v = v_new
        if k + 1 == minor:
            lead = v

    shifts = range(0, width * trunc, width)

    def unpack(poly):
        # every value in the state is reduced, so each digit is below p^prec
        return tuple(
            LambdaElt._raw(p, prec, tuple((packed >> s) & mask for s in shifts))
            for packed in poly
        )

    if minor is None:
        return unpack(v)
    return unpack(lead), unpack(v)


# -- the series of an operator spec ------------------------------------------


def char_input_prec(p: int, t: int, r: int, trunc: int, n_target: int) -> int:
    """Entry precision an UpSpec needs for char_series at this target."""
    blocks = truncation_size(r, p, t) // t + 2
    return matrix_input_prec(p, blocks, trunc, n_target)


def char_series(spec: UpSpec, D: int, r: int, omega: CharOfDelta) -> CharSeries:
    """c_0..c_D of the block operator, certified mod m_Lambda^r.

    One Berkowitz pass over the matrix of size S + t yields both the series
    at the stable truncation size S (rounded up to whole blocks), as the
    polynomial of the leading S x S minor, and the series at S + t.  The
    ring runs at the precision certified for size S, so the returned
    coefficients keep it; the size-(S + t) polynomial is cut to the
    precision certified for its own size.  The convergence lemma says the
    two agree mod m^r, so any disagreement signals a precision or
    implementation fault.
    """
    p, t = spec.p, spec.t
    ts = truncation_size(r, p, t)
    if D < 0:
        raise BadArgument(f"degree {D} is negative")
    if D > ts:
        raise BadArgument(f"degree {D} exceeds the stable window {ts}")
    n_blocks = window_blocks(p, t, r, D)
    mat = assemble(spec, n_blocks + 1, omega, lead_blocks=n_blocks)
    prec = mat.entry(0, 0).prec
    if prec < r:
        raise PrecisionTooLow(
            f"coefficients certified to {prec} digits cannot witness "
            f"stability mod m^{r}"
        )
    small, big = berkowitz_charpoly(mat.entries, minor=n_blocks * t)
    big_prec = attainable_target(p, n_blocks + 1, spec.M_T, spec.N)
    for n in range(D + 1):
        gap = mlambda_order(small[n] - big[n].with_prec(big_prec))
        if not gap.certainly_at_least(r):
            raise StabilityFailure(
                f"c_{n} differs between sizes {n_blocks * t} and "
                f"{(n_blocks + 1) * t} at order {gap.value} < {r}"
            )
    return CharSeries(tuple(small[: D + 1]), r)


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
