"""Independent brute-force oracles used to freeze expected test values.

Each oracle deliberately uses a different algorithm from the library code
(digit search instead of fixed-point iteration, exact fractions instead of
modular series, integer binomials instead of a running falling factorial,
direct alternating sums instead of difference tables, cofactor expansion
instead of division-free recurrences, gift wrapping instead of a monotone
chain, one PAdicNum per T-coefficient instead of LambdaElt's reduced
integers).  The reference action path (`action_column`, `one_plus_T_pow`)
builds each entry one by one from these oracles and plain `pow`, never from
the Teichmuller, log or binomial code of `haloslopes.padic_core` or the
packed Mahler kernel; `tests/test_oracles.py` checks that this file names
none of them.  The cofactor oracle lives in `haloslopes.checks`, whose
`charpoly-oracle` check runs it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from haloslopes.checks import charpoly_cofactor_oracle  # noqa: F401
from haloslopes.iwasawa import DEFAULT_TRUNC, CharOfDelta, LambdaElt, OrderBound
from haloslopes.monoid_action import (
    DeltaMat,
    MonoidClass,
    NotInMonoid,
    check_monoid,
    column_input_prec,
)
from haloslopes.padic_core import (
    BadArgument,
    InsufficientPrecision,
    MismatchedParameters,
    PAdicNum,
    Valuation,
    q_for,
    val_p,
)


def val_int(n: int, p: int) -> int:
    assert n != 0
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def frac_residue(fr: Fraction, p: int, n_digits: int) -> int:
    """Residue mod p^n of a p-integral rational."""
    num, den = fr.numerator, fr.denominator
    assert den % p != 0, f"{fr} is not p-integral at p={p}"
    m = p ** n_digits
    return num * pow(den, -1, m) % m


def teichmuller_oracle(p: int, n_digits: int, d: int) -> int:
    """Digit-by-digit lift of the torsion representative of d."""
    assert d % p != 0 and p != 2
    x = d % p
    for k in range(2, n_digits + 1):
        mod = p ** k
        for digit in range(p):
            cand = x + digit * p ** (k - 1)
            if pow(cand, p - 1, mod) == 1:
                x = cand
                break
        else:
            raise AssertionError("no digit lift found")
    return x


def log_ratio_oracle(p: int, q: int, u: int, n_out: int, slack: int = 8) -> int:
    """log(u)/q mod p^n_out via exact fraction partial sums."""
    x = u - 1
    assert x % q == 0
    vq = val_int(q, p)
    target = n_out + vq + slack
    # enough terms that every dropped term has valuation >= target
    k = 1
    while k * vq - (val_int(k, p) if k % p == 0 else 0) < target or k < 4:
        k += 1
    total = Fraction(0)
    for j in range(1, k + 1):
        term = Fraction(x ** j, j)
        total += term if j % 2 == 1 else -term
    residue = frac_residue(total / q, p, n_out)
    return residue


def binom_oracle(u: int, r: int, p: int, n_digits: int) -> int:
    """Ordinary integer binomial of an exact integer representative."""
    return math.comb(u, r) % p ** n_digits


def mahler_coeff_oracle(samples, m: int):
    """a_m = sum_{i<=m} (-1)^(m-i) C(m,i) f(i), as a direct signed sum."""
    acc = None
    for i in range(m + 1):
        term = math.comb(m, i) * samples[i]
        if (m - i) % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def lower_hull_oracle(points):
    """Lower convex hull by gift wrapping; points are (int, Fraction)."""
    pts = sorted(points)
    assert len({x for x, _ in pts}) == len(pts), "x-values must be distinct"
    hull = [pts[0]]
    while hull[-1][0] < pts[-1][0]:
        cx, cy = hull[-1]
        best = None
        best_slope = None
        for x, y in pts:
            if x <= cx:
                continue
            slope = Fraction(y - cy, x - cx)
            # smallest slope wins; on ties take the farthest point
            if best is None or slope < best_slope or (slope == best_slope and x > best[0]):
                best = (x, y)
                best_slope = slope
        hull.append(best)
    return hull


def one_plus_T_pow(g: PAdicNum, trunc: int, n_target: int) -> LambdaElt:
    """(1+T)^g as a truncated series: coefficients C(g, r) for r < trunc."""
    need = n_target + val_int(math.factorial(trunc - 1), g.p)
    if g.prec < need:
        raise InsufficientPrecision(
            f"exponent needs precision >= {need} to certify {n_target} digits"
        )
    coeffs = [binom_oracle(g.residue, r, g.p, n_target) for r in range(trunc)]
    return LambdaElt.from_ints(g.p, n_target, trunc, coeffs)


@dataclass(frozen=True)
class ActionColumn:
    """Rows P_{0,n}..P_{m_max,n} of the action matrix for one column n."""

    n: int
    entries: tuple


def action_column(
    delta: DeltaMat,
    n: int,
    omega: CharOfDelta,
    m_max: int,
    trunc: int = DEFAULT_TRUNC,
    n_target: int = 8,
) -> ActionColumn:
    """Column n of the action matrix, entry by entry from the oracles above.

    Samples h_n(z) = C(f(z), n) * omega(d0) * (1+T)^{g(z)} at z = 0..m_max
    as ring elements, then takes the alternating sums at 0.  The reference
    for the packed kernel behind `assemble` and `verify_entry_bounds`.
    """
    cls = check_monoid(delta)
    if cls is MonoidClass.Neither:
        raise NotInMonoid(f"{delta.to_json()} fails the q|c, unit-d, det test")
    need = column_input_prec(delta.p, n, trunc, n_target)
    if delta.prec < need:
        raise InsufficientPrecision(
            f"column {n} at target {n_target} needs entry precision {need}, "
            f"have {delta.prec}"
        )
    p, prec = delta.p, delta.prec
    mod = p**prec
    a, b, c, d = (x.residue for x in (delta.a, delta.b, delta.c, delta.d))
    # torsion component of d: the sign mod 4 for p = 2
    if p == 2:
        d0 = 1 if d % 4 == 1 else mod - 1
    else:
        d0 = teichmuller_oracle(p, prec, d)
    w = pow(d0, omega.exponent, mod)
    g_prec = n_target + val_int(math.factorial(trunc - 1), p)
    samples = []
    for z in range(m_max + 1):
        den = (c * z + d) % mod
        fz = (a * z + b) * pow(den, -1, mod) % mod
        g = log_ratio_oracle(p, q_for(p), den * pow(d0, -1, mod) % mod, g_prec)
        series = one_plus_T_pow(PAdicNum(p, g_prec, g), trunc, n_target)
        samples.append(series * (binom_oracle(fz, n, p, n_target) * w))
    return ActionColumn(n, tuple(mahler_coeff_oracle(samples, m) for m in range(m_max + 1)))


@dataclass(frozen=True)
class CoeffLambda:
    """Truncated Z_p[[T]] element as one PAdicNum per T-coefficient.

    The reference for LambdaElt: every operation goes through PAdicNum
    arithmetic coefficient by coefficient, never through a shared modulus.
    """

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise BadArgument("needs at least one coefficient")
        c0 = self.coeffs[0]
        for c in self.coeffs:
            if not isinstance(c, PAdicNum) or (c.p, c.prec) != (c0.p, c0.prec):
                raise MismatchedParameters("coefficients must share (p, N)")

    def _join(self, other):
        if (self.coeffs[0].p, len(self.coeffs)) != (other.coeffs[0].p, len(other.coeffs)):
            raise MismatchedParameters("different rings")

    def __add__(self, other):
        self._join(other)
        return CoeffLambda(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._join(other)
        return CoeffLambda(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CoeffLambda(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, PAdicNum)):
            return CoeffLambda(tuple(a * other for a in self.coeffs))
        self._join(other)
        out = []
        for k in range(len(self.coeffs)):
            acc = self.coeffs[0] * other.coeffs[k]
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * other.coeffs[k - i]
            out.append(acc)
        return CoeffLambda(tuple(out))

    def __eq__(self, other):
        # PAdicNum equality is already at the shared precision
        return len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def with_prec(self, n: int) -> "CoeffLambda":
        return CoeffLambda(tuple(c.with_prec(n) for c in self.coeffs))

    def to_json(self) -> dict:
        c0 = self.coeffs[0]
        return {
            "p": str(c0.p),
            "N": str(c0.prec),
            "coeffs": [str(c.residue) for c in self.coeffs],
        }


def order_oracle(x: CoeffLambda) -> OrderBound:
    """min over every m of m + v(b_m), exact iff an exact term attains it."""
    contribs = [(int(val_p(c).bound) + m, val_p(c).is_exact) for m, c in enumerate(x.coeffs)]
    best = min(v for v, _ in contribs)
    return OrderBound(best, any(exact for v, exact in contribs if v == best))


def eval_valuation_oracle(x: CoeffLambda, vT: Fraction) -> tuple:
    """min over every m of v(b_m) + m*vT, exact iff one exact term attains it."""
    contribs = [(val_p(c).bound + m * vT, val_p(c).is_exact) for m, c in enumerate(x.coeffs)]
    best = min(v for v, _ in contribs)
    winners = [exact for v, exact in contribs if v == best]
    exact = winners == [True]
    return (Valuation.exact(best) if exact else Valuation.at_least(best)), exact
