"""Independent brute-force oracles used to freeze expected test values.

Each oracle deliberately uses a different algorithm from the library code
(digit search instead of fixed-point iteration, exact fractions instead of
modular series, integer binomials instead of a running falling factorial,
direct alternating sums instead of difference tables, cofactor expansion
instead of division-free recurrences, gift wrapping instead of a monotone
chain, one PAdicNum record per T-coefficient, each reduced and multiplied
here, instead of LambdaElt's shared residue tuple, and valuations from
`val_int` instead of the package's early-stopping scans).  The reference
action path (`action_column`, `one_plus_T_pow`) builds each entry one by
one from these oracles and plain `pow`, never from the Teichmuller, log or
binomial code of `haloslopes.padic_core` or the packed Mahler kernel;
`tests/test_oracles.py` checks that this file names none of them.  The
cofactor oracle lives in `haloslopes.checks`, whose `charpoly-oracle`
check runs it too; the tests feed it `CoeffLambda` entries, and neither
they nor LambdaElt's product reach the packed codec.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from haloslopes.checks import charpoly_cofactor_oracle  # noqa: F401
from haloslopes.iwasawa import DEFAULT_TRUNC, CharOfDelta, LambdaElt
from haloslopes.monoid_action import (
    DeltaMat,
    MonoidClass,
    check_monoid,
    column_input_prec,
)
from haloslopes.padic_core import (
    BadArgument,
    OrderBound,
    PAdicNum,
    PrecisionTooLow,
    q_for,
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


def hull_floor_oracle(points, x):
    """The lower hull of `points` at x, or past its ends its end-slope extension.

    Brute force: inside the x-range, the least chord value at x over every
    pair of points around x; past the last point L, the line through L whose
    slope is the largest slope from another point to L (past the first, the
    smallest from it).  Points are (int, Fraction) with distinct x; None when
    there is one point and x is not its own.
    """
    pts = sorted(points)
    (lo, ylo), (hi, yhi) = pts[0], pts[-1]
    if lo <= x <= hi:
        return min(
            ya + Fraction(yb - ya, xb - xa) * (x - xa) if xb != xa else ya
            for xa, ya in pts
            for xb, yb in pts
            if xa <= x <= xb
        )
    if len(pts) == 1:
        return None
    if x > hi:
        return yhi + max(Fraction(yhi - y, hi - px) for px, y in pts[:-1]) * (x - hi)
    return ylo + min(Fraction(y - ylo, px - lo) for px, y in pts[1:]) * (x - lo)


def one_plus_T_pow(g: PAdicNum, trunc: int, n_target: int) -> LambdaElt:
    """(1+T)^g as a truncated series: coefficients C(g, r) for r < trunc."""
    need = n_target + val_int(math.factorial(trunc - 1), g.p)
    if g.prec < need:
        raise PrecisionTooLow(
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
        raise BadArgument(f"{delta.to_json()} fails the q|c, unit-d, det test")
    need = column_input_prec(delta.p, n, trunc, n_target)
    if delta.prec < need:
        raise PrecisionTooLow(
            f"column {n} at target {n_target} needs entry precision {need}, "
            f"have {delta.prec}"
        )
    p, prec = delta.p, delta.prec
    mod = p**prec
    a, b, c, d = delta.residues
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
    """Truncated Z_p[[T]] element as one PAdicNum record per T-coefficient.

    The reference for LambdaElt: every operation works coefficient by
    coefficient on the records' plain residues, reduces them mod p^min(prec)
    itself and multiplies by a schoolbook product, never through a shared
    residue tuple or a packed integer.
    """

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise BadArgument("needs at least one coefficient")
        c0 = self.coeffs[0]
        for c in self.coeffs:
            if not isinstance(c, PAdicNum) or (c.p, c.prec) != (c0.p, c0.prec):
                raise BadArgument("coefficients must share (p, N)")

    def _join(self, other) -> int:
        """The shared precision of two elements of the same ring."""
        a, b = self.coeffs[0], other.coeffs[0]
        if (a.p, len(self.coeffs)) != (b.p, len(other.coeffs)):
            raise BadArgument("different rings")
        return min(a.prec, b.prec)

    def _reduced(self, prec: int, residues) -> "CoeffLambda":
        p = self.coeffs[0].p
        mod = p**prec
        return CoeffLambda(tuple(PAdicNum(p, prec, r % mod) for r in residues))

    def __add__(self, other):
        n = self._join(other)
        return self._reduced(n, (a.residue + b.residue for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        n = self._join(other)
        return self._reduced(n, (a.residue - b.residue for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return self._reduced(self.coeffs[0].prec, (-a.residue for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return self._reduced(self.coeffs[0].prec, (a.residue * other for a in self.coeffs))
        n = self._join(other)
        out = []
        for k in range(len(self.coeffs)):
            acc = 0
            for i in range(k + 1):
                acc += self.coeffs[i].residue * other.coeffs[k - i].residue
            out.append(acc)
        return self._reduced(n, out)

    def to_json(self) -> dict:
        c0 = self.coeffs[0]
        return {
            "p": str(c0.p),
            "N": str(c0.prec),
            "coeffs": [str(c.residue) for c in self.coeffs],
        }


def valuation_oracle(c: PAdicNum) -> OrderBound:
    """Exact v_p of a nonzero residue; AtLeast prec on a zero residue."""
    if c.residue == 0:
        return OrderBound.at_least(c.prec)
    return OrderBound.exact(val_int(c.residue, c.p))


def order_oracle(x: CoeffLambda) -> OrderBound:
    """min over every m of m + v(b_m), exact iff an exact term attains it."""
    contribs = [(v.value + m, v.is_exact) for m, v in enumerate(map(valuation_oracle, x.coeffs))]
    best = min(v for v, _ in contribs)
    return OrderBound(best, any(exact for v, exact in contribs if v == best))


def eval_valuation_oracle(x: CoeffLambda, vT: Fraction) -> OrderBound:
    """min over every m of v(b_m) + m*vT, exact iff one exact term attains it."""
    contribs = [
        (v.value + m * vT, v.is_exact) for m, v in enumerate(map(valuation_oracle, x.coeffs))
    ]
    best = min(v for v, _ in contribs)
    winners = [exact for v, exact in contribs if v == best]
    return OrderBound.exact(best) if winners == [True] else OrderBound.at_least(best)


def char_at_point_oracle(entries, tau: int, modulus: int, degree: int) -> list:
    """c_0..c_degree of det(I - X A(tau)) mod modulus, by Newton's identities.

    A(tau) evaluates each entry's stored T-digits at T = tau in exact
    integers.  For an integer matrix, n c_n = -sum_{i=1..n} tr(A^i) c_{n-i};
    the traces come from exact matrix powers and each c_n from an exact
    integer division, reduced only at the end: no packed digits, width or
    digitwise reduction, unlike the Berkowitz recurrence it witnesses.
    When tau = p*u and modulus divides p^min(prec, trunc), T -> tau is a ring
    map from the entries' ring onto Z/modulus, so the result equals the
    characteristic series evaluated at tau.
    """
    a = [[sum(b * tau**s for s, b in enumerate(e.res)) for e in row] for row in entries]
    columns = list(zip(*a))
    power, traces = a, []
    for _ in range(degree):
        traces.append(sum(power[j][j] for j in range(len(a))))
        power = [[sum(map(operator.mul, row, col)) for col in columns] for row in power]
    c = [1]
    for n in range(1, degree + 1):
        total = -sum(traces[i - 1] * c[n - i] for i in range(1, n + 1))
        assert total % n == 0, f"c_{n} is not an integer"
        c.append(total // n)
    return [x % modulus for x in c]
