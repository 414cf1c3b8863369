"""Independent brute-force oracles used to freeze expected test values.

Each oracle deliberately uses a different algorithm from the library code
(digit search instead of fixed-point iteration, exact fractions instead of
modular series, direct alternating sums instead of difference tables,
cofactor expansion instead of division-free recurrences, gift wrapping
instead of a monotone chain).  The cofactor oracle lives in
`haloslopes.checks`, whose `charpoly-oracle` check runs it too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from haloslopes.checks import charpoly_cofactor_oracle  # noqa: F401


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
