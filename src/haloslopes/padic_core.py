"""Exact arithmetic on p-adic integers truncated modulo p^N.

Every computation runs on plain residues mod p^N, the precision N kept
beside them; the primitives every operator entry is built from (Teichmuller
lift, log(u)/q, binomials) take and return such residues.  OrderBound is
the one record of an order or valuation, Exact or AtLeast, and its `meets`
the one rule that decides one against a floor; a zero residue carries an
AtLeast value, never an exact infinity.  PAdicNum is a bare record of
(p, N, residue) with no arithmetic.

The package raises one error class per CLI exit code, and the message
names the case.  Two are defined here: BadArgument (2) for input outside
what a function accepts and PrecisionTooLow (3) for a certificate the
digits at hand cannot give; checks.CheckWorkerLost (1) is the third.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import NamedTuple


class PadicError(Exception):
    """Base class of the package's errors.

    exit_code is the CLI's exit status for the error: 2 for bad input, 3
    for a precision shortfall, 1 for a failed check.
    """

    exit_code = 2


class BadArgument(PadicError):
    """Input outside what the called function accepts (exit 2)."""


class PrecisionTooLow(PadicError):
    """A certificate the digits at hand cannot give (exit 3): too few digits
    for an operation, or an AtLeast value left undecided against a floor."""

    exit_code = 3


class OrderBound(NamedTuple):
    """An order or valuation, exact or only a certified lower bound.

    value is an int order (ideal membership) or a Fraction valuation (at a
    radius).  When is_exact is False the true value is at least `value`:
    the deciding coefficients were zero residues, known only to be
    divisible by p^N.
    """

    value: int | Fraction
    is_exact: bool

    @classmethod
    def exact(cls, value) -> "OrderBound":
        return cls(value, True)

    @classmethod
    def at_least(cls, value) -> "OrderBound":
        return cls(value, False)

    def meets(self, need, where: str) -> bool:
        """Whether the value reaches need; an AtLeast shortfall is undecidable.

        That case raises PrecisionTooLow, so no claim rests on an AtLeast value.
        """
        if self.value >= need:
            return True
        if self.is_exact:
            return False
        raise PrecisionTooLow(
            f"{where} certifies only order {self.value}, bound {need} undecidable"
        )

    def __repr__(self):
        return f"OrderBound({'=' if self.is_exact else '>='}{self.value})"


def q_for(p: int) -> int:
    # q = p for odd p, q = 4 for p = 2
    return p if p != 2 else 4


def phi_q(p: int) -> int:
    # order of the torsion part of Z_p^x: p - 1 for odd p, 2 for p = 2
    return p - 1 if p != 2 else 2


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def val_p_int(n: int, p: int) -> int:
    """Exact p-adic valuation of a nonzero integer."""
    if n == 0:
        raise BadArgument("valuation of integer zero is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val_p_factorial(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula."""
    v = 0
    pk = p
    while pk <= n:
        v += n // pk
        pk *= p
    return v


class Frozen:
    """Base of the package's immutable slotted values.

    A subclass names its fields in __slots__, in constructor order, sets
    them in __init__ through object.__setattr__ and returns them in that
    order from _key, which equality, hashing, repr and pickling read unless
    the subclass defines its own.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return type(self), self._key()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"


class PAdicNum(Frozen):
    """Record of a residue mod p^prec, reduced, equal only to the same record.

    No arithmetic: the package computes on plain residues and builds these
    only for the forms the benchmark reads (LambdaElt.coeffs, DeltaMat.d).
    """

    __slots__ = ("p", "prec", "residue")

    def __init__(self, p: int, prec: int, residue: int):
        if prec <= 0:
            raise BadArgument(f"precision must be positive, got {prec}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "residue", residue % p**prec)

    def _key(self) -> tuple:
        return self.p, self.prec, self.residue

    def is_unit(self) -> bool:
        return self.residue % self.p != 0


# -- the primitives of every operator entry ----------------------------------
#
# The Teichmuller lift, log(u)/q and the binomials C(x, r), on residues mod
# p^prec.  The Mahler kernel builds every entry from these; nothing else in
# the package computes them.


def torsion_residue(d: int, p: int, prec: int) -> int:
    """Torsion component of the unit d, as a residue mod p^prec.

    For odd p the Teichmuller lift, the (p-1)-st root of unity congruent to
    d mod p: d^(p^k) mod p^prec for every k >= prec - 1, since the units mod
    p^prec have order (p-1) p^(prec-1).  For p = 2 the sign, 1 or -1 as d
    is 1 or 3 mod 4.
    """
    if d % p == 0:
        raise BadArgument(f"{d} is divisible by {p}")
    mod = p**prec
    if p == 2:
        return 1 if d % 4 == 1 else mod - 1
    return pow(d, p ** (prec - 1), mod)


@lru_cache(maxsize=None)
def log_cutoff(p: int, prec: int) -> tuple[int, int]:
    """(k_max, lost) of log(u)/q summed mod p^prec.

    The series log(1+x), x = 0 mod q, keeps every term up to k_max, the last
    that can still be nonzero there: v(x^k / k) >= k*v(q) - v_p(k!) >= prec
    for all later terms.  Dividing term k by p^v_p(k) and the sum by q costs
    lost = v(q) + max v_p(k) digits, so log(u)/q is certified to prec - lost.
    """
    vq = val_p_int(q_for(p), p)
    k_max = 1
    while k_max * vq - val_p_factorial(k_max, p) < prec:
        k_max += 1
    lost, pk = vq, p
    while pk <= k_max:
        lost, pk = lost + 1, pk * p
    return k_max, lost


@lru_cache(maxsize=None)
def _log_series_terms(p: int, prec: int) -> tuple:
    # term k of log(1+x): (p^v_p(k), inverse of the unit part of k, k even)
    k_max, _lost = log_cutoff(p, prec)
    modulus = p**prec
    terms = []
    for k in range(1, k_max + 1):
        pk = p ** val_p_int(k, p)
        terms.append((pk, pow(k // pk, -1, modulus), k % 2 == 0))
    return tuple(terms)


def _log_coeffs(x: int, p: int, prec: int, top: int) -> list:
    # (-1)^(k+1) x^k / k mod top for k = 1..k_max: log(1 + x z) as a
    # polynomial in z; x^k is reduced mod p^prec before the exact division
    # by the p-part of k, which top (a divisor of p^prec / p^v_p(k)) absorbs;
    # it stops at the first x^k that is 0 mod p^prec, as every later one is
    modulus = p**prec
    out = []
    xk = 1
    for pk, inv, even in _log_series_terms(p, prec):
        xk = xk * x % modulus
        if not xk:
            break
        term = xk // pk * inv
        out.append(-term % top if even else term % top)
    return out


def log_line(v: int, u: int, count: int, p: int, prec: int) -> tuple[list, int]:
    """log(v (1 + u z))/q for z < count, q = q_for(p), as (residues, precision).

    v = 1 mod q and u = 0 mod q.  The logarithm splits as log(v) + log(1+uz).
    The series log(1+x) = sum (-1)^(k+1) x^k / k, summed up to the cutoff,
    gives log(v) at x = v - 1; its coefficients at x = u, computed once, make
    log(1 + uz) a polynomial in z, evaluated at each z by Horner's rule in
    exact integers, with one reduction per sample.
    Division by the p-part of k (and by q, a power of p, at the end) is
    exact integer division, costing the digits log_cutoff counts.
    """
    q = q_for(p)
    modulus = p**prec
    x = (v - 1) % modulus
    if x % q != 0:
        raise BadArgument(f"log argument {v} is not 1 mod {q}")
    if u % q != 0:
        raise BadArgument(f"log line slope {u} is not 0 mod {q}")
    eff = prec - log_cutoff(p, prec)[1]
    if eff <= 0:
        raise PrecisionTooLow("log series exhausted the working precision")
    top = p**eff * q
    base = sum(_log_coeffs(x, p, prec, top))
    coeffs = _log_coeffs(u % modulus, p, prec, top)[::-1]
    out = []
    for z in range(count):
        acc = 0
        for c in coeffs:
            acc = (acc + c) * z
        total = (base + acc) % top
        if total % q != 0:
            raise BadArgument("log value not divisible by q; argument not 1 mod q?")
        out.append(total // q)
    return out, eff


@lru_cache(maxsize=None)
def _binom_divisors(p: int, count: int, prec: int) -> tuple:
    # for r = 1..count-1: (p^v_p(r!), inverse of the unit part of r! mod p^prec)
    mod = p**prec
    pvs, units = [], []
    v, unit = 0, 1
    for r in range(1, count):
        u = r
        while u % p == 0:
            u //= p
            v += 1
        if v >= prec:
            raise PrecisionTooLow(
                f"C(x, {r}) loses v_p({r}!) = {v} digits, have {prec}"
            )
        unit = unit * u % mod
        pvs.append(p**v)
        units.append(u)
    # one inversion, then walk back: 1/unit(r-1)! = u_r / unit(r)!
    inv = pow(unit, -1, mod)
    invs = []
    for u in reversed(units):
        invs.append(inv)
        inv = inv * u % mod
    return tuple(zip(pvs, reversed(invs)))


def binomials(xs, count: int, p: int, prec: int, target: int, scale: int = 1) -> list:
    """scale * C(x, r) mod target for r < count, one row per x in xs.

    The running product x(x-1)...(x-r+1) is r! times an integer, so its
    residue mod p^prec stays divisible by p^v_p(r!); dividing that out
    leaves C(x, r) exact mod any target dividing p^(prec - v_p(r!)), which
    callers budget for.  The scale is folded into the r!-unit inverses once
    per call.  PrecisionTooLow if some v_p(r!) reaches prec.
    """
    mod = p**prec
    divisors = enumerate(_binom_divisors(p, count, prec))
    steps = [(r, pv, inv * scale % target) for r, (pv, inv) in divisors]
    first = scale % target
    rows = []
    for x in xs:
        ff = 1
        rows.append([first] + [(ff := ff * (x - r) % mod) // pv * inv % target for r, pv, inv in steps])
    return rows
