"""Exact arithmetic on p-adic integers truncated modulo p^N.

PAdicNum is a residue mod p^N together with the precision N it is known
to.  Arithmetic keeps the minimum precision of its operands.  Zero residues
carry AtLeast valuations and are never treated as exactly infinite.  The
primitives every operator entry is built from (Teichmuller lift, log(u)/q,
binomials) take and return plain residues, with the precision they keep.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple


class PadicError(Exception):
    """Base class for arithmetic-layer errors.

    exit_code is the CLI's exit status for the error: 2 for bad input, 3
    for a precision shortfall, 1 for a failed check.
    """

    exit_code = 2


class NotAUnit(PadicError):
    pass


class BadArgument(PadicError):
    pass


class InsufficientPrecision(PadicError):
    """An operation would leave no certified digits (caller must re-pad)."""

    exit_code = 3


class PrecisionTooLow(PadicError):
    """AtLeast flags prevent certification at the required order."""

    exit_code = 3


class MismatchedParameters(PadicError):
    pass


def q_for(p: int) -> int:
    # q = p for odd p, q = 4 for p = 2
    return p if p != 2 else 4


def phi_q(p: int) -> int:
    # order of the torsion part of Z_p^x: p - 1 for odd p, 2 for p = 2
    return p - 1 if p != 2 else 2


def is_prime(n: int) -> bool:
    # deterministic Miller-Rabin: these bases decide every n below 3.3e24
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


class Valuation(NamedTuple):
    """Either the exact p-adic valuation or a certified lower bound.

    AtLeast arises when a residue is 0 mod p^N: the true valuation is >= N
    but unknowable at that precision.
    """

    bound: Fraction
    is_exact: bool

    @classmethod
    def exact(cls, r) -> "Valuation":
        return cls(Fraction(r), True)

    @classmethod
    def at_least(cls, r) -> "Valuation":
        return cls(Fraction(r), False)

    def certainly_at_least(self, r) -> bool:
        return self.bound >= r

    def __repr__(self):
        kind = "Exact" if self.is_exact else "AtLeast"
        return f"{kind}({self.bound})"


class PAdicNum(Frozen):
    """Residue mod p^prec with tracked precision."""

    __slots__ = ("p", "prec", "residue")

    def __init__(self, p: int, prec: int, residue: int):
        if prec <= 0:
            raise BadArgument(f"precision must be positive, got {prec}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "residue", residue % p**prec)

    def _key(self) -> tuple:
        return self.p, self.prec, self.residue

    # -- helpers ---------------------------------------------------------

    def is_unit(self) -> bool:
        return self.residue % self.p != 0

    def _join(self, other: "PAdicNum") -> int:
        if not isinstance(other, PAdicNum):
            raise TypeError(f"expected PAdicNum, got {type(other).__name__}")
        if self.p != other.p:
            raise MismatchedParameters(f"primes differ: {self.p} vs {other.p}")
        return min(self.prec, other.prec)

    def with_prec(self, n: int) -> "PAdicNum":
        """Truncate to a lower precision (raising never allowed implicitly)."""
        if n > self.prec:
            raise InsufficientPrecision(
                f"cannot raise precision {self.prec} -> {n} without exact data"
            )
        return PAdicNum(self.p, n, self.residue)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            return PAdicNum(self.p, self.prec, self.residue + other)
        n = self._join(other)
        return PAdicNum(self.p, n, self.residue + other.residue)

    __radd__ = __add__

    def __neg__(self):
        return PAdicNum(self.p, self.prec, -self.residue)

    def __sub__(self, other):
        if isinstance(other, int):
            return PAdicNum(self.p, self.prec, self.residue - other)
        n = self._join(other)
        return PAdicNum(self.p, n, self.residue - other.residue)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return PAdicNum(self.p, self.prec, self.residue * other)
        n = self._join(other)
        return PAdicNum(self.p, n, self.residue * other.residue)

    __rmul__ = __mul__

    def __eq__(self, other):
        # ints are not accepted: no hash could agree with every int equal
        # to the residue mod p^prec
        if not isinstance(other, PAdicNum):
            return NotImplemented
        # equality at the shared precision
        if self.p != other.p:
            return False
        n = min(self.prec, other.prec)
        m = self.p ** n
        return self.residue % m == other.residue % m

    def __hash__(self):
        # equal numbers agree at their shared precision, which is >= 1
        return hash((self.p, self.residue % self.p))

    def __repr__(self):
        return f"PAdicNum({self.residue} mod {self.p}^{self.prec})"


def val_p(x: PAdicNum) -> Valuation:
    """Exact(k) if p^k || residue; AtLeast(prec) on a zero residue."""
    if x.residue == 0:
        return Valuation.at_least(x.prec)
    return Valuation.exact(val_p_int(x.residue, x.p))




# -- the primitives of every operator entry ----------------------------------
#
# The Teichmuller lift, log(u)/q and the binomials C(x, r), on residues mod
# p^prec.  The Mahler kernel builds every entry from these; nothing else in
# the package computes them.


def torsion_residue(d: int, p: int, prec: int) -> int:
    """Torsion component of the unit d, as a residue mod p^prec.

    For odd p the Teichmuller lift, the (p-1)-st root of unity congruent to
    d mod p: the fixed point of x -> x^p, which prec iterations reach since
    each contracts the distance to it by a factor of p.  For p = 2 the sign,
    1 or -1 as d is 1 or 3 mod 4.
    """
    if d % p == 0:
        raise NotAUnit(f"{d} is divisible by {p}")
    mod = p**prec
    if p == 2:
        return 1 if d % 4 == 1 else mod - 1
    x = d % mod
    for _ in range(prec):
        x = pow(x, p, mod)
    return x


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
    # by the p-part of k, which top (a divisor of p^prec / p^v_p(k)) absorbs
    modulus = p**prec
    out = []
    xk = 1
    for pk, inv, even in _log_series_terms(p, prec):
        xk = xk * x % modulus
        term = xk // pk * inv
        out.append(-term % top if even else term % top)
    return out


def log_line(v: int, u: int, count: int, p: int, prec: int) -> tuple[list, int]:
    """log(v (1 + u z))/q for z < count, q = q_for(p), as (residues, precision).

    v = 1 mod q and u = 0 mod q.  The logarithm splits as log(v) + log(1+uz).
    The series log(1+x) = sum (-1)^(k+1) x^k / k, summed up to the cutoff,
    gives log(v) at x = v - 1; its coefficients at x = u, computed once, make
    log(1 + uz) a polynomial in z, evaluated at each z by Horner's rule.
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
        raise InsufficientPrecision("log series exhausted the working precision")
    top = p**eff * q
    base = sum(_log_coeffs(x, p, prec, top))
    coeffs = _log_coeffs(u % modulus, p, prec, top)[::-1]
    out = []
    for z in range(count):
        acc = 0
        for c in coeffs:
            acc = (acc + c) * z % top
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
            raise InsufficientPrecision(
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


def binomials(x: int, count: int, p: int, prec: int) -> list:
    """C(x, r) for r < count as residues mod p^prec, from one falling factorial.

    The running product x(x-1)...(x-r+1) is r! times an integer, so its
    residue mod p^prec stays divisible by p^v_p(r!); dividing that out
    leaves C(x, r) certified to prec - v_p(r!) digits, which callers budget
    for.  InsufficientPrecision if some v_p(r!) reaches prec.
    """
    mod = p**prec
    out = [1]
    ff = 1
    for r, (pv, inv) in enumerate(_binom_divisors(p, count, prec), 1):
        ff = ff * (x - r + 1) % mod
        out.append(ff // pv * inv % mod)
    return out
