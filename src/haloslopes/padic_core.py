"""Exact arithmetic on p-adic integers truncated modulo p^N.

Everything downstream is built on PAdicNum: a residue mod p^N together with
the precision N it is known to.  Arithmetic keeps the minimum precision of
its operands; division by p^k lowers precision by k.  Zero residues carry
AtLeast valuations and are never treated as exactly infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class PadicError(Exception):
    """Base class for arithmetic-layer errors."""


class NotAUnit(PadicError):
    pass


class BadArgument(PadicError):
    pass


class InsufficientPrecision(PadicError):
    """An operation would leave no certified digits (caller must re-pad)."""


class PrecisionTooLow(PadicError):
    """AtLeast flags prevent certification at the required order."""


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


@dataclass(frozen=True)
class Valuation:
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

    def certainly_below(self, r) -> bool:
        # only an exact valuation can witness being below a threshold
        return self.is_exact and self.bound < r

    def __repr__(self):
        kind = "Exact" if self.is_exact else "AtLeast"
        return f"{kind}({self.bound})"


@dataclass(frozen=True)
class PAdicNum:
    """Residue mod p^prec with tracked precision."""

    p: int
    prec: int
    residue: int

    def __post_init__(self):
        if self.prec <= 0:
            raise BadArgument(f"precision must be positive, got {self.prec}")
        object.__setattr__(self, "residue", self.residue % self.p ** self.prec)

    # -- helpers ---------------------------------------------------------

    @property
    def modulus(self) -> int:
        return self.p ** self.prec

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

    def __pow__(self, e: int):
        if e < 0:
            return self.unit_inverse() ** (-e)
        return PAdicNum(self.p, self.prec, pow(self.residue, e, self.modulus))

    def unit_inverse(self) -> "PAdicNum":
        if not self.is_unit():
            raise NotAUnit(f"{self.residue} is not a unit mod {self.p}")
        return PAdicNum(self.p, self.prec, pow(self.residue, -1, self.modulus))

    def divide_unit(self, other: "PAdicNum") -> "PAdicNum":
        n = self._join(other)
        return self.with_prec(n) * other.unit_inverse().with_prec(n)

    def divexact_p(self, k: int) -> "PAdicNum":
        """Divide by p^k; residue must vanish mod p^k, precision drops by k."""
        if k == 0:
            return self
        if k >= self.prec:
            raise InsufficientPrecision(
                f"division by p^{k} exhausts precision {self.prec}"
            )
        pk = self.p ** k
        if self.residue % pk != 0:
            raise BadArgument(f"residue {self.residue} not divisible by p^{k}")
        return PAdicNum(self.p, self.prec - k, self.residue // pk)

    def __eq__(self, other):
        if isinstance(other, int):
            other = PAdicNum(self.p, self.prec, other)
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


def teichmuller(d: PAdicNum) -> PAdicNum:
    """The (p-1)-st root of unity congruent to d mod p, for odd p.

    Fixed point of x -> x^p; prec iterations suffice since the iteration
    contracts the distance to the root by a factor of p each time.
    """
    if d.p == 2:
        raise BadArgument("for p=2 the torsion component is the sign mod 4")
    if not d.is_unit():
        raise NotAUnit(f"{d.residue} is divisible by {d.p}")
    x = d.residue % d.modulus
    for _ in range(d.prec):
        x = pow(x, d.p, d.modulus)
    return PAdicNum(d.p, d.prec, x)


@lru_cache(maxsize=None)
def _inv_mod(u: int, mod: int) -> int:
    # units recur constantly (series indices, factorials); cache the pows
    return pow(u, -1, mod)


@lru_cache(maxsize=None)
def _fact_unit(r: int, p: int, mod: int) -> int:
    """Unit part of r! (all factors of p removed) as a residue."""
    acc = 1
    for u in range(2, r + 1):
        while u % p == 0:
            u //= p
        acc = acc * u % mod
    return acc


@lru_cache(maxsize=None)
def _log_series_terms(p: int, vq: int, mod_exp: int) -> tuple:
    """Per-term data of log(1+x) summed mod p^mod_exp, and the p-power lost.

    The cutoff keeps every term up to the last that can still be nonzero
    there: v(x^k / k) >= k*vq - v_p(k!) >= mod_exp for all later terms.
    Term k is (p^v_p(k), inverse of the unit part of k, k even).
    """
    modulus = p**mod_exp
    k_max = 1
    while k_max * vq - val_p_factorial(k_max, p) < mod_exp:
        k_max += 1
    terms = []
    max_div_loss = 0
    for k in range(1, k_max + 1):
        vk = val_p_int(k, p) if k % p == 0 else 0
        max_div_loss = max(max_div_loss, vk)
        terms.append((p**vk, _inv_mod(k // p**vk, modulus), k % 2 == 0))
    return tuple(terms), max_div_loss


def _log_ratio_raw(u: int, p: int, q: int, mod_exp: int) -> tuple[int, int]:
    """log(u)/q for u = 1 mod q, as (residue, effective precision).

    Series log(1+x) = sum (-1)^(k+1) x^k / k summed mod p^mod_exp until the
    remaining terms all vanish there; division by the p-part of k (and by q
    at the end) is exact integer division, costing precision as returned.
    """
    modulus = p ** mod_exp
    x = (u - 1) % modulus
    vq = val_p_int(q, p)
    if x % q != 0:
        raise BadArgument(f"log argument {u} is not 1 mod {q}")
    terms, max_div_loss = _log_series_terms(p, vq, mod_exp)
    total = 0
    xk = 1
    for pk, inv, even in terms:
        xk = xk * x % modulus
        term = xk // pk * inv
        total = (total - term if even else total + term) % modulus
    # divide by q: exact p-power division plus (for p=2, q=4) nothing else
    eff = mod_exp - max_div_loss - vq
    if eff <= 0:
        raise InsufficientPrecision("log series exhausted the working precision")
    total %= p ** (mod_exp - max_div_loss)
    if total % p ** vq != 0:
        raise BadArgument("log value not divisible by q; argument not 1 mod q?")
    return (total // p ** vq) % p ** eff, eff


def padic_log_ratio(u: PAdicNum, q: int) -> PAdicNum:
    """log(u)/q as a p-adic integer, for u = 1 mod q.

    Output precision is u.prec - v(q) - max divisor loss in the series
    (at most floor(log_p of the cutoff)); callers pad up front.
    """
    if q != q_for(u.p):
        raise BadArgument(f"q must be {q_for(u.p)} for p={u.p}, got {q}")
    residue, eff = _log_ratio_raw(u.residue, u.p, q, u.prec)
    return PAdicNum(u.p, eff, residue)


def binom_padic(u: PAdicNum, r: int) -> PAdicNum:
    """Binomial coefficient u(u-1)...(u-r+1)/r! of a p-adic integer.

    The falling factorial's residue is divisible by p^{v_p(r!)} because the
    true value is r! times an integer; precision drops by exactly v_p(r!).
    """
    if r < 0:
        raise BadArgument("binomial lower index must be nonnegative")
    if r == 0:
        return PAdicNum(u.p, u.prec, 1)
    p, n, modulus = u.p, u.prec, u.modulus
    ff = 1
    for i in range(r):
        ff = ff * (u.residue - i) % modulus
    vfact = val_p_factorial(r, p)
    if vfact >= n:
        raise InsufficientPrecision(
            f"binomial with r={r} loses v_p(r!)={vfact} digits, have {n}"
        )
    # divide by r!: p-part exactly, unit part by modular inverse
    ff //= p ** vfact
    return PAdicNum(p, n - vfact, ff * _inv_mod(_fact_unit(r, p, modulus), modulus))
