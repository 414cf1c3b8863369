"""Truncated arithmetic in Z_p[[T]] with order and valuation certification.

A LambdaElt is the image of a weight-ring element after a torsion character
has been evaluated: the prime p, the precision N and the residues mod p^N
of the T-coefficients, stored densely up to T^M_T as plain integers.
Orders against the maximal ideal (p, T) and against the T-shifted
outer-annulus ring are certified from coefficient valuations, honestly
flagging anything a zero residue leaves undecidable.

The packed form, in which the Mahler kernel, ring products and Berkowitz
compute, puts T-coefficient s in bits [width*s, width*(s+1)) of one big
integer; a product of packed values packs the convolution of their digits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .padic_core import (
    BadArgument,
    Frozen,
    InsufficientPrecision,
    MismatchedParameters,
    PAdicNum,
    PrecisionTooLow,
    Valuation,
    phi_q,
    val_p_int,
)

DEFAULT_TRUNC = 24


class OrderBound(NamedTuple):
    """An ideal-membership order, exact or precision-limited.

    When is_exact is False the true order is at least `value`; the deciding
    coefficients had AtLeast valuations.
    """

    value: int
    is_exact: bool

    def certainly_at_least(self, r: int) -> bool:
        return self.value >= r

    def meets(self, need: int, where: str) -> bool:
        """Whether the order reaches need; an AtLeast shortfall is undecidable.

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


class CharOfDelta(Frozen):
    """A character of the torsion subgroup, as a power of the inclusion.

    exponent is reduced mod phi(q): p-1 choices for odd p, 2 for p=2.
    """

    __slots__ = ("p", "exponent")

    def __init__(self, p: int, exponent: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "exponent", exponent % phi_q(p))

    def _key(self) -> tuple:
        return self.p, self.exponent


class LambdaElt(Frozen):
    """Element of Z_p[[T]] truncated at T^trunc, coefficients mod p^prec.

    Holds p, prec and res, the T-coefficients as residues already reduced
    mod p^prec.  LambdaElt(coeffs) takes PAdicNum sharing (p, prec) and
    .coeffs gives them back, for the benchmark and the test oracles;
    everything else, scalars included, works on the integers.
    """

    __slots__ = ("p", "prec", "res")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise BadArgument("LambdaElt needs at least one coefficient")
        c0 = coeffs[0]
        for c in coeffs:
            if not isinstance(c, PAdicNum) or (c.p, c.prec) != (c0.p, c0.prec):
                raise MismatchedParameters("coefficients must share (p, N)")
        _init(self, c0.p, c0.prec, tuple(c.residue for c in coeffs))

    def __reduce__(self):
        return LambdaElt._raw, (self.p, self.prec, self.res)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, p: int, prec: int, res: tuple) -> "LambdaElt":
        # trusted callers: res is nonempty and reduced mod p^prec, prec >= 1
        obj = object.__new__(cls)
        _init(obj, p, prec, res)
        return obj

    @classmethod
    def from_ints(cls, p: int, n: int, trunc: int, ints) -> "LambdaElt":
        ints = list(ints)
        if len(ints) > trunc:
            raise BadArgument("more coefficients than the truncation order")
        if trunc < 1:
            raise BadArgument("LambdaElt needs at least one coefficient")
        if n <= 0:
            raise BadArgument(f"precision must be positive, got {n}")
        mod = p**n
        ints += [0] * (trunc - len(ints))
        return cls._raw(p, n, tuple(c % mod for c in ints))

    @classmethod
    def zero(cls, p: int, n: int, trunc: int) -> "LambdaElt":
        return cls.from_ints(p, n, trunc, [])

    @classmethod
    def one(cls, p: int, n: int, trunc: int) -> "LambdaElt":
        return cls.from_ints(p, n, trunc, [1])

    # -- parameters --------------------------------------------------------

    @property
    def trunc(self) -> int:
        return len(self.res)

    @property
    def coeffs(self) -> tuple:
        return tuple(PAdicNum(self.p, self.prec, c) for c in self.res)

    def _join(self, other: "LambdaElt") -> int:
        """The shared precision of two elements of the same ring."""
        if not isinstance(other, LambdaElt):
            raise TypeError(f"expected LambdaElt, got {type(other).__name__}")
        if self.p != other.p or len(self.res) != len(other.res):
            raise MismatchedParameters(
                f"({self.p},{self.trunc}) vs ({other.p},{other.trunc})"
            )
        return min(self.prec, other.prec)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        n = self._join(other)
        mod = self.p**n
        res = tuple((a + b) % mod for a, b in zip(self.res, other.res))
        return LambdaElt._raw(self.p, n, res)

    def __sub__(self, other):
        n = self._join(other)
        mod = self.p**n
        res = tuple((a - b) % mod for a, b in zip(self.res, other.res))
        return LambdaElt._raw(self.p, n, res)

    def __neg__(self):
        mod = self.p**self.prec
        return LambdaElt._raw(self.p, self.prec, tuple(-a % mod for a in self.res))

    def __mul__(self, other):
        if isinstance(other, int):
            mod = self.p**self.prec
            return LambdaElt._raw(
                self.p, self.prec, tuple(a * other % mod for a in self.res)
            )
        n = self._join(other)
        trunc = len(self.res)
        # the digits are reduced at each operand's own precision
        width = ring_width(self.p ** max(self.prec, other.prec), trunc, 1)
        prod = pack(self.res, width) * pack(other.res, width)
        res = unpack(reduce_digits(prod, self.p**n, width, trunc), width, trunc)
        return LambdaElt._raw(self.p, n, res)

    __rmul__ = __mul__

    def __eq__(self, other):
        """Equality at the shared precision."""
        if not isinstance(other, LambdaElt):
            return NotImplemented
        if self.p != other.p or len(self.res) != len(other.res):
            return False
        if self.prec == other.prec:
            return self.res == other.res
        m = self.p ** min(self.prec, other.prec)
        return all(a % m == b % m for a, b in zip(self.res, other.res))

    def __hash__(self):
        # equal elements agree at their shared precision, which is >= 1
        return hash((self.p, len(self.res), tuple(c % self.p for c in self.res)))

    def __repr__(self):
        parts = [f"{c}*T^{m}" for m, c in enumerate(self.res) if c]
        body = " + ".join(parts) if parts else "0"
        return f"LambdaElt({body} mod (p^{self.prec}, T^{self.trunc}))"

    def with_prec(self, n: int) -> "LambdaElt":
        """Truncate to a lower precision (raising never allowed implicitly)."""
        if n > self.prec:
            raise InsufficientPrecision(
                f"cannot raise precision {self.prec} -> {n} without exact data"
            )
        if n <= 0:
            raise BadArgument(f"precision must be positive, got {n}")
        mod = self.p**n
        return LambdaElt._raw(self.p, n, tuple(c % mod for c in self.res))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": str(self.p),
            "N": str(self.prec),
            "coeffs": [str(c) for c in self.res],
        }


def _init(obj: LambdaElt, p: int, prec: int, res: tuple) -> None:
    object.__setattr__(obj, "p", p)
    object.__setattr__(obj, "prec", prec)
    object.__setattr__(obj, "res", res)


# -- the packed form ---------------------------------------------------------


def ring_width(pn: int, trunc: int, terms: int) -> int:
    """Width for sums of `terms` products of packed values with digits in [0, pn]:
    their digits s < trunc are at most terms * trunc * pn^2 < 2^(width-2)."""
    return 2 * pn.bit_length() + (terms + 1).bit_length() + trunc.bit_length() + 2


def pack(digits, width: int) -> int:
    """The packed form of digits, each in [0, 2^width)."""
    acc = 0
    for d in reversed(digits):
        acc = (acc << width) | d
    return acc


def unpack(x: int, width: int, count: int) -> tuple:
    """The first count digits of a nonnegative packed x."""
    mask = (1 << width) - 1
    return tuple((x >> s) & mask for s in range(0, width * count, width))


def reduce_digits(x: int, pn: int, width: int, count: int) -> int:
    """x with its first count digits reduced mod pn and every later one dropped."""
    mask = (1 << width) - 1
    out = 0
    for shift in range(0, width * count, width):
        out |= ((x >> shift) & mask) % pn << shift
    return out


def mlambda_order(x: LambdaElt) -> OrderBound:
    """Largest r with x in (p, T)^r, i.e. v(b_m) >= r - m for all stored m.

    This is also the halo T-order of x: membership in T^k * Z_p[[T, p/T]]
    for an honest power series means v(b_m) >= k - m for every m.  The two
    differ only on T-shifted values, which HaloElt handles.
    """
    # a zero residue only bounds v(b_m) below by prec; coefficient m
    # contributes at least m, so past the minimum nothing can lower or tie it
    p, prec = x.p, x.prec
    best, best_exact = None, False
    for m, c in enumerate(x.res):
        if best is not None and m > best:
            break
        contrib = (val_p_int(c, p) if c else prec) + m
        if best is None or contrib < best:
            best, best_exact = contrib, bool(c)
        elif contrib == best and c:
            best_exact = True
    return OrderBound(best, best_exact)


class HaloElt(NamedTuple):
    """A T-shifted ring element T^tshift * body, tshift possibly negative.

    Appears only as an entry of the rescaled block operator, where honest
    values can live outside Z_p[[T]] (negative shift with p-divisible body).
    """

    tshift: int
    body: LambdaElt

    def halo_T_order(self) -> OrderBound:
        inner = mlambda_order(self.body)
        return OrderBound(inner.value + self.tshift, inner.is_exact)

    def to_json(self) -> dict:
        return {"tshift": str(self.tshift), "elt": self.body.to_json()}


def eval_valuation(x: LambdaElt, vT: Fraction) -> Valuation:
    """Valuation of x(T) at a point with v(T) = vT.

    The value is min_m (v(b_m) + m*vT); it is the exact valuation iff a
    unique m attains the minimum and that coefficient's valuation is exact.
    Otherwise the returned Valuation is only a certified lower bound.
    """
    vT = Fraction(vT)
    if not 0 < vT < 1:
        raise BadArgument(f"vT must lie in (0,1), got {vT}")
    # compare den * (v(b_m) + m*vT) as integers; coefficient m contributes
    # at least m*vT, so past the minimum nothing can lower or tie it
    num, den = vT.numerator, vT.denominator
    p, prec = x.p, x.prec
    best = None
    best_exact = False
    tie = False
    for m, c in enumerate(x.res):
        if best is not None and m * num > best:
            break
        contrib = (val_p_int(c, p) if c else prec) * den + m * num
        if best is None or contrib < best:
            best, best_exact, tie = contrib, bool(c), False
        elif contrib == best:
            tie = True
    return Valuation(Fraction(best, den), best_exact and not tie)
