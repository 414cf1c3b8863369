"""Truncated arithmetic in Z_p[[T]] with order and valuation certification.

A LambdaElt is the image of a weight-ring element after a torsion character
has been evaluated: the prime p, the precision N and the residues mod p^N
of the T-coefficients, stored densely up to T^M_T as plain integers.
Orders against (p, T) and the T-shifted outer-annulus ring, and valuations
at a radius vT, come from one walk over the stored digits (`_least_terms`),
a zero residue counting at v = prec.  An order is exact when a nonzero
residue attains the least term, a valuation only when one alone does:
tied terms of one value can cancel.

The packed form, in which the Mahler kernel and Berkowitz compute, puts
T-coefficient s in bits [width*s, width*(s+1)) of one big integer; a
product of packed values packs the convolution of their digits, which a
LambdaElt product, the cofactor oracle's, takes digit by digit instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .padic_core import (
    BadArgument,
    Frozen,
    OrderBound,
    PAdicNum,
    phi_q,
    val_p_int,
)

DEFAULT_TRUNC = 24


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
    mod p^prec, on which every operation works; equality and hash are the
    record's, so elements at different precisions differ.  LambdaElt(coeffs) takes
    PAdicNum records sharing (p, prec) and .coeffs gives them back: the
    forms the benchmark reads, and that the test oracles start from.
    """

    __slots__ = ("p", "prec", "res")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise BadArgument("LambdaElt needs at least one coefficient")
        c0 = coeffs[0]
        for c in coeffs:
            if not isinstance(c, PAdicNum) or (c.p, c.prec) != (c0.p, c0.prec):
                raise BadArgument("coefficients must share (p, N)")
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
            raise BadArgument(f"({self.p},{self.trunc}) vs ({other.p},{other.trunc})")
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
        mod = self.p**n
        a, b = self.res, other.res
        res = tuple(sum(a[i] * b[k - i] for i in range(k + 1)) % mod for k in range(len(a)))
        return LambdaElt._raw(self.p, n, res)

    __rmul__ = __mul__

    def _key(self) -> tuple:
        return self.p, self.prec, self.res

    def __repr__(self):
        parts = [f"{c}*T^{m}" for m, c in enumerate(self.res) if c]
        body = " + ".join(parts) if parts else "0"
        return f"LambdaElt({body} mod (p^{self.prec}, T^{self.trunc}))"

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
    every digit of such a sum is at most terms * trunc * pn^2, which is below
    2^(2 bits(pn) + bits(terms + 1) + bits(trunc)) = 2^width."""
    return 2 * pn.bit_length() + (terms + 1).bit_length() + trunc.bit_length()


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


def _least_terms(x: LambdaElt, num: int, den: int) -> tuple:
    """(least, flags): least is the minimum over stored m of den*v(b_m) + num*m,
    a zero residue only bounding v(b_m) below by prec; flags holds one bool
    per m that attains it, True where b_m != 0.  Term m is at least num*m, so
    the walk stops once num*m > least: nothing later can lower or tie it."""
    p, prec = x.p, x.prec
    least, flags = None, []
    for m, c in enumerate(x.res):
        if least is not None and m * num > least:
            break
        term = (val_p_int(c, p) if c else prec) * den + m * num
        if least is None or term < least:
            least, flags = term, [bool(c)]
        elif term == least:
            flags.append(bool(c))
    return least, flags


def mlambda_order(x: LambdaElt) -> OrderBound:
    """Largest r with x in (p, T)^r, i.e. v(b_m) >= r - m for all stored m.

    The walk's least term at vT = 1, exact iff a nonzero residue attains it.
    It is also the halo T-order of x: membership in T^k * Z_p[[T, p/T]] for
    an honest power series means v(b_m) >= k - m for every m.  The two
    differ only on T-shifted values, which HaloElt handles.
    """
    least, flags = _least_terms(x, 1, 1)
    return OrderBound(least, any(flags))


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


def eval_valuation(x: LambdaElt, vT: Fraction) -> OrderBound:
    """The valuation of x(T) at a point with v(T) = vT.

    The value is the least term min_m (v(b_m) + m*vT) of the walk; it is
    the exact valuation iff a unique m attains it and that residue is
    nonzero.  Otherwise the returned value is only a certified lower bound.
    """
    vT = Fraction(vT)
    if not 0 < vT < 1:
        raise BadArgument(f"vT must lie in (0,1), got {vT}")
    least, flags = _least_terms(x, vT.numerator, vT.denominator)
    return OrderBound(Fraction(least, vT.denominator), flags == [True])
