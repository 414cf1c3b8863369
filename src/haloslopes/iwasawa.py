"""Truncated arithmetic in Z_p[[T]] with order and valuation certification.

A LambdaElt is the image of a weight-ring element after a torsion character
has been evaluated: coefficients are PAdicNum sharing (p, N), stored densely
up to T^M_T.  Orders against the maximal ideal (p, T) and against the
T-shifted outer-annulus ring are certified from coefficient valuations,
honestly flagging anything a zero residue leaves undecidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padic_core import (
    BadArgument,
    InsufficientPrecision,
    MismatchedParameters,
    PAdicNum,
    Valuation,
    binom_padic,
    phi_q,
    val_p,
    val_p_factorial,
)

DEFAULT_TRUNC = 24


@dataclass(frozen=True)
class OrderBound:
    """An ideal-membership order, exact or precision-limited.

    When is_exact is False the true order is at least `value`; the deciding
    coefficients had AtLeast valuations.
    """

    value: int
    is_exact: bool

    def certainly_at_least(self, r: int) -> bool:
        return self.value >= r

    def __repr__(self):
        return f"OrderBound({'=' if self.is_exact else '>='}{self.value})"


@dataclass(frozen=True)
class CharOfDelta:
    """A character of the torsion subgroup, as a power of the inclusion.

    exponent is reduced mod phi(q): p-1 choices for odd p, 2 for p=2.
    """

    p: int
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.exponent % phi_q(self.p))

    def twist(self, k: int) -> "CharOfDelta":
        return CharOfDelta(self.p, self.exponent + k)

    def value_at(self, d0: PAdicNum) -> PAdicNum:
        return d0 ** self.exponent


@dataclass(frozen=True)
class LambdaElt:
    """Element of Z_p[[T]] truncated at T^trunc, coefficients mod p^N."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise BadArgument("LambdaElt needs at least one coefficient")
        c0 = self.coeffs[0]
        for c in self.coeffs:
            if not isinstance(c, PAdicNum) or (c.p, c.prec) != (c0.p, c0.prec):
                raise MismatchedParameters("coefficients must share (p, N)")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ints(cls, p: int, n: int, trunc: int, ints) -> "LambdaElt":
        ints = list(ints)
        if len(ints) > trunc:
            raise BadArgument("more coefficients than the truncation order")
        ints += [0] * (trunc - len(ints))
        return cls(tuple(PAdicNum(p, n, c) for c in ints))

    @classmethod
    def zero(cls, p: int, n: int, trunc: int) -> "LambdaElt":
        return cls.from_ints(p, n, trunc, [])

    @classmethod
    def one(cls, p: int, n: int, trunc: int) -> "LambdaElt":
        return cls.from_ints(p, n, trunc, [1])

    @classmethod
    def t_power(cls, p: int, n: int, trunc: int, k: int) -> "LambdaElt":
        return cls.from_ints(p, n, trunc, [0] * k + [1])

    # -- parameters --------------------------------------------------------

    @property
    def p(self) -> int:
        return self.coeffs[0].p

    @property
    def prec(self) -> int:
        return self.coeffs[0].prec

    @property
    def trunc(self) -> int:
        return len(self.coeffs)

    def _join(self, other: "LambdaElt") -> None:
        if not isinstance(other, LambdaElt):
            raise TypeError(f"expected LambdaElt, got {type(other).__name__}")
        if (self.p, self.trunc) != (other.p, other.trunc):
            raise MismatchedParameters(
                f"({self.p},{self.trunc}) vs ({other.p},{other.trunc})"
            )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        self._join(other)
        return LambdaElt(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._join(other)
        return LambdaElt(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return LambdaElt(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, PAdicNum)):
            return LambdaElt(tuple(a * other for a in self.coeffs))
        self._join(other)
        n = min(self.prec, other.prec)
        mod = self.p ** n
        mt = self.trunc
        a = [c.residue for c in self.coeffs]
        b = [c.residue for c in other.coeffs]
        out = [0] * mt
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j in range(mt - i):
                out[i + j] += ai * b[j]
        return LambdaElt(tuple(PAdicNum(self.p, n, c % mod) for c in out))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LambdaElt):
            return NotImplemented
        return self.p == other.p and self.trunc == other.trunc and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.p, self.trunc, tuple(c.residue for c in self.coeffs)))

    def __repr__(self):
        parts = [f"{c.residue}*T^{m}" for m, c in enumerate(self.coeffs) if c.residue]
        body = " + ".join(parts) if parts else "0"
        return f"LambdaElt({body} mod (p^{self.prec}, T^{self.trunc}))"

    def with_prec(self, n: int) -> "LambdaElt":
        return LambdaElt(tuple(c.with_prec(n) for c in self.coeffs))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": str(self.p),
            "N": str(self.prec),
            "coeffs": [str(c.residue) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LambdaElt":
        p, n = int(obj["p"]), int(obj["N"])
        return cls.from_ints(p, n, len(obj["coeffs"]), [int(s) for s in obj["coeffs"]])


def _order_from_contributions(x: LambdaElt) -> OrderBound:
    # both ideal orders reduce to min_m (m + v(b_m)) over stored coefficients
    best = None  # (bound, is_exact)
    for m, c in enumerate(x.coeffs):
        v = val_p(c)
        contrib = int(v.bound) + m
        if best is None or contrib < best[0]:
            best = (contrib, v.is_exact)
        elif contrib == best[0] and v.is_exact:
            best = (contrib, True)
    return OrderBound(best[0], best[1])


def mlambda_order(x: LambdaElt) -> OrderBound:
    """Largest r with x in (p, T)^r, i.e. v(b_m) >= r - m for all stored m."""
    return _order_from_contributions(x)


def halo_T_order(x: LambdaElt) -> OrderBound:
    """Largest k with x in T^k * (outer-annulus ring), same coefficient test.

    Membership in T^k * Z_p[[T, p/T]] for an honest power series means
    v(b_m) >= k - m for every m, so on LambdaElt values this agrees with
    mlambda_order; the two diverge on T-shifted values (see HaloElt) and in
    what downstream claims they certify.
    """
    return _order_from_contributions(x)


@dataclass(frozen=True)
class HaloElt:
    """A T-shifted ring element T^tshift * body, tshift possibly negative.

    Appears only as an entry of the rescaled block operator, where honest
    values can live outside Z_p[[T]] (negative shift with p-divisible body).
    """

    tshift: int
    body: LambdaElt

    def halo_T_order(self) -> OrderBound:
        inner = halo_T_order(self.body)
        return OrderBound(inner.value + self.tshift, inner.is_exact)

    def to_json(self) -> dict:
        return {"tshift": str(self.tshift), "elt": self.body.to_json()}


def eval_valuation(x: LambdaElt, vT: Fraction) -> tuple[Valuation, bool]:
    """Valuation of x(T) at a point with v(T) = vT, with honesty flag.

    The value is min_m (v(b_m) + m*vT); it is the exact valuation iff a
    unique m attains the minimum and that coefficient's valuation is exact.
    Otherwise the returned Valuation is only a certified lower bound.
    """
    vT = Fraction(vT)
    if not 0 < vT < 1:
        raise BadArgument(f"vT must lie in (0,1), got {vT}")
    best = None
    best_exact = False
    tie = False
    for m, c in enumerate(x.coeffs):
        v = val_p(c)
        contrib = v.bound + m * vT
        if best is None or contrib < best:
            best, best_exact, tie = contrib, v.is_exact, False
        elif contrib == best:
            tie = True
    exact = best_exact and not tie
    return (Valuation.exact(best) if exact else Valuation.at_least(best)), exact


def one_plus_T_pow(g: PAdicNum, trunc: int, n_target: int) -> LambdaElt:
    """(1+T)^g as a truncated series: coefficients C(g, r) for r < trunc."""
    need = n_target + val_p_factorial(trunc - 1, g.p)
    if g.prec < need:
        raise InsufficientPrecision(
            f"exponent needs precision >= {need} to certify {n_target} digits"
        )
    coeffs = [binom_padic(g, r).with_prec(n_target) for r in range(trunc)]
    return LambdaElt(tuple(coeffs))
