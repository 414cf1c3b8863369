"""Weighted action of 2x2 matrices on binomial-basis coefficients.

A matrix delta = (a, b; c, d) with q | c, d a unit and nonzero determinant
acts on continuous functions of a p-adic variable.  The image of C(z, n) is
sampled pointwise as

    h_n(z) = C(f(z), n) * omega(d0) * (1+T)^{g(z)}

with f(z) = (az+b)/(cz+d), d0 the torsion component of d, and
g(z) = log((cz+d)/d0)/q, then expanded back into the basis by finite
differences: P_{m,n} = m-th difference of h_n at 0.

Two engines compute the same residues: a per-entry object path built on
PAdicNum/LambdaElt, and a packed path that stores all T-coefficients of a
sample in a single big integer so the difference triangle runs in whole-row
operations.  The packed path backs the bound scan over large matrices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .iwasawa import (
    DEFAULT_TRUNC,
    CharOfDelta,
    LambdaElt,
    mlambda_order,
    one_plus_T_pow,
)
from .mahler import SampleVector, mahler_from_samples
from .padic_core import (
    InsufficientPrecision,
    NotAUnit,
    PAdicNum,
    PadicError,
    PrecisionTooLow,
    _fact_unit,
    _inv_mod,
    _log_ratio_raw,
    binom_padic,
    padic_log_ratio,
    q_for,
    teichmuller,
    val_p_factorial,
    val_p_int,
)


class NotInMonoid(PadicError):
    pass


class MonoidClass(enum.Enum):
    M1 = "M1"
    UpMonoid = "UpMonoid"
    Neither = "Neither"


@dataclass(frozen=True)
class DeltaMat:
    """Entries a, b, c, d as PAdicNum sharing one (p, precision)."""

    a: PAdicNum
    b: PAdicNum
    c: PAdicNum
    d: PAdicNum

    def __post_init__(self):
        ps = {x.p for x in (self.a, self.b, self.c, self.d)}
        ns = {x.prec for x in (self.a, self.b, self.c, self.d)}
        if len(ps) != 1 or len(ns) != 1:
            raise NotInMonoid(f"entries disagree on (p, precision): {ps}, {ns}")

    @classmethod
    def from_ints(cls, p: int, prec: int, a: int, b: int, c: int, d: int):
        return cls(*(PAdicNum(p, prec, x) for x in (a, b, c, d)))

    @property
    def p(self) -> int:
        return self.a.p

    @property
    def prec(self) -> int:
        return self.a.prec

    def det(self) -> PAdicNum:
        return self.a * self.d - self.b * self.c

    def to_json(self) -> dict:
        return {k: str(getattr(self, k).residue) for k in ("a", "b", "c", "d")}

    @classmethod
    def from_json(cls, obj: dict, p: int, prec: int) -> "DeltaMat":
        return cls.from_ints(p, prec, *(int(obj[k]) for k in ("a", "b", "c", "d")))


def check_monoid(delta: DeltaMat) -> MonoidClass:
    """q | c, d a unit, det nonzero at working precision; p | a refines."""
    q = q_for(delta.p)
    if delta.c.residue % q != 0:
        return MonoidClass.Neither
    if not delta.d.is_unit():
        return MonoidClass.Neither
    if delta.det().residue == 0:
        return MonoidClass.Neither
    if delta.a.residue % delta.p == 0:
        return MonoidClass.UpMonoid
    return MonoidClass.M1


def torsion_part(d: PAdicNum) -> PAdicNum:
    """Torsion component of a unit: Teichmuller lift, or the sign mod 4."""
    if d.p == 2:
        if not d.is_unit():
            raise NotAUnit(f"{d.residue} is even")
        return PAdicNum(2, d.prec, 1 if d.residue % 4 == 1 else -1)
    return teichmuller(d)


# -- precision budgeting ---------------------------------------------------


def _ilog(p: int, n: int) -> int:
    e = 0
    pk = p
    while pk <= n:
        e += 1
        pk *= p
    return e


def log_input_prec(p: int, goal: int) -> int:
    """Smallest input precision certifying >= goal digits of log(u)/q."""
    q = q_for(p)
    vq = val_p_int(q, p)
    w = goal + vq
    while True:
        k_max = 1
        while k_max * vq - val_p_factorial(k_max, p) < w:
            k_max += 1
        if w - vq - _ilog(p, k_max) >= goal:
            return w
        w += 1


def column_input_prec(p: int, n: int, trunc: int, n_target: int) -> int:
    """Entry precision a DeltaMat needs to deliver column n at n_target.

    The scalar factor C(f(z), n) costs v_p(n!); the exponent of the series
    factor must itself survive the binomials in (1+T)^g up to T^trunc.
    """
    scalar = n_target + val_p_factorial(n, p)
    series = log_input_prec(p, n_target + val_p_factorial(trunc - 1, p))
    return max(scalar, series)


def matrix_input_prec(p: int, size: int, trunc: int, n_target: int) -> int:
    return column_input_prec(p, size - 1, trunc, n_target)


# -- object path -----------------------------------------------------------


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
    cls = check_monoid(delta)
    if cls is MonoidClass.Neither:
        raise NotInMonoid(f"{delta.to_json()} fails the q|c, unit-d, det test")
    need = column_input_prec(delta.p, n, trunc, n_target)
    if delta.prec < need:
        raise InsufficientPrecision(
            f"column {n} at target {n_target} needs entry precision {need}, "
            f"have {delta.prec}"
        )
    q = q_for(delta.p)
    d0 = torsion_part(delta.d)
    w = omega.value_at(d0)
    samples = []
    for z in range(m_max + 1):
        den = delta.c * z + delta.d
        fz = (delta.a * z + delta.b).divide_unit(den)
        scalar = (binom_padic(fz, n) * w).with_prec(n_target)
        g = padic_log_ratio(den.divide_unit(d0), q)
        samples.append(one_plus_T_pow(g, trunc, n_target) * scalar)
    fn = mahler_from_samples(SampleVector(tuple(samples)), m_max + 1)
    return ActionColumn(n, fn.coeffs)


# -- packed path -----------------------------------------------------------


def _torsion_residue(d_res: int, p: int, prec: int) -> int:
    mod = p**prec
    if p == 2:
        return 1 if d_res % 4 == 1 else mod - 1
    x = d_res % mod
    for _ in range(prec):
        x = pow(x, p, mod)
    return x


def _kernel_columns(delta: DeltaMat, size: int, omega: CharOfDelta, trunc: int):
    """Yield (n, firsts, bias, width) per column; digits raw mod p^prec.

    firsts[m] is the packed value of row m: T-coefficient s of P_{m,n} sits
    in bits [width*s, width*(s+1)), offset by bias for m >= 1.  Digits are
    never reduced during the difference triangle; the packing width leaves
    room for the 2^m growth of m-fold differences, so each digit is exact
    integer data congruent to the entry mod p^prec.
    """
    p, prec = delta.p, delta.prec
    q = q_for(p)
    mod = p**prec
    d0 = _torsion_residue(delta.d.residue, p, prec)
    w_res = pow(d0, omega.exponent, mod)
    inv_d0 = _inv_mod(d0, mod)
    a, b, c, d = (x.residue for x in (delta.a, delta.b, delta.c, delta.d))

    width = 2 * mod.bit_length() + size + 4
    bias = 1 << (width - 1)

    fz = []
    packed_series = []
    for z in range(size):
        den = (c * z + d) % mod
        inv_den = pow(den, -1, mod)
        fz.append((a * z + b) * inv_den % mod)
        g, _eff = _log_ratio_raw(den * inv_d0 % mod, p, q, prec)
        acc = 0
        for r in range(trunc - 1, 0, -1):
            acc = (acc << width) | _binom_residue(g, r, p, mod)
        acc = (acc << width) | 1
        packed_series.append(acc)

    bc = _bias_block(bias, width, trunc)
    ff_col = [1] * size
    for n in range(size):
        if n:
            for z in range(size):
                ff_col[z] = ff_col[z] * (fz[z] - n + 1) % mod
        vn = val_p_factorial(n, p)
        pv = p**vn
        inv_u = _inv_mod(_fact_unit(n, p, mod), mod)
        rows = []
        for z in range(size):
            if ff_col[z] % pv:
                raise PrecisionTooLow(
                    f"residue for C(f({z}),{n}) not divisible by p^{vn}"
                )
            scal = (ff_col[z] // pv) * inv_u % mod * w_res % mod
            rows.append(scal * packed_series[z])
        firsts = [rows[0]]
        cur = rows
        for _level in range(1, size):
            cur = [cur[i + 1] - cur[i] + bc for i in range(len(cur) - 1)]
            firsts.append(cur[0])
        yield n, firsts, bias, width


def _binom_residue(g: int, r: int, p: int, mod: int) -> int:
    """C(g, r) mod (its certified precision), as a raw representative."""
    ff = 1
    for i in range(r):
        ff = ff * (g - i) % mod
    v = val_p_factorial(r, p)
    if ff % p**v:
        raise PrecisionTooLow(f"series binomial r={r} lost exact divisibility")
    return (ff // p**v) * _inv_mod(_fact_unit(r, p, mod), mod) % mod


def _bias_block(bias: int, width: int, trunc: int) -> int:
    acc = 0
    for _ in range(trunc):
        acc = (acc << width) | bias
    return acc


def _packed_matrix(
    delta: DeltaMat,
    size: int,
    omega: CharOfDelta,
    trunc: int,
    n_target: int,
) -> tuple:
    """Materialize the packed kernel's output as ActionColumns (test hook)."""
    p = delta.p
    mod_t = p**n_target
    mask_mod = p**delta.prec
    cols = []
    for n, firsts, bias, width in _kernel_columns(delta, size, omega, trunc):
        mask = (1 << width) - 1
        entries = []
        for m, packed in enumerate(firsts):
            off = bias if m >= 1 else 0
            coeffs = []
            for s in range(trunc):
                digit = (packed >> (width * s)) & mask
                coeffs.append(PAdicNum(p, n_target, (digit - off) % mask_mod % mod_t))
            entries.append(LambdaElt(tuple(coeffs)))
        cols.append(ActionColumn(n, tuple(entries)))
    return tuple(cols)


# -- bound verification ----------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    monoid_class: MonoidClass
    size: int
    violations: tuple  # (m, n, observed OrderBound)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_entry_bounds(
    delta: DeltaMat,
    size: int,
    omega: CharOfDelta,
    trunc: int = DEFAULT_TRUNC,
) -> BoundReport:
    """Certify the entry valuation bounds for all m, n < size.

    For the U_p class the claim is order(P_{m,n}) >= max(m - n//p, 0); for
    the rest of the monoid it is max(m - n, 0).  Certification needs every
    entry known to n_target = size digits, so the input precision must
    cover the budget; short inputs fail fast rather than mislabel AtLeast
    coefficients as violations.
    """
    cls = check_monoid(delta)
    if cls is MonoidClass.Neither:
        raise NotInMonoid(f"{delta.to_json()} fails the q|c, unit-d, det test")
    p = delta.p
    n_target = size
    need = matrix_input_prec(p, size, trunc, n_target)
    if delta.prec < need:
        raise PrecisionTooLow(
            f"size {size} needs entry precision {need} to certify all "
            f"bounds, have {delta.prec}"
        )
    if cls is MonoidClass.UpMonoid:
        required = lambda m, n: m - n // p
    else:
        required = lambda m, n: m - n

    mod = p**delta.prec
    pk = [p**k for k in range(size + 1)]
    flagged: dict[int, list[int]] = {}
    for n, firsts, bias, width in _kernel_columns(delta, size, omega, trunc):
        mask = (1 << width) - 1
        for m in range(size):
            r = required(m, n)
            if r <= 0:
                continue
            packed = firsts[m]
            off = bias if m >= 1 else 0
            for s in range(min(r, trunc)):
                digit = (packed >> (width * s)) & mask
                if (digit - off) % mod % pk[r - s]:
                    flagged.setdefault(n, []).append(m)
                    break

    violations = []
    for n in sorted(flagged):
        col = action_column(delta, n, omega, size - 1, trunc, n_target)
        for m in flagged[n]:
            violations.append((m, n, mlambda_order(col.entries[m])))
    return BoundReport(cls, size, tuple(violations))
