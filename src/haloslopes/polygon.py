"""Newton polygons over weight space and slope-structure checkers.

Points carry Valuations rather than plain numbers: a zero residue only
bounds its coefficient from below, so the hull is built from the Exact
points and every AtLeast point must be certified to lie on or above it
(inside the hull's x-range) or above its slope extension (outside).
Certified polygons are exact functions of x even when some interior
points are only bounded.

Slope checkers compare observed slope multisets against the closed-form
degree, pairing and progression predictions.  Ordinary-rank tables and
slope tables are inputs, never computed here.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .charpoly import CharSeries, lambda_seq
from .iwasawa import eval_valuation
from .padic_core import BadArgument, Frozen, PadicError, Valuation


class UncertifiedHull(PadicError):
    """An AtLeast point could dip below the hull of the Exact points."""

    exit_code = 3


class AssertionFailure(PadicError):
    """A closed-form identity failed; signals an implementation fault."""

    exit_code = 1


class LengthMismatch(PadicError):
    pass


def _phi(q: int) -> int:
    return 2 if q == 4 else q - 1


class PolyPoint(NamedTuple):
    x: int
    y: Valuation


class NewtonPolygon(Frozen):
    """Piecewise-linear lower hull; vertices (x, y) with x strictly increasing."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple):
        if not vertices:
            raise BadArgument("a polygon needs at least one vertex")
        xs = [x for x, _ in vertices]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise BadArgument("vertex x-values must increase strictly")
        object.__setattr__(self, "vertices", vertices)
        seg = self.segment_slopes
        if any(b < a for a, b in zip(seg, seg[1:])):
            raise BadArgument("vertices are not convex from below")

    def _key(self) -> tuple:
        return (self.vertices,)

    @property
    def segment_slopes(self) -> tuple:
        out = []
        for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:]):
            out.append(Fraction(y2 - y1, x2 - x1))
        return tuple(out)

    @property
    def slopes(self) -> tuple:
        """One slope per unit x-step, nondecreasing with multiplicity."""
        out = []
        for (x1, _), (x2, _), s in zip(self.vertices, self.vertices[1:], self.segment_slopes):
            out.extend([s] * (x2 - x1))
        return tuple(out)

    @property
    def x_range(self) -> tuple:
        return self.vertices[0][0], self.vertices[-1][0]

    def value_at(self, x) -> Fraction:
        x = Fraction(x)
        lo, hi = self.x_range
        if not lo <= x <= hi:
            raise BadArgument(f"x={x} outside polygon range [{lo}, {hi}]")
        for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:]):
            if x <= x2:
                return y1 + Fraction(y2 - y1, x2 - x1) * (x - x1)
        return Fraction(self.vertices[-1][1])


def _lower_hull(pts):
    # monotone chain; <= pops collinear middles so only corners remain
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon(points) -> NewtonPolygon:
    """Certified lower hull of exactness-aware points.

    The hull is computed over the Exact points alone; every AtLeast point
    must be consistent with it (on or above inside the hull range, above
    the end-slope extension outside), else the hull cannot be trusted.
    """
    xs = [pt.x for pt in points]
    if len(set(xs)) != len(xs):
        raise BadArgument("x-values must be distinct")
    exact = sorted((pt.x, Fraction(pt.y.bound)) for pt in points if pt.y.is_exact)
    if not exact:
        raise BadArgument("need at least one Exact point to anchor the hull")
    np = NewtonPolygon(tuple(_lower_hull(exact)))
    lo, hi = np.x_range
    seg = np.segment_slopes
    for pt in points:
        if pt.y.is_exact:
            continue
        if not seg and pt.x != lo:
            raise UncertifiedHull(
                f"single exact point cannot certify a bound-only point at x={pt.x}"
            )
        if lo <= pt.x <= hi:
            need = np.value_at(pt.x)
        elif pt.x > hi:
            need = np.vertices[-1][1] + seg[-1] * (pt.x - hi)
        else:
            need = np.vertices[0][1] + seg[0] * (pt.x - lo)
        if pt.y.bound < need:
            raise UncertifiedHull(
                f"point at x={pt.x} only known >= {pt.y.bound}, hull needs {need}"
            )
    return np


def series_points(cs: CharSeries, vT) -> list:
    """Points (n, v(c_n(T))) at a weight with v(T) = vT, flags carried."""
    vT = Fraction(vT)
    return [PolyPoint(n, eval_valuation(c, vT)) for n, c in enumerate(cs.coeffs)]


def ratio_table(pts, poly: NewtonPolygon, vT) -> dict:
    """Vertex x -> ordinate / vT over the vertices whose point is Exact.

    Near the boundary of weight space these ratios do not depend on the
    radius (the paper's rigidity claim), so tables at two radii agree on
    their common vertices.
    """
    return {x: y / vT for x, y in poly.vertices if pts[x].y.is_exact}


def lower_bound_polygon(p: int, t: int, vT, n_max: int) -> NewtonPolygon:
    vT = Fraction(vT)
    lam = lambda_seq(p, t, n_max)
    pts = [PolyPoint(n, Valuation.exact(lam[n] * vT)) for n in range(n_max + 1)]
    return newton_polygon(pts)


def upper_bound_polygon(p: int, q: int, t: int, vT, k_max: int) -> NewtonPolygon:
    """Chords of the growth sequence over the period grid n_k = k q t."""
    vT = Fraction(vT)
    lam = lambda_seq(p, t, k_max * q * t)
    pts = [
        PolyPoint(k * q * t, Valuation.exact(lam[k * q * t] * vT))
        for k in range(k_max + 1)
    ]
    return newton_polygon(pts)


def dominates(a: NewtonPolygon, b: NewtonPolygon) -> bool:
    """True when a(x) >= b(x) across the overlap of the two x-ranges."""
    lo = max(a.x_range[0], b.x_range[0])
    hi = min(a.x_range[1], b.x_range[1])
    if hi < lo:
        raise BadArgument("polygons do not overlap")
    xs = {lo, hi}
    xs.update(x for x, _ in a.vertices if lo <= x <= hi)
    xs.update(x for x, _ in b.vertices if lo <= x <= hi)
    return all(a.value_at(x) >= b.value_at(x) for x in xs)


def bound_gap(p: int, t: int, vT: Fraction) -> Fraction:
    """Closed form of the largest bound-polygon gap: (p^2-1)t/8 vT, t vT at p = 2."""
    return t * vT if p == 2 else Fraction((p * p - 1) * t, 8) * vT


def max_vertical_gap(p: int, q: int, t: int, vT) -> Fraction:
    """Exact scan of upper minus lower, checked against `bound_gap`."""
    vT = Fraction(vT)
    span = 2 * q * t
    upper = upper_bound_polygon(p, q, t, vT, 2)
    lower = lower_bound_polygon(p, t, vT, span)
    gap = max(upper.value_at(x) - lower.value_at(x) for x in range(span + 1))
    want = bound_gap(p, t, vT)
    if gap != want:
        raise AssertionFailure(f"scanned gap {gap} differs from closed form {want}")
    return gap


# -- slope reports ------------------------------------------------------------


class SlopeRow(NamedTuple):
    n: int
    slope: Fraction
    ratio: Fraction
    interval: str
    exact: bool


class SlopeReport(NamedTuple):
    vT: Fraction
    q: int
    omega_exponent: int
    rows: tuple

    def degrees(self) -> dict:
        return dict(Counter(row.interval for row in self.rows))


def interval_label(ratio: Fraction) -> str:
    if ratio.denominator == 1:
        return f"[{ratio.numerator},{ratio.numerator}]"
    n = ratio.numerator // ratio.denominator
    return f"({n},{n + 1})"


def slope_report(np: NewtonPolygon, vT, q: int, points=None, omega_exponent: int = 0) -> SlopeReport:
    """Slopes with multiplicity, ratios slope/(phi(q) vT), interval classes.

    When the defining points are supplied, a step is flagged exact only if
    the coefficient valuations at both of its endpoints were exact; the
    slope itself is certified either way.
    """
    vT = Fraction(vT)
    unit = _phi(q) * vT
    by_x = {pt.x: pt.y.is_exact for pt in points} if points is not None else None
    rows = []
    x0 = np.x_range[0]
    for i, slope in enumerate(np.slopes):
        n = x0 + i
        ratio = slope / unit
        exact = True if by_x is None else by_x.get(n, False) and by_x.get(n + 1, False)
        rows.append(SlopeRow(n, slope, ratio, interval_label(ratio), exact))
    return SlopeReport(vT, q, omega_exponent, tuple(rows))


# -- structural checkers ------------------------------------------------------


class CheckRow(NamedTuple):
    label: str
    ok: bool
    observed: object
    predicted: object


class CheckResult(NamedTuple):
    name: str
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def failures(self) -> tuple:
        return tuple(r for r in self.rows if not r.ok)


def degree_formula_check(report: SlopeReport, r_ord: dict, q: int, t: int) -> CheckResult:
    """Observed interval degrees against the ordinary-rank predictions.

    Predictions: deg X_[0,0] = r(e); deg X_[n,n] = r(2n-2-e) + r(e-2n);
    deg X_(n,n+1) = qt - r(2n-e) - r(e-2n).  Only intervals the polygon
    covers completely are compared.  The twisted periodicity of the
    predictions and the partial-sum identity are checked alongside.
    """
    phi = _phi(q)
    e = report.omega_exponent % phi

    def r(x: int) -> int:
        return r_ord[x % phi]

    def pred_int(n: int, ee: int) -> int:
        return r(ee) if n == 0 else r(2 * n - 2 - ee) + r(ee - 2 * n)

    def pred_gap(n: int, ee: int) -> int:
        return q * t - r(2 * n - ee) - r(ee - 2 * n)

    ratios = [row.ratio for row in report.rows]
    top = max(ratios, default=Fraction(0))
    degrees = report.degrees()
    rows = []
    for n in range(int(top) + 1):
        if top > n:
            obs = degrees.get(f"[{n},{n}]", 0)
            rows.append(CheckRow(f"deg X_[{n},{n}]", obs == pred_int(n, e), obs, pred_int(n, e)))
        if top >= n + 1:
            obs = degrees.get(f"({n},{n + 1})", 0)
            rows.append(
                CheckRow(f"deg X_({n},{n + 1})", obs == pred_gap(n, e), obs, pred_gap(n, e))
            )
        rows.append(
            CheckRow(f"X_({n},{n + 1}) nonempty", pred_gap(n, e) > 0, pred_gap(n, e), "> 0")
        )
        if n >= 1:
            rows.append(
                CheckRow(
                    f"periodicity X_[{n},{n}]",
                    pred_int(n + 1, e + 2) == pred_int(n, e),
                    pred_int(n + 1, e + 2),
                    pred_int(n, e),
                )
            )
        rows.append(
            CheckRow(
                f"periodicity X_({n},{n + 1})",
                pred_gap(n + 1, e + 2) == pred_gap(n, e),
                pred_gap(n + 1, e + 2),
                pred_gap(n, e),
            )
        )
    for k in range(1, int(top) + 1):
        total = pred_int(0, e) + sum(pred_int(n, e) for n in range(1, k))
        total += sum(pred_gap(n, e) for n in range(k))
        n_k = k * q * t
        rows.append(
            CheckRow(
                f"slope count below {k}",
                total == n_k - r(2 * k - 2 - e) and n_k - t <= total <= n_k,
                total,
                f"{n_k} - r({(2 * k - 2 - e) % phi})",
            )
        )
    return CheckResult("degree formulas", tuple(rows))


def atkin_lehner_check(slopes_psi, slopes_psi_inv, k: int, q: int, p: int, m: int, t: int) -> CheckResult:
    """Pairing alpha_i(psi) = k+1 - alpha_{L-1-i}(psi^{-1}) plus the sum rule."""
    num = (k + 1) * p**m * t
    if num % q:
        raise BadArgument(f"(k+1) p^m t = {num} is not divisible by q = {q}")
    L = num // q
    if len(slopes_psi) != L or len(slopes_psi_inv) != L:
        raise LengthMismatch(
            f"expected {L} slopes, got {len(slopes_psi)} and {len(slopes_psi_inv)}"
        )
    for name, s in (("psi", slopes_psi), ("psi^-1", slopes_psi_inv)):
        if any(b < a for a, b in zip(s, s[1:])):
            raise BadArgument(f"{name} slopes must be sorted nondecreasingly")
    rows = []
    for i in range(L):
        want = k + 1 - slopes_psi_inv[L - 1 - i]
        rows.append(CheckRow(f"alpha_{i}", slopes_psi[i] == want, slopes_psi[i], want))
    total = sum(slopes_psi) + sum(slopes_psi_inv)
    want_total = Fraction((k + 1) ** 2 * p**m * t, q)
    rows.append(CheckRow("slope sum", total == want_total, total, want_total))
    return CheckResult("involution pairing", tuple(rows))


def progression_check(alpha: dict, M: int, p: int, q: int, t: int) -> CheckResult:
    """Arithmetic-progression structure of normalized slope ratios.

    Each per-character sequence must split into (p-1) p^(M-1) t / 2
    interleaved progressions of common difference phi(q) p^M / (2 q^2),
    and sequences at omega and omega * omega_0^2 must match under the
    index shift p^M t / q with offset p^M / q^2.
    """
    phi = _phi(q)
    two_k = (p - 1) * p ** (M - 1) * t
    if two_k % 2:
        raise BadArgument(f"progression count {two_k}/2 is not integral")
    K = two_k // 2
    diff = Fraction(phi * p**M, 2 * q * q)
    shift_num = p**M * t
    if shift_num % q:
        raise BadArgument(f"p^M t = {shift_num} is not divisible by q = {q}")
    shift = shift_num // q
    offset = Fraction(p**M, q * q)
    rows = [
        CheckRow("progression count", True, K, K),
        CheckRow("common difference", True, diff, diff),
    ]
    for e, seq in sorted(alpha.items()):
        for j in range(len(seq) - K):
            rows.append(
                CheckRow(
                    f"omega^{e} j={j} step",
                    seq[j + K] == seq[j] + diff,
                    seq[j + K],
                    seq[j] + diff,
                )
            )
        twisted = alpha.get((e + 2) % phi)
        if twisted is None:
            continue
        for j in range(min(len(seq), len(twisted) - shift)):
            rows.append(
                CheckRow(
                    f"omega^{e} j={j} twist",
                    twisted[j + shift] == seq[j] + offset,
                    twisted[j + shift],
                    seq[j] + offset,
                )
            )
    return CheckResult("slope progressions", tuple(rows))
