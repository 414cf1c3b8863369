"""The acceptance checks, one registry for `verify` and the test suite.

Each check takes a scale ("full" or "smoke") and a fault flag and returns
(ok, detail).  The fault flag perturbs one input or expectation so the
check must report FAIL, which proves it can detect a fault at all.  Full
scale is the pinned acceptance contract; smoke scale draws prefixes of the
same seeded streams on smaller fixtures.  `run_checks` runs a selection
for `verify` and returns its rows in registry order.
"""

from __future__ import annotations

import functools
import json
import math
import os
import pickle
import random
import signal
import threading
from fractions import Fraction
from typing import NamedTuple

from .charpoly import (
    berkowitz_charpoly,
    char_input_prec,
    char_series,
    lambda_seq,
    verify_char_bound,
    window_blocks,
)
from .iwasawa import CharOfDelta, LambdaElt, mlambda_order
from .monoid_action import (
    DeltaMat,
    difference_triangle,
    matrix_input_prec,
    verify_entry_bounds,
)
from .padic_core import BadArgument, OrderBound, PadicError, phi_q, q_for, val_p_int
from .polygon import (
    NewtonPolygon,
    PolyPoint,
    atkin_lehner_check,
    bound_gap,
    degree_formula_check,
    dominates,
    lower_bound_polygon,
    max_vertical_gap,
    newton_polygon,
    progression_check,
    ratio_table,
    series_points,
    slope_report,
)
from .up_operator import assemble, halo_bounds, rescale_halo_basis, synth_up


class Scale(NamedTuple):
    # synthetic operators (p, t, r, M_T, n_target, seed); the T-window
    # reaches past lambda(degree) so evaluation flags are decided inside the
    # visible coefficients, the p-adic target so zero residues still certify
    fixtures: tuple
    degree: int
    entry_count: int  # random monoid matrices per prime and class
    entry_size: int
    entry_trunc: int
    entry_streams: tuple  # RNG stream bases for p | a and for a prime to p
    oracle_count: int
    oracle_seed: int
    mahler_count: int
    mahler_seed: int


SCALES = {
    "full": Scale(
        fixtures=(
            (3, 1, 8, 56, 52, 1),
            (3, 2, 4, 40, 28, 4),
            (5, 1, 10, 65, 61, 6),
            (5, 2, 4, 44, 32, 54),
        ),
        degree=12,
        entry_count=200,
        entry_size=40,
        entry_trunc=8,
        entry_streams=(1000, 2000),
        oracle_count=100,
        oracle_seed=60,
        mahler_count=500,
        mahler_seed=70,
    ),
    "smoke": Scale(
        fixtures=(
            (3, 1, 5, 20, 16, 1),
            (5, 2, 4, 14, 10, 1),
        ),
        degree=6,
        entry_count=20,
        entry_size=12,
        entry_trunc=8,
        entry_streams=(1000, 2000),
        oracle_count=20,
        oracle_seed=60,
        mahler_count=50,
        mahler_seed=70,
    ),
}


@functools.lru_cache(maxsize=None)
def fixture_series(scale: str) -> tuple:
    """(p, t, D, spec, CharSeries) per fixture, computed once per process."""
    sc = SCALES[scale]
    rows = []
    for p, t, r, MT, nt, seed in sc.fixtures:
        N = char_input_prec(p, t, r, MT, nt)
        spec = synth_up(t, p, N, MT, seed=seed)
        cs = char_series(spec, sc.degree, r, CharOfDelta(p, 0))
        rows.append((p, t, sc.degree, spec, cs))
    return tuple(rows)


def random_monoid_matrix(rng, p: int, N: int, p_divides_a: bool) -> DeltaMat:
    """Seeded matrix with q | c, d a unit, nonzero det, and p | a as asked."""
    q = q_for(p)
    span = p**6
    while True:
        a = rng.randrange(1, span)
        if p_divides_a:
            a *= p
        elif a % p == 0:
            continue
        delta = DeltaMat.from_ints(
            p, N, a, rng.randrange(span), q * rng.randrange(span),
            rng.randrange(1, span),
        )
        a, b, c, d = delta.residues
        if d % p and (a * d - b * c) % p**N:
            return delta


def charpoly_cofactor_oracle(mat, one, zero) -> tuple:
    """Coefficients of det(I - X*mat) by recursive cofactor expansion.

    Entries of I - X*mat are degree-1 polynomials in X over the ring;
    `one`/`zero` are the ring constants.  Independent of the division-free
    recurrence in `berkowitz_charpoly`, which it serves as a reference for.
    Its products are the entries' own: on `LambdaElt` entries, as on the
    `CoeffLambda` of `tests/oracles.py`, a per-coefficient convolution, so
    none of the packed codec Berkowitz runs on reaches it.
    """
    n = len(mat)
    poly = [[[one if i == j else zero, -mat[i][j]] for j in range(n)] for i in range(n)]

    def pmul(f, g):
        out = [None] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                prod = a * b
                out[i + j] = prod if out[i + j] is None else out[i + j] + prod
        return out

    # a minor on columns `cols` always spans the last len(cols) rows, so the
    # column tuple names it and each minor is expanded once
    @functools.lru_cache(maxsize=None)
    def det(cols):
        r = n - len(cols)
        if len(cols) == 1:
            return poly[r][cols[0]]
        acc = None
        for idx, c in enumerate(cols):
            term = pmul(poly[r][c], det(cols[:idx] + cols[idx + 1 :]))
            if idx % 2 == 1:
                term = [-t for t in term]
            acc = term if acc is None else [a + b for a, b in zip(acc, term)]
        return acc

    return tuple(det(tuple(range(n)))[: n + 1])


# -- checks ----------------------------------------------------------------------


def _entry_bounds(scale: str, fault: bool, up: bool):
    sc = SCALES[scale]
    count, size, trunc = sc.entry_count, sc.entry_size, sc.entry_trunc
    stream = sc.entry_streams[0 if up else 1]
    kind = "p-divisible" if up else "prime-to-p"
    for p in (2, 3, 5):
        N = matrix_input_prec(p, size, trunc, size)
        rng = random.Random(stream + p)
        for _ in range(count):
            delta = random_monoid_matrix(rng, p, N, up)
            omega = CharOfDelta(p, rng.randrange(phi_q(p)))
            # the fault raises every bound by one; P_{0,0} is a unit, so it fails
            report = verify_entry_bounds(delta, size, omega, trunc, raise_by=int(fault))
            if not report.ok:
                return False, f"{kind} bound violated: {report.violations[0]}"
    return True, f"{3 * count} {kind} matrices, all entries m,n < {size} certified"


def entry_bounds_up(scale, fault=False):
    return _entry_bounds(scale, fault, up=True)


def entry_bounds_m1(scale, fault=False):
    return _entry_bounds(scale, fault, up=False)


def char_series_bound(scale, fault=False):
    worst = None
    total = 0
    for p, t, D, _spec, cs in fixture_series(scale):
        if cs.r < 4:
            return False, f"(p,t)=({p},{t}) stable only mod m^{cs.r}, below m^4"
        lam = lambda_seq(p, t, D)
        if fault:
            lam = tuple(v + 1 for v in lam)
        report = verify_char_bound(cs, lam)
        if report.violations:
            n, order = report.violations[0]
            return False, f"(p,t)=({p},{t}) c_{n} order {order.value} < {lam[n]}"
        if report.skipped:
            return False, f"(p,t)=({p},{t}) budget skipped n={report.skipped}"
        if len(report.checked) != D + 1:
            return False, f"(p,t)=({p},{t}) certified {len(report.checked)} of {D + 1}"
        total += len(report.checked)
        m = min(margin for _n, margin in report.checked)
        worst = m if worst is None else min(worst, m)
    return True, f"{total} coefficients certified, min margin {worst}"


def lambda_closed_form(scale, fault=False):
    for p, t in ((3, 1), (3, 2), (5, 1), (5, 2), (2, 1)):
        q = q_for(p)
        lam = lambda_seq(p, t, 11 * q * t)
        for k in range(11):
            lhs = Fraction(p, q * (p - 1)) * lam[(k + 1) * q * t]
            rhs = Fraction((k + 1) ** 2 * q * t, 2)
            if fault:
                rhs += 1
            if lhs != rhs:
                return False, f"(p,t)=({p},{t}) k={k}: {lhs} != {rhs}"
    return True, "five (p,t) pairs, k = 0..10, exact equality"


def vertical_gap(scale, fault=False):
    for p, t in ((2, 1), (3, 1), (3, 2), (5, 1), (5, 2)):
        for vT in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
            got = max_vertical_gap(p, t, vT)
            want = bound_gap(p, t, vT) + int(fault)
            if got != want:
                return False, f"(p,t,vT)=({p},{t},{vT}): {got} != {want}"
    return True, "15 grid points match the closed form exactly"


def charpoly_oracle(scale, fault=False):
    sc = SCALES[scale]
    rng = random.Random(sc.oracle_seed)
    p, prec, trunc = 5, 4, 5
    one, zero = LambdaElt.one(p, prec, trunc), LambdaElt.zero(p, prec, trunc)
    for case in range(sc.oracle_count):
        size = rng.randrange(1, 6)
        mat = tuple(
            tuple(
                LambdaElt.from_ints(
                    p, prec, trunc, [rng.randrange(p**prec) for _ in range(trunc)]
                )
                for _ in range(size)
            )
            for _ in range(size)
        )
        want = charpoly_cofactor_oracle(mat, one, zero)
        if fault:
            want = (want[0], want[1] + one) + want[2:]
        if berkowitz_charpoly(mat) != want:
            return False, f"case {case} size {size} disagrees with cofactor oracle"
    return True, f"{sc.oracle_count} random matrices up to 5x5 match the cofactor oracle"


def mahler_round_trip(scale, fault=False):
    # the kernel's difference triangle on plain residues; summing
    # C(z, m) * a_m over the coefficients must give back every sample
    sc = SCALES[scale]
    rng = random.Random(sc.mahler_seed)
    primes = (2, 3, 5, 7)
    prec = 12
    for case in range(sc.mahler_count):
        p = primes[case % len(primes)]
        length = rng.randrange(1, 13)
        vals = [rng.randrange(p**prec) for _ in range(length)]
        coeffs = difference_triangle(vals)
        for z, want in enumerate(vals):
            got = sum(math.comb(z, m) * a for m, a in enumerate(coeffs))
            if fault:
                got += 1
            if got != want:
                return False, f"case {case} p={p} sample {z} not recovered"
    return True, f"{sc.mahler_count} sample vectors recovered exactly"


def truncation_stability(scale, fault=False):
    # char_series decides the gap between sizes S and S+t in Lambda/m^r; this
    # is its full-ring witness (separate assembly at S+t's own precision,
    # separate Berkowitz pass)
    for p, t, D, spec, cs in fixture_series(scale):
        n_blocks = window_blocks(p, t, cs.r, D)
        mat = assemble(spec, n_blocks + 1, CharOfDelta(p, 0))
        big = berkowitz_charpoly(mat.entries)
        for n in range(D + 1):
            other = big[n]
            if fault and n == 1:
                other = other + LambdaElt.one(other.p, other.prec, other.trunc)
            gap = mlambda_order(cs.coeffs[n] - other)
            if not gap.meets(cs.r, f"(p,t)=({p},{t}) gap of c_{n} between S and S+t"):
                return False, (
                    f"(p,t)=({p},{t}) c_{n} differs between sizes S and S+t "
                    f"at order {gap.value} < {cs.r}"
                )
    n = len(SCALES[scale].fixtures)
    return True, f"{n} series stable between truncation sizes S and S+t mod m^r"


def ratio_rigidity(scale, fault=False):
    radii = (Fraction(1, 3), Fraction(1, 4))
    vertices = 0
    for p, t, D, _spec, cs in fixture_series(scale):
        tables = []
        for vT in radii:
            pts = series_points(cs, vT)
            tables.append(ratio_table(pts, newton_polygon(pts), vT))
        common = sorted(set(tables[0]) & set(tables[1]))
        if not common:
            return False, f"(p,t)=({p},{t}) has no common flagged vertices"
        for x in common:
            lhs, rhs = tables[0][x], tables[1][x]
            if fault:
                rhs += 1
            if lhs != rhs:
                return False, f"(p,t)=({p},{t}) vertex {x}: {lhs} != {rhs}"
        vertices += len(common)
    return True, f"{vertices} flagged vertices share ratios at vT = 1/3, 1/4"


def lower_bound_sandwich(scale, fault=False):
    radii = (Fraction(1, 3), Fraction(1, 4))
    count = 0
    for p, t, D, _spec, cs in fixture_series(scale):
        for vT in radii:
            poly = newton_polygon(series_points(cs, vT))
            lower = lower_bound_polygon(p, t, vT, D)
            if fault:
                lower = NewtonPolygon(tuple((x, y + 1) for x, y in lower.vertices))
            if not dominates(poly, lower):
                return False, f"(p,t)=({p},{t}) vT={vT} dips below the bound"
            count += 1
    return True, f"{count} polygons lie on or above the lower bound"


def rescaled_columns(scale, fault=False):
    checked = 0
    for p, t, D, spec, _cs in fixture_series(scale):
        mat = assemble(spec, window_blocks(p, t, 4, 0), CharOfDelta(p, 0))
        for row, col, need, order in halo_bounds(rescale_halo_basis(mat), p):
            need += int(fault)
            if not order.meets(need, f"(p,t)=({p},{t}) entry ({row},{col})"):
                return False, (
                    f"(p,t)=({p},{t}) entry ({row},{col}) order "
                    f"{order.value} < {need}"
                )
            checked += 1
    return True, f"{checked} rescaled entries meet the column bound"


def non_compactness(scale, fault=False):
    # one column of the full uncompactified operator: its image keeps a
    # valuation-1 coefficient at row p, so no reordering makes it compact
    expected = {3: 66, 5: 27405}
    m, prec = 2, 8
    for p in (3, 5):
        count = p ** (m - 1) + 1
        mod = p**prec
        samples = [sum(math.comb(p * j + i, p**m) for i in range(p)) for j in range(count)]
        coeff = difference_triangle(samples)[p ** (m - 1)] % mod
        if fault:
            coeff = coeff * p % mod
        if coeff != expected[p]:
            return False, f"p={p}: coefficient differs from frozen {expected[p]}"
        if coeff % p**2 == 0:
            return False, f"p={p}: coefficient {coeff} is 0 mod p^2"
        if val_p_int(coeff, p) != 1:
            return False, f"p={p}: valuation {val_p_int(coeff, p)} is not exactly 1"
    return True, "columns p^2 keep a valuation-1 entry at row p (66, 27405)"


def checker_fault_detection(scale, fault=False):
    F = Fraction
    # involution pairing: alpha_i = k+1 - alpha'_{L-1-i}, sum (k+1)^2 p^m t/q
    psi = [F(0), F(1), F(3, 2)]
    psi_inv = [F(3, 2), F(2), F(3)]
    if fault:
        psi = [F(0), F(1), F(2)]
    good = atkin_lehner_check(psi, psi_inv, 2, 3, 1, 1)
    if not good.passed:
        return False, "pairing checker rejects a satisfying table"
    bad = atkin_lehner_check(psi, [F(3, 2), F(5, 2), F(3)], 2, 3, 1, 1)
    if bad.passed:
        return False, "pairing checker misses a perturbed table"
    # K = 3 interleaved progressions of difference 1 at p = 3, M = 2
    seq = [F(0), F(1, 3), F(2, 3), F(1), F(4, 3), F(5, 3), F(2)]
    good = progression_check({0: list(seq)}, 2, 3, 1)
    if not good.passed:
        return False, "progression checker rejects a satisfying table"
    seq[4] += F(1, 9)
    bad = progression_check({0: seq}, 2, 3, 1)
    if bad.passed:
        return False, "progression checker misses a perturbed table"
    # ladder polygon over six unit steps, slopes interleaving the intervals
    ys = [F(0)]
    for s in (F(1, 3), F(1, 2), F(2, 3), F(4, 3), F(3, 2), F(5, 3)):
        ys.append(ys[-1] + s)
    pts = [PolyPoint(i, OrderBound.exact(y)) for i, y in enumerate(ys)]
    report = slope_report(newton_polygon(pts), F(1, 2), 3, pts)
    good = degree_formula_check(report, {0: 0, 1: 0}, 1)
    if not good.passed:
        return False, "degree checker rejects a satisfying table"
    bad = degree_formula_check(report, {0: 1, 1: 0}, 1)
    if bad.passed:
        return False, "degree checker misses a perturbed rank table"
    return True, "three checkers pass and catch single perturbations"


def deterministic_export(scale, fault=False):
    blobs = []
    for round_no in range(2):
        p, t, r, MT, nt, seed = SCALES["smoke"].fixtures[0]
        N = char_input_prec(p, t, r, MT, nt)
        spec = synth_up(t, p, N, MT, seed=seed)
        cs = char_series(spec, 4, r, CharOfDelta(p, 0))
        poly = newton_polygon(series_points(cs, Fraction(1, 3)))
        blob = json.dumps(cs.to_json(), sort_keys=True) + "".join(
            f"{x},{y}\n" for x, y in poly.vertices
        )
        if fault and round_no == 1:
            blob += "."
        blobs.append(blob)
    if blobs[0] != blobs[1]:
        return False, "two identical runs produced different bytes"
    return True, "repeated runs export byte-identical series and polygons"


CHECKS = (
    ("entry-bounds-up", entry_bounds_up),
    ("entry-bounds-m1", entry_bounds_m1),
    ("char-series-bound", char_series_bound),
    ("lambda-closed-form", lambda_closed_form),
    ("vertical-gap", vertical_gap),
    ("charpoly-oracle", charpoly_oracle),
    ("mahler-round-trip", mahler_round_trip),
    ("truncation-stability", truncation_stability),
    ("ratio-rigidity", ratio_rigidity),
    ("lower-bound-sandwich", lower_bound_sandwich),
    ("rescaled-columns", rescaled_columns),
    ("non-compactness", non_compactness),
    ("checker-fault-detection", checker_fault_detection),
    ("deterministic-export", deterministic_export),
)

# The checks that build characteristic series.  `run_checks` keeps them in
# the calling process, so the memoised fixture series is built once.
SERIES_CHECKS = frozenset({
    "char-series-bound",
    "truncation-stability",
    "ratio-rigidity",
    "lower-bound-sandwich",
    "rescaled-columns",
    "deterministic-export",
})


class CheckWorkerLost(PadicError):
    """The forked check worker ended without sending its results."""

    exit_code = 1


def run_checks(names, scale: str, inject_fault=None) -> list:
    """(name, ok, detail) for the named checks, or all when none are named.

    Rows come in registry order.  `inject_fault` names the check whose fault
    flag is set, and must be one of the chosen checks, or BadArgument.  When
    the process can fork, has two usable CPUs and runs no other thread, the
    SERIES_CHECKS run here while one forked child runs the rest; otherwise
    one loop runs them all here.  The rows are the same either way, and so
    is the error raised: that of the first check, in registry order, that
    raised one.
    """
    known = [name for name, _fn in CHECKS]
    unknown = [name for name in names if name not in known]
    if unknown:
        raise BadArgument(f"unknown checks: {', '.join(unknown)}")
    if inject_fault is not None and inject_fault not in known:
        raise BadArgument(f"unknown check: {inject_fault}")
    if names and inject_fault is not None and inject_fault not in names:
        raise BadArgument(
            f"fault injected into {inject_fault}, which is not among the chosen "
            f"checks: {', '.join(names)}"
        )
    chosen = [(name, fn) for name, fn in CHECKS if not names or name in names]
    here = [check for check in chosen if check[0] in SERIES_CHECKS]
    there = [check for check in chosen if check[0] not in SERIES_CHECKS]
    outcomes = None
    if here and there and _fork_pays():
        outcomes = _fan_out(here, there, scale, inject_fault)
    if outcomes is None:
        outcomes = _run(chosen, scale, inject_fault)
    rows = []
    for name, _fn in chosen:
        outcome = outcomes[name]
        if isinstance(outcome, Exception):
            raise outcome
        rows.append((name, *outcome))
    return rows


def _fork_pays() -> bool:
    # a forked child inherits the imported package, so it starts in a few ms;
    # it gains nothing on one CPU, and forking beside other threads is unsafe
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _run(checks, scale: str, inject_fault) -> dict:
    """name -> (ok, detail); a check that raises maps to its exception and
    ends the run."""
    outcomes = {}
    for name, fn in checks:
        try:
            outcomes[name] = fn(scale, fault=(name == inject_fault))
        except Exception as exc:
            outcomes[name] = exc
            break
    return outcomes


def _fan_out(here, there, scale: str, inject_fault):
    """Outcomes of `here`, run in this process, and of `there`, run in one
    forked child that pickles them back over a pipe; None if fork fails."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid == 0:
        # leave through os._exit: no exit handlers, no flush of buffers the
        # parent still owns, nothing printed
        code = 1
        try:
            os.close(rfd)
            with open(wfd, "wb") as pipe:
                pipe.write(pickle.dumps(_run(there, scale, inject_fault)))
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    with open(rfd, "rb") as pipe:
        try:
            outcomes = _run(here, scale, inject_fault)
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise CheckWorkerLost(f"the check worker {how} before sending its results")
    outcomes.update(pickle.loads(data))
    return outcomes
