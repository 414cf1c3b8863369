"""Newton polygons, slope reports and the structural slope checkers."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from haloslopes import cli
from haloslopes.charpoly import char_input_prec, char_series, lambda_seq
from haloslopes.iwasawa import CharOfDelta
from haloslopes.padic_core import BadArgument, OrderBound, PrecisionTooLow, q_for
from haloslopes.polygon import (
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
    upper_bound_polygon,
)
from haloslopes.up_operator import synth_up

from oracles import hull_floor_oracle, lower_hull_oracle

F = Fraction


def pt(x, y, exact=True):
    v = OrderBound.exact(F(y)) if exact else OrderBound.at_least(F(y))
    return PolyPoint(x, v)


def report_of(pts, vT):
    # slope report at p = 3, where phi(q) = 2
    return slope_report(newton_polygon(pts), vT, 3, pts)


# -- hull construction --------------------------------------------------------


def test_hull_keeps_convex_exact_points():
    np = newton_polygon([pt(0, 0), pt(1, F(1, 2)), pt(2, F(3, 2))])
    assert np.vertices == ((0, 0), (1, F(1, 2)), (2, F(3, 2)))
    assert np.slopes == (F(1, 2), 1)


def test_hull_drops_interior_point():
    np = newton_polygon([pt(0, 0), pt(1, 5), pt(2, 1)])
    assert np.vertices == ((0, 0), (2, 1))
    assert np.slopes == (F(1, 2), F(1, 2))


def test_hull_merges_collinear_runs():
    np = newton_polygon([pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 4)])
    assert np.vertices == ((0, 0), (2, 2), (3, 4))


def test_single_exact_with_dangling_bound_uncertified():
    with pytest.raises(PrecisionTooLow):
        newton_polygon([pt(0, 0), pt(1, F(1, 4), exact=False)])


def test_interior_bound_below_hull_uncertified():
    with pytest.raises(PrecisionTooLow):
        newton_polygon([pt(0, 0), pt(2, 1), pt(1, F(1, 4), exact=False)])


def test_interior_bound_on_hull_is_fine():
    np = newton_polygon([pt(0, 0), pt(2, 1), pt(1, F(1, 2), exact=False)])
    assert np.vertices == ((0, 0), (2, 1))


def test_trailing_bound_above_extension_is_fine():
    np = newton_polygon([pt(0, 0), pt(2, 1), pt(5, 10, exact=False)])
    assert np.x_range == (0, 2)


def test_trailing_bound_below_extension_uncertified():
    # extension of the final slope 1/2 reaches 5/2 at x = 5
    with pytest.raises(PrecisionTooLow):
        newton_polygon([pt(0, 0), pt(2, 1), pt(5, 2, exact=False)])


def test_hull_rejects_bad_inputs():
    with pytest.raises(BadArgument):
        newton_polygon([pt(0, 0), pt(0, 1)])
    with pytest.raises(BadArgument):
        newton_polygon([pt(0, 0, exact=False)])


def test_value_at_interpolates():
    np = newton_polygon([pt(0, 0), pt(2, 1), pt(3, 2)])
    assert np.value_at(1) == F(1, 2)
    assert np.value_at(F(5, 2)) == F(3, 2)
    with pytest.raises(BadArgument):
        np.value_at(4)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 12),
            st.fractions(min_value=-5, max_value=5, max_denominator=8),
        ),
        min_size=1,
        max_size=12,
        unique_by=lambda xy: xy[0],
    )
)
def test_hull_matches_gift_wrapping_oracle(pts):
    poly = newton_polygon([pt(x, y) for x, y in pts])
    assert list(poly.vertices) == lower_hull_oracle(pts)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 12),
            st.fractions(min_value=-5, max_value=5, max_denominator=8),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
        unique_by=lambda xye: xye[0],
    ).filter(lambda pts: any(exact for _x, _y, exact in pts))
)
def test_hull_certifies_atleast_points_exactly_when_the_oracle_does(pts):
    # an AtLeast point is certified when it lies on or above the hull of the
    # Exact points, or above its end-slope extension outside the hull
    exact = [(x, y) for x, y, is_exact in pts if is_exact]
    floors = [(y, hull_floor_oracle(exact, x)) for x, y, is_exact in pts if not is_exact]
    certified = all(floor is not None and y >= floor for y, floor in floors)
    points = [pt(x, y, is_exact) for x, y, is_exact in pts]
    if not certified:
        with pytest.raises(PrecisionTooLow):
            newton_polygon(points)
        return
    poly = newton_polygon(points)
    assert list(poly.vertices) == lower_hull_oracle(exact)


# -- bound polygons and the gap formula ---------------------------------------


def test_lower_bound_polygon_small():
    np = lower_bound_polygon(3, 1, F(1, 2), 3)
    assert np.slopes == (0, F(1, 2), 1)
    assert np.vertices[0] == (0, 0)


def test_lower_bound_polygon_ordinate():
    assert lower_bound_polygon(5, 2, F(1, 4), 10).value_at(10) == 5


def test_upper_bound_polygon_first_period():
    np = upper_bound_polygon(3, 1, 1, 1)
    assert np.slopes == (1, 1, 1)
    assert np.vertices[0] == (0, 0)


def test_upper_bound_polygon_vertex():
    np = upper_bound_polygon(5, 2, F(1, 4), 1)
    assert np.vertices[-1] == (10, 5)


def test_upper_bound_degenerate_start():
    assert upper_bound_polygon(3, 1, 1, 0).vertices == ((0, 0),)


@pytest.mark.parametrize("p,q,t,vT,want", [
    (3, 3, 1, F(1), F(1)),
    (5, 5, 2, F(1, 2), F(3)),
    (2, 4, 1, F(1, 2), F(1, 2)),
])
def test_max_vertical_gap_frozen(p, q, t, vT, want):
    assert q_for(p) == q
    assert max_vertical_gap(p, t, vT) == bound_gap(p, t, vT) == want


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 3),
    st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=8),
)
def test_max_vertical_gap_scan_agrees_with_closed_form(p, t, vT):
    assert max_vertical_gap(p, t, vT) == bound_gap(p, t, vT)


def two_period_gap(p, t, vT):
    """Largest gap of upper minus lower over two periods, x <= 2qt."""
    span = 2 * q_for(p) * t
    upper = upper_bound_polygon(p, t, vT, 2)
    lower = lower_bound_polygon(p, t, vT, span)
    return max(upper.value_at(x) - lower.value_at(x) for x in range(span + 1))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_one_period_gap_scan_equals_two_periods(p, t):
    for vT in (F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(7, 8)):
        assert max_vertical_gap(p, t, vT) == two_period_gap(p, t, vT)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_lambda_is_convex_and_shifts_by_a_period_affinely(p, t):
    # the argument of max_vertical_gap's one-period scan
    q = q_for(p)
    lam = lambda_seq(p, t, 2 * q * t)
    steps = [b - a for a, b in zip(lam, lam[1:])]
    assert steps == sorted(steps)
    for m in range(q * t + 1):
        assert lam[m + q * t] == lam[m] + lam[q * t] + (q - q // p) * m


def test_upper_dominates_lower():
    for p, t, vT in [(3, 1, F(1, 2)), (5, 2, F(1, 4)), (2, 1, F(1, 3))]:
        up = upper_bound_polygon(p, t, vT, 2)
        lo = lower_bound_polygon(p, t, vT, 2 * q_for(p) * t)
        assert dominates(up, lo)
        assert not dominates(lo, up) or up.vertices == lo.vertices


# -- series polygons ----------------------------------------------------------


def series_for(p, t, r, D, n_target, seed):
    N = char_input_prec(p, t, r, 6, n_target)
    spec = synth_up(t, p, N, 6, seed=seed)
    return char_series(spec, D, r, CharOfDelta(p, 0))


@functools.lru_cache(maxsize=None)
def deep_series():
    # T-window past lambda(12) = 48 so every evaluation minimizer and its tie
    # competitors are visible; shallow windows mislabel mixed vertices exact
    N = char_input_prec(3, 1, 8, 56, 52)
    spec = synth_up(1, 3, N, 56, seed=1)
    return char_series(spec, 12, 8, CharOfDelta(3, 0))


def test_series_polygon_sits_above_lower_bound():
    cs = deep_series()
    for vT in (F(1, 2), F(1, 3), F(1, 4)):
        poly = newton_polygon(series_points(cs, vT))
        assert dominates(poly, lower_bound_polygon(3, 1, vT, 12))


def test_series_points_carry_exactness():
    cs = series_for(3, 1, 3, 4, 8, seed=1)
    pts = series_points(cs, F(1, 2))
    assert pts[0].x == 0 and pts[0].y == OrderBound.exact(0)
    assert len(pts) == 5


def test_series_points_rejects_bad_radius():
    cs = series_for(3, 1, 3, 4, 8, seed=1)
    with pytest.raises(BadArgument):
        series_points(cs, F(3, 2))


def test_chord_ratio_rigidity_between_radii():
    # vertices whose coefficients evaluate exactly at both radii must give
    # the same ordinate-to-radius ratios: their valuations are pure T-orders
    cs = deep_series()
    ratios = {}
    for vT in (F(1, 3), F(1, 4)):
        pts = series_points(cs, vT)
        poly = newton_polygon(pts)
        exact_at = {p.x for p in pts if p.y.is_exact}
        ratios[vT] = {
            x: poly.value_at(x) / vT for x, _ in poly.vertices if x in exact_at
        }
        assert ratio_table(pts, poly, vT) == ratios[vT]
    assert ratios[F(1, 3)] == ratios[F(1, 4)]
    # this seed attains the valuation floor at every flagged vertex
    assert ratios[F(1, 3)] == {
        0: 0, 3: 3, 4: 5, 5: 8, 6: 12, 9: 27, 10: 33, 11: 40, 12: 48,
    }


# -- slope reports ------------------------------------------------------------


def test_slope_report_classifies_intervals():
    report = report_of([pt(0, 0), pt(2, 0), pt(3, F(1, 2))], F(1, 4))  # phi(q) vT = 1/2
    assert [r.ratio for r in report.rows] == [0, 0, 1]
    assert report.degrees() == {"[0,0]": 2, "[1,1]": 1}
    assert report.degrees().get("[5,5]", 0) == 0


def test_slope_report_fractional_ratio():
    report = report_of([pt(0, 0), pt(1, F(1, 3))], F(1, 4))
    assert report.rows[0].ratio == F(2, 3)
    assert report.rows[0].interval == "(0,1)"


def test_slope_report_exact_flags_from_points():
    report = report_of([pt(0, 0), pt(1, F(1, 2), exact=False), pt(2, 1)], F(1, 4))
    assert [r.exact for r in report.rows] == [False, False]
    exact = report_of([pt(0, 0), pt(1, F(1, 2)), pt(2, 1)], F(1, 4))
    assert [r.exact for r in exact.rows] == [True, True]


def test_slope_report_csv_frozen(tmp_path, monkeypatch):
    # the polygon subcommand's slopes file for the points (0, 0), (1, 1/3)
    monkeypatch.setattr(cli, "_spec_for", lambda cfg: None)
    monkeypatch.setattr(cli, "char_series", lambda *args: None)
    monkeypatch.setattr(cli, "series_points", lambda cs, vT: [pt(0, 0), pt(1, F(1, 3))])
    cfg = cli.ExperimentConfig(
        3, 1, 40, 20, 5, 1, 0, (F(1, 4),), cli.Synthetic(1), str(tmp_path), "smoke"
    )
    assert cli.cmd_polygon(cfg) == 0
    got = (tmp_path / "slopes_1_4.csv").read_bytes()
    assert got == b'n,slope,ratio,interval,exact_flag\n0,1/3,2/3,"(0,1)",1\n'


# -- degree formulas ----------------------------------------------------------


def ladder_points():
    # ratios 1/3, 1/2, 2/3 then 4/3, 3/2, 5/3 at phi(q) vT = 1
    ys = [F(0)]
    for s in [F(1, 3), F(1, 2), F(2, 3), F(4, 3), F(3, 2), F(5, 3)]:
        ys.append(ys[-1] + s)
    return [pt(i, y) for i, y in enumerate(ys)]


def test_degree_formula_check_all_zero_ranks():
    report = report_of(ladder_points(), F(1, 2))
    result = degree_formula_check(report, {0: 0, 1: 0}, 1)
    assert result.passed
    labels = {r.label for r in result.rows}
    assert "deg X_(0,1)" in labels
    got = {r.label: (r.observed, r.predicted) for r in result.rows}
    assert got["deg X_(0,1)"] == (3, 3)
    assert got["deg X_[1,1]"] == (0, 0)


def test_degree_formula_check_flags_rank_mismatch():
    report = report_of(ladder_points(), F(1, 2))
    result = degree_formula_check(report, {0: 1, 1: 0}, 1)
    assert not result.passed
    assert any(r.label == "deg X_[0,0]" for r in result.failures())


# p = 5, t = 2, omega^1 and r = (1, 0, 2, 1): deg X_[0,0] = r(1),
# deg X_[n,n] = r(2n-3) + r(1-2n) and deg X_(n,n+1) = 10 - r(2n-1) - r(1-2n)
RANKS = {0: 1, 1: 0, 2: 2, 3: 1}
DEGREES = {
    "deg X_[0,0]": 0, "deg X_(0,1)": 9, "deg X_[1,1]": 2, "deg X_(1,2)": 9,
    "deg X_[2,2]": 0, "deg X_(2,3)": 9, "deg X_[3,3]": 2,
}


def nonzero_rank_report():
    # ratio = slope at phi(q) vT = 1; the ratios stop at 7/2, inside (3,4)
    slopes = [F(1, 2)] * 9 + [F(1)] * 2 + [F(3, 2)] * 9 + [F(5, 2)] * 9 + [F(3)] * 2 + [F(7, 2)]
    ys = [F(0)]
    for s in slopes:
        ys.append(ys[-1] + s)
    pts = [pt(i, y) for i, y in enumerate(ys)]
    return slope_report(newton_polygon(pts), F(1, 4), 5, pts, omega_exponent=1)


def test_degree_formula_check_pins_every_row_on_nonzero_ranks():
    result = degree_formula_check(nonzero_rank_report(), RANKS, 2)
    assert [(r.label, r.predicted) for r in result.rows] == list(DEGREES.items())
    assert [r.observed for r in result.rows] == list(DEGREES.values())
    assert result.passed


def test_degree_formula_check_reads_the_report_in_every_row():
    report = nonzero_rank_report()
    rows = tuple(row._replace(interval="(5,6)") for row in report.rows)
    result = degree_formula_check(report._replace(rows=rows), RANKS, 2)
    assert [(r.label, r.observed) for r in result.rows] == [(label, 0) for label in DEGREES]
    assert [r.label for r in result.failures()] == [k for k, v in DEGREES.items() if v]


@pytest.mark.parametrize("ranks", [
    {0: 1, 1: 0, 2: 2},
    {0: 1, 1: 0, 2: 3, 3: 1},
    {0: 1, 1: -1, 2: 2, 3: 1},
    {0: 1, 1: 0, 2: F(2), 3: 1},
    {0: 1, 1: 0, 2: 2, 3: 1, 4: 0},
], ids=["missing-residue", "above-t", "negative", "non-int", "extra-residue"])
def test_degree_formula_check_rejects_bad_rank_tables(ranks):
    with pytest.raises(BadArgument, match=r"residue 0\.\.3 to an int in \[0, 2\]"):
        degree_formula_check(nonzero_rank_report(), ranks, 2)


# -- involution pairing -------------------------------------------------------


def test_atkin_lehner_pairing_passes():
    result = atkin_lehner_check([0, 1], [0, 1], 0, 3, 1, 2)
    assert result.passed
    sums = [r for r in result.rows if r.label == "slope sum"]
    assert sums[0].observed == 2


def test_atkin_lehner_pairing_fails():
    result = atkin_lehner_check([0, 0], [0, 0], 0, 3, 1, 2)
    assert not result.passed


def test_atkin_lehner_length_mismatch():
    with pytest.raises(BadArgument, match="expected 2 slopes, got 1 and 2"):
        atkin_lehner_check([0], [0, 1], 0, 3, 1, 2)


def test_atkin_lehner_requires_sorted():
    with pytest.raises(BadArgument):
        atkin_lehner_check([1, 0], [0, 1], 0, 3, 1, 2)


# -- progressions -------------------------------------------------------------


def ladder(start, step, length):
    return [start + step * i for i in range(length)]


def test_progression_check_constructed_pass():
    # K = 3 interleaved progressions with difference 1 at p=3, M=2
    seq = [F(0), F(1, 3), F(2, 3), F(1), F(4, 3), F(5, 3), F(2)]
    result = progression_check({0: seq}, 2, 3, 1)
    assert result.passed
    # each step row compares seq[j + K] with seq[j] + diff
    steps = [r for r in result.rows if r.label.endswith("step")]
    assert [r.label for r in steps] == [f"omega^0 j={j} step" for j in range(len(seq) - 3)]
    assert [(r.observed, r.predicted) for r in steps] == [
        (seq[j + 3], seq[j] + 1) for j in range(len(seq) - 3)
    ]


def test_progression_check_perturbed_fails():
    seq = [F(0), F(1, 3), F(2, 3), F(1), F(4, 3), F(5, 3), F(2)]
    seq[4] += F(1, 9)
    result = progression_check({0: seq}, 2, 3, 1)
    bad = [r.label for r in result.failures()]
    assert "omega^0 j=1 step" in bad


@pytest.mark.parametrize("checker", [
    lambda: progression_check({0: [F(0)]}, 0, 3, 3),
    lambda: progression_check({0: [F(0)]}, 0, 3, 1),
    lambda: progression_check({0: [F(0)]}, -1, 5, 2),
    lambda: atkin_lehner_check([0, 1], [0, 1], 0, 3, 0, 2),
    lambda: atkin_lehner_check([0, 1], [0, 1], 0, 3, -1, 2),
], ids=["M0-t3", "M0-t1", "M-1", "m0", "m-1"])
def test_checkers_reject_exponents_below_one(checker):
    # p^(M-1) and p^m would be floats
    with pytest.raises(BadArgument, match="must be at least 1"):
        checker()
