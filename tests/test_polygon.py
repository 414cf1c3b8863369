"""Newton polygons, slope reports and the structural slope checkers."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from haloslopes import cli
from haloslopes.charpoly import char_input_prec, char_series
from haloslopes.iwasawa import CharOfDelta
from haloslopes.padic_core import BadArgument, Valuation
from haloslopes.polygon import (
    AssertionFailure,
    LengthMismatch,
    NewtonPolygon,
    PolyPoint,
    UncertifiedHull,
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
from haloslopes.up_operator import Synthetic, synth_up

from oracles import lower_hull_oracle

F = Fraction


def pt(x, y, exact=True):
    v = Valuation.exact(F(y)) if exact else Valuation.at_least(F(y))
    return PolyPoint(x, v)


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
    with pytest.raises(UncertifiedHull):
        newton_polygon([pt(0, 0), pt(1, F(1, 4), exact=False)])


def test_interior_bound_below_hull_uncertified():
    with pytest.raises(UncertifiedHull):
        newton_polygon([pt(0, 0), pt(2, 1), pt(1, F(1, 4), exact=False)])


def test_interior_bound_on_hull_is_fine():
    np = newton_polygon([pt(0, 0), pt(2, 1), pt(1, F(1, 2), exact=False)])
    assert np.vertices == ((0, 0), (2, 1))


def test_trailing_bound_above_extension_is_fine():
    np = newton_polygon([pt(0, 0), pt(2, 1), pt(5, 10, exact=False)])
    assert np.x_range == (0, 2)


def test_trailing_bound_below_extension_uncertified():
    # extension of the final slope 1/2 reaches 5/2 at x = 5
    with pytest.raises(UncertifiedHull):
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


# -- bound polygons and the gap formula ---------------------------------------


def test_lower_bound_polygon_small():
    np = lower_bound_polygon(3, 1, F(1, 2), 3)
    assert np.slopes == (0, F(1, 2), 1)
    assert np.vertices[0] == (0, 0)


def test_lower_bound_polygon_ordinate():
    assert lower_bound_polygon(5, 2, F(1, 4), 10).value_at(10) == 5


def test_upper_bound_polygon_first_period():
    np = upper_bound_polygon(3, 3, 1, 1, 1)
    assert np.slopes == (1, 1, 1)
    assert np.vertices[0] == (0, 0)


def test_upper_bound_polygon_vertex():
    np = upper_bound_polygon(5, 5, 2, F(1, 4), 1)
    assert np.vertices[-1] == (10, 5)


def test_upper_bound_degenerate_start():
    assert upper_bound_polygon(3, 3, 1, 1, 0).vertices == ((0, 0),)


@pytest.mark.parametrize("p,q,t,vT,want", [
    (3, 3, 1, F(1), F(1)),
    (5, 5, 2, F(1, 2), F(3)),
    (2, 4, 1, F(1, 2), F(1, 2)),
])
def test_max_vertical_gap_frozen(p, q, t, vT, want):
    assert max_vertical_gap(p, q, t, vT) == bound_gap(p, t, vT) == want


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 3),
    st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=8),
)
def test_max_vertical_gap_scan_agrees_with_closed_form(p, t, vT):
    q = 4 if p == 2 else p
    max_vertical_gap(p, q, t, vT)  # AssertionFailure would signal a fault


def test_upper_dominates_lower():
    for p, t, vT in [(3, 1, F(1, 2)), (5, 2, F(1, 4)), (2, 1, F(1, 3))]:
        q = 4 if p == 2 else p
        up = upper_bound_polygon(p, q, t, vT, 2)
        lo = lower_bound_polygon(p, t, vT, 2 * q * t)
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
    assert pts[0].x == 0 and pts[0].y == Valuation.exact(0)
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
    np = newton_polygon([pt(0, 0), pt(2, 0), pt(3, F(1, 2))])
    report = slope_report(np, F(1, 4), 3)  # phi(q) vT = 1/2
    assert [r.ratio for r in report.rows] == [0, 0, 1]
    assert report.degrees() == {"[0,0]": 2, "[1,1]": 1}
    assert report.degrees().get("[5,5]", 0) == 0


def test_slope_report_fractional_ratio():
    np = newton_polygon([pt(0, 0), pt(1, F(1, 3))])
    report = slope_report(np, F(1, 4), 3)
    assert report.rows[0].ratio == F(2, 3)
    assert report.rows[0].interval == "(0,1)"


def test_slope_report_exact_flags_from_points():
    pts = [pt(0, 0), pt(1, F(1, 2), exact=False), pt(2, 1)]
    np = newton_polygon(pts)
    report = slope_report(np, F(1, 4), 3, points=pts)
    assert [r.exact for r in report.rows] == [False, False]
    bare = slope_report(np, F(1, 4), 3)
    assert [r.exact for r in bare.rows] == [True, True]


def test_slope_report_csv_frozen(tmp_path, monkeypatch):
    # the polygon subcommand's slopes file for the points (0, 0), (1, 1/3)
    monkeypatch.setattr(cli, "_spec_for", lambda cfg: None)
    monkeypatch.setattr(cli, "char_series", lambda *args: None)
    monkeypatch.setattr(cli, "series_points", lambda cs, vT: [pt(0, 0), pt(1, F(1, 3))])
    cfg = cli.ExperimentConfig(
        3, 1, 40, 20, 5, 1, 0, (F(1, 4),), Synthetic(1), str(tmp_path), (), "smoke"
    )
    assert cli.cmd_polygon(cfg) == 0
    got = (tmp_path / "slopes_1_4.csv").read_bytes()
    assert got == b'n,slope,ratio,interval,exact_flag\n0,1/3,2/3,"(0,1)",1\n'


# -- degree formulas ----------------------------------------------------------


def ladder_polygon():
    # ratios 1/3, 1/2, 2/3 then 4/3, 3/2, 5/3 at phi(q) vT = 1
    ys = [F(0)]
    for s in [F(1, 3), F(1, 2), F(2, 3), F(4, 3), F(3, 2), F(5, 3)]:
        ys.append(ys[-1] + s)
    return newton_polygon([pt(i, y) for i, y in enumerate(ys)])


def test_degree_formula_check_all_zero_ranks():
    report = slope_report(ladder_polygon(), F(1, 2), 3)
    result = degree_formula_check(report, {0: 0, 1: 0}, 3, 1)
    assert result.passed
    labels = {r.label for r in result.rows}
    assert "deg X_(0,1)" in labels
    got = {r.label: (r.observed, r.predicted) for r in result.rows}
    assert got["deg X_(0,1)"] == (3, 3)
    assert got["deg X_[1,1]"] == (0, 0)


def test_degree_formula_check_flags_rank_mismatch():
    report = slope_report(ladder_polygon(), F(1, 2), 3)
    result = degree_formula_check(report, {0: 1, 1: 0}, 3, 1)
    assert not result.passed
    assert any(r.label == "deg X_[0,0]" for r in result.failures())


# -- involution pairing -------------------------------------------------------


def test_atkin_lehner_pairing_passes():
    result = atkin_lehner_check([0, 1], [0, 1], 0, 3, 3, 1, 2)
    assert result.passed
    sums = [r for r in result.rows if r.label == "slope sum"]
    assert sums[0].observed == 2


def test_atkin_lehner_pairing_fails():
    result = atkin_lehner_check([0, 0], [0, 0], 0, 3, 3, 1, 2)
    assert not result.passed


def test_atkin_lehner_length_mismatch():
    with pytest.raises(LengthMismatch):
        atkin_lehner_check([0], [0, 1], 0, 3, 3, 1, 2)


def test_atkin_lehner_requires_sorted():
    with pytest.raises(BadArgument):
        atkin_lehner_check([1, 0], [0, 1], 0, 3, 3, 1, 2)


# -- progressions -------------------------------------------------------------


def ladder(start, step, length):
    return [start + step * i for i in range(length)]


def test_progression_check_constructed_pass():
    # K = 3 interleaved progressions with difference 1 at p=3, M=2
    seq = [F(0), F(1, 3), F(2, 3), F(1), F(4, 3), F(5, 3), F(2)]
    result = progression_check({0: seq}, 2, 3, 3, 1)
    assert result.passed
    info = {r.label: r.observed for r in result.rows[:2]}
    assert info["progression count"] == 3
    assert info["common difference"] == 1


def test_progression_check_perturbed_fails():
    seq = [F(0), F(1, 3), F(2, 3), F(1), F(4, 3), F(5, 3), F(2)]
    seq[4] += F(1, 9)
    result = progression_check({0: seq}, 2, 3, 3, 1)
    bad = [r.label for r in result.failures()]
    assert "omega^0 j=1 step" in bad
