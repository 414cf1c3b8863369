"""Acceptance suite: one test per contract line, scales and budgets pinned.

Every numeric scale (matrix counts, sizes, degrees, seeds) and every
runtime budget is fixed here rather than inherited from defaults, so a
green run certifies the same statement on every machine.  The checks run
from the registry in `haloslopes.checks`, which `verify` also drives; a
test pins the registry's full scale to the values below.  The synthetic
operator fixtures are seed-pinned; their T-window reaches past the
growth floor of the last tested coefficient so exactness flags are
decided by visible data.
"""

import json
import time
from fractions import Fraction

from haloslopes import checks
from haloslopes.charpoly import berkowitz_charpoly, char_input_prec, truncation_size
from haloslopes.cli import main
from haloslopes.iwasawa import CharOfDelta, mlambda_order
from haloslopes.polygon import dominates, lower_bound_polygon, newton_polygon, series_points
from haloslopes.up_operator import assemble, synth_up

# (p, t, r, M_T, n_target, seed); all series go to degree 12
FIXTURES = (
    (3, 1, 8, 56, 52, 1),
    (3, 2, 4, 40, 28, 4),
    (5, 1, 10, 65, 61, 6),
    (5, 2, 4, 44, 32, 54),
)
DEGREE = 12
# random monoid matrices per prime and class, their size and series
# truncation, and the RNG stream bases for p | a and for a prime to p
ENTRY_COUNT, ENTRY_SIZE, ENTRY_TRUNC = 200, 40, 8
ENTRY_STREAMS = (1000, 2000)
ORACLE_CASES, ORACLE_SEED = 100, 60
MAHLER_CASES, MAHLER_SEED = 500, 70

ENTRY_BOUND_BUDGET_S = 60.0
SERIES_BUDGET_S = 300.0
ORACLE_BUDGET_S = 30.0


def run_full(check, budget_s=None):
    """Run one registry check at the acceptance scale, within its budget."""
    start = time.perf_counter()
    ok, detail = check("full")
    elapsed = time.perf_counter() - start
    assert ok, detail
    if budget_s is not None:
        assert elapsed < budget_s, f"{elapsed:.1f} s over the {budget_s} s budget"


def test_p_divisible_entry_bounds_on_600_random_matrices():
    run_full(checks.entry_bounds_up, ENTRY_BOUND_BUDGET_S)


def test_prime_to_p_entry_bounds_on_600_random_matrices():
    run_full(checks.entry_bounds_m1, ENTRY_BOUND_BUDGET_S)


def test_series_coefficients_meet_growth_floor_on_all_fixtures():
    # the first test to touch the fixtures, so the budget covers the series
    run_full(checks.char_series_bound, SERIES_BUDGET_S)


def test_growth_sequence_closed_form_on_period_grid():
    run_full(checks.lambda_closed_form)


def test_bound_gap_closed_form_across_grid():
    run_full(checks.vertical_gap)


def test_division_free_charpoly_matches_cofactor_oracle():
    run_full(checks.charpoly_oracle, ORACLE_BUDGET_S)


def test_mahler_expansion_round_trips_500_sample_vectors():
    run_full(checks.mahler_round_trip)


def test_series_coefficients_stable_across_truncation_sizes():
    # recompute both truncation sizes by hand and compare mod m^r
    for p, t, r, MT, nt, seed in FIXTURES:
        N = char_input_prec(p, t, r, MT, nt)
        spec = synth_up(t, p, N, MT, seed=seed)
        omega = CharOfDelta(p, 0)
        n_blocks = max((truncation_size(r, p, t) + t - 1) // t, (DEGREE + t - 1) // t, 1)
        small = berkowitz_charpoly(assemble(spec, n_blocks, omega).entries)
        big = berkowitz_charpoly(assemble(spec, n_blocks + 1, omega).entries)
        for n in range(DEGREE + 1):
            assert mlambda_order(small[n] - big[n]).meets(r, f"the gap of c_{n}")


def test_vertex_ratios_rigid_across_radii():
    run_full(checks.ratio_rigidity)


def test_polygons_dominate_lower_bound_at_tested_radii():
    for p, t, _D, _spec, cs in checks.fixture_series("full"):
        radii = [Fraction(1, 3), Fraction(1, 4)]
        if (p, t) == (3, 1):
            radii.append(Fraction(1, 2))
        for vT in radii:
            poly = newton_polygon(series_points(cs, vT))
            assert dominates(poly, lower_bound_polygon(p, t, vT, DEGREE))


def test_rescaled_columns_meet_order_floor():
    run_full(checks.rescaled_columns)


def test_uncompactified_column_keeps_valuation_one_entry():
    run_full(checks.non_compactness)


def test_checkers_accept_valid_tables_and_reject_perturbations():
    run_full(checks.checker_fault_detection)


def test_contract_pins_match_full_scale_of_check_registry():
    assert checks.SCALES["full"] == checks.Scale(
        fixtures=FIXTURES,
        degree=DEGREE,
        entry_count=ENTRY_COUNT,
        entry_size=ENTRY_SIZE,
        entry_trunc=ENTRY_TRUNC,
        entry_streams=ENTRY_STREAMS,
        oracle_count=ORACLE_CASES,
        oracle_seed=ORACLE_SEED,
        mahler_count=MAHLER_CASES,
        mahler_seed=MAHLER_SEED,
    )


def test_verification_ledger_is_byte_identical_across_runs(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "p": "3", "t": "1", "N": "40", "M_T": "20", "r": "5", "D": "6",
        "vT": ["1/3", "1/4"], "source": {"seed": "1"}, "scale": "smoke",
    }))
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        trees.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert trees[0] == trees[1]
