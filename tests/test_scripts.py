import csv
import functools
import inspect
import runpy
import subprocess
from fractions import Fraction as F
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


SWEEP = runpy.run_path(str(SCRIPTS / "bound_sweep.py"), run_name="bound_sweep")


def test_bound_sweep_smoke(tmp_path):
    out = tmp_path / "sweep.csv"
    assert SWEEP["main"](["--count", "2", "--size", "6", "--out", str(out)]) == 0
    assert out.read_bytes() == b"p,matrices,size,violations\n2,2,6,0\n3,2,6,0\n5,2,6,0\n"


def test_bound_sweep_counts_planted_violations_and_exits_1(tmp_path, monkeypatch):
    # every kernel demands one order more than its bound: P_{0,0} is a unit
    verify = SWEEP["main"].__globals__["verify_entry_bounds"]
    monkeypatch.setitem(
        SWEEP["main"].__globals__, "verify_entry_bounds",
        functools.partial(verify, raise_by=1),
    )
    out = tmp_path / "sweep.csv"
    assert SWEEP["main"](["--primes", "3", "--count", "2", "--size", "6", "--out", str(out)]) == 1
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["p"], r["matrices"], r["size"]) for r in rows] == [("3", "2", "6")]
    assert int(rows[0]["violations"]) > 0


SWEEP_ERRORS = {
    "--primes 4": "argument --primes: '4' is not a prime in [2, 100]",
    "--primes 0": "argument --primes: '0' is not a prime in [2, 100]",
    "--primes 1": "argument --primes: '1' is not a prime in [2, 100]",
    "--primes 101": "argument --primes: '101' is not a prime in [2, 100]",
    "--size -3": "argument --size: '-3' is not an integer in [1, 1000]",
    "--size 0": "argument --size: '0' is not an integer in [1, 1000]",
    "--trunc 0": "argument --trunc: '0' is not an integer in [1, 256]",
    "--trunc 257": "argument --trunc: '257' is not an integer in [1, 256]",
    "--count -1": "argument --count: '-1' is not an integer >= 1",
    "--count x": "argument --count: 'x' is not an integer >= 1",
    "--size 600": "--size 600 needs input precision 1193 at p = 2, above 1000",
}


@pytest.mark.parametrize("args", list(SWEEP_ERRORS))
def test_bound_sweep_rejects_invalid_arguments(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        SWEEP["main"]([*args.split(), "--out", str(tmp_path / "sweep.csv")])
    assert exc.value.code == 2
    assert SWEEP_ERRORS[args] in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


BENCH_PAIRS = runpy.run_path(str(SCRIPTS / "bench_pairs.py"), run_name="bench_pairs")
END_TO_END = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "latency_p90_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
]


def synthetic_pairs(parent, change, rss=(24.0, 24.0), failed=0):
    """Pairs of run results with the given p90 values and a flat setup time."""
    pairs = []
    for k, (p90_p, p90_c) in enumerate(zip(parent, change)):
        pair = {"seed": 100 + k, "first": "parent" if k % 2 == 0 else "change"}
        for side, p90, mb in (("parent", p90_p, rss[0]), ("change", p90_c, rss[1])):
            pair[side] = {
                "attempted": 300,
                "failed": failed if side == "change" else 0,
                "src_sha256": side,
                "metrics": {
                    "setup_s": {"value": 0.4, "unit": "s"},
                    "latency_p90_s": {"value": p90, "unit": "s"},
                    "peak_rss_mb": {"value": mb, "unit": "MB"},
                },
            }
        pairs.append(pair)
    return pairs


def test_bench_pairs_quartiles_match_the_inclusive_method():
    q = BENCH_PAIRS["quartiles"]([0.1804, 0.1871, 0.1839, 0.1894, 0.2028])
    assert (q["q1"], q["median"], q["q3"]) == (0.1839, 0.1871, 0.1894)
    assert BENCH_PAIRS["quartiles"]([2.0]) == {
        "median": 2.0, "q1": 2.0, "q3": 2.0, "by_seed": [2.0]
    }


def test_bench_pairs_claim_needs_nine_tenths_of_pairs_and_a_gap_beyond_spread():
    parent = [0.155, 0.160, 0.158, 0.150, 0.162, 0.157, 0.159, 0.161, 0.154, 0.156]
    change = [0.120, 0.118, 0.125, 0.121, 0.119, 0.122, 0.117, 0.123, 0.124, 0.120]
    w = BENCH_PAIRS["summarise_workload"](
        synthetic_pairs(parent, change), END_TO_END, "latency_p90_s"
    )
    entry = w["metrics"]["latency_p90_s"]
    assert entry["change_better_pairs"] == "10/10"
    assert entry["verdict"] == "improved"
    assert entry["claim"]["met"] and entry["claim"]["median_gap"] > 0.03
    assert w["seeds"] == list(range(100, 110))
    assert w["first_side"][:2] == ["parent", "change"]
    assert w["src_sha256"] == {"parent": ["parent"], "change": ["change"]}
    # a flat metric is unchanged; ties count for neither side
    assert w["metrics"]["setup_s"]["verdict"] == "within bound"
    assert w["metrics"]["setup_s"]["change_better_pairs"] == "0/10"
    verdict = BENCH_PAIRS["overall_verdict"]({"entry-bounds": w}, ("entry-bounds", "latency_p90_s"))
    assert verdict["met"] and verdict["claim"]["metric"] == "entry-bounds latency_p90_s"

    # eight wins of ten is not enough, however large the gap
    eight = change[:8] + [0.170, 0.170]
    w = BENCH_PAIRS["summarise_workload"](
        synthetic_pairs(parent, eight), END_TO_END, "latency_p90_s"
    )
    assert w["metrics"]["latency_p90_s"]["verdict"] == "not shown"
    assert not BENCH_PAIRS["overall_verdict"]({"e": w}, ("e", "latency_p90_s"))["met"]

    # nine wins whose median gap stays inside the parent's quartile spread
    parent = [0.10, 0.20, 0.10, 0.20, 0.10, 0.20, 0.10, 0.20, 0.10, 0.20]
    close = [v - 0.01 for v in parent[:9]] + [0.30]
    test = BENCH_PAIRS["claim_met"](parent, close, "lower")
    assert test["change_better_pairs"] == "9/10" and not test["met"]


def test_bench_pairs_bound_verdicts():
    verdict = BENCH_PAIRS["bound_verdict"]
    flat = [1.0, 1.01, 0.99, 1.0]
    assert verdict(flat, [1.02, 1.03, 1.01, 1.02], "lower", 0.05) == "within bound"
    assert verdict(flat, [1.10, 1.11, 1.09, 1.10], "lower", 0.05) == "regressed"
    assert verdict(flat, [0.5, 0.6, 0.55, 0.52], "lower", 0.05) == "better in every run"
    noisy = [1.0, 1.5, 0.7, 1.3]
    assert verdict(noisy, [1.1, 1.2, 1.0, 1.4], "lower", 0.05) == "unresolved"
    assert verdict(flat, [1.10, 1.11, 1.09, 1.10], "higher", 0.05) == "better in every run"


def test_bench_pairs_overall_verdict_collects_regressions_and_failures():
    p90 = [0.15] * 4
    w = BENCH_PAIRS["summarise_workload"](
        synthetic_pairs(p90, p90, rss=(22.0, 23.5), failed=1), END_TO_END
    )
    assert w["metrics"]["peak_rss_mb"]["verdict"] == "regressed"
    assert w["failed"]["change"] == [1, 1, 1, 1]
    verdict = BENCH_PAIRS["overall_verdict"]({"cli-session": w})
    assert verdict["regressed"] == ["cli-session peak_rss_mb"]
    assert verdict["failed_runs"] == 4 and verdict["claim"] is None
    assert not verdict["met"]


def test_bench_pairs_unresolved_metric_leaves_the_verdict_unmet():
    parent = [0.155, 0.160, 0.158, 0.150, 0.162, 0.157, 0.159, 0.161, 0.154, 0.156]
    change = [0.120, 0.118, 0.125, 0.121, 0.119, 0.122, 0.117, 0.123, 0.124, 0.120]
    w = BENCH_PAIRS["summarise_workload"](
        synthetic_pairs(parent, change, rss=(24.0, 24.0)), END_TO_END, "latency_p90_s"
    )
    w["metrics"]["setup_s"]["verdict"] = "unresolved"
    verdict = BENCH_PAIRS["overall_verdict"]({"entry-bounds": w}, ("entry-bounds", "latency_p90_s"))
    assert verdict["claim"]["met"] and verdict["unresolved"] == ["entry-bounds setup_s"]
    assert not verdict["met"]


SPEC = {
    "workloads": [{"name": "entry-bounds"}, {"name": "cli-session"}],
    "end_to_end": END_TO_END,
}


def test_bench_pairs_rejects_unknown_names_before_any_run():
    parse = BENCH_PAIRS["parse_args"]
    base = ["--base", "HEAD~1", "--out", "x.json", "--run", "entry-bounds=1"]
    args = parse(base + ["--claim", "entry-bounds:latency_p90_s"], SPEC)
    assert args.run == [("entry-bounds", 1)] and args.claim == ("entry-bounds", "latency_p90_s")
    for extra in (["--claim", "entry-bounds:latency_p90"], ["--claim", "cli-session:setup_s"],
                  ["--run", "entry-bound=5"], ["--run", "cli-session"]):
        with pytest.raises(SystemExit) as exc:
            parse(base + extra, SPEC)
        assert exc.value.code == 2


def test_bench_pairs_extracts_committed_files_only(tmp_path):
    repo = tmp_path / "repo"
    (repo / "bench").mkdir(parents=True)
    (repo / "bench" / "run.py").write_text("committed\n")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one"], check=True)
    (repo / "bench" / "run.py").write_text("edited\n")
    (repo / "untracked.txt").write_text("x\n")
    commit = BENCH_PAIRS["resolve"](repo, "HEAD")
    with BENCH_PAIRS["checkouts"](repo, {"change": commit}) as dirs:
        out = dirs["change"]
        assert (out / "bench" / "run.py").read_text() == "committed\n"
        assert sorted(p.name for p in out.iterdir()) == ["bench"]
    assert not out.exists()
    with pytest.raises(SystemExit):
        BENCH_PAIRS["resolve"](repo, "no-such-rev")


FULL_SCALE = runpy.run_path(str(SCRIPTS / "full_scale.py"), run_name="full_scale")


def test_full_scale_measures_the_series_side_in_process_at_smoke_scale(monkeypatch):
    # every timing is the median of --repeats runs: each check runs that
    # often, fixture_series builds the series afresh each time, each fixture
    # is assembled that often at the block count char_series takes, each
    # entry-side layer is called that often per prime at the entry shape,
    # and each series-side layer per fixture and radius; only direct calls
    # count, not a layer's calls inside another layer
    from haloslopes import (
        charpoly, checks, iwasawa, monoid_action, padic_core, polygon, up_operator,
    )
    from haloslopes.charpoly import window_blocks

    builds, runs, assembled, layers = [], [], [], []
    busy = []  # inside a check, a series, an assembly or a layer: calls not counted
    build = checks.fixture_series.__wrapped__
    assemble = up_operator.assemble

    def inside(fn):
        def call(*args):
            busy.append(fn)
            try:
                return fn(*args)
            finally:
                busy.pop()
        return call

    def counted_assemble(spec, n_blocks, omega):
        assembled.append((spec.p, spec.t, n_blocks))
        return inside(assemble)(spec, n_blocks, omega)

    @functools.lru_cache(maxsize=None)
    def fixture_series(scale):
        builds.append(scale)
        return inside(build)(scale)

    def counted(name, fn):
        def check(scale, fault=False):
            runs.append(name)
            return inside(fn)(scale, fault)
        return check

    def stepped(gen):
        # a generator layer runs its body on each step
        while True:
            busy.append(gen)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                busy.pop()
            yield item

    def layer(module, name, key):
        fn = getattr(module, name)

        def call(*args):
            direct = not busy
            out = inside(fn)(*args)
            if direct:
                layers.append((name, key(*args), out if out is True else None))
            return stepped(out) if inspect.isgenerator(out) else out
        monkeypatch.setattr(module, name, call)

    names = [name for name, _fn in checks.CHECKS]
    monkeypatch.setattr(checks, "fixture_series", fixture_series)
    monkeypatch.setattr(checks, "CHECKS", tuple((n, counted(n, fn)) for n, fn in checks.CHECKS))
    monkeypatch.setattr(up_operator, "assemble", counted_assemble)
    monkeypatch.setattr(charpoly, "char_series", inside(charpoly.char_series))
    layer(padic_core, "torsion_residue", lambda d, p, prec: (p, None))
    layer(padic_core, "log_line", lambda v, u, count, p, prec: (p, count))
    layer(padic_core, "binomials", lambda xs, count, p, *_: (p, len(xs), count))
    layer(monoid_action, "_kernel_samples", lambda delta, size, *_: (delta.p, size))
    layer(monoid_action, "_meets_mahler_bounds", lambda p, rows, shifts: (p, len(rows)))
    layer(monoid_action, "action_digits", lambda deltas, size, *_: (deltas[0].p, size))
    layer(charpoly, "berkowitz_charpoly", lambda rows: (rows[0][0].p, len(rows)))
    layer(iwasawa, "mlambda_order", lambda x: (x.p, None))
    layer(iwasawa, "eval_valuation", lambda x, vT: (x.p, vT))
    layer(polygon, "series_points", lambda cs, vT: (cs.coeffs[0].p, vT))
    layer(polygon, "newton_polygon", lambda pts: (len(pts), None))
    layer(polygon, "slope_report", lambda poly, vT, p, pts: (p, vT))
    got = FULL_SCALE["measure"]("smoke", 3)
    measured = list(layers)
    assert list(got["char_series_s"]) == ["3,1", "5,2"]
    assert list(got["assemble_s"]) == ["3,1", "5,2"]
    series = build("smoke")
    fixtures = [(p, t, window_blocks(p, t, cs.r, D)) for p, t, D, _spec, cs in series]
    # three timed assemblies, then one untimed for the series-side layers
    assert assembled == [f for f in fixtures for _ in range(3)] + fixtures
    assert list(got["checks_s"]) == ["fixture_series", *names]
    radii = [F(1, 3), F(1, 4)]
    assert list(got["layers_s"]) == [
        f"{name} {p}" for p in (2, 3, 5)
        for name in ("torsion_residue", "log_line", "binomials", "_kernel_samples",
                     "_meets_mahler_bounds", "action_digits")
    ] + [
        key for p, t, *_ in series for key in [
            f"berkowitz_charpoly {p},{t}", f"mlambda_order {p},{t}",
            *[f"{name} {p},{t} {vT}" for vT in radii
              for name in ("series_points", "newton_polygon", "slope_report", "eval_valuation")],
        ]
    ]
    assert all(s >= 0 for part in got.values() for s in part.values())
    assert builds == ["smoke"] * 3
    assert runs == [name for name in names for _ in range(3)]
    # untimed calls of torsion_residue, log_line and _kernel_samples build
    # the later layers' inputs; binomials takes the scalar rows (size x size)
    # and the series rows (size x trunc); the samples satisfy the bounds the
    # walk tests
    size, trunc = checks.SCALES["smoke"].entry_size, checks.SCALES["smoke"].entry_trunc
    assert measured == [
        call for p in (2, 3, 5) for call in [
            ("torsion_residue", (p, None), None),
            ("log_line", (p, size), None),
            ("_kernel_samples", (p, size), None),
            *[("torsion_residue", (p, None), None)] * 3,
            *[("log_line", (p, size), None)] * 3,
            *[("binomials", (p, size, size), None), ("binomials", (p, size, trunc), None)] * 3,
            *[("_kernel_samples", (p, size), None)] * 3,
            *[("_meets_mahler_bounds", (p, size), True)] * 3,
            *[("action_digits", (p, size), None)] * 3,
        ]
    ] + [
        # untimed calls of series_points and newton_polygon build the hull's
        # and the report's inputs; the valuations run on every entry of the
        # matrix Berkowitz takes
        call for (p, t, n_blocks), (*_, cs) in zip(fixtures, series) for call in [
            *[("berkowitz_charpoly", (p, n_blocks * t), None)] * 3,
            *[("mlambda_order", (p, None), None)] * (3 * (n_blocks * t) ** 2),
            *[c for vT in radii for c in [
                ("series_points", (p, vT), None),
                ("newton_polygon", (len(cs.coeffs), None), None),
                *[("series_points", (p, vT), None)] * 3,
                *[("newton_polygon", (len(cs.coeffs), None), None)] * 3,
                *[("slope_report", (p, vT), None)] * 3,
                *[("eval_valuation", (p, vT), None)] * (3 * (n_blocks * t) ** 2),
            ]],
        ]
    ]


def test_full_scale_medians_are_per_side_and_per_measurement():
    rounds = [
        {side: {"checks_s": {"a": s + k}, "verify_s": {"fork": 2 * s + k}}
         for side, s in (("parent", 1.0), ("change", 3.0))}
        for k in (0, 1, 5)
    ]
    assert FULL_SCALE["medians"](rounds) == {
        "parent": {"checks_s a": 2.0, "verify_s fork": 3.0},
        "change": {"checks_s a": 4.0, "verify_s fork": 7.0},
    }


def test_full_scale_takes_exactly_one_mode(capsys):
    for argv in ([], ["--here", "--base", "HEAD"]):
        with pytest.raises(SystemExit) as exc:
            FULL_SCALE["main"](argv)
        assert exc.value.code == 2
    assert "give exactly one of --here and --base" in capsys.readouterr().err


def test_every_harness_config_passes_the_strict_loader(tmp_path):
    # load_config refuses keys it does not read, so a harness config that
    # carried one would fail every benchmark item or identity run it drives
    import json

    from haloslopes.cli import load_config

    bench = SCRIPTS.parent / "bench"
    workloads = runpy.run_path(str(bench / "workloads.py"))
    pins = json.loads((bench / "pins.json").read_text())
    identity = runpy.run_path(str(SCRIPTS / "identity.py"), run_name="identity")
    configs = [workloads["cli_config"](seed) for seed, _digest in pins["cli"]]
    configs += [identity["SMOKE_CONFIG"], identity["T2_CONFIG"]]
    for k, obj in enumerate(configs):
        path = tmp_path / f"cfg{k}.json"
        path.write_text(json.dumps(obj))
        assert load_config(str(path)).source.seed == int(obj["source"]["seed"])


def test_identity_smoke_record_matches_the_pinned_outputs():
    # the in-process smoke part of scripts/identity.py, against the pins of
    # tests/test_cli.py: every golden tree, the smoke ledger, and a ledger that
    # FAILs exactly the faulted check and exits 1 for each registry check
    from test_cli import BASE, GOLDEN_TREES, GOLDEN_TREES_T2, SMOKE_LEDGER, T2_CONFIG

    from haloslopes.checks import CHECKS

    identity = runpy.run_path(str(SCRIPTS / "identity.py"), run_name="identity")
    assert identity["SMOKE_CONFIG"] == BASE and identity["T2_CONFIG"] == T2_CONFIG
    record = identity["smoke_record"]()
    for label, golden in (("tree", GOLDEN_TREES), ("tree t2", GOLDEN_TREES_T2)):
        for command, digest in golden.items():
            assert record[f"{label} {command}"] == {"exit": 0, "sha256": digest}
    assert record["verify smoke"] == {
        "exit": 0, "sha256": identity["sha256"](SMOKE_LEDGER.encode()), "failed": []
    }
    for name, _fn in CHECKS:
        entry = record[f"verify smoke fault {name}"]
        assert (entry["exit"], entry["failed"]) == (1, [name])
    assert sorted(k for k in record if k.startswith("series ")) == [
        "series smoke 3,1", "series smoke 5,2"
    ]


def test_identity_entry_reports_match_the_pinned_set():
    # the seeded set of scripts/identity.py: the 72 reports at raise_by 0 pass
    # and the 72 at raise_by 1 fail, so the digest pins both the certificate
    # and every violation the report lists
    identity = runpy.run_path(str(SCRIPTS / "identity.py"), run_name="identity")
    assert identity["entry_reports"]() == {
        "reports": 144,
        "violations": 8314,
        "sha256": "0dda7de1d4375aa28016e33265652391fbd4d728e5d3c76039e1a9e651d9cb9e",
    }


def test_identity_errors_are_one_line_with_the_prefix_of_their_exit_code(tmp_path):
    # each error path of scripts/identity.py prints one line that names its
    # exit code, and records the same exit code and digest on every run
    identity = runpy.run_path(str(SCRIPTS / "identity.py"), run_name="identity")
    prefix = {2: "input error: ", 3: "precision exhausted: "}
    record = identity["errors"]()
    assert set(record) == set(identity["ERROR_RUNS"])
    for name, run in identity["ERROR_RUNS"].items():
        code, err = identity["error_run"](tmp_path, *run)
        assert err.startswith(prefix[code]) and err.count("\n") == 1, name
        assert record[name] == {"exit": code, "sha256": identity["sha256"](err.encode())}
    assert {entry["exit"] for entry in record.values()} == {2, 3}
