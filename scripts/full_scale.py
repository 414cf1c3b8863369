"""Full-scale timings of the series side and of `verify`, parent against change.

Usage:
    python3 scripts/full_scale.py --base REV [--rounds 3] [--repeats 3] \\
        [--scale full] [--out FULL.json]
    python3 scripts/full_scale.py --here [--scale full] [--repeats 3]

--here measures the `haloslopes` package on the import path:

- `char_series_s`: seconds of `char_series` on each pinned fixture of the
  scale, keyed "p,t", the median of --repeats runs on the specs of
  `checks.fixture_series`;
- `assemble_s`: seconds of `assemble(spec, n_blocks)` on the same fixtures,
  at the `n_blocks` that `char_series` assembles first, the median of
  --repeats runs;
- `checks_s`: seconds of `fixture_series`, which builds the series the
  checks share, and of each acceptance check in one process, in registry
  order, each the median of --repeats runs; `fixture_series`' cache is
  cleared before each of its runs, so each one builds the series;
- `layers_s`: seconds of one call of each layer, each the median of
  --repeats runs:
  - keyed "NAME p" for p = 2, 3, 5, at the scale's entry shape on the first
    matrix of the `entry-bounds-up` stream: `torsion_residue` and `log_line`
    on its entries, `binomials` on the scalar rows (size x size) and the
    series rows (size x trunc) the kernel samples, `_kernel_samples`,
    `_meets_mahler_bounds` on its samples, and one column (all m at n = 0)
    of `action_digits`, which samples the kernel first;
  - keyed "NAME p,t" per pinned fixture, on the matrix `assemble_s` times:
    `berkowitz_charpoly` on its entries, and `mlambda_order` per call,
    averaged over its entries;
  - keyed "NAME p,t vT" per fixture at the radii vT = 1/3, 1/4 of
    `ratio-rigidity`: `series_points` on the fixture's series,
    `newton_polygon` on those points, `slope_report` on that polygon, and
    `eval_valuation` per call, averaged over the matrix entries;
- `verify_s`: wall seconds of a whole `python3 -m haloslopes verify` process
  at the scale, the median of --repeats runs: `fork` as it runs, where
  `checks.run_checks` may split the checks over two processes, and
  `one_process` pinned to one CPU, where it runs them in one loop.

--base compares the parent REV with the committed HEAD.  Each side is a
`git archive` extract made by `scripts/bench_pairs.py`'s `checkouts`, and is
measured by this file with --here through its `here_record`, in a fresh
interpreter whose import path starts with that extract's `src`, so both
sides are timed by the same code.
Each round measures both sides, the parent first in even rounds.  The record
holds every round and, per measurement, each side's median over the rounds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve()
ROOT = HERE.parent.parent
SIDES = ("parent", "change")
RADII = (Fraction(1, 3), Fraction(1, 4))


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _median_seconds(fn, repeats: int) -> float:
    return statistics.median(_seconds(fn) for _ in range(repeats))


def measure(scale: str, repeats: int) -> dict:
    """char_series, assemble, per-check and per-layer seconds of the package
    on the import path, each the median of repeats runs."""
    from haloslopes import checks, up_operator
    from haloslopes.charpoly import char_series, window_blocks
    from haloslopes.iwasawa import CharOfDelta

    def build_series():
        checks.fixture_series.cache_clear()
        checks.fixture_series(scale)

    def run(name, fn):
        ok, detail = fn(scale)
        if not ok:
            raise SystemExit(f"full_scale: {name} failed: {detail}")

    checks_s = {"fixture_series": _median_seconds(build_series, repeats)}
    series_s, assemble_s = {}, {}
    for p, t, D, spec, cs in checks.fixture_series(scale):
        omega = CharOfDelta(p, 0)
        n_blocks = window_blocks(p, t, cs.r, D)
        series_s[f"{p},{t}"] = _median_seconds(lambda: char_series(spec, D, cs.r, omega), repeats)
        assemble_s[f"{p},{t}"] = _median_seconds(
            lambda: up_operator.assemble(spec, n_blocks, omega), repeats
        )
    for name, fn in checks.CHECKS:
        checks_s[name] = _median_seconds(lambda: run(name, fn), repeats)
    layers_s = {**layer_seconds(scale, repeats), **series_layer_seconds(scale, repeats)}
    return {"char_series_s": series_s, "assemble_s": assemble_s, "checks_s": checks_s,
            "layers_s": layers_s}


def layer_seconds(scale: str, repeats: int) -> dict:
    """Seconds of one call of each entry-side layer, per prime, each the
    median of repeats runs; only names and signatures the parent shares."""
    from haloslopes import checks, monoid_action, padic_core
    from haloslopes.iwasawa import CharOfDelta

    sc = checks.SCALES[scale]
    size, trunc = sc.entry_size, sc.entry_trunc
    out = {}
    for p in (2, 3, 5):
        # the first matrix and character of the entry-bounds-up check
        rng = random.Random(sc.entry_streams[0] + p)
        N = monoid_action.matrix_input_prec(p, size, trunc, size)
        delta = checks.random_monoid_matrix(rng, p, N, True)
        omega = CharOfDelta(p, rng.randrange(padic_core.phi_q(p)))
        a, b, c, d = delta.residues
        mod = p**N
        d0 = padic_core.torsion_residue(d, p, N)
        v, u = d * pow(d0, -1, mod) % mod, c * pow(d, -1, mod) % mod
        # the binomial inputs of _kernel_samples: f(z) = (az + b)/(cz + d) and
        # g(z) on the log line, digits kept mod p^size, scalars scaled by omega(d0)
        fs = [(a * z + b) * pow(c * z + d, -1, mod) % mod for z in range(size)]
        gs, _eff = padic_core.log_line(v, u, size, p, N)
        target = p**size
        w = pow(d0, omega.exponent, target)
        scalars, series = monoid_action._kernel_samples(delta, size, omega, trunc, size)
        rows = [x + y for x, y in zip(scalars, series)]
        shifts = [n // p for n in range(size)] + list(range(trunc))
        calls = {
            "torsion_residue": lambda: padic_core.torsion_residue(d, p, N),
            "log_line": lambda: padic_core.log_line(v, u, size, p, N),
            "binomials": lambda: (padic_core.binomials(fs, size, p, N, target, w),
                                  padic_core.binomials(gs, trunc, p, N, target)),
            "_kernel_samples": lambda: monoid_action._kernel_samples(
                delta, size, omega, trunc, size),
            "_meets_mahler_bounds": lambda: monoid_action._meets_mahler_bounds(
                p, rows, shifts),
            "action_digits": lambda: list(itertools.islice(
                monoid_action.action_digits((delta,), size, omega, trunc, size), size)),
        }
        for name, fn in calls.items():
            out[f"{name} {p}"] = _median_seconds(fn, repeats)
    return out


def series_layer_seconds(scale: str, repeats: int) -> dict:
    """Seconds of Berkowitz per pinned fixture, of the hull and slope report
    per fixture and radius, and of one valuation call on assembled entries,
    each the median of repeats runs; only names and signatures the parent
    shares."""
    from haloslopes import charpoly, checks, iwasawa, polygon, up_operator
    from haloslopes.iwasawa import CharOfDelta

    out = {}
    for p, t, D, spec, cs in checks.fixture_series(scale):
        n_blocks = charpoly.window_blocks(p, t, cs.r, D)
        mat = up_operator.assemble(spec, n_blocks, CharOfDelta(p, 0))
        entries = [x for row in mat.entries for x in row]
        out[f"berkowitz_charpoly {p},{t}"] = _median_seconds(
            lambda: charpoly.berkowitz_charpoly(mat.entries), repeats)
        out[f"mlambda_order {p},{t}"] = _median_seconds(
            lambda: [iwasawa.mlambda_order(x) for x in entries], repeats) / len(entries)
        for vT in RADII:
            pts = polygon.series_points(cs, vT)
            poly = polygon.newton_polygon(pts)
            calls = {
                "series_points": lambda: polygon.series_points(cs, vT),
                "newton_polygon": lambda: polygon.newton_polygon(pts),
                "slope_report": lambda: polygon.slope_report(poly, vT, p, pts),
            }
            for name, fn in calls.items():
                out[f"{name} {p},{t} {vT}"] = _median_seconds(fn, repeats)
            out[f"eval_valuation {p},{t} {vT}"] = _median_seconds(
                lambda: [iwasawa.eval_valuation(x, vT) for x in entries], repeats) / len(entries)
    return out


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def verify_seconds(scale: str, repeats: int) -> dict:
    """Median wall seconds of a verify process, with its fork and without."""
    times = {"fork": [], "one_process": []}
    with tempfile.TemporaryDirectory(prefix="full-scale-") as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({
            "p": "3", "t": "1", "N": "40", "M_T": "20", "r": "5", "D": "6",
            "vT": ["1/3", "1/4"], "source": {"seed": "1"}, "scale": scale,
        }))
        cmd = [sys.executable, "-m", "haloslopes", "verify",
               "--config", str(config), "--out", str(Path(tmp) / "out")]
        for k in range(repeats):
            modes = ("fork", "one_process") if k % 2 == 0 else ("one_process", "fork")
            for mode in modes:
                pin = _one_cpu if mode == "one_process" else None
                start = time.perf_counter()
                subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, preexec_fn=pin)
                times[mode].append(time.perf_counter() - start)
    return {mode: statistics.median(values) for mode, values in times.items()}


def flatten(result: dict) -> dict:
    """{"checks_s": {"x": 1.0}} -> {"checks_s x": 1.0}."""
    return {f"{part} {key}": value
            for part, values in result.items() for key, value in values.items()}


def medians(rounds: list) -> dict:
    """Each side's median over the rounds, per measurement."""
    out = {}
    for side in SIDES:
        flat = [flatten(r[side]) for r in rounds]
        out[side] = {key: round(statistics.median(f[key] for f in flat), 4) for key in flat[0]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="git revision of the parent side")
    ap.add_argument("--here", action="store_true",
                    help="measure the package on the import path and print its JSON")
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", help="also write the record here")
    args = ap.parse_args(argv)
    if args.here == (args.base is not None):
        ap.error("give exactly one of --here and --base")
    if args.rounds < 1 or args.repeats < 1:
        ap.error("--rounds and --repeats must be at least 1")
    if args.here:
        import haloslopes

        result = measure(args.scale, args.repeats)
        result["verify_s"] = verify_seconds(args.scale, args.repeats)
        result["package"] = str(Path(haloslopes.__file__).resolve().parent)
        print(json.dumps(result))
        return 0

    pairs = runpy.run_path(str(HERE.parent / "bench_pairs.py"), run_name="bench_pairs")
    commits = {"parent": pairs["resolve"](ROOT, args.base),
               "change": pairs["resolve"](ROOT, "HEAD")}
    rounds = []
    with pairs["checkouts"](ROOT, commits) as dirs:
        for k in range(args.rounds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            entry = {"first": order[0]}
            for side in order:
                flags = ("--scale", args.scale, "--repeats", str(args.repeats))
                entry[side] = pairs["here_record"](HERE, dirs[side].resolve(), *flags)
                print(f"round {k} {side}: {json.dumps(entry[side])}", file=sys.stderr, flush=True)
            rounds.append(entry)
    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "method": (
            f"scripts/full_scale.py --scale {args.scale} --repeats {args.repeats}, "
            f"{args.rounds} rounds alternating git-archive extracts of the parent "
            f"({commits['parent'][:7]}) and of the change ({commits['change'][:7]}), "
            f"parent first in even rounds"
        ),
        "rounds": rounds,
        "medians": medians(rounds),
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
