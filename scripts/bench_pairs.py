"""Alternating parent/change pairs of bench/run.py, summarised in one JSON file.

Usage:
    python3 scripts/bench_pairs.py --base REV --run entry-bounds=1301 \\
        --run cli-session=1401 --claim entry-bounds:latency_p90_s \\
        --change "what the change does" --out BENCH_7.json

Each side runs in a fresh directory holding the committed files of one
revision, extracted with `git archive`: the parent side from REV, the change
side from HEAD, so each run's source digest is that of committed source.
Both directories are removed at the end.  `--run W=S` runs workload W on
seeds S, S+1, ..., S+9, one pair per seed; pair k runs the parent first when
k is even.  Every run is `python3 bench/run.py --workload W --seed S
--seconds T --trace 0` inside its own directory, with T the run_seconds of
BENCHMARK.json, and its last stdout line is the result.

For each end-to-end metric of BENCHMARK.json the file holds each side's
median, quartiles and per-seed values, and the number of pairs the change
won (ties count for neither).  Verdicts follow the rule for measuring in a
small sandbox.  The claimed metric is "improved" only when the change wins
at least nine tenths of the pairs and the median gap exceeds the parent's
quartile spread.  Every other metric is "better in every run" when each
change run beats each parent run, else "unresolved" when either side's
quartile spread, relative to its median, is wider than the metric's bound,
else "regressed" when the change's median is worse by more than the bound,
else "within bound".  The overall verdict is met only when the claim holds
and no metric is regressed or unresolved and no run failed an item.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import io
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def parse_args(argv, spec: dict):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the parent side")
    ap.add_argument("--run", action="append", required=True, metavar="WORKLOAD=SEED",
                    help="workload and first seed; repeat for more workloads")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the metric claimed to improve")
    ap.add_argument("--change", default="", help="one line on what the change does")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    runs = []
    for item in args.run:
        name, sep, seed = item.partition("=")
        if not sep or not seed.isdigit():
            ap.error(f"--run takes WORKLOAD=SEED, not {item!r}")
        if name not in workloads:
            ap.error(f"--run names {name!r}; BENCHMARK.json has {', '.join(workloads)}")
        runs.append((name, int(seed)))
    args.run = runs
    if args.claim is not None:
        name, sep, metric = args.claim.partition(":")
        if not sep:
            ap.error(f"--claim takes WORKLOAD:METRIC, not {args.claim!r}")
        if name not in dict(runs):
            ap.error(f"--claim names {name!r}, which no --run runs")
        if metric not in metrics:
            ap.error(f"--claim names {metric!r}; BENCHMARK.json has {', '.join(metrics)}")
        args.claim = (name, metric)
    return args


# -- aggregation ---------------------------------------------------------------


def quartiles(values) -> dict:
    """Median and quartiles (inclusive method) with the per-seed values."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "by_seed": list(values)}


def change_wins(parent, change, better: str) -> int:
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def claim_met(parent, change, better: str) -> dict:
    """Section-8 test: >= 9/10 of pairs won and median gap > parent spread."""
    p, c = quartiles(parent), quartiles(change)
    gap = p["median"] - c["median"] if better == "lower" else c["median"] - p["median"]
    spread = p["q3"] - p["q1"]
    won = change_wins(parent, change, better)
    return {
        "change_better_pairs": f"{won}/{len(parent)}",
        "median_gap": gap,
        "parent_quartile_spread": spread,
        "met": 10 * won >= 9 * len(parent) and gap > spread,
    }


def bound_verdict(parent, change, better: str, bound: float) -> str:
    """Verdict for a metric with a relative bound and no claimed gain."""
    p, c = quartiles(parent), quartiles(change)
    sign = 1 if better == "lower" else -1
    if all(sign * (pv - cv) > 0 for pv in parent for cv in change):
        return "better in every run"
    spread = max((q["q3"] - q["q1"]) / abs(q["median"]) for q in (p, c) if q["median"])
    if spread > bound:
        return "unresolved"
    worse = sign * (c["median"] - p["median"]) / abs(p["median"])
    return "regressed" if worse > bound else "within bound"


def summarise_workload(pairs, end_to_end, claimed_metric=None) -> dict:
    """pairs: [{"seed", "first", "parent": result, "change": result}, ...]."""
    out = {
        "seeds": [pair["seed"] for pair in pairs],
        "first_side": [pair["first"] for pair in pairs],
        "failed": {s: [pair[s]["failed"] for pair in pairs] for s in SIDES},
        "attempted": {s: [pair[s]["attempted"] for pair in pairs] for s in SIDES},
        "src_sha256": {s: sorted({pair[s]["src_sha256"] for pair in pairs}) for s in SIDES},
        "metrics": {},
    }
    for spec in end_to_end:
        name = spec["name"]
        values = {s: [pair[s]["metrics"][name]["value"] for pair in pairs] for s in SIDES}
        entry = {s: _rounded(quartiles(values[s])) for s in SIDES}
        won = change_wins(values["parent"], values["change"], spec["better"])
        entry["change_better_pairs"] = f"{won}/{len(pairs)}"
        if name == claimed_metric:
            test = claim_met(values["parent"], values["change"], spec["better"])
            entry["claim"] = _rounded(test)
            entry["verdict"] = "improved" if test["met"] else "not shown"
        else:
            entry["verdict"] = bound_verdict(
                values["parent"], values["change"], spec["better"], spec["bound"]
            )
        out["metrics"][name] = entry
    return out


def overall_verdict(workloads: dict, claim=None) -> dict:
    """The claim's test plus every metric outside its bound or unresolved."""
    verdict = {"claim": None, "regressed": [], "unresolved": [], "failed_runs": 0}
    for name, w in workloads.items():
        verdict["failed_runs"] += sum(1 for s in SIDES for f in w["failed"][s] if f)
        for metric, entry in w["metrics"].items():
            if entry["verdict"] in ("regressed", "unresolved"):
                verdict[entry["verdict"]].append(f"{name} {metric}")
    if claim is not None:
        name, metric = claim
        test = workloads[name]["metrics"][metric]["claim"]
        verdict["claim"] = {"metric": f"{name} {metric}", **test}
    verdict["met"] = (
        (verdict["claim"] is None or verdict["claim"]["met"])
        and not verdict["regressed"]
        and not verdict["unresolved"]
        and not verdict["failed_runs"]
    )
    return verdict


def _rounded(obj):
    if isinstance(obj, float):
        return round(obj, 4)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


# -- running -------------------------------------------------------------------


def resolve(repo: Path, rev: str) -> str:
    proc = subprocess.run(["git", "-C", str(repo), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: no commit {rev!r} in {repo}")
    return proc.stdout.strip()


def extract(repo: Path, commit: str, dest: Path) -> Path:
    """The committed files of `commit` in `repo`, written under `dest`."""
    tar = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", commit],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


@contextlib.contextmanager
def checkouts(repo: Path, commits: dict):
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        yield {side: extract(repo, commit, tmp / side) for side, commit in commits.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def here_record(script: Path, checkout: Path, *flags) -> dict:
    """The JSON record of one `script --here FLAGS` run on a checkout's package.

    The run is a fresh interpreter in the checkout whose import path starts
    with its `src`; the record's "package" entry, the directory haloslopes
    was imported from, must lie inside the checkout and is dropped.
    """
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, str(script), "--here", *flags]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{script.stem}: {' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}\n{proc.stderr}")
    record = json.loads(proc.stdout)
    if not Path(record.pop("package")).is_relative_to(checkout):
        raise SystemExit(f"{script.stem}: the run in {checkout} imported another haloslopes")
    return record


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}\n{proc.stderr}")
    *_, record, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    result["src_sha256"] = json.loads(record)["record"]["src_sha256"]
    return result


def run_pairs(dirs: dict, workload: str, first_seed: int, seconds: float):
    pairs = []
    for k in range(PAIRS):
        seed = first_seed + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(dirs[side], workload, seed, seconds)
            print(f"{workload} seed {seed} {side}: "
                  f"{json.dumps(pair[side]['metrics'])} failed {pair[side]['failed']}",
                  file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    seconds = spec["run_seconds"]
    commits = {"parent": resolve(ROOT, args.base), "change": resolve(ROOT, "HEAD")}
    workloads = {}
    with checkouts(ROOT, commits) as dirs:
        for workload, first_seed in args.run:
            pairs = run_pairs(dirs, workload, first_seed, seconds)
            claimed = args.claim[1] if args.claim and args.claim[0] == workload else None
            workloads[workload] = summarise_workload(pairs, spec["end_to_end"], claimed)
    record = {
        "change": args.change,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "method": (
            f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
            f"run by scripts/bench_pairs.py in git-archive extracts of the parent "
            f"({commits['parent'][:7]}) and of the change ({commits['change'][:7]}); "
            f"pairs alternate which side runs first (parent first on even pairs)"
        ),
        "workloads": workloads,
    }
    record["verdict"] = overall_verdict(workloads, args.claim)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["verdict"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
