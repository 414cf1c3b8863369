"""Benchmark of haloslopes: one workload, one seed, one JSON result.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see NOTES.md): series-sweep, entry-bounds, cli-session.  Run it
from anywhere inside a checkout; it finds the sources under src/.  Load is
one process with no threads; CLI children run one at a time.

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a run that first measures untraced items and then
traced ones.  The last line of standard output is the result object; the
line before it is the run record (machine, load, fail ratio, problems).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("series-sweep", "entry-bounds", "cli-session")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: perform set-up only, in a fresh interpreter, to time it
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def work_dir() -> Path:
    return ROOT / ".bench_work" / str(os.getpid())


def setup_seconds(args) -> float:
    """Median wall time of fresh interpreters that only perform set-up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def measure(workload, seconds: float):
    """Run items 0, 1, ... until `seconds` have passed; returns
    (item times, problems, wall seconds)."""
    times, problems = [], []
    start = perf_counter()
    k = 0
    while True:
        workload.prepare(k)
        t0 = perf_counter()
        try:
            found = workload.run(k)
        except Exception as exc:  # a raising item is a failed item, not a crash
            found = [f"{type(exc).__name__}: {exc}"]
        times.append(perf_counter() - t0)
        if found:
            problems.append({"item": k, "problems": found[:3]})
        k += 1
        if perf_counter() - start >= seconds:
            return times, problems, perf_counter() - start


def p90(times) -> float:
    ordered = sorted(times)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "haloslopes").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "haloslopes" / "__init__.py").is_file():
        print(f"bench: no haloslopes sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer, layer_metrics

    work = work_dir()
    workload = workloads.make_workload(args.workload, args.seed, work)
    try:
        if args.setup_only:
            workload.setup()
            return 0
        nproc = os.cpu_count() or 1
        load_start = os.getloadavg()[0]
        setup_s = setup_seconds(args)
        workload.setup()
        if args.trace:
            half = args.seconds / 2
            plain, problems, _wall = measure(workload, half)
            tracer = Tracer()
            workload.tracer = tracer
            tracer.install()
            try:
                traced, traced_problems, _wall = measure(workload, half)
            finally:
                tracer.uninstall()
            problems += traced_problems
            attempted = len(plain) + len(traced)
            metrics = layer_metrics(tracer, len(traced))
            metrics["trace.items"] = metric(len(traced), "count")
            metrics["trace.overhead_ratio"] = metric(
                statistics.median(traced) / statistics.median(plain), "ratio"
            )
        else:
            times, problems, wall = measure(workload, args.seconds)
            attempted = len(times)
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "latency_p90_s": metric(p90(times), "s"),
                "peak_rss_mb": metric(peak_rss_mb(args.workload), "MB"),
            }
            # printed with the record, unbounded: on a shared host their
            # run-to-run spread is wider than any bound worth setting
            unbounded = {
                "items_per_s": metric(attempted / wall, "1/s"),
                "latency_p50_s": metric(statistics.median(times), "s"),
            }
        load_end = os.getloadavg()[0]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(problems)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": attempted,
        "p90_samples_beyond": attempted - math.ceil(0.9 * attempted),
        "fail_ratio": failed / attempted,
        "setup_s": setup_s,
        "nproc": nproc,
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "load1_start": load_start,
        "load1_end": load_end,
        "suspect": max(load_start, load_end) > nproc,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "problems": problems[:5],
        "unbounded_metrics": None if args.trace else unbounded,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
