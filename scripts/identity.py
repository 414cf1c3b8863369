"""Byte-identity of the package's outputs, parent against change.

Usage:
    python3 scripts/identity.py --base REV
    python3 scripts/identity.py --here

--here prints one JSON record of the outputs of the `haloslopes` package on
the import path that a change must leave byte-identical:

- `series SCALE P,T`: the sha256 of `cs.to_json()` (sorted keys) of each
  fixture of `checks.fixture_series`, at smoke and at full scale;
- `tree COMMAND` and `tree t2 COMMAND`: exit code and digest of each smoke
  output tree that `tests/test_cli.py` pins in GOLDEN_TREES and
  GOLDEN_TREES_T2;
- `verify smoke`, `verify smoke fault NAME` for each registry check,
  `verify full`, and `verify full fault NAME` for the two entry-bound
  checks, each run alone (`--only NAME --inject-fault NAME`): exit code,
  sha256 of `verify.txt` and the checks it FAILs.
- `entry reports`: count, violation count and sha256 of a seeded set of
  144 `verify_entry_bounds` reports, their `repr`s joined by newlines
  (`entry_reports`), half of them failing and half passing.
- `errors`: exit code and sha256 of the stderr of each failing run of
  `ERROR_RUNS`, the error paths that a config or an operator file reaches.

--base compares the parent REV with the committed HEAD.  Each side is a
`git archive` extract made by `scripts/bench_pairs.py`'s `checkouts`, and is
recorded by this file with --here through its `here_record`, in a fresh
interpreter whose import path starts with that extract's `src`.  It prints
both records and the items that differ, and exits 1 if any item differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import runpy
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve()
ROOT = HERE.parent.parent
SIDES = ("parent", "change")

# the smoke configs of tests/test_cli.py: BASE and T2_CONFIG
SMOKE_CONFIG = {
    "p": "3",
    "t": "1",
    "N": "40",
    "M_T": "20",
    "r": "5",
    "D": "6",
    "omega_exponent": "0",
    "vT": ["1/3", "1/4"],
    "source": {"seed": "1"},
    "scale": "smoke",
}
T2_CONFIG = {
    "p": "5",
    "t": "2",
    "N": "30",
    "M_T": "14",
    "r": "4",
    "D": "6",
    "omega_exponent": "1",
    "vT": ["1/2", "1/3", "1/4"],
    "source": {"seed": "2"},
    "scale": "smoke",
}
TREE_COMMANDS = ("matrix", "matrix --rescale", "charpoly", "polygon")
# the checks whose failing path, the violation report, runs at full scale too
ENTRY_CHECKS = ("entry-bounds-up", "entry-bounds-m1")


def unit_a(text: str) -> str:
    # a unit a takes the first cell's matrix out of the U_p class (p | a)
    obj = json.loads(text)
    obj["cells"][0]["delta"]["a"] = "1"
    return json.dumps(obj)


# name -> (config changes, operator file edit or None, command): failing runs
# on SMOKE_CONFIG; an operator file is the smoke operator's save_up file,
# op.json, that the edit gets as its JSON text and returns changed
ON_FILE = {"source": {"file": "op.json"}}
ERROR_RUNS = {
    "starved N": ({"N": "6"}, None, ["charpoly"]),
    "undecidable stability gap": (
        {"t": "2", "N": "8", "M_T": "1", "r": "5", "D": "0"}, None, ["charpoly"]
    ),
    "non-U_p cell": (ON_FILE, unit_a, ["charpoly"]),
    "config not JSON": ("{not json", None, ["charpoly"]),
    "operator file not JSON": (ON_FILE, lambda text: "{not json", ["charpoly"]),
    "unknown config key": ({"omega_exponnet": "1"}, None, ["charpoly"]),
    "file N unlike the config's": (dict(ON_FILE, N="41"), lambda text: text, ["charpoly"]),
    "unknown check": ({}, None, ["verify", "--only", "no-such-check"]),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(root: Path) -> str:
    """sha256 over every file in path order: relative path, NUL, bytes, NUL."""
    h = hashlib.sha256()
    for f in sorted(path for path in root.rglob("*") if path.is_file()):
        h.update(f.relative_to(root).as_posix().encode() + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


def series_digests(scale: str) -> dict:
    from haloslopes import checks

    return {
        f"series {scale} {p},{t}": sha256(json.dumps(cs.to_json(), sort_keys=True).encode())
        for p, t, _D, _spec, cs in checks.fixture_series(scale)
    }


def run_cli(tmp: Path, config: dict, argv: list) -> tuple:
    """(exit code, output directory) of one in-process `haloslopes ARGV` run,
    on config, in a fresh directory under tmp."""
    from haloslopes.cli import main

    work = Path(tempfile.mkdtemp(dir=tmp))
    cfg = work / "config.json"
    cfg.write_text(json.dumps(config))
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]])
    return code, out


def error_run(tmp: Path, changes, edit, argv: list) -> tuple:
    """(exit code, stderr) of one failing in-process run, in a fresh directory
    under tmp made the working directory, so the file names in its message
    (config.json, op.json) are the same on every run.  changes update
    SMOKE_CONFIG, or are the config file's whole text if a string."""
    from haloslopes.cli import main
    from haloslopes.up_operator import save_up, synth_up

    work = Path(tempfile.mkdtemp(dir=tmp))
    text = changes if isinstance(changes, str) else json.dumps(dict(SMOKE_CONFIG, **changes))
    (work / "config.json").write_text(text)
    if edit is not None:
        save_up(synth_up(1, 3, 40, 20, seed=1), str(work / "op.json"))
        (work / "op.json").write_text(edit((work / "op.json").read_text()))
    err = io.StringIO()
    home = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([argv[0], "--config", "config.json", "--out", "out", *argv[1:]])
    finally:
        os.chdir(home)
    return code, err.getvalue()


def errors() -> dict:
    """name -> exit code and stderr sha256 of each run of ERROR_RUNS."""
    record = {}
    with tempfile.TemporaryDirectory(prefix="identity-") as name:
        for label, run in ERROR_RUNS.items():
            code, err = error_run(Path(name), *run)
            record[label] = {"exit": code, "sha256": sha256(err.encode())}
    return record


def tree(tmp: Path, config: dict, command: str) -> dict:
    code, out = run_cli(tmp, config, command.split())
    return {"exit": code, "sha256": tree_digest(out) if out.exists() else None}


def ledger(tmp: Path, scale: str, *flags) -> dict:
    code, out = run_cli(tmp, dict(SMOKE_CONFIG, scale=scale), ["verify", *flags])
    path = out / "verify.txt"
    if not path.exists():
        return {"exit": code, "sha256": None, "failed": None}
    text = path.read_text()
    failed = [line.split()[1].rstrip(":") for line in text.splitlines()
              if line.startswith("FAIL ")]
    return {"exit": code, "sha256": sha256(text.encode()), "failed": failed}


def smoke_record() -> dict:
    """Smoke series digests, the pinned smoke trees and every smoke ledger."""
    from haloslopes.checks import CHECKS

    record = series_digests("smoke")
    with tempfile.TemporaryDirectory(prefix="identity-") as name:
        tmp = Path(name)
        for label, config in (("tree", SMOKE_CONFIG), ("tree t2", T2_CONFIG)):
            for command in TREE_COMMANDS:
                record[f"{label} {command}"] = tree(tmp, config, command)
        record["verify smoke"] = ledger(tmp, "smoke")
        for check, _fn in CHECKS:
            record[f"verify smoke fault {check}"] = ledger(tmp, "smoke", "--inject-fault", check)
    return record


def full_record() -> dict:
    """Full-scale series digests, the full ledger and the entry-bound fault ledgers."""
    record = series_digests("full")
    with tempfile.TemporaryDirectory(prefix="identity-") as name:
        tmp = Path(name)
        record["verify full"] = ledger(tmp, "full")
        for check in ENTRY_CHECKS:
            record[f"verify full fault {check}"] = ledger(
                tmp, "full", "--only", check, "--inject-fault", check
            )
    return record


def entry_reports() -> dict:
    """The seeded entry-bound reports: for raise_by 0 and 1, sizes 11, 12 and
    40, p = 2, 3, 5 and both monoid classes, 4 matrices at the budgeted
    precision, with trunc 8 and omega from the same generator."""
    import random

    from haloslopes.checks import random_monoid_matrix
    from haloslopes.iwasawa import CharOfDelta
    from haloslopes.monoid_action import matrix_input_prec, verify_entry_bounds
    from haloslopes.padic_core import phi_q

    trunc = 8
    reports = []
    for raise_by in (0, 1):
        for size in (11, 12, 40):
            for p in (2, 3, 5):
                for up in (True, False):
                    rng = random.Random(20000 + 100 * size + 10 * p + up)
                    prec = matrix_input_prec(p, size, trunc, size)
                    for _ in range(4):
                        delta = random_monoid_matrix(rng, p, prec, up)
                        omega = CharOfDelta(p, rng.randrange(phi_q(p)))
                        reports.append(
                            verify_entry_bounds(delta, size, omega, trunc, raise_by)
                        )
    return {
        "reports": len(reports),
        "violations": sum(len(r.violations) for r in reports),
        "sha256": sha256("\n".join(map(repr, reports)).encode()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="git revision of the parent side")
    ap.add_argument("--here", action="store_true",
                    help="record the package on the import path and print its JSON")
    args = ap.parse_args(argv)
    if args.here == (args.base is not None):
        ap.error("give exactly one of --here and --base")
    if args.here:
        import haloslopes

        record = {**smoke_record(), **full_record(), "entry reports": entry_reports(),
                  "errors": errors()}
        record["package"] = str(Path(haloslopes.__file__).resolve().parent)
        print(json.dumps(record, sort_keys=True))
        return 0

    pairs = runpy.run_path(str(HERE.parent / "bench_pairs.py"), run_name="bench_pairs")
    commits = {"parent": pairs["resolve"](ROOT, args.base),
               "change": pairs["resolve"](ROOT, "HEAD")}
    with pairs["checkouts"](ROOT, commits) as dirs:
        records = {side: pairs["here_record"](HERE, dirs[side].resolve()) for side in SIDES}
    items = sorted(set(records["parent"]) | set(records["change"]))
    differ = [k for k in items if records["parent"].get(k) != records["change"].get(k)]
    print(json.dumps({
        "commits": commits,
        "items": len(items),
        "differ": differ,
        "records": records,
    }, indent=1, sort_keys=True))
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
