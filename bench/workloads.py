"""Workload inputs, items and correctness gates of the haloslopes benchmark.

Each workload draws its inputs from the benchmark seed alone.  prepare(k)
makes the inputs of item k outside the timed region; run(k) performs the
item and returns the list of problems found in its output (empty when the
item is correct).  Series and CLI output trees are checked against sha256
digests pinned in pins.json, and every output against its own
certificates, so a changed output counts as a failed item.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from haloslopes import charpoly, iwasawa, monoid_action, padic_core, polygon, up_operator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS_PATH = BENCH_DIR / "pins.json"

RADII = (Fraction(1, 3), Fraction(1, 4))


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- series-sweep --------------------------------------------------------------

# the four acceptance shapes (p, t, r, M_T, n_target), all at degree 12
SERIES_SHAPES = (
    (3, 1, 8, 56, 52),
    (3, 2, 4, 40, 28),
    (5, 1, 10, 65, 61),
    (5, 2, 4, 44, 32),
)
SERIES_DEGREE = 12


def series_digest(cs) -> str:
    return _digest(json.dumps(cs.to_json(), sort_keys=True).encode())


def check_series(p: int, t: int, cs, digest: str) -> list:
    """Problems with a certified series: digest, growth floor, sandwich, rigidity."""
    problems = []
    if series_digest(cs) != digest:
        problems.append("series digest mismatch")
    report = charpoly.verify_char_bound(cs, charpoly.lambda_seq(p, t, cs.degree))
    if report.violations or report.skipped or len(report.checked) != cs.degree + 1:
        problems.append(
            f"growth floor: {len(report.violations)} violations, "
            f"{len(report.skipped)} skipped"
        )
    tables = []
    for vT in RADII:
        pts = polygon.series_points(cs, vT)
        poly = polygon.newton_polygon(pts)
        if not polygon.dominates(poly, polygon.lower_bound_polygon(p, t, vT, cs.degree)):
            problems.append(f"polygon at vT={vT} dips below the lower bound")
        tables.append({x: y / vT for x, y in poly.vertices if pts[x].y.is_exact})
    common = set(tables[0]) & set(tables[1])
    if not common:
        problems.append("no flagged vertex common to both radii")
    elif any(tables[0][x] != tables[1][x] for x in common):
        problems.append("vertex ratios differ between radii")
    return problems


class SeriesSweep:
    """One item certifies all four acceptance shapes.

    Operator seeds come from the pools in pins.json, each entry pinned with
    its series digest.  Seed 0 starts with the acceptance fixtures' own
    operator seeds (1, 4, 6, 54).
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.pools = load_pins()["series"]
        self.tracer = None

    def setup(self) -> None:
        self.inputs = {}
        self.prepare(0)

    def prepare(self, k: int) -> None:
        if k in self.inputs:
            return
        rng = random.Random(f"series-sweep:{self.seed}:{k}")
        picks = []
        for p, t, *_rest in SERIES_SHAPES:
            pool = self.pools[f"{p},{t}"]
            picks.append(pool[0] if (self.seed, k) == (0, 0) else rng.choice(pool))
        self.inputs[k] = picks

    def run(self, k: int) -> list:
        problems = []
        for shape, (op_seed, digest) in zip(SERIES_SHAPES, self.inputs[k]):
            p, t = shape[:2]
            problems += [
                f"(p,t)=({p},{t}) operator seed {op_seed}: {problem}"
                for problem in check_series(p, t, shape_series(shape, op_seed), digest)
            ]
        return problems


def shape_series(shape: tuple, op_seed: int):
    """The certified degree-12 series of one synthetic operator of a shape."""
    p, t, r, mt, nt = shape
    n = charpoly.char_input_prec(p, t, r, mt, nt)
    spec = up_operator.synth_up(t, p, n, mt, seed=op_seed)
    return charpoly.char_series(spec, SERIES_DEGREE, r, iwasawa.CharOfDelta(p, 0))


# -- entry-bounds --------------------------------------------------------------

ENTRY_SIZE, ENTRY_TRUNC = 40, 8
# an item is one matrix of each (p, p divides a) class: per-class times
# differ by 2x, so single calls would put the median between two classes
ENTRY_CLASSES = tuple((p, up) for p in (2, 3, 5) for up in (True, False))
ENTRY_PREDRAWN = 200


def random_monoid_matrix(rng, p: int, n: int, p_divides_a: bool):
    """The acceptance harness's generator: q | c, unit d, nonzero det."""
    q = padic_core.q_for(p)
    span = p**6
    while True:
        a = rng.randrange(1, span)
        if p_divides_a:
            a *= p
        elif a % p == 0:
            continue
        delta = monoid_action.DeltaMat.from_ints(
            p, n, a, rng.randrange(span), q * rng.randrange(span),
            rng.randrange(1, span),
        )
        if delta.d.is_unit() and delta.det().residue != 0:
            return delta


def check_entry(report, p_divides_a: bool) -> list:
    """Problems with a bound report: class, size, violations."""
    want = monoid_action.MonoidClass.UpMonoid if p_divides_a else monoid_action.MonoidClass.M1
    problems = []
    if report.monoid_class != want:
        problems.append(f"reported class {report.monoid_class} != generated {want}")
    if report.size != ENTRY_SIZE:
        problems.append(f"certified size {report.size} != {ENTRY_SIZE}")
    if report.violations:
        problems.append(f"{len(report.violations)} entry bound violations")
    return problems


class EntryBounds:
    """One item is six verify_entry_bounds calls on seeded random matrices."""

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None

    @staticmethod
    def _draw(rng) -> list:
        batch = []
        for p, up in ENTRY_CLASSES:
            n = monoid_action.matrix_input_prec(p, ENTRY_SIZE, ENTRY_TRUNC, ENTRY_SIZE)
            delta = random_monoid_matrix(rng, p, n, up)
            omega = iwasawa.CharOfDelta(p, rng.randrange(padic_core.phi_q(p)))
            batch.append((up, delta, omega))
        return batch

    def setup(self) -> None:
        self._rng = random.Random(f"entry-bounds:{self.seed}")
        self.inputs = [self._draw(self._rng) for _ in range(ENTRY_PREDRAWN)]
        # one item on other matrices fills the residue caches before timing
        for up, delta, omega in self._draw(random.Random(f"entry-bounds-warm:{self.seed}")):
            monoid_action.verify_entry_bounds(delta, ENTRY_SIZE, omega, ENTRY_TRUNC)

    def prepare(self, k: int) -> None:
        while len(self.inputs) <= k:
            self.inputs.append(self._draw(self._rng))

    def run(self, k: int) -> list:
        problems = []
        for up, delta, omega in self.inputs[k]:
            report = monoid_action.verify_entry_bounds(delta, ENTRY_SIZE, omega, ENTRY_TRUNC)
            problems += check_entry(report, up)
        return problems


# -- cli-session ---------------------------------------------------------------

# (p, t, r, M_T, n_target, D); N comes from char_input_prec
CLI_SHAPE = (3, 1, 5, 20, 16, 6)
CLI_STEPS = (
    ("matrix", ("matrix",)),
    ("matrix_rescale", ("matrix", "--rescale")),
    ("charpoly", ("charpoly",)),
    ("polygon", ("polygon",)),
    ("verify", ("verify",)),
)
CLI_TIMEOUT_S = 120
VERIFY_LAST_LINE = "result: 14/14 checks passed"


def cli_config(op_seed: int) -> dict:
    p, t, r, mt, nt, d = CLI_SHAPE
    return {
        "p": str(p), "t": str(t), "r": str(r), "M_T": str(mt), "D": str(d),
        "N": str(charpoly.char_input_prec(p, t, r, mt, nt)),
        "vT": ["1/3", "1/4"],
        "source": {"seed": str(op_seed)},
        "scale": "smoke",
    }


def tree_digest(out: Path) -> tuple:
    """(sha256 over relative paths and contents, files, bytes) of a tree."""
    h = hashlib.sha256()
    files = size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(_digest(data).encode())
        files += 1
        size += len(data)
    return h.hexdigest(), files, size


def _csv_column(path: Path, name: str) -> list:
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(name)
    return [line.split(",")[col] for line in lines[1:]]


def check_session(out: Path, codes: dict, digest: str) -> list:
    """Problems with a session's output tree: exits, certificates, digest."""
    problems = [f"{step} exited {code}" for step, code in codes.items() if code != 0]
    if problems:
        return problems
    for step in ("matrix", "matrix_rescale"):
        if set(_csv_column(out / step / "bounds.csv", "ok")) != {"1"}:
            problems.append(f"{step}: an entry misses its bound")
    if any(int(m) < 0 for m in _csv_column(out / "charpoly" / "charbound.csv", "margin")):
        problems.append("charpoly: a coefficient misses the growth floor")
    verify = (out / "verify" / "verify.txt").read_text().splitlines()
    if not verify or verify[-1] != VERIFY_LAST_LINE:
        problems.append(f"verify: last line {verify[-1:]} != {VERIFY_LAST_LINE!r}")
    if tree_digest(out)[0] != digest:
        problems.append("output tree digest mismatch")
    return problems


class CliSession:
    """One item runs matrix, matrix --rescale, charpoly, polygon and verify
    as separate `python -m haloslopes` processes, one at a time, on one
    seeded config; the operator seed comes from the pool in pins.json."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.pool = load_pins()["cli"]
        self.tracer = None
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def setup(self) -> None:
        self.inputs = {}
        self.work.mkdir(parents=True, exist_ok=True)
        # one interpreter start brings the package's files into the page cache
        subprocess.run(
            [sys.executable, "-c", "import haloslopes.cli"],
            env=self.env, check=True, timeout=CLI_TIMEOUT_S,
        )
        self.prepare(0)

    def prepare(self, k: int) -> None:
        if k in self.inputs:
            return
        op_seed, digest = random.Random(f"cli-session:{self.seed}:{k}").choice(self.pool)
        self.stage(k, op_seed, digest)

    def stage(self, k: int, op_seed: int, digest) -> None:
        """Write session k's config for this operator seed."""
        session = self.work / f"session{k}"
        shutil.rmtree(session, ignore_errors=True)
        session.mkdir(parents=True)
        (session / "config.json").write_text(json.dumps(cli_config(op_seed)))
        self.inputs[k] = (session, digest)

    def execute(self, k: int) -> tuple:
        """Run session k's commands; returns (output tree, exit code per step)."""
        session, _digest_hex = self.inputs[k]
        out = session / "out"
        codes = {}
        for step, argv in CLI_STEPS:
            args = [*argv, "--config", str(session / "config.json"), "--out", str(out / step)]
            codes[step] = self._invoke(session, step, args)
        return out, codes

    def run(self, k: int) -> list:
        session, digest = self.inputs[k]
        out, codes = self.execute(k)
        problems = check_session(out, codes, digest)
        if self.tracer is not None:
            _digest_hex, files, size = tree_digest(out)
            self.tracer.add("cli", files_written=files, bytes_written=size)
        shutil.rmtree(out, ignore_errors=True)
        return problems

    def _invoke(self, session: Path, step: str, args: list) -> int:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "haloslopes", *args]
        else:
            spans = session / f"spans_{step}.json"
            cmd = [sys.executable, str(BENCH_DIR / "launch.py"), str(spans), "--", *args]
        proc = subprocess.run(
            cmd, env=self.env, cwd=session, capture_output=True, timeout=CLI_TIMEOUT_S
        )
        if self.tracer is not None and spans.exists():
            dump = json.loads(spans.read_text())
            spans.unlink()
            self.tracer.merge(dump)
            self.tracer.add("cli", import_s=dump["import_s"], processes=1)
        return proc.returncode


def make_workload(name: str, seed: int, work: Path):
    if name == "series-sweep":
        return SeriesSweep(seed)
    if name == "entry-bounds":
        return EntryBounds(seed)
    return CliSession(seed, work)
