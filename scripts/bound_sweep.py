"""Count entry-bound violations over seeded random monoid matrices.

For each prime the sweep draws --count seeded random matrices of the U_p
class and certifies the valuation bounds of their kernel entries P_{m,n},
m, n < --size, on --trunc T-digits (`verify_entry_bounds`): the
`entry-bounds-up` check at a size, count and seed of your choosing.  One
CSV row per prime: p, matrices, size, violations.  Exit status 0 when no
entry misses its bound, 1 when some entry does (the CSV is written either
way), 2 on an invalid argument.

Examples
--------
  python3 scripts/bound_sweep.py --out runs/sweep.csv
  python3 scripts/bound_sweep.py --primes 2 3 5 --size 25 --count 50
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time
from pathlib import Path

from haloslopes.checks import random_monoid_matrix
from haloslopes.iwasawa import CharOfDelta
from haloslopes.monoid_action import matrix_input_prec, verify_entry_bounds
from haloslopes.padic_core import is_prime, phi_q
from haloslopes.up_operator import SIZE_CAPS


def integer(least: int, most: int | None = None, prime: bool = False):
    """An argparse type: an integer in [least, most], a prime if asked."""
    want = ("a prime" if prime else "an integer") + (
        f" >= {least}" if most is None else f" in [{least}, {most}]")

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = None
        ok = n is not None and least <= n and (most is None or n <= most)
        if not ok or prime and not is_prime(n):
            raise argparse.ArgumentTypeError(f"{text!r} is not {want}")
        return n
    return parse


def parse_args(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--primes", type=integer(2, SIZE_CAPS["p"], prime=True), nargs="+",
                    default=[2, 3, 5])
    # the input precision a size needs is at least the size
    ap.add_argument("--size", type=integer(1, SIZE_CAPS["N"]), default=20)
    ap.add_argument("--trunc", type=integer(1, SIZE_CAPS["M_T"]), default=8)
    ap.add_argument("--count", type=integer(1), default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="runs/sweep.csv")
    cfg = ap.parse_args(argv)
    for p in cfg.primes:
        N = matrix_input_prec(p, cfg.size, cfg.trunc, cfg.size)
        if N > SIZE_CAPS["N"]:
            ap.error(f"--size {cfg.size} needs input precision {N} at p = {p}, "
                     f"above {SIZE_CAPS['N']}")
    return cfg


def main(argv=None) -> int:
    cfg = parse_args(argv)
    rows = []
    for p in cfg.primes:
        N = matrix_input_prec(p, cfg.size, cfg.trunc, cfg.size)
        # the stream of this sweep's earlier t = 1 rows (the bounds do not
        # depend on a block count t), so their counts carry over
        rng = random.Random(cfg.seed * 1000 + p * 10 + 1)
        t0 = time.perf_counter()
        violations = 0
        for _ in range(cfg.count):
            delta = random_monoid_matrix(rng, p, N, True)
            omega = CharOfDelta(p, rng.randrange(phi_q(p)))
            violations += len(
                verify_entry_bounds(delta, cfg.size, omega, cfg.trunc).violations
            )
        rows.append((p, cfg.count, cfg.size, violations))
        print(f"p={p}: {cfg.count} matrices, {violations} violations "
              f"({time.perf_counter() - t0:.2f}s)")
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["p", "matrices", "size", "violations"])
        w.writerows(rows)
    print(f"wrote {out}")
    return 1 if any(row[-1] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
