"""Sweep the entry-bound and gap certificates over a (p, t) grid.

For each prime and block count the sweep draws seeded random operator
matrices, certifies the entry valuation bounds at the requested size,
and tabulates the growth-sequence identity and the bound-gap closed
form on the same grid.  One CSV row per combination; a nonzero
violation count anywhere exits 1.

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
from fractions import Fraction
from pathlib import Path

from haloslopes.charpoly import lambda_seq
from haloslopes.checks import random_monoid_matrix
from haloslopes.iwasawa import CharOfDelta
from haloslopes.monoid_action import matrix_input_prec, verify_entry_bounds
from haloslopes.padic_core import phi_q, q_for
from haloslopes.polygon import max_vertical_gap


def radius(text: str) -> Fraction:
    """A --vT value: a rational strictly between 0 and 1."""
    try:
        vT = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None
    if not 0 < vT < 1:
        raise argparse.ArgumentTypeError(f"vT = {vT} is outside (0,1)")
    return vT


def parse_args(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5])
    ap.add_argument("--ts", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--size", type=int, default=20)
    ap.add_argument("--trunc", type=int, default=8)
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--vT", type=radius, default=Fraction(1, 3))
    ap.add_argument("--out", default="runs/sweep.csv")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    cfg = parse_args(argv)
    rows = []
    total_violations = 0
    for p in cfg.primes:
        q = q_for(p)
        N = matrix_input_prec(p, cfg.size, cfg.trunc, cfg.size)
        for t in cfg.ts:
            rng = random.Random(cfg.seed * 1000 + p * 10 + t)
            t0 = time.perf_counter()
            violations = 0
            for _ in range(cfg.count):
                delta = random_monoid_matrix(rng, p, N, True)
                omega = CharOfDelta(p, rng.randrange(phi_q(p)))
                violations += len(
                    verify_entry_bounds(delta, cfg.size, omega, cfg.trunc).violations
                )
            dt = time.perf_counter() - t0
            # closed forms on the same grid, exact comparisons
            lam = lambda_seq(p, t, q * t)
            lam_ok = int(
                Fraction(p, q * (p - 1)) * lam[q * t] == Fraction(q * t, 2)
            )
            gap = max_vertical_gap(p, q, t, cfg.vT)
            want = t * cfg.vT if p == 2 else Fraction((p * p - 1) * t, 8) * cfg.vT
            rows.append(
                (p, t, cfg.count, cfg.size, violations, lam_ok,
                 gap, int(gap == want), f"{dt:.2f}")
            )
            total_violations += violations
            print(f"p={p} t={t}: {cfg.count} matrices, "
                  f"{violations} violations, gap {gap} ({dt:.2f}s)")
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["p", "t", "matrices", "size", "violations",
                    "lambda_identity_ok", "max_gap", "gap_matches", "seconds"])
        w.writerows(rows)
    print(f"wrote {out}")
    return 1 if total_violations else 0


if __name__ == "__main__":
    sys.exit(main())
