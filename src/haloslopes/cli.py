"""Config-driven experiment runner with deterministic file outputs.

Subcommands assemble operators, compute characteristic series, export
polygon and slope tables, and run the acceptance checks.  Config files
are JSON with every numeric value a decimal string (rationals as
"a/b") so no float ever enters the pipeline.  Identical configs yield
byte-identical output trees: files use LF newlines, JSON keys are
sorted, and nothing records a timestamp.

Exit codes: 0 success, 1 check failure, 2 input error, 3 precision
exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .charpoly import char_series, lambda_seq, verify_char_bound, window_blocks
from .iwasawa import CharOfDelta
from .padic_core import BadArgument, PadicError, is_prime, phi_q, q_for
from .polygon import (
    lower_bound_polygon,
    max_vertical_gap,
    newton_polygon,
    ratio_table,
    series_points,
    slope_report,
    upper_bound_polygon,
)
from .up_operator import (
    Ingested,
    ParseError,
    Synthetic,
    UpSpec,
    assemble,
    halo_bounds,
    load_up,
    rescale_halo_basis,
    synth_up,
    verify_block_bounds,
)

# the message prefix of each exit code a PadicError carries
_EXIT_PREFIX = {1: "check failure", 2: "input error", 3: "precision exhausted"}


class ExperimentConfig(NamedTuple):
    """A config as load_config validated it."""

    p: int
    t: int
    N: int
    M_T: int
    r: int
    D: int
    omega_exponent: int
    vT: tuple  # distinct Fractions in (0,1)
    source: object  # Synthetic(seed) | Ingested(file)
    out_dir: str
    checks: tuple
    scale: str  # "full" | "smoke"

    @property
    def q(self) -> int:
        return q_for(self.p)


def _int_field(obj: dict, key: str, default=None, least=None) -> int:
    if key not in obj:
        if default is None:
            raise BadArgument(f"config is missing {key!r}")
        return default
    val = obj[key]
    if not isinstance(val, str):
        raise BadArgument(f"config field {key!r} must be a decimal string")
    try:
        num = int(val)
    except ValueError:
        raise BadArgument(f"config field {key!r} is not an integer: {val!r}") from None
    if least is not None and num < least:
        raise BadArgument(f"config field {key!r} must be at least {least}, not {num}")
    return num


def _str_list(obj: dict, key: str, default: list) -> list:
    val = obj.get(key, default)
    if not isinstance(val, list) or not all(isinstance(v, str) for v in val):
        raise BadArgument(f"config field {key!r} must be a list of strings")
    return val


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise BadArgument(f"{text!r} is not a rational number") from None


def load_config(path: str, seed=None, out=None) -> ExperimentConfig:
    """Parse and validate a config file; --seed/--out override fields."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except ValueError as exc:
        raise ParseError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"config {path} must hold a key/value table")
    src_obj = obj.get("source", {})
    if not isinstance(src_obj, dict):
        raise BadArgument("config field 'source' must be a key/value table")
    if seed is not None:
        source = Synthetic(seed)
    elif "file" in src_obj:
        if not isinstance(src_obj["file"], str):
            raise BadArgument("source 'file' must be a path string")
        source = Ingested(src_obj["file"])
    else:
        source = Synthetic(_int_field(src_obj, "seed", 0))
    p = _int_field(obj, "p")
    if not is_prime(p):
        raise BadArgument(f"p = {p} is not a prime")
    out_dir = out if out is not None else obj.get("out", "out")
    if not isinstance(out_dir, str):
        raise BadArgument("config field 'out' must be a path string")
    scale = obj.get("scale", "smoke")
    if not isinstance(scale, str):
        raise BadArgument("config field 'scale' must be a string")
    cfg = ExperimentConfig(
        p=p,
        t=_int_field(obj, "t", least=1),
        N=_int_field(obj, "N", least=1),
        M_T=_int_field(obj, "M_T", least=1),
        r=_int_field(obj, "r", least=0),
        D=_int_field(obj, "D", least=0),
        omega_exponent=_int_field(obj, "omega_exponent", 0),
        vT=tuple(_fraction(s) for s in _str_list(obj, "vT", ["1/3", "1/4"])),
        source=source,
        out_dir=out_dir,
        checks=tuple(_str_list(obj, "checks", [])),
        scale=scale,
    )
    # every radius names its own output files and rigidity column
    if not cfg.vT:
        raise BadArgument("vT must list at least one radius")
    if len(set(cfg.vT)) != len(cfg.vT):
        raise BadArgument(f"vT lists a radius twice: {[str(v) for v in cfg.vT]}")
    for v in cfg.vT:
        if not 0 < v < 1:
            raise BadArgument(f"vT = {v} is outside (0,1)")
    if scale not in ("full", "smoke"):
        raise BadArgument(f"scale must be full or smoke, not {scale!r}")
    # the trees record the exponent as given, so only one name per character
    if not 0 <= cfg.omega_exponent < phi_q(p):
        raise BadArgument(
            f"omega_exponent = {cfg.omega_exponent} is outside 0..{phi_q(p) - 1}"
        )
    return cfg


def _spec_for(cfg: ExperimentConfig) -> UpSpec:
    if isinstance(cfg.source, Synthetic):
        return synth_up(cfg.t, cfg.p, cfg.N, cfg.M_T, seed=cfg.source.seed)
    spec = load_up(cfg.source.file, cfg.M_T)
    if (spec.p, spec.t) != (cfg.p, cfg.t):
        raise BadArgument(
            f"operator file has (p,t)=({spec.p},{spec.t}), "
            f"config says ({cfg.p},{cfg.t})"
        )
    return spec


# -- deterministic writers -----------------------------------------------------


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _slug(vT: Fraction) -> str:
    return f"{vT.numerator}_{vT.denominator}"


def _source_tag(source) -> str:
    if isinstance(source, Synthetic):
        return f"seed:{source.seed}"
    return f"file:{source.file}"


# -- subcommands ----------------------------------------------------------------


def cmd_matrix(cfg: ExperimentConfig, rescale: bool = False) -> int:
    spec = _spec_for(cfg)
    omega = CharOfDelta(cfg.p, cfg.omega_exponent)
    mat = assemble(spec, window_blocks(cfg.p, cfg.t, cfg.r, 0), omega)
    if rescale:
        mat = rescale_halo_basis(mat)
        table = halo_bounds(mat, cfg.p)
    else:
        table = verify_block_bounds(mat, cfg.p)
    rows = []
    for row, col, need, order in table:
        ok = order.certainly_at_least(need)
        if not ok:
            print(f"entry bound violated at ({row},{col}): {order}", file=sys.stderr)
            return 1
        rows.append((row, col, need, order.value, int(order.is_exact), int(ok)))
    out = Path(cfg.out_dir)
    _write_json(
        out / "matrix.json",
        {
            "p": str(cfg.p),
            "t": str(cfg.t),
            "N": str(cfg.N),
            "M_T": str(cfg.M_T),
            "omega_exponent": str(cfg.omega_exponent),
            "size": str(mat.size),
            "rescaled": rescale,
            "source": _source_tag(cfg.source),
            "entries": [[e.to_json() for e in row] for row in mat.entries],
        },
    )
    _write_text(
        out / "bounds.csv",
        _csv_text(["row", "col", "required", "order", "exact", "ok"], rows),
    )
    return 0


def cmd_charpoly(cfg: ExperimentConfig) -> int:
    spec = _spec_for(cfg)
    cs = char_series(spec, cfg.D, cfg.r, CharOfDelta(cfg.p, cfg.omega_exponent))
    lam = lambda_seq(cfg.p, cfg.t, cfg.D)
    report = verify_char_bound(cs, lam)
    out = Path(cfg.out_dir)
    _write_json(
        out / "charpoly.json",
        {
            "p": str(cfg.p),
            "t": str(cfg.t),
            "omega_exponent": str(cfg.omega_exponent),
            "source": _source_tag(cfg.source),
            "series": cs.to_json(),
        },
    )
    rows = [
        (n, lam[n], order.value, int(order.is_exact), order.value - lam[n])
        for n, order in enumerate(report.orders)
    ]
    _write_text(
        out / "charbound.csv",
        _csv_text(["n", "lambda", "halo_order", "exact", "margin"], rows),
    )
    if not report.ok:
        n, order = report.violations[0]
        print(f"coefficient bound violated at c_{n}: {order}", file=sys.stderr)
        return 1
    return 0


def cmd_polygon(cfg: ExperimentConfig) -> int:
    spec = _spec_for(cfg)
    cs = char_series(spec, cfg.D, cfg.r, CharOfDelta(cfg.p, cfg.omega_exponent))
    out = Path(cfg.out_dir)
    q = cfg.q
    ratios = {}
    gap_rows = []
    for vT in cfg.vT:
        pts = series_points(cs, vT)
        poly = newton_polygon(pts)
        slug = _slug(vT)
        _write_text(
            out / f"polygon_{slug}.csv",
            _csv_text(
                ["x", "ordinate", "exact"],
                [(x, y, int(pts[x].y.is_exact)) for x, y in poly.vertices],
            ),
        )
        report = slope_report(poly, vT, q, points=pts,
                              omega_exponent=cfg.omega_exponent)
        _write_text(
            out / f"slopes_{slug}.csv",
            _csv_text(
                ["n", "slope", "ratio", "interval", "exact_flag"],
                [(r.n, r.slope, r.ratio, r.interval, int(r.exact)) for r in report.rows],
            ),
        )
        lower = lower_bound_polygon(cfg.p, cfg.t, vT, cfg.D)
        upper = upper_bound_polygon(cfg.p, q, cfg.t, vT,
                                    max(-(-cfg.D // (q * cfg.t)), 1))
        hi = poly.x_range[1]
        _write_text(
            out / f"overlay_{slug}.csv",
            _csv_text(
                ["x", "polygon", "lower", "upper"],
                [
                    (x, poly.value_at(x), lower.value_at(x), upper.value_at(x))
                    for x in range(hi + 1)
                ],
            ),
        )
        gap_rows.append((vT, max_vertical_gap(cfg.p, q, cfg.t, vT)))
        ratios[vT] = ratio_table(pts, poly, vT)
    _write_text(out / "gap.csv", _csv_text(["vT", "max_gap"], gap_rows))
    if len(cfg.vT) >= 2:
        common = sorted(set.intersection(*(set(ratios[vT]) for vT in cfg.vT)))
        rows = []
        for x in common:
            vals = [ratios[vT][x] for vT in cfg.vT]
            rows.append([x, *vals, int(len(set(vals)) == 1)])
        _write_text(
            out / "rigidity.csv",
            _csv_text(["x", *(f"ratio_{_slug(vT)}" for vT in cfg.vT), "equal"], rows),
        )
    return 0


def cmd_verify(cfg: ExperimentConfig, only=None, inject_fault=None) -> int:
    # the check registry is imported here, so only verify pays to compile it
    from .checks import run_checks

    rows = run_checks(only or cfg.checks, cfg.scale, inject_fault)
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in rows]
    failures = sum(not ok for _name, ok, _detail in rows)
    lines.append(f"result: {len(rows) - failures}/{len(rows)} checks passed")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    _write_text(Path(cfg.out_dir) / "verify.txt", text)
    return 1 if failures else 0


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="haloslopes",
        description="operator assembly, characteristic series and slope tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("matrix", "charpoly", "polygon", "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        if name == "matrix":
            sp.add_argument("--rescale", action="store_true")
        if name == "verify":
            sp.add_argument("--only", default=None)
            sp.add_argument("--inject-fault", default=None)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, out=args.out)
        if args.command == "matrix":
            return cmd_matrix(cfg, rescale=args.rescale)
        if args.command == "charpoly":
            return cmd_charpoly(cfg)
        if args.command == "polygon":
            return cmd_polygon(cfg)
        only = args.only.split(",") if args.only else None
        return cmd_verify(cfg, only=only, inject_fault=args.inject_fault)
    except PadicError as exc:
        print(f"{_EXIT_PREFIX[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
