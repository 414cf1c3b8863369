"""Spans around the public functions of haloslopes, taken from outside.

A Tracer replaces each traced function at every haloslopes module attribute
that resolves to it, so calls made through any import path are seen.  Spans
keep a parent stack: busy time counts only the outermost span of a name,
self time is a span's duration minus the time its child spans cover.

A name missing at some commit (moved or deleted by a refactor) is skipped
and reports zero calls.  Nothing here imports haloslopes, so the CLI
launcher can time the package import on its own.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# span name -> (home module, function name) pairs it covers
SPANS = {
    "padic_core.log_ratio": (("padic_core", "padic_log_ratio"),),
    "padic_core.teichmuller": (("padic_core", "teichmuller"),),
    "mahler.from_samples": (("mahler", "mahler_from_samples"),),
    "iwasawa.one_plus_T_pow": (("iwasawa", "one_plus_T_pow"),),
    "iwasawa.order": (("iwasawa", "mlambda_order"), ("iwasawa", "halo_T_order")),
    "iwasawa.eval_valuation": (("iwasawa", "eval_valuation"),),
    "monoid_action.action_column": (("monoid_action", "action_column"),),
    "monoid_action.verify_entry_bounds": (("monoid_action", "verify_entry_bounds"),),
    "up_operator.assemble": (("up_operator", "assemble"),),
    "up_operator.verify_block_bounds": (("up_operator", "verify_block_bounds"),),
    "up_operator.rescale_halo_basis": (("up_operator", "rescale_halo_basis"),),
    "charpoly.berkowitz": (("charpoly", "berkowitz_charpoly"),),
    "charpoly.char_series": (("charpoly", "char_series"),),
    "charpoly.verify_char_bound": (("charpoly", "verify_char_bound"),),
    "polygon": tuple(
        ("polygon", name)
        for name in (
            "series_points",
            "newton_polygon",
            "lower_bound_polygon",
            "upper_bound_polygon",
            "dominates",
            "slope_report",
            "max_vertical_gap",
        )
    ),
    "cli.load_config": (("cli", "load_config"),),
    "cli.cmd.matrix": (("cli", "cmd_matrix"),),
    "cli.cmd.charpoly": (("cli", "cmd_charpoly"),),
    "cli.cmd.polygon": (("cli", "cmd_polygon"),),
    "cli.cmd.verify": (("cli", "cmd_verify"),),
}


def _count_assemble(counts, args, result):
    spec, n_blocks = args[0], args[1]
    counts["entries"] = counts.get("entries", 0) + (spec.t * n_blocks) ** 2


def _count_berkowitz(counts, args, result):
    entries = args[0]
    size = len(entries)
    counts["max_size"] = max(counts.get("max_size", 0), size)
    counts["ring_entries"] = (
        counts.get("ring_entries", 0) + size * size * entries[0][0].trunc
    )


def _count_points(counts, args, result):
    counts["points"] = counts.get("points", 0) + len(result)
    atleast = sum(1 for pt in result if not pt.y.is_exact)
    counts["atleast_points"] = counts.get("atleast_points", 0) + atleast


# machine-independent counts read from arguments and results, by function name
COUNTERS = {
    "assemble": _count_assemble,
    "berkowitz_charpoly": _count_berkowitz,
    "series_points": _count_points,
}

MAX_KEYS = ("max_size",)


class Tracer:
    """Per-span totals: calls, busy_s, self_s and named counts."""

    def __init__(self):
        self.stats: dict = {}
        self.edges: dict = {}  # "parent>child" -> calls
        self._stack: list = []  # [span, child seconds] per open span
        self._undo: list = []

    def span_stats(self, span: str) -> dict:
        return self.stats.setdefault(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    def add(self, span: str, **counts) -> None:
        entry = self.span_stats(span)
        for key, value in counts.items():
            entry[key] = entry.get(key, 0) + value

    def merge(self, dump: dict) -> None:
        """Add totals written by another process's Tracer.dump()."""
        for span, entry in dump["stats"].items():
            mine = self.span_stats(span)
            for key, value in entry.items():
                if key in MAX_KEYS:
                    mine[key] = max(mine.get(key, 0), value)
                else:
                    mine[key] = mine.get(key, 0) + value
        for edge, calls in dump["edges"].items():
            self.edges[edge] = self.edges.get(edge, 0) + calls

    def dump(self) -> dict:
        return {"stats": self.stats, "edges": self.edges}

    def install(self) -> None:
        """Wrap every traced function present in the loaded haloslopes modules."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "haloslopes" or name.startswith("haloslopes.")
        ]
        for span, homes in SPANS.items():
            for home, attr in homes:
                home_mod = sys.modules.get(f"haloslopes.{home}")
                original = getattr(home_mod, attr, None)
                if original is None or getattr(original, "_traced", False):
                    continue  # absent at this commit, or an alias already wrapped
                wrapper = self._wrap(original, span, COUNTERS.get(attr))
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)
                            self._undo.append((mod, name, original))

    def uninstall(self) -> None:
        while self._undo:
            mod, name, original = self._undo.pop()
            setattr(mod, name, original)

    def _wrap(self, fn, span, counter):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self._close(span, parent, elapsed, frame[1])
            if counter is not None:
                try:
                    counter(self.span_stats(span), args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a refactored signature loses the count, not the run
            return result

        wrapper._traced = True
        return wrapper

    def _close(self, span, parent, elapsed, child_s):
        entry = self.span_stats(span)
        entry["calls"] += 1
        entry["self_s"] += elapsed - child_s
        if not any(frame[0] == span for frame in self._stack):
            entry["busy_s"] += elapsed
        if self._stack:
            self._stack[-1][1] += elapsed
        if parent is not None:
            edge = f"{parent}>{span}"
            self.edges[edge] = self.edges.get(edge, 0) + 1


# per-layer metrics as span -> stats; values are per traced item except
# max_size (a maximum), the shares (ratios) and cli.import_s (per process)
LAYER_METRICS = (
    ("padic_core.log_ratio", ("calls", "busy_s")),
    ("padic_core.teichmuller", ("calls", "busy_s")),
    ("mahler.from_samples", ("calls", "busy_s")),
    ("iwasawa.one_plus_T_pow", ("calls", "busy_s", "self_s")),
    ("monoid_action.action_column", ("calls", "busy_s", "self_s")),
    ("up_operator.assemble", ("calls", "busy_s", "self_s", "entries")),
    ("charpoly.berkowitz", ("calls", "busy_s", "max_size", "ring_entries")),
    ("charpoly.char_series", ("calls", "busy_s", "self_s", "child_share")),
    ("charpoly.verify_char_bound", ("busy_s",)),
    ("monoid_action.verify_entry_bounds", ("calls", "busy_s", "fallback_calls")),
    ("iwasawa.order", ("calls", "busy_s")),
    ("iwasawa.eval_valuation", ("calls", "busy_s")),
    ("up_operator.verify_block_bounds", ("busy_s",)),
    ("up_operator.rescale_halo_basis", ("busy_s",)),
    ("polygon", ("busy_s", "points", "atleast_points", "atleast_share")),
    ("cli", ("import_s", "bytes_written", "files_written")),
    ("cli.load_config", ("busy_s",)),
    ("cli.cmd.matrix", ("busy_s",)),
    ("cli.cmd.charpoly", ("busy_s",)),
    ("cli.cmd.polygon", ("busy_s",)),
    ("cli.cmd.verify", ("busy_s",)),
)


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_share"):
        return "ratio"
    if key == "bytes_written":
        return "bytes"
    return "count"


def layer_metrics(tracer: Tracer, items: int) -> dict:
    """Reduce a traced run over `items` items to the per-layer metrics."""
    out = {}
    for span, keys in LAYER_METRICS:
        entry = tracer.stats.get(span, {})
        for key in keys:
            if key == "child_share":
                busy = entry.get("busy_s", 0.0)
                value = 1.0 - entry.get("self_s", 0.0) / busy if busy else 0.0
            elif key == "atleast_share":
                points = entry.get("points", 0)
                value = entry.get("atleast_points", 0) / points if points else 0.0
            elif key == "fallback_calls":
                value = tracer.edges.get(f"{span}>monoid_action.action_column", 0) / items
            elif key == "import_s":
                processes = entry.get("processes", 0)
                value = entry.get("import_s", 0.0) / processes if processes else 0.0
            elif key in MAX_KEYS:
                value = entry.get(key, 0)
            else:
                value = entry.get(key, 0) / items
            out[f"{span}.{key}"] = {"value": value, "unit": unit_of(key)}
    return out
