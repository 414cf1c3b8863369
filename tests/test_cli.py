import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haloslopes import checks, cli, polygon
from haloslopes.charpoly import CharSeries, char_input_prec
from haloslopes.checks import CHECKS
from haloslopes.iwasawa import LambdaElt
from haloslopes.cli import ExperimentConfig, Ingested, Synthetic, load_config, main
from haloslopes.padic_core import BadArgument, PadicError, PrecisionTooLow
from haloslopes.up_operator import (
    SIZE_CAPS,
    BlockMatrix,
    load_up,
    save_up,
    synth_up,
)

BASE = {
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

CHEAP = "lambda-closed-form,vertical-gap,non-compactness,checker-fault-detection"


def write_config(tmp_path, name="cfg.json", **overrides):
    obj = dict(BASE, **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- config parsing -----------------------------------------------------------


def test_load_config_decimal_strings(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert (cfg.p, cfg.t, cfg.N, cfg.M_T, cfg.r, cfg.D) == (3, 1, 40, 20, 5, 6)
    assert cfg.q == 3
    assert cfg.vT == (Fraction(1, 3), Fraction(1, 4))
    assert cfg.source == Synthetic(1)


def test_load_config_overrides(tmp_path):
    # --out is the one source of the output directory
    assert load_config(write_config(tmp_path), out="elsewhere").out_dir == "elsewhere"
    assert load_config(write_config(tmp_path)).out_dir == "out"


def test_load_config_file_source(tmp_path):
    cfg = load_config(write_config(tmp_path, source={"file": "op.json"}))
    assert cfg.source == Ingested("op.json")


def test_load_config_rejects_bare_numbers(tmp_path):
    with pytest.raises(BadArgument):
        load_config(write_config(tmp_path, p=3))


def test_load_config_missing_field(tmp_path):
    obj = dict(BASE)
    del obj["t"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(BadArgument):
        load_config(str(path))


@pytest.mark.parametrize(
    "override",
    [
        {"p": "x"},
        {"vT": ["abc"]},
        {"vT": "1/3"},
        {"p": "1"},
        {"p": "4"},
        {"vT": [0.25]},
        {"D": "-1"},
        {"vT": []},
        {"vT": ["1/3", "2/6"]},
        {"omega_exponent": "7"},
        {"omega_exponent": "-1"},
    ],
    ids=[
        "p-x", "vT-abc", "vT-string", "p-1", "p-4", "vT-float", "D-negative",
        "vT-empty", "vT-duplicate", "omega-7", "omega-negative",
    ],
)
def test_malformed_config_field_exits_2(tmp_path, capsys, override):
    cfg = write_config(tmp_path, **override)
    assert main(["charpoly", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def run_charpoly_on_saved_file(tmp_path, capsys, edit):
    """charpoly over a save_up operator file after `edit` changed its JSON;
    an edit that returns bytes gives the whole file instead."""
    op = tmp_path / "op.json"
    save_up(synth_up(1, 3, 40, 20, seed=1), str(op))
    obj = json.loads(op.read_text())
    data = edit(obj)
    op.write_bytes(json.dumps(obj).encode() if data is None else data)
    cfg = write_config(tmp_path, source={"file": str(op)})
    code = main(["charpoly", "--config", cfg, "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: obj.update(M_T="x"),
        lambda obj: obj.update(M_T=20.5),
        lambda obj: obj.update(M_T="0"),
        lambda obj: obj.update(N=40.9),
        lambda obj: obj.update(N="40.0"),
        lambda obj: obj.update(t=1.0),
        lambda obj: obj.update(t="one"),
        lambda obj: obj.update(t=10**19),
        lambda obj: obj.update(t=2**62),
        lambda obj: obj.update(p="x"),
        lambda obj: obj.update(p=[3]),
        lambda obj: obj.update(p=None),
        lambda obj: obj.update(p=True),
        lambda obj: obj.update(p=9),
        lambda obj: obj["cells"][0].update(i=0.0),
        lambda obj: obj["cells"][0].update(j="x"),
        lambda obj: obj["cells"][0]["delta"].update(a=3.5),
        lambda obj: obj.update(cells={"i": "0"}),
        lambda obj: json.dumps(obj).encode().replace(b'"cells"', b'"cells\xe9"'),
        lambda obj: json.dumps(obj).replace('"N": 40', '"N": ' + "4" * 4301).encode(),
    ],
    ids=[
        "M_T-x", "M_T-float", "M_T-0", "N-float", "N-float-string", "t-float",
        "t-word", "t-10^19", "t-2^62", "p-x", "p-list", "p-null", "p-bool",
        "p-9", "i-float", "j-x", "a-float", "cells-table", "not-utf-8", "N-4301-digits",
    ],
)
def test_malformed_operator_file_exits_2(tmp_path, capsys, edit):
    code, err = run_charpoly_on_saved_file(tmp_path, capsys, edit)
    assert code == 2
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_operator_file_with_composite_p_says_so(tmp_path, capsys):
    code, err = run_charpoly_on_saved_file(tmp_path, capsys, lambda obj: obj.update(p=9))
    assert code == 2
    assert "p = 9 is not a prime" in err


def test_saved_operator_file_runs(tmp_path, capsys):
    # the unedited file behind the malformed cases above is accepted
    assert run_charpoly_on_saved_file(tmp_path, capsys, lambda obj: None)[0] == 0


def saved_smoke_operator(tmp_path, **extra) -> str:
    """Path of the smoke operator's save_up file, with `extra` keys added."""
    op = tmp_path / "op.json"
    save_up(synth_up(1, 3, 40, 20, seed=1), str(op))
    op.write_text(json.dumps(dict(json.loads(op.read_text()), **extra)))
    return str(op)


def test_charpoly_reads_a_saved_operator_as_its_seed(tmp_path):
    # the smoke operator through source.file writes what source.seed writes
    op = saved_smoke_operator(tmp_path)
    outs = []
    for name, source in (("seed", {"seed": "1"}), ("file", {"file": op})):
        out = tmp_path / name
        cfg = write_config(tmp_path, name=f"{name}.json", source=source)
        assert main(["charpoly", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "charpoly.json").read_text())
        outs.append((doc["source"], doc["series"], (out / "charbound.csv").read_bytes()))
    assert [tag for tag, *_ in outs] == ["seed:1", f"file:{op}"]
    assert outs[0][1:] == outs[1][1:]


@pytest.mark.parametrize(
    "case, message",
    [
        (lambda op: ({"omega_exponnet": "1"}, []), "unknown fields: omega_exponnet"),
        (lambda op: ({"checks": ["non-compactness"]}, []), "unknown fields: checks"),
        (lambda op: ({"out": "elsewhere"}, []), "unknown fields: out"),
        (lambda op: ({"source": {"sead": "1"}}, []), "unknown fields: source.sead"),
        (lambda op: ({"source": {"seed": "1", "file": op()}}, []), "not both"),
        (lambda op: ({"source": {"file": op()}, "N": "41"}, []), "(p,t,N)=(3,1,40)"),
        (lambda op: ({"source": {"file": op(M_T=20)}}, []), "keys must be p, t, N and cells"),
        (lambda op: ({"source": {"file": op(level="5")}}, []), "keys must be p, t, N and cells"),
        (lambda op: ({}, ["--seed", "3"]), "unrecognized arguments: --seed 3"),
    ],
    ids=[
        "misspelled-key", "config-checks", "config-out", "source-key", "seed-and-file",
        "file-N", "file-M_T", "file-extra-key", "seed-flag",
    ],
)
def test_input_the_runner_would_ignore_exits_2(tmp_path, capsys, case, message):
    overrides, flags = case(functools.partial(saved_smoke_operator, tmp_path))
    out = tmp_path / "o"
    cfg = write_config(tmp_path, **overrides)
    assert main(["charpoly", "--config", cfg, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["charpoly"], "the following arguments are required: --config"),
        (["bogus"], "invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["no-config", "unknown-subcommand", "no-subcommand"],
)
def test_usage_error_is_one_input_error_line(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: ") and err.count("\n") == 1
    assert message in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["charpoly", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: haloslopes charpoly")


# decimal strings (some out of range), malformed strings and wrong JSON types
CONFIG_KEYS = tuple(BASE)
FIELD_VALUES = st.one_of(
    st.integers(-3, 60).map(str),
    st.sampled_from(["1/3", "1/4", "x", "1/0", "0.25", "", " 7 ", "1e3", "smoke", "full"]),
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.lists(st.sampled_from(["1/3", "1/4", "2", "abc", "1/0", "-1/5"]), max_size=3),
    st.lists(st.floats(0, 1), max_size=2),
    st.dictionaries(
        st.sampled_from(["seed", "file"]),
        st.one_of(st.integers(-2, 9).map(str), st.integers(), st.none()),
        max_size=2,
    ),
)
CONFIGS = st.one_of(
    st.builds(
        lambda changes, dropped: {
            **{k: v for k, v in BASE.items() if k not in dropped},
            **changes,
        },
        st.dictionaries(st.sampled_from(CONFIG_KEYS), FIELD_VALUES, max_size=3),
        st.sets(st.sampled_from(CONFIG_KEYS), max_size=2),
    ),
    st.lists(st.integers(), max_size=2),
    st.text(max_size=5),
    st.integers(),
)


@settings(max_examples=150)
@given(CONFIGS)
def test_fuzzed_config_exits_0_or_2(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(obj))
        args = ["verify", "--config", str(path), "--out", str(Path(tmp) / "o")]
        assert main(args + ["--only", "lambda-closed-form"]) in (0, 2)


# -- input sizes --------------------------------------------------------------


@pytest.mark.parametrize(
    "override, message",
    [
        ({"p": "1000003", "r": "1", "M_T": "2", "D": "0", "N": "4"},
         "config field 'p' must be at most 100, not 1000003"),
        ({"r": "2", "M_T": "4", "D": "2", "N": "100000"},
         "config field 'N' must be at most 1000, not 100000"),
        ({"t": "400", "r": "1", "M_T": "2", "D": "0", "N": "10"},
         "config field 't' must be at most 32, not 400"),
    ],
    ids=["p", "N", "t"],
)
def test_oversized_config_exits_2_naming_its_cap(tmp_path, capsys, override, message):
    # each of these ran for longer than 20 s before the caps
    out = tmp_path / "m"
    assert main(["matrix", "--config", write_config(tmp_path, **override), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


def pinned_shapes():
    """Configs of every pinned shape: fixtures, golden and bench configs, t = 4."""
    configs = [BASE, T2_CONFIG, dict(BASE, t="4")]
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "workloads.py"))
    configs.append(workloads["cli_config"](0))
    for scale in checks.SCALES.values():
        for p, t, r, mt, nt, _seed in scale.fixtures:
            sizes = (p, t, char_input_prec(p, t, r, mt, nt), mt, r, scale.degree)
            configs.append(dict(BASE, **dict(zip(SIZE_CAPS, map(str, sizes)))))
    return configs


def test_size_caps_admit_every_pinned_shape(tmp_path):
    assert list(SIZE_CAPS) == ["p", "t", "N", "M_T", "r", "D"]
    for k, obj in enumerate(pinned_shapes()):
        cfg = tmp_path / f"cfg{k}.json"
        cfg.write_text(json.dumps(obj))
        got = load_config(str(cfg))
        assert (got.p, got.t, got.N, got.M_T, got.r, got.D) == tuple(
            int(obj[key]) for key in SIZE_CAPS
        )
        # and as an operator file, which save_up writes without M_T
        op = tmp_path / f"op{k}.json"
        save_up(synth_up(got.t, got.p, got.N, got.M_T, seed=1), str(op))
        spec = load_up(str(op), got.M_T)
        assert (spec.p, spec.t, spec.N, spec.M_T) == (got.p, got.t, got.N, got.M_T)


def sizes(small: dict):
    """Size fields drawn small, up to two of them replaced past their caps."""
    past = st.dictionaries(st.sampled_from(list(small)), st.integers(1, 10**30), max_size=2)
    return st.tuples(st.fixed_dictionaries(small), past).map(
        lambda drawn: {**drawn[0], **{k: str(SIZE_CAPS[k] + d) for k, d in drawn[1].items()}}
    )


def run_quietly(args) -> tuple:
    """(exit code, stderr) of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


def assert_capped(drawn: dict, code: int, err: str, prefix: str) -> None:
    over = [key for key, val in drawn.items() if int(val) > SIZE_CAPS[key]]
    if over:
        assert code == 2
        assert any(f"{prefix}{key!r} must be at most {SIZE_CAPS[key]}," in err for key in over)
    else:
        assert code in (0, 2, 3)
        assert "must be at most" not in err


SMALL_CONFIG_SIZES = {
    "p": st.sampled_from(["2", "3", "5"]),
    "t": st.sampled_from(["1", "2"]),
    "N": st.integers(1, 30).map(str),
    "M_T": st.integers(1, 12).map(str),
    "r": st.integers(0, 3).map(str),
    "D": st.integers(0, 4).map(str),
}


@settings(max_examples=40)
@given(sizes(SMALL_CONFIG_SIZES))
def test_fuzzed_config_sizes_exit_2_past_a_cap(drawn):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(dict(BASE, **drawn)))
        code, err = run_quietly(["charpoly", "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert_capped(drawn, code, err, "config field ")


# the file's cells fix p = 3 and t = 1; M_T is the config's alone
SMALL_FILE_SIZES = {
    "p": st.just("3"),
    "t": st.just("1"),
    "N": st.integers(1, 40).map(str),
}


@settings(max_examples=30)
@given(sizes(SMALL_FILE_SIZES))
def test_fuzzed_operator_file_sizes_exit_2_past_a_cap(drawn):
    with tempfile.TemporaryDirectory() as tmp:
        op = Path(tmp) / "op.json"
        save_up(synth_up(1, 3, 40, 20, seed=1), str(op))
        op.write_text(json.dumps(dict(json.loads(op.read_text()), **drawn)))
        # the config names the file's N, or its cap where the file's lies past it
        n = str(min(int(drawn["N"]), SIZE_CAPS["N"]))
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(dict(BASE, N=n, source={"file": str(op)})))
        code, err = run_quietly(["charpoly", "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert_capped(drawn, code, err, "field ")


def test_config_rejects_vt_outside_unit_interval(tmp_path):
    for radius in ("3/2", "1", "0", "-1/5"):
        with pytest.raises(BadArgument, match=r"is outside \(0,1\)"):
            load_config(write_config(tmp_path, vT=["1/3", radius]))


def test_q_derivation():
    cfg = ExperimentConfig(
        2, 1, 40, 20, 5, 6, 0, (Fraction(1, 2),), Synthetic(1), "o", "smoke"
    )
    assert cfg.q == 4


# -- exit codes ---------------------------------------------------------------


def test_unparseable_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    assert main(["matrix", "--config", str(path)]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["matrix", "--config", str(tmp_path / "absent.json")]) == 2


def test_invalid_operator_file_exits_2(tmp_path):
    op = tmp_path / "op.json"
    op.write_text("{}")
    cfg = write_config(tmp_path, source={"file": str(op)})
    assert main(["charpoly", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


DEEP = "[" * 200_000


@pytest.mark.parametrize("config,operator", [
    ('{"p": ' + DEEP, None),
    (None, DEEP + "]" * 200_000),
], ids=["config", "operator-file"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, config, operator):
    # the JSON decoder stops such input with a RecursionError
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
    else:
        op = tmp_path / "op.json"
        op.write_text(operator)
        cfg = write_config(tmp_path, source={"file": str(op)})
    assert main(["charpoly", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_starved_precision_exits_3(tmp_path):
    cfg = write_config(tmp_path, N="6")
    assert main(["charpoly", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_undecidable_stability_gap_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, t="2", N="8", M_T="1", r="5", D="0")
    assert main(["charpoly", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precision exhausted: the gap of c_0 between sizes 18 and 20")
    assert "bound 5 undecidable" in err and "differs" not in err


def test_unknown_check_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    args = ["verify", "--config", cfg, "--out", str(tmp_path / "o")]
    assert main(args + ["--only", "no-such-check"]) == 2
    # a fault in a known check left out of the selection would go unseen
    only = ["--only", "lambda-closed-form", "--inject-fault", "vertical-gap"]
    assert main(args + only) == 2
    err = capsys.readouterr().err
    assert "vertical-gap" in err and "lambda-closed-form" in err
    assert not (tmp_path / "o").exists()


def test_injected_fault_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    args = ["verify", "--config", cfg, "--out", str(tmp_path / "o")]
    code = main(args + ["--only", "vertical-gap", "--inject-fault", "vertical-gap"])
    assert code == 1
    assert "FAIL vertical-gap" in capsys.readouterr().out


def test_bound_gap_fault_is_one_fail_line_of_a_written_ledger(tmp_path, capsys, monkeypatch):
    # a closed form twice too large at p = 2, in every module that holds it
    real = polygon.bound_gap

    def faulty(p, t, vT):
        return 2 * t * vT if p == 2 else real(p, t, vT)

    monkeypatch.setattr(polygon, "bound_gap", faulty)
    monkeypatch.setattr(checks, "bound_gap", faulty)
    out = tmp_path / "o"
    args = ["verify", "--config", write_config(tmp_path), "--out", str(out)]
    assert main(args + ["--only", "vertical-gap"]) == 1
    lines = (out / "verify.txt").read_text().splitlines()
    assert lines == [
        "FAIL vertical-gap: (p,t,vT)=(2,1,1/4): 1/4 != 1/2",
        "result: 0/1 checks passed",
    ]


def package_errors(cls=PadicError):
    """PadicError and every subclass the package defines."""
    out = [cls]
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("haloslopes."):
            out += package_errors(sub)
    return out


# the README's exit codes: 3 for a precision shortfall, 1 for a failed
# check, 2 for every other error of the package
PRECISION_ERRORS = {"PrecisionTooLow"}


CHECK_ERRORS = {"CheckWorkerLost"}


def readme_exit(error):
    """(exit code, stderr prefix) the README gives for a package error."""
    if error.__name__ in PRECISION_ERRORS:
        return 3, "precision exhausted"
    if error.__name__ in CHECK_ERRORS:
        return 1, "check failure"
    return 2, "input error"


@pytest.mark.parametrize("error", package_errors(), ids=lambda cls: cls.__name__)
def test_every_package_error_exits_with_its_readme_code(tmp_path, capsys, monkeypatch, error):
    code, prefix = readme_exit(error)

    def raising(cfg, rescale=False):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_matrix", raising)
    assert main(["matrix", "--config", write_config(tmp_path)]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"


def test_cli_import_leaves_dataclasses_unloaded():
    # every subcommand is a fresh interpreter that pays for this import;
    # only verify needs the check registry, and imports it itself
    probe = (
        "import sys; bare = set(sys.modules); import haloslopes.cli; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    added = proc.stdout.split()
    assert "haloslopes.cli" in added
    assert "dataclasses" not in added
    assert "haloslopes.checks" not in added


# -- matrix -------------------------------------------------------------------


def test_matrix_writes_certified_bounds(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "m"
    assert main(["matrix", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "bounds.csv")
    assert rows and all(r["ok"] == "1" for r in rows)
    blob = json.loads((out / "matrix.json").read_text())
    assert blob["rescaled"] is False
    assert int(blob["size"]) ** 2 == len(rows)


@pytest.mark.parametrize(
    "flags, order",
    [([], "OrderBound(=0)"), (["--rescale"], "OrderBound(=-1)")],
    ids=["plain", "rescale"],
)
def test_matrix_entry_bound_violation_exits_1(tmp_path, capsys, monkeypatch, flags, order):
    # exact units miss the bound of entry (1,0) first, row by row and column
    # by column; rescaled, its halo order is 0 - 1 against floor 0
    one = LambdaElt.one(3, 4, 4)
    units = BlockMatrix(1, tuple(tuple(one for _ in range(3)) for _ in range(3)))
    monkeypatch.setattr(cli, "assemble", lambda *args: units)
    out = tmp_path / "m"
    args = ["matrix", "--config", write_config(tmp_path), "--out", str(out)]
    assert main(args + flags) == 1
    assert capsys.readouterr().err == f"entry bound violated at (1,0): {order}\n"
    assert not out.exists()


def test_matrix_rescale_flag(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "m"
    assert main(["matrix", "--config", cfg, "--out", str(out), "--rescale"]) == 0
    blob = json.loads((out / "matrix.json").read_text())
    assert blob["rescaled"] is True
    for r in read_rows(out / "bounds.csv"):
        col = int(r["col"])
        assert int(r["required"]) == col // 1 - col // 3
        assert r["ok"] == "1"


# -- charpoly -----------------------------------------------------------------


def test_charpoly_roundtrips_and_margins(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "c"
    assert main(["charpoly", "--config", cfg, "--out", str(out)]) == 0
    blob = json.loads((out / "charpoly.json").read_text())
    series = blob["series"]
    assert len(series["coeffs"]) == 7 and series["r"] == 5
    rows = read_rows(out / "charbound.csv")
    assert len(rows) == 7
    assert all(int(r["margin"]) >= 0 for r in rows)


def test_charpoly_degree_zero_is_unit_series(tmp_path):
    cfg = write_config(tmp_path, D="0")
    out = tmp_path / "c"
    assert main(["charpoly", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "charbound.csv")
    assert len(rows) == 1 and rows[0]["halo_order"] == "0"


def test_source_seed_changes_series(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["charpoly", "--config", write_config(tmp_path), "--out", str(a)]) == 0
    cfg = write_config(tmp_path, name="seed3.json", source={"seed": "3"})
    assert main(["charpoly", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "charpoly.json").read_text() != (b / "charpoly.json").read_text()


# -- polygon ------------------------------------------------------------------


def test_polygon_outputs_parse_back(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "p"
    assert main(["polygon", "--config", cfg, "--out", str(out)]) == 0
    for slug in ("1_3", "1_4"):
        verts = read_rows(out / f"polygon_{slug}.csv")
        assert Fraction(verts[0]["ordinate"]) == 0
        slopes = read_rows(out / f"slopes_{slug}.csv")
        # every row parses back into the originating rational values
        for r in slopes:
            Fraction(r["slope"]), Fraction(r["ratio"])
            assert r["interval"][0] in "([" and r["interval"][-1] in ")]"
        overlay = read_rows(out / f"overlay_{slug}.csv")
        for r in overlay:
            assert Fraction(r["lower"]) <= Fraction(r["polygon"])
    gap = read_rows(out / "gap.csv")
    assert [Fraction(r["max_gap"]) for r in gap] == [Fraction(1, 3), Fraction(1, 4)]


def test_polygon_rigidity_table_all_equal(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "p"
    assert main(["polygon", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "rigidity.csv")
    assert rows and all(r["equal"] == "1" for r in rows)
    assert rows[0]["ratio_1_3"] == rows[0]["ratio_1_4"]


def test_polygon_rigidity_table_spans_all_radii(tmp_path):
    cfg = write_config(tmp_path, vT=["1/2", "1/3", "1/4"])
    out = tmp_path / "p"
    assert main(["polygon", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "rigidity.csv").read_text().splitlines()
    assert lines[0] == "x,ratio_1_2,ratio_1_3,ratio_1_4,equal"
    assert lines[1:] == ["0,0,0,0,1", "3,3,3,3,1", "4,5,5,5,1", "5,8,8,8,1", "6,12,12,12,1"]


def test_polygon_single_radius_skips_rigidity(tmp_path):
    cfg = write_config(tmp_path, vT=["1/2"])
    out = tmp_path / "p"
    assert main(["polygon", "--config", cfg, "--out", str(out)]) == 0
    assert not (out / "rigidity.csv").exists()
    assert (out / "polygon_1_2.csv").exists()


# -- verify -------------------------------------------------------------------


SMOKE_LEDGER = """\
PASS entry-bounds-up: 60 p-divisible matrices, all entries m,n < 12 certified
PASS entry-bounds-m1: 60 prime-to-p matrices, all entries m,n < 12 certified
PASS char-series-bound: 14 coefficients certified, min margin 0
PASS lambda-closed-form: five (p,t) pairs, k = 0..10, exact equality
PASS vertical-gap: 15 grid points match the closed form exactly
PASS charpoly-oracle: 20 random matrices up to 5x5 match the cofactor oracle
PASS mahler-round-trip: 50 sample vectors recovered exactly
PASS truncation-stability: 2 series stable between truncation sizes S and S+t mod m^r
PASS ratio-rigidity: 9 flagged vertices share ratios at vT = 1/3, 1/4
PASS lower-bound-sandwich: 4 polygons lie on or above the lower bound
PASS rescaled-columns: 193 rescaled entries meet the column bound
PASS non-compactness: columns p^2 keep a valuation-1 entry at row p (66, 27405)
PASS checker-fault-detection: three checkers pass and catch single perturbations
PASS deterministic-export: repeated runs export byte-identical series and polygons
result: 14/14 checks passed
"""


def test_verify_smoke_ledger_is_golden(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "verify.txt").read_text() == SMOKE_LEDGER


def test_verify_only_filters_ledger(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "v"
    code = main(["verify", "--config", cfg, "--out", str(out), "--only", CHEAP])
    assert code == 0
    text = (out / "verify.txt").read_text()
    assert text == capsys.readouterr().out
    lines = text.strip().splitlines()
    assert len(lines) == 5
    assert lines[-1] == "result: 4/4 checks passed"
    assert all(line.startswith("PASS ") for line in lines[:-1])


def test_verify_ledger_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    outs = []
    for name in ("v1", "v2"):
        out = tmp_path / name
        assert main(["verify", "--config", cfg, "--out", str(out), "--only", CHEAP]) == 0
        outs.append((out / "verify.txt").read_bytes())
    assert outs[0] == outs[1]


def test_polygon_outputs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    trees = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        assert main(["polygon", "--config", cfg, "--out", str(out)]) == 0
        trees.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert trees[0] == trees[1]


# sha256 of each smoke-config output tree: for every file in path order,
# its relative path, a NUL byte, its contents and a NUL byte.  Pinned from
# the object-per-coefficient LambdaElt, so a change of ring representation
# must leave every byte of every tree as it was.
GOLDEN_TREES = {
    "matrix": "79fe408885fa35d42177af21f2a6c227c2ec41f7a4a487546fdacaa5570836ca",
    "matrix --rescale": "1a7950596b83781578f8f39c6797bec6fd53c56e8bafd9ca33da6dceccc15223",
    "charpoly": "26ae7bb1992ad893d783d0b989778e2129e3fea31311a10fb2386b1246226826",
    "polygon": "82dccbe03c01f08c14506124ff94a90af1cdc862a371d247a2750558fa8bee05",
}


def tree_digest(root):
    h = hashlib.sha256()
    for f in sorted(path for path in root.rglob("*") if path.is_file()):
        h.update(f.relative_to(root).as_posix().encode() + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("command", list(GOLDEN_TREES))
def test_smoke_output_tree_matches_golden_digest(tmp_path, command):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    name, *flags = command.split()
    assert main([name, "--config", cfg, "--out", str(out), *flags]) == 0
    assert tree_digest(out) == GOLDEN_TREES[command]


# a t = 2 shape, where row // t and row // (p*t) differ, with a nonzero
# character exponent and three radii; same digest as GOLDEN_TREES
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
GOLDEN_TREES_T2 = {
    "matrix": "68c23a51fe8531d5f0705eebc57d8ec2235031b5f6a70e66b21833bce84a46b5",
    "matrix --rescale": "2ae0ff7882c18bbcf2d8b3f7e8812f844499e2515cb664470d89a86ac1ce9119",
    "charpoly": "d40e8dbff48447d5ff3e28916de835b2d054a6b0b2c271e85905e3be119467aa",
    "polygon": "f19a5b648cf02e341cfd9f7ab3fdbf19a546c5f9342ad02f0bcae44881e6c838",
}


@pytest.mark.parametrize("command", list(GOLDEN_TREES_T2))
def test_t2_output_tree_matches_golden_digest(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(T2_CONFIG))
    out = tmp_path / "out"
    name, *flags = command.split()
    assert main([name, "--config", str(cfg), "--out", str(out), *flags]) == 0
    assert tree_digest(out) == GOLDEN_TREES_T2[command]


def test_every_check_has_a_detectable_fault(tmp_path, capsys):
    """The fault hook flips each cheap check to FAIL, never to an exception."""
    cfg = write_config(tmp_path)
    for name in CHEAP.split(","):
        out = tmp_path / f"f_{name}"
        args = ["verify", "--config", cfg, "--out", str(out)]
        assert main(args + ["--only", name, "--inject-fault", name]) == 1
        assert f"FAIL {name}" in capsys.readouterr().out


def test_truncation_stability_recomputes_size_s_plus_t(monkeypatch):
    # a series that no longer matches an independent pass at S + t must FAIL
    rows = checks.fixture_series("smoke")
    p, t, D, spec, cs = rows[0]
    bumped = cs.coeffs[2] + LambdaElt.one(p, cs.coeffs[2].prec, cs.coeffs[2].trunc)
    bad = CharSeries(cs.coeffs[:2] + (bumped,) + cs.coeffs[3:], cs.r)
    monkeypatch.setattr(checks, "fixture_series", lambda scale: ((p, t, D, spec, bad),))
    ok, detail = checks.truncation_stability("smoke")
    assert not ok and "c_2" in detail
    monkeypatch.undo()
    assert checks.truncation_stability("smoke", fault=True)[0] is False


def test_truncation_stability_undecidable_gap_raises(monkeypatch):
    # cut below r digits, the series meets the S + t pass only in zero
    # residues, an order >= r - 1 that cannot decide the bound r
    p, t, D, spec, cs = checks.fixture_series("smoke")[0]
    low = CharSeries(
        tuple(LambdaElt.from_ints(p, cs.r - 1, c.trunc, c.res) for c in cs.coeffs), cs.r
    )
    monkeypatch.setattr(checks, "fixture_series", lambda scale: ((p, t, D, spec, low),))
    with pytest.raises(PrecisionTooLow, match=f"c_0 .* bound {cs.r} undecidable"):
        checks.truncation_stability("smoke")


def test_check_registry_names_are_unique():
    names = [name for name, _fn in CHECKS]
    assert len(names) == len(set(names)) == 14


# -- verify's forked worker -----------------------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """The pids that called os.fork; two usable CPUs whatever the host has."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return calls


def replace_check(monkeypatch, name, fn):
    monkeypatch.setattr(
        checks, "CHECKS", tuple((n, fn if n == name else f) for n, f in checks.CHECKS)
    )


def test_every_series_building_check_runs_in_the_calling_process(monkeypatch):
    # a check that built characteristic series in the forked worker would
    # build the memoised fixture series a second time
    running = [None]
    builders = set()
    for attr in ("fixture_series", "char_series"):
        def record(*args, _real=getattr(checks, attr), **kwargs):
            builders.add(running[0])
            return _real(*args, **kwargs)

        monkeypatch.setattr(checks, attr, record)
    for name, fn in CHECKS:
        running[0] = name
        fn("smoke")
    assert builders == checks.SERIES_CHECKS


@pytest.mark.parametrize("error", package_errors(), ids=lambda cls: cls.__name__)
def test_forked_check_error_exits_with_its_readme_code(tmp_path, capsys, monkeypatch, forks, error):
    code, prefix = readme_exit(error)

    def raising(scale, fault=False):
        raise error("boom")

    replace_check(monkeypatch, "vertical-gap", raising)
    args = ["verify", "--config", write_config(tmp_path), "--out", str(tmp_path / "o")]
    assert main(args + ["--only", "vertical-gap,ratio-rigidity"]) == code
    assert len(forks) == 1
    assert capsys.readouterr() == ("", f"{prefix}: boom\n")


@pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "in-process"])
def test_first_error_in_registry_order_wins(tmp_path, capsys, monkeypatch, forks, cpus):
    # entry-bounds-up runs in the worker and precedes char-series-bound
    def first(scale, fault=False):
        raise PrecisionTooLow("first")

    def later(scale, fault=False):
        raise BadArgument("later")

    replace_check(monkeypatch, "entry-bounds-up", first)
    replace_check(monkeypatch, "char-series-bound", later)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    args = ["verify", "--config", write_config(tmp_path), "--out", str(tmp_path / "o")]
    assert main(args + ["--only", "char-series-bound,entry-bounds-up"]) == 3
    assert len(forks) == cpus - 1
    assert capsys.readouterr().err == "precision exhausted: first\n"


def test_injected_fault_in_forked_check_exits_1(tmp_path, capsys, forks):
    args = ["verify", "--config", write_config(tmp_path), "--out", str(tmp_path / "o")]
    only = ["--only", "vertical-gap,ratio-rigidity"]
    assert main(args + only + ["--inject-fault", "vertical-gap"]) == 1
    assert len(forks) == 1
    lines = (tmp_path / "o" / "verify.txt").read_text().splitlines()
    assert lines[0].startswith("FAIL vertical-gap: ")
    assert lines[1].startswith("PASS ratio-rigidity: ")
    assert lines[2] == "result: 1/2 checks passed"


def test_lost_check_worker_is_one_line(tmp_path, capsys, monkeypatch, forks):
    caller = os.getpid()

    def vanish(scale, fault=False):
        if os.getpid() == caller:  # never end the test process itself
            raise AssertionError("vertical-gap ran in the calling process")
        os._exit(7)

    replace_check(monkeypatch, "vertical-gap", vanish)
    args = ["verify", "--config", write_config(tmp_path), "--out", str(tmp_path / "o")]
    assert main(args + ["--only", "vertical-gap,ratio-rigidity"]) == 1
    assert capsys.readouterr() == (
        "", "check failure: the check worker exited with status 7 before sending its results\n"
    )
    assert not (tmp_path / "o").exists()


def test_verify_without_fork_prints_the_golden_ledger(tmp_path, capsys, monkeypatch):
    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = tmp_path / "v"
    assert main(["verify", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    assert (out / "verify.txt").read_text() == SMOKE_LEDGER == capsys.readouterr().out
