"""Negative controls: the benchmark's correctness gate must be able to fail.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q bench/test_gate.py
"""

import random
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads as w  # noqa: E402
from haloslopes.charpoly import CharSeries  # noqa: E402
from haloslopes.iwasawa import CharOfDelta, LambdaElt  # noqa: E402
from haloslopes.monoid_action import matrix_input_prec, verify_entry_bounds  # noqa: E402
from haloslopes.padic_core import PAdicNum  # noqa: E402


@pytest.fixture(scope="module")
def pinned_series():
    """The (p,t) = (3,2) acceptance fixture, the cheapest of the four."""
    shape = w.SERIES_SHAPES[1]
    p, t = shape[:2]
    op_seed, digest = w.load_pins()["series"][f"{p},{t}"][0]
    return p, t, w.shape_series(shape, op_seed), digest


def test_pinned_series_passes_the_gate(pinned_series):
    assert w.check_series(*pinned_series) == []


def test_perturbed_series_coefficient_is_a_failure(pinned_series):
    p, t, cs, digest = pinned_series
    c = cs.coeffs[5]
    top = c.coeffs[0]
    # change only the last certified digit, which the certificates cannot see
    bumped = PAdicNum(p, top.prec, top.residue + p ** (top.prec - 1))
    coeffs = list(cs.coeffs)
    coeffs[5] = LambdaElt((bumped,) + c.coeffs[1:])
    problems = w.check_series(p, t, CharSeries(tuple(coeffs), cs.r), digest)
    assert "series digest mismatch" in problems


def test_wrong_monoid_class_is_a_failure():
    p = 3
    n = matrix_input_prec(p, w.ENTRY_SIZE, w.ENTRY_TRUNC, w.ENTRY_SIZE)
    delta = w.random_monoid_matrix(random.Random(7), p, n, True)
    report = verify_entry_bounds(delta, w.ENTRY_SIZE, CharOfDelta(p, 0), w.ENTRY_TRUNC)
    assert w.check_entry(report, True) == []
    assert w.check_entry(report, False) != []


@pytest.fixture(scope="module")
def cli_tree(tmp_path_factory):
    session = w.CliSession(0, tmp_path_factory.mktemp("cli"))
    session.setup()
    out, codes = session.execute(0)
    return out, codes, session.inputs[0][1]


def test_cli_session_passes_the_gate(cli_tree):
    assert w.check_session(*cli_tree) == []


def test_changed_output_file_is_a_failure(cli_tree, tmp_path):
    out, codes, digest = cli_tree
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    target = copy / "charpoly" / "charpoly.json"
    target.write_bytes(target.read_bytes().replace(b'"r"', b'"R"', 1))
    assert w.check_session(copy, codes, digest) == ["output tree digest mismatch"]


def test_failed_verify_ledger_is_a_failure(cli_tree, tmp_path):
    out, codes, digest = cli_tree
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    ledger = copy / "verify" / "verify.txt"
    ledger.write_text(ledger.read_text().replace("14/14", "13/14"))
    problems = w.check_session(copy, codes, digest)
    assert any(problem.startswith("verify:") for problem in problems)


def test_nonzero_exit_is_a_failure(cli_tree):
    out, codes, digest = cli_tree
    assert w.check_session(out, {**codes, "polygon": 3}, digest) == ["polygon exited 3"]
