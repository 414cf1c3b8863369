import csv
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_bound_sweep_smoke(tmp_path):
    out = tmp_path / "sweep.csv"
    sweep = runpy.run_path(str(SCRIPTS / "bound_sweep.py"), run_name="bound_sweep")
    assert sweep["main"](["--count", "2", "--size", "6", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert all(r["violations"] == "0" for r in rows)
    assert all(r["lambda_identity_ok"] == "1" and r["gap_matches"] == "1" for r in rows)
