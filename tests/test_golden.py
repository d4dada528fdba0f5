"""Byte-for-byte regression fixtures for the Transon reports and the curve
invariant tables.

The files under ``tests/data/golden`` hold ``repr(transon_report(...))``
and ``write_invariants_csv`` output as an earlier revision produced them.
A float that moves in its last bits fails here; such a move is a change of
results and is to be reviewed as one, not absorbed by rewriting the file.
To rewrite them after an intended change of results, run
``python tests/test_golden.py`` from the repository root.
"""

from pathlib import Path

import pytest

from darboux import as_curve, load_bundled, transon_report
from darboux.curve import invariants_table, write_invariants_csv

DATA = Path(__file__).parent / "data" / "golden"
POINT = (0.07, -0.04, 0.07, -0.03)
TRANSON_SCENES = ("e6", "d5", "nonflat", "hyperquadric", "cubic-curve")
TRANSON_CASES = [(name, at) for name in TRANSON_SCENES for at in ("origin", "point")]
TABLE_CASES = {"a2": (-0.16, 0.15, 21), "cubic-curve": (-0.1, 0.1, 21)}


def _transon(name, at):
    scene = load_bundled(name)
    t = [0.0] * scene.n if at == "origin" else list(POINT[: scene.n])
    return repr(transon_report(scene, t)) + "\n"


def _table(name, path):
    lo, hi, count = TABLE_CASES[name]
    _, rows = invariants_table(as_curve(load_bundled(name)), (lo, hi), count)
    write_invariants_csv(rows, path)
    return Path(path).read_text()


@pytest.mark.parametrize("name,at", TRANSON_CASES)
def test_transon_report_matches_fixture(name, at):
    want = (DATA / f"transon-{name}-{at}.txt").read_text()
    assert _transon(name, at) == want


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_invariants_csv_matches_fixture(tmp_path, name):
    want = (DATA / f"invariants-{name}.csv").read_bytes()
    assert _table(name, tmp_path / "out.csv").encode() == want


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name, at in TRANSON_CASES:
        (DATA / f"transon-{name}-{at}.txt").write_text(_transon(name, at))
    for name in TABLE_CASES:
        _table(name, DATA / f"invariants-{name}.csv")
