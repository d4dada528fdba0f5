"""Byte-for-byte regression fixtures for the Transon reports, the curve
invariant tables, the germ classifications and the ``metric`` and ``frame``
command reports.

The files under ``tests/data/golden`` hold ``repr(transon_report(...))`` on
the default and on a custom lambda list, ``write_invariants_csv`` output,
the adapted march (``s``, ``ds_dt``, ``residual`` and ``step`` of
``adapt_parameterization``, whose step lengths read the s-jet's top
coefficients), ``repr(classify_envelope_point(...))``
with the versality matrix behind its verdict, and the OBJ and PLY files of
small envelope meshes (one with diagnosed vertices left out), and the stdout
of ``darboux metric`` and ``darboux frame``, as an earlier revision produced
them.
A float that moves in its last bits fails here; such a move is a change of
results and is to be reviewed as one, not absorbed by rewriting the file.
To rewrite them after an intended change of results, run
``python tests/test_golden.py`` from the repository root; it prints, for
each file whose bytes change, how many of its numbers moved and the
largest move relative to the largest magnitude in the file.  With
``--check`` it prints the same for every file, writing none.
"""

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

import pytest

from darboux import (adapt_parameterization, as_curve, build_scene, classify_envelope_point,
                     envelope_mesh, load_bundled, transon_report, write_obj, write_ply)
from darboux.cli import run_command
from darboux.curve import invariants_table, write_invariants_csv
from darboux.envelope import envelope_point, family_gradient
from darboux.frame import frame_fields
from darboux.jets import jet_compose, stacked
from darboux.singular import _classify, germ_jet, versality_matrix

DATA = Path(__file__).parent / "data" / "golden"
POINT = (0.07, -0.04, 0.07, -0.03)
TRANSON_SCENES = ("e6", "d5", "nonflat", "hyperquadric", "cubic-curve")
TRANSON_CASES = [(name, at) for name in TRANSON_SCENES for at in ("origin", "point")]
# Reports on a custom lambda list, at the point: distinct from the default
# sweep, and unsorted around lambda = 0.
CUSTOM_LAMBDAS = (-0.3, 0.05, 0.15, 0.25)
CUSTOM_SCENES = ("nonflat", "hyperquadric", "cubic-curve")
TABLE_CASES = {"a2": (-0.16, 0.15, 21), "cubic-curve": (-0.1, 0.1, 21)}
GERM_SCENES = ("a5", "d5", "e6", "e7", "e8")
GERM_ORDER = 6
# Mesh fixtures: the scene (a bundled name, or None for the partial-domain
# scene y = sqrt(1 - t^2), whose rulings at t >= 1 are diagnosed), its grid,
# and the formats written.
MESH_CASES = {
    "a2": ([(-0.4, 0.4, 9)], (0.6, 1.4, 4), ("obj", "ply")),
    "hyperquadric": ([(-0.3, 0.3, 4), (-0.3, 0.3, 4)], (0.2, 1.2, 3), ("ply",)),
    "partial": ([(-0.5, 1.5, 5)], (0.1, 0.5, 3), ("obj", "ply")),
}
MESH_FILES = [(name, fmt) for name, (_, _, formats) in MESH_CASES.items() for fmt in formats]
# Command reports: the metric battery and the structure coefficients.
REPORT_SCENES = ("a2", "cubic-curve", "nonflat", "hyperquadric", "e6")
REPORT_CASES = [(command, name, at) for command in ("metric", "frame")
                for name in REPORT_SCENES for at in ("origin", "point")]


def _transon(name, at, lambdas=None):
    scene = load_bundled(name)
    t = [0.0] * scene.n if at == "origin" else list(POINT[: scene.n])
    return repr(transon_report(scene, t, lambdas)) + "\n"


def _table(name, path):
    lo, hi, count = TABLE_CASES[name]
    _, rows = invariants_table(as_curve(load_bundled(name)), (lo, hi), count)
    write_invariants_csv(rows, path)
    return Path(path).read_text()


def _adapted(name):
    """The adapted march on the table interval, each field as plain floats."""
    lo, hi, count = TABLE_CASES[name]
    table = adapt_parameterization(as_curve(load_bundled(name)), (lo, hi), count)
    fields = (table.s.tolist(), table.ds_dt.tolist(), table.residual.tolist(), float(table.step))
    return "".join(f"{value!r}\n" for value in fields)


def _germ(name):
    """The classification at the origin (u = 1) and its versality matrix:
    the A_k rank rows, or for D/E the family gradient on the critical graph,
    the unfolding columns of the local-algebra rank."""
    scene = load_bundled(name)
    t0 = [0.0] * scene.n
    report = classify_envelope_point(scene, t0, 1.0, order=GERM_ORDER)
    x0 = envelope_point(scene, t0, 1.0)
    klass, reduction = _classify(germ_jet(scene, t0, x0, GERM_ORDER))
    if klass.kind == "A":
        rows, _ = versality_matrix(scene, t0, x0, klass.k)
    else:
        ff = frame_fields(scene, t0, GERM_ORDER)
        rows = jet_compose(stacked(family_gradient(ff)), reduction.to_t).coeffs
    # The point's entries are numpy scalars, whose repr differs across numpy
    # versions; as plain floats they print the same digits everywhere.
    report["point"] = [float(v) for v in report["point"]]
    return f"{report!r}\n{rows.tolist()!r}\n"


def _mesh(name, fmt, path):
    t_axes, u_range, _ = MESH_CASES[name]
    scene = (build_scene("(t^2 + y^2)/2", "sqrt(1 - t^2)", 1) if name == "partial"
             else load_bundled(name))
    writer = write_obj if fmt == "obj" else write_ply
    writer(envelope_mesh(scene, t_axes, u_range), path)
    return Path(path).read_bytes()


def _command(command, name, at):
    """The stdout of ``darboux <command>`` on a bundled scene."""
    n = load_bundled(name).n
    t = [0.0] * n if at == "origin" else list(POINT[:n])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run_command([command, "--scene", name, "--t", ",".join(map(repr, t))])
    return out.getvalue()


@pytest.mark.parametrize("name,at", TRANSON_CASES)
def test_transon_report_matches_fixture(name, at):
    want = (DATA / f"transon-{name}-{at}.txt").read_text()
    assert _transon(name, at) == want


@pytest.mark.parametrize("name", CUSTOM_SCENES)
def test_transon_custom_lambdas_match_fixture(name):
    want = (DATA / f"transon-{name}-lambdas.txt").read_text()
    assert _transon(name, "point", CUSTOM_LAMBDAS) == want


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_invariants_csv_matches_fixture(tmp_path, name):
    want = (DATA / f"invariants-{name}.csv").read_bytes()
    assert _table(name, tmp_path / "out.csv").encode() == want


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_adapted_march_matches_fixture(name):
    assert _adapted(name) == (DATA / f"adapted-{name}.txt").read_text()


@pytest.mark.parametrize("name", GERM_SCENES)
def test_germ_classification_matches_fixture(name):
    assert _germ(name) == (DATA / f"germ-{name}.txt").read_text()


@pytest.mark.parametrize("name,fmt", MESH_FILES)
def test_mesh_export_matches_fixture(tmp_path, name, fmt):
    want = (DATA / f"mesh-{name}.{fmt}").read_bytes()
    assert _mesh(name, fmt, tmp_path / f"out.{fmt}") == want


@pytest.mark.parametrize("command,name,at", REPORT_CASES)
def test_command_report_matches_fixture(command, name, at):
    assert _command(command, name, at) == (DATA / f"{command}-{name}-{at}.json").read_text()


NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _moves(old, new):
    """How many numbers moved between two texts of a fixture, and the largest
    move relative to the largest magnitude in the old text."""
    old, new = ([float(v) for v in NUMBER.findall(text.decode())] for text in (old, new))
    if len(old) != len(new):
        return f"{len(old)} numbers became {len(new)}"
    gaps = [abs(a - b) for a, b in zip(old, new) if a != b]
    largest = max(gaps, default=0.0) / max(map(abs, old), default=1.0)
    return f"{len(gaps)} of {len(old)} numbers moved, the largest by {largest:.2g} of the largest"


def _rewrite(path, write, check=False):
    """``write(path)``, printing how the numbers moved if the bytes changed;
    with ``check``, ``write`` goes to a scratch file and every fixture prints."""
    old = path.read_bytes() if path.exists() else None
    with tempfile.TemporaryDirectory() as scratch:
        target = Path(scratch) / path.name if check else path
        write(target)
        new = target.read_bytes()
    if old is None or new == old:
        if check:
            print(f"{path.name}: {'missing' if old is None else 'unchanged'}")
    else:
        print(f"{path.name}: {_moves(old, new)}")


if __name__ == "__main__":
    check = "--check" in sys.argv[1:]
    if not check:
        DATA.mkdir(parents=True, exist_ok=True)
    for name, at in TRANSON_CASES:
        _rewrite(DATA / f"transon-{name}-{at}.txt",
                 lambda p: p.write_text(_transon(name, at)), check)
    for name in CUSTOM_SCENES:
        _rewrite(DATA / f"transon-{name}-lambdas.txt",
                 lambda p: p.write_text(_transon(name, "point", CUSTOM_LAMBDAS)), check)
    for name in TABLE_CASES:
        _rewrite(DATA / f"invariants-{name}.csv", lambda p: _table(name, p), check)
        _rewrite(DATA / f"adapted-{name}.txt", lambda p: p.write_text(_adapted(name)), check)
    for name in GERM_SCENES:
        _rewrite(DATA / f"germ-{name}.txt", lambda p: p.write_text(_germ(name)), check)
    for name, fmt in MESH_FILES:
        _rewrite(DATA / f"mesh-{name}.{fmt}", lambda p: _mesh(name, fmt, p), check)
    for command, name, at in REPORT_CASES:
        _rewrite(DATA / f"{command}-{name}-{at}.json",
                 lambda p: p.write_text(_command(command, name, at)), check)
