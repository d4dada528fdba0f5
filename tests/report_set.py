"""Write a fixed set of CLI reports, one file each, to compare two
revisions byte for byte.

Usage, from the repository root, once per revision::

    PYTHONPATH=src python tests/report_set.py OUTDIR
    diff -r OUTDIR_A OUTDIR_B

Each file holds the command line, the exit code and stdout of one report,
then the bytes of the PLY, OBJ or CSV file the command wrote, if any.
Commands run with OUTDIR as the working directory and relative output
paths, so a report names the same path wherever it is written.  Warnings
and stderr are left out: their text names source paths.

The set: ``frame``, ``metric``, ``transon``, ``classify --order 4``, ``5``
and ``6`` at the first two regression values of the point, ``envelope``
(PLY, and OBJ for n = 1), ``parallel-test`` and ``curve`` with
``--interval`` and ``--out`` (n = 1), on the 12 bundled scenes at the origin, at
0.1 in every coordinate and at the golden ``POINT`` of
``tests/test_golden.py`` (for n <= 4, the length of that point); and
``metric`` and ``transon`` on ``nonflat`` under t -> 1e-9 t and
``hyperquadric`` under t -> 1e-7 t, at (0.1, 0.12) / a: the same geometry
as at scale 1, so a verdict that moves there has a tolerance that is not
scale-free; and ``metric``, ``transon`` and ``parallel-test`` at (0.1, 0.12)
on the n = 2 contours of ``tests/scene_families.py``, under parallel light
and, in the graph gauge and in its parallel scaling
``xi_scale = 1 - t1^2 - t2^2``, under central projection.  The scaled and
contour scene files are written to OUTDIR too.  Each report starts from an
empty frame cache, as a separate process would.  pytest does not collect
this file.
"""

import contextlib
import io
import os
import sys
import warnings
from pathlib import Path

from darboux import frame
from darboux.cli import run_command
from darboux.envelope import regression_values
from darboux.errors import GeometryError
from darboux.expr import parse_expression, substitute, to_infix
from darboux.scenes import CATALOG, load_bundled, serialize_scene
from scene_families import CENTRAL_EXAMPLE, PARALLEL_EXAMPLE

# tests/test_golden.py's point, repeated here: importing that module would
# tie this script to the private names it imports, which a base revision
# may lack.
POINT = (0.07, -0.04, 0.07, -0.03)
# Samples per axis of the envelope and parallel-test grids around a point, by n.
GRID_COUNTS = {1: 5, 2: 3}
# Bundled scenes read under t -> a t, as (name, a).
SCALED = (("nonflat", 1e-9), ("hyperquadric", 1e-7))
# Contour scenes, as (scene file stem, contour, gauge of Contour.scene).
CONTOURS = (("contour-parallel-light", PARALLEL_EXAMPLE, "graph"),
            ("contour-central", CENTRAL_EXAMPLE, "graph"),
            ("contour-central-scaled", CENTRAL_EXAMPLE, "parallel"))


def _points(n):
    yield "origin", [0.0] * n
    yield "0.1", [0.1] * n
    if n <= len(POINT):
        yield "point", list(POINT[:n])


def _commands(name, n, at, t):
    """(file stem, argv, written file or None) of each report at one point."""
    point = ",".join(repr(v) for v in t)
    base = [f"--scene={name}"]
    yield f"frame-{name}-{at}", ["frame", *base, f"--t={point}"], None
    yield f"metric-{name}-{at}", ["metric", *base, f"--t={point}"], None
    yield f"transon-{name}-{at}", ["transon", *base, f"--t={point}"], None
    try:
        values = regression_values(load_bundled(name), t)[:2]
    except GeometryError:
        values = []
    for k, u in enumerate(values):
        for order in (4, 5, 6):
            yield (f"classify-{name}-{at}-u{k}-order{order}",
                   ["classify", *base, f"--t={point}", f"--u={u!r}", f"--order={order}"], None)
    count = GRID_COUNTS.get(n, 2)
    grid = [f"--grid={v - 0.1!r}:{v + 0.1!r}:{count}" for v in t]
    for fmt in ("ply", "obj") if n == 1 else ("ply",):
        out = f"{name}-{at}.{fmt}"
        yield (f"envelope-{name}-{at}-{fmt}",
               ["envelope", *base, *grid, "--u=0.5:1.5:3", f"--out={out}", f"--format={fmt}"], out)
    yield f"parallel-test-{name}-{at}", ["parallel-test", *base, *grid], None
    if n > 1:
        return
    out = f"{name}-{at}.csv"
    yield (f"curve-{name}-{at}",
           ["curve", *base, f"--t={t[0]!r}", f"--interval={t[0] - 0.1!r}:{t[0] + 0.1!r}:7",
            f"--out={out}"], out)


def _scaled(name, a):
    """(file stem, argv, None) of the scaled scene's reports, after writing
    the scene file of the bundled ``name`` under t -> a t to the working
    directory."""
    base = load_bundled(name)
    sub = {v: parse_expression(f"({a!r})*{v}", base.t_names) for v in base.t_names}
    scene = f"{name}-{a!r}.scene"
    Path(scene).write_text(
        f"[hypersurface]\nn = {base.n}\nf = {to_infix(substitute(base.f, sub))}\n"
        f"[submanifold]\ng = {to_infix(substitute(base.g, sub))}\ngauge = {base.gauge}\n")
    for command in ("metric", "transon"):
        yield (f"{command}-{name}-{a!r}",
               [command, f"--scene={scene}", f"--t={0.1 / a!r},{0.12 / a!r}"], None)


def _contour(stem, contour, gauge):
    """(file stem, argv, None) of the contour's reports, after writing its
    scene file to the working directory."""
    Path(f"{stem}.scene").write_text(serialize_scene(contour.scene(gauge)))
    base = [f"--scene={stem}.scene"]
    yield f"metric-{stem}", ["metric", *base, "--t=0.1,0.12"], None
    yield f"transon-{stem}", ["transon", *base, "--t=0.1,0.12"], None
    grid = [f"--grid={v - 0.1!r}:{v + 0.1!r}:{GRID_COUNTS[2]}" for v in (0.1, 0.12)]
    yield f"parallel-test-{stem}", ["parallel-test", *base, *grid], None


def _reports():
    for name in CATALOG:
        n = load_bundled(name).n
        for at, t in _points(n):
            yield from _commands(name, n, at, t)
    for name, a in SCALED:
        yield from _scaled(name, a)
    for contour in CONTOURS:
        yield from _contour(*contour)


def main(out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    warnings.simplefilter("ignore")
    written = 0
    for stem, argv, output in _reports():
        frame._fields.cache_clear()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = run_command(argv)
        data = f"$ darboux {' '.join(argv)}\nexit {code}\n{stdout.getvalue()}".encode()
        if output is not None and os.path.exists(output):
            data += Path(output).read_bytes()
            os.remove(output)
        Path(f"{stem}.txt").write_bytes(data)
        written += 1
    print(f"wrote {written} reports to {out_dir}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
