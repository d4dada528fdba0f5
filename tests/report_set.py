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
``tests/test_golden.py`` (for n <= 4, the length of that point).  Each
report starts from an empty frame cache, as a separate process would.
pytest does not collect this file.
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
from darboux.scenes import CATALOG, load_bundled

# tests/test_golden.py's point, repeated here: importing that module would
# tie this script to the private names it imports, which a base revision
# may lack.
POINT = (0.07, -0.04, 0.07, -0.03)
# Samples per axis of the envelope and parallel-test grids around a point, by n.
GRID_COUNTS = {1: 5, 2: 3}


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


def main(out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    warnings.simplefilter("ignore")
    written = 0
    for name in CATALOG:
        n = load_bundled(name).n
        for at, t in _points(n):
            for stem, argv, output in _commands(name, n, at, t):
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
