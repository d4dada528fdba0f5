"""Correctness checks of task outputs, run in the parent outside the timed region.

References do not come from the jet engine: class labels and verdicts are
the ones the scenes were constructed to have (and the tier-1 tests
assert); mesh vertices are read back from the exported files and checked
against a sympy evaluation of the scene text.
"""

import math
from functools import lru_cache
from pathlib import Path

import numpy as np

SCENE_DIR = Path("src") / "darboux" / "scenes"

# Tolerances: the adapted-parameterization residual bound of the curve
# tests, the parallel / non-parallel bands of the equivalence-chain
# acceptance test, and a relative tolerance for mesh geometry.
RESIDUAL_TOL = 1e-6
FLAT_TOL = 1e-7
NONFLAT_MIN = 1e-4
MESH_RTOL = 1e-8


def check(task, output, root):
    """None when the output is correct, else a one-line reason."""
    kind = task["kind"]
    if kind == "classify":
        if output["class"] != task["expected"]:
            return f"class {output['class']} != {task['expected']}"
        if output["versal"] is not True:
            return f"versal is {output['versal']}"
        return None
    if kind == "mesh":
        expected = math.prod(a[2] for a in task["t_axes"]) * task["u"][2]
        if output["diagnostics"] or output["vertices"] != expected:
            return f"{output['vertices']} vertices, {output['diagnostics']} diagnostics"
        return None
    if kind == "export":
        return _check_export(task, output["path"], root)
    if kind in ("parallel", "singularity", "transon"):
        if output["verdict"] != task["expected"]:
            return f"verdict {output['verdict']!r} != {task['expected']!r}"
        return None
    if kind == "invariants":
        if output["rows"] != task["interval"][2] or not output["finite"]:
            return "invariants table is incomplete or not finite"
        if not output["residual_max"] < RESIDUAL_TOL:
            return f"adapted residual {output['residual_max']:.3e} >= {RESIDUAL_TOL}"
        return None
    if kind == "metric":
        if not output["finite"]:
            return "metric battery returned non-finite values"
        values = [output[k] for k in ("tau", "apolarity", "equiaffine")]
        if task["flat"] and not max(values) < FLAT_TOL:
            return f"parallel scene has defects {values}"
        if not task["flat"] and not min(values) > NONFLAT_MIN:
            return f"non-flat scene has defects {values}"
        return None
    return f"unknown task kind {kind!r}"


def _scene_texts(root, name):
    values = {}
    for raw in (root / SCENE_DIR / f"{name}.scene").read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return int(values["n"]), values["f"], values["g"]


@lru_cache(maxsize=None)
def _oracle(root, name):
    """Numeric f, grad f and g of a scene, from sympy on the scene text."""
    import sympy

    n, f_text, g_text = _scene_texts(root, name)
    t = sympy.symbols("t" if n == 1 else " ".join(f"t{i}" for i in range(1, n + 1)))
    t = [t] if n == 1 else list(t)
    y = sympy.Symbol("y")
    names = {s.name: s for s in t + [y]}
    f = sympy.sympify(f_text.replace("^", "**"), locals=names)
    g = sympy.sympify(g_text.replace("^", "**"), locals=names)
    args = t + [y]
    f_fn = sympy.lambdify(args, f, "numpy")
    grad_fn = [sympy.lambdify(args, sympy.diff(f, v), "numpy") for v in args]
    g_fn = sympy.lambdify(t, g, "numpy")
    return n, f_fn, grad_fn, g_fn


def _read_ply(path):
    lines = Path(path).read_text().splitlines()
    header_end = lines.index("end_header")
    count = next(int(line.split()[2]) for line in lines[:header_end]
                 if line.startswith("element vertex"))
    rows = np.array([[float(v) for v in line.split()] for line in lines[header_end + 1:]])
    if rows.shape[0] != count:
        raise ValueError(f"PLY header says {count} vertices, body has {rows.shape[0]}")
    return rows[:, :-2]  # drop regression_gap and singular


def _read_obj(path, nu):
    vertices, faces = [], 0
    for line in Path(path).read_text().splitlines():
        if line.startswith("v "):
            vertices.append([float(v) for v in line.split()[1:]])
        elif line.startswith("f "):
            faces += 1
    if faces != (len(vertices) // nu - 1) * (nu - 1):
        raise ValueError(f"OBJ has {faces} faces for {len(vertices)} vertices")
    return np.array(vertices)


def _check_export(task, path, root):
    """Vertices read back from the file lie on the envelope of the scene:
    each ruling's base point is on N inside M, and its direction is
    tangent to M (pairs to zero with the conormal (-f_t, -f_y, 1))."""
    n, f_fn, grad_fn, g_fn = _oracle(root, task["scene"])
    nu = task["u"][2]
    try:
        vertices = _read_ply(path) if task["format"] == "ply" else _read_obj(path, nu)
    except (OSError, ValueError, StopIteration) as err:
        return f"unreadable export: {err}"
    expected = math.prod(a[2] for a in task["t_axes"]) * nu
    if vertices.shape != (expected, n + 2) or not np.isfinite(vertices).all():
        return f"export holds {vertices.shape} values or non-finite ones"

    axes = [np.linspace(lo, hi, count) for lo, hi, count in task["t_axes"]]
    t = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    u = np.linspace(*task["u"])
    rows = vertices.reshape(len(t), nu, n + 2)
    xi = (rows[:, -1] - rows[:, 0]) / (u[-1] - u[0])
    base = rows[:, 0] - u[0] * xi
    scale = 1.0 + float(np.abs(vertices).max())
    ruled = np.abs(rows - (base[:, None, :] + u[None, :, None] * xi[:, None, :])).max()
    args = [base[:, k] for k in range(n + 1)]
    on_n = np.abs(base[:, :n] - t).max() + np.abs(base[:, n] - g_fn(*t.T)).max()
    on_m = np.abs(base[:, n + 1] - f_fn(*args)).max()
    conormal = np.column_stack([-np.broadcast_to(d(*args), len(t)) for d in grad_fn]
                               + [np.ones(len(t))])
    pairing = np.abs((conormal * xi).sum(axis=1)) / (
        np.linalg.norm(conormal, axis=1) * np.linalg.norm(xi, axis=1))
    worst = {"ruling": float(ruled / scale), "on N": float(on_n / scale),
             "on M": float(on_m / scale), "conormal pairing": float(pairing.max())}
    bad = {k: v for k, v in worst.items() if not v < MESH_RTOL}
    return f"mesh geometry off: {bad}" if bad else None
