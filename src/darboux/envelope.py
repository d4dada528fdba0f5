"""Envelope of tangent spaces along N, its defining family, regression
values, and mesh export.

The envelope is the hypersurface (t, u) -> phi(t) + u xi(t) swept by the
Darboux line field.  It is the discriminant of the tangency family
F(t, x) = bracket(X_1(t), ..., X_n(t), xi(t), x - phi(t)), and it is
singular exactly where u is the inverse of a nonzero eigenvalue of the
shape operator of xi.

The family is a unit multiple of the conormal pairing:

    F(t, x) = -lam(t) * <nu(t), x - phi(t)>,

with nu = (-f_t, -f_y, 1) on N and lam the frame's gauge factor.  The
bracket is linear in its last slot and vanishes on X_1..X_n and xi, while
nu annihilates X_i and psi_y, hence xi, which is a combination of them in
every gauge.  So bracket(X, xi, v) = c <nu, v> for all v, and v = e_{n+2}
(where nu reads 1) gives c = -[X, e_{n+2}, xi] by swapping the last two
slots.  The columns X, psi_y, e_{n+2} are unitriangular and xi is lam
psi_y plus tangent terms, so [X, e_{n+2}, xi] = lam.  The ambient
gradient of F is therefore -lam * nu, read off jets the frame already
holds, with no (n+2) x (n+2) determinant.

A mesh reads its frames in batches over the grid (:func:`darboux.frame.read_grid`)
and computes its vertices and regression gaps as arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyGridError
from .frame import BATCH_ROWS, frame_fields, read_grid, vec_values
from .jets import jet_dot
from .record import Factory, Record

REGRESSION_DEDUPE_TOL = 1e-9
SINGULAR_FLAG_TOL = 1e-6


def _envelope_point(ff, u):
    return vec_values(ff.phi) + float(u) * vec_values(ff.darboux(1).xi)


def envelope_point(scene, t, u):
    """phi(t) + u xi(t) in the scene's gauge."""
    return _envelope_point(frame_fields(scene, t, 1), u)


def family_gradient(ff):
    """Jets of the ambient partials dF/dx_j = -lam nu_j of the tangency
    family along N (see the module docstring)."""
    scale = -ff.lam
    return [scale * nu for nu in ff.conormal]


def _family(ff, x):
    """Jet of t -> F(t, x) = sum_j dF/dx_j (x_j - phi_j)."""
    x = np.asarray(x, dtype=float)
    return jet_dot(family_gradient(ff), [float(xr) - phi for xr, phi in zip(x, ff.phi)])


def family_value(scene, t, x):
    """The tangency family F and its parameter gradient at (t, x).

    F(t, x) is the oriented bracket of the tangent frame, the Darboux
    vector and the offset x - phi(t); for a graph scene it expands as
    f - x_{n+2} + ....  Returns (F, array of dF/dt_i).
    """
    fam = _family(frame_fields(scene, t, 1), x)
    grad = np.array([float(fam.derivative(i).value) for i in range(scene.n)])
    return float(fam.value), grad


def family_jet(scene, t, x, order):
    """Jet of t -> F(t, x) at the given base point (internal)."""
    return _family(frame_fields(scene, t, order), x)


def _shape_operator(ff):
    """S1[k][j] = -(X_k-coefficient of D_{X_j} xi), batch axes first, read on values."""
    return -np.swapaxes(ff.dxi_values()[..., :ff.scene.n], -1, -2)


def shape_operator(scene, t):
    """Matrix of the shape operator of the gauged Darboux field at t."""
    return _shape_operator(frame_fields(scene, t, 1))


def xi_rate(ff):
    """max_j |D_{X_j} xi| / |X_j| on a one-point frame: the scale that S1,
    and sigma for n = 1, carry, since both move with xi."""
    return max(np.linalg.norm(d) / np.linalg.norm(vec_values(X))
               for d, X in zip(ff.xi_partials(), ff.X))


def regression_values(scene, t):
    """Sorted inverses of the real nonzero eigenvalues of the shape
    operator, as plain floats.  Zero and real are judged to within
    REGRESSION_DEDUPE_TOL times :func:`xi_rate`, which scales like S1;
    values that close relative to their size count once."""
    return _regression_values(frame_fields(scene, t, 1))


def _regression_values(ff):
    eigenvalues = np.linalg.eigvals(_shape_operator(ff))
    tol = REGRESSION_DEDUPE_TOL * xi_rate(ff)
    values = sorted(float(1.0 / ev.real) for ev in eigenvalues
                    if abs(ev.imag) <= tol and abs(ev.real) > tol)
    deduped = []
    for v in values:
        if not deduped or abs(v - deduped[-1]) > REGRESSION_DEDUPE_TOL * abs(v):
            deduped.append(v)
    return deduped


class Mesh(Record):
    """Envelope samples over a tensor grid.

    For n = 1 the vertices live in R^3 and ``faces`` is an (F, 4) intp
    array of quads; for n >= 2 the mesh is a point cloud, with (0, 4)
    faces.  ``regression_gap`` stores
    det(u S1(t) - Id) per vertex and ``singular`` flags near-zero gaps.
    Degenerate vertices are NaN rows listed in ``diagnostics``.
    """

    vertices: np.ndarray
    faces: np.ndarray
    regression_gap: np.ndarray
    singular: np.ndarray
    grid_shape: tuple
    diagnostics: list = Factory(list)


def grid_axis(lo, hi, count):
    """The samples of one grid axis; EmptyGridError, before anything is
    allocated, for a count below 1 or a span that is not finite."""
    if count < 1:
        raise EmptyGridError("axis count must be at least 1")
    if not math.isfinite(float(hi) - float(lo)):
        raise EmptyGridError(f"axis span from {lo} to {hi} is not finite")
    return np.linspace(lo, hi, count)


def envelope_mesh(scene, t_axes, u_range):
    """Sample the envelope over a tensor grid.

    ``t_axes`` is one (lo, hi, count) triple per parameter axis and
    ``u_range`` the triple for the ruling parameter.  A grid point where
    the geometry fails (a degenerate frame, a point outside the domain of
    f or g, ...) gives NaN vertices plus a diagnostic, not a failure.
    """
    n = scene.n
    if len(t_axes) != n:
        raise EmptyGridError(f"expected {n} parameter axes, got {len(t_axes)}")
    axes = [grid_axis(*axis) for axis in t_axes]
    u_values = grid_axis(*u_range)
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    phi, xi = np.full((2, len(points), n + 2), np.nan)
    S1 = np.full((len(points), n, n), np.nan)
    errors = read_grid(scene, points, 1, lambda ff: (
        vec_values(ff.phi), vec_values(ff.xi), _shape_operator(ff)), (phi, xi, S1))
    vertices = (phi[:, None] + u_values[:, None] * xi[:, None]).reshape(-1, n + 2)
    gaps = np.full((len(points), len(u_values)), np.nan)
    ok = np.ones(len(points), dtype=bool)
    ok[list(errors)] = False
    gaps[ok] = np.linalg.det(u_values[:, None, None] * S1[ok, None] - np.eye(n))
    gaps = gaps.reshape(-1)
    diagnostics = [f"t={points[r].tolist()}: {errors[r]}" for r in sorted(errors)]
    singular = np.abs(gaps) < SINGULAR_FLAG_TOL
    nu = len(u_values)
    # Quads (a, a + 1, a + nu + 1, a + nu), a off the last t row and u column; none for n >= 2.
    corners = np.arange(len(points) * nu if n == 1 else 0, dtype=np.intp).reshape(-1, nu)
    faces = corners[:-1, :-1].reshape(-1, 1) + np.array([0, 1, nu + 1, nu], dtype=np.intp)
    shape = tuple(len(a) for a in axes) + (len(u_values),)
    return Mesh(vertices, faces, gaps, singular, shape, diagnostics)


# -- export ---------------------------------------------------------------


def _write_rows(handle, template, rows):
    """Write a 2-D array through the %-row ``template``, BATCH_ROWS rows per write."""
    for start in range(0, len(rows), BATCH_ROWS):
        block = rows[start:start + BATCH_ROWS]
        handle.write(template * len(block) % tuple(block.ravel().tolist()))


def write_obj(mesh, path):
    """ASCII OBJ with quad faces; only meaningful for vertices in R^3.

    Vertices with a non-finite coordinate (diagnosed grid points) are left
    out, the rest renumbered, and faces touching them dropped.  Numbers
    are written as %.17g, in blocks of BATCH_ROWS rows."""
    if mesh.vertices.shape[1] != 3:
        raise EmptyGridError("OBJ export requires vertices in R^3 (n = 1 scenes)")
    keep = np.isfinite(mesh.vertices).all(axis=1)
    number = np.cumsum(keep)  # the 1-based OBJ index of each kept vertex
    faces = mesh.faces[keep[mesh.faces].all(axis=1)]
    with open(path, "w") as handle:
        _write_rows(handle, "v %.17g %.17g %.17g\n", mesh.vertices[keep])
        _write_rows(handle, "f %d %d %d %d\n", number[faces])


def write_ply(mesh, path):
    """ASCII PLY point cloud; the first three coordinates map to x, y, z
    and any remaining ones are kept as extra properties, together with the
    regression gap scalar field.  Vertices with a non-finite coordinate or
    gap are left out.  Numbers are written as %.17g, in blocks of
    BATCH_ROWS rows."""
    dim = mesh.vertices.shape[1]
    names = ["x", "y", "z"][: min(dim, 3)] + [f"c{k}" for k in range(3, dim)] + ["regression_gap"]
    keep = np.isfinite(mesh.vertices).all(axis=1) & np.isfinite(mesh.regression_gap)
    rows = np.column_stack((mesh.vertices[keep], mesh.regression_gap[keep],
                            mesh.singular[keep].astype(bool)))
    with open(path, "w") as handle:
        handle.write(f"ply\nformat ascii 1.0\nelement vertex {len(rows)}\n"
                     + "".join(f"property double {name}\n" for name in names)
                     + "property uchar singular\nend_header\n")
        _write_rows(handle, "%.17g " * (dim + 1) + "%d\n", rows)
