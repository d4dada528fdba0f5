"""The Transon plane of a point of N, in closed form, and its angles to the
affine normal plane.

The hyperplanes through the tangent subspace p0 + T_pN form the pencil
mu(v) = lambda nu(v), where mu = (-grad g, 1, 0) annihilates T_pN and
nu = (-grad f, 1) annihilates T_pM.  Each one cuts M in a hypersurface of
that hyperplane, whose Blaschke normal at p0 is N(lambda); Transon's
theorem is that these normals sweep a plane.  Here that plane is read with
no section solved:

- A Blaschke normal reads only the 3-jet of its graph
  (:func:`darboux.metricbundle.blaschke_normal`).
- In Monge position (:func:`monge_frame`) M is z = W(x, y) with no value,
  no linear part and no mixed x-y quadratic term, and hyperplane lambda is
  y = lambda z.  Its section is the graph z = Z(x) of Z = W(x, lambda Z),
  and Z = O(|x|^2) puts lambda Z into W only at degree 4 and up.  So the
  section's 3-jet, and with it its Blaschke normal, is the same for every
  lambda; only the embedding (x, z) -> (x, lambda z, z) moves: the
  normal's Monge z-part nu(N(0)) stays, and its y-part is lambda times it.
  The Monge y-axis, mapped back, is the graph-gauge Darboux vector
  alpha X + psi_y (the normalization solves h2_prov alpha = -tau12_prov,
  as the Darboux solve does), so N(lambda) = N(0) + lambda nu(N(0)) xi_graph.
- N(0) needs no Monge position.  The section of the hyperplane
  y - y0 = m . (t - t0), m = grad g(t0), is the graph of
  w(a) = f(t0 + a, y0 + m . a) over a = t - t0, embedded by
  (a, z) -> (a, m . a, z).  Its Blaschke normal N0 = (Z, m . Z, phi + Z . grad w)
  spans the line of N(0): an affine change of the hyperplane's
  coordinates scales a Blaschke normal by a positive factor.
- nu(N0) = phi, since grad w = f_t + f_y m, and xi = lam xi_graph has
  nu(xi) = 0 and mu(xi) = lam, the gauge factor.  N(lambda) is the vector
  N0 + s xi in hyperplane lambda: N(lambda) = N0 + lambda (phi / lam) xi.
- phi > 0 puts N0 off T_pM, where xi lies, so N0 and xi always span the
  plane, and a residual of the normals' planarity measures rounding.
"""

from __future__ import annotations


import numpy as np

from . import expr as ex
from .errors import DegenerateError, NeedMoreSectionsError
from .frame import DEGENERACY_RTOL
from .jets import (Jet, fitted, fixed_point, hadamard, jet_dot, jet_hessian, jet_space,
                   partial_values, signed_columns, unstacked, vanishes, vec_values)
from .metricbundle import affine_normal_plane, blaschke_normal, bundle_fields
from .record import Factory, Record

DEFAULT_SWEEP = (-0.2, -0.1, 0.0, 0.1, 0.2)
COINCIDE_TOL = 1e-6
MONGE_ORDER = 5


class MongeFrame(Record):
    """Affine normalization to Monge position at a base point.

    ``linear`` maps ambient offsets to Monge coordinates and ``inverse``
    maps them back; the hypersurface is z = W(x, y) with W starting at the
    quadratic form (sum eps_i x_i^2 + a y^2) / 2, and N is the graph
    y = G(x); ``W_y[k]`` is the jet in x of the coefficient of y^k in W.
    """

    base_point: np.ndarray
    linear: np.ndarray
    inverse: np.ndarray
    W: object
    W_y: list
    G: object
    eps: np.ndarray
    a: float

    def vector_to_monge(self, v):
        return self.linear @ np.asarray(v, dtype=float)

    def vector_from_monge(self, v):
        return self.inverse @ np.asarray(v, dtype=float)


# No library path calls monge_frame: the Transon plane is read in closed
# form.  It stays because the benchmark's tracer (perfbench/tracer.py)
# resolves transon.monge_frame by name, and the tests' pencil of sections
# is built on it.
def monge_frame(scene, t0):
    """Normalize the scene to Monge position at the parameter point t0,
    with jets exact through MONGE_ORDER.

    The normalization is one linear map M from Monge offsets (x, y) to
    (t, y) offsets, the product shear @ kill @ scale: ``scale`` sends the
    tangential Hessian block to diag(eps), ``kill`` removes the mixed t-y
    block and ``shear`` flattens the tangent plane of N to y = 0; they read
    f only through its order-2 jet and g through its order-1 jet.  W is f
    evaluated once on the jets of M, its value and linear slots zeroed,
    and G solves the equation of N by a ``fixed_point`` that evaluates g
    on the t-offsets of M.  Raises DegenerateError where the
    tangential Hessian block, h2_prov at the point, has a det that vanishes
    against DEGENERACY_RTOL times its Hadamard bound.
    """
    order = MONGE_ORDER
    n = scene.n
    t0 = np.atleast_1d(np.asarray(t0, dtype=float))
    g1 = ex.eval_jet(scene.g, scene.t_names, list(t0), 1)
    y0 = float(g1.value)
    m_vec = partial_values([g1])[:, 0]
    base = list(t0) + [y0]
    f2 = ex.eval_jet(scene.f, scene.f_names, base, 2)
    grad = partial_values([f2])[:, 0]

    # shear: y = y'' + m . t
    shear = np.eye(n + 1)
    shear[n, :n] = m_vec
    H = shear.T @ jet_hessian(f2, n + 1) @ shear
    Q = H[:n, :n]
    det = np.linalg.det(Q)
    if vanishes(det, hadamard(Q), DEGENERACY_RTOL):
        raise DegenerateError(
            f"non-degeneracy determinant {det:.3e} at t={t0.tolist()}", determinant=det)
    # kill: t'' = t''' - c y
    kill = np.eye(n + 1)
    kill[:n, n] = -np.linalg.solve(Q, H[:n, n])
    eigenvalues, vectors = np.linalg.eigh(Q)
    idx = np.argsort(-eigenvalues)
    eigenvalues = eigenvalues[idx]
    vectors = signed_columns(vectors[:, idx])
    # scale: t''' = A x
    scale = np.eye(n + 1)
    scale[:n, :n] = vectors @ np.diag(1.0 / np.sqrt(np.abs(eigenvalues)))
    M = shear @ kill @ scale

    sp = jet_space(n + 1, order)
    coords = Jet.coordinates(sp, np.zeros(n + 1))
    offsets = [jet_dot(coords, row) for row in M]
    W = ex.eval_expr(scene.f, {name: o + b for name, o, b in zip(scene.f_names, offsets, base)})
    W.coeffs[: sp.prefix[2]] = 0.0

    # W_y: slot alpha of W lands in row alpha_y, at the slot of alpha_x.
    nsp = jet_space(n, order)
    rows = np.zeros((order + 1, nsp.size))
    rows[sp.exponents[:, n], nsp.slot(sp.exponents[:, :n].T)] = fitted(W.coeffs, sp.size)

    # N: y'' = g(t0 + t) - y0 - m . t at the t-offsets t = M (x, G(x)).
    ncoords = Jet.coordinates(nsp, np.zeros(n))
    x_part = [jet_dot(ncoords, row[:n]) for row in M[:n]]

    def step(G, d):
        G = Jet(nsp, G.coeffs, d)
        t_off = [x + G * float(row[n]) for x, row in zip(x_part, M[:n])]
        g = ex.eval_expr(scene.g, {name: o + b for name, o, b in zip(scene.t_names, t_off, t0)})
        return Jet(nsp, (g - y0 - jet_dot(t_off, m_vec)).coeffs, d)

    G, _ = fixed_point(step, Jet.constant(nsp, 0.0), order, 1)

    to_ambient = np.eye(n + 2)
    to_ambient[: n + 1, : n + 1] = M
    to_ambient[n + 1, : n + 1] = grad @ M
    return MongeFrame(
        base_point=np.array(base + [float(f2.value)]),
        linear=np.linalg.inv(to_ambient),
        inverse=to_ambient,
        W=W,
        W_y=unstacked(Jet(nsp, rows, order)),
        G=G,
        eps=np.sign(eigenvalues),
        a=2.0 * float(W.coefficient((0,) * n + (2,))),
    )


def _pencil(scene, t):
    """(N0, c, xi, eta, p0) at t: the section normal N0 of the hyperplane
    y - y0 = m . (t - t0), read on one (n, 3) jet of w, and c = phi / lam,
    so that N(lambda) = N0 + lambda c xi (see the module docstring); xi and
    eta span the affine normal plane, and p0 is the point."""
    n = scene.n
    ff = bundle_fields(scene, t).ff
    xi, eta = affine_normal_plane(scene, t)
    m = partial_values([ff.g_jet])[:, 0]
    a = Jet.coordinates(jet_space(n, 3), np.zeros(n))
    env = [x + t0 for x, t0 in zip(a, ff.t0)] + [jet_dot(a, m) + float(ff.g_jet.value)]
    zeta, _H, phi, _Z = blaschke_normal(ex.eval_expr(scene.f, dict(zip(scene.f_names, env))), n)
    N0 = np.concatenate([zeta[:n], [zeta[:n] @ m], zeta[n:]])
    return N0, float(phi.value) / float(ff.lam.value), xi, eta, vec_values(ff.phi)


def _unit_rows(vectors):
    """The rows at unit length, each first divided by its largest entry, so
    that no square overflows where a huge lambda makes a huge normal."""
    vectors = np.asarray(vectors, dtype=float)
    vectors = vectors / np.abs(vectors).max(axis=1, keepdims=True)
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def _plane(N0, xi):
    """Orthonormal rows spanning N0 and xi: N0's direction, then xi's part
    orthogonal to it, each oriented as the vector it comes from (the QR
    with a positive diagonal, so no sign rests on a rounded zero)."""
    q, r = np.linalg.qr(np.column_stack([N0, xi]))
    return (q * np.sign(np.diag(r))).T


def _planarity_residual(normals, lams):
    """Largest distance of a unit normal to the plane fitted to all of them."""
    if len(set(lams)) < 3:
        raise NeedMoreSectionsError(f"need at least 3 distinct sections, got {len(set(lams))}")
    normals = _unit_rows(normals)
    plane = np.linalg.svd(normals)[2][:2]
    return float(np.linalg.norm(normals - normals @ plane.T @ plane, axis=1).max())


def _versus_normal_plane(xi, eta, plane):
    angles = principal_angles(np.array([xi, eta]), plane)
    verdict = "coincide" if bool((angles < COINCIDE_TOL).all()) else "distinct"
    return angles, verdict


def transon_plane(scene, t0):
    """Orthonormal basis of the plane the section normals sweep: span(N0, xi)."""
    N0, _c, xi, _eta, _p0 = _pencil(scene, t0)
    return _plane(N0, xi)


def principal_angles(basis_a, basis_b):
    """Principal angles between two subspaces given by row bases, ascending;
    below pi/4 read from their sines, as arccos resolves them only to sqrt(eps)."""
    qa, _ = np.linalg.qr(np.asarray(basis_a, dtype=float).T)
    qb, _ = np.linalg.qr(np.asarray(basis_b, dtype=float).T)
    cos = np.linalg.svd(qa.T @ qb, compute_uv=False)
    sin = np.sort(np.linalg.svd(qb - qa @ (qa.T @ qb), compute_uv=False))[:len(cos)]
    return np.where(sin < 0.5**0.5, np.arcsin(sin.clip(max=1.0)), np.arccos(cos.clip(max=1.0)))


def transon_vs_normal_plane(scene, t):
    """Principal angles between the affine normal plane and the plane of
    section normals; verdict "coincide" when both are below tolerance."""
    N0, _c, xi, eta, _p0 = _pencil(scene, t)
    return _versus_normal_plane(xi, eta, _plane(N0, xi))


class TransonReport(Record):
    p0: list
    lambdas: list
    normals: list
    plane_basis: list
    residual: float
    principal_angles: list
    verdict: str
    diagnostics: list = Factory(list)


def transon_report(scene, t, lam_list=None):
    """Section normals N(lambda) = N0 + lambda c xi, their planarity
    residual, the swept plane and its angles to the affine normal plane,
    all from one Blaschke read (see the module docstring)."""
    lams = list(lam_list) if lam_list is not None else list(DEFAULT_SWEEP)
    N0, c, xi, eta, p0 = _pencil(scene, t)
    normals = [N0 + lam * c * xi for lam in lams]
    residual = _planarity_residual(normals, lams)
    plane = _plane(N0, xi)
    angles, verdict = _versus_normal_plane(xi, eta, plane)
    return TransonReport(
        p0=p0.tolist(),
        lambdas=lams,
        normals=[v.tolist() for v in normals],
        plane_basis=plane.tolist(),
        residual=residual,
        principal_angles=angles.tolist(),
        verdict=verdict,
    )
