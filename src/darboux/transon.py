"""Hyperplane sections through a fixed tangent subspace, their Blaschke
normals, and the plane they sweep.

All sections are computed after an affine normalization that moves the
base point to the origin, flattens the hypersurface tangent plane to
z = 0, aligns the submanifold tangent space with the first n coordinate
axes, kills the mixed t-y Hessian block and diagonalizes the tangential
Hessian to unit size.  In those coordinates the pencil of hyperplanes
through the tangent subspace is y = lambda z, and each section is
re-graphed by series reversion of the implicit equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import (
    DegenerateSectionError,
    NeedMoreSectionsError,
    ReversionFailureError,
)
from .frame import vec_values
from .jets import Jet, jet_compose, jet_dot, jet_hessian, jet_space
from .metricbundle import blaschke_from_jet, bundle_fields

DEFAULT_SWEEP = (-0.2, -0.1, 0.0, 0.1, 0.2)
DEFAULT_PAIR = (0.0, 0.1)
PLANARITY_TOL = 1e-6
COINCIDE_TOL = 1e-6
MONGE_ORDER = 5


@dataclass
class MongeFrame:
    """Affine normalization to Monge position at a base point.

    ``linear`` maps ambient offsets to Monge coordinates; the hypersurface
    is z = W(x, y) with W starting at the quadratic form
    (sum eps_i x_i^2 + a y^2) / 2, and N is the graph y = G(x).
    """

    base_point: np.ndarray
    linear: np.ndarray
    inverse: np.ndarray
    W: object
    G: object
    eps: np.ndarray
    a: float

    def vector_to_monge(self, v):
        return self.linear @ np.asarray(v, dtype=float)

    def vector_from_monge(self, v):
        return self.inverse @ np.asarray(v, dtype=float)


def monge_frame(scene, t0):
    """Normalize the scene to Monge position at the parameter point t0,
    with jets exact through MONGE_ORDER."""
    order = MONGE_ORDER
    n = scene.n
    t0 = np.atleast_1d(np.asarray(t0, dtype=float))
    names = scene.f_names
    y0 = ex.eval_scalar(scene.g, scene.t_names, list(t0))
    base = list(t0) + [y0]
    m = n + 1
    w_jet = ex.eval_jet(scene.f, names, base, order)
    f0 = float(w_jet.value)
    grad = np.array([float(w_jet.derivative(k).value) for k in range(m)])
    p0 = np.array(base + [f0])

    sp = jet_space(m, order)
    coords = Jet.coordinates(sp, np.zeros(m))
    # the jet coefficient table of f at `base` is the germ at zero offsets
    W1 = Jet(sp, w_jet.coeffs.copy(), w_jet.order) - f0
    for k in range(m):
        W1 = W1 - coords[k] * grad[k]

    g_jet = ex.eval_jet(scene.g, scene.t_names, list(t0), order)
    m_vec = np.array([float(g_jet.derivative(k).value) for k in range(n)])
    # shear: old y = y'' + m . t
    inners = [coords[k] for k in range(n)] + [
        coords[n] + jet_dot(coords[:n], m_vec)
    ]
    W2 = jet_compose(W1, inners)
    nsp = jet_space(n, order)
    ncoords = Jet.coordinates(nsp, np.zeros(n))
    g2 = Jet(nsp, g_jet.coeffs.copy(), g_jet.order) - y0
    for k in range(n):
        g2 = g2 - ncoords[k] * m_vec[k]

    H2 = jet_hessian(W2, n + 1)
    Q = H2[:n, :n]
    bvec = H2[:n, n]
    c_vec = np.linalg.solve(Q, bvec)
    # substitution t'' = t''' - c y
    inners = [coords[k] - coords[n] * float(c_vec[k]) for k in range(n)] + [coords[n]]
    W3 = jet_compose(W2, inners)
    g3 = _regraph(g2, c_vec, order)

    Q3 = jet_hessian(W3, n)
    eigenvalues, vectors = np.linalg.eigh(Q3)
    idx = np.argsort(-eigenvalues)
    eigenvalues = eigenvalues[idx]
    vectors = vectors[:, idx]
    for col in range(n):
        lead = np.argmax(np.abs(vectors[:, col]))
        if vectors[lead, col] < 0:
            vectors[:, col] = -vectors[:, col]
    A = vectors @ np.diag(1.0 / np.sqrt(np.abs(eigenvalues)))
    inners = [
        jet_dot(coords, A[k]) for k in range(n)
    ] + [coords[n]]
    W4 = jet_compose(W3, inners)
    g4 = jet_compose(g3, [jet_dot(ncoords, A[k]) for k in range(n)])
    eps = np.sign(eigenvalues)
    a = 2.0 * float(W4.coefficient((0,) * n + (2,)))

    L_a = np.eye(n + 2)
    L_a[n + 1, : n + 1] = -grad
    L_b = np.eye(n + 2)
    L_b[n, :n] = -m_vec
    L_c = np.eye(n + 2)
    L_c[:n, n] = c_vec
    L_d = np.eye(n + 2)
    L_d[:n, :n] = np.linalg.inv(A)
    linear = L_d @ L_c @ L_b @ L_a
    return MongeFrame(
        base_point=p0,
        linear=linear,
        inverse=np.linalg.inv(linear),
        W=W4,
        G=g4,
        eps=eps,
        a=a,
    )


def _regraph(g2, c_vec, order):
    """Solve y = g2(t - c y) for y = g3(t) by fixed-point iteration."""
    n = g2.space.nvars
    nsp = jet_space(n, order)
    coords = Jet.coordinates(nsp, np.zeros(n))
    g3 = Jet.constant(nsp, 0.0)
    for _ in range(order + 1):
        inners = [coords[k] - g3 * float(c_vec[k]) for k in range(n)]
        g3 = Jet(nsp, jet_compose(g2, inners).coeffs, order)
    return g3


@dataclass
class Section:
    """A hyperplane section y = lambda z re-graphed over the tangential
    coordinates; ``graph`` is the jet of the height over x, and ``basis``
    the Monge-coordinate basis of the hyperplane."""

    lam: float
    graph: object
    basis: np.ndarray
    monge: MongeFrame


def hyperplane_section(scene, t0, lam):
    """Section of the hypersurface by the pencil hyperplane y = lambda z.

    The implicit equation z = W(x, lambda z) is solved by series
    reversion; ReversionFailure signals a residual above tolerance.
    """
    return _section(scene, monge_frame(scene, t0), lam)


def _section(scene, mf, lam):
    """:func:`hyperplane_section` on the Monge frame ``mf``."""
    n = scene.n
    nsp = jet_space(n, MONGE_ORDER)
    coords = Jet.coordinates(nsp, np.zeros(n))
    Z = Jet.constant(nsp, 0.0)
    for _ in range(MONGE_ORDER + 1):
        Z = Jet(nsp, jet_compose(mf.W, coords + [Z * float(lam)]).coeffs, MONGE_ORDER)
    residual = Z - jet_compose(mf.W, coords + [Z * float(lam)])
    res = float(np.abs(np.asarray(residual.coeffs, dtype=float)).max())
    scale = max(float(np.abs(np.asarray(Z.coeffs, dtype=float)).max()), 1.0)
    if res > 1e-9 * scale:
        raise ReversionFailureError(
            f"section reversion residual {res:.3e} at lambda={lam}"
        )
    basis = np.zeros((n + 1, n + 2))
    for k in range(n):
        basis[k, k] = 1.0
    basis[n, n] = lam
    basis[n, n + 1] = 1.0
    return Section(lam=float(lam), graph=Z, basis=basis, monge=mf)


def section_blaschke_normal(scene, t0, lam):
    """Blaschke normal of the section at the base point, re-embedded in the
    original ambient coordinates."""
    return _section_normal(scene, monge_frame(scene, t0), lam)


def _section_normal(scene, mf, lam):
    """:func:`section_blaschke_normal` on the Monge frame ``mf``."""
    section = _section(scene, mf, lam)
    n = scene.n
    hess = jet_hessian(section.graph, n)
    if abs(np.linalg.det(hess)) < 1e-10:
        raise DegenerateSectionError(
            f"section Hessian degenerate at lambda={lam}"
        )
    _h, zeta, _cubic, _scale = blaschke_from_jet(section.graph, n)
    monge_vec = zeta[:n] @ section.basis[:n] + zeta[n] * section.basis[n]
    return section.monge.vector_from_monge(monge_vec)


def _normal_of(scene, mf):
    """lambda -> section normal, from the Monge frame ``mf``, solving the
    section of each distinct lambda once."""
    known = {}

    def normal(lam):
        if lam not in known:
            known[lam] = _section_normal(scene, mf, lam)
        return known[lam]

    return normal


def _unit_rows(normal, lams):
    return np.array([v / np.linalg.norm(v) for v in map(normal, lams)])


def _plane(normal):
    q, r = np.linalg.qr(_unit_rows(normal, DEFAULT_PAIR).T)
    if abs(r[1, 1]) < 1e-8:
        _u, _s, vt = np.linalg.svd(_unit_rows(normal, DEFAULT_SWEEP))
        return vt[:2]
    return q[:, :2].T


def _planarity_residual(normal, lams):
    if len(lams) < 3:
        raise NeedMoreSectionsError(f"need at least 3 sections, got {len(lams)}")
    normals = _unit_rows(normal, lams)
    _u, _s, vt = np.linalg.svd(normals)
    plane = vt[:2]
    projected = normals @ plane.T @ plane
    return float(np.linalg.norm(normals - projected, axis=1).max())


def _versus_normal_plane(scene, t, plane):
    b = bundle_fields(scene, t)
    normal_basis = np.array([vec_values(b.ff.xi), vec_values(b.eta)])
    angles = principal_angles(normal_basis, plane)
    verdict = "coincide" if bool((angles < COINCIDE_TOL).all()) else "distinct"
    return angles, verdict


def transon_plane(scene, t0):
    """Orthonormal basis of the plane swept by the section normals.

    Built from the two sections of DEFAULT_PAIR; a near-parallel pair falls
    back to a least-squares fit over DEFAULT_SWEEP.
    """
    return _plane(_normal_of(scene, monge_frame(scene, t0)))


def transon_planarity_residual(scene, t0, lam_list):
    """Largest distance of a normalized section normal to the fitted plane."""
    return _planarity_residual(_normal_of(scene, monge_frame(scene, t0)), list(lam_list))


def principal_angles(basis_a, basis_b):
    """Principal angles between two subspaces given by row bases."""
    qa, _ = np.linalg.qr(np.asarray(basis_a, dtype=float).T)
    qb, _ = np.linalg.qr(np.asarray(basis_b, dtype=float).T)
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(sv, -1.0, 1.0))


def transon_vs_normal_plane(scene, t):
    """Principal angles between the affine normal plane and the plane of
    section normals; verdict "coincide" when both are below tolerance."""
    return _versus_normal_plane(scene, t, transon_plane(scene, t))


def projected_submanifold_normal(scene, t0):
    """Blaschke normal of the projection of N along the Darboux direction
    into the lambda = 0 hyperplane, in original ambient coordinates."""
    mf = monge_frame(scene, t0)
    n = scene.n
    nsp = jet_space(n, MONGE_ORDER)
    coords = Jet.coordinates(nsp, np.zeros(n))
    w = jet_compose(mf.W, coords + [mf.G])
    _h, zeta, _cubic, _scale = blaschke_from_jet(w, n)
    basis = np.zeros((n + 1, n + 2))
    for k in range(n):
        basis[k, k] = 1.0
    basis[n, n + 1] = 1.0
    monge_vec = zeta[:n] @ basis[:n] + zeta[n] * basis[n]
    return mf.vector_from_monge(monge_vec)


@dataclass
class TransonReport:
    p0: list
    lambdas: list
    normals: list
    plane_basis: list
    residual: float
    principal_angles: list
    verdict: str
    diagnostics: list = field(default_factory=list)


def transon_report(scene, t, lam_list=None):
    """Section normals, their planarity residual, the swept plane and its
    angles to the affine normal plane, from one Monge frame and one
    section per distinct lambda."""
    lams = list(lam_list) if lam_list is not None else list(DEFAULT_SWEEP)
    mf = monge_frame(scene, t)
    normal = _normal_of(scene, mf)
    normals = [normal(lam).tolist() for lam in lams]
    residual = _planarity_residual(normal, lams)
    plane = _plane(normal)
    angles, verdict = _versus_normal_plane(scene, t, plane)
    return TransonReport(
        p0=mf.base_point.tolist(),
        lambdas=lams,
        normals=normals,
        plane_basis=plane.tolist(),
        residual=residual,
        principal_angles=angles.tolist(),
        verdict=verdict,
    )
