"""Hyperplane sections through a fixed tangent subspace, their Blaschke
normals, and the plane they sweep.

All sections are computed after an affine normalization that moves the
base point to the origin, flattens the hypersurface tangent plane to
z = 0, aligns the submanifold tangent space with the first n coordinate
axes, kills the mixed t-y Hessian block and diagonalizes the tangential
Hessian to unit size.  The normalization is one matrix, applied where f
and g are evaluated; no jet is composed with it.  In those coordinates the
pencil of hyperplanes through the tangent subspace is y = lambda z, and
each section is the graph z = Z(x) of Z = W(x, lambda Z), a fixed point
settling one degree a pass.  W is split once into its coefficients W_k(x)
of y^k, so a pass is Horner in y with products in x only; the sections of
several lambdas are the batch rows of one fixed point.
"""

from __future__ import annotations


import numpy as np

from . import expr as ex
from .errors import (
    DegenerateError,
    NeedMoreSectionsError,
    ReversionFailureError,
)
from .frame import DEGENERACY_RTOL
from .jets import (Jet, check, first_failing, fixed_point, hadamard, jet_dot, jet_hessian,
                   jet_space, unstacked, vanishes)
from .metricbundle import affine_normal_plane, blaschke_normal
from .record import Factory, Record

DEFAULT_SWEEP = (-0.2, -0.1, 0.0, 0.1, 0.2)
DEFAULT_PAIR = (0.0, 0.1)
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
    m_vec = np.array([float(g1.derivative(k).value) for k in range(n)])
    base = list(t0) + [y0]
    f2 = ex.eval_jet(scene.f, scene.f_names, base, 2)
    grad = np.array([float(f2.derivative(k).value) for k in range(n + 1)])

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
    vectors = vectors[:, idx]
    for col in range(n):
        lead = np.argmax(np.abs(vectors[:, col]))
        if vectors[lead, col] < 0:
            vectors[:, col] = -vectors[:, col]
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
    rows[sp.exponents[:, n], nsp.slot(sp.exponents[:, :n].T)] = W.coeffs

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


class Section(Record):
    """A hyperplane section y = lambda z re-graphed over the tangential
    coordinates; ``graph`` is the jet of the height over x, and ``basis``
    the Monge-coordinate basis of the hyperplane."""

    lam: float
    graph: object
    basis: np.ndarray
    monge: MongeFrame


def hyperplane_section(scene, t0, lam):
    """Section of the hypersurface by the pencil hyperplane y = lambda z.

    z = W(x, lambda z) is solved by a fixed point in x; ReversionFailureError when its
    last pass moved the graph by a non-finite amount or over 1e-9 of its largest coefficient.
    """
    mf = monge_frame(scene, t0)
    return Section(float(lam), _section(scene, mf, lam), _basis(scene.n, lam), mf)


def _height(mf, y):
    """W(x, y) for a jet y over x with zero value part, by Horner in y."""
    acc = mf.W_y[-1]
    for w in reversed(mf.W_y[:-1]):
        acc = acc * y + w
    return acc


def _section(scene, mf, lam):
    """The graph of :func:`hyperplane_section` on the Monge frame ``mf``,
    from Z = 0, exact through degree 1; a pass at order d settles degree d.
    For a sequence ``lam`` the graphs are the batch rows of one jet, and
    ReversionFailureError names the first failing lambda."""
    nsp = jet_space(scene.n, MONGE_ORDER)
    lam = np.asarray(lam, dtype=float)

    def step(Z, d):
        return _height(mf, Jet(nsp, Z.coeffs, d) * lam)

    with np.errstate(over="ignore", invalid="ignore"):  # a huge lambda fails the check below
        Z, increment = fixed_point(step, Jet.constant(nsp, 0.0), MONGE_ORDER, 1)
    res = np.abs(increment.coeffs).max(axis=-1)
    bad = ~(res <= 1e-9 * np.abs(Z.coeffs).max(axis=-1))
    check(bad, lambda: ReversionFailureError(f"section reversion residual "
          f"{first_failing(res, bad):.3e} at lambda={first_failing(lam, bad)}"))
    return Z


def _basis(n, lam):
    """Monge basis of the hyperplane y = lambda z: the x axes, (y, z) = (lambda, 1)."""
    basis = np.eye(n + 1, n + 2)
    basis[n, n:] = lam, 1.0
    return basis


def section_blaschke_normal(scene, t0, lam):
    """Blaschke normal of the section at the base point, re-embedded in the
    original ambient coordinates."""
    return _normals(scene, monge_frame(scene, t0), [lam])[lam]


def _normals(scene, mf, lams, known=None):
    """``known`` (lambda -> section normal on the Monge frame ``mf``) with
    the distinct lambdas of ``lams`` it lacks added: their sections as one
    batch, then one batched Blaschke read."""
    known = dict(known or {})
    new = [lam for lam in dict.fromkeys(lams) if lam not in known]
    if new:
        zeta = blaschke_normal(_section(scene, mf, new), scene.n)[0]
        known.update((lam, mf.vector_from_monge(z @ _basis(scene.n, lam)))
                     for lam, z in zip(new, zeta))
    return known


def _unit_rows(normals, lams):
    return np.array([normals[lam] / np.linalg.norm(normals[lam]) for lam in lams])


def _plane(scene, mf, known=None):
    normals = _normals(scene, mf, DEFAULT_PAIR, known)
    q, r = np.linalg.qr(_unit_rows(normals, DEFAULT_PAIR).T)
    if abs(r[1, 1]) < 1e-8:
        normals = _normals(scene, mf, DEFAULT_SWEEP, normals)
        _u, _s, vt = np.linalg.svd(_unit_rows(normals, DEFAULT_SWEEP))
        return vt[:2]
    return q[:, :2].T


def _planarity_residual(scene, mf, lams, known=None):
    if len(set(lams)) < 3:
        raise NeedMoreSectionsError(f"need at least 3 distinct sections, got {len(set(lams))}")
    normals = _unit_rows(_normals(scene, mf, lams, known), lams)
    _u, _s, vt = np.linalg.svd(normals)
    plane = vt[:2]
    projected = normals @ plane.T @ plane
    return float(np.linalg.norm(normals - projected, axis=1).max())


def _versus_normal_plane(scene, t, plane):
    angles = principal_angles(np.array(affine_normal_plane(scene, t)), plane)
    verdict = "coincide" if bool((angles < COINCIDE_TOL).all()) else "distinct"
    return angles, verdict


def transon_plane(scene, t0):
    """Orthonormal basis of the plane swept by the section normals.

    Built from the two sections of DEFAULT_PAIR; a near-parallel pair falls
    back to a least-squares fit over DEFAULT_SWEEP.
    """
    return _plane(scene, monge_frame(scene, t0))


def transon_planarity_residual(scene, t0, lam_list):
    """Largest distance of a normalized section normal to the fitted plane."""
    return _planarity_residual(scene, monge_frame(scene, t0), list(lam_list))


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
    return _versus_normal_plane(scene, t, transon_plane(scene, t))


def projected_submanifold_normal(scene, t0):
    """Blaschke normal of the projection of N along the Darboux direction
    into the lambda = 0 hyperplane, in original ambient coordinates."""
    mf = monge_frame(scene, t0)
    zeta = blaschke_normal(_height(mf, mf.G), scene.n)[0]
    return mf.vector_from_monge(zeta @ _basis(scene.n, 0.0))


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
    """Section normals, their planarity residual, the swept plane and its
    angles to the affine normal plane, from one Monge frame and one
    batch of sections over the distinct lambdas."""
    lams = list(lam_list) if lam_list is not None else list(DEFAULT_SWEEP)
    mf = monge_frame(scene, t)
    known = _normals(scene, mf, lams)
    normals = [known[lam].tolist() for lam in lams]
    residual = _planarity_residual(scene, mf, lams, known)
    plane = _plane(scene, mf, known)
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
