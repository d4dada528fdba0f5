"""The sampled pencil of hyperplane sections: the oracle of the closed-form
Transon plane of ``darboux.transon``.

On the Monge frame of :func:`darboux.transon.monge_frame` the pencil of
hyperplanes through the tangent subspace is y = lambda z, and each section
is the graph z = Z(x) of Z = W(x, lambda Z), a fixed point settling one
degree a pass.  W is split once into its coefficients W_k(x) of y^k, so a
pass is Horner in y with products in x only; the sections of several
lambdas are the batch rows of one fixed point.  Each section's Blaschke
normal, re-embedded in the ambient coordinates, is one sampled normal;
the plane is the pair DEFAULT_PAIR's span, or a least-squares fit over
DEFAULT_SWEEP when that pair is near parallel.
"""

import numpy as np

from darboux import transon
from darboux.errors import NeedMoreSectionsError, ReversionFailureError
from darboux.jets import Jet, check, first_failing, fixed_point, jet_space
from darboux.metricbundle import blaschke_normal
from darboux.record import Record
from darboux.transon import MONGE_ORDER, monge_frame

DEFAULT_SWEEP = transon.DEFAULT_SWEEP
DEFAULT_PAIR = (0.0, 0.1)


class Section(Record):
    """A hyperplane section y = lambda z re-graphed over the tangential
    coordinates; ``graph`` is the jet of the height over x, and ``basis``
    the Monge-coordinate basis of the hyperplane."""

    lam: float
    graph: object
    basis: np.ndarray
    monge: object


def hyperplane_section(scene, t0, lam):
    """Section of the hypersurface by the pencil hyperplane y = lambda z.

    z = W(x, lambda z) is solved by a fixed point in x; ReversionFailureError when its
    last pass moved the graph by a non-finite amount or over 1e-9 of its largest coefficient.
    """
    mf = monge_frame(scene, t0)
    return Section(float(lam), section_graph(scene, mf, lam), _basis(scene.n, lam), mf)


def height(mf, y):
    """W(x, y) for a jet y over x with zero value part, by Horner in y."""
    acc = mf.W_y[-1]
    for w in reversed(mf.W_y[:-1]):
        acc = acc * y + w
    return acc


def section_graph(scene, mf, lam):
    """The graph of :func:`hyperplane_section` on the Monge frame ``mf``,
    from Z = 0, exact through degree 1; a pass at order d settles degree d.
    For a sequence ``lam`` the graphs are the batch rows of one jet, and
    ReversionFailureError names the first failing lambda."""
    nsp = jet_space(scene.n, MONGE_ORDER)
    lam = np.asarray(lam, dtype=float)

    def step(Z, d):
        return height(mf, Jet(nsp, Z.coeffs, d) * lam)

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


def normals(scene, mf, lams):
    """lambda -> section normal in the ambient coordinates, for the distinct
    lambdas of ``lams``: their sections as one batch, then one batched
    Blaschke read."""
    new = list(dict.fromkeys(lams))
    zeta = blaschke_normal(section_graph(scene, mf, new), scene.n)[0]
    return {lam: mf.vector_from_monge(z @ _basis(scene.n, lam)) for lam, z in zip(new, zeta)}


def section_blaschke_normal(scene, t0, lam):
    """Blaschke normal of the section at the base point, re-embedded in the
    original ambient coordinates."""
    return normals(scene, monge_frame(scene, t0), [lam])[lam]


def _unit_rows(found, lams):
    return np.array([found[lam] / np.linalg.norm(found[lam]) for lam in lams])


def pencil_plane(scene, t0, pair=DEFAULT_PAIR):
    """Orthonormal rows of the plane of the section normals: the span of the
    two sections of ``pair``, or, when their unit normals are near parallel
    (|r22| of their QR below 1e-8), the least-squares plane of the
    DEFAULT_SWEEP normals."""
    mf = monge_frame(scene, t0)
    q, r = np.linalg.qr(_unit_rows(normals(scene, mf, pair), pair).T)
    if abs(r[1, 1]) < 1e-8:
        return np.linalg.svd(_unit_rows(normals(scene, mf, DEFAULT_SWEEP), DEFAULT_SWEEP))[2][:2]
    return q[:, :2].T


def planarity_residual(scene, t0, lam_list):
    """Largest distance of a normalized section normal to the fitted plane."""
    lams = list(lam_list)
    if len(set(lams)) < 3:
        raise NeedMoreSectionsError(f"need at least 3 distinct sections, got {len(set(lams))}")
    unit = _unit_rows(normals(scene, monge_frame(scene, t0), lams), lams)
    plane = np.linalg.svd(unit)[2][:2]
    return float(np.linalg.norm(unit - unit @ plane.T @ plane, axis=1).max())


def projected_submanifold_normal(scene, t0):
    """Blaschke normal of the projection of N along the Darboux direction
    into the lambda = 0 hyperplane, in original ambient coordinates."""
    mf = monge_frame(scene, t0)
    zeta = blaschke_normal(height(mf, mf.G), scene.n)[0]
    return mf.vector_from_monge(zeta @ _basis(scene.n, 0.0))
