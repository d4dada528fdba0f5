"""Affine metric, affine normal plane bundle, Blaschke data, the
apolarity and equiaffine defects, and the parallel-vector-field existence
test.

The affine metric of a Darboux field xi is the determinant-normalized
bilinear form G(X, Y) = bracket(X_1..X_n, D_X Y, xi) on N.  The affine
normal plane is spanned by xi and the corrected transversal eta that has
unit bracket on a g-orthonormal frame and no eta-component in its
derivative; parallelism of xi is equivalent to the vanishing of the
connection form tau11, to equiaffinity of the induced connection, and to
apolarity of the second cubic form.

The metric is read as values (signature, Gram-Schmidt, compatibility
items).  Its one jet is det A = |det G|^(-1/(n+2)), which eta
differentiates: the g-orthonormal frame E = A X is a value Gram-Schmidt of
the coordinate directions, and A g A^T = diag(+-1).  The Blaschke data of
the hypersurface read the transversal Z only as a value.

The two defects are linear images of tau11, read with no structure solve.
On the coordinate frame {X, xi, eta}, D_i X_j = Gamma_ij^k X_k + h1_ij xi
+ h2_ij eta, D_i xi = -S1 X_i + tau11_i xi (xi is a Darboux field:
tau12 = 0) and D_i eta = -S2 X_i + tau21_i xi (tau22 = 0 by the choice
of eta).  Let theta = det(X_1..X_n, xi, eta), so that G = theta h2.
Unit bracket on E gives det A theta = 1, so theta = |det G|^(1/(n+2));
with det G = theta^n det h2 this is theta^2 = |det h2|, and g = h2.
Differentiating the determinant along X_i,
    D_i log theta = tr Gamma_i + tau11_i + tau22_i = tr Gamma_i + tau11_i.
- Equiaffine defect: the trace sum_k Gamma_ik^k on E is
  A (tr Gamma + dlog det A) = A (tr Gamma - dlog theta) = -A tau11.
- Apolarity defect: C2 = D h2 - Gamma h2 - h2 Gamma + tau12 h1 + tau22 h2
  is the covariant derivative of h2, and its trace against h2^-1 is
  dlog|det h2| - 2 tr Gamma = 2 dlog theta - 2 tr Gamma = 2 tau11.
"""

from __future__ import annotations

import warnings
from functools import cached_property

import numpy as np

from . import expr as ex
from .errors import (
    DegenerateError,
    DegenerateHypersurfaceError,
    EmptyGridError,
    InconclusiveToleranceWarning,
    IndefiniteWarning,
)
from .envelope import grid_axis
from .frame import DEGENERACY_RTOL, READER_ORDER, frame_fields, read_grid, vec_add, vec_scale
from .jets import (any_row, first_failing, hadamard, jet_det, jet_solve, partial_values, vanishes,
                   value_dot, vec_values)
from .record import Factory, Record

FLATNESS_RTOL = 1e-6
LOOP_RTOL = 1e-6
GS_RTOL = 1e-10
# Absolute tolerance of the Blaschke compatibility items.
COMPAT_TOL = 1e-7


# -- affine metric ---------------------------------------------------------


def _value_bracket(columns):
    """The oriented volume bracket of plain vectors (see :mod:`darboux.frame`)."""
    m = np.column_stack(columns)
    m[:, [-2, -1]] = m[:, [-1, -2]]
    return float(np.linalg.det(m))


def _metric(ff, c=None):
    """det G, its sign, the normalized metric g as an (n, n) array and the
    jet of the normalization det A = |det G|^(-1/(n+2)), the one metric jet.

    D_{X_i} X_j has the component h2_prov(X_i, X_j) along e_{n+2} in the
    provisional frame {X, psi_y, e_{n+2}}, and xi is tangent to M, so
    G = [X, e_{n+2}, xi] h2_prov = c h2_prov and det G = c^n det h2_prov,
    with c the gauge factor lam of the frame's Darboux field unless given.
    G and g are values, each product plus 0.0 as in the value slot of a jet
    product.  The frame tests det h2_prov when lam or det_h2_prov is read.
    """
    n = ff.scene.n
    det_h2 = ff.det_h2_prov  # the full Darboux solve, which lam then reads too
    c, c0 = (ff.lam, float(ff.lam.value)) if c is None else (c, c)
    detG = c ** n * det_h2
    sign = 1.0 if detG.value >= 0 else -1.0
    det_A = (detG * sign).fractional_power(1.0 / (n + 2)).reciprocal()
    G = c0 * vec_values(ff.h2_prov) + 0.0
    return float(detG.value), sign, G * float(det_A.value) + 0.0, det_A


def affine_metric(scene, t, xi=None):
    """Normalized affine metric at t; returns (g, signature record).

    G = [X, e_{n+2}, xi] h2_prov (see :func:`_metric`), with the
    bracket the gauge factor lam for the scene's Darboux field.  ``xi`` may
    override that field's value at the point; the identity, and so the
    result, holds for an override tangent to the hypersurface M, and an
    override whose bracket vanishes against DEGENERACY_RTOL times its
    Hadamard bound, over the first n + 1 components of X and xi (the only
    ones it reads), raises DegenerateError.  The normalization uses
    |det G|^(1/(n+2)); the determinant sign is recorded, and an
    IndefiniteWarning is emitted when it is negative.  The metric is the
    normal-plane bundle's; only an override computes one of its own.
    """
    if xi is None:
        b = bundle_fields(scene, t)
        detG, sign, g = b.det_G, b.sign, b.g
    else:
        ff = frame_fields(scene, t, READER_ORDER)
        X = vec_values(ff.X)
        xi = np.asarray(xi, dtype=float)
        c = _value_bracket([*X, vec_values(ff.e_last), xi])
        # The bracket reads only the first n + 1 components of X and xi.
        if vanishes(c, hadamard(np.vstack([X, xi])[:, :scene.n + 1]), DEGENERACY_RTOL):
            raise DegenerateError("override xi has a vanishing bracket", c)
        detG, sign, g, _det_A = _metric(ff, c)
    eigenvalues = np.linalg.eigvalsh(0.5 * (g + g.T))
    signature = (int((eigenvalues > 0).sum()), int((eigenvalues < 0).sum()))
    if detG < 0:
        warnings.warn(
            f"affine metric determinant is negative ({detG:.3e})", IndefiniteWarning
        )
    record = {"det_G": detG, "sign": sign, "signature": signature}
    return g, record


# -- normal plane bundle ---------------------------------------------------


def _orthonormalize(vectors, metric, isotropic):
    """Gram-Schmidt of ``vectors`` against the symmetric matrix ``metric``,
    pseudo-orthonormal with sign bookkeeping when it is indefinite, as a
    list of vectors.  A squared norm, after projection, at or below GS_RTOL
    times the input vector's rounding scale |v|^T |metric| |v| in absolute
    value raises ``isotropic(norm2)``: an isotropic or a dependent direction,
    whatever the scale of the metric or of the vectors."""
    frame, signs = [], []
    for v in vectors:
        v = np.array(v, dtype=float)
        scale = float(abs(v) @ abs(metric) @ abs(v))
        for u, s in zip(frame, signs):
            v = v - s * float(u @ metric @ v) * u
        norm2 = float(v @ metric @ v)
        if vanishes(norm2, scale, GS_RTOL):
            raise isotropic(norm2)
        signs.append(1.0 if norm2 > 0 else -1.0)
        frame.append(v / np.sqrt(abs(norm2)))
    return frame


class BundleFields:
    """Data of the affine normal plane construction at a point.

    det G, its sign and g are values (:func:`_metric`).  The g-orthonormal
    frame E = A X has the lower-triangular Gram-Schmidt matrix A (pseudo-
    orthonormal with sign bookkeeping when the metric is indefinite), read
    as values; A g A^T = diag(+-1) makes det A the normalization
    |det G|^(-1/(n+2)) of g, the one metric jet.  The transversal eta has
    unit bracket on E and no eta-component in its derivative.  eta and A are
    built on their first read; data on E follows from A: on E, h2 is
    A h2 A^T and each tau is A tau.
    """

    def __init__(self, scene, t0):
        self.scene = scene
        self.ff = frame_fields(scene, t0, READER_ORDER)
        self.det_G, self.sign, self.g, self.det_A = _metric(self.ff)

    @cached_property
    def eta(self):
        # [E, e_last, xi] = det A [X, e_last, xi] = c for any g-orthonormal
        # E = A X with det A > 0, so eta1 = e_last / c has unit bracket on E
        # with no Gram-Schmidt made.  e_last is constant, so D eta1 = -dlog c
        # eta1, and the eta1-component of D_{X_i} X_k is c h2_prov: eta =
        # eta1 - sum_k beta_k X_k has no eta-component in its derivative when
        # (c h2_prov) beta = -dc / c.
        c = self.ff.lam * self.det_A
        inv_c = c.reciprocal()
        h2 = [[c * h for h in row] for row in self.ff.h2_prov]
        beta, _ = jet_solve(h2, [-c.derivative(i) * inv_c for i in range(self.scene.n)])
        eta = vec_scale(self.ff.e_last, inv_c)
        for x, b in zip(self.ff.X, beta):
            eta = vec_add(eta, vec_scale(x, -b))
        return eta

    @cached_property
    def A(self):
        return np.array(_orthonormalize(np.eye(self.scene.n), self.g, lambda norm2:
            DegenerateError("isotropic coordinate direction in Gram-Schmidt", norm2)))


def bundle_fields(scene, t):
    """The normal-plane bundle at t, made once and held by its READER_ORDER frame."""
    ff = frame_fields(scene, t, READER_ORDER)
    if ff.bundle is None:
        ff.bundle = BundleFields(scene, ff.t0)
    return ff.bundle


def affine_normal_plane(scene, t):
    """The gauged Darboux vector and the canonical transversal at t."""
    b = bundle_fields(scene, t)
    return vec_values(b.ff.xi), vec_values(b.eta)


def apolarity_defect(scene, t):
    """Traces of the cubic form C2 against h2^-1 on the coordinate frame:
    2 tau11 (see the module docstring)."""
    return 2.0 * tau_form(scene, t)


def equiaffine_defect(scene, t):
    """Sums Gamma_ik^k of the connection coefficients on the g-orthonormal
    frame E = A X: -A tau11 (see the module docstring), with no -0.0."""
    return 0.0 - bundle_fields(scene, t).A @ tau_form(scene, t)


def tau_form(scene, t):
    """Connection form tau11 of the gauged Darboux field on the coordinate
    frame (independent of the transversal choice for a Darboux field),
    read off the values of the frame's D xi, with no jet decomposition and
    no normal-plane bundle built."""
    return frame_fields(scene, t, READER_ORDER).dxi_values()[..., scene.n]


def _curvature(ff):
    """Values of tau11 and dtau11 (see :func:`normal_curvature`) and of each
    row's |tau12_i| / max_j |row_i[j]| (0 for a zero row), off the frame's D xi rows."""
    n = ff.scene.n
    rows = ff.dxi()
    d = partial_values([row[n] for row in rows])  # d[..., j, i] = D_j tau_i
    values = vec_values(rows)
    scale = np.abs(values).max(-1)
    tangency = np.divide(np.abs(values[..., -1]), scale, out=np.zeros_like(scale), where=scale > 0)
    return values[..., n], np.swapaxes(d, -1, -2) - d, tangency


def normal_curvature(scene, t):
    """Antisymmetric matrix dtau11(X_i, X_j) of the normal connection.

    Orientation convention: entry (i, j) is the j-th derivative of
    tau11(X_i) minus the i-th derivative of tau11(X_j), matching the
    normal-curvature identity R(X_i, X_j) xi = dtau11(X_i, X_j) xi.
    tau11 is read off the frame's D xi rows: no normal-plane bundle is built.
    """
    return _curvature(frame_fields(scene, t, READER_ORDER))[1]


# -- Blaschke structure of a graph hypersurface ---------------------------


class BlaschkeData(Record):
    """Blaschke metric, affine normal and cubic form of a graph
    hypersurface at a point, on the graph coordinate frame."""

    point: np.ndarray
    h: np.ndarray
    zeta: np.ndarray
    cubic: np.ndarray
    scale: float


def blaschke_phi(hess):
    """(phi, det) per batch row of an m x m matrix of Hessian jets: phi =
    |det|^(1/(m+2)) as a jet, the factor that turns the Hessian into the
    Blaschke metric, and det the value of the determinant.  phi is None when
    some |det| is at or below DEGENERACY_RTOL times its Hadamard bound (the
    product of the value rows' norms: scale-free), det then that value; only
    past that test is the jet determinant read, off :func:`darboux.jets.jet_solve`."""
    values = vec_values(hess)
    val = np.linalg.det(values)
    bad = vanishes(val, hadamard(values), DEGENERACY_RTOL)
    if any_row(bad):
        return None, first_failing(val, bad)
    return (jet_det(hess) * np.sign(val)).fractional_power(1.0 / (len(hess) + 2)), val


def blaschke_normal(w_jet, m):
    """(zeta, H, phi, Z) per batch row of an order-3 jet of w: zeta is the
    Blaschke normal phi e_{m+1} + Z of z = w(x), x in R^m, on the graph frame
    {e_k + w_k e_{m+1}}, phi = |det Hess w|^(1/(m+2)) and Hess(w) Z = -grad(phi)."""
    grad = [w_jet.derivative(i) for i in range(m)]
    second = {(i, j): grad[i].derivative(j) for i in range(m) for j in range(i, m)}
    H = [[second[min(i, j), max(i, j)] for j in range(m)] for i in range(m)]
    phi, det = blaschke_phi(H)
    if phi is None:
        raise DegenerateHypersurfaceError(f"hypersurface Hessian determinant {det:.3e} vanishes")
    grad_phi = partial_values([phi])[..., 0]
    Z = np.linalg.solve(vec_values(H), -grad_phi[..., None])[..., 0]
    wk = partial_values([w_jet])[..., 0]
    zeta = np.concatenate([Z, (phi.value + value_dot(Z, wk))[..., None]], axis=-1)
    return zeta, H, phi, Z


def blaschke_from_jet(w_jet, m):
    """Blaschke data of the hypersurface z = w(x), x in R^m, from an
    order-3 jet of w at the base point: (h, zeta, cubic, phi).

    The Blaschke metric is Hess(w)/phi (see :func:`blaschke_normal`), and
    the cubic form is its covariant derivative in the induced connection.
    """
    zeta, H, phi, Z = blaschke_normal(w_jet, m)
    inv_phi = phi.reciprocal()
    hbar = [[H[i][j] * inv_phi for j in range(m)] for i in range(m)]
    h_val = vec_values(hbar)

    # cubic[i, j, k] = D_i hbar_jk + hbar_ij hbar(Z, e_k) + hbar_ik hbar(Z, e_j)
    hZ = Z @ h_val
    cubic = partial_values([x for row in hbar for x in row]).reshape(m, m, m)
    cubic = cubic + h_val[:, :, None] * hZ + h_val[:, None, :] * hZ[:, None]
    return h_val, zeta, cubic, float(phi.value)


def blaschke_data(f_expr, variables, point):
    """Blaschke data of the graph z = f(variables) at ``point``."""
    w = ex.eval_jet(f_expr, variables, list(point), 3)
    m = len(variables)
    h, zeta, cubic, scale = blaschke_from_jet(w, m)
    return BlaschkeData(np.asarray(point, dtype=float), h, zeta, cubic, scale)


def hypersurface_blaschke(scene, t):
    """Blaschke data of the scene's hypersurface at (t, g(t))."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    y0 = ex.eval_scalar(scene.g, scene.t_names, list(t))
    return blaschke_data(scene.f, scene.f_names, list(t) + [y0])


def blaschke_compatibility(scene, t):
    """The six equivalent pointwise compatibility conditions between the
    hypersurface Blaschke structure and the scene's Darboux gauge.

    Items: (1) h(xi, xi) = 1; (2) the h-orthonormal tangent frame extends
    by xi to an h-orthonormal frame of the hypersurface tangent space;
    (3) unit bracket against the Blaschke normal; (4) the frame is
    g-orthonormal; (5) g restricts the Blaschke metric; (6) the Blaschke
    normal lies in the affine normal plane.  Item 1 reports None when
    h(xi, xi) < 0.  The report also carries the cubic-form test values
    C(X_i, xi, xi).  Items 1-5 hold within the absolute COMPAT_TOL; item 6
    reads zeta on vectors that z -> k z carries with no factor.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n = scene.n
    data = hypersurface_blaschke(scene, t)
    b = bundle_fields(scene, t)
    ff = b.ff
    xiv, etav = affine_normal_plane(scene, t)
    # coordinates in TM: the first n + 1 ambient components
    h = data.h
    xic = xiv[: n + 1]
    Xc = [vec_values(x)[: n + 1] for x in ff.X]

    # h-orthonormalize the tangent frame of N
    frame = _orthonormalize(Xc, h, lambda _norm2: DegenerateHypersurfaceError(
        "isotropic direction in the Blaschke frame"))

    h_xixi = float(xic @ h @ xic)
    item1 = None if h_xixi < 0 else bool(abs(h_xixi - 1.0) < COMPAT_TOL)

    gram = np.array([[float(u @ h @ v) for v in frame + [xic]] for u in frame + [xic]])
    item2 = bool(np.abs(gram - np.eye(n + 1)).max() < COMPAT_TOL)

    # ambient lift: a tangent vector with TM-coordinates c is sum c_k psi_k,
    # psi_k = e_k - nu_k e_{n+2} the graph tangent frame of the hypersurface
    psi_frame = np.eye(n + 2)[: n + 1]
    psi_frame[:, n + 1] = -vec_values(ff.conormal)[: n + 1]
    lifted = [sum(c[k] * psi_frame[k] for k in range(n + 1)) for c in frame]
    xilift = sum(xic[k] * psi_frame[k] for k in range(n + 1))

    item3 = bool(abs(_value_bracket(lifted + [data.zeta, xilift]) - 1.0) < COMPAT_TOL)

    g = b.g
    # X's first n components are the identity: the X-basis coefficients of v are v[:n].
    g_on = np.array([[float(a[:n] @ g @ bb[:n]) for bb in frame] for a in frame])
    item4 = bool(np.abs(g_on - np.eye(n)).max() < COMPAT_TOL)

    h_on_X = np.array([[float(Xc[i] @ h @ Xc[j]) for j in range(n)] for i in range(n)])
    item5 = bool(np.abs(g - h_on_X).max() < COMPAT_TOL)

    # zeta = a X + b xi + c eta is in the plane when a = 0.  z -> k z carries X,
    # xi / lam and kappa eta / nu(eta), kappa = Hess f(xi / lam, xi / lam), with no
    # factor: a is read against lam b and nu(zeta) / kappa = lam^2 / h(xi, xi).
    coords = ff.coordinates(data.zeta[None], xiv, etav)[0]
    lam = float(ff.lam.value)
    scale = max(abs(lam * coords[n]), lam ** 2 / abs(h_xixi))
    item6 = bool(np.abs(coords[:n]).max() < COMPAT_TOL * scale)

    cubic_test = np.array(
        [float(sum(data.cubic[a, jj, kk] * Xc[i][a] * xic[jj] * xic[kk]
                   for a in range(n + 1) for jj in range(n + 1) for kk in range(n + 1)))
         for i in range(n)]
    )
    return {
        "items": [item1, item2, item3, item4, item5, item6],
        "h_xi_xi": h_xixi,
        "cubic_xi_xi": cubic_test.tolist(),
        "zeta": data.zeta.tolist(),
        "eta": etav.tolist(),
        "xi": xiv.tolist(),
    }


# -- parallel field existence ----------------------------------------------


class ParallelReport(Record):
    grid: list
    tau_samples: np.ndarray
    dtau_base: np.ndarray
    max_dtau: float
    verdict: str
    lam: np.ndarray | None
    loop_residual: float | None
    tangency_residual: float | None
    diagnostics: list = Factory(list)


def parallel_field_exists(scene, region):
    """Decide whether the Darboux line admits a parallel section over a
    rectangular grid region.

    Verdict "not exists" when the normal curvature exceeds the flatness
    threshold; otherwise the scaling lambda = exp(-int tau) is integrated
    along axis-first paths, plaquette circulations certify closedness, and
    the tangency of the rescaled field is read at every grid point off the
    D xi rows that sampled tau there.  Row i holds D_i xi = -S1 X_i +
    tau11_i xi + tau12_i eta in the frame {X, xi, eta}, and tau_i is its
    tau11_i, so D_i(lambda xi) = lambda (D_i xi - tau_i xi) leaves TN by
    lambda tau12_i eta alone: the tangency residual is the largest |tau12_i|
    relative to its row's largest |coefficient| (0 for a zero row), free of
    lambda, the Darboux solve's rounding.  A max |dtau| within a factor 10
    of the threshold yields verdict "inconclusive" with a warning.

    tau is sampled once per grid point and once per edge midpoint, each
    time by one read of D xi: as jets at a grid point (:meth:`FrameFields.dxi`),
    from which dtau follows, and as values at a midpoint
    (:meth:`FrameFields.dxi_values`); no structure solve is made.  One batch frame
    reads the grid points and one the midpoints of all axes
    (:func:`darboux.frame.read_grid`, more past ``BATCH_ROWS`` rows), so
    "not exists" builds one and "exists" two; a failing point raises the
    error of the first failing point, grid points first.
    """
    n = scene.n
    if len(region) != n:
        raise EmptyGridError(f"expected {n} region axes")
    if any(count < 2 for _lo, _hi, count in region):
        raise EmptyGridError("each region axis needs at least two samples")
    axes = [grid_axis(*axis) for axis in region]
    shape = tuple(len(a) for a in axes)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def read_all(points, order, read, out):
        errors = read_grid(scene, points.reshape(-1, n), order, read, out)
        if errors:
            raise errors[min(errors)]

    # dtau needs the frame at order 2, whose tau11 values equal order 1's.
    order = 2 if n > 1 else 1
    tau, dtau, tangency = (np.zeros((grid.size // n,) + s) for s in ((n,), (n, n), (n,)))
    read_all(grid, order, _curvature, (tau, dtau, tangency))
    tau_samples = tau.reshape(shape + (n,))
    dtau_base = dtau[0]
    dtau_max = float(np.abs(dtau).max())
    scale = max(1.0, float(np.abs(tau_samples).max()))
    threshold = FLATNESS_RTOL * scale

    def report(verdict, diagnostics, lam=None, loop_residual=None, tangency_residual=None):
        return ParallelReport(
            grid=[list(a) for a in axes], tau_samples=tau_samples, dtau_base=dtau_base,
            max_dtau=dtau_max, verdict=verdict, lam=lam, loop_residual=loop_residual,
            tangency_residual=tangency_residual, diagnostics=diagnostics)

    if dtau_max > 10 * threshold:
        return report("not exists", [f"max |dtau| = {dtau_max:.3e} > threshold {threshold:.3e}"])
    if dtau_max > 0.1 * threshold:
        warnings.warn(
            f"max |dtau| = {dtau_max:.3e} sits near the flatness threshold",
            InconclusiveToleranceWarning,
        )
        return report("inconclusive", ["flatness test inside the inconclusive band"])

    # tau at all edge midpoints in one read: mid_samples[axis][idx] on idx -> idx + e_axis
    mids = [0.5 * (np.take(grid, range(m - 1), axis) + np.take(grid, range(1, m), axis))
            for axis, m in enumerate(shape)]
    ends = np.cumsum([m.size // n for m in mids])
    samples = np.zeros((ends[-1], n))
    read_all(np.concatenate([m.reshape(-1, n) for m in mids]), 1,
             lambda ff: (ff.dxi_values()[..., n],), (samples,))
    mid_samples = [part.reshape(m.shape) for part, m in zip(np.split(samples, ends[:-1]), mids)]

    lam, loop_residual = _integrate(axes, tau_samples, mid_samples)
    if loop_residual > LOOP_RTOL:
        warnings.warn("path dependence above tolerance", InconclusiveToleranceWarning)
        return report("inconclusive", [f"loop residual {loop_residual:.3e} exceeds tolerance"],
                      lam, loop_residual)
    return report("exists", [], lam, loop_residual, float(tangency.max()))


def _integrate(axes, tau, mids):
    """lambda = exp(-int tau) along axis-first paths and the largest plaquette
    circulation, from tau at the grid points and edge midpoints (``mids[k][idx]``
    on idx -> idx + e_k).  An edge is the Simpson sum of tau . direction from
    its first point, so an edge walked backwards keeps its own term order."""
    n = len(axes)

    def cut(array, axis, part):
        return array[(slice(None),) * axis + (part,)]

    forward, backward = [], []
    for k, axis in enumerate(axes):
        h = np.diff(axis).reshape((-1,) + (1,) * (n - 1 - k))
        lo, hi = cut(tau, k, slice(-1))[..., k], cut(tau, k, slice(1, None))[..., k]
        mid = mids[k][..., k]
        forward.append((lo * h + 4.0 * (mid * h) + hi * h) / 6.0)
        backward.append((hi * -h + 4.0 * (mid * -h) + lo * -h) / 6.0)

    # Paths run along the last axis first; each axis continues its start line.
    integral = np.zeros(tuple(len(a) for a in axes))
    for k in reversed(range(n)):
        line = integral[(0,) * k]
        line[1:] = np.add.accumulate(np.concatenate([line[:1], forward[k][(0,) * k]]))[1:]

    loop_residual = 0.0
    for a in range(n):
        for b in range(a + 1, n):  # around (0, 0), (1, 0), (1, 1), (0, 1) in (a, b)
            circulation = (cut(forward[a], b, slice(-1)) + cut(forward[b], a, slice(1, None))
                           + cut(backward[a], b, slice(1, None)) + cut(backward[b], a, slice(-1)))
            loop_residual = max(loop_residual, float(np.abs(circulation).max()))
    return np.exp(-integral), loop_residual
