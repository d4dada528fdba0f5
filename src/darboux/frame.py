"""Scenes in graph form, tangent frames, Darboux directions, and the
structure coefficients of the frame equations.

A scene is a hypersurface M in R^{n+2} given as a graph z = f(t_1..t_n, y)
together with a codimension-1 submanifold N of M given by y = g(t).  All
geometry is computed in truncated Taylor-jet arithmetic at a base point,
so first and second derivatives of every produced field are available to
machine precision.

Frame conventions.  The ambient volume bracket [v_1, ..., v_(n+2)] is the
determinant of (v_1, ..., v_n, v_(n+2), v_(n+1)): a graph's tangency family
expands as f - z + ....  The Darboux vector field is returned in the
"graph gauge" xi = sum_j alpha_j X_j + psi_y (unit psi_y component), or
scaled to h(xi, xi) = 1 for the Blaschke metric h of M; an optional scalar
gauge expression on the scene rescales it.

A frame reads f only as f, f_y and f_yy along N.  The immersion is
phi = (t, g, f|N), so X_i = D_i phi, and by the chain rule
f_{t_i} = D_i(f|N) - f_y D_i g; the Hessian of f on the unitriangular basis
(X, psi_y) of the (t, y)-space is the bordered matrix
[[h2_prov, tau12_prov], [tau12_prov^T, f_yy]].

Frame coordinates are read by pairing, not by a basis solve, so the sign of
a zero in mu never shows.  The conormal nu = (-grad f, 1) annihilates every
vector tangent to M, and mu = (-grad g, 1, 0) annihilates every X_i, so in a
frame {X, xi, eta} with xi tangent to M and nu(eta) != 0 a vector v has the
eta-coefficient nu(v) / nu(eta), and w = v - nu(v) / nu(eta) eta has the
xi-coefficient mu(w) / mu(xi); the first n components of X_i are e_i, so the
X-coefficients are the first n components of w minus that multiple of xi.
The one rule reads jets (:meth:`FrameFields.decompose`) or values
(:meth:`FrameFields.coordinates`, bitwise the jets' value parts), so a reader
of values, such as S1 and tau11 off :meth:`FrameFields.dxi_values`, builds no jet;
the one jet read of D xi is held by the frame (:meth:`FrameFields.dxi`).

One frame per (scene, point, order): :func:`frame_fields` caches frames
under that key.  A frame builds its provisional part when it is made and
solves its Darboux part (alpha, lam, xi, eta) to the order its reader
needs (order 1 for x0, S1 and the graph gauge's lam), where a degenerate
point raises DegenerateError or SingularBasisError at any order.
Degeneracy is decided on the value determinant of h2_prov; the jet
det h2_prov, which the Blaschke gauge and the affine metric read, is the
determinant of the Darboux solve h2_prov alpha = -tau12_prov, so a frame
makes no jet determinant of its own.

Batch frames.  :meth:`FrameFields.batch` runs the same build over an
(N, n) array of points, every jet carrying a leading batch axis (see
:mod:`darboux.jets`), and is not cached; a check raises when any row
fails and names the failing rows.  :func:`read_grid` reads a grid through
batch frames and gives each failing row the result or error of a
one-point frame.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache

import numpy as np

from . import expr as ex
from .errors import DegenerateError, DimensionError, GeometryError, SingularBasisError
from .jets import (_PIVOT_EPS, Jet, check, first_failing, hadamard, jet_dot, jet_solve, jet_space,
                   partial_values, vanishes, vec_values)
from .record import Factory, Record

DEGENERACY_RTOL = 1e-9
# The frame order of the pointwise readers; the metric battery reads the
# same frame.
READER_ORDER = 2


def _variable_names(n):
    return ["t"] if n == 1 else [f"t{i}" for i in range(1, n + 1)]


class Scene(Record, frozen=True):
    """A hypersurface graph z = f(t, y) with the submanifold y = g(t).

    ``gauge`` selects the scale of the Darboux field: "graph" (unit
    psi_y component over the tangent frame) or "blaschke" (normalized so
    the hypersurface Blaschke metric gives h(xi, xi) = 1); ``xi_scale``
    optionally multiplies the gauged field by a scalar expression in t.
    The partials f_y and f_yy are derived on first read, once per scene;
    they do not enter hash or equality.
    """

    n: int
    f: ex.Expr
    g: ex.Expr
    f_text: str
    g_text: str
    xi_scale: ex.Expr | None = None
    xi_scale_text: str | None = None
    gauge: str = "graph"
    t0: tuple = ()
    name: str | None = None

    @cached_property
    def f_y(self):
        return ex.derivative(self.f, "y")

    @cached_property
    def f_yy(self):
        return ex.derivative(self.f_y, "y")

    @property
    def t_names(self):
        return _variable_names(self.n)

    @property
    def f_names(self):
        return self.t_names + ["y"]

    def base_point(self):
        return np.array(self.t0 if self.t0 else (0.0,) * self.n, dtype=float)

    def describe(self):
        return self.name or f"graph scene (n={self.n})"


def build_scene(f_text, g_text, n, xi_scale_text=None, gauge="graph", name=None):
    """Parse and validate a scene; see the scene-file format in the CLI docs.

    Raises parse errors from the expression language and DimensionError
    when an expression uses variables outside its slot (for instance a
    submanifold expression referencing y).
    """
    if n < 1:
        raise DimensionError("the submanifold dimension n must be at least 1")
    t_names = _variable_names(n)

    def parse(text, names, what):
        try:
            return ex.parse_expression(text, names)
        except ex.UnknownVariableError as err:
            raise DimensionError(f"{what} may use only {', '.join(names)}: {err}") from err

    f = parse(f_text, t_names + ["y"], "hypersurface expression")
    g = parse(g_text, t_names, "submanifold expression")
    xi_scale = None if xi_scale_text is None else parse(xi_scale_text, t_names, "gauge scale")
    if gauge not in ("graph", "blaschke"):
        raise DimensionError(f"unknown gauge '{gauge}'")
    return Scene(
        n=n,
        f=f,
        g=g,
        f_text=f_text.strip(),
        g_text=g_text.strip(),
        xi_scale=xi_scale,
        xi_scale_text=xi_scale_text.strip() if xi_scale_text else None,
        gauge=gauge,
        t0=(0.0,) * n,
        name=name,
    )


class FramePoint(Record):
    """Frame data at one parameter point; ``gauge`` records how the
    transversal slots were chosen so coefficient solves can rebuild the
    matching fields."""

    t: np.ndarray
    X: np.ndarray          # n x (n+2), rows are tangent vectors
    xi: np.ndarray
    eta: np.ndarray
    gauge: dict = Factory(dict)


class StructureCoeffs(Record):
    """Coefficients of the frame derivative equations at a point, with
    respect to the frame recorded in ``frame``."""

    frame: FramePoint
    Gamma: np.ndarray      # n x n x n, Gamma[i][j][k]
    h1: np.ndarray         # n x n
    h2: np.ndarray         # n x n
    S1: np.ndarray         # n x n, column j = tangential part of -D_{X_j} xi
    S2: np.ndarray
    tau11: np.ndarray      # length n
    tau12: np.ndarray
    tau21: np.ndarray
    tau22: np.ndarray


# -- jet-level machinery -------------------------------------------------


# A frame's Darboux part, exact through ``order``: see FrameFields.darboux.
Darboux = namedtuple("Darboux", "order alpha lam xi eta det_h2_prov")


def vec_scale(vector, factor):
    return [component * factor for component in vector]


def vec_add(a, b):
    return [x + y for x, y in zip(a, b)]


def vec_partial(vector, var):
    return [component.derivative(var) for component in vector]


def _pair(a, b):
    """sum_r a_r b_r on the last axis as :func:`darboux.jets.jet_dot` sums its
    value parts: left to right, each product plus 0.0 (a slot sums from +0.0)."""
    return np.add.accumulate(a * b + 0.0, axis=-1)[..., -1]


def check_pairing(value, covector, slot):
    """The pairing ``value`` of the value parts ``covector`` and ``slot``;
    SingularBasisError where it vanishes against _PIVOT_EPS |covector| |slot|."""
    check(vanishes(value, hadamard(np.stack([covector, slot], axis=-2)), _PIVOT_EPS),
          lambda: SingularBasisError("frame slot pairs to zero with its covector"))
    return value


class FrameFields:
    """Jet-valued Darboux frame data along N around one base point.

    ``order`` is the order through which the structure-coefficient jets
    are exact.  Everything downstream (flatness, curve criteria) reads
    derivatives from these jets.  The provisional frame is
    built here; ``alpha``, ``xi``, ``eta`` and ``det_h2_prov`` read the
    Darboux part at ``order`` and ``lam`` at the order its gauge needs,
    solved to it by :meth:`darboux`, which raises DegenerateError or
    SingularBasisError where the point is degenerate.
    """

    def __init__(self, scene, t0, order):
        self._build(scene, np.array(t0, dtype=float), order)

    @classmethod
    def batch(cls, scene, points, order):
        """One frame over the rows of an (N, n) array of points, with a batch
        axis on every jet (see :mod:`darboux.jets`); not cached."""
        points = np.array(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != scene.n:
            raise DimensionError(f"expected an array of points with {scene.n} coordinates")
        ff = cls.__new__(cls)
        ff._build(scene, points, order)
        return ff

    def _build(self, scene, t0, order):
        self.scene = scene
        self.t0 = t0
        self.order = order
        n = scene.n
        phi_order = order + 2
        space = jet_space(n, phi_order)
        self.space = space
        t_names = scene.t_names
        coords = Jet.coordinates(space, t0)
        env = dict(zip(t_names, coords))
        g_jet = ex.eval_expr(scene.g, env)
        env_f = dict(env)
        env_f["y"] = g_jet
        f_on_n = ex.eval_expr(scene.f, env_f)
        self.g_jet = g_jet
        self.phi = coords + [g_jet, f_on_n]
        batch = t0.shape[:-1]  # X_i = (e_i, D_i g, D_i f|N): e_i's jets are not gathered
        e = [Jet.zero(space, order + 1, batch), Jet.constant(space, 1.0, order + 1, batch=batch)]
        self.X = [[e[k == i] for k in range(n)] + vec_partial(self.phi[n:], i) for i in range(n)]

        f_y = ex.eval_expr(scene.f_y, env_f)
        zero, one = Jet.zero(space, batch=batch), Jet.constant(space, 1.0, batch=batch)
        self.psi_y = [zero] * n + [one, f_y]
        # D_i(f|N) = f_{t_i} + f_y D_i g, so nu = (-grad f, 1) reads off X.
        self.conormal = [f_y * x[n] - x[n + 1] for x in self.X] + [-f_y, one]
        self.e_last = [zero] * (n + 1) + [one]
        self.mu = [zero if x[n].degree < 0 else -x[n] for x in self.X] + [one, zero]
        self.one = one

        # Provisional coordinates in the frame {X_1..X_n, psi_y, e_last}:
        # the e_last-coefficient is the pairing with the conormal.
        self.second = [[None] * n for _ in range(n)]
        self.h2_prov = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                self.second[i][j] = self.second[j][i] = vec_partial(self.X[i], j)
                self.h2_prov[i][j] = self.h2_prov[j][i] = jet_dot(
                    self.conormal, self.second[i][j])
        self.tau12_prov = [
            jet_dot(self.conormal, vec_partial(self.psi_y, i)) for i in range(n)
        ]

        h2 = vec_values(self.h2_prov)
        self.h2_scale = hadamard(h2)
        self.det_h2_value = np.linalg.det(h2)
        self._env = env_f
        self._part = None
        self.bundle = None  # the normal-plane bundle, held here by metricbundle.bundle_fields

    def darboux(self, order):
        """The Darboux part exact through ``order`` (at most the frame's): the
        held part if as deep, else one solved from h2_prov alpha = -tau12_prov
        cut there, which replaces it.  A product sums a slot over the same pairs
        at any cut, so slots of degree <= ``order`` keep their bits.
        DegenerateError where det h2_prov vanishes against DEGENERACY_RTOL
        times its Hadamard bound h2_scale; SingularBasisError at a pivot or
        where the bracket vanishes."""
        order = min(order, self.order)
        if self._part is not None and self._part.order >= order:
            return self._part
        det = self.det_h2_value
        bad = vanishes(det, self.h2_scale, DEGENERACY_RTOL)
        check(bad, lambda: DegenerateError(
            f"non-degeneracy determinant {first_failing(det, bad):.3e} "
            f"at t={self.t0[bad][0].tolist()}", determinant=first_failing(det, bad)))
        alpha, det_h2 = jet_solve([[h.truncated(order) for h in row] for row in self.h2_prov],
                                  [-tau.truncated(order) for tau in self.tau12_prov])
        xi = list(self.psi_y)
        for a, x in zip(alpha, self.X):
            xi = vec_add(xi, vec_scale(x, a))
        # lam is exact through the frame's order unless the Blaschke scale reads alpha.
        lam = Jet.constant(self.space, 1.0, self.order, batch=self.t0.shape[:-1])
        if self.scene.gauge == "blaschke":
            lam_b = self._blaschke_scale(alpha, det_h2)
            xi = vec_scale(xi, lam_b)
            lam = lam * lam_b
        if self.scene.xi_scale is not None:
            scale = ex.eval_expr(self.scene.xi_scale, self._env)
            xi = vec_scale(xi, scale)
            lam = lam * scale
        # The columns X, psi_y, e_last are unitriangular, so the bracket
        # [X, e_last, xi] that normalizes eta is the gauge factor lam.  It
        # reads the first n+1 components of X and xi, whose norms bound it.
        bound = hadamard(vec_values(self.X + [xi])[..., :self.scene.n + 1])
        check(vanishes(lam.value, bound, _PIVOT_EPS),
              lambda: SingularBasisError("frame bracket vanishes; cannot normalize eta"))
        eta = vec_scale(self.e_last, lam.reciprocal())
        self._part = Darboux(order, alpha, lam, xi, eta, det_h2)
        return self._part

    _dxi = None  # the D xi rows, held on their first read by dxi
    alpha = property(lambda self: self.darboux(self.order).alpha)
    xi = property(lambda self: self.darboux(self.order).xi)
    eta = property(lambda self: self.darboux(self.order).eta)
    det_h2_prov = property(lambda self: self.darboux(self.order).det_h2_prov)
    # Only the Blaschke gauge's lam reads alpha.
    lam = property(lambda self: self.darboux(1 if self.scene.gauge == "graph" else self.order).lam)

    def _blaschke_scale(self, alpha, det_h2):
        """1 / sqrt(h(xi, xi)) for the graph-gauge xi = alpha X + psi_y, as a
        jet along N, with h = Hess f / |det Hess f|^(1/(n+3)) the Blaschke
        metric of M.  On the unitriangular basis (X, psi_y) of the
        (t, y)-space, Hess f is the bordered matrix
        [[h2_prov, tau12_prov], [tau12_prov^T, f_yy]], so Hess f(xi, xi) is
        its Schur complement f_yy + alpha . tau12_prov and det Hess f is
        det h2_prov times that.  DegenerateError when det Hess f vanishes
        against DEGENERACY_RTOL times the Hadamard bound of the bordered
        value matrix, or when h(xi, xi) <= 0."""
        f_yy = ex.eval_expr(self.scene.f_yy, self._env)
        hess_xixi = f_yy + jet_dot(alpha, self.tau12_prov)
        det = det_h2 * hess_xixi
        val = det.value
        tau = self.tau12_prov
        bordered = vec_values([row + [t] for row, t in zip(self.h2_prov, tau)] + [tau + [f_yy]])
        bad = vanishes(val, hadamard(bordered), DEGENERACY_RTOL)
        check(bad, lambda: DegenerateError("blaschke gauge needs a non-degenerate hypersurface",
                                           first_failing(val, bad)))
        phi = (det * np.where(val > 0, 1.0, -1.0)).fractional_power(1.0 / (self.scene.n + 3))
        h_xixi = hess_xixi * phi.reciprocal()
        bad = ~(h_xixi.value > 0)
        check(bad, lambda: DegenerateError("blaschke gauge needs h(xi, xi) > 0",
                                           first_failing(h_xixi.value, bad)))
        return h_xixi.fractional_power(0.5).reciprocal()

    # -- coordinate reads -----------------------------------------------

    def _pairing(self, covector, slot):
        """covector(slot), checked by :func:`check_pairing`."""
        pairing = jet_dot(covector, slot)
        check_pairing(pairing.value, vec_values(covector), vec_values(slot))
        return pairing

    def decompose(self, fields, xi_slot=None, eta_slot=None):
        """Coefficients [c_X1..c_Xn, c_xi, c_eta] of ambient jet fields in
        the frame {X, xi_slot, eta_slot}, read by pairing (see the module
        docstring).  ``xi_slot`` must be tangent to M and nu(eta_slot)
        nonzero; a slot that pairs to zero with mu or nu raises
        SingularBasisError."""
        n = self.scene.n
        xi_slot = self.xi if xi_slot is None else xi_slot
        eta_slot = self.eta if eta_slot is None else eta_slot
        inv_eta = self._pairing(self.conormal, eta_slot).reciprocal()
        inv_xi = self._pairing(self.mu, xi_slot).reciprocal()
        out = []
        for v in fields:
            c_eta = jet_dot(self.conormal, v) * inv_eta
            # mu and the X-coefficients read only the first n+1 components.
            w = [v[r] - c_eta * eta_slot[r] for r in range(n + 1)]
            c_xi = jet_dot(self.mu, w) * inv_xi
            out.append([w[k] - c_xi * xi_slot[k] for k in range(n)] + [c_xi, c_eta])
        return out

    def coordinates(self, vectors, xi_slot, eta_slot):
        """:meth:`decompose` on value arrays, batch axes first, in its order
        and with its checks, each product plus 0.0 as in a jet's value slot:
        bitwise the value parts of decompose on jets with these values."""
        n = self.scene.n
        nu, mu = vec_values(self.conormal), vec_values(self.mu)
        inv_eta, inv_xi = (1.0 / check_pairing(_pair(c, s), c, s)[..., None, None]
                           for c, s in ((nu, eta_slot), (mu, xi_slot)))
        xi_slot, eta_slot = xi_slot[..., None, :], eta_slot[..., None, :]
        # mu and the X-coefficients read only the first n+1 components.
        c_eta = _pair(nu[..., None, :], vectors)[..., None] * inv_eta + 0.0
        w = vectors[..., :n + 1] - (c_eta * eta_slot[..., :n + 1] + 0.0)
        c_xi = _pair(mu[..., None, :n + 1], w)[..., None] * inv_xi + 0.0
        return np.concatenate([w[..., :n] - (c_xi * xi_slot[..., :n] + 0.0), c_xi, c_eta], -1)

    def xi_partials(self):
        """Values of D_{X_j} xi as rows j, batch axes first: the e_j-coefficients of xi."""
        return partial_values(self.darboux(1).xi)

    def dxi(self):
        """Coefficients of D_{X_i} xi, i = 1..n, in the frame {X, xi, eta}:
        row i is [-S1 X_i, tau11_i, 0], since xi is a Darboux field.  The one
        jet read of D xi, held from the first call: :meth:`structure_jets` and
        the curvature readers share it; :meth:`dxi_values` reads its values."""
        if self._dxi is None:
            self._dxi = self.decompose([vec_partial(self.xi, i) for i in range(self.scene.n)])
        return self._dxi

    def dxi_values(self):
        """The value parts of :meth:`dxi`, bitwise, read off the order-1 Darboux part."""
        part = self.darboux(1)
        return self.coordinates(self.xi_partials(), vec_values(part.xi), vec_values(part.eta))

    def structure_jets(self, xi_slot=None, eta_slot=None):
        """All structure-coefficient jets of the coordinate frame X_i with the
        transversal slots ``xi_slot`` (tangent to M) and ``eta_slot``
        (nu(eta_slot) != 0), by default the frame's xi and eta.

        Each field D_{X_i} is read through :meth:`decompose`, D_{X_i} X_j once
        for i <= j: its (i, j) and (j, i) entries share one row, and with the
        default xi slot D xi is the held :meth:`dxi` (D xi of a Darboux field
        has no eta-part, so any eta slot reads it alike).  Returns a dict with
        Gamma[i][j][k], h1, h2 (n x n of jets), S1, S2 (entries S[k][j]:
        coefficient of X_k in S X_j) and the four tau covectors.
        """
        n = self.scene.n
        eta_slot = self.eta if eta_slot is None else eta_slot
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        fields = [self.second[i][j] for i, j in pairs]
        fields += [] if xi_slot is None else [vec_partial(xi_slot, i) for i in range(n)]
        fields += [vec_partial(eta_slot, i) for i in range(n)]
        solved = self.decompose(fields, xi_slot, eta_slot)
        row = {ij: r for (i, j), r in zip(pairs, solved) for ij in ((i, j), (j, i))}
        Gamma = [[[row[i, j][k] for k in range(n)] for j in range(n)] for i in range(n)]
        h1 = [[row[i, j][n] for j in range(n)] for i in range(n)]
        h2 = [[row[i, j][n + 1] for j in range(n)] for i in range(n)]
        dxi = self.dxi() if xi_slot is None else solved[len(pairs):-n]
        deta = solved[-n:]
        S1 = [[-dxi[j][k] for j in range(n)] for k in range(n)]
        S2 = [[-deta[j][k] for j in range(n)] for k in range(n)]
        tau11 = [dxi[i][n] for i in range(n)]
        tau12 = [dxi[i][n + 1] for i in range(n)]
        tau21 = [deta[i][n] for i in range(n)]
        tau22 = [deta[i][n + 1] for i in range(n)]
        return {
            "Gamma": Gamma, "h1": h1, "h2": h2, "S1": S1, "S2": S2,
            "tau11": tau11, "tau12": tau12, "tau21": tau21, "tau22": tau22,
        }


# Rows per batch frame of a grid read.  On a 2-vCPU Xeon a hyperquadric mesh
# (order-1 frames) takes 19-31 us a point in 256-row batches, 15-24 us in
# 512-row ones and 12-25 us in 1,024- to 4,096-row ones, while a batch holds
# about 5 KB a row.
BATCH_ROWS = 512


def read_grid(scene, points, order, read, out):
    """Fill ``out``, arrays of N rows, with ``read(ff)`` (arrays, batch axis
    first) at each row of the (N, n) array ``points``, by batch frames of at
    most BATCH_ROWS rows.  The rows a failing check names are dropped and
    the rest rebuilt; a dropped row is read on its own cached frame, so it
    gets the result or the error of a one-point read.  Returns a dict from
    each failed row to its GeometryError."""
    def put(rows, ff):
        for target, value in zip(out, read(ff)):
            target[rows] = value

    errors = {}
    for start in range(0, len(points), BATCH_ROWS):
        rows = np.arange(start, min(start + BATCH_ROWS, len(points)))
        while len(rows):
            try:
                put(rows, FrameFields.batch(scene, points[rows], order))
                break
            except GeometryError as err:
                dropped = rows if err.rows is None else rows[err.rows]
            for r in dropped:
                try:
                    put(r, frame_fields(scene, points[r], order))
                except GeometryError as one:
                    errors[int(r)] = one
            rows = np.setdiff1d(rows, dropped)
    return errors


@lru_cache(maxsize=256)
def _fields(scene, t0_key, order):
    return FrameFields(scene, np.array(t0_key), order)


def frame_fields(scene, t, order):
    """The frame of ``scene`` at ``t``, exact through ``order``, cached by
    (scene, point, order).  Its Darboux part is solved, and degeneracy
    raised, to the order its first reader needs (:meth:`FrameFields.darboux`)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape != (scene.n,):
        raise DimensionError(f"expected a point with {scene.n} coordinates")
    return _fields(scene, tuple(float(v) for v in t), order)


# -- public operations ---------------------------------------------------


def _frame_point(ff, xi, eta, **gauge):
    return FramePoint(t=ff.t0.copy(), X=vec_values(ff.X), xi=vec_values(xi), eta=vec_values(eta),
                      gauge=gauge)


def tangent_frame(scene, t):
    """Provisional frame: tangent vectors plus the graph transversals.

    The xi slot holds the psi_y direction and the eta slot the last
    coordinate direction; no bracket normalization is applied yet.
    """
    ff = frame_fields(scene, t, READER_ORDER)
    return _frame_point(ff, ff.psi_y, ff.e_last, kind="provisional", normalized=False)


def nondegeneracy(scene, t):
    """Determinant of (h2(X_i, X_j)) in the provisional frame."""
    ff = frame_fields(scene, t, READER_ORDER)
    return float(ff.det_h2_value)


def darboux_direction(scene, t):
    """The osculating Darboux vector at t, in the scene's gauge."""
    ff = frame_fields(scene, t, READER_ORDER)
    return vec_values(ff.xi)


def darboux_frame(scene, t):
    """Bracket-normalized frame with the gauged Darboux field in the xi slot."""
    ff = frame_fields(scene, t, READER_ORDER)
    return _frame_point(ff, ff.xi, ff.eta, kind="darboux", normalized=True,
                        xi_scale=scene.xi_scale_text)


def structure_coefficients(scene, t, frame=None):
    """Structure coefficients at t with respect to ``frame``.

    ``frame`` defaults to the bracket-normalized Darboux frame.  A
    provisional frame from :func:`tangent_frame` is honored by rebuilding
    the matching fields from its gauge record.
    """
    ff = frame_fields(scene, t, READER_ORDER)
    if frame is not None and frame.gauge.get("kind") == "provisional":
        coeffs = ff.structure_jets(xi_slot=ff.psi_y, eta_slot=ff.e_last)
        frame = tangent_frame(scene, t)
    else:
        coeffs = ff.structure_jets()
        frame = frame or darboux_frame(scene, t)
    return StructureCoeffs(frame=frame, **{key: vec_values(jets) for key, jets in coeffs.items()})
