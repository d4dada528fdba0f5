"""Germs of the tangency family and recognition of simple singularities.

The pipeline: restrict the family F(t, x) to a fixed ambient point, check
that the germ actually sits on the discriminant, split off the regular
quadratic block (iterated critical-point elimination in jet arithmetic, in
the germ's own coordinates t), and name the reduced germ f of order k by its
corank, the type of its cubic and its Milnor number mu, read once the k-jet
certifies that it determines f (see "the local algebra" below):

  corank 0                    -> Morse
  corank 1                    -> A_mu
  corank 2, not a cube        -> D_mu (D4: three distinct factors)
  corank 2, perfect cube      -> E_mu for mu in {6, 7, 8}, else
    (or no cubic)                Unresolved(modality suspected)
  corank > 2                  -> CorankTooHighError

An uncertified germ raises UnresolvedOrderError(k + 1), except a cube whose
lower bound mu_D already passes 8.

All thresholds are relative to the germ scale (max |coefficient|).
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property

import numpy as np

from .envelope import _envelope_point, _regression_values, family_gradient, family_jet
from .errors import (
    CorankTooHighError,
    NotAkPointError,
    NotOnDiscriminantError,
    ToleranceWarning,
    UnresolvedOrderError,
)
from .frame import frame_fields
from .jets import (Jet, fitted, jet_compose, jet_hessian, jet_space, partial_values,
                   signed_columns, stacked, unstacked)
from .record import Factory, Record

COEFF_ZERO_RTOL = 1e-9
STRUCT_RTOL = 1e-8
RANK_RTOL = 1e-8


class Germ(Record):
    """Taylor data of t -> F(t, x0) at t0, with provenance metadata."""

    nvars: int
    order: int
    jet: object
    scene_name: str | None = None
    t0: tuple = ()
    x0: tuple = ()


class SingularityClass(Record):
    """Recognition result for a function germ.

    ``label`` is one of Regular, Morse, Ak, Dk, E6, E7, E8 or
    Unresolved(reason).  ``corank`` and ``milnor`` are filled when they
    are determined.
    """

    kind: str
    k: int | None = None
    corank: int | None = None
    milnor: int | None = None
    reason: str | None = None
    detail: dict = Factory(dict)

    def __post_init__(self):
        if self.kind == "A" and self.corank is not None and self.corank > 1:
            raise ValueError("A-type germs have corank at most 1")
        if self.kind in ("D", "E") and self.corank not in (None, 2):
            raise ValueError("D/E-type germs have corank 2")

    @property
    def label(self):
        if self.kind in ("A", "D", "E"):
            return f"{self.kind}{self.k}"
        if self.kind == "Unresolved":
            return f"Unresolved({self.reason})"
        return self.kind

    def __str__(self):
        return self.label


def germ_jet(scene, t0, x0, order):
    """Jet of the family restricted to the ambient point x0.

    Warns when x0 is near, but not on, the discriminant; the caller sees
    the unmodified jet either way.
    """
    if order < 2:
        raise UnresolvedOrderError(2)
    jet = family_jet(scene, t0, x0, order)
    scale = _scale(jet)
    const = abs(float(jet.value))
    lin = float(np.abs(partial_values([jet])).max())
    near = max(const, lin)
    if 10 * COEFF_ZERO_RTOL * scale < near < 1e-4 * scale:
        warnings.warn(
            f"probe point is near but not on the discriminant (offsets {near:.2e})",
            ToleranceWarning,
        )
    return Germ(
        nvars=scene.n,
        order=order,
        jet=jet,
        scene_name=scene.name,
        t0=tuple(np.atleast_1d(t0).tolist()),
        x0=tuple(np.asarray(x0, dtype=float).tolist()),
    )


# -- coefficient helpers --------------------------------------------------


def _scale(jet):
    """The germ scale: max |coefficient| of ``jet``, or 1 for the zero jet."""
    return float(np.abs(np.asarray(jet.coeffs, dtype=float)).max()) or 1.0


def _clean(jet):
    """The reduced germ ``jet`` with its 2-jet (zero by construction, and
    rounding there would read as a term of the ideal) and every coefficient
    below COEFF_ZERO_RTOL of the rest's scale set to zero."""
    coeffs = np.asarray(jet.coeffs, dtype=float).copy()
    coeffs[: jet.space.prefix[3]] = 0.0
    coeffs[np.abs(coeffs) < COEFF_ZERO_RTOL * _scale(Jet(jet.space, coeffs, jet.order))] = 0.0
    return Jet(jet.space, coeffs, jet.order)


def _combine(matrix, jets):
    """The jets sum_j matrix[i, j] * jets[j], one per row of the matrix."""
    out = []
    for row in matrix:
        acc = Jet.constant(jets[0].space, 0.0)
        for c, jet in zip(row, jets):
            if c:
                acc = acc + jet * float(c)
        out.append(acc)
    return out


# -- splitting-lemma reduction --------------------------------------------


class _Reduction(Record):
    corank: int
    rotation: np.ndarray          # columns: regular directions then kernel
    regular_values: np.ndarray    # Hessian eigenvalues on the regular block
    reduced: object               # F(to_t) in `corank` variables (absent if corank 0)
    to_t: list | None             # critical graph z -> t = rotation (Y(z), z), t-space jets

    @cached_property
    def jacobian(self):  # built when a class is first read off it
        return _jacobian(self.reduced)

    @cached_property
    def colengths(self):
        """dim O / (J + m^(d+1)) for d = 0 .. k + 1, off the Jacobian matrix."""
        sp = jet_space(self.corank, self.reduced.order + 1)
        gained = _graded_ranks(self.jacobian.reshape(sp.size, -1), sp.degrees)
        return [length - int(rank) for length, rank in zip(sp.prefix[1:], np.cumsum(gained))]


def _split(jet, n, order):
    """Split the germ in its own coordinates t: the critical graph is
    iterated on the directional derivatives Q_r^T grad F, each composed
    with t(z), so the germ is never rotated in its n-variable space."""
    H = jet_hessian(jet, n)
    eigenvalues, vectors = np.linalg.eigh(H)
    scale = max(np.abs(eigenvalues).max(), 1.0)
    kernel = np.abs(eigenvalues) < STRUCT_RTOL * scale
    corank = int(kernel.sum())
    # regular directions (largest |eigenvalue| first), kernel last
    perm = sorted(range(n), key=lambda i: (bool(kernel[i]), -abs(eigenvalues[i])))
    Q = signed_columns(vectors[:, perm])
    lam = eigenvalues[perm][: n - corank]
    if corank == 0:
        return _Reduction(0, Q, lam, None, None)

    r = n - corank
    zsp = jet_space(corank, order)
    zcoords = Jet.coordinates(zsp, np.zeros(corank))
    Y = [Jet.constant(zsp, 0.0)] * r
    if r:
        # The r slopes share the graph, so each step composes them in one call.
        slopes = stacked(_combine(Q[:, :r].T, [jet.derivative(i) for i in range(n)]))
        for _ in range(order):
            on_graph = unstacked(jet_compose(slopes, _combine(Q, Y + zcoords)))
            Y = [y - d * (1.0 / l) for y, d, l in zip(Y, on_graph, lam)]
    # The restriction to the critical graph is first-order insensitive to Y
    # (the regular derivatives vanish there), so the graph known one order
    # short still determines the reduced germ through the full order.
    to_t = _combine(Q, [Jet(zsp, y.coeffs, order) for y in Y] + zcoords)
    return _Reduction(corank, Q, lam, _clean(jet_compose(jet, to_t)), to_t)


# -- the local algebra -------------------------------------------------------
#
# The reduced germ f of order k is named off one matrix: the Jacobian columns
# z^alpha df/dz_j on the monomials of degree <= k + 1, with ranks read degree
# by degree (see _graded_ranks).  Its blocks give
#   - the certificate: m^(k+1) in m^2 J + m^(k+2), the columns |alpha| >= 2 on
#     every row; by Nakayama m^(k+1) in m^2 J(f), Mather's sufficient condition
#     for f to be k-determined (Arnold, Gusein-Zade & Varchenko, Singularities
#     of Differentiable Maps I, sections 5-6);
#   - mu, the colength of J(j^k f) + m^(k+1), on the rows of degree <= k: the
#     Milnor number once the certificate holds, since f is then equivalent to
#     j^k f and m^(k+1) lies in J(j^k f);
#   - mu_D, the colength of J + m^k, on the rows of degree <= k - 1 (D), where
#     the unfolding on the critical graph is read: a lower bound of mu that
#     decides the versal rank exactly when it equals mu.


def _cubic_coeffs(jet):
    return np.array([float(jet.coefficient((3 - k, k))) for k in range(4)])


def _cubic_hessian(c):
    a, b, cc, d = c
    return np.array([12 * a * cc - 4 * b**2, 36 * a * d - 4 * b * cc, 12 * b * d - 4 * cc**2])


def _jacobian(f):
    """The columns z^alpha df/dz_j of the reduced germ f of order k, over f's
    scale, indexed (row, j, alpha) over the slots of jet_space(corank, k + 1),
    whose slots of degree <= k are f's own.  Each product's slot is found by
    adding slot keys.  df/dz_j is known through degree k - 1 and reads zero
    past it, so the columns are those of j^k f, and the ones with |alpha| >= 2
    are exact through degree k + 1."""
    sp = jet_space(f.space.nvars, f.order + 1)
    alpha, beta = np.nonzero(sp.degrees[:, None] + sp.degrees <= sp.order)
    product = np.searchsorted(sp.keys, sp.keys[alpha] + sp.keys[beta])
    jacobian = np.zeros((sp.size, sp.nvars, sp.size))
    for j in range(sp.nvars):
        jacobian[product, j, alpha] = fitted(f.derivative(j).coeffs, sp.size)[beta] / _scale(f)
    return jacobian


def _graded_ranks(matrix, degrees):
    """The rank ``matrix`` (columns of one scale, rows the monomials of the
    first ``degrees``) gains on each degree's rows, read from the lowest: the
    live columns spend the directions whose singular values pass RANK_RTOL,
    and their null combinations go on.  One SVD of the whole would read the
    product of small leading parts: 1e-3 z^3 + z^4 lost a rank at order 6."""
    cols = np.array(matrix, dtype=float)
    live = np.ones(cols.shape[1], dtype=bool)
    bounds = np.searchsorted(degrees[:len(cols)], np.arange(degrees[len(cols) - 1] + 2))
    gained = np.zeros(len(bounds) - 1, dtype=int)
    for d, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        active = np.flatnonzero(live & (cols[lo:hi] != 0).any(axis=0))
        if active.size:
            _, sv, vt = np.linalg.svd(cols[lo:hi, active])
            gained[d] = spent = int((sv > RANK_RTOL).sum())
            cols[hi:, active[spent:]] = cols[hi:, active] @ vt[spent:].T
            live[active[:spent]] = False
    return gained


def _certified(jacobian, sp):
    """m^(k+1) in m^2 J + m^(k+2), on the matrix over ``sp`` (order k + 1):
    the columns with |alpha| >= 2 span the degree-(k+1) rows."""
    squared = jacobian[:, :, sp.prefix[2]:].reshape(sp.size, -1)
    return _graded_ranks(squared, sp.degrees)[-1] == sp.size - sp.prefix[sp.order]


# -- public classification -------------------------------------------------


def _normalized(germ):
    """The germ's float jet and the same jet divided by its scale (max
    |coefficient|), truncated at the germ order, with that scale."""
    jet = germ.jet.to_float() if germ.jet.exact else germ.jet
    scale = _scale(jet)
    return jet, Jet(jet.space, jet.coeffs / scale, min(germ.order, jet.order)), scale


def _classify(germ):
    """classify_germ, also returning the splitting reduction it recognized
    the germ from (None for a Regular germ)."""
    jet, work, scale = _normalized(germ)
    n = germ.nvars
    order = work.order
    if abs(float(jet.value)) > 1e-7 * scale:
        raise NotOnDiscriminantError(
            f"constant term {float(jet.value):.3e} does not vanish"
        )
    linear = partial_values([jet])[:, 0]
    if np.abs(linear).max() > 1e-7 * scale:
        return SingularityClass("Regular", detail={"gradient": linear.tolist()}), None
    if not np.abs(np.asarray(jet.coeffs, dtype=float)).max() > 0:
        raise UnresolvedOrderError(order + 1)

    reduction = _split(work, n, order)
    detail = {
        "corank": reduction.corank,
        "regular_eigenvalues": (reduction.regular_values * scale).tolist(),
    }
    if reduction.corank == 0:
        return SingularityClass("Morse", k=1, corank=0, milnor=1, detail=detail), reduction
    if reduction.corank > 2:
        raise CorankTooHighError(reduction.corank)
    f, kind = reduction.reduced, "A"
    if reduction.corank == 2:
        if order < 3:
            raise UnresolvedOrderError(3)
        cubic = _cubic_coeffs(f)
        # The Hessian of a binary cubic vanishes exactly on perfect cubes, 0
        # among them: with no cubic, mu >= 9.
        cube = np.abs(_cubic_hessian(cubic)).max() <= STRUCT_RTOL * np.abs(cubic).max()**2
        kind = "E" if cube else "D"
    sp = jet_space(reduction.corank, order + 1)
    certified = _certified(reduction.jacobian, sp)
    # mu_D bounds mu from below: a cube past 8 is no E germ at any order.
    if not (certified or kind == "E" and reduction.colengths[order - 1] > 8):
        raise UnresolvedOrderError(order + 1)
    mu = reduction.colengths[order] if certified else None
    if kind == "E" and mu not in (6, 7, 8):
        return SingularityClass(
            "Unresolved", reason="modality suspected", corank=2,
            detail=dict(detail, note="perfect or vanishing cube, not E6, E7 or E8"),
        ), reduction
    return SingularityClass(kind, k=mu, corank=reduction.corank, milnor=mu,
                            detail=detail), reduction


def classify_germ(germ):
    """Recognize the singularity class of a germ on the discriminant.

    Raises NotOnDiscriminantError when the constant part does not vanish,
    CorankTooHighError above corank 2, and UnresolvedOrderError when the
    stored order cannot decide (with the minimum order that could).
    """
    return _classify(germ)[0]


def split_germ(germ):
    """Expose the splitting-lemma reduction (rotation, eigenvalues, the
    reduced germ and the critical graph ``to_t``, t-space jets over the
    kernel coordinates) and the germ scale, for tests and diagnostics."""
    _, work, scale = _normalized(germ)
    return _split(work, germ.nvars, work.order), scale


# -- versality --------------------------------------------------------------
#
# The unfolding by the ambient point x is the family's ambient partials
# dF/dx_j on the germ's critical graph.  An affine change of ambient
# coordinates scales them unevenly (z -> c z scales the last one by 1/c), so
# each is divided by its largest |entry| before its rank is read: RANK_RTOL
# then compares shapes, not units, and a stretched scene keeps its verdict.


def _local_algebra(reduction, gradient):
    """mu_D, the dimension of O / (J(f) + m^(D+1)) for the reduced germ f and
    D = order - 1, read off the reduction's Jacobian matrix; the rank in it
    of the unfolding by ``gradient`` (a stacked jet in the germ's coordinates
    t); and that unfolding on the critical graph, one row per monomial of
    degree <= D.  mu_D never exceeds the Milnor number and equals it once the
    order resolves it; the unfolding is then versal when it spans the
    quotient (rank [J | P] = L, no constant column).  A Morse germ's algebra
    is R, spanned by the value row."""
    f = reduction.reduced
    if f is None:
        mu_D, degrees, jacobian, rows = 1, [0], np.zeros((1, 0)), gradient.value[None, :]
    else:
        mu_D, degrees = reduction.colengths[f.order - 1], f.space.degrees
        length = f.space.truncation_length(f.order - 1)
        jacobian = reduction.jacobian[:length, :, :length].reshape(length, -1)
        rows = fitted(jet_compose(gradient, reduction.to_t).coeffs, length).T
    peak = np.abs(rows).max(axis=0)
    unfolded = _graded_ranks(np.hstack([jacobian, rows / np.where(peak > 0, peak, 1.0)]), degrees)
    return mu_D, int(unfolded.sum()) - (len(rows) - mu_D), rows  # rank J = L - mu_D


# The benchmark's tracer times this routine under its former name.
_versality_heuristic = _local_algebra


def versality_matrix(scene, t0, x0, k):
    """Rank data of the unfolding at an A_k point: the Taylor coefficients
    (orders 0..k-1 along the critical graph, a basis of the local algebra)
    of each ambient partial of the family, and their rank in the local
    algebra; the unfolding is versal exactly when it is k.  The germ is
    taken at order max(k + 1, 3).  Raises NotAkPointError when the germ at
    (t0, x0) is not of type A_k.
    """
    order = max(k + 1, 3)
    klass, reduction = _classify(germ_jet(scene, t0, x0, order))
    if klass.kind not in ("A", "Morse") or klass.k != k:
        raise NotAkPointError(f"germ classifies as {klass.label}, not A{k}")
    gradient = stacked(family_gradient(frame_fields(scene, t0, order)))
    _, rank, rows = _local_algebra(reduction, gradient)
    return rows[:k], rank


def classify_envelope_point(scene, t0, u, order=6):
    """Classification report for the envelope point over (t0, u).

    ``u`` must sit on the regression set of t0 within tolerance; the
    report carries the class, the corank, and a versality verdict read in
    the local algebra (``_local_algebra``): None where the order resolves
    it below the Milnor number that names the class."""
    if not math.isfinite(u):
        raise NotOnDiscriminantError(f"u={u} is not finite")
    if order < 2:
        raise UnresolvedOrderError(2)
    # The regression check, x0, the germ and the versality reads share one frame.
    ff = frame_fields(scene, t0, order)
    regs = _regression_values(ff)
    # Within 1e-6 of a value, relative to it; a NaN distance fails too.
    if not any(abs(u - r) <= 1e-6 * abs(r) for r in regs):
        raise NotOnDiscriminantError(
            f"u={u} is not a regression value (candidates {regs})"
        )
    x0 = _envelope_point(ff, u)
    diagnostics = []
    try:
        klass, reduction = _classify(germ_jet(scene, t0, x0, order))
    except CorankTooHighError as err:
        klass = SingularityClass("Unresolved", reason="corank > 2", corank=err.corank)
        diagnostics.append(str(err))
    except UnresolvedOrderError as err:
        klass = SingularityClass("Unresolved", reason="order exceeded",
                                 detail={"needed_order": err.needed_order})
        diagnostics.append(str(err))
    versal = versal_method = None
    if klass.milnor is not None:
        mu_D, rank, _ = _local_algebra(reduction, stacked(family_gradient(ff)))
        versal_method = "rank"
        if mu_D < klass.milnor:
            diagnostics.append(f"order {order} reads mu_D {mu_D} < mu {klass.milnor}: versality undecided")
        else:
            versal = rank == mu_D
    return {
        "point": list(np.atleast_1d(np.asarray(t0, dtype=float))),
        "u": float(u),
        "x0": [float(v) for v in x0],
        "class": klass.label,
        "milnor_corank": klass.corank,
        "milnor": klass.milnor,
        "versal": versal,
        "versal_method": versal_method,
        "diagnostics": diagnostics,
    }
