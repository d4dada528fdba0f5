"""Germs of the tangency family and recognition of simple singularities.

The pipeline: restrict the family F(t, x) to a fixed ambient point, check
that the germ actually sits on the discriminant, split off the regular
quadratic block (iterated critical-point elimination in jet arithmetic, in
the germ's own coordinates t), and recognize the residual germ by corank
and cubic type:

  corank 0                  -> Morse
  corank 1                  -> A_k from the first surviving power
  corank 2, cubic 3 factors -> D4 (sign from the real factor count)
  corank 2, double factor   -> D_k from the lowest surviving pure power
  corank 2, perfect cube    -> E6 / E7 / E8 ladder
  anything else             -> Unresolved

All thresholds are relative to the germ scale (max |coefficient|).
"""

from __future__ import annotations

import math
import warnings

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
from .jets import Jet, jet_compose, jet_hessian, jet_space, stacked, unstacked
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
    are determined; D-germs carry a sign convention recorded in ``sign``.
    """

    kind: str
    k: int | None = None
    sign: str | None = None
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
    lin = max(abs(float(jet.derivative(i).value)) for i in range(scene.n))
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


def _coeff(jet, *alpha):
    return float(jet.coefficient(tuple(alpha)))


def _scale(jet):
    """The germ scale: max |coefficient| of ``jet``, or 1 for the zero jet."""
    return float(np.abs(np.asarray(jet.coeffs, dtype=float)).max()) or 1.0


def _clean(jet, rtol=COEFF_ZERO_RTOL):
    coeffs = np.asarray(jet.coeffs, dtype=float).copy()
    coeffs[np.abs(coeffs) < rtol * _scale(jet)] = 0.0
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


def _linear_substitution(jet, matrix):
    """Compose a 2-variable jet with the linear map t = M s (columns of M
    are the images of the new coordinate directions), in its own space."""
    return jet_compose(jet, _combine(matrix, Jet.coordinates(jet.space, np.zeros(2))))


# -- splitting-lemma reduction --------------------------------------------


class _Reduction(Record):
    corank: int
    rotation: np.ndarray          # columns: regular directions then kernel
    regular_values: np.ndarray    # Hessian eigenvalues on the regular block
    reduced: object               # F(to_t) in `corank` variables (absent if corank 0)
    to_t: list | None             # critical graph z -> t = rotation (Y(z), z), t-space jets


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
    Q = vectors[:, perm]
    for col in range(n):
        lead = np.argmax(np.abs(Q[:, col]))
        if Q[lead, col] < 0:
            Q[:, col] = -Q[:, col]
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


# -- corank-2 recognition ---------------------------------------------------


def _cubic_coeffs(jet):
    return np.array([_coeff(jet, 3 - k, k) for k in range(4)])


def _cubic_hessian(c):
    a, b, cc, d = c
    return np.array([12 * a * cc - 4 * b**2, 36 * a * d - 4 * b * cc, 12 * b * d - 4 * cc**2])


def _cubic_discriminant(c):
    a, b, cc, d = c
    return 18 * a * b * cc * d - 4 * b**3 * d + b**2 * cc**2 - 4 * a * cc**3 - 27 * a**2 * d**2


def _real_cbrt(x):
    return np.sign(x) * abs(x) ** (1.0 / 3.0)


def _kill_degree_terms(jet, degree, mode):
    """One normal-form step at a fixed total degree for 2-variable germs.

    mode "cube":   cubic is x^3; substitute x -> x + phi to remove all
                   degree-`degree` terms divisible by x^2.
    mode "double": cubic is x^2 y; substitute y -> y + psi to remove x^2
                   divisible terms, then x -> x + chi for the x y^{d-1} term.
    """
    sp = jet.space
    coords = Jet.coordinates(sp, np.zeros(2))

    def monomial(a, b, coefficient):
        return (coords[0] ** a) * (coords[1] ** b) * coefficient

    var, divisor = (0, 3.0) if mode == "cube" else (1, 1.0)
    shift = Jet.constant(sp, 0.0)
    touched = False
    for a in range(2, degree + 1):
        c = _coeff(jet, a, degree - a)
        if c:
            shift = shift + monomial(a - 2, degree - a, -c / divisor)
            touched = True
    if touched:
        moved = list(coords)
        moved[var] = coords[var] + shift
        jet = jet_compose(jet, moved)
    c = _coeff(jet, 1, degree - 1) if mode == "double" else 0.0
    if c:
        chi = monomial(0, degree - 2, -c / 2.0)
        jet = jet_compose(jet, [coords[0] + chi, coords[1]])
    return jet


def _classify_corank2(reduced, order, detail):
    if order < 3:
        raise UnresolvedOrderError(3)
    cubic = _cubic_coeffs(reduced)
    cubic_scale = np.abs(cubic).max()
    if cubic_scale < COEFF_ZERO_RTOL * _scale(reduced):
        return SingularityClass(
            "Unresolved", reason="modality suspected", corank=2,
            detail=dict(detail, note="vanishing cubic part"),
        )
    hess = _cubic_hessian(cubic)
    disc = _cubic_discriminant(cubic)
    if np.abs(hess).max() < STRUCT_RTOL * cubic_scale**2:
        return _classify_cube(reduced, cubic, order, detail)
    if abs(disc) < STRUCT_RTOL * cubic_scale**4:
        return _classify_double_factor(reduced, cubic, hess, order, detail)
    sign = "-" if disc > 0 else "+"  # three real factors -> hyperbolic (minus)
    return SingularityClass("D", k=4, sign=sign, corank=2, milnor=4,
                            detail=dict(detail, discriminant=float(disc)))


def _classify_cube(reduced, cubic, order, detail):
    # cubic = (a x + b y)^3; send the root direction to the y-axis.
    if abs(cubic[0]) >= abs(cubic[3]):
        a = _real_cbrt(cubic[0])
        b = cubic[1] / (3 * a * a)
    else:
        b = _real_cbrt(cubic[3])
        a = cubic[2] / (3 * b * b)
    v1 = np.array([b, -a])                       # root direction, l(v1) = 0
    v2 = np.array([a, b]) / (a * a + b * b)      # l(v2) = 1
    T = np.column_stack([v2, v1])
    jet = _linear_substitution(reduced, T)
    kappa = _coeff(jet, 3, 0)
    jet = _linear_substitution(jet, np.diag([1.0 / _real_cbrt(kappa), 1.0]))
    for degree in range(4, order + 1):
        jet = _kill_degree_terms(_clean(jet), degree, "cube")
    jet = _clean(jet)
    scale = _scale(jet)
    if order < 4:
        raise UnresolvedOrderError(4)
    b4, a3 = _coeff(jet, 0, 4), _coeff(jet, 1, 3)
    if abs(b4) > COEFF_ZERO_RTOL * scale:
        return SingularityClass("E", k=6, corank=2, milnor=6, detail=detail)
    if abs(a3) > COEFF_ZERO_RTOL * scale:
        return SingularityClass("E", k=7, corank=2, milnor=7, detail=detail)
    if order < 5:
        raise UnresolvedOrderError(5)
    b5 = _coeff(jet, 0, 5)
    if abs(b5) > COEFF_ZERO_RTOL * scale:
        return SingularityClass("E", k=8, corank=2, milnor=8, detail=detail)
    return SingularityClass(
        "Unresolved", reason="modality suspected", corank=2,
        detail=dict(detail, note="perfect cube with no E-type term through order 5"),
    )


def _classify_double_factor(reduced, cubic, hess, order, detail):
    # Hessian of the cubic is proportional to the square of the repeated factor.
    h0, h1, h2 = hess
    if abs(h0) >= abs(h2):
        s = np.sign(h0)
        p = np.sqrt(abs(h0))
        q = h1 / (2 * s * p)
    else:
        s = np.sign(h2)
        q = np.sqrt(abs(h2))
        p = h1 / (2 * s * q)
    v1 = np.array([q, -p])                       # double-root direction
    v1 /= np.linalg.norm(v1)
    # simple factor by least squares on the convolution (p x + q y)^2 (u0 x + u1 y)
    A = np.array(
        [[p * p, 0.0], [2 * p * q, p * p], [q * q, 2 * p * q], [0.0, q * q]]
    )
    u, *_ = np.linalg.lstsq(A, cubic / s, rcond=None)
    u0, u1 = u
    v2 = np.array([u1, -u0])
    v2 /= np.linalg.norm(v2)
    T = np.column_stack([v2, v1])
    jet = _linear_substitution(reduced, T)
    kappa = _coeff(jet, 2, 1)
    jet = _linear_substitution(jet, np.diag([1.0, 1.0 / kappa]))
    for degree in range(4, order + 1):
        jet = _kill_degree_terms(_clean(jet), degree, "double")
    jet = _clean(jet)
    scale = _scale(jet)
    for m in range(4, order + 1):
        bm = _coeff(jet, 0, m)
        if abs(bm) > COEFF_ZERO_RTOL * scale:
            return SingularityClass(
                "D", k=m + 1, sign="+" if bm > 0 else "-", corank=2, milnor=m + 1,
                detail=dict(detail, pure_power=m),
            )
    raise UnresolvedOrderError(order + 1)


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
    linear = np.array([float(jet.derivative(i).value) for i in range(n)])
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
    if reduction.corank == 1:
        red = reduction.reduced
        rscale = _scale(red)
        for m in range(3, order + 1):
            cm = float(red.coefficient((m,)))
            if abs(cm) > COEFF_ZERO_RTOL * rscale:
                return SingularityClass(
                    "A", k=m - 1, corank=1, milnor=m - 1,
                    detail=dict(detail, leading_power=m),
                ), reduction
        raise UnresolvedOrderError(order + 1)
    return _classify_corank2(reduction.reduced, order, detail), reduction


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
# The unfolding of the germ by the ambient point x is read from the family's
# ambient partials dF/dx_j, restricted to the germ's kernel (a line for A_k,
# the splitting plane for D/E).  Each partial is a column of the rank matrix.
# An affine change of ambient coordinates scales the partials by different
# factors (z -> c z scales the last one by 1/c against the others), so before
# the SVD each column is divided by its largest |entry|: the rank tolerance
# RANK_RTOL then compares shapes, not units, and the verdict does not flip
# when a scene is stretched along an axis.


def _equilibrated_rank(matrix):
    """Numerical rank after scaling every nonzero column to max |entry| 1."""
    peak = np.abs(matrix).max(axis=0)
    scaled = matrix / np.where(peak > 0, peak, 1.0)
    sv = np.linalg.svd(scaled, compute_uv=False)
    return int((sv > RANK_RTOL * sv.max()).sum()) if sv.max() > 0 else 0


def _ak_versality(scene, t0, reduction, k, order):
    """Rows and rank of the A_k versality matrix, along the kernel direction
    of the germ's splitting reduction (the last rotation column)."""
    ff = frame_fields(scene, t0, order)
    s = Jet.coordinates(jet_space(1, order), np.zeros(1))[0]
    line = [s * float(c) for c in reduction.rotation[:, -1]]
    rows = jet_compose(stacked(family_gradient(ff)), line).coeffs[:, :k].T
    return rows, _equilibrated_rank(rows)


def versality_matrix(scene, t0, x0, k):
    """Rank data of the unfolding at an A_k point.

    Rows are the Taylor coefficients (orders 0..k-1 along the Hessian
    kernel direction) of each ambient partial of the family; the unfolding
    is versal exactly when the rank is k.  The rank is taken after each
    column is scaled to max |entry| 1 (the returned rows are unscaled).
    The germ is taken at order max(k + 1, 3).  Raises NotAkPointError when
    the germ at (t0, x0) is not of type A_k.
    """
    order = max(k + 1, 3)
    klass, reduction = _classify(germ_jet(scene, t0, x0, order))
    if not (klass.kind == "A" and klass.k == k) and not (
        klass.kind == "Morse" and k == 1
    ):
        raise NotAkPointError(f"germ classifies as {klass.label}, not A{k}")
    return _ak_versality(scene, t0, reduction, k, order)


def _versality_heuristic(scene, t0, germ, klass, reduction):
    """Coefficient-span check for D/E germs: restrict the ambient partials
    of the family to the splitting kernel plane and ask whether they span
    at least mu independent directions among the monomials through the
    degree of the recognized miniversal basis.  Heuristic: monomial-space
    independence stands in for independence in the local algebra."""
    if reduction.corank != 2 or klass.milnor is None:
        return None
    max_degree = {"E6": 3, "E7": 4, "E8": 4}.get(klass.label, max(klass.k - 2, 2))
    ff = frame_fields(scene, t0, germ.order)
    in_plane = jet_compose(stacked(family_gradient(ff)), reduction.to_t)
    # The monomials through max_degree are the slots up to its truncation.
    matrix = in_plane.coeffs[:, :in_plane.space.truncation_length(max_degree)].T
    return _equilibrated_rank(matrix) >= klass.milnor


def classify_envelope_point(scene, t0, u, order=6):
    """Classification report for the envelope point over (t0, u).

    ``u`` must sit on the regression set of t0 within tolerance; the
    report carries the class, the corank, and a versality verdict (exact
    rank test for A-germs, heuristic span test for D/E)."""
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
    germ = germ_jet(scene, t0, x0, order)
    diagnostics = []
    try:
        klass, reduction = _classify(germ)
    except CorankTooHighError as err:
        klass = SingularityClass("Unresolved", reason="corank > 2", corank=err.corank)
        diagnostics.append(str(err))
    except UnresolvedOrderError as err:
        klass = SingularityClass("Unresolved", reason="order exceeded",
                                 detail={"needed_order": err.needed_order})
        diagnostics.append(str(err))
    versal = None
    versal_method = None
    if klass.kind in ("A", "Morse"):
        k = klass.k if klass.kind == "A" else 1
        _, rank = _ak_versality(scene, t0, reduction, k, order)
        versal = rank == k
        versal_method = "rank"
    elif klass.kind in ("D", "E"):
        verdict = _versality_heuristic(scene, t0, germ, klass, reduction)
        if verdict is not None:
            versal = verdict
            versal_method = "heuristic"
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
