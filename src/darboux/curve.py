"""Curve specializations (n = 1): adapted parameterizations, the affine
Darboux frame invariants sigma, mu, tau, pointwise singularity criteria
for the tangent developable, and its mesh.

A parameterization of the curve gamma inside the surface M is adapted
when gamma''' stays tangent to M.  In the adapted gauge the frame
{gamma', gamma'', xi} has unit bracket and the structure equations read
gamma''' = -mu gamma' + tau xi and xi' = -sigma gamma'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import envelope as env
from .errors import (
    DegenerateError,
    DimensionError,
    OsculatingDegenerateError,
    SigmaZeroError,
)
from .frame import FrameFields, frame_fields, vec_partial, vec_values
from .jets import _PIVOT_EPS, Jet, bracket, jet_compose, jet_dot, jet_space

CRITERION_RTOL = 1e-8
# Taylor method for the adapted flow: the order of the s-jet each step is
# taken with, the tolerance of its last two coefficients relative to s_t,
# the fraction of |nu(gamma_ss)| at the anchor below which the flow is
# osculating-degenerate, and the fraction of the grid spacing below which
# a shrinking step means the same.
TAYLOR_ORDER = 12
TAYLOR_RTOL = 1e-14
OSCULATING_RTOL = 1e-9
MIN_STEP_FRACTION = 1e-3
# The order of the s-jet that sigma, mu and tau are read from.
INVARIANTS_ORDER = 4


@dataclass
class CurveScene:
    """A scene with n = 1 plus parameterization bookkeeping."""

    scene: object
    state: str = "raw"

    def __post_init__(self):
        if self.scene.n != 1:
            raise DimensionError("curve operations need a scene with n = 1")


def as_curve(scene):
    return CurveScene(scene)


@dataclass
class CurveInvariants:
    t: float
    sigma: float
    mu: float
    tau: float
    gauge: str = "adapted"
    residuals: dict = field(default_factory=dict)


@dataclass
class AdaptedCurve:
    """Reparameterization table: adapted parameter values, the solved
    change of parameter s(t), curve points, and adaptedness residuals."""

    t: np.ndarray
    s: np.ndarray
    ds_dt: np.ndarray
    points: np.ndarray
    residual: np.ndarray
    step: float


def adapt_parameterization(curve, interval, samples):
    """Solve the adapted-reparameterization flow s_tt = -(A / 3B) s_t^2,
    with A = nu(gamma_sss) and B = nu(gamma_ss) in the raw parameter s.

    ``interval`` is the range of the new parameter t, anchored at the
    scene base point: s(0) = t0, s_t(0) = 1.  A Taylor method marches from
    the anchor to the grid points on each side (Jorba & Zou, Exp. Math. 14,
    2005): each step evaluates the order-``TAYLOR_ORDER`` jet of s(t) that
    ``_parameter_jet`` builds (its two halves, ``_flow`` and ``_picard``,
    with B checked between them), and its length is the largest for which
    the last two Taylor coefficients stay below ``TAYLOR_RTOL`` relative to
    s_t, never past the next grid point.  ``AdaptedCurve.step`` is the
    largest step taken.  Each grid row reads its point and adaptedness
    residual off the jet and raw frame the march built there.

    Raises OsculatingDegenerateError where nu(gamma_ss) vanishes: at the
    base point, wherever |B| falls below ``OSCULATING_RTOL`` times its
    anchor value or changes sign, and where the allowed step shrinks below
    ``MIN_STEP_FRACTION`` of the grid spacing (the flow runs into a zero
    of B between two steps).  The tests are relative to the anchor, so
    scaling f leaves the result unchanged.
    """
    return _march(curve, interval, samples)[0]


def _march(curve, interval, samples):
    """``adapt_parameterization``'s table, and the (s-jet, raw frame) pair
    the march built at each grid row."""
    scene = curve.scene
    lo, hi = float(interval[0]), float(interval[1])
    if samples < 2:
        raise DimensionError("need at least two samples")
    t_grid = np.linspace(lo, hi, samples)
    # the grid spacing, widened to take in the anchor t = 0
    spacing = np.ptp(np.append(t_grid, 0.0)) / (samples - 1)
    b_anchor = None

    def expand(s, p):
        nonlocal b_anchor
        ff, nu_d2, nu_d3 = _flow(scene, s, TAYLOR_ORDER)
        b = float(nu_d2.value)
        if b_anchor is None:
            if b == 0.0:
                raise OsculatingDegenerateError("nu(gamma_ss) vanishes at the base point")
            b_anchor = b
        elif not b / b_anchor >= OSCULATING_RTOL:
            raise OsculatingDegenerateError(
                f"osculating pairing nu(gamma_ss) ~ {b:.3e} at s={s:.6g}"
            )
        return _picard(nu_d3 * nu_d2.reciprocal(), s, p, TAYLOR_ORDER), ff

    anchor = expand(float(scene.base_point()[0]), 1.0)
    rows = [None] * samples
    largest = 0.0
    for side in (t_grid >= 0.0, t_grid < 0.0):
        t, (s_jet, ff) = 0.0, anchor
        for i in sorted(np.flatnonzero(side), key=lambda k: abs(t_grid[k])):
            while t != t_grid[i]:
                c = s_jet.coeffs
                allowed = min(
                    (TAYLOR_RTOL * abs(c[1]) / abs(c[k])) ** (1.0 / (k - 1)) if c[k] else np.inf
                    for k in (TAYLOR_ORDER - 1, TAYLOR_ORDER)
                )
                if not allowed >= MIN_STEP_FRACTION * spacing:
                    raise OsculatingDegenerateError(
                        f"adapted flow stalls at t={t:.6g} (s={c[0]:.6g}): "
                        "the interval likely crosses an osculating degeneracy"
                    )
                h = t_grid[i] - t
                if abs(h) > allowed:
                    h = np.copysign(allowed, h)
                    t += h
                else:
                    t = t_grid[i]
                largest = max(largest, abs(h))
                p_coeffs = s_jet.derivative(0).coeffs
                s_jet, ff = expand(np.polyval(c[::-1], h), np.polyval(p_coeffs[::-1], h))
            rows[i] = s_jet, ff

    table = AdaptedCurve(
        t=t_grid,
        s=np.array([float(s_jet.value) for s_jet, _ in rows]),
        ds_dt=np.array([float(s_jet.coeffs[1]) for s_jet, _ in rows]),
        points=np.array([vec_values(ff.phi) for _, ff in rows]),
        residual=np.array([_adapted_residual(ff, s_jet) for s_jet, ff in rows]),
        step=largest,
    )
    return table, rows


def _flow(scene, s_value, order):
    """The raw frame at ``s_value`` and the pairings nu(gamma_ss) and
    nu(gamma_sss) along the raw parameter, as jets exact through
    ``order``.  The frame is built outside the frame cache: each march
    step asks for a new point, and the invariants read their gauge off
    this same frame."""
    ff = FrameFields(scene, [s_value], order + 1)
    d2 = [c.derivative(0).derivative(0) for c in ff.phi]
    d3 = [c.derivative(0) for c in d2]
    return ff, jet_dot(ff.conormal, d2), jet_dot(ff.conormal, d3)


def _picard(ratio, s_value, p_value, order):
    """Jet of t -> s(t) with s(0) = s_value, s_t(0) = p_value solving
    s_tt = -(ratio(s) / 3) s_t^2, by Picard iteration in jet arithmetic.
    The order tags stay full; coefficients of degree k are correct after k
    iterations, so ``order + 1`` passes settle the whole jet."""
    sp = jet_space(1, order)
    s_const = Jet.constant(sp, s_value)
    p_const = Jet.constant(sp, p_value)
    ratio = Jet(ratio.space, ratio.coeffs, order)
    s_jet, p_jet = s_const, p_const
    for _ in range(order + 1):
        accel = -(jet_compose(ratio, [s_jet]) * p_jet * p_jet) * (1.0 / 3.0)
        p_jet = p_const + _integrate(accel, order)
        s_jet = s_const + _integrate(p_jet, order)
    return s_jet


def _parameter_jet(scene, s_value, p_value, order):
    """Jet of the solved reparameterization t -> s(t) around a sample."""
    _, nu_d2, nu_d3 = _flow(scene, s_value, order)
    return _picard(nu_d3 * nu_d2.reciprocal(), s_value, p_value, order)


def _integrate(jet, order):
    j = Jet(jet.space, jet.coeffs, min(jet.order, order - 1))
    return j.antiderivative(0)


def _adapted_residual(ff, s_jet):
    """|nu(gamma_ttt)| / |nu(gamma_tt)| for the reparameterized curve, from
    the raw frame at s(0) and the jet of s(t)."""
    gamma_t = [jet_compose(c, [s_jet.truncated(3)]) for c in ff.phi]
    d2 = [c.derivative(0).derivative(0) for c in gamma_t]
    nu = vec_values(ff.conormal)
    denom = abs(float(nu @ vec_values(d2)))
    return abs(float(nu @ vec_values(vec_partial(d2, 0)))) / max(denom, 1e-30)


def curve_invariants(curve, t_value, s_value=None, p_value=None):
    """sigma, mu, tau at an adapted-parameter sample.

    When ``s_value``/``p_value`` are omitted the scene parameter is assumed
    to be adapted already (s = t).  The invariants are read by expressing
    xi' and gamma''' in the frame {gamma', gamma'', xi} with the bracket
    normalized to one.
    """
    if s_value is None:
        s_value, p_value = float(t_value), 1.0
    ff, nu_d2, nu_d3 = _flow(curve.scene, s_value, INVARIANTS_ORDER)
    ratio = nu_d3 * nu_d2.reciprocal()
    return _invariants(t_value, ff, _picard(ratio, s_value, p_value, INVARIANTS_ORDER))


def _invariants(t_value, ff, s_jet):
    """sigma, mu, tau from the raw frame at s and the order-``INVARIANTS_ORDER``
    jet of s(t)."""
    gamma = [jet_compose(c, [s_jet]) for c in ff.phi]
    xi_raw = [jet_compose(c, [s_jet]) for c in ff.xi]
    d1 = [c.derivative(0) for c in gamma]
    d2 = [c.derivative(0) for c in d1]
    d3 = [c.derivative(0) for c in d2]
    c_jet = bracket([d1, d2, xi_raw])
    c = float(c_jet.value)
    if abs(c) <= _PIVOT_EPS * np.prod(np.linalg.norm(vec_values([d1, d2, xi_raw]), axis=1)):
        raise DegenerateError("adapted bracket vanishes", c)
    xi = [component * c_jet.reciprocal() for component in xi_raw]
    dxi = [component.derivative(0) for component in xi]
    # Coordinates of xi' (row 0) and gamma''' (row 1) on {gamma', gamma'', xi}.
    sol = np.linalg.solve(vec_values([d1, d2, xi]).T, vec_values([dxi, d3]).T).T
    sigma = -float(sol[0][0])
    tau11 = float(sol[0][2])
    mu = -float(sol[1][0])
    tau = float(sol[1][2])
    return CurveInvariants(
        t=float(t_value),
        sigma=sigma,
        mu=mu,
        tau=tau,
        residuals={
            "tau11_adapted": tau11,
            "xi_gammapp_component": float(sol[0][1]),
            "bracket": c,
        },
    )


def curve_singularity(curve, t0):
    """Pointwise singularity type of the tangent developable over t0.

    Evaluates sigma_t - sigma tau11 and its derivative in the scene's own
    parameterization and gauge (the vanishing pattern is gauge-covariant):
    nonzero -> CuspidalEdge; zero with nonzero derivative -> Swallowtail;
    both zero -> Higher.  Raises SigmaZeroError when sigma(t0) vanishes.
    """
    scene = curve.scene
    (dxi,) = frame_fields(scene, [float(t0)], 3).dxi()
    sigma = -dxi[0]
    tau11 = dxi[1]
    sigma0 = float(sigma.value)
    scale = max(1.0, abs(sigma0))
    if abs(sigma0) < CRITERION_RTOL * scale:
        raise SigmaZeroError(f"sigma(t0) = {sigma0:.3e}")
    criterion = sigma.derivative(0) - sigma * tau11
    v = float(criterion.value)
    vt = float(criterion.derivative(0).value)
    cscale = max(abs(sigma0), abs(v), abs(vt), 1.0)
    if abs(v) > CRITERION_RTOL * cscale:
        return "CuspidalEdge"
    if abs(vt) > CRITERION_RTOL * cscale:
        return "Swallowtail"
    return "Higher"


def tangent_developable(curve, t_range, u_range):
    """Ruled mesh gamma(t) + u xi(t); singular flags trace u = 1/sigma(t).

    Probes the midpoint first so a curve lying in its own osculating
    plane fails fast instead of producing an all-NaN mesh."""
    mid = 0.5 * (float(t_range[0]) + float(t_range[1]))
    frame_fields(curve.scene, [mid], 1).xi  # raises DegenerateError if degenerate
    return env.envelope_mesh(curve.scene, [tuple(t_range)], tuple(u_range))


def invariants_table(curve, interval, samples):
    """Invariants along an adapted reparameterization, as table rows.

    Each row reuses the raw frame and the s-jet the march built at its
    sample, the jet truncated to ``INVARIANTS_ORDER``, so the table builds
    one frame per sample."""
    adapted, jets = _march(curve, interval, samples)
    rows = [
        _invariants(t, ff, s_jet.truncated(INVARIANTS_ORDER))
        for t, (s_jet, ff) in zip(adapted.t, jets)
    ]
    return adapted, rows


def write_invariants_csv(rows, path):
    with open(path, "w") as handle:
        handle.write("t,sigma,mu,tau\n")
        for inv in rows:
            handle.write(f"{inv.t:.17g},{inv.sigma:.17g},{inv.mu:.17g},{inv.tau:.17g}\n")
