"""Curve specializations (n = 1): adapted parameterizations, the affine
Darboux frame invariants sigma, mu, tau, pointwise singularity criteria
for the tangent developable, and its mesh.

A parameterization of the curve gamma inside the surface M is adapted
when gamma''' stays tangent to M.  In the adapted gauge the frame
{gamma', gamma'', xi} has unit bracket and the structure equations read
gamma''' = -mu gamma' + tau xi and xi' = -sigma gamma'.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import envelope as env
from .errors import (DegenerateError, DimensionError, GeometryError, OsculatingDegenerateError,
                     SigmaZeroError)
from .frame import FrameFields, frame_fields, vec_partial, vec_values
from .jets import _PIVOT_EPS, Jet, check, first_failing, hadamard, jet_compose, jet_dot, jet_space
from .jets import stacked, unstacked, value_dot, vanishes
from .record import Factory, Record

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


class CurveScene(Record):
    """A scene with n = 1."""

    scene: object

    def __post_init__(self):
        if self.scene.n != 1:
            raise DimensionError("curve operations need a scene with n = 1")


def as_curve(scene):
    return CurveScene(scene)


class CurveInvariants(Record):
    t: float
    sigma: float
    mu: float
    tau: float
    gauge: str = "adapted"
    residuals: dict = Factory(dict)


class AdaptedCurve(Record):
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
    scene base point: s(0) = t0, s_t(0) = 1.  A Taylor method marches out
    from the anchor (Jorba & Zou, Exp. Math. 14, 2005): each step takes the
    order-``TAYLOR_ORDER`` jet of s(t) by ``_parameter_jet`` and runs the full
    length over which its last two coefficients stay below ``TAYLOR_RTOL``
    relative to s_t; s and s_t at the grid points it passes are read off its
    polynomial by Horner (dense output).  ``AdaptedCurve.step`` is the longest
    reach of a step polynomial.  ``_rows`` reads the rows off one raw frame.

    Raises EmptyGridError for a span that is not finite, and
    OsculatingDegenerateError where nu(gamma_ss) vanishes: at the base point,
    where B at a step's start or at a row is below ``OSCULATING_RTOL`` of its
    anchor value (so f -> c f changes nothing), and where the allowed step
    shrinks below ``MIN_STEP_FRACTION`` of the grid spacing (a zero of B ahead).
    """
    return _march(curve, interval, samples)[0]


def _march(curve, interval, samples):
    """``adapt_parameterization``'s table, and ``_rows``' read of its rows."""
    scene = curve.scene
    if samples < 2:
        raise DimensionError("need at least two samples")
    t_grid = env.grid_axis(interval[0], interval[1], samples)
    # the grid spacing, widened to take in the anchor t = 0
    spacing = np.ptp(np.append(t_grid, 0.0)) / (samples - 1)
    b_anchor = None

    def expand(s, p, t):
        """The step at (s, p): s and s_t at h off its polynomials by Horner, and its reach."""
        nonlocal b_anchor
        # Not from the frame cache: each step asks for a new point.
        nu_d2, nu_d3 = _flow(FrameFields(scene, [s], TAYLOR_ORDER - 1))
        if b_anchor is None and nu_d2.value == 0.0:
            raise OsculatingDegenerateError("nu(gamma_ss) vanishes at the base point")
        b_anchor = b_anchor or float(nu_d2.value)
        _check_osculating(nu_d2.value, b_anchor, s)
        s_jet = _parameter_jet(nu_d2, nu_d3, s, p, TAYLOR_ORDER)
        c = s_jet.coeffs
        allowed = min((TAYLOR_RTOL * abs(c[1]) / abs(c[k])) ** (1.0 / (k - 1)) if c[k] else np.inf
                      for k in (TAYLOR_ORDER - 1, TAYLOR_ORDER))
        if not allowed >= MIN_STEP_FRACTION * spacing:
            raise OsculatingDegenerateError(f"adapted flow stalls at t={t:.6g} (s={c[0]:.6g}): "
                                            "the interval likely crosses an osculating degeneracy")
        polys = c[::-1].tolist(), s_jet.derivative(0).coeffs[::-1].tolist()
        return lambda h: [reduce(lambda v, a: v * h + a, poly, 0.0) for poly in polys], allowed

    anchor = expand(float(scene.base_point()[0]), 1.0, 0.0)
    s_rows, p_rows, largest = np.empty(samples), np.empty(samples), 0.0
    for side in (t_grid >= 0.0, t_grid < 0.0):
        t, (at, allowed) = 0.0, anchor
        for i in sorted(np.flatnonzero(side), key=lambda k: abs(t_grid[k])):
            while abs(t_grid[i] - t) > allowed:
                h = float(np.copysign(allowed, t_grid[i] - t))
                t, largest = t + h, max(largest, allowed)
                at, allowed = expand(*at(h), t)
            h = float(t_grid[i] - t)
            s_rows[i], p_rows[i] = at(h)
            largest = max(largest, abs(h))
    ff, s_jets, gamma = _rows(scene, s_rows, p_rows, b_anchor)
    return (AdaptedCurve(t_grid, s_jets.value, s_jets.coeffs[:, 1], vec_values(ff.phi),
                         _adapted_residual(ff, gamma), largest), ff, s_jets, gamma)


def _check_osculating(b, b_anchor, s):
    """OsculatingDegenerateError where B / ``b_anchor`` is below ``OSCULATING_RTOL``."""
    bad = np.logical_not(np.divide(b, b_anchor) >= OSCULATING_RTOL)
    check(bad, lambda: OsculatingDegenerateError("osculating pairing nu(gamma_ss) ~ %.3e at s=%.6g"
                                                 % (first_failing(b, bad), first_failing(s, bad))))


def _rows(scene, s_values, p_values, b_anchor=None):
    """One raw frame at ``INVARIANTS_ORDER`` - 1 over the rows' s (B checked against
    ``b_anchor`` if given), their s-jets from (s, s_t) and its ``_flow``, and phi along them."""
    ff = FrameFields.batch(scene, np.reshape(s_values, (-1, 1)), INVARIANTS_ORDER - 1)
    nu_d2, nu_d3 = _flow(ff)
    if b_anchor is not None:
        _check_osculating(nu_d2.value, b_anchor, s_values)
    s_jets = _parameter_jet(nu_d2, nu_d3, ff.t0[:, 0], p_values, INVARIANTS_ORDER)
    return ff, s_jets, unstacked(jet_compose(stacked(ff.phi), [s_jets]))


def _flow(ff):
    """nu(gamma_ss), the frame's h2_prov, and nu(gamma_sss) along the raw
    parameter, exact through ``ff.order`` and one less: a frame of order
    k - 1 gives the ratio's r_0 .. r_(k-2) that an order-k ``_parameter_jet`` reads."""
    d3 = [c.derivative(0) for c in ff.second[0][0]]
    return ff.h2_prov[0][0], jet_dot(ff.conormal, d3)


def _parameter_jet(nu_d2, nu_d3, s_value, p_value, order):
    """Jet of t -> s(t), s(0) = s_value, s_t(0) = p_value, solving s_tt =
    -(A(s) / 3B(s)) s_t^2 for ``_flow``'s pairings B = ``nu_d2``, A = ``nu_d3``;
    for batch pairings s_value and p_value hold a row each, computed elementwise.

    Taylor recurrence on p = s_t, each coefficient computed once: with r_k =
    (A_k - sum_(i<k) B_(k-i) r_i) / B_0 those of A / B and u = s - s_value, pass
    k = 0 .. order - 2 takes u_k = p_(k-1) / k, column k of each u^j = u^(j-1) u,
    R_k = sum_j r_j (u^j)_k, (R p)_k, (R p p)_k and p_(k+1) = (-(R p p)_k / 3 +
    0.0) / (k + 1) + 0.0.  Each slot sums from +0.0 as the jet engine sums it:
    a_i b_(k-i) with i ascending (the pair table), r_j (u^j)_k with j ascending
    (``jet_compose``); the + 0.0 are its scalar products and integrals.  Its
    other terms are exact zeros, which cannot make a sum begun at +0.0 read
    -0.0, so no bit differs from Picard passes of compositions with that r."""
    b, a = (c.tolist() if c.ndim == 1 else list(c.T) for c in (nu_d2.coeffs, nu_d3.coeffs))
    zero = np.abs(b[0]) < 1e-300  # where a jet's reciprocal would raise DomainError
    check(zero, lambda: OsculatingDegenerateError(
        "osculating pairing nu(gamma_ss) vanishes at s=%.6g" % first_failing(s_value, zero)))
    r = []
    for k in range(order - 1):
        r.append((a[k] - _slot(b, r, k, 1)) / b[0])
    p, u = [0.0 + p_value], [0.0]
    powers = [[1.0] + [0.0] * order]  # powers[j]: u^j, one column per pass
    big_r, rp = [], []
    for k in range(order - 1):
        if k:
            u.append(p[k - 1] / k)
            powers.append(u if k == 1 else [0.0] * k)
            for j in range(2, k + 1):
                powers[j].append(_slot(powers[j - 1], u, k, j - 1))
        # sum_j r_j (u^j)_k as a product slot, against the column reversed
        big_r.append(_slot(r, [row[k] for row in reversed(powers)], k))
        rp.append(_slot(big_r, p, k))
        p.append((-_slot(rp, p, k) * (1.0 / 3.0) + 0.0) / (k + 1) + 0.0)
    coeffs = [0.0 + s_value] + [p[k - 1] / k + 0.0 for k in range(1, order + 1)]
    return Jet(jet_space(1, order), np.ascontiguousarray(np.transpose(coeffs)), order)


def _slot(a, b, k, lo=0):
    """Slot k of the product of coefficient lists a and b as the jet engine
    sums it: a_i b_(k-i) from +0.0, i ascending from ``lo`` (a is 0 below)."""
    total = 0.0
    for i in range(lo, k + 1):
        total += a[i] * b[k - i]
    return total


def _adapted_residual(ff, gamma):
    """|nu(gamma_ttt)| / |nu(gamma_tt)| for the reparameterized curve, per
    row, from the rows' raw frame and ``gamma``, its phi along their s-jets."""
    d2 = [c.derivative(0).derivative(0) for c in gamma]
    nu, gamma_tt, gamma_ttt = (vec_values(v) for v in (ff.conormal, d2, vec_partial(d2, 0)))
    # Floored relative to the pairing's rounding scale, so f -> c f keeps the ratio.
    denom = np.maximum(np.abs(value_dot(nu, gamma_tt)),
                       _PIVOT_EPS * value_dot(np.abs(nu), np.abs(gamma_tt)))
    return np.abs(value_dot(nu, gamma_ttt)) / denom


def curve_invariants(curve, t_value, s_value=None, p_value=None):
    """sigma, mu, tau at an adapted-parameter sample, as a table row of one.

    When ``s_value``/``p_value`` are omitted the scene parameter is assumed
    to be adapted already (s = t).  The invariants are read by expressing
    xi' and gamma''' in the frame {gamma', gamma'', xi} with the bracket
    normalized to one.  OsculatingDegenerateError where nu(gamma_ss) vanishes,
    as for ``adapt_parameterization``."""
    if s_value is None:
        s_value, p_value = float(t_value), 1.0
    return _invariants([t_value], *_rows(curve.scene, [s_value], np.array([p_value], float)))[0]


def _invariants(t_values, ff, s_jets, gamma):
    """sigma, mu, tau per row from the rows' raw frame, s-jets and ``gamma``, phi
    along them; a failing xi or adapted bracket raises the first failing row's error.
    gamma' = s' X, nu(gamma'') = s'^2 h2_prov and [X, xi, v] = -lam nu(v) (see
    :mod:`darboux.envelope`) make the adapted bracket [gamma', gamma'', xi] the
    pairing lam h2_prov s'^3; lam and h2_prov are composed with the s-jets beside xi."""
    try:
        *xi_raw, lam, h2 = unstacked(jet_compose(stacked(ff.xi + [ff.lam, ff.h2_prov[0][0]]),
                                                 [s_jets]))
    except GeometryError:  # a batch raises the first check any row fails, not the first row
        for row in ff.t0:
            frame_fields(ff.scene, row, ff.order).xi
        raise
    d1 = [c.derivative(0) for c in gamma]
    d2 = [c.derivative(0) for c in d1]
    d3 = [c.derivative(0) for c in d2]
    c_jet = lam * h2 * s_jets.derivative(0) ** 3
    c = c_jet.value
    bad = vanishes(c, hadamard(vec_values([d1, d2, xi_raw])), _PIVOT_EPS)
    check(bad, lambda: DegenerateError("adapted bracket vanishes", first_failing(c, bad)))
    inv_c = c_jet.reciprocal()
    xi = [component * inv_c for component in xi_raw]
    dxi = [component.derivative(0) for component in xi]
    # xi' (row 0) and gamma''' (row 1) on {gamma', gamma'', xi}; rhs keeps its column axis.
    lhs, rhs = vec_values([d1, d2, xi]), vec_values([dxi, d3])
    sol = np.linalg.solve(lhs.swapaxes(-1, -2), rhs.swapaxes(-1, -2)).swapaxes(-1, -2)
    return [CurveInvariants(float(t), -minus_sigma, -minus_mu, tau, residuals={
                "tau11_adapted": tau11, "xi_gammapp_component": xi_gammapp, "bracket": b})
            for t, ((minus_sigma, xi_gammapp, tau11), (minus_mu, _, tau)), b
            in zip(t_values, sol.tolist(), c.tolist())]


def curve_singularity(curve, t0):
    """Pointwise singularity type of the tangent developable over t0.

    Evaluates sigma_t - sigma tau11 and its derivative in the scene's own
    parameterization and gauge (the vanishing pattern is gauge-covariant):
    nonzero -> CuspidalEdge; zero with nonzero derivative -> Swallowtail;
    both zero -> Higher.  Raises SigmaZeroError where sigma(t0) vanishes against
    ``CRITERION_RTOL`` times :func:`darboux.envelope.xi_rate`, the scale
    that sigma, the X-coefficient of -D_X xi, carries.
    Coefficient c_k of the criterion sums terms of size m_k (k <= 2); with
    lam = max (m_k / |sigma0|)^(1/(k+1)) it counts as zero below
    ``CRITERION_RTOL`` |sigma0| lam^(k+1), which scales as c_k does under a
    change of parameter speed and is not rounding where c_k's terms vanish.
    """
    ff = frame_fields(curve.scene, [float(t0)], 4)
    (dxi,) = ff.dxi()
    sigma, tau11 = -dxi[0].coeffs[:4], dxi[1].coeffs[:3]
    sigma0 = abs(float(sigma[0]))
    if vanishes(sigma0, env.xi_rate(ff), CRITERION_RTOL):
        raise SigmaZeroError(f"sigma(t0) = {sigma[0]:.3e}")
    k = np.arange(1, 4)
    c = k[:2] * sigma[1:3] - np.convolve(sigma[:2], tau11[:2])[:2]
    m = k * np.abs(sigma[1:]) + np.convolve(np.abs(sigma[:3]), np.abs(tau11))[:3]
    lam = max((m / sigma0) ** (1.0 / k))
    if abs(c[0]) > CRITERION_RTOL * sigma0 * lam:
        return "CuspidalEdge"
    if abs(c[1]) > CRITERION_RTOL * sigma0 * lam**2:
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
    """Invariants along an adapted reparameterization, as table rows read as
    one batch off ``_rows``: one Darboux solve, phi composed with the s-jets once."""
    adapted, *rows = _march(curve, interval, samples)
    return adapted, _invariants(adapted.t, *rows)


def write_invariants_csv(rows, path):
    with open(path, "w") as handle:
        handle.write("t,sigma,mu,tau\n")
        for inv in rows:
            handle.write(f"{inv.t:.17g},{inv.sigma:.17g},{inv.mu:.17g},{inv.tau:.17g}\n")
