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
from . import expr as ex
from .errors import (
    DegenerateError,
    DimensionError,
    OsculatingDegenerateError,
    SigmaZeroError,
)
from .frame import frame_fields, vec_values
from .jets import Jet, bracket, jet_compose, jet_dot, jet_solve, jet_space

ADAPTED_RTOL = 1e-6
CRITERION_RTOL = 1e-8


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


def _adaptedness_data(scene, s_value):
    """nu(gamma_ss) and nu(gamma_sss) at a raw parameter value.

    Evaluates the curve jets directly (no frame solve); this sits inside
    the reparameterization integrator's inner loop.  Only the values of the
    pairings are read, so the conormal nu = (-f_t, -f_y, 1) is evaluated at
    the point alone."""
    sp = jet_space(1, 3)
    s = Jet.variable(sp, 0, float(s_value))
    g = ex.eval_expr(scene.g, {"t": s})
    fz = ex.eval_expr(scene.f, {"t": s, "y": g})
    d2 = [c.derivative(0).derivative(0) for c in (s, g, fz)]
    d3 = [c.derivative(0) for c in d2]
    point = [float(s_value), float(g.value)]
    nu = [-ex.eval_scalar(scene.partial(name), scene.f_names, point) for name in scene.f_names]
    nu.append(1.0)
    B = float(sum(a * b.value for a, b in zip(nu, d2)))
    A = float(sum(a * b.value for a, b in zip(nu, d3)))
    return A, B


def adapt_parameterization(curve, interval, samples, step=None):
    """Solve the adapted-reparameterization flow s_tt = -(A / 3B) s_t^2.

    ``interval`` is the range of the new parameter (anchored at the scene
    base point: s(0) = t0, s_t(0) = 1); the classic fixed-step 4th-order
    integrator is rerun with halved steps until halving changes the
    endpoints by less than 1e-8.  Raises OsculatingDegenerateError where
    nu(gamma_ss) vanishes.
    """
    scene = curve.scene
    lo, hi = float(interval[0]), float(interval[1])
    if samples < 2:
        raise DimensionError("need at least two samples")
    t_grid = np.linspace(lo, hi, samples)
    s0 = float(scene.base_point()[0])

    _, B_anchor = _adaptedness_data(scene, s0)
    if B_anchor == 0.0:
        raise OsculatingDegenerateError("nu(gamma_ss) vanishes at the base point")
    anchor_sign = np.sign(B_anchor)

    def rhs(state):
        s, p = state
        if not np.isfinite(state).all():
            raise OsculatingDegenerateError("reparameterization flow diverged")
        A, B = _adaptedness_data(scene, s)
        if abs(B) < 1e-9 * (1.0 + abs(A)) or np.sign(B) != anchor_sign:
            raise OsculatingDegenerateError(
                f"osculating pairing nu(gamma_ss) ~ {B:.3e} at s={s:.6g}"
            )
        return np.array([p, -(A / (3.0 * B)) * p * p])

    def advance(state, span, h):
        steps = max(int(np.ceil(abs(span) / h)), 1) if span != 0 else 0
        dt = span / steps if steps else 0.0
        for _ in range(steps):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * dt * k1)
            k3 = rhs(state + 0.5 * dt * k2)
            k4 = rhs(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(state).all():
            raise OsculatingDegenerateError("reparameterization flow diverged")
        return state

    def state_at(target, h):
        return advance(np.array([s0, 1.0]), target, h)

    def states_on_grid(targets, h):
        out = {}
        for sign in (1, -1):
            side = sorted(t for t in targets if sign * t > 0)
            if sign > 0:
                side = [0.0] + side
            else:
                side = [0.0] + sorted((t for t in targets if t < 0), reverse=True)
            state = np.array([s0, 1.0])
            for prev, nxt in zip(side, side[1:]):
                state = advance(state.copy(), nxt - prev, h)
                out[nxt] = state
        out[0.0] = np.array([s0, 1.0])
        return out

    h = step or max((hi - lo) / (8 * (samples - 1)), 1e-3)
    ends = [e for e in (lo, hi) if e != 0.0] or [hi]
    coarse = [state_at(e, h)[0] for e in ends]
    converged = False
    for _ in range(12):
        fine = [state_at(e, h / 2)[0] for e in ends]
        drift = max(abs(a - b) for a, b in zip(coarse, fine))
        coarse = fine
        h /= 2
        if drift < 1e-8:
            converged = True
            break
    if not converged:
        raise OsculatingDegenerateError(
            "step halving did not converge; the interval likely crosses an "
            "osculating degeneracy"
        )

    table = states_on_grid(t_grid.tolist(), h)
    states = np.array([table[t] for t in t_grid.tolist()])
    s_vals, p_vals = states[:, 0], states[:, 1]
    points = np.zeros((samples, 3))
    residuals = np.zeros(samples)
    for i, (sv, pv) in enumerate(zip(s_vals, p_vals)):
        ff = frame_fields(scene, [sv], 3, gauged=False)
        points[i] = vec_values(ff.phi)
        residuals[i] = _adapted_residual(scene, sv, pv)
    return AdaptedCurve(t_grid, s_vals, p_vals, points, residuals, h)


def _parameter_jet(scene, s_value, p_value, order):
    """Jet of the solved reparameterization t -> s(t) around a sample,
    generated from the flow by Picard iteration in jet arithmetic.  The
    order tags stay full; coefficients of degree k are correct after k
    iterations, so ``order + 1`` passes settle the whole jet."""
    sp = jet_space(1, order)
    s_const = Jet.constant(sp, s_value)
    p_const = Jet.constant(sp, p_value)
    ff = frame_fields(scene, [s_value], order + 3, gauged=False)
    d2 = [c.derivative(0).derivative(0) for c in ff.phi]
    d3 = [c.derivative(0) for c in d2]
    ratio = jet_dot(ff.conormal, d3) * jet_dot(ff.conormal, d2).reciprocal()
    s_jet, p_jet = s_const, p_const
    for _ in range(order + 1):
        ratio_t = jet_compose(Jet(ratio.space, ratio.coeffs, order), [s_jet])
        accel = -(ratio_t * p_jet * p_jet) * (1.0 / 3.0)
        p_jet = p_const + _integrate(accel, order)
        s_jet = s_const + _integrate(p_jet, order)
    return s_jet


def _integrate(jet, order):
    j = Jet(jet.space, jet.coeffs, min(jet.order, order - 1))
    return j.antiderivative(0)


def _adapted_residual(scene, s_value, p_value):
    """|nu(gamma_ttt)| / |nu(gamma_tt)| for the reparameterized curve."""
    order = 4
    s_jet = _parameter_jet(scene, s_value, p_value, order)
    ff = frame_fields(scene, [s_value], order + 1, gauged=False)
    gamma_t = [jet_compose(c, [s_jet]) for c in ff.phi]
    d2 = [c.derivative(0).derivative(0) for c in gamma_t]
    d3 = [c.derivative(0) for c in d2]
    conormal_t = [jet_compose(c, [s_jet]) for c in ff.conormal]
    denom = abs(float(jet_dot(conormal_t, d2).value))
    return abs(float(jet_dot(conormal_t, d3).value)) / max(denom, 1e-30)


def curve_invariants(curve, t_value, s_value=None, p_value=None):
    """sigma, mu, tau at an adapted-parameter sample.

    When ``s_value``/``p_value`` are omitted the scene parameter is assumed
    to be adapted already (s = t).  The invariants are read by expressing
    xi' and gamma''' in the frame {gamma', gamma'', xi} with the bracket
    normalized to one.
    """
    scene = curve.scene
    order = 4
    if s_value is None:
        s_value, p_value = float(t_value), 1.0
    s_jet = _parameter_jet(scene, s_value, p_value, order)
    ff = frame_fields(scene, [s_value], order + 1)
    gamma = [jet_compose(c, [s_jet]) for c in ff.phi]
    xi_raw = [jet_compose(c, [s_jet]) for c in ff.xi]
    d1 = [c.derivative(0) for c in gamma]
    d2 = [c.derivative(0) for c in d1]
    d3 = [c.derivative(0) for c in d2]
    c_jet = bracket([d1, d2, xi_raw])
    if abs(float(c_jet.value)) < 1e-12:
        raise DegenerateError("adapted bracket vanishes", float(c_jet.value))
    xi = [component * c_jet.reciprocal() for component in xi_raw]
    dxi = [component.derivative(0) for component in xi]
    sol, _ = _solve3(d1, d2, xi, [dxi, d3])
    sigma = -float(sol[0][0].value)
    tau11 = float(sol[0][2].value)
    mu = -float(sol[1][0].value)
    tau = float(sol[1][2].value)
    return CurveInvariants(
        t=float(t_value),
        sigma=sigma,
        mu=mu,
        tau=tau,
        residuals={
            "tau11_adapted": tau11,
            "xi_gammapp_component": float(sol[0][1].value),
            "bracket": float(c_jet.value),
        },
    )


def _solve3(e1, e2, e3, rhs_vectors):
    basis = [[e1[r], e2[r], e3[r]] for r in range(3)]
    rhs = [[v[r] for r in range(3)] for v in rhs_vectors]
    return jet_solve(basis, rhs)


def curve_singularity(curve, t0):
    """Pointwise singularity type of the tangent developable over t0.

    Evaluates sigma_t - sigma tau11 and its derivative in the scene's own
    parameterization and gauge (the vanishing pattern is gauge-covariant):
    nonzero -> CuspidalEdge; zero with nonzero derivative -> Swallowtail;
    both zero -> Higher.  Raises SigmaZeroError when sigma(t0) vanishes.
    """
    scene = curve.scene
    ff = frame_fields(scene, [float(t0)], 3)
    coeffs = ff.structure_jets()
    sigma = coeffs["S1"][0][0]
    tau11 = coeffs["tau11"][0]
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
    frame_fields(curve.scene, [mid], 1)  # raises DegenerateError if degenerate
    return env.envelope_mesh(curve.scene, [tuple(t_range)], tuple(u_range))


def invariants_table(curve, interval, samples):
    """Invariants along an adapted reparameterization, as table rows."""
    adapted = adapt_parameterization(curve, interval, samples)
    rows = []
    for t, s, p in zip(adapted.t, adapted.s, adapted.ds_dt):
        inv = curve_invariants(curve, t, s_value=s, p_value=p)
        rows.append(inv)
    return adapted, rows


def write_invariants_csv(rows, path):
    with open(path, "w") as handle:
        handle.write("t,sigma,mu,tau\n")
        for inv in rows:
            handle.write(f"{inv.t:.17g},{inv.sigma:.17g},{inv.mu:.17g},{inv.tau:.17g}\n")
