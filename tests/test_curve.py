"""Adapted parameterizations, curve invariants, singularity criteria."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from darboux import (
    adapt_parameterization,
    as_curve,
    build_scene,
    classify_envelope_point,
    curve_invariants,
    curve_singularity,
    envelope_point,
    regression_values,
    tangent_developable,
)
from darboux.curve import invariants_table
from darboux.errors import (
    DegenerateError,
    DimensionError,
    EmptyGridError,
    GeometryError,
    OsculatingDegenerateError,
    SigmaZeroError,
)
from darboux.expr import parse_expression, substitute, to_infix
from darboux.frame import FrameFields, frame_fields, vec_values
from darboux.jets import Jet, fixed_point, jet_compose, jet_space, stacked, unstacked

from conftest import antiderivative, bracket, forbid_compose, padded, same_bits


def _flow_at(scene, s_value, order):
    """``curve._flow`` off the one-point frame a march step builds for an
    s-jet of ``order``."""
    from darboux.curve import _flow

    return _flow(FrameFields(scene, [s_value], order - 1))


def test_curve_scene_requires_n1(bundled):
    with pytest.raises(DimensionError):
        as_curve(bundled["d4"])


def test_already_adapted_identity():
    parabola = as_curve(build_scene("(t^2 + y^2)/2", "0", 1))
    table = adapt_parameterization(parabola, (-0.5, 0.5), 11)
    assert np.abs(table.s - table.t).max() < 1e-10
    assert table.residual.max() < 1e-12


def test_adaptation_on_cubic_scene(bundled):
    curve = as_curve(bundled["cubic-curve"])
    table = adapt_parameterization(curve, (-0.2, 0.2), 9)
    assert table.residual.max() < 1e-6
    # adapted-gauge bracket and tau11 vanish along the samples
    rows = [
        curve_invariants(curve, t, s_value=s, p_value=p)
        for t, s, p in zip(table.t, table.s, table.ds_dt)
    ]
    for inv in rows:
        assert abs(inv.residuals["tau11_adapted"]) < 1e-8
        assert abs(inv.residuals["xi_gammapp_component"]) < 1e-8


def test_adaptation_detects_osculating_degeneracy(bundled):
    curve = as_curve(bundled["cubic-curve"])
    with pytest.raises(OsculatingDegenerateError):
        adapt_parameterization(curve, (-0.3, 0.3), 9)


def test_invariants_where_the_osculating_pairing_vanishes_are_osculating_degenerate():
    """On y = t^2/2 in this f, nu(gamma_ss) = 1 + 2 s vanishes at s = -0.5:
    ``curve_invariants`` there raises the OsculatingDegenerateError that
    ``adapt_parameterization`` raises on reaching it, not the DomainError
    of a jet reciprocal's guard."""
    curve = as_curve(build_scene("t^2/2 + t^3/3 - t^4/3 + 2*y^2", "t^2/2", 1))
    with pytest.raises(OsculatingDegenerateError, match="vanishes at s=-0.5"):
        curve_invariants(curve, -0.5)
    with pytest.raises(OsculatingDegenerateError):
        adapt_parameterization(curve, (-0.6, 0.1), 9)
    assert np.isfinite(curve_invariants(curve, -0.4).sigma)  # off the zero it reads


def test_invariants_hand_values(bundled):
    curve = as_curve(bundled["cubic-curve"])
    inv = curve_invariants(curve, 0.0)
    # gamma'''(0) = 5 gamma'(0) for the adapted flow of this scene
    assert inv.sigma == pytest.approx(0.0, abs=1e-10)
    assert inv.mu == pytest.approx(-5.0, abs=1e-8)
    assert inv.tau == pytest.approx(0.0, abs=1e-8)
    assert inv.residuals["bracket"] == pytest.approx(1.0, abs=1e-12)


def test_sigma_constant_on_quadric_section():
    """Parabola-type section on a quadric has constant shape eigenvalue
    along the adapted parameterization (sampled at ten points)."""
    s = build_scene("(t^2 + y^2)/2 + t^2*y/2", "0", 1)
    curve = as_curve(s)
    table, rows = invariants_table(curve, (-0.18, 0.18), 10)
    sigmas = np.array([r.sigma for r in rows])
    assert sigmas.max() - sigmas.min() < 1e-7


def test_structural_residuals_by_finite_differences(bundled):
    """xi' + sigma gamma' = 0 and gamma''' + mu gamma' - tau xi = 0 along
    the adapted parameter.

    Oracle: the adapted frame fields (gamma', gamma'', xi) are evaluated
    independently at shifted adapted-parameter values (continuing the
    reparameterization jet), and the outer derivative is taken by
    Richardson central differences.
    """
    from darboux.curve import _parameter_jet
    from darboux.frame import frame_fields
    from darboux.jets import jet_compose
    from conftest import eval_poly_jet

    curve = as_curve(bundled["cubic-curve"])
    t0, s0, p0 = 0.0, 0.0, 1.0
    s_jet = _parameter_jet(*_flow_at(curve.scene, s0, 4), s0, p0, 4)
    sp_jet = s_jet.derivative(0)

    def frame_at(dt):
        s_val = s0 + eval_poly_jet(s_jet, [dt]) - float(s_jet.value)
        p_val = eval_poly_jet(sp_jet, [dt])
        local = _parameter_jet(*_flow_at(curve.scene, s_val, 3), s_val, p_val, 3)
        ff = frame_fields(curve.scene, [s_val], 4)
        gamma = [jet_compose(c, [local]) for c in ff.phi]
        xi_raw = [jet_compose(c, [local]) for c in ff.xi]
        d1 = [c.derivative(0) for c in gamma]
        d2 = [c.derivative(0) for c in d1]
        c_jet = bracket([d1, d2, xi_raw])
        inv_c = c_jet.reciprocal()
        xi = np.array([float((comp * inv_c).value) for comp in xi_raw])
        return (
            np.array([float(c.value) for c in d1]),
            np.array([float(c.value) for c in d2]),
            xi,
        )

    def richardson(component, h=2e-3):
        def central(step):
            plus = frame_at(step)[component]
            minus = frame_at(-step)[component]
            return (plus - minus) / (2 * step)

        return (4 * central(h / 2) - central(h)) / 3

    inv = curve_invariants(curve, t0)
    g1, g2, xi = frame_at(0.0)
    dxi = richardson(2)
    assert np.abs(dxi + inv.sigma * g1).max() < 1e-7
    d3 = richardson(1)
    assert np.abs(d3 + inv.mu * g1 - inv.tau * xi).max() < 1e-7


def test_singularity_verdicts():
    cusp = as_curve(build_scene("t^2/2 + t^3/6 + (t^2/2 + t^3/2)*y", "0", 1))
    assert curve_singularity(cusp, 0.0) == "CuspidalEdge"
    swallow = as_curve(build_scene("t^2/2 + t^4/24 + t^2*y/2", "0", 1))
    assert curve_singularity(swallow, 0.0) == "Swallowtail"
    with pytest.raises(SigmaZeroError):
        curve_singularity(as_curve(build_scene("t^2/2 + y^2/2", "0", 1)), 0.0)


def test_verdicts_match_germ_classes():
    """Cross-module consistency: CuspidalEdge <-> A2 and Swallowtail <-> A3
    at the matching envelope points."""
    rng = np.random.default_rng(55)
    cases = []
    for a in (1.0, -1.0, 2.0, 0.5):
        cases.append((build_scene(f"t^2/2 + ({a})*t^3/6 + t^2*y/2", "0", 1), 0.0))
    for b in (1.0, -2.0):
        cases.append((build_scene(f"t^2/2 + ({b})*t^4/24 + t^2*y/2", "0", 1), 0.0))
    cases.append((build_scene("t^2/2 + t^4/24 + t^2*y/2", "0", 1), 0.12))
    cases.append((build_scene("t^2/2 + t^3/6 + t^2*y/2", "0", 1), 0.07))
    mapping = {"CuspidalEdge": "A2", "Swallowtail": "A3"}
    for scene, t0 in cases:
        verdict = curve_singularity(as_curve(scene), t0)
        u = regression_values(scene, [t0])[0]
        report = classify_envelope_point(scene, [t0], u)
        assert mapping[verdict] == report["class"], (scene.f_text, t0)


def test_classification_invariant_under_linear_reparameterization():
    """t -> a t + b changes the parameter's speed, not the singularity:
    the criterion's tolerances scale with it, from a = 1e-9 to 1e5, also
    where b leaves the germ point at a rounded t0."""
    germs = {
        "t^2/2 + t^3/6 + t^2*y/2": "CuspidalEdge",
        "t^2/2 + t^4/24 + t^2*y/2": "Swallowtail",
        "t^2/2 + t^5/120 + t^2*y/2": "Higher",
    }
    for germ, verdict in germs.items():
        base = build_scene(germ, "0", 1)
        for a in (1e-9, 1e-5, 1e-3, 0.5, 2.0, 1e3, 1e5):
            for b in (0.0, 0.3):
                sub = {"t": parse_expression(f"({a})*t + ({b})", ["t"])}
                scene = build_scene(
                    to_infix(substitute(base.f, sub)), to_infix(substitute(base.g, sub)), 1
                )
                assert curve_singularity(as_curve(scene), -b / a) == verdict, (germ, a, b)


def test_tangent_developable(bundled):
    curve = as_curve(bundled["a2"])
    mesh = tangent_developable(curve, (-0.4, 0.4, 50), (0.5, 1.5, 20))
    assert len(mesh.vertices) == 1000
    # flags trace u = 1/sigma(t): evaluate on a grid built from the values
    ts = np.linspace(-0.1, 0.1, 5)
    for t in ts:
        u = regression_values(bundled["a2"], [t])[0]
        m = tangent_developable(curve, (t, t, 1), (u, u, 1))
        assert m.singular.all()
    plane = as_curve(build_scene("y^2/2", "0", 1))
    with pytest.raises(DegenerateError):
        tangent_developable(plane, (-0.4, 0.4, 10), (0.0, 1.0, 5))


def _rk4_reference(scene, t_grid, h_max):
    """s and s_t on ``t_grid`` from the classic fixed-step RK4 method on
    s_tt = -(A / 3B) s_t^2, with A = nu(gamma_sss) and B = nu(gamma_ss)
    derived by sympy from the scene text, marching out from s(0) = 0,
    s_t(0) = 1 on each side with steps no longer than ``h_max``."""
    import sympy

    t, y = sympy.symbols("t y")
    f = sympy.sympify(scene.f_text.replace("^", "**"))
    g = sympy.sympify(scene.g_text.replace("^", "**"))
    on_n = {y: g}
    gamma = sympy.Matrix([t, g, f.subs(on_n)])
    nu = sympy.Matrix([-sympy.diff(f, t).subs(on_n), -sympy.diff(f, y).subs(on_n), 1])
    B = sympy.lambdify(t, nu.dot(gamma.diff(t, 2)))
    A = sympy.lambdify(t, nu.dot(gamma.diff(t, 3)))

    def rhs(state):
        s, p = state
        return np.array([p, -(A(s) / (3.0 * B(s))) * p * p])

    out = {}
    for side in (t_grid[t_grid >= 0], t_grid[t_grid < 0][::-1]):
        t_now, state = 0.0, np.array([0.0, 1.0])
        for target in side:
            steps = max(int(np.ceil(abs(target - t_now) / h_max)), 1)
            dt = (target - t_now) / steps
            for _ in range(steps):
                k1 = rhs(state)
                k2 = rhs(state + 0.5 * dt * k1)
                k3 = rhs(state + 0.5 * dt * k2)
                k4 = rhs(state + dt * k3)
                state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t_now = target
            out[target] = state
    return np.array([out[v] for v in t_grid])


@pytest.mark.parametrize("name, interval, samples", [
    ("a2", (-0.16, 0.16), 21),
    ("cubic-curve", (-0.1, 0.1), 21),
    ("cubic-curve", (-0.2, 0.2), 9),
])
def test_taylor_stepper_matches_rk4_reference(bundled, name, interval, samples):
    """s and s_t match the RK4 reference.  Steps are not cut at grid points:
    on a2 the longest reach of a step polynomial exceeds the grid spacing."""
    table = adapt_parameterization(as_curve(bundled[name]), interval, samples)
    ref = _rk4_reference(bundled[name], table.t, 2e-4)
    # the reference is converged: halving its step moves it by far less
    # than the bounds below
    assert np.abs(_rk4_reference(bundled[name], table.t, 1e-4) - ref).max() < 1e-12
    assert np.abs(table.s - ref[:, 0]).max() <= 1e-10
    assert np.abs(table.ds_dt - ref[:, 1]).max() <= 1e-9
    spacing = (interval[1] - interval[0]) / (samples - 1)
    assert table.step > (spacing if name == "a2" else 0.0)


def test_adapted_flow_is_invariant_under_scaling_f(bundled):
    """f -> c f scales A and B alike, so the flow and its degeneracy do not
    depend on c."""
    base = bundled["cubic-curve"]
    scaled = as_curve(build_scene(f"(1e-10)*({base.f_text})", base.g_text, 1))
    ref = adapt_parameterization(as_curve(base), (-0.1, 0.1), 9)
    table = adapt_parameterization(scaled, (-0.1, 0.1), 9)
    assert np.allclose(table.s, ref.s, rtol=1e-12, atol=0.0)
    assert np.allclose(table.ds_dt, ref.ds_dt, rtol=1e-12, atol=0.0)
    with pytest.raises(OsculatingDegenerateError):
        adapt_parameterization(scaled, (-0.3, 0.3), 9)


@pytest.mark.parametrize("c", ["1e8", "1e10"])
def test_frame_and_flow_build_with_f_scaled_up(bundled, c):
    """f -> c f for large c stretches one column of the provisional basis
    {X, psi_y, e_last}; its pivots are tested against their own column, so
    the frame builds and the flow matches the unscaled one."""
    base = bundled["cubic-curve"]
    scaled = build_scene(f"({c})*({base.f_text})", base.g_text, 1)
    assert np.isfinite(vec_values(frame_fields(scaled, [0.05], 3).xi)).all()
    ref = adapt_parameterization(as_curve(base), (-0.1, 0.1), 9)
    table = adapt_parameterization(as_curve(scaled), (-0.1, 0.1), 9)
    assert np.allclose(table.s, ref.s, rtol=1e-12, atol=0.0)
    assert np.allclose(table.ds_dt, ref.ds_dt, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["a2", "cubic-curve"])
def test_invariants_scale_with_f_scaled_down(bundled, name):
    """f -> k f scales the adapted bracket by k, so sigma scales as 1/k and
    mu stays; at k = 1e-12 the bracket test, relative to its Hadamard
    bound, still passes."""
    base = bundled[name]
    k = 1e-12
    scaled = build_scene(f"({k!r})*({base.f_text})", base.g_text, 1)
    _, ref = invariants_table(as_curve(base), (-0.1, 0.1), 5)
    _, rows = invariants_table(as_curve(scaled), (-0.1, 0.1), 5)
    for got, want in zip(rows, ref, strict=True):
        assert k * got.sigma == pytest.approx(want.sigma, rel=1e-12, abs=0.0)
        assert got.mu == pytest.approx(want.mu, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name, interval, samples", [
    ("a2", (-0.16, 0.16), 21),
    ("cubic-curve", (-0.1, 0.1), 21),
])
def test_invariants_table_builds_one_frame_per_sample(bundled, frame_builds, monkeypatch, name,
                                                     interval, samples):
    """The march builds one one-point frame per step, each at a new point,
    and the rows are read off one batch frame over the samples: one Darboux
    solve per table, where reading xi off each step's frame made one a row."""
    from darboux import frame

    solves, batches = [], []
    solve, batch = frame.jet_solve, frame.FrameFields.batch.__func__
    monkeypatch.setattr(frame, "jet_solve", lambda *args: solves.append(1) or solve(*args))
    monkeypatch.setattr(frame.FrameFields, "batch", classmethod(
        lambda cls, *args: batches.append(args[1].shape) or batch(cls, *args)))
    _, rows = invariants_table(as_curve(bundled[name]), interval, samples)
    assert len(rows) == samples
    assert len(frame_builds) == len(set(frame_builds))
    assert batches == [(samples, 1)] and len(solves) == 1


def test_adapted_residual_is_invariant_under_scaling_f(bundled):
    """The residual's zero floor is relative to the scale of the pairing
    nu(gamma_tt), so f -> c f keeps the cubic curve's residual column at
    rounding level, and leaves the residual of the unadapted parameter s = t
    (a ratio of order one) unchanged to rounding, down to c = 1e-40."""
    from darboux import curve

    base = bundled["cubic-curve"]
    ref = adapt_parameterization(as_curve(base), (-0.1, 0.1), 9)
    unadapted = stacked([Jet.variable(jet_space(1, 4), 0, 0.05)])

    def residual(scene):
        ff = FrameFields.batch(scene, [[0.05]], 4)
        return curve._adapted_residual(ff, unstacked(jet_compose(stacked(ff.phi), [unadapted])))

    (want,) = residual(base)
    assert want > 1e-3
    for c in ("1e-8", "1e8", "1e-40", "1e40"):
        scaled = build_scene(f"({c})*({base.f_text})", base.g_text, 1)
        table = adapt_parameterization(as_curve(scaled), (-0.1, 0.1), 9)
        assert np.abs(table.residual - ref.residual).max() <= 1e-14, c
        (got,) = residual(scaled)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), c


def _series_quotient(a, b, count):
    """r_0 .. r_(count-1) of the series a / b in one variable, each r_k =
    (a_k - b_1 r_(k-1) - ... - b_k r_0) / b_0, summed from +0.0 in that order."""
    r = []
    for k in range(count):
        total = 0.0
        for i in range(1, k + 1):
            total += b[i] * r[k - i]
        r.append((a[k] - total) / b[0])
    return r


@pytest.mark.parametrize("name, points", [
    ("a2", (-0.15, 0.0, 0.05, 0.12)),
    ("cubic-curve", (-0.1, 0.0, 0.03, 0.09)),
])
def test_ratio_quotient_matches_the_reciprocal_product(bundled, name, points):
    """The ratio A / B that ``_parameter_jet`` reads, the series quotient
    (bitwise the Picard oracle's, so the recurrence's, by the tests below),
    is within 1e-14 of its largest coefficient of A times the jet
    reciprocal of B, the ratio the recurrence read before."""
    from darboux.curve import TAYLOR_ORDER

    for s_value in points:
        nu_d2, nu_d3 = _flow_at(bundled[name], s_value, TAYLOR_ORDER)
        got = np.array(_series_quotient(padded(nu_d3), padded(nu_d2), TAYLOR_ORDER - 1))
        want = (nu_d3 * nu_d2.reciprocal()).coeffs[:TAYLOR_ORDER - 1]
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), s_value


def _picard_parameter_jet(nu_d2, nu_d3, s_value, p_value, order):
    """The adapted flow's s-jet by Picard passes on p = s_t, s = s_value +
    the integral of p, each pass composing the ratio A / B with s: the
    library's construction before the Taylor recurrence, kept as the
    bitwise oracle of ``curve._parameter_jet``.  The ratio's r_0 .. r_(order-2),
    the ones the passes read, are the series quotient."""
    r = _series_quotient(padded(nu_d3), padded(nu_d2), order - 1)
    ratio = Jet(nu_d2.space, np.pad(r, (0, nu_d2.space.size - len(r))), order)

    def integrate(jet, d, start):
        return antiderivative(Jet(jet.space, jet.coeffs, min(jet.order, d - 1)), 0) + start

    def step(p_jet, d):
        s_jet = integrate(p_jet, d, s_value)
        accel = -(jet_compose(ratio, [s_jet]) * p_jet * p_jet) * (1.0 / 3.0)
        return integrate(accel, d, p_value)

    p_jet, _ = fixed_point(step, Jet.constant(jet_space(1, order), p_value, 0), order, 0)
    return integrate(p_jet, order, s_value)


@pytest.mark.parametrize("order", [3, 4, 12])
@pytest.mark.parametrize("name, points", [
    ("a2", (-0.15, 0.0, 0.05, 0.12)),
    ("cubic-curve", (-0.1, 0.0, 0.03, 0.09)),
])
def test_parameter_jet_matches_picard_bitwise(bundled, name, points, order):
    from darboux.curve import _parameter_jet

    for s_value in points:
        nu_d2, nu_d3 = _flow_at(bundled[name], s_value, order)
        for p_value in (1.0, -0.7, 2.5):
            got = _parameter_jet(nu_d2, nu_d3, s_value, p_value, order)
            want = _picard_parameter_jet(nu_d2, nu_d3, s_value, p_value, order)
            assert got.space is want.space and got.degree == want.degree
            assert got.coeffs.tobytes() == want.coeffs.tobytes(), (s_value, p_value)


def _pairings(ff):
    """nu(gamma_ss) and nu(gamma_sss) off the frame ``ff``, each paired
    from phi's derivatives: the oracle of ``_flow``, which reads the first
    off the frame's h2_prov."""
    from darboux.jets import jet_dot

    d2 = [c.derivative(0).derivative(0) for c in ff.phi]
    return jet_dot(ff.conormal, d2), jet_dot(ff.conormal, [c.derivative(0) for c in d2])


@pytest.mark.parametrize("order", [3, 4, 12])
@pytest.mark.parametrize("name, points", [
    ("a2", (-0.15, 0.0, 0.12)),
    ("cubic-curve", (-0.1, 0.03, 0.09)),
])
def test_flow_frame_order_keeps_the_s_jets_bitwise(bundled, name, points, order):
    """A frame of order - 1, the one a march step builds, is the lowest
    that gives the ratio's r_0 .. r_(order-2) the recurrence reads; the
    s-jets are bitwise the Picard construction's on a frame two orders
    higher (order + 1).  ``_flow``'s pairings, nu(gamma_ss) read off the
    frame's h2_prov, are bitwise the ones paired from phi."""
    from darboux.curve import _flow, _parameter_jet

    for s_value in points:
        ff = FrameFields(bundled[name], [s_value], order - 1)
        nu_d2, nu_d3 = _flow(ff)
        assert all(map(same_bits, (nu_d2, nu_d3), _pairings(ff)))
        higher = _pairings(FrameFields(bundled[name], [s_value], order + 1))
        for p_value in (1.0, -0.7):
            got = _parameter_jet(nu_d2, nu_d3, s_value, p_value, order)
            assert same_bits(got, _picard_parameter_jet(*higher, s_value, p_value, order))


def test_curve_invariants_are_a_table_row_of_one(bundled):
    """``curve_invariants`` at a table row's s and s_t, on its own order-3
    frame, is bitwise the row the table reads off its order-3 batch frame."""
    curve = as_curve(bundled["a2"])
    table, rows = invariants_table(curve, (-0.16, 0.15), 7)
    for t, s_value, p_value, row in zip(table.t, table.s, table.ds_dt, rows):
        assert curve_invariants(curve, t, s_value, p_value) == row


def _per_frame_table(scene, interval, samples):
    """The table read as before its rows shared one batch frame, kept as the
    bitwise oracle of ``invariants_table``: the one-point frame a march step
    builds at each row's s, each field stacked over those frames, xi read
    frame by frame (the first failing row raises), phi composed with the
    s-jets at order 3 for the residuals, and phi, xi, lam and h2_prov
    composed together at ``INVARIANTS_ORDER`` for the invariants, the
    adapted bracket read as the pairing lam h2_prov s'^3.  The march itself,
    which gives s and s_t, is the library's.  Also returns the bracket
    [gamma', gamma'', xi] of the composed jets as a determinant."""
    from darboux import curve
    from darboux.jets import _PIVOT_EPS, check, first_failing, value_dot

    table = adapt_parameterization(as_curve(scene), interval, samples)
    frames = [FrameFields(scene, [s], curve.TAYLOR_ORDER - 1) for s in table.s]
    s_jets = stacked([curve._parameter_jet(*_pairings(ff), s, p, curve.TAYLOR_ORDER)
                      for ff, s, p in zip(frames, table.s, table.ds_dt)])

    def over(name):
        return [stacked(components) for components in zip(*(getattr(ff, name) for ff in frames))]

    d2 = jet_compose(stacked(over("phi")), [s_jets.truncated(3)]).derivative(0).derivative(0)
    nu = np.array([vec_values(ff.conormal) for ff in frames])
    gamma_tt, gamma_ttt = (np.moveaxis(d.value, 0, -1) for d in (d2, d2.derivative(0)))
    denom = np.maximum(np.abs(value_dot(nu, gamma_tt)),
                       _PIVOT_EPS * value_dot(np.abs(nu), np.abs(gamma_tt)))
    residual = np.abs(value_dot(nu, gamma_ttt)) / denom

    s_jets = s_jets.truncated(curve.INVARIANTS_ORDER)
    lam = stacked([ff.lam for ff in frames])
    h2 = stacked([ff.h2_prov[0][0] for ff in frames])
    composed = unstacked(jet_compose(stacked(over("phi") + over("xi") + [lam, h2]), [s_jets]))
    gamma, xi_raw, (lam, h2) = composed[:3], composed[3:6], composed[6:]
    d1 = [c.derivative(0) for c in gamma]
    d2 = [c.derivative(0) for c in d1]
    d3 = [c.derivative(0) for c in d2]
    c_jet = lam * h2 * s_jets.derivative(0) ** 3
    c = c_jet.value
    norms = np.linalg.norm(vec_values([d1, d2, xi_raw]), axis=-1)
    bad = np.abs(c) <= _PIVOT_EPS * np.prod(norms, axis=-1)
    check(bad, lambda: DegenerateError("adapted bracket vanishes", first_failing(c, bad)))
    xi = [component * c_jet.reciprocal() for component in xi_raw]
    lhs, rhs = vec_values([d1, d2, xi]), vec_values([[x.derivative(0) for x in xi], d3])
    sol = np.linalg.solve(lhs.swapaxes(-1, -2), rhs.swapaxes(-1, -2)).swapaxes(-1, -2)
    columns = {"sigma": -sol[:, 0, 0], "mu": -sol[:, 1, 0], "tau": sol[:, 1, 2],
               "tau11_adapted": sol[:, 0, 2], "xi_gammapp_component": sol[:, 0, 1], "bracket": c}
    points = np.array([vec_values(ff.phi) for ff in frames])
    return table, points, residual, columns, bracket([d1, d2, xi_raw]).value


def _outcome(read):
    """``read()``, or the type, text and determinant of the GeometryError it raises."""
    try:
        return read()
    except GeometryError as err:
        return type(err), str(err), getattr(err, "determinant", None), err.rows


@pytest.mark.parametrize("xi_scale", [None, "1 + t^2/3"])
@pytest.mark.parametrize("gauge", ["graph", "blaschke"])
@pytest.mark.parametrize("name", ["a2", "a3", "cubic-curve"])
def test_table_rows_match_per_frame_reads_bitwise(bundled, name, gauge, xi_scale):
    """Every field of a table read off one batch frame is bitwise the one
    read frame by frame; where a row fails (a2 and a3 have h(xi, xi) <= 0 or
    a degenerate Hessian in the Blaschke gauge), the error is the one the
    first failing row raises."""
    base = bundled[name]
    scene = build_scene(base.f_text, base.g_text, 1, xi_scale_text=xi_scale, gauge=gauge)
    for interval, samples in (((-0.16, 0.15), 21), ((-0.1, 0.1), 9), ((0.0, 0.12), 7)):
        want = _outcome(lambda: _per_frame_table(scene, interval, samples))
        got = _outcome(lambda: invariants_table(as_curve(scene), interval, samples))
        if isinstance(want[0], type):  # the per-frame read raised
            assert got == want, (interval, samples)
            continue
        assert not isinstance(got[0], type), got
        (adapted, rows), (table, points, residual, columns, _) = got, want
        for field in ("t", "s", "ds_dt", "step"):
            assert np.array(getattr(adapted, field)).tobytes() == np.array(
                getattr(table, field)).tobytes(), field
        assert adapted.points.tobytes() == points.tobytes()
        assert adapted.residual.tobytes() == residual.tobytes()
        read = {"sigma": [r.sigma for r in rows], "mu": [r.mu for r in rows],
                "tau": [r.tau for r in rows]}
        read.update({key: [r.residuals[key] for r in rows] for key in rows[0].residuals})
        assert read.keys() == columns.keys()
        for key, column in columns.items():
            assert np.array(read[key]).tobytes() == column.tobytes(), key
        assert [r.t for r in rows] == adapted.t.tolist()


@pytest.mark.parametrize("xi_scale", [None, "1 + t^2/3"])
@pytest.mark.parametrize("gauge", ["graph", "blaschke"])
@pytest.mark.parametrize("name", ["a2", "a3", "cubic-curve"])
def test_adapted_bracket_pairing_is_the_determinant(bundled, name, gauge, xi_scale):
    """The adapted bracket a table reads as the pairing lam h2_prov s'^3 is
    the determinant [gamma', gamma'', xi] of the composed jets to 1e-13
    relative, on every row of the tables the per-frame read gives.  a2 and
    a3 have no table in the Blaschke gauge (h(xi, xi) <= 0 or a degenerate
    Hessian on some row), and only they raise."""
    base = bundled[name]
    scene = build_scene(base.f_text, base.g_text, 1, xi_scale_text=xi_scale, gauge=gauge)
    for interval, samples in (((-0.16, 0.15), 21), ((-0.1, 0.1), 9), ((0.0, 0.12), 7)):
        want = _outcome(lambda: _per_frame_table(scene, interval, samples))
        if isinstance(want[0], type):
            assert gauge == "blaschke" and name != "cubic-curve", want
            continue
        columns, determinant = want[3], want[4]
        assert np.abs(columns["bracket"] - determinant).max() <= 1e-13 * np.abs(determinant).max()


@pytest.mark.parametrize("name", ["a2", "a3"])
def test_table_raises_the_first_failing_rows_error(bundled, name):
    """Over (-0.3, 0.3) the Blaschke gauge fails on several rows of a2 and
    a3, and not on all of them for the same reason; the table raises the
    error of the first row in grid order, read on its own, as the table
    read frame by frame did, not the first check a batch of all rows trips."""
    base = bundled[name]
    scene = build_scene(base.f_text, base.g_text, 1, gauge="blaschke")
    with pytest.raises(DegenerateError, match=r"needs h\(xi, xi\) > 0") as err:
        invariants_table(as_curve(scene), (-0.3, 0.3), 21)
    assert err.value.rows is None
    with pytest.raises(DegenerateError, match=r"needs h\(xi, xi\) > 0"):
        _per_frame_table(scene, (-0.3, 0.3), 21)


@pytest.mark.parametrize("interval", [(float("nan"), 0.1), (0.0, float("inf")),
                                      (float("-inf"), 0.2)])
def test_non_finite_interval_is_an_input_error(bundled, interval):
    """A span that is not finite is rejected as a grid, not reported as a
    flow that stalls at an osculating degeneracy."""
    with pytest.raises(EmptyGridError, match="not finite"):
        adapt_parameterization(as_curve(bundled["a2"]), interval, 3)


def test_degenerate_bracket_names_the_first_failing_row(bundled, monkeypatch):
    """The table's brackets are one batch; DegenerateError carries the value
    of the first row in table order whose bracket vanishes, and the rows.
    The bracket is the pairing lam h2_prov s'^3, so lam, composed with the
    s-jets beside xi, is faded by powers of two (exact) on rows 2 and 4."""
    from darboux import curve

    scene = as_curve(bundled["cubic-curve"])
    _, rows = invariants_table(scene, (-0.1, 0.1), 5)
    fade = np.array([1.0, 1.0, 2.0 ** -100, 1.0, 2.0 ** -130])[:, None]
    compose = curve.jet_compose

    def faded(outer, inner):
        out = compose(outer, inner)
        if outer.coeffs.shape[0] == 5:  # xi, lam and h2_prov
            out.coeffs[3] *= fade
        return out

    monkeypatch.setattr(curve, "jet_compose", faded)
    with pytest.raises(DegenerateError, match="adapted bracket vanishes") as err:
        invariants_table(scene, (-0.1, 0.1), 5)
    assert err.value.rows.tolist() == [2, 4]
    assert err.value.determinant == rows[2].residuals["bracket"] * 2.0 ** -100


def _coefficients(size):
    return st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), order=st.integers(2, 12), s_value=st.floats(-1.0, 1.0),
       p_value=st.floats(-3.0, 3.0), b0=st.floats(0.25, 4.0), sign=st.sampled_from([1.0, -1.0]))
def test_parameter_jet_matches_picard_on_random_pairings(data, order, s_value, p_value, b0, sign):
    """Random pairings laid out as ``_flow`` makes them: a space of order
    order + 1, B = nu(gamma_ss) exact through order - 1 with its value away
    from zero, A = nu(gamma_sss) through order - 2."""
    from darboux.curve import _parameter_jet

    sp = jet_space(1, order + 1)
    b = np.zeros(sp.size)
    b[:order] = [sign * b0] + data.draw(_coefficients(order - 1))
    a = np.zeros(sp.size)
    a[:order - 1] = data.draw(_coefficients(order - 1))
    nu_d2, nu_d3 = Jet(sp, b, order - 1), Jet(sp, a, order - 2)
    got = _parameter_jet(nu_d2, nu_d3, s_value, p_value, order)
    want = _picard_parameter_jet(nu_d2, nu_d3, s_value, p_value, order)
    assert same_bits(got, want) and got.degree == want.degree


def test_parameter_jet_neither_composes_nor_iterates(bundled, monkeypatch):
    """The recurrence computes each coefficient once: no jet composition and
    no fixed-point pass."""
    from darboux import curve, jets

    nu_d2, nu_d3 = _flow_at(bundled["a2"], 0.05, curve.TAYLOR_ORDER)
    forbid_compose(monkeypatch, "_parameter_jet")

    def no_fixed_point(*args):
        raise AssertionError("_parameter_jet ran a fixed point")

    monkeypatch.setattr(jets, "fixed_point", no_fixed_point)
    s_jet = curve._parameter_jet(nu_d2, nu_d3, 0.05, 1.0, curve.TAYLOR_ORDER)
    assert s_jet.order == curve.TAYLOR_ORDER and np.isfinite(s_jet.coeffs).all()


@pytest.mark.parametrize("c", ["1e-12", "1e-9", "1e-6", "1", "1e6", "1e12"])
def test_sigma_zero_test_scales_with_the_darboux_field(bundled, c):
    """sigma moves with xi, so a rescaled xi keeps the verdict; a sigma that
    vanishes still raises at every scale."""
    s = bundled["a2"]
    scaled = build_scene(s.f_text, s.g_text, 1, xi_scale_text=c, name="a2")
    assert curve_singularity(as_curve(scaled), 0.05) == "CuspidalEdge"
    with pytest.raises(SigmaZeroError):
        curve_singularity(as_curve(build_scene("t^2/2 + y^2/2", "0", 1, xi_scale_text=c)), 0.0)


def _grid_stop_march(scene, interval, samples):
    """t, s and s_t on the grid by the march as it was before it read rows
    off its step polynomials, kept as the oracle of the dense march: each
    step, at the length ``TAYLOR_RTOL`` allows, is cut short at the next grid
    point, and each row is the value part of the s-jet expanded there.  The
    checks on B and on the step length are left out; the tables compared
    pass them."""
    from darboux import curve

    order = curve.TAYLOR_ORDER
    t_grid = np.linspace(interval[0], interval[1], samples)
    s_rows, p_rows = np.empty(samples), np.empty(samples)

    def expand(s, p):
        return curve._parameter_jet(*_flow_at(scene, s, order), s, p, order)

    anchor = expand(float(scene.base_point()[0]), 1.0)
    for side in (t_grid >= 0.0, t_grid < 0.0):
        t, s_jet = 0.0, anchor
        for i in sorted(np.flatnonzero(side), key=lambda k: abs(t_grid[k])):
            while t != t_grid[i]:
                c = s_jet.coeffs
                allowed = min((curve.TAYLOR_RTOL * abs(c[1]) / abs(c[k])) ** (1.0 / (k - 1))
                              if c[k] else np.inf for k in (order - 1, order))
                h = t_grid[i] - t
                if abs(h) > allowed:
                    h = np.copysign(allowed, h)
                    t += h
                else:
                    t = t_grid[i]
                p_coeffs = s_jet.derivative(0).coeffs
                s_jet = expand(np.polyval(c[::-1], h), np.polyval(p_coeffs[::-1], h))
            s_rows[i], p_rows[i] = s_jet.coeffs[:2]
    return t_grid, s_rows, p_rows


@pytest.mark.parametrize("samples", [2, 9, 21])
@pytest.mark.parametrize("xi_scale", [None, "1 + t^2/3"])
@pytest.mark.parametrize("gauge", ["graph", "blaschke"])
@pytest.mark.parametrize("name", ["a2", "cubic-curve"])
def test_dense_march_matches_the_grid_stop_march(bundled, name, gauge, xi_scale, samples):
    """Rows read off full-length step polynomials move s, s_t, sigma, mu and
    tau by at most 1e-13 of each field's largest magnitude from the march
    that stopped at every grid point (its rows read by ``curve_invariants``),
    on intervals across t = 0 and on one side of it, and the adaptedness
    residual stays below 1e-12.  Where the oracle's rows raise (a2 in the
    Blaschke gauge), the table raises the same error type."""
    base = bundled[name]
    scene = build_scene(base.f_text, base.g_text, 1, xi_scale_text=xi_scale, gauge=gauge)
    curve = as_curve(scene)
    for interval in ((-0.16, 0.15), (-0.1, 0.1), (0.02, 0.14), (-0.12, -0.01)):
        t_grid, s, p = _grid_stop_march(scene, interval, samples)
        want = _outcome(lambda: [curve_invariants(curve, *row) for row in zip(t_grid, s, p)])
        got = _outcome(lambda: invariants_table(curve, interval, samples))
        if isinstance(want[0], type):
            assert isinstance(got[0], type) and got[0] is want[0], (interval, got)
            continue
        (adapted, rows), oracle = got, want
        assert adapted.t.tobytes() == t_grid.tobytes()
        assert adapted.residual.max() < 1e-12
        fields = {"s": (adapted.s, s), "ds_dt": (adapted.ds_dt, p)}
        fields.update({key: ([getattr(r, key) for r in rows], [getattr(r, key) for r in oracle])
                       for key in ("sigma", "mu", "tau")})
        for key, (new, old) in fields.items():
            new, old = np.array(new), np.array(old)
            assert np.abs(new - old).max() <= 1e-13 * np.abs(old).max(), (interval, key)


def test_zero_of_b_past_the_last_step_raises():
    """f = t^2/2 + t^3/3 - t^4/3 + 2 y^2 on y = t^2/2 has B = 1 + 2s and
    A = 2B, so the flow s = (3/2) log(1 + 2t/3) runs smoothly through the
    zero of B at s = -1/2 (t = -0.425).  Over (-0.44, 0) no step starts past
    that zero; the last row, read off the last step's polynomial, lies past
    it, and the rows' own check on B raises."""
    scene = build_scene("t^2/2 + t^3/3 - t^4/3 + 2*y^2", "t^2/2", 1)
    table = adapt_parameterization(as_curve(scene), (-0.4, 0.4), 9)
    assert np.abs(table.s - 1.5 * np.log1p(2.0 * table.t / 3.0)).max() < 1e-14
    assert np.abs(table.ds_dt - 1.0 / (1.0 + 2.0 * table.t / 3.0)).max() < 1e-13
    with pytest.raises(OsculatingDegenerateError, match="osculating pairing") as err:
        adapt_parameterization(as_curve(scene), (-0.44, 0.0), 9)
    assert err.value.rows.tolist() == [0]


def test_pointwise_tables_build_few_march_frames(frame_builds):
    """The two invariant tables of a pointwise benchmark pass at seed 7
    (``perfbench/workloads.py``) build at most 20 one-point march frames;
    the march that stopped at every grid point built 44."""
    import importlib.util
    from pathlib import Path

    from darboux import load_bundled

    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    tables = [(load_bundled(task["scene"]), task["interval"])
              for task in workloads.make_tasks("pointwise", 7) if task["kind"] == "invariants"]
    assert len(tables) == 2
    for scene, (lo, hi, count) in tables:
        invariants_table(as_curve(scene), (lo, hi), count)
    dense = len(frame_builds)
    for scene, (lo, hi, count) in tables:
        _grid_stop_march(scene, (lo, hi), count)
    assert dense <= 20 and len(frame_builds) - dense == 44
