"""Adapted parameterizations, curve invariants, singularity criteria."""

import numpy as np
import pytest

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
    OsculatingDegenerateError,
    SigmaZeroError,
)
from darboux.expr import parse_expression, substitute, to_infix
from darboux.frame import frame_fields, vec_values


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
    from darboux.jets import bracket, jet_compose
    from conftest import eval_poly_jet

    curve = as_curve(bundled["cubic-curve"])
    t0, s0, p0 = 0.0, 0.0, 1.0
    s_jet = _parameter_jet(curve.scene, s0, p0, 4)
    sp_jet = s_jet.derivative(0)

    def frame_at(dt):
        s_val = s0 + eval_poly_jet(s_jet, [dt]) - float(s_jet.value)
        p_val = eval_poly_jet(sp_jet, [dt])
        local = _parameter_jet(curve.scene, s_val, p_val, 3)
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
    base = build_scene("t^2/2 + t^4/24 + t^2*y/2", "0", 1)
    for a in (0.5, 2.0):
        for b in (0.0, 0.3):
            sub = {"t": parse_expression(f"({a})*t + ({b})", ["t"])}
            scene = build_scene(
                to_infix(substitute(base.f, sub)), to_infix(substitute(base.g, sub)), 1
            )
            t0 = -b / a
            assert curve_singularity(as_curve(scene), t0) == "Swallowtail"


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
    table = adapt_parameterization(as_curve(bundled[name]), interval, samples)
    ref = _rk4_reference(bundled[name], table.t, 2e-4)
    # the reference is converged: halving its step moves it by far less
    # than the bounds below
    assert np.abs(_rk4_reference(bundled[name], table.t, 1e-4) - ref).max() < 1e-12
    assert np.abs(table.s - ref[:, 0]).max() <= 1e-10
    assert np.abs(table.ds_dt - ref[:, 1]).max() <= 1e-9
    spacing = (interval[1] - interval[0]) / (samples - 1)
    assert 0.0 < table.step <= spacing * (1 + 1e-12)


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
def test_invariants_table_builds_one_frame_per_sample(bundled, frame_builds, name, interval,
                                                     samples):
    """Each row reads its invariants off the frame the march built at its
    sample, so a table builds one frame per distinct point."""
    _, rows = invariants_table(as_curve(bundled[name]), interval, samples)
    assert len(rows) == samples
    assert len(frame_builds) == len(set(frame_builds))
