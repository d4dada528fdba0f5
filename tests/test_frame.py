"""Frames, Darboux directions, and structure coefficients."""

import gc
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from conftest import gauge_variants, padded, stores_through_its_degree, variant_points

from darboux import (
    build_scene,
    load_bundled,
    darboux_direction,
    darboux_frame,
    nondegeneracy,
    structure_coefficients,
    tangent_frame,
)
from darboux.errors import DegenerateError, DimensionError, GeometryError, SingularBasisError
from darboux.expr import derivative, eval_expr, eval_jet, eval_scalar, parse_expression
from darboux.cli import MAX_PRODUCT_PAIRS, run_command
from darboux.frame import (READER_ORDER, FrameFields, frame_fields, vec_add, vec_partial, vec_scale,
                           vec_values)
from darboux.jets import Jet, jet_dot, jet_solve, jet_space
from darboux.metricbundle import BundleFields
from darboux.singular import classify_envelope_point


def value_bracket(columns):
    m = np.column_stack(columns)
    m[:, [-2, -1]] = m[:, [-1, -2]]
    return float(np.linalg.det(m))


def test_build_scene_validation():
    s = build_scene("t*y", "0", 1)
    assert s.n == 1
    with pytest.raises(DimensionError):
        build_scene("t*y", "y", 1)
    with pytest.raises(DimensionError):
        build_scene("t1 + t3 + y", "0", 2)
    with pytest.raises(DimensionError):
        build_scene("t + y", "0", 1, gauge="weird")


def test_tangent_frame_normal_form(bundled):
    fp = tangent_frame(bundled["a2"], [0.0])
    assert np.allclose(fp.X[0], [1, 0, 0])
    assert np.allclose(fp.xi, [0, 1, 0])
    assert np.allclose(fp.eta, [0, 0, 1])
    fp4 = tangent_frame(bundled["a4"], [0.0, 0.0])
    assert np.allclose(fp4.X, [[1, 0, 0, 0], [0, 1, 0, 0]])


def test_tangent_frame_has_full_rank():
    # Graph scenes are immersions: X_i = e_i + (dg/dt_i) e_{n+1} + ... are
    # independent at every point.
    s = build_scene("(t1^2 + t2^2 + y^2)/2", "t1", 2)
    fp = tangent_frame(s, [0.2, -0.1])
    assert np.linalg.matrix_rank(fp.X) == 2


def test_nondegeneracy_values(bundled):
    lemma_scene = build_scene("(t1^2 + t2^2)/2 + t1^3*t2/3 + t1^2*y/2", "0", 2)
    assert nondegeneracy(lemma_scene, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    hyperbolic = build_scene("t*y", "0", 1)
    assert abs(nondegeneracy(hyperbolic, [0.0])) < 1e-12
    with pytest.raises(DegenerateError):
        darboux_direction(hyperbolic, [0.0])


def test_nondegeneracy_frame_change_scaling():
    """Under a linear reparameterization of N the h2-matrix determinant
    scales by (det A)^2 (recomputed directly on the substituted scene)."""
    from darboux.expr import substitute, to_infix

    rng = np.random.default_rng(31)
    s = build_scene("(t1^2 + t2^2 + y^2)/2 + t1^3/6 + t1^2*y/2", "t1*t2/3", 2)
    t0 = np.array([0.05, -0.08])
    base = nondegeneracy(s, t0)
    for _ in range(4):
        A = rng.uniform(-1, 1, (2, 2))
        while abs(np.linalg.det(A)) < 0.3:
            A = rng.uniform(-1, 1, (2, 2))
        lin = {
            "t1": parse_expression(
                f"({A[0,0]})*t1 + ({A[0,1]})*t2", ["t1", "t2"]),
            "t2": parse_expression(
                f"({A[1,0]})*t1 + ({A[1,1]})*t2", ["t1", "t2"]),
        }
        s2 = build_scene(
            to_infix(substitute(s.f, lin)), to_infix(substitute(s.g, lin)), 2
        )
        t2 = np.linalg.solve(A, t0)
        ratio = nondegeneracy(s2, t2) / base
        assert ratio == pytest.approx(np.linalg.det(A) ** 2, rel=1e-8)


def test_darboux_direction_lemma_scene():
    s = build_scene("(t1^2 + t2^2)/2 + (t1^2 - t2^2)*y/2 + t1^4/12", "t2^3", 2)
    xi = darboux_direction(s, [0.0, 0.0])
    assert np.allclose(xi, [0, 0, 1, 0], atol=1e-12)


def test_darboux_tangency_finite_difference(bundled):
    """nu(D_X xi) vanishes: finite-difference oracle on independently
    computed Darboux vectors along the hyperquadric scene."""
    s = build_scene("(t1^2 + t2^2 + y^2)/2", "t1*t2", 2)
    rng = np.random.default_rng(77)
    h = 3e-4
    for _ in range(5):
        t = rng.uniform(-0.1, 0.1, 2)
        y0 = eval_scalar(s.g, s.t_names, t)
        point = list(t) + [y0]
        nu = np.zeros(4)
        for k, name in enumerate(s.f_names):
            nu[k] = -eval_scalar(derivative(s.f, name), s.f_names, point)
        nu[3] = 1.0
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            dxi = (darboux_direction(s, t + h * e) - darboux_direction(s, t - h * e)) / (2 * h)
            assert abs(nu @ dxi) < 1e-7


def test_structure_coefficients_shape_operator(bundled):
    sc = structure_coefficients(bundled["a2"], [0.0])
    assert sc.S1[0, 0] == pytest.approx(1.0, abs=1e-12)
    sc4 = structure_coefficients(bundled["a4"], [0.0, 0.0])
    assert np.allclose(sc4.S1, np.diag([1.0, 0.0]), atol=1e-10)


def test_shape_operator_full_identity():
    """S1(0) = (mixed t-t-y partials) + f_yy(0) Hess g(0), read off the
    expression jets independently of the frame solve."""
    import math

    rng = np.random.default_rng(7)
    for _ in range(8):
        n = int(rng.integers(1, 4))
        t_names = ["t"] if n == 1 else [f"t{i}" for i in range(1, n + 1)]
        terms = [f"{v}^2/2" for v in t_names] + ["y^2/2"]
        for i, a in enumerate(t_names):
            for b in t_names[i:]:
                terms.append(f"({rng.uniform(-0.5, 0.5)})*{a}*{b}*y")
                terms.append(f"({rng.uniform(-0.5, 0.5)})*{a}*{b}*{t_names[0]}")
        gterms = ["0"] + [
            f"({rng.uniform(-0.5, 0.5)})*{a}*{b}"
            for i, a in enumerate(t_names) for b in t_names[i:]
        ]
        s = build_scene(" + ".join(terms), " + ".join(gterms), n)
        jf = eval_jet(s.f, s.f_names, [0.0] * (n + 1), 3)
        jg = eval_jet(s.g, s.t_names, [0.0] * n, 2)

        def partial(jet, alpha):
            fact = 1.0
            for e in alpha:
                fact *= math.factorial(e)
            return float(jet.coefficient(tuple(alpha))) * fact

        S = np.zeros((n, n))
        G = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                a = [0] * (n + 1)
                a[i] += 1
                a[j] += 1
                a[n] += 1
                S[i, j] = partial(jf, a)
                b = [0] * n
                b[i] += 1
                b[j] += 1
                G[i, j] = partial(jg, b)
        fyy = partial(jf, [0] * n + [2])
        sc = structure_coefficients(s, [0.0] * n)
        assert np.abs(sc.S1 - (S + fyy * G)).max() < 1e-9


def test_reconstruction_residuals_randomized():
    rng = np.random.default_rng(13)
    for _ in range(6):
        n = int(rng.integers(1, 3))
        t_names = ["t"] if n == 1 else [f"t{i}" for i in range(1, n + 1)]
        terms = [f"{v}^2/2" for v in t_names] + ["y^2/2"]
        for i, a in enumerate(t_names + ["y"]):
            for b in (t_names + ["y"])[i:]:
                terms.append(f"({rng.uniform(-0.3, 0.3)})*{a}*{b}*{t_names[0]}")
        s = build_scene(" + ".join(terms), "0", n)
        t = rng.uniform(-0.1, 0.1, n)
        ff = frame_fields(s, t, 2)
        sc = structure_coefficients(s, t)
        X = np.array([vec_values(x) for x in ff.X])
        xi = vec_values(ff.xi)
        eta = vec_values(ff.eta)
        for i in range(n):
            for j in range(n):
                second = vec_values(ff.second[i][j])
                recon = (
                    sc.Gamma[i][j] @ X + sc.h1[i, j] * xi + sc.h2[i, j] * eta
                )
                assert np.abs(second - recon).max() < 1e-9
            dxi = vec_values(vec_partial(ff.xi, i))
            recon = -(sc.S1[:, i] @ X) + sc.tau11[i] * xi + sc.tau12[i] * eta
            assert np.abs(dxi - recon).max() < 1e-9
            deta = vec_values(vec_partial(ff.eta, i))
            recon = -(sc.S2[:, i] @ X) + sc.tau21[i] * xi + sc.tau22[i] * eta
            assert np.abs(deta - recon).max() < 1e-9


def test_frame_invariants(bundled):
    for name, t in (("a2", [0.07]), ("d4", [0.03, -0.06]), ("nonflat", [0.1, 0.05])):
        s = bundled[name]
        fp = darboux_frame(s, t)
        assert value_bracket(list(fp.X) + [fp.eta, fp.xi]) == pytest.approx(1.0, abs=1e-10)
        # conormal pairing nu(xi) = 0
        y0 = eval_scalar(s.g, s.t_names, t)
        point = list(t) + [y0]
        nu = np.array(
            [-eval_scalar(derivative(s.f, v), s.f_names, point) for v in s.f_names]
            + [1.0]
        )
        assert abs(nu @ fp.xi) < 1e-10
        sc = structure_coefficients(s, t)
        assert np.abs(sc.h1 - sc.h1.T).max() < 1e-10
        assert np.abs(sc.h2 - sc.h2.T).max() < 1e-10
        # Darboux gauge kills tau12
        assert np.abs(sc.tau12).max() < 1e-10


def test_gauge_covariance_constant_scale(bundled):
    s = bundled["nonflat"]
    scaled = build_scene(s.f_text, s.g_text, s.n, xi_scale_text="3")
    t = [0.08, -0.05]
    xi1 = darboux_direction(s, t)
    xi2 = darboux_direction(scaled, t)
    cosine = xi1 @ xi2 / (np.linalg.norm(xi1) * np.linalg.norm(xi2))
    assert abs(abs(cosine) - 1.0) < 1e-10
    sc1 = structure_coefficients(s, t)
    sc2 = structure_coefficients(scaled, t)
    assert np.abs(sc1.tau11 - sc2.tau11).max() < 1e-10


def test_tau_shift_law(bundled):
    """xi -> lambda xi adds dlog(lambda) to tau11 (finite-difference
    oracle for the gradient of log lambda)."""
    s = bundled["nonflat"]
    lam_text = "1 + t1^2/4 + t1*t2/5"
    scaled = build_scene(s.f_text, s.g_text, s.n, xi_scale_text=lam_text)
    lam = parse_expression(lam_text, s.t_names)
    t = np.array([0.1, -0.07])
    sc1 = structure_coefficients(s, t)
    sc2 = structure_coefficients(scaled, t)
    h = 1e-4
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        dlog = (
            np.log(eval_scalar(lam, s.t_names, t + h * e))
            - np.log(eval_scalar(lam, s.t_names, t - h * e))
        ) / (2 * h)
        assert sc2.tau11[i] - sc1.tau11[i] == pytest.approx(dlog, abs=1e-6)


def test_provisional_frame_coefficients(bundled):
    s = bundled["a2"]
    fp = tangent_frame(s, [0.1])
    sc = structure_coefficients(s, [0.1], frame=fp)
    # provisional frame keeps the psi_y slot: tau12 reports the solvend of
    # the Darboux system rather than zero
    assert sc.frame.gauge["kind"] == "provisional"
    h2 = nondegeneracy(s, [0.1])
    assert sc.h2[0, 0] == pytest.approx(h2, rel=1e-12)


def test_blaschke_gauge_reads_the_hessian_on_n():
    # The Hessian of f is evaluated on N, at y = g(t), so it may depend on y.
    from darboux.metricbundle import blaschke_compatibility

    cases = [
        (build_scene("(t^2 + y^2)/2 + t^2*y/2", "t^2/2", 1, gauge="blaschke"), [0.1]),
        (build_scene("(t1^2 + t2^2 + y^2)/2 + t1*y^2/3", "t1*t2", 2, gauge="blaschke"),
         [0.1, 0.2]),
    ]
    for scene, t in cases:
        report = blaschke_compatibility(scene, t)
        assert report["h_xi_xi"] == pytest.approx(1.0, abs=1e-10)


def _on_n(ff, expr):
    """A symbolic expression in (t, y) evaluated along N, at y = g(t)."""
    scene = ff.scene
    env = dict(zip(scene.t_names, Jet.coordinates(ff.space, ff.t0)))
    env["y"] = ff.g_jet
    return eval_expr(expr, env)


def _symbolic_conormal(ff):
    """Reference: nu = (-f_t1..-f_tn, -f_y, 1) from symbolic partials of f."""
    return [-_on_n(ff, derivative(ff.scene.f, a)) for a in ff.scene.f_names] + [ff.one]


def _full_hessian_lam(ff):
    """Reference gauge factor: the graph-gauge xi = alpha X + psi_y scaled
    to h(xi, xi) = 1 with the Blaschke metric h = Hess f / |det Hess f|^(1/(n+3))
    from all second partials of f, times xi_scale; a vanishing bracket is
    the absolute |lam| < 1e-12.  Raises what that construction raises."""
    from darboux.metricbundle import blaschke_phi

    scene, n = ff.scene, ff.scene.n
    det_h2 = float(ff.det_h2_value)
    if abs(det_h2) <= 1e-9 * ff.h2_scale:
        raise DegenerateError(f"non-degeneracy determinant {det_h2:.3e} at t={ff.t0.tolist()}")
    alpha, _ = jet_solve(ff.h2_prov, [-tau for tau in ff.tau12_prov])
    xi = list(ff.psi_y)
    for a, x in zip(alpha, ff.X):
        xi = vec_add(xi, vec_scale(x, a))
    lam = Jet.constant(ff.space, 1.0, ff.order)
    if scene.gauge == "blaschke":
        names = scene.f_names
        hess = [[_on_n(ff, derivative(derivative(scene.f, a), b)) for b in names]
                for a in names]
        phi, det = blaschke_phi(hess)
        if phi is None:
            raise DegenerateError("blaschke gauge needs a non-degenerate hypersurface", det)
        h_xixi = jet_dot([xi[a] * xi[b] for a in range(n + 1) for b in range(n + 1)],
                         [hess[a][b] for a in range(n + 1) for b in range(n + 1)])
        h_xixi = h_xixi * phi.reciprocal()
        if float(h_xixi.value) <= 0:
            raise DegenerateError("blaschke gauge needs h(xi, xi) > 0")
        lam = lam * h_xixi.fractional_power(0.5).reciprocal()
    if scene.xi_scale is not None:
        lam = lam * _on_n(ff, scene.xi_scale)
    if abs(float(lam.value)) < 1e-12:
        raise SingularBasisError("frame bracket vanishes")
    return lam


def _oracle_scenes(bundled):
    out = []
    for scene in bundled.values():
        for gauge in ("graph", "blaschke"):
            variant = build_scene(scene.f_text, scene.g_text, scene.n, gauge=gauge)
            out.append((variant, [0.0] * scene.n))
            out.append((variant, [0.05 * (-1) ** i for i in range(scene.n)]))
    out.append((build_scene("(t^2 + y^2)/2 + t^2*y/2", "t^2/2", 1, gauge="blaschke"), [0.1]))
    out.append((build_scene("(t1^2 + t2^2 + y^2)/2 + t1*y^2/3", "t1*t2", 2,
                            gauge="blaschke"), [0.1, 0.2]))
    return out


def _coeff_gap(got, want):
    common = min(got.order, want.order)
    return np.abs(padded(got.truncated(common)) - padded(want.truncated(common))).max()


def test_chain_rule_conormal_and_bordered_gauge_match_the_symbolic_reads(bundled):
    """The conormal read off X by the chain rule equals -grad f from
    symbolic partials through order + 1, and the gauge factor from the
    bordered Hessian on (X, psi_y) equals the one from the full Hessian of
    f to 1e-12, or both raise the same error with the same message."""
    checked = raised = 0
    for scene, t in _oracle_scenes(bundled):
        for order in (1, 2):
            ff = frame_fields(scene, t, order)
            want = _symbolic_conormal(ff)
            scale = max(np.abs(w.coeffs).max() for w in want)
            for got, ref in zip(ff.conormal, want, strict=True):
                assert got.order >= order + 1
                assert _coeff_gap(got, ref) <= 1e-13 * scale, (scene.f_text, t, order)
            try:
                want_lam = _full_hessian_lam(ff)
            except GeometryError as err:
                with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
                    ff.lam
                raised += 1
                continue
            gap = _coeff_gap(ff.lam, want_lam)
            assert ff.lam.order == want_lam.order
            assert gap <= 1e-12 * np.abs(want_lam.coeffs).max(), (scene.f_text, t, order)
            checked += 1
    assert checked > 50 and raised > 0


def test_a_frame_evaluates_f_only_as_f_f_y_and_f_yy(bundled, monkeypatch):
    """Building a frame and its Darboux part evaluates g, f, f_y, f_yy (in
    the Blaschke gauge only) and xi_scale, and derives nothing."""
    import darboux.expr as expr_module

    s = bundled["nonflat"]
    scenes = [build_scene(s.f_text, s.g_text, 2, xi_scale_text="2 + t1", gauge=gauge)
              for gauge in ("graph", "blaschke")]
    for scene in scenes:
        scene.f_yy  # derived here, outside the count
    evaluated = []
    original = expr_module.eval_expr

    def record(expr, *rest):
        evaluated.append(expr)
        return original(expr, *rest)

    monkeypatch.setattr(expr_module, "eval_expr", record)
    monkeypatch.setattr(expr_module, "derivative", None)
    for scene in scenes:
        evaluated.clear()
        frame_fields(scene, [0.05, -0.03], 2).lam
        blaschke = [scene.f_yy] if scene.gauge == "blaschke" else []
        assert evaluated == [scene.g, scene.f, scene.f_y, *blaschke, scene.xi_scale]


@pytest.mark.parametrize("name", ["nonflat", "hyperquadric"])
def test_bracket_test_is_relative_to_the_gauge_scale(bundled, name):
    """A constant xi_scale k scales xi by k and eta by 1/k at any k; the
    bracket vanishes, and the Darboux part raises, where xi_scale does."""
    s = bundled[name]
    t = [0.05, -0.03]
    base = frame_fields(s, t, 2)
    for k in (1e-13, 1e13):
        scaled = build_scene(s.f_text, s.g_text, 2, xi_scale_text=repr(k), gauge=s.gauge)
        ff = frame_fields(scaled, t, 2)
        np.testing.assert_allclose(vec_values(ff.xi), k * vec_values(base.xi), rtol=1e-14)
        np.testing.assert_allclose(vec_values(ff.eta), vec_values(base.eta) / k, rtol=1e-14)
    vanishing = build_scene(s.f_text, s.g_text, 2, xi_scale_text="t1", gauge=s.gauge)
    with pytest.raises(SingularBasisError):
        frame_fields(vanishing, [0.0, -0.03], 2).xi


def _reference_structure(ff, xi_slot, eta_slot):
    """Reference: the frame derivatives solved against the basis matrix
    with columns X_1..X_n, xi_slot, eta_slot by a pivoting jet solve."""
    from darboux.jets import jet_solve

    n = ff.scene.n
    columns = ff.X + [xi_slot, eta_slot]
    basis = [[column[r] for column in columns] for r in range(n + 2)]
    fields = [vec_partial(ff.X[j], i) for i in range(n) for j in range(n)]
    fields += [vec_partial(xi_slot, i) for i in range(n)]
    fields += [vec_partial(eta_slot, i) for i in range(n)]
    solved, _ = jet_solve(basis, fields)
    second = [solved[i * n:(i + 1) * n] for i in range(n)]
    dxi, deta = solved[n * n:n * n + n], solved[n * n + n:]
    return {
        "Gamma": [[c[:n] for c in row] for row in second],
        "h1": [[c[n] for c in row] for row in second],
        "h2": [[c[n + 1] for c in row] for row in second],
        "S1": [[-dxi[j][k] for j in range(n)] for k in range(n)],
        "S2": [[-deta[j][k] for j in range(n)] for k in range(n)],
        "tau11": [d[n] for d in dxi], "tau12": [d[n + 1] for d in dxi],
        "tau21": [d[n] for d in deta], "tau22": [d[n + 1] for d in deta],
    }


def _flat_jets(entries):
    if isinstance(entries, list):
        return [jet for entry in entries for jet in _flat_jets(entry)]
    return [entries]


def test_structure_jets_match_the_basis_solve(bundled):
    """The coordinate read by pairing with nu and mu equals the basis
    solve in the default frame, the provisional frame (psi_y, e_last) and
    the normal-plane bundle's (xi, eta), relative to the frame's largest
    coefficient."""
    from darboux.metricbundle import bundle_fields

    scenes = list(bundled.values())
    s = bundled["nonflat"]
    scenes.append(build_scene(s.f_text, s.g_text, 2, gauge="blaschke"))
    s = bundled["a2"]
    scenes.append(build_scene(s.f_text, s.g_text, 1, xi_scale_text="2 + t - t^2"))
    for scene in scenes:
        t = [0.05 * (-1) ** i for i in range(scene.n)]
        for order in (1, 2):
            ff = frame_fields(scene, t, order)
            slots = [(ff.xi, ff.eta), (ff.psi_y, ff.e_last)]
            if order == 2:
                slots.append((ff.xi, bundle_fields(scene, t).eta))
            for xi_slot, eta_slot in slots:
                got = ff.structure_jets(xi_slot=xi_slot, eta_slot=eta_slot)
                want = _reference_structure(ff, xi_slot, eta_slot)
                assert got.keys() == want.keys()
                scale = max(np.abs(j.coeffs).max() for key in want for j in _flat_jets(want[key]))
                for key in want:
                    for g, w in zip(_flat_jets(got[key]), _flat_jets(want[key]), strict=True):
                        # The bundle's eta is exact through order - 1, and
                        # the read carries that order into h1, where the
                        # solve keeps the order of X.
                        assert g.order == w.order or (
                            key == "h1" and g.order == eta_slot[-1].order < w.order)
                        common = min(g.order, w.order)
                        gap = g.truncated(common).coeffs - w.truncated(common).coeffs
                        assert np.abs(gap).max() <= 1e-13 * scale, (scene.f_text, order, key)


def test_decompose_raises_on_a_slot_that_pairs_to_zero(bundled):
    from darboux.errors import SingularBasisError

    ff = frame_fields(bundled["nonflat"], [0.05, -0.05], 2)
    fields = [vec_partial(ff.xi, 0)]
    with pytest.raises(SingularBasisError):
        ff.decompose(fields, xi_slot=ff.X[0])
    with pytest.raises(SingularBasisError):
        ff.decompose(fields, eta_slot=ff.X[0])


def test_dxi_read_is_bit_identical_to_structure_jets(bundled):
    """S1 and tau11 read off FrameFields.dxi equal the full structure read
    bit for bit, as jets at the frame orders of their readers (1: shape
    operator and parallel-test midpoints, 2: tau_form, normal_curvature and
    the grid points, 3: curve_singularity) and as the values the public
    readers return, on every bundled scene and on a Blaschke-gauge and an
    ``xi_scale`` variant.  On the same scenes, X's first n components are
    bitwise the identity in one-point and batch frames."""
    from darboux.envelope import shape_operator
    from darboux.metricbundle import normal_curvature, tau_form

    scenes = list(bundled.values())
    s = bundled["nonflat"]
    scenes.append(build_scene(s.f_text, s.g_text, 2, gauge="blaschke"))
    s = bundled["a2"]
    scenes.append(build_scene(s.f_text, s.g_text, 1, xi_scale_text="2 + t - t^2"))
    for scene in scenes:
        n = scene.n
        for t in ([0.0] * n, [0.05 * (-1) ** i for i in range(n)]):
            for order in (1, 2, 3):
                ff = frame_fields(scene, t, order)
                # The tangency check reads X's first n components as the identity.
                assert vec_values(ff.X)[..., :n].tobytes() == np.eye(n).tobytes()
                want = ff.structure_jets()
                dxi = ff.dxi()
                for i in range(n):
                    pairs = [(dxi[i][n], want["tau11"][i])]
                    pairs += [(-dxi[j][i], want["S1"][i][j]) for j in range(n)]
                    for got, ref in pairs:
                        assert got.order == ref.order
                        assert np.array_equal(got.coeffs, ref.coeffs), (scene.f_text, order)
            tau = frame_fields(scene, t, 2).structure_jets()["tau11"]
            assert np.array_equal(tau_form(scene, t), vec_values(tau))
            dtau = np.array([[float(tau[i].derivative(j).value - tau[j].derivative(i).value)
                              if i != j else 0.0 for j in range(n)] for i in range(n)])
            assert np.array_equal(normal_curvature(scene, t), dtau)
            S1 = frame_fields(scene, t, 1).structure_jets()["S1"]
            assert np.array_equal(shape_operator(scene, t), vec_values(S1))
        for order in (1, 2):
            batch = FrameFields.batch(scene, [[0.0] * n, [0.05 * (-1) ** i for i in range(n)]], order)
            assert vec_values(batch.X)[..., :n].tobytes() == np.stack([np.eye(n)] * 2).tobytes()


def test_value_coordinates_are_bitwise_the_jet_decomposition(bundled):
    """dxi_values has the bits of the value parts of dxi in every column
    (X-coefficients, tau11, tau12), on every bundled scene and its Blaschke
    and xi_scale variants at four points, on order-1 and order-2 one-point
    frames and on each row of a batch frame over the points that build; a
    point where dxi raises makes dxi_values raise the same error.  For
    arbitrary vectors with signed zeros, and the provisional slots psi_y and
    e_last as well as xi and eta, coordinates has the bits of decompose's
    value parts."""
    rng = np.random.default_rng(7)
    for name, base in bundled.items():
        n = base.n
        for scene in gauge_variants(base):
            good, wants = [], []
            for t in variant_points(n):
                try:
                    want = vec_values(FrameFields(scene, t, 2).dxi())
                except GeometryError as err:
                    with pytest.raises(type(err)):
                        FrameFields(scene, t, 1).dxi_values()
                    continue
                for order in (1, 2):
                    got = FrameFields(scene, t, order).dxi_values()
                    assert got.tobytes() == want.tobytes(), (name, scene.gauge, t, order)
                good.append(t)
                wants.append(want)
                ff = frame_fields(scene, t, 2)
                vectors = rng.choice([-0.0, 0.0, 1.0, -2.5, 0.3], size=(3, n + 2))
                vectors[0] = rng.standard_normal(n + 2)
                fields = [[Jet.constant(ff.space, v) for v in row] for row in vectors]
                for xi, eta in ((ff.xi, ff.eta), (ff.psi_y, ff.e_last)):
                    want = vec_values(ff.decompose(fields, xi, eta))
                    got = ff.coordinates(vectors, vec_values(xi), vec_values(eta))
                    assert got.tobytes() == want.tobytes(), (name, scene.gauge, t)
            if good:
                got = FrameFields.batch(scene, good, 1).dxi_values()
                assert got.tobytes() == np.stack(wants).tobytes(), (name, scene.gauge)


def test_partial_values_are_bitwise_the_first_derivatives(monkeypatch, bundled):
    """Every jet whose first partials the library reads as values, in every
    module that reads them, one-point and batched: partial_values has the
    shape and bits of derivative(i).value, row i per variable.  Run over the
    metric battery, the Blaschke data, family values, a germ
    classification, a Transon report, a parallel test and a curve table."""
    import warnings

    import darboux
    from darboux import curve, envelope, frame, jets, metricbundle, singular, transon

    callers = set()

    def checked_in(module):
        def checked(fields):
            got = jets.partial_values(fields)
            want = np.stack([np.stack([np.asarray(f.derivative(i).value, dtype=float)
                                       for f in fields], axis=-1)
                             for i in range(fields[0].space.nvars)], axis=-2)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            callers.add(module.__name__)
            return got
        return checked

    modules = (curve, envelope, frame, metricbundle, singular, transon)
    for module in modules:
        monkeypatch.setattr(module, "partial_values", checked_in(module))
    frame._fields.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, t in (("nonflat", [0.1, 0.15]), ("e6", [0.07, -0.04, 0.07, -0.03]),
                        ("a2", [0.05])):
            s = bundled[name]
            for reader in (darboux.affine_metric, darboux.affine_normal_plane,
                           darboux.apolarity_defect,
                           darboux.equiaffine_defect, darboux.tau_form,
                           darboux.normal_curvature, darboux.blaschke_compatibility,
                           darboux.transon_report):
                reader(s, t)
            darboux.family_value(s, t, [0.3] * (s.n + 2))
        darboux.classify_envelope_point(bundled["a2"], [0.0], 1.0, order=4)
        darboux.parallel_field_exists(bundled["nonflat"], [(0.08, 0.2, 3)] * 2)
        curve.invariants_table(darboux.as_curve(bundled["a2"]), (-0.1, 0.1), 3)
    assert callers == {module.__name__ for module in modules}


# -- order-limited Darboux reads ----------------------------------------------

_ALL_SCENES = ("a2", "a3", "a4", "a5", "d4", "d5", "e6", "e7", "e8",
               "cubic-curve", "nonflat", "hyperquadric")


def _part_or_error(scene, t, order, read_order):
    """A fresh frame's Darboux part read at ``read_order``, or the error it raises."""
    try:
        return FrameFields(scene, t, order).darboux(read_order)
    except GeometryError as err:
        return err


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ALL_SCENES), st.sampled_from(["graph", "blaschke"]), st.booleans(),
       st.integers(1, 6), st.data())
def test_order_one_darboux_read_has_the_bits_of_the_full_read(name, gauge, scaled, order, data):
    """On every bundled scene, in both gauges and with an ``xi_scale``, the
    values and first-order slots of alpha, lam, xi and eta from an order-1
    solve are the full-order read's, bit for bit, signed zeros included;
    where one read raises, the other raises the same error."""
    s = load_bundled(name)
    assume(math.comb(2 * s.n + order + 2, 2 * s.n) <= MAX_PRODUCT_PAIRS)
    scale = None if not scaled else "2 + t - t^2" if s.n == 1 else "2 + t1 - t2^2"
    scene = build_scene(s.f_text, s.g_text, s.n, xi_scale_text=scale, gauge=gauge)
    t = data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.05, -0.1]), min_size=s.n,
                           max_size=s.n))
    low, full = (_part_or_error(scene, t, order, k) for k in (1, order))
    if isinstance(full, GeometryError):
        assert type(low) is type(full) and str(low) == str(full)
        return
    assert low.order == 1 and full.order == order
    head = jet_space(s.n, order + 2).prefix[2]  # the slots of degree <= 1
    for got, want in zip(low.alpha + [low.lam] + low.xi + low.eta,
                         full.alpha + [full.lam] + full.xi + full.eta):
        assert got.coeffs[:head].tobytes() == want.coeffs[:head].tobytes(), (name, gauge, t)


def test_a_frame_holds_one_darboux_part_whose_order_only_rises(bundled):
    ff = FrameFields(bundled["d4"], [0.05, -0.1], 4)
    low = ff.darboux(1)
    assert ff.darboux(0) is low and low.order == 1
    full = ff.darboux(6)  # at most the frame's order
    assert full.order == 4 and ff.xi is full.xi and ff.darboux(1) is full


@pytest.mark.parametrize("gauge", ["graph", "blaschke"])
def test_a_germ_solves_the_darboux_field_as_deep_as_its_gauge_reads_it(solve_orders, gauge):
    """A graph-gauge classification at order 6 reads only values and first
    slots of xi, and lam without alpha, so each of the five germs makes one
    Darboux solve, at order 1; the Blaschke gauge's lam reads alpha, so one
    solve runs at order 6."""
    from darboux import classify_envelope_point

    if gauge == "graph":
        for name in GERMS:
            solve_orders.clear()
            scene = load_bundled(name)
            report = classify_envelope_point(scene, [0.0] * scene.n, 1.0, order=6)
            assert report["class"] == name.upper() and solve_orders == [1], name
    else:
        report = classify_envelope_point(load_bundled("hyperquadric"), [0.0, 0.0], 1.0, order=6)
        assert report["class"] == "A3" and solve_orders == [1, 6]


def test_the_affine_metric_solves_the_darboux_field_once(solve_orders, bundled):
    """The metric reads det h2_prov, a full-order read, before the graph
    gauge's lam, so lam reuses that part instead of solving at order 1 first."""
    from darboux.metricbundle import affine_metric

    affine_metric(bundled["nonflat"], [0.1, 0.05])
    assert solve_orders == [READER_ORDER]


def _frame_jets(obj):
    """Every jet a frame holds, through its lists, dicts, Darboux part and
    normal-plane bundle; a jet held twice is yielded twice."""
    if isinstance(obj, Jet):
        yield obj
    elif isinstance(obj, (FrameFields, BundleFields)):
        yield from _frame_jets([v for k, v in vars(obj).items() if k not in ("scene", "ff")])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _frame_jets(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _frame_jets(item)


def test_the_zero_jets_of_an_e8_frame_share_one_read_only_row(bundled):
    """The structural zeros of a germ frame: psi_y and e_last off their last
    slots, eta through the e_last direction, mu's last slot, D_i g (g = 0),
    and the second derivatives of the first n + 1 components of phi.  Each
    is the zero jet, on its space's one read-only zero row, as is every
    other zero jet the classified frame holds."""
    from darboux import classify_envelope_point

    scene = bundled["e8"]
    n, t = scene.n, [0.0] * scene.n
    classify_envelope_point(scene, t, 1.0, order=6)
    ff = frame_fields(scene, t, 6)
    row = ff.space.zero_row
    structural = ff.psi_y[:n] + ff.e_last[:n + 1] + ff.eta[:n + 1] + [ff.mu[n + 1]]
    structural += [x[n] for x in ff.X]
    structural += [v for pair in ff.second for vec in pair for v in vec[:n + 1]]
    assert len(structural) == n + (n + 1) * 2 + 1 + n + n * n * (n + 1)
    held = list(_frame_jets([v for k, v in vars(ff).items() if k != "scene"]))
    zeros = [jet for jet in held if jet.degree < 0]
    assert all(jet.degree == -1 for jet in structural)
    assert len(zeros) >= len(structural)
    for jet in zeros:
        assert np.shares_memory(jet.coeffs, row) and not jet.coeffs.flags.writeable
        with pytest.raises(ValueError):
            jet.coeffs[0] = 1.0
    assert not row.any()


def test_the_off_diagonal_x_components_of_an_e8_frame_view_the_zero_row(bundled):
    """X_i = D_i phi starts with e_i: its first n components are constants at
    X's order, zero jets on the space's read-only row off the diagonal."""
    scene = bundled["e8"]
    n, t = scene.n, [0.0] * scene.n
    classify_envelope_point(scene, t, 1.0, order=6)
    ff = frame_fields(scene, t, 6)
    for i, x in enumerate(ff.X):
        for k in range(n):
            assert x[k].order == ff.order + 1
            if k == i:
                assert x[k].degree == 0 and padded(x[k]).tolist()[:2] == [1.0, 0.0]
                assert not x[k].coeffs[1:].any()
            else:
                assert x[k].degree == -1 and np.shares_memory(x[k].coeffs, ff.space.zero_row)


def _arrays_under(coeffs):
    """A jet's coefficient array and every array it views, base by base."""
    while isinstance(coeffs, np.ndarray):
        yield coeffs
        coeffs = coeffs.base


def _coefficient_bytes(frames):
    """The bytes of the distinct writeable arrays under the frames' jets."""
    owners = {}
    for jet in _frame_jets(frames):
        array = list(_arrays_under(jet.coeffs))[-1]
        if array.flags.writeable:
            owners[id(array)] = array.nbytes
    return sum(owners.values())


GERMS = ("e6", "e7", "e8", "d5", "a5")  # the germs workload's classes, in its order


def test_frame_jets_store_their_coefficients_only_through_their_degree_bounds(bundled):
    """Every jet of the germ frames, the metric and Transon frames (bundles
    included) and a batch frame stores no slot past its degree bound (cut
    at its order) unless a -0.0 sits past the bound, and no writeable array
    under it holds more numbers.  The five germ frames' distinct writeable
    coefficient arrays fit in 0.25 MB and e8's in 0.15 MB (1.36 and 0.85 MB
    when every jet stored through its order)."""
    from darboux import frame as frame_mod, transon_report

    frame_mod._fields.cache_clear()
    for name in GERMS:
        classify_envelope_point(bundled[name], [0.0] * bundled[name].n, 1.0, order=6)
    for name in ("nonflat", "hyperquadric"):
        t = ",".join(["0.1"] * bundled[name].n)
        assert run_command(["metric", "--scene", name, "--t", t]) == 0
        transon_report(bundled[name], [0.1] * bundled[name].n)
    gc.collect()
    frames = [obj for obj in gc.get_objects() if isinstance(obj, FrameFields)]
    batch = FrameFields.batch(bundled["nonflat"], [[0.1, 0.05], [-0.1, 0.2], [0.0, 0.1]], 2)
    batch.structure_jets()
    germs = [frame_fields(bundled[name], [0.0] * bundled[name].n, 6) for name in GERMS]
    assert all(ff in frames for ff in germs) and len(frames) >= 7
    jets = list(_frame_jets(frames + [batch]))
    assert len(jets) > 500
    for jet in jets:
        assert stores_through_its_degree(jet), (jet.space, jet.order, jet.degree, jet.coeffs.shape)
        for array in _arrays_under(jet.coeffs):
            assert not array.flags.writeable or array.size <= jet.coeffs.size, (
                jet.space, jet.order, array.shape)
    assert _coefficient_bytes(germs[2]) <= 0.15e6 and _coefficient_bytes(germs) <= 0.25e6


def test_the_zero_jets_of_a_batch_frame_are_views_of_the_row(bundled):
    ff = FrameFields.batch(bundled["nonflat"], [[0.1, 0.05], [-0.1, 0.2], [0.0, 0.1]], 2)
    for jet in ff.psi_y[:2] + ff.e_last[:3] + ff.eta[:3]:
        assert jet.degree == -1
        assert jet.coeffs.shape == (3, 1)
        assert np.shares_memory(jet.coeffs, ff.space.zero_row) and not jet.coeffs.flags.writeable
