"""Affine metric, normal plane bundle, the defects against the structure
solve (``structure_oracle``), Blaschke data, and the parallel-field
machinery."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from darboux import (
    affine_metric,
    affine_normal_plane,
    apolarity_defect,
    blaschke_compatibility,
    blaschke_data,
    build_scene,
    equiaffine_defect,
    normal_curvature,
    parallel_field_exists,
    tau_form,
)
from darboux.errors import DegenerateError, DegenerateHypersurfaceError, IndefiniteWarning
from darboux.expr import parse_expression
from darboux.frame import READER_ORDER, frame_fields, vec_values, vec_partial
from darboux.metricbundle import _curvature, bundle_fields, hypersurface_blaschke
from conftest import (bracket, cofactor_det, gauge_variants, nonflat_grid, padded,
                      random_gauged_scene, reference_loop_integrals, variant_points)
from structure_oracle import (apolarity_trace, coord_frame, cubic_forms, equiaffine_trace)


def test_affine_metric_normal_form(bundled):
    g, record = affine_metric(bundled["a2"], [0.0])
    assert g[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert record["signature"] == (1, 0)


def test_affine_metric_scaling_law(bundled):
    for name, t in (("a2", [0.0]), ("d4", [0.05, -0.03])):
        s = bundled[name]
        ff = frame_fields(s, t, 1)
        xi = vec_values(ff.xi)
        g1, _ = affine_metric(s, t, xi=xi)
        g2, _ = affine_metric(s, t, xi=2 * xi)
        ratio = 2 ** (2.0 / (s.n + 2))
        assert np.abs(g2 - ratio * g1).max() < 1e-10


@pytest.mark.parametrize("k", ["1", "1e4", "1e8"])
def test_override_bracket_is_bounded_by_the_components_it_reads(bundled, k):
    """Scaling f scales the last components of X and xi, which the bracket
    [X, e_last, xi] does not read: the Darboux direction stays accepted
    and X_1, or X_1 plus a rounding-level psi_y, stays rejected."""
    from darboux import darboux_direction
    from darboux.errors import DegenerateError

    h = bundled["hyperquadric"]
    s = build_scene(f"({k})*({h.f_text})", h.g_text, 2)
    t = [0.05, -0.03]
    _, record = affine_metric(s, t, xi=darboux_direction(s, t))
    assert record["signature"] == (2, 0)
    ff = frame_fields(s, t, 2)
    X1 = vec_values(ff.X)[0]
    for xi in (X1, X1 + 1e-12 * vec_values(ff.psi_y)):
        with pytest.raises(DegenerateError, match="vanishing bracket"):
            affine_metric(s, t, xi=xi)


def test_affine_metric_indefinite_warning():
    s = build_scene("-t^2/2 - t^3/6 + t^2*y/2", "0", 1)
    with pytest.warns(IndefiniteWarning):
        g, record = affine_metric(s, [0.0])
    assert record["det_G"] < 0


def test_hyperplanar_metric_matches_blaschke_of_section():
    """With N inside the hyperplane y = 0, the affine metric coincides
    with the Blaschke metric of N in that hyperplane."""
    s = build_scene("(t^2 + y^2)/2 + t^4/24", "0", 1)
    t = [0.08]
    g, _ = affine_metric(s, t)
    section = parse_expression("(x^2)/2 + x^4/24", ["x"])
    bd = blaschke_data(section, ["x"], t)
    # both are metrics on the same curve parameter
    assert g[0, 0] == pytest.approx(bd.h[0, 0], rel=1e-9)


def test_affine_normal_plane_values(bundled):
    xi, eta = affine_normal_plane(bundled["cubic-curve"], [0.0])
    assert np.allclose(xi, [0, 1, 0], atol=1e-12)
    assert np.allclose(eta, [-1, 0, 1], atol=1e-10)
    flat = build_scene("(t^2 + y^2)/2", "0", 1)
    _, eta0 = affine_normal_plane(flat, [0.0])
    assert np.allclose(eta0, [0, 0, 1], atol=1e-12)


def test_normal_plane_defining_equations():
    """The pair (xi, eta) satisfies the unit bracket, the unit second
    fundamental form on the orthonormal frame, and the vanishing of both
    transversal connection forms.  On the orthonormal frame E = A X, h2 is
    A h2 A^T and each tau is A tau of the coordinate frame."""
    from darboux.jets import jet_dot

    rng = np.random.default_rng(19)
    for _ in range(4):
        n = int(rng.integers(1, 3))
        t_names = ["t"] if n == 1 else [f"t{i}" for i in range(1, n + 1)]
        terms = [f"{v}^2/2" for v in t_names] + ["y^2/2"]
        for i, a in enumerate(t_names + ["y"]):
            for b in (t_names + ["y"])[i:]:
                terms.append(f"({rng.uniform(-0.25, 0.25)})*{a}*{b}*{t_names[0]}")
        s = build_scene(" + ".join(terms), "0", n)
        t = rng.uniform(-0.08, 0.08, n)
        b = bundle_fields(s, t)
        coeffs = coord_frame(b)
        A = b.A
        tau12 = A @ vec_values(coeffs["tau12"])
        tau22 = A @ vec_values(coeffs["tau22"])
        h2 = A @ vec_values(coeffs["h2"]) @ A.T
        for i in range(n):
            assert abs(tau12[i]) < 1e-9
            assert abs(tau22[i]) < 1e-9
            for j in range(n):
                target = 1.0 if i == j else 0.0
                assert h2[i, j] == pytest.approx(target, abs=1e-9)
        Ehat = [[jet_dot([x[r] for x in b.ff.X], A[i]) for r in range(n + 2)]
                for i in range(n)]
        val = float(bracket(Ehat + [b.eta, b.ff.xi]).value)
        assert val == pytest.approx(1.0, abs=1e-9)


def test_cubic_forms_symmetry_and_quadric():
    rng = np.random.default_rng(23)
    s = build_scene(
        "(t1^2 + t2^2 + y^2)/2 + t1^3/7 + t2^3*y/9 + t1*t2*y/5", "t1*t2/4", 2
    )
    t = rng.uniform(-0.05, 0.05, 2)
    C1, C2 = cubic_forms(s, t)
    for C in (C1, C2):
        assert np.abs(C - np.transpose(C, (1, 0, 2))).max() < 1e-8
        assert np.abs(C - np.transpose(C, (0, 2, 1))).max() < 1e-8
        assert np.abs(C - np.transpose(C, (2, 1, 0))).max() < 1e-8
    # on a hyperquadric the unit-normalized gauge has vanishing C2
    from darboux import load_bundled

    quadric = load_bundled("hyperquadric")
    _, C2q = cubic_forms(quadric, [0.07, -0.04])
    assert np.abs(C2q).max() < 1e-9
    nonquadric = build_scene("(t1^2 + t2^2 + y^2)/2 + t1^2*y/2", "t1*t2", 2)
    _, C2n = cubic_forms(nonquadric, [0.1, 0.1])
    assert np.abs(C2n).max() > 1e-3


def _cubic_jets(b, which):
    """The oracle of structure_oracle.cubic: each entry a sum of jets off the
    structure solve, C[i][j][k] = D_i h_jk - sum_l (Gamma_ij^l h_lk +
    Gamma_ik^l h_jl) + tau_a_i h1_jk + tau_b_i h2_jk."""
    n = b.scene.n
    coeffs = coord_frame(b)
    h = coeffs["h2" if which == "C2" else "h1"]
    Gamma, h1, h2 = coeffs["Gamma"], coeffs["h1"], coeffs["h2"]
    tau_a = coeffs["tau12"] if which == "C2" else coeffs["tau11"]
    tau_b = coeffs["tau22"] if which == "C2" else coeffs["tau21"]
    C = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = h[j][k].derivative(i)
                for l in range(n):
                    acc = acc - Gamma[i][j][l] * h[l][k] - Gamma[i][k][l] * h[j][l]
                acc = acc + tau_a[i] * h1[j][k] + tau_b[i] * h2[j][k]
                C[i][j][k] = acc
    return C


def test_cubic_forms_and_apolarity_are_bitwise_the_jet_oracle(bundled):
    """The structure solve's cubic forms and apolarity trace, read on values
    (``structure_oracle``), have the bits of the value parts of the
    cubic-form jets and of their traces against h2^-1 summed from 0.0 in
    (j, k) order, on every bundled scene with n >= 2 and its Blaschke and
    xi_scale variants at four points; a point where the bundle raises makes
    both raise the same error.  apolarity_defect is bitwise 2 tau11."""
    from darboux.errors import GeometryError

    checked = 0
    for name, base in bundled.items():
        if base.n < 2:
            continue
        for scene in gauge_variants(base):
            for t in variant_points(scene.n):
                n = scene.n
                try:
                    b = bundle_fields(scene, t)
                    C1, C2 = (_cubic_jets(b, which) for which in ("C1", "C2"))
                except GeometryError as err:
                    with pytest.raises(type(err)):
                        cubic_forms(scene, t)
                    with pytest.raises(type(err)):
                        apolarity_trace(scene, t)
                    continue
                h2_inv = np.linalg.inv(vec_values(coord_frame(b)["h2"]))
                defect = np.zeros(n)
                for i in range(n):
                    acc = 0.0
                    for j in range(n):
                        for k in range(n):
                            acc += h2_inv[j, k] * float(C2[i][j][k].value)
                    defect[i] = acc
                got = cubic_forms(scene, t)
                assert got[0].tobytes() == vec_values(C1).tobytes(), (name, scene.gauge, t)
                assert got[1].tobytes() == vec_values(C2).tobytes(), (name, scene.gauge, t)
                assert apolarity_trace(scene, t).tobytes() == defect.tobytes()
                assert apolarity_defect(scene, t).tobytes() == (2.0 * tau_form(scene, t)).tobytes()
                checked += 1
    assert checked >= 40


def test_equiaffine_identity_and_proportionality(bundled):
    """Sum_k Gamma_ik^k + tau11(X_i) = 0 in the normal-plane gauge on the
    orthonormal frame E = A X, at machine precision, independently of
    parallelism, with the traces read off the structure solve; tau11 on E
    is A tau11."""
    for name, t in (("nonflat", [0.1, 0.07]), ("d4", [0.04, -0.09])):
        s = bundled[name]
        A = bundle_fields(s, t).A
        residual = equiaffine_trace(s, t) + A @ tau_form(s, t)
        for i in range(s.n):
            assert residual[i] == pytest.approx(0.0, abs=1e-9)


def test_defects_vanish_on_parallel_corpus(parallel_corpus):
    scenes, grids = parallel_corpus
    for name, scene in scenes.items():
        for point in grids[name]:
            assert np.abs(tau_form(scene, list(point))).max() < 1e-7, name
            assert np.abs(apolarity_defect(scene, list(point))).max() < 1e-7, name
            assert np.abs(equiaffine_defect(scene, list(point))).max() < 1e-7, name


def test_defects_large_on_nonflat(bundled):
    s = bundled["nonflat"]
    for point in nonflat_grid():
        assert np.abs(tau_form(s, list(point))).max() > 1e-4
        assert np.abs(apolarity_defect(s, list(point))).max() > 1e-4
        assert np.abs(equiaffine_defect(s, list(point))).max() > 1e-4


def test_tau_value_of_published_counterexample_field():
    """tau11 evaluated in the gauge of the published explicit field on the
    non-flat example: x1 + (3 k1 + 2 k2) x2 + cubic remainder."""
    k1 = k2 = 1.0
    scene = build_scene(
        "(t1^2 + t2^2 + y^2)/2 + (t1^2 + t2^2)*y/2", "t1*t2", 2
    )
    # rescale the graph gauge onto the published field: the ratio is
    # xi3 - xi1 * t2 - xi2 * t1 with the published components
    xi1 = f"({k2 * k2})*t2^3 - ({k2})*t1*t2^2 - 2*({k1 * k2})*t1^2*t2 - ({k1})*t1 - t2"
    xi2 = f"({k1 * k1})*t1^3 - ({k1})*t1^2*t2 - 2*({k1 * k2})*t1*t2^2 - ({k2})*t2 - t1"
    xi3 = f"1 + 2*({k1 + k2})*t1*t2 + 3*({k1 * k2})*t1^2*t2^2"
    lam = f"({xi3}) - ({xi1})*t2 - ({xi2})*t1"
    gauged = build_scene(scene.f_text, scene.g_text, 2, xi_scale_text=lam)
    tau = tau_form(gauged, [0.1, 0.0])
    assert tau[0] == pytest.approx(0.1, abs=5e-3)
    assert tau[1] == pytest.approx((2 * k1 + 3 * k2) * 0.1, abs=5e-3)


def test_normal_curvature_counterexample_values():
    for k1, k2 in ((1.0, 0.0), (2.0, 1.0), (3.0, 1.0)):
        s = build_scene(
            f"(t1^2 + t2^2 + y^2)/2 + (({k1})*t1^2 + ({k2})*t2^2)*y/2",
            "t1*t2",
            2,
        )
        d = normal_curvature(s, [0.0, 0.0])
        assert d[0, 1] == pytest.approx(k1 - k2, abs=1e-7)
        assert d[1, 0] == pytest.approx(k2 - k1, abs=1e-7)


def test_normal_curvature_gauge_invariance(bundled):
    s = bundled["nonflat"]
    scaled = build_scene(s.f_text, s.g_text, 2, xi_scale_text="1 + t1^2")
    for t in ([0.0, 0.0], [0.1, 0.05]):
        d1 = normal_curvature(s, t)
        d2 = normal_curvature(scaled, t)
        assert np.abs(d1 - d2).max() < 1e-7


def test_normal_curvature_zero_on_hyperplanar():
    s = build_scene("(t1^2 + t2^2 + y^2)/2 + t1^3/6 + t1*t2^2/3", "0", 2)
    assert np.abs(normal_curvature(s, [0.1, -0.1])).max() < 1e-9


def test_blaschke_data_values(bundled):
    paraboloid = parse_expression("(x1^2 + x2^2 + x3^2)/2", ["x1", "x2", "x3"])
    bd = blaschke_data(paraboloid, ["x1", "x2", "x3"], [0.0, 0.0, 0.0])
    assert np.allclose(bd.zeta, [0, 0, 0, 1], atol=1e-12)
    assert np.allclose(bd.h, np.eye(3), atol=1e-12)
    bd57 = hypersurface_blaschke(bundled["cubic-curve"], [0.0])
    assert np.allclose(bd57.zeta, [0, 0, 1], atol=1e-10)
    with pytest.raises(DegenerateHypersurfaceError):
        blaschke_data(parse_expression("x1*x2*0 + x1*0", ["x1", "x2"]),
                      ["x1", "x2"], [0.0, 0.0])


def test_blaschke_apolarity_invariant():
    """The hypersurface Blaschke cubic is trace-free against its metric."""
    rng = np.random.default_rng(37)
    names = ["x1", "x2"]
    for _ in range(5):
        terms = ["(x1^2 + x2^2)/2"]
        for i, a in enumerate(names):
            for b in names[i:]:
                for c in names:
                    terms.append(f"({rng.uniform(-0.2, 0.2)})*{a}*{b}*{c}")
        e = parse_expression(" + ".join(terms), names)
        p = rng.uniform(-0.1, 0.1, 2)
        bd = blaschke_data(e, names, p)
        h_inv = np.linalg.inv(bd.h)
        for i in range(2):
            trace = float(np.einsum("jk,jk->", h_inv, bd.cubic[i]))
            assert abs(trace) < 1e-7


def test_blaschke_compatibility_items(bundled):
    rep = blaschke_compatibility(bundled["cubic-curve"], [0.0])
    assert rep["items"] == [True, True, True, True, True, False]
    flat = build_scene("(t^2 + y^2)/2", "0", 1)
    rep0 = blaschke_compatibility(flat, [0.0])
    assert rep0["items"] == [True, True, True, True, True, True]
    reph = blaschke_compatibility(bundled["hyperquadric"], [0.1, -0.05])
    assert reph["items"] == [True, True, True, True, True, True]
    # verdicts never disagree at separated scales
    repn = blaschke_compatibility(bundled["nonflat"], [0.15, 0.1])
    assert all(v is False for v in repn["items"][3:])


@pytest.mark.parametrize("name", ["hyperquadric", "nonflat"])
def test_blaschke_determinant_test_is_relative(bundled, name):
    """Under f -> k f, k far from 1, the Blaschke gauge of the Darboux field
    and the hypersurface Blaschke data are built: both test det Hess against
    its Hadamard bound.  In the Blaschke gauge h(xi, xi) stays 1."""
    from darboux import darboux_direction

    s = bundled[name]
    t = [0.05, -0.03]
    for k in (1e-8, 1e-5, 1e8):
        for gauge in ("graph", "blaschke"):
            scaled = build_scene(f"{k!r}*({s.f_text})", s.g_text, s.n, gauge=gauge)
            assert np.isfinite(darboux_direction(scaled, t)).all()
            rep = blaschke_compatibility(scaled, t)
            if gauge == "blaschke":
                assert abs(rep["h_xi_xi"] - 1.0) <= 1e-10


@pytest.mark.parametrize("gauge", ["graph", "blaschke"])
@pytest.mark.parametrize("name", ["nonflat", "hyperquadric"])
def test_normal_plane_item_ignores_f_scaled(bundled, name, gauge):
    """Item 6, the Blaschke normal in the affine normal plane, reads the
    same for f and k f, k from 1e-8 to 1e8, where a Euclidean residual
    reads nonflat True at k = 1e8.  The bundled gauges give nonflat False
    and hyperquadric True."""
    s = bundled[name]
    t = [0.05, -0.03]
    verdicts = {blaschke_compatibility(build_scene(f"{k!r}*({s.f_text})", s.g_text, s.n,
                                                   gauge=gauge), t)["items"][5]
                for k in (1e-8, 1.0, 1e8)}
    assert len(verdicts) == 1, verdicts
    if gauge == s.gauge:
        assert verdicts == {name == "hyperquadric"}


def test_blaschke_phi_reports_a_singular_hessian_without_a_solve():
    """An exactly singular Hessian is decided on its value matrix: (None,
    det) for one point and for a batch, where the first failing row gives
    det, and no jet determinant (which would raise) is taken."""
    from darboux import metricbundle
    from darboux.jets import Jet, jet_space

    sp = jet_space(2, 3)
    rows = np.zeros((3, sp.size))
    for k, (a, b) in enumerate([(1.0, 2.0), (2.0, 0.0), (0.0, 0.0)]):
        rows[k, sp.slot((2, 0))], rows[k, sp.slot((0, 2))] = a, b
        rows[k, sp.slot((1, 2))] = 0.3
    w = Jet(sp, rows)
    hess = [[w.derivative(i).derivative(j) for j in range(2)] for i in range(2)]
    phi, det = metricbundle.blaschke_phi(hess)
    assert phi is None and det == 0.0
    point = [[Jet(sp, entry.coeffs[1].copy()) for entry in row] for row in hess]
    assert metricbundle.blaschke_phi(point) == (None, 0.0)
    regular = [[Jet(sp, entry.coeffs[0].copy()) for entry in row] for row in hess]
    phi, det = metricbundle.blaschke_phi(regular)
    assert det == pytest.approx(8.0) and phi.value == pytest.approx(8.0 ** 0.25)


def test_parallel_field_reports(bundled):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = parallel_field_exists(bundled["nonflat"], [(-0.2, 0.2, 5), (-0.2, 0.2, 5)])
    assert rep.verdict == "not exists"
    assert rep.max_dtau > 0.5
    quadric = bundled["hyperquadric"]
    rep2 = parallel_field_exists(quadric, [(-0.15, 0.15, 5), (-0.15, 0.15, 5)])
    assert rep2.verdict == "exists"
    assert rep2.loop_residual < 1e-6
    assert rep2.tangency_residual < 1e-6
    hyperplanar = build_scene("(t1^2 + t2^2 + y^2)/2 + t1^3/6", "0", 2)
    rep3 = parallel_field_exists(hyperplanar, [(-0.15, 0.15, 4), (-0.15, 0.15, 4)])
    assert rep3.verdict == "exists"
    assert np.abs(rep3.lam - 1.0).max() < 1e-9  # graph gauge already parallel


def test_parallel_test_reports_both_inconclusive_verdicts(monkeypatch, capsys, bundled):
    """A max |dtau| inside the band around the flatness threshold, and a loop
    residual over LOOP_RTOL, each give verdict "inconclusive" with its
    diagnostic and an InconclusiveToleranceWarning, and no tangency residual;
    the CLI reports either with exit code 0 and a null tangency residual."""
    import json

    from darboux import metricbundle
    from darboux.cli import run_command
    from darboux.errors import InconclusiveToleranceWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        flat = parallel_field_exists(bundled["nonflat"], [(-0.2, 0.2, 5)] * 2)
    scale = max(1.0, float(np.abs(flat.tau_samples).max()))
    cases = [("nonflat", "FLATNESS_RTOL", flat.max_dtau / scale, (-0.2, 0.2, 5),
              "flatness test inside the inconclusive band"),
             ("hyperquadric", "LOOP_RTOL", -1.0, (-0.15, 0.15, 3), "exceeds tolerance")]
    for name, knob, value, axis, diagnostic in cases:
        monkeypatch.setattr(metricbundle, knob, value)
        with pytest.warns(InconclusiveToleranceWarning):
            rep = parallel_field_exists(bundled[name], [axis] * 2)
        assert rep.verdict == "inconclusive" and rep.tangency_residual is None
        assert len(rep.diagnostics) == 1 and rep.diagnostics[0].endswith(diagnostic)
        with pytest.warns(InconclusiveToleranceWarning):
            grid = "--grid=" + ":".join(map(str, axis))
            code = run_command(["parallel-test", "--scene", name, grid, grid])
        out = capsys.readouterr().out
        assert code == 0 and '"tangency_residual": null' in out
        assert json.loads(out)["results"]["verdict"] == "inconclusive"
        monkeypatch.undo()


def test_parallel_certificate_matches_normalization(bundled):
    """On the hyperquadric the integrated certificate equals the
    unit-normalization scaling up to a constant factor."""
    graph_gauge = build_scene("(t1^2 + t2^2 + y^2)/2", "t1*t2", 2)
    rep = parallel_field_exists(graph_gauge, [(-0.15, 0.15, 4), (-0.15, 0.15, 4)])
    assert rep.verdict == "exists"
    axes = [np.linspace(-0.15, 0.15, 4)] * 2
    ratios = []
    for i, a in enumerate(axes[0]):
        for j, b in enumerate(axes[1]):
            ffb = frame_fields(bundled["hyperquadric"], [a, b], 1)
            ffg = frame_fields(graph_gauge, [a, b], 1)
            ratios.append(rep.lam[i, j] * vec_values(ffg.xi)[2] / vec_values(ffb.xi)[2])
    ratios = np.array(ratios)
    assert ratios.max() - ratios.min() < 1e-6


def _refuse(message):
    def refuse(*args, **kwargs):
        raise AssertionError(message)

    return refuse


def _count_dxi_reads(monkeypatch):
    """Counter of the reads of D xi by (method, point): FrameFields.dxi (jets)
    and FrameFields.dxi_values (values); FrameFields.structure_jets raises,
    because the parallel test makes no structure solve."""
    from collections import Counter

    from darboux.frame import FrameFields

    calls = Counter()

    def count(name):
        read = getattr(FrameFields, name)

        def counting(self):
            for row in np.atleast_2d(self.t0):
                calls[name, tuple(row.tolist())] += 1
            return read(self)

        monkeypatch.setattr(FrameFields, name, counting)

    count("dxi")
    count("dxi_values")
    monkeypatch.setattr(FrameFields, "structure_jets",
                        _refuse("the parallel test made a structure solve"))
    return calls


def test_parallel_test_solves_once_per_grid_point_and_edge_midpoint(monkeypatch, bundled):
    calls = _count_dxi_reads(monkeypatch)
    region = [(-0.15, 0.15, 5), (-0.15, 0.15, 5)]
    axis = np.linspace(-0.15, 0.15, 5)
    mids = 0.5 * (axis[:-1] + axis[1:])
    grid = {(a, b) for a in axis for b in axis}
    edge_mids = {(m, b) for m in mids for b in axis} | {(a, m) for a in axis for m in mids}
    assert len(grid) == 25 and len(edge_mids) == 40

    rep = parallel_field_exists(bundled["hyperquadric"], region)
    assert rep.verdict == "exists"
    assert rep.tangency_residual < 1e-6
    # jets at a grid point, where dtau differentiates tau; values at a midpoint
    assert set(calls) == {("dxi", p) for p in grid} | {("dxi_values", p) for p in edge_mids}
    assert set(calls.values()) == {1}

    calls.clear()
    rep = parallel_field_exists(bundled["nonflat"], region)
    assert rep.verdict == "not exists"
    assert set(calls) == {("dxi", p) for p in grid} and set(calls.values()) == {1}


def test_tangency_check_makes_no_structure_solve(monkeypatch, bundled):
    """The tangency check at every grid point reads D xi only where tau was
    sampled: once per grid point and once per edge midpoint, and makes no
    structure solve and no QR factorization."""
    calls = _count_dxi_reads(monkeypatch)
    axis = np.linspace(-0.15, 0.15, 5)
    mids = 0.5 * (axis[:-1] + axis[1:])
    grid = {(a, b) for a in axis for b in axis}
    edge_mids = {(m, b) for m in mids for b in axis} | {(a, m) for a in axis for m in mids}
    monkeypatch.setattr(np.linalg, "qr", _refuse("the tangency check called a LAPACK QR"))
    rep = parallel_field_exists(bundled["hyperquadric"], [(-0.15, 0.15, 5)] * 2)
    assert rep.verdict == "exists"
    assert rep.tangency_residual < 1e-12
    assert {point for _read, point in calls} == grid | edge_mids
    assert sum(calls.values()) == len(grid) + len(edge_mids) == 65


def _xi_values(ff):
    """Oracle input: values of X, xi and D_i xi, i = 1..n, batch axes first."""
    return vec_values(ff.X), vec_values(ff.xi), ff.xi_partials()


def _tangency_residual(X, xi, dxi, lam, tau):
    """Oracle: the largest normal part, off span(X), of d = D_i(lambda xi) =
    lambda (D_i xi - tau_i xi) over the points (batch axes first) and axes
    i, relative to the scale |lambda| (|D_i xi| + |tau_i| |xi|) it is made
    of, or 0 where that scale is 0.  X's first n components are the
    identity, so with B = X[..., n:] the normal plane of N is spanned by m_k
    = (-B[:, k], e_k), k = 0, 1 (m_0 = mu and nu = m_1 - f_y m_0).  The
    normal part of d has squared length r^T G^-1 r, r_k = m_k . d and G = I
    + B^T B, from the closed-form 2 x 2 inverse, clipped at 0."""
    lam, tau = np.asarray(lam)[..., None], np.asarray(tau)
    d = lam[..., None] * (dxi - tau[..., None] * xi[..., None, :])
    n = X.shape[-2]
    b0, b1 = X[..., None, :, n], X[..., None, :, n + 1]
    r0, r1 = d[..., n] - (b0 * d[..., :n]).sum(-1), d[..., n + 1] - (b1 * d[..., :n]).sum(-1)
    a, b, c = 1.0 + (b0 * b0).sum(-1), (b0 * b1).sum(-1), 1.0 + (b1 * b1).sum(-1)
    normal = np.sqrt(np.maximum((c * r0 * r0 - 2.0 * b * r0 * r1 + a * r1 * r1)
                                / (a * c - b * b), 0.0))
    scale = np.abs(lam) * (np.sqrt((dxi * dxi).sum(-1))
                           + np.abs(tau) * np.sqrt((xi * xi).sum(-1))[..., None])
    return float(np.divide(normal, scale, out=np.zeros_like(scale), where=scale > 0).max())


def _richardson_tangency(scene, point, lam0, tau0):
    """Reference for the tangency residual: Richardson central differences
    of lambda xi with lambda = lam0 exp(-tau0 . (p - point)), projected off
    the tangent frame of N at ``point``, relative to |lam0| (|D_i xi| +
    |tau0_i| |xi|) with D_i xi differenced the same way, and 0 where that
    scale is 0."""
    point = np.asarray(point, dtype=float)
    X = np.array([vec_values(x) for x in frame_fields(scene, point, 1).X])

    def xi(p):
        return vec_values(frame_fields(scene, p, 1).xi)

    def field(p):
        return lam0 * np.exp(-tau0 @ (p - point)) * xi(p)

    def richardson(values, e):
        def central(h):
            return (values(point + h * e) - values(point - h * e)) / (2 * h)

        return (4 * central(5e-3) - central(1e-2)) / 3.0

    worst = 0.0
    for axis in range(scene.n):
        e = np.eye(scene.n)[axis]
        d = richardson(field, e)
        coeffs, *_ = np.linalg.lstsq(X.T, d, rcond=None)
        residual = d - X.T @ coeffs
        scale = abs(lam0) * (np.linalg.norm(richardson(xi, e))
                             + abs(tau0[axis]) * np.linalg.norm(xi(point)))
        worst = max(worst, float(np.linalg.norm(residual) / scale) if scale else 0.0)
    return worst


@pytest.mark.parametrize("name,point", [
    ("hyperquadric", [0.05, -0.08]), ("nonflat", [0.1, 0.04]), ("cubic-curve", [0.03]),
])
def test_tangency_residual_matches_richardson_differences(bundled, name, point):
    """The jet derivative lam0 (D xi - tau0 xi) agrees with differencing
    lambda xi, both for the true tau (residual ~ 0) and for a tau0 off by a
    constant covector, where D(lambda xi) leaves the tangent space."""
    s = bundled[name]
    order = 2 if s.n > 1 else 1
    ff = frame_fields(s, point, order)
    tau = tau_form(s, point)
    for tau0 in (tau, tau + np.linspace(0.3, -0.2, s.n)):
        got = _tangency_residual(*_xi_values(ff), 1.7, tau0)
        want = _richardson_tangency(s, point, 1.7, tau0)
        assert abs(got - want) < 1e-7
    assert _tangency_residual(*_xi_values(ff), 1.7, tau) < 1e-12
    assert got > 1e-2


def _dilated(text, a):
    """``text`` with every t_i and y replaced by a times itself."""
    return re.sub(r"\b(t\d*|y)\b", lambda m: f"({a}*{m.group()})", text)


@pytest.mark.parametrize("gauge", ["graph", "blaschke"])
def test_tangency_residual_does_not_depend_on_the_scale_of_the_scene(gauge):
    """The dilation x -> x / a of the ambient space maps the scene (f, g) to
    (f(a t, a y) / a, g(a t) / a) and the point t to t / a.  D xi, tau and
    an offset of tau scale by a and xi by a constant, so the relative
    residual of an offset tau stays, also where |d| falls below 1."""
    a, point, offset = 0.1, np.array([0.1, 0.04]), np.array([0.3, -0.2])
    f, g = "(t1^2 + t2^2 + y^2)/2 + t1^2*y/2", "t1*t2"
    residuals, sizes = [], []
    for scene, p, c in ((build_scene(f, g, 2, gauge=gauge), point, offset),
                        (build_scene(f"({_dilated(f, a)})/{a}", f"({_dilated(g, a)})/{a}", 2,
                                     gauge=gauge), point / a, a * offset)):
        X, xi, dxi = _xi_values(frame_fields(scene, p, 2))
        tau0 = tau_form(scene, p) + c
        residuals.append(_tangency_residual(X, xi, dxi, 1.7, tau0))
        sizes.append(np.linalg.norm(1.7 * (dxi - tau0[:, None] * xi), axis=-1).max())
    assert sizes[1] < 1.0
    assert residuals[0] > 1e-2
    assert residuals[1] == pytest.approx(residuals[0], rel=1e-9)


@pytest.mark.parametrize("name", ["cubic-curve", "nonflat", "n3"])
def test_tangency_residual_is_the_largest_per_point_lstsq_residual(bundled, name):
    """The closed-form projection onto the normal plane gives, at every grid
    point and axis, the residual of a least-squares fit of d by the X,
    relative to the scale of d (0 where that scale is 0); the report is
    their maximum.  The fit takes one step of iterative refinement: for
    n = 3 a single lstsq leaves a tangent part of a few 1e-15 in its
    residual."""
    from darboux.frame import FrameFields

    scene = bundled.get(name) or build_scene("(t1^2 + t2^2 + t3^2 + y^2)/2", "t1*t2 + t3^2/3", 3)
    n = scene.n
    axis = np.linspace(-0.15, 0.15, 4)
    points = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)
    ff = FrameFields.batch(scene, points, 2 if n > 1 else 1)
    X, xi, dxi = _xi_values(ff)
    lam = np.linspace(0.5, 2.0, len(points))
    for tau in (_curvature(ff)[0], _curvature(ff)[0] + np.linspace(0.3, -0.2, n)):
        want = 0.0
        for k in range(len(points)):
            for i in range(n):
                d = lam[k] * (dxi[k, i] - tau[k, i] * xi[k])
                scale = lam[k] * (np.linalg.norm(dxi[k, i]) + abs(tau[k, i]) * np.linalg.norm(xi[k]))
                if scale > 0:
                    for _ in range(2):
                        coeffs, *_ = np.linalg.lstsq(X[k].T, d, rcond=None)
                        d = d - X[k].T @ coeffs
                    want = max(want, np.linalg.norm(d) / scale)
        assert abs(_tangency_residual(X, xi, dxi, lam, tau) - want) < 1e-15
    assert want > 1e-2


def test_tangency_residual_matches_the_projection_oracle_on_every_exists_region(bundled):
    """tau12 off the D xi rows, relative to its row, reads what the oracle's
    projection of D_i(lambda xi) onto N's normal plane reads, within 1e-15,
    and both are rounding below 1e-12: on the 56 regions v +- 0.1 around the
    variant points of the bundled scenes with n <= 4, in their three gauge
    variants, whose verdict is "exists" (5 samples an axis for n = 1, 3 for
    n = 2, 2 above, as in tests/report_set.py)."""
    from darboux.errors import GeometryError
    from darboux.frame import FrameFields

    regions = 0
    for base in (s for s in bundled.values() if s.n <= 4):
        n = base.n
        for scene in gauge_variants(base):
            for p in variant_points(n):
                region = [(v - 0.1, v + 0.1, {1: 5, 2: 3}.get(n, 2)) for v in p]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    try:
                        rep = parallel_field_exists(scene, region)
                    except GeometryError:
                        continue
                if rep.verdict != "exists":
                    continue
                regions += 1
                grid = np.stack(np.meshgrid(*rep.grid, indexing="ij"), axis=-1).reshape(-1, n)
                ff = FrameFields.batch(scene, grid, 2 if n > 1 else 1)
                want = _tangency_residual(*_xi_values(ff), rep.lam.reshape(-1),
                                          rep.tau_samples.reshape(-1, n))
                assert abs(rep.tangency_residual - want) < 1e-15
                assert rep.tangency_residual < 1e-12
    assert regions == 56


@pytest.mark.parametrize("name", ["a2", "cubic-curve", "nonflat", "hyperquadric"])
def test_a_field_off_the_darboux_solve_reads_a_large_tangency_residual(
        monkeypatch, request, bundled, name):
    """The Darboux solve's alpha offset by a constant leaves xi tangent to M
    but gives D xi an eta-part: the row read and the oracle both read it
    above 1e-3.  Where the parallel test still reads "exists", as it must
    on a curve, which has no normal curvature to fail, it reports that residual."""
    from darboux import frame

    solve = frame.jet_solve
    monkeypatch.setattr(frame, "jet_solve", lambda matrix, rhs: (
        lambda alpha, det: ([a + 0.5 for a in alpha], det))(*solve(matrix, rhs)))
    request.addfinalizer(frame._fields.cache_clear)
    scene = bundled[name]
    n = scene.n
    region = [(-0.1, 0.1, 3)] * n
    grid = np.stack(np.meshgrid(*[np.linspace(*axis) for axis in region], indexing="ij"),
                    axis=-1).reshape(-1, n)
    ff = frame.FrameFields.batch(scene, grid, 2 if n > 1 else 1)
    tau, _dtau, tau12 = _curvature(ff)
    assert tau12.max() > 1e-3
    assert _tangency_residual(*_xi_values(ff), 1.0, tau) > 1e-3
    rep = parallel_field_exists(scene, region)
    assert rep.verdict == "exists" or n > 1
    if rep.verdict == "exists":
        assert rep.tangency_residual == tau12.max()


def _mid_samples(scene, axes):
    """tau at every edge midpoint, each from its own one-point frame."""
    n = len(axes)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    samples = []
    for k in range(n):
        lo = np.take(grid, range(len(axes[k]) - 1), k)
        mids = 0.5 * (lo + np.take(grid, range(1, len(axes[k])), k))
        samples.append(np.array([_curvature(frame_fields(scene, m, 1))[0]
                                 for m in mids.reshape(-1, n)]).reshape(mids.shape))
    return samples


@pytest.mark.parametrize("scene,region", [
    (("hyperquadric",), [(-0.15, 0.15, 5)] * 2),
    (("(t1^2 + t2^2 + y^2)/2", "t1*t2", 2), [(-0.15, 0.15, 3), (-0.1, 0.2, 7)]),
    (("(t^2 + y^2)/2 + t^3", "t^2/3", 1), [(-0.2, 0.3, 11)]),
    (("(t1^2 + t2^2 + t3^2 + y^2)/2", "t1*t2 + t3^2/3", 3),
     [(-0.15, 0.15, 3), (-0.1, 0.2, 4), (0.0, 0.2, 5)]),
], ids=["hyperquadric", "graph-gauge-3x7", "curve", "n3"])
def test_path_and_loop_integrals_match_the_edge_by_edge_oracle(bundled, scene, region):
    scene = bundled[scene[0]] if len(scene) == 1 else build_scene(*scene)
    rep = parallel_field_exists(scene, region)
    assert rep.verdict == "exists"
    axes = [np.linspace(*axis) for axis in region]
    lam, loop_residual = reference_loop_integrals(axes, rep.tau_samples,
                                                  _mid_samples(scene, axes))
    assert rep.lam.tobytes() == lam.tobytes()
    assert rep.loop_residual == loop_residual


@pytest.mark.parametrize("shape", [(4,), (3, 7), (5, 2), (2, 3, 4)])
def test_loop_integrals_match_the_oracle_on_random_samples(shape):
    """Random tau samples over uneven axes, one of them decreasing: the
    array integrals are bitwise the edge-by-edge ones."""
    from darboux.metricbundle import _integrate

    rng = np.random.default_rng(len(shape) * 10 + shape[0])
    n = len(shape)
    axes = [np.sort(rng.uniform(-1.0, 1.0, m)) for m in shape]
    axes[-1] = axes[-1][::-1]
    tau = rng.normal(size=shape + (n,))
    mids = [rng.normal(size=shape[:k] + (m - 1,) + shape[k + 1:] + (n,))
            for k, m in enumerate(shape)]
    lam, loop_residual = _integrate(axes, tau, mids)
    want_lam, want_loop = reference_loop_integrals(axes, tau, mids)
    assert lam.tobytes() == want_lam.tobytes()
    assert loop_residual == want_loop
    assert (loop_residual > 0.1) == (n > 1)


def test_parallel_test_builds_two_batch_frames_when_it_exists_and_one_when_not(
        monkeypatch, bundled):
    """The grid points are one batch frame and the edge midpoints of both
    axes another; a "not exists" verdict reads no midpoint."""
    from darboux.frame import FrameFields

    builds = []
    batch = FrameFields.batch.__func__

    def counting(cls, scene, points, order):
        builds.append((len(points), order))
        return batch(cls, scene, points, order)

    monkeypatch.setattr(FrameFields, "batch", classmethod(counting))
    region = [(-0.15, 0.15, 5), (-0.15, 0.15, 4)]
    assert parallel_field_exists(bundled["hyperquadric"], region).verdict == "exists"
    assert builds == [(20, 2), (4 * 4 + 5 * 3, 1)]
    builds.clear()
    assert parallel_field_exists(bundled["nonflat"], region).verdict == "not exists"
    assert builds == [(20, 2)]


def test_normal_plane_needs_no_gram_schmidt_of_the_coordinate_directions():
    # Both coordinate directions are g-isotropic at the origin, so the
    # Gram-Schmidt matrix A does not exist there; eta and the Transon plane,
    # which do not read A, do.
    from darboux import transon_vs_normal_plane

    s = build_scene("t1*t2 + y^2/2", "t1^2/3", 2)
    _xi, eta = affine_normal_plane(s, [0.0, 0.0])
    assert np.isfinite(eta).all()
    assert transon_vs_normal_plane(s, [0.0, 0.0])[1] == "coincide"
    with pytest.raises(DegenerateError, match="isotropic"):
        equiaffine_defect(s, [0.0, 0.0])


def _bracket_metric(ff, xi):
    """Reference: G_ij = [X_1..X_n, D_{X_i} X_j, xi] as ambient brackets."""
    n = ff.scene.n
    return [[bracket(ff.X + [ff.second[i][j], xi]) for j in range(n)] for i in range(n)]


def _gauge_variants(bundled):
    out = [bundled[name] for name in ("a2", "nonflat", "hyperquadric")]
    s = bundled["nonflat"]
    out.append(build_scene(s.f_text, s.g_text, 2, gauge="blaschke", xi_scale_text="2 + t1"))
    s = bundled["a2"]
    out.append(build_scene(s.f_text, s.g_text, 1, xi_scale_text="2 + t - t^2"))
    return out


def _metric_jets(ff, c=None):
    """Oracle: G, det G, its sign, g and det A = |det G|^(-1/(n+2)) as jets,
    the jet products :func:`darboux.metricbundle._metric` reads as values."""
    n = ff.scene.n
    det_h2 = ff.det_h2_prov
    c = ff.lam if c is None else c
    G = [[c * h for h in row] for row in ff.h2_prov]
    detG = c ** n * det_h2
    sign = 1.0 if detG.value >= 0 else -1.0
    inv = (detG * sign).fractional_power(1.0 / (n + 2)).reciprocal()
    g = [[G[i][j] * inv for j in range(n)] for i in range(n)]
    return G, detG, sign, g, inv


def test_metric_identity_matches_the_bracket_reference(bundled):
    """G = lam h2_prov equals the n^2 ambient brackets as jets, det G and g
    are their values and det A the jet |det G|^(-1/(n+2)) of the brackets,
    and affine_metric reports them, also for an xi override tangent to M."""
    from darboux.metricbundle import _metric, _value_bracket

    for s in _gauge_variants(bundled):
        n = s.n
        for t in ([0.0] * n, [0.05 * (-1) ** i for i in range(n)]):
            ff = frame_fields(s, t, 2)
            want = _bracket_metric(ff, ff.xi)
            for i in range(n):
                for j in range(n):
                    gap = np.abs(padded(ff.lam * ff.h2_prov[i][j]) - padded(want[i][j])).max()
                    assert gap <= 1e-13 * np.abs(want[i][j].coeffs).max()
            want_det = cofactor_det(want)
            det_G, sign, g, det_A = _metric(ff)
            assert abs(det_G - float(want_det.value)) <= 1e-13 * abs(float(want_det.value))
            want_A = (want_det * sign).fractional_power(1.0 / (n + 2)).reciprocal()
            common = min(det_A.order, want_A.order)
            assert np.abs(padded(det_A.truncated(common)) - padded(want_A.truncated(common))).max(
                ) <= 1e-13 * np.abs(want_A.coeffs).max()
            want_g = vec_values(want) * float(want_A.value)
            assert np.abs(g - want_g).max() <= 1e-13 * np.abs(want_g).max()

            Xv = [vec_values(x) for x in ff.X]
            second = [[vec_values(ff.second[i][j]) for j in range(n)] for i in range(n)]
            xi = vec_values(ff.xi)
            for override in (None, 2.0 * xi - 0.5 * Xv[0]):
                v = xi if override is None else override
                G_ref = np.array([[_value_bracket(Xv + [second[i][j], v]) for j in range(n)]
                                  for i in range(n)])
                det_ref = float(np.linalg.det(G_ref))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", IndefiniteWarning)
                    g, record = affine_metric(s, t, xi=override)
                assert abs(record["det_G"] - det_ref) <= 1e-13 * abs(det_ref)
                g_ref = G_ref / abs(det_ref) ** (1.0 / (n + 2))
                assert np.abs(g - g_ref).max() <= 1e-13 * np.abs(g_ref).max()


def test_metric_values_are_bitwise_the_jet_oracle(bundled):
    """_metric's det G, sign and g have the bits of the value parts of the
    jet oracle's, and its det A the oracle's jet, on every bundled scene and
    its Blaschke and xi_scale variants at four points, for the frame's
    Darboux field and for an override bracket; where the frame raises, both
    raise the same error."""
    from darboux.errors import GeometryError
    from darboux.metricbundle import _metric, _value_bracket
    from conftest import same_bits

    checked = 0
    for name, base in bundled.items():
        for scene in gauge_variants(base):
            for t in variant_points(scene.n):
                ff = frame_fields(scene, t, READER_ORDER)
                try:
                    oracle = _metric_jets(ff)
                except GeometryError as err:
                    with pytest.raises(type(err)):
                        _metric(ff)
                    continue
                Xv = vec_values(ff.X)
                override = 2.0 * vec_values(ff.xi) - 0.5 * Xv[0]  # tangent to M
                c = _value_bracket([*Xv, vec_values(ff.e_last), override])
                for c, (_G, detG, sign, g, inv) in ((None, oracle), (c, _metric_jets(ff, c))):
                    got = _metric(ff, c)
                    assert np.float64(got[0]).tobytes() == np.float64(detG.value).tobytes()
                    assert got[1] == sign
                    assert got[2].tobytes() == vec_values(g).tobytes(), (name, scene.gauge, t, c)
                    assert same_bits(got[3], inv), (name, scene.gauge, t, c)
                    checked += 1
    assert checked >= 200


@pytest.mark.parametrize("name", ["nonflat", "a4", "d4"])
def test_affine_metric_scaling_law_in_f(bundled, name):
    """Under f -> k f the affine metric is k^(2/(n+2)) times the unscaled
    one with the same signature, also for k far from 1, and the normal
    plane is built: the determinant test is relative to its Hadamard bound.
    An override xi = X_1 has a vanishing bracket and still raises."""
    from darboux.errors import DegenerateError

    s = bundled[name]
    t = [0.05 * (-1) ** i for i in range(s.n)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IndefiniteWarning)
        g, record = affine_metric(s, t)
        for k in (1e-8, 1e8):
            scaled = build_scene(f"{k!r}*({s.f_text})", s.g_text, s.n)
            g_k, record_k = affine_metric(scaled, t)
            assert np.abs(g_k / k ** (2.0 / (s.n + 2)) - g).max() <= 1e-9 * np.abs(g).max()
            assert record_k["signature"] == record["signature"]
            xi, eta = affine_normal_plane(scaled, t)
            assert np.isfinite(xi).all() and np.isfinite(eta).all()
            X1 = vec_values(frame_fields(scaled, t, 2).X[0])
            with pytest.raises(DegenerateError):
                affine_metric(scaled, t, xi=X1)


def _jet_gram_schmidt(g):
    """Reference: the lower-triangular A with A g A^T = diag(+-1) and det A,
    by Gram-Schmidt over the jet ring on the coordinate directions of the
    jet metric ``g``."""
    n = len(g)
    one = g[0][0] * 0.0 + 1.0
    A = [[one if i == k else one * 0.0 for k in range(n)] for i in range(n)]
    eps = []

    def g_pair(u, v):
        return sum((u[a] * v[b] * g[a][b] for a in range(n) for b in range(n)), one * 0.0)

    for i in range(n):
        v = A[i]
        for j in range(i):
            coeff = g_pair(v, A[j]) * eps[j]
            v = [v[k] - coeff * A[j][k] for k in range(n)]
        norm2 = g_pair(v, v)
        eps.append(1.0 if float(norm2.value) > 0 else -1.0)
        inv_len = (norm2 * eps[i]).fractional_power(0.5).reciprocal()
        A[i] = [v[k] * inv_len for k in range(n)]
    det_A = A[0][0]
    for i in range(1, n):
        det_A = det_A * A[i][i]
    return A, det_A


@pytest.mark.parametrize("scene, t", [
    ("a2", [0.05]),
    ("nonflat", [0.05, -0.03]),
    ("hyperquadric", [0.05, -0.03]),
    ("(t1^2 - t2^2 + y^2)/2 + t1*t2*y/3 + t1^3/5; t1*t2/2", [0.05, -0.03]),
])
def test_value_frame_and_det_a_match_the_jet_gram_schmidt(bundled, scene, t):
    """A from the value Gram-Schmidt and det A = |det G|^(-1/(n+2)) match
    the jet Gram-Schmidt on the oracle's metric jets, also where g is indefinite."""
    if scene in bundled:
        s = bundled[scene]
    else:
        f, g_text = scene.split("; ")
        s = build_scene(f, g_text, 2)
    b = bundle_fields(s, t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IndefiniteWarning)
        g = _metric_jets(b.ff)[3]
        signature = affine_metric(s, t)[1]["signature"]
    if scene not in bundled:
        assert signature == (1, 1)
    A, det_A = _jet_gram_schmidt(g)
    assert np.abs(b.A - vec_values(A)).max() <= 1e-13 * np.abs(b.A).max()
    common = min(b.det_A.order, det_A.order)
    gap = np.abs(padded(b.det_A.truncated(common)) - padded(det_A.truncated(common))).max()
    assert gap <= 1e-13 * np.abs(det_A.coeffs).max()


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_gram_schmidt_verdict_is_relative_to_the_metric_scale(scale):
    """A metric scaled by c orthonormalizes to the frame / sqrt(c) with the
    same signs, where an absolute threshold on the squared norm called a
    regular metric at c = 1e-12 isotropic; an isotropic direction and one
    that repeats an earlier one raise at every scale."""
    from darboux.metricbundle import _orthonormalize

    def isotropic(norm2):
        return DegenerateHypersurfaceError(f"isotropic, {norm2}")

    for metric in (np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 0.7]]),
                   np.array([[1.0, 0.4, 0.0], [0.4, -2.0, 0.1], [0.0, 0.1, 0.5]])):
        want = _orthonormalize(np.eye(3), metric, isotropic)
        got = _orthonormalize(np.eye(3), scale * metric, isotropic)
        for u, v in zip(got, want):
            assert np.allclose(u * np.sqrt(scale), v, rtol=1e-13, atol=0.0)
    null = scale * np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DegenerateHypersurfaceError):
        _orthonormalize(np.eye(2), null, isotropic)
    with pytest.raises(DegenerateHypersurfaceError):  # the second repeats the first
        _orthonormalize([[1.0, 0.0], [1.0, 1e-13]], scale * np.eye(2), isotropic)


@pytest.fixture
def per_point_calls(monkeypatch):
    """Calls of BundleFields, _metric, FrameFields.decompose and
    FrameFields.structure_jets made after the fixture is set up, starting
    from an empty frame cache."""
    from collections import Counter

    from darboux import frame, metricbundle

    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(metricbundle.BundleFields, "__init__")
    count(metricbundle, "_metric")
    count(frame.FrameFields, "decompose")
    count(frame.FrameFields, "structure_jets")
    frame._fields.cache_clear()
    return calls


def _field_key(field):
    """The orders and coefficient bits of a jet field's components."""
    return tuple((jet.order, jet.coeffs.tobytes()) for jet in field)


@pytest.fixture
def decomposed(monkeypatch):
    """Counter of the fields FrameFields.decompose reads, by _field_key."""
    from collections import Counter

    from darboux.frame import FrameFields

    fields_read = Counter()
    decompose = FrameFields.decompose

    def recording(self, fields, *args, **kwargs):
        fields_read.update(_field_key(v) for v in fields)
        return decompose(self, fields, *args, **kwargs)

    monkeypatch.setattr(FrameFields, "decompose", recording)
    return fields_read


def test_the_metric_readers_make_one_bundle_metric_and_no_structure_solve(per_point_calls,
                                                                           decomposed, bundled):
    """The seven metric readers, in the order the benchmark worker calls
    them, read one bundle at a fresh point: one affine metric and no
    structure solve, as both defects are read off tau11.  The one jet
    decomposition is the frame's read of D xi (FrameFields.dxi), of the n
    fields D_{X_i} xi, which normal_curvature makes; tau_form reads D_X xi
    as values."""
    s, t = bundled["nonflat"], [0.1, 0.15]
    for reader in (affine_metric, affine_normal_plane, apolarity_defect, equiaffine_defect,
                   tau_form, normal_curvature, blaschke_compatibility):
        reader(s, t)
    ff, n = frame_fields(s, t, READER_ORDER), s.n
    want = [vec_partial(ff.xi, i) for i in range(n)]
    assert decomposed == {_field_key(v): 1 for v in want}
    assert per_point_calls == {"__init__": 1, "_metric": 1, "decompose": 1}


def test_a_lone_normal_curvature_builds_no_bundle(per_point_calls, decomposed, solve_orders,
                                                  bundled):
    """normal_curvature differentiates tau11 off the frame's D xi rows: alone
    at a fresh point it builds no bundle, reads no affine metric, makes no
    structure solve, one Darboux solve, at the frame's order, and one
    decomposition, of the n fields D_{X_i} xi; a structure solve then reads
    the same rows."""
    from darboux import frame

    for name in ("nonflat", "hyperquadric", "e6"):
        s, t = bundled[name], [0.1, -0.05, 0.07, 0.02][:bundled[name].n]
        frame._fields.cache_clear()
        per_point_calls.clear(), decomposed.clear(), solve_orders.clear()
        dtau = normal_curvature(s, t)
        assert dtau.shape == (s.n, s.n)
        assert per_point_calls == {"decompose": 1}, name
        assert solve_orders == [READER_ORDER], name
        ff = frame_fields(s, t, READER_ORDER)
        assert decomposed == {_field_key(vec_partial(ff.xi, i)): 1 for i in range(s.n)}
        assert coord_frame(bundle_fields(s, t))["tau11"] == [row[s.n] for row in ff.dxi()]


def test_the_frame_reads_d_xi_as_the_bundle_eta_decomposition_did(bundled):
    """The frame's D xi rows, which the bundle's structure solve reads, agree
    with D xi decomposed against the bundle's eta (the structure solve's
    read before it took the frame's rows, kept here as the oracle) to 1e-15
    of each row's largest coefficient (2.5e-16 at most here): D xi of a
    Darboux field has no eta-part, so the eta slot moves only rounding.  The
    bundle's S1 and tau11 values are bitwise dxi_values, on every bundled
    scene and its Blaschke and xi_scale variants at three points; the
    Blaschke gauge of the nine germ scenes is degenerate at all three."""
    checked = 0
    for base in bundled.values():
        n = base.n
        for scene in gauge_variants(base):
            for t in ([0.0] * n, [0.1] * n, variant_points(n)[-1]):
                try:
                    b = bundle_fields(scene, t)
                    eta = b.eta
                except DegenerateError:
                    assert scene.gauge == "blaschke"
                    continue
                ff = b.ff
                want = ff.decompose([vec_partial(ff.xi, i) for i in range(n)], ff.xi, eta)
                for got_row, want_row in zip(ff.dxi(), want, strict=True):
                    order = min(jet.order for jet in got_row + want_row)
                    got_c, want_c = ([padded(jet.truncated(order)) for jet in row]
                                     for row in (got_row, want_row))
                    scale = np.abs(want_c).max()
                    assert np.abs(np.subtract(got_c, want_c)).max() <= 1e-15 * scale, (
                        scene.name, scene.gauge, t)
                values = ff.dxi_values()
                coeffs = coord_frame(b)
                assert vec_values(coeffs["tau11"]).tobytes() == values[:, n].tobytes()
                S1 = -values[:, :n].T
                assert vec_values(coeffs["S1"]).tobytes() == S1.tobytes()
                checked += 1
    assert checked == 12 * 3 * 3 - 9 * 3


def test_the_metric_readers_differentiate_only_the_jets_they_read_as_jets(monkeypatch, bundled):
    """The seven metric readers at a fresh point make 43 Jet.derivative calls
    (99 while G and g were jets and first partials were read off derivative
    jets, 60 while the Blaschke Hessian differentiated w twice per entry, 51
    while the defects read the structure solve, which differentiated eta):
    the metric's one jet is det A, a first partial read as a value comes off
    the degree-1 slots, and the Hessian of w takes each first derivative
    once and each second derivative once for i <= j."""
    from darboux import frame
    from darboux.jets import Jet

    calls = []
    derivative = Jet.derivative
    monkeypatch.setattr(Jet, "derivative", lambda self, var: calls.append(var) or derivative(self, var))
    frame._fields.cache_clear()
    s, t = bundled["nonflat"], [0.1, 0.15]
    for reader in (affine_metric, affine_normal_plane, apolarity_defect, equiaffine_defect,
                   tau_form, normal_curvature, blaschke_compatibility):
        reader(s, t)
    assert len(calls) == 43


def test_a_lone_tau_form_builds_no_bundle(per_point_calls, bundled):
    """tau_form reads tau11 off the frame's D xi: alone at a point it builds
    no bundle, and its values have the bits of the bundle's structure solve."""
    for name in ("a2", "cubic-curve", "nonflat", "hyperquadric", "e6", "d4"):
        s = bundled[name]
        for t in ([0.0] * s.n, [0.07, -0.04, 0.07, -0.03][:s.n]):
            tau = tau_form(s, t)
            assert frame_fields(s, t, READER_ORDER).bundle is None
            want = vec_values(coord_frame(bundle_fields(s, t))["tau11"])
            assert tau.tobytes() == want.tobytes(), (name, t)
    assert per_point_calls["__init__"] == 12


def test_a_lone_affine_metric_makes_no_eta_solve(per_point_calls, monkeypatch, bundled):
    """The bundle solves its transversal eta on the first read of eta: the
    affine metric alone reads none, and later readers share one solve."""
    from darboux import metricbundle

    solves = []
    solve = metricbundle.jet_solve
    monkeypatch.setattr(metricbundle, "jet_solve", lambda *args: solves.append(1) or solve(*args))
    s, t = bundled["nonflat"], [0.12, -0.07]
    affine_metric(s, t)
    assert per_point_calls["__init__"] == 1 and not solves
    affine_normal_plane(s, t)
    tau_form(s, t)
    assert len(solves) == 1


def test_a_metric_report_makes_no_structure_solve(per_point_calls, bundled, capsys):
    from darboux.cli import run_command

    assert run_command(["metric", "--scene", "nonflat", "--t", "0.13,-0.11"]) == 0
    capsys.readouterr()
    assert per_point_calls["structure_jets"] == 0 and per_point_calls["__init__"] == 1


def test_a_transon_report_makes_no_structure_solve(per_point_calls, bundled):
    from darboux import transon_report

    transon_report(bundled["nonflat"], [0.13, -0.11])
    assert per_point_calls["structure_jets"] == 0


def test_clearing_the_frame_cache_clears_the_bundles(per_point_calls, bundled):
    """The frame holds its bundle, so the frame cache is the one per-point
    cache of the metric layer."""
    from darboux import frame

    s, t = bundled["hyperquadric"], [0.1, -0.05]
    first = bundle_fields(s, t)
    assert bundle_fields(s, t) is first
    frame._fields.cache_clear()
    assert bundle_fields(s, t) is not first
    assert per_point_calls["__init__"] == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_the_defects_are_linear_images_of_tau11(seed, n, scaled):
    """On random cubic scenes with a curved N, n = 1..3, in the graph gauge
    and with an xi_scale: the structure solve's apolarity trace is 2 tau11
    and its equiaffine trace -A tau11, each within 1e-13 of
    max(1, max |tau11|) (2.4e-15 and 3.4e-16 at most over 1,800 draws),
    and the library's defects are those closed forms."""
    from darboux.errors import GeometryError

    scene, t = random_gauged_scene(seed, n, scaled)
    try:
        tau = tau_form(scene, t)
        A = bundle_fields(scene, t).A
    except GeometryError:
        return
    bound = 1e-13 * max(1.0, float(np.abs(tau).max()))
    assert np.abs(apolarity_trace(scene, t) - 2.0 * tau).max() <= bound
    assert np.abs(equiaffine_trace(scene, t) + A @ tau).max() <= bound
    assert apolarity_defect(scene, t).tobytes() == (2.0 * tau).tobytes()
    assert np.abs(equiaffine_defect(scene, t) + A @ tau).max() == 0.0
