"""Affine metric, normal plane bundle, cubic forms, Blaschke data, and the
parallel-field machinery."""

import warnings

import numpy as np
import pytest

from darboux import (
    affine_metric,
    affine_normal_plane,
    apolarity_defect,
    blaschke_compatibility,
    blaschke_data,
    build_scene,
    cubic_forms,
    equiaffine_defect,
    normal_curvature,
    parallel_field_exists,
    tau_form,
)
from darboux.errors import DegenerateHypersurfaceError, IndefiniteWarning
from darboux.expr import parse_expression
from darboux.frame import frame_fields, vec_values, vec_partial
from darboux.metricbundle import bundle_fields, hypersurface_blaschke
from conftest import nonflat_grid


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
    transversal connection forms."""
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
        coeffs = b.on_frame
        for i in range(n):
            assert abs(float(coeffs["tau12"][i].value)) < 1e-9
            assert abs(float(coeffs["tau22"][i].value)) < 1e-9
            for j in range(n):
                target = 1.0 if i == j else 0.0
                assert float(coeffs["h2"][i][j].value) == pytest.approx(
                    target, abs=1e-9
                )
        from darboux.jets import bracket

        val = float(bracket(b.Ehat + [b.eta, b.ff.xi]).value)
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


def test_equiaffine_identity_and_proportionality(bundled):
    """Sum_k Gamma_ik^k + tau11(X_i) = 0 in the normal-plane gauge, at
    machine precision, independently of parallelism."""
    for name, t in (("nonflat", [0.1, 0.07]), ("d4", [0.04, -0.09])):
        s = bundled[name]
        b = bundle_fields(s, t)
        coeffs = b.on_frame
        n = s.n
        for i in range(n):
            gamma_sum = sum(float(coeffs["Gamma"][i][k][k].value) for k in range(n))
            tau = float(coeffs["tau11"][i].value)
            assert gamma_sum + tau == pytest.approx(0.0, abs=1e-9)


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


def test_parallel_test_solves_once_per_grid_point_and_edge_midpoint(monkeypatch, bundled):
    from collections import Counter

    from darboux.frame import FrameFields

    calls = Counter()
    structure_jets = FrameFields.structure_jets

    def counting(self, *args, **kwargs):
        calls[tuple(self.t0.tolist())] += 1
        return structure_jets(self, *args, **kwargs)

    monkeypatch.setattr(FrameFields, "structure_jets", counting)
    region = [(-0.15, 0.15, 5), (-0.15, 0.15, 5)]
    axis = np.linspace(-0.15, 0.15, 5)
    mids = 0.5 * (axis[:-1] + axis[1:])
    grid = {(a, b) for a in axis for b in axis}
    edge_mids = {(m, b) for m in mids for b in axis} | {(a, m) for a in axis for m in mids}
    assert len(grid) == 25 and len(edge_mids) == 40

    rep = parallel_field_exists(bundled["hyperquadric"], region, tangency_checks=0)
    assert rep.verdict == "exists"
    assert set(calls) == grid | edge_mids
    assert set(calls.values()) == {1}

    calls.clear()
    rep = parallel_field_exists(bundled["hyperquadric"], region)
    assert rep.tangency_residual < 1e-6
    assert all(calls[p] == 1 for p in grid | edge_mids)

    calls.clear()
    rep = parallel_field_exists(bundled["nonflat"], region)
    assert rep.verdict == "not exists"
    assert set(calls) == grid and set(calls.values()) == {1}
