"""Hyperplane sections, section normals, and the swept plane."""

import json

import numpy as np
import pytest

from darboux import (
    build_scene,
    hyperplane_section,
    monge_frame,
    principal_angles,
    section_blaschke_normal,
    tau_form,
    transon_plane,
    transon_planarity_residual,
    transon_report,
    transon_vs_normal_plane,
)
from darboux import transon
from darboux.cli import run_command
from darboux.errors import NeedMoreSectionsError, ReversionFailureError
from darboux.jets import Jet, fixed_point, jet_compose, jet_space
from darboux.scenes import CATALOG
from darboux.transon import projected_submanifold_normal
from conftest import eval_poly_jet, forbid_compose, random_cubic_scene

POINT = (0.07, -0.04, 0.07, -0.03, 0.02, -0.01)


def test_monge_frame_normalization():
    rng = np.random.default_rng(3)
    for _ in range(4):
        s = random_cubic_scene(rng, 2, with_g=True)
        t0 = rng.uniform(-0.05, 0.05, 2)
        mf = monge_frame(s, t0)
        W = mf.W
        assert abs(float(W.value)) < 1e-12
        for k in range(3):
            assert abs(float(W.derivative(k).value)) < 1e-12
        hess_t = np.array(
            [[_mixed(W, i, j) for j in range(2)] for i in range(2)]
        )
        assert np.abs(hess_t - np.diag(mf.eps)).max() < 1e-10
        assert abs(_mixed(W, 0, 2)) < 1e-10
        assert abs(_mixed(W, 1, 2)) < 1e-10
        # N in Monge coordinates has no constant or linear part
        assert abs(float(mf.G.value)) < 1e-12
        assert abs(float(mf.G.derivative(0).value)) < 1e-12


def _mixed(jet, i, j):
    alpha = [0] * jet.space.nvars
    alpha[i] += 1
    alpha[j] += 1
    c = float(jet.coefficient(tuple(alpha)))
    return c if i != j else 2 * c


def test_lambda_zero_section_is_direct_graph():
    s = build_scene("(t1^2 + t2^2 + y^2)/2 + t1^3/5", "0", 2)
    section = hyperplane_section(s, [0.0, 0.0], 0.0)
    mf = section.monge
    # at lambda = 0 the section graph equals W(x, 0)
    from darboux.jets import Jet, jet_compose, jet_space

    nsp = jet_space(2, section.graph.order)
    coords = Jet.coordinates(nsp, np.zeros(2))
    direct = jet_compose(mf.W, coords + [Jet.constant(nsp, 0.0)])
    assert np.abs(
        np.asarray((direct - section.graph).coeffs, dtype=float)
    ).max() < 1e-12


def test_rotationally_symmetric_sections():
    s = build_scene("(t1^2 + t2^2 + y^2)/2", "0", 2)
    for lam in (-0.2, 0.1, 0.3):
        section = hyperplane_section(s, [0.0, 0.0], lam)
        # reduced graph z = |x|^2/2 through cubic order
        assert section.graph.coefficient((2, 0)) == pytest.approx(0.5, abs=1e-10)
        assert section.graph.coefficient((0, 2)) == pytest.approx(0.5, abs=1e-10)
        for alpha in ((3, 0), (2, 1), (1, 2), (0, 3)):
            assert abs(section.graph.coefficient(alpha)) < 1e-10
        nrm = section_blaschke_normal(s, [0.0, 0.0], lam)
        assert abs(nrm[0]) < 1e-10 and abs(nrm[1]) < 1e-10
    plane = transon_plane(s, [0.0, 0.0])
    spanned = np.abs(plane[:, :2]).max()
    assert spanned < 1e-10  # plane sits inside the (y, z) coordinate plane
    res = transon_planarity_residual(s, [0.0, 0.0], [-0.2, -0.1, 0.0, 0.1, 0.2])
    assert res < 1e-12


def test_section_matches_root_finding_oracle():
    """Brute force: sample the hyperplane section by solving the implicit
    equation pointwise with a scalar iteration in the original ambient
    coordinates, and compare with the reverted jet."""
    from darboux.expr import eval_scalar

    rng = np.random.default_rng(41)
    s = random_cubic_scene(rng, 2)
    t0 = [0.0, 0.0]
    lam = 0.15
    section = hyperplane_section(s, t0, lam)
    mf = section.monge
    def surface_residual(x, z):
        # ambient = (t1, t2, y, zamb); membership in M demands
        # zamb = f(t1, t2, y)
        monge_point = np.array([x[0], x[1], lam * z, z])
        ambient = mf.base_point + mf.inverse @ monge_point
        return ambient[3] - eval_scalar(s.f, s.f_names, ambient[:3])

    for _ in range(6):
        x = rng.uniform(-0.04, 0.04, 2)
        z = 0.0
        for _ in range(80):
            r = surface_residual(x, z)
            slope = (surface_residual(x, z + 1e-6) - r) / 1e-6
            step = r / slope
            z -= step
            if abs(step) < 1e-14:
                break
        z_jet = eval_poly_jet(section.graph, x)
        assert abs(z - z_jet) < 1e-8


def test_normal_transversality():
    rng = np.random.default_rng(8)
    s = random_cubic_scene(rng, 2)
    section = hyperplane_section(s, [0.0, 0.0], 0.1)
    nrm = section_blaschke_normal(s, [0.0, 0.0], 0.1)
    monge_nrm = section.monge.vector_to_monge(nrm)
    # nonzero component off the section tangent space (spanned by e_1, e_2)
    assert np.abs(monge_nrm[2:]).max() > 1e-3


def test_planarity_on_random_cubics():
    rng = np.random.default_rng(77)
    sweep = [-0.2, -0.1, 0.0, 0.1, 0.2]
    for k in range(4):
        n = 1 + (k % 2)
        s = random_cubic_scene(rng, n)
        res = transon_planarity_residual(s, [0.0] * n, sweep)
        assert res < 1e-6
    with pytest.raises(NeedMoreSectionsError):
        transon_planarity_residual(s, [0.0] * n, [0.1])


def test_plane_contains_darboux_direction():
    rng = np.random.default_rng(15)
    from darboux.frame import frame_fields, vec_values

    for k in range(3):
        s = random_cubic_scene(rng, 2)
        plane = transon_plane(s, [0.0, 0.0])
        ff = frame_fields(s, [0.0, 0.0], 1)
        xi = vec_values(ff.xi)
        xi = xi / np.linalg.norm(xi)
        residual = xi - plane.T @ (plane @ xi)
        assert np.linalg.norm(residual) < 1e-8


def test_projected_submanifold_normal_in_plane(bundled):
    for name, t in (("cubic-curve", [0.0]), ("hyperquadric", [0.05, -0.08])):
        s = bundled[name]
        plane = transon_plane(s, t)
        v = projected_submanifold_normal(s, t)
        v = v / np.linalg.norm(v)
        residual = v - plane.T @ (plane @ v)
        assert np.linalg.norm(residual) < 1e-6


@pytest.mark.parametrize("name", ["hyperquadric", "cubic-curve", "nonflat", "e6"])
def test_a_parallel_pair_falls_back_to_the_sweep_fit(monkeypatch, bundled, name):
    """With both sections of the pair at lambda = 0 the pair spans a line,
    and the least-squares fit over DEFAULT_SWEEP spans the plane that the
    regular pair spans."""
    from darboux import transon

    s = bundled[name]
    for t in ([0.0] * s.n, [0.07, -0.04, 0.07, -0.03][:s.n]):
        want = transon_plane(s, t)
        asked = []
        normals = transon._normals
        monkeypatch.setattr(transon, "_normals", lambda scene, mf, lams, known=None:
                            asked.append(tuple(lams)) or normals(scene, mf, lams, known))
        monkeypatch.setattr(transon, "DEFAULT_PAIR", (0.0, 0.0))
        got = transon_plane(s, t)
        monkeypatch.undo()
        assert tuple(transon.DEFAULT_SWEEP) in asked
        assert principal_angles(want, got).max() < 1e-12, (name, t)


def test_curve_section_values(bundled):
    nrm = section_blaschke_normal(bundled["cubic-curve"], [0.0], 0.0)
    assert np.allclose(nrm, [-1, 0, 1], atol=1e-10)
    plane = transon_plane(bundled["cubic-curve"], [0.0])
    for v in ([0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]):
        v = np.asarray(v) / np.linalg.norm(v)
        assert np.linalg.norm(v - plane.T @ (plane @ v)) < 1e-8


def test_verdicts_match_parallelism(bundled, parallel_corpus):
    scenes, grids = parallel_corpus
    angles, verdict = transon_vs_normal_plane(
        scenes["hyperquadric"], [0.1, -0.05])
    assert verdict == "coincide"
    angles, verdict = transon_vs_normal_plane(scenes["adapted-curve"], [0.0])
    assert verdict == "coincide"
    angles, verdict = transon_vs_normal_plane(bundled["nonflat"], [0.12, 0.08])
    assert verdict == "distinct"
    assert angles[1] > 1e-4
    assert np.abs(tau_form(bundled["nonflat"], [0.12, 0.08])).max() > 1e-3


@pytest.mark.parametrize("gap", [1e-10, 1e-7, 0.3, 1.2])
def test_principal_angles_resolve_small_angles(gap):
    """Two lines, and two planes sharing a line, ``gap`` apart read the angle
    ``gap`` to 1e-6 relative: small angles come from their sines, where
    arccos of the cosine would read 1e-10 as 0 or 1.5e-8."""
    rng = np.random.default_rng(11)
    rotation, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    line_a = np.array([[1.0, 0.0, 0.0, 0.0]]) @ rotation
    line_b = np.array([[np.cos(gap), np.sin(gap), 0.0, 0.0]]) @ rotation
    (angle,) = principal_angles(line_a, line_b)
    assert angle == pytest.approx(gap, rel=1e-6, abs=0.0)
    shared = np.array([[0.0, 0.0, 1.0, 0.0]]) @ rotation
    angles = principal_angles(np.vstack([line_a, shared]), np.vstack([shared, line_b]))
    assert angles[0] < 1e-15 and angles[1] == pytest.approx(gap, rel=1e-6, abs=0.0)


def test_transon_report_shape(bundled):
    rep = transon_report(bundled["cubic-curve"], [0.0])
    assert len(rep.normals) == len(rep.lambdas) == 5
    assert rep.residual < 1e-6
    assert rep.verdict == "coincide"
    assert len(rep.plane_basis) == 2


@pytest.mark.parametrize("name,t", [
    ("nonflat", [0.12, 0.08]), ("hyperquadric", [0.05, -0.08]), ("cubic-curve", [0.0]),
])
def test_transon_report_builds_one_monge_frame(monkeypatch, bundled, name, t):
    """One Monge frame and one batch of sections, a row per distinct
    lambda, feed the residual, the plane and the angles, bit-equal to the
    public calls."""
    from darboux import transon

    s = bundled[name]
    residual = transon_planarity_residual(s, t, transon.DEFAULT_SWEEP)
    plane = transon_plane(s, t)
    angles, verdict = transon_vs_normal_plane(s, t)

    calls = {"monge": [], "section": []}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key].append(np.shape(args[-1]))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(transon, "monge_frame", counting("monge", transon.monge_frame))
    monkeypatch.setattr(transon, "_section", counting("section", transon._section))
    rep = transon_report(s, t)
    assert len(calls["monge"]) == 1
    assert calls["section"] == [(len(transon.DEFAULT_SWEEP),)]
    assert rep.residual == residual
    assert rep.plane_basis == plane.tolist()
    assert rep.principal_angles == angles.tolist()
    assert rep.verdict == verdict


def test_report_builds_one_frame(monkeypatch):
    """A Transon report reads p0 off its Monge frame; the only frame it
    builds is the normal-plane bundle's."""
    from darboux import frame
    from darboux.scenes import load_bundled

    scene = load_bundled("cubic-curve")
    frame._fields.cache_clear()
    built = []
    original = frame.FrameFields.__init__

    def record(self, scene, t0, order):
        built.append(order)
        original(self, scene, t0, order)

    monkeypatch.setattr(frame.FrameFields, "__init__", record)
    report = transon_report(scene, [0.0])
    assert len(built) == 1
    assert report.p0 == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("name", ["e6", "d5", "nonflat", "hyperquadric", "cubic-curve"])
def test_transon_report_composes_no_jets(monkeypatch, bundled, name):
    """Sections are graphed by Horner in y over the split of W, and so is
    the projected normal: a report composes no jet."""
    forbid_compose(monkeypatch, "a Transon report")
    s = bundled[name]
    for t in ([0.0] * s.n, list(POINT[: s.n])):
        transon_report(s, t)
    projected_submanifold_normal(s, list(POINT[: s.n]))


def _composed_section(mf, n, lam):
    """The section graph as composition computed it: MONGE_ORDER + 1
    full-order passes of Z = W(x, lam Z), W composed whole."""
    nsp = jet_space(n, transon.MONGE_ORDER)
    coords = Jet.coordinates(nsp, np.zeros(n))
    Z = Jet.constant(nsp, 0.0)
    for _ in range(transon.MONGE_ORDER + 1):
        Z = Jet(nsp, jet_compose(mf.W, coords + [Z * float(lam)]).coeffs, transon.MONGE_ORDER)
    return Z


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_horner_section_matches_composition(bundled, name):
    """W(x, lam Z) by Horner over W's coefficients in y, and the section
    graph it settles, match composing W whole to a few ulps of the largest
    coefficient (the summation order differs), on every bundled scene and
    DEFAULT_SWEEP; so does W(x, G(x)) for the projected normal."""
    s = bundled[name]
    tol = 8 * np.finfo(float).eps
    for t in ([0.0] * s.n, list(POINT[: s.n])):
        mf = monge_frame(s, t)
        coords = Jet.coordinates(jet_space(s.n, transon.MONGE_ORDER), np.zeros(s.n))
        for lam in transon.DEFAULT_SWEEP:
            want = _composed_section(mf, s.n, lam)
            scale = np.abs(want.coeffs).max()
            got = transon._section(s, mf, lam)
            assert np.abs(got.coeffs - want.coeffs).max() <= tol * scale, (t, lam)
            y = want * float(lam)
            horner = transon._height(mf, y).coeffs
            assert np.abs(horner - jet_compose(mf.W, coords + [y]).coeffs).max() <= tol * scale
        composed = jet_compose(mf.W, coords + [mf.G]).coeffs
        gap = np.abs(transon._height(mf, mf.G).coeffs - composed).max()
        assert gap <= tol * np.abs(composed).max(), t


def _one_pass(step, start, order, settled):
    """``fixed_point`` told that its start is already settled: one pass."""
    return fixed_point(step, start, order, order)


def test_section_cut_short_raises_reversion_failure(monkeypatch, bundled):
    monkeypatch.setattr(transon, "fixed_point", _one_pass)
    with pytest.raises(ReversionFailureError, match="section reversion residual"):
        hyperplane_section(bundled["nonflat"], [0.12, 0.08], 0.1)


def test_cli_transon_reports_reversion_failure(monkeypatch, capsys):
    """A failed reversion is a degeneracy: exit 3, a JSON diagnostic on
    stdout and no traceback."""
    monkeypatch.setattr(transon, "fixed_point", _one_pass)
    code = run_command(["transon", "--scene", "nonflat", "--t", "0.12,0.08"])
    out, err = capsys.readouterr()
    diag = json.loads(out)
    assert code == 3
    assert diag["error"] == "degeneracy" and diag["type"] == "ReversionFailureError"
    assert "section reversion residual" in diag["message"]
    assert "Traceback" not in out + err


@pytest.mark.parametrize("name,t", [("nonflat", [0.12, 0.08]), ("hyperquadric", [0.05, -0.08])])
def test_transon_verdict_is_invariant_under_scaling_f(bundled, name, t):
    """f -> k f moves no Transon verdict, and every section passes its
    reversion check, whose tolerance is relative to the section graph."""
    base = bundled[name]
    verdicts = set()
    for k in ("1e-8", "1", "1e8"):
        scaled = build_scene(f"({k})*({base.f_text})", base.g_text, base.n, gauge=base.gauge)
        verdicts.add(transon_report(scaled, t).verdict)
    assert verdicts == {transon_report(base, t).verdict}


@pytest.mark.parametrize("lambdas", [[0.1, 0.1, 0.2], [0.1, 0.1, 0.1], [0.0, -0.0, 0.2]])
def test_repeated_lambdas_count_once(bundled, lambdas):
    """Three lambdas with a repeat are two sections, not a plane."""
    s = bundled["nonflat"]
    with pytest.raises(NeedMoreSectionsError, match="distinct"):
        transon_report(s, [0.1, 0.15], lambdas)
    with pytest.raises(NeedMoreSectionsError, match="distinct"):
        transon_planarity_residual(s, [0.1, 0.15], lambdas)
    rep = transon_report(s, [0.1, 0.15], lambdas + [0.3, -0.25])
    assert rep.normals[0] == rep.normals[1]


def test_non_finite_sections_raise_reversion_failure(bundled):
    """A lambda that overflows the section makes a non-finite increment,
    which fails the residual check (NaN compares false) and names the first
    such lambda, quietly."""
    import warnings

    s = bundled["nonflat"]
    mf = monge_frame(s, [0.1, 0.15])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ReversionFailureError, match=r"lambda=1e\+150"):
            transon._section(s, mf, 1e150)
        with pytest.raises(ReversionFailureError, match=r"lambda=1e\+150") as err:
            transon._section(s, mf, [0.1, 1e150, -0.2, 1e300])
        assert err.value.rows.tolist() == [1, 3]
        with pytest.raises(ReversionFailureError, match=r"lambda=1e\+300"):
            transon_report(s, [0.1, 0.15], [1e300, 0.1, 0.2])


@pytest.mark.parametrize("name", ["e6", "nonflat", "hyperquadric", "cubic-curve"])
def test_section_batch_rows_match_one_point_sections(bundled, name):
    """The sections of a report are the rows of one batch, and their
    Blaschke normals one batched read: each row is bitwise the section and
    the normal of its lambda alone."""
    from darboux.metricbundle import blaschke_from_jet, blaschke_normal

    s = bundled[name]
    t = list(POINT[: s.n])
    mf = monge_frame(s, t)
    lams = [-0.3, 0.05, 0.15, 0.0, 0.25]
    graphs = transon._section(s, mf, lams)
    zeta = blaschke_normal(graphs, s.n)[0]
    rep = transon_report(s, t, lams)
    for k, lam in enumerate(lams):
        alone = transon._section(s, mf, lam)
        assert graphs.order == alone.order
        assert graphs.coeffs[k].tobytes() == alone.coeffs.tobytes(), lam
        assert zeta[k].tobytes() == blaschke_from_jet(alone, s.n)[1].tobytes(), lam
        assert rep.normals[k] == section_blaschke_normal(s, t, lam).tolist(), lam


def test_degenerate_section_batch_names_its_first_row():
    """Blaschke normals over batch rows raise for the first degenerate row,
    with the message of that row alone."""
    from darboux.errors import DegenerateHypersurfaceError
    from darboux.metricbundle import blaschke_normal

    sp = jet_space(2, 4)
    rows = np.zeros((3, sp.size))
    for k, (a, b) in enumerate([(1.0, 1.0), (1.0, 0.0), (0.0, 2.0)]):
        rows[k, sp.index_of[(2, 0)]], rows[k, sp.index_of[(0, 2)]] = a, b
        rows[k, sp.index_of[(1, 2)]] = 0.3
    with pytest.raises(DegenerateHypersurfaceError) as alone:
        blaschke_normal(Jet(sp, rows[1].copy()), 2)
    with pytest.raises(DegenerateHypersurfaceError) as batch:
        blaschke_normal(Jet(sp, rows), 2)
    assert str(batch.value) == str(alone.value)
    assert blaschke_normal(Jet(sp, rows[:1]), 2)[0].shape == (1, 3)
