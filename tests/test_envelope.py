"""Envelope points, the tangency family, regression values, meshes."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from darboux import (
    build_scene,
    envelope_mesh,
    envelope_point,
    family_value,
    regression_values,
    write_obj,
    write_ply,
)
from darboux.envelope import (Mesh, _envelope_point, _shape_operator, family_gradient, family_jet,
                              shape_operator)
from darboux.errors import EmptyGridError, SingularBasisError
from darboux.frame import Darboux, FrameFields, frame_fields, vec_values
from darboux.jets import Jet, jet_space

from conftest import bracket, padded

ALL_SCENES = ("a2", "a3", "a4", "a5", "d4", "d5", "e6", "e7", "e8",
              "cubic-curve", "nonflat", "hyperquadric")


def _off_origin(n):
    return [0.05 * (i + 1) * (-1) ** i for i in range(n)]


def _gauge_variants(bundled):
    """Every bundled scene in its own gauge, the scenes whose hypersurface
    is non-degenerate in the Blaschke gauge, and a few with a scaled xi."""
    out = [(bundled[name], t) for name in ALL_SCENES
           for t in ([0.0] * bundled[name].n, _off_origin(bundled[name].n))]
    for name in ("cubic-curve", "nonflat", "hyperquadric"):
        s = bundled[name]
        b = build_scene(s.f_text, s.g_text, s.n, gauge="blaschke", name=name)
        out += [(b, [0.0] * s.n), (b, _off_origin(s.n))]
    for name in ("a2", "d4", "e6", "nonflat"):
        s = bundled[name]
        scale = "2 + t - t^2" if s.n == 1 else "2 + t1 - t2^2"
        v = build_scene(s.f_text, s.g_text, s.n, xi_scale_text=scale, name=name)
        out += [(v, [0.0] * s.n), (v, _off_origin(s.n))]
    return out


def _relative_gap(got, want):
    assert got.order == want.order
    return np.abs(padded(got) - padded(want)).max() / max(np.abs(want.coeffs).max(), 1e-300)


def _bracket_family(ff, x):
    """Reference: the family as the bracket [X_1..X_n, xi, x - phi]."""
    offset = [Jet.constant(ff.space, float(x[r])) - ff.phi[r] for r in range(len(ff.phi))]
    return bracket(ff.X + [ff.xi, offset])


def test_family_gradient_is_the_bracket_with_basis_vectors(bundled):
    for scene, t in _gauge_variants(bundled):
        ff = frame_fields(scene, t, 3)
        m = scene.n + 2
        for j, grad in enumerate(family_gradient(ff)):
            basis = [Jet.constant(ff.space, float(r == j)) for r in range(m)]
            want = bracket(ff.X + [ff.xi, basis])
            assert _relative_gap(grad, want) <= 1e-13, (scene.name, t, j)


def test_family_matches_the_bracket_reference(bundled):
    for scene, t in _gauge_variants(bundled):
        x = envelope_point(scene, t, 0.7) + 0.01
        ff = frame_fields(scene, t, 3)
        want = _bracket_family(ff, x)
        assert _relative_gap(family_jet(scene, t, x, 3), want) <= 1e-13, (scene.name, t)
        want1 = _bracket_family(frame_fields(scene, t, 1), x)
        F, grad = family_value(scene, t, x)
        scale = np.abs(want1.coeffs).max()
        assert abs(F - float(want1.value)) <= 1e-13 * scale
        want_grad = [float(want1.derivative(i).value) for i in range(scene.n)]
        assert np.abs(grad - want_grad).max() <= 1e-13 * scale


def test_envelope_point_values(bundled):
    assert np.allclose(envelope_point(bundled["a2"], [0.0], 1.0), [0, 1, 0])
    assert np.allclose(envelope_point(bundled["a4"], [0.0, 0.0], 1.0), [0, 0, 1, 0])
    t = [0.11]
    assert np.allclose(
        envelope_point(bundled["a2"], t, 0.0),
        [0.11, 0.0, 0.11**2 / 2 + 0.11**3 / 6],
    )


def test_family_values(bundled):
    F0, _ = family_value(bundled["a2"], [0.0], [0.0, 1.0, 0.0])
    assert F0 == pytest.approx(0.0, abs=1e-14)
    F1, _ = family_value(bundled["a2"], [0.0], [0.0, 1.0, 1.0])
    assert F1 == pytest.approx(-1.0, abs=1e-14)


def test_family_vanishes_on_envelope():
    rng = np.random.default_rng(17)
    s = build_scene(
        "(t1^2 + t2^2)/2 + (t1^2 + t2^2)*y/2 + t1^3/5 + t1*t2^2/7", "0", 2
    )
    for _ in range(6):
        t = rng.uniform(-0.1, 0.1, 2)
        u = rng.uniform(0.3, 1.7)
        x = envelope_point(s, t, u)
        F, grad = family_value(s, t, x)
        assert abs(F) < 1e-9
        assert np.abs(grad).max() < 1e-9


def test_regression_values(bundled):
    sigma2 = build_scene("t^2/2 + t^3/6 + t^2*y", "0", 1)
    assert regression_values(sigma2, [0.0]) == pytest.approx([0.5])
    assert regression_values(bundled["a4"], [0.0, 0.0]) == pytest.approx([1.0])
    flat = build_scene("t^2/2 + t^4/24 + y^2/2", "0", 1)
    assert regression_values(flat, [0.0]) == []


def test_envelope_mesh_counts_and_flags(bundled):
    mesh = envelope_mesh(bundled["a2"], [(-0.2, 0.2, 10)], (0.5, 1.5, 10))
    assert len(mesh.vertices) == 100
    assert len(mesh.faces) == 81
    assert mesh.vertices.shape[1] == 3
    # a grid hitting the regression value exactly gets flagged
    mesh2 = envelope_mesh(bundled["a2"], [(0.0, 0.0, 1)], (1.0, 1.0, 1))
    assert mesh2.singular.all()
    gap = mesh2.regression_gap[0]
    u, S1 = 1.0, shape_operator(bundled["a2"], [0.0])
    assert gap == pytest.approx(float(np.linalg.det(u * S1 - np.eye(1))), abs=1e-12)
    with pytest.raises(EmptyGridError):
        envelope_mesh(bundled["a2"], [(-0.2, 0.2, 10)], (0.5, 1.5, 0))
    with pytest.raises(EmptyGridError):
        envelope_mesh(bundled["a2"], [], (0.5, 1.5, 3))


def test_axis_with_a_non_finite_span_is_rejected_before_allocation(monkeypatch, bundled):
    from darboux import parallel_field_exists

    def refuse(*args, **kwargs):
        raise AssertionError("an axis was allocated")

    monkeypatch.setattr(np, "linspace", refuse)
    with pytest.raises(EmptyGridError, match="not finite"):
        envelope_mesh(bundled["a2"], [(1e308, -1e308, 3)], (0.5, 1.5, 2))
    with pytest.raises(EmptyGridError, match="not finite"):
        parallel_field_exists(bundled["hyperquadric"], [(-1e308, 1e308, 3), (0.0, 0.1, 3)])
    with pytest.raises(EmptyGridError, match="not finite"):
        envelope_mesh(bundled["a2"], [(float("nan"), 0.1, 3)], (0.5, 1.5, 2))


def test_mesh_flags_match_regression_values(bundled):
    s = bundled["a2"]
    ts = np.linspace(-0.1, 0.1, 5)
    u_values = sorted(regression_values(s, [t])[0] for t in ts)
    for t in ts:
        u = regression_values(s, [t])[0]
        mesh = envelope_mesh(s, [(t, t, 1)], (u, u, 1))
        assert mesh.singular.all()


def test_nan_policy_keeps_partial_mesh():
    degenerate_at_zero = build_scene("t^2*y/2 + t^2/2 + y^2/2", "0", 1)
    # h2 ~ 1 + y-corrections stays fine; build a scene degenerate at t=0
    s = build_scene("t^3*y + t^2/2 + y^2/2", "0", 1)
    # det h2 vanishes nowhere here; use the hyperbolic scene on a grid
    hyper = build_scene("t*y", "0", 1)
    mesh = envelope_mesh(hyper, [(-0.1, 0.1, 3)], (0.0, 1.0, 2))
    assert np.isnan(mesh.vertices).all()
    assert len(mesh.diagnostics) == 3


def test_domain_error_is_a_per_vertex_diagnostic():
    # y = sqrt(1 - t^2) leaves its domain for |t| >= 1: those rulings become
    # NaN rows with a diagnostic each and the rest of the mesh is computed.
    scene = build_scene("(t^2 + y^2)/2", "sqrt(1 - t^2)", 1)
    mesh = envelope_mesh(scene, [(-1.5, 0.5, 5)], (0.1, 0.5, 3))
    assert mesh.vertices.shape == (15, 3)
    assert np.isnan(mesh.vertices[:6]).all()
    assert np.isfinite(mesh.vertices[6:]).all()
    assert len(mesh.diagnostics) == 2
    assert all("fractional power" in d for d in mesh.diagnostics)
    assert mesh.diagnostics[0].startswith("t=[-1.5]")
    assert np.allclose(mesh.vertices[9], envelope_point(scene, [0.0], 0.1))


def test_non_finite_frames_are_per_point_diagnostics():
    # g's jet overflows to inf off t2 = 0, so those frames hold NaN: each such
    # grid point is one diagnostic and its vertices NaN rows.
    scene = build_scene("(t1^2 + t2^2 + y^2)/2 + 3", "(t2*1e8^2)^4^4", 2)
    with np.errstate(all="ignore"):
        mesh = envelope_mesh(scene, [(0.0, 0.2, 3), (0.0, 0.2, 3)], (0.5, 1.5, 2))
    assert len(mesh.diagnostics) == 6
    assert all("non-degeneracy determinant nan" in d for d in mesh.diagnostics)
    assert np.isnan(mesh.vertices).any(axis=1).sum() == 12
    assert np.isfinite(mesh.vertices).all(axis=1).sum() == 6


def test_mesh_export(tmp_path, bundled):
    mesh = envelope_mesh(bundled["a2"], [(-0.2, 0.2, 4)], (0.5, 1.5, 3))
    obj = tmp_path / "ruled.obj"
    write_obj(mesh, obj)
    lines = obj.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 12
    assert sum(1 for l in lines if l.startswith("f ")) == 6
    mesh4 = envelope_mesh(bundled["a4"], [(-0.1, 0.1, 3), (-0.1, 0.1, 3)], (0.9, 1.1, 2))
    ply = tmp_path / "cloud.ply"
    write_ply(mesh4, ply)
    text = ply.read_text()
    assert "property double regression_gap" in text
    assert "element vertex 18" in text


def _number_tokens(line):
    return [float(token) for token in line.split()[1:]]


def test_export_leaves_out_diagnosed_vertices(tmp_path):
    # t = 1 and t = 1.5 leave the domain of sqrt(1 - t^2): vertices 9..14
    # are NaN rows and four of the eight quads touch them.
    scene = build_scene("(t^2 + y^2)/2", "sqrt(1 - t^2)", 1)
    mesh = envelope_mesh(scene, [(-0.5, 1.5, 5)], (0.1, 0.5, 3))
    assert np.isnan(mesh.vertices[9:]).all() and len(mesh.faces) == 8

    obj = tmp_path / "partial.obj"
    write_obj(mesh, obj)
    lines = obj.read_text().splitlines()
    assert "nan" not in obj.read_text().lower()
    vertices = [_number_tokens(l) for l in lines if l.startswith("v ")]
    faces = [[int(i) for i in l.split()[1:]] for l in lines if l.startswith("f ")]
    assert np.array_equal(vertices, mesh.vertices[:9])
    assert len(faces) == 4
    assert all(1 <= i <= len(vertices) for face in faces for i in face)
    assert faces == [[a + 1 for a in f] for f in mesh.faces[:4]]

    ply = tmp_path / "partial.ply"
    write_ply(mesh, ply)
    text = ply.read_text()
    assert "nan" not in text.lower()
    header, body = text.split("end_header\n")
    assert "element vertex 9\n" in header
    rows = [_number_tokens("row " + l) for l in body.splitlines()]
    assert len(rows) == 9
    assert np.array_equal([r[:3] for r in rows], mesh.vertices[:9])


def test_export_of_a_full_mesh_writes_every_vertex(tmp_path, bundled):
    mesh = envelope_mesh(bundled["a2"], [(-0.2, 0.2, 3)], (0.5, 1.5, 2))
    obj = tmp_path / "full.obj"
    write_obj(mesh, obj)
    want = "".join(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n" for v in mesh.vertices)
    want += "".join("f " + " ".join(str(i + 1) for i in f) + "\n" for f in mesh.faces)
    assert obj.read_text() == want


def _reference_obj(mesh):
    """The OBJ text as written one f-string per vertex and one join per face."""
    keep = np.isfinite(mesh.vertices).all(axis=1)
    number = np.cumsum(keep)
    out = [f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n" for v in mesh.vertices[keep]]
    out += ["f " + " ".join(str(number[i]) for i in f) + "\n"
            for f in mesh.faces if keep[list(f)].all()]
    return "".join(out)


def _reference_ply(mesh):
    """The PLY text as written one f-string per float, row by row."""
    dim = mesh.vertices.shape[1]
    names = ["x", "y", "z"][: min(dim, 3)] + [f"c{k}" for k in range(3, dim)]
    keep = np.isfinite(mesh.vertices).all(axis=1) & np.isfinite(mesh.regression_gap)
    out = ["ply\nformat ascii 1.0\n", f"element vertex {int(keep.sum())}\n"]
    out += [f"property double {name}\n" for name in names]
    out += ["property double regression_gap\n", "property uchar singular\n", "end_header\n"]
    for v, gap, flag in zip(mesh.vertices[keep], mesh.regression_gap[keep], mesh.singular[keep]):
        coords = " ".join(f"{c:.17g}" for c in v)
        out.append(f"{coords} {gap:.17g} {1 if flag else 0}\n")
    return "".join(out)


def _synthetic_mesh(rows, dim, holes, seed=0):
    """A mesh of ``rows`` vertices in R^dim with random quads, magnitudes
    from 1e-300 to 1e300, -0.0 and subnormal entries, singular flags, and
    with ``holes`` some NaN vertex rows and some NaN gaps besides."""
    rng = np.random.default_rng([seed, rows, dim])
    vertices = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-300, 301, (rows, dim))
    gaps = rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 21, rows)
    special = [-0.0, 5e-324, -2.5e-320, 1e300, -1e300, 0.1]
    for k in range(min(rows, 40)):
        vertices[k, k % dim] = special[k % len(special)]
        gaps[-1 - k] = special[k % len(special)]
    singular = np.abs(gaps) < 1e-6
    singular[::7] = True
    if holes:
        vertices[rng.random(rows) < 0.1, rng.integers(0, dim)] = np.nan
        gaps[rng.random(rows) < 0.1] = np.nan
    faces = rng.integers(0, max(rows, 1), (rows if dim == 3 else 0, 4)).astype(np.intp)
    return Mesh(vertices, faces, gaps, singular, (rows,))


@pytest.mark.parametrize("rows", [0, 1, 511, 512, 513, 1025])
@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("holes", [False, True])
def test_export_is_byte_identical_to_the_per_row_writers(tmp_path, rows, dim, holes):
    # 511, 512, 513 and 1025 kept rows sit on both sides of the write blocks
    # of 512 rows; with holes, the kept rows fall between them.
    mesh = _synthetic_mesh(rows, dim, holes)
    assert mesh.singular.any() or rows == 0
    write_ply(mesh, tmp_path / "m.ply")
    assert (tmp_path / "m.ply").read_bytes() == _reference_ply(mesh).encode()
    if dim == 3:
        write_obj(mesh, tmp_path / "m.obj")
        assert (tmp_path / "m.obj").read_bytes() == _reference_obj(mesh).encode()


@pytest.mark.parametrize("name,grid", [("a2", [(-0.2, 0.2, 7)]),
                                       ("a4", [(-0.1, 0.1, 3), (-0.2, 0.2, 5)])])
def test_exported_envelope_meshes_are_byte_identical_to_the_per_row_writers(tmp_path, bundled,
                                                                            name, grid):
    # u = 1 hits the regression value over t = 0, so some vertices are flagged.
    mesh = envelope_mesh(bundled[name], grid, (0.5, 1.5, 5))
    assert mesh.singular.any()
    write_ply(mesh, tmp_path / "m.ply")
    assert (tmp_path / "m.ply").read_text() == _reference_ply(mesh)
    if name == "a2":
        write_obj(mesh, tmp_path / "m.obj")
        assert (tmp_path / "m.obj").read_text() == _reference_obj(mesh)


def test_faces_are_an_index_array(bundled):
    mesh = envelope_mesh(bundled["a2"], [(-0.2, 0.2, 4)], (0.5, 1.5, 3))
    assert mesh.faces.dtype == np.intp
    assert mesh.faces.tolist() == [[a, a + 1, a + 4, a + 3] for i in range(3)
                                   for a in range(3 * i, 3 * i + 2)]
    cloud = envelope_mesh(bundled["a4"], [(-0.1, 0.1, 3), (-0.1, 0.1, 3)], (0.9, 1.1, 2))
    assert cloud.faces.shape == (0, 4) and cloud.faces.dtype == np.intp
    assert envelope_mesh(bundled["a2"], [(0.0, 0.0, 1)], (0.5, 1.5, 3)).faces.shape == (0, 4)
    assert envelope_mesh(bundled["a2"], [(-0.2, 0.2, 4)], (1.0, 1.0, 1)).faces.shape == (0, 4)


@pytest.mark.parametrize("c", [1e-12, 1e-8, 1.0, 1e8])
def test_regression_values_scale_with_the_darboux_field(bundled, c):
    # xi -> c xi scales S1 by c, so the cuspidal edge of a2 moves to u = 1/c.
    s = bundled["a2"]
    scaled = build_scene(s.f_text, s.g_text, 1, xi_scale_text=repr(c))
    (value,) = regression_values(scaled, [0.0])
    assert value == pytest.approx(1.0 / c, rel=1e-12)
    flat = build_scene("t^2/2 + t^4/24 + y^2/2", "0", 1, xi_scale_text=repr(c))
    assert regression_values(flat, [0.0]) == []
    assert regression_values(flat, [0.1]) == []


def test_jacobian_rank_drop_at_regression(bundled):
    """Finite-difference Jacobian of the envelope map drops rank exactly
    at regression values."""
    s = bundled["a2"]
    h = 1e-5

    def jacobian(t, u):
        cols = []
        for i in range(1):
            e = np.zeros(1)
            e[i] = 1.0
            cols.append(
                (envelope_point(s, t + h * e, u) - envelope_point(s, t - h * e, u))
                / (2 * h)
            )
        cols.append(
            (envelope_point(s, t, u + h) - envelope_point(s, t, u - h)) / (2 * h)
        )
        return np.column_stack(cols)

    t = np.array([0.05])
    u_sing = regression_values(s, t)[0]
    sv = np.linalg.svd(jacobian(t, u_sing), compute_uv=False)
    assert sv[-1] < 1e-5 * sv[0]
    sv2 = np.linalg.svd(jacobian(t, u_sing + 0.2), compute_uv=False)
    assert sv2[-1] > 1e-3 * sv2[0]


def _jet_read_shape_operator(ff):
    """S1 as the value parts of the ``dxi()`` jets: the read the value
    pairing replaced, kept as its oracle."""
    return -np.swapaxes(vec_values(ff.dxi())[..., :ff.scene.n], -1, -2)


def test_shape_operator_value_read_is_bitwise_the_jet_read(bundled):
    """On every bundled scene and gauge variant, at the origin and off it,
    the value read of S1 on the order-1 frame and on the order-6 frame a
    classification reads has the bits of the jet read on the order-1
    frame, and so has x0 = phi + u xi."""
    for scene, t in _gauge_variants(bundled):
        ff1 = frame_fields(scene, t, 1)
        want = _jet_read_shape_operator(ff1)
        x0 = vec_values(ff1.phi) + 0.7 * vec_values(ff1.xi)
        for order in (1, 6):
            ff = frame_fields(scene, t, order)
            assert _shape_operator(ff).tobytes() == want.tobytes(), (scene.name, t, order)
            assert _envelope_point(ff, 0.7).tobytes() == x0.tobytes(), (scene.name, t, order)


def test_shape_operator_batch_rows_are_bitwise_their_points(bundled):
    for scene, t in _gauge_variants(bundled):
        points = np.array([[0.0] * scene.n, t, [-v for v in t]])
        ff = FrameFields.batch(scene, points, 1)
        got = _shape_operator(ff)
        assert got.tobytes() == _jet_read_shape_operator(ff).tobytes()
        for row, point in zip(got, points):
            assert row.tobytes() == _jet_read_shape_operator(FrameFields(scene, point, 1)).tobytes()


_SIGNED = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, -2.0, 3.0])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2), st.data())
def test_shape_operator_value_read_keeps_signed_zeros(n, data):
    """On frames whose value parts and xi slopes mix +-0.0 with other
    numbers, the value read has the bits of the jet read, or raises where
    it raises: each value product there sums from +0.0."""
    sp = jet_space(n, 2)

    def jets():
        return [Jet(sp, np.array(data.draw(st.lists(_SIGNED, min_size=sp.size, max_size=sp.size))))
                for _ in range(n + 2)]

    ff = FrameFields.__new__(FrameFields)
    ff.scene, ff.conormal, ff.mu, ff.order = SimpleNamespace(n=n), jets(), jets(), 1
    ff._part = Darboux(1, None, None, jets(), jets(), None)  # the order-1 part
    try:
        want = _jet_read_shape_operator(ff)
    except SingularBasisError:
        with pytest.raises(SingularBasisError):
            _shape_operator(ff)
        return
    assert _shape_operator(ff).tobytes() == want.tobytes()
