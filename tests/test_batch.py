"""Batched jets and frames: every batch row is bit-identical to the same
computation at that point alone, and a failing check names its rows."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from darboux import build_scene, load_bundled
from darboux import frame as frame_mod
from darboux.envelope import envelope_mesh
from darboux.errors import DomainError, GeometryError, SingularBasisError
from darboux.frame import FrameFields, frame_fields, vec_values
from darboux.jets import _PIVOT_EPS, Jet, jet_solve, jet_space, stacked
from darboux.metricbundle import _tau11, parallel_field_exists

from conftest import random_cubic_scene, same_bits

SP = jet_space(2, 3)
ONE = Jet.constant(SP, 1.0)  # an unbatched jet meeting a batch
seeds = st.integers(0, 2**32 - 1)
rows = st.integers(1, 6)


def row(jet, r):
    """Row ``r`` of a batched jet, as a one-point jet."""
    return Jet(jet.space, jet.coeffs[r], jet.order)


def batch_jet(rng, count, order=None, positive=False):
    """A batch of random jets; some rows hold exact zeros and -0.0."""
    coeffs = rng.uniform(-2, 2, (count, SP.size))
    coeffs[rng.random((count, SP.size)) < 0.15] = 0.0
    coeffs[rng.random((count, SP.size)) < 0.1] = -0.0
    coeffs[:, 0] = rng.uniform(0.5, 2, count) * (1 if positive else rng.choice([-1, 1], count))
    return Jet(SP, coeffs, order)


def test_repr_labels_each_slot_with_its_values_over_the_batch():
    """A batch jet's repr shows its batch shape and pairs each of its first
    six slots with that slot's values across the batch, where it once paired
    them with whole rows; a one-point repr keeps its text."""
    a = Jet.variable(SP, 0, 0.2)
    assert repr(a) == ("Jet(order=3, [(0, 0):0.2, (0, 1):0.0, (1, 0):1.0, (0, 2):0.0, "
                       "(1, 1):0.0, (2, 0):0.0, ...])")
    text = repr(stacked([a, 2 * a, 3 * a]))
    assert text.startswith("Jet(order=3, batch=(3,), [(0, 0):[0.2 0.4 0.6], (0, 1):[0. 0. 0.], ")
    assert "(1, 0):[1. 2. 3.]" in text and text.endswith("(2, 0):[0. 0. 0.], ...])")


def assert_rows(got, want_of_row, count):
    for r in range(count):
        assert same_bits(row(got, r), want_of_row(r)), r


@settings(max_examples=40, deadline=None)
@given(seeds, rows)
def test_ring_and_calculus_rows_match_one_point(seed, count):
    rng = np.random.default_rng(seed)
    a, b = batch_jet(rng, count), batch_jet(rng, count, order=2)
    per_row = rng.uniform(-3, 3, count)
    cases = [
        (a * b, lambda r: row(a, r) * row(b, r)),
        (a + b, lambda r: row(a, r) + row(b, r)),
        (a - b, lambda r: row(a, r) - row(b, r)),
        (-a, lambda r: -row(a, r)),
        (a * 1.5, lambda r: row(a, r) * 1.5),
        (a - 1.5, lambda r: row(a, r) - 1.5),
        (a * per_row, lambda r: row(a, r) * float(per_row[r])),
        (per_row + a, lambda r: row(a, r) + float(per_row[r])),
        (a * ONE, lambda r: row(a, r) * ONE),
        (a.derivative(1), lambda r: row(a, r).derivative(1)),
        (a.reciprocal(), lambda r: row(a, r).reciprocal()),
        (a / b, lambda r: row(a, r) / row(b, r)),
        (a ** 3, lambda r: row(a, r) ** 3),
        (a.sin(), lambda r: row(a, r).sin()),
        (a.cos(), lambda r: row(a, r).cos()),
        (a.exp(), lambda r: row(a, r).exp()),
    ]
    for got, want in cases:
        assert_rows(got, want, count)


@settings(max_examples=40, deadline=None)
@given(seeds, rows, st.floats(-2.5, 2.5).filter(lambda e: e != 0))
def test_log_and_powers_match_one_point_libm(seed, count, exponent):
    """The value-part series are libm's, row by row."""
    rng = np.random.default_rng(seed)
    a = batch_jet(rng, count, positive=True)
    a.coeffs[:, 0] = rng.uniform(1e-3, 50, count)
    assert_rows(a.log(), lambda r: row(a, r).log(), count)
    assert_rows(a.fractional_power(exponent), lambda r: row(a, r).fractional_power(exponent),
                count)
    assert_rows(a.sqrt(), lambda r: row(a, r).sqrt(), count)


def test_failing_rows_are_named():
    rng = np.random.default_rng(4)
    a = batch_jet(rng, 5, positive=True)
    a.coeffs[[1, 3], 0] = [0.0, -0.5]
    with pytest.raises(DomainError) as err:
        a.log()
    assert err.value.rows.tolist() == [1, 3]
    assert "log of non-positive value 0.0" in str(err.value)
    with pytest.raises(DomainError) as err:
        a.reciprocal()
    assert err.value.rows.tolist() == [1]
    with pytest.raises(DomainError) as err:
        row(a, 1).reciprocal()
    assert err.value.rows is None


# -- linear algebra: the one-point elimination as it was, as the reference --


def reference_solve(matrix, rhs):
    """Partial pivoting on value parts, ties to the lowest row, skipping
    identically zero factors, on one point."""
    m = len(matrix)
    a = [r[:] + [c[i] for c in rhs] for i, r in enumerate(matrix)]
    values = np.abs([[float(e.value) for e in r] for r in matrix])
    col_scales, row_scales = values.max(axis=0), list(values.max(axis=1))
    det, sign = None, 1
    for col in range(m):
        p = max(range(col, m), key=lambda r: (abs(float(a[r][col].value)), -r))
        if abs(float(a[p][col].value)) <= _PIVOT_EPS * max(col_scales[col], row_scales[p]):
            raise SingularBasisError("jet solve: singular value part")
        if p != col:
            a[col], a[p] = a[p], a[col]
            row_scales[col], row_scales[p] = row_scales[p], row_scales[col]
            sign = -sign
        pivot = a[col][col]
        det = pivot if det is None else det * pivot
        inv = pivot.reciprocal()
        a[col] = [e * inv for e in a[col]]
        for r in range(m):
            if r != col and a[r][col].coeffs.any():
                factor = a[r][col]
                a[r] = [a[r][c] - factor * a[col][c] for c in range(len(a[r]))]
    if sign == -1:
        det = -det
    return [[a[r][m + k] for r in range(m)] for k in range(len(rhs))], det


def batch_matrix(rng, count, m):
    """An m x m batch of jets whose pivots vary by row."""
    return [[batch_jet(rng, count) for _ in range(m)] for _ in range(m)]


def matrix_row(matrix, r):
    return [[row(e, r) for e in line] for line in matrix]


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(2, 6), st.integers(2, 4), st.integers(1, 3))
def test_solve_rows_match_the_one_point_elimination(seed, count, m, width):
    rng = np.random.default_rng(seed)
    matrix = batch_matrix(rng, count, m)
    for r in range(count):  # an identically zero factor below the first pivot
        if rng.random() < 0.5:
            column = np.abs([line[0].coeffs[r, 0] for line in matrix])
            below = np.flatnonzero(column < column.max())
            if len(below):
                matrix[below[0]][0].coeffs[r] = 0.0
    rhs = [[batch_jet(rng, count) for _ in range(m)] for _ in range(width)]
    solution, det = jet_solve(matrix, rhs)
    for r in range(count):
        want, want_det = reference_solve(matrix_row(matrix, r),
                                         [[row(e, r) for e in c] for c in rhs])
        assert same_bits(row(det, r), want_det), r
        for got_col, want_col in zip(solution, want):
            assert all(same_bits(row(g, r), w) for g, w in zip(got_col, want_col)), r


def test_singular_solve_names_its_rows():
    rng = np.random.default_rng(7)
    matrix = batch_matrix(rng, 5, 3)
    for line in matrix:
        line[2].coeffs[[0, 3], 0] = 0.0
    with pytest.raises(SingularBasisError) as err:
        jet_solve(matrix, [batch_jet(rng, 5) for _ in range(3)])
    assert err.value.rows.tolist() == [0, 3]


# -- frames -------------------------------------------------------------------


def frame_jets(ff):
    return ff.phi + ff.xi + [ff.lam] + [j for line in ff.dxi() for j in line]


def frame_scenes():
    scenes = [load_bundled(name) for name in (
        "a2", "a3", "a4", "a5", "d4", "d5", "cubic-curve", "nonflat", "hyperquadric")]
    rng = np.random.default_rng(2015)
    scenes += [random_cubic_scene(rng, n, with_g=True) for n in (1, 2)]
    both = []
    for s in scenes:
        for gauge in ("graph", "blaschke"):
            both.append(build_scene(s.f_text, s.g_text, s.n, s.xi_scale_text, gauge=gauge,
                                    name=f"{s.describe()} {gauge}"))
    for s, scale in ((scenes[-2], "2 + t - t^2"), (scenes[-1], "exp(t1) + sqrt(1 + t2^2)")):
        both.append(build_scene(s.f_text, s.g_text, s.n, scale, name=f"{s.describe()} scaled"))
    return both


@pytest.mark.parametrize("scene", frame_scenes(), ids=lambda s: s.describe())
def test_batch_frame_rows_match_one_point_frames(scene):
    rng = np.random.default_rng(11)
    points = rng.uniform(-0.2, 0.2, (6, scene.n))
    for order in (1, 2):
        try:
            jets = frame_jets(FrameFields.batch(scene, points, order))
        except GeometryError as err:
            assert err.rows is not None and len(err.rows)
            for r in err.rows:
                with pytest.raises(type(err)):
                    frame_jets(FrameFields(scene, points[r], order))
            continue
        for r, point in enumerate(points):
            want = frame_jets(FrameFields(scene, point, order))
            assert all(same_bits(row(g, r), w) for g, w in zip(jets, want)), (order, r)


@pytest.mark.parametrize("gauge", ["graph", "blaschke"])
def test_frames_and_their_darboux_reads_call_no_jet_det(monkeypatch, gauge):
    """det h2_prov comes from the Darboux solve: building a one-point or a
    batch frame and reading xi, lam, eta and dxi() make no jet_det call."""
    import sys

    def refuse(matrix):
        raise AssertionError("jet_det called")

    for name, module in list(sys.modules.items()):
        if name.startswith("darboux") and hasattr(module, "jet_det"):
            monkeypatch.setattr(module, "jet_det", refuse)
    rng = np.random.default_rng(5)
    cubic, nonflat = load_bundled("cubic-curve"), load_bundled("nonflat")
    for f, g, n in ((cubic.f_text, cubic.g_text, 1), (nonflat.f_text, nonflat.g_text, 2),
                    ("(t1^2 + t2^2 + t3^2 + y^2)/2 + t1*t2*y/3", "t1*t3", 3)):
        scene = build_scene(f, g, n, gauge=gauge)
        points = rng.uniform(-0.1, 0.1, (4, n))
        for ff in (FrameFields(scene, points[0], 2), FrameFields.batch(scene, points, 2)):
            assert np.isfinite(vec_values(ff.xi + ff.eta + [ff.lam] + ff.dxi()[0])).all()


# -- grid readers ---------------------------------------------------------------


def reference_mesh(scene, t_axes, u_range):
    """The per-point mesh loop: one cached frame per grid point."""
    from itertools import product

    axes = [np.linspace(*axis) for axis in t_axes]
    u_values = np.linspace(*u_range)
    vertices, gaps, diagnostics = [], [], []
    for t in (np.array(p) for p in product(*axes)):
        try:
            ff = frame_fields(scene, t, 1)
            phi, xi = vec_values(ff.phi), vec_values(ff.xi)
            dxi = ff.dxi()
            S1 = np.array([[-float(dxi[j][k].value) for j in range(scene.n)]
                           for k in range(scene.n)])
        except GeometryError as err:
            diagnostics.append(f"t={t.tolist()}: {err}")
            vertices += [np.full(scene.n + 2, np.nan)] * len(u_values)
            gaps += [np.nan] * len(u_values)
            continue
        for u in u_values:
            vertices.append(phi + u * xi)
            gaps.append(float(np.linalg.det(u * S1 - np.eye(scene.n))))
    return np.array(vertices), np.array(gaps), diagnostics


def same_floats(got, want):
    """Bit-identical, with NaN in the same places."""
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, want).tobytes())


MESH_CASES = [
    (build_scene("t*y", "0", 1), [(-0.1, 0.1, 3)]),
    (build_scene("(t^2 + y^2)/2", "sqrt(1 - t^2)", 1), [(-1.5, 1.5, 9)]),
    (build_scene("t1^3 + t2^2/2 + y^2/2", "t1*t2", 2), [(-0.2, 0.2, 5), (-0.2, 0.2, 3)]),
    (build_scene("(t1^2 + t2^2 + y^2)/2 + log(1 + t1)", "t1*t2", 2),
     [(-1.5, 0.3, 7), (-0.2, 0.2, 3)]),
    (build_scene(load_bundled("nonflat").f_text, load_bundled("nonflat").g_text, 2,
                 gauge="blaschke"), [(-1.5, 1.5, 7), (-1.5, 1.5, 7)]),
    (load_bundled("hyperquadric"), [(-0.3, 0.3, 6), (-0.3, 0.3, 5)]),
]


@pytest.mark.parametrize("scene,t_axes", MESH_CASES)
def test_mesh_matches_the_per_point_loop(scene, t_axes):
    vertices, gaps, diagnostics = reference_mesh(scene, t_axes, (0.2, 1.3, 4))
    mesh = envelope_mesh(scene, t_axes, (0.2, 1.3, 4))
    assert mesh.diagnostics == diagnostics
    assert same_floats(mesh.vertices, vertices)
    assert same_floats(mesh.regression_gap, gaps)


@pytest.mark.parametrize("scene,t_axes", MESH_CASES)
def test_grids_spanning_several_chunks_read_the_same(monkeypatch, scene, t_axes):
    whole = envelope_mesh(scene, t_axes, (0.2, 1.3, 4))
    monkeypatch.setattr(frame_mod, "BATCH_ROWS", 2)
    chunked = envelope_mesh(scene, t_axes, (0.2, 1.3, 4))
    assert chunked.diagnostics == whole.diagnostics
    assert same_floats(chunked.vertices, whole.vertices)
    assert same_floats(chunked.regression_gap, whole.regression_gap)


def test_a_raising_taylor_coefficient_rereads_only_its_row(frame_builds):
    """sqrt(t^2 + 1e-200) raises an overflow in its third coefficient at
    t = 0 only, so that row alone is read again as a one-point frame, and
    the mesh matches the per-point loop."""
    scene = build_scene("(t^2 + y^2)/2", "sqrt(t^2 + 1e-200)", 1)
    mesh = envelope_mesh(scene, [(-0.2, 0.2, 5)], (0.2, 1.3, 4))
    assert frame_builds == [(0.0,)]
    vertices, gaps, diagnostics = reference_mesh(scene, [(-0.2, 0.2, 5)], (0.2, 1.3, 4))
    assert mesh.diagnostics == diagnostics and len(diagnostics) == 1
    assert "out of float range" in diagnostics[0]
    assert same_floats(mesh.vertices, vertices) and same_floats(mesh.regression_gap, gaps)


@pytest.mark.parametrize("name", ["hyperquadric", "nonflat"])
def test_parallel_test_in_chunks_matches_one_point_samples(monkeypatch, name):
    scene = load_bundled(name)
    region = [(-0.15, 0.15, 4), (-0.1, 0.2, 3)]
    whole = parallel_field_exists(scene, region)
    monkeypatch.setattr(frame_mod, "BATCH_ROWS", 5)
    chunked = parallel_field_exists(scene, region)
    for key in ("tau_samples", "dtau_base", "lam"):
        assert same_floats(np.asarray(getattr(chunked, key), dtype=float),
                           np.asarray(getattr(whole, key), dtype=float))
    assert (chunked.verdict, chunked.max_dtau, chunked.loop_residual,
            chunked.tangency_residual) == (whole.verdict, whole.max_dtau,
                                           whole.loop_residual, whole.tangency_residual)
    axes = [np.linspace(*axis) for axis in region]
    for i, a in enumerate(axes[0]):
        for j, b in enumerate(axes[1]):
            tau = vec_values(_tau11(frame_fields(scene, [a, b], 2)))
            assert whole.tau_samples[i, j].tobytes() == tau.tobytes()


def test_parallel_test_raises_the_first_failing_point_in_grid_order():
    scene = build_scene("(t1^2 + t2^2 + y^2)/2 + log(1 + t1)", "t1*t2", 2)
    region = [(-1.4, 0.2, 5), (-0.2, 0.2, 3)]
    with pytest.raises(DomainError) as err:
        parallel_field_exists(scene, region)
    with pytest.raises(DomainError) as first:
        frame_fields(scene, [-1.4, -0.2], 2).dxi()
    assert str(err.value) == str(first.value)
