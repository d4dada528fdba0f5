"""Germ extraction and recognition of simple singularities."""

import numpy as np
import pytest

from darboux import (
    build_scene,
    classify_envelope_point,
    classify_germ,
    envelope_point,
    germ_jet,
    versality_matrix,
)
from darboux.errors import (
    CorankTooHighError,
    NotAkPointError,
    NotOnDiscriminantError,
    UnresolvedOrderError,
)
from darboux.jets import Jet, jet_space, jet_compose
from darboux.singular import Germ, split_germ


def poly_germ(n, order, terms):
    sp = jet_space(n, order)
    coeffs = np.zeros(sp.size)
    for alpha, v in terms.items():
        coeffs[sp.index_of[alpha]] = v
    return Germ(nvars=n, order=order, jet=Jet(sp, coeffs, order))


NORMAL_FORMS = [
    ({(3,): 1.0}, 1, 6, "A2"),
    ({(3,): -1.0}, 1, 6, "A2"),
    ({(4,): 1.0}, 1, 6, "A3"),
    ({(5,): -1.0}, 1, 6, "A4"),
    ({(8,): 1.0}, 1, 8, "A7"),
    ({(2,): 1.0}, 1, 4, "Morse"),
    ({(3, 0): 1.0, (1, 2): -1.0}, 2, 6, "D4"),
    ({(3, 0): 1.0, (1, 2): 1.0}, 2, 6, "D4"),
    ({(3, 0): 1.0, (0, 3): 1.0}, 2, 6, "D4"),
    ({(2, 1): 1.0, (0, 4): 1.0}, 2, 6, "D5"),
    ({(2, 1): 1.0, (0, 5): -1.0}, 2, 6, "D6"),
    ({(2, 1): 1.0, (0, 6): 1.0}, 2, 7, "D7"),
    ({(3, 0): 1.0, (0, 4): 1.0}, 2, 6, "E6"),
    ({(3, 0): 1.0, (0, 4): -1.0}, 2, 6, "E6"),
    ({(3, 0): 1.0, (1, 3): 1.0}, 2, 6, "E7"),
    ({(3, 0): 1.0, (0, 5): 1.0}, 2, 6, "E8"),
]


@pytest.mark.parametrize("terms,n,order,label", NORMAL_FORMS)
def test_normal_form_catalog(terms, n, order, label):
    assert classify_germ(poly_germ(n, order, terms)).label == label


def test_classification_invariant_under_linear_changes():
    rng = np.random.default_rng(101)
    cases = [
        ({(3, 0): 1.0, (1, 2): -1.0}, 2, "D4"),
        ({(2, 1): 1.0, (0, 4): 1.0}, 2, "D5"),
        ({(3, 0): 1.0, (0, 4): 1.0}, 2, "E6"),
        ({(3, 0): 1.0, (1, 3): 1.0}, 2, "E7"),
        ({(3, 0): 1.0, (0, 5): 1.0}, 2, "E8"),
        ({(4,): 1.0}, 1, "A3"),
    ]
    for terms, n, label in cases:
        germ = poly_germ(n, 6, terms)
        sp = germ.jet.space
        for _ in range(20):
            A = rng.uniform(-1, 1, (n, n))
            while abs(np.linalg.det(A)) < 0.35:
                A = rng.uniform(-1, 1, (n, n))
            coords = Jet.coordinates(sp, np.zeros(n))
            inners = []
            for i in range(n):
                acc = coords[0] * float(A[i, 0])
                for j in range(1, n):
                    acc = acc + coords[j] * float(A[i, j])
                inners.append(acc)
            changed = jet_compose(germ.jet, inners)
            got = classify_germ(Germ(nvars=n, order=6, jet=changed)).label
            assert got == label, f"{label} broke under {A}"


def test_classification_invariant_under_scaling():
    for scale in (3.0, -2.0, 1e-3, 1e4):
        germ = poly_germ(2, 6, {(3, 0): 1.0, (0, 5): 1.0})
        scaled = Germ(nvars=2, order=6, jet=germ.jet * scale)
        assert classify_germ(scaled).label == "E8"


def test_splitting_reduction_residuals():
    """The y-gradient vanishes on the critical graph and the second-order
    block reproduces the regular eigenvalues."""
    germ = poly_germ(
        3, 6,
        {(2, 0, 0): 0.5, (0, 2, 0): -0.5, (0, 0, 3): 1.0, (1, 0, 2): 0.7,
         (0, 1, 3): -0.4, (0, 0, 5): 0.9},
    )
    reduction, scale = split_germ(germ)
    assert reduction.corank == 1
    rotated = germ.jet * (1.0 / scale)
    from darboux.singular import _linear_substitution

    rotated = _linear_substitution(rotated, reduction.rotation)
    grads = [rotated.derivative(i) for i in range(2)]
    for g in grads:
        on_graph = jet_compose(g, reduction.to_t)
        assert np.abs(np.asarray(on_graph.coeffs, dtype=float)).max() < 1e-8
    recon = jet_compose(rotated, reduction.to_t)
    assert np.abs(
        np.asarray((recon - reduction.reduced).coeffs, dtype=float)
    ).max() < 1e-8


def test_unresolved_paths():
    # the 6-jet of t^9 is identically zero: order too small to decide
    with pytest.raises(UnresolvedOrderError):
        classify_germ(poly_germ(1, 6, {}))
    with pytest.raises(CorankTooHighError):
        classify_germ(poly_germ(3, 4, {(3, 0, 0): 1.0, (0, 3, 0): 1.0, (0, 0, 3): 1.0}))
    modal = classify_germ(poly_germ(2, 6, {(4, 0): 1.0, (0, 4): 1.0}))
    assert modal.kind == "Unresolved"
    assert "modality" in modal.reason
    with pytest.raises(NotOnDiscriminantError):
        classify_germ(poly_germ(1, 4, {(0,): 1.0, (3,): 1.0}))
    regular = classify_germ(poly_germ(1, 4, {(1,): 1.0, (3,): 1.0}))
    assert regular.kind == "Regular"


def test_germ_values(bundled):
    g = germ_jet(bundled["a2"], [0.0], [0.0, 1.0, 0.0], 4)
    assert g.jet.coefficient((3,)) == pytest.approx(-1 / 3, abs=1e-12)
    assert abs(g.jet.coefficient((2,))) < 1e-12
    g3 = germ_jet(bundled["a3"], [0.0], [0.0, 1.0, 0.0], 5)
    assert g3.jet.coefficient((4,)) == pytest.approx(-1 / 8, abs=1e-12)
    g6 = germ_jet(bundled["d4"], [0.0, 0.0], [0.0, 0.0, 1.0, 0.0], 4)
    assert g6.jet.coefficient((3, 0)) == pytest.approx(-2.0, abs=1e-12)
    assert g6.jet.coefficient((1, 2)) == pytest.approx(-2.0, abs=1e-12)
    g4 = germ_jet(bundled["a4"], [0.0, 0.0], [0.0, 0.0, 1.0, 0.0], 6)
    assert g4.jet.coefficient((5, 0)) == pytest.approx(1.0, abs=1e-12)
    assert g4.jet.coefficient((0, 2)) == pytest.approx(-0.5, abs=1e-12)


def test_germ_near_discriminant_warns(bundled):
    from darboux.errors import ToleranceWarning

    with pytest.warns(ToleranceWarning):
        germ_jet(bundled["a2"], [0.0], [1e-6, 1.0, 0.0], 4)


def test_versality_matrix_ranks(bundled):
    x0 = envelope_point(bundled["a2"], [0.0], 1.0)
    rows, rank = versality_matrix(bundled["a2"], [0.0], x0, 2)
    assert rows.shape == (2, 3)
    assert rank == 2
    x0 = envelope_point(bundled["a3"], [0.0], 1.0)
    rows, rank = versality_matrix(bundled["a3"], [0.0], x0, 3)
    assert rows.shape == (3, 3)
    assert rank == 3
    with pytest.raises(NotAkPointError):
        versality_matrix(bundled["a2"], [0.0], x0, 3)


def test_versality_rows_match_cross_products(bundled):
    """For curves the first two rows are cross products of the frame."""
    from darboux.frame import frame_fields, vec_values, vec_partial

    s = bundled["a2"]
    x0 = envelope_point(s, [0.0], 1.0)
    rows, _ = versality_matrix(s, [0.0], x0, 2)
    ff = frame_fields(s, [0.0], 3)
    gamma1 = vec_values(ff.X[0])
    xi = vec_values(ff.xi)
    cross = np.cross(gamma1, xi)
    # rows are defined up to the bracket orientation
    ratio = rows[0] @ cross / (np.linalg.norm(cross) ** 2)
    assert np.abs(rows[0] - ratio * cross).max() < 1e-12


def test_classify_envelope_point_catalog(bundled):
    expected = {
        "a2": "A2", "a3": "A3", "a4": "A4", "a5": "A5",
        "d4": "D4", "d5": "D5", "e6": "E6", "e7": "E7", "e8": "E8",
    }
    for name in ("a2", "a3", "a4", "d4"):
        s = bundled[name]
        rep = classify_envelope_point(s, [0.0] * s.n, 1.0)
        assert rep["class"] == expected[name]
        assert rep["versal"] is True
    with pytest.raises(NotOnDiscriminantError):
        classify_envelope_point(bundled["a2"], [0.0], 0.5)


def test_classify_envelope_point_rejects_nan_u(bundled):
    # A NaN distance to the regression values must fail the membership test.
    with pytest.raises(NotOnDiscriminantError):
        classify_envelope_point(bundled["a2"], [0.0], float("nan"))


@pytest.mark.parametrize("u", [float("inf"), float("-inf")])
def test_classify_envelope_point_rejects_infinite_u(bundled, monkeypatch, u):
    # Rejected before any geometry: an infinite tolerance would accept it.
    import darboux.singular as singular

    def unreachable(*args):
        raise AssertionError("regression values computed for a non-finite u")

    monkeypatch.setattr(singular, "regression_values", unreachable)
    with pytest.raises(NotOnDiscriminantError):
        classify_envelope_point(bundled["a2"], [0.0], u)


@pytest.mark.parametrize("name", ["a3", "e6"])
def test_classification_splits_once_and_takes_no_ambient_determinant(bundled, monkeypatch, name):
    """One classification builds the germ once, splits it once, and reads
    the family's ambient partials without an (n+2) x (n+2) determinant."""
    import darboux.jets as jets
    import darboux.singular as singular
    from darboux.frame import frame_fields

    s = bundled[name]
    t0 = [0.0] * s.n
    for order in (1, 6):  # frames are built (and cached) outside the count
        frame_fields(s, t0, order)
    calls = {"split": 0, "germ": 0, "dets": []}

    def counting(key, original):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapped

    original_det = jets.jet_det

    def det(matrix):
        calls["dets"].append(len(matrix))
        return original_det(matrix)

    monkeypatch.setattr(singular, "_split", counting("split", singular._split))
    monkeypatch.setattr(singular, "germ_jet", counting("germ", singular.germ_jet))
    monkeypatch.setattr(jets, "jet_det", det)
    rep = classify_envelope_point(s, t0, 1.0)
    assert rep["versal"] is True
    assert calls["split"] == 1
    assert calls["germ"] == 1
    assert s.n + 2 not in calls["dets"]


@pytest.mark.parametrize("name", ["a2", "a4", "d4", "e6", "e7", "e8"])
def test_verdicts_invariant_under_axis_scaling(bundled, name):
    """z -> c z scales the family's ambient partials unevenly; the class
    and the versality verdict stay."""
    s = bundled[name]
    expected = classify_envelope_point(s, [0.0] * s.n, 1.0)["class"]
    for c in (1e-8, 1e-3, 1e3, 1e8):
        scaled = build_scene(f"({c})*({s.f_text})", s.g_text, s.n, name=name)
        rep = classify_envelope_point(scaled, [0.0] * s.n, 1.0)
        assert rep["class"] == expected, c
        assert rep["versal"] is True, c
