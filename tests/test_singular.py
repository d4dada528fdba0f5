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
from darboux.jets import Jet, jet_space, jet_compose, stacked
from darboux.singular import (Germ, SingularityClass, _certified, _classify, _graded_ranks,
                              _local_algebra, split_germ)

from conftest import forbid_compose


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
    # x y^(d-1) terms, removed before the pure power y^d is read
    ({(2, 1): 1.0, (1, 3): 1.0, (0, 5): 1.0}, 2, 6, "D6"),
    ({(2, 1): 1.0, (1, 3): 2.0, (0, 4): 1.0}, 2, 6, "D5"),
    ({(2, 1): 1.0, (0, 7): 1.0}, 2, 8, "D8"),
    # E12, 7-determined: certified, with mu 12
    ({(3, 0): 1.0, (0, 7): 1.0}, 2, 7, "Unresolved(modality suspected)"),
]

# The lowest order at which each label is read: A_k at k + 1, D4 at 3, D_k at
# k - 1, E6 at 4, E7 and E8 at 5.  The cube x^3 + y^7 is named non-simple at 5,
# where its lower bound mu_D (9) passes 8, before the 7-jet certifies it.
LOWEST_ORDER = {"Morse": 2, "A2": 3, "A3": 4, "A4": 5, "A7": 8, "D4": 3, "D5": 4,
                "D6": 5, "D7": 6, "D8": 7, "E6": 4, "E7": 5, "E8": 5,
                "Unresolved(modality suspected)": 5}


@pytest.mark.parametrize("terms,n,order,label", NORMAL_FORMS)
def test_normal_form_catalog(terms, n, order, label):
    """The label, and the dimension of the local algebra equals its Milnor
    number."""
    germ = poly_germ(n, order, terms)
    klass, reduction = _classify(germ)
    assert klass.label == label
    if klass.milnor is not None:
        unfolding = stacked([Jet.constant(germ.jet.space, 1.0, order)])
        assert _local_algebra(reduction, unfolding)[0] == klass.milnor


@pytest.mark.parametrize("terms,n,order,label", NORMAL_FORMS)
def test_labels_first_read_at_the_certified_order(terms, n, order, label):
    """Below its lowest order a germ asks for one order more; from there on,
    through order 9, it reads its own label and no other."""
    for k in range(2, 10):
        germ = poly_germ(n, k, {alpha: v for alpha, v in terms.items() if sum(alpha) <= k})
        if k < LOWEST_ORDER[label]:
            with pytest.raises(UnresolvedOrderError) as err:
                classify_germ(germ)
            assert err.value.needed_order == k + 1, (label, k)
        else:
            assert classify_germ(germ).label == label, k


@pytest.mark.parametrize("terms,n,label", [
    ({(3,): 1e-3, (4,): 1.0}, 1, "A2"),
    ({(2, 1): 1.0, (0, 4): 1e-3, (0, 5): 1.0}, 2, "D5"),
])
def test_small_leading_terms_keep_the_label(terms, n, label):
    """A leading term 1e-3 the size of the next one, also after the germ's
    coordinates are stretched 100-fold: each column's pivot is read on the
    rows of its own degree, so the small pivots of a triangular ideal do not
    multiply into a lost rank at the higher orders."""
    for k in range(LOWEST_ORDER[label], 10):
        germ = poly_germ(n, k, {alpha: v for alpha, v in terms.items() if sum(alpha) <= k})
        coords = Jet.coordinates(germ.jet.space, np.zeros(n))
        stretched = jet_compose(germ.jet, [c * 100.0 for c in coords])
        for jet in (germ.jet, stretched):
            assert classify_germ(Germ(nvars=n, order=k, jet=jet)).label == label, k


def test_mu_is_read_through_the_certified_order():
    """x^4 + y^4 is 4-determined, and its algebra's socle, x^2 y^2, has
    degree 4: the order-4 jet certifies mu 9, though through degree 3 the
    algebra reads only 8."""
    reduction, _ = split_germ(poly_germ(2, 4, {(4, 0): 1.0, (0, 4): 1.0}))
    sp = jet_space(2, 5)
    assert _certified(reduction.jacobian, sp)
    assert reduction.colengths[4] == 9
    assert reduction.colengths[3] == 8


@pytest.mark.parametrize("extra,versal", [((1, 1), False), ((0, 2), True)])
def test_d4_versality_is_read_in_the_local_algebra(extra, versal):
    """For x^3 - x y^2 the Jacobian ideal holds xy, so the unfolding
    {1, x, y, xy} misses the quadratic of the local algebra, though its
    monomials span 4 = mu directions; {1, x, y, y^2} reaches it."""
    germ = poly_germ(2, 6, {(3, 0): 1.0, (1, 2): -1.0})
    klass, reduction = _classify(germ)
    sp = germ.jet.space
    x, y = Jet.coordinates(sp, np.zeros(2))
    unfolding = [Jet.constant(sp, 1.0, 6), x, y, x ** extra[0] * y ** extra[1]]
    mu, rank, rows = _local_algebra(reduction, stacked(unfolding))
    assert mu == klass.milnor == 4
    assert _graded_ranks(rows, reduction.reduced.space.degrees).sum() == 4
    assert (rank == mu) is versal


def test_mu_D_below_the_milnor_number_leaves_versality_undecided(bundled, monkeypatch):
    """e6 read as if its Milnor number were 7: its local algebra through
    degree D = 5 reads 6, too few to decide the versal rank, so the verdict
    is None."""
    import darboux.singular as singular

    def one_more(germ):
        klass, reduction = _classify(germ)
        return SingularityClass("E", k=7, corank=2, milnor=klass.milnor + 1), reduction

    monkeypatch.setattr(singular, "_classify", one_more)
    s = bundled["e6"]
    rep = classify_envelope_point(s, [0.0] * s.n, 1.0)
    assert rep["versal"] is None and rep["versal_method"] == "rank"
    assert rep["diagnostics"] == ["order 6 reads mu_D 6 < mu 7: versality undecided"]


def test_classification_invariant_under_linear_changes():
    """Each case at the lowest order that certifies it, where RANK_RTOL
    decides the certificate."""
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
        order = LOWEST_ORDER[label]
        germ = poly_germ(n, order, terms)
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
            got = classify_germ(Germ(nvars=n, order=order, jet=changed)).label
            assert got == label, f"{label} broke under {A}"


def test_classification_invariant_under_scaling():
    for scale in (3.0, -2.0, 1e-3, 1e4):
        germ = poly_germ(2, 6, {(3, 0): 1.0, (0, 5): 1.0})
        scaled = Germ(nvars=2, order=6, jet=germ.jet * scale)
        assert classify_germ(scaled).label == "E8"


def test_splitting_reduction_residuals():
    """The derivatives along the regular directions vanish on the critical
    graph to_t, which is a graph in t, and the germ restricted to it is the
    reduced germ."""
    germ = poly_germ(
        3, 6,
        {(2, 0, 0): 0.5, (0, 2, 0): -0.5, (0, 0, 3): 1.0, (1, 0, 2): 0.7,
         (0, 1, 3): -0.4, (0, 0, 5): 0.9},
    )
    # Turned off the axes, so t and the rotated coordinates differ.
    R, _ = np.linalg.qr(np.array([[2.0, 1.0, 0.5], [-1.0, 1.5, 0.3], [0.4, -0.2, 1.0]]))
    coords = Jet.coordinates(germ.jet.space, np.zeros(3))
    inners = [sum(coords[j] * float(R[i, j]) for j in range(3)) for i in range(3)]
    germ = Germ(nvars=3, order=6, jet=jet_compose(germ.jet, inners))
    reduction, scale = split_germ(germ)
    assert reduction.corank == 1
    assert np.abs(reduction.rotation - np.eye(3)).max() > 0.1
    jet = germ.jet * (1.0 / scale)
    partials = [jet.derivative(j) for j in range(3)]
    for i in range(2):
        slope = sum(partials[j] * float(reduction.rotation[j, i]) for j in range(3))
        on_graph = jet_compose(slope, reduction.to_t)
        assert np.abs(np.asarray(on_graph.coeffs, dtype=float)).max() < 1e-8
    recon = jet_compose(jet, reduction.to_t)
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
    # a perfect cube with no E-type term through order 5
    cube = classify_germ(poly_germ(2, 6, {(3, 0): 1.0, (0, 6): 1.0}))
    assert cube.label == "Unresolved(modality suspected)"
    # the order each undecided branch asks for: a cube read at orders 3 and
    # 4, x^2 y with no pure power through order 6, and t^6 in a germ of order 4
    for germ, needed in ((poly_germ(2, 3, {(3, 0): 1.0}), 4), (poly_germ(2, 4, {(3, 0): 1.0}), 5),
                         (poly_germ(2, 6, {(2, 1): 1.0}), 7),
                         (Germ(nvars=1, order=4, jet=poly_germ(1, 6, {(6,): 1.0}).jet), 5)):
        with pytest.raises(UnresolvedOrderError) as err:
            classify_germ(germ)
        assert err.value.needed_order == needed


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


def test_reduced_germ_of_rounding_only_asks_for_one_order_more(bundled):
    """nonflat's 3-jet has no term past its Hessian, so the reduced germ
    holds only rounding (a z^2 term near 1e-17): it must not read as a Morse
    term of the ideal.  The 4-jet names the A3 point."""
    from darboux.envelope import regression_values

    s = bundled["nonflat"]
    u = regression_values(s, [0.0, 0.0])[0]
    rep = classify_envelope_point(s, [0.0, 0.0], u, order=3)
    assert rep["class"] == "Unresolved(order exceeded)"
    assert rep["diagnostics"] == ["jet order too small; need at least 4"]
    assert classify_envelope_point(s, [0.0, 0.0], u, order=4)["class"] == "A3"


@pytest.mark.parametrize("c", [1e-12, 1e-8, 1.0, 1e8])
def test_classify_tolerance_is_relative_to_the_regression_value(bundled, c):
    # xi -> c xi moves the cuspidal edge of a2 to u = 1/c; half of it is off
    # the discriminant whatever c is.
    s = bundled["a2"]
    scaled = build_scene(s.f_text, s.g_text, 1, xi_scale_text=repr(c))
    assert classify_envelope_point(scaled, [0.0], 1.0 / c)["class"] == "A2"
    with pytest.raises(NotOnDiscriminantError):
        classify_envelope_point(scaled, [0.0], 0.5 / c)


def test_classify_envelope_point_rejects_nan_u(bundled):
    # A NaN distance to the regression values must fail the membership test.
    with pytest.raises(NotOnDiscriminantError):
        classify_envelope_point(bundled["a2"], [0.0], float("nan"))


@pytest.mark.parametrize("u", [float("inf"), float("-inf")])
def test_classify_envelope_point_rejects_infinite_u(bundled, monkeypatch, u):
    # Rejected before any geometry: an infinite tolerance would accept it.
    import darboux.singular as singular

    def unreachable(*args):
        raise AssertionError("frame built for a non-finite u")

    monkeypatch.setattr(singular, "frame_fields", unreachable)
    with pytest.raises(NotOnDiscriminantError):
        classify_envelope_point(bundled["a2"], [0.0], u)


@pytest.mark.parametrize("name", ["a3", "e6"])
def test_classification_splits_once_and_takes_no_ambient_determinant(bundled, monkeypatch, name):
    """One classification builds the germ once, splits it once, and reads
    the family's ambient partials without an (n+2) x (n+2) determinant:
    neither ``jet_det`` nor ``jet_solve``, whose pivots any jet determinant
    is read off, runs on a matrix of that size."""
    import sys

    import darboux.singular as singular
    from darboux.frame import frame_fields

    s = bundled[name]
    t0 = [0.0] * s.n
    for order in (1, 6):  # frames are built (and cached) outside the count
        frame_fields(s, t0, order)
    calls = {"split": 0, "germ": 0, "jet_det": [], "jet_solve": []}

    def counting(key, original):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapped

    def sizes(key, original):
        def wrapped(matrix, *args):
            calls[key].append(len(matrix))
            return original(matrix, *args)
        return wrapped

    monkeypatch.setattr(singular, "_split", counting("split", singular._split))
    monkeypatch.setattr(singular, "germ_jet", counting("germ", singular.germ_jet))
    for module_name, module in list(sys.modules.items()):
        for key in ("jet_det", "jet_solve"):
            if module_name.split(".")[0] == "darboux" and hasattr(module, key):
                monkeypatch.setattr(module, key, sizes(key, getattr(module, key)))
    rep = classify_envelope_point(s, t0, 1.0)
    assert rep["versal"] is True
    assert calls["split"] == 1
    assert calls["germ"] == 1
    assert s.n + 2 not in calls["jet_det"] + calls["jet_solve"], calls


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "a5", "d4", "d5", "e6", "e7", "e8"])
def test_verdicts_invariant_under_axis_scaling(bundled, name):
    """z -> c z scales the family's ambient partials unevenly, and at
    c = 1e-40 makes every germ coefficient tiny in absolute terms; the class
    and the versality verdict stay."""
    s = bundled[name]
    expected = classify_envelope_point(s, [0.0] * s.n, 1.0)["class"]
    for c in (1e-40, 1e-8, 1e-3, 1e3, 1e8):
        scaled = build_scene(f"({c})*({s.f_text})", s.g_text, s.n, name=name)
        rep = classify_envelope_point(scaled, [0.0] * s.n, 1.0)
        assert rep["class"] == expected, c
        assert rep["versal"] is True, c


def test_linear_changes_are_matrices_not_jet_compositions(bundled, monkeypatch):
    """Splitting composes a germ only with inner jets in its kernel
    variables (a corank-n germ once, with its critical graph to_t), and a
    Monge frame composes no jets."""
    import darboux.singular as singular
    import darboux.transon as transon

    calls = []
    compose = singular.jet_compose

    def spy(outer, inner):
        calls.append((outer.space.nvars, inner[0].space.nvars, inner))
        return compose(outer, inner)

    monkeypatch.setattr(singular, "jet_compose", spy)
    for name in ("e6", "e7", "e8", "d5", "a5"):
        s = bundled[name]
        t0 = [0.0] * s.n
        germ = germ_jet(s, t0, envelope_point(s, t0, 1.0), 6)
        calls.clear()
        classify_germ(germ)
        in_own_space = [c for c in calls if c[0] == s.n and c[1] == s.n]
        assert calls and not in_own_space, name

    R, _ = np.linalg.qr(np.array([[2.0, 1.0, 0.5], [-1.0, 1.5, 0.3], [0.4, -0.2, 1.0]]))
    cubic = poly_germ(3, 4, {(3, 0, 0): 1.0, (0, 3, 0): 1.0, (0, 0, 3): 1.0})
    coords = Jet.coordinates(cubic.jet.space, np.zeros(3))
    inners = [sum(coords[j] * float(R[i, j]) for j in range(3)) for i in range(3)]
    calls.clear()
    reduction, _ = split_germ(Germ(nvars=3, order=4, jet=compose(cubic.jet, inners)))
    assert reduction.corank == 3
    own = [c[2] for c in calls if c[0] == 3]
    assert len(own) == 1 and own[0] is reduction.to_t

    forbid_compose(monkeypatch, "monge_frame")
    points = {"cubic-curve": [0.1], "nonflat": [0.07, -0.04], "d5": [0.07, -0.04, 0.07]}
    for name, t in points.items():
        mf = transon.monge_frame(bundled[name], t)
        assert np.abs(mf.linear @ mf.inverse - np.eye(bundled[name].n + 2)).max() < 1e-12


def test_shared_inner_maps_are_composed_once(bundled, monkeypatch):
    """Outer jets that share an inner map are stacked into one composition:
    the r slopes once per fixed-point step of the e8 split, the n + 2
    family gradients once per local-algebra read, and the phi of a curve
    table's batch frame (for the residuals and the invariants) once, then
    its xi, lam and h2_prov (for the adapted bracket), over the s-jets of
    its rows."""
    import darboux.curve as curve
    import darboux.singular as singular
    from darboux.envelope import family_gradient
    from darboux.frame import frame_fields

    calls = []
    compose = singular.jet_compose

    def spy(outer, inner):
        calls.append((outer.coeffs.shape[:-1], inner))
        return compose(outer, inner)

    monkeypatch.setattr(singular, "jet_compose", spy)
    monkeypatch.setattr(curve, "jet_compose", spy)
    s = bundled["e8"]
    t0 = [0.0] * s.n
    germ = germ_jet(s, t0, envelope_point(s, t0, 1.0), 6)
    calls.clear()
    reduction, _ = split_germ(germ)
    r = s.n - reduction.corank
    assert r >= 2
    steps = [shape for shape, _ in calls[:-1]]
    assert steps == [(r,)] * germ.order, steps
    assert calls[-1][0] == () and calls[-1][1] is reduction.to_t

    gradient = stacked(family_gradient(frame_fields(s, t0, germ.order)))
    calls.clear()
    mu, rank, _ = singular._local_algebra(reduction, gradient)
    assert rank == mu == 8
    assert [shape for shape, _ in calls] == [(s.n + 2,)]
    a4 = bundled["a4"]
    calls.clear()
    versality_matrix(a4, [0.0] * a4.n, envelope_point(a4, [0.0] * a4.n, 1.0), 4)
    shapes = [shape for shape, _ in calls]
    assert shapes[-1] == (a4.n + 2,) and shapes.count((a4.n + 2,)) == 1, shapes

    calls.clear()
    curve.invariants_table(curve.as_curve(bundled["cubic-curve"]), (-0.1, 0.1), 5)
    assert [shape for shape, _ in calls] == [(3, 5), (5, 5)]
    assert [[jet.coeffs.shape[:-1] for jet in inner] for _, inner in calls] == [[(5,)]] * 2


@pytest.mark.parametrize("name", ["e6", "e7", "e8", "d5", "a5"])
def test_classification_builds_one_frame_and_no_order_one_space(bundled, monkeypatch, name):
    """The regression check, x0, the germ and the versality read share the
    germ's order-6 frame: one frame build, and no (n, 3) jet space, the
    space of an order-1 frame."""
    import sys

    import darboux.frame as frame_mod

    frame_mod._fields.cache_clear()
    builds, spaces = [], []
    build = frame_mod.FrameFields._build

    def counted_build(self, scene, t0, order):
        builds.append(order)
        build(self, scene, t0, order)

    def counted_space(real):
        def space(nvars, order):
            spaces.append((nvars, order))
            return real(nvars, order)
        return space

    monkeypatch.setattr(frame_mod.FrameFields, "_build", counted_build)
    for module in [m for key, m in sys.modules.items() if key.startswith("darboux")]:
        if hasattr(module, "jet_space"):
            monkeypatch.setattr(module, "jet_space", counted_space(module.jet_space))
    s = bundled[name]
    classify_envelope_point(s, [0.0] * s.n, 1.0, order=6)
    assert builds == [6]
    assert (s.n, 8) in spaces and (s.n, 3) not in spaces


@pytest.mark.parametrize("order", [1, 0, -1])
def test_classify_needs_order_two(bundled, order):
    for name in ("a2", "d4"):
        s = bundled[name]
        with pytest.raises(UnresolvedOrderError, match="need at least 2"):
            classify_envelope_point(s, [0.0] * s.n, 1.0, order=order)


def test_corank_two_germ_at_order_two_is_unresolved(bundled):
    # The cubic part lies past an order-2 jet.
    s = bundled["d5"]
    report = classify_envelope_point(s, [0.0] * s.n, 1.0, order=2)
    assert report["class"] == "Unresolved(order exceeded)"
    assert report["diagnostics"] == ["jet order too small; need at least 3"]
