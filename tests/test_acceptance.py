"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from darboux import (
    apolarity_defect,
    blaschke_compatibility,
    build_scene,
    classify_envelope_point,
    darboux_direction,
    envelope_point,
    equiaffine_defect,
    eval_jet,
    load_bundled,
    nondegeneracy,
    normal_curvature,
    parallel_field_exists,
    parse_expression,
    regression_values,
    structure_coefficients,
    tau_form,
    transon_vs_normal_plane,
    versality_matrix,
)
from darboux.envelope import shape_operator
from darboux.errors import DegenerateError
from darboux.expr import eval_scalar
from darboux.metricbundle import affine_normal_plane, hypersurface_blaschke

from conftest import make_parallel_corpus, nonflat_grid, random_cubic_scene
from pencil_oracle import planarity_residual as transon_planarity_residual


def report(number, label, passed_flag):
    status = "PASS" if passed_flag else "FAIL"
    print(f"[{status}] criterion {number:2d}: {label}")
    assert passed_flag, f"criterion {number}: {label}"


def _partial(jet, alpha):
    fact = 1.0
    for e in alpha:
        fact *= math.factorial(e)
    return float(jet.coefficient(tuple(alpha))) * fact


def test_c01_shape_operator_reproduction():
    """Computed S1(0) matches the mixed t-t-y partials on 25 random scenes
    satisfying the normal-form hypotheses (identity tangential Hessian,
    vanishing mixed t-y Hessian, and no coupling between a y^2 term and
    the submanifold Hessian)."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(25):
        n = int(rng.integers(1, 4))
        t_names = ["t"] if n == 1 else [f"t{i}" for i in range(1, n + 1)]
        with_y2 = bool(rng.integers(0, 2))
        terms = [f"{v}^2/2" for v in t_names]
        if with_y2:
            terms.append("y^2/2")
        for i, a in enumerate(t_names):
            for b in t_names[i:]:
                terms.append(f"({rng.uniform(-0.6, 0.6)})*{a}*{b}*y")
                terms.append(f"({rng.uniform(-0.6, 0.6)})*{a}*{b}*{t_names[-1]}")
        gterms = ["0"]
        for i, a in enumerate(t_names):
            for b in t_names[i:]:
                if with_y2:
                    # keep f_yy(0) * Hess g(0) = 0 by making g cubic only
                    gterms.append(f"({rng.uniform(-0.6, 0.6)})*{a}*{b}*{t_names[0]}")
                else:
                    gterms.append(f"({rng.uniform(-0.6, 0.6)})*{a}*{b}")
        scene = build_scene(" + ".join(terms), " + ".join(gterms), n)
        jf = eval_jet(scene.f, scene.f_names, [0.0] * (n + 1), 3)
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                alpha = [0] * (n + 1)
                alpha[i] += 1
                alpha[j] += 1
                alpha[n] += 1
                expected[i, j] = _partial(jf, alpha)
        got = structure_coefficients(scene, [0.0] * n).S1
        worst = max(worst, float(np.abs(got - expected).max()))
    report(1, f"shape operator matches mixed partials (worst {worst:.2e})",
           worst < 1e-9)


def test_c02_singularity_catalog():
    expected = {
        "a2": "A2", "a3": "A3", "a4": "A4", "a5": "A5", "d4": "D4",
        "d5": "D5", "e6": "E6", "e7": "E7", "e8": "E8",
    }
    got = {}
    for name, label in expected.items():
        scene = load_bundled(name)
        rep = classify_envelope_point(scene, [0.0] * scene.n, 1.0, order=6)
        got[name] = rep["class"]
    ok = got == expected
    report(2, f"singularity catalog {got}", ok)


def test_c03_versality_ranks():
    a2 = load_bundled("a2")
    a3 = load_bundled("a3")
    _, rank2 = versality_matrix(a2, [0.0], envelope_point(a2, [0.0], 1.0), 2)
    _, rank3 = versality_matrix(a3, [0.0], envelope_point(a3, [0.0], 1.0), 3)
    report(3, f"versality ranks A2 -> {rank2}, A3 -> {rank3}",
           rank2 == 2 and rank3 == 3)


def test_c04_degeneracy_detection():
    scene = build_scene("t*y", "0", 1)
    det = nondegeneracy(scene, [0.0])
    caught = False
    try:
        darboux_direction(scene, [0.0])
    except DegenerateError as err:
        caught = abs(err.determinant) < 1e-12
    report(4, f"hyperbolic graph scene degenerate (|det h2| = {abs(det):.1e})",
           caught and abs(det) < 1e-12)


def test_c05_equivalence_chain():
    scenes, grids = make_parallel_corpus()
    ok = True
    detail = []
    for name, scene in scenes.items():
        for point in grids[name]:
            values = [
                float(np.abs(tau_form(scene, list(point))).max()),
                float(np.abs(apolarity_defect(scene, list(point))).max()),
                float(np.abs(equiaffine_defect(scene, list(point))).max()),
            ]
            if not all(v < 1e-7 for v in values):
                ok = False
                detail.append((name, point, values))
    nonflat = load_bundled("nonflat")
    for point in nonflat_grid():
        values = [
            float(np.abs(tau_form(nonflat, list(point))).max()),
            float(np.abs(apolarity_defect(nonflat, list(point))).max()),
            float(np.abs(equiaffine_defect(nonflat, list(point))).max()),
        ]
        if not all(v > 1e-4 for v in values):
            ok = False
            detail.append(("nonflat", point, values))
    report(5, f"equivalence chain, no mixed verdicts {detail if detail else ''}", ok)


def test_c06_flatness_counterexample():
    ok = True
    notes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k1, k2 in ((1.0, 0.0), (2.0, 1.0), (3.0, 1.0)):
            scene = build_scene(
                f"(t1^2 + t2^2 + y^2)/2 + (({k1})*t1^2 + ({k2})*t2^2)*y/2",
                "t1*t2", 2,
            )
            d = normal_curvature(scene, [0.0, 0.0])[0, 1]
            if abs(d - (k1 - k2)) > 1e-7:
                ok = False
            notes.append(f"dtau({k1:g},{k2:g})={d:.6f}")
            rep = parallel_field_exists(scene, [(-0.2, 0.2, 5), (-0.2, 0.2, 5)])
            if rep.verdict != "not exists":
                ok = False
        # the k1 = k2 member of the family with an exact parallel field
        equal = build_scene(
            "(t1^2 + t2^2 + y^2)/2 + (0*t1^2 + 0*t2^2)*y/2", "t1*t2", 2
        )
        rep = parallel_field_exists(equal, [(-0.2, 0.2, 5), (-0.2, 0.2, 5)])
        cert = (
            rep.verdict == "exists"
            and rep.loop_residual < 1e-6
            and rep.tangency_residual < 1e-6
        )
        if not cert:
            ok = False
        notes.append(f"k1=k2 verdict={rep.verdict}")
    report(6, "; ".join(notes), ok)


def test_c07_normal_plane_values():
    scene = load_bundled("cubic-curve")
    xi, eta = affine_normal_plane(scene, [0.0])
    zeta = hypersurface_blaschke(scene, [0.0]).zeta
    ok = (
        np.abs(eta - np.array([-1.0, 0.0, 1.0])).max() < 1e-9
        and np.abs(xi - np.array([0.0, 1.0, 0.0])).max() < 1e-9
        and np.abs(zeta - np.array([0.0, 0.0, 1.0])).max() < 1e-9
    )
    item6_c3 = blaschke_compatibility(scene, [0.0])["items"][5]
    flat = build_scene("(t^2 + y^2)/2", "0", 1)
    item6_c0 = blaschke_compatibility(flat, [0.0])["items"][5]
    ok = ok and item6_c3 is False and item6_c0 is True
    report(7, f"eta={eta}, xi={xi}, zeta={zeta}, item6: {item6_c3}/{item6_c0}", ok)


def test_c08_transon_planarity():
    rng = np.random.default_rng(808)
    sweep = [-0.2, -0.1, 0.0, 0.1, 0.2]
    worst = 0.0
    for k in range(10):
        n = 1 + (k % 2)
        scene = random_cubic_scene(rng, n)
        worst = max(worst, transon_planarity_residual(scene, [0.0] * n, sweep))
    rot = build_scene("(t1^2 + t2^2 + y^2)/2", "0", 2)
    rot_res = transon_planarity_residual(rot, [0.0, 0.0], sweep)
    report(8, f"planarity residuals: random {worst:.2e}, symmetric {rot_res:.2e}",
           worst < 1e-6 and rot_res < 1e-12)


def test_c09_transon_matches_parallelism():
    scenes, grids = make_parallel_corpus()
    ok = True
    checked = 0
    mismatches = []
    cases = [(name, scenes[name], grids[name]) for name in scenes]
    cases.append(("nonflat", load_bundled("nonflat"), nonflat_grid()))
    for name, scene, grid in cases:
        for point in grid:
            tau = float(np.abs(tau_form(scene, list(point))).max())
            if 1e-7 <= tau <= 1e-4:
                continue  # documented indeterminate band
            _, verdict = transon_vs_normal_plane(scene, list(point))
            expected = "coincide" if tau < 1e-7 else "distinct"
            checked += 1
            if verdict != expected:
                ok = False
                mismatches.append((name, point, tau, verdict))
    report(9, f"transon/parallel agreement at {checked} points {mismatches}", ok)


def test_c10_envelope_regression_rank():
    rng = np.random.default_rng(1010)
    scenes = [
        load_bundled("a2"),
        build_scene("t^2/2 + t^3/6 + t^2*y", "0", 1),
        load_bundled("d4"),
        load_bundled("nonflat"),
    ]
    h = 1e-5

    def jacobian(scene, t, u):
        n = scene.n
        cols = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            cols.append(
                (envelope_point(scene, t + h * e, u)
                 - envelope_point(scene, t - h * e, u)) / (2 * h)
            )
        cols.append(
            (envelope_point(scene, t, u + h) - envelope_point(scene, t, u - h))
            / (2 * h)
        )
        return np.column_stack(cols)

    full = 0
    for _ in range(50):
        scene = scenes[int(rng.integers(0, len(scenes)))]
        t = rng.uniform(-0.1, 0.1, scene.n)
        regs = regression_values(scene, t)
        u = float(rng.uniform(0.2, 2.0))
        while regs and min(abs(u - r) for r in regs) < 1e-3:
            u = float(rng.uniform(0.2, 2.0))
        sv = np.linalg.svd(jacobian(scene, t, u), compute_uv=False)
        if sv[-1] > 1e-5 * sv[0]:
            full += 1
    drops = 0
    for _ in range(20):
        scene = scenes[int(rng.integers(0, len(scenes)))]
        t = rng.uniform(-0.1, 0.1, scene.n)
        regs = regression_values(scene, t)
        if not regs:
            continue
        u = regs[int(rng.integers(0, len(regs)))]
        sv = np.linalg.svd(jacobian(scene, t, u), compute_uv=False)
        if sv[-1] < 1e-5 * sv[0]:
            drops += 1
    report(10, f"jacobian full rank {full}/50 off regression, drop {drops}/20 on",
           full == 50 and drops == 20)


def test_c11_jet_arithmetic_oracle():
    import sympy

    rng = np.random.default_rng(1111)
    ok = True
    for case in range(100):
        nvars = int(rng.integers(1, 4))
        names = ["t"] if nvars == 1 else [f"t{i}" for i in range(1, nvars + 1)]
        terms = []
        for _ in range(6):
            exps = rng.integers(0, 4, nvars)
            while exps.sum() > 5:
                exps = rng.integers(0, 4, nvars)
            num, den = int(rng.integers(-8, 9)), int(rng.integers(1, 5))
            mono = "*".join(f"{v}^{int(e)}" for v, e in zip(names, exps) if e)
            terms.append(f"({num}/{den})" + (f"*{mono}" if mono else ""))
        text = " + ".join(terms)
        expr = parse_expression(text, names)
        point = rng.uniform(-0.4, 0.4, nvars)
        jet = eval_jet(expr, names, point, 2)

        def fn(q):
            return eval_scalar(expr, names, q)

        def richardson_first(i):
            e = np.zeros(nvars)
            e[i] = 1.0

            def central(step):
                return (fn(point + step * e) - fn(point - step * e)) / (2 * step)

            return (4 * central(5e-4) - central(1e-3)) / 3

        def richardson_second(i, j):
            ei = np.zeros(nvars)
            ei[i] = 1.0
            ej = np.zeros(nvars)
            ej[j] = 1.0

            def central(step):
                if i == j:
                    return (fn(point + step * ei) - 2 * fn(point)
                            + fn(point - step * ei)) / step**2
                return (
                    fn(point + step * (ei + ej)) - fn(point + step * (ei - ej))
                    - fn(point - step * (ei - ej)) + fn(point - step * (ei + ej))
                ) / (4 * step**2)

            return (4 * central(5e-4) - central(1e-3)) / 3

        for i in range(nvars):
            alpha = [0] * nvars
            alpha[i] = 1
            fd = richardson_first(i)
            if abs(jet.coefficient(tuple(alpha)) - fd) > 1e-6 * (1 + abs(fd)):
                ok = False
            for j in range(i, nvars):
                beta = [0] * nvars
                beta[i] += 1
                beta[j] += 1
                factor = 2.0 if i == j else 1.0
                fd2 = richardson_second(i, j) / factor
                if abs(jet.coefficient(tuple(beta)) - fd2) > 1e-6 * (1 + abs(fd2)):
                    ok = False

        if case < 25:
            symbols = [sympy.Symbol(n) for n in names]
            spoly = sympy.Rational(0)
            for term in terms:
                spoly += sympy.sympify(term.replace("^", "**"))
            rational_point = [Fraction(int(rng.integers(-3, 4)), 5) for _ in names]
            exact = eval_jet(expr, names, rational_point, 2, exact=True)
            subs = {s: sympy.Rational(p.numerator, p.denominator)
                    for s, p in zip(symbols, rational_point)}
            for alpha in exact.space.indices:
                dpoly = spoly
                fact = 1
                for s, e in zip(symbols, alpha):
                    dpoly = sympy.diff(dpoly, s, e)
                    fact *= math.factorial(e)
                target = sympy.Rational(dpoly.subs(subs)) / fact
                mine = exact.coefficient(alpha)
                if Fraction(int(target.p), int(target.q)) != mine:
                    ok = False
    report(11, "jet coefficients match finite differences and exact substitution", ok)


def test_c12_curve_criteria_consistency():
    rng = np.random.default_rng(1212)
    cases = []
    for a in (1.0, -1.0, 2.0, 0.5, 0.8):
        cases.append((build_scene(f"t^2/2 + ({a})*t^3/6 + t^2*y/2", "0", 1), 0.0))
    for b in (1.0, -2.0, 0.7):
        cases.append((build_scene(f"t^2/2 + ({b})*t^4/24 + t^2*y/2", "0", 1), 0.0))
    cases.append((build_scene("t^2/2 + t^3/6 + (t^2/2 + t^3/2)*y", "0", 1), 0.0))
    cases.append((build_scene("t^2/2 + t^4/24 + t^2*y/2", "0", 1), 0.12))
    cases.append((build_scene("t^2/2 + t^3/6 + t^2*y/2", "0", 1), 0.07))
    mapping = {"CuspidalEdge": "A2", "Swallowtail": "A3"}
    from darboux import as_curve, curve_singularity

    agree = 0
    for scene, t0 in cases:
        verdict = curve_singularity(as_curve(scene), t0)
        u = regression_values(scene, [t0])[0]
        rep = classify_envelope_point(scene, [t0], u)
        if mapping.get(verdict) == rep["class"]:
            agree += 1
    report(12, f"curve criteria vs germ classes: {agree}/{len(cases)} agree",
           agree == len(cases))
