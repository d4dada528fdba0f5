"""Jet arithmetic: ring axioms, calculus, composition, linear algebra."""

import itertools
import math
import operator
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from darboux.errors import DomainError, ExactModeError, ShapeMismatchError, SingularBasisError
from darboux.jets import (
    Jet, JetSpace, fitted, fixed_point, jet_compose, jet_det, jet_dot, jet_hessian, jet_solve,
    jet_space, value_dot,
)

from conftest import (antiderivative, bracket, cofactor_det, constant_like, padded,
                      reference_pow, reference_reciprocal, same_bits, stores_through_its_degree)

SP2 = jet_space(2, 4)


def random_jet(rng, space=SP2, scale=1.0):
    return Jet(space, rng.uniform(-scale, scale, space.size))


coeff_lists = st.lists(
    st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=SP2.size,
    max_size=SP2.size,
)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms_float(a, b, c):
    ja = Jet(SP2, np.array(a))
    jb = Jet(SP2, np.array(b))
    jc = Jet(SP2, np.array(c))
    lhs = (ja * jb) * jc
    rhs = ja * (jb * jc)
    scale = max(np.abs(lhs.coeffs).max(), 1.0)
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-12 * scale
    dist = ja * (jb + jc)
    direct = ja * jb + ja * jc
    assert np.abs(dist.coeffs - direct.coeffs).max() < 1e-12 * scale
    comm = ja * jb - jb * ja
    assert np.abs(comm.coeffs).max() < 1e-12 * scale


def test_ring_axioms_exact():
    rng = np.random.default_rng(5)
    sp = jet_space(2, 3)

    def rational_jet():
        coeffs = np.array(
            [Fraction(int(v), int(d)) for v, d in
             zip(rng.integers(-9, 10, sp.size), rng.integers(1, 7, sp.size))],
            dtype=object,
        )
        return Jet(sp, coeffs)

    for _ in range(10):
        a, b, c = rational_jet(), rational_jet(), rational_jet()
        assert list(((a * b) * c).coeffs) == list((a * (b * c)).coeffs)
        assert list((a * (b + c)).coeffs) == list((a * b + a * c).coeffs)


def test_reciprocal_and_division():
    sp = jet_space(1, 5)
    t = Jet.variable(sp, 0, 0.0)
    one = Jet.constant(sp, 1.0)
    q = (one + t).reciprocal()
    assert np.allclose(q.coeffs, [1, -1, 1, -1, 1, -1])
    prod = q * (one + t)
    assert np.allclose(prod.coeffs, [1, 0, 0, 0, 0, 0], atol=1e-14)
    with pytest.raises(DomainError):
        t.reciprocal()


def test_exact_division():
    sp = jet_space(1, 3)
    t = Jet.variable(sp, 0, Fraction(0), exact=True)
    one = Jet.constant(sp, 1, exact=True)
    q = one / (one + t * 2)
    assert list(q.coeffs) == [Fraction(1), Fraction(-2), Fraction(4), Fraction(-8)]


def test_derivative_antiderivative_roundtrip():
    rng = np.random.default_rng(11)
    sp = jet_space(1, 6)
    j = Jet(sp, rng.uniform(-1, 1, sp.size), order=5)
    back = antiderivative(j.derivative(0), 0)
    # antiderivative drops the constant term
    expected = j.coeffs.copy()
    expected[0] = 0.0
    assert np.allclose(back.coeffs[: sp.truncation_length(5)],
                       expected[: sp.truncation_length(5)])


def test_elementary_functions_match_known_series():
    sp = jet_space(1, 5)
    t = Jet.variable(sp, 0, 0.0)
    s = t.sin()
    assert np.allclose(s.coeffs, [0, 1, 0, -1 / 6, 0, 1 / 120])
    e = t.exp()
    assert np.allclose(e.coeffs, [1, 1, 1 / 2, 1 / 6, 1 / 24, 1 / 120])
    lg = (Jet.constant(sp, 1.0) + t).log()
    assert np.allclose(lg.coeffs, [0, 1, -1 / 2, 1 / 3, -1 / 4, 1 / 5])
    sq = (Jet.constant(sp, 1.0) + t).sqrt()
    assert np.allclose(sq.coeffs[:3], [1, 0.5, -0.125])
    with pytest.raises(DomainError):
        (t - 1).log()
    with pytest.raises(DomainError):
        (t - 1).sqrt()


def test_compose_simple():
    sp1 = jet_space(1, 2)
    outer_sp = jet_space(1, 2)
    outer = Jet(outer_sp, np.array([1.0, 2.0, 1.0]))  # u^2 at base u = 1
    inner = Jet(sp1, np.array([1.0, 1.0, 0.0]))       # 1 + t
    comp = jet_compose(outer, [inner])
    assert np.allclose(comp.coeffs, [1.0, 2.0, 1.0])


def test_compose_shape_checks():
    sp1 = jet_space(1, 2)
    sp2 = jet_space(2, 2)
    outer = Jet(sp2, np.zeros(sp2.size))
    with pytest.raises(ShapeMismatchError):
        jet_compose(outer, [Jet(sp1, np.zeros(sp1.size))])


def test_compose_matches_symbolic_substitution():
    import sympy

    rng = np.random.default_rng(23)
    x, y, u, v = sympy.symbols("x y u v")
    for _ in range(6):
        sp_in = jet_space(2, 4)
        sp_out = jet_space(2, 4)

        def rand_poly(symbols, deg=3):
            poly = 0
            for _ in range(6):
                e1, e2 = rng.integers(0, deg + 1, 2)
                poly += sympy.Rational(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) \
                    * symbols[0] ** int(e1) * symbols[1] ** int(e2)
            return poly

        f = rand_poly((u, v))
        g1 = rand_poly((x, y))
        g2 = rand_poly((x, y))
        base = (float(g1.subs({x: 0, y: 0})), float(g2.subs({x: 0, y: 0})))

        def jet_of(poly, symbols, space, point):
            coeffs = np.zeros(space.size)
            shifted = sympy.expand(
                poly.subs({symbols[0]: symbols[0] + sympy.Rational(point[0]),
                           symbols[1]: symbols[1] + sympy.Rational(point[1])})
            ) if any(point) else sympy.expand(poly)
            pdict = sympy.Poly(shifted, *symbols).as_dict()
            for exps, c in pdict.items():
                if sum(exps) <= space.order:
                    coeffs[space.index_of[tuple(int(e) for e in exps)]] = float(c)
            return Jet(space, coeffs)

        outer = jet_of(f, (u, v), sp_out, [sympy.Rational(b) for b in base])
        in1 = jet_of(g1, (x, y), sp_in, (0, 0))
        in2 = jet_of(g2, (x, y), sp_in, (0, 0))
        comp = jet_compose(outer, [in1, in2])
        target = sympy.expand(f.subs({u: g1, v: g2}, simultaneous=True))
        tdict = sympy.Poly(target, x, y).as_dict() if target != 0 else {}
        expected = np.zeros(sp_in.size)
        for exps, c in tdict.items():
            if sum(exps) <= sp_in.order:
                expected[sp_in.index_of[tuple(int(e) for e in exps)]] = float(c)
        scale = max(np.abs(expected).max(), 1.0)
        assert np.abs(comp.coeffs - expected).max() < 1e-10 * scale


def _convolve(space, a, b, order):
    """Truncated product by dict convolution over exponent tuples."""
    ca = {alpha: a.coefficient(alpha) for alpha in space.indices}
    cb = {beta: b.coefficient(beta) for beta in space.indices}
    out = {}
    for alpha, x in ca.items():
        for beta, y in cb.items():
            gamma = tuple(p + q for p, q in zip(alpha, beta))
            if sum(gamma) <= order:
                out[gamma] = out.get(gamma, 0) + x * y
    return out


def _any_jet(rng, space, order, exact):
    if exact:
        ints = rng.integers(-9, 10, space.size)
        return Jet(space, np.array([Fraction(int(k), 7) for k in ints], dtype=object), order)
    return Jet(space, rng.uniform(-1, 1, space.size), order)


@pytest.mark.parametrize("nvars,order", [(1, 5), (2, 4), (3, 4)])
def test_truncated_products_match_convolution(nvars, order):
    sp = jet_space(nvars, order)
    rng = np.random.default_rng(nvars * 10 + order)
    for r in range(order):
        for exact in (False, True):
            def make(o):
                return _any_jet(rng, sp, o, exact)

            for a, b in ((make(r), make(order)), (make(order), make(r)), (make(r), make(r))):
                prod = a * b
                assert prod.order == r
                assert prod.exact == exact
                expected = _convolve(sp, a, b, r)
                for alpha in sp.indices:
                    got = prod.coefficient(alpha)
                    want = expected.get(alpha, 0)
                    if exact:
                        assert got == want
                    else:
                        assert abs(got - want) < 1e-13


def test_non_finite_taylor_coefficients_are_a_domain_error_naming_their_rows():
    x = Jet.coordinates(jet_space(1, 3), np.array([[0.5], [np.nan], [1.0], [np.inf]]))[0]
    for function in (Jet.exp, Jet.log, Jet.sqrt, Jet.sin):  # math.sin(inf) raises
        with pytest.raises(DomainError, match="out of float range") as err:
            function(x)
        assert err.value.rows.tolist() == [1, 3]
    # A coefficient that overflows as it is computed names its row too.
    x = Jet.coordinates(jet_space(1, 3), np.array([[1.0], [800.0], [-2.0]]))[0]
    with pytest.raises(DomainError, match="out of float range at value 800.0") as err:
        x.exp()
    assert err.value.rows.tolist() == [1]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_exact_jets_hold_only_fractions(nvars, order, data):
    sp = jet_space(nvars, order)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a, b = (_any_jet(rng, sp, data.draw(st.integers(0, order)), True) for _ in range(2))
    a.coeffs[0] = Fraction(3, 2)
    k, var = data.draw(st.integers(0, order)), data.draw(st.integers(0, nvars - 1))
    made = [a + b, a - b, -a, a * b, a * 2, 2 * a, a * Fraction(1, 3), a + 1, 1 - a,
            a / Fraction(2, 3), a ** 3, a.reciprocal(), a.truncated(k)]
    made += [a.derivative(var)] if a.order >= 1 else []
    made += [antiderivative(a, var)] if a.order < order else []
    for jet in made:
        assert jet.exact
        assert all(type(c) is Fraction for c in jet.coeffs)


def test_scalar_product_matches_constant_jet_bitwise():
    sp = jet_space(3, 4)
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-1, 1, sp.size)
    coeffs[rng.random(sp.size) < 0.3] = 0.0
    coeffs[rng.random(sp.size) < 0.2] = -0.0
    for order in (4, 2):
        jet = Jet(sp, coeffs.copy(), order)
        for c in (2.5, -3, -1.0, 0, -0.0, np.float64(0.7)):
            reference = jet * Jet.constant(sp, c, order)
            for prod in (jet * c, c * jet):
                assert prod.order == reference.order
                assert prod.coeffs.tobytes() == reference.coeffs.tobytes()
                assert not np.signbit(prod.coeffs[prod.coeffs == 0]).any()


def test_bool_fraction_and_exact_products_take_general_path(monkeypatch):
    # The general path meets a number as a constant jet.
    sp = jet_space(2, 3)
    calls = []
    constant = Jet.constant

    def counting_constant(*args, **kwargs):
        calls.append(1)
        return constant(*args, **kwargs)

    monkeypatch.setattr(Jet, "constant", staticmethod(counting_constant))
    jet = Jet(sp, np.linspace(-1, 1, sp.size))
    assert np.array_equal((jet * True).coeffs, jet.coeffs)
    assert len(calls) == 1
    third = jet * Fraction(1, 3)
    assert not third.exact
    assert np.allclose(third.coeffs, jet.coeffs / 3)
    assert len(calls) == 2
    jet * 2.0
    assert len(calls) == 2
    exact = Jet(sp, np.array([Fraction(k, 5) for k in range(sp.size)], dtype=object))
    for prod in (exact * 3, 0.5 * exact):
        assert prod.exact
        assert all(isinstance(c, Fraction) for c in prod.coeffs)
    assert list((exact * 3).coeffs) == [Fraction(3 * k, 5) for k in range(sp.size)]
    assert list((0.5 * exact).coeffs) == [Fraction(k, 10) for k in range(sp.size)]


def _loop_tables(space):
    """Index tables built entry by entry; the multiplication table is then
    stably sorted by the degree of its target slot."""
    indices, index_of = space.indices, space.index_of
    mi, mj, mk = [], [], []
    for i, alpha in enumerate(indices):
        room = space.order - sum(alpha)
        for j in range(space.prefix[room + 1]):
            mi.append(i)
            mj.append(j)
            mk.append(index_of[tuple(a + b for a, b in zip(alpha, indices[j]))])
    rows = sorted(zip(mi, mj, mk), key=lambda row: sum(indices[row[2]]))
    tables = dict(zip(("mul_i", "mul_j", "mul_k"), (list(col) for col in zip(*rows))))
    tables["mul_end"] = [sum(1 for row in rows if sum(indices[row[2]]) <= d)
                         for d in range(space.order + 1)]
    tables["parent_index"] = [0] * space.size
    tables["parent_var"] = [0] * space.size
    for i, alpha in enumerate(indices[1:], start=1):
        v = next(k for k in range(space.nvars) if alpha[k] > 0)
        beta = list(alpha)
        beta[v] -= 1
        tables["parent_index"][i] = index_of[tuple(beta)]
        tables["parent_var"][i] = v
    for v in range(space.nvars):
        dst, src, fac = [], [], []
        for i, alpha in enumerate(indices):
            beta = list(alpha)
            beta[v] += 1
            if tuple(beta) in index_of:
                dst.append(i)
                src.append(index_of[tuple(beta)])
                fac.append(beta[v])
        tables[f"diff_map_{v}"] = (dst, src, fac)
    return tables


@pytest.mark.parametrize("nvars,order", [(2, 3), (3, 4), (6, 4)])
def test_vectorized_tables_match_loop(nvars, order):
    sp = jet_space(nvars, order)
    tables = _loop_tables(sp)
    assert sp.mul_end == tables.pop("mul_end")
    got = {name: getattr(sp, name) for name in ("mul_i", "mul_j", "mul_k",
                                               "parent_index", "parent_var")}
    got.update((f"diff_map_{v}", m) for v, m in enumerate(sp.diff_maps))
    assert got.keys() == tables.keys()
    for name, want in tables.items():
        want = np.array(want, dtype=np.int64)
        assert np.asarray(got[name]).dtype == np.int64, name
        assert np.array_equal(got[name], want), name
    assert np.array_equal(sp.degrees, [sum(alpha) for alpha in sp.indices])
    # exact jets differentiate and integrate through the same maps, slot by slot
    jet = _any_jet(np.random.default_rng(nvars + order), sp, order - 1, True)
    for v in range(nvars):
        d_want, a_want = [Fraction(0)] * sp.size, [Fraction(0)] * sp.size
        for dst, src, fac in zip(*tables[f"diff_map_{v}"]):
            d_want[dst] = padded(jet)[src] * fac
            a_want[src] = padded(jet)[dst] / Fraction(fac)
        for got, want in ((jet.derivative(v), d_want), (antiderivative(jet, v), a_want)):
            cut = sp.truncation_length(got.order)
            assert got.exact and len(got.coeffs) == cut
            assert all(type(c) is Fraction for c in got.coeffs)
            assert list(got.coeffs) == want[:cut]


def test_space_too_large_to_index():
    with pytest.raises(ShapeMismatchError):
        JetSpace(64, 1)


def test_jet_solve_and_det():
    sp = jet_space(1, 3)
    t = Jet.variable(sp, 0, 0.0)
    one = Jet.constant(sp, 1.0)
    A = [[one + t, t], [t, one - t]]
    det = jet_det([row[:] for row in A])
    # (1+t)(1-t) - t^2 = 1 - 2t^2
    assert np.allclose(det.coeffs, [1, 0, -2, 0], atol=1e-14)
    x, dd = jet_solve(A, [one, t])
    # residual check
    r0 = A[0][0] * x[0] + A[0][1] * x[1] - one
    r1 = A[1][0] * x[0] + A[1][1] * x[1] - t
    assert np.abs(r0.coeffs).max() < 1e-13
    assert np.abs(r1.coeffs).max() < 1e-13


@pytest.mark.parametrize("nvars, order", [(1, 5), (2, 4), (5, 8)])
def test_products_match_the_plain_gather_bitwise(nvars, order):
    """Products gather their first factor into the space's row; the results
    are the plain gather's, and no result aliases the row."""
    sp = jet_space(nvars, order)
    rng = np.random.default_rng(8)
    a, b = random_jet(rng, sp), random_jet(rng, sp)
    results = []
    for cut in (order, order // 2, order):
        mul_i, mul_j, mul_k = sp.pairs(cut)[:3]
        want = np.bincount(mul_k, weights=a.coeffs[mul_i] * b.coeffs[mul_j],
                           minlength=sp.truncation_length(cut))
        got = Jet(sp, a.coeffs, cut) * b
        assert got.order == cut and got.coeffs.tobytes() == want.tobytes()
        results.append((got, want))
    assert all(got.coeffs.tobytes() == want.tobytes() for got, want in results)


def test_jet_solve_pivots_relative_to_their_column():
    sp = jet_space(1, 3)
    t = Jet.variable(sp, 0, 0.0)
    one = Jet.constant(sp, 1.0)
    # columns of sizes 1e-4 and 1e10: regular, although the first pivot is
    # below 1e-13 of the largest entry of the matrix
    A = [[one * 1e-4 + t, t], [t * 1e10, one * 1e10 + t]]
    x, _ = jet_solve(A, [one, t])
    for row, b in zip(A, [one, t]):
        residual = row[0] * x[0] + row[1] * x[1] - b
        assert np.abs(residual.coeffs).max() < 1e-12 * np.abs(x[0].coeffs).max()
    # singular in the value parts, whatever the nilpotent parts, or with a
    # column at rounding level next to an O(1) column: its pivot is above
    # 1e-13 of its column but not of its row
    for singular in ([[one, one * 2 + t], [one * 2, one * 4]],
                     [[one * 1e-4, one * 1e10], [one * 2e-4, one * 2e10 + t]],
                     [[t, one], [t * 3, one * 2]],
                     [[one, one * 1e-17], [one * 2, one * 3e-17]]):
        with pytest.raises(SingularBasisError):
            jet_solve(singular, [one, t])


def test_det_of_a_singular_value_part_names_its_rows():
    """A determinant is read off the solve's pivots, so a value part that is
    singular raises as the solve does, naming the batch rows that fail,
    where a nilpotent determinant such as det diag(1, 1, t) = t is not read."""
    sp = jet_space(1, 3)
    t = Jet.variable(sp, 0, 0.0)
    one = Jet.constant(sp, 1.0)
    zero = Jet.constant(sp, 0.0)
    for solve in (lambda A: jet_solve(A, []), jet_det):
        with pytest.raises(SingularBasisError, match="singular value part") as err:
            solve([[one, zero, zero], [zero, one, zero], [zero, zero, t]])
        assert err.value.rows is None
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-1, 1, (4, 2, 2, sp.size))
    coeffs[..., 0] = [np.eye(2), [[0, 1], [0, 3]], [[2, 1], [1, 2]], [[0, 2], [0, 1]]]
    matrix = [[Jet(sp, coeffs[:, r, c]) for c in range(2)] for r in range(2)]
    for solve in (lambda A: jet_solve(A, []), jet_det):
        with pytest.raises(SingularBasisError) as err:
            solve(matrix)
        assert err.value.rows.tolist() == [1, 3]


def test_bracket_orientation():
    sp = jet_space(1, 2)
    one = Jet.constant(sp, 1.0)
    zero = Jet.constant(sp, 0.0)
    X1 = [one, zero, zero]
    eta = [zero, zero, one]
    xi = [zero, one, zero]
    assert float(bracket([X1, eta, xi]).value) == pytest.approx(1.0)


# -- number paths against the constant-jet routes they replace ----------------
#
# The references build every constant as a Jet and use only jet-jet sums and
# products, the way the engine did before numbers met jets directly.


def _reference_analytic(jet, taylor_coeffs):
    u = Jet(jet.space, jet.coeffs.copy(), jet.order)
    u.coeffs[0] = 0.0
    acc = constant_like(jet, taylor_coeffs[-1])
    for c in reversed(taylor_coeffs[:-1]):
        acc = acc * u + constant_like(jet, c)
    return acc


def _reference_compose(outer, inner, mul=operator.mul):
    sp = inner[0].space
    order = min([outer.order] + [jet.order for jet in inner])
    us = []
    for jet in inner:
        u = Jet(sp, jet.coeffs.copy(), order)
        u.coeffs[0] = 0
        us.append(u)
    one = Jet.constant(sp, 1, order)
    monos = [one]
    osp = outer.space
    limit = osp.truncation_length(min(order, outer.order))
    for i in range(1, limit):
        monos.append(mul(monos[osp.parent_index[i]], us[osp.parent_var[i]]))
    acc = Jet.constant(sp, 0, order)
    for i in range(limit):
        c = outer.coeffs[i]
        if c:
            acc = acc + mul(monos[i], Jet.constant(sp, c, order))
    return acc


def _signed_zero_rows(space, seed):
    """Random full-length rows with exact and negative zeros, each with an
    order: the space order and below it (with live coefficients past it)."""
    rng = np.random.default_rng(seed)
    rows = []
    for order in (space.order, max(space.order - 2, 0)):
        coeffs = rng.uniform(-1, 1, space.size)
        coeffs[rng.random(space.size) < 0.25] = 0.0
        coeffs[rng.random(space.size) < 0.25] = -0.0
        coeffs[0] = rng.uniform(0.5, 1.5)
        rows.append((coeffs, order))
    return rows


def _signed_zero_jets(space, seed):
    """The jets of :func:`_signed_zero_rows`, cut at their orders: the live
    coefficients past the lower order must not leak."""
    return [Jet(space, coeffs, order) for coeffs, order in _signed_zero_rows(space, seed)]


NUMBER_SPACES = [(1, 5), (2, 4), (3, 3)]


@pytest.mark.parametrize("nvars,order", NUMBER_SPACES)
def test_number_sums_and_quotients_match_constant_jets_bitwise(nvars, order):
    sp = jet_space(nvars, order)
    for jet in _signed_zero_jets(sp, nvars + 7 * order):
        for c in (2.5, -3, 1, 0, 0.0, -0.0, np.float64(-0.7), -jet.coeffs[0]):
            k = constant_like(jet, c)
            assert same_bits(jet + c, jet + k)
            assert same_bits(c + jet, k + jet)
            assert same_bits(jet - c, jet - k)
            assert same_bits(c - jet, k - jet)
            if c:
                assert same_bits(jet / c, jet * reference_reciprocal(k))
            assert not np.signbit((jet + c).coeffs[1:][(jet + c).coeffs[1:] == 0]).any()


def test_division_by_a_vanishing_number_raises():
    jet = Jet.variable(jet_space(2, 3), 0, 0.5)
    for c in (0, 0.0, -0.0, 1e-301):
        with pytest.raises(DomainError):
            jet / c
    exact = Jet.variable(jet_space(1, 3), 0, Fraction(1, 2), exact=True)
    with pytest.raises(DomainError):
        exact / Fraction(0)
    assert list(padded(exact / Fraction(2, 3))) == [Fraction(3, 4), Fraction(3, 2), 0, 0]
    assert list(padded(exact + Fraction(1, 2) - 1)) == [Fraction(0), Fraction(1), 0, 0]


@pytest.mark.parametrize("nvars,order", NUMBER_SPACES)
def test_powers_match_constant_one_start_bitwise(nvars, order):
    sp = jet_space(nvars, order)
    for jet in _signed_zero_jets(sp, 3 * nvars + order):
        for k in range(6):
            assert same_bits(jet**k, reference_pow(jet, k)), k
    exact = Jet(sp, np.array([Fraction(i - 3, 4) for i in range(sp.size)], dtype=object))
    for k in range(6):
        assert list((exact**k).coeffs) == list(reference_pow(exact, k).coeffs)


@pytest.mark.parametrize("nvars,order", NUMBER_SPACES + [(2, 0)])
def test_reciprocal_and_analytic_match_constant_jets_bitwise(nvars, order):
    sp = jet_space(nvars, order)
    for jet in _signed_zero_jets(sp, 5 * nvars + order):
        assert same_bits(jet.reciprocal(), reference_reciprocal(jet))
        v, o = float(jet.value), jet.order
        fact = [math.factorial(k) for k in range(o + 1)]
        sin_table = [math.sin(v), math.cos(v), -math.sin(v), -math.cos(v)]
        sqrt_coeffs, c = [], 1.0
        for k in range(o + 1):
            sqrt_coeffs.append(c * v ** (0.5 - k))
            c *= (0.5 - k) / (k + 1)
        assert same_bits(jet.sin(), _reference_analytic(
            jet, [sin_table[k % 4] / fact[k] for k in range(o + 1)]))
        assert same_bits(jet.exp(), _reference_analytic(
            jet, [math.exp(v) / fact[k] for k in range(o + 1)]))
        assert same_bits(jet.sqrt(), _reference_analytic(jet, sqrt_coeffs))
    exact = Jet(sp, np.array([Fraction(i + 2, 3) for i in range(sp.size)], dtype=object))
    assert list(exact.reciprocal().coeffs) == list(reference_reciprocal(exact).coeffs)


@pytest.mark.parametrize("outer_shape,inner_shape", [((1, 4), (1, 4)), ((2, 4), (3, 3)),
                                                     ((3, 3), (2, 4))])
def test_compose_matches_constant_one_monomials_bitwise(outer_shape, inner_shape):
    osp, isp = jet_space(*outer_shape), jet_space(*inner_shape)
    rng = np.random.default_rng(sum(outer_shape) * 10 + sum(inner_shape))
    zero_valued = np.where(rng.random(osp.size) < 0.5, -0.0, rng.uniform(-1, 1, osp.size))
    zero_valued[0] = -0.0
    outers = _signed_zero_jets(osp, 17) + [Jet(osp, zero_valued), Jet(osp, -np.zeros(osp.size))]
    for outer in outers:
        for inner_order in (isp.order, 1):
            inner = []
            for jet in _signed_zero_jets(isp, int(rng.integers(100)))[:osp.nvars]:
                inner.append(Jet(isp, jet.coeffs, inner_order))
            while len(inner) < osp.nvars:
                inner.append(Jet(isp, rng.uniform(-1, 1, isp.size), inner_order))
            assert same_bits(jet_compose(outer, inner), _reference_compose(outer, inner))


class _GeneralPathJet(Jet):
    """A jet whose type keeps it off the float jet-jet fast path."""

    __slots__ = ()


def _reference_float_op(op, a, b):
    """A float jet-jet sum, difference or product from its definition: the
    product sums over the whole pair table, then both mask past the order."""
    if op is operator.mul:
        return _full_table_product(a, b)
    sp, order = a.space, min(a.order, b.order)
    out = op(padded(a), padded(b))
    out[sp.truncation_length(order):] = 0
    return Jet(sp, out, order)


@pytest.mark.parametrize("nvars,order", NUMBER_SPACES)
def test_float_fast_paths_match_general_path_bitwise(nvars, order):
    sp = jet_space(nvars, order)
    jets = _signed_zero_jets(sp, 11 * nvars + order)
    wild = jets[0].coeffs.copy()
    wild[1], wild[-1] = np.inf, np.nan
    jets.append(Jet(sp, wild, order - 1))
    for a in jets:
        for b in jets:
            general = _GeneralPathJet(sp, b.coeffs.copy(), b.order)
            for op in (operator.add, operator.sub, operator.mul):
                with np.errstate(invalid="ignore"):  # inf - inf, inf * 0
                    fast = op(a, b)
                    assert type(fast) is Jet
                    assert same_bits(fast, op(a, general)), op
                    assert same_bits(fast, _reference_float_op(op, a, b)), op


def test_exact_is_recorded_for_every_way_to_make_a_jet():
    sp = jet_space(2, 3)
    for exact in (False, True):
        made = [Jet.constant(sp, 1, exact=exact), Jet.variable(sp, 0, 2, exact=exact),
                *Jet.coordinates(sp, [1, 2], order=2, exact=exact)]
        for jet in list(made):
            made += [jet.truncated(1), jet.derivative(0), antiderivative(jet.truncated(2), 1),
                     -jet, jet + jet, jet - jet, jet * jet, jet * 3, jet - 1, 2 + jet]
        assert all(jet.exact is exact for jet in made)
        assert all(jet.to_float().exact is False for jet in made)
    assert Jet(sp, np.zeros(sp.size)).exact is False
    assert Jet(sp, np.array([Fraction(0)] * sp.size, dtype=object)).exact is True


def test_float_and_exact_operands_still_coerce_to_float():
    sp = jet_space(2, 3)
    rng = np.random.default_rng(5)
    f = Jet(sp, rng.uniform(-1, 1, sp.size))
    e = _any_jet(rng, sp, 2, exact=True)
    for op in (operator.add, operator.sub, operator.mul):
        for a, b in ((f, e), (e, f)):
            got = op(a, b)
            assert got.exact is False
            want = op(a.to_float(), b.to_float())
            assert same_bits(got, want)


def test_jets_of_different_spaces_still_raise():
    same_shape = JetSpace(2, 3)  # equal to jet_space(2, 3) but another object
    a = Jet(jet_space(2, 3), np.ones(10))
    for b in (Jet(same_shape, np.ones(10)), Jet(jet_space(2, 2), np.ones(6)),
              Jet(jet_space(3, 3), np.ones(20))):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ShapeMismatchError):
                op(a, b)
            with pytest.raises(ShapeMismatchError):
                op(b, a)


def test_jet_hessian_reads_the_second_derivatives():
    # f = 1 + x + 3 x^2 + 2 x y - z^2 + 5 y z
    sp = jet_space(3, 3)
    coeffs = np.zeros(sp.size)
    for alpha, c in (((0, 0, 0), 1), ((1, 0, 0), 1), ((2, 0, 0), 3), ((1, 1, 0), 2),
                     ((0, 0, 2), -1), ((0, 1, 1), 5)):
        coeffs[sp.index_of[alpha]] = c
    want = np.array([[6.0, 2.0, 0.0], [2.0, 0.0, 5.0], [0.0, 5.0, -2.0]])
    assert np.array_equal(jet_hessian(Jet(sp, coeffs), 3), want)
    assert np.array_equal(jet_hessian(Jet(sp, coeffs), 2), want[:2, :2])


# -- batched outer jets over one monomial table ----------------------------------


def _rows_of(jet):
    return [Jet(jet.space, row, jet.order) for row in jet.coeffs.reshape(-1, jet.coeffs.shape[-1])]


@pytest.mark.parametrize("outer_shape,inner_shape", [((1, 4), (1, 4)), ((2, 4), (3, 3)),
                                                     ((3, 3), (2, 4))])
def test_stacked_outer_rows_match_reference_bitwise(outer_shape, inner_shape):
    """Each row of a batched-outer composition, with one or two batch axes,
    is bit-identical to the reference composition of that row alone."""
    osp, isp = jet_space(*outer_shape), jet_space(*inner_shape)
    rng = np.random.default_rng(sum(outer_shape) * 7 + sum(inner_shape))
    rows = [coeffs for coeffs, _ in _signed_zero_rows(osp, 23)]
    rows += [rng.uniform(-1, 1, osp.size) for _ in range(3)] + [-np.zeros(osp.size)]
    for order in (osp.order, osp.order - 1):
        stack = np.stack(rows)
        for batch in (stack, stack.reshape(2, 3, osp.size)):
            outer = Jet(osp, batch.copy(), order)
            for inner_order in (isp.order, 1):
                inner = [Jet(isp, coeffs, inner_order)
                         for coeffs, _ in _signed_zero_rows(isp, int(rng.integers(100)))]
                inner = (inner * osp.nvars)[:osp.nvars]
                got = jet_compose(outer, inner)
                assert got.coeffs.shape[:-1] == batch.shape[:-1] and stores_through_its_degree(got)
                for row, want_outer in zip(_rows_of(got), _rows_of(outer)):
                    assert same_bits(row, _reference_compose(want_outer, inner))


def test_e8_shaped_composition_matches_reference_bitwise():
    """The splitting shape of an e8 germ: (6, 6) outer jets over a critical
    graph of (2, 6) inner jets, one at a time and stacked."""
    osp, isp = jet_space(6, 6), jet_space(2, 6)
    rng = np.random.default_rng(86)
    outers = [Jet(osp, rng.uniform(-1, 1, osp.size)) for _ in range(3)]
    inner = [Jet(isp, np.concatenate(([0.0], rng.uniform(-1, 1, isp.size - 1))))
             for _ in range(6)]
    want = [_reference_compose(outer, inner) for outer in outers]
    for outer, ref in zip(outers, want):
        assert same_bits(jet_compose(outer, inner), ref)
    stacked = jet_compose(Jet(osp, np.stack([outer.coeffs for outer in outers])), inner)
    for row, ref in zip(_rows_of(stacked), want):
        assert same_bits(row, ref)


def test_exact_composition_matches_the_reference():
    """Fraction outer and inner jets compose exactly, to the sum of c_alpha
    times the displacements' powers; a Fraction outer over float inner jets
    composes in float, bit-identical to the reference."""
    osp = isp = jet_space(2, 3)
    outer = Jet(osp, np.array([Fraction(k - 4, 3) for k in range(osp.size)], dtype=object))
    inner = [Jet(isp, np.array([Fraction((3 * k + v) % 7 - 3, 5) for k in range(isp.size)],
                               dtype=object)) for v in range(2)]
    got = jet_compose(outer, inner)
    assert got.exact and all(isinstance(c, Fraction) for c in got.coeffs)
    us = [Jet(isp, np.array([Fraction(0)] + list(jet.coeffs[1:]), dtype=object)) for jet in inner]
    want = Jet.constant(isp, 0, exact=True)
    for alpha, c in zip(osp.indices, outer.coeffs):
        term = Jet.constant(isp, c, exact=True)
        for u, power in zip(us, alpha):
            term = term * u**power
        want = want + term
    assert list(got.coeffs) == list(want.coeffs)
    floats = [jet.to_float() for jet in inner]
    assert same_bits(jet_compose(outer, floats), _reference_compose(outer, floats))


def test_stacked_composition_memory_stays_near_the_table():
    """Composing 8 stacked (6, 6) outer jets over (2, 6) inner jets sums in
    chunks of table rows: all 8 x 924 x 28 terms at once would take 8 times
    the monomial table's bytes."""
    import tracemalloc

    osp, isp = jet_space(6, 6), jet_space(2, 6)
    rng = np.random.default_rng(88)
    outer = Jet(osp, rng.uniform(-1, 1, (8, osp.size)))
    inner = [Jet(isp, rng.uniform(-1, 1, isp.size)) for _ in range(6)]
    jet_compose(outer, inner)  # the spaces' tables are built outside the count
    table_bytes = osp.size * isp.size * 8
    tracemalloc.start()
    try:
        jet_compose(outer, inner)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * table_bytes, peak / table_bytes


# -- fixed points ------------------------------------------------------------


def _fixed_point_maps(u, h):
    """Maps x -> F(x) whose degree-d coefficients read x below degree d
    only (u has no value part, h no value or linear part), each working at
    the order d it is given: a square, an exponential and, for one point,
    a composition."""
    sp = u.space

    def at(x, d):
        return Jet(sp, x.coeffs, d)

    maps = {
        "square": lambda x, d: u + at(x, d) * at(x, d) * 0.7,
        "exp": lambda x, d: u * at(x, d).exp(),
    }
    if u.coeffs.ndim == 1:
        maps["compose"] = lambda x, d: u + jet_compose(h, [at(x, d)])
    return maps


@pytest.mark.parametrize("nvars,order,batch", [(2, 6, ()), (2, 6, (3,)), (3, 4, (2, 2))])
def test_fixed_point_matches_full_order_passes_bitwise(nvars, order, batch):
    """Working at order d on pass d settles the same bits as order + 1
    passes at the full order, on every batch row, and the last increment
    of the settled jet is zero."""
    sp = jet_space(nvars, order)
    rng = np.random.default_rng(16)
    u = Jet(sp, rng.uniform(-1, 1, batch + (sp.size,)))
    u.coeffs[..., 0] = 0.0
    hsp = jet_space(1, order)
    h = Jet(hsp, rng.uniform(-1, 1, hsp.size))
    h.coeffs[:2] = 0.0
    start = Jet.constant(sp, 0.0, batch=batch)
    for name, step in _fixed_point_maps(u, h).items():
        want = start
        for _ in range(order + 1):
            want = step(want, order)
        got, increment = fixed_point(step, start, order, 0)
        assert same_bits(got, want), name
        assert not increment.coeffs.any(), name
        for row in np.ndindex(*batch):
            one = Jet(sp, u.coeffs[row])
            alone, _ = fixed_point(_fixed_point_maps(one, h)[name], Jet.constant(sp, 0.0), order, 0)
            assert alone.coeffs.tobytes() == got.coeffs[row].tobytes(), (name, row)


def test_fixed_point_cut_short_leaves_an_increment():
    """A start claimed exact beyond what it is skips the passes that would
    settle it, and the last increment shows the unsettled degrees."""
    sp = jet_space(2, 5)
    u = Jet(sp, np.random.default_rng(17).uniform(-1, 1, sp.size))
    u.coeffs[0] = 0.0
    step = _fixed_point_maps(u, None)["square"]
    _, increment = fixed_point(step, Jet.constant(sp, 0.0), 5, 3)
    moved = np.flatnonzero(increment.coeffs)
    assert moved.size and sp.degrees[moved].min() >= 2


# -- degree bounds -------------------------------------------------------------
#
# The references run every product over the whole pair table, as a product
# did before jets carried degree bounds.


def _top_degree(jet):
    """The highest degree with a nonzero coefficient through the jet's
    order on some row, or -1."""
    live = jet.coeffs[..., :jet.space.truncation_length(jet.order)] != 0
    nonzero = np.flatnonzero(live.reshape(-1, live.shape[-1]).any(axis=0))
    return int(jet.space.degrees[nonzero[-1]]) if nonzero.size else -1


def _full_table_product(a, b):
    """a * b over every pair of the table, row by row, masked past the order."""
    sp, order = a.space, min(a.order, b.order)
    prod = padded(a)[..., sp.mul_i] * padded(b)[..., sp.mul_j]
    if a.exact:
        out = np.array([Fraction(0)] * sp.size, dtype=object)
        np.add.at(out, sp.mul_k, prod)
    else:
        out = np.zeros(prod.shape[:-1] + (sp.size,))
        for row in np.ndindex(*prod.shape[:-1]):
            out[row] = np.bincount(sp.mul_k, weights=prod[row], minlength=sp.size)
    out[..., sp.truncation_length(order):] = 0
    return Jet(sp, out, order)


def _bounded_jets(space, seed, batch=()):
    """Jets of every degree bound from -1 to their order, at the space order
    and below it, with zeros of both signs above the bound and live
    coefficients past a lower order."""
    rng = np.random.default_rng(seed)
    jets = []
    for order in (space.order, max(space.order - 2, 0)):
        for degree in range(-1, order + 1):
            coeffs = rng.uniform(-1, 1, batch + (space.size,))
            coeffs[rng.random(coeffs.shape) < 0.25] = 0.0
            coeffs[rng.random(coeffs.shape) < 0.25] = -0.0
            above = coeffs[..., space.prefix[degree + 1]:space.prefix[order + 1]]
            above[...] = np.where(rng.random(above.shape) < 0.5, -0.0, 0.0)
            jets.append(Jet(space, coeffs, order, degree))
    return jets


def _full_derivative(jet, var):
    """The derivative over the whole differentiation map, masked past its order."""
    sp = jet.space
    dst, src, fac = sp.diff_maps[var]
    out = np.zeros(padded(jet).shape)
    out[..., dst] = padded(jet)[..., src] * fac
    out[..., sp.truncation_length(jet.order - 1):] = 0
    return Jet(sp, out, jet.order - 1)


def _zero_jets(space, seed, batch=()):
    """Shared zero jets and derivatives of constants, at the space order and
    below it.  A constant with +0.0 past its value through its order gives the
    shared zero jet, one with a -0.0 there a gathered degree -1 jet; both
    have the bits of the whole differentiation map."""
    rng = np.random.default_rng(seed)
    jets = []
    for order in (space.order, max(space.order - 2, 1)):
        jets.append(Jet.zero(space, order, batch))
        for signed in (False, True):
            coeffs = np.zeros(batch + (space.size,))
            coeffs[..., 0] = rng.uniform(-1, 1, batch)
            coeffs[..., rng.integers(1, space.prefix[order + 1])] = -0.0 if signed else 0.0
            constant = Jet(space, coeffs, order, 0)
            for var in range(space.nvars):
                got = constant.derivative(var)
                assert same_bits(got, _full_derivative(constant, var)) and got.degree == -1
                assert np.shares_memory(got.coeffs, space.zero_row) != signed
            jets.append(got)
    for z in jets:
        assert _top_degree(z) == -1
        shared = np.shares_memory(z.coeffs, space.zero_row)
        assert z.coeffs.shape == batch + ((1,) if shared else (space.truncation_length(z.order),))
    return jets


def _reference_dot(pairs, product=None):
    """sum x * y over the pairs, left to right, each product over the full table."""
    acc = None
    for x, y in pairs:
        term = (product or _full_table_product)(x, y)
        acc = term if acc is None else acc + term
    return acc


def _dot_cases(jets, zeros):
    """Factor pairs of jet_dot sums with zero terms first, between live terms,
    of a lower order than the live terms, and alone."""
    for a in jets:
        for z in zeros:
            yield [(z, a), (a, a)]
            yield [(a, a), (a, z), (z, z), (a, a)]
            yield [(a, z), (z, a)]


@pytest.mark.parametrize("nvars,order", [(1, 5), (2, 4), (3, 3), (4, 6)])
def test_degree_cut_products_match_the_full_table_bitwise(nvars, order):
    """Zero, constant and low-degree factors, at the space order and below
    it: every product has the full table's bits and a bound on its degree.
    A zero factor's product is the shared zero jet; a jet_dot sum that
    leaves out its zero terms has the bits and order of the full sum."""
    sp = jet_space(nvars, order)
    zeros = _zero_jets(sp, 10 * nvars + order + 1)
    jets = _bounded_jets(sp, 10 * nvars + order) + zeros
    for a in jets:
        for b in jets:
            got = a * b
            assert same_bits(got, _full_table_product(a, b)), (a.degree, b.degree)
            assert got.degree >= _top_degree(got)
            if min(a.degree, b.degree) < 0:
                assert got.degree == -1 and np.shares_memory(got.coeffs, sp.zero_row)
    for pairs in _dot_cases(jets[::3], zeros):
        got = jet_dot(*zip(*pairs))
        assert same_bits(got, _reference_dot(pairs)), [(x.degree, y.degree) for x, y in pairs]
        bound = max(-1 if min(x.degree, y.degree) < 0 else x.degree + y.degree for x, y in pairs)
        assert _top_degree(got) <= got.degree <= bound


def test_degree_cut_batch_products_match_each_row_alone_bitwise():
    sp = jet_space(3, 4)
    zeros, point_zeros = _zero_jets(sp, 33, batch=(3,)), _zero_jets(sp, 34)
    batched = _bounded_jets(sp, 31, batch=(3,)) + zeros
    points = _bounded_jets(sp, 32) + point_zeros

    def rows(jet):
        return [Jet(sp, jet.coeffs[r] if jet.coeffs.ndim > 1 else jet.coeffs, jet.order)
                for r in range(3)]

    for a in batched:
        for b in batched + points:
            for x, y in ((a, b), (b, a)):
                got = x * y
                assert got.degree >= _top_degree(got)
                assert got.coeffs.shape[:-1] == (3,) and stores_through_its_degree(got)
                for r, (rx, ry) in enumerate(zip(rows(x), rows(y))):
                    want = _full_table_product(rx, ry)
                    assert padded(got)[r].tobytes() == padded(want).tobytes(), (x.degree, y.degree)
    for pairs in _dot_cases(batched[::3], zeros + point_zeros):
        got = jet_dot(*zip(*pairs))
        assert got.coeffs.shape[:-1] == (3,) and stores_through_its_degree(got)
        assert got.degree >= _top_degree(got)
        for r in range(3):
            want = _reference_dot([(rows(x)[r], rows(y)[r]) for x, y in pairs])
            assert got.order == want.order and padded(got)[r].tobytes() == padded(want).tobytes()


def test_a_zero_factor_makes_no_nan_of_an_infinite_jet():
    """A zero factor skips every pair, so 0 * inf and 0 * nan make the zero
    jet, not NaN, in a product and in a jet_dot term; the jet_dot sum
    still carries the inf of its live terms."""
    sp = jet_space(2, 4)
    x = Jet(sp, np.full(sp.size, np.inf))
    x.coeffs[3] = np.nan
    for zero in (Jet.zero(sp), Jet.constant(sp, 2.0).derivative(1), Jet.zero(sp, 2, (2,))):
        for got in (zero * x, x * zero):
            assert got.degree == -1 and np.shares_memory(got.coeffs, sp.zero_row)
            assert got.order == zero.order and got.coeffs.shape == zero.coeffs.shape
        one = Jet.constant(sp, 1.0)
        total = jet_dot([zero, x], [x, one])
        assert np.isinf(total.coeffs[..., 0]).all() and np.isnan(total.coeffs[..., 3]).all()


def test_degree_cut_exact_products_match_the_full_table():
    sp = jet_space(2, 4)
    rng = np.random.default_rng(33)
    jets = []
    for degree in range(-1, sp.order + 1):
        coeffs = np.array([Fraction(int(k), 7) for k in rng.integers(-4, 5, sp.size)],
                          dtype=object)
        coeffs[sp.prefix[degree + 1]:] = Fraction(0)
        jets.append(Jet(sp, coeffs, sp.order, degree))
    for a in jets:
        for b in jets:
            got = a * b
            want = _full_table_product(a, b)
            assert got.exact and list(padded(got)) == list(padded(want))
            assert got.degree >= _top_degree(got)


def test_compose_with_zero_displacements_matches_the_full_table_bitwise(monkeypatch):
    """A constant inner jet, and one whose displacement cancels to zero while
    its bound reads 2, leave their table rows zero; one-point and stacked
    outer jets compose to the bits of the full-table sum."""
    from darboux import jets

    products = []
    product = jets._product
    monkeypatch.setattr(jets, "_product", lambda *args: products.append(1) or product(*args))
    osp, isp = jet_space(3, 4), jet_space(2, 4)
    rng = np.random.default_rng(34)
    x, y = Jet.coordinates(isp, np.array([0.3, -0.2]))
    square = x * y
    cancelled = square - square
    assert cancelled.degree == 2 and not cancelled.coeffs.any()
    poly = Jet(isp, np.where(isp.degrees <= 2, rng.uniform(-1, 1, isp.size), 0.0))
    outers = [Jet(osp, coeffs, osp.order) for coeffs, _ in _signed_zero_rows(osp, 35)]
    for inner in ([Jet.constant(isp, 0.5), x, y], [x + cancelled, cancelled, poly],
                  [Jet.constant(isp, 0.1)] * 3):
        for outer in outers:
            want = _reference_compose(outer, inner, _full_table_product)
            assert same_bits(jet_compose(outer, inner), want)
        products.clear()
        got = jet_compose(Jet(osp, np.stack([outer.coeffs for outer in outers])), inner)
        assert got.degree >= _top_degree(got)
        if all(jet.degree == 0 for jet in inner):
            assert not products and got.degree == 0
        for row, outer in zip(_rows_of(got), outers):
            assert same_bits(row, _reference_compose(outer, inner, _full_table_product))


# -- sparse products and compositions ---------------------------------------------
#
# A large pair table meeting sparse one-point factors runs only the pairs of
# their nonzero slots.  Patching the thresholds to 0 sends every product that
# way, so the sparse kernel meets every space and cut, not only the large ones.

ALWAYS_SPARSE = {"SPARSE_MIN_PAIRS": 0, "SPARSE_RATIO": 0}


def _sparse_rows(space, rng):
    """Coefficient rows: all zero, zeros of both signs, one nonzero slot (the
    value, a middle and the last), random masks of two densities, and dense."""
    rows = [np.zeros(space.size), np.where(rng.random(space.size) < 0.5, -0.0, 0.0)]
    for slot in sorted({0, space.size // 2, space.size - 1}):
        row = np.zeros(space.size)
        row[slot] = rng.uniform(-2, 2)
        rows.append(row)
    for density in (0.02, 0.3, 1.0):
        row = rng.uniform(-1, 1, space.size)
        row[rng.random(space.size) >= density] = 0.0
        row[rng.random(space.size) < 0.1] = -0.0
        rows.append(row)
    return rows


@pytest.mark.parametrize("thresholds", ["always sparse", "as shipped"])
@pytest.mark.parametrize("nvars", range(1, 7))
def test_sparse_products_match_the_full_table_bitwise(monkeypatch, nvars, thresholds):
    """Every space up to (6, 8), at every cut: the product of two rows has
    the full table's bits (float64, no -0.0 from skipped terms)."""
    from darboux import jets

    if thresholds == "always sparse":
        for name, value in ALWAYS_SPARSE.items():
            monkeypatch.setattr(jets, name, value)
    rng = np.random.default_rng(40 + nvars)
    for order in range(9):
        sp = jet_space(nvars, order)
        rows = _sparse_rows(sp, rng)
        for cut in range(order + 1):
            for a, b in itertools.product(rows, repeat=2):
                got = jets._product(sp, a, b, cut, sp.truncation_length(cut), False)
                want = _full_table_product(Jet(sp, a, cut), Jet(sp, b, cut))
                assert got.dtype == np.float64 and got.tobytes() == want.coeffs.tobytes(), (
                    sp, cut)


@pytest.mark.parametrize("nvars,order", [(2, 4), (3, 5), (4, 6)])
def test_sparse_exact_products_match_the_full_table(nvars, order):
    """Exact products always run the pairs of nonzero slots."""
    sp = jet_space(nvars, order)
    rng = np.random.default_rng(nvars + order)
    rows = []
    for row in _sparse_rows(sp, rng):
        rows.append(np.array([Fraction(int(round(7 * x)), 5) for x in row], dtype=object))
    for cut in range(order + 1):
        for a, b in zip(rows, rows[3:] + rows[:3]):
            got = Jet(sp, a, cut) * Jet(sp, b, cut)
            want = _full_table_product(Jet(sp, a, cut), Jet(sp, b, cut))
            assert got.exact and len(got.coeffs) == sp.truncation_length(cut)
            assert all(type(c) is Fraction for c in got.coeffs)
            assert list(got.coeffs) == list(want.coeffs)


@pytest.mark.parametrize("outer_shape,inner_shape", [((3, 4), (2, 4)), ((6, 6), (2, 6))])
def test_compositions_over_sparse_outer_jets_match_reference_bitwise(outer_shape, inner_shape):
    """Outer jets with few nonzero slots, none, or only one of top degree, one
    at a time and stacked: the rows they read and their parents give the
    reference's bits, and the result's bound is unchanged."""
    osp, isp = jet_space(*outer_shape), jet_space(*inner_shape)
    rng = np.random.default_rng(sum(outer_shape) + 3 * sum(inner_shape))
    rows = _sparse_rows(osp, rng)[:-1]
    top = np.zeros(osp.size)
    top[osp.prefix[osp.order]:] = np.where(rng.random(osp.size - osp.prefix[osp.order]) < 0.05,
                                           rng.uniform(-1, 1), 0.0)
    rows.append(top)
    inner = [Jet(isp, np.concatenate(([0.1 * v], rng.uniform(-1, 1, isp.size - 1))))
             for v in range(osp.nvars)]
    dense_bound = jet_compose(Jet(osp, rng.uniform(-1, 1, osp.size)), inner).degree
    for row in rows:
        got = jet_compose(Jet(osp, row), inner)
        assert same_bits(got, _reference_compose(Jet(osp, row), inner, _full_table_product))
        assert got.degree == dense_bound
    stacked_rows = jet_compose(Jet(osp, np.stack(rows)), inner)
    for got, row in zip(_rows_of(stacked_rows), rows):
        assert same_bits(got, _reference_compose(Jet(osp, row), inner, _full_table_product))


def test_classifying_e8_builds_no_large_pair_table(bundled, monkeypatch):
    """e8's germ lives in the (6, 8) space, where a table through cut 6 holds
    18,564 pairs; its products there run the pairs of nonzero slots, so no
    table through cut 6 or above is built, by the classification or by a
    full-order Darboux read of its frame (which multiplies at cut 6)."""
    from darboux import build_scene, classify_envelope_point, jets
    from darboux.frame import frame_fields

    sp = jet_space(6, 8)
    monkeypatch.setattr(sp, "_pairs", [None] * (sp.order + 1))
    cuts = []
    product = jets._product
    monkeypatch.setattr(jets, "_product", lambda *args: (
        cuts.append(args[3]) if args[0] is sp else None) or product(*args))
    e8 = bundled["e8"]  # written anew, so no frame of it is cached
    scene = build_scene(f"1*({e8.f_text})", e8.g_text, e8.n)
    report = classify_envelope_point(scene, [0.0] * scene.n, 1.0, order=6)
    assert report["class"] == "E8"
    frame_fields(scene, [0.0] * scene.n, 6).xi
    assert max(cuts) >= 6
    assert all(pairs is None for pairs in sp._pairs[6:])


_DEGREE_SPACE = jet_space(2, 5)
_DEGREE_LEAVES = {
    "x": Jet.coordinates(_DEGREE_SPACE, np.array([0.3, -0.7]))[0],
    "y": Jet.coordinates(_DEGREE_SPACE, np.array([0.3, -0.7]))[1],
    "c": Jet.constant(_DEGREE_SPACE, 1.5),
    "zero": Jet.constant(_DEGREE_SPACE, 0.0),
    "nil": Jet.constant(_DEGREE_SPACE, 2.0).derivative(1),
    "quadratic": Jet(_DEGREE_SPACE, np.where(_DEGREE_SPACE.degrees <= 2,
                                             np.linspace(-1, 1, _DEGREE_SPACE.size), 0.0),
                     5, 2),
}
_DEGREE_EXPRESSIONS = st.recursive(
    st.sampled_from(sorted(_DEGREE_LEAVES)),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), kids, kids),
        st.tuples(st.sampled_from(["neg", "scale", "square", "dx", "dy", "integral",
                                   "truncated", "sin", "reciprocal"]), kids),
    ),
    max_leaves=8,
)


def _evaluate_bounded(node, plain):
    """Evaluate an expression tree; with ``plain``, every jet is rebuilt
    with the default bound (its order), so no product is cut.  Every
    intermediate jet's bound is checked against its coefficients."""
    if isinstance(node, str):
        jet = _DEGREE_LEAVES[node]
    else:
        op, *args = node
        a, *rest = [_evaluate_bounded(arg, plain) for arg in args]
        jet = {
            "+": lambda: a + rest[0],
            "-": lambda: a - rest[0],
            "*": lambda: a * rest[0],
            "neg": lambda: -a,
            "scale": lambda: a * -0.5,
            "square": lambda: a**2,
            "dx": lambda: a.derivative(0) if a.order else a,
            "dy": lambda: a.derivative(1) if a.order else a,
            "integral": lambda: antiderivative(a, 1) if a.order < a.space.order else a,
            "truncated": lambda: a.truncated(2),
            "sin": lambda: a.sin(),
            "reciprocal": lambda: (a * a + 1.0).reciprocal(),
        }[op]()
    assert jet.degree >= _top_degree(jet), node
    return Jet(jet.space, jet.coeffs, jet.order) if plain else jet


@settings(max_examples=80, deadline=None)
@given(_DEGREE_EXPRESSIONS)
def test_degree_bounds_hold_and_cuts_keep_the_bits(tree):
    """On random expressions, no jet has a nonzero coefficient above its
    bound, and the cut arithmetic gives the bits of the uncut one."""
    assert same_bits(_evaluate_bounded(tree, False), _evaluate_bounded(tree, True))


# -- batched inner jets and determinants --------------------------------------

# Coefficients with exact and negative zeros and repeated values, so rows
# tie, vanish and take different degree bounds.
_entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]), st.floats(-2.0, 2.0))


def _row_jets(space, order, coeffs):
    """The batch rows of ``coeffs`` (rows, size) as one-point jets."""
    return [Jet(space, row.copy(), order) for row in coeffs]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), outer_shape=st.sampled_from([(1, 4), (2, 3), (3, 2)]),
       inner_shape=st.sampled_from([(1, 4), (2, 3)]), rows=st.integers(1, 4),
       outer_batch=st.sampled_from(["point", "rows", "components"]))
def test_batched_inner_rows_match_their_point_alone(data, outer_shape, inner_shape, rows,
                                                    outer_batch):
    """Each row of a composition over batched inner jets is bitwise the
    composition of its row alone, with a one-point outer jet, one outer jet
    per row, or (components, rows) outer jets; a row may hold a zero or
    lower-degree displacement, so the table's bound is its rows' largest."""
    osp, isp = jet_space(*outer_shape), jet_space(*inner_shape)
    inner_coeffs = []
    for _ in range(osp.nvars):
        c = np.array(data.draw(st.lists(_entries, min_size=rows * isp.size,
                                        max_size=rows * isp.size))).reshape(rows, isp.size)
        c[data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), 1:] = 0.0
        inner_coeffs.append(c)
    inner_order = data.draw(st.integers(1, isp.order))
    inner = [Jet(isp, c, inner_order) for c in inner_coeffs]
    shape = {"point": (), "rows": (rows,), "components": (2, rows)}[outer_batch]
    outer = Jet(osp, np.array(data.draw(st.lists(
        _entries, min_size=math.prod(shape) * osp.size,
        max_size=math.prod(shape) * osp.size))).reshape(shape + (osp.size,)))
    got = jet_compose(outer, inner)
    assert got.coeffs.shape[:-1] == (shape or (rows,)) and stores_through_its_degree(got)
    for r in range(rows):
        alone = [Jet(isp, c[r].copy(), inner_order) for c in inner_coeffs]
        outers = [outer] if not shape else _row_jets(osp, outer.order,
                                                      outer.coeffs[..., r, :].reshape(-1, osp.size))
        for k, one in enumerate(outers):
            want = jet_compose(one, alone)
            row = Jet(isp, got.coeffs[..., r, :].reshape(-1, got.coeffs.shape[-1])[k], got.order)
            assert got.order == want.order and padded(row).tobytes() == padded(want).tobytes(), (r, k)


def _reference_det(matrix):
    """``jet_det`` of one point as it was written before it took batches and
    before it became ``jet_solve``'s determinant: full pivoting with a
    Python-float pivot search, plain swaps, one cofactor tail."""
    from darboux.jets import _PIVOT_EPS

    m = len(matrix)
    a = [row[:] for row in matrix]
    scale = max(abs(float(entry.value)) for row in a for entry in row) or 1.0
    det, sign = None, 1
    for col in range(m - 1):
        sub = [[abs(float(a[r][c].value)) for c in range(col, m)] for r in range(col, m)]
        best = max((v, -r, -c) for r, row in enumerate(sub) for c, v in enumerate(row))
        pval, prow, pcol = best[0], col - best[1], col - best[2]
        if pval <= _PIVOT_EPS * scale:
            tail = cofactor_det([[a[r][c] for c in range(col, m)] for r in range(col, m)])
            return tail * det * sign if det is not None else tail * sign
        if prow != col:
            a[col], a[prow] = a[prow], a[col]
            sign = -sign
        if pcol != col:
            for row in a:
                row[col], row[pcol] = row[pcol], row[col]
            sign = -sign
        pivot = a[col][col]
        det = pivot if det is None else det * pivot
        inv = pivot.reciprocal()
        for r in range(col + 1, m):
            factor = a[r][col] * inv
            for c in range(col + 1, m):
                a[r][c] = a[r][c] - factor * a[col][c]
    det = a[m - 1][m - 1] if det is None else det * a[m - 1][m - 1]
    return det * sign if sign == -1 else det


def _close(got, want):
    """Coefficients within 1e-13 of the reference's largest, at its order."""
    assert got.order == want.order
    return np.abs(got.coeffs - want.coeffs).max() <= 1e-13 * np.abs(want.coeffs).max()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), space=st.sampled_from([(1, 4), (2, 3), (1, 0)]),
       rows=st.integers(1, 5))
def test_batched_det_rows_match_their_point_alone(data, m, space, rows):
    """Each row of a batched ``jet_det`` is bitwise the determinant of its
    matrix alone (pivots, swaps and signs per row), and matches the
    division-free cofactor expansion to 1e-13 relative.  The value blocks
    are diagonally dominant up to a row permutation drawn per row, with
    ties, so the rows pivot differently; columns may differ in order, as a
    frame's do."""
    sp = jet_space(*space)
    nil = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=rows * m * m * sp.size,
                                      max_size=rows * m * m * sp.size)))
    coeffs = nil.reshape(rows, m, m, sp.size)
    for k in range(rows):
        off = np.array(data.draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                                          min_size=m * m, max_size=m * m))).reshape(m, m)
        off[np.diag_indices(m)] = data.draw(st.lists(st.sampled_from([4.0, -4.0]), min_size=m,
                                                      max_size=m))
        coeffs[k, :, :, 0] = off[data.draw(st.permutations(range(m)))]
    orders = data.draw(st.lists(st.integers(max(0, sp.order - 2), sp.order), min_size=m,
                                max_size=m))
    matrix = [[Jet(sp, coeffs[:, r, c].copy(), orders[c]) for c in range(m)] for r in range(m)]
    got = jet_det(matrix)
    for k in range(rows):
        point = [[Jet(sp, coeffs[k, r, c].copy(), orders[c]) for c in range(m)]
                 for r in range(m)]
        alone = jet_det(point)
        assert got.order == alone.order
        assert got.coeffs[k].tobytes() == alone.coeffs.tobytes(), coeffs[k, :, :, 0]
        assert _close(alone, cofactor_det(point)), coeffs[k, :, :, 0]


def test_batched_det_swaps_rows_per_row():
    """Rows whose largest first-column value sits in row 0, 1 or 2, a tie
    (to the lowest row), rows that swap again at the second pivot, and
    signed zeros in the nilpotent parts; order 4 keeps high coefficients
    alive.  Each row is bitwise its point alone and matches, to 1e-13
    relative, the cofactor expansion and the full-pivoting elimination
    ``jet_det`` was before it read ``jet_solve``'s pivots."""
    sp = jet_space(1, 4)
    blocks = [np.diag([3.0, 2.0, 1.0]), [[1, 0, 0], [0, 0, 2], [0, 5, 0]],
              [[0, 1, 0], [1, 0, 4], [0, 0, 1]], [[2, 1, 0], [2, 0, 1], [1, 1, 1]],
              [[0, 0, 1], [0, 2, 0], [3, 0, 0]], -np.eye(3)]
    rng = np.random.default_rng(31)
    coeffs = rng.uniform(-1, 1, (len(blocks), 3, 3, sp.size))
    coeffs[rng.random(coeffs.shape) < 0.3] = -0.0
    coeffs[..., 0] = blocks
    got = jet_det([[Jet(sp, coeffs[:, r, c]) for c in range(3)] for r in range(3)])
    for k, block in enumerate(blocks):
        point = [[Jet(sp, coeffs[k, r, c]) for c in range(3)] for r in range(3)]
        assert got.coeffs[k].tobytes() == jet_det(point).coeffs.tobytes(), k
        assert _close(jet_det(point), cofactor_det(point)), k
        assert _close(jet_det(point), _reference_det(point)), k
        assert got.coeffs[k, 0] == pytest.approx(np.linalg.det(block), abs=1e-12)
    entry = Jet(sp, coeffs[[0, 1, 3, 5], 0, 0])  # the rows with a nonzero (0, 0) value
    assert jet_det([[entry]]).coeffs.tobytes() == entry.coeffs.tobytes()


def test_value_dot_matches_the_one_point_product_bitwise():
    """Rows of strided views (as ``vec_values`` returns for batches) pair as
    contiguous vectors do: from k = 4 a strided BLAS dot sums in pairs."""
    rng = np.random.default_rng(5)
    for k in range(1, 7):
        a, b = rng.standard_normal((9, k)), rng.standard_normal((k, 9)).T
        want = np.array([x @ y.copy() for x, y in zip(a, b)])
        assert value_dot(a, b).tobytes() == want.tobytes()
        assert value_dot(a[0], b[0]).tobytes() == want[0].tobytes()



class _SeedJetSpace:
    """The exponent, product, parent and derivative tables as the seed built
    them: exponents from ``combinations_with_replacement`` and a sorted set
    per degree, slots looked up in a dict of exponent tuples.  The oracle
    for the numpy build of :class:`JetSpace`."""

    def __init__(self, nvars, order):
        self.nvars, self.order = nvars, order
        indices, self.prefix = [], [0]
        for d in range(order + 1):
            monomials = set()
            for combo in combinations_with_replacement(range(nvars), d):
                alpha = [0] * nvars
                for v in combo:
                    alpha[v] += 1
                monomials.add(tuple(alpha))
            indices.extend(sorted(monomials))
            self.prefix.append(len(indices))
        self.indices, self.size = indices, len(indices)
        self.index_of = {alpha: i for i, alpha in enumerate(indices)}
        exponents = np.array(indices, dtype=np.int64)
        self.degrees = exponents.sum(axis=1)
        radix = order + 1
        keys = self.degrees
        for v in range(nvars):
            keys = keys * radix + exponents[:, v]
        unit_keys = np.array([radix**nvars + radix ** (nvars - 1 - v) for v in range(nvars)])
        prefix = np.asarray(self.prefix)
        block_d = np.repeat(np.arange(radix), prefix[1:])
        block_i = np.concatenate([np.arange(count) for count in prefix[1:]])
        j_degree = block_d - self.degrees[block_i]
        start, count = prefix[j_degree], prefix[j_degree + 1] - prefix[j_degree]
        ends = np.cumsum(count)
        self.mul_i = np.repeat(block_i, count)
        self.mul_j = np.arange(ends[-1]) + np.repeat(start - (ends - count), count)
        self.mul_k = np.searchsorted(keys, keys[self.mul_i] + keys[self.mul_j])
        self.mul_end = ends[np.cumsum(prefix[1:]) - 1].tolist()
        parent_var = np.zeros(self.size, dtype=np.int64)
        for v in reversed(range(nvars)):
            parent_var[exponents[:, v] > 0] = v
        parent_index = np.searchsorted(keys, keys - unit_keys[parent_var])
        self.parent_var, self.parent_index = parent_var.tolist(), [0] + parent_index[1:].tolist()
        dst = np.arange(self.prefix[order])
        self.diff_maps = [
            (dst, np.searchsorted(keys, keys[dst] + unit_keys[v]), exponents[dst, v] + 1)
            for v in range(nvars)
        ]


# Every space through (6, 8), and the largest the CLI's product-pair bound
# admits in one and two variables.
SEED_SPACES = [(n, k) for n in range(1, 7) for k in range(9)] + [(1, 773), (2, 49)]


@pytest.mark.parametrize("nvars,order", SEED_SPACES)
def test_space_tables_are_bitwise_the_seed_build(nvars, order):
    got, want = JetSpace(nvars, order), _SeedJetSpace(nvars, order)
    assert (got.size, got.prefix, got.mul_end) == (want.size, want.prefix, want.mul_end)
    assert got.indices == want.indices
    assert got.index_of == want.index_of
    names = ("degrees", "mul_i", "mul_j", "mul_k")
    pairs = [(getattr(got, name), getattr(want, name)) for name in names]
    pairs += [pair for maps in zip(got.diff_maps, want.diff_maps) for pair in zip(*maps)]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for a, b in ((got.parent_var, want.parent_var), (got.parent_index, want.parent_index)):
        assert a == b and all(type(x) is int for x in a)
    for end, cut in zip(got.mul_end, (got.pairs(d)[:3] for d in range(order + 1))):
        assert all(len(table) == end for table in cut)


@pytest.mark.parametrize("nvars,order", SEED_SPACES)
def test_slot_is_the_row_of_the_exponent(nvars, order):
    sp = JetSpace(nvars, order)
    assert np.array_equal(sp.slot(sp.exponents.T), np.arange(sp.size))
    rows = sp.exponents.tolist()
    for i in sorted({0, sp.size - 1, *range(0, sp.size, max(1, sp.size // 50))}):
        assert sp.slot(tuple(rows[i])) == i
        assert sp.slot(rows[i]) == i
    for v in range(nvars):
        e_v = [int(u == v) for u in range(nvars)]
        if order >= 1:
            assert sp.slot(e_v) == nvars - v
            assert Jet.variable(sp, v, 0.5).coeffs[nvars - v] == 1.0


def test_slot_of_an_exponent_outside_the_space_is_a_key_error():
    """A wrong length, a negative exponent or a degree above the order raises
    KeyError, for one exponent and for an array of them, where ranking it
    read (-1, 2) as slot 0 and (0, 1, 1) as slot 3 on (2, 3)."""
    sp = JetSpace(2, 3)
    for alpha in ((0, 1, 1), (1,), (-1, 2), (2, -1), (4, 0), (2, 2)):
        with pytest.raises(KeyError):
            sp.slot(alpha)
        column = np.array(alpha)[:, None]
        rows = np.hstack([sp.exponents[:3].T, column]) if len(alpha) == 2 else column.repeat(3, 1)
        with pytest.raises(KeyError):
            sp.slot(rows)
    assert sp.slot((1, 2)) == sp.index_of[(1, 2)]


def test_coefficient_outside_the_space_is_a_key_error():
    jet = Jet.variable(jet_space(2, 3), 0, 0.5)
    assert jet.coefficient((1, 0)) == 1.0 and jet.coefficient([0, 0]) == 0.5
    for alpha in ((4, 0), (2, 2), (-1, 2), (0, 1, 1), (1,)):
        with pytest.raises(KeyError):
            jet.coefficient(alpha)


@pytest.mark.parametrize("nvars,order", [(1, 5), (2, 4), (6, 8)])
def test_tuple_and_array_slot_lookups_agree_on_every_slot(nvars, order):
    """A tuple of ints is range-checked in plain Python and an array in
    numpy: both find every row of the space, and both raise KeyError past it."""
    sp = JetSpace(nvars, order)
    rows = sp.exponents.tolist()
    by_tuple = [sp.slot(tuple(row)) for row in rows]
    assert by_tuple == list(range(sp.size))
    assert sp.slot(sp.exponents.T).tolist() == by_tuple
    assert [sp.slot(np.array(row)) for row in rows[::97]] == by_tuple[::97]
    for alpha in ((order + 1,) + (0,) * (nvars - 1), (0,) * (nvars - 1) + (-1,), (0,) * (nvars + 1)):
        with pytest.raises(KeyError):
            sp.slot(alpha)
        with pytest.raises(KeyError):
            sp.slot(np.array(alpha)[:, None])


def test_a_slot_past_the_order_reads_as_an_exact_zero():
    """A jet stores its slots through its order only; its coefficient past it
    is +0.0 (Fraction(0) in exact mode, zeros over a batch), and its repr
    lists six slots as a full-length jet's does."""
    sp = jet_space(2, 4)
    x = Jet.variable(sp, 0, 0.5, order=1)
    assert x.coeffs.shape == (3,)
    got = x.coefficient((3, 1))
    assert type(got) is np.float64 and got == 0.0 and math.copysign(1.0, got) == 1.0
    exact = Jet.variable(sp, 1, Fraction(1, 3), order=2, exact=True)
    assert exact.coefficient((0, 1)) == 1 and exact.coefficient((4, 0)) == Fraction(0)
    assert type(exact.coefficient((4, 0))) is Fraction
    rows = Jet.constant(sp, np.array([1.0, 2.0]), order=0)
    assert rows.coefficient((1, 1)).tolist() == [0.0, 0.0]
    assert repr(Jet.constant(sp, 1.5, 0)) == (
        "Jet(order=0, [(0, 0):1.5, (0, 1):0.0, (1, 0):0.0, (0, 2):0.0, (1, 1):0.0, (2, 0):0.0, ...])")


def _prefix_jets(space, seed, batch=()):
    """Float and exact jets of every order and degree bound, each stored
    through a random prefix at or past its bound, with a -0.0 among the
    stored zeros past the bound."""
    rng = np.random.default_rng(seed)
    jets = []
    for exact in (False, True):
        for order in range(space.order + 1):
            for degree in range(-1, order + 1):
                bound = space.prefix[max(degree, 0) + 1]
                length = int(rng.integers(bound, space.prefix[order + 1] + 1))
                coeffs = rng.uniform(-1, 1, batch + (length,))
                past = coeffs[..., space.prefix[degree + 1]:]  # all of a zero jet's one slot
                past[...] = np.where(rng.random(past.shape) < 0.5, -0.0, 0.0)
                if exact:
                    coeffs = np.vectorize(lambda c: Fraction(round(7 * c), 7), otypes=[object])(coeffs)
                jets.append(Jet(space, coeffs, order, degree))
    return jets


@pytest.mark.parametrize("nvars,order", [(1, 5), (2, 4), (6, 8)])
def test_a_coefficient_read_is_bitwise_the_padded_read(nvars, order):
    """``coefficient`` reads a stored slot where it is stored and gives an
    exact zero past the stored prefix, per batch row: bitwise the read of
    the coefficients padded through the space's size, for a tuple exponent
    and for the array of every exponent."""
    sp = JetSpace(nvars, order)
    jets = _prefix_jets(sp, 5) + _prefix_jets(sp, 6, (2,))
    rows = [tuple(row) for row in sp.exponents.tolist()]
    for jet in jets[::7] if sp.size > 1000 else jets:
        full = padded(jet)
        for alpha in rows[::41] if sp.size > 1000 else rows:
            got, want = jet.coefficient(alpha), full[..., sp.slot(alpha)]
            want = want[()] if jet.coeffs.ndim > 1 or jet.exact else jet.coeffs.dtype.type(want)
            assert type(got) is type(want) and _same(got, want), (alpha, jet.order, jet.degree)
        assert _same(jet.coefficient(sp.exponents.T), full[..., np.arange(sp.size)])


def _same(got, want):
    """Bitwise equality of floats (through an int64 view, so signed zeros
    count) or equality of Fractions, of arrays or of single numbers."""
    got, want = np.asarray(got), np.asarray(want)
    if got.dtype.hasobject or want.dtype.hasobject:
        return got.shape == want.shape and got.tolist() == want.tolist()
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def _flat(result):
    """The jets of a result: a jet, or nested lists and pairs of them."""
    if isinstance(result, (list, tuple)):
        return [jet for item in result for jet in _flat(item)]
    return [result] if isinstance(result, Jet) else []


def _bits(make):
    """What ``make()`` gives, jets by their padded coefficients, or its error's type."""
    try:
        result = make()
    except (DomainError, SingularBasisError, ExactModeError) as err:
        return type(err)
    if isinstance(result, (list, tuple)):
        return [_bits(lambda item=item: item) for item in result]
    if isinstance(result, Jet):
        return result.order, result.exact, padded(result)
    return np.asarray(result)


def _same_bits(got, want):
    if isinstance(want, type) or isinstance(got, type):
        return got is want
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same_bits, got, want))
    if isinstance(want, tuple):
        return got[:2] == want[:2] and _same(got[2], want[2])
    return _same(got, want)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), space=st.sampled_from([(1, 4), (2, 3), (3, 2)]), exact=st.booleans(),
       batch=st.sampled_from([(), (3,)]))
def test_jets_stored_through_any_prefix_match_their_padded_copies_bitwise(data, space, exact,
                                                                          batch):
    """Every operation on jets stored through a random prefix at or past
    their degree bound is bitwise the same operation on copies padded through
    the space's size (an int64 view, so signed zeros count), float and
    exact, one point and batch; and where no operand stores a slot past its
    bound, no result does unless a -0.0 sits past its degree."""
    from darboux import jets

    sp, osp = jet_space(*space), jet_space(2, 3)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))

    def numbers(shape):
        values = rng.uniform(-1, 1, shape)
        return np.vectorize(lambda c: Fraction(round(8 * c), 8), otypes=[object])(values) if (
            exact) else values

    def draw_jet(shape, positive=False):
        order = data.draw(st.integers(0, sp.order))
        degree = data.draw(st.integers(0 if positive else -1, order))
        bound = sp.prefix[max(degree, 0) + 1]
        length = data.draw(st.one_of(st.just(bound), st.integers(bound, sp.prefix[order + 1])))
        coeffs = numbers(shape + (length,))
        coeffs[rng.random(coeffs.shape) < 0.2] = 0
        past = coeffs[..., sp.prefix[degree + 1]:]  # all of a zero jet's one slot
        past[...] = 0
        if not exact:  # zeros of both signs past the bound
            past[rng.random(past.shape) < 0.5] = -0.0
        if degree >= 0:
            coeffs[..., 0] = numbers(shape) + 2  # a value part away from 0
        short = Jet(sp, coeffs, order, degree)
        return short, Jet(sp, padded(short), order, degree)

    batch = () if exact else batch  # exact jets are one-point
    shape = data.draw(st.sampled_from([(), batch]))
    (x, xf), (y, yf) = draw_jet(shape), draw_jet(data.draw(st.sampled_from([(), batch])))
    p, pf = draw_jet(shape, positive=True)
    outer = Jet(osp, numbers(osp.size), data.draw(st.integers(0, osp.order)))
    number = data.draw(st.sampled_from([2.5, -0.75, 0.0, -0.0, 3, np.inf, np.nan]))
    number = (Fraction(number) if np.isfinite(number) else Fraction(1, 3)) if exact else number
    var, cut = data.draw(st.integers(0, sp.nvars - 1)), data.draw(st.integers(0, sp.order))
    cases = {
        "+": lambda a, b, q: a + b,
        "-": lambda a, b, q: a - b,
        "neg": lambda a, b, q: -a,
        "c - x": lambda a, b, q: number - a,
        "x + c, x - c": lambda a, b, q: [a + number, a - number],
        "*": lambda a, b, q: a * b,
        "* c": lambda a, b, q: [a * number, number * a],
        "/": lambda a, b, q: [a / q, a / (number or 2)],
        "**": lambda a, b, q: [a**k for k in range(4)],
        "reciprocal": lambda a, b, q: q.reciprocal(),
        "derivative": lambda a, b, q: [j.derivative(var) for j in (a, b, q) if j.order],
        "truncated": lambda a, b, q: a.truncated(cut),
        "analytic": lambda a, b, q: [q.sin(), q.cos(), q.exp(), q.log(), q.sqrt(),
                                     q.fractional_power(1 / 3)],
        "compose": lambda a, b, q: jet_compose(outer, [a, q]),
        "solve": lambda a, b, q: jet_solve([[q, a * 0.125], [a * -0.25, q]], [a, q]),
        "dot": lambda a, b, q: jet_dot([a, b, q], [q, a, b]),
        "select": lambda a, b, q: jets._select(np.arange(3) % 2 == 0, a, b),
        "stacked": lambda a, b, q: jets.stacked([a, q]),
        "coefficient": lambda a, b, q: [a.coefficient(alpha) for alpha in sp.indices] + [
            a.coefficient(sp.exponents.T)],
    }
    for name, skip in (("select", not batch), ("stacked", shape), ("solve", exact)):
        if skip:  # _select is per batch row, stacked takes one-point rows, solves are float
            del cases[name]
    tidy = all(j.coeffs.shape[-1] <= sp.prefix[max(j.degree, 0) + 1] for j in (x, y, p)) and (
        outer.coeffs.shape[-1] <= osp.prefix[max(outer.degree, 0) + 1])
    for name, case in cases.items():
        with np.errstate(all="ignore"):  # inf and nan numbers
            got, want = _bits(lambda: case(x, y, p)), _bits(lambda: case(xf, yf, pf))
            results = [] if isinstance(got, type) or not tidy else _flat(case(x, y, p))
        assert _same_bits(got, want), name
        for jet in results:  # from operands that store nothing past their bound
            assert stores_through_its_degree(jet), (name, jet.order, jet.degree, jet.coeffs.shape)
    # The elementwise operations against numpy on whole arrays, as when every jet
    # stored its order: a signed zero past a stored prefix shows here too.
    a, b, zero = padded(x)[..., :sp.prefix[x.order + 1]], padded(y), 0 if exact else 0.0
    low = sp.prefix[min(x.order, y.order) + 1]
    shifted = a + zero
    shifted[..., 0] = a[..., 0] + number
    flipped = -a + zero
    flipped[..., 0] = -a[..., 0] + number
    with np.errstate(all="ignore"):
        for name, got, want in (("+", x + y, a[..., :low] + b[..., :low]),
                                ("-", x - y, a[..., :low] - b[..., :low]), ("neg", -x, -a),
                                ("* c", x * number, a * number + zero), ("x + c", x + number, shifted),
                                ("c - x", number - x, flipped)):
            assert _same(padded(got), fitted(want, sp.size)), name
