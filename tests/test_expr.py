"""Expression parsing, evaluation, and the finite-difference oracle."""

from fractions import Fraction

import numpy as np
import pytest

from darboux.errors import (
    DomainError,
    ExactModeError,
    OrderError,
    ParseError,
    UnknownVariableError,
)
from darboux.expr import (
    FUNCTIONS,
    Add,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    derivative,
    eval_expr,
    eval_jet,
    eval_scalar,
    parse_expression,
    substitute,
    to_infix,
    to_prefix,
)
from darboux.jets import Jet, jet_space
from darboux.scenes import load_bundled

from conftest import reference_pow, reference_reciprocal, same_bits


def flatten_sums(node):
    if isinstance(node, Add):
        return flatten_sums(node.left) + flatten_sums(node.right)
    return [node]


def test_parse_zero_constant():
    e = parse_expression("0", ["t"])
    j = eval_jet(e, ["t"], [0.3], 2)
    assert np.allclose(j.coeffs, 0.0)


def test_parse_three_summands():
    e = parse_expression("t^2/2 + t^3/6 + y*t^2/2", ["t", "y"])
    assert len(flatten_sums(e)) == 3
    j = eval_jet(e, ["t", "y"], [0.0, 0.0], 3)
    assert j.coefficient((2, 0)) == pytest.approx(0.5)
    assert j.coefficient((3, 0)) == pytest.approx(1 / 6)
    assert j.coefficient((2, 1)) == pytest.approx(0.5)


def test_unbalanced_parenthesis_offset():
    with pytest.raises(ParseError) as err:
        parse_expression("(t1+", ["t1"])
    assert err.value.position == 4


def test_trailing_whitespace_ends_the_input():
    """Whitespace after the last token is not a token: it parses as the
    text without it, and an operator before it leaves the input unfinished."""
    from darboux.frame import build_scene

    for text in ("t1 ", "t1\t", " t1 \n "):
        assert parse_expression(text, ["t1"]) == Var("t1")
    with pytest.raises(ParseError, match="unexpected end") as err:
        parse_expression("t1 + ", ["t1"])
    assert err.value.position == 5
    scene = build_scene("t^2/2 + t^2*y/2 ", "0 ", 1)
    assert to_infix(scene.f) == to_infix(parse_expression("t^2/2 + t^2*y/2", ["t", "y"]))


def test_unknown_variable_and_function():
    with pytest.raises(UnknownVariableError):
        parse_expression("t + q", ["t"])
    with pytest.raises(ParseError):
        parse_expression("tan(t)", ["t"])
    with pytest.raises(ParseError):
        parse_expression("", ["t"])
    with pytest.raises(ParseError):
        parse_expression("t^-1", ["t"])
    with pytest.raises(ParseError):
        parse_expression("t^y", ["t", "y"])


def test_precedence_power_binds_tighter_than_unary_minus():
    e = parse_expression("-t^2", ["t"])
    assert eval_scalar(e, ["t"], [2.0]) == pytest.approx(-4.0)
    e2 = parse_expression("2*t^2", ["t"])
    assert eval_scalar(e2, ["t"], [3.0]) == pytest.approx(18.0)
    e3 = parse_expression("6/3/2", ["t"])
    assert eval_scalar(e3, ["t"], [0.0]) == pytest.approx(1.0)


def test_serialization_roundtrip():
    texts = [
        "t^2/2 + t^3/6 + y*t^2/2",
        "-(t + 1)*(y - 2)^3",
        "sin(t)/(1 + cos(y))",
        "sqrt(1 - t^2) + exp(y)/2",
    ]
    rng = np.random.default_rng(2)
    for text in texts:
        e = parse_expression(text, ["t", "y"])
        rendered = to_infix(e)
        e2 = parse_expression(rendered, ["t", "y"])
        for _ in range(5):
            p = rng.uniform(-0.3, 0.3, 2)
            assert eval_scalar(e, ["t", "y"], p) == pytest.approx(
                eval_scalar(e2, ["t", "y"], p), abs=1e-14
            )
        assert "\n" not in to_prefix(e)


def test_univariate_readoff():
    e = parse_expression("t^2/2 + t^3/6", ["t"])
    j = eval_jet(e, ["t"], [0.0], 3)
    assert np.allclose(j.coeffs, [0.0, 0.0, 0.5, 1 / 6])


def test_exact_mode_polynomials_and_errors():
    e = parse_expression("t^2/2 + 0.25*t", ["t"])
    j = eval_jet(e, ["t"], [Fraction(1, 3)], 2, exact=True)
    assert j.value == Fraction(1, 18) + Fraction(1, 12)
    assert j.coefficient((2,)) == Fraction(1, 2)
    trig = parse_expression("sin(t)", ["t"])
    with pytest.raises(ExactModeError):
        eval_jet(trig, ["t"], [Fraction(0)], 2, exact=True)


def test_order_and_domain_errors():
    e = parse_expression("log(t)", ["t"])
    with pytest.raises(DomainError):
        eval_jet(e, ["t"], [-1.0], 2)
    with pytest.raises(OrderError):
        eval_jet(e, ["t"], [1.0], 11)
    with pytest.raises(OrderError):
        eval_jet(e, ["t"], [1.0], -1)


def richardson_first(fn, p, i, h=1e-3):
    e = np.zeros(len(p))
    e[i] = 1.0

    def central(step):
        return (fn(p + step * e) - fn(p - step * e)) / (2 * step)

    return (4 * central(h / 2) - central(h)) / 3


def richardson_second(fn, p, i, j, h=1e-3):
    ei = np.zeros(len(p))
    ei[i] = 1.0
    ej = np.zeros(len(p))
    ej[j] = 1.0

    def central(step):
        if i == j:
            return (fn(p + step * ei) - 2 * fn(p) + fn(p - step * ei)) / step**2
        return (
            fn(p + step * (ei + ej))
            - fn(p + step * (ei - ej))
            - fn(p - step * (ei - ej))
            + fn(p - step * (ei + ej))
        ) / (4 * step**2)

    return (4 * central(h / 2) - central(h)) / 3


def random_polynomial(rng, names, degree=5):
    terms = []
    for _ in range(8):
        exponents = rng.integers(0, degree + 1, len(names))
        while exponents.sum() > degree:
            exponents = rng.integers(0, degree + 1, len(names))
        coeff = rng.integers(-6, 7)
        mono = "*".join(f"{v}^{int(e)}" for v, e in zip(names, exponents) if e)
        terms.append(f"({int(coeff)})" + (f"*{mono}" if mono else ""))
    return " + ".join(terms)


def test_first_and_second_coefficients_match_finite_differences():
    rng = np.random.default_rng(42)
    names = ["t1", "t2", "t3"]
    for _ in range(10):
        text = random_polynomial(rng, names)
        e = parse_expression(text, names)
        p = rng.uniform(-0.5, 0.5, 3)
        jet = eval_jet(e, names, p, 2)

        def fn(q):
            return eval_scalar(e, names, q)

        for i in range(3):
            alpha = [0, 0, 0]
            alpha[i] = 1
            fd = richardson_first(fn, p, i)
            assert abs(jet.coefficient(tuple(alpha)) - fd) < 1e-6 * (1 + abs(fd))
        for i in range(3):
            for j in range(i, 3):
                alpha = [0, 0, 0]
                alpha[i] += 1
                alpha[j] += 1
                factor = 1.0 if i != j else 2.0
                fd = richardson_second(fn, p, i, j) / factor
                assert abs(jet.coefficient(tuple(alpha)) - fd) < 1e-6 * (1 + abs(fd))


def plain_eval(node, env):
    """Independent recursive evaluator over plain floats (oracle)."""
    import math
    from darboux import expr as ex

    if isinstance(node, ex.Const):
        return float(node.value)
    if isinstance(node, ex.Var):
        return env[node.name]
    if isinstance(node, ex.Add):
        return plain_eval(node.left, env) + plain_eval(node.right, env)
    if isinstance(node, ex.Sub):
        return plain_eval(node.left, env) - plain_eval(node.right, env)
    if isinstance(node, ex.Mul):
        return plain_eval(node.left, env) * plain_eval(node.right, env)
    if isinstance(node, ex.Div):
        return plain_eval(node.left, env) / plain_eval(node.right, env)
    if isinstance(node, ex.Pow):
        return plain_eval(node.base, env) ** node.exponent
    if isinstance(node, ex.Neg):
        return -plain_eval(node.operand, env)
    return getattr(math, node.function)(plain_eval(node.argument, env))


def test_order_zero_matches_plain_evaluation():
    # float mode agrees to roundoff (division goes through the series
    # reciprocal, one ulp away from scalar division); exact mode agrees
    # identically on rational data
    rng = np.random.default_rng(77)
    texts = [
        "t^2/2 + t^3/6 + y*t^2/2",
        "sin(t)*cos(y) + exp(t*y)/3",
        "sqrt(1 + t^2) - log(2 + y)",
    ]
    for text in texts:
        e = parse_expression(text, ["t", "y"])
        for _ in range(6):
            p = rng.uniform(-0.4, 0.4, 2)
            jet = eval_jet(e, ["t", "y"], p, 0)
            ref = plain_eval(e, {"t": p[0], "y": p[1]})
            assert abs(float(jet.value) - ref) <= 4 * np.finfo(float).eps * max(1, abs(ref))
    poly = parse_expression("t^2/2 + t^3/6 + y*t^2/2", ["t", "y"])
    point = [Fraction(1, 3), Fraction(-2, 7)]
    jet = eval_jet(poly, ["t", "y"], point, 0, exact=True)
    t, y = point
    assert jet.value == t * t / 2 + t**3 / 6 + y * t * t / 2


def test_symbolic_derivative_and_substitution():
    rng = np.random.default_rng(9)
    e = parse_expression("sin(t)*y + t^3/3 + sqrt(1 + y^2)", ["t", "y"])
    d = derivative(e, "t")
    for _ in range(5):
        p = rng.uniform(-0.4, 0.4, 2)
        fd = richardson_first(lambda q: eval_scalar(e, ["t", "y"], q), p, 0)
        assert eval_scalar(d, ["t", "y"], p) == pytest.approx(fd, abs=1e-8)
    sub = substitute(e, {"t": parse_expression("2*u + 1", ["u"])})
    val = eval_scalar(sub, ["u", "y"], [0.1, 0.2])
    ref = eval_scalar(e, ["t", "y"], [1.2, 0.2])
    assert val == pytest.approx(ref, abs=1e-14)


# -- literals as numbers against an all-constant-jet evaluator ----------------


def reference_eval(expr, env, exact=False):
    """Evaluation with every literal a constant jet of the first binding's
    space and order, using only jet-jet arithmetic."""
    def rec(node):
        if isinstance(node, Const):
            sample = next(iter(env.values()))
            value = node.value if exact else float(node.value)
            return Jet.constant(sample.space, value, sample.order, exact)
        if isinstance(node, Var):
            return env[node.name]
        if isinstance(node, Add):
            return rec(node.left) + rec(node.right)
        if isinstance(node, Sub):
            return rec(node.left) - rec(node.right)
        if isinstance(node, Mul):
            return rec(node.left) * rec(node.right)
        if isinstance(node, Div):
            return rec(node.left) * reference_reciprocal(rec(node.right))
        if isinstance(node, Pow):
            return reference_pow(rec(node.base), node.exponent)
        if isinstance(node, Neg):
            return -rec(node.operand)
        return getattr(rec(node.argument), node.function)()

    return rec(expr)


EXTRA_EXPRESSIONS = [
    "0", "-2", "1/3", "2^3 - 1", "-2*t + 1/3 - (2 - 3)*t^2 + t/(1 + 1) - 2^3",
    "3 - t", "t - -1", "(t + y)/7 - 0.5*y^2", "1/(1 + t^2) + 2/(3 - y)", "t^0 + y^1 - (-t)^5",
    "sqrt(2)*t + exp(-t/2) - 2*sin(y)/3", "sqrt(1 - t^2)", "(-t) + -1", "-y - -2 + t*(1 - 1)",
    "7/10*t + y/(2/3)",
]


def _scene_expressions(scene, second):
    """f, g, the gauge scale and the first (and second) partials of f, with
    the variable names each is evaluated over."""
    names = scene.f_names
    out = [(scene.f, names), (scene.g, scene.t_names)]
    if scene.xi_scale is not None:
        out.append((scene.xi_scale, scene.t_names))
    for a in names:
        first = derivative(scene.f, a)
        out.append((first, names))
        if second:
            out.extend((derivative(first, b), names) for b in names)
    return out


def _envs(names, order, exact, rng):
    space = jet_space(len(names), order)
    if exact:
        points = [[Fraction(0)] * len(names),
                  [Fraction(int(k), 7) for k in rng.integers(-3, 4, len(names))]]
    else:
        points = [[0.0] * len(names), list(rng.uniform(-0.3, 0.3, len(names)))]
    for point in points:
        yield {name: Jet.variable(space, k, point[k], order, exact)
               for k, name in enumerate(names)}


@pytest.mark.parametrize("exact", [False, True])
def test_literal_numbers_match_constant_jets(bundled, exact):
    rng = np.random.default_rng(41)
    # Exact products loop over pairs in Python: lower order, first partials.
    cases = [item for scene in bundled.values()
             for item in _scene_expressions(scene, second=not exact)]
    cases += [(parse_expression(text, ["t", "y"]), ["t", "y"]) for text in EXTRA_EXPRESSIONS]
    checked = 0
    for expr, names in cases:
        if exact and any(f"({fn} " in to_prefix(expr) for fn in FUNCTIONS):
            continue
        for order in (2 if exact else 4, 0):
            for env in _envs(names, order, exact, rng):
                got = eval_expr(expr, env, exact)
                assert isinstance(got, Jet)
                assert same_bits(got, reference_eval(expr, env, exact)), to_infix(expr)
                checked += 1
    assert checked > (200 if exact else 1000)


def test_division_by_a_literal_zero_raises():
    for text in ("t/0", "t/(1 - 1)", "(t + 1)/0.0", "1/(0*t)"):
        e = parse_expression(text, ["t"])
        with pytest.raises(DomainError):
            eval_jet(e, ["t"], [0.5], 3)
        with pytest.raises(DomainError):
            eval_jet(e, ["t"], [Fraction(1, 2)], 3, exact=True)


def test_scene_derives_f_y_and_f_yy_once(monkeypatch):
    """A scene derives f_y and f_yy on first read, once each, and neither
    enters its hash or equality."""
    import darboux.expr as expr_module

    original = expr_module.derivative
    for text in ("a2", "e6", "hyperquadric"):
        scene = load_bundled(text)
        before = hash(scene)
        roots = []

        def counting(expr, var):
            # derivative recurses through the module name: count only the
            # calls on f and on the derived f_y.
            if expr is scene.f or expr is scene.__dict__.get("f_y"):
                roots.append(var)
            return original(expr, var)

        monkeypatch.setattr(expr_module, "derivative", counting)
        for _ in range(3):
            f_yy, f_y = scene.f_yy, scene.f_y
        monkeypatch.setattr(expr_module, "derivative", original)
        assert roots == ["y", "y"]
        assert f_y == original(scene.f, "y")
        assert f_yy == original(original(scene.f, "y"), "y")
        fresh = load_bundled(text)
        assert hash(scene) == before == hash(fresh)
        assert scene == fresh


def test_literal_floats_are_made_once(monkeypatch):
    third, also_third = Const(Fraction(1, 3)), Const(Fraction(2, 6))
    assert third.number == float(Fraction(1, 3))
    assert third == also_third and hash(third) == hash(also_third)
    assert "number" not in repr(third)
    expr = parse_expression("2.5*t^2 - t/3 + 7/4*exp(t*0.1)", ["t"])
    before = eval_jet(expr, ["t"], [0.3], 4)
    conversions = []
    to_float = Fraction.__float__

    def counting(self):
        conversions.append(self)
        return to_float(self)

    monkeypatch.setattr(Fraction, "__float__", counting)
    after = eval_jet(expr, ["t"], [0.3], 4)
    assert conversions == []
    assert after.coeffs.tobytes() == before.coeffs.tobytes()
