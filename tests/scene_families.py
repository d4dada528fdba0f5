"""Scenes whose Darboux line has a parallel field by construction: the
contours of a hypersurface M under parallel light and under central
projection, as graph scenes z = f(t, y), y = g(t), with hypothesis
strategies over their data for n in {1, 2}.

The paper names contours as a class of submanifolds that admit a parallel
Darboux field (arXiv:1508.07454; W. Blaschke, *Vorlesungen ueber
Differentialgeometrie II* (Springer 1923), on shadow boundaries), so their
verdicts are known without the jet engine:

- Parallel light along e_y.  f(t, y) = F(t, y + h(t)) with
  dF/dw (t, 0) = 0, and g = -h.  Along N, f_y = 0, so e_y is tangent to M
  there: it is the graph-gauge Darboux vector, constant, so D xi = 0 and
  tau11 = 0 in the graph gauge, which is the parallel scaling.
- Central projection from the origin.  f = A + B (y - g) + C (y - g)^2 with
  E A - A = (E g - g) B, E = t . grad the Euler operator.  Along N the
  conormal (-grad f, 1) takes the position vector x = (t, g, A) to
  (E g - g) B - (E A - A) = 0, so x is tangent to M, transversal to N, and
  D x = X lies in TN: x = lam xi_graph is parallel, with lam = g - E g its
  y-part less that of t . X.  Degree by degree, A_d = ((E g - g) B)_d / (d - 1)
  for d != 1, so (E g - g) B may have no degree-1 part: with g(0) != 0, B has
  no linear part.  A's linear part is free.  The Hessian of f|N along N is
  h2_prov = Hess A - B Hess g, -g(0) Hess B at the origin, so B's quadratic
  part is drawn nondegenerate.

Adding the ``nonflat`` term t1^2 y / 2 to a parallel-light scene breaks
f_y = 0 along N, the negative control.
"""

import itertools
from fractions import Fraction

from hypothesis import strategies as st

from darboux import build_scene


def _names(n):
    return ["t"] if n == 1 else [f"t{i}" for i in range(1, n + 1)]


def _monomials(n, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) == degree]


def _product(a, b):
    out = {}
    for (ea, ca), (eb, cb) in itertools.product(a.items(), b.items()):
        e = tuple(x + y for x, y in zip(ea, eb))
        out[e] = out.get(e, 0) + ca * cb
    return out


def _euler_less_one(poly):
    """E p - p: degree d scaled by d - 1."""
    return {e: (sum(e) - 1) * c for e, c in poly.items()}


def _text(poly, names):
    """The polynomial ``{exponents: Fraction}`` as scene text in ``names``,
    by degree, t1 first: {(0, 0): 1, (0, 2): -1, (2, 0): -1} is 1 - t1^2 - t2^2."""
    text = ""
    for e, c in sorted(poly.items(), key=lambda item: (sum(item[0]), [-k for k in item[0]])):
        if c:
            powers = [v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k]
            size = f"({abs(c)})" if c.denominator > 1 else f"{abs(c)}"
            size = [] if abs(c) == 1 and powers else [size]
            text += (" - " if c < 0 else " + ") + "*".join(size + powers)
    return text.replace(" - ", "-", 1) if text.startswith(" - ") else text[3:] or "0"


class Contour:
    """A contour scene's texts, its kind ("parallel light" or "central"),
    and ``scaling``, the text of the parallel scaling lam of its graph-gauge
    Darboux field (None for parallel light, whose graph gauge is parallel)."""

    def __init__(self, kind, n, f, g, scaling=None):
        self.kind, self.n, self.f, self.g, self.scaling = kind, n, f, g, scaling

    def scene(self, gauge="graph"):
        """The scene in the "graph" or "blaschke" gauge, or in the "parallel"
        scaling of the graph gauge."""
        if gauge == "parallel":
            return build_scene(self.f, self.g, self.n, xi_scale_text=self.scaling)
        return build_scene(self.f, self.g, self.n, gauge=gauge)

    def control(self):
        """The graph-gauge scene with the ``nonflat`` term t1^2 y / 2 added to f."""
        return build_scene(f"{self.f} + {_names(self.n)[0]}^2*y/2", self.g, self.n)


def parallel_light(n, P, C, h):
    """The contour of z = P(t) + w^2 C(t, w), w = y + h(t), under light along
    e_y: N is w = 0.  ``P`` and ``h`` are polynomials in t, ``C`` in (t, w)."""
    t, h = _names(n), _text(h, _names(n))
    w = f"(y + ({h}))"
    return Contour("parallel light", n, f"{_text(P, t)} + {w}^2*({_text(C, t + [w])})", f"-({h})")


def central(n, g, B, C, A1):
    """The contour of f = A + B (y - g) + C (y - g)^2 seen from the origin:
    A from the contour condition and its free linear part ``A1``; ``g`` has
    a nonzero value and ``B`` no linear part."""
    assert g.get((0,) * n) and not any(sum(e) == 1 and c for e, c in B.items())
    PB = _product(_euler_less_one(g), B)
    A = dict(A1)
    for e, c in PB.items():
        if sum(e) != 1:
            A[e] = A.get(e, 0) + c / (sum(e) - 1)
    t = _names(n)
    gt = _text(g, t)
    f = f"{_text(A, t)} + ({_text(B, t)})*(y - ({gt})) + ({_text(C, t)})*(y - ({gt}))^2"
    lam = {e: -c for e, c in _euler_less_one(g).items()}
    return Contour("central", n, f, gt, _text(lam, t))


# The n = 2 contours of the report set: f = (t1^2 + t2^2 + (y - t1 t2)^2) / 2
# along y = t1 t2 (``nonflat``'s N) under light along e_y, and g = 1 + |t|^2,
# B = 2 + |t|^2 seen from the origin, whose parallel scaling is 1 - |t|^2.
PARALLEL_EXAMPLE = parallel_light(2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)},
                                  {(0, 0, 0): Fraction(1, 2)}, {(1, 1): Fraction(-1)})
CENTRAL_EXAMPLE = central(2, {(0, 0): Fraction(1), (2, 0): Fraction(1), (0, 2): Fraction(1)},
                          {(0, 0): Fraction(2), (2, 0): Fraction(1), (0, 2): Fraction(1)},
                          {(0, 0): Fraction(1, 2)}, {})


# -- hypothesis strategies ---------------------------------------------------

_small = st.integers(-2, 2).map(lambda k: Fraction(k, 8))
_unit = st.sampled_from([Fraction(k, 2) for k in (-3, -2, -1, 1, 2, 3)])


@st.composite
def _polynomial(draw, n, degrees, coefficient=_small, nvars=None):
    nvars = n if nvars is None else nvars
    return {e: draw(coefficient) for d in degrees for e in _monomials(nvars, d)}


@st.composite
def _quadratic(draw, n):
    """A nondegenerate quadratic form: diagonal entries of size at least 1/2
    and a mixed term of size at most 1/8."""
    form = {e: draw(_unit) for e in _monomials(n, 2) if max(e) == 2}
    form.update({e: draw(_small.map(lambda c: c / 2)) for e in _monomials(n, 2) if max(e) < 2})
    return form


def _add(a, b):
    return {e: a.get(e, 0) + b.get(e, 0) for e in {**a, **b}}


@st.composite
def parallel_light_contours(draw, n, curved=False):
    """Parallel-light contours; with ``curved`` (n = 2), h's quadratic part is
    a t1^2 + k t1 t2 with k != 0.  In the graph gauge tau11 = Hess g alpha
    (h2_prov alpha = -tau12_prov), so :meth:`Contour.control`'s term, which
    makes tau12_prov = (t1, 0) at the origin, gives dtau11 (X1, X2) =
    -k (h2_prov^-1)_11 there, not 0; with g linear tau11 would stay 0."""
    P = _add(draw(_quadratic(n)), draw(_polynomial(n, [3])))
    C = {(0,) * (n + 1): draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]))}
    C = _add(C, draw(_polynomial(n, [1], nvars=n + 1)))
    h = draw(_polynomial(n, [0, 1] if curved else [0, 1, 2]))
    if curved:
        h.update({(2, 0): draw(_small), (1, 1): draw(_unit), (0, 2): Fraction(0)})
    return parallel_light(n, P, C, h)


@st.composite
def central_contours(draw, n):
    g0 = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]))
    g = _add({(0,) * n: g0}, draw(_polynomial(n, [1])))
    g = _add(g, {e: c / 2 for e, c in draw(_quadratic(n)).items()})
    B = _add({(0,) * n: draw(_unit)}, draw(_quadratic(n)))
    C = {(0,) * n: draw(st.sampled_from([Fraction(1, 2), Fraction(1)]))}
    return central(n, g, B, _add(C, draw(_polynomial(n, [1]))), draw(_polynomial(n, [1])))


def contours(n):
    """Parallel-light and central contours in n variables."""
    return st.one_of(parallel_light_contours(n), central_contours(n))
