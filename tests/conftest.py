"""Shared scene corpus and small numeric helpers for the test suite."""

import os
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings

from darboux import build_scene, load_bundled
from darboux.jets import Jet, fitted

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property
# that fails in CI fails the same way locally.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def eval_poly_jet(jet, x):
    """Evaluate a jet's polynomial at a numeric offset from its base point
    (test-side helper, independent of the library's composition path)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    total = 0.0
    for alpha, c in zip(jet.space.indices, np.asarray(jet.coeffs, dtype=float)):
        if sum(alpha) > jet.order or not c:
            continue
        term = float(c)
        for xi, a in zip(x, alpha):
            term *= xi**a
        total += term
    return total


def padded(jet):
    """The coefficients with explicit zeros through the space's size: the
    full-length array that the references index."""
    return fitted(jet.coeffs, jet.space.size)


def stores_through_its_degree(jet):
    """Whether ``jet`` stores every slot through its degree bound and none past
    it (a zero jet keeps one slot): its bound, the degree of its last stored
    slot, closes a whole degree block, so it pins no slot it knows is +0.0."""
    return jet.coeffs.shape[-1] == jet.space.prefix[max(jet.degree, 0) + 1]


def antiderivative(jet, var):
    """Coefficientwise antiderivative in ``var`` with zero constant term, one
    order up: slot alpha + e_var takes slot alpha over alpha_var + 1, through
    the derivative maps (a test-side oracle), stored through one degree more."""
    sp = jet.space
    dst, src, fac = (m[:jet.coeffs.shape[-1]] for m in sp.diff_maps[var])  # dst is arange
    out = np.full(jet.coeffs.shape[:-1] + (sp.prefix[max(jet.degree, 0) + 2],),
                  Fraction(0) if jet.exact else 0.0, dtype=jet.coeffs.dtype)
    out[..., src] = jet.coeffs[..., dst] / fac
    return Jet(sp, out, jet.order + 1)


# Constant-jet references for the jets' number paths: every constant is a
# Jet and only jet-jet sums and products are used, as in an engine where no
# plain number meets a jet.


def constant_like(jet, value):
    return Jet.constant(jet.space, value, jet.order, jet.exact)


def reference_reciprocal(jet):
    """Neumann series 1/v * sum (-u)^k started from a constant-one jet."""
    inv = Fraction(1) / jet.value if jet.exact else 1.0 / float(jet.value)
    u = Jet(jet.space, jet.coeffs.copy(), jet.order)
    u.coeffs[0] = 0
    u = u * constant_like(jet, inv)
    acc = term = constant_like(jet, 1)
    for _ in range(jet.order):
        term = -(term * u)
        acc = acc + term
    return acc * constant_like(jet, inv)


def reference_pow(jet, exponent):
    """Square and multiply from the low bit, started from a constant-one jet."""
    result, base, e = constant_like(jet, 1), jet, exponent
    while e:
        if e & 1:
            result = result * base
        base = base * base if e > 1 else base
        e >>= 1
    return result


def cofactor_det(matrix):
    """Determinant of a square matrix of jets by cofactor expansion, each
    minor on the lower rows made once (keyed by its columns): no pivot and
    no division, so it also reads a nilpotent determinant."""
    m = len(matrix)

    @lru_cache(maxsize=None)
    def minor(cols):
        row = matrix[m - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        acc = None
        for k, j in enumerate(cols):
            term = row[j] * minor(cols[:k] + cols[k + 1:])
            term = -term if k % 2 else term
            acc = term if acc is None else acc + term
        return acc

    return minor(tuple(range(m)))


def bracket(vectors):
    """Oriented volume bracket of n + 2 ambient jet vectors: the determinant
    of the columns (v_1, ..., v_n, v_(n+2), v_(n+1)), oriented so that for a
    graph hypersurface z = f(t, y) the tangency family expands as f - z + ...."""
    cols = list(vectors)
    cols[-1], cols[-2] = cols[-2], cols[-1]
    return cofactor_det([[col[r] for col in cols] for r in range(len(cols[0]))])


def reference_loop_integrals(axes, tau_samples, mid_samples):
    """The parallel test's integrals one edge at a time: lambda = exp(-int
    tau) along axis-first paths and the largest plaquette circulation, from
    tau at the grid points and at the edge midpoints (``mid_samples[k][idx]``
    on the edge from idx to idx + e_k); each edge is the Simpson sum of tau .
    direction from its first point (oracle for the array code)."""
    n = len(axes)
    shape = tuple(len(a) for a in axes)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    grid_indices = list(np.ndindex(*shape))

    def edge(i, j):
        axis = next(k for k in range(n) if i[k] != j[k])
        direction = grid[j] - grid[i]
        a, mid, b = (float(tau @ direction) for tau in (
            tau_samples[i], mid_samples[axis][min(i, j)], tau_samples[j]))
        return (a + 4.0 * mid + b) / 6.0

    integral = np.zeros(shape)
    for idx in grid_indices:
        if not any(idx):
            continue
        axis = next(k for k in range(n) if idx[k] > 0)
        prev = idx[:axis] + (idx[axis] - 1,) + idx[axis + 1:]
        integral[idx] = integral[prev] + edge(prev, idx)

    loop_residual = 0.0
    for idx in grid_indices:
        for ax1 in range(n):
            for ax2 in range(ax1 + 1, n):
                if idx[ax1] + 1 >= shape[ax1] or idx[ax2] + 1 >= shape[ax2]:
                    continue
                corners = []
                for da, db in ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0)):
                    j = list(idx)
                    j[ax1] += da
                    j[ax2] += db
                    corners.append(tuple(j))
                circulation = sum(edge(corners[m], corners[m + 1]) for m in range(4))
                loop_residual = max(loop_residual, abs(circulation))
    return np.exp(-integral), loop_residual


def reject_constant(name):
    """``parse_constant`` for strict JSON: NaN and Infinity are errors."""
    raise ValueError(f"non-JSON constant {name}")


def same_bits(got, want):
    """Same order and mode, and bit-identical (float) or equal (exact) coefficients."""
    if got.order != want.order or got.exact != want.exact:
        return False
    if got.exact:
        return padded(got).tolist() == padded(want).tolist()
    return padded(got).tobytes() == padded(want).tobytes()


def forbid_compose(monkeypatch, what):
    """Make ``jet_compose`` raise in every loaded darboux module that holds it."""
    import sys

    def no_compose(*args):
        raise AssertionError(f"{what} composed jets")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "darboux" and hasattr(module, "jet_compose"):
            monkeypatch.setattr(module, "jet_compose", no_compose)


@pytest.fixture(scope="session")
def bundled():
    return {name: load_bundled(name) for name in (
        "a2", "a3", "a4", "a5", "d4", "d5", "e6", "e7", "e8",
        "cubic-curve", "nonflat", "hyperquadric",
    )}


# The point of the golden fixtures (tests/test_golden.py), repeated past its length.
GOLDEN_POINT = (0.07, -0.04, 0.07, -0.03)


# The variants of gauge_variants, in its order.
GAUGES = ("graph", "blaschke", "scaled")


def gauge_variants(scene):
    """``scene``, its Blaschke-gauge variant and a variant with a scaled xi."""
    scale = "2 + t - t^2" if scene.n == 1 else "2 + t1 - t2^2"
    return [scene] + [build_scene(scene.f_text, scene.g_text, scene.n, name=scene.name, **option)
                      for option in ({"gauge": "blaschke"}, {"xi_scale_text": scale})]


def variant_points(n):
    """The origin, 0.1 in every coordinate, 0.05 with alternating signs and
    the golden point: the points the gauge-variant bitwise tests read."""
    return [[0.0] * n, [0.1] * n, [0.05 * (-1) ** i for i in range(n)],
            [GOLDEN_POINT[i % len(GOLDEN_POINT)] for i in range(n)]]


@pytest.fixture
def solve_orders(monkeypatch):
    """The orders of the Darboux solves run after the fixture is set up,
    starting from an empty frame cache."""
    from darboux import frame

    orders = []
    solve = frame.jet_solve
    monkeypatch.setattr(frame, "jet_solve", lambda matrix, rhs: (
        orders.append(matrix[0][0].order), solve(matrix, rhs))[1])
    frame._fields.cache_clear()
    return orders


@pytest.fixture
def frame_builds(monkeypatch):
    """The points of the FrameFields built after the fixture is set up,
    starting from an empty frame cache, which holds the bundles too."""
    from darboux import frame

    frame._fields.cache_clear()
    built = []
    original = frame.FrameFields.__init__

    def record(self, scene, t0, *args, **kwargs):
        built.append(tuple(np.atleast_1d(np.asarray(t0, dtype=float)).tolist()))
        original(self, scene, t0, *args, **kwargs)

    monkeypatch.setattr(frame.FrameFields, "__init__", record)
    return built


def make_parallel_corpus():
    """Scenes whose gauged Darboux field is parallel, with sample grids."""
    r2 = 1.0
    scenes = {
        "hyperplanar-1": build_scene("(t^2 + y^2)/2 + t^4/24", "0", 1,
                                     name="hyperplanar-1"),
        "hyperplanar-2": build_scene(
            "(t1^2 + t2^2 + y^2)/2 + t1^3/6 + t1*t2^2/3", "0", 2,
            name="hyperplanar-2"),
        "visual-contour": build_scene(
            "(t^2 + y^2)/2", f"sqrt({r2} - t^2)", 1,
            xi_scale_text=f"-{r2}/sqrt({r2} - t^2)", name="visual-contour"),
        "hyperquadric": load_bundled("hyperquadric"),
        "adapted-curve": load_bundled("cubic-curve"),
    }
    grids = {
        "hyperplanar-1": [(t,) for t in np.linspace(-0.2, 0.2, 9)],
        "hyperplanar-2": [(a, b) for a in (-0.15, 0.0, 0.15) for b in (-0.15, 0.0, 0.15)],
        "visual-contour": [(t,) for t in np.linspace(-0.2, 0.2, 9)],
        "hyperquadric": [(a, b) for a in (-0.15, 0.0, 0.15) for b in (-0.15, 0.0, 0.15)],
        "adapted-curve": [(t,) for t in np.linspace(-0.12, 0.12, 9)],
    }
    return scenes, grids


def nonflat_grid():
    return [(a, b) for a in (0.08, 0.14, 0.2) for b in (0.08, 0.14, 0.2)]


@pytest.fixture(scope="session")
def parallel_corpus():
    return make_parallel_corpus()


def random_cubic_scene(rng, n, with_g=False):
    """Quadratic normal-form scene plus random cubic terms in (t, y)."""
    t_names = ["t"] if n == 1 else [f"t{i}" for i in range(1, n + 1)]
    names = t_names + ["y"]
    terms = [f"({v}^2)/2" for v in names]
    for i, a in enumerate(names):
        for j, b in enumerate(names[i:], start=i):
            for c in names[j:]:
                coeff = rng.uniform(-0.3, 0.3)
                terms.append(f"({coeff})*{a}*{b}*{c}")
    g = "0"
    if with_g:
        gt = [f"({rng.uniform(-0.4, 0.4)})*{a}*{b}"
              for i, a in enumerate(t_names) for b in t_names[i:]]
        g = " + ".join(gt) if gt else "0"
    return build_scene(" + ".join(terms), g, n)


def random_gauged_scene(seed, n, gauge):
    """A random cubic scene with a curved N, from ``seed``, as the variant of
    :func:`gauge_variants` that ``gauge`` names in GAUGES, and a point in
    [-0.1, 0.1]^n: the draws of the identity property tests."""
    rng = np.random.default_rng(seed)
    scene = gauge_variants(random_cubic_scene(rng, n, with_g=True))[GAUGES.index(gauge)]
    return scene, list(rng.uniform(-0.1, 0.1, n))
