"""Kernel microbenchmarks of public jet and frame calls, in a fresh interpreter.

Prints one JSON object mapping metric name to its median time.  Inputs
are random jets from a fixed generator; jet-space tables are built
before timing, since the workloads that use a space build it once.
"""

import json
import sys
import time

import numpy as np

import darboux
from darboux.frame import FrameFields
from darboux.jets import Jet, jet_compose, jet_solve, jet_space

BLOCK_S = 0.02  # grow a block of calls until it takes this long
BLOCKS = 5


def _per_call(fn):
    """Median seconds per call over BLOCKS blocks of equal size."""
    count = 1
    while True:
        start = time.perf_counter()
        for _ in range(count):
            fn()
        if time.perf_counter() - start >= BLOCK_S:
            break
        count *= 2
    samples = []
    for _ in range(BLOCKS):
        start = time.perf_counter()
        for _ in range(count):
            fn()
        samples.append((time.perf_counter() - start) / count)
    return float(np.median(samples))


def _once(fn, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def _jet(rng, space, order=None, value=None):
    coeffs = rng.standard_normal(space.size)
    if value is not None:
        coeffs[0] = value
    return Jet(space, coeffs, order)


def main():
    rng = np.random.default_rng(2015)
    out = {}
    for nvars, order, result_order, name in (
        (1, 5, None, "n1o5"), (2, 3, None, "n2o3"), (2, 4, None, "n2o4"),
        (6, 8, None, "n6o8"), (6, 8, 6, "n6o8r6"),
    ):
        space = jet_space(nvars, order)
        a, b = _jet(rng, space, result_order), _jet(rng, space, result_order)
        out[f"jets.mul_us.{name}"] = 1e6 * _per_call(lambda: a * b)

    # (6, 8) space, result order 4: the composition runs below the space order.
    space = jet_space(6, 8)
    outer = _jet(rng, space, order=4)
    inner = [_jet(rng, space, value=0.0) for _ in range(6)]
    out["jets.compose_us.n6o8"] = 1e6 * _once(lambda: jet_compose(outer, inner), 3)

    # The shape of a surface frame's provisional decomposition: a 4 x 4
    # basis with 6 right-hand sides, over the (2, 3) space.
    space = jet_space(2, 3)
    basis = [[_jet(rng, space, value=(4.0 if r == c else rng.uniform(-1, 1)))
              for c in range(4)] for r in range(4)]
    rhs = [[_jet(rng, space) for _ in range(4)] for _ in range(6)]
    out["jets.solve_us.n2o3"] = 1e6 * _per_call(lambda: jet_solve(basis, rhs))

    e8 = darboux.load_bundled("e8")
    origin = np.zeros(e8.n)
    jet_space(e8.n, 8)
    out["frame.build_ms.e8"] = 1e3 * _once(lambda: FrameFields(e8, origin, 6), 3)

    hyper = darboux.load_bundled("hyperquadric")
    point = np.array([0.1, -0.05])
    out["frame.build_ms.hyperquadric"] = 1e3 * _per_call(
        lambda: FrameFields(hyper, point, 1))
    frame = FrameFields(hyper, point, 1)
    out["frame.structure_jets_ms.hyperquadric"] = 1e3 * _per_call(frame.structure_jets)

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
