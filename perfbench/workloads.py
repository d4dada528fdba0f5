"""Workload definitions: the fixed task list of one pass, generated from a seed.

This module runs in the benchmark's parent process and never imports
darboux; the pass worker receives only the generated task specs.  Seeded
ranges stay inside regions where the bundled scenes are non-degenerate
and where the expected verdicts are known from the scenes' construction
(see README.md).
"""

import numpy as np

# Scenes each workload parses during set-up.
SCENES = {
    "germs": ["e6", "e7", "e8", "d5", "a5"],
    "grids": ["hyperquadric", "a2", "nonflat"],
    "pointwise": ["a2", "cubic-curve", "nonflat", "hyperquadric"],
}

# Seconds one pass took at the seed commit on the reference machine (2-vCPU
# Intel Xeon, Python 3.11).  A run makes round(--seconds / this) passes, at
# least MIN_PASSES, so the work per run is fixed by --seconds alone and is
# the same for every commit compared.
NOMINAL_PASS_S = {"germs": 7.0, "grids": 4.5, "pointwise": 5.8}
MIN_PASSES = 3


def pass_count(workload, seconds):
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


# Expected class labels of the germ scenes at their origin.
GERM_CLASSES = {"e6": "E6", "e7": "E7", "e8": "E8", "d5": "D5", "a5": "A5"}


def _jitter(rng, value, width=0.02):
    return float(value + rng.uniform(-width, width))


def _axis(rng, lo, hi, count):
    return [_jitter(rng, lo), _jitter(rng, hi), count]


def _germs(rng):
    # These classes live only at the origin, so the seed changes nothing
    # here.  Not even the order: the peak memory of a pass depends on it
    # (e8 after e7 peaks about 6 MB higher), which would tie peak_rss_mb to
    # the seed.
    return [{"kind": "classify", "scene": name, "expected": label}
            for name, label in GERM_CLASSES.items()]


def _grids(rng):
    hyper = {"kind": "mesh", "scene": "hyperquadric",
             "t_axes": [_axis(rng, -0.3, 0.3, 20), _axis(rng, -0.3, 0.3, 20)],
             "u": _axis(rng, 0.2, 1.2, 10)}
    a2 = {"kind": "mesh", "scene": "a2", "t_axes": [_axis(rng, -0.45, 0.45, 60)],
          "u": _axis(rng, 0.55, 1.45, 25)}

    def export(position, mesh, fmt):  # writes the mesh made by task `position`
        return dict(mesh, kind="export", mesh_task=position, format=fmt)

    return [
        hyper, export(0, hyper, "ply"),
        a2, export(2, a2, "ply"), export(2, a2, "obj"),
        {"kind": "parallel", "scene": "hyperquadric",
         "region": [_axis(rng, -0.15, 0.15, 5), _axis(rng, -0.15, 0.15, 5)],
         "expected": "exists"},
        {"kind": "parallel", "scene": "nonflat",
         "region": [_axis(rng, -0.2, 0.2, 5), _axis(rng, -0.2, 0.2, 5)],
         "expected": "not exists"},
    ]


def _point(rng, lo, hi, n):
    return [float(v) for v in rng.uniform(lo, hi, n)]


def _pointwise(rng):
    tasks = [
        {"kind": "invariants", "scene": "a2",
         "interval": [float(rng.uniform(-0.2, -0.12)), float(rng.uniform(0.12, 0.2)), 21]},
        {"kind": "invariants", "scene": "cubic-curve",
         "interval": [float(rng.uniform(-0.12, -0.08)), float(rng.uniform(0.08, 0.12)), 21]},
        {"kind": "singularity", "scene": "a2", "t": float(rng.uniform(-0.1, 0.1)),
         "expected": "CuspidalEdge"},
    ]
    # nonflat: tau, the apolarity and equiaffine defects all exceed 1e-4 and
    # the Transon plane is distinct from the normal plane on [0.08, 0.2]^2;
    # hyperquadric: its Darboux field is parallel everywhere.
    for _ in range(2):
        for scene, lo, hi, flat in (("nonflat", 0.08, 0.2, False),
                                    ("hyperquadric", -0.15, 0.15, True)):
            t = _point(rng, lo, hi, 2)
            tasks.append({"kind": "metric", "scene": scene, "t": t, "flat": flat})
            tasks.append({"kind": "transon", "scene": scene, "t": t,
                          "expected": "coincide" if flat else "distinct"})
    tasks.append({"kind": "transon", "scene": "cubic-curve",
                  "t": [float(rng.uniform(-0.12, 0.12))], "expected": "coincide"})
    return tasks


_BUILDERS = {"germs": _germs, "grids": _grids, "pointwise": _pointwise}


def make_tasks(workload, seed):
    """The task list of one pass; the same seed gives the same list."""
    rng = np.random.default_rng([seed, sorted(_BUILDERS).index(workload)])
    tasks = _BUILDERS[workload](rng)
    for k, task in enumerate(tasks):
        task["id"] = f"{k:02d}-{task['kind']}-{task['scene']}"
    return tasks
