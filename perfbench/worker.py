"""One pass of a workload in a fresh interpreter.

Reads a JSON job from stdin and prints one JSON line to stdout.  The job
names the workload's scenes, its task list, a directory for exported
files, and whether to trace.  Set-up is ``import darboux`` plus parsing
the scenes; the pass is the task list run in order.  Outputs are reduced
to plain values after the pass clock stops and checked by the parent.

A pass must start in a fresh interpreter: ``frame._fields`` and
``metricbundle._bundle`` are caches keyed by scene value, so a second
pass in one process would read cached frames.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402


def _setup(scene_names):
    import darboux

    scenes = {name: darboux.load_bundled(name) for name in scene_names}
    return darboux, scenes


def _run_task(dx, scenes, task, out_dir, earlier):
    """Run one task; ``earlier`` holds the raw results of the tasks before it."""
    scene = scenes[task["scene"]]
    kind = task["kind"]
    if kind == "classify":
        return dx.classify_envelope_point(scene, [0.0] * scene.n, 1.0, order=6)
    if kind == "mesh":
        return dx.envelope_mesh(scene, [tuple(a) for a in task["t_axes"]], tuple(task["u"]))
    if kind == "export":
        path = os.path.join(out_dir, f"{task['id']}.{task['format']}")
        writer = dx.write_ply if task["format"] == "ply" else dx.write_obj
        writer(earlier[task["mesh_task"]], path)
        return path
    if kind == "parallel":
        return dx.parallel_field_exists(scene, [tuple(a) for a in task["region"]])
    if kind == "invariants":
        from darboux.curve import invariants_table

        lo, hi, count = task["interval"]
        return invariants_table(dx.as_curve(scene), (lo, hi), count)
    if kind == "singularity":
        return dx.curve_singularity(dx.as_curve(scene), task["t"])
    if kind == "metric":
        t = task["t"]
        return {
            "metric": dx.affine_metric(scene, t),
            "normal_plane": dx.affine_normal_plane(scene, t),
            "apolarity": dx.apolarity_defect(scene, t),
            "equiaffine": dx.equiaffine_defect(scene, t),
            "tau": dx.tau_form(scene, t),
            "dtau": dx.normal_curvature(scene, t),
            "compat": dx.blaschke_compatibility(scene, t),
        }
    if kind == "transon":
        return dx.transon_report(scene, task["t"])
    raise ValueError(f"unknown task kind {kind!r}")


def _max_abs(array):
    import numpy as np

    return float(np.abs(np.asarray(array, dtype=float)).max())


def _reduce(kind, raw):
    """Plain JSON values the parent checks."""
    import numpy as np

    if kind == "classify":
        return {"class": raw["class"], "versal": raw["versal"],
                "versal_method": raw["versal_method"]}
    if kind == "mesh":
        return {"vertices": len(raw.vertices), "faces": len(raw.faces),
                "diagnostics": len(raw.diagnostics)}
    if kind == "export":
        return {"path": raw}
    if kind == "parallel":
        return {"verdict": raw.verdict, "max_dtau": raw.max_dtau,
                "loop_residual": raw.loop_residual,
                "tangency_residual": raw.tangency_residual}
    if kind == "invariants":
        adapted, rows = raw
        values = [[r.sigma, r.mu, r.tau] for r in rows]
        return {"rows": len(rows), "residual_max": float(np.max(adapted.residual)),
                "finite": bool(np.isfinite(values).all())}
    if kind == "singularity":
        return {"verdict": raw}
    if kind == "metric":
        g, record = raw["metric"]
        xi, eta = raw["normal_plane"]
        finite = all(np.isfinite(np.asarray(v, dtype=float)).all()
                     for v in (g, xi, eta, raw["tau"], raw["dtau"]))
        return {"tau": _max_abs(raw["tau"]), "apolarity": _max_abs(raw["apolarity"]),
                "equiaffine": _max_abs(raw["equiaffine"]), "dtau": _max_abs(raw["dtau"]),
                "det_G": record["det_G"], "finite": bool(finite)}
    if kind == "transon":
        return {"verdict": raw.verdict, "residual": raw.residual}
    raise ValueError(f"unknown task kind {kind!r}")


def _peak_rss_kb():
    """Peak resident set of this process image.  ``ru_maxrss`` would also
    count the parent's pages copied at fork, which exec does not reset."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    job = json.load(sys.stdin)
    dx, scenes = _setup(job["scenes"])
    setup_s = time.perf_counter() - _T0
    result = {"darboux_file": dx.__file__, "setup_s": setup_s}
    if job.get("setup_only"):
        print(json.dumps(result))
        return 0

    warnings.simplefilter("ignore")
    tracer = None
    if job.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer(job["pass_id"])
        tracer.install()

    records, raws = [], []
    pass_start = time.perf_counter()
    for task in job["tasks"]:
        start = time.perf_counter()
        try:
            raw, error = _run_task(dx, scenes, task, job["out_dir"], raws), None
        except Exception as err:  # a failed task is counted, the pass goes on
            raw, error = None, f"{type(err).__name__}: {err}"
        records.append((task, time.perf_counter() - start, raw, error))
        raws.append(raw)
    wall_s = time.perf_counter() - pass_start
    peak_rss_kb = _peak_rss_kb()

    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if job.get("spans_path"):
            tracer.save(job["spans_path"])

    tasks = []
    for task, seconds, raw, error in records:
        output = None
        if error is None:
            try:
                output = _reduce(task["kind"], raw)
            except Exception as err:  # an unreadable result fails the task
                error = f"{type(err).__name__}: {err}"
        tasks.append({"id": task["id"], "seconds": seconds, "error": error,
                      "output": output})
    result.update(wall_s=wall_s, peak_rss_kb=peak_rss_kb, tasks=tasks)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
