"""End-to-end benchmark of darboux: one command per workload and seed.

    python3 perfbench/run.py --workload germs --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout holding this
directory.
Each pass runs the workload's task list in a fresh interpreter (closed
loop, one process, one thread, BLAS pinned to one thread) and passes
never overlap.  The pass count follows from ``--seconds`` and the
workload's nominal pass time (``workloads.pass_count``), so every commit
measured with the same settings does the same work.  Outputs are checked
after each pass.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the run alternates untraced and traced passes after the
kernel microbenchmarks, and the last line holds the per-layer metrics.
Human-readable lines above it name every metric with its unit and sample
count; the full record, environment included, goes to
``.perfbench_out/``.  See README.md for the metric definitions.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from checks import check  # noqa: E402
from workloads import NOMINAL_PASS_S, SCENES, make_tasks, pass_count  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up-only interpreters per untraced run, besides one per pass.  They
# are spread evenly between the passes, so that their median covers the
# whole run rather than the host's speed at its start.
SETUP_SAMPLES = 32
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
CHILD_TIMEOUT_S = 150
# Seconds of _reference_s at the nominal host speed.  On the reference
# machine it read 1.6 to 3.2 ms (5th to 95th percentile), median 2.7 ms.
REF_NOMINAL_S = 0.003
_REF_INPUTS = []  # made on the first call of _reference_s

# Workloads, metric names and units come from BENCHMARK.json.  Its
# end-to-end metrics make the JSON result line; the ones below are printed
# and recorded but not gated: fail_ratio is 0 on a correct program (the
# line carries attempted and failed instead), and the task_s metrics spread
# up to 0.22 between runs, too close to the largest allowed bound (see
# README.md, "Steadiness").
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS.update({"task_s.p50": "s", "task_s.tail": "s", "fail_ratio": "1"})


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(args, job=None):
    """Run a fresh interpreter on a benchmark script; return its JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / args[0]), *args[1:]],
            input=json.dumps(job) if job is not None else "",
            capture_output=True, text=True, env=_child_env(), cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{args[0]} ran over {CHILD_TIMEOUT_S} s") from err
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _build():
    """Byte-compile the package so that set-up never includes compiling."""
    if not (ROOT / "src" / "darboux" / "__init__.py").is_file():
        raise BenchError(f"no darboux package under {ROOT / 'src'}")
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", "src/darboux"],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"compileall failed: {proc.stdout}{proc.stderr}")


def _setup_sample(workload):
    result = _run_child(["worker.py"], {"scenes": SCENES[workload], "setup_only": True})
    _check_origin(result)
    return result["setup_s"]


def _check_origin(result):
    origin = Path(result["darboux_file"]).resolve()
    if ROOT / "src" not in origin.parents:
        raise BenchError(f"darboux was imported from {origin}, not from this checkout")


def _run_pass(workload, tasks, pass_id, trace, spans_path=None):
    files = Path(tempfile.mkdtemp(prefix="files-", dir=OUT_DIR))
    try:
        job = {"scenes": SCENES[workload], "tasks": tasks, "out_dir": str(files),
               "trace": trace, "pass_id": pass_id,
               "spans_path": str(spans_path) if spans_path else None}
        result = _run_child(["worker.py"], job)
        _check_origin(result)
        by_id = {task["id"]: task for task in tasks}
        for record in result["tasks"]:
            if record["error"] is None:
                record["error"] = check(by_id[record["id"]], record["output"], ROOT)
    finally:
        shutil.rmtree(files, ignore_errors=True)
    return result


def _reference_s():
    """Seconds of a fixed reference kernel, the fastest of three runs.

    The speed of a shared host drifts between levels up to 1.5x apart, each
    held for seconds to minutes, so raw times of runs made minutes apart
    differ by more than a regression bound.  An untraced run times this
    kernel in this process before each child interpreter and scales its
    times to the nominal host speed by REF_NOMINAL_S over a kernel time:
    a set-up by the one just before it, since set-up is as short as the
    kernel; pass and task times, which span seconds, by the median of the
    run.  The kernel does what darboux spends its time on, in code that
    does not change with darboux: gathers and scatter-adds over a product
    table the size of the (6, 8) jet space's, and small arrays and Python
    objects as in low-order jets.
    """
    if not _REF_INPUTS:
        size, pairs = 3003, 125970  # the (6, 8) space and its product pairs
        index = np.arange(3 * pairs).reshape(3, pairs) * 7919 % size
        _REF_INPUTS.extend([index, np.cos(np.arange(float(size))), index[:, :35] % 10])
    index, coeffs, small = _REF_INPUTS
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        np.bincount(index[2], weights=coeffs[index[0]] * coeffs[index[1]], minlength=len(coeffs))
        acc = coeffs[:10]
        for k in range(300):
            prod = acc[small[0]] * coeffs[small[1]]
            acc = np.bincount(small[2], weights=prod, minlength=10) / (1.0 + abs(prod[0]))
            acc = acc + {"k": k, "v": float(acc[0])}["v"] * 1e-9
        best = min(best, time.perf_counter() - start)
    return best


def _passes(workload, tasks, seconds, trace):
    """Untraced passes with set-up samples between them, or alternating
    untraced/traced pairs when tracing.  Returns the untraced passes, the
    traced passes and, untraced, (set-up time, reference kernel time just
    before its interpreter) for each set-up sample and pass."""
    plain, traced, setups = [], [], []
    spans_dir = OUT_DIR / f"spans-{workload}"
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    # A traced pair costs about two untraced passes.
    count = max(1, round(seconds / (2 * NOMINAL_PASS_S[workload]))) if trace \
        else pass_count(workload, seconds)
    for i in range(count):
        if trace:
            plain.append(_run_pass(workload, tasks, 2 * i, False))
            traced.append(_run_pass(workload, tasks, 2 * i + 1, True,
                                    spans_dir / f"pass-{2 * i + 1}.npz"))
            continue
        batch = SETUP_SAMPLES * (i + 1) // count - SETUP_SAMPLES * i // count
        for _ in range(batch):
            ref = _reference_s()
            setups.append((_setup_sample(workload), ref))
        ref = _reference_s()
        plain.append(_run_pass(workload, tasks, i, False))
        setups.append((plain[-1]["setup_s"], ref))
    return plain, traced, setups


# -- end-to-end metrics ---------------------------------------------------


def end_to_end(setups, passes):
    """The end-to-end metrics, times at the nominal host speed (see
    _reference_s), and the scale applied to pass and task times."""
    scale = REF_NOMINAL_S / statistics.median(ref for _, ref in setups)
    setups = [setup * REF_NOMINAL_S / ref for setup, ref in setups]
    task_s = [scale * t["seconds"] for p in passes for t in p["tasks"]]
    failed = sum(t["error"] is not None for p in passes for t in p["tasks"])
    # The highest percentile that leaves TAIL_BEYOND samples above it, by
    # nearest rank: task times cluster by task kind, and interpolating
    # between two clusters would amplify noise.  The sample count is fixed
    # by the workload and --seconds.
    rank = len(task_s) - TAIL_BEYOND
    q = 100.0 * rank / len(task_s)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": scale * statistics.median(p["wall_s"] for p in passes),
        "task_s.p50": statistics.median(task_s),
        "task_s.tail": sorted(task_s)[rank - 1],
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024 for p in passes),
        "fail_ratio": failed / len(task_s),
    }
    beyond = sum(t > values["task_s.tail"] for t in task_s)
    samples = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(passes)} passes",
        "task_s.p50": f"median of {len(task_s)} tasks",
        "task_s.tail": f"p{q:.1f} of {len(task_s)} tasks, {beyond} beyond it",
        "peak_rss_mb": f"median of {len(passes)} passes",
        "fail_ratio": f"{failed} of {len(task_s)} tasks failed",
    }
    return values, samples, scale


# -- per-layer metrics ----------------------------------------------------

# metric -> (span name, field); counts must repeat exactly between passes.
SPAN_METRICS = {
    "jets.mul.calls": ("jets.mul", "calls"),
    "jets.mul.self_s": ("jets.mul", "self_s"),
    "jets.compose.calls": ("jets.compose", "calls"),
    "jets.compose.self_s": ("jets.compose", "self_s"),
    "jets.det.calls": ("jets.det", "calls"),
    "jets.det.self_s": ("jets.det", "self_s"),
    "jets.reciprocal.calls": ("jets.reciprocal", "calls"),
    "jets.reciprocal.self_s": ("jets.reciprocal", "self_s"),
    "jets.space.builds": ("jets.space", "calls"),
    "jets.space.build_s": ("jets.space", "total_s"),
    "jets.solve.calls": ("jets.solve", "calls"),
    "jets.solve.self_s": ("jets.solve", "self_s"),
    "frame.builds": ("frame.build", "calls"),
    "frame.build.self_s": ("frame.build", "self_s"),
    "frame.structure_jets.calls": ("frame.structure_jets", "calls"),
    "frame.structure_jets.self_s": ("frame.structure_jets", "self_s"),
    "expr.eval.calls": ("expr.eval", "calls"),
    "expr.eval.self_s": ("expr.eval", "self_s"),
    "expr.derivative.calls": ("expr.derivative", "calls"),
    "expr.derivative.self_s": ("expr.derivative", "self_s"),
    "curve.adapt.total_s": ("curve.adapt", "total_s"),
    "curve.invariants.calls": ("curve.invariants", "calls"),
    "curve.invariants.total_s": ("curve.invariants", "total_s"),
    "metricbundle.bundle.builds": ("metricbundle.bundle", "calls"),
    "metricbundle.tau_form.calls": ("metricbundle.tau_form", "calls"),
    "metricbundle.parallel.total_s": ("metricbundle.parallel", "total_s"),
    "transon.monge.builds": ("transon.monge", "calls"),
    "transon.report.total_s": ("transon.report", "total_s"),
    "envelope.mesh.total_s": ("envelope.mesh", "total_s"),
    "envelope.write.s": ("envelope.write", "total_s"),
    "singular.germ_jet.total_s": ("singular.germ_jet", "total_s"),
    "singular.classify_germ.self_s": ("singular.classify_germ", "self_s"),
    "singular.versality.self_s": ("singular.versality", "self_s"),
}


def _derived(summary):
    """Per-layer values read from the tracer's counters of one pass."""
    spans = summary["spans"]
    mul_self_ns = spans["jets.mul"]["self_s"] * 1e9
    mesh_s = spans["envelope.mesh"]["total_s"]
    distinct = summary["distinct_ratio"]
    return {
        "jets.mul.useful_pairs": summary["mul_useful_pairs"],
        "jets.mul.pairs": summary["mul_pairs"],
        "jets.mul.useful_ratio": (summary["mul_useful_pairs"] / summary["mul_pairs"]
                                  if summary["mul_pairs"] else 0.0),
        "jets.mul.ns_per_pair": (mul_self_ns / summary["mul_useful_pairs"]
                                 if summary["mul_useful_pairs"] else 0.0),
        "frame.distinct_ratio": distinct["frame.build"],
        "expr.derivative.distinct_ratio": distinct["expr.derivative"],
        "metricbundle.bundle.distinct_ratio": distinct["metricbundle.bundle"],
        "transon.monge.distinct_ratio": distinct["transon.monge"],
        "envelope.vertices_per_s": summary["mesh_vertices"] / mesh_s if mesh_s else 0.0,
        "envelope.write.bytes": summary["write_bytes"],
        "trace.spans": summary["span_count"],
    }


def per_layer(plain, traced, micro):
    """Counts from the first traced pass (checked equal across passes),
    times as medians over traced passes."""
    per_pass = []
    for p in traced:
        values = {name: p["trace"]["spans"][span][field]
                  for name, (span, field) in SPAN_METRICS.items()}
        values.update(_derived(p["trace"]))
        per_pass.append(values)
    metrics, notes = {}, []
    for name, first in per_pass[0].items():
        series = [values[name] for values in per_pass]
        if UNITS[name] in ("count", "1"):  # counts and ratios of counts
            if len(set(series)) > 1:
                notes.append(f"{name} differs between traced passes: {series}")
            metrics[name] = first
        else:
            metrics[name] = statistics.median(series)
    metrics["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                       / statistics.median(p["wall_s"] for p in plain))
    metrics.update(micro)
    return metrics, notes


# -- environment and output -----------------------------------------------


def environment(args):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # an exported source tree has no commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "darboux").rglob("*")):
        if path.suffix in (".py", ".scene"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "threads": {var: _child_env()[var] for var in THREAD_VARS},
        "commit": commit, "source_sha256": digest.hexdigest(),
    }


def _line(workload, name, unit, value, samples=""):
    print(f"{workload:<9} {name:<38} {value:>16.6g} {unit:<6} {samples}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _build()
        OUT_DIR.mkdir(exist_ok=True)
        env = environment(args)
        print(f"# darboux benchmark: workload {args.workload} ({WHY[args.workload]})")
        print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
        tasks = make_tasks(args.workload, args.seed)
        micro = _run_child(["microbench.py"]) if args.trace else {}
        plain, traced, setups = _passes(args.workload, tasks, args.seconds, args.trace)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    all_passes = plain + traced
    attempted = sum(len(p["tasks"]) for p in all_passes)
    failures = [(t["id"], t["error"]) for p in all_passes for t in p["tasks"] if t["error"]]
    for task_id, error in failures[:20]:
        print(f"# FAILED {task_id}: {error}")

    record = {"environment": env, "tasks": tasks, "attempted": attempted,
              "failed": len(failures), "setups": setups,
              "passes": [{k: p[k] for k in ("wall_s", "peak_rss_kb", "tasks")}
                         for p in plain]}
    if args.trace:
        layer, notes = per_layer(plain, traced, micro)
        for note in notes:
            print(f"# NOTE {note}")
        for name, value in layer.items():
            if name in micro:
                samples = "microbenchmark median"
            elif name == "trace.overhead_ratio":
                samples = f"{len(traced)} traced / {len(plain)} untraced passes"
            else:
                samples = f"{len(traced)} traced passes"
            _line(args.workload, name, UNITS[name], value, samples)
        values, reported = layer, SPEC["per_layer"]
        record["traced"] = [p["trace"] for p in traced]
    else:
        values, samples, scale = end_to_end(setups, plain)
        print(f"# pass and task times scaled by {scale:.4f} to the nominal host speed: "
              f"{REF_NOMINAL_S * 1e3:g} ms over the reference kernel's median "
              f"{REF_NOMINAL_S / scale * 1e3:.3f} ms of {len(setups)} timings; "
              f"each set-up time by the timing just before it")
        record["scale"] = scale
        for name, value in values.items():
            _line(args.workload, name, UNITS[name], value, samples[name])
        record["end_to_end"] = values
        reported = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported}
    record["metrics"] = metrics
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{suffix}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
