"""Steadiness check: repeat the benchmark and compare each end-to-end
metric's run-to-run spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py

Each of SETS sets runs every workload of BENCHMARK.json RUNS times for
its ``run_seconds``, one seed per run (set k uses seeds k*1000+1 ...),
one run at a time.  Per set and metric it reports the median and the
spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
gated metric (one with a bound in BENCHMARK.json) is steady with spreads
below a third of its bound, noisy below the bound and unsteady above it;
a later set's median worse than the first's by more than the bound is
unsteady too.  Ungated metrics (``task_s.*``) are reported with their
spreads.  The summary goes to .perfbench_out/steady.json; the
exit code is 1 if a gated metric is unsteady or a run failed a check.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
RUNS = 10
SETS = 2
METRICS = ("setup_s", "wall_s", "task_s.p50", "task_s.tail", "peak_rss_mb")


def _run(workload, seed, seconds):
    """All end-to-end values of one run, from the record run.py writes."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload} seed {seed}: {proc.stderr[-2000:]}")
    record = json.loads((OUT_DIR / f"result-{workload}-seed{seed}-trace0.json").read_text())
    if record["failed"]:
        print(f"# {workload} seed {seed}: {record['failed']} of {record['attempted']} "
              f"tasks failed", flush=True)
    return record["end_to_end"], record["failed"]


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    gated = {m["name"]: m for m in spec["end_to_end"]}

    values, failed = {}, 0  # (set, workload) -> metric -> values
    for k in range(SETS):
        for workload in workloads:
            runs = [_run(workload, 1000 * k + i + 1, spec["run_seconds"]) for i in range(RUNS)]
            failed += sum(f for _, f in runs)
            values[(k, workload)] = {name: [r[name] for r, _ in runs] for name in METRICS}
            print(f"# set {k} {workload}: done", flush=True)

    report, steady = [], failed == 0
    print(f"{'workload':<10}{'metric':<13}{'bound':>7}" + "".join(
        f"{'median' + str(k):>11}{'spread' + str(k):>9}" for k in range(SETS))
        + "  worse than set 0")
    for workload in workloads:
        for name in METRICS:
            series = [values[(k, workload)][name] for k in range(SETS)]
            medians = [statistics.median(v) for v in series]
            spreads = [_spread(v) for v in series]
            worse = [(m - medians[0]) / medians[0] for m in medians[1:]]  # lower is better
            bound = gated[name]["bound"] if name in gated else None
            if bound is None:
                status = "ungated"
            else:
                widest = max(spreads)
                if widest >= bound or any(w > bound for w in worse):
                    status = "UNSTEADY"
                else:
                    status = "noisy" if widest >= bound / 3 else "steady"
            steady &= status != "UNSTEADY"
            report.append({"workload": workload, "metric": name, "bound": bound,
                           "medians": medians, "spreads": spreads, "worse": worse,
                           "status": status, "values": series})
            print(f"{workload:<10}{name:<13}" + (f"{bound:>7.3f}" if bound else f"{'-':>7}")
                  + "".join(f"{m:>11.5g}{s:>9.3f}" for m, s in zip(medians, spreads))
                  + "".join(f"  {w:+.3f}" for w in worse) + f"  {status}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "steady.json").write_text(json.dumps(report, indent=1))
    if failed:
        print(f"{failed} tasks failed their checks")
    print("gated metrics within bounds" if steady else "NOT steady: see UNSTEADY rows")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
