"""adjointlab benchmark: seeded experiment sweeps driven through `cli.main`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

Each pass runs one workload's experiments back to back in a fresh
interpreter (perfbench/worker.py) with a controlled environment: no
ADJOINTLAB_CACHE, so weight tables are built cold, and no BLAS/OpenMP
thread variables, so library defaults apply as for a user. Passes repeat
while another one fits in S seconds (at least two).

Times are reported in reference seconds. The worker times a fixed
pure-Python kernel every 50 ms throughout the pass (see worker.py); each
measured time of one experiment, less the time the kernel took from it, is
multiplied by REFERENCE_PROBE_S over the mean kernel time during it, and
set-up time by that ratio for the whole pass. A shared host runs the same
code up to ~1.5x slower for a second or for minutes at a time, and the
scaling takes most of that out; the kernel is the benchmark's own code, so
a change to adjointlab moves the scaled times as much as the measured ones.
Per-layer times are scaled by the pass's mean kernel time. machine.speed is
the run's median of REFERENCE_PROBE_S over a pass's mean kernel time:
measured seconds are about reference seconds divided by it.

--trace 0 reports the end-to-end metrics: medians over the passes (for
slowest_s, the largest per-experiment median), except peak RSS, the least
over the passes.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics from the traced ones (see spans.py), the tracing overhead and the
share of pass time no layer span covers.

Every experiment of every pass goes through the verdict checks in
verdicts.py. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402

# removed from the workers' environment
STRIPPED_ENV = (
    "ADJOINTLAB_CACHE",
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_PASSES = 2
# speed-probe kernel time of the reference host: a 2-vCPU Intel Xeon cloud
# VM, whose kernel times range over ~1.1-1.8 ms as its load from other
# tenants changes
REFERENCE_PROBE_S = 0.0012
RUN_CEILING_S = 150.0  # no pass starts that could end after this
RUN_LIMIT_S = 175.0  # a pass still running at this point is killed


class BenchError(RuntimeError):
    pass


def worker_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = str(src)
    return env


def run_pass(workload: str, seed: int, out: Path, traced: bool, src: Path,
             timeout: float) -> dict:
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--spawned-at", repr(spawned)]
    if traced:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(src), text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} pass ran past {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as err:
        raise BenchError(f"worker printed no report: {err}") from None
    if Path(report["package"]) != src / "adjointlab":
        raise BenchError(f"worker imported adjointlab from {report['package']}")
    report["total_s"] = time.monotonic() - spawned
    to_reference(report)
    return report


def to_reference(report: dict) -> None:
    """Add the pass's times in reference seconds (`ref_*` keys) and its speed."""
    def ref(measured, probe):
        return (measured - probe["probe_spent_s"]) * REFERENCE_PROBE_S / probe["probe_s"]

    exps = report["experiments"]
    for exp in exps:
        exp["ref_wall_s"] = ref(exp["wall_s"], exp)
        exp["ref_cpu_s"] = ref(exp["cpu_s"], exp)
    report["ref_wall_s"] = sum(e["ref_wall_s"] for e in exps)
    report["ref_cpu_s"] = sum(e["ref_cpu_s"] for e in exps)
    # the pass's speed, weighting each experiment by its measured time
    report["speed"] = report["wall_s"] / sum(
        e["wall_s"] * e["probe_s"] / REFERENCE_PROBE_S for e in exps)
    # kernel times taken while modules import run slow and scattered, so
    # set-up is scaled by the speed of the experiments that follow it
    report["ref_setup_s"] = (report["setup_s"] - report["setup_probe_spent_s"]) * report["speed"]


def probe_free_wall_s(report: dict) -> float:
    """The pass's measured wall time less the time the speed probe took."""
    return report["wall_s"] - sum(e["probe_spent_s"] for e in report["experiments"])


def scaled(metrics: dict, speed: float) -> dict:
    """Per-layer metrics with their times scaled by `speed`."""
    return {k: (v * speed if u == "s" else v, u) for k, (v, u) in metrics.items()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run passes for `seconds`; returns the result object and a report."""
    src = root / "src"
    exps = {e.tag: e for e in workloads.WORKLOADS[workload].experiments(seed)}
    ledger = verdicts.Ledger()
    passes = []
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    start = time.monotonic()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            out = tmp / f"pass{len(passes)}"
            elapsed = time.monotonic() - start
            rep = run_pass(workload, seed, out, traced, src, RUN_LIMIT_S - elapsed)
            rep["traced"] = traced
            for res in rep["experiments"]:
                ledger.record(exps[res["tag"]], res["rc"], out / res["tag"], res["error"])
            shutil.rmtree(out)
            passes.append(rep)
            longest = max(p["total_s"] for p in passes)
            elapsed = time.monotonic() - start
            if len(passes) >= MIN_PASSES and elapsed + longest > min(seconds, RUN_CEILING_S):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    problems = list(ledger.problems)
    if trace:
        metrics = layer_report([p for p in passes if p["traced"]], plain, problems)
    else:
        metrics = end_to_end(plain, ledger)
    first = passes[0]
    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "scipy": first["scipy"],
        "blas": first["blas"],
        "openblas_threads": first["openblas_threads"],
        "passes": len(passes),
        "speed": round(statistics.median(p["speed"] for p in passes), 4),
        "pass_wall_s": [round(p["ref_wall_s"], 3) for p in passes],
    }
    return {
        "result": {
            "correct": not problems,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "machine": machine,
        "problems": problems,
    }


def end_to_end(plain: list[dict], ledger: verdicts.Ledger) -> dict:
    med = statistics.median
    per_experiment = {}  # tag -> wall times over the passes
    for p in plain:
        for e in p["experiments"]:
            per_experiment.setdefault(e["tag"], []).append(e["ref_wall_s"])
    return {
        "setup_s": (med(p["ref_setup_s"] for p in plain), "s"),
        "wall_s": (med(p["ref_wall_s"] for p in plain), "s"),
        "cpu_s": (med(p["ref_cpu_s"] for p in plain), "s"),
        "slowest_s": (max(med(t) for t in per_experiment.values()), "s"),
        # passes of one seed differ in peak RSS by up to ~10 MB of allocator
        # layout that depends on BLAS thread timing; the least of them is the
        # memory the pass needs
        "peak_rss_mb": (min(p["peak_rss_mb"] for p in plain), "MB"),
        "ok_frac": ((ledger.attempted - ledger.failed) / ledger.attempted, "frac"),
    }


def layer_report(traced: list[dict], plain: list[dict], problems: list[str]) -> dict:
    """Per-layer metrics: times are medians over the traced passes, counts
    must repeat exactly between them."""
    per_pass = [scaled(spans.layer_metrics(p["trace"]), p["speed"]) for p in traced]
    calls = [{k: v[1] for k, v in p["trace"]["spans"].items()} for p in traced]
    counts = [{k: v for k, (v, u) in m.items() if u == "count"} for m in per_pass]
    if any(c != counts[0] for c in counts) or any(c != calls[0] for c in calls):
        problems.append("work counts differ between traced passes")
    out = {}
    for name, (value, unit) in per_pass[0].items():
        out[name] = (value if unit == "count"
                     else statistics.median(m[name][0] for m in per_pass), unit)
    out["trace.overhead_s"] = (
        statistics.median(p["ref_wall_s"] for p in traced)
        - statistics.median(p["ref_wall_s"] for p in plain), "s")
    out["trace.uncovered_frac"] = (
        statistics.median(1 - p["trace"]["pass_top_s"] / probe_free_wall_s(p) for p in traced),
        "frac")
    return out


def show(workload: str, trace: bool, run: dict) -> None:
    print(f"# workload {workload}, {'traced' if trace else 'untraced'}")
    for key, value in run["machine"].items():
        print(f"# machine.{key} = {value}")
    for problem in run["problems"]:
        print(f"FAILED {problem}")
    for name, m in run["result"]["metrics"].items():
        value = m["value"] if m["unit"] == "count" else f"{m['value']:.6g}"
        print(f"{name} {value} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the `finally` blocks kill the worker
    # and remove the temporary directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "adjointlab" / "__init__.py").is_file():
        print(f"no adjointlab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    jobs = ([(w, t) for w in workloads.WORKLOADS for t in (False, True)]
            if args.workload == "all" else [(args.workload, bool(args.trace))])
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload, trace in jobs:
            run = measure(workload, args.seed, args.seconds, trace, root)
            show(workload, trace, run)
            res = run["result"]
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            prefix = "" if len(jobs) == 1 else f"{workload}/"
            summary["metrics"].update({prefix + k: v for k, v in res["metrics"].items()})
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
