"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N --out DIR
       --spawned-at T [--trace]

Set-up is importing adjointlab and building the workload's root systems and
compact forms; its time runs from T, the parent's `time.monotonic()` just
before it started this interpreter. The pass then runs every experiment of
the workload through `cli.main` and prints one JSON line: set-up time,
per-experiment exit codes, wall and CPU times, the pass's wall time, CPU
time and peak RSS, the BLAS set-up and, with --trace, the span aggregates.

A shared host runs the same code up to ~1.5x slower for a second or for
minutes at a time. So that the parent can scale each measured time to a host
of fixed speed, a speed probe times a fixed pure-Python kernel every
PROBE_PERIOD_S of wall time throughout the pass, from a SIGALRM handler.
Each experiment reports `probe_s`, the mean kernel time of the samples taken
during it (of the PROBE_MIN_SAMPLES nearest ones when fewer were), and
`probe_spent_s`, the time the samples took from it; set-up reports the
latter as `setup_probe_spent_s`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import workloads


PROBE_PERIOD_S = 0.05  # the kernel takes ~1.5 ms: ~3% of the pass
PROBE_MIN_SAMPLES = 3


def _probe_kernel() -> int:
    s = 0
    for i in range(10_000):
        s += i * i % 7
    d: dict[int, int] = {}
    for i in range(2_500):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return s + len(d)


class SpeedProbe:
    """Kernel timings every PROBE_PERIOD_S, taken in the main thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (monotonic start, seconds)
        self.tracer = None  # a spans.Tracer to keep the samples out of self times

    def _tick(self, signum, frame):
        start, t0 = time.monotonic(), time.perf_counter()
        _probe_kernel()
        dt = time.perf_counter() - t0
        self.samples.append((start, dt))
        if self.tracer is not None:
            self.tracer.exclude(dt)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def take_spent(self) -> float:
        """Seconds taken by the samples so far, which are dropped."""
        samples, self.samples = self.samples, []
        return sum(dt for _, dt in samples)

    def interval(self, t0: float, t1: float) -> dict:
        """Probe figures of the monotonic interval [t0, t1]."""
        inside = [dt for start, dt in self.samples if t0 <= start <= t1]
        chosen = inside
        if len(chosen) < PROBE_MIN_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - mid))
            chosen = [dt for _, dt in nearest[:PROBE_MIN_SAMPLES]]
        return {"probe_s": sum(chosen) / len(chosen), "probe_spent_s": sum(inside)}


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _library_info() -> dict:
    """numpy and scipy versions, BLAS name/version as numpy was built, and
    the thread count each loaded OpenBLAS library will actually use."""
    import numpy as np
    import scipy

    info = {"numpy": np.__version__, "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    threads = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    info["openblas_threads"] = threads
    return info


def run_experiment(cli, exp, out: Path, config_dir: Path) -> dict:
    argv = list(exp.argv) + ["--seed", str(exp.seed), "--out", str(out / exp.tag)]
    if exp.config is not None:
        argv += ["--config", str(config_dir / f"{exp.tag}.json")]
    error = None
    cpu0, t0 = _cpu_s(), time.monotonic()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as err:  # argparse rejects bad flags this way
        rc = err.code
    except Exception as err:  # a traceback is a failed experiment, not a crash
        rc, error = None, f"{type(err).__name__}: {err}"
    t1 = time.monotonic()
    return {"tag": exp.tag, "rc": rc, "start": t0, "wall_s": t1 - t0,
            "cpu_s": _cpu_s() - cpu0, "error": error}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    probe = SpeedProbe()
    probe.start()

    import adjointlab
    from adjointlab import cli

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        probe.tracer = tracer
    for label in workload.root_types:
        rs = adjointlab.rootsys.build_root_system(label)
        if label in workload.form_types:
            adjointlab.compactform.build_compact_form(rs)
    setup_end = time.monotonic()
    setup_spent = probe.take_spent()

    out = Path(args.out)
    config_dir = out / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    experiments = workload.experiments(args.seed)
    for exp in experiments:
        if exp.config is not None:
            (config_dir / f"{exp.tag}.json").write_text(json.dumps(exp.config))

    top0 = tracer.top_s if tracer else 0.0
    results = [run_experiment(cli, exp, out, config_dir) for exp in experiments]
    probe.stop()
    for res in results:
        t0 = res.pop("start")
        res.update(probe.interval(t0, t0 + res["wall_s"]))
    report = {
        "setup_s": setup_end - args.spawned_at,
        "setup_probe_spent_s": setup_spent,
        "experiments": results,
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "package": str(Path(adjointlab.__file__).resolve().parent),
        **_library_info(),
    }
    if tracer is not None:
        report["trace"] = tracer.snapshot()
        report["trace"]["pass_top_s"] = tracer.top_s - top0
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
