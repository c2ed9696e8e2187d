"""The benchmark's named spans must name public adjointlab functions.

`perfbench/spans.py` wraps functions by (module, name); a renamed or deleted
function silently drops its per-layer metrics, so the names are checked here.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"

# Runs in a child process, so the traced wrappers never reach other tests.
COUNTER_RUN = """
import importlib.util, json, sys
import adjointlab.cli as cli

spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
spans.install(tracer)
out = sys.argv[2]
for argv in (
    ["scan-characters", "--weight-bound", "4", "--grid", "64"],
    ["estimate-c", "--weight-bound", "4", "--grid", "64"],
    ["arc-lemma", "--weight-bound", "4", "--grid", "64", "--arc-samples", "200"],
    ["orbit", "--walk-steps", "200"],
):
    assert cli.main(argv + ["--type", "A1", "--out", out]) == 0, argv
print(json.dumps(tracer.counts))
"""


def test_named_spans_are_public_functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.NAMED
    for module, name in spans.NAMED:
        mod = importlib.import_module(f"adjointlab.{module}")
        fn = getattr(mod, name, None)
        assert inspect.isfunction(fn), f"{module}.{name} is not a function"
        assert not name.startswith("_"), f"{module}.{name} is private"
        assert fn.__module__ == f"adjointlab.{module}", f"{module}.{name} is not defined there"


def test_work_counters_read_live_signatures(tmp_path):
    # the counters read argument names and result fields, so a rename makes
    # every traced pass raise; the span-name check above cannot see that
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", COUNTER_RUN, str(SPANS), str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    for key in ("characters.tables.weights", "characters.grid.terms",
                "disk.delta_check.samples", "disk.pigeonhole.samples",
                "orbits.partial_sums.steps", "reporting.write.bytes"):
        assert counts.get(key, 0) > 0, key
