"""The benchmark's verdicts must accept the artifacts the CLI writes today.

`perfbench/verdicts.py` reads keys of each subcommand's JSON artifact; a
dropped or renamed key would show up only as failed benchmark operations.
Here every plan entry of every workload runs through `cli.main` with the
seed and config the benchmark derives, and its verdict must be clean.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from adjointlab import cli

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
verdicts = _load("verdicts")


@pytest.mark.parametrize("workload, tag", [
    (name, exp.tag)
    for name, workload in workloads.WORKLOADS.items()
    for exp in workload.experiments(workloads.DEFAULT_SEED)
])
def test_plan_entry_passes_its_verdict(tmp_path, capsys, workload, tag):
    plan = workloads.WORKLOADS[workload].experiments(workloads.DEFAULT_SEED)
    exp = next(e for e in plan if e.tag == tag)
    out = tmp_path / exp.tag
    argv = list(exp.argv) + ["--seed", str(exp.seed), "--out", str(out)]
    if exp.config is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(exp.config))
        argv += ["--config", str(config)]
    rc = cli.main(argv)
    capsys.readouterr()
    assert verdicts.check(exp, rc, out) == []
