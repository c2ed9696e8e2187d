"""Every verdict check can fail.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import verdicts  # noqa: E402
import workloads  # noqa: E402
from adjointlab import cli  # noqa: E402


def _experiment(workload: str, tag: str):
    exps = workloads.WORKLOADS[workload].experiments(workloads.DEFAULT_SEED)
    return next(e for e in exps if e.tag == tag)


def _run(exp, out: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(exp.argv) + ["--seed", str(exp.seed), "--out", str(out)])


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Real artifacts of one estimate-c and one orbit experiment."""
    root = tmp_path_factory.mktemp("artifacts")
    made = {}
    for workload, tag in (("torus-grids", "estimate-c-A1"), ("sample-sweep", "orbit-A1-0")):
        exp = _experiment(workload, tag)
        assert _run(exp, root / tag) == 0
        made[tag] = (exp, root / tag)
    return made


def _copy(artifacts, tag, tmp_path):
    exp, src = artifacts[tag]
    dst = tmp_path / tag
    shutil.copytree(src, dst)
    return exp, dst


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_untouched_artifacts_pass_twice(artifacts):
    ledger = verdicts.Ledger()
    for exp, out in artifacts.values():
        assert ledger.record(exp, 0, out) == []
        assert ledger.record(exp, 0, out) == []
    assert (ledger.attempted, ledger.failed) == (4, 0)


def test_wrong_exit_code_fails(artifacts):
    exp, out = artifacts["orbit-A1-0"]
    ledger = verdicts.Ledger()
    assert ledger.record(exp, 3, out) == ["exit code 3, expected 0"]
    assert ledger.failed == 1


def test_traceback_fails(artifacts):
    exp, out = artifacts["orbit-A1-0"]
    ledger = verdicts.Ledger()
    assert ledger.record(exp, None, out, "RuntimeError: boom")
    assert ledger.failed == 1


A1_GRID = 32768


@pytest.mark.parametrize("tag, edit", [
    # a grid minimum may not rise
    ("estimate-c-A1", lambda d: d.update(c_hat=d["c_hat"] + 1e-6)),
    # nor fall by more than 4/n^2
    ("estimate-c-A1", lambda d: d.update(c_hat=d["c_hat"] - 5.0 / A1_GRID**2)),
    ("orbit-A1-0", lambda d: d.update(rank=d["rank"] - 1)),
    ("orbit-A1-0", lambda d: d.update(residual=1e-6)),
    ("orbit-A1-0", lambda d: d.update(hull_margin=0.0)),
    ("orbit-A1-0", lambda d: d["walk"].update(max_distance=d["walk"]["bound"] + 1e-3)),
])
def test_doctored_number_fails(artifacts, tmp_path, tag, edit):
    exp, out = _copy(artifacts, tag, tmp_path)
    _edit_json(out / f"{exp.subcommand}-{exp.type_label}.json", edit)
    ledger = verdicts.Ledger()
    assert ledger.record(exp, 0, out)
    assert ledger.failed == 1


def test_refined_minimum_within_grid_resolution_passes(artifacts, tmp_path):
    exp, out = _copy(artifacts, "estimate-c-A1", tmp_path)
    _edit_json(out / "estimate-c-A1.json",
               lambda d: d.update(c_hat=d["c_hat"] - 3.0 / A1_GRID**2))
    assert verdicts.Ledger().record(exp, 0, out) == []


def test_changed_artifact_byte_fails(artifacts, tmp_path):
    exp, out = _copy(artifacts, "orbit-A1-0", tmp_path)
    ledger = verdicts.Ledger()
    assert ledger.record(exp, 0, out) == []
    csv = out / "orbit-A1-walk.csv"
    data = bytearray(csv.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("8")
    csv.write_bytes(bytes(data))
    assert ledger.record(exp, 0, out) == ["artifacts differ from the first pass"]
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_missing_artifact_fails(artifacts, tmp_path):
    exp, out = _copy(artifacts, "orbit-A1-0", tmp_path)
    (out / "orbit-A1.json").unlink()
    assert verdicts.Ledger().record(exp, 0, out)
