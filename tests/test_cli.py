"""End-to-end CLI checks: artifacts, exit codes, determinism, config."""

import json
import subprocess
import sys

import numpy as np
import pytest

from adjointlab import classpowers
from adjointlab.cli import FALSIFIED, USAGE_ERROR, main
from adjointlab.compactform import LogRangeError


def read_artifacts(out, stem):
    csv_path = out / f"{stem}.csv"
    json_path = out / f"{stem}.json"
    doc = json.loads(json_path.read_text()) if json_path.exists() else None
    text = csv_path.read_text() if csv_path.exists() else None
    return text, doc


def test_estimate_c_defaults(tmp_path):
    rc = main(["estimate-c", "--out", str(tmp_path)])
    assert rc == 0
    text, doc = read_artifacts(tmp_path, "estimate-c-A1")
    assert doc["schema"] == 1
    assert doc["subcommand"] == "estimate-c"
    assert doc["seed"] == 20260816
    assert doc["c_hat"] == pytest.approx(-1 / 3, abs=1e-9)
    assert doc["attaining_sample"]["lambda"] == [2]
    assert doc["attaining_sample"]["theta"][0] == pytest.approx(np.pi / 2, abs=1e-9)
    assert text.startswith("# schema=1 subcommand=estimate-c seed=20260816")
    assert "type,lambda,theta_1,re_z,im_z,h" in text.splitlines()[1]
    assert (tmp_path / "estimate-c-A1.svg").exists()


def test_scan_characters_small(tmp_path):
    rc = main(["scan-characters", "--type", "A2", "--grid", "48",
               "--weight-bound", "4", "--out", str(tmp_path)])
    assert rc == 0
    text, doc = read_artifacts(tmp_path, "scan-characters-A2")
    assert doc["max_abs_haar"] < 1e-10
    assert not doc["falsified"]
    lams = [tuple(i["lambda"]) for i in doc["irreps"]]
    assert (1, 1) in lams and (0, 0) not in lams
    header = text.splitlines()[1]
    assert header == "type,lambda,theta_1,theta_2,re_z,im_z"


def test_scan_falsification_exit_code(tmp_path):
    # an absurd tolerance override forces the falsification path: exit 3
    # with artifacts still written (they are the evidence)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"haar": 1e-30}, "grid": 32,
                               "weight_bound": 2}))
    rc = main(["scan-characters", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == FALSIFIED
    _, doc = read_artifacts(tmp_path, "scan-characters-A1")
    assert doc["falsified"] is True


def test_orbit_command(tmp_path):
    rc = main(["orbit", "--type", "A1", "--walk-steps", "400",
               "--out", str(tmp_path)])
    assert rc == 0
    _, doc = read_artifacts(tmp_path, "orbit-A1")
    assert doc["rank"] == 3
    assert doc["residual"] <= 1e-9
    assert doc["hull_margin"] > 0
    assert (tmp_path / "orbit-A1-certificate.csv").exists()
    walk = (tmp_path / "orbit-A1-walk.csv").read_text()
    assert walk.startswith("# schema=1 subcommand=orbit")


def test_class_power_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"class_t_values": [0.1, 0.7], "interior_targets": 4}))
    rc = main(["class-power", "--type", "A1", "--config", str(cfg),
               "--out", str(tmp_path)])
    assert rc == 0
    _, doc = read_artifacts(tmp_path, "class-power-A1")
    assert doc["n"] == 2
    assert len(doc["runs"]) == 2
    run = doc["runs"][0]
    assert run["reachable"] is True and run["interior"] is True
    assert run["seeds"] == [20260816, 0]
    assert run["t"] == 0.1
    assert doc["falsification_count"] == 0


def test_class_power_reachability_miss(tmp_path, monkeypatch):
    # a solver that never reaches I must fail loudly where -1 in W predicts
    # I in C.C (B2), and stay quiet where it does not (A2, generic classes)
    def never(cls, n, target, rng, **kwargs):
        best = classpowers.WordRecord(gs=[], product=np.eye(cls.basis.dim),
                                      residual=1.0, rank=0)
        raise classpowers.WordSolveError("no solve", best)

    monkeypatch.setattr(classpowers, "solve_word_to_target", never)
    assert main(["class-power", "--type", "B2", "--out", str(tmp_path)]) == FALSIFIED
    _, doc = read_artifacts(tmp_path, "class-power-B2")
    assert doc["falsification_count"] >= 1
    assert all(not r["reachable"] and r["falsifications"] for r in doc["runs"])
    assert main(["class-power", "--type", "A2", "--out", str(tmp_path)]) == 0
    _, doc = read_artifacts(tmp_path, "class-power-A2")
    assert doc["falsification_count"] == 0


def test_bch_command(tmp_path):
    rc = main(["bch", "--type", "A1", "--bch-samples", "120",
               "--out", str(tmp_path)])
    assert rc == 0
    _, doc = read_artifacts(tmp_path, "bch-A1")
    assert 1.95 <= doc["exponent"] <= 2.05
    assert doc["commuting_exact_zero"] is True
    pr = doc["product_radius"]
    assert pr["mu_hat"] <= pr["bound"]


def test_arc_lemma_command(tmp_path):
    rc = main(["arc-lemma", "--arc", "0.4", "0.6", "--arc-samples", "800",
               "--out", str(tmp_path)])
    assert rc == 0
    _, doc = read_artifacts(tmp_path, "arc-lemma-A1")
    assert doc["constants"]["q"] >= 3
    assert doc["pigeonhole"]["max_k"] <= doc["pigeonhole"]["k_cap"]
    assert doc["pigeonhole"]["max_re"] <= 1e-8
    assert doc["delta_bound"]["violations"] == []
    assert doc["final_inequality_sweep_ok"] is True
    assert doc["falsified"] is False


def test_verify_all_and_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["verify-all", "--out", str(out1)]) == 0
    assert main(["verify-all", "--out", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    doc = json.loads((out1 / "verify-all.json").read_text())
    assert doc["n_failures"] == 0
    assert doc["n_checks"] >= 30


def test_verify_all_check_that_raises_is_a_failure(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise LogRangeError("log round trip failed")

    monkeypatch.setattr(classpowers, "bch_scaling_fit", broken)
    assert main(["verify-all", "--out", str(tmp_path)]) == FALSIFIED
    doc = json.loads((tmp_path / "verify-all.json").read_text())
    assert doc["n_failures"] >= 1
    failed = [c for c in doc["checks"] if c["status"] == "FAIL"]
    assert any("LogRangeError" in c["detail"] for c in failed)
    assert any(c["suite"] == "disk" for c in doc["checks"])
    assert (tmp_path / "verify-all.csv").exists()


def test_repeat_run_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["estimate-c", "--type", "A1", "--grid", "256",
                     "--weight-bound", "4", "--out", str(out)]) == 0
    for name in ("estimate-c-A1.csv", "estimate-c-A1.json", "estimate-c-A1.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"type": "A2", "grid": 32, "weight_bound": 2}))
    rc = main(["estimate-c", "--config", str(cfg), "--type", "A1",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "estimate-c-A1.json").exists()  # flag beat the file
    assert not (tmp_path / "estimate-c-A2.json").exists()


def test_config_errors(tmp_path, capsys):
    bad_field = tmp_path / "bad.json"
    bad_field.write_text(json.dumps({"wat": 3}))
    assert main(["estimate-c", "--config", str(bad_field),
                 "--out", str(tmp_path / "x")]) == USAGE_ERROR
    assert "wat" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # no artifacts on usage error

    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    assert main(["estimate-c", "--config", str(malformed),
                 "--out", str(tmp_path / "y")]) == USAGE_ERROR

    assert main(["estimate-c", "--type", "Z9",
                 "--out", str(tmp_path / "z")]) == USAGE_ERROR
    assert main(["class-power", "--class-n", "0",
                 "--out", str(tmp_path / "w")]) == USAGE_ERROR

    # only the haar tolerance is read, so any other key is an error
    for tolerances in ({"orbit": 1e-3}, {"haar": 0}, {"haar": -1e-5},
                       {"haar": "1e-5"}, {"haar": True}):
        bad_tol = tmp_path / "tol.json"
        bad_tol.write_text(json.dumps({"tolerances": tolerances}))
        assert main(["scan-characters", "--config", str(bad_tol),
                     "--out", str(tmp_path / "v")]) == USAGE_ERROR
    assert not (tmp_path / "v").exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "adjointlab", "estimate-c", "--type", "A1",
         "--grid", "128", "--weight-bound", "2", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "c_hat" in proc.stdout
