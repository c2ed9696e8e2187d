"""End-to-end CLI checks: artifacts, exit codes, determinism, config."""

import dataclasses
import errno
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from adjointlab import characters, classpowers, cli, disk, orbits, reporting, rootsys, simplex
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


def test_estimate_c_reuses_the_winning_grid(tmp_path, monkeypatch):
    # the SVG scatter draws the attaining irrep's grid that the estimate
    # already evaluated; the subcommand builds no table or grid of its own
    calls = []

    def counted(name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return getattr(characters, name)(*args, **kwargs)
        return wrapper

    for name in ("weight_multiplicities", "character_grid"):
        monkeypatch.setattr(cli, name, counted(name))
    assert main(["estimate-c", "--type", "B2", "--weight-bound", "4",
                 "--grid", "32", "--out", str(tmp_path)]) == 0
    assert calls == []
    assert (tmp_path / "estimate-c-B2.svg").stat().st_size > 0


def test_estimate_c_escape_exits_3(tmp_path, monkeypatch, capsys):
    # a grid of -dim puts every normalized value at z = -1, where h = -1:
    # outside (-1, 0), so the disk bound is falsified
    def at_minus_one(table, n):
        shape = characters.half_grid_shape(table.rs.rank, n)
        return np.full(shape, -table.dim, dtype=complex)

    monkeypatch.setattr(disk, "character_grid", at_minus_one)
    out = tmp_path / "out"
    assert main(["estimate-c", "--type", "A2", "--weight-bound", "4",
                 "--grid", "16", "--out", str(out)]) == FALSIFIED
    assert "FALSIFIED" in capsys.readouterr().err
    assert not out.exists()  # the escape stops the run before any artifact


def test_estimate_c_coarse_grid_exits_2(tmp_path, capsys):
    # grids that miss every value with negative real part give c_hat >= 0:
    # an under-resolved grid, not a counterexample to the disk bound
    for label, grid in (("A1", "3"), ("A2", "2")):
        out = tmp_path / label
        assert main(["estimate-c", "--type", label, "--grid", grid,
                     "--weight-bound", "2", "--out", str(out)]) == USAGE_ERROR
        assert "too coarse" in capsys.readouterr().err
        assert not out.exists()


def test_estimate_c_internal_error_is_not_a_falsification(tmp_path, monkeypatch):
    # a failed internal check must surface as an error, never as exit 3
    def broken(rs, lam):
        raise AssertionError("table check failed")

    monkeypatch.setattr(disk, "weight_multiplicities", broken)
    with pytest.raises(AssertionError, match="table check failed"):
        main(["estimate-c", "--type", "A2", "--weight-bound", "4",
              "--grid", "16", "--out", str(tmp_path)])


@pytest.mark.parametrize("error, rc, prefix", [
    (disk.DiskBoundEscape("empirical disk constant -1.5 <= -1"), FALSIFIED, "FALSIFIED: "),
    (disk.CoarseGridError("grid 3 too coarse"), USAGE_ERROR, "config error: "),
])
def test_estimate_c_outcomes_reach_main(tmp_path, monkeypatch, capsys, error, rc, prefix):
    # the disk module's outcomes pass through the handler, and main maps
    # each by name: one stderr line, and no --out
    def raises(rs, weight_bound, grid_n):
        raise error

    monkeypatch.setattr(disk, "empirical_disk_constant", raises)
    out = tmp_path / "out"
    assert main(["estimate-c", "--out", str(out)]) == rc
    assert capsys.readouterr().err == f"{prefix}{error}\n"
    assert not out.exists()


def test_estimate_c_fault_propagates(tmp_path, monkeypatch):
    # a RuntimeError from the estimate is a fault, no outcome: no exit code
    def broken(rs, weight_bound, grid_n):
        raise RuntimeError("solver fault")

    monkeypatch.setattr(disk, "empirical_disk_constant", broken)
    with pytest.raises(RuntimeError, match="solver fault"):
        main(["estimate-c", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


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


def test_scan_characters_rejects_aliasing_grid(tmp_path, capsys):
    # at weight bound 8, A2's chi |Delta|^2 reaches frequency 7 on each axis;
    # grid 4 aliased it into a Haar integral of 1 that read as a falsification
    for grid in ("4", "7"):
        assert main(["scan-characters", "--type", "A2", "--grid", grid,
                     "--out", str(tmp_path / grid)]) == USAGE_ERROR
        assert "needs grid > 7" in capsys.readouterr().err
        assert not (tmp_path / grid).exists()
    assert main(["scan-characters", "--type", "A2", "--grid", "8",
                 "--out", str(tmp_path / "8")]) == 0
    _, doc = read_artifacts(tmp_path / "8", "scan-characters-A2")
    assert doc["max_abs_haar"] < 1e-12


def test_scan_characters_one_grid_per_irrep(tmp_path, monkeypatch):
    # each irrep's grid serves both its Haar integral and its minimum, and
    # one density grid serves every irrep
    calls = {"grid": 0, "density": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    grid = counted("grid", characters.character_grid)
    for mod in (cli, characters):
        monkeypatch.setattr(mod, "character_grid", grid)
    monkeypatch.setattr(cli, "weyl_density_grid",
                        counted("density", characters.weyl_density_grid))
    assert main(["scan-characters", "--type", "A2", "--weight-bound", "4",
                 "--out", str(tmp_path)]) == 0
    _, doc = read_artifacts(tmp_path, "scan-characters-A2")
    assert calls == {"grid": len(doc["irreps"]), "density": 1}


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_scan_characters_minimum_is_that_of_the_quotient(label):
    # scan-characters finds each minimum on chi.real * (1/dim): its node,
    # min_re_z and minimizing value are those of the materialized
    # (chi / dim).real, bit for bit
    rs, grid = rootsys.build_root_system(label), 64
    cfg = {**cli._defaults("scan-characters"), "type": label, "weight_bound": 6, "grid": grid}
    run = cli._run("scan-characters", cfg)
    (_, columns, _), = run.tables
    lams = rootsys.enumerate_adjoint_dominant_weights(rs, 6)
    assert len(run.body["irreps"]) == len(lams)
    for k, lam in enumerate(lams):
        table = characters.weight_multiplicities(rs, lam)
        z = (characters.character_grid(table, grid) / table.dim).ravel()
        i = int(np.argmin(z.real))
        assert run.body["irreps"][k]["min_re_z"] == z.real.min() == z[i].real
        assert columns["re_z"][k] == z[i].real
        assert np.signbit(columns["im_z"][k]) == np.signbit(z[i].imag)
        assert columns["im_z"][k] == z[i].imag
        y = characters.grid_torus_fractions(rs, i, grid)
        theta = characters.theta_of_torus_fraction(rs, y)
        assert [columns[f"theta_{j + 1}"][k] for j in range(rs.rank)] == theta.tolist()


def test_torus_subcommands_map_theta_once(tmp_path, monkeypatch):
    # scan-characters and estimate-c each map every irrep's minimum to theta
    # in one call; estimate-c's CSV row of the attaining irrep reads back
    # exactly as its JSON attaining_sample
    shapes = []

    def counted(rs, y):
        shapes.append(np.shape(y))
        return characters.theta_of_torus_fraction(rs, y)

    for mod in (cli, disk):
        monkeypatch.setattr(mod, "theta_of_torus_fraction", counted)
    for sub in ("scan-characters", "estimate-c"):
        shapes.clear()
        assert main([sub, "--type", "A2", "--weight-bound", "4", "--out", str(tmp_path)]) == 0
        text, doc = read_artifacts(tmp_path, f"{sub}-A2")
        lines = text.splitlines()
        assert shapes == [(len(lines) - 2, 2)]
    best = doc["attaining_sample"]
    rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
    (row,) = [r for r in rows if r["lambda"] == ";".join(map(str, best["lambda"]))]
    assert [float(row["theta_1"]), float(row["theta_2"])] == best["theta"]
    assert [float(row[key]) for key in ("re_z", "im_z", "h")] == [
        best["re_z"], best["im_z"], best["h"]]
    assert best["h"] == doc["c_hat"]


def test_scan_falsification_exit_code(tmp_path, monkeypatch):
    # a doctored Haar integral above the tolerance forces the falsification
    # path: exit 3 with artifacts still written (they are the evidence)
    monkeypatch.setattr(cli, "haar_character_integral", lambda rs, chi, density: 0.5)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 32, "weight_bound": 2}))
    rc = main(["scan-characters", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == FALSIFIED
    _, doc = read_artifacts(tmp_path, "scan-characters-A1")
    assert doc["falsified"] is True
    assert doc["max_abs_haar"] == 0.5


def test_torus_runs_at_odd_grid_are_byte_identical(tmp_path):
    # an odd grid has no self-conjugate column n/2; two runs of each torus
    # subcommand there write the same bytes, and c_hat is the least h over
    # an independent evaluation of every node of the full grid
    rs = rootsys.build_root_system("A2")
    weights = rootsys.enumerate_adjoint_dominant_weights(rs, 4)
    grid = characters.haar_bandwidth(rs, weights) + 1
    grid += 1 - grid % 2
    argv = ["--type", "A2", "--weight-bound", "4", "--grid", str(grid)]
    for sub in ("scan-characters", "estimate-c"):
        runs = [tmp_path / sub / run for run in ("a", "b")]
        for out in runs:
            assert main([sub, *argv, "--out", str(out)]) == 0
        names = sorted(p.name for p in runs[0].iterdir())
        assert names == sorted(p.name for p in runs[1].iterdir()) and names
        for name in names:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    _, doc = read_artifacts(runs[0], "estimate-c-A2")
    least = np.inf
    for lam in weights:
        table = characters.weight_multiplicities(rs, lam)
        c = rs.root_coords(table.freq_f)
        coeffs = np.zeros((grid, grid))
        np.add.at(coeffs, tuple((c % grid).T), table.mult_arr)
        z = (grid ** 2 * np.fft.ifftn(coeffs)).ravel() / table.dim
        z = z[np.abs(z - 1) > 1e-9]
        least = min(least, float(((np.abs(z) ** 2 - z.real) / (z.real - 1)).min()))
    assert doc["c_hat"] == pytest.approx(least, abs=1e-12)


def test_orbit_command(tmp_path):
    for steps, stride in ((400, 1), (5000, 2)):
        out = tmp_path / str(steps)
        rc = main(["orbit", "--type", "A1", "--walk-steps", str(steps), "--out", str(out)])
        assert rc == 0
        _, doc = read_artifacts(out, "orbit-A1")
        assert doc["rank"] == 3
        assert doc["residual"] <= 1e-9
        assert doc["hull_margin"] > 0
        assert (out / "orbit-A1-certificate.csv").exists()
        walk = (out / "orbit-A1-walk.csv").read_text()
        assert walk.startswith("# schema=1 subcommand=orbit")
        # every stride-th step on its own row, in order, each distance read
        # back exactly; the JSON maximum is taken over every step
        lines = walk.splitlines()
        assert len(lines) == steps // stride + 2
        assert lines[1] == "step,distance_to_ray,partial_sum_norm"
        rows = [line.split(",") for line in lines[2:]]
        assert [int(r[0]) for r in rows] == list(range(0, steps, stride))
        a = np.ones(doc["tuple_size"])
        dists = orbits.distance_to_ray(orbits.lattice_ray_walk(a, steps), a)
        assert [float(r[1]) for r in rows] == dists[::stride].tolist()
        assert max(float(r[1]) for r in rows) <= doc["walk"]["max_distance"] == dists.max()


def test_class_power_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"class_t_values": [0.1, 0.7], "interior_targets": 4}))
    rc = main(["class-power", "--type", "A1", "--config", str(cfg),
               "--out", str(tmp_path)])
    assert rc == 0
    text, doc = read_artifacts(tmp_path, "class-power-A1")
    assert doc["n"] == 2
    assert len(doc["runs"]) == 2
    run = doc["runs"][0]
    assert run["reachable"] is True and run["interior"] is True
    assert run["seeds"] == [20260816, 0] and run["type"] == "A1"
    assert run["t"] == 0.1
    assert doc["falsification_count"] == 0
    # the CSV is the runs' one record: a column per scalar field, same name,
    # same value
    header, *rows = [line.split(",") for line in text.splitlines()[1:]]
    assert header == ["type", "t", "n", "reachable", "min_residual", "rank_at_best",
                      "interior", "interior_targets_hit", "interior_targets_total"]
    assert sorted(header) == sorted(key for key, value in run.items()
                                    if not isinstance(value, list))
    assert len(rows) == len(doc["runs"])
    for row, run in zip(rows, doc["runs"]):
        assert row == [reporting.fmt(run[key]) for key in header]


def test_class_power_reachability_miss(tmp_path, monkeypatch):
    # a solver that never reaches I must fail loudly where -1 in W predicts
    # I in C.C (B2), and stay quiet where it does not (A2, generic classes)
    def never(cls, n, target, rng, **kwargs):
        return np.empty((0,) + target.shape), 1.0

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
    assert 1 - 1e-6 < pr["max_ratio"] <= 1 + 1e-9


def test_bch_delta_past_log_range_exits_2(tmp_path, capsys, monkeypatch):
    # at delta 0.9 a product of up to 20 factors leaves the log's principal
    # branch: a usage error that names the lever left, --bch-n, with no artifact
    monkeypatch.setattr(cli, "BCH_DELTA", 0.9)
    out = tmp_path / "out"
    assert main(["bch", "--type", "G2", "--bch-n", "20", "--bch-samples", "50",
                 "--out", str(out)]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert "delta 0.9 is too large for n = 20; at delta 0.9, lower --bch-n" in err
    assert not out.exists()


def test_bch_delta_is_no_setting(tmp_path, capsys):
    # bch runs at the fixed cli.BCH_DELTA: neither a flag nor a config key sets it
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["bch", "--bch-delta", "0.05", "--out", str(out)])
    assert exc.value.code == USAGE_ERROR
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bch_delta": 0.05}))
    assert main(["bch", "--config", str(config), "--out", str(out)]) == USAGE_ERROR
    assert "unknown config field 'bch_delta' for bch" in capsys.readouterr().err
    assert not out.exists()


def test_product_radius_violation_exits_3(tmp_path, monkeypatch):
    # a sample above the triangle inequality fails bch and exactly one
    # verify-all row, and nothing else does
    measured = classpowers.product_radius_mu
    monkeypatch.setattr(
        classpowers, "product_radius_mu",
        lambda *args: dataclasses.replace(measured(*args), max_ratio=1.01),
    )
    rc = main(["bch", "--type", "A1", "--bch-samples", "60", "--out", str(tmp_path)])
    assert rc == FALSIFIED
    _, doc = read_artifacts(tmp_path, "bch-A1")
    assert doc["product_radius"]["max_ratio"] == 1.01
    assert 1.95 <= doc["exponent"] <= 2.05 and doc["commuting_exact_zero"]
    assert main(["verify-all", "--out", str(tmp_path)]) == FALSIFIED
    doc = json.loads((tmp_path / "verify-all.json").read_text())
    assert [(c["suite"], c["check"]) for c in doc["checks"] if c["status"] == "FAIL"] == [
        ("bch", "A1")
    ]


def test_arc_lemma_command(tmp_path):
    rc = main(["arc-lemma", "--arc", "0.4", "0.6", "--arc-samples", "800",
               "--out", str(tmp_path)])
    assert rc == 0
    _, doc = read_artifacts(tmp_path, "arc-lemma-A1")
    assert doc["constants"]["k_cap"] == doc["pigeonhole"]["k_cap"] == 4
    assert doc["pigeonhole"]["max_k"] <= doc["pigeonhole"]["k_cap"]
    assert doc["pigeonhole"]["max_re"] <= 0.0
    assert doc["delta_bound"]["violations"] == []
    assert doc["final_inequality_sweep_ok"] is True
    assert doc["falsified"] is False


def test_arc_lemma_window_end_is_no_falsification(tmp_path, monkeypatch):
    # phase 1/8 takes k = 2 onto frac(k x) = 1/4, the closed window's end:
    # a hit, so Re omega^k must read <= 0 there, where cos(pi/2) reads +6e-17
    default_rng = np.random.default_rng

    class Draws:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def uniform(self, *args):
            xs = self.rng.uniform(*args)
            xs[0] = 0.125
            return xs

    monkeypatch.setattr(np.random, "default_rng", Draws)
    rc = main(["arc-lemma", "--arc", "0.05", "0.95", "--arc-samples", "2000",
               "--weight-bound", "4", "--grid", "64", "--out", str(tmp_path)])
    text, doc = read_artifacts(tmp_path, "arc-lemma-A1")
    assert rc == 0
    assert doc["pigeonhole"]["fallbacks"] == 0
    assert doc["pigeonhole"]["max_re"] <= 0.0
    assert text.splitlines()[2] == "0.125,2,2,-0"  # x, k, brute_k, re_omega_k


@pytest.mark.parametrize("label, lo, hi", [("B2", "0.3", "0.4"), ("G2", "0.2", "0.3")])
def test_arc_lemma_empty_arc_exits_2(tmp_path, capsys, label, lo, hi):
    # real characters (-1 in W) put every phase at 0 or 1/2, so an arc
    # without 1/2 holds no grid value and the delta >= epsilon check has
    # no sample: a usage error, not a pass
    out = tmp_path / "out"
    assert main(["arc-lemma", "--type", label, "--arc", lo, hi, "--grid", "64",
                 "--out", str(out)]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert f"no {label} character value on a grid of 64" in err
    assert f"[{lo}, {hi}]" in err
    assert not out.exists()


def test_arc_lemma_complex_characters_reach_an_arc_without_half(tmp_path):
    assert main(["arc-lemma", "--type", "A2", "--arc", "0.3", "0.4", "--grid", "64",
                 "--out", str(tmp_path)]) == 0
    _, doc = read_artifacts(tmp_path, "arc-lemma-A2")
    assert doc["delta_bound"]["n_in_arc"] == 5856
    assert doc["delta_bound"]["n_samples"] == 57344


def test_arc_lemma_delta_violation_exits_3(tmp_path, monkeypatch):
    # every grid value just inside the unit circle at phase 1/2 breaks
    # delta >= epsilon on the default arc
    eps = disk.arc_constants(disk.ArcSpec(0.45, 0.55), 2).epsilon

    def near_circle(table, n):
        z = (1 - eps / 2) * np.exp(1j * np.pi)
        return np.full(characters.half_grid_shape(table.rs.rank, n), table.dim * z)

    monkeypatch.setattr(cli, "character_grid", near_circle)
    rc = main(["arc-lemma", "--type", "A1", "--grid", "16", "--arc-samples", "200",
               "--out", str(tmp_path)])
    assert rc == FALSIFIED
    _, doc = read_artifacts(tmp_path, "arc-lemma-A1")
    assert doc["falsified"] is True
    delta = doc["delta_bound"]
    assert delta["n_in_arc"] == delta["n_samples"] == 4 * 16  # (2) (4) (6) (8)
    assert len(delta["violations"]) == delta["n_samples"]
    assert delta["violations"][0].startswith("lambda=(2,), z=")
    assert delta["margin"] < 0


def test_arc_lemma_constructive_miss_exits_3(tmp_path, monkeypatch):
    # the constructive scan (from b) finds nothing while the oracle's (from
    # 1) is the real one: the misses must be reported, not hidden
    first_in_window = disk._first_in_window

    def scan(xs, start, stop):
        k = first_in_window(xs, start, stop)
        return np.zeros_like(k) if start == 2 else k

    monkeypatch.setattr(disk, "_first_in_window", scan)
    rc = main(["arc-lemma", "--type", "A1", "--grid", "16", "--arc-samples", "200",
               "--out", str(tmp_path)])
    assert rc == FALSIFIED
    _, doc = read_artifacts(tmp_path, "arc-lemma-A1")
    assert doc["falsified"] is True
    assert doc["pigeonhole"]["fallbacks"] == 200


@pytest.mark.parametrize("flags", [["--arc", "1e-9", "1e-9"], ["--arc-bound", "1000000"],
                                   ["--arc", "1e-320", "0.5"]])
def test_arc_lemma_walk_bound_past_cap_exits_2(tmp_path, capsys, flags):
    # a walk bound K past ARC_K_MAX would stall the scan (K ~ 5e8 steps at
    # m = 1e-9), near b = 2^52 the multiples keep no fractional bits, and at
    # a subnormal m the bound's 1/(2m) is no float at all
    out = tmp_path / "out"
    assert main(["arc-lemma", *flags, "--out", str(out)]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert "walk bound K = " in err and f"> {cli.ARC_K_MAX}" in err
    assert not out.exists()


TYPES = ("A1", "A2", "B2", "C2", "G2")

# every (suite, check) row verify-all writes, in its order
VERIFY_ALL_ROWS = (
    [("roots", f"{t}-counts") for t in TYPES]
    + [("characters", "A1-adjoint-dim"), ("characters", "G2-adjoint-dim")]
    + [("compact-form", f"{t}-{check}") for t in TYPES for check in ("jacobi", "killing-gram")]
    + [("orbits", check) for check in
       ("A1-triple-sum", "hull-interior-cert", "ray-walk-bound")]
    + [("scan-characters", "A1"), ("scan-characters", "A2"), ("estimate-c", "A1"),
       ("estimate-c", "A1-exact-c"), ("class-power", "A1"), ("bch", "A1"),
       ("arc-lemma", "A1"), ("orbit", "A1")]
)


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
    assert [(c["suite"], c["check"]) for c in doc["checks"]] == VERIFY_ALL_ROWS
    assert doc["n_checks"] == len(VERIFY_ALL_ROWS) == 28


def test_verify_all_details_carry_bounds_not_rounding(tmp_path):
    # a passing row names the bound it met or the config it ran, not a
    # measured value, so verify-all's bytes do not follow the rounding
    checks, other_seed = (cli._verify_all({"seed": seed, "out": str(tmp_path)})
                          for seed in (0, 4242))
    assert checks == other_seed
    assert len(checks) == 28 and all(c["status"] == "pass" for c in checks)
    assert not [c["detail"] for c in checks if re.search(r"\d\.\d+e-|\.\d{8}", c["detail"])]
    rows = {c["check"]: c for c in checks if c["suite"] in ("compact-form", "orbits")}
    assert not [c["detail"] for c in rows.values() if re.search(r"\d\.\d", c["detail"])]
    assert rows["G2-jacobi"]["detail"] == "max<1e-12"
    assert rows["G2-killing-gram"]["detail"] == "err<1e-10"
    assert rows["A1-triple-sum"]["detail"] == "norm<=1e-10"
    details = {(c["suite"], c["check"]): c["detail"] for c in checks}
    assert details["estimate-c", "A1-exact-c"] == "|c+1/3|<1e-9"
    assert details["bch", "A1"] == "bch_n=3 bch_samples=200"


# the experiment rows verify-all runs: (suite, check) per subcommand
VERIFY_ROWS = {
    "scan-characters": [("scan-characters", "A1"), ("scan-characters", "A2")],
    "estimate-c": [("estimate-c", "A1")],
    "class-power": [("class-power", "A1")],
    "bch": [("bch", "A1")],
    "arc-lemma": [("arc-lemma", "A1")],
    "orbit": [("orbit", "A1")],
}


@pytest.mark.parametrize("sub", sorted(VERIFY_ROWS))
def test_verify_all_follows_the_handlers(tmp_path, monkeypatch, sub):
    # each experiment row takes its verdict from the subcommand's own handler:
    # a handler that reports falsified fails its rows, and no other row; a
    # failed row's detail is the handler's summary
    handler, keys = cli.SUBCOMMANDS[sub]
    summaries = []

    def falsified(cfg, rs):
        run = dataclasses.replace(handler(cfg, rs), falsified=True)
        summaries.append(run.summary)
        return run

    monkeypatch.setitem(cli.SUBCOMMANDS, sub, (falsified, keys))
    assert main(["verify-all", "--out", str(tmp_path)]) == FALSIFIED
    doc = json.loads((tmp_path / "verify-all.json").read_text())
    failed = [c for c in doc["checks"] if c["status"] == "FAIL"]
    assert [(c["suite"], c["check"]) for c in failed] == VERIFY_ROWS[sub]
    assert [c["detail"] for c in failed] == summaries
    assert {c["suite"] for c in doc["checks"]} >= set(VERIFY_ROWS)


def test_verify_all_check_that_raises_is_a_failure(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise LogRangeError("log round trip failed")

    monkeypatch.setattr(classpowers, "bch_scaling_fit", broken)
    assert main(["verify-all", "--out", str(tmp_path)]) == FALSIFIED
    doc = json.loads((tmp_path / "verify-all.json").read_text())
    failed = [c for c in doc["checks"] if c["status"] == "FAIL"]
    assert [(c["suite"], c["check"]) for c in failed] == [("bch", "A1")]
    assert failed[0]["detail"] == "LogRangeError: log round trip failed"
    # the rows after the one that raised still run
    assert [c["status"] for c in doc["checks"] if c["suite"] in ("arc-lemma", "orbit")] == [
        "pass", "pass"
    ]
    assert any(c["suite"] == "orbits" for c in doc["checks"])
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
    assert not (tmp_path / "z").exists()
    assert main(["class-power", "--class-n", "0",
                 "--out", str(tmp_path / "w")]) == USAGE_ERROR

    # the Haar tolerance is a constant: a tolerances object is an unknown key
    capsys.readouterr()
    bad_tol = tmp_path / "tol.json"
    bad_tol.write_text(json.dumps({"tolerances": {"haar": 1e-5}}))
    assert main(["scan-characters", "--config", str(bad_tol),
                 "--out", str(tmp_path / "v")]) == USAGE_ERROR
    assert "unknown config field 'tolerances' for scan-characters" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()

    # JSON booleans are not numbers; zero interior targets would check nothing
    capsys.readouterr()
    for sub, doc in (("scan-characters", {"weight_bound": True, "seed": False}),
                     ("scan-characters", {"weight_bound": True}),
                     ("scan-characters", {"seed": False}),
                     ("scan-characters", {"grid": True}),
                     ("class-power", {"interior_targets": True}),
                     ("class-power", {"interior_targets": 0}),
                     ("class-power", {"class_t_values": [True]}),
                     ("arc-lemma", {"arc": [False, 0.5]})):
        bad_bool = tmp_path / "bool.json"
        bad_bool.write_text(json.dumps(doc))
        assert main([sub, "--config", str(bad_bool),
                     "--out", str(tmp_path / "u")]) == USAGE_ERROR, doc
        assert "must be" in capsys.readouterr().err, doc
    assert not (tmp_path / "u").exists()

    # class scales must be finite and at most CLASS_T_MAX; json.loads accepts
    # Infinity and NaN, and huge t once crashed the solver or claimed a miss
    for text in ("[Infinity]", "[NaN]", "[1e20]", "[1e10]", "[0.5, 1000.5]", "[0]"):
        bad_t = tmp_path / "t.json"
        bad_t.write_text(f'{{"class_t_values": {text}}}')
        assert main(["class-power", "--config", str(bad_t),
                     "--out", str(tmp_path / "s")]) == USAGE_ERROR, text
        assert "class_t_values" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()

    # a weight bound with no nontrivial root-lattice irrep leaves nothing to scan
    capsys.readouterr()
    for sub in ("estimate-c", "scan-characters", "arc-lemma"):
        assert main([sub, "--type", "A1", "--weight-bound", "1",
                     "--out", str(tmp_path / "t")]) == USAGE_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no nontrivial root-lattice irrep" in err
    assert not (tmp_path / "t").exists()


def test_out_not_a_path_string_exits_2(tmp_path, monkeypatch, capsys):
    # a config-file out that is no nonempty string is a config error before
    # any work, and no directory appears
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "out.json"
    for out in (3, "", ["x"], None):
        cfg.write_text(json.dumps({"out": out}))
        assert main(["estimate-c", "--weight-bound", "2", "--grid", "64",
                     "--config", str(cfg)]) == USAGE_ERROR, out
        assert "out must be a nonempty path string" in capsys.readouterr().err
    assert main(["estimate-c", "--out", ""]) == USAGE_ERROR
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_out_existing_file_exits_2(tmp_path, monkeypatch, capsys):
    # an out that names, or runs through, an existing file is a config error
    # before any work; the file stays as it was
    monkeypatch.chdir(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("keep")
    for out in ("afile", str(afile), str(afile / "sub")):
        assert main(["estimate-c", "--weight-bound", "2", "--grid", "64",
                     "--out", out]) == USAGE_ERROR, out
        assert "existing non-directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert afile.read_text() == "keep"


def test_out_with_nul_byte_exits_2(tmp_path, monkeypatch, capsys):
    # no OS path holds a NUL byte, and pathlib reports such a path missing:
    # a config error before any work
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(disk, "empirical_disk_constant", lambda *args: pytest.fail("ran"))
    cfg = tmp_path / "out.json"
    cfg.write_text(json.dumps({"out": "a\u0000b"}))
    assert main(["estimate-c", "--config", str(cfg)]) == USAGE_ERROR
    assert "with no NUL byte" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_out_the_os_cannot_create_exits_2(tmp_path, monkeypatch, capsys):
    # a component longer than the OS allows: under an existing directory the
    # check of out fails before any work; under a missing one it fails only
    # when main creates out, and the parents made on the way go again
    ran = []
    real = disk.empirical_disk_constant
    monkeypatch.setattr(disk, "empirical_disk_constant",
                        lambda *args: ran.append(1) or real(*args))
    long = "x" * 300
    for out, message, runs in ((tmp_path / long, "cannot check out: ", []),
                               (tmp_path / "made" / long, "cannot create out: ", [1])):
        assert main(["estimate-c", "--weight-bound", "2", "--grid", "64",
                     "--out", str(out)]) == USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}[Errno {errno.ENAMETOOLONG}]"), err
        assert ran == runs
        assert list(tmp_path.iterdir()) == []


def test_foreign_keys_exit_2(tmp_path, capsys):
    # a subcommand takes only the keys it reads, as flags and as file keys
    for argv in (["orbit", "--grid", "64"], ["verify-all", "--type", "G2"],
                 ["bch", "--weight-bound", "4"], ["estimate-c", "--walk-steps", "9"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "f")])
        assert exc.value.code == USAGE_ERROR
        assert "unrecognized arguments" in capsys.readouterr().err
    for sub, doc in (("orbit", {"grid": 64}), ("verify-all", {"type": "G2"}),
                     ("estimate-c", {"tolerances": {"haar": 1e-5}}),
                     ("class-power", {"class_samples": 8})):
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps(doc))
        assert main([sub, "--config", str(foreign),
                     "--out", str(tmp_path / "f")]) == USAGE_ERROR, doc
        assert f"unknown config field {next(iter(doc))!r} for {sub}" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("argv", [
    ["scan-characters", "--type", "G2", "--weight-bound", "4", "--grid", "32"],
    ["estimate-c", "--type", "G2", "--weight-bound", "4", "--grid", "32"],
    ["arc-lemma", "--type", "G2", "--weight-bound", "4", "--grid", "16",
     "--arc-samples", "200"],
])
def test_scan_builds_one_root_system(tmp_path, monkeypatch, argv):
    # the root system and its scanned weights are computed once per run
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("build_root_system", "enumerate_adjoint_dominant_weights"):
        fn = getattr(rootsys, name)
        wrapper = counted(name, fn)
        for mod in list(sys.modules.values()):
            if mod is not None and mod.__name__.startswith("adjointlab") \
                    and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert sorted(calls) == ["build_root_system", "enumerate_adjoint_dominant_weights"]


def test_orbit_stagnation_exits_3_without_artifacts(tmp_path, monkeypatch, capsys):
    def stagnates(basis, x, rng):
        raise orbits.StagnationError("Gauss-Newton stagnated from 8 starts; reseed advised")

    monkeypatch.setattr(orbits, "find_vanishing_submersive_tuple", stagnates)
    assert main(["orbit", "--out", str(tmp_path / "o")]) == FALSIFIED
    assert "FALSIFIED: Gauss-Newton stagnated" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("label, dim", [("A1", 3), ("G2", 14)])
def test_orbit_spanning_stagnation_exits_3_without_artifacts(tmp_path, monkeypatch, capsys,
                                                            label, dim):
    # one certificate call, on the vanishing triple's 3 dim conjugates, and
    # no retry when it declines
    shapes = []

    def never_certifies(vectors):
        shapes.append(vectors.shape)

    monkeypatch.setattr(orbits, "zero_in_hull_interior", never_certifies)
    assert main(["orbit", "--type", label, "--out", str(tmp_path / "o")]) == FALSIFIED
    err = capsys.readouterr().err
    assert f"FALSIFIED: the {3 * dim} conjugates of the vanishing tuple" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()
    assert shapes == [(3 * dim, dim)]


@pytest.mark.parametrize("seed", [7, 4242, 20260816])
@pytest.mark.parametrize("label, dim", [("A1", 3), ("A2", 8), ("B2", 10), ("C2", 10),
                                        ("G2", 14)])
def test_orbit_hull_margin_is_the_uniform_weight(tmp_path, label, dim, seed):
    # the conjugated triple spans, and on a spanning family summing to 0 the
    # margin LP's optimum is the uniform weight 1/(3 dim)
    out = tmp_path / "o"
    assert main(["orbit", "--type", label, "--seed", str(seed), "--out", str(out)]) == 0
    _, doc = read_artifacts(out, f"orbit-{label}")
    assert doc["rank"] == doc["dimension"] == dim
    assert abs(doc["hull_margin"] - 1 / (3 * dim)) <= 1e-12


def test_orbit_internal_error_is_not_a_falsification(tmp_path, monkeypatch):
    # a fault inside the vanishing tuple's Gauss-Newton or the hull
    # certificate's LP is no stagnation: it must not exit 3
    def broken(*args, **kwargs):
        raise RuntimeError("internal fault")

    for module, name in ((orbits, "gauss_newton"), (simplex, "solve_lp")):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, broken)
            with pytest.raises(RuntimeError, match="internal fault"):
                main(["orbit", "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o").exists()


def test_orbit_walks_once(tmp_path, monkeypatch):
    # one orbit run builds one lattice walk: the partial-sum order returns
    # it, and the distances and partial sums are both read off it
    calls, stack = [], []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, tuple(stack)))
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return wrapper

    for name in ("lattice_ray_walk", "bounded_partial_sum_sequence"):
        monkeypatch.setattr(orbits, name, spy(name, getattr(orbits, name)))
    assert main(["orbit", "--walk-steps", "200", "--out", str(tmp_path)]) == 0
    assert calls == [("bounded_partial_sum_sequence", ()),
                     ("lattice_ray_walk", ("bounded_partial_sum_sequence",))]


def test_orbit_ranks_the_tuple_once(tmp_path, monkeypatch):
    # the search returns the residual and rank it accepted, and the handler
    # writes those: one rank computation per run
    ranks = []
    measured = orbits.orbit_sum_rank

    def spy(*args):
        ranks.append(measured(*args))
        return ranks[-1]

    monkeypatch.setattr(orbits, "orbit_sum_rank", spy)
    assert main(["orbit", "--out", str(tmp_path)]) == 0
    _, doc = read_artifacts(tmp_path, "orbit-A1")
    assert ranks == [doc["rank"]] == [3]


def test_orbit_walk_bound_can_fail(tmp_path, monkeypatch):
    # the verdict is the two walk bounds; a walk that strays past sqrt(2n)
    # of its ray falsifies the run, which still writes its artifacts
    monkeypatch.setattr(orbits, "distance_to_ray", lambda points, a: np.full(len(points), 2.5))
    assert main(["orbit", "--out", str(tmp_path)]) == FALSIFIED
    _, doc = read_artifacts(tmp_path, "orbit-A1")
    assert doc["walk"]["max_distance"] == 2.5 > doc["walk"]["bound"] == np.sqrt(6)
    assert (tmp_path / "orbit-A1-walk.csv").exists()


def test_bch_internal_error_is_not_a_config_error(tmp_path, monkeypatch):
    # numpy's LinAlgError subclasses ValueError; a solver fault inside the
    # product-radius measurement is no product off the log's branch, so it
    # must not exit 2
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(classpowers, "product_radius_mu", broken)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        main(["bch", "--type", "A1", "--bch-samples", "60", "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


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
