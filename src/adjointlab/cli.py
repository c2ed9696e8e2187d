"""Batch front door: seeded experiments with deterministic artifacts.

Subcommands: scan-characters, estimate-c, orbit, class-power, bch,
arc-lemma, verify-all.  Configuration comes from defaults, an optional JSON
config file, then command-line flag overrides, in that order.  Exit codes:
0 success, 2 usage/config error (no artifacts), 3 falsification event
(artifacts are still written — they are the evidence).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import classpowers, disk, orbits, reporting
from .characters import (
    CharacterSample,
    character_grid,
    grid_torus_fractions,
    haar_character_integral,
    theta_of_torus_fraction,
    weight_multiplicities,
    weyl_dimension,
)
from .compactform import build_compact_form, group_exp, killing_norm, sample_unit
from .rootsys import (
    TYPE_LABELS,
    build_root_system,
    enumerate_adjoint_dominant_weights,
    generate_weyl_group,
)

USAGE_ERROR = 2
FALSIFIED = 3

SUBCOMMANDS = (
    "scan-characters",
    "estimate-c",
    "orbit",
    "class-power",
    "bch",
    "arc-lemma",
    "verify-all",
)

_DEFAULTS = {
    "type": "A1",
    "seed": 20260816,
    "out": "artifacts",
    "weight_bound": 8,
    "grid": None,  # per-axis; defaults to 2048 (rank 1) / 128 (rank 2)
    "class_t_values": None,  # defaults to 20 values in [0.1, 2.0]
    "class_n": 2,
    "class_samples": 32,
    "interior_targets": None,
    "arc": [0.45, 0.55],
    "arc_bound": 2,
    "arc_samples": 20000,
    "bch_n": 4,
    "bch_delta": 0.05,
    "bch_samples": 1000,
    "walk_steps": 2000,
    "tolerances": {},
}

class ConfigError(ValueError):
    pass


def _load_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"malformed JSON in {args.config}: {err}") from err
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        for key, value in doc.items():
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown config field {key!r}")
            cfg[key] = value
    for key in _DEFAULTS:
        flag = key.replace("-", "_")
        value = getattr(args, flag, None)
        if value is not None:
            cfg[key] = value
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    if cfg["type"] not in TYPE_LABELS:
        raise ConfigError(f"type must be one of {TYPE_LABELS}, got {cfg['type']!r}")
    if not isinstance(cfg["seed"], int) or cfg["seed"] < 0:
        raise ConfigError("seed must be a nonnegative integer")
    for key in ("weight_bound", "class_n", "class_samples", "arc_bound",
                "bch_n", "bch_samples", "arc_samples", "walk_steps"):
        v = cfg[key]
        if not isinstance(v, int) or v < 1:
            raise ConfigError(f"{key} must be a positive integer, got {v!r}")
    if cfg["grid"] is not None and (not isinstance(cfg["grid"], int) or cfg["grid"] < 2):
        raise ConfigError("grid must be an integer >= 2")
    arc = cfg["arc"]
    if (not isinstance(arc, (list, tuple)) or len(arc) != 2
            or not all(isinstance(v, (int, float)) for v in arc)
            or not 0.0 < arc[0] <= arc[1] < 1.0):
        raise ConfigError("arc must be [x_lo, x_hi] with 0 < x_lo <= x_hi < 1")
    if cfg["class_t_values"] is not None:
        ts = cfg["class_t_values"]
        if (not isinstance(ts, (list, tuple)) or not ts
                or not all(isinstance(t, (int, float)) and t > 0 for t in ts)):
            raise ConfigError("class_t_values must be a nonempty list of positive reals")
    if not isinstance(cfg["bch_delta"], (int, float)) or not 0 < cfg["bch_delta"] < 1:
        raise ConfigError("bch_delta must lie in (0, 1)")
    if not isinstance(cfg["tolerances"], dict):
        raise ConfigError("tolerances must be an object")
    for key, value in cfg["tolerances"].items():
        if key != "haar":
            raise ConfigError(f"unknown tolerance {key!r}; only 'haar' can be set")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0 < value < math.inf):
            raise ConfigError(f"tolerances.haar must be a positive real, got {value!r}")


def _grid_for(cfg: dict, rank: int) -> int:
    if cfg["grid"] is not None:
        return cfg["grid"]
    return 2048 if rank == 1 else 128


def _theta_columns(rank: int) -> list[str]:
    return [f"theta_{i + 1}" for i in range(rank)]


def _lam_str(lam) -> str:
    return ";".join(str(int(v)) for v in lam)


# -- subcommands -----------------------------------------------------------------


def _cmd_scan_characters(cfg: dict, out: Path) -> int:
    rs = build_root_system(cfg["type"])
    grid = _grid_for(cfg, rs.rank)
    haar_tol = cfg["tolerances"].get("haar", 1e-6 if rs.rank == 1 else 1e-4)
    weights = [f for f in enumerate_adjoint_dominant_weights(rs, cfg["weight_bound"]) if any(f)]
    rows = []
    irreps = []
    max_abs_haar = 0.0
    for lam in weights:
        table = weight_multiplicities(rs, lam)
        z = np.asarray(character_grid(table, grid)).ravel() / table.dim
        haar = haar_character_integral(table, grid**rs.rank)
        max_abs_haar = max(max_abs_haar, abs(haar))
        idx = int(np.argmin(z.real))
        theta = theta_of_torus_fraction(rs, grid_torus_fractions(rs, idx, grid))
        rows.append((cfg["type"], _lam_str(lam), *theta, z[idx].real, z[idx].imag))
        irreps.append({
            "lambda": list(lam),
            "dim": table.dim,
            "haar": complex(haar),
            "min_re_z": float(z.real.min()),
        })
    falsified = max_abs_haar > haar_tol
    reporting.write_csv(
        out / f"scan-characters-{cfg['type']}.csv",
        ["type", "lambda", *_theta_columns(rs.rank), "re_z", "im_z"],
        rows, subcommand="scan-characters", seed=cfg["seed"],
        type=cfg["type"], weight_bound=cfg["weight_bound"], grid=grid,
    )
    reporting.write_json(
        out / f"scan-characters-{cfg['type']}.json",
        {
            "type": cfg["type"],
            "weight_bound": cfg["weight_bound"],
            "grid": grid,
            "haar_tolerance": haar_tol,
            "max_abs_haar": max_abs_haar,
            "irreps": irreps,
            "falsified": falsified,
        },
        subcommand="scan-characters", seed=cfg["seed"],
    )
    if falsified:
        print(f"FALSIFIED: |haar integral| {max_abs_haar:.3e} > {haar_tol:.1e}")
        return FALSIFIED
    print(f"scanned {len(weights)} irreps; max |haar| = {max_abs_haar:.3e}")
    return 0


def _cmd_estimate_c(cfg: dict, out: Path) -> int:
    rs = build_root_system(cfg["type"])
    grid = _grid_for(cfg, rs.rank)
    try:
        est = disk.empirical_disk_constant(rs, cfg["weight_bound"], grid)
    except AssertionError as err:
        print(f"FALSIFIED: {err}", file=sys.stderr)
        return FALSIFIED
    rows = [
        (cfg["type"], _lam_str(e.lam), *e.sample.theta, e.sample.z.real, e.sample.z.imag, e.h)
        for e in est.per_irrep
    ]
    reporting.write_csv(
        out / f"estimate-c-{cfg['type']}.csv",
        ["type", "lambda", *_theta_columns(rs.rank), "re_z", "im_z", "h"],
        rows, subcommand="estimate-c", seed=cfg["seed"],
        type=cfg["type"], weight_bound=cfg["weight_bound"], grid=grid,
    )
    reporting.write_json(
        out / f"estimate-c-{cfg['type']}.json",
        {
            "type": cfg["type"],
            "weight_bound": cfg["weight_bound"],
            "grid": grid,
            "c_hat": est.c_hat,
            "attaining_sample": {
                "lambda": list(est.sample.lam),
                "theta": est.sample.theta,
                "re_z": est.sample.z.real,
                "im_z": est.sample.z.imag,
                "h": est.c_hat,
            },
        },
        subcommand="estimate-c", seed=cfg["seed"],
    )
    # scatter: winning irrep's full value set (decimated) plus per-irrep minima
    table = weight_multiplicities(rs, est.sample.lam)
    zs = np.asarray(character_grid(table, grid)).ravel() / table.dim
    stride = max(1, len(zs) // 3000)
    points = [(z, "#888888") for z in zs[::stride]]
    points += [(e.sample.z, "#1f77b4") for e in est.per_irrep]
    points.append((est.sample.z, "#d62728"))
    circles = [
        (0j, 1.0, "#000000"),
        ((1 + est.c_hat) / 2 + 0j, (1 - est.c_hat) / 2, "#d62728"),
    ]
    reporting.svg_scatter(out / f"estimate-c-{cfg['type']}.svg", points, circles)
    print(f"{cfg['type']}: c_hat = {est.c_hat:.9f} at lambda={est.sample.lam}")
    return 0


def _cmd_orbit(cfg: dict, out: Path) -> int:
    rs = build_root_system(cfg["type"])
    basis = build_compact_form(rs)
    master = np.random.SeedSequence(cfg["seed"])
    ss_axis, ss_solve, ss_span = master.spawn(3)
    x = sample_unit(basis, np.random.default_rng(ss_axis))
    try:
        n, gs = orbits.find_vanishing_submersive_tuple(
            basis, x, np.random.default_rng(ss_solve)
        )
    except RuntimeError as err:
        print(f"FALSIFIED: {err}", file=sys.stderr)
        return FALSIFIED
    residual = killing_norm(basis, orbits.orbit_sum(basis, x, gs))
    rank = orbits.orbit_sum_rank(basis, x, gs)
    vectors = np.array([g @ x for g in gs])

    # a wider configuration whose orbit points hold 0 strictly inside their hull
    _, cert = orbits.sample_spanning_configuration(
        basis, x, np.random.default_rng(ss_span)
    )
    margin = cert.margin
    cert_rows = list(enumerate(cert.coefficients))
    plan = orbits.replication_plan(cert.coefficients, 1e-3)
    plan_doc = {
        "fractions": [str(f) for f in plan.fractions],
        "counts": plan.counts,
        "total": plan.total,
    }

    # walk + partial-sum trace along the vanishing tuple (equal weights)
    steps = cfg["walk_steps"]
    a = np.full(n, 1.0)
    walk = orbits.lattice_ray_walk(a, steps)
    dists = orbits.distance_to_ray(walk, a)
    picks = orbits.bounded_partial_sum_sequence(vectors, a, steps)
    partial_norms = np.linalg.norm(np.cumsum(vectors[picks], axis=0), axis=1)
    partial_bound = n * np.sqrt(2 * n) * float(np.linalg.norm(vectors, axis=1).max())

    reporting.write_csv(
        out / f"orbit-{cfg['type']}-certificate.csv",
        ["index", "coefficient"], cert_rows,
        subcommand="orbit", seed=cfg["seed"], type=cfg["type"],
    )
    reporting.write_csv(
        out / f"orbit-{cfg['type']}-walk.csv",
        ["step", "distance_to_ray", "partial_sum_norm"],
        [(k, d, pn) for k, (d, pn) in enumerate(zip(dists, partial_norms))],
        subcommand="orbit", seed=cfg["seed"], type=cfg["type"], steps=steps,
    )
    reporting.write_json(
        out / f"orbit-{cfg['type']}.json",
        {
            "type": cfg["type"],
            "tuple_size": n,
            "residual": residual,
            "rank": rank,
            "dimension": basis.dim,
            "hull_margin": margin,
            "replication_plan": plan_doc,
            "walk": {
                "steps": steps,
                "max_distance": float(dists.max()),
                "bound": float(np.sqrt(2 * n)),
                "max_partial_sum": float(partial_norms.max()),
                "partial_sum_bound": partial_bound,
            },
        },
        subcommand="orbit", seed=cfg["seed"],
    )
    ok = (
        residual <= 1e-9 and rank == basis.dim
        and dists.max() <= np.sqrt(2 * n)
        and margin is not None and margin > 0
        and partial_norms.max() <= partial_bound
    )
    print(f"{cfg['type']}: n={n} residual={residual:.2e} rank={rank}/{basis.dim} "
          f"hull margin={margin}")
    return 0 if ok else FALSIFIED


def _cmd_class_power(cfg: dict, out: Path) -> int:
    rs = build_root_system(cfg["type"])
    basis = build_compact_form(rs)
    ts = cfg["class_t_values"]
    if ts is None:
        ts = [round(float(t), 6) for t in np.linspace(0.1, 2.0, 20)]
    # I lies in C.C iff C = C^-1, which holds for every class when -1 is in W
    minus_one_in_w = any(
        np.array_equal(w.root_matrix, -np.eye(rs.rank)) for w in generate_weyl_group(rs)
    )
    predicted = cfg["class_n"] == 2 and minus_one_in_w
    master = np.random.SeedSequence(cfg["seed"])
    children = master.spawn(len(ts))
    runs = []
    rows = []
    n_falsifications = 0
    for i, (t, child) in enumerate(zip(ts, children)):
        rng = np.random.default_rng(child)
        cls = classpowers.conjugacy_class(basis, sample_unit(basis, rng), t)
        report = classpowers.class_power_identity_check(
            cls, cfg["class_n"], rng,
            samples=cfg["class_samples"],
            interior_targets=cfg["interior_targets"],
        )
        if predicted and not report.reachable:
            report.falsifications.append(
                f"identity not reached (residual {report.min_residual:.3e}) although "
                f"-1 in W makes every class self-inverse"
            )
        doc = report.as_dict()
        doc["seeds"] = [cfg["seed"], i]
        runs.append(doc)
        n_falsifications += len(report.falsifications)
        rows.append((
            cfg["type"], t, report.n, report.reachable, report.min_residual,
            report.rank_at_best, report.interior_targets_hit,
            report.interior_targets_total,
        ))
    reporting.write_csv(
        out / f"class-power-{cfg['type']}.csv",
        ["type", "t", "n", "reachable", "min_residual", "rank_at_best",
         "interior_hit", "interior_total"],
        rows, subcommand="class-power", seed=cfg["seed"],
        type=cfg["type"], n=cfg["class_n"],
    )
    reporting.write_json(
        out / f"class-power-{cfg['type']}.json",
        {"type": cfg["type"], "n": cfg["class_n"], "runs": runs,
         "falsification_count": n_falsifications},
        subcommand="class-power", seed=cfg["seed"],
    )
    reached = sum(r["reachable"] for r in runs)
    if cfg["class_n"] != 2:
        why = "no prediction for n != 2"
    elif minus_one_in_w:
        why = "-1 in W: every class is self-inverse, so I in C.C is predicted"
    else:
        why = "-1 not in W: I in C.C only for self-inverse classes, so misses are expected"
    print(f"{cfg['type']} n={cfg['class_n']}: {reached}/{len(runs)} classes reachable, "
          f"{n_falsifications} falsifications ({why})")
    return FALSIFIED if n_falsifications else 0


def _cmd_bch(cfg: dict, out: Path) -> int:
    rs = build_root_system(cfg["type"])
    basis = build_compact_form(rs)
    master = np.random.SeedSequence(cfg["seed"])
    ss_tuple, ss_mu = master.spawn(2)
    rng = np.random.default_rng(ss_tuple)
    xs = sample_unit(basis, rng, 3)
    fit = classpowers.bch_scaling_fit(basis, xs)
    x0 = sample_unit(basis, rng)
    commuting = classpowers.bch_scaling_fit(basis, [x0, 0.5 * x0])
    mu = classpowers.product_radius_mu(
        basis, cfg["bch_n"], cfg["bch_delta"], cfg["bch_samples"],
        np.random.default_rng(ss_mu),
    )
    reporting.write_csv(
        out / f"bch-{cfg['type']}.csv",
        ["t", "remainder_norm"],
        list(zip(fit.t_grid, fit.remainder_norms)),
        subcommand="bch", seed=cfg["seed"], type=cfg["type"],
    )
    reporting.write_json(
        out / f"bch-{cfg['type']}.json",
        {
            "type": cfg["type"],
            "exponent": fit.exponent,
            "constant": fit.constant,
            "commuting_exact_zero": commuting.exact_zero,
            "product_radius": {
                "n": mu.n, "delta": mu.delta, "samples": mu.samples,
                "mu_hat": mu.mu_hat, "bound": mu.bound,
                "m_constants": {str(k): v for k, v in mu.m_constants.items()},
            },
        },
        subcommand="bch", seed=cfg["seed"],
    )
    ok = (fit.exponent is not None and 1.95 <= fit.exponent <= 2.05
          and commuting.exact_zero and mu.mu_hat <= mu.bound)
    print(f"{cfg['type']}: exponent={fit.exponent:.4f} mu_hat={mu.mu_hat:.4f} "
          f"bound={mu.bound:.4f}")
    return 0 if ok else FALSIFIED


def _cmd_arc_lemma(cfg: dict, out: Path) -> int:
    rs = build_root_system(cfg["type"])
    arc = disk.ArcSpec(float(cfg["arc"][0]), float(cfg["arc"][1]))
    consts = disk.arc_constants(arc, cfg["arc_bound"])
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    xs = rng.uniform(arc.x_lo, arc.x_hi, cfg["arc_samples"])
    batch = disk.pigeonhole_batch(xs, consts, arc)
    re_k = np.cos(2 * np.pi * batch.k * xs)
    # character scan feeding the delta >= epsilon check
    grid = _grid_for(cfg, rs.rank)
    samples = []
    for lam in enumerate_adjoint_dominant_weights(rs, cfg["weight_bound"]):
        if not any(lam):
            continue
        table = weight_multiplicities(rs, lam)
        z = np.asarray(character_grid(table, grid)).ravel() / table.dim
        mag = np.abs(z)
        phase = np.mod(np.angle(z) / (2 * np.pi), 1.0)
        sel = (mag > 0) & (phase >= arc.x_lo) & (phase <= arc.x_hi)
        idxs = np.flatnonzero(sel)
        for idx, y in zip(idxs, grid_torus_fractions(rs, idxs, grid)):
            samples.append(CharacterSample(
                lam=tuple(lam), theta=theta_of_torus_fraction(rs, y), z=complex(z[idx])
            ))
    delta_report = disk.delta_lower_bound_check(samples, arc, consts)
    sweep_ok = all(
        disk.final_inequality_check(k, c)
        for k in (1, 2, 3, 5, 10, 30, 100)
        for c in np.linspace(0.01, 0.99, 99)
    )
    stride = max(1, len(xs) // 2000)
    reporting.write_csv(
        out / f"arc-lemma-{cfg['type']}.csv",
        ["x", "k", "brute_k", "re_omega_k"],
        list(zip(xs[::stride], batch.k[::stride], batch.brute_k[::stride], re_k[::stride])),
        subcommand="arc-lemma", seed=cfg["seed"], type=cfg["type"],
        arc_lo=arc.x_lo, arc_hi=arc.x_hi,
    )
    falsified = (
        bool(np.any(re_k > 0)) or bool(np.any(batch.k > 2 * consts.p * consts.q))
        or bool(batch.fallback.any()) or bool(delta_report.violations) or not sweep_ok
    )
    reporting.write_json(
        out / f"arc-lemma-{cfg['type']}.json",
        {
            "type": cfg["type"],
            "arc": [arc.x_lo, arc.x_hi],
            "constants": {
                "m": consts.m, "q": consts.q, "delta": consts.delta,
                "p": consts.p, "epsilon": consts.epsilon, "bound_b": consts.bound_b,
            },
            "pigeonhole": {
                "samples": int(xs.size),
                "max_re": float(re_k.max()),
                "max_k": int(batch.k.max()),
                "k_cap": 2 * consts.p * consts.q,
                "fallbacks": int(batch.fallback.sum()),
                "epsilon_sharp": batch.epsilon_sharp,
            },
            "delta_bound": {
                "n_samples": delta_report.n_samples,
                "n_in_arc": delta_report.n_in_arc,
                "min_delta": delta_report.min_delta,
                "epsilon": delta_report.epsilon,
                "margin": delta_report.margin,
                "violations": delta_report.violations,
            },
            "final_inequality_sweep_ok": sweep_ok,
            "falsified": falsified,
        },
        subcommand="arc-lemma", seed=cfg["seed"],
    )
    print(f"{cfg['type']} arc [{arc.x_lo},{arc.x_hi}]: max k={batch.k.max():d} "
          f"(cap {2 * consts.p * consts.q}), min_delta="
          f"{'n/a' if delta_report.min_delta is None else f'{delta_report.min_delta:.4f}'} "
          f"vs eps={consts.epsilon:.2e}")
    return FALSIFIED if falsified else 0


# -- verify-all --------------------------------------------------------------------


def _verify_all(cfg: dict):
    """Compact battery of every module's invariants; yields result rows."""
    seed = cfg["seed"]
    rows = []

    def check(suite: str, name: str, passed: bool, detail: str = ""):
        rows.append((suite, name, "pass" if passed else "FAIL", detail))

    systems, bases = {}, {}

    def roots_suite():
        expected = {
            "A1": (1, 2, 2), "A2": (3, 6, 3), "B2": (4, 8, 3),
            "C2": (4, 8, 3), "G2": (6, 12, 4),
        }
        for label, (npos, worder, hvee) in expected.items():
            rs = build_root_system(label)
            systems[label] = rs
            check("roots", f"{label}-counts",
                  rs.n_positive == npos
                  and rs.weyl_order == worder
                  and rs.dual_coxeter_number() == hvee,
                  f"n+={rs.n_positive} |W|={rs.weyl_order}")
            w = generate_weyl_group(rs)
            check("roots", f"{label}-weyl-closure", len(w) == worder, f"|W|={len(w)}")

    def characters_suite():
        for label, grid, tol in (("A1", 2048, 1e-6), ("A2", 96, 1e-4)):
            rs = systems[label]
            worst = 0.0
            for lam in enumerate_adjoint_dominant_weights(rs, 4):
                if not any(lam):
                    continue
                table = weight_multiplicities(rs, lam)
                worst = max(worst, abs(haar_character_integral(table, grid**rs.rank)))
            check("characters", f"{label}-haar", worst <= tol, f"max|haar|={worst:.2e}")
        check("characters", "A1-adjoint-dim",
              weyl_dimension(systems["A1"], (2,)) == 3, "")
        g2_adjoint = systems["G2"].fundamental_of_root_coords(
            systems["G2"].highest_root_coords
        )
        check("characters", "G2-adjoint-dim",
              weyl_dimension(systems["G2"], g2_adjoint) == 14, "")

    def compact_form_suite():
        for label in ("A1", "A2", "G2"):
            basis = build_compact_form(systems[label])
            bases[label] = basis
            jac = np.einsum("abm,mck->abck", basis.structure, basis.structure)
            jacobi = jac + np.einsum("bcm,mak->abck", basis.structure, basis.structure) \
                + np.einsum("cam,mbk->abck", basis.structure, basis.structure)
            check("compact-form", f"{label}-jacobi",
                  float(np.abs(jacobi).max()) < 1e-12, f"max={np.abs(jacobi).max():.1e}")
            kappa = np.einsum("iab,jba->ij", basis.ad_stack, basis.ad_stack)
            gram_err = float(np.abs(kappa + basis.killing_scale * np.eye(basis.dim)).max())
            check("compact-form", f"{label}-killing-gram", gram_err < 1e-10,
                  f"err={gram_err:.1e}")

    def orbits_suite():
        a1 = bases["A1"]
        triple = [group_exp(a1, np.array([0.0, 0.0, t])) for t in
                  (0.0, 2 * np.pi / np.sqrt(2) / 3, 4 * np.pi / np.sqrt(2) / 3)]
        s = orbits.orbit_sum(a1, np.array([1.0, 0.0, 0.0]), triple)
        check("orbits", "A1-triple-sum", killing_norm(a1, s) <= 1e-10
              and orbits.orbit_sum_rank(a1, np.array([1.0, 0.0, 0.0]), triple) == 3,
              f"norm={killing_norm(a1, s):.1e}")
        verdict = orbits.zero_in_hull_interior(np.array([[1.0, 0], [-1, 1], [-1, -1]]))
        check("orbits", "hull-interior-cert",
              isinstance(verdict, orbits.HullCertificate) and verdict.margin > 0, "")
        plan = orbits.replication_plan([0.5, 0.5], 1e-9)
        check("orbits", "replication-half", plan.counts == [2, 2] and plan.total == 4,
              f"counts={plan.counts}")
        ok_walk = True
        for i in range(20):
            wrng = np.random.default_rng(np.random.SeedSequence([seed, 2, i]))
            nvec = int(wrng.integers(2, 7))
            a = wrng.uniform(0.2, 3.0, nvec)
            walk = orbits.lattice_ray_walk(a, 500)
            ok_walk &= bool(orbits.distance_to_ray(walk, a).max() <= np.sqrt(2 * nvec))
        check("orbits", "ray-walk-bound", ok_walk, "20 instances x 500 steps")

    def class_power_suite():
        a1 = bases["A1"]
        crng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        cls = classpowers.conjugacy_class(a1, sample_unit(a1, crng), 0.4)
        rep = classpowers.class_power_identity_check(cls, 2, crng, interior_targets=6)
        check("class-power", "A1-n2-identity",
              rep.reachable and rep.interior and not rep.falsifications,
              f"min_res={rep.min_residual:.1e}")
        fit = classpowers.bch_scaling_fit(a1, sample_unit(a1, crng, 2))
        check("class-power", "A1-bch-slope",
              fit.exponent is not None and 1.95 <= fit.exponent <= 2.05,
              f"slope={fit.exponent:.3f}")
        x0 = sample_unit(a1, crng)
        check("class-power", "commuting-exact-zero",
              classpowers.bch_scaling_fit(a1, [x0, 0.25 * x0]).exact_zero, "")
        mu = classpowers.product_radius_mu(a1, 3, 0.05, 200, crng)
        check("class-power", "product-radius-bound", mu.mu_hat <= mu.bound,
              f"mu={mu.mu_hat:.3f} bound={mu.bound:.3f}")

    def disk_suite():
        est = disk.empirical_disk_constant(systems["A1"], 4, 512)
        check("disk", "A1-c-hat", abs(est.c_hat + 1 / 3) < 1e-9, f"c={est.c_hat:.9f}")
        arc = disk.ArcSpec(0.05, 0.95)
        consts = disk.arc_constants(arc, 2)
        drng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
        xs = drng.uniform(arc.x_lo, arc.x_hi, 2000)
        batch = disk.pigeonhole_batch(xs, consts, arc)
        re_k = np.cos(2 * np.pi * batch.k * xs)
        check("disk", "pigeonhole-batch",
              bool(np.all(re_k <= 0) and np.all(batch.k <= 2 * consts.p * consts.q)
                   and not batch.fallback.any()),
              f"max_re={re_k.max():.1e}")
        worst = 0.0
        for _ in range(100):
            nmat = int(drng.integers(2, 9))
            u = disk.random_unitary(nmat, drng)
            w = np.exp(2j * np.pi * drng.uniform())
            fd = disk.frobenius_deviation(u, w)
            oracle = np.sqrt(np.sum(np.abs(w - np.linalg.eigvals(u)) ** 2))
            worst = max(worst, abs(fd.norm - oracle))
        check("disk", "frobenius-identity", worst < 1e-12, f"worst={worst:.1e}")
        ok_tel = all(
            disk.telescoping_check(
                [disk.random_unitary(3, drng) for _ in range(4)],
                np.exp(2j * np.pi * drng.uniform()),
            ).holds
            for _ in range(100)
        )
        check("disk", "telescoping", ok_tel, "100 tuples")
        check("disk", "final-inequality",
              all(disk.final_inequality_check(k, c)
                  for k in (1, 2, 5, 20) for c in np.linspace(0.01, 0.99, 49)), "")

    suites = (
        ("roots", roots_suite), ("characters", characters_suite),
        ("compact-form", compact_form_suite), ("orbits", orbits_suite),
        ("class-power", class_power_suite), ("disk", disk_suite),
    )
    for suite, run in suites:
        # a check that raises is a failure of its suite; the later suites still run
        try:
            run()
        except Exception as err:
            check(suite, "raised", False, f"{type(err).__name__}: {err}")
    return rows


def _cmd_verify_all(cfg: dict, out: Path) -> int:
    rows = _verify_all(cfg)
    reporting.write_csv(
        out / "verify-all.csv",
        ["suite", "check", "status", "detail"], rows,
        subcommand="verify-all", seed=cfg["seed"],
    )
    failures = [r for r in rows if r[2] != "pass"]
    reporting.write_json(
        out / "verify-all.json",
        {
            "checks": [
                {"suite": s, "check": c, "status": st, "detail": d}
                for s, c, st, d in rows
            ],
            "n_checks": len(rows),
            "n_failures": len(failures),
        },
        subcommand="verify-all", seed=cfg["seed"],
    )
    for suite, name, status, detail in rows:
        mark = "ok " if status == "pass" else "FAIL"
        print(f"[{mark}] {suite}/{name} {detail}")
    print(f"{len(rows) - len(failures)}/{len(rows)} checks passed")
    return FALSIFIED if failures else 0


_HANDLERS = {
    "scan-characters": _cmd_scan_characters,
    "estimate-c": _cmd_estimate_c,
    "orbit": _cmd_orbit,
    "class-power": _cmd_class_power,
    "bch": _cmd_bch,
    "arc-lemma": _cmd_arc_lemma,
    "verify-all": _cmd_verify_all,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjointlab",
        description="Numerical experiments on compact adjoint simple groups",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--type", dest="type", help="group type (A1..G2)")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
        p.add_argument("--weight-bound", dest="weight_bound", type=int)
        p.add_argument("--grid", type=int, help="per-axis grid size")
        p.add_argument("--class-n", dest="class_n", type=int)
        p.add_argument("--arc-bound", dest="arc_bound", type=int)
        p.add_argument("--arc-samples", dest="arc_samples", type=int)
        p.add_argument("--bch-n", dest="bch_n", type=int)
        p.add_argument("--bch-delta", dest="bch_delta", type=float)
        p.add_argument("--bch-samples", dest="bch_samples", type=int)
        p.add_argument("--walk-steps", dest="walk_steps", type=int)
        p.add_argument(
            "--arc", nargs=2, type=float, metavar=("LO", "HI"),
            help="arc [x_lo, x_hi] as fractions of a turn",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return USAGE_ERROR
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return _HANDLERS[args.subcommand](cfg, out)


if __name__ == "__main__":
    sys.exit(main())
