"""Batch front door: seeded experiments with deterministic artifacts.

Subcommands: scan-characters, estimate-c, orbit, class-power, bch,
arc-lemma, verify-all.  Configuration comes from defaults, an optional JSON
config file, then command-line flag overrides, in that order; a subcommand
takes only the keys it reads.  Each subcommand computes a `_Run` record and
`main` alone writes it out, creating `--out` only then.  Exit codes: 0
success, 2 usage/config error, 3 falsification event.  A `_Run`'s verdict
gives 0 or 3, and exit 3 writes its artifacts as evidence.  Module outcomes
pass through the handlers to `main`, which maps each by name, prints it on
stderr and writes nothing: `ConfigError`, `disk.CoarseGridError` and an
`--out` the OS cannot create exit 2; `disk.DiskBoundEscape` and
`orbits.StagnationError` exit 3.  Any other exception is a fault and
propagates.  verify-all runs structural checks, then
each experiment's own handler at the small configs of `_VERIFY_RUNS` and takes
its verdict from the `_Run`; a handler that raises fails its own row only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import classpowers, disk, orbits, reporting
from .characters import (
    character_grid,
    full_grid_nodes,
    grid_torus_fractions,
    haar_bandwidth,
    haar_character_integral,
    theta_of_torus_fraction,
    weight_multiplicities,
    weyl_density_grid,
    weyl_dimension,
)
from .compactform import LogRangeError, build_compact_form, group_exp, sample_unit
from .rootsys import (
    TYPE_LABELS,
    build_root_system,
    enumerate_adjoint_dominant_weights,
)

USAGE_ERROR = 2
FALSIFIED = 3

# largest class scale t accepted: every class holds some exp(t X), X unit, with
# t at most the group's diameter, and far beyond it exp(t ad X) loses accuracy
# (exp(t ad X) is off orthogonal by ~3e-13 at t = 1e3, and at t = 1e6 by
# ~2e-10, past classpowers.FACTOR_ORTHO_TOL)
CLASS_T_MAX = 1e3

# largest walk bound K = b + floor(1/(2m)) + 1 (disk.arc_constants) accepted:
# the arc scan takes up to K - b + 1 steps per phase, and near K = 2^52 the
# multiples s x keep no fractional bits
ARC_K_MAX = 10**5

# per-sample tables (arc-lemma's samples, orbit's walk steps) keep every
# stride-th row, stride = max(1, rows // TABLE_ROWS); the JSON summaries are
# taken over every row
TABLE_ROWS = 2000

# config key -> (default, settings of its flag --<key with dashes>); the keys
# with no flag are file-only
_KEYS = {
    "type": ("A1", {"help": "group type (A1..G2)"}),
    "seed": (20260816, {"type": int}),
    "out": ("artifacts", {"help": "output directory"}),
    "weight_bound": (8, {"type": int}),
    # per-axis; None defaults to 2048 (rank 1) / 128 (rank 2)
    "grid": (None, {"type": int, "help": "per-axis grid size"}),
    "class_t_values": (None, None),  # None: 20 values in [0.1, 2.0]
    "class_n": (2, {"type": int}),
    "interior_targets": (None, None),  # None: 6 per algebra dimension
    "arc": ([0.45, 0.55], {"nargs": 2, "type": float, "metavar": ("LO", "HI"),
                           "help": "arc [x_lo, x_hi] as fractions of a turn"}),
    "arc_bound": (2, {"type": int}),
    "arc_samples": (20000, {"type": int}),
    "bch_n": (4, {"type": int}),
    "bch_samples": (1000, {"type": int}),
    "walk_steps": (2000, {"type": int}),
}

# bch's step scale delta: product-radius samples take t in [0.05, 0.999) delta
BCH_DELTA = 0.05

# scan-characters' bound on |Haar integral| of a nontrivial character, by rank
HAAR_TOL = {1: 1e-6, 2: 1e-4}


class ConfigError(ValueError):
    pass


@dataclass
class _Run:
    """What a subcommand computed, for `main` to write out and judge.

    body: the JSON payload; tables: one (file suffix, {column name: 1-D
    values}, tags) per CSV, column-major, so that numpy arrays reach
    `reporting.write_csv` as they are; svg: (points, colors, circles) of the
    scatter plot, if any; summary: the stdout text.
    """

    body: dict
    tables: list
    summary: str
    falsified: bool
    svg: tuple | None = None


def _defaults(sub: str) -> dict:
    """The default config of a subcommand: its keys, seed and out."""
    _, keys = SUBCOMMANDS[sub]
    return {key: _KEYS[key][0] for key in ("seed", "out", *keys)}


def _load_config(args) -> dict:
    cfg = _defaults(args.subcommand)
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
            if key not in cfg:
                raise ConfigError(f"unknown config field {key!r} for {args.subcommand}")
            cfg[key] = value
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    _validate_config(cfg)
    return cfg


def _is_int(v) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not numbers here
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _validate_config(cfg: dict) -> None:
    """Reject bad values of the keys that cfg holds."""
    if "type" in cfg and cfg["type"] not in TYPE_LABELS:
        raise ConfigError(f"type must be one of {TYPE_LABELS}, got {cfg['type']!r}")
    if not _is_int(cfg["seed"]) or cfg["seed"] < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if not isinstance(cfg["out"], str) or not cfg["out"] or "\0" in cfg["out"]:
        raise ConfigError(f"out must be a nonempty path string with no NUL byte, "
                          f"got {cfg['out']!r}")
    out = Path(cfg["out"])
    try:
        blocked = any(path.exists() and not path.is_dir() for path in (out, *out.parents))
    except OSError as err:  # a component longer than the OS allows, say
        raise ConfigError(f"cannot check out: {err}") from err
    if blocked:
        raise ConfigError(f"out {cfg['out']!r} is or lies under an existing non-directory")
    for key in ("weight_bound", "class_n", "arc_bound", "bch_n", "bch_samples",
                "arc_samples", "walk_steps"):
        v = cfg.get(key, 1)
        if not _is_int(v) or v < 1:
            raise ConfigError(f"{key} must be a positive integer, got {v!r}")
    if cfg.get("grid") is not None and (not _is_int(cfg["grid"]) or cfg["grid"] < 2):
        raise ConfigError("grid must be an integer >= 2")
    if cfg.get("interior_targets") is not None and (
            not _is_int(cfg["interior_targets"]) or cfg["interior_targets"] < 1):
        # zero targets would make the interiority check pass vacuously
        raise ConfigError("interior_targets must be a positive integer")
    arc = cfg.get("arc", _KEYS["arc"][0])
    if (not isinstance(arc, (list, tuple)) or len(arc) != 2
            or not all(_is_real(v) for v in arc)
            or not 0.0 < arc[0] <= arc[1] < 1.0):
        raise ConfigError("arc must be [x_lo, x_hi] with 0 < x_lo <= x_hi < 1")
    if "arc_bound" in cfg:
        x_lo, x_hi = float(arc[0]), float(arc[1])
        try:
            k_cap = disk.arc_constants(disk.ArcSpec(x_lo, x_hi), cfg["arc_bound"]).k_cap
        except OverflowError:  # 1/(2m) rounds to inf when m is subnormal
            k_cap = float("inf")
        if k_cap > ARC_K_MAX:
            raise ConfigError(f"arc [{x_lo}, {x_hi}] with arc_bound {cfg['arc_bound']} has "
                              f"walk bound K = {k_cap} > {ARC_K_MAX}")
    if cfg.get("class_t_values") is not None:
        ts = cfg["class_t_values"]
        if (not isinstance(ts, (list, tuple)) or not ts
                or not all(_is_real(t) and 0 < t <= CLASS_T_MAX for t in ts)):
            raise ConfigError(f"class_t_values must be a nonempty list of reals "
                              f"in (0, {CLASS_T_MAX:g}]")


def _weights(cfg: dict, rs) -> list[tuple[int, ...]]:
    """The scanned highest weights: nontrivial root-lattice irreps up to the
    weight bound."""
    weights = enumerate_adjoint_dominant_weights(rs, cfg["weight_bound"])
    if not weights:
        raise ConfigError(f"{rs.type_label} has no nontrivial root-lattice irrep of "
                          f"weight bound <= {cfg['weight_bound']}")
    return weights


def _irrep_columns(cfg: dict, lams, thetas, zs) -> dict:
    """The per-irrep CSV columns of scan-characters and estimate-c: each
    irrep's highest weight, and the theta (one (irreps, rank) array) and
    value of its scanned minimum: the first minimizing node of its half
    grid in C order."""
    zs = np.asarray(zs, dtype=complex)
    return {
        "type": [cfg["type"]] * len(lams),
        "lambda": [";".join(str(int(v)) for v in lam) for lam in lams],
        **{f"theta_{i + 1}": theta for i, theta in enumerate(thetas.T)},
        "re_z": zs.real,
        "im_z": zs.imag,
    }


# -- subcommands -----------------------------------------------------------------


def _cmd_scan_characters(cfg: dict, rs) -> _Run:
    grid = cfg["grid"]
    haar_tol = HAAR_TOL[rs.rank]
    weights = _weights(cfg, rs)
    # a coarser grid aliases chi |Delta|^2: its Haar integrals would be wrong
    need = haar_bandwidth(rs, weights)
    if grid <= need:
        raise ConfigError(f"grid {grid} aliases the Haar integrand at weight bound "
                          f"{cfg['weight_bound']}; it needs grid > {need}")
    idx, mins = [], []
    irreps = []
    max_abs_haar = 0.0
    density = weyl_density_grid(rs, grid)
    for lam in weights:
        table = weight_multiplicities(rs, lam)
        chi = character_grid(table, grid)
        haar = haar_character_integral(rs, chi, density)
        max_abs_haar = max(max_abs_haar, abs(haar))
        # Re(chi/dim) as chi.real * (1/dim), the product numpy's complex
        # division takes: the complex quotient is formed at the minimum only
        chi = chi.ravel()
        i = int(np.argmin(chi.real * (1 / table.dim)))
        z = chi[i:i + 1] / table.dim
        idx.append(i)
        mins.append(z)
        irreps.append({
            "lambda": list(lam),
            "dim": table.dim,
            "haar": haar,
            "min_re_z": float(z.real[0]),
        })
    falsified = max_abs_haar > haar_tol
    thetas = theta_of_torus_fraction(rs, grid_torus_fractions(rs, np.array(idx), grid))
    return _Run(
        body={
            "weight_bound": cfg["weight_bound"],
            "grid": grid,
            "haar_tolerance": haar_tol,
            "max_abs_haar": max_abs_haar,
            "irreps": irreps,
            "falsified": falsified,
        },
        tables=[("", _irrep_columns(cfg, weights, thetas, np.concatenate(mins)),
                 {"weight_bound": cfg["weight_bound"], "grid": grid})],
        summary=(f"FALSIFIED: |haar integral| {max_abs_haar:.3e} > {haar_tol:.1e}"
                 if falsified else
                 f"scanned {len(weights)} irreps; max |haar| = {max_abs_haar:.3e}"),
        falsified=falsified,
    )


def _cmd_estimate_c(cfg: dict, rs) -> _Run:
    est = disk.empirical_disk_constant(rs, cfg["weight_bound"], cfg["grid"])
    columns = _irrep_columns(cfg, est.lams, est.thetas, est.z)
    columns["h"] = est.h
    best = est.best
    # scatter: every (n^rank // 3000)-th node of the winning irrep's full
    # grid, read off its half grid, then the per-irrep minima and the best
    size = cfg["grid"] ** rs.rank
    nodes = full_grid_nodes(est.values, cfg["grid"], np.arange(0, size, max(1, size // 3000)))
    z = np.concatenate([nodes, est.z, est.z[best:best + 1]])
    colors = ["#888888"] * len(nodes) + ["#1f77b4"] * len(est.z) + ["#d62728"]
    circles = [
        (0j, 1.0, "#000000"),
        ((1 + est.c_hat) / 2 + 0j, (1 - est.c_hat) / 2, "#d62728"),
    ]
    return _Run(
        body={
            "weight_bound": cfg["weight_bound"],
            "grid": cfg["grid"],
            "c_hat": est.c_hat,
            "attaining_sample": {
                "lambda": list(est.lams[best]),
                "theta": est.thetas[best],
                "re_z": est.z[best].real,
                "im_z": est.z[best].imag,
                "h": est.c_hat,
            },
        },
        tables=[("", columns, {"weight_bound": cfg["weight_bound"], "grid": cfg["grid"]})],
        summary=f"{cfg['type']}: c_hat = {est.c_hat:.9f} at lambda={est.lams[best]}",
        falsified=False,
        svg=(z, colors, circles),
    )


def _cmd_orbit(cfg: dict, rs) -> _Run:
    basis = build_compact_form(rs)
    master = np.random.SeedSequence(cfg["seed"])
    ss_axis, ss_solve, ss_span = master.spawn(3)
    x = sample_unit(basis, np.random.default_rng(ss_axis))
    gs, residual, rank = orbits.find_vanishing_submersive_tuple(
        basis, x, np.random.default_rng(ss_solve))
    vectors = gs @ x
    n = len(gs)
    # the tuple conjugated by dim random elements: n dim vectors summing to 0
    # with uniform weights, so 0 is inside their hull iff they span (Gordan's
    # alternative), and the margin LP's optimum is those weights, 1/(n dim)
    hs = orbits.random_group_element(basis, np.random.default_rng(ss_span), basis.dim)
    cert = orbits.zero_in_hull_interior((vectors @ hs.mT).reshape(-1, basis.dim))
    if cert is None:
        raise orbits.StagnationError(f"the {n * basis.dim} conjugates of the vanishing tuple "
                                     f"certify no hull interior")

    # one walk along the vanishing tuple (equal weights): its distances to
    # the ray, and its partial sums walk @ vectors
    steps = cfg["walk_steps"]
    a = np.full(n, 1.0)
    walk = orbits.bounded_partial_sum_sequence(vectors, a, steps)
    dists = orbits.distance_to_ray(walk, a)
    partial_norms = np.linalg.norm(walk @ vectors, axis=1)
    partial_bound = n * np.sqrt(2 * n) * float(np.linalg.norm(vectors, axis=1).max())
    stride = max(1, steps // TABLE_ROWS)
    # residual, rank and hull margin are the search's and the certificate's
    # own acceptance tests, which raise StagnationError when unmet: the walk
    # bounds are what can fail
    ok = dists.max() <= np.sqrt(2 * n) and partial_norms.max() <= partial_bound
    return _Run(
        body={
            "tuple_size": n,
            "residual": residual,
            "rank": rank,
            "dimension": basis.dim,
            "hull_margin": cert.margin,
            "walk": {
                "steps": steps,
                "max_distance": float(dists.max()),
                "bound": float(np.sqrt(2 * n)),
                "max_partial_sum": float(partial_norms.max()),
                "partial_sum_bound": partial_bound,
            },
        },
        tables=[
            ("-certificate", {"index": np.arange(len(cert.coefficients)),
                              "coefficient": cert.coefficients}, {}),
            ("-walk", {"step": np.arange(0, steps, stride), "distance_to_ray": dists[::stride],
                       "partial_sum_norm": partial_norms[::stride]}, {"steps": steps}),
        ],
        summary=(f"{cfg['type']}: n={n} residual={residual:.2e} rank={rank}/{basis.dim} "
                 f"hull margin={cert.margin}"),
        falsified=not ok,
    )


def _cmd_class_power(cfg: dict, rs) -> _Run:
    basis = build_compact_form(rs)
    ts = cfg["class_t_values"]
    if ts is None:
        ts = [round(float(t), 6) for t in np.linspace(0.1, 2.0, 20)]
    # I lies in C.C iff C = C^-1, which holds for every class when -1 is in W
    minus_one_in_w = bool(
        (rs.weyl_root_matrices == -np.eye(rs.rank, dtype=np.int64)).all(axis=(1, 2)).any()
    )
    predicted = cfg["class_n"] == 2 and minus_one_in_w
    master = np.random.SeedSequence(cfg["seed"])
    children = master.spawn(len(ts))
    runs = []
    n_falsifications = 0
    for i, (t, child) in enumerate(zip(ts, children)):
        rng = np.random.default_rng(child)
        cls = classpowers.conjugacy_class(basis, sample_unit(basis, rng), t)
        report = classpowers.class_power_identity_check(
            cls, cfg["class_n"], rng, interior_targets=cfg["interior_targets"],
        )
        if predicted and not report.reachable:
            report.falsifications.append(
                f"identity not reached (residual {report.min_residual:.3e}) although "
                f"-1 in W makes every class self-inverse"
            )
        runs.append({"type": cfg["type"], **vars(report), "seeds": [cfg["seed"], i]})
        n_falsifications += len(report.falsifications)
    reached = sum(r["reachable"] for r in runs)
    if cfg["class_n"] != 2:
        why = "no prediction for n != 2"
    elif minus_one_in_w:
        why = "-1 in W: every class is self-inverse, so I in C.C is predicted"
    else:
        why = "-1 not in W: I in C.C only for self-inverse classes, so misses are expected"
    return _Run(
        body={"n": cfg["class_n"], "runs": runs, "falsification_count": n_falsifications},
        # one column per scalar field of a run, in the run's own order
        tables=[("", {key: [r[key] for r in runs]
                      for key, value in runs[0].items() if not isinstance(value, list)},
                 {"n": cfg["class_n"]})],
        summary=(f"{cfg['type']} n={cfg['class_n']}: {reached}/{len(runs)} classes "
                 f"reachable, {n_falsifications} falsifications ({why})"),
        falsified=n_falsifications > 0,
    )


def _cmd_bch(cfg: dict, rs) -> _Run:
    basis = build_compact_form(rs)
    master = np.random.SeedSequence(cfg["seed"])
    ss_tuple, ss_mu = master.spawn(2)
    rng = np.random.default_rng(ss_tuple)
    xs = sample_unit(basis, rng, 3)
    fit = classpowers.bch_scaling_fit(basis, xs)
    x0 = sample_unit(basis, rng)
    commuting = classpowers.bch_scaling_fit(basis, [x0, 0.5 * x0])
    try:
        mu = classpowers.product_radius_mu(
            basis, cfg["bch_n"], BCH_DELTA, cfg["bch_samples"], np.random.default_rng(ss_mu))
    except LogRangeError as err:
        # a product of up to bch_n factors left the log's principal branch
        raise ConfigError(f"{err}; at delta {BCH_DELTA}, lower --bch-n") from err
    ok = (fit.exponent is not None and 1.95 <= fit.exponent <= 2.05
          and commuting.exact_zero and mu.holds)
    return _Run(
        body={
            "exponent": fit.exponent,
            "constant": fit.constant,
            "commuting_exact_zero": commuting.exact_zero,
            "product_radius": mu,
        },
        tables=[("", {"t": fit.t_grid, "remainder_norm": fit.remainder_norms}, {})],
        summary=(f"{cfg['type']}: exponent={fit.exponent:.4f} mu_hat={mu.mu_hat:.4f} "
                 f"max_ratio-1={mu.max_ratio - 1:+.1e}"),
        falsified=not ok,
    )


def _cmd_arc_lemma(cfg: dict, rs) -> _Run:
    arc = disk.ArcSpec(float(cfg["arc"][0]), float(cfg["arc"][1]))
    consts = disk.arc_constants(arc, cfg["arc_bound"])
    weights = _weights(cfg, rs)
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    xs = rng.uniform(arc.x_lo, arc.x_hi, cfg["arc_samples"])
    batch = disk.pigeonhole_batch(xs, consts, arc)
    # character scan feeding the delta >= epsilon check, streamed one
    # irrep's grid at a time so that no two grids are held at once; every
    # node of the full grid counts as a sample
    grid = cfg["grid"]
    every = np.arange(grid ** rs.rank)
    tables = (weight_multiplicities(rs, lam) for lam in weights)
    delta_report = disk.delta_lower_bound_check(
        ((t.lam, full_grid_nodes(character_grid(t, grid) / t.dim, grid, every))
         for t in tables),
        arc, consts,
    )
    if not delta_report.n_in_arc:
        # real characters (B2, C2, G2: -1 in W) have phases 0 and 1/2 only
        raise ConfigError(f"no {cfg['type']} character value on a grid of {grid} has its "
                          f"phase on the arc [{arc.x_lo}, {arc.x_hi}]")
    sweep_ok = all(
        disk.final_inequality_check(k, c)
        for k in (1, 2, 3, 5, 10, 30, 100)
        for c in np.linspace(0.01, 0.99, 99)
    )
    stride = max(1, len(xs) // TABLE_ROWS)
    falsified = bool(batch.fallback.any()) or bool(delta_report.violations) or not sweep_ok
    return _Run(
        body={
            "arc": [arc.x_lo, arc.x_hi],
            "constants": consts,
            "pigeonhole": {
                "samples": int(xs.size),
                "max_re": float(batch.re.max()),
                "max_k": int(batch.k.max()),
                "k_cap": consts.k_cap,
                "fallbacks": int(batch.fallback.sum()),
                "epsilon_sharp": batch.epsilon_sharp,
            },
            "delta_bound": delta_report,
            "final_inequality_sweep_ok": sweep_ok,
            "falsified": falsified,
        },
        tables=[("", {"x": xs[::stride], "k": batch.k[::stride],
                      "brute_k": batch.brute_k[::stride], "re_omega_k": batch.re[::stride]},
                 {"arc_lo": arc.x_lo, "arc_hi": arc.x_hi})],
        summary=(f"{cfg['type']} arc [{arc.x_lo},{arc.x_hi}]: max k={batch.k.max():d} "
                 f"(cap {consts.k_cap}), "
                 f"min_delta={delta_report.min_delta:.4f} vs eps={consts.epsilon:.2e}"),
        falsified=falsified,
    )


# -- verify-all --------------------------------------------------------------------

# verify-all's experiment rows: each runs its subcommand's own handler, at that
# subcommand's defaults with these overrides, and reads the handler's verdict
_VERIFY_RUNS = (
    ("scan-characters", {"type": "A1", "weight_bound": 4, "grid": 2048}),
    ("scan-characters", {"type": "A2", "weight_bound": 4, "grid": 96}),
    ("estimate-c", {"type": "A1", "weight_bound": 4, "grid": 512}),
    ("class-power", {"type": "A1", "class_t_values": [0.4], "interior_targets": 6}),
    ("bch", {"type": "A1", "bch_n": 3, "bch_samples": 200}),
    ("arc-lemma", {"type": "A1", "arc": [0.05, 0.95], "arc_bound": 2, "arc_samples": 2000,
                   "weight_bound": 4, "grid": 64}),
    ("orbit", {"type": "A1"}),
)


def _verify_all(cfg: dict):
    """Structural invariants (roots, characters, compact forms, orbits), then
    the `_VERIFY_RUNS`; returns one record per check: its suite, name, status
    and detail."""
    seed = cfg["seed"]
    checks = []

    def check(suite: str, name: str, passed: bool, detail: str = "", failure: str | None = None):
        # a pass names the bound it met or the config it ran, so a passing
        # run's bytes carry no rounding noise; a failure names what broke it
        checks.append({"suite": suite, "check": name, "status": "pass" if passed else "FAIL",
                       "detail": detail if passed or failure is None else failure})

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

    def characters_suite():
        check("characters", "A1-adjoint-dim",
              weyl_dimension(systems["A1"], (2,)) == 3, "")
        g2_adjoint = systems["G2"].fundamental_of_root_coords(
            systems["G2"].highest_root_coords
        )
        check("characters", "G2-adjoint-dim",
              weyl_dimension(systems["G2"], g2_adjoint) == 14, "")

    def compact_form_suite():
        for label in TYPE_LABELS:
            basis = build_compact_form(systems[label])
            bases[label] = basis
            jac = np.einsum("abm,mck->abck", basis.structure, basis.structure)
            jacobi = jac + np.einsum("bcm,mak->abck", basis.structure, basis.structure) \
                + np.einsum("cam,mbk->abck", basis.structure, basis.structure)
            jacobi_max = float(np.abs(jacobi).max())
            check("compact-form", f"{label}-jacobi", jacobi_max < 1e-12,
                  "max<1e-12", f"max={jacobi_max:.1e}")
            kappa = np.einsum("iab,jba->ij", basis.ad_stack, basis.ad_stack)
            gram_err = float(np.abs(kappa + basis.killing_scale * np.eye(basis.dim)).max())
            check("compact-form", f"{label}-killing-gram", gram_err < 1e-10,
                  "err<1e-10", f"err={gram_err:.1e}")

    def orbits_suite():
        a1 = bases["A1"]
        triple = group_exp(a1, np.outer(np.arange(3) * 2 * np.pi / np.sqrt(2) / 3,
                                        [0.0, 0.0, 1.0]))
        s = orbits.orbit_sum(np.array([1.0, 0.0, 0.0]), triple)
        check("orbits", "A1-triple-sum", np.linalg.norm(s) <= 1e-10
              and orbits.orbit_sum_rank(a1, np.array([1.0, 0.0, 0.0]), triple) == 3,
              "norm<=1e-10", f"norm={np.linalg.norm(s):.1e}")
        cert = orbits.zero_in_hull_interior(np.array([[1.0, 0], [-1, 1], [-1, -1]]))
        check("orbits", "hull-interior-cert", cert is not None and cert.margin > 0, "")
        ok_walk = True
        for i in range(20):
            wrng = np.random.default_rng(np.random.SeedSequence([seed, 2, i]))
            nvec = int(wrng.integers(2, 7))
            a = wrng.uniform(0.2, 3.0, nvec)
            walk = orbits.lattice_ray_walk(a, 500)
            ok_walk &= bool(orbits.distance_to_ray(walk, a).max() <= np.sqrt(2 * nvec))
        check("orbits", "ray-walk-bound", ok_walk, "20 instances x 500 steps")

    suites = (
        ("roots", roots_suite), ("characters", characters_suite),
        ("compact-form", compact_form_suite), ("orbits", orbits_suite),
    )
    for suite, run in suites:
        # a check that raises is a failure of its suite; the later suites still run
        try:
            run()
        except Exception as err:
            check(suite, "raised", False, f"{type(err).__name__}: {err}")
    for sub, overrides in _VERIFY_RUNS:
        row = {**_defaults(sub), "seed": seed, "out": cfg["out"], **overrides}
        # a handler that raises anything fails its own row; later rows still run
        try:
            _validate_config(row)
            run = _run(sub, row)
        except Exception as err:
            check(sub, row["type"], False, f"{type(err).__name__}: {err}")
            continue
        ran = " ".join(f"{key}={row[key]}" for key in SUBCOMMANDS[sub][1] if key != "type")
        check(sub, row["type"], not run.falsified, ran, run.summary)
        if sub == "estimate-c":
            # the A1 scan attains the exact constant -1/3 (at level 2)
            c_hat = run.body["c_hat"]
            check(sub, f"{row['type']}-exact-c", abs(c_hat + 1 / 3) < 1e-9,
                  "|c+1/3|<1e-9", f"c={c_hat:.9f}")
    return checks


def _cmd_verify_all(cfg: dict, rs) -> _Run:
    checks = _verify_all(cfg)
    failures = [c for c in checks if c["status"] != "pass"]
    lines = [f"[{'ok ' if c['status'] == 'pass' else 'FAIL'}] {c['suite']}/{c['check']} "
             f"{c['detail']}" for c in checks]
    lines.append(f"{len(checks) - len(failures)}/{len(checks)} checks passed")
    return _Run(
        body={"checks": checks, "n_checks": len(checks), "n_failures": len(failures)},
        tables=[("", {key: [c[key] for c in checks]
                      for key in ("suite", "check", "status", "detail")}, {})],
        summary="\n".join(lines),
        falsified=bool(failures),
    )


# subcommand -> (handler, the config keys it reads besides seed and out)
SUBCOMMANDS = {
    "scan-characters": (_cmd_scan_characters, ("type", "weight_bound", "grid")),
    "estimate-c": (_cmd_estimate_c, ("type", "weight_bound", "grid")),
    "orbit": (_cmd_orbit, ("type", "walk_steps")),
    "class-power": (_cmd_class_power, ("type", "class_n", "class_t_values", "interior_targets")),
    "bch": (_cmd_bch, ("type", "bch_n", "bch_samples")),
    "arc-lemma": (_cmd_arc_lemma,
                  ("type", "weight_bound", "grid", "arc", "arc_bound", "arc_samples")),
    "verify-all": (_cmd_verify_all, ()),
}


def _run(sub: str, cfg: dict) -> _Run:
    """Run a subcommand's handler on a validated config, grid default resolved."""
    rs = build_root_system(cfg["type"]) if "type" in cfg else None
    if cfg.get("grid", 0) is None:
        cfg["grid"] = 2048 if rs.rank == 1 else 128
    return SUBCOMMANDS[sub][0](cfg, rs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjointlab",
        description="Numerical experiments on compact adjoint simple groups",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, keys) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        for key in ("seed", "out", *keys):
            flag = _KEYS[key][1]
            if flag is not None:
                p.add_argument("--" + key.replace("_", "-"), dest=key, **flag)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    sub = args.subcommand
    try:
        cfg = _load_config(args)
        run = _run(sub, cfg)
    except (ConfigError, disk.CoarseGridError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (disk.DiskBoundEscape, orbits.StagnationError) as err:
        print(f"FALSIFIED: {err}", file=sys.stderr)
        return FALSIFIED
    # verify-all covers every type; the others name theirs in each artifact
    tags = {"type": cfg["type"]} if "type" in cfg else {}
    stem = f"{sub}-{cfg['type']}" if tags else sub
    out = Path(cfg["out"])
    missing = [path for path in (out, *out.parents) if not path.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        for path in missing:  # deepest first: undo what mkdir made
            with contextlib.suppress(OSError):
                path.rmdir()
        print(f"config error: cannot create out: {err}", file=sys.stderr)
        return USAGE_ERROR
    for suffix, table, table_tags in run.tables:
        reporting.write_csv(out / f"{stem}{suffix}.csv", table,
                            subcommand=sub, seed=cfg["seed"], **tags, **table_tags)
    reporting.write_json(out / f"{stem}.json", {**tags, **run.body},
                         subcommand=sub, seed=cfg["seed"])
    if run.svg is not None:
        reporting.svg_scatter(out / f"{stem}.svg", *run.svg)
    print(run.summary)
    return FALSIFIED if run.falsified else 0


if __name__ == "__main__":
    sys.exit(main())
