"""Verdict checks: did each experiment reach the correct verdict?

An experiment fails when its exit code is not 0, when a headline number in
its JSON artifact leaves the range fixed here, or when its artifacts differ
by one byte from those of the same experiment in the run's first pass
(traced and untraced passes alike).

Grid estimates of the disk constant may only move down under legitimate
refinement (a finer grid or a Newton-refined minimum finds a lower value of
the same function), and by at most 4/n^2 for an n-point axis: that covers
the measured gap to the exact minimum in every case below (G2 at n = 64:
4.7e-4 of 9.8e-4 allowed; A2 at n = 256: 5.9e-6 of 6.1e-5). Any rise, or a
larger drop, is drift.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DIM = {"A1": 3, "A2": 8, "B2": 10, "C2": 10, "G2": 14}
RANK = {"A1": 1, "A2": 2, "B2": 2, "C2": 2, "G2": 2}

# estimate-c at the seed commit: (type, weight bound, grid) -> c_hat
C_HAT = {
    ("G2", 12, 64): -0.2852467733347422,
    ("B2", 16, 64): -0.6000000000000001,
    ("A2", 8, 256): -0.20203495914000977,
    ("B2", 8, 256): -0.6000000000000001,
    ("C2", 8, 256): -0.6000000000000001,
    ("G2", 8, 256): -0.2856854653293685,
    ("A1", 40, 32768): -0.3333333333333333,
}
C_HAT_RISE = 1e-9  # rounding a reordered sum may add; a rise beyond it is drift

# scan-characters: (type, weight bound) -> nontrivial root-lattice irreps
IRREPS = {
    ("G2", 12): 90, ("B2", 16): 80,
    ("A2", 8): 14, ("B2", 8): 24, ("C2", 8): 24, ("G2", 8): 44, ("A1", 40): 20,
}
HAAR_TOL = {1: 1e-6, 2: 1e-4}  # the CLI's defaults, fixed here

RESIDUAL_TOL = 1e-9  # orbit-sum residual
SOLVE_TOL = 1e-8  # class-power word-solve residual
BCH_EXPONENT = (1.95, 2.05)


def _load(out_dir: Path, exp) -> dict:
    return json.loads((out_dir / f"{exp.subcommand}-{exp.type_label}.json").read_text())


def _scan_characters(exp, doc) -> list[str]:
    label, bound = exp.type_label, int(exp.flag("--weight-bound"))
    problems = []
    want = IRREPS.get((label, bound))
    if want is None:
        problems.append(f"no expected irrep count for {label} at weight bound {bound}")
    elif len(doc["irreps"]) != want:
        problems.append(f"{len(doc['irreps'])} irreps scanned, expected {want}")
    tol = HAAR_TOL[RANK[label]]
    if not doc["max_abs_haar"] <= tol:
        problems.append(f"max |haar| {doc['max_abs_haar']:.3e} > {tol:.0e}")
    if any(not -1 - 1e-9 <= r["min_re_z"] <= 1 + 1e-9 for r in doc["irreps"]):
        problems.append("a normalized character left the unit disk")
    return problems


def _estimate_c(exp, doc) -> list[str]:
    label = exp.type_label
    bound, grid = int(exp.flag("--weight-bound")), int(exp.flag("--grid"))
    c_hat = doc["c_hat"]
    seed_value = C_HAT.get((label, bound, grid))
    if seed_value is None:
        return [f"no expected c_hat for {label} at weight bound {bound}, grid {grid}"]
    lo, hi = seed_value - 4.0 / grid**2, seed_value + C_HAT_RISE
    if not (-1.0 < c_hat < 0.0 and lo <= c_hat <= hi):
        return [f"c_hat {c_hat!r} outside [{lo!r}, {hi!r}]"]
    return []


def _orbit(exp, doc) -> list[str]:
    label = exp.type_label
    walk = doc["walk"]
    n = doc["tuple_size"]
    problems = []
    if not doc["residual"] <= RESIDUAL_TOL:
        problems.append(f"orbit-sum residual {doc['residual']:.3e} > {RESIDUAL_TOL:.0e}")
    if doc["rank"] != DIM[label]:
        problems.append(f"orbit rank {doc['rank']} != dim {DIM[label]}")
    if not (doc["hull_margin"] is not None and doc["hull_margin"] > 0):
        problems.append(f"hull margin {doc['hull_margin']} is not positive")
    if walk["steps"] != int(exp.flag("--walk-steps")):
        problems.append(f"walk has {walk['steps']} steps, asked {exp.flag('--walk-steps')}")
    if not walk["max_distance"] <= math.sqrt(2 * n):
        problems.append(f"walk distance {walk['max_distance']} > sqrt(2n)")
    if not walk["max_partial_sum"] <= walk["partial_sum_bound"]:
        problems.append(f"partial sum {walk['max_partial_sum']} > {walk['partial_sum_bound']}")
    return problems


def _class_power(exp, doc) -> list[str]:
    runs = doc["runs"]
    want = len(exp.config["class_t_values"])
    problems = []
    if len(runs) != want:
        problems.append(f"{len(runs)} classes run, expected {want}")
    reached = sum(bool(r["reachable"]) for r in runs)
    if reached != want:
        problems.append(f"{reached}/{want} classes reachable")
    if doc["falsification_count"] != 0 or not all(r["interior"] for r in runs):
        problems.append(f"{doc['falsification_count']} interior targets missed")
    worst = max((r["min_residual"] for r in runs), default=math.inf)
    if not worst <= SOLVE_TOL:
        problems.append(f"word-solve residual {worst:.3e} > {SOLVE_TOL:.0e}")
    return problems


def _bch(exp, doc) -> list[str]:
    lo, hi = BCH_EXPONENT
    mu = doc["product_radius"]
    problems = []
    if doc["exponent"] is None or not lo <= doc["exponent"] <= hi:
        problems.append(f"BCH exponent {doc['exponent']} outside [{lo}, {hi}]")
    if doc["commuting_exact_zero"] is not True:
        problems.append("commuting pair left a nonzero remainder")
    if not mu["mu_hat"] <= mu["bound"]:
        problems.append(f"mu_hat {mu['mu_hat']} > bound {mu['bound']}")
    return problems


def _arc_lemma(exp, doc) -> list[str]:
    pig, delta = doc["pigeonhole"], doc["delta_bound"]
    problems = []
    if pig["samples"] != int(exp.flag("--arc-samples")):
        problems.append(f"{pig['samples']} phases, asked {exp.flag('--arc-samples')}")
    if not pig["max_re"] <= 0.0:
        problems.append(f"pigeonhole max Re {pig['max_re']} > 0")
    if not pig["max_k"] <= pig["k_cap"] or pig["fallbacks"] != 0:
        problems.append(f"pigeonhole k {pig['max_k']} (cap {pig['k_cap']}), "
                        f"{pig['fallbacks']} fallbacks")
    if delta["n_samples"] < 1 or delta["violations"]:
        problems.append(f"delta check: {delta['n_samples']} samples, "
                        f"{len(delta['violations'])} violations")
    if doc["final_inequality_sweep_ok"] is not True or doc["falsified"] is not False:
        problems.append("final inequality sweep or verdict failed")
    return problems


CHECKS = {
    "scan-characters": _scan_characters,
    "estimate-c": _estimate_c,
    "orbit": _orbit,
    "class-power": _class_power,
    "bch": _bch,
    "arc-lemma": _arc_lemma,
}


def check(exp, rc, out_dir: Path, error: str | None = None) -> list[str]:
    """Problems with one experiment's outcome; empty when it passed."""
    problems = []
    if error is not None:
        problems.append(error)
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    try:
        problems += CHECKS[exp.subcommand](exp, _load(out_dir, exp))
    except (OSError, ValueError, KeyError, TypeError) as err:
        problems.append(f"unreadable artifact: {type(err).__name__}: {err}")
    return problems


def digest(out_dir: Path) -> str:
    """Hash of every artifact file name and byte under out_dir."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(out_dir).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Ledger:
    """Verdicts of every experiment of a run, against the first pass's bytes."""

    def __init__(self):
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, exp, rc, out_dir: Path, error: str | None = None) -> list[str]:
        problems = check(exp, rc, out_dir, error)
        got = digest(out_dir)
        if self.reference.setdefault(exp.tag, got) != got:
            problems.append("artifacts differ from the first pass")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{exp.tag}: {p}" for p in problems]
        return problems
