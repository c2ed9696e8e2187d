"""The benchmark's workloads: seeded experiment sweeps through `cli.main`.

Each workload is one batch of CLI experiments run back to back in one
interpreter (a closed loop with one client). The sizes keep each workload's
dominant layer (recorded in BENCHMARK.json) while fitting several passes
into one run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

DEFAULT_SEED = 20260816

RANK2 = ("A2", "B2", "C2", "G2")
ALL_TYPES = ("A1",) + RANK2


@dataclass(frozen=True)
class Experiment:
    tag: str  # unique within the workload; names the artifact directory
    argv: tuple[str, ...]  # subcommand and flags, without --seed/--out/--config
    seed: int
    config: dict | None = None  # JSON config file contents, if any

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def type_label(self) -> str:
        return self.argv[self.argv.index("--type") + 1]

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    root_types: tuple[str, ...]  # root systems built in set-up
    form_types: tuple[str, ...]  # compact forms built in set-up
    plan: tuple[tuple[str, tuple[str, ...], dict | None], ...]  # (tag, argv, config)

    def experiments(self, seed: int) -> list[Experiment]:
        return [Experiment(tag, argv, derive_seed(seed, tag), config)
                for tag, argv, config in self.plan]


def derive_seed(seed: int, tag: str) -> int:
    """Experiment seed from the workload seed: the same pair, the same seed."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _torus_pair(label: str, bound: int, grid: int):
    flags = ("--type", label, "--weight-bound", str(bound), "--grid", str(grid))
    return [
        (f"scan-characters-{label}", ("scan-characters",) + flags, None),
        (f"estimate-c-{label}", ("estimate-c",) + flags, None),
    ]


CLASS_CONFIG = {"class_t_values": [0.3, 0.9, 1.5], "interior_targets": 24}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="torus-tables",
            root_types=("G2", "B2"),
            form_types=(),
            plan=tuple(_torus_pair("G2", 12, 64) + _torus_pair("B2", 16, 64)),
        ),
        Workload(
            name="torus-grids",
            root_types=ALL_TYPES,
            form_types=(),
            plan=tuple(
                [e for label in RANK2 for e in _torus_pair(label, 8, 256)]
                + _torus_pair("A1", 40, 32768)
            ),
        ),
        Workload(
            name="group-solve",
            root_types=ALL_TYPES,
            form_types=ALL_TYPES,
            plan=tuple(
                [(f"class-power-{label}",
                  ("class-power", "--type", label, "--class-n", "3" if label == "A2" else "2"),
                  CLASS_CONFIG)
                 for label in ("A1", "B2", "C2", "G2", "A2")]
                + [(f"bch-{label}", ("bch", "--type", label, "--bch-samples", "300"), None)
                   for label in ("A2", "G2")]
            ),
        ),
        Workload(
            name="sample-sweep",
            root_types=ALL_TYPES,
            form_types=ALL_TYPES,
            plan=tuple(
                [(f"orbit-{label}-{k}", ("orbit", "--type", label, "--walk-steps", "20000"), None)
                 for k in range(2) for label in ALL_TYPES]
                + [(f"arc-lemma-{label}",
                    ("arc-lemma", "--type", label, "--grid", "64", "--arc-samples", "200000"), None)
                   for label in ("B2", "G2")]
            ),
        ),
    )
}
