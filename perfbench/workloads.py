"""Workload definitions: the seeded argv streams the benchmark feeds to `sjm`.

Each workload is an endless sequence of cycles; a cycle is a short list of
operations, and one operation is one `sjm.cli.main(argv)` call.  The
benchmark always runs whole cycles, so workloads that mix a slow and a fast
command keep the two in equal number and their latency median stays put.

The program only ever sees the argv built here.  `Op.params` carries the
same values for the oracle, which therefore never parses argv.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

THETA_RANGE = (0.0, math.pi / 2)
PHI_RANGE = (-math.pi, math.pi)
# Op kinds whose argv does not start with the kind itself.
_COMMANDS = {"network-table": ["network", "table"], "network-scan": ["network", "scan"]}


@dataclass(frozen=True)
class Op:
    """One CLI call: `kind` names the oracle, `params` its inputs."""

    kind: str
    params: dict = field(hash=False)

    @property
    def argv(self) -> list[str]:
        p = self.params
        argv = _COMMANDS.get(self.kind, [self.kind])[:]
        # repr() round-trips a float exactly; "=" keeps a negative phi from
        # reading as a flag.
        for flag, key in (("--theta", "theta"), ("--phi", "phi")):
            if key in p:
                argv.append(f"{flag}={p[key]!r}")
        for flag, key in (("--n", "n"), ("--grid-steps", "grid_steps"), ("--seed", "seed")):
            if key in p:
                argv.append(f"{flag}={p[key]}")
        if p.get("format", "json") != "json":
            argv.append(f"--format={p['format']}")
        return argv


@dataclass(frozen=True)
class Sizes:
    grid_steps: int
    multi_n: int
    dense_n: int


# "full" is what the benchmark measures; "tiny" exists for the benchmark's
# own tests, which must run in seconds.
SIZES = {
    "full": Sizes(grid_steps=1024, multi_n=12, dense_n=10),
    "tiny": Sizes(grid_steps=16, multi_n=4, dense_n=4),
}


def _point(rng: random.Random) -> dict:
    return {"theta": rng.uniform(*THETA_RANGE), "phi": rng.uniform(*PHI_RANGE)}


def _two_qubit_points(rng, seed, sizes):
    return [
        Op("verify", _point(rng)),
        Op("circuit", _point(rng)),
        Op("network-table", _point(rng)),
    ]


def _theta_sweep(rng, seed, sizes):
    return [
        Op("network-scan", {"phi": rng.uniform(*PHI_RANGE), "grid_steps": sizes.grid_steps}),
        Op("curve", {"grid_steps": sizes.grid_steps}),
    ]


def _multiqubit_certify(rng, seed, sizes):
    n = sizes.multi_n
    return [
        Op("verify", {**_point(rng), "n": n, "seed": seed}),
        Op("multiqubit", {**_point(rng), "n": n, "seed": seed}),
    ]


def _dense_export(rng, seed, sizes):
    n = sizes.dense_n
    # CSV first: the warm-up op is the first op of a cycle, and the cheaper
    # of the two keeps set-up short without skipping any code path.
    return [
        Op("basis", {**_point(rng), "n": n, "format": "csv"}),
        Op("basis", {**_point(rng), "n": n, "format": "json"}),
    ]


# Workload name -> function (rng, seed, sizes) -> the ops of one cycle.
WORKLOADS = {
    "two-qubit-points": _two_qubit_points,
    "theta-sweep": _theta_sweep,
    "multiqubit-certify": _multiqubit_certify,
    "dense-export": _dense_export,
}

# Documented inputs the benchmark leaves out because they fail today.  They
# are printed with every result so the defect stays visible.
KNOWN_FAILING = [
    {
        "argv": ["basis", "--n", "12"],
        "formats": ["json", "csv"],
        "reason": "exhausts memory: OOM-killed (exit 137) on an 8 GB machine; "
        "under a 2 GB address-space cap it raises MemoryError after ~18 s "
        "(JSON) and ~13 s (CSV). Left out of dense-export until it fits.",
    }
]


class OpStream:
    """The seeded op sequence of one workload: a warm-up op, then cycles."""

    def __init__(self, workload: str, seed: int, size: str = "full") -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
        self._make = WORKLOADS[workload]
        self._seed = seed
        self._sizes = SIZES[size]
        # A string seed hashes the same in every process and Python build.
        self._rng = random.Random(f"{workload}/{seed}")
        self.warmup = self._make(self._rng, seed, self._sizes)[0]

    def next_cycle(self) -> list[Op]:
        return self._make(self._rng, self._seed, self._sizes)
