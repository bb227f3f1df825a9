"""The three benchmark workloads: their inputs, drawn from the workload seed,
and the `ridgecomb` CLI commands that make up one round.

Stdlib only, so `run.py` can build inputs without importing
numpy before it spawns the measured process.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Compute threads per workload: pool workers x BLAS threads <= nproc (2).
SWEEP_WORKERS = 2
BLAS_THREADS = 1

SWEEP_SEEDS = 10  # the CLI's minimum for rate-sweep
BUILD_SEEDS = 3  # build-d1 cycles through these, one per round


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "rate-sweep" or "build"
    target: str  # target spec; "{spectrum}" stands for the generated file
    d: int
    s: int
    methods: tuple[str, ...]
    ms: tuple[int, ...]
    m0: int | None = None

    def target_spec(self, out: Path) -> str:
        return self.target.format(spectrum=out / "spectrum.json")


WORKLOADS = {
    w.name: w
    for w in (
        # construct-bound: Monte Carlo cell masses and pooled rejection draws.
        # No m = 8: there a threshold-bin edge leaves a sliver cell that the
        # rejection sampler misses on some seeds (a BuilderError); at 2, 4
        # and 16 the |cos| zeros fall mid-bin or on bin edges
        Workload("strat-d2-s3", "rate-sweep", "sine-ridge:1,1", 2, 3,
                 ("iid", "stratified"), (2, 4, 16)),
        # evaluation-bound: 64^3 L2 rule and 65^3 sup grid; m0 = 2 < d so the
        # l0 control binds
        Workload("sparse-d3-s3", "rate-sweep", "cosine-sum:{spectrum}", 3, 3,
                 ("iid", "sparse"), (4, 8, 16), m0=2),
        # write side: m at the desk guard, combination.json of 4k-33k terms,
        # one build seed per round
        Workload("build-d1", "build", "sine-ridge:3", 1, 2,
                 ("iid", "sparse", "stratified"), (4096,), m0=1),
    )
}


def sweep_seeds(seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(10**6), SWEEP_SEEDS))


def build_seeds(seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(10**6), BUILD_SEEDS))


def spectrum_doc(seed: int) -> dict:
    """A 3-frequency cosine spectrum at d=3: omega = (pi/2) k, k in {-2..2}^3."""
    rng = random.Random(f"spectrum:{seed}")
    ks: list[tuple[int, ...]] = []
    while len(ks) < 3:
        k = tuple(rng.randint(-2, 2) for _ in range(3))
        if any(k) and k not in ks:
            ks.append(k)
    return {
        "dim": 3,
        "atoms": [
            {"omega": [math.pi / 2 * v for v in k],
             "mag": rng.uniform(0.25, 1.0),
             "phase": rng.uniform(-math.pi, math.pi)}
            for k in ks
        ],
    }


def write_inputs(w: Workload, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if "{spectrum}" in w.target:
        (out / "spectrum.json").write_text(json.dumps(spectrum_doc(seed)) + "\n")


def rounds_per_cycle(w: Workload) -> int:
    """Rounds after which the commands repeat: one per build seed."""
    return BUILD_SEEDS if w.command == "build" else 1


def round_commands(w: Workload, seed: int, k: int, out: Path,
                   dest: Path) -> list[list[str]]:
    """argv lists for `ridgecomb.cli.main` of round k, writing under `dest`."""
    target = w.target_spec(out)
    if w.command == "rate-sweep":
        argv = ["rate-sweep", "--target", target, "--s", str(w.s),
                "--methods", ",".join(w.methods), "--m", ",".join(map(str, w.ms)),
                "--seeds", ",".join(map(str, sweep_seeds(seed))),
                "--workers", str(SWEEP_WORKERS), "--out", str(dest)]
        if w.m0 is not None:
            argv += ["--m0", str(w.m0)]
        return [argv]
    bseed = build_seeds(seed)[k % BUILD_SEEDS]
    cmds = []
    for method in w.methods:
        argv = ["build", "--target", target, "--s", str(w.s), "--method", method,
                "--m", str(w.ms[0]), "--seed", str(bseed),
                "--out", str(dest / f"{method}-{bseed}")]
        if method == "sparse":
            argv += ["--m0", str(w.m0)]
        cmds.append(argv)
    return cmds


def operations_per_round(w: Workload) -> int:
    """Sweep cells, or build commands."""
    if w.command == "rate-sweep":
        return len(w.methods) * len(w.ms) * SWEEP_SEEDS
    return len(w.methods)
