"""The measured process of one benchmark run.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --out DIR [--setup-only]

Imports `ridgecomb` from the checkout's `src/` and resolves the workload's
targets (set-up), then runs whole rounds of the workload's CLI commands
through `ridgecomb.cli.main` while another round is expected to end within S
seconds.  The commands repeat after a cycle of rounds (one round, or one per
build seed); the first cycle writes under DIR/r0 and later rounds under
DIR/r1, and at least two cycles run so their outputs can be compared byte for
byte.  With --trace 1 the per-layer spans of `tracing.py` are recorded.
Results go to DIR/worker.json (DIR/setup.json with --setup-only).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, operations_per_round, round_commands, rounds_per_cycle

ROOT = Path(__file__).resolve().parent.parent


def _round_failures(w, rcs: list[int], dest: Path) -> int:
    if w.command == "build":
        return sum(rc != 0 for rc in rcs)
    if rcs[0] not in (0, 3):  # the sweep stopped before writing its rows
        return operations_per_round(w)
    with open(dest / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return operations_per_round(w) - sum(r["status"] == "ok" for r in rows)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    w = WORKLOADS[args.workload]
    out = Path(args.out)

    sys.path.insert(0, str(ROOT / "src"))
    import ridgecomb
    import ridgecomb.cli as cli
    from ridgecomb.targets import resolve_target

    if not Path(ridgecomb.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ridgecomb imported from {ridgecomb.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    _, rep = resolve_target(w.target_spec(out), w.s)
    resolve_s = time.perf_counter() - t0
    result = {"ready": time.monotonic(), "resolve_s": resolve_s}
    if args.setup_only:
        (out / "setup.json").write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(w, rep)
        tracer.install()
    rounds, failed = [], 0
    cycle = rounds_per_cycle(w)
    with open(out / "cli.log", "w") as log, contextlib.redirect_stdout(log):
        start = time.perf_counter()
        while (len(rounds) < 2 * cycle or time.perf_counter() - start
               + statistics.median(rounds) <= args.seconds):
            k = len(rounds)
            dest = out / ("r0" if k < cycle else "r1")
            cmds = round_commands(w, args.seed, k, out, dest)
            if tracer:
                tracer.round = k
            t0 = time.perf_counter()
            rcs = [cli.main(argv) for argv in cmds]
            rounds.append(time.perf_counter() - t0)
            failed += _round_failures(w, rcs, dest)
            if tracer:
                tracer.end_round([Path(argv[argv.index("--out") + 1]) for argv in cmds])
    result.update(
        rounds=rounds,
        attempted=len(rounds) * operations_per_round(w),
        failed=failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer:
        result["layers"] = tracer.metrics(resolve_s)
        tracer.write(out / "trace.json")
    (out / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
