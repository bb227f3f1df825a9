"""End-to-end benchmark of the `ridgecomb` CLI: one run of each workload.

    python3 bench/run.py [--workload NAME] --seed N --seconds S --trace 0|1

Without --workload every workload runs in turn, each printing its own block.

Run from the repository root; the package is imported from `src/`.  The
workload's inputs are drawn from --seed and written under bench/_out/NAME.
One fresh worker process (worker.py) sets up and runs whole rounds of the
workload's CLI commands for S seconds; with --trace 0 three more fresh
processes only set up, and the median of the four set-up times is `setup_s`.
The outputs are then checked (checks.py).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, where the
metrics are the end-to-end ones (--trace 0) or the per-layer ones from the
traced worker (--trace 1).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BLAS_THREADS, WORKLOADS, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 4
BUDGET_S = 170.0  # every process of the run ends within this


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(argv: list[str], deadline: float) -> float:
    """Run one worker to completion; returns the monotonic time it was started."""
    started = time.monotonic()
    subprocess.run([sys.executable, str(BENCH / "worker.py"), *argv],
                   env=_worker_env(), stdin=subprocess.DEVNULL, check=True,
                   timeout=max(1.0, deadline - started))
    return started


def run_workload(w, args) -> int:
    deadline = time.monotonic() + BUDGET_S
    out = BENCH / "_out" / w.name
    shutil.rmtree(out, ignore_errors=True)
    write_inputs(w, args.seed, out)
    base = ["--workload", w.name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out)]

    try:
        started = _spawn(base, deadline)
        res = json.loads((out / "worker.json").read_text())
        setups = [res["ready"] - started]
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            started = _spawn(base + ["--setup-only"], deadline)
            setups.append(json.loads((out / "setup.json").read_text())["ready"] - started)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 1

    sys.path.insert(0, str(ROOT / "src"))
    from checks import check
    problems = check(w, args.seed, out)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    run_s = statistics.median(res["rounds"])
    if args.trace:
        metrics = res["layers"]
        print(f"traced run_s {run_s:.6g} s (tracing on)")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{w.name} seed={args.seed}: {len(res['rounds'])} rounds, "
          f"{res['attempted']} operations, {res['failed']} failed, "
          f"checks {'passed' if not problems else 'FAILED'}")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="one workload (default: each in turn)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "ridgecomb" / "__init__.py").is_file():
        print(f"no ridgecomb package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        rc = run_workload(WORKLOADS[name], args)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
