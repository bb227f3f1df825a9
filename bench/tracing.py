"""Per-layer spans for the traced benchmark run.

`Tracer.install` wraps the public functions each layer module exposes to the
one above it, as bound in the calling module (the CLI calls
`cli.build_from_config`, the builders call `construct.allocate`, and so on),
so every call made during a round records a span: name, start, end, the id
of the span that caused it, the thread, and counts taken at the boundary.
Spans stay in memory; `metrics` reduces each round to the per-layer metrics
and takes their median over rounds; `write` dumps round 0's spans.

The layers are the modules `targets`, `quadrature`, `spectral`, `construct`,
`core`, `metrics` and `cli`.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import pathlib
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

import ridgecomb.cli as cli
from ridgecomb import construct, core, metrics, spectral

# metric name -> unit, in the order they are reported
LAYER_METRICS = {
    "targets.resolve_s": "s",
    "quadrature.rule_s": "s",
    "spectral.draw_s": "s",
    "construct.partition_s": "s",
    "construct.cells": "count",
    "construct.cells_occupied": "count",
    "construct.mass_s": "s",
    "construct.mass_draws": "count",
    "construct.allocate_s": "s",
    "construct.draw_s": "s",
    "construct.build_iid_s": "s",
    "construct.sparsify_s": "s",
    "construct.terms": "count",
    "core.eval_quad_s": "s",
    "core.eval_grid_s": "s",
    "core.eval_bytes": "B",
    "core.directions": "count",
    "core.json_write_s": "s",
    "core.json_read_s": "s",
    "metrics.l2_s": "s",
    "metrics.linf_s": "s",
    "metrics.refine_s": "s",
    "cli.cell_s_p50": "s",
    "cli.cells": "count",
    "cli.write_s": "s",
}


def _dur(span) -> float:
    return span["end"] - span["start"]


def _distinct_directions(comb) -> int:
    if not comb.terms:
        return 0
    return int(np.unique(np.stack([atom.a for _, atom in comb.terms]), axis=0).shape[0])


def _mass_draws(args, kwargs, plan) -> dict:
    # estimate_masses(plan, rep, seed=None, n=None): its default draw count
    n = kwargs.get("n", args[3] if len(args) > 3 else None)
    return {"draws": max(10**4, 100 * args[0].M) if n is None else int(n)}


class Tracer:
    def __init__(self, workload, rep):
        self.workload = workload
        self.rep = rep  # representation used by the spectral draw probe
        self.spans: list[dict] = []
        self.round = 0
        self._ids = itertools.count()
        self._local = threading.local()

    # --- recording ---

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        rec = {"name": name, "id": next(self._ids),
               "parent": stack[-1]["id"] if stack else None,
               "anc": {s["name"]: s["id"] for s in stack},
               "thread": threading.get_ident(), "round": self.round}
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        fn = getattr(owner, attr)
        tracer = self

        def wrapped(*args, **kwargs):
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
            if note is not None:
                rec.update(note(args, kwargs, result))
            return result

        setattr(owner, attr, wrapped)

    def install(self) -> None:
        w = self.wrap
        w(cli, "resolve_target", "targets.resolve")
        w(metrics, "uniform_cube_rule", "quadrature.rule")
        w(spectral.TargetFunction, "evaluate_batch", "spectral.target_eval")
        w(construct, "partition_parameters", "construct.partition",
          lambda a, k, r: {"cells": r.M})
        w(construct, "estimate_masses", "construct.mass", _mass_draws)
        w(construct, "exact_sine_masses", "construct.mass", lambda a, k, r: {"draws": 0})
        w(construct, "allocate", "construct.allocate", lambda a, k, r: {"occupied": r.M})
        w(construct, "build_iid", "construct.build_iid")
        w(construct, "build_stratified", "construct.build_stratified")
        w(construct, "sparsify", "construct.sparsify")
        w(cli, "build_from_config", "construct.build",
          lambda a, k, r: {"terms": r.term_count, "directions": _distinct_directions(r)})
        w(core.RidgeCombination, "evaluate_batch", "core.eval",
          lambda a, k, r: {"bytes": len(a[1]) * a[0].term_count * 8})
        w(core.RidgeCombination, "save", "core.json_write")
        w(metrics, "l2_error", "metrics.l2")
        w(metrics, "linf_error", "metrics.linf")
        w(cli, "measure_report", "metrics.report")
        w(cli, "cmd_build", "cli.command")
        w(cli, "cmd_rate_sweep", "cli.command")
        w(pathlib.Path, "write_text", "cli.write")

    def end_round(self, out_dirs: list[pathlib.Path]) -> None:
        """Probes outside the timed round: an atom draw at the largest m, and
        reading back every combination the round wrote."""
        with self.span("spectral.draw"):
            spectral.sample_atom_arrays(self.rep, max(self.workload.ms), seed=self.round)
        for path in out_dirs:
            if (path / "combination.json").is_file():
                with self.span("core.json_read"):
                    core.RidgeCombination.load(path / "combination.json")

    # --- reduction ---

    def _round_metrics(self, spans: list[dict]) -> dict:
        by = defaultdict(list)
        for s in spans:
            by[s["name"]].append(s)

        def total(name):
            return sum(_dur(s) for s in by[name])

        def count(name, key):
            return sum(s[key] for s in by[name])

        stage_ids = defaultdict(float)  # build_stratified id -> time in its public stages
        for name in ("construct.partition", "construct.mass", "construct.allocate"):
            for s in by[name]:
                stage_ids[s["parent"]] += _dur(s)
        draw_s = sum(_dur(s) - stage_ids[s["id"]] for s in by["construct.build_stratified"])

        # a sup-norm grid pass is the first target and combination evaluation
        # inside each linf_error call; the rest of the call is refinement
        grid = {}
        for s in sorted(by["core.eval"] + by["spectral.target_eval"], key=lambda s: s["start"]):
            linf = s["anc"].get("metrics.linf")
            if linf is not None:
                grid.setdefault((linf, s["name"]), s)
        grid_core = sum(_dur(s) for (_, name), s in grid.items() if name == "core.eval")
        grid_all = sum(_dur(s) for s in grid.values())

        cells = []
        per_thread = defaultdict(list)
        for s in by["construct.build"] + by["metrics.report"]:
            per_thread[s["thread"]].append(s)
        for seq in per_thread.values():
            seq.sort(key=lambda s: s["start"])
            for b, r in zip(seq, seq[1:]):
                if b["name"] == "construct.build" and r["name"] == "metrics.report":
                    cells.append(r["end"] - b["start"])

        return {
            "spectral.draw_s": total("spectral.draw"),
            "construct.partition_s": total("construct.partition"),
            "construct.cells": count("construct.partition", "cells"),
            "construct.cells_occupied": count("construct.allocate", "occupied"),
            "construct.mass_s": total("construct.mass"),
            "construct.mass_draws": count("construct.mass", "draws"),
            "construct.allocate_s": total("construct.allocate"),
            "construct.draw_s": draw_s,
            "construct.build_iid_s": total("construct.build_iid"),
            "construct.sparsify_s": total("construct.sparsify"),
            "construct.terms": count("construct.build", "terms"),
            "core.eval_quad_s": sum(_dur(s) for s in by["core.eval"]
                                    if "metrics.l2" in s["anc"]),
            "core.eval_grid_s": grid_core,
            "core.eval_bytes": max((s["bytes"] for s in by["core.eval"]), default=0),
            "core.directions": max((s["directions"] for s in by["construct.build"]),
                                   default=0),
            "core.json_write_s": total("core.json_write"),
            "core.json_read_s": total("core.json_read"),
            "metrics.l2_s": total("metrics.l2"),
            "metrics.linf_s": total("metrics.linf"),
            "metrics.refine_s": total("metrics.linf") - grid_all,
            "cli.cell_s_p50": statistics.median(cells) if cells else 0.0,
            "cli.cells": len(cells),
            "cli.write_s": sum(_dur(s) for s in by["cli.write"]
                               if "core.json_write" not in s["anc"]),
        }

    def metrics(self, resolve_s: float) -> dict:
        """Per-layer metrics: the median over rounds of each round's value."""
        rounds = defaultdict(list)
        for s in self.spans:
            rounds[s["round"]].append(s)
        per_round = [self._round_metrics(rounds[k]) for k in sorted(rounds)]
        out = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        out["targets.resolve_s"] = resolve_s
        # uniform_cube_rule is cached: only its first call in the process computes
        first_rule = min((s for s in self.spans if s["name"] == "quadrature.rule"),
                         key=lambda s: s["start"], default=None)
        out["quadrature.rule_s"] = _dur(first_rule) if first_rule else 0.0
        return {name: {"value": out[name], "unit": unit} for name, unit in LAYER_METRICS.items()}

    def write(self, path: pathlib.Path) -> None:
        keep = [{k: v for k, v in s.items() if k != "anc"}
                for s in self.spans if s["round"] == 0]
        keep.sort(key=lambda s: s["start"])
        with open(path, "w") as fh:
            json.dump({"spans": keep}, fh)
