"""Batch command line: build approximants, sweep rates, verify claims.

Subcommands:

- build       one combination from a target spec, plus its error report
- rate-sweep  a (method, m, seed) grid with per-method rate fits
- verify      fixed-tolerance check suites (identities, sine-family, packing,
              sampler-fit) with a JSON report
- catalog     list the recognized target specs

Configuration comes from an optional JSON file plus flags; flags win.  A
config file may set only the keys that its command has flags for, and every
setting is checked before any target is resolved or built.  The RIDGE_SEED
environment variable overrides the default seed but never an explicit one.
Every output is a deterministic function of the resolved configuration:
rerunning a command reproduces its files byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import select
import signal
import sys
import threading
from pathlib import Path

import numpy as np

from . import __version__
from . import rng as _rng
from .construct import build_from_config, stratified_epsilon, stratified_geometry
from .errors import BuilderError, UsageError
from .metrics import (
    CSV_HEADER,
    check_grid_sizes,
    fit_rate,
    l2_error,
    lower_bound_floor,
    measure_report,
)
from .packing import (
    BINARY_ENTROPY_QUARTER,
    binary_entropy,
    family_gram,
    family_scale_epsilon,
    packing_lower_curve,
    select_packing,
    sine_family,
)
from .quadrature import panel_rule
from .spectral import verify_ramp_identity, verify_square_identity
from .targets import catalog_entries, resolve_target

MAX_D = 4  # the largest d the error metrics measure; --force does not lift it
DESK_MAX_M = 4096
DESK_MAX_SEEDS = 50
DESK_MAX_WORKERS = 32
SEED_MAX = 2**64 - 1
METHODS = ("iid", "stratified", "sparse")
MODES = ("signed", "fractional")

SWEEP_RESULTS_HEADER = CSV_HEADER + ",status,floor"


# --- configuration plumbing ---

def _merged(args: argparse.Namespace) -> dict:
    """The config file overlaid by the flags given; its keys are the command's flags."""
    keys = set(vars(args)) - {"command", "config", "func"}
    cfg = {}
    if args.config is not None:
        try:
            cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise UsageError(f"could not read config file {args.config}: {exc.strerror}") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError("config file must hold a JSON object")
        if set(cfg) - keys:
            raise UsageError(f"unknown config keys for this command: {sorted(set(cfg) - keys)}")
    for key in keys:
        val = getattr(args, key)
        if val is not None and val is not False:
            cfg[key] = val
    return cfg


def _as_int(value, key: str, lo: int, hi: int | None = None) -> int:
    """An integer setting in [lo, hi]; a float counts only when it is integral."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            n = int(value)
        except ValueError:
            pass
        else:
            if n >= lo and (hi is None or n <= hi):
                return n
    bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise UsageError(f"{key} must be an integer {bounds}, got {value!r}")


def _int_list(value, key: str, lo: int, hi: int | None = None) -> list[int]:
    """A JSON list or a comma string of integers; any other value is a one-item list."""
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip()]
    elif not isinstance(value, list):
        value = [value]
    return [_as_int(v, key, lo, hi) for v in value]


def _choice(value, key: str, options: tuple) -> str:
    if value not in options:
        raise UsageError(f"{key} must be one of {', '.join(options)}, got {value!r}")
    return value


def _env_seed(count: int = 1) -> int:
    """The first of `count` default seeds: RIDGE_SEED when set, else 0.  Call it
    only when no seed is given, so a bad RIDGE_SEED cannot fail a run that names one."""
    return _as_int(os.environ.get("RIDGE_SEED", 0), "RIDGE_SEED", 0, SEED_MAX + 1 - count)


def _out_dir(cfg: dict) -> Path:
    out = cfg.get("out", "ridgecomb_out")
    if not isinstance(out, str):
        raise UsageError(f"out must be a directory path, got {out!r}")
    out = Path(out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise UsageError(f"out must be a directory path, but {existing} is a file")
    return out


def _shared_settings(cfg: dict, command: str) -> tuple[dict, dict, bool]:
    """Check the settings that build and rate-sweep share.

    Returns the resolved config that the manifest records, the grid sizes
    that measure_report takes (recorded too, when given), and whether the
    desk guards are lifted.
    """
    target = cfg.get("target")
    if not isinstance(target, str):
        raise UsageError(f"{command} needs a target spec (--target or config), got {target!r}")
    epsilon = cfg.get("epsilon")
    try:
        eps = "auto" if epsilon in (None, "auto") else float(epsilon)
    except (TypeError, ValueError):
        eps = math.nan
    if eps != "auto" and (isinstance(epsilon, bool) or not 0 < eps < math.inf):
        raise UsageError(f"epsilon must be a positive number or 'auto', got {epsilon!r}")
    m0 = cfg.get("m0")
    m0 = "auto" if m0 is None or m0 == "auto" else _as_int(m0, "m0", 1)
    force = cfg.get("force", False)
    if not isinstance(force, bool):
        raise UsageError(f"force must be true or false, got {force!r}")
    grid_sizes = {k: _as_int(cfg[k], k, 2) for k in ("l2_nodes", "linf_grid")
                  if cfg.get(k) is not None}
    resolved = {
        "command": command, "target": target, "s": _as_int(cfg.get("s", 2), "s", 2, 3),
        "mode": _choice(cfg.get("mode", "fractional"), "mode", MODES),
        "epsilon": eps, "m0": m0, "out": str(_out_dir(cfg)), **grid_sizes,
    }
    return resolved, grid_sizes, force


def _apply_guards(ms: list[int], seeds, force: bool, workers: int = 1):
    if not force and max(ms) > DESK_MAX_M:
        raise UsageError(f"m > {DESK_MAX_M} exceeds the desk guard; pass --force")
    if not force and len(seeds) > DESK_MAX_SEEDS:
        raise UsageError(f"more than {DESK_MAX_SEEDS} seeds exceeds the desk guard; pass --force")
    if not force and workers > DESK_MAX_WORKERS:
        raise UsageError(f"more than {DESK_MAX_WORKERS} workers exceeds the desk guard; "
                         f"pass --force")


def _resolve(resolved: dict, seed: int, grid_sizes: dict):
    target, rep = resolve_target(resolved["target"], resolved["s"], seed=seed)
    if target.d > MAX_D:
        raise UsageError(f"d={target.d} exceeds d <= {MAX_D}, the most the error metrics measure")
    check_grid_sizes(target.d, **grid_sizes)
    return target, rep


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_manifest(out: Path, cfg: dict, outputs: list[str]) -> None:
    _write_json(out / "manifest.json", {
        "tool": "ridgecomb",
        "version": __version__,
        "config_hash": _config_hash(cfg),
        "config": cfg,
        "outputs": sorted(outputs),
    })


def _builder_config(resolved: dict, method: str, m: int, seed: int) -> dict:
    # build_from_config ignores the keys a method does not use and owns the "auto" rules
    return {"method": method, "m": m, "seed": seed, "mode": resolved["mode"],
            "epsilon": resolved["epsilon"], "m0": resolved["m0"]}


# --- build ---

def cmd_build(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    resolved, grid_sizes, force = _shared_settings(cfg, "build")
    if "m" not in cfg:
        raise UsageError("build needs a term budget m (--m or config)")
    m = _as_int(cfg["m"], "m", 1)
    seed = _as_int(cfg["seed"], "seed", 0, SEED_MAX) if "seed" in cfg else _env_seed()
    method = _choice(cfg.get("method", "iid"), "method", METHODS)
    _apply_guards([m], [seed], force)
    resolved.update(method=method, m=m, seed=seed)

    target, rep = _resolve(resolved, seed, grid_sizes)
    comb = build_from_config(rep, target, _builder_config(resolved, method, m, seed))
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    comb.save(out / "combination.json")
    report = measure_report(target, comb, m, method, seed, **grid_sizes)
    (out / "report.csv").write_text(CSV_HEADER + "\n" + report.csv_row() + "\n")
    _write_manifest(out, resolved, ["combination.json", "report.csv", "manifest.json"])
    print(f"built {method} m={m} seed={seed}: l2={report.l2:.6e} linf={report.linf:.6e} "
          f"terms={report.terms} -> {out}")
    return 0


# --- rate sweep ---

def _sweep_cell(context: tuple, cell: tuple[str, int, int]):
    """One (method, m, seed) cell of the sweep whose (rep, target, resolved,
    grid_sizes) is context: its report, or the message of the BuilderError
    that stopped its build."""
    method, m, seed = cell
    rep, target, resolved, grid_sizes = context
    try:
        comb = build_from_config(rep, target, _builder_config(resolved, method, m, seed))
    except BuilderError as exc:
        return str(exc)
    return measure_report(target, comb, m, method, seed, **grid_sizes)


def _run_share(context: tuple, cells: list, first: int, step: int, r: int, w: int,
               owner: int) -> None:
    """In a forked worker: run cells first, first + step, ... and write one
    pickle to the pipe end w, (None, reports, "") or the _pickled_failure of
    the first cell that raised; then end the process with exit 0, never
    returning.  A worker whose sweep process `owner` is gone (killed where it
    could not clean up) ends after its current cell."""
    try:
        os.close(r)
        reports, index = [], first
        try:
            for index in range(first, len(cells), step):
                if os.getppid() != owner:
                    os._exit(1)
                reports.append(_sweep_cell(context, cells[index]))
            data = pickle.dumps((None, reports, ""))
        except BaseException as exc:  # raised again in the sweep process
            data = _pickled_failure(index, exc)
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
        os._exit(0)
    finally:
        os._exit(1)


def _pickled_failure(index: int, exc: BaseException) -> bytes:
    """(index, exc, exc's traceback as text), pickled.  An exception that
    would not come back out of the pickle (one holding something unpicklable,
    or whose __init__ wants other arguments than its args) is sent as a
    RuntimeError that names it."""
    import traceback

    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        data = pickle.dumps((index, exc, text))
        pickle.loads(data)
        return data
    except Exception as err:
        stand_in = RuntimeError(f"{exc!r} in a sweep worker, which could not send it: {err!r}")
        return pickle.dumps((index, stand_in, text))


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a sweep worker, as text; set as
    that exception's __cause__ when it is raised again in the sweep process."""


def _run_forked(context: tuple, cells: list, n: int, reports: list) -> None:
    """Cells 1.. in n forked workers, worker w taking cells 1 + w, 1 + w + n,
    ...; their reports go into `reports` by cell index.  Each worker is
    reaped when its pipe ends, so one that died stops the sweep at once.  On
    an exception, or on SIGTERM or SIGHUP, here every live worker is killed
    and reaped."""
    owner = os.getpid()

    def stop(signum, _frame):
        if os.getpid() != owner:  # in a worker, which inherits the handler
            os._exit(128 + signum)
        raise SystemExit(128 + signum)

    caught = []
    if threading.current_thread() is threading.main_thread():
        caught = [sig for sig in (signal.SIGTERM, signal.SIGHUP)
                  if signal.getsignal(sig) is signal.SIG_DFL]
    pids, fds, reaped = [], [], set()
    try:
        for sig in caught:
            signal.signal(sig, stop)
        for w in range(n):
            r, wfd = os.pipe()
            fds += [r, wfd]
            pid = os.fork()
            if pid == 0:
                _run_share(context, cells, 1 + w, n, r, wfd, owner)
            pids.append(pid)
            os.close(fds.pop())  # the write end, before the next fork
        open_ends = {r: w for w, r in enumerate(fds)}
        chunks = [[] for _ in pids]
        poller = select.poll()
        for r in fds:
            poller.register(r, select.POLLIN)
        failures = []
        while open_ends:
            for r, _ in poller.poll():
                w = open_ends[r]
                chunk = os.read(r, 1 << 16)
                if chunk:
                    chunks[w].append(chunk)
                    continue
                poller.unregister(r)
                del open_ends[r]
                code = os.waitstatus_to_exitcode(os.waitpid(pids[w], 0)[1])
                reaped.add(pids[w])
                if code != 0:  # a worker exits 0 only after its whole result
                    how = f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit {code}"
                    raise BuilderError(f"a sweep worker process ended ({how}) "
                                       f"before it sent its reports")
                index, result, text = pickle.loads(b"".join(chunks[w]))
                if index is None:
                    reports[1 + w::n] = result
                else:
                    failures.append((index, result, text))
        if failures:
            _, exc, text = min(failures, key=lambda f: f[0])
            exc.__cause__ = _WorkerTraceback(text)
            raise exc
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            if pid not in reaped:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):  # reaped elsewhere
                    pass
        for sig in caught:
            signal.signal(sig, signal.SIG_DFL)


def _run_cells(cells: list, workers: int, context: tuple) -> list:
    """`_sweep_cell` of every cell, in order.

    The first cell runs in this process, so the target's kept residual on
    the fixed point sets and the cached rules exist before n = min(workers,
    cells - 1) worker processes are forked for the rest.  Forked workers
    inherit those arrays instead of computing them again.  Worker w runs
    cells 1 + w, 1 + w + n, ..., so every worker gets the same mix of methods
    and m, and sends its reports back through its own pipe; this process
    runs no cell after the first.  An exception in a cell is raised here,
    the earliest cell's when several workers fail, as with one worker.  A
    worker that dies before it sends its reports (say, to the OOM killer)
    ends the sweep with a BuilderError.  Every worker is reaped before the
    call returns or raises.  One worker, or a platform without fork, runs
    every cell here.
    """
    if workers == 1 or getattr(os, "fork", None) is None:
        return [_sweep_cell(context, cell) for cell in cells]
    reports = [_sweep_cell(context, cells[0])] + [None] * (len(cells) - 1)
    _run_forked(context, cells, min(workers, len(cells) - 1), reports)
    return reports


def cmd_rate_sweep(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    resolved, grid_sizes, force = _shared_settings(cfg, "rate-sweep")
    methods = cfg.get("methods", ["iid", "stratified"])
    if isinstance(methods, str):
        methods = [t.strip() for t in methods.split(",") if t.strip()]
    if not isinstance(methods, list) or not methods:
        raise UsageError(f"methods must be a list or a comma string, got {cfg['methods']!r}")
    methods = [_choice(method, "methods", METHODS) for method in methods]
    ms = sorted(_int_list(cfg.get("m", [16, 64, 256, 1024]), "m", 2))
    if len(ms) < 3:
        raise UsageError(f"rate-sweep needs at least 3 m values, got {ms}")
    if len(set(ms)) != len(ms):
        raise UsageError(f"m values must be strictly increasing, got {ms}")
    seeds = cfg.get("seeds")
    if seeds is None:
        base = _env_seed(20)
        seeds = range(base, base + 20)
    elif isinstance(seeds, list) or isinstance(seeds, str) and "," in seeds:
        seeds = _int_list(seeds, "seeds", 0, SEED_MAX)
    else:  # a bare integer is a count: seeds 0..n-1
        seeds = range(_as_int(seeds, "seeds", 0, sys.maxsize))
    if len(seeds) < 10:
        raise UsageError(f"rate-sweep needs at least 10 seeds, got {len(seeds)}")
    workers = _as_int(cfg.get("workers", min(4, os.cpu_count() or 1)), "workers", 1)
    _apply_guards(ms, seeds, force, workers)
    seeds = list(seeds)
    resolved.update(methods=methods, m=ms, seeds=seeds, workers=workers)

    target, rep = _resolve(resolved, 0, grid_sizes)
    s = resolved["s"]
    if "stratified" in methods and rep.v > 0:  # the smallest epsilon has the most cells
        stratified_geometry(rep, stratified_epsilon(resolved["epsilon"], ms[-1], rep.d,
                                                    resolved["mode"]))

    cells = [(method, m, seed) for method in methods for m in ms for seed in seeds]
    reports = _run_cells(cells, workers, (rep, target, resolved, grid_sizes))
    rows = []
    for (method, m, seed), rpt in zip(cells, reports):
        floor = lower_bound_floor(m, target.d, s, 1.0)
        if isinstance(rpt, str):
            rows.append((m, method, seed, None, "builder-error", floor, rpt))
        else:
            rows.append((m, method, seed, rpt, "ok", floor, None))
    rows.sort(key=lambda r: (r[1], r[0], r[2]))

    lines = [SWEEP_RESULTS_HEADER]
    for m, method, seed, rpt, status, floor, message in rows:
        if rpt is None:
            print(f"{status} m={m} method={method} seed={seed}: {message}", file=sys.stderr)
            lines.append(f"{m},{method},{seed},,,0,0,{status},{floor:.12e}")
        else:
            lines.append(rpt.csv_row() + f",{status},{floor:.12e}")
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text("\n".join(lines) + "\n")

    fits: dict = {}
    for method in methods:
        fits[method] = {}
        for norm in ("l2", "linf"):
            pts = []
            for m in ms:
                vals = [getattr(r[3], norm) for r in rows
                        if r[1] == method and r[0] == m and r[3] is not None]
                if vals:
                    pts.append((m, float(np.mean(vals))))
            try:
                fits[method][norm] = fit_rate(pts).to_json_dict()
            except UsageError as exc:
                fits[method][norm] = {"error": str(exc)}
    _write_json(out / "fits.json", fits)
    _write_manifest(out, resolved, ["results.csv", "fits.json", "manifest.json"])

    n_ok = sum(1 for r in rows if r[4] == "ok")
    for method in methods:
        slope = fits[method]["l2"].get("slope")
        slope_text = "n/a" if slope is None else f"{slope:.3f}"
        print(f"{method}: l2 slope {slope_text} over m={ms}")
    print(f"sweep wrote {len(rows)} rows ({n_ok} ok) -> {out}")
    return 0 if n_ok > 0 else 3


# --- verify suites ---

def _check(name: str, value: float, tolerance, ok: bool) -> dict:
    return {"check": name, "value": value, "tolerance": tolerance, "pass": bool(ok)}


def _verify_identities(seed: int) -> list[dict]:
    gen = _rng.stream(seed, _rng.PROBE)
    worst_ramp = 0.0
    for _ in range(100):
        c = float(gen.uniform(0.05, 4.0))
        z = c * float(gen.uniform(-1.0, 1.0))
        worst_ramp = max(worst_ramp, verify_ramp_identity(z, c))
    worst_sq = 0.0
    for i in range(100):
        d = 1 + i % 3
        direction = gen.standard_normal(d)
        direction /= np.abs(direction).sum()
        omega = direction * gen.uniform(0.5, 4.0 * np.pi)
        x = gen.uniform(-1.0, 1.0, size=d)
        worst_sq = max(worst_sq, verify_square_identity(x, omega))
    return [
        _check("ramp-identity-max-residual", worst_ramp, 1e-8, worst_ramp <= 1e-8),
        _check("square-identity-max-residual", worst_sq, 1e-8, worst_sq <= 1e-8),
    ]


def _verify_sine_family(seed: int) -> list[dict]:
    checks = []
    worst_off = 0.0
    worst_norm = 0.0
    for R, d in [(4, 1), (2, 2), (3, 2), (4, 2)]:
        fam = sine_family(R, d)
        G = family_gram(fam)
        off = G - np.diag(np.diag(G))
        worst_off = max(worst_off, float(np.abs(off).max()))
        worst_norm = max(worst_norm, float(np.abs(np.sqrt(np.diag(G)) - fam.norms).max()))
    checks.append(_check("gram-offdiagonal-max", worst_off, 1e-8, worst_off <= 1e-8))
    checks.append(_check("norm-formula-max-deviation", worst_norm, 1e-8, worst_norm <= 1e-8))
    worst_mass = 0.0
    for K in (1, 2, 3, 4):
        pts, w = panel_rule(np.linspace(0.0, 1.0, K + 1), 64)
        val = float(np.sum(w * np.abs(np.sin(np.pi * K * pts))))
        worst_mass = max(worst_mass, abs(val - 2.0 / np.pi))
    checks.append(_check("abs-sine-mass-2-over-pi", worst_mass, 1e-10, worst_mass <= 1e-10))
    return checks


def _verify_packing(seed: int) -> list[dict]:
    fam = sine_family(4, 2)
    ps = select_packing(fam, 4, seed=seed)
    checks = [
        _check("packing-size-at-16", ps.size, ">= 4", ps.size >= 4 and not ps.shortfall),
        _check("packing-min-distance", ps.min_distance, f">= {ps.separation_bound}",
               ps.min_distance >= ps.separation_bound),
    ]
    eps = family_scale_epsilon(4, 2)
    lhs = 2.0 ** ((1.0 - BINARY_ENTROPY_QUARTER) * fam.size - 1.0)
    rhs = math.exp(packing_lower_curve(eps, 2))
    checks.append(_check("count-meets-curve", lhs - rhs, ">= -1e-9", lhs - rhs >= -1e-9))
    ent_dev = abs(binary_entropy(0.25) - BINARY_ENTROPY_QUARTER)
    checks.append(_check("entropy-constant", ent_dev, 1e-15, ent_dev <= 1e-15))
    grow = packing_lower_curve(eps / 2.0, 2) > packing_lower_curve(eps, 2)
    checks.append(_check("curve-grows-as-eps-shrinks", float(grow), "True", grow))
    return checks


def _verify_sampler_fit(seed: int) -> list[dict]:
    target, rep = resolve_target("sine-ridge:1", 2, seed=seed)
    ms = [16, 64, 256, 1024]
    means = []
    envelope_ok = True
    for m in ms:
        errs = []
        for sd in range(20):
            comb = build_from_config(rep, target,
                                     {"method": "iid", "m": m, "seed": seed + sd})
            errs.append(l2_error(target, comb))
        mean = float(np.mean(errs))
        means.append((m, mean))
        envelope_ok &= mean <= 3.0 * rep.v / math.sqrt(m)
    fit = fit_rate(means)
    slope_ok = -0.65 <= fit.slope <= -0.35
    return [
        _check("iid-l2-slope", fit.slope, "[-0.65, -0.35]", slope_ok),
        _check("iid-l2-mc-envelope", float(max(e / (3.0 * rep.v / math.sqrt(m))
                                               for m, e in means)),
               "<= 1", envelope_ok),
    ]


_VERIFY_SUITES = {
    "identities": _verify_identities,
    "sine-family": _verify_sine_family,
    "packing": _verify_packing,
    "sampler-fit": _verify_sampler_fit,
}


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    which = args.which
    seed = _as_int(cfg["seed"], "seed", 0, SEED_MAX) if "seed" in cfg else _env_seed()
    out = _out_dir(cfg)
    checks = _VERIFY_SUITES[which](seed)
    all_pass = all(c["pass"] for c in checks)
    report = {"which": which, "seed": seed, "checks": checks, "pass": all_pass}
    out.mkdir(parents=True, exist_ok=True)
    name = f"verify_{which.replace('-', '_')}.json"
    _write_json(out / name, report)
    _write_manifest(out, {"command": "verify", "which": which, "seed": seed,
                          "out": str(out)}, [name, "manifest.json"])
    for c in checks:
        print(f"{'PASS' if c['pass'] else 'FAIL'} {c['check']}: "
              f"value={c['value']} tolerance={c['tolerance']}")
    return 0 if all_pass else 1


def cmd_catalog(_args: argparse.Namespace) -> int:
    for entry in catalog_entries():
        print(f"{entry['name']}: {entry['description']} (example: {entry['example']})")
    return 0


# --- argument parsing ---

def _add_common_build_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--target", help="target spec, e.g. sine-ridge:1,1")
    p.add_argument("--s", type=int, choices=(2, 3), help="activation order (default 2)")
    p.add_argument("--epsilon", help="cell diameter for stratified, or 'auto'")
    p.add_argument("--mode", choices=MODES,
                   help="stratified allocation mode (default fractional)")
    p.add_argument("--m0", help="inner sparsity budget for sparse, or 'auto'")
    p.add_argument("--out", help="output directory (default ridgecomb_out)")
    p.add_argument("--l2-nodes", type=int, dest="l2_nodes",
                   help="quadrature nodes per axis for the L2 norm")
    p.add_argument("--linf-grid", type=int, dest="linf_grid",
                   help="grid resolution per axis for the sup norm")
    p.add_argument("--force", action="store_true",
                   help="lift the desk-scale guards (m, seed count, worker count)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridgecomb",
        description="Build and evaluate sparse ridge-function approximants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("build", help="build one combination and report its errors")
    _add_common_build_flags(pb)
    pb.add_argument("--method", choices=METHODS)
    pb.add_argument("--m", type=int, help="term budget")
    pb.add_argument("--seed", type=int, help="build seed (default RIDGE_SEED or 0)")
    pb.set_defaults(func=cmd_build)

    ps = sub.add_parser("rate-sweep", help="run a (method, m, seed) grid and fit rates")
    _add_common_build_flags(ps)
    ps.add_argument("--methods", help="comma list from iid,stratified,sparse")
    ps.add_argument("--m", help="comma list of term budgets (at least 3)")
    ps.add_argument("--seeds", help="comma list of seeds, or a bare count")
    ps.add_argument("--workers", type=int,
                    help="cells run at once, in worker processes forked after the "
                         "first cell (default: 4, or the CPU count if lower)")
    ps.set_defaults(func=cmd_rate_sweep)

    pv = sub.add_parser("verify", help="run a fixed-tolerance check suite")
    pv.add_argument("which", choices=sorted(_VERIFY_SUITES))
    pv.add_argument("--config", help="JSON config file; flags override its keys")
    pv.add_argument("--out", help="output directory (default ridgecomb_out)")
    pv.add_argument("--seed", type=int, help="suite seed (default RIDGE_SEED or 0)")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("catalog", help="list recognized target specs")
    pc.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BuilderError as exc:
        print(f"builder failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
