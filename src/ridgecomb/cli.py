"""Batch command line: build approximants, sweep rates, verify claims.

Subcommands:

- build       one combination from a target spec, plus its error report
- rate-sweep  a (method, m, seed) grid with per-method rate fits
- verify      fixed-tolerance check suites (identities, sine-family, packing,
              sampler-fit) with a JSON report
- catalog     list the recognized target specs

Configuration comes from an optional JSON file plus flags; flags win.  The
RIDGE_SEED environment variable overrides the default seed but never an
explicit one.  Every output is a deterministic function of the resolved
configuration: rerunning a command reproduces its files byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from . import rng as _rng
from .construct import build_from_config
from .errors import BuilderError, UsageError
from .metrics import (
    CSV_HEADER,
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

DESK_MAX_D = 4
DESK_MAX_M = 4096
DESK_MAX_SEEDS = 50

SWEEP_RESULTS_HEADER = CSV_HEADER + ",status,floor"

_CONFIG_KEYS = {
    "target", "s", "method", "methods", "m", "seed", "seeds", "epsilon",
    "mode", "m0", "out", "l2_nodes", "linf_grid", "workers", "force", "which",
}


# --- configuration plumbing ---

def _env_seed() -> int | None:
    raw = os.environ.get("RIDGE_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"RIDGE_SEED must be an integer, got {raw!r}") from exc


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _as_int(value, key: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{key} must be an integer, got {value!r}") from exc


def _parse_int_list(value, what: str) -> list[int]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        try:
            return [int(p) for p in parts]
        except ValueError as exc:
            raise UsageError(f"could not parse {what} list from {value!r}") from exc
    if isinstance(value, (list, tuple)):
        return [_as_int(v, what) for v in value]
    if isinstance(value, int):
        return [value]
    raise UsageError(f"{what} must be an integer list, got {value!r}")


def _parse_seeds(value) -> list[int]:
    # a bare integer means a count (seeds 0..n-1); a comma list is explicit
    if isinstance(value, int):
        return list(range(value))
    if isinstance(value, str) and "," not in value:
        return list(range(_as_int(value, "seeds")))
    return _parse_int_list(value, "seeds")


def _parse_epsilon(value):
    if value is None or value == "auto":
        return "auto"
    try:
        eps = float(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"epsilon must be a number or 'auto', got {value!r}") from exc
    if not eps > 0:
        raise UsageError(f"epsilon must be positive, got {eps}")
    return eps


def _parse_m0(value):
    if value is None or value == "auto":
        return "auto"
    m0 = _as_int(value, "m0")
    if m0 < 1:
        raise UsageError(f"m0 must be a positive integer, got {value!r}")
    return m0


def _grid_sizes(cfg: dict) -> dict:
    """The l2_nodes and linf_grid arguments of measure_report that the config sets."""
    return {k: _as_int(cfg[k], k) for k in ("l2_nodes", "linf_grid") if cfg.get(k) is not None}


def _merged(args: argparse.Namespace, flag_names: list[str]) -> dict:
    cfg = _load_config_file(getattr(args, "config", None))
    for name in flag_names:
        val = getattr(args, name.replace("-", "_"), None)
        if val is not None and val is not False:
            cfg[name.replace("-", "_")] = val
    return cfg


def _apply_guards(d: int, ms: list[int], seeds: list[int], force: bool):
    if force:
        return
    if d > DESK_MAX_D:
        raise UsageError(f"d={d} exceeds the desk guard d <= {DESK_MAX_D}; pass --force")
    if any(m > DESK_MAX_M for m in ms):
        raise UsageError(f"m > {DESK_MAX_M} exceeds the desk guard; pass --force")
    if len(seeds) > DESK_MAX_SEEDS:
        raise UsageError(f"more than {DESK_MAX_SEEDS} seeds exceeds the desk guard; pass --force")


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


def _builder_config(method: str, m: int, seed: int, mode: str, epsilon, m0) -> dict:
    # "auto" passes through: build_from_config owns both default rules
    bcfg = {"method": method, "m": int(m), "seed": int(seed)}
    if method == "stratified":
        bcfg["mode"] = mode
        bcfg["epsilon"] = epsilon
    elif method == "sparse":
        bcfg["m0"] = m0
    return bcfg


# --- build ---

def cmd_build(args: argparse.Namespace) -> int:
    cfg = _merged(args, ["target", "s", "method", "m", "seed", "epsilon", "mode",
                         "m0", "out", "l2_nodes", "linf_grid", "force"])
    target_spec = cfg.get("target")
    if target_spec is None:
        raise UsageError("build needs a target spec (--target or config)")
    if "m" not in cfg:
        raise UsageError("build needs a term budget m (--m or config)")
    m = _as_int(cfg["m"], "m")
    s = _as_int(cfg.get("s", 2), "s")
    seed = _as_int(cfg["seed"], "seed") if "seed" in cfg else (_env_seed() or 0)
    method = cfg.get("method", "iid")
    mode = cfg.get("mode", "fractional")
    epsilon = _parse_epsilon(cfg.get("epsilon"))
    m0 = _parse_m0(cfg.get("m0"))
    out = Path(cfg.get("out", "ridgecomb_out"))
    grid_sizes = _grid_sizes(cfg)
    force = bool(cfg.get("force", False))

    target, rep = resolve_target(target_spec, s, seed=seed)
    _apply_guards(target.d, [m], [seed], force)
    resolved = {
        "command": "build", "target": target_spec, "s": s, "method": method,
        "m": m, "seed": seed, "mode": mode, "epsilon": epsilon, "m0": m0,
        "out": str(out),
    }
    comb = build_from_config(rep, target, _builder_config(
        method, m, seed, mode, epsilon, m0))
    out.mkdir(parents=True, exist_ok=True)
    comb.save(out / "combination.json")
    report = measure_report(target, comb, m, method, seed, **grid_sizes)
    (out / "report.csv").write_text(CSV_HEADER + "\n" + report.csv_row() + "\n")
    _write_manifest(out, resolved, ["combination.json", "report.csv", "manifest.json"])
    print(f"built {method} m={m} seed={seed}: l2={report.l2:.6e} linf={report.linf:.6e} "
          f"terms={report.terms} -> {out}")
    return 0


# --- rate sweep ---

def cmd_rate_sweep(args: argparse.Namespace) -> int:
    cfg = _merged(args, ["target", "s", "methods", "m", "seeds", "epsilon", "mode",
                         "m0", "out", "workers", "l2_nodes", "linf_grid", "force"])
    target_spec = cfg.get("target")
    if target_spec is None:
        raise UsageError("rate-sweep needs a target spec (--target or config)")
    s = _as_int(cfg.get("s", 2), "s")
    methods = cfg.get("methods", ["iid", "stratified"])
    if isinstance(methods, str):
        methods = [t.strip() for t in methods.split(",") if t.strip()]
    ms = sorted(_parse_int_list(cfg.get("m", [16, 64, 256, 1024]), "m"))
    if len(ms) < 3:
        raise UsageError(f"rate-sweep needs at least 3 m values, got {ms}")
    if len(set(ms)) != len(ms):
        raise UsageError(f"m values must be strictly increasing, got {ms}")
    seeds = _parse_seeds(cfg["seeds"]) if "seeds" in cfg else None
    if seeds is None:
        env = _env_seed()
        seeds = list(range(env, env + 20)) if env is not None else list(range(20))
    if len(seeds) < 10:
        raise UsageError(f"rate-sweep needs at least 10 seeds, got {len(seeds)}")
    mode = cfg.get("mode", "fractional")
    epsilon = _parse_epsilon(cfg.get("epsilon"))
    m0 = _parse_m0(cfg.get("m0"))
    out = Path(cfg.get("out", "ridgecomb_out"))
    workers = _as_int(cfg.get("workers", min(4, os.cpu_count() or 1)), "workers")
    if workers < 1:
        raise UsageError(f"workers must be at least 1, got {workers}")
    grid_sizes = _grid_sizes(cfg)
    force = bool(cfg.get("force", False))

    target, rep = resolve_target(target_spec, s, seed=0)
    _apply_guards(target.d, ms, seeds, force)
    resolved = {
        "command": "rate-sweep", "target": target_spec, "s": s, "methods": methods,
        "m": ms, "seeds": seeds, "mode": mode, "epsilon": epsilon, "m0": m0,
        "out": str(out), "workers": workers,
    }

    def run_cell(method: str, m: int, seed: int):
        floor = lower_bound_floor(m, target.d, s, 1.0)
        try:
            comb = build_from_config(rep, target, _builder_config(
                method, m, seed, mode, epsilon, m0))
            rpt = measure_report(target, comb, m, method, seed, **grid_sizes)
            return (m, method, seed, rpt, "ok", floor, None)
        except BuilderError as exc:
            return (m, method, seed, None, "builder-error", floor, str(exc))

    cells = [(method, m, seed) for method in methods for m in ms for seed in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(lambda c: run_cell(*c), cells))
    rows.sort(key=lambda r: (r[1], r[0], r[2]))

    lines = [SWEEP_RESULTS_HEADER]
    for m, method, seed, rpt, status, floor, message in rows:
        if rpt is None:
            print(f"{status} m={m} method={method} seed={seed}: {message}", file=sys.stderr)
            lines.append(f"{m},{method},{seed},,,0,0,{status},{floor:.12e}")
        else:
            lines.append(rpt.csv_row() + f",{status},{floor:.12e}")
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
    cfg = _merged(args, ["out", "seed"])
    which = args.which
    seed = _as_int(cfg["seed"], "seed") if "seed" in cfg else (_env_seed() or 0)
    out = Path(cfg.get("out", "ridgecomb_out"))
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
    p.add_argument("--mode", choices=("signed", "fractional"),
                   help="stratified allocation mode (default fractional)")
    p.add_argument("--m0", help="inner sparsity budget for sparse, or 'auto'")
    p.add_argument("--out", help="output directory (default ridgecomb_out)")
    p.add_argument("--l2-nodes", type=int, dest="l2_nodes",
                   help="quadrature nodes per axis for the L2 norm")
    p.add_argument("--linf-grid", type=int, dest="linf_grid",
                   help="grid resolution per axis for the sup norm")
    p.add_argument("--force", action="store_true",
                   help="lift the desk-scale guards (d, m, seed count)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridgecomb",
        description="Build and evaluate sparse ridge-function approximants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("build", help="build one combination and report its errors")
    _add_common_build_flags(pb)
    pb.add_argument("--method", choices=("iid", "stratified", "sparse"))
    pb.add_argument("--m", type=int, help="term budget")
    pb.add_argument("--seed", type=int, help="build seed (default RIDGE_SEED or 0)")
    pb.set_defaults(func=cmd_build)

    ps = sub.add_parser("rate-sweep", help="run a (method, m, seed) grid and fit rates")
    _add_common_build_flags(ps)
    ps.add_argument("--methods", help="comma list from iid,stratified,sparse")
    ps.add_argument("--m", help="comma list of term budgets (at least 3)")
    ps.add_argument("--seeds", help="comma list of seeds, or a bare count")
    ps.add_argument("--workers", type=int,
                    help="thread pool size (default: 4, or the CPU count if lower)")
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
