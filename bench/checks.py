"""Output checks for each workload.

Every check compares the program's outputs with a computation made here or
with a property the paper's constructions must have; none compares with a
saved copy of earlier output.  `check(...)` returns a list of failure
messages, empty when every check passes.

L2 errors are recomputed with this module's own evaluator of

    b0 + a0.x [+ 1/2 x^T A0 x] + outer * sum_k b_k (a_k.x - t_k)_+^(s-1),
    outer = v/n (s=2) or v/(2n) (s=3), n = stored terms,

against the target computed from its formula (sine ridge) or its spectrum
file (cosine sum), on point sets the program does not use: a composite
Gauss-Legendre rule of 1024 panels x 4 nodes at d = 1, and 2^16 uniform
points drawn from the workload seed at d >= 2.  See README.md for the
tolerance.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

from workloads import build_seeds, sweep_seeds

MC_POINTS = 1 << 16
D1_PANELS, D1_NODES = 1024, 4
SIGMAS = 6.0  # Monte Carlo standard errors allowed
QUAD_ALLOWANCE = 0.08  # relative error of the program's 64-node rule; see README.md
EVAL_CHUNK_ELEMS = 1 << 22  # points x terms per chunk of the evaluator
CHECKED_CELLS = 2  # rebuilt sweep cells per method


def paper_floor(m: int, d: int, s: int) -> float:
    """(m d^(2s+1) log(md))^(-1/2 - s/d): no m-term error can sit below it."""
    return (m * d ** (2 * s + 1) * math.log(m * d)) ** (-0.5 - s / d)


def target_values(w, out: Path):
    if w.target.startswith("sine-ridge:"):
        theta = np.array([float(v) for v in w.target.partition(":")[2].split(",")])
        K = theta.sum()
        return lambda X: np.sin(np.pi * (X @ theta)) / (4.0 * np.pi * K * K)
    doc = json.loads((out / "spectrum.json").read_text())
    omegas = np.array([a["omega"] for a in doc["atoms"]])
    mags = np.array([a["mag"] for a in doc["atoms"]])
    phases = np.array([a["phase"] for a in doc["atoms"]])
    return lambda X: np.cos(X @ omegas.T + phases) @ mags


def combination_values(c: dict, X: np.ndarray) -> np.ndarray:
    out = c["b0"] + X @ c["a0"]
    if c["s"] == 3 and c["A0"] is not None:
        out = out + 0.5 * np.einsum("ni,ij,nj->n", X, c["A0"], X)
    n = c["b"].size
    if n == 0:
        return out
    outer = c["v"] / n if c["s"] == 2 else c["v"] / (2 * n)
    acc = np.empty(X.shape[0])
    step = max(1, EVAL_CHUNK_ELEMS // n)
    for i in range(0, X.shape[0], step):
        Z = np.maximum(X[i:i + step] @ c["a"].T - c["t"], 0.0) ** (c["s"] - 1)
        acc[i:i + step] = Z @ c["b"]
    return out + outer * acc


def from_json(doc: dict) -> dict:
    """Combination fields from a parsed combination.json (schema version 1)."""
    terms = doc["terms"]
    d = doc["dim"]
    return {
        "s": doc["order"], "b0": doc["b0"], "a0": np.array(doc["a0"]),
        "A0": None if doc.get("A0") is None else np.array(doc["A0"]), "v": doc["v"],
        "b": np.array([t["b"] for t in terms]),
        "a": np.array([t["a"] for t in terms]).reshape(len(terms), d),
        "t": np.array([t["t"] for t in terms]),
    }


def from_object(comb) -> dict:
    """Combination fields from a RidgeCombination through its public attributes."""
    return {
        "s": comb.s, "b0": comb.b0, "a0": comb.a0, "A0": comb.A0, "v": comb.v,
        "b": np.array([b for b, _ in comb.terms]),
        "a": np.array([atom.a for _, atom in comb.terms]).reshape(-1, comb.d),
        "t": np.array([atom.t for _, atom in comb.terms]),
    }


def own_l2(f, c: dict, d: int, gen: np.random.Generator) -> tuple[float, float]:
    """(L2 error, its relative standard error) under the uniform measure."""
    if d == 1:
        x1, w1 = np.polynomial.legendre.leggauss(D1_NODES)
        edges = np.linspace(-1.0, 1.0, D1_PANELS + 1)
        lo, hi = edges[:-1, None], edges[1:, None]
        X = ((lo + hi) / 2 + (hi - lo) / 2 * x1).reshape(-1, 1)
        wts = ((hi - lo) / 4 * w1).ravel()  # uniform probability measure on [-1, 1]
        diff2 = (f(X) - combination_values(c, X)) ** 2
        return math.sqrt(float(wts @ diff2)), 0.0
    X = gen.uniform(-1.0, 1.0, size=(MC_POINTS, d))
    diff2 = (f(X) - combination_values(c, X)) ** 2
    mean = float(diff2.mean())
    return math.sqrt(mean), 0.5 * float(diff2.std()) / math.sqrt(MC_POINTS) / mean


def _l2_mismatch(label: str, own: tuple[float, float], reported: float) -> list[str]:
    l2, rel_se = own
    tol = SIGMAS * rel_se + QUAD_ALLOWANCE
    if abs(l2 / reported - 1.0) > tol:
        return [f"{label}: own L2 {l2:.6e} vs reported {reported:.6e} "
                f"(tolerance {tol:.3%})"]
    return []


def _sparse_terms(label: str, c: dict, m0: int) -> list[str]:
    nnz = np.count_nonzero(c["a"], axis=1)
    l1 = np.abs(c["a"]).sum(axis=1)
    bad = []
    if nnz.size and nnz.max() > m0:
        bad.append(f"{label}: a term has {nnz.max()} nonzeros > m0={m0}")
    if np.any(np.abs(l1 - 1.0) > 1e-12):
        bad.append(f"{label}: a term's inner vector has l1 norm != 1")
    if np.any((c["t"] < 0.0) | (c["t"] > 1.0)):
        bad.append(f"{label}: a threshold lies outside [0, 1]")
    return bad


def _row_checks(label: str, row: dict, d: int, s: int) -> list[str]:
    m, l2, linf = int(row["m"]), float(row["l2"]), float(row["linf"])
    floor = paper_floor(m, d, s)
    bad = []
    if not l2 <= linf:
        bad.append(f"{label}: l2 {l2} > linf {linf}")
    if not l2 > floor:
        bad.append(f"{label}: l2 {l2} below the paper's floor {floor}")
    if "floor" in row and abs(float(row["floor"]) / floor - 1.0) > 1e-9:
        bad.append(f"{label}: reported floor {row['floor']} != {floor}")
    return bad


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _mean_l2(rows: list[dict], method: str, m: int) -> float:
    vals = [float(r["l2"]) for r in rows if r["method"] == method and int(r["m"]) == m]
    return sum(vals) / len(vals)


def check_sweep(w, seed: int, out: Path) -> list[str]:
    from ridgecomb import build_iid, build_sparse, build_stratified, resolve_target

    rows = _read_rows(out / "r0" / "results.csv")
    seeds = sweep_seeds(seed)
    bad = []
    if len(rows) != len(w.methods) * len(w.ms) * len(seeds):
        bad.append(f"results.csv has {len(rows)} rows")
    for r in rows:
        label = f"{r['method']} m={r['m']} seed={r['seed']}"
        if r["status"] != "ok":
            bad.append(f"{label}: status {r['status']}")
            continue
        bad += _row_checks(label, r, w.d, w.s)
        if r["method"] != "stratified" and int(r["terms"]) != int(r["m"]):
            bad.append(f"{label}: {r['terms']} terms")
        if r["method"] == "sparse" and int(r["sparsity"]) > w.m0:
            bad.append(f"{label}: sparsity {r['sparsity']} > m0={w.m0}")
    if bad:
        return bad
    if "stratified" in w.methods:
        for m in w.ms:
            strat, iid = _mean_l2(rows, "stratified", m), _mean_l2(rows, "iid", m)
            if not strat < iid:
                bad.append(f"m={m}: stratified mean l2 {strat} >= iid {iid}")

    target, rep = resolve_target(w.target_spec(out), w.s)
    f = target_values(w, out)
    gen = np.random.default_rng(seed)
    pick = random.Random(f"cells:{seed}")
    for method in w.methods:
        for r in pick.sample([r for r in rows if r["method"] == method], CHECKED_CELLS):
            m, sd = int(r["m"]), int(r["seed"])
            if method == "iid":
                comb = build_iid(rep, m, target, seed=sd)
            elif method == "stratified":
                comb = build_stratified(rep, m, float(m) ** (-1.0 / w.d), "fractional",
                                        target, seed=sd)
            else:
                comb = build_sparse(rep, m, w.m0, target, seed=sd)
            c = from_object(comb)
            label = f"rebuilt {method} m={m} seed={sd}"
            if comb.term_count != int(r["terms"]):
                bad.append(f"{label}: {comb.term_count} terms vs {r['terms']}")
            bad += _l2_mismatch(label, own_l2(f, c, w.d, gen), float(r["l2"]))
            if method == "sparse":
                bad += _sparse_terms(label, c, w.m0)
    if (out / "r0" / "results.csv").read_bytes() != (out / "r1" / "results.csv").read_bytes():
        bad.append("results.csv differs between two runs of the same sweep")
    return bad


def check_build(w, seed: int, out: Path) -> list[str]:
    f = target_values(w, out)
    gen = np.random.default_rng(seed)
    bad = []
    l2s = {method: [] for method in w.methods}
    for bseed in build_seeds(seed):
        for method in w.methods:
            name = f"{method}-{bseed}"
            label = f"build {name}"
            row = _read_rows(out / "r0" / name / "report.csv")[0]
            doc = json.loads((out / "r0" / name / "combination.json").read_text())
            c = from_json(doc)
            bad += _row_checks(label, row, w.d, w.s)
            if int(row["terms"]) != c["b"].size:
                bad.append(f"{label}: report says {row['terms']} terms, file has {c['b'].size}")
            bad += _l2_mismatch(label, own_l2(f, c, w.d, gen), float(row["l2"]))
            if method == "sparse":
                bad += _sparse_terms(label, c, w.m0)
            l2s[method].append(float(row["l2"]))
            for fname in ("report.csv", "combination.json"):
                if ((out / "r0" / name / fname).read_bytes()
                        != (out / "r1" / name / fname).read_bytes()):
                    bad.append(f"{label}: {fname} differs between two runs")
    if "stratified" in l2s and not sum(l2s["stratified"]) < sum(l2s["iid"]):
        bad.append(f"stratified mean l2 {l2s['stratified']} >= iid {l2s['iid']}")
    return bad


def check(w, seed: int, out: Path) -> list[str]:
    if w.command == "rate-sweep":
        return check_sweep(w, seed, out)
    return check_build(w, seed, out)
