"""Error measurement on the cube and rate-exponent regression.

L2 is taken under the uniform probability measure on [-1, 1]^d (so l2 <= linf
holds), computed by tensor Gauss-Legendre up to d = 3 and by a fixed Sobol
point set at d = 4.  The sup norm is a grid maximum sharpened by a per-axis
ternary refinement around the best grid cells; the reported value is a
certified lower bound on the true sup.

The quadrature rules and sup grids are built once per process and kept
read-only, and a TargetFunction's values on them are kept by the target
itself, so every combination measured against one target reuses them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rng as _rng
from .core import CubeDomain
from .errors import UsageError
from .quadrature import MAX_RULE_POINTS, uniform_cube_rule
from .spectral import TargetFunction

__all__ = [
    "ErrorReport",
    "RateFit",
    "l2_error",
    "linf_error",
    "check_grid_sizes",
    "fit_rate",
    "lower_bound_floor",
    "measure_report",
]

DEFAULT_L2_NODES = {1: 64, 2: 64, 3: 64}
DEFAULT_LINF_GRID = {1: 2049, 2: 257, 3: 65, 4: 17}
LINF_RANDOM_POINTS_D4 = 10**5


@dataclass(frozen=True)
class ErrorReport:
    m: int
    method: str
    seed: int
    l2: float
    linf: float
    terms: int
    sparsity: int

    def __post_init__(self):
        for name in ("m", "seed", "l2", "linf", "terms", "sparsity"):
            if getattr(self, name) < 0:
                raise UsageError(f"ErrorReport field {name} must be nonnegative")

    def csv_row(self) -> str:
        return (f"{self.m},{self.method},{self.seed},"
                f"{self.l2:.12e},{self.linf:.12e},{self.terms},{self.sparsity}")


CSV_HEADER = "m,method,seed,l2,linf,terms,sparsity"


def _check_pair(target, comb):
    if target.d != comb.d:
        raise UsageError(f"dimension mismatch: target d={target.d}, combination d={comb.d}")


def _target_values(target, key, points: np.ndarray) -> np.ndarray:
    """The target on a fixed point set: memoized by a TargetFunction, else evaluated."""
    if isinstance(target, TargetFunction):
        return target.values_on(key, points)
    return target.evaluate_batch(points)


@lru_cache(maxsize=1)
def _sobol_rule() -> tuple[np.ndarray, np.ndarray]:
    """The d = 4 L2 rule: 2^16 unscrambled Sobol points with equal weights."""
    from scipy.stats import qmc  # only this rule needs scipy; keep it off the import path

    sampler = qmc.Sobol(d=4, scramble=False)
    points = 2.0 * sampler.random(2**16) - 1.0
    weights = np.full(points.shape[0], 1.0 / points.shape[0])
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


def check_grid_sizes(d: int, l2_nodes: int | None = None, linf_grid: int | None = None):
    """UsageError unless each given per-axis size is at least 2 and its point set
    at dimension d holds at most MAX_RULE_POINTS points.

    The d = 4 L2 rule is a fixed Sobol set, so l2_nodes is not checked there.
    The CLI calls this before it builds, and l2_error and linf_error on each call.
    """
    for key, n in (("l2_nodes", l2_nodes if d <= 3 else None), ("linf_grid", linf_grid)):
        if n is not None and not (n >= 2 and n**d <= MAX_RULE_POINTS):
            raise UsageError(f"{key} must be at least 2 and give at most {MAX_RULE_POINTS} "
                             f"points at d={d}, got {n} ({n}^{d} points)")


def l2_error(target, comb, nodes: int | None = None) -> float:
    """||target - comb|| in L2 of the uniform probability measure on the cube."""
    _check_pair(target, comb)
    d = target.d
    if d <= 3:
        n = DEFAULT_L2_NODES[d] if nodes is None else int(nodes)
        check_grid_sizes(d, l2_nodes=n)
        points, weights = uniform_cube_rule(d, n)
        key = ("l2", n)
    elif d == 4:
        points, weights = _sobol_rule()
        key = ("l2", "sobol")
    else:
        raise UsageError(f"l2_error supports d <= 4, got d={d}")
    diff = _target_values(target, key, points) - comb.evaluate_batch(points)
    return float(np.sqrt(np.sum(weights * diff * diff)))


def _abs_diff_fn(target, comb):
    def fn(points):
        return np.abs(target.evaluate_batch(points) - comb.evaluate_batch(points))
    return fn


@lru_cache(maxsize=16)
def _sup_grid(d: int, per_axis: int) -> np.ndarray:
    """The sup-norm point set: a tensor grid with the boundary, plus random probes at d = 4."""
    points = CubeDomain(d).grid(per_axis)
    if d == 4:
        gen = _rng.stream(0, _rng.PROBE)
        points = np.vstack([points, gen.uniform(-1.0, 1.0, size=(LINF_RANDOM_POINTS_D4, 4))])
    points.setflags(write=False)
    return points


def _top_k(vals: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values, ascending by value; the set of np.argsort(vals)[-k:].

    A partial sort finds them; a tie at the k-th value falls back to the full
    sort, so the chosen set is always the full sort's.
    """
    idx = np.argpartition(vals, -k)[-k:]
    if np.count_nonzero(vals >= vals[idx].min()) > k:
        return np.argsort(vals)[-k:]
    return idx[np.argsort(vals[idx])]


def linf_error(target, comb, grid: int | None = None, refine_top: int = 10) -> float:
    """Sup-norm estimate: grid max plus ternary refinement; never below the grid max."""
    _check_pair(target, comb)
    d = target.d
    if d > 4:
        raise UsageError(f"linf_error supports d <= 4, got d={d}")
    per_axis = DEFAULT_LINF_GRID[d] if grid is None else int(grid)
    check_grid_sizes(d, linf_grid=per_axis)
    points = _sup_grid(d, per_axis)
    vals = np.abs(_target_values(target, ("sup", per_axis), points)
                  - comb.evaluate_batch(points))
    best = float(vals.max())
    k = min(refine_top, points.shape[0])
    top = points[_top_k(vals, k)]
    spacing = 2.0 / (per_axis - 1)
    return max(best, _ternary_refine(_abs_diff_fn(target, comb), top, spacing))


def _ternary_refine(fn, pts: np.ndarray, spacing: float, passes: int = 2,
                    iters: int = 40) -> float:
    """Cyclic per-axis ternary search from each start point; returns the max seen.

    Both probes of an iteration go to fn in one call, through one probe
    buffer whose first n rows carry the lower probe and the rest the upper.
    """
    x = pts.copy()
    seen = float(fn(x).max())
    n, d = x.shape
    probes = np.empty((2 * n, d))
    for _ in range(passes):
        for ax in range(d):
            probes[:n] = x
            probes[n:] = x
            lo = np.clip(x[:, ax] - spacing, -1.0, 1.0)
            hi = np.clip(x[:, ax] + spacing, -1.0, 1.0)
            for _ in range(iters):
                m1 = lo + (hi - lo) / 3.0
                m2 = hi - (hi - lo) / 3.0
                probes[:n, ax] = m1
                probes[n:, ax] = m2
                v = fn(probes)
                v1, v2 = v[:n], v[n:]
                seen = max(seen, float(v.max()))
                keep_hi = v2 >= v1
                lo = np.where(keep_hi, m1, lo)
                hi = np.where(keep_hi, hi, m2)
            x[:, ax] = 0.5 * (lo + hi)
            seen = max(seen, float(fn(x).max()))
    return seen


@dataclass(frozen=True)
class RateFit:
    points: tuple
    slope: float
    intercept: float
    r2: float

    @property
    def n(self) -> int:
        return len(self.points)

    def to_json_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "r2": self.r2, "n": self.n}


def fit_rate(points) -> RateFit:
    """OLS of log error on log m; slope is the empirical rate exponent."""
    kept = []
    for m, err in points:
        if err <= 0:
            warnings.warn(f"fit_rate: dropping nonpositive error {err} at m={m}",
                          stacklevel=2)
            continue
        if m <= 0:
            raise UsageError(f"fit_rate: m values must be positive, got {m}")
        kept.append((float(m), float(err)))
    if len(kept) < 3:
        raise UsageError(f"fit_rate needs at least 3 usable points, got {len(kept)}")
    ms = np.array([p[0] for p in kept])
    if np.unique(ms).size < 2:
        raise UsageError("fit_rate needs at least 2 distinct m values")
    lx = np.log(ms)
    ly = np.log(np.array([p[1] for p in kept]))
    lxc = lx - lx.mean()
    slope = float((lxc @ (ly - ly.mean())) / (lxc @ lxc))
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    return RateFit(points=tuple(kept), slope=slope, intercept=intercept, r2=r2)


def lower_bound_floor(m: int, d: int, s: int, A: float) -> float:
    """Sanity floor (A m d^(2s+1) log(md))^(-1/2 - s/d); measured errors must sit above it."""
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise UsageError(f"floor needs integer m >= 2, got {m}")
    if s not in (2, 3):
        raise UsageError(f"order s must be 2 or 3, got {s}")
    if d < 1 or A <= 0:
        raise UsageError(f"need d >= 1 and A > 0, got d={d}, A={A}")
    base = A * m * float(d) ** (2 * s + 1) * math.log(m * d)
    return base ** (-(0.5 + s / d))


def measure_report(target, comb, m: int, method: str, seed: int,
                   l2_nodes: int | None = None, linf_grid: int | None = None) -> ErrorReport:
    """Bundle both error norms and the size stats of a built combination."""
    return ErrorReport(
        m=int(m), method=method, seed=int(seed),
        l2=l2_error(target, comb, nodes=l2_nodes),
        linf=linf_error(target, comb, grid=linf_grid),
        terms=comb.term_count, sparsity=comb.inner_sparsity_max,
    )
