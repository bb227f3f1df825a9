"""Error measurement on the cube and rate-exponent regression.

L2 is taken under the uniform probability measure on [-1, 1]^d.  A combination
on its target's line (TargetFunction.line) leaves an error h(u . x), whose
norms are taken exactly on p = u . x in [-1, 1]: L2 by composite Gauss-Legendre
against the density of u . x, split at every kink, and the sup by refining the
combination's polynomial pieces.  Every other pair (d <= 4) takes both norms
on one tensor Gauss-Lobatto set, which holds the cube's faces and corners: L2
from its weights (positive, summing to 1, so l2 <= linf), the sup as its
maximum raised by a per-axis coarse-to-fine scan around its best nodes, a
lower bound on the true sup.  The point sets are built once per process and
kept read-only, and a TargetFunction keeps one array on each: its residual,
the target less the polynomial part b0 + a0 . x [+ 0.5 x^T A0 x] that the
builders copy from it.  Every combination measured takes a copy of it and
subtracts its terms in place; the target's values there come from per-axis
factors, and each term is evaluated only on the coordinates it uses.
measure_reports measures a batch of pairs on one target.  The norms of its
pairs on the line are taken as one: one target call for all their L2 nodes,
one for their edges and one per refinement round.
The pairs off it each get their own pass on the point set, and their scans
run as one: the target's values along each scan axis come from per-axis
factors, one call a level for all pairs.  The target's values are
row-independent, so every value has the bits of the pair measured alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import _L1_TOL, polynomial_part
from .errors import UsageError
from .quadrature import MAX_RULE_POINTS, gauss_lobatto, panel_rule, tensor_grid, uniform_cube_rule
from .spectral import TargetFunction

__all__ = [
    "ErrorReport",
    "RateFit",
    "l2_error",
    "linf_error",
    "check_grid_sizes",
    "check_line_rule",
    "fit_rate",
    "lower_bound_floor",
    "measure_report",
    "measure_reports",
]

DEFAULT_NODES = {1: 257, 2: 129, 3: 41, 4: 27}
MAX_D = max(DEFAULT_NODES)  # the largest d the metrics measure
_LINE_NODES = 4  # Gauss-Legendre nodes per panel: exact to degree 7 >= 2(s-1) + d - 1
_LINE_MESH = 0.1  # panel width cap times the target's largest ||omega_j||_1
_LINE_MIN_DENSITY_SCALE = 1e-4
_SUP_RTOL, _SUP_SPLIT, _SUP_ROUNDS = 1e-13, 4, 40
_REFINE_TOP = 10  # point set nodes each scan starts from
_TOP_BLOCK = 256  # values per block maximum of _top_k
# the scan: per axis, _SCAN_SAMPLES points across the window, _SCAN_LEVELS
# times, the window shrinking to +-one sample step around the best; each axis
# _SCAN_PASSES times
_SCAN_SAMPLES, _SCAN_LEVELS, _SCAN_PASSES = 33, 4, 2


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
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # NaN fails too
                raise UsageError(f"ErrorReport field {name} must be finite and "
                                 f"nonnegative, got {value}")

    def csv_row(self) -> str:
        return (f"{self.m},{self.method},{self.seed},"
                f"{self.l2:.12e},{self.linf:.12e},{self.terms},{self.sparsity}")


CSV_HEADER = "m,method,seed,l2,linf,terms,sparsity"


def _diff_on(target, comb, key, points: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """target - comb on a fixed point set, as a new array: a copy of the
    target's kept residual, less the difference of comb's polynomial part from
    the target's (zero for a builder's combination), less comb's terms, in
    place; axis is the 1-d axis whose tensor grid the points are."""
    quadratic = comb.A0 is not None
    diff = target.residual_on(key, points, quadratic, axis).copy()
    db0, da0 = comb.b0 - target.b0, comb.a0 - target.a0
    dA0 = comb.A0 - target.A0 if quadratic else None
    if db0 != 0.0 or np.any(da0) or (quadratic and np.any(dA0)):
        diff -= polynomial_part(points, db0, da0, dA0)
    return comb.subtract_terms(diff, points, axis)


def check_grid_sizes(d: int, l2_nodes: int | None = None, linf_grid: int | None = None):
    """UsageError unless each given per-axis size is at least 2 and its point set
    at dimension d holds at most MAX_RULE_POINTS points; linf_grid is checked
    first, so linf_error, which takes both sizes from its grid, names it.

    The CLI calls this before it builds, and l2_error, linf_error and
    measure_reports on each call (_checked_line).
    """
    for key, n in (("linf_grid", linf_grid), ("l2_nodes", l2_nodes)):
        if n is not None and not (n >= 2 and n**d <= MAX_RULE_POINTS):
            raise UsageError(f"{key} must be at least 2 and give at most {MAX_RULE_POINTS} "
                             f"points at d={d}, got {n} ({n}^{d} points)")


def check_line_rule(target):
    """UsageError when target has a line (TargetFunction.line) whose panel rule,
    _LINE_NODES nodes on each panel of _line_pieces' mesh, would hold more
    than MAX_RULE_POINTS nodes.  The CLI calls this before it builds, and
    l2_error, linf_error and measure_reports on each call (_checked_line)."""
    if target.line is not None:
        cmax = target.line[1]
        nodes = _LINE_NODES * np.ceil(2.0 * cmax / _LINE_MESH)  # inf for an infinite cmax
        if nodes > MAX_RULE_POINTS:
            raise UsageError(f"the target's line rule would hold {nodes:.4g} nodes at its "
                             f"largest ||omega||_1 of {cmax:.6g}, more than {MAX_RULE_POINTS}")


def _checked_line(target, comb, **sizes):
    """Check the pair, the grid sizes and the line rule; then the pair's
    common line, or None.

    The line is the target's (u, max c_j, sum mag_j c_j) when every distinct
    row of comb.A is +-u, a0 is parallel to u and A0 is lambda u u^T, each
    within _L1_TOL in l1 (relative for a0 and A0).  Such a pair's error is a
    function of p = u . x alone.
    """
    if not isinstance(target, TargetFunction):
        raise UsageError(f"target must be a TargetFunction, got {type(target).__name__}")
    if target.d != comb.d:
        raise UsageError(f"dimension mismatch: target d={target.d}, combination d={comb.d}")
    if target.d > MAX_D:
        raise UsageError(f"the error metrics support d <= {MAX_D}, got d={target.d}")
    check_grid_sizes(target.d, **sizes)
    check_line_rule(target)
    line = target.line
    if line is None:
        return None
    u, sgn = line[0], np.sign(line[0])
    dirs, _ = comb._directions
    off = np.minimum(np.abs(dirs - u).sum(axis=1), np.abs(dirs + u).sum(axis=1))
    A0 = np.zeros((u.size, u.size)) if comb.A0 is None else comb.A0
    if (np.all(off <= _L1_TOL)
            and np.abs(comb.a0 - (comb.a0 @ sgn) * u).sum() <= _L1_TOL * np.abs(comb.a0).sum()
            and np.abs(A0 - (sgn @ A0 @ sgn) * np.outer(u, u)).sum() <= _L1_TOL * np.abs(A0).sum()
            # the density formula loses about 1e-16 / prod(2|u_k|) to cancellation
            and np.prod(2.0 * np.abs(u[u != 0])) >= _LINE_MIN_DENSITY_SCALE):
        return line
    return None


def _size(target, n) -> int | None:
    return DEFAULT_NODES.get(target.d) if n is None else int(n)


def l2_error(target, comb, nodes: int | None = None) -> float:
    """||target - comb|| in L2 of the uniform probability measure on the cube."""
    n = _size(target, nodes)
    line = _checked_line(target, comb, l2_nodes=n)
    if line is None:
        return _cube_pass(target, comb, n)[0]
    return _line_l2(target, line, [_line_pieces(comb, line)])[0]


def _joined(arrays, axis: int = 0) -> np.ndarray:
    """np.concatenate(arrays, axis), or the one array itself, not a copy."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=axis)


def _line_diff(target, line, C: np.ndarray, k, p: np.ndarray) -> np.ndarray:
    """target - comb at x(p) = p sign(u), where u . x = p, with p in piece k of
    C; comb is its piece polynomial.  The target's values are
    row-independent, so all of p makes one evaluate_batch call."""
    g = target.evaluate_batch(p.reshape(-1, 1) * np.sign(line[0])).reshape(p.shape)
    return g - (C[0, k] + p * (C[1, k] + p * C[2, k]))


def _line_pieces(comb, line) -> tuple[np.ndarray, np.ndarray]:
    """comb on the line x(p) = p sign(u), p in [-1, 1], as a piecewise polynomial.

    Returns the piece edges (the kinks sign(a_k . u) t_k, the knots sum +-|u_k|
    of the density of u . x, and a mesh of width at most _LINE_MESH / max c_j)
    and C of shape (3, pieces), so comb = C[0] + C[1] p + C[2] p^2 on a piece.
    The terms' part comes from the prefix sums of comb._groups.
    """
    u, cmax, _ = line
    sgn, s = np.sign(u), comb.s
    groups = [(1.0 if a @ u > 0 else -1.0, ts, S) for a, ts, S in comb._groups]
    edges = np.unique(np.clip(np.concatenate(
        [np.linspace(-1.0, 1.0, math.ceil(2.0 * cmax / _LINE_MESH) + 1),
         tensor_grid(np.array([-1.0, 1.0]), u.size) @ np.abs(u)]
        + [e * ts for e, ts, _ in groups]), -1.0, 1.0))
    T = np.zeros((3, edges.size - 1))
    for e, ts, S in groups:
        # the terms with e p > t on a piece, each (e p - t)^(s-1) expanded in powers of p
        i = np.searchsorted(ts, edges[:-1] if e > 0 else -edges[1:], side="right")
        for j in range(s):
            T[j] += math.comb(s - 1, j) * (-1.0) ** (s - 1 - j) * e**j * S[s - 1 - j, i]
    C = comb.outer_scale * T
    C[0] += comb.b0
    C[1] += comb.a0 @ sgn
    if comb.A0 is not None:
        C[2] += 0.5 * (sgn @ comb.A0 @ sgn)
    return edges, C


def _density(u: np.ndarray, p: np.ndarray):
    """Density of u . x at p for x uniform on the cube: a piecewise polynomial
    of degree (nonzero components - 1), in its truncated-power form, summed
    over the cube's corners elementwise, so each value takes its own p alone."""
    c = np.abs(u[u != 0])
    if c.size == 1:
        return 0.5
    signs = tensor_grid(np.array([-1.0, 1.0]), c.size)
    total = 0.0
    for shift, sign in zip((signs @ c).tolist(), np.prod(signs, axis=1).tolist()):
        total = total + sign * np.maximum(p + shift, 0.0) ** (c.size - 1)
    return total / (math.factorial(c.size - 1) * np.prod(2.0 * c))


def _line_l2(target, line, pieces) -> list[float]:
    """L2 on the line of each comb's _line_pieces (edges, C) of pieces: the
    integral of (target - comb)^2 rho by composite Gauss-Legendre, exact for
    comb^2 rho, whose degree is at most 7.  All pairs' panel nodes make one
    target call (_line_diff), and each pair's sum is taken on its own rows."""
    nodes, weights = zip(*(panel_rule(edges, _LINE_NODES) for edges, _ in pieces))
    counts = [C.shape[1] for _, C in pieces]
    p = _joined(nodes).reshape(-1, _LINE_NODES)
    w = _joined(weights).reshape(p.shape)
    del nodes, weights
    C = _joined([C for _, C in pieces], 1)[:, :, None]  # piece i on row i of p
    diff = _line_diff(target, line, C, slice(None), p)
    terms = w * _density(line[0], p) * diff * diff
    ends = np.cumsum(counts)
    return [float(np.sqrt(np.sum(terms[hi - c:hi]))) for c, hi in zip(counts, ends)]


def _line_linf(target, line, pieces) -> list[float]:
    """max |target - comb| on the line of each comb's _line_pieces (edges, C)
    of pieces: every edge is sampled, then each piece whose bound can still
    beat its pair's running maximum by _SUP_RTOL is split in _SUP_SPLIT and
    sampled again.

    On a piece |h''| <= max c_j sum mag_j c_j + 2 |C[2]|, so |h| there is at
    most its larger end value plus that bound times width^2 / 8.  Near a
    smooth maximum this keeps a few pieces alive, where a Lipschitz bound
    would keep more the finer they get.  The pairs' pieces sit in one set of
    arrays, ordered by pair, each with its index k into the joined C and its
    owner; each round's samples of all pairs make one target call.
    """
    _, cmax, lip = line
    counts = np.array([C.shape[1] for _, C in pieces])
    size = counts + 1  # edges per pair
    edges = _joined([e for e, _ in pieces])
    C = _joined([C for _, C in pieces], 1)
    owner = np.repeat(np.arange(counts.size), size)
    # edge i of a pair starts its piece i; its last edge ends its last piece
    k = np.arange(edges.size) - owner
    last = np.cumsum(size) - 1
    k[last] -= 1
    h = np.abs(_line_diff(target, line, C, k, edges))
    # each pair's last edge is owned by a last, sentinel pair whose maximum is
    # infinite, so no piece from it to the next pair's first edge is kept
    best = np.append(np.maximum.reduceat(h, last - counts), math.inf)
    owner[last] = counts.size
    lo, hi, hlo, hhi, k, owner = edges[:-1], edges[1:], h[:-1], h[1:], k[:-1], owner[:-1]
    frac = np.linspace(0.0, 1.0, _SUP_SPLIT + 1)
    for _ in range(_SUP_ROUNDS):
        curv = cmax * lip + 2.0 * np.abs(C[2, k])
        keep = (np.maximum(hlo, hhi) + curv * (hi - lo) ** 2 / 8.0
                > best[owner] * (1.0 + _SUP_RTOL))
        if not keep.any():
            break
        k, lo, hi, owner = k[keep, None], lo[keep, None], hi[keep, None], owner[keep]
        q = lo + (hi - lo) * frac
        live = np.bincount(owner, minlength=best.size)
        hq = np.abs(_line_diff(target, line, C, k, q[:, 1:-1]))
        at = np.flatnonzero(live)
        top = np.maximum.reduceat(hq.max(axis=1), np.cumsum(live[at]) - live[at])
        best[at] = np.where(top > best[at], top, best[at])  # max(best, top), a NaN top kept out
        hq = np.column_stack([hlo[keep], hq, hhi[keep]])
        k, lo, hi = np.repeat(k.ravel(), _SUP_SPLIT), q[:, :-1].ravel(), q[:, 1:].ravel()
        hlo, hhi, owner = hq[:, :-1].ravel(), hq[:, 1:].ravel(), np.repeat(owner, _SUP_SPLIT)
    return best[:-1].tolist()


def _top_k(vals: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values, ascending by value; the set of np.argsort(vals)[-k:].

    Past k blocks of _TOP_BLOCK values, only the blocks whose maximum reaches
    the k-th largest block maximum can hold one of them (k values reach it),
    so a partial sort of those blocks and the last partial one finds them.  A
    tie at the k-th value falls back to the full sort, so the chosen set is
    always the full sort's.
    """
    n, nb = vals.size, vals.size // _TOP_BLOCK
    if nb > k:
        maxima = vals[:nb * _TOP_BLOCK].reshape(nb, _TOP_BLOCK).max(axis=1)
        blocks = np.flatnonzero(~(maxima < np.partition(maxima, -k)[-k]))  # NaN blocks too
        idx = np.concatenate([(blocks[:, None] * _TOP_BLOCK + np.arange(_TOP_BLOCK)).ravel(),
                              np.arange(nb * _TOP_BLOCK, n)])
    else:
        idx = np.arange(n)
    sub = vals[idx]
    pick = np.argpartition(sub, -k)[-k:]
    if np.count_nonzero(sub >= sub[pick].min()) > k:
        return np.argsort(vals)[-k:]
    top = idx[pick]
    return top[np.argsort(vals[top])]


def linf_error(target, comb, grid: int | None = None) -> float:
    """Sup-norm estimate, measure_report's linf with both sizes grid: exact to
    _SUP_RTOL on the pair's common line; otherwise the max over the point set
    raised by a coarse-to-fine scan from its best nodes, never below that max."""
    n = _size(target, grid)
    return _norms(target, [comb], n, n)[0][1]


def _cube_pass(target, comb, n: int) -> tuple:
    """The per-pair pass on the n^d Gauss-Lobatto set, off a line: (L2, the
    set's maximum, the scan's starts (k, d), their windows (k, d)).  The
    starts are the _REFINE_TOP best nodes, each window the larger gap from a
    start's node to a neighbour."""
    axis, key = gauss_lobatto(n)[0], ("lobatto", n)
    points, weights = uniform_cube_rule(target.d, n, True)
    vals = _diff_on(target, comb, key, points, axis)
    np.abs(vals, out=vals)
    top = _top_k(vals, min(_REFINE_TOP, vals.size))  # ascending by value
    sup = float(vals[top[-1]])
    # einsum's own loop: a BLAS dot product's bits change with its thread count
    norm = float(np.sqrt(np.einsum("i,i->", weights, np.square(vals, out=vals))))
    gap = np.diff(axis, prepend=-1.0, append=1.0)
    starts = points[top]
    return norm, sup, starts, np.maximum(gap[:-1], gap[1:])[np.searchsorted(axis, starts)]


def _stacked_scan(target, scans) -> list[float]:
    """The max of |target - comb| seen by the scan from each (comb, starts,
    windows) of scans, all pairs' starts scanned together.

    The target's phases are taken once per axis pass and its row-independent
    values from per-axis factors (SpectralMeasure.axis_phases,
    evaluate_steps).  The polynomial part is computed once when every
    combination's (b0, a0, A0) is the first one's, as the builders copy the
    target's, and each combination's terms on its own rows, so every probe
    value has the bits of a scan of its pair alone.
    """
    combs, starts, windows = zip(*scans)
    counts = [len(x) for x in starts]
    ends = np.cumsum(counts) * _SCAN_SAMPLES
    spans = [(hi - k * _SCAN_SAMPLES, hi) for k, hi in zip(counts, ends.tolist())]
    first, meas = combs[0], target.measure
    shared = all(c.b0 == first.b0 and np.array_equal(c.a0, first.a0)
                 and (c.A0 is None if first.A0 is None else np.array_equal(c.A0, first.A0))
                 for c in combs)

    def comb_values(probes):
        vals = np.empty(len(probes)) if not shared else polynomial_part(
            probes, first.b0, first.a0, first.A0)
        for comb, (lo, hi) in zip(combs, spans):
            rows = probes[lo:hi]
            if not shared:
                vals[lo:hi] = polynomial_part(rows, comb.b0, comb.a0, comb.A0)
            if comb.term_count:
                vals[lo:hi] += comb.outer_scale * comb._term_sum(rows)
        return vals

    def along(x, ax):
        level = _probing(comb_values)(x, ax)
        phases = meas.axis_phases(x, ax)

        def values(q, step):
            vals = meas.evaluate_steps(phases, ax, q[:, 0], step, _SCAN_SAMPLES)
            vals -= level(q, step)
            return np.abs(vals, out=vals)

        return values

    maxima = _scan_maxima(along, np.concatenate(starts), np.concatenate(windows))
    return np.fmax.reduceat(maxima, np.cumsum([0] + counts[:-1])).tolist()


def _scan_maxima(along, starts: np.ndarray, spacing) -> np.ndarray:
    """The max seen by a cyclic per-axis coarse-to-fine scan from each start.

    On each axis a start's window is its coordinate +-spacing (one number, or
    (k, d) per start and axis), within the cube.  Each level samples
    _SCAN_SAMPLES points lo + i step across it, moves the start to its best
    sample and narrows the window to +-step around it.  Each axis pass gets
    from along(x, ax), x the starts (k, d), the function that maps a level's
    samples q (k, _SCAN_SAMPLES) on axis ax and steps (k,) to their values.
    """
    x = starts.copy()
    k, d = x.shape
    spacing = np.broadcast_to(spacing, x.shape)
    rows, samples = np.arange(k), np.arange(_SCAN_SAMPLES)
    seen = np.full(k, -math.inf)
    for _ in range(_SCAN_PASSES):
        for ax in range(d):
            level = along(x, ax)
            lo = np.clip(x[:, ax] - spacing[:, ax], -1.0, 1.0)
            hi = np.clip(x[:, ax] + spacing[:, ax], -1.0, 1.0)
            for _ in range(_SCAN_LEVELS):
                step = (hi - lo) / (_SCAN_SAMPLES - 1)
                q = np.minimum(lo[:, None] + step[:, None] * samples, hi[:, None])
                v = level(q, step)
                np.fmax(seen, v.max(axis=1), out=seen)
                x[:, ax] = q[rows, v.argmax(axis=1)]
                lo, hi = np.maximum(lo, x[:, ax] - step), np.minimum(hi, x[:, ax] + step)
    return seen


def _probing(fn):
    """along for _scan_maxima from fn, which maps probes (n, d) to values (n,):
    each start _SCAN_SAMPLES times in turn, coordinate ax at its samples."""
    def along(x, ax):
        probes = np.repeat(x, _SCAN_SAMPLES, axis=0)

        def level(q, step):
            probes[:, ax] = q.ravel()
            return fn(probes).reshape(q.shape)

        return level

    return along


def _scan_refine(fn, starts: np.ndarray, spacing) -> float:
    """The max of fn seen by the scan (_scan_maxima) from every start."""
    return float(_scan_maxima(_probing(fn), starts, spacing).max())


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
        if not 0 < err < math.inf:  # NaN fails too
            warnings.warn(f"fit_rate: dropping nonpositive or non-finite error {err} at m={m}",
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
    """Bundle both error norms and the size stats of a built combination: the
    values of l2_error and linf_error, with the pair checked, and its line
    pieces found, once.  measure_reports of the one pair."""
    return measure_reports(target, [(comb, m, method, seed)], l2_nodes, linf_grid)[0]


def measure_reports(target, cells, l2_nodes: int | None = None,
                    linf_grid: int | None = None) -> list[ErrorReport]:
    """measure_report of each (comb, m, method, seed) of cells, in order."""
    norms = _norms(target, [comb for comb, *_ in cells], _size(target, l2_nodes),
                   _size(target, linf_grid))
    return [ErrorReport(m=int(m), method=method, seed=int(seed), l2=l2, linf=linf,
                        terms=comb.term_count, sparsity=comb.inner_sparsity_max)
            for (comb, m, method, seed), (l2, linf) in zip(cells, norms)]


def _norms(target, combs, n: int | None, per_axis: int | None) -> list[tuple]:
    """(L2, sup) of each comb of combs against target, in order: the L2 on n
    nodes per axis, the sup on per_axis.

    Each pair gets its own pass, in order: the checks, then its line pieces,
    or on the Gauss-Lobatto set its L2, maximum and scan starts (one pass
    when n == per_axis, else one on each set).  The pairs on the target's
    line then have their norms taken as one (_line_l2, _line_linf), and the
    scans of all the pairs off it run as one (_stacked_scan), each value
    with the bits of that pair alone.
    """
    norms, lines, scans = [], [], []
    for comb in combs:
        line = _checked_line(target, comb, l2_nodes=n, linf_grid=per_axis)
        if line is not None:
            lines.append((len(norms), _line_pieces(comb, line)))
            norms.append(None)
            continue
        l2, linf, starts, windows = _cube_pass(target, comb, n)
        if per_axis != n:
            _, linf, starts, windows = _cube_pass(target, comb, per_axis)
        scans.append((len(norms), comb, starts, windows))
        norms.append((l2, linf))
    if lines:
        at, pieces = zip(*lines)
        l2s = _line_l2(target, target.line, pieces)
        for i, l2, linf in zip(at, l2s, _line_linf(target, target.line, pieces)):
            norms[i] = (l2, linf)
    if scans:
        for (i, *_), sup in zip(scans, _stacked_scan(target, [s[1:] for s in scans])):
            norms[i] = (norms[i][0], max(norms[i][1], sup))
    return norms
