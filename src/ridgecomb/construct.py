"""The three combination builders: i.i.d., stratified, and inner-sparsified.

The i.i.d. builder is plain Monte Carlo over the representation's atom
measure.  The stratified builder partitions atom parameter space into cells of
small sup-distance diameter, allocates the term budget proportionally to cell
masses, and samples each cell's conditional measure, which trades the
m^(-1/2) rate for a better exponent.  Both the masses and the conditional
draws are closed form, and only the cells that carry mass exist: they are the
runs of the threshold pieces that one array pass finds over all 2J components.
The sparsifier rewrites each inner weight vector as an average of m0 signed
basis vectors, bounding coordinate count by m0 without touching any other
field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng as _rng
from .core import ATOM_LIPSCHITZ, RidgeCombination
from .errors import BuilderError, UsageError
from .quadrature import tensor_grid
from .spectral import (
    IntegralRepresentation,
    TargetFunction,
    _draw_arrays,
    _force_unit_l1,
    sample_simplified_arrays,
    threshold_law,
)

__all__ = [
    "StratifiedPlan",
    "SparsifierConfig",
    "partition_parameters",
    "estimate_masses",
    "exact_sine_masses",
    "allocate",
    "build_iid",
    "build_simplified",
    "build_stratified",
    "sparsify",
    "build_sparse",
    "default_epsilon",
    "build_from_config",
]


def _check_build_args(rep: IntegralRepresentation, m, target: TargetFunction):
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise UsageError(f"term budget m must be a positive integer, got {m}")
    if rep.d != target.d:
        raise UsageError(f"representation dimension {rep.d} != target dimension {target.d}")


def _combination(s: int, target: TargetFunction, v: float,
                 coef, sign, A, t) -> RidgeCombination:
    """The target's affine (+ quadratic for s = 3) part plus the given terms."""
    A0 = target.A0 if s == 3 else None
    return RidgeCombination.from_arrays(target.d, s, target.b0, target.a0, A0, v,
                                        coef, sign, A, t)


# --- i.i.d. builder ---

def build_iid(rep: IntegralRepresentation, m: int, target: TargetFunction,
              seed: int | None = None) -> RidgeCombination:
    """m-term Monte Carlo combination; coefficients are the sampled signs."""
    _check_build_args(rep, m, target)
    if rep.v == 0.0:  # constant-plus-affine target: nothing to sample
        return _combination(rep.s, target, 0.0, (), (), (), ())
    gen = _rng.stream(rep.seed if seed is None else seed, _rng.ATOMS)
    eta, t, a = _draw_arrays(gen, rep, int(m))
    return _combination(rep.s, target, rep.v, eta.astype(float), eta, a, t)


def build_simplified(meas, s: int, m: int, target: TargetFunction,
                     seed: int = 0) -> RidgeCombination:
    """i.i.d. build from the uniform-threshold sampler; handles constant targets."""
    if target.d != meas.d:
        raise UsageError(f"measure dimension {meas.d} != target dimension {target.d}")
    b, t, a, v = sample_simplified_arrays(meas, s, m, seed=seed)
    return _combination(s, target, v, b, np.where(b >= 0, 1, -1), a, t)


# --- stratified partition ---

# cap on the cells of a full partition, and on the 2 x 2J x n_t a build could reach
MAX_CELLS = 5 * 10**6


@dataclass(frozen=True, eq=False)
class StratifiedPlan:
    """Cells of (sign, threshold, direction) space with optional allocation.

    Cells are products of an atom sign eta, a direction sign-orthant sigma,
    magnitude bins kmag for the first d-1 direction coordinates, and a
    threshold bin tbin.  Each cell is one integer code, packed by cell_codes
    and decoded by the eta, sigma, kmag and tbin properties.  Callers may rely
    on one fact of the layout: the threshold bin is the last digit, so a
    (sign, direction) pair's n_t cells have consecutive codes.  A plan holds
    the full partition (partition_parameters) or only the cells that carry a
    representation's mass (build_stratified) as sorted unique codes, with
    L, m_alloc and n_draw parallel to them.
    """

    d: int
    s: int
    delta_t: float
    delta_a: float
    n_t: int
    n_a: int
    code: np.ndarray
    L: np.ndarray | None = None
    m_alloc: np.ndarray | None = None
    n_draw: np.ndarray | None = None

    @property
    def M(self) -> int:
        return self.code.size

    @property
    def diameter_bound(self) -> float:
        """Worst-case within-cell atom_sup_distance; strictly below epsilon."""
        return ATOM_LIPSCHITZ[self.s] * (2 * (self.d - 1) * self.delta_a + self.delta_t)

    def bins(self, t) -> np.ndarray:
        """Threshold bin of each t in [0, 1]: half-open bins, 1.0 in the last."""
        return np.minimum(np.floor(np.asarray(t) / self.delta_t).astype(np.int64), self.n_t - 1)

    def cell_codes(self, eta, a, tbin) -> np.ndarray:
        """Cell code of each (eta, direction a, threshold bin tbin); vectorized."""
        a = np.asarray(a, dtype=float)
        code = (np.asarray(eta).astype(np.int64) + 1) // 2
        for i in range(self.d):
            code = code * 2 + (a[:, i] >= 0.0)
        for i in range(self.d - 1):
            kmag = np.floor(np.abs(a[:, i]) / self.delta_a).astype(np.int64)
            code = code * self.n_a + np.minimum(kmag, self.n_a - 1)
        return code * self.n_t + tbin

    def membership_codes(self, eta, t, a) -> np.ndarray:
        """Integer cell code of each atom triple; vectorized."""
        return self.cell_codes(eta, a, self.bins(t))

    def _head(self) -> np.ndarray:
        """Each code's leading digits: eta, then the d orthant bits."""
        return self.code // (self.n_t * self.n_a ** (self.d - 1))

    @property
    def eta(self) -> np.ndarray:
        return 2 * (self._head() >> self.d) - 1

    @property
    def sigma(self) -> np.ndarray:
        return 2 * ((self._head()[:, None] >> np.arange(self.d - 1, -1, -1)) & 1) - 1

    @property
    def kmag(self) -> np.ndarray:
        place = self.n_a ** np.arange(self.d - 2, -1, -1, dtype=np.int64)
        return (self.code // self.n_t)[:, None] // place % self.n_a

    @property
    def tbin(self) -> np.ndarray:
        return self.code % self.n_t

    def rows_of_codes(self, codes: np.ndarray) -> np.ndarray:
        """Row index for each code, or -1 when the code has no cell."""
        pos = np.searchsorted(self.code, codes)
        pos = np.clip(pos, 0, self.M - 1)
        return np.where(self.code[pos] == codes, pos, -1)

    def representatives(self):
        """(eta, t, a) arrays of one canonical atom per cell."""
        t_rep = np.clip((self.tbin + 0.5) * self.delta_t, 0.0, 1.0)
        if self.d == 1:
            a_rep = self.sigma.astype(float)
        else:
            mags = (self.kmag + 0.5) * self.delta_a
            over = mags.sum(axis=1) > 1.0
            mags[over] = self.kmag[over] * self.delta_a  # fall back to the lower corner
            last = np.clip(1.0 - mags.sum(axis=1), 0.0, 1.0)
            a_rep = self.sigma * np.column_stack([mags, last])
        return self.eta, t_rep, _force_unit_l1(a_rep)

    def _label(self, row: int) -> str:
        return (f"cell(eta={int(self.eta[row])}, sigma={self.sigma[row].tolist()}, "
                f"kmag={self.kmag[row].tolist()}, tbin={int(self.tbin[row])})")


def _empty_plan(d: int, s: int, epsilon) -> StratifiedPlan:
    """A plan with the cell geometry for diameter target epsilon and no cells."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise UsageError(f"dimension must be a positive integer, got {d}")
    if s not in (2, 3):
        raise UsageError(f"order s must be 2 or 3, got {s}")
    epsilon = float(epsilon)
    if not epsilon > 0:
        raise UsageError(f"epsilon must be positive, got {epsilon}")
    lip = ATOM_LIPSCHITZ[s]
    delta_t = epsilon / (4.0 * lip)
    # magnitude mesh: fine enough that 2(d-1)*delta_a + delta_t stays under epsilon/lip
    delta_a = delta_t if d == 1 else min(delta_t, 5.0 * epsilon / (16.0 * lip * (d - 1)))
    n_t = max(1, math.ceil(1.0 / delta_t - 1e-12))
    n_a = max(1, math.ceil(1.0 / delta_a - 1e-12))
    if math.log2(2.0 * (1 << d) * n_t) + (d - 1) * math.log2(n_a) > 62:
        raise UsageError(f"epsilon {epsilon} is too small to index the cells")
    plan = StratifiedPlan(d=int(d), s=int(s), delta_t=delta_t, delta_a=delta_a,
                          n_t=n_t, n_a=n_a, code=np.zeros(0, dtype=np.int64))
    assert plan.diameter_bound < epsilon
    return plan


def partition_parameters(d: int, s: int, epsilon: float) -> StratifiedPlan:
    """Enumerate the full cell partition for diameter target epsilon (no masses yet)."""
    plan = _empty_plan(d, s, epsilon)
    _check_cell_count(plan, (1 << d) * _magnitude_vectors(plan))  # before any grid is built
    kmag = tensor_grid(np.arange(plan.n_a), d - 1)
    kmag = kmag[kmag.sum(axis=1) * plan.delta_a <= 1.0 + 1e-9]
    # one direction per (orthant, magnitude bins), at the bin midpoints
    mags = np.column_stack([(kmag + 0.5) * plan.delta_a, np.ones(kmag.shape[0])])
    a = (2.0 * tensor_grid(np.arange(2), d) - 1.0)[:, None, :] * mags
    # each distinct bin-0 code heads n_t consecutive codes: the threshold bin is the last digit
    first = np.unique(plan.cell_codes(np.array([[-1], [1]]), a.reshape(-1, d), 0))
    return replace(plan, code=(first[:, None] + np.arange(plan.n_t)).ravel())


def _magnitude_vectors(plan: StratifiedPlan) -> int:
    """How many k in [0, n_a)^(d-1) pass the grid's sum(k) delta_a <= 1 + 1e-9,
    by inclusion-exclusion over the axes with k_i >= n_a; no grid is built."""
    r, n_a = plan.d - 1, plan.n_a
    top = math.floor((1.0 + 1e-9) / plan.delta_a) + 1
    while top * plan.delta_a > 1.0 + 1e-9:  # the largest sum(k) the grid's float test passes
        top -= 1
    return sum((-1) ** j * math.comb(r, j) * math.comb(top - j * n_a + r, r)
               for j in range(r + 1) if j * n_a <= top)


def _check_plan_compat(plan: StratifiedPlan, rep: IntegralRepresentation):
    if plan.d != rep.d or plan.s != rep.s:
        raise UsageError("plan and representation disagree on (d, s)")


def _check_cell_count(plan: StratifiedPlan, n_dirs: int):
    """UsageError when both signs of n_dirs directions could reach over MAX_CELLS cells."""
    if 2 * n_dirs * plan.n_t > MAX_CELLS:
        raise UsageError(f"partition would have up to {2 * n_dirs * plan.n_t} cells, more than "
                         f"{MAX_CELLS}; choose a larger epsilon")


def stratified_geometry(rep: IntegralRepresentation, epsilon) -> StratifiedPlan:
    """rep's cell geometry at epsilon, with no cells, after the MAX_CELLS
    checks: on the cells its directions could reach, and on the breakpoints
    of its threshold pieces (_threshold_pieces), each component's bin edges
    and the zeros of its law, fewer than one per pi of its u-range plus five."""
    plan = _empty_plan(rep.d, rep.s, epsilon)
    _check_cell_count(plan, rep.dirs.shape[0])
    pieces = rep.c.size * (plan.n_t + 1) + float(np.sum(rep.c / np.pi + 5.0))
    if pieces > MAX_CELLS:
        raise UsageError(f"the threshold pieces would number up to {pieces:.4g}, more than "
                         f"{MAX_CELLS}: the largest ||omega||_1 is {rep.c.max():.6g}")
    return plan


def _threshold_pieces(plan: StratifiedPlan, rep: IntegralRepresentation):
    """Every (cell, component, arc) piece of the representation that carries mass.

    Component e has direction rep.dirs[e] and the order-s threshold law on
    u = c_e t + ph_e, t in [0, 1].  The law's zeros split its u-range into
    arcs of constant atom sign, and the threshold-bin edges split it further;
    each resulting piece lies in one cell.  All components go in one pass,
    ordered by (component, u): a piece's bin is a running count of edges,
    its arc a running count of zeros.  Returns (code, comp, ua, ub, mass) stably
    sorted by cell code, so each cell's pieces form one run: the piece's cell, its
    u-interval and its probability p_e (F(ub) - F(ua)) / (F(ph_e + c_e) - F(ph_e)).
    """
    law = threshold_law(rep.s)
    E, n_e = rep.probs.size, plan.n_t + 1
    t_edges = np.minimum(np.arange(n_e) * plan.delta_t, 1.0)
    u_edges = rep.c[:, None] * t_edges + rep.ph[:, None]
    u_lo, u_hi = u_edges[:, 0], u_edges[:, -1]
    # the zeros zero + k pi around each u-range, as the arange k_lo .. k_hi
    k_lo = np.floor((u_lo - law.zero) / np.pi).astype(np.int64) - 1
    n_k = np.floor((u_hi - law.zero) / np.pi).astype(np.int64) + 3 - k_lo
    zc = np.repeat(np.arange(E), n_k)
    zeros = law.zero + (k_lo[zc] + np.arange(zc.size) - np.searchsorted(zc, zc)) * np.pi
    above = zeros > u_lo[zc]
    k_first = k_lo + np.bincount(zc[~above], minlength=E)  # the arc just above u_lo is k_first - 1
    inside = above & (zeros < u_hi[zc])
    zc, zeros = zc[inside], zeros[inside]
    # breakpoints in (component, u) order; an edge sorts before a zero it ties with
    pts = np.concatenate([u_edges.ravel(), zeros])
    comp = np.concatenate([np.repeat(np.arange(E), n_e), zc])
    order = np.lexsort((pts, comp))
    pts, comp, is_zero = pts[order], comp[order], order >= E * n_e
    F = law.F(pts)
    mass = np.where(pts[1:] > pts[:-1], np.maximum(F[1:] - F[:-1], 0.0), 0.0)
    mass *= (rep.probs / (law.F(u_hi) - law.F(u_lo)))[comp[:-1]]
    # a piece starts at every breakpoint but its component's last
    keep = np.nonzero((comp[:-1] == comp[1:]) & (mass > 0))[0]
    e = comp[keep]
    tbin = np.minimum(np.cumsum(~is_zero)[keep] - e * n_e - 1, plan.n_t - 1)
    arc = k_first[e] - 1 + np.cumsum(is_zero)[keep] - np.searchsorted(zc, e)
    eta = law.sign(law.zero + (arc + 0.5) * np.pi)  # at the arc's midpoint, far from a zero
    first = plan.cell_codes(np.array([[-1], [1]]), rep.dirs, 0)  # bin 0, eta = -1 and +1
    code = first[(eta + 1) // 2, e] + tbin
    order = np.argsort(code, kind="stable")
    keep, e = keep[order], e[order]
    return code[order], e, pts[keep], pts[keep + 1], mass[keep]


def _normalized(L: np.ndarray) -> np.ndarray:
    total = L.sum()
    assert abs(total - 1.0) <= 1e-9
    return L / total


def _occupied_plan(rep: IntegralRepresentation, epsilon):
    """The cells that carry rep's mass at epsilon, one per run of its sorted
    threshold pieces, with their masses; and the pieces."""
    plan = stratified_geometry(rep, epsilon)
    pieces = _threshold_pieces(plan, rep)
    code, _, _, _, mass = pieces
    new = np.diff(code, prepend=-1) != 0
    L = _normalized(np.bincount(np.cumsum(new) - 1, weights=mass))
    return replace(plan, code=code[new], L=L), pieces


def estimate_masses(plan: StratifiedPlan, rep: IntegralRepresentation,
                    seed: int | None = None, n: int | None = None) -> StratifiedPlan:
    """Monte Carlo cell masses from binned i.i.d. draws: a check on exact_sine_masses."""
    _check_plan_compat(plan, rep)
    if n is None:
        n = max(10**4, 100 * plan.M)
    gen = _rng.stream(rep.seed if seed is None else seed, _rng.MASSES)
    counts = np.zeros(plan.M, dtype=np.int64)
    left = int(n)
    while left > 0:
        batch = min(left, 1 << 20)
        eta, t, a = _draw_arrays(gen, rep, batch)
        rows = plan.rows_of_codes(plan.membership_codes(eta, t, a))
        if np.any(rows < 0):
            raise BuilderError("a sampled atom fell outside the partition")
        counts += np.bincount(rows, minlength=plan.M)
        left -= batch
    return replace(plan, L=counts / float(n))


def exact_sine_masses(plan: StratifiedPlan, rep: IntegralRepresentation) -> StratifiedPlan:
    """Closed-form cell masses of any representation, sine ridges included.

    Each cell's mass sums, over the components whose direction falls in it,
    the component weight times the |trig| antiderivative difference over the
    arcs of the cell's sign inside its threshold bin.  Components sharing a
    direction add into the same cells.
    """
    _check_plan_compat(plan, rep)
    if rep.v == 0.0:
        raise UsageError("representation has zero spectral mass; no cell carries any")
    code, _, _, _, mass = _threshold_pieces(plan, rep)
    row = plan.rows_of_codes(code)
    if np.any(row < 0):
        raise BuilderError("a component's threshold mass fell outside the partition")
    return replace(plan, L=_normalized(np.bincount(row, weights=mass, minlength=plan.M)))


def allocate(plan: StratifiedPlan, m: int, mode: str, seed: int = 0) -> StratifiedPlan:
    """Assign per-cell term counts; drops zero-mass cells first.

    n_k is the number of atoms drawn in cell k, each with coefficient
    eta * m_k/n_k.  Signed mode rounds m*L_k to integers by a shared-offset
    systematic scheme: each m_k lands on floor or ceil of m*L_k with the exact
    mean, and the rounded counts always sum to m; it draws n_k = m_k atoms
    (none where m_k = 0), so sum(n_k) = m.  Fractional mode keeps m_k = m*L_k
    real and draws n_k = ceil(m_k) >= 1 atoms, so sum(n_k) <= m + M.
    """
    if plan.L is None:
        raise UsageError("plan has no masses; run estimate_masses or exact_sine_masses")
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise UsageError(f"term budget m must be a positive integer, got {m}")
    if mode not in ("signed", "fractional"):
        raise UsageError(f"mode must be 'signed' or 'fractional', got {mode!r}")
    if abs(plan.L.sum() - 1.0) > 1e-12:
        raise UsageError("cell masses are not normalized")
    keep = np.nonzero(plan.L > 0)[0]
    sub = replace(plan, code=plan.code[keep], L=plan.L[keep] / plan.L[keep].sum())
    mL = m * sub.L
    if mode == "signed":
        gen = _rng.stream(seed, _rng.ALLOCATION)
        u = 1.0 - gen.random()
        cum = np.cumsum(mL)
        cum[-1] = float(m)
        marks = np.floor(cum - u)
        m_k = np.diff(marks, prepend=-1.0)
        assert int(m_k.sum()) == m
        n_k = m_k.astype(np.int64)
    else:
        m_k = mL
        n_k = np.maximum(np.ceil(mL - 1e-12).astype(np.int64), 1)
    assert int(n_k.sum()) <= m + sub.M
    return replace(sub, m_alloc=m_k, n_draw=n_k)


# --- conditional sampling within cells ---

def _conditional_draws(gen, rep, plan: StratifiedPlan, pieces, need: np.ndarray):
    """need[k] inverse-CDF draws from each cell's conditional law.

    plan's cells are the runs of the sorted pieces.  A draw picks one of its
    cell's pieces by mass (so a component by its mass in the cell, then an arc),
    then u by F^-1 within the piece.
    """
    code, comp, ua, ub, mass = pieces
    first = np.flatnonzero(np.diff(code, prepend=-1))
    assert np.array_equal(code[first], plan.code)
    last = np.append(first[1:], code.size) - 1
    cum = np.cumsum(mass)
    below = np.where(first > 0, cum[np.maximum(first - 1, 0)], 0.0)

    rows = np.repeat(np.arange(plan.M), need)
    R = rows.size
    goal = below[rows] + gen.random(R) * (cum[last[rows]] - below[rows])
    pick = np.clip(np.searchsorted(cum, goal, side="right"), first[rows], last[rows])
    law = threshold_law(rep.s)
    lo_u, hi_u = ua[pick], ub[pick]
    f_lo = law.F(lo_u)
    u = np.clip(law.Finv(f_lo + gen.random(R) * (law.F(hi_u) - f_lo)), lo_u, hi_u)
    e = comp[pick]
    t = _into_bins(np.clip((u - rep.ph[e]) / rep.c[e], 0.0, 1.0), plan, rows)
    return rows, plan.eta[rows], t, rep.dirs[e]


def _into_bins(t: np.ndarray, plan: StratifiedPlan, rows: np.ndarray) -> np.ndarray:
    """Move each threshold the few ulps into its own cell's half-open bin."""
    want = plan.tbin[rows]
    for _ in range(8):
        got = plan.bins(t)
        if np.array_equal(got, want):
            return t
        t = np.where(got < want, np.nextafter(t, 2.0),
                     np.where(got > want, np.nextafter(t, -1.0), t))
    bad = int(rows[np.argmax(got != want)])
    raise BuilderError(f"{plan._label(bad)}: a conditional draw left its threshold bin")


def build_stratified(rep: IntegralRepresentation, m: int, epsilon: float, mode: str,
                     target: TargetFunction, seed: int = 0) -> RidgeCombination:
    """Stratified build: the cells that carry mass with their closed-form
    masses, allocation, then inverse-CDF draws within each cell.

    Each cell's n_k draws carry coefficient eta * m_k/n_k (eta when signed).
    The stored scale is v * (terms/m) so that evaluation, which divides by
    the stored term count, reproduces the v/m normalization of the estimator
    regardless of how many terms the allocation produced.
    """
    _check_build_args(rep, m, target)
    if rep.v == 0.0:
        return _combination(rep.s, target, 0.0, (), (), (), ())
    plan, pieces = _occupied_plan(rep, epsilon)
    alloc = allocate(plan, int(m), mode, seed=seed)
    gen = _rng.stream(seed, _rng.ATOMS)
    rows, eta, t, a = _conditional_draws(gen, rep, alloc, pieces, alloc.n_draw)
    coeffs = alloc.m_alloc[rows] / alloc.n_draw[rows] * eta
    v_stored = rep.v * rows.size / float(m)
    return _combination(rep.s, target, v_stored, coeffs, eta, a, t)


# --- inner-weight sparsifier ---

MAX_M0 = int(np.iinfo(np.int64).max)  # the largest count numpy's multinomial draws


@dataclass(frozen=True)
class SparsifierConfig:
    m0: int
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.m0, (int, np.integer)) or not 1 <= self.m0 <= MAX_M0:
            raise UsageError(f"inner budget m0 must be an integer in [1, {MAX_M0}], "
                             f"got {self.m0}")


def sparsify(c: RidgeCombination, cfg: SparsifierConfig) -> RidgeCombination:
    """Replace each inner vector by an average of m0 signed basis draws.

    Draw coordinates with probability |a(j)|, each carrying the fixed sign
    sgn(a(j)); the multinomial counts divided by m0 give an unbiased vector
    with at most m0 nonzero entries and unit l1 norm.  Signs, thresholds,
    coefficients, the scale, and the affine/quadratic parts are untouched.
    """
    if not c.term_count:
        return c
    rowsum = np.abs(c.A).sum(axis=1)
    if np.any(np.abs(rowsum - 1.0) > 1e-12):
        raise UsageError("sparsify requires every inner vector to have unit l1 norm")
    gen = _rng.stream(cfg.seed, _rng.SPARSIFY)
    absA = np.abs(c.A) / rowsum[:, None]
    # put each row's largest probability last so the remainder category absorbs
    # float slack in the multinomial's per-row sums
    perm = np.argsort(absA, axis=1, kind="stable")
    counts_p = gen.multinomial(cfg.m0, np.take_along_axis(absA, perm, axis=1))
    counts = np.empty_like(counts_p)
    np.put_along_axis(counts, perm, counts_p, axis=1)
    newA = _force_unit_l1(np.sign(c.A) * counts / float(cfg.m0))
    return RidgeCombination.from_arrays(c.d, c.s, c.b0, c.a0, c.A0, c.v,
                                        c.coef, c.sign, newA, c.t)


def build_sparse(rep: IntegralRepresentation, m: int, m0: int, target: TargetFunction,
                 seed: int = 0) -> RidgeCombination:
    """i.i.d. build followed by inner-weight sparsification with budget m0."""
    dense = build_iid(rep, m, target, seed=seed)
    return sparsify(dense, SparsifierConfig(m0=int(m0), seed=seed))


# --- config plumbing ---

def default_epsilon(m: int, d: int, mode: str) -> float:
    """Sweep schedule for the cell diameter: matches the rate-optimal choices."""
    if mode == "signed":
        return float(m) ** (-1.0 / (d + 2))
    if mode == "fractional":
        return float(m) ** (-1.0 / d)
    raise UsageError(f"mode must be 'signed' or 'fractional', got {mode!r}")


def stratified_epsilon(epsilon, m: int, d: int, mode: str) -> float:
    """A stratified build's cell diameter: epsilon, or default_epsilon for "auto" or None."""
    if epsilon is None or epsilon == "auto":
        return default_epsilon(m, d, mode)
    return float(epsilon)


def build_from_config(rep: IntegralRepresentation, target: TargetFunction,
                      config: dict) -> RidgeCombination:
    """Dispatch on {method, m, epsilon?, mode?, m0?, seed}."""
    cfg = dict(config)
    method = cfg.pop("method", None)
    m = cfg.pop("m", None)
    seed = cfg.pop("seed", 0)
    epsilon = cfg.pop("epsilon", None)
    mode = cfg.pop("mode", "fractional")
    m0 = cfg.pop("m0", None)
    if cfg:
        raise UsageError(f"unknown builder config keys: {sorted(cfg)}")
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise UsageError(f"builder config needs a positive integer m, got {m}")
    if method == "iid":
        return build_iid(rep, m, target, seed=seed)
    if method == "stratified":
        return build_stratified(rep, m, stratified_epsilon(epsilon, m, rep.d, mode), mode,
                                target, seed=seed)
    if method == "sparse":
        if m0 is None or m0 == "auto":
            m0 = math.ceil(math.sqrt(m))
        return build_sparse(rep, m, int(m0), target, seed=seed)
    raise UsageError(f"unknown build method {method!r}")
