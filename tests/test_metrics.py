"""Error norms, rate fits, and the sanity floor."""

import dataclasses
import functools
import gc
import math
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgecomb import (
    RidgeAtom,
    RidgeCombination,
    SpectralMeasure,
    UsageError,
    build_iid,
    build_sparse,
    build_stratified,
    exact_sine_representation,
    fit_rate,
    l2_error,
    linf_error,
    lower_bound_floor,
    make_affine,
    measure_report,
    measure_reports,
    spectral_representation,
    target_of,
)
from ridgecomb import core, metrics, spectral
from ridgecomb.metrics import (
    _REFINE_TOP,
    _SCAN_LEVELS,
    _SCAN_PASSES,
    _SCAN_SAMPLES,
    _TOP_BLOCK,
    CSV_HEADER,
    DEFAULT_NODES,
    ErrorReport,
    _checked_line,
    _diff_on,
    _scan_refine,
    _top_k,
)
from ridgecomb.quadrature import gauss_lobatto, panel_rule, tensor_grid, uniform_cube_rule
from ridgecomb.spectral import TargetFunction, sine_ridge_measure

# closed form for || sin(pi x)/(4 pi) - x/4 || in L2([-1,1], dx/2):
# (1/2) int (x/4 - sin(pi x)/(4 pi))^2 dx = 1/48 - 3/(32 pi^2)
AFFINE_ONLY_L2 = math.sqrt(1.0 / 48.0 - 3.0 / (32.0 * math.pi**2))


def single_ramp(t: float, a: float = 1.0) -> RidgeCombination:
    atom = RidgeAtom(sign=1, a=np.array([a]), t=t, s=2)
    return RidgeCombination(d=1, s=2, b0=0.0, a0=np.zeros(1), A0=None, v=1.0,
                            terms=((1.0, atom),))


class CombinationMeasure:
    """A measure double whose values are the combination c's, each evaluated
    directly: on rows, on a tensor grid and at a scan level's samples."""

    def __init__(self, c):
        self.c = c

    def evaluate_batch(self, points):
        return self.c.evaluate_batch(points)

    def evaluate_tensor(self, axis):
        return self.c.evaluate_batch(tensor_grid(axis, self.c.d))

    def axis_phases(self, x, ax=None):
        return x.copy()  # the starts themselves

    def evaluate_steps(self, starts, ax, lo, step, n):
        probes = np.repeat(starts, n, axis=0)
        probes[:, ax] = (lo[:, None] + step[:, None] * np.arange(n)).ravel()
        return self.c.evaluate_batch(probes).reshape(len(starts), n)


def comb_target(c):
    """The combination c as a TargetFunction, without a line."""
    A0 = np.zeros((c.d, c.d)) if c.A0 is None else c.A0
    return TargetFunction(d=c.d, b0=c.b0, a0=c.a0, A0=A0, measure=CombinationMeasure(c))


def direct_target(tgt):
    """tgt without its line and without kept values of its own."""
    return dataclasses.replace(tgt, line=None)


def cosine_product(w, c):
    """The target prod_k cos(w_k (x_k - c_k)), from its spectrum of 2^(d-1)
    frequencies (w_1, +-w_2, ..., +-w_d), each of magnitude 2^(1-d)."""
    d = len(w)
    signs = np.hstack([np.ones((2 ** (d - 1), 1)), tensor_grid([1.0, -1.0], d - 1)])
    omegas = signs * w
    return TargetFunction.from_measure(SpectralMeasure(
        omegas=omegas, mags=np.full(len(omegas), 2.0 ** (1 - d)),
        phases=np.angle(np.exp(-1j * (omegas @ c)))))


class TestL2Error:
    def test_matched_constant_is_zero(self):
        rep = exact_sine_representation((1,))
        tgt = target_of(rep)
        exact_affine = make_affine(1, 2, tgt.b0, tgt.a0)
        # the affine part is not the whole target, so this is nonzero ...
        assert l2_error(tgt, exact_affine) > 0.05

    def test_frozen_closed_form_value(self):
        tgt = target_of(exact_sine_representation((1,)))
        affine = make_affine(1, 2, tgt.b0, tgt.a0)
        assert l2_error(tgt, affine) == pytest.approx(AFFINE_ONLY_L2, abs=1e-12)

    def test_node_refinement_agrees_for_smooth_integrands(self):
        tgt = target_of(exact_sine_representation((1, 1)))
        affine = make_affine(2, 2, tgt.b0, tgt.a0)
        assert abs(l2_error(tgt, affine, nodes=64)
                   - l2_error(tgt, affine, nodes=128)) < 1e-10

    @pytest.mark.parametrize("d, m0", [(2, 1), (3, 1), (3, 2)])
    def test_sparse_terms_match_the_uncached_reference(self, d, m0):
        # m0 < d: each support group is summed on its own sub-grid of the rule's
        # axis, in another order than the reference's sum over every node
        rep, tgt = cosine_target(d)
        comb = build_sparse(rep, 16, m0, tgt, seed=5)
        assert comb.inner_sparsity_max == m0 and len(comb._supports) > 1
        assert l2_error(tgt, comb) == pytest.approx(l2_error_uncached(tgt, comb), rel=1e-13)

    def test_d4_tensor_path(self):
        rep = exact_sine_representation((1, 1, 1, 1))
        tgt = target_of(rep)
        comb = build_iid(rep, 32, tgt, seed=0)
        err = l2_error(tgt, comb)
        assert 0.0 < err < 1.0

    def test_d5_unsupported(self):
        # the tensor point sets stop at d = 4 (DEFAULT_NODES), whatever the size
        rep = exact_sine_representation((1, 1, 1, 1, 1))
        tgt = target_of(rep)
        comb = build_iid(rep, 4, tgt, seed=0)
        for measure in (lambda: l2_error(tgt, comb), lambda: linf_error(tgt, comb),
                        lambda: l2_error(tgt, comb, nodes=3), lambda: linf_error(tgt, comb, grid=3),
                        lambda: measure_report(tgt, comb, 4, "iid", 0)):
            with pytest.raises(UsageError, match=r"support d <= 4, got d=5"):
                measure()

    def test_dimension_mismatch(self):
        tgt = target_of(exact_sine_representation((1,)))
        with pytest.raises(UsageError):
            l2_error(tgt, make_affine(2, 2, 0.0, np.zeros(2)))

    def test_distinct_directions_stay_in_bounded_memory(self):
        # 64^3 nodes x 4096 terms would be an 8 GiB matrix if formed at once
        gen = np.random.default_rng(0)
        A = gen.standard_normal((4096, 3))
        A /= np.abs(A).sum(axis=1, keepdims=True)
        terms = tuple((float(b), RidgeAtom(sign=1, a=a, t=float(t), s=2))
                      for b, a, t in zip(gen.uniform(-1, 1, 4096), A, gen.uniform(0, 1, 4096)))
        comb = RidgeCombination(d=3, s=2, b0=0.0, a0=np.zeros(3), A0=None, v=1.0,
                                terms=terms)
        tgt = target_of(exact_sine_representation((1, 1, 1)))
        tracemalloc.start()
        try:
            err = l2_error(tgt, comb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(err) and err > 0.0
        assert peak < 64 * 2**20


def abs_diff(target, comb):
    """|target - comb| at the rows of a (n, d) point array."""
    return lambda points: np.abs(target.evaluate_batch(points) - comb.evaluate_batch(points))


def scan_refine_per_start(fn, pts, spacing):
    """The sup scan one start at a time, one fn(probes, ax, lo, step) call per
    start and level, the probes its samples lo + i step on axis ax: the
    vectorized scan's reference.  spacing is one number or one per start and
    axis."""
    seen = -math.inf
    for x, window in zip(pts.copy(), np.broadcast_to(spacing, pts.shape)):
        for _ in range(_SCAN_PASSES):
            for ax in range(x.size):
                lo = min(max(x[ax] - window[ax], -1.0), 1.0)
                hi = min(max(x[ax] + window[ax], -1.0), 1.0)
                for _ in range(_SCAN_LEVELS):
                    step = (hi - lo) / (_SCAN_SAMPLES - 1)
                    q = np.minimum(lo + step * np.arange(_SCAN_SAMPLES), hi)
                    probes = np.tile(x, (_SCAN_SAMPLES, 1))
                    probes[:, ax] = q
                    v = fn(probes, ax, lo, step)
                    seen = max(seen, float(v.max()))
                    x[ax] = q[int(np.argmax(v))]
                    lo, hi = max(lo, x[ax] - step), min(hi, x[ax] + step)
    return seen


def refinement_cases():
    """(target, combination) pairs on the grouped and the dense evaluation paths."""
    rep = spectral_representation(
        SpectralMeasure(omegas=np.pi / 2 * np.array([[1.0, -2.0, 0.0], [2.0, 1.0, 1.0]]),
                        mags=[0.7, 0.4], phases=[0.3, -2.0]), 3)
    sine = spectral_representation(exact_sine_representation((1, 1)).measure, 3)
    return [
        (target_of(sine), build_iid(sine, 64, target_of(sine), seed=1)),
        (target_of(sine), build_stratified(sine, 16, 0.25, "fractional",
                                           target_of(sine), seed=2)),
        (target_of(rep), build_iid(rep, 16, target_of(rep), seed=3)),
        (target_of(rep), build_sparse(rep, 16, 2, target_of(rep), seed=4)),
    ]


def l2_error_uncached(target, comb):
    """l2_error on a freshly built rule with fresh target values."""
    points, weights = uniform_cube_rule.__wrapped__(target.d, DEFAULT_NODES[target.d], True)
    diff = target.evaluate_batch(points) - comb.evaluate_batch(points)
    return float(np.sqrt(np.sum(weights * diff * diff)))


def default_axis(d):
    """The 1-d Gauss-Lobatto nodes of the default point set, freshly computed."""
    return gauss_lobatto.__wrapped__(DEFAULT_NODES[d])[0]


def default_windows(d, starts):
    """The scan windows of starts (k, d) on the default point set: each
    coordinate's larger distance to a neighbouring node."""
    axis = default_axis(d)
    windows = np.zeros(starts.shape)
    for (i, j), x in np.ndenumerate(starts):
        below, above = axis[axis < x], axis[axis > x]
        windows[i, j] = max(x - below.max() if below.size else 0.0,
                            above.min() - x if above.size else 0.0)
    return windows


def linf_error_uncached(target, comb):
    """linf_error on a freshly built point set, with a full sort and the
    per-start scan, which takes the target's values from its measure's
    factors for each start alone, as linf_error does."""
    d, meas = target.d, target.measure
    mesh = np.meshgrid(*([default_axis(d)] * d), indexing="ij")
    points = np.stack([g.ravel() for g in mesh], axis=1)
    vals = abs_diff(target, comb)(points)
    top = points[np.argsort(vals)[-_REFINE_TOP:]]

    def fn(probes, ax, lo, step):
        f = meas.evaluate_steps(meas.axis_phases(probes[:1], ax), ax, np.array([lo]),
                                np.array([step]), len(probes))[0]
        return np.abs(f - comb.evaluate_batch(probes))

    return max(float(vals.max()), scan_refine_per_start(fn, top, default_windows(d, top)))


def cube_l2(target, comb):
    """l2_error at its default rule, always on the d-dimensional path: the
    target's values through a target without a line."""
    return l2_error(direct_target(target), comb)


def cube_linf(target, comb):
    """linf_error at its default grid, always on the d-dimensional path: the
    target's values through a target without a line."""
    return linf_error(direct_target(target), comb)


def set_max(target, comb):
    """The max of |target - comb| over the default Gauss-Lobatto set, unscanned."""
    n = DEFAULT_NODES[target.d]
    points = uniform_cube_rule(target.d, n, True)[0]
    return float(np.abs(_diff_on(target, comb, ("lobatto", n), points,
                                 gauss_lobatto(n)[0])).max())


def cosine_target(d, s=3):
    """A 2-frequency cosine-sum representation at dimension d and its target."""
    gen = np.random.default_rng(0)
    meas = SpectralMeasure(omegas=np.pi / 2 * gen.integers(-2, 3, size=(2, d)) + 0.5,
                           mags=[0.7, 0.4], phases=[0.3, -2.0])
    rep = spectral_representation(meas, s)
    return rep, target_of(rep)


class TestCachedPointSets:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_errors_equal_the_uncached_reference(self, d):
        rep, tgt = cosine_target(d)
        # every d = 1 pair lies on a line, so there the d-dim path is called directly
        l2, linf = (cube_l2, cube_linf) if d == 1 else (l2_error, linf_error)
        # the first combination fills the target's memo, the second reads it.
        # The kept residual has the polynomial part taken out first, and on the
        # tensor point sets the target's values come from per-axis factors, so
        # the sums run in another order than the reference's
        for seed in (1, 2):
            comb = build_iid(rep, 16, tgt, seed=seed)
            assert l2(tgt, comb) == pytest.approx(l2_error_uncached(tgt, comb), rel=1e-13)
            assert linf(tgt, comb) == pytest.approx(linf_error_uncached(tgt, comb), rel=1e-13)

    def test_points_and_values_are_read_only(self):
        rep, tgt = cosine_target(4)
        measure_report(tgt, build_iid(rep, 8, tgt, seed=0), 8, "iid", 0)
        arrays = [*gauss_lobatto(DEFAULT_NODES[4]), *uniform_cube_rule(4, DEFAULT_NODES[4], True),
                  *tgt._memo.values()]
        # the target's kept residual on the one point set of both norms
        assert len(arrays) == 5
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("d", [3, 4])
    def test_target_is_evaluated_once_per_point_set(self, d, monkeypatch):
        rep, tgt = cosine_target(d)
        sizes, axes, lines = [], [], []
        evaluate, tensor = TargetFunction.evaluate_batch, SpectralMeasure.evaluate_tensor
        steps = SpectralMeasure.evaluate_steps

        def counting(self, points):
            sizes.append(len(points))
            return evaluate(self, points)

        def counting_tensor(self, axis):
            axes.append(len(axis))
            return tensor(self, axis)

        def counting_steps(self, phases, ax, lo, step, n):
            lines.append((phases.shape[1], n))
            return steps(self, phases, ax, lo, step, n)

        monkeypatch.setattr(TargetFunction, "evaluate_batch", counting)
        monkeypatch.setattr(SpectralMeasure, "evaluate_tensor", counting_tensor)
        monkeypatch.setattr(SpectralMeasure, "evaluate_steps", counting_steps)
        for seed in range(20):
            measure_report(tgt, build_iid(rep, 8, tgt, seed=seed), 8, "iid", seed)
        # both norms' one point set from per-axis factors, once, and each scan
        # level's probes from per-axis factors too: no evaluate_batch call
        assert axes == [DEFAULT_NODES[d]]
        assert sizes == []
        assert lines == [(_REFINE_TOP, _SCAN_SAMPLES)] * (20 * _SCAN_PASSES * d * _SCAN_LEVELS)

    def test_the_memo_holds_one_residual_per_point_set(self):
        rep, tgt = cosine_target(3)
        for m in (4, 8):
            for seed in range(3):
                measure_report(tgt, build_sparse(rep, m, 2, tgt, seed=seed), m, "sparse", seed)
                measure_report(tgt, build_iid(rep, m, tgt, seed=seed), m, "iid", seed)
        assert [v.size for v in tgt._memo.values()] == [DEFAULT_NODES[3] ** 3]

    def test_a_nested_keep_returns(self):
        # a compute that keeps another value takes the target's lock again
        _, tgt = cosine_target(2)
        got = []
        worker = threading.Thread(target=lambda: got.append(
            tgt._kept("outer", lambda: tgt._kept("inner", lambda: np.ones(3)) + 1.0)), daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert np.array_equal(got[0], np.full(3, 2.0))
        assert sorted(tgt._memo) == ["inner", "outer"]

    def test_a_sparse_l2_allocates_no_other_full_size_array(self):
        # the difference is the one 64^3 array: the residual is copied into it,
        # each support group's sum is taken from it in place and it is squared
        # in place; the groups' sub-grids hold 64^2 values.  At 64 nodes per
        # axis the term blocks (at most 2^16 entries) stay under a quarter of it
        rep, tgt = cosine_target(3)
        combs = [build_sparse(rep, 16, 2, tgt, seed=seed) for seed in (0, 1)]
        l2_error(tgt, combs[0], nodes=64)  # fills the rule and the residual
        tracemalloc.start()
        try:
            l2_error(tgt, combs[1], nodes=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 64**3 * 8 <= peak < 1.25 * 64**3 * 8

    def test_memo_is_freed_with_its_target(self):
        rep, tgt = cosine_target(2)
        measure_report(tgt, build_iid(rep, 8, tgt, seed=0), 8, "iid", 0)
        refs = [weakref.ref(tgt)] + [weakref.ref(v) for v in tgt._memo.values()]
        assert len(refs) == 2
        del rep, tgt
        gc.collect()
        assert all(r() is None for r in refs)

    def test_threads_sharing_a_target_agree(self, monkeypatch):
        # more threads than cores and a short switch interval, so fills interleave
        rep, tgt = cosine_target(3)
        combs = [build_iid(rep, 8, tgt, seed=seed) for seed in range(4)]
        fills = []
        tensor = SpectralMeasure.evaluate_tensor

        def counting(self, axis):
            fills.append(len(axis) ** 3)
            return tensor(self, axis)

        monkeypatch.setattr(SpectralMeasure, "evaluate_tensor", counting)
        barrier = threading.Barrier(len(combs), timeout=60)

        def measure(comb):
            barrier.wait()
            return l2_error(tgt, comb), linf_error(tgt, comb)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(combs)) as pool:
                futures = [pool.submit(measure, c) for c in combs]
                shared = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert fills == [DEFAULT_NODES[3] ** 3]
        monkeypatch.undo()
        _, fresh = cosine_target(3)
        assert shared == [(l2_error(fresh, c), linf_error(fresh, c)) for c in combs]


class TestLinfError:
    @pytest.mark.parametrize("d, s, m, seed", [(2, 2, 4, 3), (3, 2, 4, 0), (3, 2, 4, 1),
                                               (3, 3, 16, 3)])
    def test_vectorized_scan_matches_per_start_loop(self, d, s, m, seed):
        # pairs whose sup lies off the grid, so every level of the scan counts
        rep, tgt = cosine_target(d, s)
        comb = build_iid(rep, m, tgt, seed=seed)
        fn = abs_diff(tgt, comb)
        grid = uniform_cube_rule(d, DEFAULT_NODES[d], True)[0]
        vals = fn(grid)
        # the best nodes, and two corners, where the window is cut to the cube
        pts = np.vstack([grid[_top_k(vals, 8)], np.full((1, d), -1.0), np.full((1, d), 1.0)])
        windows = default_windows(d, pts)
        got = _scan_refine(fn, pts, windows)
        assert got > vals.max()
        assert got == scan_refine_per_start(lambda probes, *_: fn(probes), pts, windows)

    @pytest.mark.parametrize("case", range(4))
    def test_equals_the_uncached_reference(self, case):
        tgt, comb = refinement_cases()[case]
        # cases 0 and 1 are sine ridges, measured on their line by linf_error,
        # so there the d-dim path is called directly
        linf = cube_linf if case < 2 else linf_error
        assert linf(tgt, comb) == linf_error_uncached(tgt, comb)

    @given(n=st.one_of(st.integers(min_value=1, max_value=400),
                       # past k blocks the block maxima pick the candidates
                       st.integers(min_value=_TOP_BLOCK, max_value=64 * _TOP_BLOCK + 1),
                       st.sampled_from([DEFAULT_NODES[2] ** 2, DEFAULT_NODES[3] ** 3])),
           k=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(derandomize=True, deadline=None, max_examples=100)
    def test_top_k_matches_the_full_sort(self, n, k, seed):
        k = min(k, n)
        gen = np.random.default_rng(seed)
        vals = gen.permutation(n).astype(float)  # distinct, so the k-th value is unique
        assert np.array_equal(_top_k(vals, k), np.argsort(vals)[-k:])
        # with ties (at the k-th value the full sort decides) the set still agrees
        tied = np.floor(vals / 3.0)
        assert set(_top_k(tied, k)) == set(np.argsort(tied)[-k:])
        # the largest values in one block, and in the last partial block
        for lo in (0, max(0, n - k)):
            crowded = vals.copy()
            crowded[lo:lo + k] += n
            assert np.array_equal(_top_k(crowded, k), np.argsort(crowded)[-k:])

    @pytest.mark.parametrize("n", [1000, DEFAULT_NODES[3] ** 3])
    def test_top_k_ties_at_the_kth_value_follow_the_full_sort(self, n):
        # a partial sort picks other rows among equal values than the full sort
        edge = np.zeros(n)
        edge[_TOP_BLOCK - 2:_TOP_BLOCK + 2] = 1.0  # equal values across a block edge
        for vals in (np.zeros(n), np.r_[np.ones(3), np.zeros(n - 3)][::-1], edge):
            for k in (1, 2, 4, 10):
                assert np.array_equal(_top_k(vals, k), np.argsort(vals)[-k:])

    def test_top_k_keeps_a_nan_as_the_full_sort_does(self):
        # np.argsort puts NaN last, so the grid maximum read from the top is NaN
        vals = np.random.default_rng(0).random(DEFAULT_NODES[3] ** 3)
        vals[1000] = np.nan
        top = _top_k(vals, 10)
        assert set(top) == set(np.argsort(vals)[-10:]) and np.isnan(vals[top[-1]])

    def test_identical_pair_is_zero(self):
        c = single_ramp(0.3)
        assert linf_error(comb_target(c), c) == 0.0

    def test_parallel_ramp_pair_hits_threshold_gap(self):
        # sup |(x-0.2)_+ - (x-0.5)_+| = 0.3, attained on [0.5, 1]
        got = linf_error(comb_target(single_ramp(0.2)), single_ramp(0.5))
        assert got == pytest.approx(0.3, abs=1e-6)

    def test_refinement_recovers_off_grid_interior_maximum(self):
        # |sin(pi x)/(4 pi)| peaks at x = +/- 1/2 with value 1/(4 pi); a
        # 19-point grid misses that point, the sup on the ridge line finds it
        tgt = target_of(exact_sine_representation((1,)))
        zero = make_affine(1, 2, 0.0, np.zeros(1))
        got = linf_error(tgt, zero, grid=19)
        assert got == pytest.approx(1.0 / (4 * math.pi), abs=1e-6)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_scan_recovers_off_grid_interior_maximum(self, d):
        # prod_k cos(w_k (x_k - c_k)) peaks at 1 at the interior point c, which
        # lies off the sup grid; the target has no line, so the cube path runs
        c = np.array([0.1234567, -0.3141593, 0.2718282, 0.5772157])[:d]
        w = np.array([3.0, 2.0, 2.5, 1.5])[:d]
        tgt = cosine_product(w, c)
        zero = make_affine(d, 2, 0.0, np.zeros(d))
        assert tgt.line is None
        assert set_max(tgt, zero) < 1.0 - 1e-6
        assert linf_error(tgt, zero) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_scan_recovers_a_maximum_on_a_face(self, d):
        # the last factor peaks outside the cube, at 1.2, so the sup lies on the
        # face x_d = 1 with its other coordinates off the grid: the windows
        # there are cut to the cube
        c = np.array([0.1234567, -0.3141593, 0.2718282, 1.2])[-d:]
        w = np.array([3.0, 2.0, 2.5, 1.0])[-d:]
        tgt = cosine_product(w, c)
        zero = make_affine(d, 2, 0.0, np.zeros(d))
        assert linf_error(tgt, zero) == pytest.approx(math.cos(0.2), abs=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_scan_probes_stay_in_the_cube(self, d):
        # starts on the corners, on a face and inside, with a window wider than
        # the cube on the largest
        gen = np.random.default_rng(d)
        starts = np.vstack([np.full((1, d), -1.0), np.full((1, d), 1.0),
                            np.r_[1.0, np.zeros(d - 1)][None], gen.uniform(-1, 1, (3, d))])
        lo, hi = [], []

        def fn(probes):
            lo.append(probes.min())
            hi.append(probes.max())
            return -np.sum((probes - 0.3) ** 2, axis=1)

        for spacing in (default_windows(d, starts), 0.5, 3.0):
            _scan_refine(fn, starts, spacing)
        assert min(lo) >= -1.0 and max(hi) <= 1.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_scan_makes_a_fixed_number_of_calls(self, d):
        # passes x axes x levels calls, every start's samples in each: 24 at d = 3
        rep, tgt = cosine_target(d)
        comb = build_iid(rep, 16, tgt, seed=0)
        rows = []
        diff = abs_diff(tgt, comb)

        def fn(probes):
            rows.append(probes.shape[0])
            return diff(probes)

        points = uniform_cube_rule(d, DEFAULT_NODES[d], True)[0]
        starts = points[:_REFINE_TOP]
        _scan_refine(fn, starts, default_windows(d, starts))
        assert rows == [_REFINE_TOP * _SCAN_SAMPLES] * (_SCAN_PASSES * d * _SCAN_LEVELS)

    def test_oversized_grid_is_refused_before_it_is_built(self):
        # 100000^3 points would need petabytes; the cap is the tensor L2 rule's
        c = make_affine(3, 2, 0.0, np.zeros(3))
        with pytest.raises(UsageError, match="linf_grid"):
            linf_error(comb_target(c), c, grid=100000)
        with pytest.raises(UsageError, match="l2_nodes"):
            l2_error(comb_target(c), c, nodes=5000)

    def test_sup_dominates_l2(self):
        rep = exact_sine_representation((1, 1))
        tgt = target_of(rep)
        for seed in range(5):
            comb = build_iid(rep, 32, tgt, seed=seed)
            assert linf_error(tgt, comb) >= l2_error(tgt, comb) - 1e-12


def report_bits(rpt):
    """A report's fields, its norms as the bits of the floats."""
    return (rpt.m, rpt.method, rpt.seed, rpt.l2.hex(), rpt.linf.hex(), rpt.terms, rpt.sparsity)


def off_line_combination(tgt, m, seed):
    """m terms in fresh random directions, with the target's polynomial part:
    off the line of any target."""
    gen = np.random.default_rng(seed)
    A = gen.uniform(-1.0, 1.0, size=(m, tgt.d))
    A /= np.abs(A).sum(axis=1, keepdims=True)
    return RidgeCombination.from_arrays(tgt.d, 3, tgt.b0, tgt.a0, tgt.A0, 2.0,
                                        gen.uniform(-1.0, 1.0, m), np.ones(m), A,
                                        gen.uniform(0.0, 1.0, m))


def own_polynomial_part(comb):
    """comb with b0 and a0 of its own, so a batch holding it cannot share one
    polynomial part."""
    return RidgeCombination.from_arrays(comb.d, comb.s, comb.b0 + 0.25, comb.a0[::-1], comb.A0,
                                        comb.v, comb.coef, comb.sign, comb.A, comb.t)


@functools.lru_cache(maxsize=1)
def stacked_batches():
    """(target, cells) batches of (comb, m, method, seed), each mixing pairs
    on the dense and the grouped term sum, on and off a line, with and
    without the builders' polynomial part.  Built once; the tests only read them."""
    rep3, tgt3 = cosine_target(3)
    sine = spectral_representation(sine_ridge_measure((1, 1)), 3)
    tgt_sine = target_of(sine)
    many = spectral_representation(SpectralMeasure(
        omegas=np.random.default_rng(5).normal(0.0, 2.0, size=(12, 2)), mags=np.full(12, 0.1),
        phases=np.linspace(-3.0, 3.0, 12)), 3)
    tgt_many = target_of(many)
    dense = build_iid(rep3, 16, tgt3, seed=1)  # 4 directions: dense below 32 terms
    cube = [(dense, 16, "iid", 1),
            (build_iid(rep3, 64, tgt3, seed=2), 64, "iid", 2),  # grouped
            (build_sparse(rep3, 16, 2, tgt3, seed=3), 16, "sparse", 3),
            (own_polynomial_part(dense), 16, "own", 1),
            (make_affine(3, 3, 0.0, np.zeros(3), np.eye(3)), 1, "affine", 0),
            (build_iid(rep3, 8, tgt3, seed=4), 8, "iid", 4)]
    line = [(build_iid(sine, 16, tgt_sine, seed=5), 16, "iid", 5),
            (off_line_combination(tgt_sine, 12, 6), 12, "hand", 6),
            (build_stratified(sine, 16, 0.25, "fractional", tgt_sine, seed=7), 16,
             "stratified", 7),
            (off_line_combination(tgt_sine, 40, 8), 40, "hand", 8)]
    # twelve frequencies: the last rows of a call are contracted in another order
    frequent = [(build_iid(many, m, tgt_many, seed=seed), m, "iid", seed)
                for m, seed in ((16, 1), (64, 2), (4, 3))]
    # d = 1, s = 2, on its line, up to the 32,772-term stratified build
    ridge = spectral_representation(sine_ridge_measure((3,)), 2)
    tgt_ridge = target_of(ridge)
    d1 = [(build(ridge, m, tgt_ridge, seed=m), m, method, m)
          for m in (2, 64, 4096) for method, build in (("iid", build_iid),
                                                      ("stratified", stratified_build))]
    # on the line, iid, and off it, sparse: both stacked paths in one batch
    cube_line = spectral_representation(sine_ridge_measure((1, 1, 1)), 3)
    tgt_mixed = target_of(cube_line)
    mixed = [cell for m, seed in ((4, 1), (16, 2))
             for cell in ((build_iid(cube_line, m, tgt_mixed, seed=seed), m, "iid", seed),
                          (build_sparse(cube_line, m, 2, tgt_mixed, seed=seed), m, "sparse", seed))]
    tgt_collinear, collinear = collinear_batch()
    return [(tgt3, cube), (tgt_sine, line), (direct_target(tgt_sine), line),
            (tgt_many, frequent), (tgt_ridge, d1), (tgt_mixed, mixed), (tgt_collinear, collinear)]


def stratified_build(rep, m, tgt, seed):
    return build_stratified(rep, m, m ** (-1.0 / rep.d), "fractional", tgt, seed=seed)


def collinear_batch():
    """A d = 2 target of twelve frequencies +-c_j u on one line, and a batch on
    it: a matrix-vector product over the twelve sums the last rows of a call
    in another order than the same rows inside a longer one."""
    u = np.array([1.0, -2.0]) / 3.0
    omegas = np.array([(-1.0) ** j * 0.7 * (j + 1) * u for j in range(12)])
    rep = spectral_representation(SpectralMeasure(
        omegas=omegas, mags=np.linspace(0.3, 0.05, 12), phases=np.linspace(-2.5, 2.9, 12)), 3)
    tgt = target_of(rep)
    cells = [(build_iid(rep, m, tgt, seed=seed), m, "iid", seed)
             for m, seed in ((4, 1), (16, 2), (64, 3), (300, 4))]
    return tgt, cells + [(stratified_build(rep, 16, tgt, seed=5), 16, "stratified", 5)]


class TestStackedScan:
    @pytest.mark.parametrize("case", range(7))
    def test_batches_equal_one_pair_at_a_time(self, case):
        tgt, cells = stacked_batches()[case]
        solo = [report_bits(measure_report(tgt, *cell)) for cell in cells]
        for size in (len(cells), 2, 1):
            got = [report_bits(r) for lo in range(0, len(cells), size)
                   for r in measure_reports(tgt, cells[lo:lo + size])]
            assert got == solo, size
        # and the norms of l2_error and linf_error
        for (comb, *_), (_, _, _, l2, linf, _, _) in zip(cells, solo):
            assert (l2_error(tgt, comb).hex(), linf_error(tgt, comb).hex()) == (l2, linf)

    @pytest.mark.parametrize("case", [0, 3, 5])
    def test_every_probe_value_keeps_its_bits(self, case, monkeypatch):
        # each scan level's values on every pair's rows, stacked and alone:
        # the target's values from factors, the shared polynomial part and
        # each pair's terms are row-independent
        tgt, cells = stacked_batches()[case]
        runs = []
        scan = metrics._scan_maxima

        def recording(along, starts, spacing):
            levels = []
            runs.append(levels)

            def kept(x, ax):
                level = along(x, ax)

                def values(q, step):
                    vals = level(q, step)
                    levels.append(vals.view(np.int64).copy())
                    return vals

                return values

            return scan(kept, starts, spacing)

        monkeypatch.setattr(metrics, "_scan_maxima", recording)
        for cell in cells:
            measure_report(tgt, *cell)
        measure_reports(tgt, cells)
        *alone, stacked = runs
        assert len(alone) == sum(_checked_line(tgt, c) is None for c, *_ in cells)
        assert len(stacked) == _SCAN_PASSES * tgt.d * _SCAN_LEVELS
        for level, vals in enumerate(stacked):
            assert np.array_equal(vals, np.concatenate([run[level] for run in alone]))

    def test_a_measure_target_scans_a_batch_from_factors(self, monkeypatch):
        # one phase pass per axis pass and one factor call per level for the
        # whole batch; the target itself is never called
        rep, tgt = cosine_target(3)
        cells = [(build_iid(rep, 16, tgt, seed=seed), 16, "iid", seed) for seed in range(5)]
        measure_report(tgt, *cells[0])  # keeps the residual on the point set
        phases, steps, single = [], [], []
        axis_phases, evaluate_steps = SpectralMeasure.axis_phases, SpectralMeasure.evaluate_steps
        evaluate = TargetFunction.evaluate_batch

        def counting_phases(self, x, ax=None):
            phases.append(x.shape)
            return axis_phases(self, x, ax)

        def counting_steps(self, theta, ax, lo, step, n):
            steps.append((theta.shape, lo.shape, n))
            return evaluate_steps(self, theta, ax, lo, step, n)

        def counting(self, points):
            single.append(len(points))
            return evaluate(self, points)

        monkeypatch.setattr(SpectralMeasure, "axis_phases", counting_phases)
        monkeypatch.setattr(SpectralMeasure, "evaluate_steps", counting_steps)
        monkeypatch.setattr(TargetFunction, "evaluate_batch", counting)
        measure_reports(tgt, cells)
        starts = _REFINE_TOP * len(cells)
        assert phases == [(starts, 3)] * (_SCAN_PASSES * 3)
        assert steps == [((2, starts), (starts,), _SCAN_SAMPLES)] * (_SCAN_PASSES * 3 * _SCAN_LEVELS)
        assert single == []

    def test_no_pair_makes_an_empty_list(self):
        rep, tgt = cosine_target(2)
        assert measure_reports(tgt, []) == []


class TestScanFactors:
    @pytest.mark.parametrize("family", ["d2", "d3", "d4", "collinear"])
    def test_every_factor_probe_is_near_the_direct_value(self, family, monkeypatch):
        # each level's values from per-axis factors, against evaluate_batch at
        # the samples lo + i step: within 64 eps sum_j mag_j
        if family == "collinear":
            tgt, cells = collinear_batch()
            tgt = direct_target(tgt)  # off its line, so the cube path and the scan run
            combs = [comb for comb, *_ in cells]
        else:
            d = int(family[1])
            combs = []
            for s in (2, 3):
                rep, tgt = cosine_target(d, s)
                combs += [build_iid(rep, 16, tgt, seed=seed) for seed in range(3)]
                combs += [build_sparse(rep, 8, 1, tgt, seed=seed) for seed in range(3)]
        meas = tgt.measure
        bound = 64 * np.finfo(float).eps * meas.mags.sum()
        lines, worst = [], []
        axis_phases, evaluate_steps = SpectralMeasure.axis_phases, SpectralMeasure.evaluate_steps

        def kept_phases(self, x, ax=None):
            if ax is not None:  # not evaluate_batch's own phases
                lines.append(x.copy())
            return axis_phases(self, x, ax)

        def checked_steps(self, phases, ax, lo, step, n):
            vals = evaluate_steps(self, phases, ax, lo, step, n)
            points = np.repeat(lines[-1], n, axis=0)
            points[:, ax] = (lo[:, None] + step[:, None] * np.arange(n)).ravel()
            worst.append(np.max(np.abs(vals.ravel() - self.evaluate_batch(points))))
            return vals

        monkeypatch.setattr(SpectralMeasure, "axis_phases", kept_phases)
        monkeypatch.setattr(SpectralMeasure, "evaluate_steps", checked_steps)
        for comb in combs:  # the target does not depend on s
            measure_report(tgt, comb, 16, "iid", 0)
        assert len(worst) >= len(combs) * _SCAN_PASSES * meas.d * _SCAN_LEVELS
        assert max(worst) <= bound

    @pytest.mark.parametrize("case", [2, 3])
    def test_the_scan_never_reports_below_the_point_set_maximum(self, case):
        tgt, comb = refinement_cases()[case]
        assert linf_error(tgt, comb) >= set_max(tgt, comb)


def line_calls(monkeypatch):
    """The list that gets, for each call of metrics._line_diff, the bits of
    the values it gives, flat."""
    calls = []
    diff = metrics._line_diff

    def recording(target, line, C, k, p):
        vals = diff(target, line, C, k, p)
        calls.append(vals.ravel().view(np.int64).copy())
        return vals

    monkeypatch.setattr(metrics, "_line_diff", recording)
    return calls


class TestStackedLine:
    @pytest.mark.parametrize("case", [1, 4, 5, 6])
    def test_every_line_value_keeps_its_bits(self, case, monkeypatch):
        # each target call of the line norms (the L2's, the edges', each
        # refinement round's) on every pair's rows, stacked and alone: the
        # target's values are row-independent, so one call for all pairs
        # gives each row the bits of its pair alone
        tgt, cells = stacked_batches()[case]
        calls = line_calls(monkeypatch)
        alone = []
        for cell in cells:
            if _checked_line(tgt, cell[0]) is None:
                continue
            measure_report(tgt, *cell)
            alone.append(calls[:])
            calls.clear()
        measure_reports(tgt, cells)
        assert len(calls) == max(len(run) for run in alone)
        for r, vals in enumerate(calls):
            assert np.array_equal(vals, np.concatenate([run[r] for run in alone if len(run) > r])), r

    def test_a_batch_makes_one_target_call_for_the_l2_and_one_per_round(self, monkeypatch):
        tgt, cells = stacked_batches()[6]  # the twelve collinear frequencies
        single = []
        evaluate = TargetFunction.evaluate_batch

        def counting(self, points):
            single.append(len(points))
            return evaluate(self, points)

        monkeypatch.setattr(TargetFunction, "evaluate_batch", counting)
        alone = []
        for cell in cells:
            measure_report(tgt, *cell)
            alone.append(single[:])
            single.clear()
        measure_reports(tgt, cells)
        # the L2, the edges and each round of the pair with the most, each
        # one evaluate_batch call over the rows of every pair still live
        assert max(map(len, alone)) > 3
        assert single == [sum(run[r] for run in alone if len(run) > r)
                          for r in range(max(map(len, alone)))]


class TestLineDensity:
    @pytest.mark.parametrize("u", [np.array([1.0, -2.0]) / 3.0, np.array([1.0, 1.0, 1.0]) / 3.0,
                                   np.array([1.0, -2.0, 1.0]) / 4.0,
                                   np.array([1.0, 3.0, 1.0, 1.0]) / 6.0])
    @given(n=st.integers(min_value=1, max_value=60), offset=st.integers(min_value=0, max_value=9),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(derandomize=True, deadline=None, max_examples=25)
    def test_a_value_has_the_same_bits_alone_and_in_any_batch(self, u, n, offset, seed):
        # one reduction over the cube's corners per value, so a value depends
        # on its own p alone: alone, after `offset` others, and in rows of
        # the L2's nodes per panel
        p = np.random.default_rng(seed).uniform(-1.0, 1.0, size=4 * (offset + n))
        alone = np.array([metrics._density(u, p[i:i + 1])[0] for i in range(p.size)])
        flat = metrics._density(u, p[offset:])
        panels = metrics._density(u, p.reshape(-1, 4)).ravel()
        assert np.array_equal(flat.view(np.int64), alone[offset:].view(np.int64))
        assert np.array_equal(panels.view(np.int64), alone.view(np.int64))


class DuckTarget:
    """A target that is not a TargetFunction: d and an (n, d) evaluate_batch only."""

    def __init__(self, target):
        self.d = target.d
        self._target = target

    def evaluate_batch(self, points):
        if np.ndim(points) != 2:
            raise ValueError("points must be an (n, d) array")
        return self._target.evaluate_batch(points)


class TestKeptResidual:
    @pytest.mark.parametrize("s", [2, 3])
    def test_a_combination_off_the_targets_polynomial_part_is_measured_against_it(self, s):
        # the kept residual has the target's polynomial part taken out; a
        # combination whose part differs, by an ulp or by far, has the
        # difference taken out of its copy
        rep, tgt = cosine_target(3, s)
        comb = build_iid(rep, 16, tgt, seed=0)
        a0 = comb.a0.copy()
        a0[1] = np.nextafter(a0[1], np.inf)
        A0 = None if s == 2 else comb.A0 + 0.25 * np.eye(3)
        for b0, a0, A0 in ((comb.b0, a0, comb.A0), (comb.b0 + 0.5, comb.a0[::-1], A0)):
            off = RidgeCombination.from_arrays(3, s, b0, a0, A0, comb.v,
                                               comb.coef, comb.sign, comb.A, comb.t)
            for c in (comb, off):
                assert l2_error(tgt, c) == pytest.approx(l2_error_uncached(tgt, c), rel=1e-13)
                assert linf_error(tgt, c) == pytest.approx(linf_error_uncached(tgt, c),
                                                           rel=1e-13)
        assert len(tgt._memo) == 1  # both norms' one point set

    def test_a_sweep_computes_each_part_once(self, monkeypatch):
        rep, tgt = cosine_target(3)
        large = []
        polynomial_part = core.polynomial_part

        def counting(points, *args):
            if points.shape[0] > 1000:
                large.append(points.shape[0])
            return polynomial_part(points, *args)

        monkeypatch.setattr(core, "polynomial_part", counting)
        monkeypatch.setattr(spectral, "polynomial_part", counting)
        monkeypatch.setattr(metrics, "polynomial_part", counting)
        for m in (4, 8):
            for seed in range(5):
                measure_report(tgt, build_iid(rep, m, tgt, seed=seed), m, "iid", seed)
        assert large == [DEFAULT_NODES[3] ** 3]


def sine_pair(theta, s, method, m, seed=0):
    """A sine-ridge target at order s and an iid or stratified build of it."""
    rep = spectral_representation(sine_ridge_measure(theta), s)
    tgt = target_of(rep)
    if method == "iid":
        return tgt, build_iid(rep, m, tgt, seed=seed)
    return tgt, build_stratified(rep, m, m ** (-1.0 / len(theta)), "fractional", tgt, seed=seed)


def kink_aware_l2(target, comb, panels=4000, nodes=10):
    """L2 at d = 1 by composite Gauss-Legendre on a fine mesh split at every kink."""
    kinks = np.where(comb.A[:, 0] > 0, comb.t, -comb.t)
    x, w = panel_rule(np.unique(np.r_[np.linspace(-1.0, 1.0, panels + 1), kinks]), nodes)
    diff = target.evaluate_batch(x[:, None]) - comb.evaluate_batch(x[:, None])
    return math.sqrt(float(np.sum(w / 2.0 * diff * diff)))


def tilted(comb, eps=1e-9):
    """comb with its first term's inner vector moved eps off its line, l1 norm kept."""
    A = comb.A.copy()
    A[0, 0] -= math.copysign(eps, A[0, 0])
    A[0, 1] += math.copysign(eps, A[0, 1])
    return RidgeCombination.from_arrays(comb.d, comb.s, comb.b0, comb.a0, comb.A0, comb.v,
                                        comb.coef, comb.sign, A, comb.t)


class TestLinePath:
    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("method", ["iid", "stratified"])
    @pytest.mark.parametrize("m", [2, 64, 4096])
    def test_d1_l2_matches_a_kink_aware_rule(self, s, method, m):
        tgt, comb = sine_pair((3,), s, method, m)
        assert _checked_line(tgt, comb) is not None
        assert l2_error(tgt, comb) == pytest.approx(kink_aware_l2(tgt, comb), rel=1e-9)

    @pytest.mark.parametrize("theta", [(3,), (1, 1), (2, 1), (1, 2, 1)])
    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("method", ["iid", "stratified"])
    def test_sup_is_never_below_the_grid_and_refinement(self, theta, s, method):
        for seed, m in ((0, 4), (1, 16), (2, 64)):
            tgt, comb = sine_pair(theta, s, method, m, seed=seed)
            assert _checked_line(tgt, comb) is not None
            assert linf_error(tgt, comb) >= cube_linf(tgt, comb) * (1.0 - 1e-12)

    @pytest.mark.parametrize("theta", [(1,), (1, 1), (2, 1), (1, 2, 1), (1, 3, 1, 1)])
    @pytest.mark.parametrize("s", [2, 3])
    def test_affine_only_l2_matches_the_tensor_rule(self, theta, s):
        # kink-free, so the tensor rule is exact to rounding and checks the density of u . x
        tgt = target_of(spectral_representation(sine_ridge_measure(theta), s))
        comb = make_affine(tgt.d, s, tgt.b0, tgt.a0, tgt.A0 if s == 3 else None)
        assert _checked_line(tgt, comb) is not None
        points, weights = uniform_cube_rule(tgt.d, 64 if tgt.d <= 3 else 24)
        diff = tgt.evaluate_batch(points) - comb.evaluate_batch(points)
        want = math.sqrt(float(np.sum(weights * diff * diff)))
        assert l2_error(tgt, comb) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("s", [2, 3])
    def test_parallel_cosine_sum_with_mixed_signs(self, s):
        # three frequencies on one line u = (1, -2)/3, one of them pointing the other way
        rep = spectral_representation(SpectralMeasure(
            omegas=[[1.0, -2.0], [-2.0, 4.0], [0.5, -1.0]], mags=[0.5, 0.3, 0.2],
            phases=[0.3, -1.0, 2.0]), s)
        tgt = target_of(rep)
        affine = make_affine(2, s, tgt.b0, tgt.a0, tgt.A0 if s == 3 else None)
        assert l2_error(tgt, affine) == pytest.approx(cube_l2(tgt, affine), rel=1e-10)
        for m in (4, 64):
            for comb in (build_iid(rep, m, tgt, seed=m),
                         build_stratified(rep, m, m**-0.5, "fractional", tgt, seed=m)):
                assert _checked_line(tgt, comb) is not None
                assert linf_error(tgt, comb) >= cube_linf(tgt, comb) * (1.0 - 1e-12)

    def test_pairs_off_a_line_take_the_cube_path(self):
        sparse_rep = spectral_representation(sine_ridge_measure((1, 1, 1)), 3)
        sparse_tgt = target_of(sparse_rep)
        two_freq = spectral_representation(SpectralMeasure(
            omegas=np.array([[1.0, 0.5], [-0.7, 1.3]]), mags=[0.8, 0.5], phases=[0.4, -1.1]), 3)
        sine_tgt, sine_comb = sine_pair((1, 1), 3, "iid", 64)
        pairs = [
            (sparse_tgt, build_sparse(sparse_rep, 64, 2, sparse_tgt, seed=0)),
            (target_of(two_freq), build_iid(two_freq, 64, target_of(two_freq), seed=0)),
            (sine_tgt, tilted(sine_comb)),
        ]
        assert sparse_tgt.line is not None and sine_tgt.line is not None
        for tgt, comb in pairs:
            assert _checked_line(tgt, comb) is None
            assert l2_error(tgt, comb) == cube_l2(tgt, comb)
            assert linf_error(tgt, comb) == cube_linf(tgt, comb)


class TestFitRate:
    def test_exact_decay_recovered(self):
        pts = [(m, 3.0 * m**-1.0) for m in (4, 16, 64, 256)]
        fit = fit_rate(pts)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_errors_have_zero_slope(self):
        fit = fit_rate([(4, 0.5), (16, 0.5), (64, 0.5)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == 1.0

    @given(
        slope=st.floats(min_value=-3.0, max_value=0.5),
        logc=st.floats(min_value=-5.0, max_value=3.0),
    )
    @settings(derandomize=True, deadline=None, max_examples=50)
    def test_power_law_parameters_identified(self, slope, logc):
        pts = [(m, math.exp(logc) * m**slope) for m in (2, 8, 32, 128)]
        fit = fit_rate(pts)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(logc, abs=1e-9)

    def test_nonpositive_errors_dropped_with_warning(self):
        with pytest.warns(UserWarning):
            fit = fit_rate([(4, 1.0), (8, 0.0), (16, 0.5), (64, 0.25)])
        assert fit.n == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_errors_dropped_with_warning(self, bad):
        with pytest.warns(UserWarning, match="non-finite"):
            fit = fit_rate([(4, bad), (8, 0.1), (16, 0.05), (32, 0.025)])
        assert fit.n == 3 and fit.slope == pytest.approx(-1.0, abs=1e-12)
        with pytest.warns(UserWarning), pytest.raises(UsageError, match="3 usable points"):
            fit_rate([(4, bad), (8, 0.1), (16, 0.05)])

    def test_too_few_points_rejected(self):
        with pytest.raises(UsageError):
            fit_rate([(4, 1.0), (8, 0.5)])
        with pytest.raises(UsageError):
            fit_rate([(4, 1.0), (4, 0.9), (4, 0.8)])

    def test_iid_sweep_slope_window(self):
        # 20-seed means across m = 2^4 .. 2^10 track the m^(-1/2) baseline
        rep = exact_sine_representation((1,))
        tgt = target_of(rep)
        pts = []
        for p in range(4, 11):
            m = 2**p
            errs = [l2_error(tgt, build_iid(rep, m, tgt, seed=s))
                    for s in range(20)]
            pts.append((m, float(np.mean(errs))))
        fit = fit_rate(pts)
        assert -0.65 <= fit.slope <= -0.35


class TestLowerBoundFloor:
    def test_monotone_in_m(self):
        vals = [lower_bound_floor(m, 2, 2, 1.0) for m in (2, 8, 32, 128, 512)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_formula_spot_value(self):
        m, d, s = 256, 2, 2
        base = m * d ** (2 * s + 1) * math.log(m * d)
        assert lower_bound_floor(m, d, s, 1.0) == pytest.approx(
            base ** (-(0.5 + s / d)), rel=1e-15)

    def test_argument_validation(self):
        with pytest.raises(UsageError):
            lower_bound_floor(1, 2, 2, 1.0)
        with pytest.raises(UsageError):
            lower_bound_floor(2.5, 2, 2, 1.0)
        with pytest.raises(UsageError):
            lower_bound_floor(16, 2, 4, 1.0)
        with pytest.raises(UsageError):
            lower_bound_floor(16, 2, 2, 0.0)

    def test_floor_sits_below_stratified_errors(self):
        rep = exact_sine_representation((1,))
        tgt = target_of(rep)
        for seed in range(10):
            comb = build_stratified(rep, 64, 0.25, "fractional", tgt, seed=seed)
            err = l2_error(tgt, comb)
            assert err >= lower_bound_floor(64, 1, 2, 1.0)


class TestReport:
    def test_csv_schema_frozen(self):
        assert CSV_HEADER == "m,method,seed,l2,linf,terms,sparsity"

    @pytest.mark.parametrize("pair", ["line", "cube-d2", "affine-d2", "cube-d3", "affine-d3"])
    def test_row_round_trips_through_the_schema(self, pair):
        # a sine ridge on its line, and pairs off any line, measured on one
        # Gauss-Lobatto set (positive weights summing to 1, so l2 <= linf)
        if pair == "line":
            rep = exact_sine_representation((1, 1))
            tgt = target_of(rep)
        else:
            rep, tgt = cosine_target(int(pair[-1]))
        comb = build_iid(rep, 16, tgt, seed=3)
        if pair.startswith("affine"):
            comb = make_affine(tgt.d, 3, tgt.b0, tgt.a0, tgt.A0)
        else:
            assert (_checked_line(tgt, comb) is None) == (pair != "line")
        rpt = measure_report(tgt, comb, 16, "iid", 3)
        fields = rpt.csv_row().split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert (int(fields[0]), fields[1], int(fields[2])) == (16, "iid", 3)
        assert float(fields[3]) == pytest.approx(rpt.l2)
        assert float(fields[4]) == pytest.approx(rpt.linf)
        assert int(fields[5]) == comb.term_count
        assert int(fields[6]) == comb.inner_sparsity_max
        assert rpt.l2 <= rpt.linf

    @pytest.mark.parametrize("theta, d", [((1, 1), 2), (None, 3)])  # on its line, off any
    def test_a_report_checks_the_pair_and_finds_its_pieces_once(self, theta, d, monkeypatch):
        if theta is None:
            rep, tgt = cosine_target(d)
            comb = build_sparse(rep, 16, 2, tgt, seed=3)
        else:
            tgt, comb = sine_pair(theta, 3, "stratified", 16, seed=3)
        calls = []
        for name in ("_checked_line", "_line_pieces"):
            fn = getattr(metrics, name)
            monkeypatch.setattr(metrics, name,
                                lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
        rpt = measure_report(tgt, comb, 16, "sparse", 3)
        want = ["_checked_line"] if theta is None else ["_checked_line", "_line_pieces"]
        assert calls == want
        assert (rpt.l2, rpt.linf) == (l2_error(tgt, comb), linf_error(tgt, comb))

    @pytest.mark.parametrize("d", [2, 3])
    def test_unequal_sizes_take_one_point_set_each(self, d):
        # equal sizes share one Gauss-Lobatto set and one pass; unequal ones
        # measure each norm on its own set, as l2_error and linf_error do
        rep, tgt = cosine_target(d)
        comb = build_sparse(rep, 16, 1, tgt, seed=2)
        rpt = measure_report(tgt, comb, 16, "sparse", 2, l2_nodes=17, linf_grid=25)
        assert rpt.l2 == l2_error(tgt, comb, nodes=17)
        assert rpt.linf == linf_error(tgt, comb, grid=25)
        assert sorted(key[0][1] for key in tgt._memo) == [17, 25]
        shared = measure_report(tgt, comb, 16, "sparse", 2, l2_nodes=25, linf_grid=25)
        assert (shared.l2, shared.linf) == (l2_error(tgt, comb, nodes=25), rpt.linf)
        assert len(tgt._memo) == 2

    @pytest.mark.parametrize("field", ["l2", "linf"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_a_non_finite_or_negative_error_is_refused(self, field, bad):
        fields = dict(m=16, method="iid", seed=3, l2=0.1, linf=0.2, terms=16, sparsity=1)
        with pytest.raises(UsageError, match=f"field {field} must be finite and nonnegative"):
            ErrorReport(**{**fields, field: bad})
        assert ErrorReport(**{**fields, field: 0.0}).csv_row()

    def test_a_target_that_is_not_a_target_function_is_refused(self):
        rep = exact_sine_representation((1, 1))
        tgt = target_of(rep)
        comb = build_iid(rep, 16, tgt, seed=3)
        duck = DuckTarget(tgt)
        for measure in (lambda: l2_error(duck, comb), lambda: linf_error(duck, comb),
                        lambda: measure_report(duck, comb, 16, "iid", 3)):
            with pytest.raises(UsageError, match="must be a TargetFunction, got DuckTarget"):
                measure()

    @pytest.mark.parametrize("theta", [(80000,), (30000, 50000)])
    def test_a_line_rule_over_the_cap_is_refused(self, theta):
        # 4 nodes on each of 2 pi 80000 / 0.1 panels of the line, just over the cap
        tgt = TargetFunction.from_sine_ridge(theta)
        comb = make_affine(tgt.d, 2, tgt.b0, tgt.a0)
        for measure in (lambda: l2_error(tgt, comb), lambda: linf_error(tgt, comb),
                        lambda: measure_report(tgt, comb, 16, "iid", 3)):
            with pytest.raises(UsageError, match="line rule would hold 2.011e"):
                measure()
