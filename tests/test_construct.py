"""Builders: i.i.d., stratified, and the inner-weight sparsifier."""

import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from ridgecomb import (
    BuilderError,
    RidgeAtom,
    RidgeCombination,
    SparsifierConfig,
    SpectralMeasure,
    UsageError,
    allocate,
    atom_sup_distance,
    build_from_config,
    build_iid,
    build_simplified,
    build_sparse,
    build_stratified,
    default_epsilon,
    estimate_masses,
    exact_sine_masses,
    exact_sine_representation,
    l2_error,
    linf_error,
    partition_parameters,
    sample_atom_arrays,
    sparsify,
    spectral_representation,
    target_of,
)
from ridgecomb import construct
from ridgecomb.construct import (
    MAX_CELLS,
    _conditional_draws,
    _empty_plan,
    _magnitude_vectors,
    _occupied_plan,
    _threshold_pieces,
    stratified_geometry,
)
from ridgecomb.quadrature import tensor_grid
from ridgecomb.spectral import threshold_law


def two_atom_measure() -> SpectralMeasure:
    return SpectralMeasure(
        omegas=np.array([[1.0, 0.5], [-0.7, 1.3]]),
        mags=np.array([0.8, 0.5]),
        phases=np.array([0.4, -1.1]),
    )


@functools.lru_cache(maxsize=None)
def layout_plan(d, s):
    """A full partition with a few thousand to a few tens of thousands of cells."""
    return partition_parameters(d, s, {1: 0.3, 2: 0.7, 3: 0.9, 4: 2.0}[d])


class TestPartition:
    def test_d1_half_epsilon_count(self):
        # 2 signs x 2 direction signs x 8 threshold bins
        plan = partition_parameters(1, 2, 0.5)
        assert plan.M == 32

    def test_d2_counts_grow_like_inverse_square(self):
        counts = {}
        for eps in (0.5, 0.25, 0.125):
            plan = partition_parameters(2, 2, eps)
            assert plan.M == 8 * math.ceil(4.0 / eps) ** 2
            counts[eps] = plan.M * eps**2
        vals = list(counts.values())
        assert max(vals) / min(vals) <= 4.0

    @pytest.mark.parametrize("d,s,eps", [(1, 2, 0.3), (2, 2, 0.7), (3, 2, 0.9),
                                         (2, 3, 0.5), (1, 3, 0.25)])
    def test_diameter_bound_strictly_below_epsilon(self, d, s, eps):
        plan = partition_parameters(d, s, eps)
        assert plan.diameter_bound < eps

    def test_codes_sorted_and_unique(self):
        plan = partition_parameters(2, 2, 0.5)
        assert np.all(np.diff(plan.code) > 0)

    def test_representatives_live_in_their_own_cells(self):
        plan = partition_parameters(2, 2, 0.25)
        eta, t, a = plan.representatives()
        rows = plan.rows_of_codes(plan.membership_codes(eta, t, a))
        assert np.array_equal(rows, np.arange(plan.M))

    def test_sampled_atoms_are_always_members(self):
        for rep in (exact_sine_representation((2,)),
                    spectral_representation(two_atom_measure(), 2)):
            plan = partition_parameters(rep.d, rep.s, 0.25)
            eta, t, a = sample_atom_arrays(rep, 4000, seed=2)
            rows = plan.rows_of_codes(plan.membership_codes(eta, t, a))
            assert np.all(rows >= 0)

    @pytest.mark.parametrize("s", [2, 3])
    def test_same_cell_pairs_are_close(self, s):
        # every sampled pair sharing a cell sits within the diameter bound,
        # whose order-s Lipschitz factor atom_sup_distance shares
        rep = spectral_representation(two_atom_measure(), s)
        eps = 0.5
        plan = partition_parameters(2, s, eps)
        eta, t, a = sample_atom_arrays(rep, 3000, seed=6)
        rows = plan.rows_of_codes(plan.membership_codes(eta, t, a))
        order = np.argsort(rows, kind="stable")
        worst = 0.0
        for row in np.unique(rows):
            idx = order[np.searchsorted(rows[order], [row, row + 1])[0]:
                        np.searchsorted(rows[order], [row, row + 1])[1]][:20]
            for i in range(idx.size):
                u = RidgeAtom(sign=int(eta[idx[i]]), a=a[idx[i]],
                              t=float(t[idx[i]]), s=s)
                for j in range(i + 1, idx.size):
                    w = RidgeAtom(sign=int(eta[idx[j]]), a=a[idx[j]],
                                  t=float(t[idx[j]]), s=s)
                    worst = max(worst, atom_sup_distance(u, w))
        assert worst < eps

    @given(d=st.integers(min_value=1, max_value=4), s=st.sampled_from([2, 3]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(derandomize=True, deadline=None, max_examples=40)
    def test_codes_decode_to_the_atoms_digits(self, d, s, seed):
        plan = layout_plan(d, s)
        gen = np.random.default_rng(seed)
        n = 200
        eta = gen.choice([-1, 1], n)
        a = gen.standard_normal((n, d)) * (gen.random((n, d)) < 0.8)  # some exact zeros
        a[np.abs(a).sum(axis=1) == 0, 0] = -1.0
        a /= np.abs(a).sum(axis=1, keepdims=True)
        # uniform thresholds, the ends of [0, 1] and the bin edges
        t = np.concatenate([gen.random(n - plan.n_t - 1), [0.0, 1.0],
                            np.arange(1, plan.n_t) * plan.delta_t])
        rows = plan.rows_of_codes(plan.membership_codes(eta, t, a))
        assert np.all(rows >= 0)
        assert np.array_equal(plan.eta[rows], eta)
        assert np.array_equal(plan.sigma[rows], np.where(a >= 0, 1, -1))
        kmag = np.minimum(np.floor(np.abs(a[:, :-1]) / plan.delta_a), plan.n_a - 1)
        assert np.array_equal(plan.kmag[rows], kmag)
        assert np.array_equal(plan.tbin[rows], plan.bins(t))

    def test_epsilon_validation_and_size_guard(self):
        with pytest.raises(UsageError):
            partition_parameters(1, 2, 0.0)
        with pytest.raises(UsageError):
            partition_parameters(3, 2, 0.004)  # cell count blows past the cap

    def test_size_guard_runs_before_the_magnitude_grid(self):
        # the n_a^(d-1) grid here would take 309 GiB; the count of its rows does not
        with pytest.raises(UsageError, match="choose a larger epsilon"):
            partition_parameters(4, 2, 0.004)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_magnitude_count_equals_the_filtered_grid(self, d):
        # off-grid epsilons and ones at which 1 / delta_a is an integer, so that
        # sums land on the 1 + 1e-9 boundary; every grid here fits in memory
        lo = {1: 0.01, 2: 0.01, 3: 0.05, 4: 0.25}[d]
        for s in (2, 3):
            lip = 1.0 if s == 2 else 2.0
            per_delta_a = {1: 4.0, 2: 4.0, 3: 6.4, 4: 9.6}[d] * lip  # epsilon / delta_a
            for eps in [*np.geomspace(lo, 4.0, 15), *(per_delta_a / np.arange(2, 40))]:
                if eps < lo:
                    continue
                plan = _empty_plan(d, s, eps)
                kmag = tensor_grid(np.arange(plan.n_a), d - 1)
                want = int(np.count_nonzero(kmag.sum(axis=1) * plan.delta_a <= 1.0 + 1e-9))
                assert _magnitude_vectors(plan) == want, (s, eps)


# name -> (measure or sine-ridge theta, order s, epsilon)
CLOSED_FORM_CASES = {
    "sine-d1-s2": ((1,), 2, 0.25),
    "spectral-d1-s3": (([[2.5]], [1.0], [0.3]), 3, 0.3),
    "spectral-d2-s2": (([[1.0, 0.5], [-0.7, 1.3]], [0.8, 0.5], [0.4, -1.1]), 2, 0.5),
    "spectral-d2-s3": (([[1.0, 0.5], [-0.7, 1.3]], [0.8, 0.5], [0.4, -1.1]), 3, 0.7),
    # omega and 2 omega share a direction, so their components share cells
    "parallel-d3-s2": (([[1.0, -2.0, 0.5], [2.0, -4.0, 1.0]], [0.6, 0.3], [0.9, -0.4]), 2, 1.2),
    "parallel-d3-s3": (([[1.0, -2.0, 0.5], [2.0, -4.0, 1.0]], [0.6, 0.3], [0.9, -0.4]), 3, 2.0),
    # a threshold bin spans three arcs, so one of its cells gathers two
    "coarse-d1-s2": ((5,), 2, 2.0),
    "coarse-d2-s3": (([[6.0, -4.0]], [1.0], [1.2]), 3, 6.0),
}


def closed_form_case(name):
    spec, s, eps = CLOSED_FORM_CASES[name]
    if len(spec) == 1:
        rep = exact_sine_representation(spec)
        return (rep if s == 2 else spectral_representation(rep.measure, s)), eps
    omegas, mags, phases = spec
    meas = SpectralMeasure(omegas=np.array(omegas), mags=np.array(mags),
                           phases=np.array(phases))
    return spectral_representation(meas, s), eps


def truncated_law_cdf(rep, plan, row):
    """CDF of a cell's conditional threshold law, by a fine trapezoid rule on
    the representation's sign rule and |trig| density."""
    lo = plan.tbin[row] * plan.delta_t
    hi = min(lo + plan.delta_t, 1.0)
    t = np.linspace(lo, hi, 20001)
    dens = np.zeros_like(t)
    for e in range(rep.c.size):
        a_e = rep.dirs[e][None]
        mid = [(lo + hi) / 2]
        if plan.rows_of_codes(plan.membership_codes([plan.eta[row]], mid, a_e))[0] != row:
            continue
        u = rep.c[e] * t + rep.ph[e]
        trig = np.cos(u) if rep.s == 2 else np.sin(u)
        eta = -np.where(trig >= 0, 1, -1) if rep.s == 2 else np.where(trig >= 0, 1, -1)
        total = integrate.quad(lambda v: abs(np.cos(v) if rep.s == 2 else np.sin(v)),
                               rep.ph[e], rep.ph[e] + rep.c[e], limit=200)[0]
        dens += np.where(eta == plan.eta[row], np.abs(trig), 0.0) * rep.probs[e] / total
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(t))])
    return lambda x: np.interp(x, t, cum / cum[-1])


class TestMasses:
    def test_exact_masses_normalized(self):
        for theta in ((1,), (2,), (1, 1)):
            rep = exact_sine_representation(theta)
            plan = exact_sine_masses(partition_parameters(rep.d, 2, 0.25), rep)
            assert plan.L.min() >= 0.0
            assert plan.L.sum() == pytest.approx(1.0, abs=1e-12)

    def test_estimated_masses_agree_with_exact(self):
        rep = exact_sine_representation((1,))
        base = partition_parameters(1, 2, 0.25)
        exact = exact_sine_masses(base, rep)
        est = estimate_masses(base, rep, seed=3, n=2 * 10**5)
        assert np.abs(est.L - exact.L).max() < 4e-3

    @pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
    def test_closed_form_masses_match_monte_carlo(self, case):
        rep, eps = closed_form_case(case)
        base = partition_parameters(rep.d, rep.s, eps)
        exact = exact_sine_masses(base, rep)
        assert exact.L.min() >= 0.0
        assert abs(exact.L.sum() - 1.0) <= 1e-12
        n = 2 * 10**5
        est = estimate_masses(base, rep, seed=5, n=n)
        se = np.sqrt(exact.L * (1.0 - exact.L) / n)
        assert np.all(np.abs(est.L - exact.L) <= 5.0 * se + 1e-12)


def planned_masses(masses):
    """A d=1 plan with its cell masses overridden, for allocation tests."""
    masses = np.asarray(masses, dtype=float)
    eps = 4.0 / (masses.size / 4.0) if masses.size >= 4 else 4.5
    plan = partition_parameters(1, 2, min(eps, 4.5))
    assert plan.M == masses.size
    return replace(plan, L=masses / masses.sum())


class TestAllocation:
    def test_point_mass_gives_everything_to_one_cell(self):
        L = np.zeros(32)
        L[11] = 1.0
        alloc = allocate(planned_masses(L), 40, "signed", seed=0)
        assert alloc.M == 1  # zero-mass cells are dropped
        assert int(alloc.m_alloc[0]) == 40

    def test_signed_counts_sum_to_budget_with_floor_ceil_marginals(self):
        rep = exact_sine_representation((1,))
        plan = exact_sine_masses(partition_parameters(1, 2, 0.25), rep)
        for seed in range(20):
            alloc = allocate(plan, 64, "signed", seed=seed)
            assert int(alloc.m_alloc.sum()) == 64
            mL = 64 * alloc.L
            assert np.all(
                (alloc.m_alloc == np.floor(mL)) | (alloc.m_alloc == np.ceil(mL))
            )
            assert int(alloc.n_draw.sum()) <= 64 + plan.M
            # signed mode draws exactly m_k atoms per cell, so exactly m in all
            assert np.array_equal(alloc.n_draw, alloc.m_alloc)
            assert int(alloc.n_draw.sum()) == 64

    def test_signed_mean_matches_proportionate_share(self):
        # E[m_k] = m L_k, checked over 1e4 allocations at 3 standard errors
        rep = exact_sine_representation((2,))
        plan = exact_sine_masses(partition_parameters(1, 2, 0.5), rep)
        m, runs = 32, 10**4
        acc = None
        sq = None
        for r in range(runs):
            alloc = allocate(plan, m, "signed", seed=r)
            if acc is None:
                acc = np.zeros(alloc.M)
                sq = np.zeros(alloc.M)
            acc += alloc.m_alloc
            sq += alloc.m_alloc**2
        mean = acc / runs
        var = sq / runs - mean**2
        se = np.sqrt(np.maximum(var, 0.0) / runs)
        keep_L = plan.L[plan.L > 0]
        dev = np.abs(mean - m * keep_L)
        assert np.all(dev <= 3 * se + 1e-9)

    def test_fractional_counts_cover_the_shares(self):
        rep = exact_sine_representation((1,))
        plan = exact_sine_masses(partition_parameters(1, 2, 0.25), rep)
        alloc = allocate(plan, 100, "fractional")
        assert np.all(alloc.n_draw >= 1)
        assert np.all(alloc.m_alloc / alloc.n_draw <= 1.0 + 1e-12)
        assert int(alloc.n_draw.sum()) <= 100 + plan.M

    @given(
        m=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=10**6),
        raw=st.lists(st.floats(min_value=1e-6, max_value=1.0),
                     min_size=4, max_size=32),
    )
    @settings(derandomize=True, deadline=None, max_examples=100)
    def test_budget_inequality_on_random_cases(self, m, seed, raw):
        # sum n_k <= m + M in 100 random (plan, m) cases, both modes
        masses = np.zeros(32)
        masses[: len(raw)] = raw
        plan = planned_masses(masses)
        for mode in ("signed", "fractional"):
            alloc = allocate(plan, m, mode, seed=seed)
            assert int(alloc.n_draw.sum()) <= m + plan.M

    def test_mass_preconditions(self):
        plan = partition_parameters(1, 2, 0.5)
        with pytest.raises(UsageError):
            allocate(plan, 10, "signed")  # no masses yet
        bad = replace(plan, L=np.full(plan.M, 2.0 / plan.M))
        with pytest.raises(UsageError):
            allocate(bad, 10, "signed")
        good = exact_sine_masses(plan, exact_sine_representation((1,)))
        with pytest.raises(UsageError):
            allocate(good, 10, "middle")


class TestIidBuilder:
    def test_single_term_build(self):
        rep = exact_sine_representation((1,))
        comb = build_iid(rep, 1, target_of(rep), seed=0)
        assert comb.term_count == 1
        assert comb.v == 1.0
        assert abs(comb.terms[0][0]) == 1.0

    def test_same_seed_reproduces(self):
        rep = spectral_representation(two_atom_measure(), 3)
        tgt = target_of(rep)
        c1 = build_iid(rep, 32, tgt, seed=5)
        c2 = build_iid(rep, 32, tgt, seed=5)
        assert c1.to_json_dict() == c2.to_json_dict()

    def test_mc_error_envelope_at_fixed_m(self):
        # mean L2 error over 20 seeds within the 3 v / sqrt(m) envelope
        rep = exact_sine_representation((1, 1))
        tgt = target_of(rep)
        m = 256
        errs = [l2_error(tgt, build_iid(rep, m, tgt, seed=seed))
                for seed in range(20)]
        assert float(np.mean(errs)) <= 3.0 * rep.v / math.sqrt(m)

    def test_constant_target_collapses_to_intercept(self):
        meas = SpectralMeasure(omegas=np.array([[0.0, 0.0]]),
                               mags=np.array([1.5]), phases=np.array([0.0]))
        rep = spectral_representation(meas, 2)
        tgt = target_of(rep)
        comb = build_iid(rep, 16, tgt, seed=0)
        assert comb.term_count == 0
        assert l2_error(tgt, comb) == pytest.approx(0.0, abs=1e-15)

    def test_simplified_constant_target(self):
        meas = SpectralMeasure(omegas=np.array([[0.0, 0.0]]),
                               mags=np.array([1.5]), phases=np.array([0.0]))
        tgt = target_of(spectral_representation(meas, 2))
        comb = build_simplified(meas, 2, 16, tgt, seed=0)
        assert comb.term_count == 0
        pts = np.array([[0.2, -0.9], [0.0, 0.0]])
        assert np.allclose(comb.evaluate_batch(pts), 1.5)

    def test_simplified_error_comparable_to_plain(self):
        meas = two_atom_measure()
        rep = spectral_representation(meas, 2)
        tgt = target_of(rep)
        errs = [l2_error(tgt, build_simplified(meas, 2, 128, tgt, seed=s))
                for s in range(8)]
        # v doubles under the folded sampler, so allow its envelope
        assert float(np.mean(errs)) <= 3.0 * 2 * (2 * rep.v) / math.sqrt(128)


def threshold_pieces_per_component(plan, rep):
    """Reference for _threshold_pieces: the same pieces, one component at a
    time, then stably sorted by cell code."""
    law = threshold_law(rep.s)
    t_edges = np.minimum(np.arange(plan.n_t + 1) * plan.delta_t, 1.0)
    parts = []
    for e in range(rep.probs.size):
        u_edges = rep.c[e] * t_edges + rep.ph[e]
        u_lo, u_hi = u_edges[0], u_edges[-1]
        k = np.arange(math.floor((u_lo - law.zero) / np.pi) - 1,
                      math.floor((u_hi - law.zero) / np.pi) + 3)
        zeros = law.zero + k * np.pi
        k_first = int(k[np.argmax(zeros > u_lo)])
        zeros = zeros[(zeros > u_lo) & (zeros < u_hi)]
        pts = np.concatenate([u_edges, zeros])
        label = np.concatenate([np.arange(u_edges.size),
                                np.searchsorted(u_edges, zeros, side="right") - 1])
        order = np.argsort(pts, kind="stable")
        pts = pts[order]
        ua, ub = pts[:-1], pts[1:]
        tbin = np.minimum(label[order][:-1], plan.n_t - 1)
        arc = k_first - 1 + np.cumsum(order >= u_edges.size)[:-1]
        eta = law.sign(law.zero + (arc + 0.5) * np.pi)
        mass = np.where(ub > ua, np.maximum(law.F(ub) - law.F(ua), 0.0), 0.0)
        mass *= rep.probs[e] / (law.F(u_hi) - law.F(u_lo))
        code = plan.cell_codes(eta, rep.dirs[[e]], tbin)
        keep = mass > 0
        parts.append((code[keep], np.full(keep.sum(), e), ua[keep], ub[keep], mass[keep]))
    cols = tuple(np.concatenate(col) for col in zip(*parts))
    order = np.argsort(cols[0], kind="stable")
    return tuple(col[order] for col in cols)


def codes_by_unique(plan, dirs):
    """Reference for the cell enumerator: np.unique over every (cell, bin) code."""
    n = dirs.shape[0]
    first = plan.cell_codes(np.repeat(np.array([-1, 1]), n), np.vstack([dirs, dirs]), 0)
    return np.unique(first[:, None] + np.arange(plan.n_t))


@st.composite
def spectra(draw):
    """Spectra of d = 1..4 and J <= 30: on multiples of pi/2 with phases in
    {0, +-pi/2, pi}, so that law zeros land on bin edges, or off the grid."""
    d = draw(st.integers(min_value=1, max_value=4))
    J = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    gen = np.random.default_rng(seed)
    if draw(st.booleans()):
        omegas = gen.integers(-4, 5, size=(J, d)) * (np.pi / 2)
        phases = gen.choice([0.0, np.pi / 2, -np.pi / 2, np.pi], size=J)
    else:
        omegas = gen.normal(0.0, 3.0, size=(J, d))
        phases = gen.uniform(-np.pi, np.pi, size=J)
    omegas, first = np.unique(omegas, axis=0, return_index=True)
    assume(np.abs(omegas).sum() > 0)
    return SpectralMeasure(omegas, gen.uniform(0.1, 1.0, size=first.size), phases[first])


class TestOneArrayPass:
    @given(meas=spectra(), s=st.sampled_from([2, 3]),
           epsilon=st.floats(min_value=0.03, max_value=2.0))
    @settings(derandomize=True, deadline=None, max_examples=150)
    def test_pieces_equal_the_per_component_loop(self, meas, s, epsilon):
        rep = spectral_representation(meas, s)
        plan = stratified_geometry(rep, epsilon)
        got = _threshold_pieces(plan, rep)
        want = threshold_pieces_per_component(plan, rep)
        assert len(got) == len(want) == 5
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
    def test_closed_form_cases_equal_the_per_component_loop(self, case):
        rep, eps = closed_form_case(case)
        for plan in (stratified_geometry(rep, eps), stratified_geometry(rep, eps / 4)):
            want = threshold_pieces_per_component(plan, rep)
            for x, y in zip(_threshold_pieces(plan, rep), want):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    @given(meas=spectra(), s=st.sampled_from([2, 3]),
           epsilon=st.floats(min_value=0.03, max_value=2.0))
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_occupied_cells_are_the_runs_of_the_pieces(self, meas, s, epsilon):
        # one cell per distinct piece code, each among the codes both signs
        # of the directions reach, each with positive mass
        rep = spectral_representation(meas, s)
        plan, pieces = _occupied_plan(rep, epsilon)
        assert plan.code.tobytes() == np.unique(pieces[0]).tobytes()
        assert np.all(np.isin(plan.code, codes_by_unique(plan, rep.dirs)))
        assert np.all(plan.L > 0) and abs(plan.L.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("s", [2, 3])
    def test_partition_codes_equal_unique_over_every_code(self, d, s):
        plan = layout_plan(d, s)
        kmag = tensor_grid(np.arange(plan.n_a), d - 1)
        kmag = kmag[kmag.sum(axis=1) * plan.delta_a <= 1.0 + 1e-9]
        mags = np.column_stack([(kmag + 0.5) * plan.delta_a, np.ones(kmag.shape[0])])
        signs = 2.0 * np.array(list(itertools.product([0, 1], repeat=d))) - 1.0
        dirs = (signs[:, None, :] * mags).reshape(-1, d)
        assert plan.code.tobytes() == codes_by_unique(plan, dirs).tobytes()

    def test_shared_directions_share_cells(self):
        # omega and 2 omega have one direction, so 2J = 4 components reach
        # the cells of 2 directions, and both frequencies' pieces share cells
        rep, eps = closed_form_case("parallel-d3-s2")
        plan, (code, comp, _, _, _) = _occupied_plan(rep, eps)
        reach = codes_by_unique(plan, rep.dirs)
        assert reach.size == 2 * 2 * plan.n_t
        assert np.all(np.isin(plan.code, reach))
        assert np.intersect1d(code[comp == 0], code[comp == 2]).size > 0

    def test_cell_cap_counts_both_signs_of_every_direction(self):
        # sine-ridge:1 has 2 components: 4 x n_t cells at most
        rep = exact_sine_representation((1,))
        n_t_at_cap = MAX_CELLS // 4
        eps = 4.0 / (n_t_at_cap - 0.5)  # delta_t = eps / 4 just above 1 / n_t_at_cap
        assert 2 * rep.dirs.shape[0] * stratified_geometry(rep, eps).n_t == 4 * n_t_at_cap
        over = 4.0 / (n_t_at_cap + 0.5)
        with pytest.raises(UsageError, match="choose a larger epsilon"):
            stratified_geometry(rep, over)
        with pytest.raises(UsageError, match="choose a larger epsilon"):
            build_stratified(rep, 16, over, "signed", target_of(rep))

    @pytest.mark.parametrize("theta", [10**7, 99999999999999999999])
    def test_threshold_pieces_over_the_cap_are_refused(self, theta):
        # the law's zeros: about 2 theta on sin(pi theta x)'s two components,
        # over MAX_CELLS at 1e7 and past int64 at 1e20
        rep = exact_sine_representation((theta,))
        for build in (lambda: stratified_geometry(rep, 0.1),
                      lambda: build_stratified(rep, 16, 0.1, "signed", target_of(rep))):
            with pytest.raises(UsageError, match="threshold pieces"):
                build()
        # about 2e6 zeros at 1e6 are under the cap: the geometry is theta's alone
        under = stratified_geometry(exact_sine_representation((10**6,)), 0.1)
        assert under.n_t == stratified_geometry(exact_sine_representation((1,)), 0.1).n_t

    @given(meas=spectra(), s=st.sampled_from([2, 3]),
           scale=st.floats(min_value=1.0, max_value=4.0))
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_occupied_cells_are_the_partition_cells_with_mass(self, meas, s, scale):
        # epsilons at which the full partition has at most a few tens of thousands of cells
        rep = spectral_representation(meas, s)
        eps = scale * {1: 0.02, 2: 0.3, 3: 0.9, 4: 2.0}[rep.d]
        plan, _ = _occupied_plan(rep, eps)
        full = exact_sine_masses(partition_parameters(rep.d, s, eps), rep)
        assert plan.code.tobytes() == full.code[full.L > 0].tobytes()
        assert np.abs(plan.L - full.L[full.L > 0]).max() <= 1e-15

    def test_one_pieces_pass_per_build(self, monkeypatch):
        calls = []
        real = construct._threshold_pieces

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(construct, "_threshold_pieces", counted)
        builds = 0
        for case in sorted(CLOSED_FORM_CASES):
            rep, eps = closed_form_case(case)
            for mode in ("signed", "fractional"):
                build_stratified(rep, 64, eps / 4, mode, target_of(rep), seed=1)
                builds += 1
                assert len(calls) == builds


class TestStratifiedBuilder:
    def test_fractional_coefficients_within_unit_interval(self):
        rep = exact_sine_representation((1,))
        comb = build_stratified(rep, 64, 1.0 / 8, "fractional", target_of(rep), seed=3)
        B = np.array([b for b, _ in comb.terms])
        assert np.all(np.abs(B) <= 1.0 + 1e-12)

    def test_signed_coefficients_are_signs(self):
        rep = exact_sine_representation((1,))
        comb = build_stratified(rep, 64, 1.0 / 8, "signed", target_of(rep), seed=3)
        B = np.array([b for b, _ in comb.terms])
        assert set(np.unique(np.abs(B))) == {1.0}
        assert comb.term_count == 64

    def test_term_count_and_scale_bookkeeping(self):
        rep = exact_sine_representation((2,))
        m, eps = 64, 0.25
        comb = build_stratified(rep, m, eps, "fractional", target_of(rep), seed=1)
        M = partition_parameters(1, 2, eps).M
        assert m <= comb.term_count <= m + M
        assert comb.v == pytest.approx(rep.v * comb.term_count / m)
        # evaluation scale v/terms therefore equals the estimator's v/m
        assert comb.outer_scale == pytest.approx(rep.v / m)

    def test_single_cell_per_sign_reduces_to_plain_sampling(self):
        # epsilon past the parameter diameter: threshold and magnitude bins
        # collapse, leaving only the 2 x 2 sign product
        rep = exact_sine_representation((1,))
        plan = partition_parameters(1, 2, 4.5)
        assert plan.M == 4
        comb = build_stratified(rep, 64, 4.5, "fractional", target_of(rep), seed=2)
        assert 64 <= comb.term_count <= 64 + 4
        err = l2_error(target_of(rep), comb)
        assert err <= 3.0 * rep.v / math.sqrt(64)

    def test_closed_form_path_for_spectral_representations(self):
        rep = spectral_representation(two_atom_measure(), 2)
        tgt = target_of(rep)
        comb = build_stratified(rep, 32, 0.5, "fractional", tgt, seed=4)
        assert comb.term_count >= 32
        assert l2_error(tgt, comb) < l2_error(tgt, build_iid(rep, 1, tgt, seed=4))

    @pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
    def test_conditional_draws_land_in_their_own_cells(self, case):
        rep, eps = closed_form_case(case)
        plan, pieces = _occupied_plan(rep, eps / 4)
        plan = allocate(plan, 64, "fractional")
        need = np.full(plan.M, 50)
        rows, eta, t, a = _conditional_draws(np.random.default_rng(1), rep, plan, pieces, need)
        assert np.array_equal(rows, np.repeat(np.arange(plan.M), 50))
        assert np.array_equal(eta, plan.eta[rows])
        assert np.array_equal(plan.rows_of_codes(plan.membership_codes(eta, t, a)), rows)

    @pytest.mark.parametrize("case", ["parallel-d3-s3", "coarse-d1-s2", "coarse-d2-s3",
                                      "spectral-d1-s3"])
    def test_conditional_thresholds_follow_the_truncated_law(self, case):
        # KS test in the three heaviest cells, 4000 draws each, level 0.001
        rep, eps = closed_form_case(case)
        plan, pieces = _occupied_plan(rep, eps)
        plan = allocate(plan, 64, "fractional")
        heavy = np.argsort(plan.L)[-3:]
        need = np.zeros(plan.M, dtype=np.int64)
        need[heavy] = 4000
        rows, _, t, _ = _conditional_draws(np.random.default_rng(2), rep, plan, pieces, need)
        for row in heavy:
            cdf = truncated_law_cdf(rep, plan, row)
            assert stats.kstest(t[rows == row], cdf).pvalue > 1e-3

    def test_fine_sine_ridge_plan_builds(self):
        # eps = 1/1024 leaves cells of sliver mass next to the |sin| zeros
        rep = exact_sine_representation((1,))
        tgt = target_of(rep)
        comb = build_stratified(rep, 1024, 1.0 / 1024, "fractional", tgt, seed=0)
        assert 1024 <= comb.term_count <= 1024 + _occupied_plan(rep, 1.0 / 1024)[0].M

    def test_paired_sup_error_beats_iid(self):
        # epsilon = m^(-1/3): stratified mean sup error under iid's at every m
        rep = exact_sine_representation((1,))
        tgt = target_of(rep)
        seeds = range(20)
        for m in (64, 256, 1024):
            eps = float(m) ** (-1.0 / 3.0)
            iid = np.mean([
                linf_error(tgt, build_iid(rep, m, tgt, seed=s)) for s in seeds
            ])
            strat = np.mean([
                linf_error(tgt, build_stratified(rep, m, eps, "fractional", tgt, seed=s))
                for s in seeds
            ])
            assert strat < iid

    def test_fractional_build_is_unbiased_pointwise(self):
        # average 200 independent builds; studentized deviation <= 4 everywhere
        rep = exact_sine_representation((1,))
        tgt = target_of(rep)
        pts = np.linspace(-1.0, 1.0, 10)[:, None]
        vals = np.stack([
            build_stratified(rep, 16, 0.25, "fractional", tgt, seed=s)
            .evaluate_batch(pts)
            for s in range(200)
        ])
        truth = tgt.evaluate_batch(pts)
        dev = np.abs(vals.mean(axis=0) - truth)
        se = vals.std(axis=0, ddof=1) / np.sqrt(vals.shape[0])
        assert np.all(dev <= 4 * se + 1e-15)


class TestSparsifier:
    def test_one_sparse_rows_pass_through_unchanged(self):
        rep = exact_sine_representation((1,))
        tgt = target_of(rep)
        dense = build_iid(rep, 16, tgt, seed=8)
        thin = sparsify(dense, SparsifierConfig(m0=3, seed=8))
        assert thin.to_json_dict() == dense.to_json_dict()

    def test_sparse_build_equals_iid_when_directions_are_basis_vectors(self):
        rep = exact_sine_representation((1,))
        tgt = target_of(rep)
        assert (build_sparse(rep, 32, 4, tgt, seed=9).to_json_dict()
                == build_iid(rep, 32, tgt, seed=9).to_json_dict())

    def test_budget_and_exact_unit_norm(self):
        # at m0 = 6 and d >= 3 rows such as |a| = (1/3, 1/2, 1/6) occur, whose
        # largest entry alone cannot land the rounded l1 sum on 1
        two = spectral_representation(two_atom_measure(), 3)
        for rep, m0 in ((two, 1), (two, 2), (exact_sine_representation((1, 1, 1)), 6),
                        (exact_sine_representation((1, 2, 1, 1)), 6)):
            tgt = target_of(rep)
            thin = build_sparse(rep, 64, m0, tgt, seed=3)
            A = np.stack([at.a for _, at in thin.terms])
            assert int((np.abs(A) > 0).sum(axis=1).max()) <= m0
            assert np.all(np.abs(A).sum(axis=1) == 1.0)

    def test_metadata_preserved_bit_for_bit(self):
        rep = spectral_representation(two_atom_measure(), 3)
        tgt = target_of(rep)
        dense = build_iid(rep, 32, tgt, seed=11)
        thin = sparsify(dense, SparsifierConfig(m0=2, seed=0))
        assert thin.v == dense.v and thin.b0 == dense.b0
        assert np.array_equal(thin.a0, dense.a0)
        assert np.array_equal(thin.A0, dense.A0)
        for (bd, ad), (bt, at) in zip(dense.terms, thin.terms):
            assert bt == bd and at.t == ad.t and at.sign == ad.sign

    def test_signs_never_flip(self):
        gen = np.random.default_rng(14)
        raw = gen.uniform(-1, 1, size=(50, 4))
        raw /= np.abs(raw).sum(axis=1, keepdims=True)
        terms = tuple(
            (1.0, RidgeAtom(sign=1, a=raw[i], t=0.5, s=2)) for i in range(50)
        )
        comb = RidgeCombination(d=4, s=2, b0=0.0, a0=np.zeros(4), A0=None,
                                v=1.0, terms=terms)
        thin = sparsify(comb, SparsifierConfig(m0=3, seed=1))
        for (_, dense_atom), (_, thin_atom) in zip(comb.terms, thin.terms):
            mask = thin_atom.a != 0
            assert np.all(np.sign(thin_atom.a[mask]) == np.sign(dense_atom.a[mask]))

    def test_unbiased_per_coordinate(self):
        # E[sparsified a] = a, 1e5 replicates, 4 standard errors per coordinate
        a = np.array([0.5, -0.3, 0.2])
        atom = RidgeAtom(sign=1, a=a, t=0.5, s=2)
        n = 10**5
        comb = RidgeCombination(d=3, s=2, b0=0.0, a0=np.zeros(3), A0=None,
                                v=1.0, terms=tuple((1.0, atom) for _ in range(n)))
        thin = sparsify(comb, SparsifierConfig(m0=4, seed=2))
        A = np.stack([at.a for _, at in thin.terms])
        mean = A.mean(axis=0)
        se = A.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - a) <= 4 * se)

    def test_projection_variance_bounded_by_one(self):
        gen = np.random.default_rng(3)
        a = gen.uniform(-1, 1, size=5)
        a /= np.abs(a).sum()
        x = gen.uniform(-1, 1, size=5)
        n = 10**4
        comb = RidgeCombination(
            d=5, s=2, b0=0.0, a0=np.zeros(5), A0=None, v=1.0,
            terms=tuple((1.0, RidgeAtom(sign=1, a=a, t=0.5, s=2)) for _ in range(n)),
        )
        thin = sparsify(comb, SparsifierConfig(m0=2, seed=4))
        proj = np.stack([at.a for _, at in thin.terms]) @ x
        assert float(proj.var(ddof=1)) <= 1.0

    def test_rejects_non_unit_rows(self):
        atom = RidgeAtom(sign=1, a=np.array([0.5, 0.3]), t=0.5, s=2)  # l1 = 0.8
        comb = RidgeCombination(d=2, s=2, b0=0.0, a0=np.zeros(2), A0=None,
                                v=1.0, terms=((1.0, atom),))
        with pytest.raises(UsageError):
            sparsify(comb, SparsifierConfig(m0=2))

    def test_an_inner_budget_past_int64_is_refused(self):
        assert SparsifierConfig(m0=2**63 - 1).m0 == 2**63 - 1
        with pytest.raises(UsageError, match="m0"):
            SparsifierConfig(m0=2**63)


class TestConfigBuild:
    def test_auto_epsilon_schedules(self):
        assert default_epsilon(64, 1, "fractional") == pytest.approx(1.0 / 64)
        assert default_epsilon(64, 2, "signed") == pytest.approx(64.0 ** (-0.25))

    def test_dispatch_and_validation(self):
        rep = exact_sine_representation((1,))
        tgt = target_of(rep)
        comb = build_from_config(rep, tgt, {"method": "iid", "m": 8, "seed": 1})
        assert comb.to_json_dict() == build_iid(rep, 8, tgt, seed=1).to_json_dict()
        with pytest.raises(UsageError):
            build_from_config(rep, tgt, {"method": "iid", "m": 8, "bogus": 1})
        with pytest.raises(UsageError):
            build_from_config(rep, tgt, {"method": "annealed", "m": 8})

    def test_stratified_auto_epsilon(self):
        rep = exact_sine_representation((1,))
        tgt = target_of(rep)
        comb = build_from_config(
            rep, tgt,
            {"method": "stratified", "m": 32, "seed": 0, "mode": "fractional",
             "epsilon": "auto"},
        )
        want = build_stratified(rep, 32, default_epsilon(32, 1, "fractional"),
                                "fractional", tgt, seed=0)
        assert comb.to_json_dict() == want.to_json_dict()
