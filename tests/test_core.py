"""Atoms, combinations, and their evaluation semantics."""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ridgecomb import core, quadrature
from ridgecomb import (
    CubeDomain,
    RidgeAtom,
    RidgeCombination,
    UsageError,
    atom_sup_distance,
    build_from_config,
    make_affine,
)
from ridgecomb.targets import resolve_target


# tracemalloc peak of one evaluation on the 64^3 rule with a quadratic part:
# 6.0-12.0 MiB measured at m = 4 and 4096, with and without the tensor axis
_EVAL_PEAK_BOUND = 16 * 2**20
# tracemalloc peak of one save of a 32,772-term d = 1 stratified build: 0.4 MiB
# measured, against 15.4 MiB when the file went through to_json_dict
_SAVE_PEAK_BOUND = 8 * 2**20


def unit_atom(sign=1, a=(1.0,), t=0.5, s=2) -> RidgeAtom:
    return RidgeAtom(sign=sign, a=np.array(a, dtype=float), t=t, s=s)


class TestAtomEvaluation:
    def test_ramp_at_threshold_half(self):
        # e1 direction, t = 0.5, x = (1, 0, ..., 0)
        atom = unit_atom(a=(1.0, 0.0, 0.0), t=0.5, s=2)
        assert atom.evaluate(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.5)

    def test_squared_ramp_squares_the_ramp(self):
        atom = unit_atom(a=(1.0, 0.0, 0.0), t=0.5, s=3)
        assert atom.evaluate(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.25)

    def test_threshold_one_kills_everything_on_the_cube(self):
        atom = unit_atom(a=(0.5, 0.5), t=1.0)
        for x in ([1.0, 1.0], [1.0, -1.0], [-0.3, 0.9]):
            assert atom.evaluate(np.array(x)) == 0.0

    def test_sign_flips_output(self):
        plus = unit_atom(sign=1, t=0.2)
        minus = unit_atom(sign=-1, t=0.2)
        x = np.array([0.9])
        assert plus.evaluate(x) == -minus.evaluate(x) == pytest.approx(0.7)

    def test_batch_matches_scalar(self):
        atom = unit_atom(a=(0.6, -0.4), t=0.3, s=3)
        pts = CubeDomain(2).grid(7)
        batch = atom.evaluate_batch(pts)
        for i, x in enumerate(pts):
            assert batch[i] == pytest.approx(atom.evaluate(x))


class TestAtomValidation:
    def test_l1_norm_above_one_rejected(self):
        with pytest.raises(UsageError):
            unit_atom(a=(0.8, 0.3))

    def test_threshold_outside_unit_interval_rejected(self):
        with pytest.raises(UsageError):
            unit_atom(t=1.5)
        with pytest.raises(UsageError):
            unit_atom(t=-0.1)

    def test_bad_sign_and_order(self):
        with pytest.raises(UsageError):
            unit_atom(sign=2)
        with pytest.raises(UsageError):
            RidgeAtom(sign=1, a=np.array([1.0]), t=0.5, s=4)

    def test_weights_are_read_only(self):
        atom = unit_atom(a=(0.5, 0.5))
        with pytest.raises(ValueError):
            atom.a[0] = 99.0

    @given(t=st.floats(min_value=0.0, max_value=1.0))
    @settings(derandomize=True, deadline=None)
    def test_valid_threshold_accepted(self, t):
        assert unit_atom(t=t).t == t


class TestSupDistance:
    def test_identical_atoms_give_zero(self):
        u = unit_atom(a=(0.3, -0.7), t=0.4)
        assert atom_sup_distance(u, u) == 0.0

    def test_opposite_directions_give_two(self):
        u = unit_atom(a=(1.0, 0.0), t=0.4)
        w = unit_atom(a=(-1.0, 0.0), t=0.4)
        assert atom_sup_distance(u, w) == pytest.approx(2.0)

    def test_threshold_shift_bound_is_tight_for_parallel_ramps(self):
        # same direction, t 0.2 vs 0.5: surrogate 0.3 equals the true sup
        u = unit_atom(a=(1.0,), t=0.2)
        w = unit_atom(a=(1.0,), t=0.5)
        assert atom_sup_distance(u, w) == pytest.approx(0.3)
        xs = np.linspace(-1.0, 1.0, 40001)[:, None]
        true_sup = np.abs(u.evaluate_batch(xs) - w.evaluate_batch(xs)).max()
        assert true_sup == pytest.approx(0.3, abs=1e-12)

    def test_sign_mismatch_is_infinite(self):
        u = unit_atom(sign=1)
        w = unit_atom(sign=-1)
        assert atom_sup_distance(u, w) == math.inf

    def test_squared_ramp_doubles_the_bound(self):
        u = unit_atom(a=(1.0,), t=0.2, s=3)
        w = unit_atom(a=(1.0,), t=0.5, s=3)
        assert atom_sup_distance(u, w) == pytest.approx(0.6)

    @given(
        au=st.floats(min_value=-1.0, max_value=1.0),
        aw=st.floats(min_value=-1.0, max_value=1.0),
        tu=st.floats(min_value=0.0, max_value=1.0),
        tw=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_bound_dominates_grid_sup(self, au, aw, tu, tw):
        u = unit_atom(a=(au,), t=tu)
        w = unit_atom(a=(aw,), t=tw)
        xs = np.linspace(-1.0, 1.0, 257)[:, None]
        grid_sup = np.abs(u.evaluate_batch(xs) - w.evaluate_batch(xs)).max()
        assert atom_sup_distance(u, w) >= grid_sup - 1e-12


class TestCombination:
    def test_constant_combination(self):
        c = make_affine(d=3, s=2, b0=2.0, a0=np.zeros(3))
        pts = np.array([[0.1, -0.5, 0.9], [0.0, 0.0, 0.0]])
        assert np.allclose(c.evaluate_batch(pts), 2.0)

    def test_value_at_origin_is_b0(self):
        # thresholds are nonnegative, so every atom vanishes at x = 0
        terms = tuple(
            (1.0, unit_atom(a=(0.4, 0.6), t=t)) for t in (0.0, 0.3, 0.9)
        )
        c = RidgeCombination(d=2, s=2, b0=-1.25, a0=np.zeros(2), A0=None,
                             v=2.0, terms=terms)
        assert c.evaluate(np.zeros(2)) == pytest.approx(-1.25)

    def test_single_ramp_with_unit_scale(self):
        atom = RidgeAtom(sign=1, a=np.array([1.0, 0.0]), t=0.0, s=2)
        c = RidgeCombination(d=2, s=2, b0=0.0, a0=np.zeros(2), A0=None,
                             v=1.0, terms=((1.0, atom),))
        assert c.evaluate(np.array([0.3, 0.8])) == pytest.approx(0.3)

    def test_outer_scale_bookkeeping(self):
        atoms = tuple((1.0, unit_atom(t=0.0)) for _ in range(4))
        c2 = RidgeCombination(d=1, s=2, b0=0.0, a0=np.zeros(1), A0=None,
                              v=3.0, terms=atoms)
        assert c2.outer_scale == pytest.approx(3.0 / 4.0)
        atoms3 = tuple((1.0, unit_atom(t=0.0, s=3)) for _ in range(4))
        c3 = RidgeCombination(d=1, s=3, b0=0.0, a0=np.zeros(1), A0=None,
                              v=3.0, terms=atoms3)
        assert c3.outer_scale == pytest.approx(3.0 / 8.0)

    def test_quadratic_part_only_for_squared_ramps(self):
        A0 = np.array([[1.0, 0.2], [0.2, -0.5]])
        with pytest.raises(UsageError):
            RidgeCombination(d=2, s=2, b0=0.0, a0=np.zeros(2), A0=A0, v=0.0,
                             terms=())
        c = RidgeCombination(d=2, s=3, b0=0.0, a0=np.zeros(2), A0=A0, v=0.0,
                             terms=())
        x = np.array([0.4, -0.6])
        assert c.evaluate(x) == pytest.approx(0.5 * x @ A0 @ x)

    def test_coefficient_magnitude_capped_at_one(self):
        with pytest.raises(UsageError):
            RidgeCombination(d=1, s=2, b0=0.0, a0=np.zeros(1), A0=None, v=1.0,
                             terms=((1.5, unit_atom()),))

    def test_json_round_trip(self, tmp_path):
        terms = (
            (0.75, unit_atom(a=(0.25, -0.75), t=0.125)),
            (-1.0, RidgeAtom(sign=-1, a=np.array([1.0, 0.0]), t=0.5, s=2)),
        )
        c = RidgeCombination(d=2, s=2, b0=0.5, a0=np.array([0.1, -0.2]),
                             A0=None, v=1.75, terms=terms)
        path = tmp_path / "comb.json"
        c.save(path)
        back = RidgeCombination.load(path)
        assert back.d == c.d and back.s == c.s
        assert back.b0 == c.b0 and back.v == c.v
        assert np.array_equal(back.a0, c.a0)
        pts = CubeDomain(2).grid(9)
        assert np.array_equal(back.evaluate_batch(pts), c.evaluate_batch(pts))

    def test_json_round_trip_with_quadratic(self, tmp_path):
        A0 = np.array([[0.3, -0.1], [-0.1, 0.8]])
        c = RidgeCombination(d=2, s=3, b0=0.0, a0=np.zeros(2), A0=A0, v=2.0,
                             terms=((0.5, unit_atom(a=(0.5, 0.5), t=0.2, s=3)),))
        c.save(tmp_path / "c3.json")
        back = RidgeCombination.load(tmp_path / "c3.json")
        assert np.allclose(back.A0, A0)
        pts = CubeDomain(2).grid(5)
        assert np.allclose(back.evaluate_batch(pts), c.evaluate_batch(pts))

    def test_inner_sparsity_max(self):
        terms = (
            (1.0, unit_atom(a=(0.5, 0.5, 0.0), t=0.1)),
            (1.0, unit_atom(a=(1.0, 0.0, 0.0), t=0.1)),
        )
        c = RidgeCombination(d=3, s=2, b0=0.0, a0=np.zeros(3), A0=None, v=1.0,
                             terms=terms)
        assert c.inner_sparsity_max == 2

    @pytest.mark.parametrize("source, key, value", [
        ("document", "b", math.nan),
        ("document", "b", math.inf),
        ("document", "b", 1.5),
        ("document", "sign", 1.5),
        ("document", "sign", True),
        ("document", "sign", 0),
        ("document", "t", "x"),
        ("document", "t", math.nan),
        ("document", "t", 1.25),
        pytest.param("document", "a", ["x", 0.0], id="document-a-text"),
        pytest.param("document", "a", [0.5], id="document-a-short"),
        pytest.param("document", "a", [math.inf, 0.0], id="document-a-inf"),
        pytest.param("document", "a", [0.75, 0.5], id="document-a-l1"),
        ("document", "dim", 2.0),
        ("document", "order", 2.5),
        ("document", "b0", math.nan),
        ("document", "v", math.inf),
        pytest.param("document", "a0", ["x", 0.0], id="document-a0-text"),
        pytest.param("document", "terms", [1.0], id="document-terms-number"),
        ("constructor", "b0", math.nan),
        ("constructor", "b0", math.inf),
        ("constructor", "v", math.nan),
        ("constructor", "v", math.inf),
        ("constructor", "v", -1.0),
        pytest.param("constructor", "terms", ((math.nan, unit_atom(a=(0.5, 0.5))),),
                     id="constructor-terms-b-nan"),
        pytest.param("constructor", "terms", ((1.0, unit_atom(a=(0.5, 0.5), s=3)),),
                     id="constructor-terms-order"),
        pytest.param("constructor", "terms", ((1.0, unit_atom(a=(1.0,))),),
                     id="constructor-terms-dim"),
    ])
    def test_malformed_input_raises_usage_error(self, source, key, value):
        doc = {"version": 1, "dim": 2, "order": 2, "b0": 0.5, "a0": [0.1, -0.2], "v": 1.75,
               "terms": [{"b": 0.75, "sign": -1, "a": [0.25, -0.75], "t": 0.125}]}
        args = {"d": 2, "s": 2, "b0": 0.5, "a0": [0.1, -0.2], "A0": None, "v": 1.75, "terms": ()}
        # the unmodified inputs are accepted
        assert RidgeCombination.from_json_dict(doc).term_count == 1
        assert RidgeCombination(**args).term_count == 0
        if source == "document":
            (doc["terms"][0] if key in ("b", "sign", "a", "t") else doc)[key] = value
            with pytest.raises(UsageError):
                RidgeCombination.from_json_dict(doc)
        else:
            args[key] = value
            with pytest.raises(UsageError):
                RidgeCombination(**args)


def dyadic_combination(s: int, d: int, m: int, layout: str, seed: int) -> RidgeCombination:
    """m terms whose directions, thresholds and grid projections are all exact dyadics.

    layout "equal": one shared direction; "few": a pool of three; "distinct":
    a fresh direction per term.  Atoms carry sign +1 (the coefficient carries
    the sign), and the thresholds include the endpoints 0 and 1 (t = 1 alone
    when m = 1).
    """
    gen = np.random.default_rng(seed)

    def direction():
        counts = gen.multinomial(gen.integers(1, 17), np.full(d, 1.0 / d))
        return counts * gen.choice([-1.0, 1.0], size=d) / 16.0

    pool = [direction() for _ in range({"equal": 1, "few": 3, "distinct": m}[layout])]
    t = gen.integers(0, 129, size=m) / 128.0
    t[0], t[-1] = 0.0, 1.0
    b = gen.uniform(-1.0, 1.0, size=m)
    terms = tuple(
        (float(b[k]), RidgeAtom(sign=1, a=pool[k % len(pool)], t=float(t[k]), s=s))
        for k in range(m)
    )
    return RidgeCombination(d=d, s=s, b0=0.0, a0=np.zeros(d), A0=None, v=1.5, terms=terms)


class TestEvaluationPaths:
    """The grouped (prefix-sum) and blocked dense term sums against the per-atom sum."""

    @given(
        s=st.sampled_from([2, 3]),
        d=st.integers(min_value=1, max_value=4),
        m=st.integers(min_value=1, max_value=40),
        layout=st.sampled_from(["equal", "few", "distinct"]),
        block=st.sampled_from([1, 7, 1 << 16]),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(derandomize=True, deadline=None, max_examples=120)
    def test_grouped_and_dense_match_the_per_atom_sum(self, s, d, m, layout, block, seed):
        c = dyadic_combination(s, d, m, layout, seed)
        # a dyadic grid (spacing 1/8 or 1/2) keeps every projection a.x exact, so many points sit
        # exactly on a threshold; the random points add generic positions
        grid = CubeDomain(d).grid(17 if d <= 2 else 5)
        rand = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(50, d))
        pts = np.vstack([grid, rand])
        outer = c.outer_scale
        naive = sum(b * outer * atom.evaluate_batch(pts) for b, atom in c.terms)
        with mock.patch.object(core, "_DENSE_BLOCK_ELEMS", block):
            dense = outer * core._dense_term_sum(pts, c.A.T, c.t, c.coef[:, None], s == 3)
        grouped = outer * c._grouped_term_sum(pts)
        assert np.max(np.abs(dense - naive)) <= 1e-12
        assert np.max(np.abs(grouped - naive)) <= 1e-12
        assert np.max(np.abs(c.evaluate_batch(pts) - naive)) <= 1e-12

    @given(
        s=st.sampled_from([2, 3]),
        d=st.integers(min_value=1, max_value=3),
        m=st.integers(min_value=1, max_value=40),
        layout=st.sampled_from(["equal", "few", "distinct"]),
        rule=st.sampled_from(["gauss", "uniform"]),
        zero_term=st.booleans(),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(derandomize=True, deadline=None, max_examples=120)
    def test_tensor_path_matches_the_per_atom_sum(self, s, d, m, layout, rule, zero_term, seed):
        # multinomial directions have zero components, so the supports mix
        c = dyadic_combination(s, d, m, layout, seed)
        gen = np.random.default_rng(seed)
        b, A, t = c.coef, c.A, c.t
        if zero_term:  # a = 0: (0 - t)_+^(s-1) is the zero term
            b, A, t = np.append(b, 0.5), np.vstack([A, np.zeros(d)]), np.append(t, 0.0)
        c = RidgeCombination.from_arrays(d, s, 0.25, gen.uniform(-1.0, 1.0, d), None, c.v,
                                         b, np.ones(b.size), A, t)
        n = 17 if d <= 2 else 9
        axis = np.polynomial.legendre.leggauss(n)[0] if rule == "gauss" else np.linspace(-1, 1, n)
        pts = quadrature.tensor_grid(axis, d)
        terms = sum(coef * c.outer_scale * atom.evaluate_batch(pts) for coef, atom in c.terms)
        assert np.max(np.abs(c.evaluate_batch(pts)
                             - (core.polynomial_part(pts, c.b0, c.a0, None) + terms))) <= 1e-12
        tensor = np.zeros(pts.shape[0])
        assert c.subtract_terms(tensor, pts, axis=axis) is tensor
        direct = c.subtract_terms(np.zeros(pts.shape[0]), pts)
        assert max(np.max(np.abs(tensor + terms)), np.max(np.abs(direct + terms))) <= 1e-12
        if np.all(c.A != 0):
            # one full-support group, taken slab by slab in another order
            assert tensor == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize("layout", ["equal", "distinct"])  # grouped, dense
    @pytest.mark.parametrize("m0", [2, 3])
    def test_each_support_group_runs_on_its_own_sub_grid(self, layout, m0):
        gen = np.random.default_rng(m0)
        m = 96  # 3 supports of m0 = 2 coordinates; one of m0 = 3
        supports = [S for S in ([0, 1], [0, 2], [1, 2], [0, 1, 2]) if len(S) == m0]
        # "equal": one direction per support; "distinct": one per term
        keys = np.arange(m) % len(supports) if layout == "equal" else np.arange(m)
        A = np.zeros((m, 3))
        for k in range(m):
            A[k, supports[k % len(supports)]] = np.random.default_rng(keys[k]).uniform(0.1, 1, m0)
        A /= np.abs(A).sum(axis=1, keepdims=True)
        c = RidgeCombination.from_arrays(3, 3, 0.0, np.zeros(3), None, 1.0, gen.uniform(-1, 1, m),
                                         np.ones(m), A, gen.uniform(0.0, 1.0, m))
        axis = np.polynomial.legendre.leggauss(64)[0]
        pts, _ = quadrature.uniform_cube_rule(3, 64)
        rows = []
        dense, grouped = core._dense_tensor_sum, RidgeCombination._grouped_term_sum

        def dense_rows(out, *args):
            rows.append(("dense", out.size))
            return dense(out, *args)

        def grouped_rows(self, points):
            rows.append(("grouped", points.shape[0]))
            return grouped(self, points)

        with mock.patch.object(core, "_dense_tensor_sum", dense_rows), \
                mock.patch.object(RidgeCombination, "_grouped_term_sum", grouped_rows):
            c.subtract_terms(np.zeros(pts.shape[0]), pts, axis=axis)
        kernel = "grouped" if layout == "equal" else "dense"
        assert rows == [(kernel, 64**m0)] * len(supports)

    def test_tensor_points_must_be_the_axis_grid(self):
        c = dyadic_combination(2, 2, 8, "distinct", seed=0)
        axis = np.linspace(-1.0, 1.0, 5)
        for pts in (quadrature.tensor_grid(axis, 2)[:-1], quadrature.tensor_grid(axis[:4], 2)):
            with pytest.raises(UsageError):
                c.subtract_terms(np.zeros(pts.shape[0]), pts, axis=axis)
        with pytest.raises(UsageError):
            pts = quadrature.tensor_grid(axis, 2)
            c.subtract_terms(np.zeros(pts.shape[0]), pts, axis=axis[:, None])

    @pytest.mark.parametrize("comb", ["affine", "terms"])
    def test_subtract_terms_refuses_an_output_it_cannot_update(self, comb):
        c = (make_affine(2, 2, 0.5, [0.1, 0.2]) if comb == "affine"
             else dyadic_combination(2, 2, 8, "few", seed=0))
        pts = CubeDomain(2).grid(5)
        out = c.evaluate_batch(pts)
        c.subtract_terms(out, pts)
        assert out == pytest.approx(core.polynomial_part(pts, c.b0, c.a0, None), abs=1e-15)
        wide = np.zeros(2 * pts.shape[0])
        for bad in (out[:-1], np.append(out, 0.0), out[:, None], wide[::2],
                    np.zeros(pts.shape[0], dtype=int), list(out)):
            with pytest.raises(UsageError):
                c.subtract_terms(bad, pts)

    @pytest.mark.parametrize("m", [4, 4096])  # terms x points blocks, points x terms blocks
    @pytest.mark.parametrize("tensor", [False, True])
    def test_evaluation_memory_is_bounded(self, m, tensor):
        # 4096 terms at 64^3 points would be 8 GiB as one points x terms array
        gen = np.random.default_rng(m)
        A = gen.uniform(-1.0, 1.0, size=(m, 3))
        A /= np.abs(A).sum(axis=1, keepdims=True)
        c = RidgeCombination.from_arrays(3, 3, 0.1, gen.uniform(-1, 1, 3), np.eye(3), 1.0,
                                         gen.uniform(-1, 1, m), np.ones(m), A, gen.uniform(0, 1, m))
        assert c._directions[0].shape[0] == m  # the dense path
        pts, _ = quadrature.uniform_cube_rule(3, 64)
        axis = np.polynomial.legendre.leggauss(64)[0]
        tracemalloc.start()
        try:
            if tensor:
                c.subtract_terms(np.zeros(pts.shape[0]), pts, axis=axis)
            else:
                c.evaluate_batch(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _EVAL_PEAK_BOUND

    @pytest.mark.parametrize("s", [2, 3])
    def test_blocked_grouped_sum_equals_the_unblocked_one(self, s):
        # 60 directions of 10 terms each, on a point count that is not a
        # multiple of the block, summed in blocks and in one pass
        gen = np.random.default_rng(s)
        dirs = gen.uniform(-1.0, 1.0, size=(60, 3))
        dirs /= np.abs(dirs).sum(axis=1, keepdims=True)
        m = 600
        c = RidgeCombination.from_arrays(3, s, 0.0, np.zeros(3), None, 1.0,
                                         gen.uniform(-1.0, 1.0, m), np.ones(m),
                                         np.repeat(dirs, 10, axis=0), gen.uniform(0.0, 1.0, m))
        assert c._grouped
        pts = gen.uniform(-1.0, 1.0, size=(2 * core._GROUPED_BLOCK + 1001, 3))
        blocked = c._grouped_term_sum(pts)
        with mock.patch.object(core, "_GROUPED_BLOCK", pts.shape[0]):
            whole = c._grouped_term_sum(pts)
        assert np.array_equal(blocked, whole)

    def test_path_follows_direction_repetition(self):
        pts = CubeDomain(2).grid(9)
        shared = dyadic_combination(3, 2, 32, "equal", seed=1)
        with mock.patch.object(core, "_dense_term_sum", side_effect=AssertionError):
            shared.evaluate_batch(pts)
        distinct = dyadic_combination(3, 2, 32, "distinct", seed=1)
        with mock.patch.object(RidgeCombination, "_grouped_term_sum", side_effect=AssertionError):
            distinct.evaluate_batch(pts)


class TestPolynomialPart:
    @given(d=st.integers(min_value=1, max_value=4), n=st.integers(min_value=1, max_value=200),
           offset=st.integers(min_value=0, max_value=70), seed=st.integers(min_value=0, max_value=2**16))
    @settings(derandomize=True, deadline=None, max_examples=50)
    def test_a_row_has_the_same_bits_alone_and_in_any_batch(self, d, n, offset, seed):
        # elementwise in a fixed order, so a row's value does not depend on
        # where it sits in a call; the sup scan computes it once for the
        # probes of every pair of a batch
        gen = np.random.default_rng(seed)
        batch = gen.uniform(-1.0, 1.0, size=(offset + n, d))
        a0, A0 = gen.normal(size=d), gen.normal(size=(d, d))
        for quadratic in (None, A0 + A0.T):
            alone = np.concatenate([core.polynomial_part(row[None], 0.3, a0, quadratic)
                                    for row in batch[offset:]])
            got = core.polynomial_part(batch, 0.3, a0, quadratic)[offset:]
            assert np.array_equal(got.view(np.int64), alone.view(np.int64))
            want = 0.3 + batch[offset:] @ a0
            if quadratic is not None:
                want += 0.5 * np.einsum("ij,jk,ik->i", batch[offset:], quadratic, batch[offset:])
            assert np.allclose(got, want, rtol=0.0, atol=1e-13)


class TestDirections:
    @given(
        d=st.integers(min_value=1, max_value=4),
        m=st.integers(min_value=0, max_value=40),
        pool=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(derandomize=True, deadline=None, max_examples=150)
    def test_lexsort_matches_np_unique(self, d, m, pool, seed):
        # rows drawn from a small pool repeat; zeros get random signs, which
        # np.unique counts as equal
        gen = np.random.default_rng(seed)
        rows = gen.choice([0.0, 0.25, -0.25], size=(pool, d))[gen.integers(0, pool, size=m)]
        A = np.where(rows == 0.0, gen.choice([0.0, -0.0], size=rows.shape), rows)
        c = RidgeCombination.from_arrays(d, 2, 0.0, np.zeros(d), None, 1.0,
                                         np.ones(m), np.ones(m), A, np.zeros(m))
        dirs, inverse = c._directions
        want_dirs, want_inverse = np.unique(A, axis=0, return_inverse=True)
        assert dirs.shape == want_dirs.shape and np.array_equal(dirs, want_dirs)
        assert inverse.dtype == want_inverse.dtype
        assert np.array_equal(inverse, want_inverse.ravel())


def _with_signed_zeros(values):
    return st.one_of(st.sampled_from([0.0, -0.0]), values)


@st.composite
def ridge_combinations(draw):
    """Combinations at d = 1-4 and s = 2, 3, with or without A0 and terms.

    Inner vectors and coefficients come from small pools, so they repeat; the
    pools and every scalar field draw 0.0 and -0.0 often.
    """
    d, s = draw(st.integers(1, 4)), draw(st.sampled_from([2, 3]))
    scalar = _with_signed_zeros(st.floats(allow_nan=False, allow_infinity=False))
    b0, a0 = draw(scalar), draw(st.lists(scalar, min_size=d, max_size=d))
    v = draw(st.floats(0.0, 1e6))
    A0 = None
    if s == 3 and draw(st.booleans()):
        A0 = np.zeros((d, d))
        for i, j in zip(*np.triu_indices(d)):
            A0[i, j] = A0[j, i] = draw(_with_signed_zeros(st.floats(-1e6, 1e6)))
    m = draw(st.integers(0, 40))
    if m == 0:
        return make_affine(d, s, b0, a0, A0, v)
    entry = _with_signed_zeros(st.floats(-1.0 / d, 1.0 / d))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=1, max_size=4))
    coefs = draw(st.lists(_with_signed_zeros(st.floats(-1.0, 1.0)), min_size=1, max_size=4))
    terms = draw(st.lists(st.tuples(st.sampled_from(coefs), st.sampled_from([-1, 1]),
                                    st.sampled_from(rows),
                                    _with_signed_zeros(st.floats(0.0, 1.0))),
                          min_size=m, max_size=m))
    coef, sign, A, t = zip(*terms)
    return RidgeCombination.from_arrays(d, s, b0, a0, A0, v, coef, sign, A, t)


class TestSave:
    @given(comb=ridge_combinations(), block=st.sampled_from([1, 3, core._SAVE_BLOCK]))
    @settings(derandomize=True, deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_writes_the_json_encoder_bytes(self, comb, block, tmp_path):
        # small blocks put repeated values in different blocks
        path = tmp_path / "combination.json"
        with mock.patch.object(core, "_SAVE_BLOCK", block):
            comb.save(path)
        assert path.read_bytes() == (json.dumps(comb.to_json_dict()) + "\n").encode()

    def test_signed_zeros_keep_their_own_text(self, tmp_path):
        # np.unique and _directions count -0.0 as 0.0; the encoder writes both
        c = RidgeCombination.from_arrays(
            2, 2, -0.0, [0.0, -0.0], None, 1.0, [0.0, -0.0, 0.0], [1, -1, 1],
            [[0.5, 0.0], [0.5, -0.0], [0.5, 0.0]], [0.25, 0.25, -0.0])
        assert c._directions[0].shape[0] == 1
        path = tmp_path / "combination.json"
        c.save(path)
        text = path.read_text()
        assert text == json.dumps(c.to_json_dict()) + "\n"
        assert text.startswith('{"version": 1, "dim": 2, "order": 2, "b0": -0.0, "a0": [0.0, -0.0]')
        assert ('"terms": [{"b": 0.0, "sign": 1, "a": [0.5, 0.0], "t": 0.25}, '
                '{"b": -0.0, "sign": -1, "a": [0.5, -0.0], "t": 0.25}, '
                '{"b": 0.0, "sign": 1, "a": [0.5, 0.0], "t": -0.0}]}\n') in text

    def test_memory_does_not_grow_with_the_term_count(self, tmp_path):
        target, rep = resolve_target("sine-ridge:3", 2)
        c = build_from_config(rep, target, {"method": "stratified", "m": 4096,
                                            "mode": "fractional", "seed": 3})
        assert c.term_count >= 32768
        path = tmp_path / "combination.json"
        tracemalloc.start()
        try:
            c.save(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _SAVE_PEAK_BOUND
        assert path.read_bytes() == (json.dumps(c.to_json_dict()) + "\n").encode()
