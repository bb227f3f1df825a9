"""Sine families, codeword packings, and the packing-count curve."""

import math

import numpy as np
import pytest

from ridgecomb import (
    UsageError,
    binary_entropy,
    family_gram,
    family_scale_epsilon,
    packing_lower_curve,
    pairwise_distance,
    select_packing,
    sine_family,
)
from ridgecomb.packing import BINARY_ENTROPY_QUARTER
from ridgecomb.quadrature import uniform_cube_rule


class TestSineFamily:
    def test_enumeration_count(self):
        assert sine_family(2, 2).size == 4
        assert sine_family(4, 2).size == 16
        assert sine_family(4, 1).size == 4

    def test_norm_formula_for_one_one(self):
        fam = sine_family(2, 2)
        i = int(np.flatnonzero((fam.thetas == [1.0, 1.0]).all(axis=1))[0])
        assert fam.norms[i] == pytest.approx(1.0 / (16.0 * math.sqrt(2.0) * math.pi))

    def test_size_guard(self):
        with pytest.raises(UsageError):
            sine_family(101, 3)

    def test_gram_certifies_orthonormality_scalings(self):
        fam = sine_family(2, 2)
        G = family_gram(fam)
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() <= 1e-8
        assert np.abs(np.sqrt(np.diag(G)) - fam.norms).max() <= 1e-8

    def test_specific_cross_pair_orthogonal(self):
        fam = sine_family(2, 2)
        i = int(np.flatnonzero((fam.thetas == [1.0, 1.0]).all(axis=1))[0])
        j = int(np.flatnonzero((fam.thetas == [2.0, 1.0]).all(axis=1))[0])
        assert abs(family_gram(fam)[i, j]) <= 1e-8


class TestPairwiseDistance:
    def test_identical_codewords(self):
        fam = sine_family(2, 2)
        w = np.array([1, 0, 1, 0])
        assert pairwise_distance(fam, w, w) == 0.0

    def test_single_flip_gives_norm_over_size(self):
        fam = sine_family(2, 2)
        w = np.array([0, 0, 0, 0])
        for i in range(4):
            w2 = w.copy()
            w2[i] = 1
            assert pairwise_distance(fam, w, w2) == pytest.approx(
                fam.norms[i] / fam.size)

    def test_closed_form_matches_quadrature(self):
        # five random codeword pairs, closed form vs tensor quadrature
        fam = sine_family(2, 2)
        pts, wq = uniform_cube_rule(2, 41)
        gen = np.random.default_rng(17)
        for _ in range(5):
            w1 = gen.integers(0, 2, size=4)
            w2 = gen.integers(0, 2, size=4)
            f1 = fam.codeword_batch(w1, pts)
            f2 = fam.codeword_batch(w2, pts)
            quad = math.sqrt(float(np.sum(wq * (f1 - f2) ** 2)))
            assert abs(quad - pairwise_distance(fam, w1, w2)) <= 1e-8

    def test_codeword_validation(self):
        fam = sine_family(2, 2)
        with pytest.raises(UsageError):
            pairwise_distance(fam, np.array([1, 0, 2, 0]), np.zeros(4))
        with pytest.raises(UsageError):
            pairwise_distance(fam, np.zeros(3), np.zeros(4))


class TestSelectPacking:
    def test_sixteen_member_family_reaches_four(self):
        fam = sine_family(4, 2)
        ps = select_packing(fam, 4, seed=0)
        assert ps.size >= 4 and not ps.shortfall
        assert ps.min_distance >= ps.separation_bound
        assert ps.separation_bound == pytest.approx(
            0.5 * fam.norms.min() / math.sqrt(fam.size))

    def test_deterministic_given_seed(self):
        fam = sine_family(4, 2)
        a = select_packing(fam, 4, seed=5)
        b = select_packing(fam, 4, seed=5)
        assert np.array_equal(a.codewords, b.codewords)

    def test_tiny_family_rejected(self):
        with pytest.raises(UsageError):
            select_packing(sine_family(1, 1), 2)
        with pytest.raises(UsageError):
            select_packing(sine_family(4, 2), 1)

    def test_unreachable_target_flags_shortfall(self):
        fam = sine_family(2, 2)
        ps = select_packing(fam, 500, seed=0, trial_budget=200)
        assert ps.shortfall
        assert ps.size < 500


class TestLowerCurve:
    def test_explicit_formula_value(self):
        eps, d = 0.01, 2
        q = 2.0 * d / (4.0 + d)
        want = (math.log(2.0) * (1.0 - BINARY_ENTROPY_QUARTER)
                * (8.0 * eps * math.sqrt(2.0) * math.pi * d**2) ** (-q) - 1.0)
        assert packing_lower_curve(eps, d) == pytest.approx(want, rel=1e-15)

    def test_curve_increases_as_epsilon_shrinks(self):
        vals = [packing_lower_curve(eps, 2) for eps in (0.1, 0.05, 0.01, 0.001)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_family_count_consistency_at_matched_scale(self):
        # the guaranteed codeword count dominates the curve at the family's
        # own separation scale, for R = 4 in one dimension
        R, d = 4, 1
        eps = family_scale_epsilon(R, d)
        count_form = 2.0 ** ((1.0 - BINARY_ENTROPY_QUARTER) * R**d - 1.0)
        assert count_form >= math.exp(packing_lower_curve(eps, d)) - 1e-9

    def test_entropy_constant(self):
        assert abs(binary_entropy(0.25) - BINARY_ENTROPY_QUARTER) <= 1e-15
        assert binary_entropy(0.5) == pytest.approx(1.0)
        assert binary_entropy(0.0) == 0.0
        with pytest.raises(UsageError):
            binary_entropy(1.5)
