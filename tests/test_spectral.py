"""Spectral measures, samplable representations, and their oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from ridgecomb import quadrature, spectral
from ridgecomb import (
    SpectralMeasure,
    TargetFunction,
    UsageError,
    exact_sine_representation,
    representation_mean,
    sample_atom,
    sample_atom_arrays,
    sample_simplified_arrays,
    spectral_representation,
    target_of,
    v_fs,
    verify_ramp_identity,
    verify_square_identity,
)
from ridgecomb import rng as _rng
from ridgecomb.spectral import (
    _force_unit_l1,
    abs_cos_integral,
    abs_cos_integral_inv,
    abs_sin_integral,
    abs_sin_integral_inv,
    threshold_law,
)


def simplified_by_frequency(meas, s, n, seed=0):
    """Reference simplified sampler: a kept frequency by mag c^s, a uniform
    flip z, t uniform, and the direction z omega / c normalized per draw."""
    moment = v_fs(meas, s)
    if moment == 0.0:
        empty = np.zeros(0)
        return empty, empty, np.zeros((0, meas.d)), 0.0
    gen = _rng.stream(seed, _rng.ATOMS)
    c_all = np.abs(meas.omegas).sum(axis=1)
    keep = np.nonzero(c_all > 0)[0]
    weights = meas.mags[keep] * c_all[keep] ** s
    pick = keep[gen.choice(keep.size, size=n, p=weights / weights.sum())]
    z = 2 * gen.integers(0, 2, size=n) - 1
    t = gen.random(n)
    b = threshold_law(s).g(c_all[pick] * t + z * meas.phases[pick])
    a = _force_unit_l1((z / c_all[pick])[:, None] * meas.omegas[pick])
    return b, t, a, 2.0 * moment


def assert_same_draws(got, want):
    """(b, t, a, v) equal bit for bit, shapes included."""
    for x, y in zip(got, want, strict=True):
        x, y = np.asarray(x), np.asarray(y)
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def two_atom_measure() -> SpectralMeasure:
    return SpectralMeasure(
        omegas=np.array([[1.0, 0.5], [-0.7, 1.3]]),
        mags=np.array([0.8, 0.5]),
        phases=np.array([0.4, -1.1]),
    )


class TestAntiderivatives:
    def test_landmark_values(self):
        assert abs_cos_integral(0.0) == pytest.approx(0.0)
        assert abs_cos_integral(np.pi / 2) == pytest.approx(1.0)
        assert abs_cos_integral(np.pi) == pytest.approx(2.0)
        assert abs_sin_integral(0.0) == pytest.approx(0.0)
        assert abs_sin_integral(np.pi) == pytest.approx(2.0)
        assert abs_sin_integral(2 * np.pi) == pytest.approx(4.0)

    def test_derivative_is_absolute_trig(self):
        u = np.linspace(-7.0, 7.0, 1201)
        h = 1e-6
        # central differences are meaningless within h of the |trig| kinks
        away_sin = np.abs(u / np.pi - np.round(u / np.pi)) * np.pi > 1e-4
        away_cos = np.abs((u - np.pi / 2) / np.pi
                          - np.round((u - np.pi / 2) / np.pi)) * np.pi > 1e-4
        dc = (abs_cos_integral(u + h) - abs_cos_integral(u - h)) / (2 * h)
        ds = (abs_sin_integral(u + h) - abs_sin_integral(u - h)) / (2 * h)
        assert np.abs((dc - np.abs(np.cos(u)))[away_cos]).max() < 1e-7
        assert np.abs((ds - np.abs(np.sin(u)))[away_sin]).max() < 1e-7

    @given(y=st.floats(min_value=-20.0, max_value=20.0))
    @settings(derandomize=True, deadline=None)
    def test_cos_inverse_round_trip(self, y):
        assert abs_cos_integral(abs_cos_integral_inv(y)) == pytest.approx(y, abs=1e-10)

    @given(y=st.floats(min_value=0.0, max_value=40.0))
    @settings(derandomize=True, deadline=None)
    def test_sin_inverse_round_trip(self, y):
        assert abs_sin_integral(abs_sin_integral_inv(y)) == pytest.approx(y, abs=1e-10)


class TestThresholdLaw:
    @given(s=st.sampled_from([2, 3]), u=st.floats(min_value=-40.0, max_value=40.0))
    @settings(derandomize=True, deadline=None)
    def test_sign_is_the_arc_parity(self, s, u):
        # g > 0 on arc 0 and changes sign at each zero, so the stratified
        # builder may read an arc's sign at its midpoint
        law = threshold_law(s)
        arc = math.floor((u - law.zero) / np.pi)
        assume(1e-9 <= (u - law.zero) - arc * np.pi <= np.pi - 1e-9)
        assert (law.g(u) >= 0) == (arc % 2 == 0)
        assert law.sign(u) == (1 if arc % 2 == 0 else -1)
        rep = spectral_representation(two_atom_measure(), s)
        for name in ("js", "zs", "c", "ph", "dirs", "probs"):
            with pytest.raises(ValueError):
                getattr(rep, name)[0] = 0


class TestIdentities:
    def test_ramp_identity_trivial_zero(self):
        assert verify_ramp_identity(0.0, 1.0) < 1e-10

    def test_ramp_identity_spot_values(self):
        assert verify_ramp_identity(1.0, 1.0) <= 1e-8
        assert verify_ramp_identity(-0.7, 2.0) <= 1e-8

    def test_square_identity_trivial_zero(self):
        assert verify_square_identity(np.zeros(2), np.array([1.0, 2.0])) < 1e-10

    def test_square_identity_spot_values(self):
        assert verify_square_identity(np.array([0.5]), np.array([np.pi])) <= 1e-8
        assert verify_square_identity(
            np.array([0.3, -0.4]), np.pi * np.array([1.0, 2.0])
        ) <= 1e-8


class TestSpectralMoment:
    def test_single_atom(self):
        meas = SpectralMeasure(omegas=np.array([[0.5, -1.5]]),
                               mags=np.array([0.7]), phases=np.array([0.0]))
        assert v_fs(meas, 2) == pytest.approx(0.7 * 2.0**2)
        assert v_fs(meas, 3) == pytest.approx(0.7 * 2.0**3)

    def test_sine_of_sum_moment(self):
        # sin(pi(x1+x2)) = sum of two conjugate cosine atoms with mag 1/2
        meas = SpectralMeasure(
            omegas=np.pi * np.array([[1.0, 1.0], [-1.0, -1.0]]),
            mags=np.array([0.5, 0.5]),
            phases=np.array([-np.pi / 2, np.pi / 2]),
        )
        assert v_fs(meas, 2) == pytest.approx(4.0 * np.pi**2)

    def test_doubling_mags_doubles_moment(self):
        meas = two_atom_measure()
        doubled = SpectralMeasure(omegas=meas.omegas, mags=2 * meas.mags,
                                  phases=meas.phases)
        assert v_fs(doubled, 3) == pytest.approx(2 * v_fs(meas, 3))


class TestSpectralMeasure:
    def test_evaluate_is_cosine_sum(self):
        meas = two_atom_measure()
        pts = np.array([[0.2, -0.5], [1.0, 1.0], [0.0, 0.0]])
        direct = sum(
            meas.mags[j] * np.cos(pts @ meas.omegas[j] + meas.phases[j])
            for j in range(2)
        )
        assert np.allclose(meas.evaluate_batch(pts), direct)

    def test_json_round_trip(self, tmp_path):
        meas = two_atom_measure()
        meas.save(tmp_path / "m.json")
        back = SpectralMeasure.load(tmp_path / "m.json")
        assert np.array_equal(back.omegas, meas.omegas)
        assert np.array_equal(back.mags, meas.mags)
        assert np.array_equal(back.phases, meas.phases)

    def test_validation(self):
        with pytest.raises(UsageError):
            SpectralMeasure(omegas=np.array([[1.0]]), mags=np.array([-1.0]),
                            phases=np.array([0.0]))
        with pytest.raises(UsageError):
            SpectralMeasure(omegas=np.array([[1.0]]), mags=np.array([1.0]),
                            phases=np.array([4.0]))  # outside (-pi, pi]
        with pytest.raises(UsageError):
            SpectralMeasure(omegas=np.array([[1.0]]), mags=np.array([1.0]),
                            phases=np.array([np.nan]))
        with pytest.raises(UsageError):
            SpectralMeasure(omegas=np.array([[1.0], [1.0]]),
                            mags=np.array([1.0, 2.0]),
                            phases=np.array([0.0, 0.1]))  # duplicate frequency
        with pytest.raises(UsageError, match="d >= 1"):
            SpectralMeasure(omegas=np.zeros((1, 0)), mags=np.array([1.0]),
                            phases=np.array([0.0]))  # no coordinates


def gaussian_spectrum(J: int, d: int, seed: int = 0) -> SpectralMeasure:
    """J frequencies N(0, 2^2) per coordinate, magnitudes 1/J, uniform phases."""
    gen = np.random.default_rng(seed)
    return SpectralMeasure(omegas=gen.normal(0.0, 2.0, size=(J, d)), mags=np.full(J, 1.0 / J),
                           phases=gen.uniform(-np.pi, np.pi, size=J))


def collinear_spectrum() -> SpectralMeasure:
    """Twelve frequencies +-c_j u on the line u = (1, -2)/3."""
    u = np.array([1.0, -2.0]) / 3.0
    return SpectralMeasure(omegas=np.array([(-1.0) ** j * 0.7 * (j + 1) * u for j in range(12)]),
                           mags=np.linspace(0.3, 0.05, 12), phases=np.linspace(-2.5, 2.9, 12))


# one frequency, the twelve collinear ones and a d = 2 probe-like J = 400
ROW_SPECTRA = {"J1": gaussian_spectrum(1, 3), "collinear": collinear_spectrum(),
               "J400": gaussian_spectrum(400, 2, seed=1)}


class TestBlockedEvaluation:
    @pytest.mark.parametrize("name", list(ROW_SPECTRA))
    @given(n=st.integers(min_value=1, max_value=200), offset=st.integers(min_value=0, max_value=70),
           block=st.integers(min_value=1, max_value=80), seed=st.integers(min_value=0, max_value=2**16))
    @settings(derandomize=True, deadline=None, max_examples=25)
    def test_a_row_has_the_same_bits_alone_and_in_any_batch(self, name, n, offset, block, seed):
        # each row from its own coordinates: the same bits alone, after
        # `offset` other rows, in blocks of `block` rows and unblocked
        meas = ROW_SPECTRA[name]
        gen = np.random.default_rng(seed)
        batch = gen.uniform(-1.0, 1.0, size=(offset + n + 5, meas.d))
        rows = batch[offset:offset + n]
        alone = np.concatenate([meas.evaluate_batch(row[None]) for row in rows])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "_EVAL_BLOCK_ELEMS", 2 * block * meas.size)
            blocked = meas.evaluate_batch(batch)[offset:offset + n]
        whole = meas.evaluate_batch(batch)[offset:offset + n]
        assert np.array_equal(blocked.view(np.int64), alone.view(np.int64))
        assert np.array_equal(whole.view(np.int64), alone.view(np.int64))
        # and the values are the cosine sum's to rounding
        direct = np.cos(rows @ meas.omegas.T + meas.phases) @ meas.mags
        assert np.max(np.abs(alone - direct)) <= 64 * np.finfo(float).eps * meas.mags.sum() * (
            1.0 + np.abs(meas.omegas).sum(axis=1).max())

    def test_peak_memory_stays_bounded_as_the_point_count_grows(self):
        # at J = 2000 an unblocked call on 2^14 points would hold a 256 MiB matrix
        meas = gaussian_spectrum(2000, 3)
        peaks = []
        for n in (2**12, 2**14):
            pts = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, 3))
            tracemalloc.start()
            try:
                vals = meas.evaluate_batch(pts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert vals.shape == (n,) and np.all(np.isfinite(vals))
        assert peaks[1] < 12 * 2**20
        assert peaks[1] - peaks[0] < 2**20  # the output's growth alone


class TestFactoredEvaluation:
    @pytest.mark.parametrize("J", [1, 3, 400, 2000])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rule", ["gauss", "grid"])  # the L2 rule's axis, the sup grid's
    def test_factors_give_the_direct_values(self, d, J, rule):
        axis = np.polynomial.legendre.leggauss(64)[0] if rule == "gauss" else np.linspace(-1, 1, 65)
        self.check_factors(gaussian_spectrum(J, d, seed=J), axis, d)

    @pytest.mark.parametrize("J", [1, 3, 400])
    def test_factors_give_the_direct_values_at_d4(self, J):
        # on the axis of the 27^4 Gauss-Lobatto set that d = 4 pairs are measured on
        self.check_factors(gaussian_spectrum(J, 4, seed=J), quadrature.gauss_lobatto(27)[0], 4)

    @staticmethod
    def check_factors(meas, axis, d):
        vals = meas.evaluate_tensor(axis)
        assert vals.shape == (axis.size**d,)
        # every point up to 2^18 point x frequency pairs, else 2^18 / J of them at random
        rows, J = np.arange(vals.size), meas.size
        if vals.size * J > 2**18:
            rows = np.random.default_rng(d).choice(vals.size, 2**18 // J, replace=False)
        direct = meas.evaluate_batch(quadrature.tensor_grid(axis, d)[rows])
        assert np.max(np.abs(vals[rows] - direct)) <= 1e-13

    def test_peak_memory_stays_bounded_as_the_frequency_count_grows(self):
        axis = np.linspace(-1.0, 1.0, 65)
        peaks = []
        for J in (400, 2000):
            tracemalloc.start()
            try:
                gaussian_spectrum(J, 3).evaluate_tensor(axis)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # blocks of at most 2^20 frequency x point entries; 2000 x 65^2 complex
        # products held at once would take 135 MB
        assert peaks[1] < 64 * 2**20 and peaks[1] < 1.25 * peaks[0]


class TestTargetFunction:
    def test_affine_data_matches_derivatives(self):
        meas = two_atom_measure()
        tgt = TargetFunction.from_measure(meas)
        h = 1e-6
        assert tgt.b0 == pytest.approx(float(meas.evaluate_batch(np.zeros((1, 2)))[0]))
        for i in range(2):
            e = np.zeros((1, 2))
            e[0, i] = h
            fd = (meas.evaluate_batch(e) - meas.evaluate_batch(-e))[0] / (2 * h)
            assert tgt.a0[i] == pytest.approx(fd, abs=1e-6)
        for i in range(2):
            for j in range(2):
                ei = np.zeros(2); ei[i] = h
                ej = np.zeros(2); ej[j] = h
                fd2 = (
                    meas.evaluate_batch((ei + ej)[None])
                    - meas.evaluate_batch((ei - ej)[None])
                    - meas.evaluate_batch((ej - ei)[None])
                    + meas.evaluate_batch((-ei - ej)[None])
                )[0] / (4 * h * h)
                assert tgt.A0[i, j] == pytest.approx(fd2, abs=1e-4)

    def test_sine_ridge_values(self):
        tgt = TargetFunction.from_sine_ridge((1, 1))
        pts = np.array([[0.3, 0.1], [-0.5, 0.5]])
        want = np.sin(np.pi * (pts[:, 0] + pts[:, 1])) / (4 * np.pi * 4)
        assert np.allclose(tgt.evaluate_batch(pts), want)

    def test_line_is_recorded_when_every_frequency_is_parallel(self):
        u, cmax, lip = TargetFunction.from_sine_ridge((1, 2)).line
        assert np.allclose(u, [1 / 3, 2 / 3]) and cmax == pytest.approx(3 * np.pi)
        assert lip == pytest.approx(1 / 12)  # mag * c = 3 pi / (4 pi 9)
        with pytest.raises(ValueError):
            u[0] = 0.0
        # opposite and zero frequencies lie on the line too
        meas = SpectralMeasure(omegas=[[1.0, 2.0], [-2.0, -4.0], [0.0, 0.0]],
                               mags=[0.5, 0.25, 1.0], phases=[0.1, 0.2, 0.3])
        u, cmax, lip = TargetFunction.from_measure(meas).line
        assert np.allclose(u, [1 / 3, 2 / 3]) and cmax == 6.0 and lip == 3.0  # 0.5 * 3 + 0.25 * 6
        off_line = SpectralMeasure(omegas=[[1.0, 2.0], [2.0, 4.0 + 1e-9]], mags=[0.5, 0.25],
                                   phases=[0.1, 0.2])
        constant = SpectralMeasure(omegas=[[0.0, 0.0]], mags=[1.0], phases=[0.0])
        for meas in (two_atom_measure(), off_line, constant):
            assert TargetFunction.from_measure(meas).line is None

    def test_residual_removes_affine_part(self):
        tgt = target_of(exact_sine_representation((2,)))
        pts = np.linspace(-1, 1, 9)[:, None]
        res = tgt.residual_batch(pts, 2)
        want = tgt.evaluate_batch(pts) - tgt.b0 - pts @ tgt.a0
        assert np.allclose(res, want)

    def test_residual_removes_quadratic_for_squared_ramps(self):
        meas = two_atom_measure()
        tgt = TargetFunction.from_measure(meas)
        pts = np.array([[0.4, -0.8], [0.9, 0.9]])
        res = tgt.residual_batch(pts, 3)
        quad = 0.5 * np.einsum("ni,ij,nj->n", pts, tgt.A0, pts)
        want = tgt.evaluate_batch(pts) - tgt.b0 - pts @ tgt.a0 - quad
        assert np.allclose(res, want)


class TestRepresentations:
    def test_exact_sine_is_unit_scale(self):
        rep = exact_sine_representation((1, 1))
        assert rep.v == 1.0
        assert rep.residual_scale == 1.0
        assert rep.s == 2 and rep.d == 2

    def test_theta_validation(self):
        for bad in ((0,), (1, -2), (1.5,), ()):
            with pytest.raises(UsageError):
                exact_sine_representation(bad)

    def test_spectral_scale_within_moment_bound(self):
        meas = two_atom_measure()
        for s in (2, 3):
            rep = spectral_representation(meas, s)
            assert 0 < rep.v <= 2 * v_fs(meas, s) + 1e-9
        rep3 = spectral_representation(meas, 3)
        assert rep3.residual_scale == pytest.approx(rep3.v / 2)

    @pytest.mark.parametrize("omegas", [[[1e308, 1e308]], [[1e200, 3e200], [-2e200, 1e200]]])
    def test_an_overflowing_spectral_norm_is_refused(self, omegas):
        # ||omega||_1 overflows (v is NaN), or c^s does (v is inf)
        meas = SpectralMeasure(omegas=np.array(omegas), mags=np.full(len(omegas), 0.5),
                               phases=np.zeros(len(omegas)))
        for s in (2, 3):
            with pytest.raises(UsageError, match="omega entries are too large"):
                spectral_representation(meas, s)

    def test_constant_measure_has_zero_scale(self):
        meas = SpectralMeasure(omegas=np.array([[0.0, 0.0]]),
                               mags=np.array([2.0]), phases=np.array([0.3]))
        rep = spectral_representation(meas, 2)
        assert rep.v == 0.0
        with pytest.raises(UsageError):
            sample_atom_arrays(rep, 4)


class TestSampling:
    def test_draw_invariants(self):
        for rep in (exact_sine_representation((1, 2)),
                    spectral_representation(two_atom_measure(), 2),
                    spectral_representation(two_atom_measure(), 3)):
            eta, t, a = sample_atom_arrays(rep, 500, seed=9)
            assert np.all((eta == 1) | (eta == -1))
            assert np.all((t >= 0.0) & (t <= 1.0))
            assert np.all(np.abs(a).sum(axis=1) == 1.0)  # exact, by construction

    def test_atom_objects_carry_order_and_dim(self):
        rep = spectral_representation(two_atom_measure(), 3)
        atoms = sample_atom(rep, 8, seed=1)
        assert all(at.s == 3 and at.d == 2 for at in atoms)

    def test_exact_sine_sign_rule(self):
        # eta = -z sgn(sin(pi K t)) with z recoverable from the weight sign
        rep = exact_sine_representation((1,))
        eta, t, a = sample_atom_arrays(rep, 2000, seed=4)
        z = np.sign(a[:, 0])
        want = np.where(np.sin(np.pi * t) >= 0.0, -z, z)
        assert np.array_equal(eta.astype(float), want)

    def test_exact_sine_threshold_histogram(self):
        # t-density (pi/2)|sin(pi t)| for theta = (1,): chi-square at level 0.01
        rep = exact_sine_representation((1,))
        _, t, _ = sample_atom_arrays(rep, 10**5, seed=12)
        edges = np.linspace(0.0, 1.0, 21)
        probs = (np.cos(np.pi * edges[:-1]) - np.cos(np.pi * edges[1:])) / 2.0
        counts, _ = np.histogram(t, bins=edges)
        expected = probs * t.size
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, df=19)

    def test_simplified_frequency_marginal(self):
        # frequency choice proportional to mag * ||omega||_1^s, chi-square 0.01
        meas = two_atom_measure()
        s = 2
        b, t, a, v = sample_simplified_arrays(meas, s, 10**5, seed=3)
        c = np.abs(meas.omegas).sum(axis=1)
        dirs = meas.omegas / c[:, None]
        which = np.argmin(
            np.minimum(np.abs(a[:, None, :] - dirs).sum(axis=2),
                       np.abs(a[:, None, :] + dirs).sum(axis=2)),
            axis=1,
        )
        weights = meas.mags * c**s
        probs = weights / weights.sum()
        counts = np.bincount(which, minlength=2)
        expected = probs * a.shape[0]
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, df=1)
        assert v == pytest.approx(2 * v_fs(meas, s))

    @given(d=st.integers(min_value=1, max_value=4), s=st.sampled_from([2, 3]),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=1, max_value=300))
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_simplified_draws_equal_the_frequency_sampler(self, d, s, seed, n):
        # the sampler on the component table gives the bits of the sampler that
        # drew a frequency and a flip and normalized its own direction;
        # frequency 0 is zero in half the cases, and on multiples of pi/2
        # with phases in {0, +-pi/2, pi} in the other half
        gen = np.random.default_rng(seed)
        J = int(gen.integers(1, 9))
        grid = seed % 2 == 0
        omegas = (gen.integers(-3, 4, size=(J, d)) * (np.pi / 2) if grid
                  else gen.normal(0.0, 2.0, size=(J, d)))
        omegas[0] = 0.0 if seed % 4 < 2 else omegas[0]
        omegas = np.unique(omegas, axis=0)
        J = omegas.shape[0]
        phases = (gen.choice([0.0, np.pi / 2, -np.pi / 2, np.pi], size=J) if grid
                  else gen.uniform(-np.pi, np.pi, size=J))
        meas = SpectralMeasure(omegas, gen.uniform(0.1, 1.0, size=J), phases)
        assert_same_draws(sample_simplified_arrays(meas, s, n, seed=seed),
                          simplified_by_frequency(meas, s, n, seed=seed))

    def test_simplified_constant_target_draws_nothing(self):
        meas = SpectralMeasure(omegas=[[0.0, 0.0]], mags=[1.5], phases=[0.3])
        got = sample_simplified_arrays(meas, 3, 16, seed=2)
        assert got[0].size == 0 and got[3] == 0.0
        assert_same_draws(got, simplified_by_frequency(meas, 3, 16, seed=2))

    def test_simplified_unbiased_at_a_point(self):
        # 1e6 one-term estimates of sin(pi x) - pi x at x = 0.37, within 3 SE
        meas = SpectralMeasure(omegas=np.array([[np.pi]]), mags=np.array([1.0]),
                               phases=np.array([-np.pi / 2]))
        b, t, a, v = sample_simplified_arrays(meas, 2, 10**6, seed=5)
        x = 0.37
        est = v * b * np.clip(a[:, 0] * x - t, 0.0, None)
        truth = np.sin(np.pi * x) - np.pi * x
        se = est.std(ddof=1) / np.sqrt(est.size)
        assert abs(est.mean() - truth) <= 3 * se

    def test_full_sampler_unbiased_pointwise(self):
        # E[scale * eta (a.x-t)_+^(s-1)] equals the residual; 4 SE at 5 points
        cases = [
            (exact_sine_representation((1, 1)), 2),
            (spectral_representation(two_atom_measure(), 3), 3),
        ]
        for rep, s in cases:
            tgt = target_of(rep)
            gen = np.random.default_rng(0)
            pts = gen.uniform(-1, 1, size=(5, rep.d))
            eta, t, a = sample_atom_arrays(rep, 2 * 10**5, seed=21)
            ramp = np.clip(a @ pts.T - t[:, None], 0.0, None) ** (s - 1)
            est = rep.residual_scale * eta[:, None] * ramp
            truth = tgt.residual_batch(pts, s)
            dev = np.abs(est.mean(axis=0) - truth)
            se = est.std(axis=0, ddof=1) / np.sqrt(est.shape[0])
            assert np.all(dev <= 4 * se)


class TestRepresentationMean:
    @pytest.mark.parametrize("theta", [(1,), (2,), (1, 1)])
    def test_exact_sine_mean_matches_residual(self, theta):
        rep = exact_sine_representation(theta)
        tgt = target_of(rep)
        gen = np.random.default_rng(7)
        pts = gen.uniform(-1, 1, size=(40, rep.d))
        mean = representation_mean(rep, pts)
        assert np.abs(mean - tgt.residual_batch(pts, 2)).max() < 1e-12

    @pytest.mark.parametrize("s", [2, 3])
    def test_spectral_mean_matches_residual(self, s):
        rep = spectral_representation(two_atom_measure(), s)
        tgt = target_of(rep)
        gen = np.random.default_rng(8)
        pts = gen.uniform(-1, 1, size=(40, 2))
        mean = rep.residual_scale * representation_mean(rep, pts)
        assert np.abs(mean - tgt.residual_batch(pts, s)).max() < 1e-10

    def test_independent_composite_quadrature_oracle(self):
        # 1e4-node composite Simpson over t, summed over the weight sign,
        # reproduces sin(pi x)/(4 pi) - x/4 on a 101-point grid to 1e-6
        xs = np.linspace(-1.0, 1.0, 101)
        nt = 10**4 + 1
        t = np.linspace(0.0, 1.0, nt)
        w = np.ones(nt)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= (t[1] - t[0]) / 3.0
        vals = np.zeros_like(xs)
        for z in (1.0, -1.0):
            ramp = np.clip(z * xs[:, None] - t[None, :], 0.0, None)
            integrand = -z * np.sin(np.pi * t) * (np.pi / 4.0) * ramp
            vals += integrand @ w
        want = np.sin(np.pi * xs) / (4 * np.pi) - xs / 4.0
        assert np.abs(vals - want).max() <= 1e-6
