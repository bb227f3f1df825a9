"""Discrete spectral measures and their samplable ridge representations.

A measure is a finite list of atoms (omega_j, mag_j, phase_j) encoding the
real target f(x) = sum_j mag_j * cos(omega_j . x + phase_j).  Such targets
admit exact mixture representations over ridge atoms: the residual of f after
removing its affine part (s = 2) or its quadratic part (s = 3) equals a known
scale times the mean of sign * (a . x - t)_+^(s-1) under an explicit
probability measure on (sign, a, t).  This module computes those scales in
closed form, samples the measures exactly by inverse CDF, and provides
deterministic quadrature oracles and identity checks used to validate them.

A target keeps its residual (the target less its polynomial part) on the
fixed point sets of the error measurement.  There, and on the sup scan's axis
lines, the values come from per-axis factors, cos(omega . x + phase) =
Re(e^{i phase} prod_k e^{i omega_k x_k}), summed over the frequencies.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import rng as _rng
from .core import _L1_TOL, RidgeAtom, _atoms, polynomial_part
from .errors import UsageError
from .quadrature import _leggauss, panel_rule

__all__ = [
    "SpectralMeasure",
    "TargetFunction",
    "IntegralRepresentation",
    "v_fs",
    "exact_sine_representation",
    "sine_ridge_measure",
    "spectral_representation",
    "sample_atom",
    "sample_atom_arrays",
    "sample_atom_simplified",
    "representation_mean",
    "verify_ramp_identity",
    "verify_square_identity",
]


# --- closed-form antiderivatives of |cos| and |sin| and their inverses ---

def abs_cos_integral(u):
    """F(u) = integral_0^u |cos w| dw, elementwise; odd and increasing."""
    u = np.asarray(u, dtype=float)
    k = np.floor(u / np.pi + 0.5)
    return 2.0 * k + np.sin(u - k * np.pi)


def abs_cos_integral_inv(y):
    y = np.asarray(y, dtype=float)
    k = np.floor((y + 1.0) / 2.0)
    return k * np.pi + np.arcsin(np.clip(y - 2.0 * k, -1.0, 1.0))


def abs_sin_integral(u):
    """G(u) = integral_0^u |sin w| dw, elementwise; odd and increasing."""
    u = np.asarray(u, dtype=float)
    k = np.floor(u / np.pi)
    return 2.0 * k + 1.0 - np.cos(u - k * np.pi)


def abs_sin_integral_inv(y):
    y = np.asarray(y, dtype=float)
    k = np.floor(y / 2.0)
    return k * np.pi + np.arccos(np.clip(1.0 - (y - 2.0 * k), -1.0, 1.0))


@dataclass(frozen=True, eq=False)
class ThresholdLaw:
    """The order-s threshold law on u = c t + ph, one per order s.

    g is the signed density: the threshold density is |g| with antiderivative
    F (and inverse Finv), and the atom sign is +1 where g >= 0, else -1.  The
    zeros of g lie at zero + k pi and g > 0 on arc 0 = (zero, zero + pi), so
    the sign on arc k = (zero + k pi, zero + (k + 1) pi) is (-1)^k.
    """

    g: object
    F: object
    Finv: object
    zero: float

    def sign(self, u: np.ndarray) -> np.ndarray:
        return np.where(self.g(u) >= 0.0, 1, -1)


_LAWS = {
    2: ThresholdLaw(g=lambda u: -np.cos(u), F=abs_cos_integral, Finv=abs_cos_integral_inv,
                    zero=np.pi / 2.0),
    3: ThresholdLaw(g=np.sin, F=abs_sin_integral, Finv=abs_sin_integral_inv, zero=0.0),
}


def threshold_law(s: int) -> ThresholdLaw:
    """The threshold law of order s: density |cos| for s=2, |sin| for s=3."""
    if s not in _LAWS:
        raise UsageError(f"order s must be 2 or 3, got {s}")
    return _LAWS[s]


def _force_unit_l1(a: np.ndarray) -> np.ndarray:
    """Nudge entries of each row so that np.abs(row).sum() == 1 exactly.

    The largest entry goes first.  Its ulp can be too coarse to land the sum on
    1 (|a| = (1/3, 1/2, 1/6)), so rows still off then try each column, last first.
    """
    n, d = a.shape
    rows = np.arange(n)
    cols = [np.full(n, j) for j in range(d - 1, -1, -1)]
    for jstar in [np.argmax(np.abs(a), axis=1)] + cols:
        for _ in range(8):
            total = np.abs(a).sum(axis=1)
            bad = total != 1.0
            if not bad.any():
                return a
            r, j = rows[bad], jstar[bad]
            a[r, j] -= np.sign(a[r, j]) * (total[bad] - 1.0)
    raise AssertionError("could not normalize rows to exact unit l1 norm")


# --- spectral measures and targets ---

# entries per block of SpectralMeasure.evaluate_batch, evaluate_steps and
# evaluate_tensor; a 65^3 grid at J <= 3 is one block
_EVAL_BLOCK_ELEMS = 1 << 20


def _frequency_sum(Z: np.ndarray) -> np.ndarray:
    """Z summed over its first axis in place, its upper half added onto its lower
    half until one row is left: each sum takes its own column, in an order set by len(Z)."""
    n = Z.shape[0]
    while n > 1:
        Z[:n // 2] += Z[n - n // 2:n]
        n -= n // 2
    return Z[0]


def _json_numbers(value, key: str):
    """value, a JSON number or a list of them: not true, "0.5" or a nested list."""
    for v in value if type(value) is list else [value]:
        if type(v) not in (int, float):
            raise UsageError(f"measure {key} must hold JSON numbers only, got {v!r}")
    return value


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Finite cosine spectrum: f(x) = sum_j mags[j] * cos(omegas[j] . x + phases[j])."""

    omegas: np.ndarray
    mags: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        omegas = np.array(self.omegas, dtype=float, copy=True)
        if omegas.ndim == 1:
            omegas = omegas[:, None]
        mags = np.array(self.mags, dtype=float, copy=True)
        phases = np.array(self.phases, dtype=float, copy=True)
        if omegas.ndim != 2 or omegas.shape[0] < 1 or omegas.shape[1] < 1:
            raise UsageError(f"omegas must be a (J, d) array with J >= 1 and d >= 1, "
                             f"got shape {omegas.shape}")
        J = omegas.shape[0]
        if mags.shape != (J,) or phases.shape != (J,):
            raise UsageError("mags and phases must both have shape (J,)")
        if not np.all(np.isfinite(omegas)) or not np.all(np.isfinite(mags)):
            raise UsageError("measure entries must be finite")
        if np.any(mags <= 0):
            raise UsageError("magnitudes must be strictly positive")
        if not np.all((phases > -np.pi - 1e-12) & (phases <= np.pi + 1e-12)):  # NaN fails too
            raise UsageError(f"phases must lie in (-pi, pi], got {phases.tolist()}")
        if np.unique(omegas, axis=0).shape[0] != J:
            raise UsageError("duplicate frequency vectors are not allowed")
        for name, arr in (("omegas", omegas), ("mags", mags), ("phases", phases)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def d(self) -> int:
        return self.omegas.shape[1]

    @property
    def size(self) -> int:
        return self.omegas.shape[0]

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """f at each row of points (n, d): per row, its phases (axis_phases),
        their cosines times mags, then _frequency_sum.  These are elementwise
        operations in a fixed order, with no BLAS product or reduction, so a
        row has the same bits alone or anywhere in any batch, at any block
        size or BLAS thread count.  Blocks of rows hold at most
        _EVAL_BLOCK_ELEMS frequency x row entries in two arrays.
        """
        points = np.asarray(points, dtype=float)
        step = max(1, _EVAL_BLOCK_ELEMS // (2 * self.size))
        out = np.empty(points.shape[0])
        for lo in range(0, points.shape[0], step):
            z = self.axis_phases(points[lo:lo + step])
            np.cos(z, out=z)
            z *= self.mags[:, None]
            out[lo:lo + z.shape[1]] = _frequency_sum(z)
            del z  # freed before the next block's two arrays
        return out

    def axis_phases(self, x: np.ndarray, ax: int | None = None) -> np.ndarray:
        """phase_j + sum_{k != ax} omega_jk x_k, summed in order, for each row x
        of x (k, d), as (J, k): the phases of f on the axis-ax line through
        the row, or at the row itself when ax is None."""
        ks = [k for k in range(self.d) if k != ax]
        theta = self.omegas[:, ks[0], None] * x[:, ks[0]] if ks else np.zeros((self.size, len(x)))
        theta += self.phases[:, None]
        for k in ks[1:]:
            theta += self.omegas[:, k, None] * x[:, k]
        return theta

    def evaluate_steps(self, phases: np.ndarray, ax: int, lo: np.ndarray, step: np.ndarray,
                       n: int) -> np.ndarray:
        """f at lo + i step on axis ax, i < n, on the line of each column of
        phases (axis_phases), as (k, n), from per-axis factors: term j at
        sample i is Re(c_j rho_j^i), c_j = mag_j e^{i(phases_j + omega_j,ax lo)},
        rho_j = e^{i omega_j,ax step}.  The samples are filled by doubling,
        from `filled` on as the first ones times rho_j^filled (rho_j squared
        in turn): 2 complex exponentials a line and frequency, not n cosines.
        Blocks of lines hold at most _EVAL_BLOCK_ELEMS doubles.
        """
        w, out = self.omegas[:, ax, None], np.empty((phases.shape[1], n))
        width = max(1, _EVAL_BLOCK_ELEMS // (2 * n * self.size))
        for b in range(0, len(out), width):
            cols = slice(b, b + width)
            T = np.empty((n,) + phases[:, cols].shape, dtype=complex)
            T[0] = self.mags[:, None] * np.exp(1j * (phases[:, cols] + w * lo[cols]))
            rho, filled = np.exp(1j * (w * step[cols])), 1
            while filled < n:
                c = min(filled, n - filled)
                np.multiply(T[:c], rho, out=T[filled:filled + c])
                filled += c
                rho *= rho
            out[cols] = _frequency_sum(np.moveaxis(T.real, 1, 0)).T
        return out

    def evaluate_tensor(self, axis: np.ndarray) -> np.ndarray:
        """f on tensor_grid(axis, d), flattened, from per-axis factors.

        cos(omega . x + phase) = Re(e^{i phase} prod_k e^{i omega_k x_k}), so
        the first coordinate's factors, times mag e^{i phase}, contract over
        the frequencies with the products of the other coordinates' factors:
        J d k complex exponentials, J k^(d-1) complex products and one real
        contraction in a fixed order, against J k^d cosines in evaluate_batch,
        for k points per axis.  No BLAS product runs, so the values keep their
        bits at any BLAS thread count.  The blocks hold at most
        _EVAL_BLOCK_ELEMS frequency x point entries (or one frequency), so
        memory stays bounded whatever J.
        """
        axis = np.asarray(axis, dtype=float)
        k = axis.size
        rest = k ** (self.d - 1)
        step = max(1, _EVAL_BLOCK_ELEMS // rest)
        out = np.zeros((k, rest))
        for lo in range(0, self.size, step):
            E = np.exp(1j * self.omegas[lo:lo + step, :, None] * axis)  # (block, d, k)
            lead = (self.mags[lo:lo + step] * np.exp(1j * self.phases[lo:lo + step]))[:, None]
            lead = lead * E[:, 0]
            tail = np.ones((E.shape[0], 1), dtype=complex)
            for j in range(1, self.d):
                tail = (tail[:, :, None] * E[:, j, None, :]).reshape(E.shape[0], -1)
            # Re(lead^T tail) as one real contraction over the stacked parts
            out += np.einsum("jk,jr->kr", np.vstack([lead.real, -lead.imag]),
                             np.vstack([tail.real, tail.imag]))
        return out.reshape(-1)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.d,
            "atoms": [
                {"omega": [float(v) for v in w], "mag": float(m), "phase": float(p)}
                for w, m, p in zip(self.omegas, self.mags, self.phases)
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SpectralMeasure":
        try:
            dim, atoms = doc["dim"], doc["atoms"]
            omegas, mags, phases = ([_json_numbers(a[key], key) for a in atoms]
                                    for key in ("omega", "mag", "phase"))
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed measure document: {exc}") from exc
        if type(dim) is not int:  # not true, 1.7 or "1"
            raise UsageError(f"measure dim must be a JSON integer, got {dim!r}")
        meas = cls(omegas=omegas, mags=mags, phases=phases)
        if meas.d != dim:
            raise UsageError(f"declared dim {dim} does not match omega length {meas.d}")
        return meas

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n")

    @classmethod
    def load(cls, path) -> "SpectralMeasure":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def v_fs(meas: SpectralMeasure, s: int) -> float:
    """Spectral moment sum_j mags[j] * ||omega_j||_1^s."""
    if s not in (0, 1, 2, 3):
        raise UsageError(f"moment order must be in {{0,1,2,3}}, got {s}")
    c = np.abs(meas.omegas).sum(axis=1)
    return float((meas.mags * c**s).sum())


@dataclass(frozen=True, eq=False)
class TargetFunction:
    """A cosine-sum target: its spectrum and its exact expansion data at the origin.

    The values come from `measure`.  `residual_on` keeps the target minus its
    polynomial part on the fixed point sets that every error measurement
    reuses; the memo lives and dies with the instance.  `line` is (u, max_j
    c_j, sum_j mag_j c_j), c_j = ||omega_j||_1, when every nonzero frequency
    is +-c_j u for one unit-l1 u, so the target is a ridge function of u . x;
    it is None otherwise.
    """

    d: int
    b0: float
    a0: np.ndarray
    A0: np.ndarray
    measure: SpectralMeasure
    line: tuple | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False)
    _memo_lock: object = field(default_factory=threading.RLock, init=False, repr=False)

    def __post_init__(self):
        a0 = np.array(self.a0, dtype=float, copy=True)
        A0 = np.array(self.A0, dtype=float, copy=True)
        a0.setflags(write=False)
        A0.setflags(write=False)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "b0", float(self.b0))

    @classmethod
    def from_measure(cls, meas: SpectralMeasure) -> "TargetFunction":
        b0 = float((meas.mags * np.cos(meas.phases)).sum())
        a0 = -(meas.omegas.T @ (meas.mags * np.sin(meas.phases)))
        A0 = -(meas.omegas.T * (meas.mags * np.cos(meas.phases))) @ meas.omegas
        c = np.abs(meas.omegas).sum(axis=1)
        dirs = meas.omegas[c > 0] / c[c > 0, None]
        line = None
        if dirs.size and np.all(np.minimum(np.abs(dirs - dirs[0]).sum(axis=1),
                                           np.abs(dirs + dirs[0]).sum(axis=1)) <= _L1_TOL):
            u = dirs[0]
            u.setflags(write=False)
            line = (u, float(c.max()), float(meas.mags @ c))
        return cls(d=meas.d, b0=b0, a0=a0, A0=A0, measure=meas, line=line)

    @classmethod
    def from_sine_ridge(cls, theta) -> "TargetFunction":
        return cls.from_measure(sine_ridge_measure(theta))

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """The target at each row of points (n, d)."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.d:
            raise UsageError(f"points must have shape (n, {self.d})")
        return self.measure.evaluate_batch(points)

    def _kept(self, key, compute) -> np.ndarray:
        """compute(), run once per key and kept read-only.  The lock makes a
        second thread wait for the first fill instead of reading a partial
        one; it is reentrant, so a compute may keep another value itself."""
        with self._memo_lock:
            vals = self._memo.get(key)
            if vals is None:
                vals = compute()
                vals.setflags(write=False)
                self._memo[key] = vals
        return vals

    def residual_on(self, key, points: np.ndarray, quadratic: bool,
                    axis: np.ndarray) -> np.ndarray:
        """The target minus its polynomial part b0 + a0 . x [+ 0.5 x^T A0 x
        when quadratic] at the fixed point set `points` = tensor_grid(axis,
        d), which key must name; computed once per key and kind, the values
        from per-axis factors (SpectralMeasure.evaluate_tensor).
        """
        def compute():
            poly = polynomial_part(points, self.b0, self.a0, self.A0 if quadratic else None)
            vals = self.measure.evaluate_tensor(axis)
            vals -= poly
            return vals

        return self._kept((key, quadratic), compute)

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.evaluate_batch(x[None, :])[0])

    def residual_batch(self, points: np.ndarray, s: int) -> np.ndarray:
        """Target minus its affine part (s=2) or affine + quadratic part (s=3)."""
        points = np.asarray(points, dtype=float)
        quadratic = self.A0 if s == 3 else None
        return self.evaluate_batch(points) - polynomial_part(points, self.b0, self.a0, quadratic)


def _check_theta(theta) -> np.ndarray:
    arr = np.asarray(theta, dtype=float)
    if arr.ndim == 0:
        arr = arr[None]
    if arr.ndim != 1 or arr.size < 1:
        raise UsageError("theta must be a nonempty integer vector")
    if np.any(arr != np.round(arr)) or np.any(arr < 1):
        raise UsageError(f"theta entries must be positive integers, got {theta}")
    out = np.round(arr)
    out.setflags(write=False)
    return out


# --- integral representations ---

@dataclass(frozen=True, eq=False)
class IntegralRepresentation:
    """Exact mixture representation of a target's residual over ridge atoms.

    residual(x) = scale * E[eta (a.x - t)_+^(s-1)] with scale = v (s=2) or
    v/2 (s=3), over a mixture of 2J components held in read-only arrays.
    Component e pairs frequency js[e] of the measure with a direction flip
    zs[e] = +-1: it has probability probs[e], the fixed direction dirs[e] =
    zs[e] omega/||omega||_1, and the order-s threshold_law on u = c[e] t +
    ph[e], t in [0, 1], where c[e] = ||omega||_1 and ph[e] = zs[e] phase.
    """

    d: int
    s: int
    v: float
    measure: SpectralMeasure
    seed: int
    js: np.ndarray
    zs: np.ndarray
    c: np.ndarray
    ph: np.ndarray
    dirs: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        for arr in (self.js, self.zs, self.c, self.ph, self.dirs, self.probs):
            arr.setflags(write=False)

    @property
    def residual_scale(self) -> float:
        """Factor multiplying the atom mean to recover the residual."""
        return self.v if self.s == 2 else self.v / 2.0


def spectral_representation(meas: SpectralMeasure, s: int, seed: int = 0) -> IntegralRepresentation:
    """Build the samplable representation of a cosine-sum target for order s."""
    law = threshold_law(s)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        c_all = np.abs(meas.omegas).sum(axis=1)
        keep = c_all > 0  # zero frequencies carry no sampling weight for s >= 1
        js = np.repeat(np.nonzero(keep)[0], 2)
        zs = np.tile(np.array([1, -1]), keep.sum())
        c = c_all[js]
        ph = zs * meas.phases[js]
        W = (law.F(ph + c) - law.F(ph)) / c if js.size else np.zeros(0)
        weights = meas.mags[js] * c**s * W
        v = float(weights.sum())
    if not math.isfinite(v):
        raise UsageError(f"the measure's order-{s} spectral norm v is {v}: its omega "
                         f"entries are too large")
    moment = v_fs(meas, s)
    assert v <= 2.0 * moment + 1e-9 * max(moment, 1.0)
    probs = weights / v if v > 0 else weights  # v == 0 only when no component is kept
    return IntegralRepresentation(
        d=meas.d, s=int(s), v=v, measure=meas, seed=int(seed), js=js, zs=zs, c=c, ph=ph,
        # each component's unit-l1 direction, exactly as every draw carries it
        dirs=_force_unit_l1((zs / c)[:, None] * meas.omegas[js]),
        probs=probs / probs.sum() if v > 0 else probs,
    )


def sine_ridge_measure(theta) -> SpectralMeasure:
    """The one-atom cosine spectrum of sin(pi theta . x)/(4 pi ||theta||_1^2)."""
    arr = _check_theta(theta)
    K = arr.sum()
    return SpectralMeasure(
        omegas=np.pi * arr[None, :],
        mags=[1.0 / (4.0 * np.pi * K**2)],
        phases=[-np.pi / 2.0],
    )


def exact_sine_representation(theta, seed: int = 0) -> IntegralRepresentation:
    """Unit-scale ramp representation of sin(pi theta.x)/(4 pi ||theta||_1^2).

    This is the s=2 representation of its one-atom spectrum: v = 1 and the
    t-density is (pi/2)|sin(pi ||theta||_1 t)| with z uniform.
    """
    return spectral_representation(sine_ridge_measure(theta), 2, seed=seed)


def target_of(rep: IntegralRepresentation) -> TargetFunction:
    """The target function a representation stands for."""
    return TargetFunction.from_measure(rep.measure)


def sample_atom_arrays(rep: IntegralRepresentation, n: int, seed: int | None = None,
                       channel: int = _rng.ATOMS):
    """Draw n atoms; returns (eta, t, a) as arrays of shape (n,), (n,), (n, d)."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise UsageError(f"draw count must be a positive integer, got {n}")
    gen = _rng.stream(rep.seed if seed is None else seed, channel)
    return _draw_arrays(gen, rep, int(n))


def _draw_arrays(gen: np.random.Generator, rep: IntegralRepresentation, n: int):
    # shared by sample_atom_arrays, build_iid and estimate_masses
    if rep.v == 0.0:
        raise UsageError("representation has zero spectral mass; nothing to sample")
    idx = gen.choice(rep.probs.size, size=n, p=rep.probs)
    c, ph = rep.c[idx], rep.ph[idx]
    u = gen.random(n)
    law = threshold_law(rep.s)
    lo = law.F(ph)
    t = (law.Finv(lo + u * (law.F(ph + c) - lo)) - ph) / c
    t = np.clip(t, 0.0, 1.0)
    eta = law.sign(c * t + ph)
    a = rep.dirs[idx]
    if np.any((t < 0.0) | (t > 1.0)) or np.any(np.abs(a).sum(axis=1) != 1.0):
        raise AssertionError("sampled atom violated its invariants")
    return eta, t, a


def sample_atom(rep: IntegralRepresentation, n: int, seed: int | None = None,
                channel: int = _rng.ATOMS) -> list[RidgeAtom]:
    eta, t, a = sample_atom_arrays(rep, n, seed, channel)
    return _atoms(eta, a, t, rep.s)


def sample_simplified_arrays(meas: SpectralMeasure, s: int, n: int, seed: int = 0):
    """Simplified sampler: frequencies by spectral weight, t uniform on [0, 1].

    The sinusoidal density factor is folded into the term coefficient, so each
    draw carries a coefficient b with |b| <= 1 and the matching combination
    scale is v = 2 * v_fs(meas, s).  Returns (b, t, a, v) with array parts of
    shape (n,), (n,), (n, d); a constant target gives empty arrays and v = 0.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise UsageError(f"draw count must be a positive integer, got {n}")
    rep = spectral_representation(meas, s)
    if rep.v == 0.0:
        return np.zeros(0), np.zeros(0), np.zeros((0, meas.d)), 0.0
    gen = _rng.stream(seed, _rng.ATOMS)
    # kept frequency j by mag_j c_j^s, then its flip: component 2j (+1) or 2j + 1 (-1)
    weights = meas.mags[rep.js[::2]] * rep.c[::2] ** s
    pick = gen.choice(weights.size, size=n, p=weights / weights.sum())
    e = 2 * pick + 1 - gen.integers(0, 2, size=n)
    t = gen.random(n)
    b = threshold_law(s).g(rep.c[e] * t + rep.ph[e])
    return b, t, rep.dirs[e], 2.0 * v_fs(meas, s)


def sample_atom_simplified(meas: SpectralMeasure, s: int, n: int, seed: int = 0):
    """Atom-object form of sample_simplified_arrays: returns ([(b, atom)], v)."""
    b, t, a, v = sample_simplified_arrays(meas, s, n, seed=seed)
    return list(zip(b.tolist(), _atoms(np.where(b >= 0, 1, -1), a, t, s))), v


# --- deterministic quadrature oracle for the represented mean ---

def representation_mean(rep: IntegralRepresentation, points: np.ndarray,
                        nodes: int = 96) -> np.ndarray:
    """E[eta (a.x - t)_+^(s-1)] at each point, by exact-kink Gauss-Legendre.

    The sign rule times the |g| density collapses to the smooth signed factor
    g, so the only nonsmooth feature left is the positive-part kink at t = z a.x;
    integrating over [0, clip(z a.x, 0, 1)] makes the integrand a polynomial
    times a sinusoid, which the panel rule resolves to near machine precision.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != rep.d:
        raise UsageError(f"points must have shape (n, {rep.d})")
    xi, wq = _leggauss(nodes)
    g = threshold_law(rep.s).g
    out = np.zeros(points.shape[0])
    for e in range(rep.js.size):
        # integral_0^tau g(c t + ph) (az - t)^(s-1) dt, tau = clip(az, 0, 1)
        j, c = rep.js[e], rep.c[e]
        az = (rep.zs[e] / c) * (points @ rep.measure.omegas[j])
        half = np.clip(az, 0.0, 1.0)[:, None] / 2.0
        tt = half * (xi[None, :] + 1.0)
        vals = g(c * tt + rep.ph[e]) * (az[:, None] - tt) ** (rep.s - 1)
        coeff = rep.measure.mags[j] * c**rep.s / rep.v
        out += coeff * (vals * (half * wq[None, :])).sum(axis=1)
    return out


# --- trigonometric Taylor identities behind the representations ---

_IDENTITY_NODES = 16  # Gauss-Legendre nodes per panel of the identity integrals


def verify_ramp_identity(z: float, c: float) -> float:
    """Residual of the first-order identity behind ramp representations.

    Checks -integral_0^c [(z-u)_+ e^{iu} + (-z-u)_+ e^{-iu}] du = e^{iz}-iz-1
    by composite Gauss-Legendre split at the kink |z|, so each panel's
    integrand is a line times a cosine or sine; requires |z| <= c.  Returns
    the absolute residual.
    """
    z, c = float(z), float(c)
    if c <= 0 or abs(z) > c:
        raise UsageError(f"need |z| <= c and c > 0, got z={z}, c={c}")
    u, w = panel_rule([0.0, abs(z), c], _IDENTITY_NODES)
    pos, neg = np.maximum(z - u, 0.0), np.maximum(-z - u, 0.0)
    lhs = -complex(w @ ((pos + neg) * np.cos(u)), w @ ((pos - neg) * np.sin(u)))
    rhs = complex(math.cos(z) - 1.0, math.sin(z) - z)
    return abs(lhs - rhs)


def verify_square_identity(x, omega) -> float:
    """Residual of the second-order identity behind squared-ramp representations.

    Checks (i/2) c^3 integral_0^1 [(-a.x-t)_+^2 e^{-ict} - (a.x-t)_+^2 e^{ict}] dt
    = e^{i omega.x} + (omega.x)^2/2 - i omega.x - 1 with a = omega/||omega||_1,
    by composite Gauss-Legendre split at the kink |a.x|.  Returns the absolute
    residual.
    """
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if x.shape != omega.shape or x.ndim != 1:
        raise UsageError("x and omega must be 1-d vectors of equal length")
    c = float(np.abs(omega).sum())
    if c == 0.0:
        raise UsageError("omega must be nonzero")
    ax = float(omega @ x) / c
    if abs(ax) > 1.0 + 1e-12:
        raise UsageError("x must lie in the unit cube so that |a.x| <= 1")
    t, w = panel_rule([0.0, min(abs(ax), 1.0), 1.0], _IDENTITY_NODES)
    neg, pos = np.maximum(-ax - t, 0.0) ** 2, np.maximum(ax - t, 0.0) ** 2
    re = w @ ((neg - pos) * np.cos(c * t))
    im = w @ (-(neg + pos) * np.sin(c * t))
    lhs = 0.5j * c**3 * (re + 1j * im)
    wx = float(omega @ x)
    rhs = complex(math.cos(wx) + wx**2 / 2.0 - 1.0, math.sin(wx) - wx)
    return abs(lhs - rhs)
