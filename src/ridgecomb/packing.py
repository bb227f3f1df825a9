"""Orthogonal sine family, greedy code packing, and the packing-count curve.

The family members sin(pi theta . x) / (4 pi ||theta||_1^2) over integer
frequency vectors theta in {1..R}^d are pairwise orthogonal in L2 of the
uniform probability measure on the cube, with norm 1/(4 sqrt(2) pi
||theta||_1^2).  Averaging members over binary codewords produces function
sets whose pairwise distances have an exact closed form, and a greedy search
over random codewords realizes the guaranteed packing cardinality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import UsageError
from .quadrature import tensor_grid, uniform_cube_rule

__all__ = [
    "SineFamily",
    "PackingSet",
    "sine_family",
    "family_gram",
    "pairwise_distance",
    "select_packing",
    "binary_entropy",
    "BINARY_ENTROPY_QUARTER",
    "packing_lower_curve",
    "family_scale_epsilon",
]

BINARY_ENTROPY_QUARTER = 0.8112781244591328


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable in bits."""
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"probability must lie in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


@dataclass(frozen=True, eq=False)
class SineFamily:
    """All scaled sine ridges with frequency vectors in {1..R}^d."""

    R: int
    d: int
    thetas: np.ndarray
    k1: np.ndarray
    norms: np.ndarray

    @property
    def size(self) -> int:
        return self.thetas.shape[0]

    @property
    def scales(self) -> np.ndarray:
        return 1.0 / (4.0 * np.pi * self.k1**2)

    def member_batch(self, points: np.ndarray) -> np.ndarray:
        """Values of every member at each point; shape (size, n_points)."""
        points = np.asarray(points, dtype=float)
        return np.sin(np.pi * (self.thetas @ points.T)) * self.scales[:, None]

    def codeword_batch(self, codeword, points: np.ndarray) -> np.ndarray:
        """(1/|H|) sum_h codeword_h * h(x) at each point."""
        w = _check_codeword(self, codeword)
        return (w @ self.member_batch(points)) / self.size


def sine_family(R: int, d: int) -> SineFamily:
    if not isinstance(R, (int, np.integer)) or R < 1:
        raise UsageError(f"R must be a positive integer, got {R}")
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise UsageError(f"d must be a positive integer, got {d}")
    if R**d > 10**6:
        raise UsageError(f"family size R^d = {R**d} exceeds the 10^6 guard")
    thetas = tensor_grid(np.arange(1, R + 1), d).astype(float)
    k1 = thetas.sum(axis=1)
    norms = 1.0 / (4.0 * math.sqrt(2.0) * np.pi * k1**2)
    return SineFamily(R=int(R), d=int(d), thetas=thetas, k1=k1, norms=norms)


def family_gram(fam: SineFamily, nodes: int | None = None) -> np.ndarray:
    """Quadrature Gram matrix in L2(D, P); cross-checks orthogonality and norms.

    Per-axis frequencies reach 2*pi*R, so the default node count stays well
    past the Gauss-Legendre resolution knee (about e*pi*R/2 nodes).
    """
    n = max(8 * fam.R + 9, 33) if nodes is None else int(nodes)
    points, weights = uniform_cube_rule(fam.d, n)
    V = fam.member_batch(points)
    return (V * weights) @ V.T


def _check_codeword(fam: SineFamily, w) -> np.ndarray:
    w = np.asarray(w)
    if w.shape != (fam.size,):
        raise UsageError(f"codeword must have length {fam.size}, got shape {w.shape}")
    if not np.all((w == 0) | (w == 1)):
        raise UsageError("codeword entries must be 0 or 1")
    return w.astype(float)


def pairwise_distance(fam: SineFamily, w, w_prime) -> float:
    """Exact L2 distance between the two codeword averages (orthogonality)."""
    a = _check_codeword(fam, w)
    b = _check_codeword(fam, w_prime)
    return float(np.sqrt(np.sum((a - b) ** 2 * fam.norms**2)) / fam.size)


@dataclass(frozen=True, eq=False)
class PackingSet:
    family: SineFamily
    codewords: np.ndarray
    min_distance: float
    separation_bound: float
    shortfall: bool

    @property
    def size(self) -> int:
        return self.codewords.shape[0]


def select_packing(fam: SineFamily, target_size: int, seed: int = 0,
                   trial_budget: int = 20000) -> PackingSet:
    """Greedy-random codeword selection keeping pairwise distance above the bound.

    The acceptance threshold is (1/2) min_h ||h|| / sqrt(|H|).  Stops at
    target_size or when the trial budget runs out; a shortfall is flagged, not
    raised, since the guarantee is existential.
    """
    if fam.size < 3:
        raise UsageError(f"the separation bound needs |H| >= 3, got {fam.size}")
    if not isinstance(target_size, (int, np.integer)) or target_size < 2:
        raise UsageError(f"target_size must be an integer >= 2, got {target_size}")
    bound = 0.5 * float(fam.norms.min()) / math.sqrt(fam.size)
    gen = _rng.stream(seed, _rng.PACKING)
    accepted: list[np.ndarray] = []
    for _ in range(int(trial_budget)):
        w = gen.integers(0, 2, size=fam.size)
        if all(pairwise_distance(fam, w, u) >= bound for u in accepted):
            accepted.append(w)
            if len(accepted) >= target_size:
                break
    codewords = np.stack(accepted) if accepted else np.zeros((0, fam.size), dtype=np.int64)
    dmin = math.inf
    for i in range(len(accepted)):
        for j in range(i + 1, len(accepted)):
            dmin = min(dmin, pairwise_distance(fam, accepted[i], accepted[j]))
    return PackingSet(
        family=fam, codewords=codewords, min_distance=dmin,
        separation_bound=bound, shortfall=len(accepted) < target_size,
    )


def packing_lower_curve(epsilon: float, d: int) -> float:
    """Explicit lower bound on log M_p(epsilon) for the cube in dimension d."""
    if not epsilon > 0:
        raise UsageError(f"epsilon must be positive, got {epsilon}")
    if d < 1:
        raise UsageError(f"d must be a positive integer, got {d}")
    q = 2.0 * d / (4.0 + d)
    alpha = math.log(2.0) * (1.0 - BINARY_ENTROPY_QUARTER)
    return alpha * (8.0 * epsilon * math.sqrt(2.0) * math.pi * d**2) ** (-q) - 1.0


def family_scale_epsilon(R: int, d: int) -> float:
    """The separation scale 1/(8 sqrt(2) pi d^2 R^(2+d/2)) tied to sine_family(R, d)."""
    return 1.0 / (8.0 * math.sqrt(2.0) * math.pi * d**2 * float(R) ** (2.0 + d / 2.0))
