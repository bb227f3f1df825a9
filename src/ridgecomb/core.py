"""Ridge atoms and their finite combinations on the cube [-1, 1]^d.

An atom is sign * (a . x - t)_+^(s-1) with ||a||_1 <= 1, t in [0, 1] and
s in {2, 3} (ramp or squared ramp).  A combination adds an affine part
(plus a quadratic part when s = 3) to a scaled average of atoms:

    b0 + a0 . x [+ 0.5 x^T A0 x]  +  outer * sum_k b_k (a_k . x - t_k)_+^(s-1)

with outer = v/m for s = 2 and v/(2m) for s = 3, where m is the number of
stored terms.  Term coefficients b_k always lie in [-1, 1]; the sampled sign
of each atom is kept on the atom itself but the coefficient carries it at
evaluation time.

The term sum is evaluated one of two ways, chosen from the combination
itself.  When the terms share few directions (terms >= 8 x distinct
directions, as for atoms drawn from a finite spectrum, whose inner vectors are
+-omega/||omega||_1), each direction's thresholds are sorted once and prefix
sums of b, b t and b t^2 are kept; at a projection p the direction contributes
p S0 - S1 (s = 2) or p^2 S0 - 2 p S1 + S2 (s = 3) over its terms with t < p,
found by one binary search.  Otherwise the points are taken in blocks of about
2^16 points x terms, so memory stays bounded whatever the term count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import UsageError

_L1_TOL = 1e-12
_DENSE_BLOCK_ELEMS = 1 << 16  # points x terms per block of the dense term sum
_GROUPED_MIN_REPEAT = 8  # grouped term sum when terms >= this x distinct directions


def _as_vector(a, d: int | None = None) -> np.ndarray:
    arr = np.array(a, dtype=float, copy=True)
    if arr.ndim != 1:
        raise UsageError(f"expected a 1-d vector, got shape {arr.shape}")
    if d is not None and arr.size != d:
        raise UsageError(f"expected length {d}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise UsageError("vector entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RidgeAtom:
    """One ridge unit: sign * (a . x - t)_+^(s-1)."""

    sign: int
    a: np.ndarray
    t: float
    s: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise UsageError(f"sign must be -1 or +1, got {self.sign}")
        if self.s not in (2, 3):
            raise UsageError(f"order s must be 2 or 3, got {self.s}")
        a = _as_vector(self.a)
        if float(np.abs(a).sum()) > 1.0 + _L1_TOL:
            raise UsageError(f"||a||_1 = {np.abs(a).sum()} exceeds 1")
        t = float(self.t)
        if not (0.0 <= t <= 1.0):
            raise UsageError(f"threshold t must lie in [0, 1], got {t}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "sign", int(self.sign))
        object.__setattr__(self, "s", int(self.s))

    @property
    def d(self) -> int:
        return self.a.size

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        z = max(0.0, float(self.a @ x) - self.t)
        return self.sign * z ** (self.s - 1)

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        z = np.maximum(points @ self.a - self.t, 0.0)
        return self.sign * z ** (self.s - 1)


def half_quadratic(points: np.ndarray, A0: np.ndarray) -> np.ndarray:
    """0.5 x^T A0 x at each row x of points, accumulated one column at a time."""
    Q = points @ A0
    acc = Q[:, 0] * points[:, 0]
    for j in range(1, points.shape[1]):
        acc += Q[:, j] * points[:, j]
    return 0.5 * acc


def atom_sup_distance(u: RidgeAtom, w: RidgeAtom) -> float:
    """Upper bound on sup_{x in D} |u(x) - w(x)|.

    Infinite when the signs differ; otherwise ||a_u - a_w||_1 + |t_u - t_w|
    for ramps, doubled for squared ramps (Lipschitz factor 2 on the cube).
    """
    if u.s != w.s:
        raise UsageError(f"atoms have different orders: {u.s} vs {w.s}")
    if u.d != w.d:
        raise UsageError(f"atoms have different dimensions: {u.d} vs {w.d}")
    if u.sign != w.sign:
        return math.inf
    base = float(np.abs(u.a - w.a).sum()) + abs(u.t - w.t)
    return base if u.s == 2 else 2.0 * base


@dataclass(frozen=True)
class CubeDomain:
    """The cube [-1, 1]^d with its uniform probability measure."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise UsageError(f"dimension must be >= 1, got {self.d}")

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return x.shape == (self.d,) and bool(np.all(np.abs(x) <= 1.0))

    def grid(self, points_per_axis: int) -> np.ndarray:
        """Uniform tensor grid including the boundary, flattened to (n^d, d)."""
        axis = np.linspace(-1.0, 1.0, points_per_axis)
        grids = np.meshgrid(*([axis] * self.d), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


@dataclass(frozen=True, eq=False)
class RidgeCombination:
    """Affine (+ quadratic for s = 3) part plus a scaled average of ridge atoms."""

    d: int
    s: int
    b0: float
    a0: np.ndarray
    A0: np.ndarray | None
    v: float
    terms: tuple[tuple[float, RidgeAtom], ...]

    def __post_init__(self):
        if self.s not in (2, 3):
            raise UsageError(f"order s must be 2 or 3, got {self.s}")
        a0 = _as_vector(self.a0, self.d)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "b0", float(self.b0))
        object.__setattr__(self, "v", float(self.v))
        if self.v < 0:
            raise UsageError(f"scale v must be nonnegative, got {self.v}")
        if self.s == 2:
            if self.A0 is not None:
                raise UsageError("quadratic part A0 is only allowed for s = 3")
        elif self.A0 is not None:
            A0 = np.array(self.A0, dtype=float, copy=True)
            if A0.shape != (self.d, self.d):
                raise UsageError(f"A0 must be {self.d}x{self.d}, got {A0.shape}")
            if not np.allclose(A0, A0.T, atol=1e-10):
                raise UsageError("A0 must be symmetric")
            A0.setflags(write=False)
            object.__setattr__(self, "A0", A0)
        terms = tuple((float(b), atom) for b, atom in self.terms)
        for b, atom in terms:
            if abs(b) > 1.0 + _L1_TOL:
                raise UsageError(f"term coefficient {b} lies outside [-1, 1]")
            if atom.s != self.s or atom.d != self.d:
                raise UsageError("term atom does not match the combination's (d, s)")
        object.__setattr__(self, "terms", terms)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    @property
    def inner_sparsity_max(self) -> int:
        if not self.terms:
            return 0
        return max(int(np.count_nonzero(atom.a)) for _, atom in self.terms)

    @property
    def outer_scale(self) -> float:
        """The factor applied to the averaged atom sum: v/m or v/(2m)."""
        m = self.term_count
        if m == 0:
            return 0.0
        return self.v / m if self.s == 2 else self.v / (2 * m)

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        B = np.array([b for b, _ in self.terms])
        A = np.stack([atom.a for _, atom in self.terms]) if self.terms else np.zeros((0, self.d))
        T = np.array([atom.t for _, atom in self.terms])
        return B, A, T

    @cached_property
    def _directions(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct inner vectors (rows) and each term's row index among them."""
        _, A, _ = self._stacked
        dirs, inverse = np.unique(A, axis=0, return_inverse=True)
        return dirs, inverse.ravel()

    @cached_property
    def _groups(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per distinct direction a: (a, its sorted thresholds ts, prefix sums S).

        S[j, i] is the sum of b t^j over the group's i smallest thresholds, j < s.
        """
        B, _, T = self._stacked
        dirs, inverse = self._directions
        order = np.lexsort((T, inverse))
        ends = np.cumsum(np.bincount(inverse, minlength=dirs.shape[0]))
        groups = []
        for a, idx in zip(dirs, np.split(order, ends[:-1])):
            ts, b = T[idx], B[idx]
            S = np.zeros((self.s, ts.size + 1))
            np.cumsum(b, out=S[0, 1:])
            np.cumsum(b * ts, out=S[1, 1:])
            if self.s == 3:
                np.cumsum(b * ts * ts, out=S[2, 1:])
            groups.append((a, ts, S))
        return tuple(groups)

    def _grouped_term_sum(self, points: np.ndarray) -> np.ndarray:
        """sum_k b_k (a_k . x - t_k)_+^(s-1) by direction groups, O(n D log m)."""
        acc = np.zeros(points.shape[0])
        for a, ts, S in self._groups:
            p = points @ a
            i = np.searchsorted(ts, p)  # the group's terms with t < p are the active ones
            if self.s == 2:
                acc += p * S[0, i] - S[1, i]
            else:
                acc += (p * S[0, i] - 2.0 * S[1, i]) * p + S[2, i]
        return acc

    def _dense_term_sum(self, points: np.ndarray) -> np.ndarray:
        """sum_k b_k (a_k . x - t_k)_+^(s-1) over blocks of points, O(n m) time, bounded memory."""
        B, A, T = self._stacked
        n = points.shape[0]
        step = max(1, _DENSE_BLOCK_ELEMS // B.size)
        buf = np.empty((min(step, n), B.size))
        acc = np.empty(n)
        for lo in range(0, n, step):
            blk = points[lo:lo + step]
            Z = np.matmul(blk, A.T, out=buf[:blk.shape[0]])
            Z -= T
            np.maximum(Z, 0.0, out=Z)
            if self.s == 3:
                Z *= Z
            np.matmul(Z, B, out=acc[lo:lo + blk.shape[0]])
        return acc

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.d:
            raise UsageError(f"points must have shape (n, {self.d})")
        out = self.b0 + points @ self.a0
        if self.s == 3 and self.A0 is not None:
            out += half_quadratic(points, self.A0)
        if self.terms:
            dirs, _ = self._directions
            if self.term_count >= _GROUPED_MIN_REPEAT * dirs.shape[0]:
                out += self.outer_scale * self._grouped_term_sum(points)
            else:
                out += self.outer_scale * self._dense_term_sum(points)
        return out

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.evaluate_batch(x[None, :])[0])

    # --- serialization ---

    def to_json_dict(self) -> dict:
        doc = {
            "version": 1,
            "dim": self.d,
            "order": self.s,
            "b0": self.b0,
            "a0": [float(v) for v in self.a0],
        }
        if self.s == 3:
            doc["A0"] = None if self.A0 is None else [[float(v) for v in row] for row in self.A0]
        doc["v"] = self.v
        doc["terms"] = [
            {"b": b, "sign": atom.sign, "a": [float(v) for v in atom.a], "t": atom.t}
            for b, atom in self.terms
        ]
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RidgeCombination":
        try:
            d, s = int(doc["dim"]), int(doc["order"])
            terms = tuple(
                (float(t["b"]), RidgeAtom(sign=int(t["sign"]), a=t["a"], t=float(t["t"]), s=s))
                for t in doc["terms"]
            )
            return cls(
                d=d,
                s=s,
                b0=float(doc["b0"]),
                a0=doc["a0"],
                A0=doc.get("A0"),
                v=float(doc["v"]),
                terms=terms,
            )
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed combination document: {exc}") from exc

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n")

    @classmethod
    def load(cls, path) -> "RidgeCombination":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def make_affine(d: int, s: int, b0: float, a0, A0=None, v: float = 0.0) -> RidgeCombination:
    """Combination with no ridge terms (the affine/quadratic correction alone)."""
    return RidgeCombination(d=d, s=s, b0=b0, a0=a0, A0=A0, v=v, terms=())
