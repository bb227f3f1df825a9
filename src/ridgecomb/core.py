"""Ridge atoms and their finite combinations on the cube [-1, 1]^d.

An atom is sign * (a . x - t)_+^(s-1) with ||a||_1 <= 1, t in [0, 1] and
s in {2, 3} (ramp or squared ramp).  A combination adds an affine part
(plus a quadratic part when s = 3) to a scaled average of atoms:

    b0 + a0 . x [+ 0.5 x^T A0 x]  +  outer * sum_k b_k (a_k . x - t_k)_+^(s-1)

with outer = v/m for s = 2 and v/(2m) for s = 3, where m is the number of
stored terms.  The terms are stored as arrays of b_k in [-1, 1], atom signs,
a_k and t_k; evaluation reads b_k, which carries the sign, and RidgeAtom
objects are built only when a caller asks for (b, atom) pairs.

The term sum is evaluated one of two ways, chosen from the combination
itself.  When the terms share few directions (terms >= 8 x distinct
directions, as for atoms drawn from a finite spectrum, whose inner vectors are
+-omega/||omega||_1), each direction's thresholds are sorted once and prefix
sums of b, b t and b t^2 are kept; at a projection p the direction contributes
p S0 - S1 (s = 2) or p^2 S0 - 2 p S1 + S2 (s = 3) over its terms with t < p,
found by one binary search.  Otherwise the points are taken in blocks of about
2^16 points x terms, so memory stays bounded whatever the term count.

subtract_terms takes the term sum from an array in place, which is how the
error measurement takes a combination from the target's kept residual.  On
a tensor grid of one axis (its `axis`), a term whose inner vector has support
S is constant along the other coordinates.  So the terms are grouped by
support, each group's sum runs on the |S|-fold grid of the axis and is
broadcast over the rest: an l0-sparse term with |S| = m0 < d costs n^(m0/d)
evaluations instead of n.  There a dense group goes slab by slab of its first
coordinate, a_k . x - t_k = a_k0 x_0 + (the rest, formed once), and a
full-support group goes into the output in place.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import UsageError
from .quadrature import tensor_grid

_L1_TOL = 1e-12
_DENSE_BLOCK_ELEMS = 1 << 16  # points x terms per block of the dense term sum
_TERMS_MAJOR_MAX = 8  # dense blocks of at most this many terms are laid out terms x points
_ROW_PAD = 8  # entries between the rows of a tensor-grid block
_GROUPED_MIN_REPEAT = 8  # grouped term sum when terms >= this x distinct directions
_GROUPED_BLOCK = 1 << 14  # points per block of the grouped term sum, a multiple of 64
_SAVE_BLOCK = 1024  # terms formatted per write of save, so its memory does not grow with m


def _numeric(x, what: str) -> np.ndarray:
    """An owned float array copy of x, or UsageError when x is not numeric."""
    try:
        return np.array(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{what} must be numeric: {exc}") from exc


def _check(values: np.ndarray, ok: np.ndarray, what: str) -> None:
    if not np.all(ok):
        raise UsageError(f"{what}, got {values[~ok][0]}")


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
        a, t = _numeric(self.a, "a"), float(self.t)
        if a.ndim != 1 or not float(np.abs(a).sum()) <= 1.0 + _L1_TOL:  # NaN fails too
            raise UsageError(f"a must be a finite 1-d vector with ||a||_1 <= 1, got {a}")
        if not (0.0 <= t <= 1.0):
            raise UsageError(f"threshold t must lie in [0, 1], got {t}")
        a.setflags(write=False)
        self.__dict__.update(sign=int(self.sign), a=a, t=t, s=int(self.s))

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


def _atoms(sign: np.ndarray, A: np.ndarray, t: np.ndarray, s: int) -> list[RidgeAtom]:
    return [RidgeAtom(sign=sg, a=a, t=tk, s=s) for sg, a, tk in zip(sign.tolist(), A, t.tolist())]


def polynomial_part(points: np.ndarray, b0, a0: np.ndarray, A0: np.ndarray | None) -> np.ndarray:
    """b0 + a0 . x [+ 0.5 x^T A0 x] at each row x of points: a combination's part
    outside its terms, elementwise in a fixed order (no BLAS), so each row's bits are its own."""
    cols = np.ascontiguousarray(points.T)
    out = np.full(cols.shape[1], float(b0))
    for k, x in enumerate(cols):
        out += a0[k] * x
    if A0 is not None:  # 0.5 x_k sum_j A0_kj x_j, over k in order
        for k, x in enumerate(cols):
            row = A0[k, 0] * cols[0]
            for j in range(1, cols.shape[0]):
                row += A0[k, j] * cols[j]
            row *= 0.5 * x
            out += row
    return out


def _dense_term_sum(points: np.ndarray, At: np.ndarray, T: np.ndarray, B: np.ndarray,
                    square: bool) -> np.ndarray:
    """sum_k b_k (a_k . x - t_k)_+^(s-1) over blocks of points, O(n m) time, bounded memory.

    points (n, d), At (d, m) = A.T, T (m,) and B (m, 1) = coef[:, None], with
    square for s = 3.  The thresholds are subtracted by broadcast.  A block
    is points x terms, or terms x points when m <= _TERMS_MAJOR_MAX, so that
    its long axis is the contiguous one.
    """
    n, m = points.shape[0], At.shape[1]
    step = max(1, _DENSE_BLOCK_ELEMS // m)
    major = m <= _TERMS_MAJOR_MAX
    buf = np.empty(min(step, n) * m)
    acc = np.empty((n, 1))
    for lo in range(0, n, step):
        blk = points[lo:lo + step]
        rows = blk.shape[0]
        if major:
            Z = np.matmul(At.T, blk.T, out=buf[:m * rows].reshape(m, rows))
            Z -= T[:, None]
        else:
            Z = np.matmul(blk, At, out=buf[:rows * m].reshape(rows, m))
            Z -= T
        np.maximum(Z, 0.0, out=Z)
        if square:
            Z *= Z
        if major:
            np.matmul(B[:, 0], Z, out=acc[lo:lo + rows, 0])
        else:
            np.matmul(Z, B, out=acc[lo:lo + rows])
    return acc[:, 0]


def _dense_tensor_sum(out: np.ndarray, axis: np.ndarray, A: np.ndarray, T: np.ndarray,
                      B: np.ndarray, square: bool, scale: float) -> None:
    """out += scale sum_k b_k (a_k . x - t_k)_+^(s-1) on tensor_grid(axis, r), in place.

    out (k, k^(r-1)) is the grid's values by first coordinate, A (m, r), T (m,)
    and B (m,).  a_k . x - t_k = a_k0 x_0 + (a_k . x_rest - t_k): the second part
    is formed once per block of terms, and each slab of x_0 values adds the
    first in one broadcast, so no block takes a matmul or a tiled threshold.
    A block is terms x points, at most about _DENSE_BLOCK_ELEMS entries or one
    term on one slab.
    """
    k, rest = out.shape
    per = max(1, -(-_DENSE_BLOCK_ELEMS // rest))
    width, slabs = min(B.size, per), max(1, per // B.size)
    tail = tensor_grid(axis, A.shape[1] - 1)
    cols = min(slabs, k) * rest
    # rows _ROW_PAD entries apart, so that a power-of-2 row length does not map
    # every term's row of a block to the same cache sets
    buf = np.empty((width, cols + _ROW_PAD))
    for lo in range(0, B.size, width):
        a, b = A[lo:lo + width], B[lo:lo + width]
        R = a[:, 1:] @ tail.T
        R -= T[lo:lo + width, None]
        for s0 in range(0, k, slabs):
            x = axis[s0:s0 + slabs]
            Z = buf[:b.size, :x.size * rest]
            np.add(R[:, None, :], (a[:, :1] * x)[:, :, None], out=Z.reshape(b.size, x.size, rest))
            np.maximum(Z, 0.0, out=Z)
            if square:
                Z *= Z
            out[s0:s0 + x.size] += scale * (b @ Z).reshape(x.size, rest)


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first of each distinct row of keys (n, k), the rows in
    lexicographic order, and each row's index among them, as np.unique(keys,
    axis=0) returns them: one lexsort and a diff of neighbouring sorted rows."""
    order = np.lexsort(keys.T[::-1])  # the last key is the primary one
    rows = keys[order]
    new = np.ones(order.size, dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _texts(values: np.ndarray, fmt) -> list[str]:
    """fmt of each entry of values (n,), or each row of values (n, k), called once
    per distinct bit pattern, so -0.0 and 0.0 get their own texts as under repr."""
    values = np.ascontiguousarray(values)
    first, inverse = _distinct_rows(values.view(np.int64).reshape(values.shape[0], -1))
    texts = np.array(list(map(fmt, values[first].tolist())), dtype=object)
    return texts[inverse].tolist()


def _row_text(row: list[float]) -> str:
    return f"[{', '.join(map(repr, row))}]"


# Lipschitz factor of an order-s atom in ||a||_1 + |t| under the sup norm on the
# cube: 1 for the ramp, 2 for the squared ramp, whose slope 2 (a.x - t) is <= 2
ATOM_LIPSCHITZ = {2: 1.0, 3: 2.0}


def atom_sup_distance(u: RidgeAtom, w: RidgeAtom) -> float:
    """Upper bound on sup_{x in D} |u(x) - w(x)|.

    Infinite when the signs differ; otherwise ATOM_LIPSCHITZ[s] times
    ||a_u - a_w||_1 + |t_u - t_w|.
    """
    if u.s != w.s:
        raise UsageError(f"atoms have different orders: {u.s} vs {w.s}")
    if u.d != w.d:
        raise UsageError(f"atoms have different dimensions: {u.d} vs {w.d}")
    if u.sign != w.sign:
        return math.inf
    base = float(np.abs(u.a - w.a).sum()) + abs(u.t - w.t)
    return ATOM_LIPSCHITZ[u.s] * base


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
        return tensor_grid(np.linspace(-1.0, 1.0, points_per_axis), self.d)


@dataclass(frozen=True, eq=False, init=False)
class RidgeCombination:
    """Affine (+ quadratic for s = 3) part plus a scaled average of ridge atoms.

    The terms are read-only arrays coef (m,), sign (m,), A (m, d) and t (m,),
    as from_arrays takes them; the constructor takes (b, RidgeAtom) pairs,
    which the terms property gives back, built on first access.
    """

    d: int
    s: int
    b0: float
    a0: np.ndarray
    A0: np.ndarray | None
    v: float
    coef: np.ndarray
    sign: np.ndarray
    A: np.ndarray
    t: np.ndarray

    def __init__(self, d, s, b0, a0, A0, v, terms=()):
        terms = tuple(terms)
        coef, atoms = zip(*terms) if terms else ((), ())
        if any(atom.s != s for atom in atoms):
            raise UsageError("term atom does not match the combination's (d, s)")
        self.__dict__.update(vars(self.from_arrays(
            d, s, b0, a0, A0, v, coef, [atom.sign for atom in atoms],
            [atom.a for atom in atoms], [atom.t for atom in atoms])))

    @classmethod
    def from_arrays(cls, d, s, b0, a0, A0, v, coef, sign, A, t) -> "RidgeCombination":
        """Validate every field, each array in one pass, and keep owned read-only copies."""
        if s not in (2, 3):
            raise UsageError(f"order s must be 2 or 3, got {s}")
        coef, sign = _numeric(coef, "term coefficients"), _numeric(sign, "term signs")
        A, t = _numeric(A, "term inner vectors"), _numeric(t, "term thresholds")
        m = coef.size
        if A.size == 0:
            A = np.zeros((0, d))
        if coef.shape != (m,) or sign.shape != (m,) or A.shape != (m, d) or t.shape != (m,):
            raise UsageError(f"term arrays must have shapes ({m},) and ({m}, {d}), got "
                             f"{coef.shape}, {sign.shape}, {A.shape} and {t.shape}")
        # NaN fails every test below; a non-finite entry of A fails the l1 test
        _check(sign, (sign == 1) | (sign == -1), "sign must be -1 or +1")
        _check(coef, np.abs(coef) <= 1.0 + _L1_TOL, "term coefficient must lie in [-1, 1]")
        _check(t, (t >= 0.0) & (t <= 1.0), "threshold t must lie in [0, 1]")
        l1 = np.abs(A).sum(axis=1)
        _check(l1, l1 <= 1.0 + _L1_TOL, "||a||_1 must be finite and at most 1")
        sign = sign.astype(np.int64)
        a0, b0, v = _numeric(a0, "a0"), float(b0), float(v)
        if a0.shape != (d,) or not np.all(np.isfinite(a0)):
            raise UsageError(f"a0 must be a finite vector of length {d}, got shape {a0.shape}")
        if not (math.isfinite(b0) and math.isfinite(v) and v >= 0):
            raise UsageError(f"b0 and v must be finite and v nonnegative, got b0={b0}, v={v}")
        if A0 is not None:
            if s == 2:
                raise UsageError("quadratic part A0 is only allowed for s = 3")
            A0 = _numeric(A0, "A0")
            if A0.shape != (d, d) or not (np.all(np.isfinite(A0))
                                          and np.allclose(A0, A0.T, atol=1e-10)):
                raise UsageError(f"A0 must be a finite symmetric {d}x{d} matrix")
        return cls._unchecked(d, s, b0, a0, A0, v, coef, sign, A, t)

    @classmethod
    def _unchecked(cls, d, s, b0, a0, A0, v, coef, sign, A, t) -> "RidgeCombination":
        """A combination of checked fields, its arrays made read-only as given."""
        for arr in (a0, A0, coef, sign, A, t):
            if arr is not None:
                arr.setflags(write=False)
        comb = cls.__new__(cls)
        comb.__dict__.update(d=d, s=s, b0=b0, a0=a0, A0=A0, v=v, coef=coef, sign=sign, A=A, t=t)
        return comb

    @cached_property
    def terms(self) -> tuple[tuple[float, RidgeAtom], ...]:
        """The terms as (b, RidgeAtom) pairs, built on first access."""
        return tuple(zip(self.coef.tolist(), _atoms(self.sign, self.A, self.t, self.s)))

    @property
    def term_count(self) -> int:
        return self.coef.size

    @property
    def inner_sparsity_max(self) -> int:
        return int(np.count_nonzero(self.A, axis=1).max(initial=0))

    @property
    def outer_scale(self) -> float:
        """The factor applied to the averaged atom sum: v/m or v/(2m)."""
        m = self.term_count
        if m == 0:
            return 0.0
        return self.v / m if self.s == 2 else self.v / (2 * m)

    @cached_property
    def _directions(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct inner vectors (rows) and each term's row index among them.

        The rows in lexicographic order, as np.unique(A, axis=0) gives them.
        """
        first, inverse = _distinct_rows(self.A)
        return self.A[first], inverse

    @cached_property
    def _grouped(self) -> bool:
        """Whether the term sum goes by direction groups rather than dense blocks."""
        return self.term_count >= _GROUPED_MIN_REPEAT * self._directions[0].shape[0]

    @cached_property
    def _groups(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per distinct direction a: (a, its sorted thresholds ts, prefix sums S).

        S[j, i] is the sum of b t^j over the group's i smallest thresholds, j < s.
        """
        B, T = self.coef, self.t
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
        """sum_k b_k (a_k . x - t_k)_+^(s-1) by direction groups, O(n D log m).

        The points go in blocks of _GROUPED_BLOCK, every group's sum into one
        block before the next, so a block's projections and gathers stay in
        cache; each point gets the bits of an unblocked sum.
        """
        acc = np.zeros(points.shape[0])
        for lo in range(0, points.shape[0], _GROUPED_BLOCK):
            blk, out = points[lo:lo + _GROUPED_BLOCK], acc[lo:lo + _GROUPED_BLOCK]
            for a, ts, S in self._groups:
                p = blk @ a
                i = np.searchsorted(ts, p)  # the group's terms with t < p are the active ones
                if self.s == 2:
                    out += p * S[0, i] - S[1, i]
                else:
                    out += (p * S[0, i] - 2.0 * S[1, i]) * p + S[2, i]
        return acc

    def _term_sum(self, points: np.ndarray) -> np.ndarray:
        """sum_k b_k (a_k . x - t_k)_+^(s-1) at each row of points, grouped or dense."""
        if self._grouped:
            return self._grouped_term_sum(points)
        return _dense_term_sum(points, self.A.T, self.t, self.coef[:, None], self.s == 3)

    @cached_property
    def _supports(self) -> tuple[tuple[np.ndarray, "RidgeCombination"], ...]:
        """Per nonempty support S of the inner vectors, in support-code order:
        (S, a combination of the terms with support S, their a_k cut to S).

        Each holds checked slices.  A term with a = 0 is (-t)_+^(s-1) = 0, in no group.
        """
        nonzero = self.A != 0
        code = nonzero @ (1 << np.arange(self.d))
        groups = []
        for c in np.unique(code[code > 0]):
            idx = np.flatnonzero(code == c)
            S = np.flatnonzero(nonzero[idx[0]])
            groups.append((S, RidgeCombination._unchecked(
                S.size, self.s, 0.0, np.zeros(S.size), None, self.v, self.coef[idx],
                self.sign[idx], self.A[idx][:, S], self.t[idx])))
        return tuple(groups)

    def _checked_points(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.d:
            raise UsageError(f"points must have shape (n, {self.d})")
        return points

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """The combination at each row of points (n, d)."""
        points = self._checked_points(points)
        out = polynomial_part(points, self.b0, self.a0, self.A0)
        if self.term_count:
            out += self.outer_scale * self._term_sum(points)
        return out

    def subtract_terms(self, out: np.ndarray, points: np.ndarray,
                       axis: np.ndarray | None = None) -> np.ndarray:
        """out minus the term sum (the combination less its polynomial part) at
        each row of points, in place; returns out, a contiguous float array of
        shape (n,).

        `axis`, when given, says that points is tensor_grid(axis, d).  Then the
        terms whose inner vectors share a support S are summed on
        tensor_grid(axis, |S|) and broadcast along the other coordinates: an
        l0-sparse term costs len(axis)^|S| evaluations, not n.
        """
        points = self._checked_points(points)
        if not (isinstance(out, np.ndarray) and out.dtype == float
                and out.shape == points.shape[:1] and out.flags.c_contiguous):
            raise UsageError(f"out must be a contiguous float array of shape "
                             f"({points.shape[0]},)")
        if axis is None:
            if self.term_count:
                out -= self.outer_scale * self._term_sum(points)
            return out
        k, d = np.size(axis), self.d
        if np.ndim(axis) != 1 or points.shape[0] != k**d:
            raise UsageError(f"with axis of shape {np.shape(axis)}, points must be "
                             f"tensor_grid(axis, {d}), got shape {points.shape}")
        axis, view = np.asarray(axis, dtype=float), out.reshape((k,) * d)
        for S, sub in self._supports:
            shape = [k if j in S else 1 for j in range(d)]
            if sub._grouped:
                T = sub._grouped_term_sum(points if S.size == d else tensor_grid(axis, S.size))
                T *= self.outer_scale
                view -= T.reshape(shape)
                continue
            # a full-support group goes into out itself, a smaller one into its sub-grid
            grid = out.reshape(k, -1) if S.size == d else np.zeros((k, k ** (S.size - 1)))
            _dense_tensor_sum(grid, axis, sub.A, sub.t, sub.coef, self.s == 3, -self.outer_scale)
            if S.size < d:
                view += grid.reshape(shape)
        return out

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.evaluate_batch(x[None, :])[0])

    # --- serialization ---

    def _json_head(self) -> dict:
        """The document's fields before its terms."""
        doc = {"version": 1, "dim": self.d, "order": self.s, "b0": self.b0, "a0": self.a0.tolist()}
        if self.s == 3:
            doc["A0"] = None if self.A0 is None else self.A0.tolist()
        doc["v"] = self.v
        return doc

    def to_json_dict(self) -> dict:
        doc = self._json_head()
        cols = (self.coef.tolist(), self.sign.tolist(), self.A.tolist(), self.t.tolist())
        doc["terms"] = [{"b": b, "sign": sign, "a": a, "t": t} for b, sign, a, t in zip(*cols)]
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RidgeCombination":
        try:
            d, s = doc["dim"], doc["order"]
            b0, a0, A0, v = float(doc["b0"]), doc["a0"], doc.get("A0"), float(doc["v"])
            coef, sign, A, t = (list(map(itemgetter(key), doc["terms"]))
                                for key in ("b", "sign", "a", "t"))
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed combination document: {exc}") from exc
        if not {type(d), type(s), *map(type, sign)} <= {int}:  # not true, 2.0 or 1.5
            raise UsageError("malformed combination document: "
                             "dim, order and term signs must be integers")
        return cls.from_arrays(d, s, b0, a0, A0, v, coef, sign, A, t)

    def save(self, path) -> None:
        """Write json.dumps(self.to_json_dict()) + "\\n", streamed from the term arrays.

        The terms go out _SAVE_BLOCK at a time.  In each block every distinct
        coefficient, threshold and inner vector is formatted once with repr,
        which is the text the json encoder writes for a finite float.
        """
        with Path(path).open("w") as f:
            f.write(f'{json.dumps(self._json_head())[:-1]}, "terms": [')
            for lo in range(0, self.term_count, _SAVE_BLOCK):
                blk = slice(lo, lo + _SAVE_BLOCK)
                cols = (_texts(self.coef[blk], repr), self.sign[blk].tolist(),
                        _texts(self.A[blk], _row_text), _texts(self.t[blk], repr))
                f.write(", " if lo else "")
                f.write(", ".join([f'{{"b": {b}, "sign": {sign}, "a": {a}, "t": {t}}}'
                                   for b, sign, a, t in zip(*cols)]))
            f.write("]}\n")

    @classmethod
    def load(cls, path) -> "RidgeCombination":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def make_affine(d: int, s: int, b0: float, a0, A0=None, v: float = 0.0) -> RidgeCombination:
    """Combination with no ridge terms (the affine/quadratic correction alone)."""
    return RidgeCombination.from_arrays(d, s, b0, a0, A0, v, (), (), (), ())
