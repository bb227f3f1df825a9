"""Quadrature rules on the cube [-1, 1]^d under the uniform probability measure."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import UsageError

MAX_RULE_POINTS = 20_000_000  # cap on the points of a tensor rule or sup grid


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def tensor_grid(axis, d: int) -> np.ndarray:
    """The n^d points of the d-fold product of a 1-d axis, shape (n^d, d), last
    coordinate fastest; d = 0 gives the one empty point."""
    axis = np.asarray(axis)
    return axis[np.indices((axis.size,) * d).reshape(d, axis.size**d).T]


@lru_cache(maxsize=16)
def uniform_cube_rule(d: int, nodes_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule; weights sum to 1 (probability measure)."""
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    if nodes_per_axis < 1:
        raise UsageError(f"nodes_per_axis must be >= 1, got {nodes_per_axis}")
    if nodes_per_axis**d > MAX_RULE_POINTS:
        raise UsageError(f"tensor rule too large: {nodes_per_axis}^{d} nodes")
    x1, w1 = _leggauss(nodes_per_axis)
    w1 = w1 / 2.0  # [-1,1] has mass 1 per axis
    points = tensor_grid(x1, d)
    weight = np.prod(tensor_grid(w1, d), axis=1)
    points.setflags(write=False)
    weight.setflags(write=False)
    return points, weight


def panel_rule(edges: np.ndarray, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule over consecutive [edges[i], edges[i+1]] panels."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) < 0):
        raise UsageError("edges must be a nondecreasing 1-d array with >= 2 entries")
    x1, w1 = _leggauss(nodes_per_panel)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = (hi - lo) / 2.0
    nodes = (lo + hi) / 2.0 + half * x1[None, :]
    weights = half * w1[None, :]
    return nodes.ravel(), weights.ravel()
