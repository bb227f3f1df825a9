"""Quadrature rules on the cube [-1, 1]^d under the uniform probability measure."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import UsageError

MAX_RULE_POINTS = 20_000_000  # cap on the points of a tensor rule


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=32)
def gauss_lobatto(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Lobatto-Legendre rule on [-1, 1], exact to degree 2n - 3, read-only:
    the ends and the roots of P'_(n-1), by Newton on x P_(n-1) - P_(n-2) (derivative n
    P_(n-1)), weights 2 / (n (n-1) P_(n-1)^2); both made exactly symmetric."""
    if n < 2:
        raise UsageError(f"a Lobatto rule needs n >= 2 nodes, got {n}")
    x = -np.cos(np.pi * np.arange(n) / (n - 1))
    for _ in range(8):  # from these points 5 steps reach rounding, for n up to 4472 at least
        p0, p1 = np.ones(n), x
        for k in range(2, n):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        x = x - (x * p1 - p0) / (n * p1)
    w = 2.0 / (n * (n - 1) * p1 * p1)
    x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    for a in (x, w):
        a.setflags(write=False)
    return x, w


def tensor_grid(axis, d: int) -> np.ndarray:
    """The n^d points of the d-fold product of a 1-d axis, shape (n^d, d), last
    coordinate fastest; d = 0 gives the one empty point."""
    axis = np.asarray(axis)
    return axis[np.indices((axis.size,) * d).reshape(d, axis.size**d).T]


@lru_cache(maxsize=16)
def uniform_cube_rule(d: int, nodes_per_axis: int,
                      lobatto: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule, or Gauss-Lobatto-Legendre (nodes on the faces
    and corners) when lobatto; weights sum to 1 (probability measure)."""
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    if nodes_per_axis < 1:
        raise UsageError(f"nodes_per_axis must be >= 1, got {nodes_per_axis}")
    if nodes_per_axis**d > MAX_RULE_POINTS:
        raise UsageError(f"tensor rule too large: {nodes_per_axis}^{d} nodes")
    x1, w1 = (gauss_lobatto if lobatto else _leggauss)(nodes_per_axis)
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
