"""Quadrature grids on the cube Omega = (-a, a)^d and on the symmetric pair space.

Two rules are supported: the composite midpoint rule (default, adequate for
merely bounded/measurable data) and tensor Gauss-Legendre (opt-in, for
analytic integrands).  Nodes always carry an explicit trailing coordinate
axis of length ``d``.

The pair grid enumerates unordered node pairs {i, j} with i <= j and weights
W_ij = (2 - delta_ij) * w_i * w_j, so that for a symmetric function f the
squared L2 norm over Omega^2 is  sum_{i<=j} W_ij |f(x_i, x_j)|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RULES = ("midpoint", "gauss-legendre")
ZOOM_K = 8          # a zoom lattice has 2 k + 1 points per axis, k = ZOOM_K unless given
ZOOM_TOL = 1e-12    # spacing of the finest zoom lattice


@dataclass(frozen=True, eq=False)
class Grid:
    """Tensor-product quadrature grid on (-a, a)^d.

    nodes has shape (N, d) with N = n_per_dim**d; weights has shape (N,)
    and sums to (2a)^d.
    """

    d: int
    a: float
    rule: str
    n_per_dim: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True, eq=False)
class PairGrid:
    """Unordered-pair grid over a base Grid.

    pairs has shape (P, 2) with index pairs i <= j in row-major upper
    triangular order, P = N(N+1)/2; pair_weights sums to (sum of base
    weights)^2.
    """

    base: Grid
    pairs: np.ndarray
    pair_weights: np.ndarray

    @property
    def p(self) -> int:
        return self.pairs.shape[0]


def _rule_1d(n: int, a: float, rule: str) -> tuple[np.ndarray, np.ndarray]:
    if rule == "midpoint":
        h = 2.0 * a / n
        x = -a + (np.arange(n) + 0.5) * h
        w = np.full(n, h)
    elif rule == "gauss-legendre":
        xi, wi = np.polynomial.legendre.leggauss(n)
        x, w = a * xi, a * wi
    else:
        raise ValueError(f"unknown quadrature rule {rule!r}; expected one of {RULES}")
    return x, w


def lattice(axis: np.ndarray, d: int) -> np.ndarray:
    """The points of axis^d in row-major order, shape (len(axis)^d, d)."""
    axes = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([ax.ravel() for ax in axes], axis=-1)


def _zoom_minimize(f, best: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   k: int = ZOOM_K, tol: float = ZOOM_TOL) -> np.ndarray:
    """Minimize f near best inside the box [lo, hi]; f maps (m, dim) points to m values.

    Each pass evaluates a lattice of (2 k + 1)^dim points of spacing h,
    centred on the incumbent and clipped to the box.  The first lattice
    spans the box; each next one spans one spacing of the last on either
    side of the incumbent, at spacing h / k, until h is at most tol.
    The incumbent moves only to a strictly smaller value, so a tie keeps it.
    """
    offsets = lattice(np.arange(-k, k + 1, dtype=float), best.size)
    f_best = f(best[None, :])[0]
    span = float(np.max(hi - lo))       # half-width of the first lattice
    while span > tol:
        step = span / k
        cand = np.clip(best + step * offsets, lo, hi)
        vals = f(cand)
        i = int(np.argmin(vals))
        if vals[i] < f_best:
            best, f_best = cand[i].copy(), vals[i]
        span = step
    return best


def _lattice_minima(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of values no larger than any of their face neighbours."""
    local = np.ones(values.shape, dtype=bool)
    for axis in range(values.ndim):
        head = (slice(None),) * axis + (slice(None, -1),)
        tail = (slice(None),) * axis + (slice(1, None),)
        local[tail] &= values[tail] <= values[head]
        local[head] &= values[head] <= values[tail]
    return local


def make_grid(d: int, a: float, n_per_dim: int, rule: str = "midpoint") -> Grid:
    """Build a tensor-product grid with n_per_dim nodes per dimension."""
    if d < 1:
        raise ValueError("dimension d must be a positive integer")
    if a <= 0:
        raise ValueError("half-width a must be positive")
    if n_per_dim < 2:
        raise ValueError("n_per_dim must be at least 2")
    x1, w1 = _rule_1d(n_per_dim, a, rule)
    nodes = lattice(x1, d)
    weights = np.ones(1)
    for _ in range(d):
        weights = np.multiply.outer(weights, w1).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return Grid(d=d, a=float(a), rule=rule, n_per_dim=n_per_dim, nodes=nodes, weights=weights)


def make_pair_grid(grid: Grid) -> PairGrid:
    """Enumerate unordered node pairs with symmetric-subspace weights."""
    n = grid.n
    i, j = np.triu_indices(n)
    pairs = np.stack([i, j], axis=-1)
    w = grid.weights
    pair_weights = np.where(i == j, 1.0, 2.0) * w[i] * w[j]
    pairs.setflags(write=False)
    pair_weights.setflags(write=False)
    return PairGrid(base=grid, pairs=pairs, pair_weights=pair_weights)
