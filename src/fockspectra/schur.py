"""Schur-complement symbol, compact kernel, and the Birman-Schwinger operator.

For a spectral parameter z outside the closed range of w2 the first Schur
complement of the reduced block matrix splits as S(z) = Delta(z) + K(z): a
multiplication operator by

    Delta(x; z) = w1(x) - z - (1/2) * integral |v1(x, y)|^2 / (w2(x, y) - z) dy

plus the integral operator with Hilbert-Schmidt kernel

    K(x, y; z) = -(1/2) v1(x, y) v1(y, x)* / (w2(x, y) - z).

On a grid the quadrature discretization of S(z) in weight-normalized
coordinates is *exactly* the Schur complement of the assembled block matrix
(the diagonal pair contributes the matching half of the integral term), so
the counting identities below the essential spectrum hold as integer
equalities for the discrete matrices.

Strictly below the essential spectrum the symbol is positive and the
Birman-Schwinger operator

    T(z) = -Delta(z)^{-1/2} K(z) Delta(z)^{-1/2}

is defined; its eigenvalues above 1 count the bound states below z.

The symbol at the nodes, its point evaluations and the Hilbert-Schmidt norm
of T are streamed over row blocks of blocks.BLOCK_ELEMENTS samples, so their
memory does not grow with the square of the grid, and the blocks run on
every CPU of the affinity mask (blocks.map_blocks).  Points off the nodes
have one kernel, delta_at_points, which also gives the slope d Delta / dz
from the same pass when asked (the Sigma_2 root search).  Only the dense
matrices (K, S and T, for discrete and bs-check) read the N x N mesh
samples, and all of them come from one evaluation per z: schur_eval's Delta
at the nodes and K, both from one pole-checked W2 - z.  S = diag(Delta) + K
and T are built from that pair; discrete's branch search needs only the
eigenvalues of S.  Of the factors that do not depend on z, sqrt(w) is built
once per grid with the mesh samples (model.MeshSamples.sw), and the diagonal
of S is written through a strided view, with no index array.  The coupling
product does not depend on z either, but it is N x N: kept per grid it would
hold one more such array through discrete's eigensolves, its peak, so each
evaluation forms it and then K in its memory.
"""

from __future__ import annotations

import math

import numpy as np

from .blocks import map_blocks
from .grid import Grid
from .model import (ModelSpec, _as_point, _as_points, _check_grid, _owned, _sym_w2, eval_x,
                    eval_xy, mesh_samples, shared_v1_row)

POLE_TOL = 1e-12


class PoleProximityError(RuntimeError):
    """z is within POLE_TOL of a sampled value of w2 (numerically inside Sigma_1)."""

    def __init__(self, z: float, dist: float):
        super().__init__(
            f"z = {z!r} is within {dist:.3e} of a sampled w2 value: "
            "numerically inside Sigma_1")
        self.z = z
        self.dist = dist


class DeltaNotPositiveError(ValueError):
    """Delta(x; z) is not positive at some node, or is NaN there."""


def _require_positive(delta_vals: np.ndarray) -> None:
    dmin = float(np.min(delta_vals))
    if not dmin > 0.0:          # a NaN fails too
        raise DeltaNotPositiveError(
            f"Delta(x; z) is nonpositive at a node (min {dmin:.3e}): "
            "z not strictly below essential spectrum (or Assumption failure)")


def _pole_check(W2: np.ndarray, z: float, out=None) -> np.ndarray:
    """W2 - z, after checking that no sample of w2 lies within POLE_TOL of z.

    The difference goes into out (W2 itself if the caller owns it and is done
    with it).  z clears every sample when all of W2 - z lies on one side of
    the pole band, which two reductions show without writing |W2 - z|; only
    otherwise is the distance min |W2 - z| computed.  A NaN sample fails
    both tests and makes that distance NaN, which passes.
    """
    shifted = np.subtract(W2, z, out=out)
    if np.min(shifted) >= POLE_TOL or np.max(shifted) <= -POLE_TOL:
        return shifted
    dist = float(np.min(np.abs(shifted)))
    if dist < POLE_TOL:
        raise PoleProximityError(z, dist)
    return shifted


def _v1_sq(spec: ModelSpec, grid: Grid, pts: np.ndarray, b: slice) -> np.ndarray:
    """|v1(p, y_j)|^2 for the points p of pts[b] and the nodes y_j, as a new array."""
    V = eval_xy(spec, spec.v1, pts[b, None, :], grid.nodes[None, :, :])
    sq = np.abs(V, out=_owned(V))
    return np.square(sq, out=sq)


def delta_values(spec: ModelSpec, grid: Grid, z) -> np.ndarray:
    """Delta(x_i; z) at every grid node, streamed; a sequence of z gives one row per z."""
    _check_grid(spec, grid)
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    quad = np.empty((zs.size, grid.n))
    shared = shared_v1_row(spec, grid.nodes, grid.nodes)      # None unless v1 ignores x
    row = None if shared is None else np.abs(shared) ** 2

    def block(b):
        v2 = row if row is not None else _v1_sq(spec, grid, grid.nodes, b)
        W = _sym_w2(spec, grid, b)
        for k, zk in enumerate(zs.tolist()):
            shifted = _pole_check(W, zk, out=W if k == zs.size - 1 else None)   # last z takes W
            quad[k, b] = np.divide(v2, shifted, out=shifted) @ grid.weights

    map_blocks(block, grid.n, grid.n)
    out = eval_x(spec, spec.w1, grid.nodes).astype(float) - zs[:, None] - 0.5 * quad
    return out if np.ndim(z) else out[0]


def delta_at_points(spec: ModelSpec, grid: Grid, pts, z, slope: bool = False):
    """Delta(p; z) at every point p of pts (shape (m, d)), not necessarily nodes.

    z is a scalar or an array of one value per point.  With slope the same
    pass also gives d/dz Delta(p; z) <= -1, returned second.  The integral
    over y uses the grid's quadrature, by row block of points: w2 - z in the
    w2 block just sampled, after its pole check, and w_j |v1(p, y_j)|^2 in a
    new block, or in one row computed once per call when v1 ignores p.
    Values of z inside the numerical pole band of the sampled w2 raise
    PoleProximityError; callers probing the critical energy min sess(H)
    should treat results as refinement-trend data rather than converged
    values when the integrand is singular there.
    """
    pts = _as_points(pts, spec.d).reshape(-1, spec.d)
    quad = np.empty(pts.shape[0])
    dquad = np.empty(pts.shape[0]) if slope else None
    _check_grid(spec, grid)
    row = shared_v1_row(spec, pts, grid.nodes)      # None unless v1 ignores p
    wrow = None if row is None else grid.weights * np.abs(row) ** 2

    def block(b):
        W = eval_xy(spec, spec.w2, pts[b, None, :], grid.nodes[None, :, :])
        shifted = _pole_check(W, z[b, None] if np.ndim(z) > 0 else z, out=_owned(W))
        wv2 = wrow
        if wv2 is None:
            sq = _v1_sq(spec, grid, pts, b)
            wv2 = np.multiply(grid.weights, sq, out=sq)
        if not slope:
            quad[b] = np.sum(np.divide(wv2, shifted, out=shifted), axis=-1)
            return
        q = wv2 / shifted
        quad[b] = np.sum(q, axis=-1)
        dquad[b] = np.sum(np.divide(q, shifted, out=shifted), axis=-1)

    map_blocks(block, pts.shape[0], grid.n)
    delta = eval_x(spec, spec.w1, pts).astype(float) - z - 0.5 * quad
    return (delta, -1.0 - 0.5 * dquad) if slope else delta


def delta_at(spec: ModelSpec, grid: Grid, x, z: float) -> float:
    """Delta(x; z) at one point x: the one-point view of delta_at_points."""
    return float(delta_at_points(spec, grid, _as_point(x, spec.d)[None, :], z)[0])


def schur_eval(spec: ModelSpec, grid: Grid, z: float):
    """(Delta(x_i; z), K(z)): the one evaluation at z that S and T are built from.

    Both come from the mesh samples and one pole-checked W2 - z; Delta is
    summed in the row blocks of delta_values and equals it bit for bit.  K is
    the weight-normalized kernel matrix sqrt(w_i) K(x_i, x_j; z) sqrt(w_j), a
    new Hermitian array the caller owns, formed in the memory of the z-free
    coupling product -1/2 v1(x_i, x_j) v1(x_j, x_i)*: W2 - z and that product
    are the only N x N arrays an evaluation allocates.
    """
    ms = mesh_samples(spec, grid)
    shifted = _pole_check(ms.W2, z)
    quad = np.empty(grid.n)

    def block(b):
        quad[b] = (np.abs(ms.V1[b]) ** 2 / shifted[b]) @ grid.weights

    map_blocks(block, grid.n, grid.n)
    K = -0.5 * ms.V1
    if np.iscomplexobj(K):      # conj(conj(K) V1.T): no conjugate copy of V1.T
        np.conjugate(K, out=K)
        K *= ms.V1.T
        np.conjugate(K, out=K)
    else:
        K *= ms.V1.T
    K /= shifted
    K *= ms.sw[:, None]
    K *= ms.sw[None, :]
    return ms.w1 - z - 0.5 * quad, K


def _s_into(delta: np.ndarray, K: np.ndarray) -> np.ndarray:
    """S(z) = diag(Delta(z)) + K(z), formed in K's own memory."""
    np.einsum("ii->i", K)[:] += delta      # the diagonal, as a writeable view
    return K


def _t_from(delta: np.ndarray, K: np.ndarray) -> np.ndarray:
    """T(z) = -D^{-1/2} K D^{-1/2}, D = diag(Delta(z)), as a new array.

    Requires Delta(x_i; z) > 0 at every node, which holds for z strictly
    below the essential spectrum.
    """
    _require_positive(delta)
    scale = delta**-0.5
    return -(scale[:, None] * K * scale[None, :])


def k_matrix(spec: ModelSpec, grid: Grid, z: float) -> np.ndarray:
    """Weight-normalized compact-kernel matrix sqrt(w_i) K(x_i, x_j; z) sqrt(w_j)."""
    return schur_eval(spec, grid, z)[1]


def hs_norm_k(spec: ModelSpec, grid: Grid, z: float) -> float:
    """Discrete Hilbert-Schmidt norm of K(z) (the Frobenius norm of k_matrix)."""
    return float(np.linalg.norm(k_matrix(spec, grid, z)))


def s_matrix(spec: ModelSpec, grid: Grid, z: float) -> np.ndarray:
    """Discrete Schur complement diag(Delta(z)) + K(z)."""
    return _s_into(*schur_eval(spec, grid, z))


def bs_operator(spec: ModelSpec, grid: Grid, z: float) -> np.ndarray:
    """Birman-Schwinger matrix T(z); DeltaNotPositiveError unless Delta(z) > 0."""
    return _t_from(*schur_eval(spec, grid, z))


def hs_norm_t(spec: ModelSpec, grid: Grid, z: float) -> float:
    """Hilbert-Schmidt norm of T(z), streamed: no mesh samples, no K or T.

    With u = w / Delta(z) and W the symmetrized w2 samples,

        ||T(z)||_HS^2 = 1/4 sum_ij u_i u_j |v1(x_i, x_j)|^2 |v1(x_j, x_i)|^2 / (W_ij - z)^2.

    Pass 1 is delta_values, pass 2 the quadratic form over the same row
    blocks, so memory is O(BLOCK_ELEMENTS) per CPU at any grid
    size; the block partials are summed in block order.  The summand is
    exactly symmetric in (i, j), so row block b sums only the columns from
    b.start on: its diagonal block once and the columns right of it twice.
    Raises what bs_operator raises: PoleProximityError when a block of W
    comes within POLE_TOL of z (pass 1 checks every sample pass 2 reads),
    then DeltaNotPositiveError unless Delta(z) > 0.
    """
    X = grid.nodes[:, None, :]
    delta = delta_values(spec, grid, z)
    _require_positive(delta)
    u = grid.weights / delta

    def form_block(b):
        cols = slice(b.start, None)
        Y = grid.nodes[None, cols, :]
        shifted = _sym_w2(spec, grid, b, cols)      # before the coupling: two blocks at a time
        shifted -= z
        coupling = eval_xy(spec, spec.v1, X[b], Y) * eval_xy(spec, spec.v1, Y, X[b])
        coupling = np.abs(coupling, out=coupling.real)      # in place for a real v1
        form = np.square(np.divide(coupling, shifted, out=shifted), out=shifted)
        rows = form.shape[0]
        return float(u[b] @ (form[:, :rows] @ u[b] + 2.0 * (form[:, rows:] @ u[b.stop:])))

    return 0.5 * math.sqrt(sum(map_blocks(form_block, grid.n, grid.n)))   # in block order

