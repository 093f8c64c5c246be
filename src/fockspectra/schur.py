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
every CPU of the affinity mask (blocks.map_blocks).  Only the dense matrices
(K, S, dS/dz and T, for discrete and bs-check) read the N x N mesh samples;
s_and_derivative builds S(z) and dS/dz for discrete's branch search from one
pole-checked W2 - z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import map_blocks
from .grid import Grid
from .model import ModelSpec, _as_point, _as_points, _sym_w2, eval_x, eval_xy, mesh_samples

POLE_TOL = 1e-12


class PoleProximityError(RuntimeError):
    """z is within POLE_TOL of a sampled value of w2 (numerically inside Sigma_1)."""

    def __init__(self, z: float, dist: float):
        super().__init__(
            f"z = {z!r} is within {dist:.3e} of a sampled w2 value: "
            "numerically inside Sigma_1")
        self.z = z
        self.dist = dist


def _require_positive(delta_vals: np.ndarray) -> None:
    dmin = float(np.min(delta_vals))
    if dmin <= 0.0:
        raise ValueError(
            f"Delta(x; z) is nonpositive at a node (min {dmin:.3e}): "
            "z not strictly below essential spectrum (or Assumption failure)")


@dataclass(frozen=True, eq=False)
class SchurEval:
    """Symbol values and compact-kernel matrix at one z.

    The single source of the Schur complement S(z) and the Birman-Schwinger
    operator T(z): both are built from these samples without re-evaluating
    the parameter functions.
    """

    z: float
    delta_vals: np.ndarray   # (N,) Delta(x_i; z)
    k_matrix: np.ndarray     # (N, N) weight-normalized, Hermitian

    def s_matrix(self) -> np.ndarray:
        """Discrete Schur complement diag(Delta(z)) + K(z), as a new array."""
        S = self.k_matrix.copy()
        S[np.diag_indices_from(S)] += self.delta_vals
        return S

    def t_matrix(self) -> np.ndarray:
        """Birman-Schwinger matrix -D^{-1/2} K D^{-1/2}, D = diag(Delta(z)).

        Requires Delta(x_i; z) > 0 at every node, which holds for z strictly
        below the essential spectrum.
        """
        _require_positive(self.delta_vals)
        scale = self.delta_vals**-0.5
        return -(scale[:, None] * self.k_matrix * scale[None, :])


def _pole_check(W2: np.ndarray, z: float) -> np.ndarray:
    """W2 - z, after checking that no sample of w2 lies within POLE_TOL of z.

    z clears every sample when all of W2 - z lies on one side of the pole
    band, which two reductions show without writing |W2 - z|; only otherwise
    is the distance min |W2 - z| computed.  A NaN sample fails both tests and
    makes that distance NaN, which passes.
    """
    shifted = W2 - z
    if np.min(shifted) >= POLE_TOL or np.max(shifted) <= -POLE_TOL:
        return shifted
    dist = float(np.min(np.abs(shifted)))
    if dist < POLE_TOL:
        raise PoleProximityError(z, dist)
    return shifted


def _shared_v1_sq(spec: ModelSpec, grid: Grid, pts: np.ndarray):
    """|v1(p, y_j)|^2 over the nodes y_j as one row for every point p of pts, or None.

    The row is shared when v1 ignores p, which eval_xy shows by spreading
    the samples at pts[:2] from one row (a zero row stride); a single point
    is its own row.  Otherwise each row block samples v1 itself (_v1_sq).
    """
    V1 = eval_xy(spec, spec.v1, pts[:2, None, :], grid.nodes[None, :, :])
    if V1.shape[0] == 1 or (V1.shape[0] > 1 and V1.strides[0] == 0):
        return np.abs(V1[0]) ** 2
    return None


def _v1_sq(spec: ModelSpec, grid: Grid, pts: np.ndarray, b: slice) -> np.ndarray:
    """|v1(p, y_j)|^2 for the points p of pts[b] and the nodes y_j."""
    return np.abs(eval_xy(spec, spec.v1, pts[b, None, :], grid.nodes[None, :, :])) ** 2


def delta_values(spec: ModelSpec, grid: Grid, z) -> np.ndarray:
    """Delta(x_i; z) at every grid node, streamed; a sequence of z gives one row per z."""
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    quad = np.empty((zs.size, grid.n))
    row = _shared_v1_sq(spec, grid, grid.nodes)

    def block(b):
        v2 = row if row is not None else _v1_sq(spec, grid, grid.nodes, b)
        W = _sym_w2(spec, grid, b)
        for k, zk in enumerate(zs.tolist()):
            shifted = _pole_check(W, zk)
            quad[k, b] = np.divide(v2, shifted, out=shifted) @ grid.weights

    map_blocks(block, grid.n, grid.n)
    out = eval_x(spec, spec.w1, grid.nodes).astype(float) - zs[:, None] - 0.5 * quad
    return out if np.ndim(z) else out[0]


def _point_rows(spec: ModelSpec, grid: Grid, pts: np.ndarray, z):
    """The y-integrand of the symbol at the points pts (shape (m, d)), by row block.

    z is a scalar or an array of one value per point.  Returns a function
    of a row block b giving (w_j |v1(p, y_j)|^2, w2(p, y_j) - z) for the
    points pts[b], after the pole check of z against their own w2 samples.
    When v1 ignores p, the first is one row computed here, once per call.
    """
    row = _shared_v1_sq(spec, grid, pts)
    wrow = None if row is None else grid.weights * row

    def rows(b):
        zb = z[b, None] if np.ndim(z) > 0 else z
        shifted = _pole_check(eval_xy(spec, spec.w2, pts[b, None, :], grid.nodes[None, :, :]), zb)
        return (wrow if wrow is not None else grid.weights * _v1_sq(spec, grid, pts, b)), shifted

    return rows


def delta_at_points(spec: ModelSpec, grid: Grid, pts, z: float) -> np.ndarray:
    """Delta(p; z) at every point p of pts (shape (m, d)), not necessarily nodes.

    The integral over y uses the grid's quadrature.  Values of z inside the
    numerical pole band of the sampled w2 raise PoleProximityError; callers
    probing the critical energy min sess(H) should treat results as
    refinement-trend data rather than converged values when the integrand is
    singular there.
    """
    pts = _as_points(pts, spec.d).reshape(-1, spec.d)
    quad = np.empty(pts.shape[0])
    integrand = _point_rows(spec, grid, pts, z)

    def block(b):
        wv2, shifted = integrand(b)
        quad[b] = np.sum(np.divide(wv2, shifted, out=shifted), axis=-1)

    map_blocks(block, pts.shape[0], grid.n)
    return eval_x(spec, spec.w1, pts).astype(float) - z - 0.5 * quad


def delta_and_derivative_at_points(spec: ModelSpec, grid: Grid, pts, z):
    """Delta(p; z) and d/dz Delta(p; z) <= -1 at every point p of pts, from one pass.

    As delta_at_points, except that z may also hold one value per point.
    """
    pts = _as_points(pts, spec.d).reshape(-1, spec.d)
    quad = np.empty(pts.shape[0])
    dquad = np.empty(pts.shape[0])
    integrand = _point_rows(spec, grid, pts, z)

    def block(b):
        wv2, shifted = integrand(b)
        q = wv2 / shifted
        quad[b] = np.sum(q, axis=-1)
        dquad[b] = np.sum(np.divide(q, shifted, out=shifted), axis=-1)

    map_blocks(block, pts.shape[0], grid.n)
    return eval_x(spec, spec.w1, pts).astype(float) - z - 0.5 * quad, -1.0 - 0.5 * dquad


def delta_at(spec: ModelSpec, grid: Grid, x, z: float) -> float:
    """Delta(x; z) at one point x: the one-point view of delta_at_points."""
    return float(delta_at_points(spec, grid, _as_point(x, spec.d)[None, :], z)[0])


def k_matrix(spec: ModelSpec, grid: Grid, z: float) -> np.ndarray:
    """Weight-normalized compact-kernel matrix sqrt(w_i) K(x_i, x_j; z) sqrt(w_j)."""
    return schur_eval(spec, grid, z).k_matrix


def hs_norm_k(spec: ModelSpec, grid: Grid, z: float) -> float:
    """Discrete Hilbert-Schmidt norm of K(z) (the Frobenius norm of k_matrix)."""
    return float(np.linalg.norm(k_matrix(spec, grid, z)))


def _delta_and_k(ms, grid: Grid, shifted: np.ndarray, z: float):
    """Delta at the nodes and K, from the mesh samples and shifted = W2 - z.

    Delta is summed in the row blocks of delta_values and equals it bit for bit.
    """
    quad = np.empty(grid.n)

    def block(b):
        quad[b] = (np.abs(ms.V1[b]) ** 2 / shifted[b]) @ grid.weights

    map_blocks(block, grid.n, grid.n)
    sw = np.sqrt(grid.weights)
    K = sw[:, None] * (-0.5 * ms.V1 * np.conj(ms.V1.T) / shifted) * sw[None, :]
    return ms.w1 - z - 0.5 * quad, K


def schur_eval(spec: ModelSpec, grid: Grid, z: float) -> SchurEval:
    """Delta and K at z from the mesh samples and one pole-checked W2 - z."""
    ms = mesh_samples(spec, grid)
    delta, K = _delta_and_k(ms, grid, _pole_check(ms.W2, z), z)
    return SchurEval(z=float(z), delta_vals=delta, k_matrix=K)


def s_and_derivative(spec: ModelSpec, grid: Grid, z: float):
    """S(z) = diag(Delta(z)) + K(z) and dS/dz, from one pole-checked W2 - z.

    dS/dz is diag(d Delta/dz) plus K(z) / (w2 - z) entrywise.  On the grid
    this is -I - B (h22 - z)^{-2} B* for the coupling block B, so it is at
    most -I: every eigenvalue of S(z) falls at least as fast as z rises, on
    either side of ran w2.  S equals schur_eval(...).s_matrix() bit for bit.
    """
    ms = mesh_samples(spec, grid)
    shifted = _pole_check(ms.W2, z)
    delta, S = _delta_and_k(ms, grid, shifted, z)
    S[np.diag_indices_from(S)] += delta
    inv2 = shifted ** -2.0
    del shifted, delta              # the peak holds only S, inv2 and the dS products
    sw = np.sqrt(grid.weights)
    dS = sw[:, None] * (-0.5 * ms.V1 * np.conj(ms.V1.T) * inv2) * sw[None, :]
    dS[np.diag_indices_from(dS)] -= 1.0 + 0.5 * ((np.abs(ms.V1) ** 2 * inv2) @ grid.weights)
    return S, dS


def s_matrix(spec: ModelSpec, grid: Grid, z: float) -> np.ndarray:
    """Discrete Schur complement diag(Delta(z)) + K(z)."""
    return schur_eval(spec, grid, z).s_matrix()


def bs_operator(spec: ModelSpec, grid: Grid, z: float) -> np.ndarray:
    """Birman-Schwinger matrix T(z); raises ValueError unless Delta(z) > 0."""
    return schur_eval(spec, grid, z).t_matrix()


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
    then ValueError unless Delta(z) > 0.
    """
    X = grid.nodes[:, None, :]
    delta = delta_values(spec, grid, z)
    _require_positive(delta)
    u = grid.weights / delta

    def form_block(b):
        cols = slice(b.start, None)
        Y = grid.nodes[None, cols, :]
        coupling = np.abs(eval_xy(spec, spec.v1, X[b], Y) * eval_xy(spec, spec.v1, Y, X[b]))
        shifted = _sym_w2(spec, grid, b, cols)
        shifted -= z
        form = np.square(np.divide(coupling, shifted, out=shifted), out=shifted)
        rows = form.shape[0]
        return float(u[b] @ (form[:, :rows] @ u[b] + 2.0 * (form[:, rows:] @ u[b.stop:])))

    return 0.5 * math.sqrt(sum(map_blocks(form_block, grid.n, grid.n)))   # in block order

