"""Dense Hermitian realizations of the block operator matrix.

Weight-normalized coordinates are used throughout: a one-boson function f is
represented by u_i = sqrt(w_i) f(x_i) and a symmetric two-boson function by
u_p = sqrt(W_p) f(x_i, x_j) over unordered pairs p = {i, j}.  In these
coordinates multiplication operators are exactly diagonal and the discrete
adjoint of the coupling block is literally the conjugate transpose, so the
assembled matrices are Hermitian by construction and eigenvalue counts are
those of honest Hermitian matrices.

The coupling block is a dense (N, P) array; row i is nonzero only at the
pairs containing i:

    pair {i, j}, j != i :  sqrt(w_j / 2) * v1(x_i, x_j)
    pair {i, i}         :  sqrt(w_i)     * v1(x_i, x_i)

which reproduces the quadrature of  integral v1(x_i, s) f(x_i, s) ds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, PairGrid
from .model import MeshSamples, ModelSpec, mesh_samples


@dataclass(frozen=True, eq=False)
class DiscreteBlocks:
    """Blocks of the discretized operator in weight-normalized coordinates."""

    h00: float
    h01: np.ndarray              # (N,) row coupling the vacuum to one boson
    h11: np.ndarray              # (N,) diagonal of the one-boson potential
    h12: np.ndarray              # (N, P) coupling block, dense
    h22: np.ndarray              # (P,) diagonal of the two-boson potential
    n: int
    p: int

    @property
    def dtype(self):
        return self.h12.dtype


def _check_dims(grid: Grid, pair_grid: PairGrid) -> None:
    if pair_grid.base is not grid and pair_grid.base.n != grid.n:
        raise ValueError("grid and pair_grid dimensions do not match")
    if pair_grid.p != grid.n * (grid.n + 1) // 2:
        raise ValueError("pair grid is inconsistent with its base grid")


def coupling_dtype(ms: MeshSamples) -> type:
    """The dtype of h01, h12 and A: complex128 when v1 or v0 is complex, else float64."""
    return np.complex128 if np.iscomplexobj(ms.V1) or np.iscomplexobj(ms.v0) else np.float64


def assemble_blocks(spec: ModelSpec, grid: Grid, pair_grid: PairGrid) -> DiscreteBlocks:
    """Sample the parameter functions and build all five blocks."""
    _check_dims(grid, pair_grid)
    ms = mesh_samples(spec, grid)
    w = grid.weights
    i = pair_grid.pairs[:, 0]
    j = pair_grid.pairs[:, 1]
    cols = np.arange(pair_grid.p)

    dtype = coupling_dtype(ms)

    # each (row, column) pair is set once: (i, p) and (j, p) with i != j,
    # then (i, p) for the diagonal pairs
    off = i != j
    diag = ~off
    h12 = np.zeros((grid.n, pair_grid.p), dtype=dtype)
    h12[i[off], cols[off]] = np.sqrt(w[j[off]] / 2.0) * ms.V1[i[off], j[off]]
    h12[j[off], cols[off]] = np.sqrt(w[i[off]] / 2.0) * ms.V1[j[off], i[off]]
    h12[i[diag], cols[diag]] = np.sqrt(w[i[diag]]) * ms.V1[i[diag], i[diag]]

    h01 = (np.sqrt(w) * ms.v0).astype(dtype)
    h22 = ms.W2[i, j]
    return DiscreteBlocks(
        h00=float(spec.w0), h01=h01, h11=ms.w1.copy(), h12=h12, h22=h22,
        n=grid.n, p=pair_grid.p,
    )


def assemble_A(blocks: DiscreteBlocks) -> np.ndarray:
    """Dense Hermitian matrix of the reduced 2x2 operator, dimension N + P."""
    n, p = blocks.n, blocks.p
    A = np.zeros((n + p, n + p), dtype=blocks.dtype)
    A[np.arange(n), np.arange(n)] = blocks.h11
    A[:n, n:] = blocks.h12
    A[n:, :n] = blocks.h12.conj().T
    A[n + np.arange(p), n + np.arange(p)] = blocks.h22
    return A
