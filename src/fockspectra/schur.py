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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .model import ModelSpec, _as_point, eval_x, eval_xy, mesh_samples

POLE_TOL = 1e-12
POLE_MARGIN = 1e-9


class PoleProximityError(RuntimeError):
    """z is within POLE_TOL of a sampled value of w2 (numerically inside Sigma_1)."""

    def __init__(self, z: float, dist: float):
        super().__init__(
            f"z = {z!r} is within {dist:.3e} of a sampled w2 value: "
            "numerically inside Sigma_1")
        self.z = z
        self.dist = dist


@dataclass(frozen=True, eq=False)
class SchurEval:
    """Symbol values, compact-kernel matrix and its Hilbert-Schmidt norm at one z.

    The single source of the Schur complement S(z) and the Birman-Schwinger
    operator T(z): both are built from these samples without re-evaluating
    the parameter functions.
    """

    z: float
    delta_vals: np.ndarray   # (N,) Delta(x_i; z)
    k_matrix: np.ndarray     # (N, N) weight-normalized, Hermitian
    hs_norm_k: float

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
        dmin = float(np.min(self.delta_vals))
        if dmin <= 0.0:
            raise ValueError(
                f"Delta(x; z) is nonpositive at a node (min {dmin:.3e}): "
                "z not strictly below essential spectrum (or Assumption failure)")
        scale = self.delta_vals**-0.5
        return -(scale[:, None] * self.k_matrix * scale[None, :])


@dataclass(frozen=True, eq=False)
class BSOperator:
    z: float
    t_matrix: np.ndarray     # (N, N) Hermitian
    hs_norm_t: float


def _pole_check(W2row: np.ndarray, z: float) -> None:
    dist = float(np.min(np.abs(W2row - z)))
    if dist < POLE_TOL:
        raise PoleProximityError(z, dist)


def delta_values(spec: ModelSpec, grid: Grid, z: float) -> np.ndarray:
    """Delta(x_i; z) at every grid node, by the grid's own quadrature."""
    ms = mesh_samples(spec, grid)
    _pole_check(ms.W2, z)
    quad = (np.abs(ms.V1) ** 2 / (ms.W2 - z)) @ grid.weights
    return ms.w1 - z - 0.5 * quad


def _point_rows(spec: ModelSpec, grid: Grid, x, z: float):
    """w2 and v1 at (x, y_j) for every node y_j, after the pole check of z."""
    x = _as_point(x, spec.d)
    w2row = eval_xy(spec, spec.w2, x[None, :], grid.nodes)
    _pole_check(w2row, z)
    return x, w2row, eval_xy(spec, spec.v1, x[None, :], grid.nodes)


def delta_at(spec: ModelSpec, grid: Grid, x, z: float) -> float:
    """Delta(x; z) at an arbitrary point x (not necessarily a node).

    The integral over y uses the grid's quadrature.  Values of z inside the
    numerical pole band of the sampled w2 raise PoleProximityError; callers
    probing the critical energy min sess(H) should treat results as
    refinement-trend data rather than converged values when the integrand is
    singular there.
    """
    x, w2row, v1row = _point_rows(spec, grid, x, z)
    w1x = float(eval_x(spec, spec.w1, x[None, :])[0])
    return w1x - z - 0.5 * float(np.sum(grid.weights * np.abs(v1row) ** 2 / (w2row - z)))


def delta_derivative_at(spec: ModelSpec, grid: Grid, x, z: float) -> float:
    """d/dz of the symbol; always <= -1, so z -> Delta(x; z) is strictly decreasing."""
    _, w2row, v1row = _point_rows(spec, grid, x, z)
    return -1.0 - 0.5 * float(np.sum(grid.weights * np.abs(v1row) ** 2 / (w2row - z) ** 2))


def k_matrix(spec: ModelSpec, grid: Grid, z: float) -> np.ndarray:
    """Weight-normalized compact-kernel matrix sqrt(w_i) K(x_i, x_j; z) sqrt(w_j)."""
    ms = mesh_samples(spec, grid)
    _pole_check(ms.W2, z)
    kern = -0.5 * ms.V1 * np.conj(ms.V1.T) / (ms.W2 - z)
    sw = np.sqrt(grid.weights)
    return sw[:, None] * kern * sw[None, :]


def hs_norm_k(spec: ModelSpec, grid: Grid, z: float) -> float:
    """Discrete Hilbert-Schmidt norm of K(z) (the Frobenius norm of k_matrix)."""
    return float(np.linalg.norm(k_matrix(spec, grid, z)))


def schur_eval(spec: ModelSpec, grid: Grid, z: float) -> SchurEval:
    K = k_matrix(spec, grid, z)
    return SchurEval(z=float(z), delta_vals=delta_values(spec, grid, z),
                     k_matrix=K, hs_norm_k=float(np.linalg.norm(K)))


def s_matrix(spec: ModelSpec, grid: Grid, z: float) -> np.ndarray:
    """Discrete Schur complement diag(Delta(z)) + K(z)."""
    return schur_eval(spec, grid, z).s_matrix()


def bs_operator(spec: ModelSpec, grid: Grid, z: float) -> BSOperator:
    """Birman-Schwinger operator at z; raises ValueError unless Delta(z) > 0."""
    T = schur_eval(spec, grid, z).t_matrix()
    return BSOperator(z=float(z), t_matrix=T, hs_norm_t=float(np.linalg.norm(T)))


def hs_bound_young(spec: ModelSpec, grid: Grid, z: float) -> float:
    """Young-inequality upper bound for the Hilbert-Schmidt norm of K(z).

    From |v1(x,y)|^2 |v1(y,x)|^2 <= 2/(2+e) |v1(x,y)|^{2+e} + e/(2+e) |v1(y,x)|^{2+4/e}
    and dist(z, ran w2):

        ||K(z)||_HS^2 <= [2 ||v1||_{2+e}^{2+e} + e ||v1~||_{2+4/e}^{2+4/e}]
                          / (4 (2+e) dist^2).
    """
    ms = mesh_samples(spec, grid)
    w = grid.weights
    dist = float(np.min(np.abs(ms.W2 - z)))
    if dist < POLE_TOL:
        raise PoleProximityError(z, dist)
    e = spec.epsilon
    absV = np.abs(ms.V1)
    A = float(w @ (absV ** (2.0 + e)) @ w)
    B = float(w @ (absV ** (2.0 + 4.0 / e)) @ w)
    return float(np.sqrt((2.0 * A + e * B) / (4.0 * (2.0 + e)))) / dist
