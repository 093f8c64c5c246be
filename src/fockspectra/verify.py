"""Proof-device verification: singular-sequence decay.

Any value z0 = w2(x0, y0) is essential spectrum, witnessed by an orthonormal
sequence of dyadic ring bumps

    phi_n(x) = 2^{nd/2} chi(2^n (x - x0) / rho),

with chi the normalized characteristic function of the max-norm ring
{1/2 < ||x||_inf <= 1}; rho rescales the ring so every level fits inside
Omega (and, for x0 != y0, keeps the two bump families disjoint).  The
two-boson states psi_n are the (symmetrized) products, and both
|| H12 psi_n || and || (H22 - z0) psi_n || must decay, the former at the
Hoelder rate 2^{n d (1/2 - 1/q) + 1} with q = (2 + eps)/(1 + eps).

Level n is the midpoint lattice of grid.make_grid on its ring's outer cube,
less the nodes of the inner cube; the cut lies on cell faces, so the weights
sum to the ring's measure.  The global analysis grid cannot resolve 2^-n
features, so it is never used here.  Both norms are streamed in row blocks
on the block threads (blocks.map_blocks).
"""

from __future__ import annotations

import math

import numpy as np

from .blocks import map_blocks
from .grid import make_grid
from .model import ModelSpec, _owned, eval_xy

ANNULUS_CELLS = 128     # cells across a ring at d = 1; ANNULUS_CELLS >> 4 (d - 1) in d dimensions


def _auto_rho(spec: ModelSpec, x0: np.ndarray, y0: np.ndarray) -> float:
    dist_x = spec.a - float(np.max(np.abs(x0)))
    dist_y = spec.a - float(np.max(np.abs(y0)))
    rho = min(1.0, 0.9 * dist_x, 0.9 * dist_y)
    if not np.array_equal(x0, y0):
        rho = min(rho, 0.5 * float(np.max(np.abs(x0 - y0))))
    return rho


def _ring(d: int, rho: float) -> tuple[int, float]:
    """Cells m across a ring, each axis, and the measure of the ring rho/2 < ||x||_inf <= rho."""
    return max(1, ANNULUS_CELLS >> 4 * (d - 1)), (2.0**d - 1.0) * rho**d


def check_inputs(spec: ModelSpec, x0, y0, n_max: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The centres x0, y0 as points of shape (d,) and the bump scale rho, once checked.

    ValueError unless x0 and y0 each have d coordinates inside Omega, n_max is
    at least 1, the level-1 supports lie inside Omega, the cell width
    r_out / 2m at level n_max is at least the float spacing at max |c| + r_out,
    c the centres (finer cells round their nodes onto c), and the squared
    amplitude 2^(n_max d) / |ring(rho/2, rho)| is finite.
    """
    x0, y0 = (np.atleast_1d(np.asarray(p, dtype=float)).reshape(-1) for p in (x0, y0))
    if x0.size != spec.d or y0.size != spec.d or not np.all(np.abs(np.r_[x0, y0]) < spec.a):
        raise ValueError(f"x0 and y0 must each be {spec.d} coordinate(s) inside "
                         f"(-a, a) = ({-spec.a!r}, {spec.a!r})")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1 (got {n_max})")
    rho = _auto_rho(spec, x0, y0)
    reach = float(np.max(np.abs(np.r_[x0, y0])))
    if reach + rho / 2.0 >= spec.a:
        raise ValueError("bump support at level 1 escapes Omega")
    m, measure = _ring(spec.d, rho)
    r_out = rho * 2.0 ** (-n_max)
    if r_out / (2 * m) < np.spacing(reach + r_out):
        raise ValueError(f"n_max = {n_max} is finer than float resolution: its ring cells "
                         "are narrower than the spacing of floats at their centre")
    if n_max * spec.d - math.log2(measure) >= 1024:
        raise ValueError(f"n_max = {n_max} overflows the squared bump amplitude")
    return x0, y0, rho


def _level(spec: ModelSpec, center: np.ndarray, n: int, rho: float):
    """Nodes, weights and amplitude of the ring r_out/2 < ||x - center||_inf <= r_out = rho 2^-n."""
    m, measure = _ring(spec.d, rho)
    r_out = rho * 2.0 ** (-n)
    grid = make_grid(spec.d, r_out, 4 * m)
    keep = np.max(np.abs(grid.nodes), axis=1) > r_out / 2.0
    amp = 2.0 ** (n * spec.d / 2.0) / math.sqrt(measure)
    return center + grid.nodes[keep], grid.weights[keep], amp


def _h12_term(spec: ModelSpec, xn, xw, xamp, sn, sw, samp) -> float:
    """|| phi(x) * integral v1(x, s) phi~(s) ds ||^2 over the x-bump support."""
    def block(b):
        # contiguous, so the product sums in BLAS order even when v1 ignores x
        V = np.ascontiguousarray(eval_xy(spec, spec.v1, xn[b, None, :], sn[None, :, :]))
        return V @ (sw * samp)

    inner = np.concatenate(map_blocks(block, xn.shape[0], sn.shape[0]))
    return float(np.sum(xw * xamp**2 * np.abs(inner) ** 2))


def _h22_term(spec: ModelSpec, z0: float, xn, xw, xamp, yn, yw, yamp) -> float:
    """sum_ij a_i c_j (w2(x_i, y_j) - z0)^2, a = xw xamp^2 and c = yw yamp^2, in row blocks."""
    def block(b):
        W = eval_xy(spec, spec.w2, xn[b, None, :], yn[None, :, :])
        W = np.subtract(W, z0, out=_owned(W))
        W **= 2
        return float(xw[b] * xamp**2 @ (W @ (yw * yamp**2)))

    return sum(map_blocks(block, xn.shape[0], yn.shape[0]))      # in block order


def singular_sequence_norms(spec: ModelSpec, x0, y0, n_max: int):
    """Rows (n, ||H12 psi_n||, ||(H22 - z0) psi_n||) for n = 1 .. n_max (see check_inputs).

    ValueError at a level whose ||(H22 - z0) psi_n|| is exactly 0 after a
    nonzero one: w2 - z0 has cancelled in floating point, not decayed.
    """
    x0, y0, rho = check_inputs(spec, x0, y0, n_max)
    z0 = float(eval_xy(spec, spec.w2, x0[None, :], y0[None, :])[0])
    same = np.array_equal(x0, y0)

    rows = []
    for n in range(1, n_max + 1):
        xn, xw, xa = _level(spec, x0, n, rho)
        if same:
            h12_sq = _h12_term(spec, xn, xw, xa, xn, xw, xa)
            h22_sq = _h22_term(spec, z0, xn, xw, xa, xn, xw, xa)
        else:
            yn, yw, ya = _level(spec, y0, n, rho)
            h12_sq = 0.5 * (_h12_term(spec, xn, xw, xa, yn, yw, ya)
                            + _h12_term(spec, yn, yw, ya, xn, xw, xa))
            h22_sq = _h22_term(spec, z0, xn, xw, xa, yn, yw, ya)
        if h22_sq == 0.0 and any(row[2] for row in rows):
            raise ValueError(f"||(H22 - z0) psi_n|| is exactly 0 at level n = {n} after nonzero "
                             f"levels: w2 - z0 cancels in floating point; use n_max < {n}")
        rows.append((n, math.sqrt(h12_sq), math.sqrt(h22_sq)))
    return rows


def holder_conjugate(epsilon: float) -> float:
    """q = (2 + eps)/(1 + eps), the conjugate exponent of p = 2 + eps."""
    return (2.0 + epsilon) / (1.0 + epsilon)


def h12_decay_bound(constant: float, n: int, d: int, epsilon: float) -> float:
    """The Hoelder decay bound constant * 2^{n d (1/2 - 1/q) + 1}."""
    q = holder_conjugate(epsilon)
    return constant * 2.0 ** (n * d * (0.5 - 1.0 / q) + 1.0)
