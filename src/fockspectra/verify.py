"""Proof-device verification: singular-sequence decay.

Any value z0 = w2(x0, y0) is essential spectrum, witnessed by an orthonormal
sequence of dyadic annular bumps

    phi_n(x) = 2^{nd/2} chi(2^n (x - x0) / rho),

with chi the normalized characteristic function of the annulus
{1/2 <= ||x|| <= 1}; rho rescales the annulus so every level fits inside
Omega (and, for x0 != y0, keeps the two bump families disjoint).  The
two-boson states psi_n are the (symmetrized) products, and both
|| H12 psi_n || and || (H22 - z0) psi_n || must decay, the former at the
Hoelder rate 2^{n d (1/2 - 1/q) + 1} with q = (2 + eps)/(1 + eps).

Norms are computed on quadrature grids aligned with the dyadic supports; the
global analysis grid cannot resolve 2^-n features, so it is never used here.
Both norms are streamed in row blocks on the block pool (blocks.map_blocks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import map_blocks
from .model import ModelSpec, _as_point, _owned, eval_xy


@dataclass(frozen=True, eq=False)
class SingularSeqConfig:
    """Centers, dyadic depth and quadrature resolution for the bump sequence."""

    x0: np.ndarray
    y0: np.ndarray
    n_max: int = 6
    quad_depth: int = 128     # quadrature cells per annulus segment

    def __post_init__(self):
        for name in ("n_max", "quad_depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1 (got {getattr(self, name)})")


def _auto_rho(spec: ModelSpec, x0: np.ndarray, y0: np.ndarray) -> float:
    dist_x = spec.a - float(np.max(np.abs(x0)))
    dist_y = spec.a - float(np.max(np.abs(y0)))
    rho = min(1.0, 0.9 * dist_x, 0.9 * dist_y)
    if not np.array_equal(x0, y0):
        rho = min(rho, 0.5 * float(np.linalg.norm(x0 - y0)))
    return rho


def _annulus_quadrature(d: int, center: np.ndarray, r_in: float, r_out: float,
                        cells: int):
    """Midpoint nodes/weights on the annulus r_in <= ||x - center|| <= r_out."""
    if d == 1:
        h = (r_out - r_in) / cells
        r = r_in + (np.arange(cells) + 0.5) * h
        nodes = np.concatenate([center[0] + r, center[0] - r])[:, None]
        weights = np.full(2 * cells, h)
        return nodes, weights
    if d == 2:
        n_r = max(8, cells // 8)
        n_t = 8 * n_r
        hr = (r_out - r_in) / n_r
        ht = 2.0 * math.pi / n_t
        r = r_in + (np.arange(n_r) + 0.5) * hr
        t = (np.arange(n_t) + 0.5) * ht
        R, T = np.meshgrid(r, t, indexing="ij")
        nodes = np.stack([center[0] + (R * np.cos(T)).ravel(),
                          center[1] + (R * np.sin(T)).ravel()], axis=-1)
        weights = (R * hr * ht).ravel()
        return nodes, weights
    raise NotImplementedError("annulus quadrature implemented for d <= 2")


def _annulus_volume(d: int, r_in: float, r_out: float) -> float:
    if d == 1:
        return 2.0 * (r_out - r_in)
    return math.pi * (r_out**2 - r_in**2)


def _level(spec: ModelSpec, cfg: SingularSeqConfig, center: np.ndarray, n: int,
           rho: float):
    r_in = rho * 2.0 ** (-n - 1)
    r_out = rho * 2.0 ** (-n)
    if float(np.max(np.abs(center))) + r_out >= spec.a:
        raise ValueError(f"bump support at level {n} escapes Omega")
    nodes, weights = _annulus_quadrature(spec.d, center, r_in, r_out, cfg.quad_depth)
    amp = 2.0 ** (n * spec.d / 2.0) / math.sqrt(_annulus_volume(spec.d, rho / 2.0, rho))
    return nodes, weights, amp


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


def singular_sequence_norms(spec: ModelSpec, cfg: SingularSeqConfig):
    """Rows (n, ||H12 psi_n||, ||(H22 - z0) psi_n||) for n = 1 .. n_max."""
    x0 = _as_point(cfg.x0, spec.d)
    y0 = _as_point(cfg.y0, spec.d)
    rho = _auto_rho(spec, x0, y0)
    if rho <= 0:
        raise ValueError("bump scale rho must be positive (center too close to the boundary?)")
    z0 = float(eval_xy(spec, spec.w2, x0[None, :], y0[None, :])[0])
    same = np.array_equal(x0, y0)

    rows = []
    for n in range(1, cfg.n_max + 1):
        xn, xw, xa = _level(spec, cfg, x0, n, rho)
        if same:
            h12_sq = _h12_term(spec, xn, xw, xa, xn, xw, xa)
            h22_sq = _h22_term(spec, z0, xn, xw, xa, xn, xw, xa)
        else:
            yn, yw, ya = _level(spec, cfg, y0, n, rho)
            h12_sq = 0.5 * (_h12_term(spec, xn, xw, xa, yn, yw, ya)
                            + _h12_term(spec, yn, yw, ya, xn, xw, xa))
            h22_sq = _h22_term(spec, z0, xn, xw, xa, yn, yw, ya)
        rows.append((n, math.sqrt(h12_sq), math.sqrt(h22_sq)))
    return rows


def holder_conjugate(epsilon: float) -> float:
    """q = (2 + eps)/(1 + eps), the conjugate exponent of p = 2 + eps."""
    return (2.0 + epsilon) / (1.0 + epsilon)


def h12_decay_bound(constant: float, n: int, d: int, epsilon: float) -> float:
    """The Hoelder decay bound constant * 2^{n d (1/2 - 1/q) + 1}."""
    q = holder_conjugate(epsilon)
    return constant * 2.0 ** (n * d * (0.5 - 1.0 / q) + 1.0)

