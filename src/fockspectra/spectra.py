"""Eigenvalue counting, essential spectrum, and the counting cross-checks.

The essential spectrum of the operator is the union of Sigma_1 = cl(ran w2)
with the root set Sigma_2 of the Schur symbol: the z outside Sigma_1 where
Delta(. ; z) passes through zero.  On a grid, Sigma_1 is approximated by the
sampled range [m, M] of w2 over node pairs and Sigma_2 by per-node roots of
z -> Delta(x_i; z), which is strictly decreasing, diverges to +inf as
z -> -inf, and tends to -inf as z -> +inf; each node therefore contributes
at most one root per side, found by bisection.

Numerical guard rails (all O(h^2)-scaled so they refine with the grid):

* edge probes sit max(1e-9, (M - m + 1)/n^2) outside a fine-sampled hull of
  ran w2, so that roots closer to the edge than the quadrature can resolve
  are not reported;
* the symbol used for root detection is evaluated on an inner-refined
  quadrature (the reported m, M stay those of the analysis grid).

Counting conventions: n(lambda; A) eigenvalues strictly above lambda,
N(z; A) strictly below z, both with a 1e-10 boundary band reported
separately, since strict counting at machine precision is ill-posed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators
from .grid import Grid, PairGrid, make_grid
from .model import ModelSpec, mesh_samples
from .schur import hs_norm_k, schur_eval

BOUNDARY_BAND = 1e-10
_MAX_WIDENINGS = 80


@dataclass(frozen=True)
class ThresholdCounts:
    below: int
    boundary: int
    above: int


@dataclass(frozen=True)
class CountingResult:
    """Three-way bound-state count at one spectral parameter."""

    z: float
    count_A: int
    count_S: int
    count_T: int
    boundary: int
    agree: bool


@dataclass(frozen=True, eq=False)
class EssSpecReport:
    """Sampled essential spectrum: [m, M] plus the Sigma_2 root set."""

    m: float
    M: float
    sigma2_roots: list          # (x node, root z) pairs, left then right
    sigma2_hull: list           # closed intervals [lo, hi] after gap merging
    sess_min: float
    sess_max: float

    @property
    def left_roots(self):
        return [r for r in self.sigma2_roots if r[1] < self.m]

    @property
    def right_roots(self):
        return [r for r in self.sigma2_roots if r[1] > self.M]


def eigvals_hermitian(matrix) -> np.ndarray:
    return np.linalg.eigvalsh(np.asarray(matrix))


def threshold_counts(matrix, threshold: float, band: float = BOUNDARY_BAND) -> ThresholdCounts:
    ev = eigvals_hermitian(matrix)
    below = int(np.sum(ev < threshold - band))
    above = int(np.sum(ev > threshold + band))
    return ThresholdCounts(below=below, boundary=ev.size - below - above, above=above)


def count_above(matrix, lam: float, band: float = BOUNDARY_BAND) -> int:
    """Number of eigenvalues strictly greater than lam (outside the boundary band)."""
    return threshold_counts(matrix, lam, band).above


def count_below(matrix, z: float, band: float = BOUNDARY_BAND) -> int:
    """Number of eigenvalues strictly less than z (outside the boundary band)."""
    return threshold_counts(matrix, z, band).below


def _fine_range_guard(spec: ModelSpec, grid: Grid, samples_per_dim: int):
    """Min/max of w2 over a dense closed sampling of Omega^2, chunked."""
    from .model import eval_xy

    axis = np.linspace(-grid.a, grid.a, samples_per_dim)
    axes = np.meshgrid(*([axis] * spec.d), indexing="ij")
    pts = np.stack([ax.ravel() for ax in axes], axis=-1)
    n = pts.shape[0]
    lo, hi = np.inf, -np.inf
    step = max(1, int(2e6) // max(n, 1))
    for start in range(0, n, step):
        block = eval_xy(spec, spec.w2, pts[start:start + step, None, :], pts[None, :, :])
        lo = min(lo, float(np.min(block)))
        hi = max(hi, float(np.max(block)))
    return lo, hi


class _RefinedSymbol:
    """Delta evaluator on the analysis nodes with an inner-refined y-quadrature."""

    def __init__(self, spec: ModelSpec, grid: Grid, inner_refine: int):
        from .model import eval_x, eval_xy

        inner = make_grid(spec.d, grid.a, inner_refine * grid.n_per_dim, "midpoint")
        self.w = inner.weights
        X = grid.nodes[:, None, :]
        Y = inner.nodes[None, :, :]
        self.V2 = np.abs(eval_xy(spec, spec.v1, X, Y)) ** 2
        self.W2 = eval_xy(spec, spec.w2, X, Y).astype(float)
        self.w1 = eval_x(spec, spec.w1, grid.nodes).astype(float)

    def __call__(self, rows: np.ndarray, z) -> np.ndarray:
        # z may be scalar or per-row array
        z = np.asarray(z, dtype=float)
        zcol = z[..., None] if z.ndim else z
        quad = np.sum(self.w * self.V2[rows] / (self.W2[rows] - zcol), axis=-1)
        return self.w1[rows] - z - 0.5 * quad


def _bisect_roots(symbol, rows, lo, hi, tol: float):
    """Vectorized bisection of the monotone symbol on per-row brackets.

    Brackets are oriented with the symbol positive at lo and negative at hi
    (lo < hi for the strictly decreasing one-sided symbol of _one_sided_roots).
    """
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(200):
        if np.max(hi - lo) <= tol:
            break
        mid = 0.5 * (lo + hi)
        neg = symbol(rows, mid) < 0.0
        hi[neg] = mid[neg]
        lo[~neg] = mid[~neg]
    return 0.5 * (lo + hi)


def _merge_hull(roots: np.ndarray) -> list:
    """Merge sorted roots into closed intervals; gap threshold 4x median gap."""
    if roots.size == 0:
        return []
    rs = np.sort(roots)
    if rs.size == 1:
        return [(float(rs[0]), float(rs[0]))]
    gaps = np.diff(rs)
    threshold = 4.0 * float(np.median(gaps))
    hull = []
    lo = prev = rs[0]
    for r in rs[1:]:
        if r - prev > threshold:
            hull.append((float(lo), float(prev)))
            lo = r
        prev = r
    hull.append((float(lo), float(prev)))
    return hull


_SIDES = {1: ("left", "below", "z_lo"), -1: ("right", "above", "z_hi")}


def _one_sided_roots(spec: ModelSpec, grid: Grid, symbol: _RefinedSymbol, sign: int,
                     e_hat: float, e_guard: float, edge: float, t_lo: float | None,
                     tol: float):
    """Sigma_2 roots on one side of ran w2, in the mirrored coordinate t = sign * z.

    f(t) = sign * Delta(sign * t) is strictly decreasing and positive at
    -inf for either sign, so the roots above M are the roots of f below -M
    for sign = -1.  e_hat and e_guard are the lower edge of the sampled and
    the fine-sampled range in t, t_lo an explicit lower end of the search
    window in t.  Negation is exact in IEEE arithmetic, so both sides are
    bit-identical to a search written out directly in z.  Returns the rows
    holding a root and the roots in z.
    """
    side, beyond, window = _SIDES[sign]

    def f(rows, t):
        return sign * symbol(rows, sign * t)

    probe = e_guard - edge
    all_rows = np.arange(grid.n)
    rows = all_rows[f(all_rows, probe) < 0.0]
    if rows.size == 0:
        return rows, np.empty(0)
    t = t_lo if t_lo is not None else e_hat - 1.0 - 2.0 * hs_norm_k(spec, grid, sign * (e_hat - 1.0))
    for _ in range(_MAX_WIDENINGS + 1):
        if np.all(f(rows, t) > 0.0):
            break
        if t_lo is not None:
            raise RuntimeError(f"a Sigma_2 root sits at or {beyond} {window}: widen and retry")
        t = e_guard - 2.0 * (e_guard - t)
    else:
        raise RuntimeError(f"{side} search-window widening failed to bracket all roots")
    found = _bisect_roots(f, rows, np.full(rows.size, t), np.full(rows.size, probe), tol=tol)
    return rows, sign * found


def essential_spectrum(spec: ModelSpec, grid: Grid, z_lo: float | None = None,
                       z_hi: float | None = None, bisection_tol: float = 1e-10,
                       inner_refine: int | None = None,
                       guard_samples: int | None = None) -> EssSpecReport:
    """Compute the sampled essential spectrum Sigma_1 union Sigma_2.

    m and M are the extremes of w2 over the pair grid.  A node x_i
    contributes a root below m iff Delta(x_i; .) is negative at the left
    edge probe, and a root above M iff it is positive at the right edge
    probe; roots are then bisected to ``bisection_tol``.  An explicit search
    window (z_lo, z_hi) must strictly contain [m, M]; when omitted a window
    is derived from the Hilbert-Schmidt size of the compact part and widened
    geometrically if a root turns out to sit at the boundary.
    """
    ms = mesh_samples(spec, grid)
    m_hat = float(np.min(ms.W2))
    M_hat = float(np.max(ms.W2))
    if z_lo is not None and z_lo >= m_hat:
        raise ValueError("search window: z_lo must lie strictly below m")
    if z_hi is not None and z_hi <= M_hat:
        raise ValueError("search window: z_hi must lie strictly above M")

    if guard_samples is None:
        guard_samples = 2049 if spec.d == 1 else (65 if spec.d == 2 else 17)
    lo_fine, hi_fine = _fine_range_guard(spec, grid, guard_samples)
    m_guard = min(m_hat, lo_fine)
    M_guard = max(M_hat, hi_fine)

    n1 = grid.n_per_dim
    edge = max(1e-9, (M_guard - m_guard + 1.0) / n1**2)
    if inner_refine is None:
        inner_refine = 4 if spec.d == 1 else 2
    symbol = _RefinedSymbol(spec, grid, inner_refine)

    roots = []
    sides = []
    for sign, e_hat, e_guard, t_lo in ((1, m_hat, m_guard, z_lo),
                                       (-1, -M_hat, -M_guard, None if z_hi is None else -z_hi)):
        rows, found = _one_sided_roots(spec, grid, symbol, sign, e_hat, e_guard, edge,
                                       t_lo, bisection_tol)
        roots += [(grid.nodes[r].copy(), float(z)) for r, z in zip(rows, found)]
        sides.append(found)
    left, right = sides
    hull = _merge_hull(left) + _merge_hull(right)
    sess_min = float(left.min(initial=m_hat))
    sess_max = float(right.max(initial=M_hat))
    return EssSpecReport(m=m_hat, M=M_hat, sigma2_roots=roots, sigma2_hull=hull,
                         sess_min=sess_min, sess_max=sess_max)


def discrete_spectrum(spec: ModelSpec, grid: Grid, pair_grid: PairGrid,
                      sess_min: float | None = None, sess_max: float | None = None,
                      tol_band: float = BOUNDARY_BAND) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the reduced matrix outside the essential spectrum, from one solve.

    Returns ``(below, above)``: the sorted eigenvalues strictly below
    sess_min - tol_band and strictly above sess_max + tol_band.  A missing
    edge is taken from essential_spectrum.
    """
    if sess_min is None or sess_max is None:
        ess = essential_spectrum(spec, grid)
        sess_min = ess.sess_min if sess_min is None else sess_min
        sess_max = ess.sess_max if sess_max is None else sess_max
    ev = eigvals_hermitian(operators.assemble_A(operators.assemble_blocks(spec, grid, pair_grid)))
    return ev[ev < sess_min - tol_band], ev[ev > sess_max + tol_band]


def discrete_spectrum_below(spec: ModelSpec, grid: Grid, pair_grid: PairGrid,
                            sess_min: float | None = None,
                            tol_band: float = BOUNDARY_BAND) -> np.ndarray:
    """Sorted eigenvalues of the reduced matrix strictly below sess_min - tol_band."""
    return discrete_spectrum(spec, grid, pair_grid, sess_min, np.inf, tol_band)[0]


def discrete_spectrum_above(spec: ModelSpec, grid: Grid, pair_grid: PairGrid,
                            sess_max: float | None = None,
                            tol_band: float = BOUNDARY_BAND) -> np.ndarray:
    """Sorted eigenvalues of the reduced matrix strictly above sess_max + tol_band."""
    return discrete_spectrum(spec, grid, pair_grid, -np.inf, sess_max, tol_band)[1]


def birman_schwinger_check(spec: ModelSpec, grid: Grid, pair_grid: PairGrid,
                           z: float, band: float = BOUNDARY_BAND) -> CountingResult:
    """Three-way bound-state count at z: reduced matrix, Schur complement, BS operator.

    Computes N(z; A_h), N(0; S_h(z)) and n(1; T_h(z)) independently and
    reports whether all three agree.  Eigenvalues inside the boundary band
    of the respective threshold are tallied separately; agreement is only
    meaningful when that tally is zero.
    """
    sz = schur_eval(spec, grid, z)
    T = sz.t_matrix()                            # raises if Delta not positive
    A = operators.assemble_A(operators.assemble_blocks(spec, grid, pair_grid))
    tc_A = threshold_counts(A, z, band)
    tc_S = threshold_counts(sz.s_matrix(), 0.0, band)
    tc_T = threshold_counts(T, 1.0, band)
    count_A, count_S, count_T = tc_A.below, tc_S.below, tc_T.above
    return CountingResult(
        z=float(z), count_A=count_A, count_S=count_S, count_T=count_T,
        boundary=tc_A.boundary + tc_S.boundary + tc_T.boundary,
        agree=bool(count_A == count_S == count_T),
    )
