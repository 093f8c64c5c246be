"""Eigenvalue counting, essential spectrum, and the counting cross-checks.

The essential spectrum of the operator is the union of Sigma_1 = cl(ran w2)
with the root set Sigma_2 of the Schur symbol: the z outside Sigma_1 where
Delta(. ; z) passes through zero.  On a grid, Sigma_1 is approximated by the
sampled range [m, M] of w2 over node pairs and Sigma_2 by per-node roots of
z -> Delta(x_i; z), which is strictly decreasing, diverges to +inf as
z -> -inf, and tends to -inf as z -> +inf; each node therefore contributes
at most one root per side.  The symbol falls with slope at most -1 and is
concave on the search side, so Newton steps from the edge probe approach
the root monotonically inside a bracket the slope bound certifies, and a
root is returned once that bracket is narrower than ROOT_TOL.  The
discrete spectrum outside [sess_min, sess_max] comes from the N x N Schur
complement S(z) by inertia (discrete_spectrum); the dense reduced matrix is
assembled only as the independent leg of the Birman-Schwinger check.

Numerical guard rails (all O(h^2)-scaled so they refine with the grid):

* edge probes sit max(1e-9, (M - m + 1)/n^2) outside the edges of ran w2,
  sampled on a coarse lattice of pairs and refined by lattice zooms over
  Omega^2 (_w2_edges), so that roots closer to the edge than the quadrature
  can resolve are not reported;
* the symbol used for root detection is streamed at the analysis nodes
  with an inner-refined y-quadrature (the reported m, M stay those of the
  analysis grid).

Counting conventions: n(lambda; A) eigenvalues strictly above lambda,
N(z; A) strictly below z, both with a 1e-10 boundary band reported
separately, since strict counting at machine precision is ill-posed.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import ZOOM_TOL, Grid, PairGrid, _lattice_minima, _zoom_minimize, lattice, make_grid
from .model import ModelSpec, check_assumption_a, eval_xy, mesh_samples
from .schur import delta_and_derivative_at_points, s_and_derivative, schur_eval

BOUNDARY_BAND = 1e-10
ROOT_TOL = 1e-10   # width of the certified bracket around a Sigma_2 root
_MAX_ROOT_STEPS = 200
EDGE_ZOOM_K = 2    # the edge zoom's lattice has 5 points per axis and halves its span
EDGE_STARTS = 8    # lattice extremes zoomed per edge of ran w2, at least
EDGE_STARTS_MAX = 48   # and at most: a w2 faster than the lattice puts all in the band


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


class W2Minima(NamedTuple):
    """The edge search's zoomed lattice minima of w2 over Omega^2, best first."""

    points: np.ndarray          # rows (x, y)
    values: np.ndarray          # w2 at the points
    spacing: float              # of the edge search's lattice
    band: float                 # how far w2 may still fall below the value of a point


@dataclass(frozen=True, eq=False)
class EssSpecReport:
    """Sampled essential spectrum: [m, M] plus the Sigma_2 root set."""

    m: float
    M: float
    sigma2_roots: list          # (x node, root z) pairs, left then right
    sigma2_hull: list           # closed intervals [lo, hi] after gap merging
    sess_min: float
    sess_max: float
    w2_minima: W2Minima         # lattice minima of w2 over Omega^2, from _w2_edges

    @property
    def left_roots(self):
        return [r for r in self.sigma2_roots if r[1] < self.m]

    @property
    def right_roots(self):
        return [r for r in self.sigma2_roots if r[1] > self.M]


def eigvals_hermitian(matrix) -> np.ndarray:
    return np.linalg.eigvalsh(np.asarray(matrix))


def _band_counts(ev: np.ndarray, threshold: float) -> ThresholdCounts:
    below = int(np.sum(ev < threshold - BOUNDARY_BAND))
    above = int(np.sum(ev > threshold + BOUNDARY_BAND))
    return ThresholdCounts(below=below, boundary=ev.size - below - above, above=above)


def threshold_counts(matrix, threshold: float) -> ThresholdCounts:
    """Eigenvalues strictly below and above threshold, and those within BOUNDARY_BAND of it."""
    return _band_counts(eigvals_hermitian(matrix), threshold)


def _w2_pairs(spec: ModelSpec, z: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """sign * w2 at the rows (x, y) of z, points of Omega^2; NaN counts as +inf."""
    return np.fmin(sign * eval_xy(spec, spec.w2, z[:, :spec.d], z[:, spec.d:]), np.inf)


def _zoom_w2(spec: ModelSpec, a: float, z: np.ndarray, r: float, tol: float,
             sign: float = 1.0) -> np.ndarray:
    """Minimize sign * w2 over [-a, a]^(2d) from z inside the box of half-width r, down to tol."""
    return _zoom_minimize(lambda p: _w2_pairs(spec, p, sign), z, np.maximum(z - r, -a),
                          np.minimum(z + r, a), EDGE_ZOOM_K, tol)


def _w2_edges(spec: ModelSpec, a: float) -> tuple[float, float, W2Minima]:
    """Tight bounds (lo, hi) of ran w2 over the closed cube [-a, a]^(2d), and its minima.

    w2 is sampled on a closed lattice of pairs, 129 points per axis at d = 1
    (17 at d = 2, 5 above).  Its local extremes, best first and one of each
    mirror pair (x, y), (y, x) of equal value, are zoomed over Omega^2 by
    lattices of 5^(2d) points whose span halves each pass, inside one
    spacing down to a sixteenth of it: the first EDGE_STARTS, then each next
    one within the curvature band of the best zoomed value, up to
    EDGE_STARTS_MAX.  The best goes on to ZOOM_TOL.  A NaN sample (w2 may be
    undefined on the cube's boundary, which no quadrature node reaches)
    counts as +inf on the side minimized.  The zoomed minima come back as
    W2Minima, with the band scaled to a zoom of a sixteenth of a spacing.
    """
    d = spec.d
    n_axis = 129 if d == 1 else (17 if d == 2 else 5)
    axis = np.linspace(-a, a, n_axis)
    pts = lattice(axis, d)
    w2 = eval_xy(spec, spec.w2, pts[:, None, :], pts[None, :, :])
    reach = 2.0 * a / (n_axis - 1)
    # a quadratic's fall over half a spacing, from the largest second differences
    dd = (np.abs(np.diff(w2.reshape((n_axis,) * (2 * d)), 2, axis=k)) for k in range(2 * d))
    band = sum(float(np.max(x, initial=0.0, where=np.isfinite(x))) for x in dd) / 8
    edges = []
    for sign in (1.0, -1.0):
        W = np.fmin(sign * w2, np.inf)
        local = _lattice_minima(W.reshape((n_axis,) * (2 * d))).reshape(W.shape)
        i, j = np.nonzero(local)
        keep = (i <= j) | ~(local[j, i] & (W[j, i] == W[i, j]))
        i, j = i[keep], j[keep]
        first = np.argsort(W[i, j], kind="stable")
        near, vals = [], []
        for p, q in zip(i[first], j[first]):
            if len(near) >= EDGE_STARTS and (len(near) == EDGE_STARTS_MAX
                                             or W[p, q] - band >= min(vals)):
                break
            near.append(_zoom_w2(spec, a, np.r_[pts[p], pts[q]], reach, reach / 16, sign))
            vals.append(_w2_pairs(spec, near[-1][None, :], sign)[0])
        b = int(np.argmin(vals))
        near[b] = _zoom_w2(spec, a, near[b], reach / 16, ZOOM_TOL, sign)
        vals[b] = _w2_pairs(spec, near[b][None, :], sign)[0]
        edges.append(min(float(np.min(W)), float(vals[b])))
        if sign == 1.0:
            rank = np.argsort(vals, kind="stable")
            minima = W2Minima(np.array(near)[rank], np.array(vals)[rank], reach, band / 256)
    lo, neg_hi = edges
    return lo, -neg_hi, minima


def w2_second_minimizer(spec: ModelSpec, minima: W2Minima, tol: float, points=()):
    """A minimizer of w2 within tol of the best of minima that a barrier parts from it, or None.

    The barrier is a value above the best plus tol at one of 31 inner points
    of the segment between the two.  The given points (rows (x, y)) are
    tried first, then the further minima within the band plus tol of the
    best, each zoomed on to ZOOM_TOL.
    """
    best, level = minima.points[0], minima.values[0] + tol
    further = (_zoom_w2(spec, spec.a, z, minima.spacing / 16, ZOOM_TOL)
               for z, value in zip(minima.points[1:], minima.values[1:])
               if value <= level + minima.band)
    for z in itertools.chain(points, further):
        if _w2_pairs(spec, z[None, :])[0] <= level:
            segment = best + np.linspace(0.0, 1.0, 33)[1:-1, None] * (z - best)
            if np.max(_w2_pairs(spec, segment)) > level:
                return z
    return None


def _merge_hull(roots: np.ndarray, tol: float) -> list:
    """Merge sorted roots into closed intervals; gap threshold 4x median gap.

    Roots are resolved only to tol, so gaps of at most tol count as 0.
    """
    if roots.size == 0:
        return []
    rs = np.sort(roots)
    gaps = np.diff(rs)
    gaps[gaps <= tol] = 0.0
    threshold = 4.0 * float(np.median(gaps)) if gaps.size else 0.0
    breaks = np.flatnonzero(gaps > threshold)
    return [(float(rs[lo]), float(rs[hi]))
            for lo, hi in zip(np.r_[0, breaks + 1], np.r_[breaks, rs.size - 1])]


def _one_sided_roots(spec: ModelSpec, grid: Grid, inner: Grid, sign: int, probe: float):
    """Sigma_2 roots on one side of ran w2, in the mirrored coordinate t = sign * z.

    f(t) = sign * Delta(sign * t), at the nodes of grid with the y-quadrature
    of inner, falls with slope f' <= -1 and is positive at -inf for either
    sign, so the roots above M are the roots of f below -M for sign = -1.
    Left of ran w2 each term -c / (w2 - z) of Delta is concave, and the
    mirror turns the right side into the same case, so f is concave on the
    search side.  A node holds a root iff f(probe) < 0.  Newton steps from
    the probe then move monotonically toward the root without passing it,
    and the slope bound puts the root in [t + f(t), t] at every iterate: a
    row stops once |f(t)| <= ROOT_TOL and returns t + f(t)/2, within
    ROOT_TOL/2 of the root.  Negation is exact in IEEE arithmetic, so both
    sides are bit-identical to a search written out directly in z.  Returns
    the rows holding a root and the roots in z.
    """
    def f(rows, t):
        delta, slope = delta_and_derivative_at_points(spec, inner, grid.nodes[rows], sign * t)
        return sign * delta, slope

    ft, slope = f(np.arange(grid.n), np.full(grid.n, probe))
    rows = np.flatnonzero(ft < 0.0)
    if rows.size == 0:
        return rows, np.empty(0)
    ft, slope = ft[rows], slope[rows]
    t = np.full(rows.size, probe)
    active = np.arange(rows.size)
    roots = np.empty(rows.size)
    for _ in range(_MAX_ROOT_STEPS):
        done = np.abs(ft) <= ROOT_TOL
        roots[active[done]] = t[done] + 0.5 * ft[done]
        go = ~done
        active, t = active[go], t[go] - ft[go] / slope[go]
        if active.size == 0:
            return rows, sign * roots
        ft, slope = f(rows[active], t)
    side = "left" if sign == 1 else "right"
    raise RuntimeError(f"{side} Sigma_2 roots not within the tolerance after {_MAX_ROOT_STEPS} "
                       "Newton steps: is it below the rounding error of the symbol?")


def essential_spectrum(spec: ModelSpec, grid: Grid) -> EssSpecReport:
    """Compute the sampled essential spectrum Sigma_1 union Sigma_2.

    m and M are the extremes of w2 over the pair grid, from the streamed
    check_assumption_a pass.  The edge probes sit outside the refined
    edges of ran w2 (_w2_edges).  A node x_i contributes a root below m iff
    Delta(x_i; .) is negative at the left edge probe, and a root above M iff
    it is positive at the right edge probe.  Each root is found by Newton
    steps from its probe inside a bracket that the slope bound
    Delta' <= -1 certifies, to within ROOT_TOL (see _one_sided_roots), so
    no search window is needed.
    """
    chk = check_assumption_a(spec, grid)
    m_hat, M_hat = chk.w2_min, chk.w2_max

    w2_lo, w2_hi, minima = _w2_edges(spec, grid.a)
    m_guard = min(m_hat, w2_lo)
    M_guard = max(M_hat, w2_hi)

    n1 = grid.n_per_dim
    edge = max(1e-9, (M_guard - m_guard + 1.0) / n1**2)
    inner = make_grid(spec.d, grid.a, (4 if spec.d == 1 else 2) * n1, "midpoint")

    roots = []
    sides = []
    for sign, e_guard in ((1, m_guard), (-1, -M_guard)):
        rows, found = _one_sided_roots(spec, grid, inner, sign, e_guard - edge)
        roots += [(grid.nodes[r].copy(), float(z)) for r, z in zip(rows, found)]
        sides.append(found)
    left, right = sides
    hull = _merge_hull(left, ROOT_TOL) + _merge_hull(right, ROOT_TOL)
    sess_min = float(left.min(initial=m_hat))
    sess_max = float(right.max(initial=M_hat))
    return EssSpecReport(m=m_hat, M=M_hat, sigma2_roots=roots, sigma2_hull=hull,
                         sess_min=sess_min, sess_max=sess_max, w2_minima=minima)


def _branch_roots(matrices, t_edge: float, pole: float) -> np.ndarray:
    """Sorted roots below t_edge of the eigenvalue branches of a Hermitian F(t).

    ``matrices(t)`` returns F(t) and F'(t) with F' <= -I.  The j-th smallest
    eigenvalue mu_j(t) of F(t) is then continuous and strictly decreasing with
    slope <= -1, so it has exactly one root t_j and is negative exactly for
    t > t_j: there are as many roots below t_edge as negative eigenvalues of
    F(t_edge).  Each root comes from Newton steps on mu_j, with
    mu_j' = v_j^H F' v_j, inside a bracket that every evaluation narrows by
    the slope bound (mu_j(t) > 0 puts t_j in [t, t + mu_j(t)], mu_j(t) < 0 in
    [t + mu_j(t), t]); a step leaving the bracket is replaced by bisection.
    Roots are taken from the edge inward, t_j <= t_{j+1}, each search starting
    at the last evaluation of the previous one.  ``pole`` is the singularity
    of F nearest above t_edge.
    """
    def evaluate(t):
        F, dF = matrices(t)
        mu, vecs = np.linalg.eigh(F)
        return mu, vecs, dF

    t = t_edge
    mu, vecs, dF = evaluate(t)
    k = int(np.count_nonzero(mu < 0.0))
    roots = np.empty(k)
    hi = t_edge
    for j in range(k - 1, -1, -1):
        lo = -np.inf
        for _ in range(_MAX_ROOT_STEPS):
            if mu[j] >= 0.0:
                lo, hi = max(lo, t), min(hi, t + mu[j])
            else:
                lo, hi = max(lo, t + mu[j]), min(hi, t)
            v = vecs[:, j]
            slope = float(np.real(np.vdot(v, dF @ v)))
            # eigh resolves mu to about eps * ||F||, i.e. t_j to that over |slope|
            tol = 8.0 * np.finfo(float).eps * (abs(t) + np.max(np.abs(mu)) / -slope)
            if hi - lo <= tol:
                root = min(hi, 0.5 * (lo + hi))
                break
            newton = mu[j] / slope
            # Next to the pole, mu_j ~ -c / (pole - t) and Newton steps only
            # double the distance to it; Newton on mu_j(t) (pole - t) cancels
            # the pole and is taken when it moves more than twice as far.
            d = pole - t
            denom = slope * d - mu[j]
            cancelled = mu[j] * d / denom if denom < 0.0 else 0.0
            step = t - (cancelled if abs(cancelled) > 2.0 * abs(newton) else newton)
            if abs(step - t) <= tol:
                root = min(max(step, lo), hi)
                break
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
            t = step
            vecs = dF = None            # release the last evaluation before building the next
            mu, vecs, dF = evaluate(t)
        else:
            raise RuntimeError(f"eigenvalue branch {j} did not converge in {_MAX_ROOT_STEPS} steps")
        roots[j] = hi = root
    return roots


def discrete_spectrum(spec: ModelSpec, grid: Grid, sess_min: float,
                      sess_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the reduced matrix A outside the essential spectrum, by Schur inertia.

    Returns ``(below, above)``: the sorted eigenvalues strictly below
    sess_min - BOUNDARY_BAND and strictly above sess_max + BOUNDARY_BAND,
    the edges of essential_spectrum; an infinite edge leaves its side empty
    without any work.

    A is never assembled.  For z below min h22 = m, Haynsworth inertia
    additivity on A - z gives #eig(A) < z = #neg S(z), so the eigenvalues
    below the edge are the roots of the eigenvalue branches of the N x N
    Schur complement S(z) (see _branch_roots).  Above M the same holds for
    #eig(A) > z = #pos S(z), which is the same search on t -> -S(-t).  The
    identity needs sess_min <= m and sess_max >= M; ValueError otherwise.
    """
    chk = check_assumption_a(spec, grid)
    if sess_min > chk.w2_min or sess_max < chk.w2_max:
        raise ValueError("discrete spectrum: sess_min must not exceed m and sess_max "
                         "must not fall below M, the sampled range of w2")
    sides = []
    for sign, edge in ((1, sess_min), (-1, sess_max)):
        if not np.isfinite(edge):
            sides.append(np.empty(0))
            continue

        def matrices(t, sign=sign):
            S, dS = s_and_derivative(spec, grid, sign * t)
            return sign * S, dS

        pole = chk.w2_min if sign == 1 else -chk.w2_max
        sides.append(sign * _branch_roots(matrices, sign * edge - BOUNDARY_BAND, pole))
    below, above = sides
    return below, above[::-1]


def discrete_spectrum_below(spec: ModelSpec, grid: Grid, sess_min: float) -> np.ndarray:
    """Sorted eigenvalues of the reduced matrix strictly below sess_min - BOUNDARY_BAND."""
    return discrete_spectrum(spec, grid, sess_min, np.inf)[0]


def discrete_spectrum_above(spec: ModelSpec, grid: Grid, sess_max: float) -> np.ndarray:
    """Sorted eigenvalues of the reduced matrix strictly above sess_max + BOUNDARY_BAND."""
    return discrete_spectrum(spec, grid, -np.inf, sess_max)[1]


class MatrixTooLargeError(MemoryError):
    """A dense matrix and its eigensolver copy would not fit in physical memory."""


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def birman_schwinger_sweep(spec: ModelSpec, grid: Grid, pair_grid: PairGrid,
                           zs) -> list[CountingResult]:
    """Three-way bound-state counts at each z: reduced matrix, Schur complement, BS operator.

    Computes N(z; A_h), N(0; S_h(z)) and n(1; T_h(z)) independently and
    reports whether all three agree.  Eigenvalues inside the boundary band
    of the respective threshold are tallied separately; agreement is only
    meaningful when that tally is zero.  A does not depend on z, so it is
    eigensolved once for all zs; MatrixTooLargeError is raised before it or
    the dense (N, P) coupling block is allocated if A and the eigensolver's
    copy exceed physical memory.
    """
    from . import operators      # the dense reduced matrix is this leg's alone

    dim = grid.n + pair_grid.p
    itemsize = np.dtype(operators.coupling_dtype(mesh_samples(spec, grid))).itemsize
    need = 2 * dim * dim * itemsize
    have = _physical_memory_bytes()
    if need > have:
        raise MatrixTooLargeError(
            f"the {dim} x {dim} reduced matrix and its eigensolver copy need "
            f"{need / 2**30:.1f} GiB, more than the {have / 2**30:.1f} GiB of "
            "physical memory; use a smaller grid")
    # the blocks, the dense h12 among them, are a temporary freed before the eigensolve
    ev_A = eigvals_hermitian(operators.assemble_A(operators.assemble_blocks(spec, grid, pair_grid)))
    results = []
    for z in zs:
        sz = schur_eval(spec, grid, z)
        T = sz.t_matrix()                        # raises if Delta not positive
        tc_A = _band_counts(ev_A, z)
        tc_S = threshold_counts(sz.s_matrix(), 0.0)
        tc_T = threshold_counts(T, 1.0)
        count_A, count_S, count_T = tc_A.below, tc_S.below, tc_T.above
        results.append(CountingResult(
            z=float(z), count_A=count_A, count_S=count_S, count_T=count_T,
            boundary=tc_A.boundary + tc_S.boundary + tc_T.boundary,
            agree=bool(count_A == count_S == count_T),
        ))
    return results


def birman_schwinger_check(spec: ModelSpec, grid: Grid, pair_grid: PairGrid,
                           z: float) -> CountingResult:
    """Three-way bound-state count at one z (see birman_schwinger_sweep)."""
    return birman_schwinger_sweep(spec, grid, pair_grid, [z])[0]
