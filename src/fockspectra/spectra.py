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

* edge probes sit max(1e-9, (M - m + 1)/n^2) outside a fine-sampled hull of
  ran w2, so that roots closer to the edge than the quadrature can resolve
  are not reported;
* the symbol used for root detection is streamed at the analysis nodes
  with an inner-refined y-quadrature (the reported m, M stay those of the
  analysis grid).

Counting conventions: n(lambda; A) eigenvalues strictly above lambda,
N(z; A) strictly below z, both with a 1e-10 boundary band reported
separately, since strict counting at machine precision is ill-posed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import operators
from .blocks import map_blocks
from .grid import Grid, PairGrid, lattice, make_grid
from .model import ModelSpec, check_assumption_a, eval_xy, mesh_samples
from .schur import delta_and_derivative_at_points, s_and_derivative, schur_eval

BOUNDARY_BAND = 1e-10
ROOT_TOL = 1e-10   # width of the certified bracket around a Sigma_2 root
_MAX_ROOT_STEPS = 200


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


def _band_counts(ev: np.ndarray, threshold: float) -> ThresholdCounts:
    below = int(np.sum(ev < threshold - BOUNDARY_BAND))
    above = int(np.sum(ev > threshold + BOUNDARY_BAND))
    return ThresholdCounts(below=below, boundary=ev.size - below - above, above=above)


def threshold_counts(matrix, threshold: float) -> ThresholdCounts:
    """Eigenvalues strictly below and above threshold, and those within BOUNDARY_BAND of it."""
    return _band_counts(eigvals_hermitian(matrix), threshold)


def _fine_range_guard(spec: ModelSpec, grid: Grid, samples_per_dim: int):
    """Min/max of w2 over a dense closed sampling of Omega^2, in row blocks."""
    pts = lattice(np.linspace(-grid.a, grid.a, samples_per_dim), spec.d)

    def block(b):
        w2 = eval_xy(spec, spec.w2, pts[b, None, :], pts[None, :, :])
        return float(np.min(w2)), float(np.max(w2))

    lo, hi = np.inf, -np.inf
    for lo_b, hi_b in map_blocks(block, pts.shape[0], pts.shape[0]):
        lo, hi = min(lo, lo_b), max(hi, hi_b)
    return lo, hi


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
    check_assumption_a pass.  A node x_i
    contributes a root below m iff Delta(x_i; .) is negative at the left
    edge probe, and a root above M iff it is positive at the right edge
    probe.  Each root is found by Newton steps from its probe inside a
    bracket that the slope bound Delta' <= -1 certifies, to within
    ROOT_TOL (see _one_sided_roots), so no search window is needed.
    """
    chk = check_assumption_a(spec, grid)
    m_hat, M_hat = chk.w2_min, chk.w2_max

    guard_samples = 2049 if spec.d == 1 else (65 if spec.d == 2 else 17)
    lo_fine, hi_fine = _fine_range_guard(spec, grid, guard_samples)
    m_guard = min(m_hat, lo_fine)
    M_guard = max(M_hat, hi_fine)

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
                         sess_min=sess_min, sess_max=sess_max)


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
