"""Eigenvalue counting, essential spectrum, and the counting cross-checks.

The essential spectrum of the operator is the union of Sigma_1 = cl(ran w2)
with the root set Sigma_2 of the Schur symbol: the z outside Sigma_1 where
Delta(. ; z) passes through zero.  On a grid, Sigma_1 is approximated by the
sampled range [m, M] of w2 over node pairs and Sigma_2 by per-node roots of
z -> Delta(x_i; z), which is strictly decreasing, diverges to +inf as
z -> -inf, and tends to -inf as z -> +inf; each node therefore contributes
at most one root per side.  The symbol falls with slope at most -1 and is
concave below ran w2 and convex above it, so Newton steps in z from each
edge probe approach the root monotonically inside a bracket the slope bound
certifies, to within ROOT_TOL.  The discrete spectrum outside
[sess_min, sess_max] comes from the N x N Schur complement S(z) by inertia
(discrete_spectrum), from the eigenvalues of S alone (_branch_roots); the
dense reduced matrix is assembled only as the independent leg of the
Birman-Schwinger check.

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

from .grid import ZOOM_TOL, Grid, _lattice_minima, _zoom_minimize, lattice, make_grid
from .model import ModelSpec, check_assumption_a, eval_xy, mesh_samples
from .schur import _s_into, _t_from, delta_at_points, s_matrix, schur_eval

BOUNDARY_BAND = 1e-10
ROOT_TOL = 1e-10   # width of the certified bracket around a Sigma_2 root
_MAX_ROOT_STEPS = 200
_BRANCH_HISTORY = 12   # evaluations kept for the interpolated branch steps
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


class Sigma2Side(NamedTuple):
    """The Sigma_2 roots on one side of ran w2, as _sigma2_roots found them."""

    rows: np.ndarray            # strictly increasing indices of the grid nodes holding a root
    roots: np.ndarray           # the root z of each


@dataclass(frozen=True, eq=False)
class EssSpecReport:
    """Sampled essential spectrum: [m, M] plus the Sigma_2 roots below m and above M."""

    m: float
    M: float
    left: Sigma2Side            # roots below m
    right: Sigma2Side           # roots above M
    sigma2_hull: list           # closed intervals [lo, hi] after gap merging
    sess_min: float
    sess_max: float
    w2_minima: W2Minima         # lattice minima of w2 over Omega^2, from _w2_edges


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
             sign: float = 1.0) -> tuple[np.ndarray, float]:
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
            z, value = _zoom_w2(spec, a, np.r_[pts[p], pts[q]], reach, reach / 16, sign)
            near.append(z)
            vals.append(value)
        b = int(np.argmin(vals))
        near[b], vals[b] = _zoom_w2(spec, a, near[b], reach / 16, ZOOM_TOL, sign)
        edges.append(min(float(np.min(W)), float(vals[b])))
        if sign == 1.0:
            rank = np.argsort(vals, kind="stable")
            minima = W2Minima(np.array(near)[rank], np.array(vals)[rank], reach, band / 256)
    lo, neg_hi = edges
    return lo, -neg_hi, minima


def w2_second_minimizer(spec: ModelSpec, minima: W2Minima, tol: float, points=()):
    """A minimizer of w2 within tol of the best of minima that a barrier parts from it, or None.

    The barrier is a value above the best plus tol at one of 31 inner points
    of the segment between the two.  The given points, pairs of a row (x, y)
    and w2 there, are tried first, then the further minima within the band
    plus tol of the best, each zoomed on to ZOOM_TOL.
    """
    best, level = minima.points[0], minima.values[0] + tol
    further = (_zoom_w2(spec, spec.a, z, minima.spacing / 16, ZOOM_TOL)
               for z, value in zip(minima.points[1:], minima.values[1:])
               if value <= level + minima.band)
    for z, value in itertools.chain(points, further):
        if value <= level:
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
    g = np.sort(gaps)       # 4x np.median(gaps), without the numpy.ma import np.median costs
    threshold = 2.0 * float(g[(g.size - 1) // 2] + g[g.size // 2]) if g.size else 0.0
    breaks = np.flatnonzero(gaps > threshold)
    return [(float(rs[lo]), float(rs[hi]))
            for lo, hi in zip(np.r_[0, breaks + 1], np.r_[breaks, rs.size - 1])]


def _sigma2_roots(spec: ModelSpec, grid: Grid, inner: Grid, lo: float, hi: float):
    """The Sigma_2 roots below the probe lo and above the probe hi, as two Sigma2Sides.

    Delta(x; .), at the nodes of grid with the y-quadrature of inner, falls
    with slope <= -1, so a node holds a root below lo iff Delta(x; lo) < 0
    and one above hi iff Delta(x; hi) > 0; each probe is one pass over the
    nodes, freed before the next.  Delta is concave below ran w2 and convex
    above it, so Newton steps from either probe approach the root without
    passing it, and the slope bound puts the root between z and z + Delta:
    a row stops once |Delta| <= ROOT_TOL and returns z + Delta/2, within
    ROOT_TOL/2 of the root.  The unfinished rows of both sides advance in
    one symbol evaluation per step, which may span more row blocks (and so
    run on the block threads) than either side alone.
    """
    sides = []
    for z, holds_root in ((lo, np.less), (hi, np.greater)):
        delta, slope = delta_at_points(spec, inner, grid.nodes, z, slope=True)
        rows = np.flatnonzero(holds_root(delta, 0.0))
        sides.append((rows, delta[rows], slope[rows]))
        del delta, slope                # before the next probe's pass
    k = sides[0][0].size            # rows[:k] hold the roots below lo, rows[k:] those above hi
    rows, delta, slope = (np.r_[a, b] for a, b in zip(*sides))
    z = np.where(np.arange(rows.size) < k, lo, hi)
    active = np.arange(rows.size)
    roots = np.empty(rows.size)
    for _ in range(_MAX_ROOT_STEPS):
        done = np.abs(delta) <= ROOT_TOL
        roots[active[done]] = z[done] + 0.5 * delta[done]
        go = ~done
        active, z = active[go], z[go] - delta[go] / slope[go]
        if active.size == 0:
            return Sigma2Side(rows[:k], roots[:k]), Sigma2Side(rows[k:], roots[k:])
        delta, slope = delta_at_points(spec, inner, grid.nodes[rows[active]], z, slope=True)
    raise RuntimeError(f"Sigma_2 roots not within the tolerance after {_MAX_ROOT_STEPS} "
                       "Newton steps: is it below the rounding error of the symbol?")


def essential_spectrum(spec: ModelSpec, grid: Grid) -> EssSpecReport:
    """Compute the sampled essential spectrum Sigma_1 union Sigma_2.

    m and M are the extremes of w2 over the pair grid, from the streamed
    check_assumption_a pass.  The edge probes sit outside the refined
    edges of ran w2 (_w2_edges), and the Sigma_2 roots are found by Newton
    steps from them to within ROOT_TOL (_sigma2_roots), so no search window
    is needed.
    """
    chk = check_assumption_a(spec, grid)
    m_hat, M_hat = chk.w2_min, chk.w2_max

    w2_lo, w2_hi, minima = _w2_edges(spec, grid.a)
    m_guard = min(m_hat, w2_lo)
    M_guard = max(M_hat, w2_hi)

    n1 = grid.n_per_dim
    edge = max(1e-9, (M_guard - m_guard + 1.0) / n1**2)
    inner = make_grid(spec.d, grid.a, (4 if spec.d == 1 else 2) * n1, "midpoint")

    left, right = _sigma2_roots(spec, grid, inner, m_guard - edge, M_guard + edge)
    hull = _merge_hull(left.roots, ROOT_TOL) + _merge_hull(right.roots, ROOT_TOL)
    sess_min = float(left.roots.min(initial=m_hat))
    sess_max = float(right.roots.max(initial=M_hat))
    return EssSpecReport(m=m_hat, M=M_hat, left=left, right=right, sigma2_hull=hull,
                         sess_min=sess_min, sess_max=sess_max, w2_minima=minima)


def _interpolated_step(history: list, j: int, pole: float) -> tuple[float, float]:
    """(slope, t): the next point of branch j's search, from history's (t, mu), newest first.

    The chord runs from the newest evaluation to the most recent one at least
    a step away, else the farthest: closer quotients are the eigenvalues'
    rounding.  Its slope is capped at the bound -1, which alone serves while
    history holds one evaluation.  A third evaluation a step from both makes
    the step inverse quadratic interpolation, and the slope its slope there.
    Next to the pole, mu_j ~ -c / (pole - t) and those steps only creep on;
    the chord's secant on g = mu_j (pole - t) cancels the pole and is taken
    when it moves more than twice as far, unless it found the zero g has at
    the pole when mu_j stays finite there: a root within 4 times the distance
    of a chord end 4 times nearer the pole than the other.
    """
    t0, m0 = history[0][0], float(history[0][1][j])
    chords = [(min((m0 - mu[j]) / (t0 - t), -1.0), t, float(mu[j]))
              for t, mu in history[1:] if mu[j] != m0]
    if not chords:
        return -1.0, t0 + m0
    far = [c for c in chords if abs(c[1] - t0) * -c[0] >= abs(m0)]
    slope, t1, m1 = far[0] if far else max(chords, key=lambda c: abs(c[1] - t0))
    step = t0 - m0 / slope
    for t, mu in history[1:]:
        m2 = mu[j]
        if t != t1 and m2 not in (m0, m1) and min(abs(t - t0), abs(t - t1)) * -slope >= abs(m0):
            curve = (1.0 / slope - (t1 - t) / (m1 - m2)) / (m0 - m2)
            dt_dmu = 1.0 / slope + curve * (m0 - m1)
            slope = min(1.0 / dt_dmu, -1.0) if dt_dmu < 0.0 else slope
            step += curve * m0 * m1
            break
    d0, d1 = pole - t0, pole - t1
    g0, g1 = m0 * d0, m1 * d1
    if g0 != g1:
        d = d0 + (d1 - d0) * g0 / (g0 - g1)       # the root of the secant on g, as pole - t
        spurious = d < 4.0 * min(d0, d1) < max(d0, d1)
        if 0.0 < d and not spurious and abs(pole - d - t0) > 2.0 * abs(step - t0):
            step = pole - d
    return slope, step


def _branch_roots(matrix, t_edge: float, pole: float) -> np.ndarray:
    """Sorted roots below t_edge of the eigenvalue branches of a Hermitian F(t).

    ``matrix(t)`` returns F(t), whose derivative is at most -I.  The j-th
    smallest eigenvalue mu_j(t) of F(t) is then continuous and strictly
    decreasing with slope <= -1, so it has exactly one root t_j and is
    negative exactly for t > t_j: there are as many roots below t_edge as
    negative eigenvalues of F(t_edge).  An evaluation is one eigvalsh, whose
    values narrow every branch's bracket by the slope bound (mu_j(t) > 0 puts
    t_j in [t, t + mu_j(t)], mu_j(t) < 0 in [t + mu_j(t), t]); the last
    _BRANCH_HISTORY are kept for the steps (_interpolated_step).  A step
    leaving the bracket is replaced by bisection of log(pole - t), which
    nears a root next to the pole from a far bracket end in few steps.
    Roots are taken from the edge inward, t_j <= t_{j+1}, each search
    starting at the last evaluation of the previous one.  ``pole`` is the
    singularity of F nearest above t_edge.
    """
    mu = eigvals_hermitian(matrix(t_edge))
    scale, k = float(np.max(np.abs(mu))), int(np.count_nonzero(mu < 0.0))
    history = [(t_edge, mu[:k])]
    lo, hi = t_edge + mu[:k], np.full(k, t_edge)
    roots = np.empty(k)
    for j in range(k - 1, -1, -1):
        for _ in range(_MAX_ROOT_STEPS):
            t, m = history[0][0], float(history[0][1][j])
            slope, step = _interpolated_step(history, j, pole)
            # eigvalsh resolves mu to about eps * ||F||, i.e. t_j to that over |slope|
            tol = 8.0 * np.finfo(float).eps * (abs(t) + scale / -slope)
            if hi[j] - lo[j] <= tol:
                root = min(hi[j], 0.5 * (lo[j] + hi[j]))
                break
            if abs(m / slope) <= tol:
                root = min(max(step, lo[j]), hi[j])
                break
            if not lo[j] < step < hi[j]:
                step = pole - ((pole - lo[j]) * (pole - hi[j])) ** 0.5
            mu = eigvals_hermitian(matrix(step))
            scale, mu = float(np.max(np.abs(mu))), mu[:j + 1]
            np.maximum(lo[:j + 1], np.where(mu >= 0.0, step, step + mu), out=lo[:j + 1])
            np.minimum(hi[:j + 1], np.where(mu >= 0.0, step + mu, step), out=hi[:j + 1])
            history = [(step, mu), *history[:_BRANCH_HISTORY - 1]]
        else:
            raise RuntimeError(f"eigenvalue branch {j} did not converge in {_MAX_ROOT_STEPS} steps")
        roots[j] = root
        hi[:j] = np.minimum(hi[:j], root)
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
    if not (sess_min <= chk.w2_min and sess_max >= chk.w2_max):
        raise ValueError("discrete spectrum: sess_min must not exceed m and sess_max "
                         "must not fall below M, the sampled range of w2")
    sides = []
    for sign, edge in ((1, sess_min), (-1, sess_max)):
        if not np.isfinite(edge):
            sides.append(np.empty(0))
            continue

        def matrix(t, sign=sign):
            S = s_matrix(spec, grid, sign * t)
            return S if sign == 1 else np.negative(S, out=S)

        pole = chk.w2_min if sign == 1 else -chk.w2_max
        sides.append(sign * _branch_roots(matrix, sign * edge - BOUNDARY_BAND, pole))
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


def check_reduced_matrix_fits(spec: ModelSpec, grid: Grid) -> None:
    """MatrixTooLargeError if the reduced matrix A and its eigensolver copy exceed
    physical memory; the grid is sampled only if a complex A alone would."""
    from . import operators      # the dense reduced matrix is the sweep's alone

    dim = grid.n + grid.n * (grid.n + 1) // 2
    need, have = 2 * dim * dim * 8, _physical_memory_bytes()     # a float64 A and its copy
    if need <= have < 2 * need:         # only a complex A would not fit: the samples decide
        need *= np.dtype(operators.coupling_dtype(mesh_samples(spec, grid))).itemsize // 8
    if need > have:
        raise MatrixTooLargeError(
            f"the {dim} x {dim} reduced matrix and its eigensolver copy need "
            f"{need / 2**30:.1f} GiB, more than the {have / 2**30:.1f} GiB of "
            "physical memory; use a smaller grid")


def birman_schwinger_sweep(spec: ModelSpec, grid: Grid, zs) -> list[CountingResult]:
    """Three-way bound-state counts at each z: reduced matrix, Schur complement, BS operator.

    Computes N(z; A_h), N(0; S_h(z)) and n(1; T_h(z)) independently and
    reports whether all three agree.  Eigenvalues inside the boundary band
    of the respective threshold are tallied separately; agreement is only
    meaningful when that tally is zero.  A does not depend on z, so it is
    eigensolved once for all zs; check_reduced_matrix_fits runs before A or
    the dense (N, P) coupling block is allocated.  S and T at each z come
    from one schur_eval; a z that is not finite is a ValueError before
    anything is sampled.
    """
    from . import operators

    if not np.all(np.isfinite(zs)):
        raise ValueError("every z must be finite")
    check_reduced_matrix_fits(spec, grid)
    # the blocks, the dense h12 among them, are a temporary freed before the eigensolve
    ev_A = eigvals_hermitian(operators.assemble_A(operators.assemble_blocks(spec, grid)))
    results = []
    for z in zs:
        delta, K = schur_eval(spec, grid, z)
        T = _t_from(delta, K)                    # raises if Delta not positive
        tc_A = _band_counts(ev_A, z)
        tc_S = threshold_counts(_s_into(delta, K), 0.0)     # K becomes S
        tc_T = threshold_counts(T, 1.0)
        count_A, count_S, count_T = tc_A.below, tc_S.below, tc_T.above
        results.append(CountingResult(
            z=float(z), count_A=count_A, count_S=count_S, count_T=count_T,
            boundary=tc_A.boundary + tc_S.boundary + tc_T.boundary,
            agree=bool(count_A == count_S == count_T),
        ))
    return results


def birman_schwinger_check(spec: ModelSpec, grid: Grid, z: float) -> CountingResult:
    """Three-way bound-state count at one z (see birman_schwinger_sweep)."""
    return birman_schwinger_sweep(spec, grid, [z])[0]
