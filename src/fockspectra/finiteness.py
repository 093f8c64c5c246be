"""Growth-exponent estimation and the finiteness criterion for bound states.

Near the minimizer (t0, t0) of w2 the model is compared against the radial
gauge Phi_s(x, y) = ||x||^s + ||y||^s (on the product ball of radius delta,
and 1 outside).  Three exponents govern the bottom of the spectrum:

    alpha : growth of w2 - min sess          (two-boson dispersion flatness)
    beta  : vanishing of sup_x |v1(x, y)|    (coupling decay in the
                                              integrated variable)
    gamma : growth of Delta(. ; min sess)    (Schur-symbol nondegeneracy)

When alpha* + gamma* < 2 beta* + d the Birman-Schwinger operator stays
Hilbert-Schmidt up to the critical energy and the number of eigenvalues
below the essential spectrum is finite.

The sharp exponents are inf/sup over admissible one-sided bounds and are not
computable from samples; this module substitutes log-log regression slopes
of shell statistics over geometric radii in [delta/64, delta], gated by an
r^2 >= 0.9 fit-quality requirement and a safety margin MARGIN = 0.1 on the
criterion, reporting ``inconclusive`` rather than false precision.

The minimizer t0 comes from the minima of w2 that the edge search of
essential_spectrum found, refined on the diagonal by nested lattice zooms
of (2k + 1)^d points, k = 8, each k times finer than the last, down to a
spacing of 1e-12.  Plain numpy throughout, so the finiteness path imports
no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .blocks import map_blocks
from .grid import Grid, _lattice_minima, _zoom_minimize, lattice, make_grid
from .model import ModelSpec, _check_grid, _owned, eval_xy, shared_v1_row
from .schur import (DeltaNotPositiveError, PoleProximityError, delta_at, delta_at_points,
                    hs_norm_t)
from .spectra import w2_second_minimizer

R2_GATE = 0.9
MARGIN = 0.1        # safety margin on alpha + gamma < 2 beta + d
HS_TOL = 0.05       # finest relative step of a Cauchy HS trend
N_SHELLS = 12
SHELL_SPAN = 64.0
SHELL_RADIUS = 0.25     # delta = SHELL_RADIUS * a, clipped to 0.999 of the ball around t0
BETA_SENTINEL_FLOOR = 1e-300
DIAG_STARTS = 8     # least diagonal lattice minima zoomed by locate_t0


@dataclass(frozen=True, eq=False)
class ExponentEstimate:
    """Regression estimates of the growth exponents around t0."""

    t0: np.ndarray
    alpha_hat: float
    beta_hat: float                  # math.inf when v1 vanishes near t0
    gamma_hat: Optional[float]       # None when the critical symbol diverges
    fit_r2: tuple                    # (alpha, beta, gamma) regression quality
    delta_radius: float
    e_star: float                    # critical energy used for the statistics
    shells: list                     # (radius, alpha_stat, beta_stat, gamma_stat)


@dataclass(frozen=True, eq=False)
class FinitenessReport:
    criterion_lhs: float             # alpha_hat + gamma_hat
    criterion_rhs: float             # 2 beta_hat + d
    margin: float
    verdict: str                     # finite-predicted | inconclusive | criterion-violated
    hs_trend: list                   # (n_per_dim, HS norm of T at the critical energy)
    hs_cauchy: bool
    integral_test_finite: bool       # sign test of the radial comparison integral
    integral_test_agrees: bool


def locate_t0(spec: ModelSpec, report):
    """Locate the diagonal minimizer (t0, t0) of w2, or None when unsupported.

    The diagonal within two spacings of the edge search's lattice around the
    midpoint of its best minimizer (x*, y*) (report.w2_minima), inside the
    cube shrunk by 1e-9, is sampled at an eighth of a spacing, since
    minimizers this close may share one start of that search.  Its
    DIAG_STARTS least local minima are zoomed on; t0 is the best of them,
    on a tie the one of least lattice value.  With tol = 1e-6 max(1, M - m), None
    when w2(t0, t0) exceeds min(w2(x*, y*), m) by more than tol (the
    minimizer is off the diagonal), or when w2_second_minimizer finds
    several minimizers among these points and the edge search's (the
    multi-point case is detection-only).  ValueError for d > 2, which
    estimate_exponents does not support.
    """
    d = spec.d
    if d > 2:
        raise ValueError(f"locate_t0 supports d <= 2; the model has d = {d}")
    minima = report.w2_minima
    tol = 1e-6 * max(1.0, float(report.M) - float(report.m))

    def w2_diag(pts):
        return np.fmin(eval_xy(spec, spec.w2, pts, pts), np.inf)

    h = minima.spacing / 8
    t = 0.5 * (minima.points[0][:d] + minima.points[0][d:])
    lo = np.maximum(t - 16 * h, -spec.a + 1e-9)
    hi = np.minimum(t + 16 * h, spec.a - 1e-9)
    pts = np.clip(t + h * lattice(np.arange(-16.0, 17.0), d), lo, hi)
    vals = w2_diag(pts)
    near = np.flatnonzero(_lattice_minima(vals.reshape((33,) * d)).ravel())
    starts = [
        _zoom_minimize(w2_diag, pts[i], np.maximum(pts[i] - h, lo), np.minimum(pts[i] + h, hi))
        for i in near[np.argsort(vals[near], kind="stable")][:DIAG_STARTS]]
    t0, value = min(starts, key=lambda start: start[1])      # a tie keeps the first start
    if float(value) - min(float(minima.values[0]), float(report.m)) > tol:
        return None
    points = [(np.tile(p, 2), v) for p, v in starts]
    return None if w2_second_minimizer(spec, minima, tol, points) is not None else t0


def _loglog_fit(radii: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log(vals) against log(radii), with r^2."""
    keep = np.isfinite(vals) & (vals > 0.0)
    if np.count_nonzero(keep) < 4:
        return math.nan, 0.0
    L = np.log(radii[keep])
    V = np.log(vals[keep])
    A = np.vstack([L, np.ones_like(L)]).T
    sol, res, *_ = np.linalg.lstsq(A, V, rcond=None)
    ss_tot = float(np.sum((V - V.mean()) ** 2))
    if ss_tot == 0.0:
        return float(sol[0]), 1.0
    ss_res = float(res[0]) if res.size else 0.0
    return float(sol[0]), 1.0 - ss_res / ss_tot


def _directions(d: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d > 2:
        raise ValueError(f"shell directions are defined for d <= 2; the model has d = {d}")
    golden = math.pi * (3.0 - math.sqrt(5.0))
    theta = golden * np.arange(256)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def _abs_max_v1(spec: ModelSpec, xs: np.ndarray, shells: np.ndarray) -> np.ndarray:
    """max |v1(x, y)| over the points xs and the y of each shell (shape (k, m, d)).

    One pass over xs times all k m shell points, in row blocks of xs: each
    block is reduced to its k shell maxima.  When v1 ignores x
    (shared_v1_row), its one row holds them.
    """
    ys = shells.reshape(-1, spec.d)

    def block_max(b):
        V = eval_xy(spec, spec.v1, xs[b, None, :], ys[None, :, :])
        return np.max(np.abs(V, out=_owned(V)).reshape(-1, *shells.shape[:2]), axis=(0, 2))

    row = shared_v1_row(spec, xs, ys)
    if row is not None:
        return np.max(np.abs(row).reshape(shells.shape[:2]), axis=1)
    return np.max(map_blocks(block_max, xs.shape[0], ys.shape[0]), axis=0)


def estimate_exponents(spec: ModelSpec, grid: Grid, report, t0) -> ExponentEstimate:
    """Estimate alpha, beta, gamma by shell statistics around t0.

    Statistics per shell radius r (12 geometric radii in [delta/64, delta],
    delta = a/4, or 0.999 of the distance from t0 to the boundary if less):

        alpha : min over direction pairs of  w2(t0 + r u, t0 + r v) - E*
        beta  : max over directions of  sup_x |v1(x, t0 + r v)|
        gamma : min over directions of  Delta(t0 + r u; E*)

    where E* = min(sess_min, w2(t0, t0)) corrects the O(h^2) bias of the
    pair-grid minimum.  Each statistic is one pass over the points of all
    shells at once.  The symbol is evaluated on a dedicated fine quadrature;
    gamma is marked unavailable if that pass comes within the pole band of
    w2 (PoleProximityError, which leaves every gamma statistic NaN), or if
    the symbol at the smallest shell fails to settle under refinement (the
    regime where the critical symbol need not be defined).  Nonpositive
    shell statistics are dropped from the fits; slopes are clamped at 0
    where the gauge requires nonnegative exponents.
    """
    if t0 is None:
        raise ValueError("t0 is required; locate_t0 returned None for this model")
    t0 = np.atleast_1d(np.asarray(t0, dtype=float))
    if t0.shape != (spec.d,) or not np.all(np.abs(t0) < spec.a):
        raise ValueError(f"t0 must have d = {spec.d} finite coordinates inside (-a, a)")
    _check_grid(spec, grid)
    fine_n = 8192 if spec.d == 1 else 192
    ball = spec.a - float(np.max(np.abs(t0)))
    delta = SHELL_RADIUS * spec.a
    delta_eff = 0.999 * ball if ball < delta else delta

    radii = np.geomspace(delta_eff / SHELL_SPAN, delta_eff, N_SHELLS)
    shells = t0 + radii[:, None, None] * _directions(spec.d)      # (N_SHELLS, ndir, d)
    w2_t0 = float(eval_xy(spec, spec.w2, t0[None, :], t0[None, :])[0])
    e_star = min(float(report.sess_min), w2_t0)

    fine = make_grid(spec.d, spec.a, fine_n, "midpoint")
    half = make_grid(spec.d, spec.a, fine_n // 2, "midpoint")

    # x-samples for the sup over x in the beta statistic
    pad = spec.a * 1e-9
    xs = np.concatenate([grid.nodes, lattice(np.linspace(-spec.a + pad, spec.a - pad, 257),
                                             spec.d)], axis=0)

    def pair_min(b):        # the least w2 over each shell's direction pairs
        return np.min(eval_xy(spec, spec.w2, shells[b, :, None, :], shells[b, None, :, :]),
                      axis=(1, 2))

    alpha_stats = np.concatenate(map_blocks(pair_min, N_SHELLS, shells.shape[1] ** 2)) - e_star
    beta_stats = _abs_max_v1(spec, xs, shells)
    gamma_stats = np.full(N_SHELLS, np.nan)
    try:
        symbol = delta_at_points(spec, fine, shells.reshape(-1, spec.d), e_star)
        gamma_stats = np.min(symbol.reshape(N_SHELLS, -1), axis=1)
        # refinement sanity at the smallest shell: the critical symbol must settle
        v_f, v_h = float(symbol[0]), delta_at(spec, half, shells[0, 0], e_star)
        gamma_ok = not abs(v_f - v_h) > 0.2 * max(abs(v_f), 1e-300)
    except PoleProximityError:
        gamma_ok = False

    alpha_hat, r2_a = _loglog_fit(radii, alpha_stats)
    if np.all(beta_stats < BETA_SENTINEL_FLOOR):
        beta_hat, r2_b = math.inf, 1.0
    else:
        beta_hat, r2_b = _loglog_fit(radii, beta_stats)
    gamma_hat, r2_g = _loglog_fit(radii, gamma_stats) if gamma_ok else (math.nan, 0.0)
    if math.isnan(gamma_hat):
        gamma_hat, r2_g = None, 0.0
    else:
        gamma_hat = max(0.0, gamma_hat)

    alpha_hat = max(0.0, alpha_hat) if not math.isnan(alpha_hat) else math.nan
    return ExponentEstimate(
        t0=t0, alpha_hat=alpha_hat, beta_hat=beta_hat, gamma_hat=gamma_hat,
        fit_r2=(r2_a, r2_b, r2_g), delta_radius=float(delta_eff), e_star=float(e_star),
        shells=list(zip(radii.tolist(), alpha_stats.tolist(), beta_stats.tolist(),
                        gamma_stats.tolist())),
    )


def finiteness_verdict(spec: ModelSpec, grids: Sequence[Grid],
                       estimate: ExponentEstimate) -> FinitenessReport:
    """Combine the exponent criterion with the Hilbert-Schmidt refinement trend.

    The verdict is ``finite-predicted`` only when alpha + gamma < 2 beta + d
    with the safety margin MARGIN, the fits pass the r^2 gate, and the
    discrete HS norm of the Birman-Schwinger operator at the critical energy
    is Cauchy across >= 3 refinement levels (successive relative differences
    nonincreasing and below HS_TOL at the finest pair).  A violation beyond
    MARGIN yields ``criterion-violated``; everything else,
    including unavailable gamma or poor fits, is ``inconclusive``.  A level
    where the critical energy meets a sample of w2 or leaves Delta not
    positive reads NaN in the trend; any other error propagates.
    """
    if len(grids) < 3:
        raise ValueError("the refinement sequence needs at least 3 grids")
    for g in grids:         # every grid's cube, before the estimate is read
        _check_grid(spec, g)

    hs_trend = []
    for g in grids:
        try:
            hs_trend.append((g.n_per_dim, hs_norm_t(spec, g, estimate.e_star)))
        except (DeltaNotPositiveError, PoleProximityError):
            hs_trend.append((g.n_per_dim, math.nan))
    hs_vals = np.array([h for _, h in hs_trend])
    if np.all(np.isfinite(hs_vals)):
        rel = np.abs(np.diff(hs_vals)) / np.maximum(np.abs(hs_vals[1:]), 1e-300)
        hs_cauchy = bool(np.all(np.diff(rel) <= 1e-12) and rel[-1] < HS_TOL)
    else:
        hs_cauchy = False

    d = spec.d
    rhs = 2.0 * estimate.beta_hat + d
    gamma = estimate.gamma_hat
    lhs = estimate.alpha_hat + (gamma if gamma is not None else 0.0)

    r2_a, r2_b, r2_g = estimate.fit_r2
    fits_ok = r2_a >= R2_GATE and (estimate.beta_hat == math.inf or r2_b >= R2_GATE) \
        and (gamma is None or r2_g >= R2_GATE)

    if gamma is None:
        # alpha alone already exceeding the bound settles the violated case
        verdict = "criterion-violated" if estimate.alpha_hat > rhs + MARGIN else "inconclusive"
    elif not fits_ok:
        verdict = "inconclusive"
    elif lhs < rhs - MARGIN:
        verdict = "finite-predicted" if hs_cauchy else "inconclusive"
    elif lhs > rhs + MARGIN:
        verdict = "criterion-violated"
    else:
        verdict = "inconclusive"

    exponent = rhs - lhs           # integral_0^delta t^(exponent - 1) dt
    integral_finite = bool(exponent > 0.0)
    return FinitenessReport(
        criterion_lhs=float(lhs),
        criterion_rhs=float(rhs),
        margin=MARGIN,
        verdict=verdict,
        hs_trend=hs_trend,
        hs_cauchy=hs_cauchy,
        integral_test_finite=integral_finite,
        integral_test_agrees=bool(integral_finite == (lhs < rhs)),
    )
