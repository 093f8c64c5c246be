import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import fockspectra as fs
from conftest import make_decoupled
from oracles import synthetic_power_model
from fockspectra.finiteness import ZOOM_TOL, _one_cluster, _zoom_minimize


def _report_for(spec, n=24):
    g = fs.make_grid(spec.d, spec.a, n)
    return g, fs.essential_spectrum(spec, g)


def test_locate_t0_mnr(mnr):
    g, rep = _report_for(mnr, 32)
    t0 = fs.locate_t0(mnr, g, rep)
    assert t0 is not None
    assert abs(float(t0[0])) < 1e-6


def test_locate_t0_shifted_quadratic():
    c = 0.3
    spec = make_decoupled(lambda x: 1.0 + 0.0 * x,
                          lambda x, y: (x - c) ** 2 + (y - c) ** 2)
    g, rep = _report_for(spec)
    t0 = fs.locate_t0(spec, g, rep)
    assert t0 is not None
    assert abs(float(t0[0]) - c) < 1e-6


def _d2_decoupled(w2_expr):
    return fs.model_from_config(
        "domain { d = 2  a = 1 }\nfunctions {\n  w0 = 0\n  v0 = 0\n  w1 = 1\n  v1 = 0\n"
        f'  w2 {{ expr = "{w2_expr}" }}\n}}\n')


def test_locate_t0_shifted_quadratic_d2():
    spec = _d2_decoupled("(x1 - 0.3)**2 + (x2 + 0.2)**2 + (y1 - 0.3)**2 + (y2 + 0.2)**2")
    g, rep = _report_for(spec, 8)
    t0 = fs.locate_t0(spec, g, rep)
    assert t0 is not None
    assert np.max(np.abs(t0 - [0.3, -0.2])) < 1e-6


def test_locate_t0_mnr_stays_on_the_hint_inside_the_flat_band(mnr):
    # w2(t, t) = 2(1 - cos t) + 2(1 - cos 2t) rounds to exactly 0, its minimum,
    # for |t| below about 5.3e-9; a tie keeps the hint t0 = 0
    band = np.linspace(-5e-9, 5e-9, 201)[:, None]
    assert np.all(fs.model.eval_xy(mnr, mnr.w2, band, band) == 0.0)
    g, rep = _report_for(mnr, 32)
    t0 = fs.locate_t0(mnr, g, rep)
    assert t0.tolist() == [0.0]


def test_locate_t0_double_well_d2_returns_none():
    # four separated near-minimal clusters on the diagonal grid
    spec = _d2_decoupled("(x1**2 - 0.25)**2 + (x2**2 - 0.25)**2"
                         " + (y1**2 - 0.25)**2 + (y2**2 - 0.25)**2")
    g, rep = _report_for(spec, 8)
    assert fs.locate_t0(spec, g, rep) is None


@settings(max_examples=200, deadline=None)
@given(mask=hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=7)))
@example(mask=np.zeros((3, 3), dtype=bool))
@example(mask=np.eye(3, dtype=bool))                       # corner contact only
@example(mask=np.array([[1, 1, 1, 1], [0, 0, 0, 1], [1, 1, 1, 1],
                        [1, 0, 0, 0], [1, 1, 1, 1]], dtype=bool))   # one snake
def test_one_cluster_matches_ndimage_label(mask):
    from scipy import ndimage

    assert _one_cluster(mask) == (ndimage.label(mask)[1] == 1)


def _scipy_t0(f, best, lo, hi):
    """The scipy refinement locate_t0 used before the zoom lattice (the reference)."""
    from scipy import optimize

    def objective(t):
        return float(f(np.atleast_1d(t)[None, :])[0])

    if best.size == 1:
        res = optimize.minimize_scalar(lambda t: objective(np.array([t])),
                                       bounds=(float(lo[0]), float(hi[0])), method="bounded",
                                       options={"xatol": 1e-12})
        return np.array([res.x])
    return np.asarray(optimize.minimize(objective, best, bounds=list(zip(lo, hi)),
                                        method="L-BFGS-B").x)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2]), smooth=st.booleans(),
       floor=st.sampled_from([0.0, 0.1, 1.0, 2.9]),
       c=st.lists(st.floats(-0.8, 0.8), min_size=2, max_size=2),
       curv=st.lists(st.floats(0.2, 5.0), min_size=2, max_size=2),
       quart=st.floats(0.0, 3.0), cross=st.floats(-0.3, 0.3))
def test_zoom_minimize_against_the_scipy_reference(d, smooth, floor, c, curv, quart, cross):
    c, curv = np.array(c[:d]), np.array(curv[:d])
    if smooth:      # positive definite: cross^2 < 0.09 < 4 curv_0 curv_1
        def f(p):
            u = p - c
            q = np.sum(curv * u**2, axis=-1) + quart * np.sum(u**2, axis=-1) ** 2 \
                + 0.1 * np.sin(3.0 * u[..., 0]) ** 2
            return floor + q + (cross * u[..., 0] * u[..., 1] if d == 2 else 0.0)
    else:           # shifted isotropic quadratic
        def f(p):
            return floor + curv[0] * np.sum((p - c) ** 2, axis=-1)
    # the box locate_t0 builds around the nearest diagonal-grid point
    n_fine = 4001 if d == 1 else 101
    spacing = 2.0 / (n_fine - 1)
    axis = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, n_fine)
    best = axis[np.argmin(np.abs(axis[:, None] - c[None, :]), axis=0)]
    lo = np.maximum(best - 4 * spacing, -1.0 + 1e-9)
    hi = np.minimum(best + 4 * spacing, 1.0 - 1e-9)

    t_new = _zoom_minimize(f, best, lo, hi)
    t_ref = _scipy_t0(f, best, lo, hi)
    f_new, f_ref = f(t_new[None, :])[0], f(t_ref[None, :])[0]
    if floor == 0.0:
        # w2 resolves t below the final spacing only with a zero floor, where
        # bounded Brent's parabolic steps can land closer than ZOOM_TOL; the
        # lattice is then short by at most the curvature (< curv + 1) times ZOOM_TOL^2
        assert f_new <= f_ref + (np.max(curv) + 1.0) * ZOOM_TOL**2
    else:
        assert f_new <= f_ref
    # L-BFGS-B (d = 2) stops on its decrease and gradient tests as far as
    # about 1e-5 from c, even on isotropic quadratics, so there t_new is held
    # to c itself, and to an objective no worse than the reference's
    assert np.max(np.abs(t_new - c)) <= 1e-6
    if d == 1:
        assert np.max(np.abs(t_new - t_ref)) <= 1e-6


def test_d3_is_refused_before_w2_is_sampled(monkeypatch):
    # at d = 3 locate_t0's 31^(2d) pair lattice alone would be a 29791^2 array
    spec = dataclasses.replace(fs.load_model("sigma2-empty"), d=3, t0=np.zeros(3))
    g = fs.make_grid(3, spec.a, 2)
    monkeypatch.setattr(fs.finiteness, "eval_xy", lambda *args: pytest.fail("w2 sampled"))
    with pytest.raises(ValueError, match="d <= 2"):
        fs.locate_t0(spec, g, None)
    with pytest.raises(ValueError, match="d <= 2"):
        fs.estimate_exponents(spec, g, None, np.zeros(3))


def test_locate_t0_double_well_returns_none():
    spec = make_decoupled(lambda x: 1.0 + 0.0 * x,
                          lambda x, y: (x**2 - 0.25) ** 2 + (y**2 - 0.25) ** 2)
    g, rep = _report_for(spec)
    assert fs.locate_t0(spec, g, rep) is None


def test_locate_t0_offdiagonal_returns_none():
    spec = make_decoupled(lambda x: 1.0 + 0.0 * x,
                          lambda x, y: ((x - y) ** 2 - 0.25) ** 2)
    g, rep = _report_for(spec)
    assert fs.locate_t0(spec, g, rep) is None


def test_estimate_exponents_synthetic_211():
    spec = synthetic_power_model(beta=1.0, gamma=1.0)
    g, rep = _report_for(spec, 32)
    t0 = fs.locate_t0(spec, g, rep)
    est = fs.estimate_exponents(spec, g, rep, t0)
    assert abs(est.alpha_hat - 2.0) < 0.1
    assert abs(est.beta_hat - 1.0) < 0.1
    assert est.gamma_hat is not None and abs(est.gamma_hat - 1.0) < 0.1
    assert min(est.fit_r2) >= 0.9


def test_estimate_beta_sentinel_for_vanishing_coupling():
    spec = make_decoupled(lambda x: 1.0 + 0.0 * x, lambda x, y: 1.0 + x**2 + y**2)
    g, rep = _report_for(spec)
    t0 = fs.locate_t0(spec, g, rep)
    est = fs.estimate_exponents(spec, g, rep, t0)
    assert est.beta_hat == math.inf


def test_estimate_exponents_mnr(mnr):
    g, rep = _report_for(mnr, 32)
    t0 = fs.locate_t0(mnr, g, rep)
    est = fs.estimate_exponents(mnr, g, rep, t0)
    assert abs(est.alpha_hat - 2.0) < 0.1
    assert abs(est.beta_hat - 1.0) < 0.1
    # the critical symbol vanishes linearly at the origin (plus a quadratic
    # tail over the shell range), so the measured slope sits in (1, 2)
    assert est.gamma_hat is not None and 1.0 < est.gamma_hat < 2.0
    assert est.fit_r2[2] >= 0.9


def test_alpha_scale_equivariance():
    spec1 = make_decoupled(lambda x: 1.0 + 0.0 * x, lambda x, y: x**2 + y**2)
    spec3 = make_decoupled(lambda x: 1.0 + 0.0 * x, lambda x, y: 3.0 * (x**2 + y**2))
    ests = []
    for spec in (spec1, spec3):
        g, rep = _report_for(spec)
        t0 = fs.locate_t0(spec, g, rep)
        ests.append(fs.estimate_exponents(spec, g, rep, t0))
    assert abs(ests[0].alpha_hat - ests[1].alpha_hat) < 1e-6


def _doctored(est, beta):
    return fs.ExponentEstimate(
        t0=est.t0, alpha_hat=est.alpha_hat, beta_hat=beta, gamma_hat=est.gamma_hat,
        fit_r2=(1.0, 1.0, 1.0), delta_radius=est.delta_radius, e_star=est.e_star,
        shells=est.shells)


def test_verdict_monotone_in_beta():
    spec = synthetic_power_model(beta=2.0, gamma=1.0)
    g, rep = _report_for(spec, 24)
    t0 = fs.locate_t0(spec, g, rep)
    est = fs.estimate_exponents(spec, g, rep, t0)
    grids = [fs.make_grid(1, spec.a, n) for n in (24, 48, 96)]
    rank = {"criterion-violated": 0, "inconclusive": 1, "finite-predicted": 2}
    last = -1
    for beta in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        rep_fin = fs.finiteness_verdict(spec, grids, rep, _doctored(est, beta))
        assert rank[rep_fin.verdict] >= last
        last = rank[rep_fin.verdict]


def test_verdict_needs_three_levels():
    spec = synthetic_power_model(beta=2.0, gamma=1.0)
    g, rep = _report_for(spec, 24)
    t0 = fs.locate_t0(spec, g, rep)
    est = fs.estimate_exponents(spec, g, rep, t0)
    with pytest.raises(ValueError):
        fs.finiteness_verdict(spec, [g, g], rep, est)


def test_integral_test_agreement_leg():
    spec = synthetic_power_model(beta=2.0, gamma=1.0)
    g, rep = _report_for(spec, 24)
    t0 = fs.locate_t0(spec, g, rep)
    est = fs.estimate_exponents(spec, g, rep, t0)
    grids = [fs.make_grid(1, spec.a, n) for n in (24, 48, 96)]
    for beta in (0.0, 1.0, 2.0):
        rep_fin = fs.finiteness_verdict(spec, grids, rep, _doctored(est, beta))
        assert rep_fin.integral_test_agrees


def test_verdict_mnr_not_finite_predicted(mnr):
    g, rep = _report_for(mnr, 32)
    t0 = fs.locate_t0(mnr, g, rep)
    est = fs.estimate_exponents(mnr, g, rep, t0)
    grids = [fs.make_grid(1, mnr.a, n) for n in (16, 32, 64)]
    rep_fin = fs.finiteness_verdict(mnr, grids, rep, est)
    assert rep_fin.verdict != "finite-predicted"


def test_verdict_streams_the_hs_trend_on_refined_grids(s2e, monkeypatch):
    g, rep = _report_for(s2e, 16)
    est = fs.estimate_exponents(s2e, g, rep, fs.locate_t0(s2e, g, rep))
    grids = [fs.make_grid(1, s2e.a, n) for n in (16, 32, 64)]
    dense = [np.linalg.norm(fs.bs_operator(s2e, gk, est.e_star)) for gk in grids]
    sampled, bs_calls = [], []
    cached = fs.model._mesh_samples_cached
    monkeypatch.setattr(fs.model, "_mesh_samples_cached",
                        lambda spec, grid: sampled.append(grid) or cached(spec, grid))
    for mod in (fs.schur, fs.finiteness):
        monkeypatch.setattr(mod, "bs_operator",
                            lambda *args: bs_calls.append(args) or fs.bs_operator(*args),
                            raising=False)
    report = fs.finiteness_verdict(s2e, grids, rep, est)
    assert not [gk for gk in sampled if any(gk is r for r in grids)]
    assert bs_calls == []
    assert [n for n, _ in report.hs_trend] == [16, 32, 64]
    assert [h for _, h in report.hs_trend] == pytest.approx(dense, rel=1e-12, abs=0)


def test_estimate_exponents_independent_of_block_size(monkeypatch):
    spec = synthetic_power_model(beta=1.0, gamma=1.0)
    g, rep = _report_for(spec, 24)
    t0 = fs.locate_t0(spec, g, rep)
    whole = fs.estimate_exponents(spec, g, rep, t0)
    monkeypatch.setattr(fs.blocks, "BLOCK_ELEMENTS", 1)       # one row per block
    rowwise = fs.estimate_exponents(spec, g, rep, t0)
    assert rowwise.shells == whole.shells
    assert (rowwise.alpha_hat, rowwise.beta_hat, rowwise.gamma_hat) == \
        (whole.alpha_hat, whole.beta_hat, whole.gamma_hat)
