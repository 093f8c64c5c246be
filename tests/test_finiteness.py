import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fockspectra as fs
from conftest import make_decoupled
from oracles import synthetic_power_model
from fockspectra.grid import ZOOM_TOL, _zoom_minimize

D2_EMPTY = Path(__file__).resolve().parents[1] / "bench" / "models" / "d2-sigma2-empty.cfg"
D2_BOTH = D2_EMPTY.with_name("d2-sigma2-both.cfg")


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
    # the box locate_t0 builds, one edge-lattice spacing around the start,
    # here the nearest point of the edge search's lattice
    n_axis = 129 if d == 1 else 17
    spacing = 2.0 / (n_axis - 1)
    axis = np.linspace(-1.0, 1.0, n_axis)
    best = axis[np.argmin(np.abs(axis[:, None] - c[None, :]), axis=0)]
    lo = np.maximum(best - spacing, -1.0 + 1e-9)
    hi = np.minimum(best + spacing, 1.0 - 1e-9)

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
    # the shell statistics of estimate_exponents are defined for d <= 2, so
    # locate_t0 refuses d = 3 before it reads the report or samples w2
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


@settings(max_examples=40, deadline=None)
@given(c=st.floats(0.2, 1.0), shift=st.floats(-0.4, 0.4), n=st.sampled_from([8, 16]))
def test_locate_t0_refuses_an_off_diagonal_minimizer(c, shift, n):
    # minimizers at x - y = +-c, x + y = 2 shift: a mirror pair off the diagonal
    spec = make_decoupled(lambda x: 1.0 + 0.0 * x,
                          lambda x, y: ((x - y) ** 2 - c * c) ** 2 + (x + y - 2.0 * shift) ** 2)
    g, rep = _report_for(spec, n)
    assert fs.locate_t0(spec, g, rep) is None


def _wells(d, s, r):
    """w2 with two minimizers (t, t), t_1 = s +- r, when r > 0, and one at t_1 = s when r = 0."""
    if d == 1:
        return make_decoupled(lambda x: 1.0 + 0.0 * x, lambda x, y: (
            ((x - s) ** 2 - r * r) ** 2 + ((y - s) ** 2 - r * r) ** 2))
    return _d2_decoupled(f"((x1 - {s})**2 - {r * r})**2 + ((y1 - {s})**2 - {r * r})**2"
                         f" + (x2 - {s / 2})**2 + (y2 - {s / 2})**2")


# s and r put the wells between the points of the edge lattice (129 or 17
# points on [-1, 1]); a 101^2-point diagonal lattice resolves only one of
# the d=2 wells to within the cluster tolerance.  At d = 2 the last three
# pairs of wells share one start of the edge search: they lie less than two
# of its spacings (0.125) apart, and the first less than one.
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("s, r", [(0.0123, 0.4321), (-0.2718, 0.3141), (0.3333, 0.2222),
                                  (0.0123, 0.0), (-0.2718, 0.0), (0.3333, 0.0),
                                  (0.0, 0.05), (0.0123, 0.08), (-0.2718, 0.1)])
def test_locate_t0_off_lattice_wells(d, s, r):
    spec = _wells(d, s, r)
    g, rep = _report_for(spec, 16 if d == 1 else 8)
    t0 = fs.locate_t0(spec, g, rep)
    if r > 0.0:
        assert t0 is None
    else:
        assert np.max(np.abs(t0 - [s, s / 2][:d])) < 1e-6


def test_locate_t0_on_the_cube_face():
    # the minimizer (1, 1) lies on the closed cube; t0 stays 1e-9 inside it
    spec = make_decoupled(lambda x: 1.0 + 0.0 * x, lambda x, y: (x - 1.0) ** 2 + (y - 1.0) ** 2)
    g, rep = _report_for(spec)
    assert fs.locate_t0(spec, g, rep).tolist() == [1.0 - 1e-9]


@pytest.mark.parametrize("model", ["mnr-infinite", "sigma2-empty", D2_EMPTY, D2_BOTH])
def test_locate_t0_reads_the_edge_search_instead_of_sampling_w2(model):
    # a diagonal and a pair lattice of their own took 646k samples of w2 at
    # d = 1 and 934k at d = 2
    spec = fs.load_model(model)
    g, rep = _report_for(spec, 8)
    samples = []

    def w2(x, y, _f=spec.w2):
        out = np.asarray(_f(x, y))
        samples.append(np.broadcast_shapes(out.shape, np.shape(x)[:-1], np.shape(y)[:-1]))
        return out

    t0 = fs.locate_t0(dataclasses.replace(spec, w2=w2), g, rep)
    assert t0.tolist() == fs.locate_t0(spec, g, rep).tolist()
    assert sum(math.prod(shape) for shape in samples) <= 10**4


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


def test_beta_statistic_samples_v1_once_per_shell_when_v1_ignores_x():
    # v1 = 0.5 |y|^2: every x-row of the beta statistic is the same row
    spec = fs.load_model(D2_EMPTY)
    g, rep = _report_for(spec, 8)
    t0 = fs.locate_t0(spec, g, rep)
    y_points = []

    def v1(x, y, _f=spec.v1):
        y_points.append(np.shape(y)[-2])
        return _f(x, y)

    shared = fs.estimate_exponents(dataclasses.replace(spec, v1=v1), g, rep, t0)
    assert y_points.count(256) == fs.finiteness.N_SHELLS      # 256 shell directions
    # the same v1 sampled at every x gives the same statistic, bit for bit
    full = fs.estimate_exponents(
        dataclasses.replace(spec, v1=lambda x, y, _f=spec.v1: _f(x, y) + 0.0 * x[..., 0]),
        g, rep, t0)
    assert [s[2] for s in shared.shells] == [s[2] for s in full.shells]


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
