import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fockspectra as fs
from fockspectra import schur
from conftest import make_decoupled, pick_z_below, random_trig_model


def test_count_above_examples():
    assert fs.count_above(np.diag([1.0, 2.0, 3.0]), 1.5) == 2
    assert fs.count_above(np.zeros((4, 4)), 0.0) == 0


def test_count_boundary_band():
    tc = fs.threshold_counts(np.diag([1.0, 1.0 + 5e-11, 2.0]), 1.0)
    assert tc.boundary == 2 and tc.above == 1 and tc.below == 0


def test_count_against_sort_oracle():
    rng = np.random.default_rng(17)
    B = rng.standard_normal((50, 50))
    A = 0.5 * (B + B.T)
    ev = np.sort(np.linalg.eigvalsh(A))
    lam = float(np.median(ev))
    oracle = int(np.sum(ev > lam + 1e-10))
    assert fs.count_above(A, lam) == oracle


def test_count_below_duality_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 25))
        B = rng.standard_normal((n, n))
        A = 0.5 * (B + B.T)
        z = float(rng.normal())
        ev = np.linalg.eigvalsh(A)
        assert fs.count_below(A, z) == int(np.sum(ev < z - 1e-10))


def test_count_below_mnr_sort_oracle(mnr):
    g = fs.make_grid(1, mnr.a, 16)
    pg = fs.make_pair_grid(g)
    A = fs.assemble_A(fs.assemble_blocks(mnr, g, pg))
    ev = np.linalg.eigvalsh(A)
    assert fs.count_below(A, 0.0) == int(np.sum(ev < -1e-10))


def test_essential_spectrum_decoupled():
    spec = make_decoupled(lambda x: x, lambda x, y: 5.0 + 0 * x * y)
    g = fs.make_grid(1, 1.0, 32)
    ess = fs.essential_spectrum(spec, g)
    assert ess.m == 5.0 and ess.M == 5.0
    roots = np.sort([z for _, z in ess.sigma2_roots])
    assert roots.size == 32
    assert np.max(np.abs(roots - g.nodes[:, 0])) < 1e-9
    # uniform roots merge into a single interval approximating [-1, 1]
    assert len(ess.sigma2_hull) == 1
    lo, hi = ess.sigma2_hull[0]
    assert abs(lo - g.nodes[0, 0]) < 1e-9 and abs(hi - g.nodes[-1, 0]) < 1e-9
    assert abs(ess.sess_min - g.nodes[0, 0]) < 1e-9
    assert ess.sess_max == 5.0


def test_essential_spectrum_sigma2_empty(s2e):
    for n in (32, 64):
        g = fs.make_grid(1, s2e.a, n)
        ess = fs.essential_spectrum(s2e, g)
        assert ess.sigma2_roots == []
        assert ess.sess_min == ess.m and ess.sess_max == ess.M


def test_essential_spectrum_mnr(mnr):
    g = fs.make_grid(1, mnr.a, 64)
    ess = fs.essential_spectrum(mnr, g)
    # dense-sampling oracle for the range of w2 (analytic: [0, 6.25])
    t = np.linspace(-mnr.a, mnr.a, 1001)
    W = np.asarray(mnr.w2(t[:, None], t[None, :]))
    assert 0.0 <= ess.m <= 0.01
    assert abs(ess.M - W.max()) < 0.02
    assert abs(W.max() - 6.25) < 1e-4
    # a genuine Sigma_2 bulge sits above M; it is stable under refinement
    assert len(ess.right_roots) > 0
    assert ess.sess_max > ess.M
    g2 = fs.make_grid(1, mnr.a, 32)
    ess2 = fs.essential_spectrum(mnr, g2)
    assert abs(ess2.sess_max - ess.sess_max) < 5e-3


def test_essential_spectrum_window_validation(mnr):
    g = fs.make_grid(1, mnr.a, 16)
    with pytest.raises(ValueError):
        fs.essential_spectrum(mnr, g, z_lo=1.0)
    with pytest.raises(ValueError):
        fs.essential_spectrum(mnr, g, z_hi=2.0)


def test_essential_spectrum_gauss_legendre(s2e):
    # root detection uses its own inner midpoint quadrature, so the analysis
    # grid may be Gauss-Legendre
    g = fs.make_grid(1, s2e.a, 32, "gauss-legendre")
    ess = fs.essential_spectrum(s2e, g)
    assert ess.sigma2_roots == []
    assert 0.0 <= ess.m < 0.1 and 4.7 < ess.M <= 4.8


def test_monotone_root_structure(mnr):
    # at most one root per node and side
    g = fs.make_grid(1, mnr.a, 64)
    ess = fs.essential_spectrum(mnr, g)
    for side_roots in (ess.left_roots, ess.right_roots):
        nodes = [tuple(pt) for pt, _ in side_roots]
        assert len(nodes) == len(set(nodes))


def test_discrete_below_trivial_gap():
    spec = make_decoupled(lambda x: 1.0 + 0.0 * x, lambda x, y: 0.0 * x * y)
    g = fs.make_grid(1, 1.0, 8)
    pg = fs.make_pair_grid(g)
    ev = fs.discrete_spectrum_below(spec, g, pg)
    assert ev.size == 0


def test_discrete_below_small_coupling_stable(s2e):
    # same model with the coupling v1 scaled down to a tenth
    weak = fs.ModelSpec(d=1, a=s2e.a, w0=0.0, v0=s2e.v0, w1=s2e.w1,
                        v1=lambda x, y: 0.1 * np.asarray(s2e.v1(x, y)), w2=s2e.w2)
    counts = []
    for n in (16, 32, 64):
        g = fs.make_grid(1, weak.a, n)
        pg = fs.make_pair_grid(g)
        ess = fs.essential_spectrum(weak, g)
        counts.append(fs.discrete_spectrum_below(weak, g, pg, sess_min=ess.sess_min).size)
    assert counts[0] == counts[1] == counts[2]


def test_discrete_mnr_counts_nondecreasing(mnr_below0_counts):
    c = mnr_below0_counts
    assert c[16] <= c[32] <= c[64]
    assert c[64] > c[16] or c[32] > c[16] or c[64] > c[32]


def test_discrete_above_mirror(mnr):
    g = fs.make_grid(1, mnr.a, 12)
    pg = fs.make_pair_grid(g)
    ess = fs.essential_spectrum(mnr, g)
    above = fs.discrete_spectrum_above(mnr, g, pg, sess_max=ess.sess_max)
    A = fs.assemble_A(fs.assemble_blocks(mnr, g, pg))
    ev = np.linalg.eigvalsh(A)
    assert above.size == int(np.sum(ev > ess.sess_max + 1e-10))


def test_bs_check_decoupled():
    # with zero coupling the symbol is w1 - z, which must stay positive for
    # the check to be defined, so both counts are necessarily zero and the
    # count_A formula #{w1(x_i) < z} can only be exercised in that regime
    spec = make_decoupled(lambda x: x, lambda x, y: 5.0 + 0 * x * y)
    g = fs.make_grid(1, 1.0, 16)
    pg = fs.make_pair_grid(g)
    z = -1.25
    res = fs.birman_schwinger_check(spec, g, pg, z)
    assert res.count_T == 0
    assert res.count_A == int(np.sum(g.nodes[:, 0] < z)) == 0
    assert res.count_S == res.count_A
    assert res.agree == (res.count_A == res.count_S == res.count_T)
    with pytest.raises(ValueError, match="not strictly below"):
        fs.birman_schwinger_check(spec, g, pg, -0.5141)


def test_bs_check_mnr(mnr):
    g = fs.make_grid(1, mnr.a, 32)
    pg = fs.make_pair_grid(g)
    res = fs.birman_schwinger_check(mnr, g, pg, -0.25)
    assert res.agree and res.boundary == 0
    res2 = fs.birman_schwinger_check(mnr, g, pg, -0.01)
    assert res2.agree
    assert res2.count_A == 1


def test_bs_check_random_models_smoke():
    rng = np.random.default_rng(31)
    for _ in range(5):
        spec = random_trig_model(rng)
        g = fs.make_grid(1, spec.a, 16)
        pg = fs.make_pair_grid(g)
        z, _ = pick_z_below(spec, g, pg, rng)
        res = fs.birman_schwinger_check(spec, g, pg, z)
        assert res.agree, (res, z)


def test_frobenius_schur_inertia_leg():
    # negative inertia of A - z equals that of diag(S(z), h22 - z)
    rng = np.random.default_rng(37)
    for _ in range(8):
        spec = random_trig_model(rng)
        g = fs.make_grid(1, spec.a, 10)
        pg = fs.make_pair_grid(g)
        z, _ = pick_z_below(spec, g, pg, rng)
        blocks = fs.assemble_blocks(spec, g, pg)
        A = fs.assemble_A(blocks)
        neg_A = int(np.sum(np.linalg.eigvalsh(A - z * np.eye(A.shape[0])) < 0))
        S = fs.s_matrix(spec, g, z)
        neg_S = int(np.sum(np.linalg.eigvalsh(S) < 0))
        neg_h22 = int(np.sum(blocks.h22 - z < 0))
        assert neg_A == neg_S + neg_h22


def _roots_by_value(ess, sign=1):
    return sorted((sign * z, tuple(pt)) for pt, z in ess.sigma2_roots)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_negation_mirrors_essential_spectrum_exactly(seed):
    # the random models typically have roots below m only, so their
    # negations have roots above M: both sides of the root finder are used
    spec = random_trig_model(np.random.default_rng(seed))
    g = fs.make_grid(1, spec.a, 12)
    ess = fs.essential_spectrum(spec, g, inner_refine=2, guard_samples=257)
    neg = fs.essential_spectrum(fs.negate_model(spec), g, inner_refine=2, guard_samples=257)
    assert neg.m == -ess.M and neg.M == -ess.m
    assert neg.sess_min == -ess.sess_max and neg.sess_max == -ess.sess_min
    assert _roots_by_value(neg, -1) == _roots_by_value(ess)
    assert len(neg.left_roots) == len(ess.right_roots)
    assert len(neg.right_roots) == len(ess.left_roots)


def test_narrow_window_cutting_a_root_raises_on_each_side(mnr):
    # mnr-infinite has roots above M only; its negation has them below m
    g = fs.make_grid(1, mnr.a, 16)
    ess = fs.essential_spectrum(mnr, g)
    assert ess.right_roots and not ess.left_roots
    with pytest.raises(RuntimeError, match="above z_hi"):
        fs.essential_spectrum(mnr, g, z_hi=0.5 * (ess.M + ess.sess_max))
    neg = fs.negate_model(mnr)
    ess_n = fs.essential_spectrum(neg, g)
    assert ess_n.left_roots
    with pytest.raises(RuntimeError, match="below z_lo"):
        fs.essential_spectrum(neg, g, z_lo=0.5 * (ess_n.sess_min + ess_n.m))


def test_bs_check_evaluates_delta_and_k_once_per_z(mnr, monkeypatch):
    calls = {"delta_values": 0, "k_matrix": 0}
    for name in calls:
        original = getattr(schur, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(schur, name, counted)
    g = fs.make_grid(1, mnr.a, 12)
    pg = fs.make_pair_grid(g)
    for z in (-0.5, -0.25):
        assert fs.birman_schwinger_check(mnr, g, pg, z).agree
    assert calls == {"delta_values": 2, "k_matrix": 2}
