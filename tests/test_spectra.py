import dataclasses
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fockspectra as fs
from fockspectra import schur, spectra
from conftest import complex_coupling_model, make_decoupled, pick_z_below, random_trig_model
from oracles import fine_range_guard, negate_model

BENCH_MODELS = Path(__file__).resolve().parents[1] / "bench" / "models"
SHIPPED_MODELS = ["mnr-infinite", "sigma2-empty", "d2-sigma2-empty", "d2-sigma2-both"]


def _shipped_model(name):
    return fs.load_model(name if name in fs.builtin_models() else BENCH_MODELS / f"{name}.cfg")


def test_count_above_examples():
    assert fs.threshold_counts(np.diag([1.0, 2.0, 3.0]), 1.5).above == 2
    assert fs.threshold_counts(np.zeros((4, 4)), 0.0).above == 0


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
    assert fs.threshold_counts(A, lam).above == oracle


def test_count_below_duality_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 25))
        B = rng.standard_normal((n, n))
        A = 0.5 * (B + B.T)
        z = float(rng.normal())
        ev = np.linalg.eigvalsh(A)
        assert fs.threshold_counts(A, z).below == int(np.sum(ev < z - 1e-10))


def test_count_below_mnr_sort_oracle(mnr):
    g = fs.make_grid(1, mnr.a, 16)
    pg = fs.make_pair_grid(g)
    A = fs.assemble_A(fs.assemble_blocks(mnr, g, pg))
    ev = np.linalg.eigvalsh(A)
    assert fs.threshold_counts(A, 0.0).below == int(np.sum(ev < -1e-10))


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
    # decoupled at d = 2: Delta = w1 - z with w1 = 1 inside ran w2 = [0, 4]
    decoupled = make_decoupled(lambda x: 1.0, lambda x, y: np.sum(x**2 + y**2, axis=-1), d=2)
    for spec, n in ((s2e, 32), (s2e, 64), (decoupled, 6), (decoupled, 12)):
        g = fs.make_grid(spec.d, spec.a, n)
        ess = fs.essential_spectrum(spec, g)
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
    ev = fs.discrete_spectrum_below(spec, g, fs.essential_spectrum(spec, g).sess_min)
    assert ev.size == 0


def test_discrete_below_small_coupling_stable(s2e):
    # same model with the coupling v1 scaled down to a tenth
    weak = fs.ModelSpec(d=1, a=s2e.a, w0=0.0, v0=s2e.v0, w1=s2e.w1,
                        v1=lambda x, y: 0.1 * np.asarray(s2e.v1(x, y)), w2=s2e.w2)
    counts = []
    for n in (16, 32, 64):
        g = fs.make_grid(1, weak.a, n)
        ess = fs.essential_spectrum(weak, g)
        counts.append(fs.discrete_spectrum_below(weak, g, sess_min=ess.sess_min).size)
    assert counts[0] == counts[1] == counts[2]


def test_discrete_mnr_counts_nondecreasing(mnr_below0_counts):
    c = mnr_below0_counts
    assert c[16] <= c[32] <= c[64]
    assert c[64] > c[16] or c[32] > c[16] or c[64] > c[32]


def test_discrete_above_mirror(mnr):
    g = fs.make_grid(1, mnr.a, 12)
    pg = fs.make_pair_grid(g)
    ess = fs.essential_spectrum(mnr, g)
    above = fs.discrete_spectrum_above(mnr, g, sess_max=ess.sess_max)
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
    ess = fs.essential_spectrum(spec, g)
    neg = fs.essential_spectrum(negate_model(spec), g)
    assert neg.m == -ess.M and neg.M == -ess.m
    assert neg.sess_min == -ess.sess_max and neg.sess_max == -ess.sess_min
    assert _roots_by_value(neg, -1) == _roots_by_value(ess)
    assert len(neg.left_roots) == len(ess.right_roots)
    assert len(neg.right_roots) == len(ess.left_roots)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), negate=st.booleans(),
       tol=st.sampled_from([1e-10, 1e-6, 1e-3]))
def test_sigma2_roots_sit_inside_their_certified_bracket(seed, negate, tol):
    # Delta(x; .) falls on either side of ran w2, so a root r reported to tol
    # has Delta >= 0 at r - tol/2 and Delta <= 0 at r + tol/2 on the
    # inner-refined quadrature the root finder uses (4n nodes at d = 1)
    spec = random_trig_model(np.random.default_rng(seed))
    spec = negate_model(spec) if negate else spec
    g = fs.make_grid(1, spec.a, 12)
    inner = fs.make_grid(1, spec.a, 48)
    # hypothesis rejects function-scoped fixtures such as monkeypatch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "ROOT_TOL", tol)
        ess = fs.essential_spectrum(spec, g)
    for pt, r in ess.sigma2_roots:
        assert fs.delta_at(spec, inner, pt, r - 0.5 * tol) >= 0.0
        assert fs.delta_at(spec, inner, pt, r + 0.5 * tol) <= 0.0


def test_merge_hull_ignores_gaps_below_the_root_tolerance():
    # roots are resolved only to tol: jittering repeated roots by less than
    # tol must not change the intervals
    tol = 1e-10
    roots = np.repeat([1.0, 1.1, 1.2, 1.3, 2.0], 4)
    jitter = np.random.default_rng(0).uniform(0.0, 0.9 * tol, roots.size)
    exact = fs.spectra._merge_hull(roots, tol)
    jittered = fs.spectra._merge_hull(roots + jitter, tol)
    assert len(jittered) == len(exact) == 5
    assert np.allclose(jittered, exact, rtol=0.0, atol=tol)


@pytest.mark.parametrize("case", ["mnr-infinite", "d2"])
def test_essential_spectrum_builds_no_compact_kernel(case, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("essential_spectrum must not build K")

    monkeypatch.setattr(schur, "k_matrix", refuse)
    monkeypatch.setattr(schur, "hs_norm_k", refuse)
    spec = fs.model_from_config(D2_CONFIG) if case == "d2" else fs.load_model(case)
    ess = fs.essential_spectrum(spec, fs.make_grid(spec.d, spec.a, 64 if spec.d == 1 else 8))
    assert ess.sigma2_roots


def test_bs_check_evaluates_delta_and_k_once_per_z(mnr, monkeypatch):
    # one SchurEval per z, whose Delta and K share one pole-checked W2 - z
    calls = {"_pole_check": [], "schur_eval": []}
    for mod, name in ((schur, "_pole_check"), (spectra, "schur_eval")):
        original = getattr(mod, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name].append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    g = fs.make_grid(1, mnr.a, 12)
    pg = fs.make_pair_grid(g)
    zs = (-0.5, -0.25)
    for z in zs:
        assert fs.birman_schwinger_check(mnr, g, pg, z).agree
    W2 = fs.model.mesh_samples(mnr, g).W2
    assert [z for _, z in calls["_pole_check"]] == list(zs)
    assert all(samples is W2 for samples, _ in calls["_pole_check"])
    assert [args[2] for args in calls["schur_eval"]] == list(zs)


def test_discrete_spectrum_forms_w2_minus_z_once_per_z(mnr, monkeypatch):
    # each branch evaluation builds S(z) and dS/dz from one pole-checked W2 - z
    g = fs.make_grid(1, mnr.a, 32)
    ess = fs.essential_spectrum(mnr, g)
    zs = []
    original = schur._pole_check

    def counted(samples, z):
        if samples.shape == (g.n, g.n):
            zs.append(z)
        return original(samples, z)

    monkeypatch.setattr(schur, "_pole_check", counted)
    assert fs.discrete_spectrum_below(mnr, g, ess.sess_min).size > 0
    assert len(zs) > 1
    assert len(zs) == len(set(zs))


def test_branch_roots_releases_each_evaluation_before_the_next():
    # F'(t) and the eigenvectors of the last evaluation are two N x N arrays
    # (85 MB at the d = 2 cap); they must be dead while the next F, F' and
    # eigh are built
    rng = np.random.default_rng(5)
    n, pole = 8, 1.0
    B = rng.standard_normal((n, n))
    M = 0.5 * (B + B.T)
    C = rng.standard_normal((n, 2))
    last = []

    def matrices(t):
        assert not last or last[-1]() is None
        F = M - t * np.eye(n) - C @ C.T / (pole - t)
        dF = -np.eye(n) - C @ C.T / (pole - t) ** 2
        last.append(weakref.ref(dF))
        return F, dF

    roots = spectra._branch_roots(matrices, 0.0, pole)
    assert roots.size > 1 and len(last) > roots.size
    for r in roots:
        assert np.min(np.abs(np.linalg.eigvalsh(matrices(r)[0]))) < 1e-9


def test_bs_sweep_frees_the_coupling_block_before_the_eigensolve(mnr, monkeypatch):
    # the dense (N, P) h12 must not be alive next to A and its eigensolver copy
    g = fs.make_grid(1, mnr.a, 12)
    refs, dims = [], []
    assemble, eigvals = fs.operators.assemble_blocks, spectra.eigvals_hermitian

    def tracked(*args):
        blocks = assemble(*args)
        refs.append(weakref.ref(blocks.h12))
        return blocks

    def solve(matrix):
        if len(matrix) == g.n + g.n * (g.n + 1) // 2:
            dims.append(len(matrix))
            assert refs and refs[-1]() is None
        return eigvals(matrix)

    monkeypatch.setattr(fs.operators, "assemble_blocks", tracked)
    monkeypatch.setattr(spectra, "eigvals_hermitian", solve)
    assert fs.birman_schwinger_check(mnr, g, fs.make_pair_grid(g), -0.5).agree
    assert len(dims) == 1


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), u=st.floats(1e-3, 1.0))
def test_haynsworth_counts_on_both_sides(seed, u):
    # #eig(A) < z = #neg S(z) below min h22, #eig(A) > z = #pos S(z) above max h22
    spec = random_trig_model(np.random.default_rng(seed))
    g = fs.make_grid(1, spec.a, 8)
    blocks = fs.assemble_blocks(spec, g, fs.make_pair_grid(g))
    evA = np.linalg.eigvalsh(fs.assemble_A(blocks))
    lo, hi = float(np.min(blocks.h22)), float(np.max(blocks.h22))
    for z in (lo - u * (hi - lo + 1.0), hi + u * (hi - lo + 1.0)):
        evS = np.linalg.eigvalsh(fs.s_matrix(spec, g, z))
        assume(min(np.min(np.abs(evA - z)), np.min(np.abs(evS))) > 1e-9)
        if z < lo:
            assert np.sum(evA < z) == np.sum(evS < 0.0)
        else:
            assert np.sum(evA > z) == np.sum(evS > 0.0)


D2_CONFIG = """
domain { d = 2  a = 1 }
functions {
  w0 = 0
  v0 = 0
  w1 { expr = "1 + 0.1 * (x1 * x1 + x2 * x2)" }
  v1 { expr = "2.0 * (y1 * y1 + y2 * y2)" }
  w2 { expr = "x1 * x1 + x2 * x2 + y1 * y1 + y2 * y2" }
}
"""


@pytest.mark.parametrize("case", ["mnr-infinite", "sigma2-empty", "complex", "d2"])
def test_schur_inertia_matches_dense_eigenvalues(case):
    spec = {"complex": complex_coupling_model,
            "d2": lambda: fs.model_from_config(D2_CONFIG)}.get(case, lambda: fs.load_model(case))()
    g = fs.make_grid(spec.d, spec.a, 24 if spec.d == 1 else 6)
    ess = fs.essential_spectrum(spec, g)
    below, above = fs.discrete_spectrum(spec, g, ess.sess_min, ess.sess_max)
    ev = np.linalg.eigvalsh(fs.assemble_A(fs.assemble_blocks(spec, g, fs.make_pair_grid(g))))
    dense_below = ev[ev < ess.sess_min - fs.BOUNDARY_BAND]
    dense_above = ev[ev > ess.sess_max + fs.BOUNDARY_BAND]
    assert below.size + above.size > 0
    assert below.size == dense_below.size and above.size == dense_above.size
    assert np.max(np.abs(below - dense_below), initial=0.0) <= 1e-12
    assert np.max(np.abs(above - dense_above), initial=0.0) <= 1e-12


def test_discrete_spectrum_refuses_edges_inside_ran_w2(mnr):
    g = fs.make_grid(1, mnr.a, 12)
    ess = fs.essential_spectrum(mnr, g)
    with pytest.raises(ValueError, match="sess_min"):
        fs.discrete_spectrum(mnr, g, ess.m + 1e-6, ess.sess_max)
    with pytest.raises(ValueError, match="sess_max"):
        fs.discrete_spectrum(mnr, g, ess.sess_min, ess.M - 1e-6)


def _multiwell_trig_model(rng):
    """Random d=1 model whose symmetric w2 has up to three harmonics with phases.

    Its extremes sit off the lattice points and in several wells of nearly
    equal depth, unlike random_trig_model's, which lie at 0 and +-a.
    """
    a = float(rng.uniform(0.8, 3.2))
    k = np.pi / a
    harmonics = int(rng.integers(1, 4))
    amp = rng.uniform(-1.0, 1.0, harmonics)
    phase = rng.uniform(0.0, 2.0 * np.pi, harmonics)
    c, psi = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 2.0 * np.pi))

    def g(x):
        return sum(amp[j] * np.cos((j + 1) * k * x + phase[j]) for j in range(harmonics))

    def w2(x, y):
        return 3.0 + g(x) + g(y) + c * np.cos(k * (x - y) + psi) * np.cos(k * (y - x) + psi)

    return fs.ModelSpec(d=1, a=a, w0=0.0, v0=lambda x: 0.0, w1=lambda x: 1.0,
                        v1=lambda x, y: 0.0, w2=w2)


def _three_harmonic_d2_model(rng):
    """Random d=2 model whose w2 has three phased harmonics per coordinate.

    Its shortest period spans about 5 points of the edge search's 17-point
    lattice, and tens of lattice extremes lie within the curvature band of
    the best one, many of them periodic images of each other at x = -a and a.
    """
    a = float(rng.uniform(0.8, 3.2))
    k = np.pi / a
    amp = rng.uniform(-1.0, 1.0, 3)
    phase = rng.uniform(0.0, 2.0 * np.pi, 3)
    c, psi = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 2.0 * np.pi))

    def g(x):
        return sum(amp[j] * np.cos((j + 1) * k * x + phase[j]) for j in range(3))

    def w2(x, y):
        x1, x2, y1, y2 = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
        return (3.0 + g(x1) + g(y1) + 0.5 * (g(x2) + g(y2))
                + c * np.cos(k * (x1 - y2) + psi) * np.cos(k * (y1 - x2) + psi))

    return fs.ModelSpec(d=2, a=a, w0=0.0, v0=lambda x: 0.0, w1=lambda x: 1.0,
                        v1=lambda x, y: 0.0, w2=w2)


def _assert_edges_contain_the_fine_lattice_range(spec):
    lo, hi, (points, values, _, _) = spectra._w2_edges(spec, spec.a)
    ref_lo, ref_hi = fine_range_guard(spec, spec.a, 2049 if spec.d == 1 else 65)
    slack = 1e-12 * (ref_hi - ref_lo + 1.0)
    assert lo <= ref_lo + slack and hi >= ref_hi - slack, (lo, hi, ref_lo, ref_hi)
    # the first minimizer is the one that gave lo, and w2 there is its value
    assert values[0] == lo == spectra._w2_pairs(spec, points[:1])[0]
    assert np.all(np.diff(values) >= 0.0)


FAMILIES = {"trig": random_trig_model, "multiwell": _multiwell_trig_model,
            "three-harmonic-d2": _three_harmonic_d2_model}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["trig", "multiwell"]))
# the d=2 family's 65^4 reference costs 0.5 s a model, so only seeds whose
# extreme lay beyond the first EDGE_STARTS lattice extremes are drawn
@example(seed=36, family="three-harmonic-d2")
@example(seed=164, family="three-harmonic-d2")
@example(seed=168, family="three-harmonic-d2")
@example(seed=222, family="three-harmonic-d2")
@example(seed=247, family="three-harmonic-d2")
def test_w2_edges_contain_the_fine_lattice_range(seed, family):
    _assert_edges_contain_the_fine_lattice_range(FAMILIES[family](np.random.default_rng(seed)))


@pytest.mark.parametrize("model", SHIPPED_MODELS)
def test_w2_edges_contain_the_fine_lattice_range_on_the_shipped_models(model):
    _assert_edges_contain_the_fine_lattice_range(_shipped_model(model))


@pytest.mark.parametrize("model", [*SHIPPED_MODELS, "multiwell"])
def test_w2_edge_search_sample_budget(model):
    spec = (_multiwell_trig_model(np.random.default_rng(1)) if model == "multiwell"
            else _shipped_model(model))
    samples = []

    def w2(x, y, _f=spec.w2):
        out = np.asarray(_f(x, y))
        samples.append(out.size)
        return out

    lo, hi, _ = spectra._w2_edges(dataclasses.replace(spec, w2=w2), spec.a)
    assert sum(samples) <= (3 * 10**4 if spec.d == 1 else 2 * 10**5)
    assert (lo, hi) == spectra._w2_edges(spec, spec.a)[:2]


def test_w2_edge_search_caps_its_starts_on_an_aliased_w2():
    # a period of 2.1 spacings of the 17-point lattice puts nearly every
    # lattice extreme within the curvature band of the best: uncapped, the
    # search zoomed from 2639 of them and took 21.6M samples of w2
    k = 2.0 * np.pi / (2.1 * 0.125)
    samples = []

    def w2(x, y):
        out = (np.cos(k * x[..., 0]) + np.cos(k * x[..., 1] + 0.3)
               + np.cos(k * y[..., 0]) + np.cos(k * y[..., 1] + 0.3))
        samples.append(out.size)
        return out

    spec = fs.ModelSpec(d=2, a=1.0, w0=0.0, v0=lambda x: 0.0, w1=lambda x: 1.0,
                        v1=lambda x, y: 0.0, w2=w2)
    lo, hi, minima = spectra._w2_edges(spec, spec.a)
    assert len(minima.values) == spectra.EDGE_STARTS_MAX
    assert sum(samples) <= 5 * 10**5
    assert abs(lo + 4.0) < 1e-9 and abs(hi - 4.0) < 1e-9


def test_w2_edges_skip_nan_samples_on_the_cube_boundary():
    # w2 is NaN at x = +-1, where log(1 - x^2) is -inf: no quadrature node
    # lies there, and the edge search ignores those samples
    spec = make_decoupled(lambda x: 1.0,
                          lambda x, y: 2.0 + x * x + y * y + 0.0 * np.log(1.0 - x * x))
    with np.errstate(divide="ignore", invalid="ignore"):
        lo, hi, _ = spectra._w2_edges(spec, 1.0)
        ess = fs.essential_spectrum(spec, fs.make_grid(1, 1.0, 16))
    assert lo == 2.0 and 4.0 - 1e-9 < hi < 4.0
    assert len(ess.left_roots) == 16


def _permuted(grid, perm):
    return fs.Grid(d=grid.d, a=grid.a, rule=grid.rule, n_per_dim=grid.n_per_dim,
                   nodes=grid.nodes[perm], weights=grid.weights[perm])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), negate=st.booleans(), d2=st.booleans())
def test_results_are_invariant_under_node_permutation(seed, negate, d2):
    # each Sigma_2 root depends only on its own node and on the inner grid,
    # which essential_spectrum builds unpermuted; the range and asymmetry of
    # w2 are extremes over the same unordered pairs; only the norms sum in
    # another order
    rng = np.random.default_rng(seed)
    spec = _shipped_model("d2-sigma2-both") if d2 else random_trig_model(rng)
    spec = negate_model(spec) if negate else spec
    g = fs.make_grid(spec.d, spec.a, 6 if d2 else 12)
    p = _permuted(g, rng.permutation(g.n))
    chk, chk_p = fs.check_assumption_a(spec, g), fs.check_assumption_a(spec, p)
    assert (chk_p.w2_min, chk_p.w2_max, chk_p.w2_asymmetry) == \
        (chk.w2_min, chk.w2_max, chk.w2_asymmetry)
    assert chk_p.sup_norm_2pe == pytest.approx(chk.sup_norm_2pe, rel=1e-12, abs=0)
    assert chk_p.sup_norm_2p4e == pytest.approx(chk.sup_norm_2p4e, rel=1e-12, abs=0)
    ess, ess_p = fs.essential_spectrum(spec, g), fs.essential_spectrum(spec, p)
    assert _roots_by_value(ess_p) == _roots_by_value(ess)
    assert ess_p.sigma2_hull == ess.sigma2_hull
    assert (ess_p.sess_min, ess_p.sess_max) == (ess.sess_min, ess.sess_max)
