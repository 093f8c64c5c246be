
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fockspectra as fs
from fockspectra import blocks, schur
from conftest import complex_coupling_model, make_decoupled, random_trig_model, simpson
from oracles import hs_bound_young, pole_check_reference


def test_delta_decoupled_is_affine():
    spec = make_decoupled(lambda x: 0.0 * x, lambda x, y: 1.0 + 0 * x * y)
    g = fs.make_grid(1, 1.0, 8)
    assert fs.delta_at(spec, g, 0.3, -1.0) == 1.0
    assert np.allclose(fs.delta_values(spec, g, -1.0), 1.0)


def test_delta_sigma2_empty_vanishes_at_edges(s2e):
    g = fs.make_grid(1, s2e.a, 64)
    for z in (0.0, 4.8):
        vals = [fs.delta_at(s2e, g, x, z) for x in g.nodes[:, 0]]
        assert max(abs(v) for v in vals) <= 1e-3


def test_delta_mnr_simpson_oracle(mnr):
    # the integrand is an analytic periodic function, so the grid quadrature
    # is spectrally accurate and must agree with a 10^6-node Simpson oracle
    g = fs.make_grid(1, mnr.a, 64)
    x0, z = 1.0, -1.0
    y = np.linspace(-mnr.a, mnr.a, 1_000_001)
    h = y[1] - y[0]
    integrand = np.abs(np.asarray(mnr.v1(x0, y))) ** 2 / (np.asarray(mnr.w2(x0, y)) - z)
    oracle = float(np.asarray(mnr.w1(np.array(x0)))) - z - 0.5 * simpson(integrand, h)
    val = fs.delta_at(mnr, g, x0, z)
    assert abs(val - oracle) <= 1e-6 * abs(oracle)


def _slope(spec, grid, x, z):
    return float(fs.delta_at_points(spec, grid, [x], z, slope=True)[1][0])


def test_delta_derivative_decoupled_exact():
    spec = make_decoupled(lambda x: x, lambda x, y: 1.0 + 0 * x * y)
    g = fs.make_grid(1, 1.0, 8)
    assert _slope(spec, g, 0.2, -1.0) == -1.0


def test_delta_derivative_le_minus_one(mnr):
    g = fs.make_grid(1, mnr.a, 32)
    rng = np.random.default_rng(4)
    for _ in range(30):
        x = float(rng.uniform(-mnr.a, mnr.a))
        z = float(rng.uniform(-5.0, -0.1))
        assert _slope(mnr, g, x, z) <= -1.0


def test_delta_derivative_matches_finite_difference(mnr):
    g = fs.make_grid(1, mnr.a, 64)
    x, z, h = 1.0, -1.0, 1e-6
    fd = (fs.delta_at(mnr, g, x, z + h) - fs.delta_at(mnr, g, x, z - h)) / (2 * h)
    an = _slope(mnr, g, x, z)
    assert abs(fd - an) <= 1e-6 * abs(an)


def test_delta_strictly_decreasing_chains(mnr):
    g = fs.make_grid(1, mnr.a, 32)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = float(rng.uniform(-mnr.a, mnr.a))
        zs = np.sort(rng.uniform(-6.0, -0.05, 5))
        vals = [fs.delta_at(mnr, g, x, z) for z in zs]
        assert all(vals[k] > vals[k + 1] for k in range(len(vals) - 1))


def test_k_matrix_zero_coupling():
    spec = make_decoupled(lambda x: x, lambda x, y: 1.0 + 0 * x * y)
    g = fs.make_grid(1, 1.0, 8)
    K = fs.k_matrix(spec, g, -1.0)
    assert np.all(K == 0.0)
    assert fs.hs_norm_k(spec, g, -1.0) == 0.0


def test_k_matrix_real_symmetric_formula():
    spec = fs.ModelSpec(d=1, a=1.0, w0=0.0, v0=lambda x: 0.0 * x,
                        w1=lambda x: 0.0 * x,
                        v1=lambda x, y: np.cos(x) * np.cos(y),
                        w2=lambda x, y: 2.0 + 0 * x * y)
    g = fs.make_grid(1, 1.0, 6)
    K = fs.k_matrix(spec, g, -1.0)
    x = g.nodes[:, 0]
    V = np.cos(x)[:, None] * np.cos(x)[None, :]
    sw = np.sqrt(g.weights)
    expected = sw[:, None] * (-0.5 * V**2 / 3.0) * sw[None, :]
    assert np.allclose(K, expected, atol=1e-15)
    assert np.allclose(K, K.T, atol=0)


def test_k_hermitian(mnr):
    g = fs.make_grid(1, mnr.a, 32)
    K = fs.k_matrix(mnr, g, -1.0)
    assert np.max(np.abs(K - K.conj().T)) <= 1e-14


def test_hs_norm_refinement(mnr):
    g32 = fs.make_grid(1, mnr.a, 32)
    g64 = fs.make_grid(1, mnr.a, 64)
    h1 = fs.hs_norm_k(mnr, g32, -1.0)
    h2 = fs.hs_norm_k(mnr, g64, -1.0)
    assert abs(h1 - h2) <= 1e-3


def test_scaling_covariance(mnr):
    # doubling v1 scales K by exactly 4 (bitwise, since 2.0 is a power of two)
    scaled = fs.ModelSpec(d=1, a=mnr.a, w0=mnr.w0, v0=mnr.v0, w1=mnr.w1,
                          v1=lambda x, y: 2.0 * np.asarray(mnr.v1(x, y)),
                          w2=mnr.w2)
    g = fs.make_grid(1, mnr.a, 16)
    K1 = fs.k_matrix(mnr, g, -0.7)
    K2 = fs.k_matrix(scaled, g, -0.7)
    assert np.array_equal(K2, 4.0 * K1)
    # the integral part of the symbol scales the same way, so the sign
    # pattern of Delta - (w1 - z) is unchanged
    z = -0.7
    d1 = fs.delta_values(mnr, g, z) - (fs.model.mesh_samples(mnr, g).w1 - z)
    d2 = fs.delta_values(scaled, g, z) - (fs.model.mesh_samples(scaled, g).w1 - z)
    assert np.allclose(d2, 4.0 * d1, rtol=1e-13, atol=0)
    assert np.array_equal(np.sign(d1), np.sign(d2))


def test_t_matrix_hermitian(mnr):
    g = fs.make_grid(1, mnr.a, 32)
    T = fs.bs_operator(mnr, g, -0.4)
    assert np.max(np.abs(T - T.conj().T)) <= 1e-14


def test_hs_young_bound(mnr):
    g = fs.make_grid(1, mnr.a, 32)
    for z in (-0.5, -1.0, -3.0, 7.5):
        assert fs.hs_norm_k(mnr, g, z) <= hs_bound_young(mnr, g, z)
    rng = np.random.default_rng(21)
    for _ in range(5):
        spec = random_trig_model(rng)
        gg = fs.make_grid(1, spec.a, 16)
        ms = fs.model.mesh_samples(spec, gg)
        z = float(np.min(ms.W2)) - 1.0
        assert fs.hs_norm_k(spec, gg, z) <= hs_bound_young(spec, gg, z)


def test_bs_operator_zero_coupling():
    spec = make_decoupled(lambda x: 1.0 + 0.0 * x, lambda x, y: 1.0 + 0 * x * y)
    g = fs.make_grid(1, 1.0, 8)
    T = fs.bs_operator(spec, g, -1.0)
    assert np.all(T == 0.0)
    assert np.linalg.norm(T) == 0.0


def test_bs_counts_cross_check(mnr):
    # largest eigenvalue of T exceeds 1 exactly when A has an eigenvalue below z
    g = fs.make_grid(1, mnr.a, 32)
    A = fs.assemble_A(fs.assemble_blocks(mnr, g))
    evA = np.linalg.eigvalsh(A)
    for z in (-0.5, -0.01):
        top = np.linalg.eigvalsh(fs.bs_operator(mnr, g, z))[-1]
        assert (top > 1.0) == bool(np.any(evA < z))


def test_bs_sigma2_empty_below_bottom(s2e):
    g = fs.make_grid(1, s2e.a, 32)
    z = -1.0
    dv = fs.delta_values(s2e, g, z)
    assert np.min(dv) > 0.0
    fs.bs_operator(s2e, g, z)   # must not raise


def test_bs_raises_inside_spectrum(mnr):
    g = fs.make_grid(1, mnr.a, 32)
    with pytest.raises(ValueError, match="not strictly below"):
        fs.bs_operator(mnr, g, 0.5)


def test_schur_eval_bundle(mnr):
    g = fs.make_grid(1, mnr.a, 16)
    delta, K = fs.schur_eval(mnr, g, -0.8)
    assert np.array_equal(K, fs.k_matrix(mnr, g, -0.8))
    assert np.array_equal(delta, fs.delta_values(mnr, g, -0.8))
    assert fs.hs_norm_k(mnr, g, -0.8) == np.linalg.norm(K)
    S = fs.s_matrix(mnr, g, -0.8)
    assert np.allclose(S, np.diag(delta) + K, atol=0)


def test_pole_proximity_error(mnr):
    g = fs.make_grid(1, mnr.a, 16)
    ms = fs.model.mesh_samples(mnr, g)
    z_exact = float(ms.W2[3, 7])
    with pytest.raises(fs.PoleProximityError):
        fs.delta_values(mnr, g, z_exact)
    with pytest.raises(fs.PoleProximityError):
        fs.k_matrix(mnr, g, z_exact)


def _pole_outcome(check, W, z):
    try:
        return check(W, z)
    except fs.PoleProximityError as exc:
        return exc


def test_pole_check_equals_the_abs_min_reference():
    # the reductions-only check returns the same bits, or raises the same
    # error with the same dist, as the full min |W - z|
    W = np.random.default_rng(11).uniform(1.0, 3.0, (5, 7))
    lo, hi, near = float(W.min()), float(W.max()), float(W[2, 3])
    with_nan = W.copy()
    with_nan[4, 1] = np.nan
    cases = {
        "below": (W, lo - 0.5), "above": (W, hi + 0.5), "inside": (W, 0.5 * (lo + hi)),
        "near": (W, near + 3e-13), "on": (W, near), "just below": (W, lo - 4e-13),
        "just above": (W, hi + 4e-13), "band edge": (W, lo - schur.POLE_TOL),
        "rows": (W, np.linspace(lo - 1.0, hi + 1.0, 5)[:, None]),
        "nan below": (with_nan, lo - 0.5), "nan inside": (with_nan, 0.5 * (lo + hi)),
        "nan near": (with_nan, near + 3e-13),
    }
    raised = set()
    for name, (samples, z) in cases.items():
        got = _pole_outcome(schur._pole_check, samples, z)
        want = _pole_outcome(pole_check_reference, samples, z)
        assert type(got) is type(want), name
        if isinstance(want, fs.PoleProximityError):
            raised.add(name)
            assert (str(got), got.dist) == (str(want), want.dist), name
            assert np.array_equal(got.z, want.z), name
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert {"near", "on", "just below", "just above"} <= raised
    assert not raised & {"below", "above", "inside", "rows", "nan below", "nan inside", "nan near"}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), above=st.booleans(), gap=st.floats(0.05, 2.0))
def test_s_eigenvalues_fall_at_least_as_fast_as_z(seed, above, gap):
    # the slope bound that certifies discrete's branch brackets: every sorted
    # eigenvalue of S(z) falls with slope <= -1 on either side of ran w2, so
    # a central difference of eigvalsh(s_matrix) is <= -1 up to the rounding
    # of the eigenvalues
    spec = random_trig_model(np.random.default_rng(seed))
    g = fs.make_grid(1, spec.a, 12)
    W2 = fs.model.mesh_samples(spec, g).W2
    z = W2.max() + gap if above else W2.min() - gap
    h = 1e-3
    lo, hi = (np.linalg.eigvalsh(fs.s_matrix(spec, g, z + dz)) for dz in (-h, h))
    rounding = 64 * np.finfo(float).eps * max(np.max(np.abs(lo)), np.max(np.abs(hi))) / h
    assert np.max((hi - lo) / (2 * h)) <= -1.0 + rounding


@pytest.mark.parametrize("case", ["mnr-infinite", "complex", "d2-sigma2-both"])
def test_s_matrix_derivative_is_the_block_formula(case):
    # dS/dz = -I - B (h22 - z)^{-2} B* <= -I, with B = h12 and h22 from
    # assemble_blocks, below m and above M (where every w2 - z is negative):
    # a central difference of s_matrix matches it
    spec = _hs_case(case)
    g = fs.make_grid(spec.d, spec.a, 16 if spec.d == 1 else 6)
    blk = fs.assemble_blocks(spec, g)
    for z in (blk.h22.min() - 0.5, blk.h22.max() + 0.7):
        B = blk.h12
        want = -np.eye(g.n) - (B / (blk.h22 - z) ** 2) @ B.conj().T
        h = 1e-5
        fd = (fs.s_matrix(spec, g, z + h) - fs.s_matrix(spec, g, z - h)) / (2 * h)
        assert np.max(np.abs(fd - want)) <= 1e-6 * np.max(np.abs(want)), z
        assert np.max(np.linalg.eigvalsh(want)) <= -1.0 + 1e-12


BENCH_MODELS = Path(__file__).resolve().parents[1] / "bench" / "models"
HS_CASES = ["mnr-infinite", "sigma2-empty", "complex", "asymmetric", "d2-sigma2-empty",
            "d2-sigma2-both"]


def _hs_case(case):
    if case == "complex":
        return complex_coupling_model()
    if case == "asymmetric":
        # raw w2 not symmetric, v1 depending on x and y asymmetrically
        return fs.ModelSpec(d=1, a=1.0, w0=0.0, v0=lambda x: 0.0 * x, w1=lambda x: 3.0 + x,
                            v1=lambda x, y: np.cos(x - 2.0 * y) + 0.4 * x * y * y,
                            w2=lambda x, y: 2.0 + np.sin(3.0 * x) * np.cos(y) + x * x + 0.5 * y)
    if case.startswith("d2-"):
        return fs.load_model(BENCH_MODELS / f"{case}.cfg")
    return fs.load_model(case)


@pytest.mark.parametrize("case", HS_CASES)
def test_hs_norm_t_matches_dense_bs_operator(case, monkeypatch):
    spec = _hs_case(case)
    g = fs.make_grid(spec.d, spec.a, 24 if spec.d == 1 else 7)
    m = float(np.min(fs.model.mesh_samples(spec, g).W2))
    checked = 0
    for shift in (0.05, 0.3, 1.0, 4.0, 20.0):
        z = m - shift
        try:
            dense = np.linalg.norm(fs.bs_operator(spec, g, z))
        except ValueError:
            continue
        # one block, then single rows, then uneven blocks of 5 rows
        for budget in (blocks.BLOCK_ELEMENTS, 1, 5 * g.n):
            monkeypatch.setattr(blocks, "BLOCK_ELEMENTS", budget)
            assert fs.hs_norm_t(spec, g, z) == pytest.approx(dense, rel=1e-12, abs=0)
        monkeypatch.undo()
        checked += 1
    assert checked >= 2


def test_hs_norm_t_zero_coupling_is_exactly_zero():
    spec = make_decoupled(lambda x: 1.0 + 0.0 * x, lambda x, y: 1.0 + 0 * x * y)
    assert fs.hs_norm_t(spec, fs.make_grid(1, 1.0, 8), -1.0) == 0.0


def test_hs_norm_t_raises_what_bs_operator_raises(mnr, monkeypatch):
    g = fs.make_grid(1, mnr.a, 16)
    z_pole = float(fs.model.mesh_samples(mnr, g).W2[3, 7])
    monkeypatch.setattr(blocks, "BLOCK_ELEMENTS", 4 * g.n)
    for z, exc in ((0.5, ValueError), (z_pole, fs.PoleProximityError)):
        with pytest.raises(exc) as dense:
            fs.bs_operator(mnr, g, z)
        with pytest.raises(exc) as streamed:
            fs.hs_norm_t(mnr, g, z)
        assert type(streamed.value) is type(dense.value)
        assert str(streamed.value) == str(dense.value)


def test_a_nan_symbol_is_not_positive(mnr, monkeypatch):
    # nan <= 0.0 is False: a NaN Delta used to pass the positivity check
    with pytest.raises(ValueError, match="min nan") as refused:
        schur._require_positive(np.array([1.0, np.nan]))
    assert isinstance(refused.value, schur.DeltaNotPositiveError)
    g = fs.make_grid(1, mnr.a, 8)
    delta, K = fs.schur_eval(mnr, g, -1.0)
    delta[3] = np.nan
    monkeypatch.setattr(schur, "schur_eval", lambda *args: (delta.copy(), K.copy()))
    monkeypatch.setattr(schur, "delta_values", lambda *args: delta.copy())
    for norm in (fs.bs_operator, fs.hs_norm_t):
        with pytest.raises(schur.DeltaNotPositiveError):
            norm(mnr, g, -1.0)


@pytest.mark.parametrize("d", [1, 2])
def test_delta_at_points_is_bitwise_the_per_point_symbol(d, monkeypatch):
    spec = fs.load_model("mnr-infinite") if d == 1 else fs.load_model(
        BENCH_MODELS / "d2-sigma2-empty.cfg")
    g = fs.make_grid(d, spec.a, 64 if d == 1 else 24)
    pts = np.random.default_rng(5).uniform(-spec.a, spec.a, (23, d))
    monkeypatch.setattr(blocks, "BLOCK_ELEMENTS", 4 * g.n)    # blocks of 4 rows, last one short
    # a scalar z and one z per point; the slope path's Delta is the value path's
    for z in (-0.3, np.linspace(-1.3, -0.3, pts.shape[0])):
        batched = fs.delta_at_points(spec, g, pts, z)
        delta, slope = fs.delta_at_points(spec, g, pts, z, slope=True)
        assert delta.tobytes() == batched.tobytes()
        assert np.all(slope <= -1.0)
        for p, zp, val in zip(pts, np.broadcast_to(z, pts.shape[:1]), batched):
            w2row = fs.model.eval_xy(spec, spec.w2, p[None, :], g.nodes)
            v1row = fs.model.eval_xy(spec, spec.v1, p[None, :], g.nodes)
            w1p = float(fs.model.eval_x(spec, spec.w1, p[None, :])[0])
            integrand = g.weights * np.abs(v1row) ** 2 / (w2row - zp)
            assert val == w1p - zp - 0.5 * float(np.sum(integrand))
            assert val == fs.delta_at(spec, g, p, zp)

