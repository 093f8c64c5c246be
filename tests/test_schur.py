
import numpy as np
import pytest

import fockspectra as fs
from conftest import make_decoupled, random_trig_model, simpson


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


def test_delta_derivative_decoupled_exact():
    spec = make_decoupled(lambda x: x, lambda x, y: 1.0 + 0 * x * y)
    g = fs.make_grid(1, 1.0, 8)
    assert fs.delta_derivative_at(spec, g, 0.2, -1.0) == -1.0


def test_delta_derivative_le_minus_one(mnr):
    g = fs.make_grid(1, mnr.a, 32)
    rng = np.random.default_rng(4)
    for _ in range(30):
        x = float(rng.uniform(-mnr.a, mnr.a))
        z = float(rng.uniform(-5.0, -0.1))
        assert fs.delta_derivative_at(mnr, g, x, z) <= -1.0


def test_delta_derivative_matches_finite_difference(mnr):
    g = fs.make_grid(1, mnr.a, 64)
    x, z, h = 1.0, -1.0, 1e-6
    fd = (fs.delta_at(mnr, g, x, z + h) - fs.delta_at(mnr, g, x, z - h)) / (2 * h)
    an = fs.delta_derivative_at(mnr, g, x, z)
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
    T = fs.bs_operator(mnr, g, -0.4).t_matrix
    assert np.max(np.abs(T - T.conj().T)) <= 1e-14


def test_hs_young_bound(mnr):
    g = fs.make_grid(1, mnr.a, 32)
    for z in (-0.5, -1.0, -3.0, 7.5):
        assert fs.hs_norm_k(mnr, g, z) <= fs.hs_bound_young(mnr, g, z)
    rng = np.random.default_rng(21)
    for _ in range(5):
        spec = random_trig_model(rng)
        gg = fs.make_grid(1, spec.a, 16)
        ms = fs.model.mesh_samples(spec, gg)
        z = float(np.min(ms.W2)) - 1.0
        assert fs.hs_norm_k(spec, gg, z) <= fs.hs_bound_young(spec, gg, z)


def test_bs_operator_zero_coupling():
    spec = make_decoupled(lambda x: 1.0 + 0.0 * x, lambda x, y: 1.0 + 0 * x * y)
    g = fs.make_grid(1, 1.0, 8)
    op = fs.bs_operator(spec, g, -1.0)
    assert np.all(op.t_matrix == 0.0)
    assert op.hs_norm_t == 0.0


def test_bs_counts_cross_check(mnr):
    # largest eigenvalue of T exceeds 1 exactly when A has an eigenvalue below z
    g = fs.make_grid(1, mnr.a, 32)
    pg = fs.make_pair_grid(g)
    A = fs.assemble_A(fs.assemble_blocks(mnr, g, pg))
    evA = np.linalg.eigvalsh(A)
    for z in (-0.5, -0.01):
        top = np.linalg.eigvalsh(fs.bs_operator(mnr, g, z).t_matrix)[-1]
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
    ev = fs.schur_eval(mnr, g, -0.8)
    assert ev.z == -0.8
    assert np.array_equal(ev.k_matrix, fs.k_matrix(mnr, g, -0.8))
    assert np.array_equal(ev.delta_vals, fs.delta_values(mnr, g, -0.8))
    assert ev.hs_norm_k == np.linalg.norm(ev.k_matrix)
    S = fs.s_matrix(mnr, g, -0.8)
    assert np.allclose(S, np.diag(ev.delta_vals) + ev.k_matrix, atol=0)


def test_pole_proximity_error(mnr):
    g = fs.make_grid(1, mnr.a, 16)
    ms = fs.model.mesh_samples(mnr, g)
    z_exact = float(ms.W2[3, 7])
    with pytest.raises(fs.PoleProximityError):
        fs.delta_values(mnr, g, z_exact)
    with pytest.raises(fs.PoleProximityError):
        fs.k_matrix(mnr, g, z_exact)


def test_s_derivative_finite_difference_and_bound(mnr):
    # dS/dz on both sides of ran w2: matches a central difference, and is <= -I
    g = fs.make_grid(1, mnr.a, 16)
    for z in (-0.5, 7.0):
        dS = fs.s_derivative(mnr, g, z)
        h = 1e-6
        fd = (fs.s_matrix(mnr, g, z + h) - fs.s_matrix(mnr, g, z - h)) / (2 * h)
        assert np.max(np.abs(dS - fd)) < 1e-6 * np.max(np.abs(dS))
        assert np.max(np.linalg.eigvalsh(dS)) <= -1.0 + 1e-12
