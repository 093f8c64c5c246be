import dataclasses
import math

import numpy as np

import fockspectra as fs
from conftest import make_decoupled, random_trig_model
from oracles import assemble_full, consistency_check_adjoint


def test_zero_coupling_gives_block_diagonal():
    spec = make_decoupled(lambda x: x, lambda x, y: 5.0 + 0 * x * y, w0=2.0)
    g = fs.make_grid(1, 1.0, 6)
    blocks = fs.assemble_blocks(spec, g)
    assert not np.any(blocks.h12)
    H = assemble_full(blocks)
    assert np.array_equal(H, np.diag(np.diag(H)))


def test_single_node_coupling_entry():
    # one-node grid: the diagonal pair entry is sqrt(w0) * v1(x0, x0)
    nodes = np.array([[0.0]])
    weights = np.array([2.0])
    g = fs.Grid(d=1, a=1.0, n_per_dim=1, nodes=nodes, weights=weights)
    pg = fs.make_pair_grid(g)
    spec = fs.ModelSpec(d=1, a=1.0, w0=0.0,
                        v0=lambda x: 0.0 * x,
                        w1=lambda x: 0.0 * x,
                        v1=lambda x, y: 3.0 + 0 * x * y,
                        w2=lambda x, y: 0.0 * x * y)
    blocks = fs.assemble_blocks(spec, g)
    entry = blocks.h12[0, 0]
    assert abs(entry - math.sqrt(2.0) * 3.0) < 1e-15
    # action identity: on u = sqrt(W) f the block reproduces w0 * v1 * f
    f = 1.7
    u = math.sqrt(pg.pair_weights[0]) * f
    assert abs(entry * u - math.sqrt(weights[0]) * weights[0] * 3.0 * f) < 1e-14


def test_h12_action_matches_direct_quadrature(mnr):
    g = fs.make_grid(1, mnr.a, 8)
    pg = fs.make_pair_grid(g)
    blocks = fs.assemble_blocks(mnr, g)

    def f2(x, y):
        return np.cos(x) * np.cos(y) + 0.2 * np.sin(x + y)

    x = g.nodes[:, 0]
    i, j = pg.pairs[:, 0], pg.pairs[:, 1]
    u = np.sqrt(pg.pair_weights) * f2(x[i], x[j])
    action = blocks.h12 @ u                     # weight-normalized output
    direct = np.array([
        np.sum(g.weights * np.asarray(mnr.v1(xi, x)) * f2(xi, x)) for xi in x
    ])
    assert np.max(np.abs(action - np.sqrt(g.weights) * direct)) < 1e-12


def test_hermiticity_exact(mnr):
    g = fs.make_grid(1, mnr.a, 10)
    blocks = fs.assemble_blocks(mnr, g)
    A = fs.assemble_A(blocks)
    assert np.array_equal(A, A.conj().T)
    H = assemble_full(blocks)
    assert np.array_equal(H, H.conj().T)


def test_quadratic_form_real():
    rng = np.random.default_rng(5)
    spec = random_trig_model(rng, with_vacuum=True)
    g = fs.make_grid(1, spec.a, 8)
    A = fs.assemble_A(fs.assemble_blocks(spec, g))
    for _ in range(10):
        u = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
        q = np.vdot(u, A @ u)
        assert abs(q.imag) <= 1e-12 * max(1.0, abs(q.real))


def test_full_minus_embedded_reduced_has_rank_le_3():
    rng = np.random.default_rng(6)
    spec = random_trig_model(rng, with_vacuum=True)
    g = fs.make_grid(1, spec.a, 8)
    blocks = fs.assemble_blocks(spec, g)
    H = assemble_full(blocks)
    E = H.copy()
    E[1:, 1:] -= fs.assemble_A(blocks)
    s = np.linalg.svd(E, compute_uv=False)
    rank = int(np.sum(s > 1e-12 * max(1.0, s[0])))
    assert rank <= 3


def test_adjoint_consistency_zero_and_constant():
    spec0 = make_decoupled(lambda x: x, lambda x, y: 1.0 + 0 * x * y)
    g = fs.make_grid(1, 1.0, 2)
    assert consistency_check_adjoint(fs.assemble_blocks(spec0, g), spec0, g) == 0.0

    spec1 = fs.ModelSpec(d=1, a=1.0, w0=0.0,
                         v0=lambda x: 0.0 * x, w1=lambda x: 0.0 * x,
                         v1=lambda x, y: 1.0 + 0 * x * y,
                         w2=lambda x, y: 1.0 + 0 * x * y)
    dev = consistency_check_adjoint(fs.assemble_blocks(spec1, g), spec1, g)
    assert dev <= 1e-13


def test_adjoint_consistency_random_complex_table():
    rng = np.random.default_rng(12)
    table = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g = fs.make_grid(1, 1.0, 4)
    nodes = g.nodes[:, 0]

    def v1(x, y):
        ix = np.searchsorted(nodes, np.asarray(x).ravel()).reshape(np.shape(x))
        iy = np.searchsorted(nodes, np.asarray(y).ravel()).reshape(np.shape(y))
        ix = np.clip(ix, 0, 3)
        iy = np.clip(iy, 0, 3)
        return table[ix, iy] + 0.0 * np.asarray(x) * np.asarray(y)

    spec = fs.ModelSpec(d=1, a=1.0, w0=0.0, v0=lambda x: 0.0 * x,
                        w1=lambda x: 0.0 * x, v1=v1,
                        w2=lambda x, y: 1.0 + 0 * x * y)
    for seed in range(5):
        dev = consistency_check_adjoint(fs.assemble_blocks(spec, g),
                                           spec, g, seed=seed)
        assert dev <= 1e-13


def test_vacuum_decoupled_spectrum_union():
    # v0 = 0 and w0 outside the other ranges: spec(H) = {w0} + spec(A)
    rng = np.random.default_rng(8)
    spec = random_trig_model(rng)
    spec = fs.ModelSpec(d=1, a=spec.a, w0=-50.0, v0=spec.v0, w1=spec.w1,
                        v1=spec.v1, w2=spec.w2)
    g = fs.make_grid(1, spec.a, 6)
    blocks = fs.assemble_blocks(spec, g)
    evH = np.linalg.eigvalsh(assemble_full(blocks))
    evA = np.linalg.eigvalsh(fs.assemble_A(blocks))
    expected = np.sort(np.concatenate([[-50.0], evA]))
    assert np.max(np.abs(evH - expected)) < 1e-10


def test_mnr_reduced_matrix_has_negative_eigenvalue(mnr):
    g = fs.make_grid(1, mnr.a, 8)
    A = fs.assemble_A(fs.assemble_blocks(mnr, g))
    assert np.linalg.eigvalsh(A)[0] < 0.0




def test_a_complex_v0_alone_leaves_a_and_h12_real(mnr):
    # v0 enters only the vacuum row h01, which A does not hold
    spec = dataclasses.replace(mnr, v0=lambda x: (0.3 + 0.2j) * np.cos(x))
    g = fs.make_grid(1, spec.a, 8)
    blocks = fs.assemble_blocks(spec, g)
    assert blocks.h12.dtype == fs.assemble_A(blocks).dtype == np.float64
    assert blocks.h01.dtype == np.complex128
    H = assemble_full(blocks)
    assert H.dtype == np.complex128 and np.array_equal(H, H.conj().T)
    assert np.array_equal(H[0, 1:1 + g.n], blocks.h01)
    for z in (-0.25, -0.01):
        res = fs.birman_schwinger_check(spec, g, z)
        assert res.agree and res.boundary == 0
