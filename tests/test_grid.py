import numpy as np
import pytest

import fockspectra as fs


def test_midpoint_nodes_d1():
    g = fs.make_grid(1, 1.0, 2, "midpoint")
    assert np.allclose(g.nodes[:, 0], [-0.5, 0.5])
    assert np.allclose(g.weights, [1.0, 1.0])


def test_midpoint_d2_measure():
    g = fs.make_grid(2, 1.0, 2, "midpoint")
    assert g.n == 4
    assert np.allclose(g.weights, 1.0)
    assert abs(g.weights.sum() - 4.0) < 1e-12


def test_gauss_legendre_weight_sum():
    g = fs.make_grid(1, np.pi, 16, "gauss-legendre")
    assert abs(g.weights.sum() - 2 * np.pi) <= 1e-12 * 2 * np.pi


def test_weight_sums_generic():
    for d in (1, 2):
        for rule in ("midpoint", "gauss-legendre"):
            for n in (2, 5, 9):
                g = fs.make_grid(d, 1.7, n, rule)
                total = (2 * 1.7) ** d
                assert abs(g.weights.sum() - total) <= 1e-12 * total


def test_nodes_strictly_inside():
    for rule in ("midpoint", "gauss-legendre"):
        g = fs.make_grid(2, 0.9, 7, rule)
        assert np.all(np.abs(g.nodes) < 0.9)


def test_pair_grid_two_nodes():
    g = fs.make_grid(1, 1.0, 2, "midpoint")
    pg = fs.make_pair_grid(g)
    assert [tuple(p) for p in pg.pairs] == [(0, 0), (0, 1), (1, 1)]
    assert np.allclose(pg.pair_weights, [1.0, 2.0, 1.0])
    assert abs(pg.pair_weights.sum() - 4.0) < 1e-12


def test_pair_count_n3():
    g = fs.make_grid(1, 1.0, 3, "midpoint")
    pg = fs.make_pair_grid(g)
    assert pg.p == 6


def test_pair_weights_sum_is_square():
    for n in (4, 9):
        g = fs.make_grid(1, 1.3, n, "gauss-legendre")
        pg = fs.make_pair_grid(g)
        total = g.weights.sum() ** 2
        assert abs(pg.pair_weights.sum() - total) <= 1e-12 * total


def test_pair_constant_function_norm():
    # sum of W_ij * 1 equals the full measure of Omega^2
    for d in (1, 2):
        g = fs.make_grid(d, 1.0, 4, "midpoint")
        pg = fs.make_pair_grid(g)
        assert abs(pg.pair_weights.sum() - (2.0) ** (2 * d)) < 1e-12 * 4**d


def test_midpoint_refinement_second_order():
    exact = np.exp(1.0) - np.exp(-1.0)

    def quad(n):
        g = fs.make_grid(1, 1.0, n, "midpoint")
        return float(np.sum(g.weights * np.exp(g.nodes[:, 0])))

    e1 = abs(quad(64) - exact)
    e2 = abs(quad(128) - exact)
    assert 3.5 < e1 / e2 < 4.5


def test_gauss_legendre_spectral():
    exact = np.exp(1.0) - np.exp(-1.0)
    g = fs.make_grid(1, 1.0, 16, "gauss-legendre")
    assert abs(np.sum(g.weights * np.exp(g.nodes[:, 0])) - exact) < 1e-12


def test_make_grid_errors():
    with pytest.raises(ValueError):
        fs.make_grid(1, -1.0, 4)
    with pytest.raises(ValueError):
        fs.make_grid(1, 1.0, 1)
    with pytest.raises(ValueError):
        fs.make_grid(1, 1.0, 4, "simpson")
    with pytest.raises(ValueError):
        fs.make_grid(0, 1.0, 4)
    # a half-width that is not finite, and a d or node count that is not an integer
    for d, a, n in [(1, float("nan"), 8), (1, float("inf"), 8), (1, 1.0, 4.0), (1.0, 1.0, 4),
                    (2, 1.0, "4")]:
        with pytest.raises(ValueError):
            fs.make_grid(d, a, n)


def test_make_grid_takes_numpy_integers():
    g = fs.make_grid(np.int64(2), np.float64(1.5), np.int32(3))
    assert g.nodes.shape == (9, 2) and g.n_per_dim == 3
    assert g.nodes.tobytes() == fs.make_grid(2, 1.5, 3).nodes.tobytes()
