"""Two-dimensional smoke coverage: the machinery is dimension-generic."""

import numpy as np

import fockspectra as fs
from fockspectra import verify
from oracles import consistency_check_adjoint, singular_sequence_gram


def _spec_d2():
    # separable quadratic bottom at the origin with a gentle coupling
    def w1(x):
        return 1.0 + 0.1 * np.sum(x**2, axis=-1)

    def v1(x, y):
        return 0.5 * np.sum(y**2, axis=-1) + 0.0 * np.sum(x, axis=-1)

    def w2(x, y):
        return np.sum(x**2, axis=-1) + np.sum(y**2, axis=-1)

    return fs.ModelSpec(d=2, a=1.0, w0=0.0,
                        v0=lambda x: np.zeros(np.asarray(x).shape[:-1]),
                        w1=w1, v1=v1, w2=w2)


def test_d2_assumption_and_blocks():
    spec = _spec_d2()
    g = fs.make_grid(2, 1.0, 4)
    assert fs.check_assumption_a(spec, g).passed
    blocks = fs.assemble_blocks(spec, g)
    A = fs.assemble_A(blocks)
    assert np.array_equal(A, A.conj().T)
    assert consistency_check_adjoint(blocks, spec, g) <= 1e-13


def test_d2_essential_spectrum_and_counting():
    spec = _spec_d2()
    g = fs.make_grid(2, 1.0, 6)
    ess = fs.essential_spectrum(spec, g)
    assert 0.0 <= ess.m < 0.2
    assert ess.M <= 4.0
    z = ess.sess_min - 0.5
    res = fs.birman_schwinger_check(spec, g, z)
    assert res.agree


def test_d2_exponents():
    spec = _spec_d2()
    g = fs.make_grid(2, 1.0, 6)
    ess = fs.essential_spectrum(spec, g)
    t0 = fs.locate_t0(spec, ess)
    assert t0 is not None and np.max(np.abs(t0)) < 1e-4
    est = fs.estimate_exponents(spec, g, ess, t0)
    assert abs(est.alpha_hat - 2.0) < 0.15
    assert abs(est.beta_hat - 2.0) < 0.15


def test_d2_singular_sequence(monkeypatch):
    monkeypatch.setattr(verify, "ANNULUS_CELLS", 64)
    spec = _spec_d2()
    x0 = np.array([0.2, 0.1])
    rows = fs.singular_sequence_norms(spec, x0, x0, 4)
    h22 = [r[2] for r in rows]
    assert h22[-1] < h22[0]
    gram = singular_sequence_gram(spec, x0, x0, 4)
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-10

