"""The streamed reductions against their former dense formulas, and the memory they keep.

Only discrete and bs-check build N x N mesh samples; every other command
reduces row blocks of the node pairs on the block pool.
"""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fockspectra as fs
from conftest import random_trig_model
from fockspectra import blocks, cli, model, schur, verify

ROOT = Path(__file__).resolve().parents[1]
D2_EMPTY = ROOT / "bench" / "models" / "d2-sigma2-empty.cfg"


@pytest.fixture
def many_blocks(monkeypatch):
    """Blocks of a few rows, run on the pool even on a one-CPU machine."""
    monkeypatch.setattr(blocks, "_cpu_count", lambda: 2)
    monkeypatch.setattr(blocks, "BLOCK_ELEMENTS", 192)


def dense_assumption_a(spec, g):
    """The former check_assumption_a, on the N x N mesh samples."""
    ms = model.mesh_samples(spec, g)
    for arr in (np.asarray(spec.w0), ms.w1, ms.v0, ms.V1, ms.W2):
        if not np.all(np.isfinite(arr)):
            raise fs.ModelEvaluationError("NaN or infinity in a sample")
    w = g.weights
    p1 = 2.0 + spec.epsilon
    p2 = 2.0 + 4.0 / spec.epsilon
    absV = np.abs(ms.V1)
    with np.errstate(over="ignore"):
        row = np.max((absV**p1 @ w)) ** (1.0 / p1)
        col = np.max((w @ absV**p2)) ** (1.0 / p2)
    raw = model.eval_xy(spec, spec.w2, g.nodes[:, None, :], g.nodes[None, :, :])
    asym = float(np.max(np.abs(raw - raw.T)))
    ok = bool(np.isfinite(row) and np.isfinite(col) and asym <= model.W2_SYMMETRY_TOL)
    return float(row), float(col), asym, ok


def dense_h22_term(spec, z0, xn, xw, xamp, yn, yw, yamp):
    """The former _h22_term: one (x nodes) x (y nodes) array and einsum."""
    W = fs.model.eval_xy(spec, spec.w2, xn[:, None, :], yn[None, :, :])
    return float(np.einsum("i,j,ij->", xw * xamp**2, yw * yamp**2, (W - z0) ** 2))


def _asymmetric_coupled(d=1):
    def w2(x, y):
        return np.sin(3.0 * x) * np.cos(2.0 * y) + x * x + 0.7 * y * y

    return fs.ModelSpec(d=d, a=1.0, w0=0.0, v0=lambda x: 0.0 * x, w1=lambda x: 1.0 + x * x,
                        v1=lambda x, y: np.cos(x - 2.0 * y) + 0.3 * x, w2=w2)


def _v1_ignores_x():
    spec = random_trig_model(np.random.default_rng(7))
    return fs.ModelSpec(d=1, a=spec.a, w0=0.0, v0=spec.v0, w1=spec.w1, w2=spec.w2,
                        v1=lambda x, y: np.sin(3.0 * y) + 0.5)


def _oracle_models():
    rng = np.random.default_rng(2024)
    return [random_trig_model(rng), random_trig_model(rng), _asymmetric_coupled(),
            _v1_ignores_x(), fs.load_model(D2_EMPTY)]


@pytest.mark.parametrize("index", range(5))
def test_streamed_assumption_a_matches_the_dense_formulas(index, many_blocks):
    spec = _oracle_models()[index]
    g = fs.make_grid(spec.d, spec.a, 64 if spec.d == 1 else 8)
    assert len(blocks.row_blocks(g.n, 2 * g.n)) > 2
    rep = fs.check_assumption_a(spec, g)
    row, col, asym, ok = dense_assumption_a(spec, g)
    assert rep.sup_norm_2pe == pytest.approx(row, rel=1e-12, abs=0)
    assert rep.sup_norm_2p4e == pytest.approx(col, rel=1e-12, abs=0)
    assert rep.w2_asymmetry == asym
    assert rep.passed == ok
    W2 = model.mesh_samples(spec, g).W2
    assert (rep.w2_min, rep.w2_max) == (float(np.min(W2)), float(np.max(W2)))
    ess = fs.essential_spectrum(spec, g)
    assert (ess.m, ess.M) == (float(np.min(W2)), float(np.max(W2)))


@pytest.mark.parametrize("where", ["v1", "w2", "w1", "v0"])
def test_nan_in_a_middle_block_raises(where, many_blocks):
    g = fs.make_grid(1, 1.0, 64)
    rows = blocks.row_blocks(g.n, 2 * g.n)
    assert rows[0].stop <= 30 < rows[-1].start       # node 30 sits in a middle block
    x_bad = float(g.nodes[30, 0])

    def bad(x):
        return np.abs(x - x_bad) < 1e-12

    fns = {"v0": lambda x: 0.0 * x, "w1": lambda x: 1.0 + 0.0 * x,
           "v1": lambda x, y: np.cos(x * y), "w2": lambda x, y: 2.0 + x * x + y * y}
    if where in ("v0", "w1"):
        fns[where] = lambda x, _f=fns[where]: np.where(bad(x), np.nan, _f(x))
    else:
        # the pair (x_30, x_30) only
        fns[where] = lambda x, y, _f=fns[where]: np.where(bad(x) & bad(y), np.nan, _f(x, y))
    spec = fs.ModelSpec(d=1, a=1.0, w0=0.0, **fns)
    with pytest.raises(fs.ModelEvaluationError):
        fs.check_assumption_a(spec, g)
    with pytest.raises(fs.ModelEvaluationError):
        dense_assumption_a(spec, g)


def test_overflowing_norm_gives_passed_false(many_blocks):
    spec = fs.ModelSpec(d=1, a=1.0, w0=0.0, v0=lambda x: 0.0 * x, w1=lambda x: 1.0 + 0.0 * x,
                        v1=lambda x, y: 1e100 * (1.0 + 0.0 * x * y),
                        w2=lambda x, y: 2.0 + x * x + y * y)
    g = fs.make_grid(1, 1.0, 64)
    rep = fs.check_assumption_a(spec, g)
    assert not rep.passed
    assert rep.sup_norm_2pe == np.inf == dense_assumption_a(spec, g)[0]


@pytest.mark.parametrize("d", [1, 2])
def test_schur_eval_symbol_equals_the_streamed_symbol(d, many_blocks):
    spec = _oracle_models()[4] if d == 2 else _oracle_models()[0]
    g = fs.make_grid(d, spec.a, 64 if d == 1 else 8)
    z = fs.check_assumption_a(spec, g).w2_min - 0.5
    np.testing.assert_array_equal(fs.schur_eval(spec, g, z).delta_vals,
                                  fs.delta_values(spec, g, z), strict=True)
    # one pass for several z gives each z's row bit for bit
    both = fs.delta_values(spec, g, [z, z - 1.0])
    np.testing.assert_array_equal(both, [fs.delta_values(spec, g, z),
                                         fs.delta_values(spec, g, z - 1.0)])


@pytest.mark.parametrize("centres", [((0.21, -0.33), None), ((0.21, -0.33), (-0.1, 0.2))])
def test_singular_sequence_norms_match_the_dense_formulas(centres, many_blocks, monkeypatch):
    spec = fs.load_model(D2_EMPTY)
    x0, y0 = (np.array(c) if c is not None else None for c in centres)
    cfg = verify.SingularSeqConfig(x0=x0, y0=x0 if y0 is None else y0, n_max=3, quad_depth=64)
    streamed = verify.singular_sequence_norms(spec, cfg)

    def dense_h12_term(spec, xn, xw, xamp, sn, sw, samp):
        V = np.ascontiguousarray(fs.model.eval_xy(spec, spec.v1, xn[:, None, :], sn[None, :, :]))
        return float(np.sum(xw * xamp**2 * np.abs(V @ (sw * samp)) ** 2))

    monkeypatch.setattr(verify, "_h12_term", dense_h12_term)
    monkeypatch.setattr(verify, "_h22_term", dense_h22_term)
    dense = verify.singular_sequence_norms(spec, cfg)
    assert [n for n, _, _ in streamed] == [n for n, _, _ in dense] == [1, 2, 3]
    for (_, h12, h22), (_, h12_d, h22_d) in zip(streamed, dense):
        assert h12 == pytest.approx(h12_d, rel=1e-12, abs=0)
        assert h22 == pytest.approx(h22_d, rel=1e-12, abs=0)


def _counted_v1(spec, calls):
    def v1(x, y):
        calls.append(1)
        return spec.v1(x, y)

    return dataclasses.replace(spec, v1=v1)


@pytest.mark.parametrize("d", [1, 2])
def test_v1_that_ignores_x_is_sampled_once_per_call_and_matches_the_full_coupling(d, many_blocks):
    base = _v1_ignores_x() if d == 1 else fs.load_model(D2_EMPTY)
    calls = []
    y_only = _counted_v1(base, calls)
    x_part = (lambda x: x) if d == 1 else (lambda x: x[..., 0])
    full = dataclasses.replace(base, v1=lambda x, y: base.v1(x, y) + 0.0 * x_part(x))
    g = fs.make_grid(d, base.a, 48 if d == 1 else 7)
    pts = np.random.default_rng(9).uniform(-base.a, base.a, (40, d))
    assert min(len(blocks.row_blocks(pts.shape[0], g.n)), len(blocks.row_blocks(g.n, g.n))) > 2
    zs = np.linspace(-3.0, -0.5, pts.shape[0])
    for fn, args in ((fs.delta_at_points, (pts, -0.3)),
                     (schur.delta_and_derivative_at_points, (pts, zs)),
                     (fs.delta_values, (-0.3,))):
        calls.clear()
        shared = np.asarray(fn(y_only, g, *args))
        assert len(calls) == 1, fn.__name__            # one row per call, not per block
        own = np.asarray(fn(full, g, *args))
        assert shared.tobytes() == own.tobytes(), fn.__name__


def _counted_w2(spec, samples):
    def w2(x, y):
        xs, ys = (x.shape, y.shape) if spec.d == 1 else (x.shape[:-1], y.shape[:-1])
        samples[0] += math.prod(np.broadcast_shapes(xs, ys))
        return spec.w2(x, y)

    return dataclasses.replace(spec, w2=w2)


@pytest.mark.parametrize("d", [1, 2])
def test_w2_sample_counts_of_the_hs_norm_and_the_mesh(d, monkeypatch):
    # each off-diagonal-block pair is sampled once per pass; the former code
    # sampled 4 N^2 in hs_norm_t and 2 N^2 in mesh_samples and check_assumption_a
    monkeypatch.setattr(blocks, "_cpu_count", lambda: 1)
    monkeypatch.setattr(blocks, "BLOCK_ELEMENTS", 8 * 64)
    base, z = (_asymmetric_coupled(), -3.0) if d == 1 else (fs.load_model(D2_EMPTY), -0.3)
    samples = [0]
    spec = _counted_w2(base, samples)
    g = fs.make_grid(d, base.a, 64 if d == 1 else 8)
    n, rows = g.n, blocks.BLOCK_ELEMENTS // g.n
    assert (n, rows) == (64, 8)
    fs.hs_norm_t(spec, g, z)
    assert samples[0] <= 3 * n * n + n * rows
    samples[0] = 0
    model.mesh_samples(spec, g)
    assert samples[0] <= n * n + n * rows
    # the Assumption A pass sizes its blocks for w2 and its mirror: rows // 2 rows
    samples[0] = 0
    fs.check_assumption_a(spec, g)
    assert samples[0] <= n * n + n * (rows // 2)


@pytest.mark.parametrize("argv", [
    ["essspec", "--n", "12"],
    ["check-model", "--n", "12"],
    ["finiteness", "--n", "8", "--levels", "3"],
    ["singular-seq", "--n", "8", "--x0=0.2,-0.1", "--n-max", "3"],
])
def test_streamed_commands_build_no_mesh_samples(argv, tmp_path, monkeypatch):
    def refuse(spec, grid):
        raise AssertionError("N x N mesh samples built")

    monkeypatch.setattr(model, "_mesh_samples_cached", refuse)
    argv = [argv[0], "--model", str(D2_EMPTY), *argv[1:], "--out", str(tmp_path)]
    assert cli.main(argv) == 0


def test_check_assumption_a_d2_cap_peak_is_a_fraction_of_one_w2(monkeypatch):
    # memory is O(BLOCK_ELEMENTS) per worker; pin the pool at two workers
    monkeypatch.setattr(blocks, "_cpu_count", lambda: 2)
    spec = fs.load_model(D2_EMPTY)
    g = fs.make_grid(2, spec.a, 48)
    tracemalloc.start()
    try:
        assert fs.check_assumption_a(spec, g).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * g.n * g.n * np.dtype(float).itemsize
