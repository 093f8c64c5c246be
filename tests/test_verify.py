
import random
from pathlib import Path

import numpy as np
import pytest

import fockspectra as fs
from fockspectra import verify
from conftest import make_decoupled, random_trig_model
from oracles import oracle_full_vs_reduced, singular_sequence_gram

BENCH_MODELS = Path(__file__).resolve().parents[1] / "bench" / "models"


def test_singular_sequence_zero_coupling():
    spec = make_decoupled(lambda x: 0.0 * x, lambda x, y: 2.0 + np.cos(x) * np.cos(y))
    rows = fs.singular_sequence_norms(spec, np.array([0.2]), np.array([0.2]), 4)
    assert all(h12 == 0.0 for _, h12, _ in rows)
    assert all(rows[k + 1][2] < rows[k][2] for k in range(len(rows) - 1))


def test_gram_identity_same_center(mnr):
    gram = singular_sequence_gram(mnr, np.array([1.0]), np.array([1.0]), 6)
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-10


def test_gram_identity_distinct_centers(mnr):
    gram = singular_sequence_gram(mnr, np.array([1.0]), np.array([-1.2]), 5)
    assert np.max(np.abs(gram - np.eye(5))) <= 1e-10


def test_h22_shift_decays_toward_zero(mnr):
    rows = fs.singular_sequence_norms(mnr, np.array([1.0]), np.array([1.0]), 7)
    h22 = [r[2] for r in rows]
    assert all(h22[k + 1] < h22[k] for k in range(2, len(h22) - 1))
    assert h22[-1] < 0.1 * h22[0]


def test_h12_decay_slope_and_bound(mnr):
    g = fs.make_grid(1, mnr.a, 64)
    chk = fs.check_assumption_a(mnr, g)
    rows = fs.singular_sequence_norms(mnr, np.array([1.0]), np.array([1.0]), 6)
    for n, h12, _ in rows:
        assert h12 <= fs.h12_decay_bound(chk.sup_norm_2pe, n, mnr.d, mnr.epsilon)
    ns = np.array([r[0] for r in rows if 2 <= r[0] <= 6], dtype=float)
    logs = np.log2([r[1] for r in rows if 2 <= r[0] <= 6])
    slope = np.polyfit(ns, logs, 1)[0]
    assert slope <= mnr.d * (0.5 - 0.75) + 0.1


def test_distinct_centers_decay(mnr):
    rows = fs.singular_sequence_norms(mnr, np.array([0.8]), np.array([-1.5]), 5)
    assert rows[-1][1] < rows[0][1]
    assert rows[-1][2] < rows[0][2]


def test_support_escape_raises(mnr, monkeypatch):
    # the automatic scale keeps every level inside Omega; a larger one escapes
    monkeypatch.setattr(verify, "_auto_rho", lambda spec, x0, y0: 2.0)
    with pytest.raises(ValueError, match="escapes"):
        fs.singular_sequence_norms(mnr, np.array([3.0]), np.array([3.0]), 3)


def test_holder_conjugate():
    assert fs.holder_conjugate(2.0) == pytest.approx(4.0 / 3.0)


def test_full_vs_reduced_decoupled_vacuum():
    rng = np.random.default_rng(3)
    spec = random_trig_model(rng)
    # vacuum far above the probe and uncoupled: counts must agree exactly
    spec_hi = fs.ModelSpec(d=1, a=spec.a, w0=100.0, v0=spec.v0, w1=spec.w1,
                           v1=spec.v1, w2=spec.w2)
    g = fs.make_grid(1, spec.a, 10)
    rep = oracle_full_vs_reduced(spec_hi, g, z_probe=0.0)
    assert rep.difference == 0 and rep.within_rank_bound


def test_full_vs_reduced_vacuum_below_probe():
    rng = np.random.default_rng(4)
    spec = random_trig_model(rng)
    spec_lo = fs.ModelSpec(d=1, a=spec.a, w0=-100.0, v0=spec.v0, w1=spec.w1,
                           v1=spec.v1, w2=spec.w2)
    g = fs.make_grid(1, spec.a, 10)
    rep = oracle_full_vs_reduced(spec_lo, g, z_probe=0.0)
    assert rep.count_full - rep.count_reduced == 1


def test_full_vs_reduced_random_smoke():
    rng = np.random.default_rng(5)
    for _ in range(5):
        spec = random_trig_model(rng, with_vacuum=True)
        g = fs.make_grid(1, spec.a, 10)
        ess = fs.essential_spectrum(spec, g)
        z = ess.sess_min - float(rng.uniform(0.1, 1.0))
        rep = oracle_full_vs_reduced(spec, g, z)
        assert rep.within_rank_bound


def test_singular_sequence_identical_when_v1_ignores_x():
    # v1 of y alone comes back from eval_xy as a stride-0 view; the H12 term
    # must still sum in the order of a full array
    def model(v1):
        return fs.ModelSpec(d=1, a=1.0, w0=0.0, v0=lambda x: 0.0 * x, w1=lambda x: 1.0 + x * x,
                            v1=v1, w2=lambda x, y: x * x + y * y)

    y_only = model(lambda x, y: np.sin(3.0 * y))
    full = model(lambda x, y: np.sin(3.0 * y) + 0.0 * x)
    for x0, y0 in ((0.3, 0.3), (0.3, -0.4)):
        x0, y0 = np.array([x0]), np.array([y0])
        assert fs.singular_sequence_norms(y_only, x0, y0, 5) \
            == fs.singular_sequence_norms(full, x0, y0, 5)


def test_singular_sequence_norms_refuse_n_max_below_one(mnr):
    # n_max = 0 used to return []
    x0 = np.array([1.0])
    for value in (0, -3):
        with pytest.raises(ValueError, match="n_max must be at least 1"):
            fs.singular_sequence_norms(mnr, x0, x0, value)
    assert [n for n, _, _ in fs.singular_sequence_norms(mnr, x0, x0, 1)] == [1]


def test_singular_sequence_norms_refuse_levels_finer_than_float_resolution(mnr):
    # at x0 = 1, rho = 1 the cells of level n are 2^-(n + 8) wide and the
    # spacing of floats there is 2^-52; levels past 44 used to round their
    # nodes onto x0 and report h22_shift = 0.0 from level 54
    x0 = np.array([1.0])
    assert all(h22 > 0.0 for _, _, h22 in fs.singular_sequence_norms(mnr, x0, x0, 44))
    for n_max in (45, 70):
        with pytest.raises(ValueError, match=f"n_max = {n_max} is finer than float resolution"):
            fs.singular_sequence_norms(mnr, x0, x0, n_max)


@pytest.mark.parametrize("case, x0, largest", [("mnr-infinite", [0.0], 1023),
                                              ("d2-sigma2-both", [0.0, 0.0], 512)])
def test_singular_sequence_norms_refuse_an_overflowing_amplitude(case, x0, largest, monkeypatch):
    # the squared amplitude 2^(n d) / |annulus(rho/2, rho)| used to raise
    # OverflowError once every level below it had run
    spec = fs.load_model(case if case in fs.builtin_models() else BENCH_MODELS / f"{case}.cfg")
    _, _, rho = verify.check_inputs(spec, x0, x0, largest)
    assert np.isfinite(verify._level(spec, np.array(x0), largest, rho)[2] ** 2)
    monkeypatch.setattr(verify, "_level", lambda *args: pytest.fail("a level ran"))
    with pytest.raises(ValueError, match=f"n_max = {largest + 1} overflows"):
        fs.singular_sequence_norms(spec, x0, x0, largest + 1)


@pytest.mark.parametrize("d, nodes", [(1, 256), (2, 768), (3, 56)])
def test_level_is_the_max_norm_ring_of_its_scale(d, nodes):
    # the parent's annulus quadrature used 256 nodes at d = 1, 2048 at d = 2, none at d = 3
    spec = make_decoupled(lambda x: 1.0, lambda x, y: 0.0, a=2.0, d=d)
    centre, rho = np.linspace(-0.3, 0.2, d), 0.7
    radii = []
    for n in (1, 2, 3, 4):
        xn, xw, amp = verify._level(spec, centre, n, rho)
        r_out = rho * 2.0 ** (-n)
        r = np.max(np.abs(xn - centre), axis=1)
        assert xn.shape == (nodes, d) and xw.shape == (nodes,)
        assert np.all((r > r_out / 2.0) & (r <= r_out))
        assert np.sum(xw) == pytest.approx((2.0**d - 1.0) * r_out**d, rel=1e-12, abs=0)
        assert np.sum(xw) * amp**2 == pytest.approx(1.0, rel=1e-12, abs=0)
        radii.append((r.min(), r.max()))
    # each level lies strictly inside the inner cube of the one before: disjoint supports
    assert all(inner_max < outer_min for (outer_min, _), (_, inner_max) in zip(radii, radii[1:]))


def _spec_d3():
    return fs.ModelSpec(d=3, a=1.0, w0=0.0, v0=lambda x: 0.0,
                        w1=lambda x: 1.0 + 0.1 * np.sum(x**2, axis=-1),
                        v1=lambda x, y: 0.5 * np.sum(y**2, axis=-1) + 0.0 * np.sum(x, axis=-1),
                        w2=lambda x, y: np.sum(x**2, axis=-1) + np.sum(y**2, axis=-1))


def test_singular_sequence_runs_at_d3():
    spec, x0 = _spec_d3(), np.array([0.2, -0.1, 0.3])
    for y0 in (x0, np.array([-0.3, 0.2, 0.1])):
        rows = fs.singular_sequence_norms(spec, x0, y0, 5)
        h22 = [r[2] for r in rows]
        assert [r[0] for r in rows] == [1, 2, 3, 4, 5]
        assert all(np.isfinite(r[1]) and r[1] > 0.0 for r in rows)
        assert all(b < a for a, b in zip(h22, h22[1:]))
    gram = singular_sequence_gram(spec, x0, np.array([-0.3, 0.2, 0.1]), 4)
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-10


def test_seeded_d2_singular_sequences_pass_the_bench_checks():
    # the checks bench/checks.py applies to singular-seq, whose outputs no reference pins:
    # ||H12 psi_n|| within the Hoelder bound and ||(H22 - z0) psi_n|| strictly decreasing,
    # on centres drawn as bench/run.py draws them
    spec = fs.load_model(BENCH_MODELS / "d2-sigma2-empty.cfg")
    chk = fs.check_assumption_a(spec, fs.make_grid(2, spec.a, 16))
    rng = random.Random(0)
    for _ in range(20):
        x0 = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)])
        rows = fs.singular_sequence_norms(spec, x0, x0, 8)
        for n, h12, _ in rows:
            assert 0.0 <= h12 <= fs.h12_decay_bound(chk.sup_norm_2pe, n, spec.d, spec.epsilon)
        h22 = [r[2] for r in rows]
        assert all(b < a for a, b in zip(h22, h22[1:])), x0
