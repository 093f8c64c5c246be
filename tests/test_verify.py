
import numpy as np
import pytest

import fockspectra as fs
from fockspectra import verify
from conftest import make_decoupled, random_trig_model
from oracles import oracle_full_vs_reduced, singular_sequence_gram


def test_singular_sequence_zero_coupling():
    spec = make_decoupled(lambda x: 0.0 * x, lambda x, y: 2.0 + np.cos(x) * np.cos(y))
    cfg = fs.SingularSeqConfig(x0=np.array([0.2]), y0=np.array([0.2]), n_max=4)
    rows = fs.singular_sequence_norms(spec, cfg)
    assert all(h12 == 0.0 for _, h12, _ in rows)
    assert all(rows[k + 1][2] < rows[k][2] for k in range(len(rows) - 1))


def test_gram_identity_same_center(mnr):
    cfg = fs.SingularSeqConfig(x0=np.array([1.0]), y0=np.array([1.0]), n_max=6)
    gram = singular_sequence_gram(mnr, cfg)
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-10


def test_gram_identity_distinct_centers(mnr):
    cfg = fs.SingularSeqConfig(x0=np.array([1.0]), y0=np.array([-1.2]), n_max=5)
    gram = singular_sequence_gram(mnr, cfg)
    assert np.max(np.abs(gram - np.eye(5))) <= 1e-10


def test_h22_shift_decays_toward_zero(mnr):
    cfg = fs.SingularSeqConfig(x0=np.array([1.0]), y0=np.array([1.0]), n_max=7)
    rows = fs.singular_sequence_norms(mnr, cfg)
    h22 = [r[2] for r in rows]
    assert all(h22[k + 1] < h22[k] for k in range(2, len(h22) - 1))
    assert h22[-1] < 0.1 * h22[0]


def test_h12_decay_slope_and_bound(mnr):
    g = fs.make_grid(1, mnr.a, 64)
    chk = fs.check_assumption_a(mnr, g)
    cfg = fs.SingularSeqConfig(x0=np.array([1.0]), y0=np.array([1.0]), n_max=6)
    rows = fs.singular_sequence_norms(mnr, cfg)
    for n, h12, _ in rows:
        assert h12 <= fs.h12_decay_bound(chk.sup_norm_2pe, n, mnr.d, mnr.epsilon)
    ns = np.array([r[0] for r in rows if 2 <= r[0] <= 6], dtype=float)
    logs = np.log2([r[1] for r in rows if 2 <= r[0] <= 6])
    slope = np.polyfit(ns, logs, 1)[0]
    assert slope <= mnr.d * (0.5 - 0.75) + 0.1


def test_distinct_centers_decay(mnr):
    cfg = fs.SingularSeqConfig(x0=np.array([0.8]), y0=np.array([-1.5]), n_max=5)
    rows = fs.singular_sequence_norms(mnr, cfg)
    assert rows[-1][1] < rows[0][1]
    assert rows[-1][2] < rows[0][2]


def test_support_escape_raises(mnr, monkeypatch):
    # the automatic scale keeps every level inside Omega; a larger one escapes
    monkeypatch.setattr(verify, "_auto_rho", lambda spec, x0, y0: 2.0)
    cfg = fs.SingularSeqConfig(x0=np.array([3.0]), y0=np.array([3.0]), n_max=3)
    with pytest.raises(ValueError, match="escapes"):
        fs.singular_sequence_norms(mnr, cfg)


def test_holder_conjugate():
    assert fs.holder_conjugate(2.0) == pytest.approx(4.0 / 3.0)


def test_full_vs_reduced_decoupled_vacuum():
    rng = np.random.default_rng(3)
    spec = random_trig_model(rng)
    # vacuum far above the probe and uncoupled: counts must agree exactly
    spec_hi = fs.ModelSpec(d=1, a=spec.a, w0=100.0, v0=spec.v0, w1=spec.w1,
                           v1=spec.v1, w2=spec.w2)
    g = fs.make_grid(1, spec.a, 10)
    pg = fs.make_pair_grid(g)
    rep = oracle_full_vs_reduced(spec_hi, g, pg, z_probe=0.0)
    assert rep.difference == 0 and rep.within_rank_bound


def test_full_vs_reduced_vacuum_below_probe():
    rng = np.random.default_rng(4)
    spec = random_trig_model(rng)
    spec_lo = fs.ModelSpec(d=1, a=spec.a, w0=-100.0, v0=spec.v0, w1=spec.w1,
                           v1=spec.v1, w2=spec.w2)
    g = fs.make_grid(1, spec.a, 10)
    pg = fs.make_pair_grid(g)
    rep = oracle_full_vs_reduced(spec_lo, g, pg, z_probe=0.0)
    assert rep.count_full - rep.count_reduced == 1


def test_full_vs_reduced_random_smoke():
    rng = np.random.default_rng(5)
    for _ in range(5):
        spec = random_trig_model(rng, with_vacuum=True)
        g = fs.make_grid(1, spec.a, 10)
        pg = fs.make_pair_grid(g)
        ess = fs.essential_spectrum(spec, g)
        z = ess.sess_min - float(rng.uniform(0.1, 1.0))
        rep = oracle_full_vs_reduced(spec, g, pg, z)
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
        cfg = fs.SingularSeqConfig(x0=np.array([x0]), y0=np.array([y0]), n_max=5)
        assert fs.singular_sequence_norms(y_only, cfg) == fs.singular_sequence_norms(full, cfg)


@pytest.mark.parametrize("field", ["n_max", "quad_depth"])
def test_singular_seq_config_refuses_fields_below_one(field):
    # n_max = 0 used to return [] and quad_depth = 0 to divide by zero at d = 1
    for value in (0, -3):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            fs.SingularSeqConfig(x0=np.array([1.0]), y0=np.array([1.0]), **{field: value})
    cfg = fs.SingularSeqConfig(x0=np.array([1.0]), y0=np.array([1.0]), **{field: 1})
    assert getattr(cfg, field) == 1
