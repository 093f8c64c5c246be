"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime budget is asserted in place.
"""

import time

import numpy as np

import fockspectra as fs
from fockspectra import cli
from conftest import make_decoupled, pick_z_below, random_trig_model
from oracles import assemble_full, oracle_full_vs_reduced, synthetic_power_model


def _ok(k, label):
    print(f"ACCEPTANCE {k} ({label}): PASS")


def test_acceptance_01_decoupled_exactness():
    start = time.perf_counter()
    spec = make_decoupled(lambda x: x, lambda x, y: 5.0 + 0 * x * y, w0=7.0)
    g = fs.make_grid(1, 1.0, 32)
    pg = fs.make_pair_grid(g)
    blocks = fs.assemble_blocks(spec, g, pg)
    ev = np.linalg.eigvalsh(assemble_full(blocks))
    expected = np.sort(np.concatenate([[7.0], g.nodes[:, 0],
                                       np.full(pg.p, 5.0)]))
    assert np.max(np.abs(ev - expected)) <= 1e-10

    ess = fs.essential_spectrum(spec, g)
    roots = np.sort([z for _, z in ess.sigma2_roots])
    sampled_ran_w1 = np.sort(g.nodes[:, 0])      # none of it inside Sigma_1
    assert roots.size == sampled_ran_w1.size
    assert np.max(np.abs(roots - sampled_ran_w1)) <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(1, "decoupled exactness")


def test_acceptance_02_sigma2_empty_reproduction(s2e):
    m, M = 0.0, 4.8
    errs = {}
    for n in (64, 128):
        g = fs.make_grid(1, s2e.a, n)
        em = max(abs(fs.delta_at(s2e, g, x, m)) for x in g.nodes[:, 0])
        eM = max(abs(fs.delta_at(s2e, g, x, M)) for x in g.nodes[:, 0])
        errs[n] = max(em, eM)
        ess = fs.essential_spectrum(s2e, g)
        assert len(ess.sigma2_roots) == 0, f"spurious Sigma_2 roots at n={n}"
    assert errs[64] <= 1e-3
    assert errs[128] <= errs[64] / 4.0 + 1e-15, \
        f"error shrank only {errs[64] / errs[128]:.3f}x"
    _ok(2, "Sigma_2 = empty reproduction")


def test_acceptance_03_birman_schwinger_three_way():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(20):
        spec = random_trig_model(rng)
        g = fs.make_grid(1, spec.a, 24)
        pg = fs.make_pair_grid(g)
        z, _ = pick_z_below(spec, g, pg, rng, guard=1e-8)
        res = fs.birman_schwinger_check(spec, g, pg, z)
        assert res.boundary == 0
        assert res.count_A == res.count_S == res.count_T, (res, z)
        checked += 1
    assert checked == 20
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _ok(3, f"Birman-Schwinger three-way agreement on {checked} models")


def test_acceptance_04_weyl_inequality():
    rng = np.random.default_rng(77)
    for _ in range(100):
        dim = int(rng.integers(2, 61))
        B1 = rng.standard_normal((dim, dim))
        B2 = rng.standard_normal((dim, dim))
        V1 = 0.5 * (B1 + B1.T)
        V2 = 0.5 * (B2 + B2.T)
        l1 = float(rng.uniform(0.05, 2.0))
        l2 = float(rng.uniform(0.05, 2.0))
        assert fs.threshold_counts(V1 + V2, l1 + l2).above <= \
            fs.threshold_counts(V1, l1).above + fs.threshold_counts(V2, l2).above
    _ok(4, "Weyl inequality, 100 trials")


def test_acceptance_05_delta_calculus(mnr):
    g = fs.make_grid(1, mnr.a, 48)
    rng = np.random.default_rng(5150)
    models = [mnr] + [random_trig_model(rng) for _ in range(3)]
    grids = [g] + [fs.make_grid(1, s.a, 32) for s in models[1:]]
    floors = []
    for s, gg in zip(models, grids):
        ms = fs.model.mesh_samples(s, gg)
        floors.append(float(np.min(ms.W2)))

    # derivative matches centered differences at 50 random (x, z)
    for k in range(50):
        idx = k % len(models)
        s, gg, floor = models[idx], grids[idx], floors[idx]
        x = float(rng.uniform(-s.a, s.a))
        z = floor - float(rng.uniform(0.05, 4.0))
        h = 1e-6
        fd = (fs.delta_at(s, gg, x, z + h) - fs.delta_at(s, gg, x, z - h)) / (2 * h)
        an = float(fs.schur.delta_and_derivative_at_points(s, gg, [x], z)[1][0])
        assert an <= -1.0
        assert abs(fd - an) <= 1e-6 * abs(an)

    # strict decrease along 20 random z-chains
    for k in range(20):
        idx = k % len(models)
        s, gg, floor = models[idx], grids[idx], floors[idx]
        x = float(rng.uniform(-s.a, s.a))
        zs = np.sort(floor - rng.uniform(0.02, 5.0, 6))
        vals = [fs.delta_at(s, gg, x, z) for z in zs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    _ok(5, "symbol calculus: derivative, bound, monotonicity")


def test_acceptance_06_singular_sequence_decay(mnr):
    start = time.perf_counter()
    g = fs.make_grid(1, mnr.a, 64)
    c_a = fs.check_assumption_a(mnr, g).sup_norm_2pe
    cfg = fs.SingularSeqConfig(x0=np.array([1.0]), y0=np.array([1.0]), n_max=6)
    rows = fs.singular_sequence_norms(mnr, cfg)

    # epsilon = 2 gives q = 4/3 and the bound C 2^{n d (1/2 - 3/4) + 1}
    assert fs.holder_conjugate(mnr.epsilon) == 4.0 / 3.0
    for n, h12, _ in rows:
        assert h12 <= fs.h12_decay_bound(c_a, n, mnr.d, mnr.epsilon)

    sel = [(n, h12) for n, h12, _ in rows if 2 <= n <= 6]
    slope = np.polyfit([n for n, _ in sel], np.log2([v for _, v in sel]), 1)[0]
    assert slope <= mnr.d * (0.5 - 0.75) + 0.1      # = -0.15

    h22 = [r[2] for r in rows]
    assert all(h22[k + 1] < h22[k] for k in range(2, len(h22) - 1))

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _ok(6, f"singular-sequence decay, slope {slope:.3f}")


def test_acceptance_07_infinite_spectrum_consistency(mnr):
    start = time.perf_counter()
    counts = {}
    for n in (16, 32, 64):
        g = fs.make_grid(1, mnr.a, n)
        counts[n] = fs.discrete_spectrum_below(mnr, g, sess_min=0.0).size
    assert counts[16] <= counts[32] <= counts[64]
    assert counts[64] > counts[16]

    g64 = fs.make_grid(1, mnr.a, 64)
    ess = fs.essential_spectrum(mnr, g64)
    assert abs(ess.sess_min) <= 0.01

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _ok(7, f"bound-state counts below 0 grow: {counts[16]}, {counts[32]}, {counts[64]}")


def test_acceptance_08_finiteness_criterion_ground_truth():
    # engineered alpha=2, beta=2, gamma=1, d=1: finite-predicted
    spec = synthetic_power_model(beta=2.0, gamma=1.0)
    g = fs.make_grid(1, spec.a, 24)
    ess = fs.essential_spectrum(spec, g)
    t0 = fs.locate_t0(spec, g, ess)
    est = fs.estimate_exponents(spec, g, ess, t0)
    assert abs(est.alpha_hat - 2.0) <= 0.1
    assert abs(est.beta_hat - 2.0) <= 0.1
    assert est.gamma_hat is not None and abs(est.gamma_hat - 1.0) <= 0.1
    assert min(est.fit_r2) >= 0.95
    grids = [fs.make_grid(1, spec.a, n) for n in (24, 48, 96)]
    verdict = fs.finiteness_verdict(spec, grids, ess, est)
    assert verdict.verdict == "finite-predicted", verdict

    # boundary case alpha=2, beta=1, gamma=1, d=1: 3 < 3 fails, inconclusive
    spec_b = synthetic_power_model(beta=1.0, gamma=1.0)
    g_b = fs.make_grid(1, spec_b.a, 24)
    ess_b = fs.essential_spectrum(spec_b, g_b)
    t0_b = fs.locate_t0(spec_b, g_b, ess_b)
    est_b = fs.estimate_exponents(spec_b, g_b, ess_b, t0_b)
    grids_b = [fs.make_grid(1, spec_b.a, n) for n in (24, 48, 96)]
    verdict_b = fs.finiteness_verdict(spec_b, grids_b, ess_b, est_b)
    assert verdict_b.verdict == "inconclusive", verdict_b
    _ok(8, "exponent criterion on engineered ground truth")


def test_acceptance_09_full_vs_reduced_rank_bound():
    rng = np.random.default_rng(909)
    for _ in range(20):
        spec = random_trig_model(rng, with_vacuum=True)
        g = fs.make_grid(1, spec.a, 12)
        pg = fs.make_pair_grid(g)
        ess = fs.essential_spectrum(spec, g)
        z = ess.sess_min - float(rng.uniform(0.05, 1.5))
        rep = oracle_full_vs_reduced(spec, g, pg, z)
        assert rep.within_rank_bound, rep
    _ok(9, "finite-rank invariance over 20 models")


def test_acceptance_10_hs_norm_refinement(mnr):
    hs = [fs.hs_norm_k(mnr, fs.make_grid(1, mnr.a, n), -1.0) for n in (32, 64, 128)]
    d1 = abs(hs[1] - hs[0]) / abs(hs[1])
    d2 = abs(hs[2] - hs[1]) / abs(hs[2])
    assert d1 < 5e-2 and d2 < 5e-2
    assert d2 <= d1
    _ok(10, f"HS-norm Cauchy trend, rel diffs {d1:.2e}, {d2:.2e}")


def test_acceptance_11_cli_determinism(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out_e = tmp_path / f"ess-{tag}"
        out_b = tmp_path / f"bs-{tag}"
        assert cli.main(["essspec", "--model", "mnr-infinite", "--n", "32",
                         "--out", str(out_e)]) == 0
        assert cli.main(["bs-check", "--model", "mnr-infinite", "--n", "16",
                         "--z", "-0.25", "--out", str(out_b)]) == 0
        runs.append((out_e, out_b))
    (ea, ba), (eb, bb) = runs
    for name in ("sigma2.csv", "delta_profile.csv"):
        assert (ea / name).read_bytes() == (eb / name).read_bytes()
    assert (ba / "counting.csv").read_bytes() == (bb / "counting.csv").read_bytes()
    _ok(11, "byte-identical CLI outputs")
