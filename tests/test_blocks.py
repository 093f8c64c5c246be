"""The block pool: pooled and serial runs agree bit for bit, and errors keep block order."""

import functools
import importlib
import importlib.util
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import fockspectra as fs
from fockspectra import blocks, cli, spectra

ROOT = Path(__file__).resolve().parents[1]
BENCH_MODELS = ROOT / "bench" / "models"
D2_EMPTY = BENCH_MODELS / "d2-sigma2-empty.cfg"
D2_BOTH = BENCH_MODELS / "d2-sigma2-both.cfg"


@pytest.fixture
def pool(monkeypatch):
    """Multi-block calls run on the pool even on a one-CPU machine."""
    monkeypatch.setattr(blocks, "_cpu_count", lambda: 2)


@pytest.fixture
def many_blocks(pool, monkeypatch):
    """Blocks of a few rows."""
    monkeypatch.setattr(blocks, "BLOCK_ELEMENTS", 192)


def _serially(monkeypatch, fn, *args):
    """fn(*args) with the pool replaced by the builtin map over the same blocks."""
    with monkeypatch.context() as m:
        m.setattr(blocks, "_executor", lambda: types.SimpleNamespace(map=map))
        return fn(*args)


def _asymmetric_model(d):
    def w2(x, y):
        x, y = (x, y) if d == 1 else (x[..., 0] + 0.3 * x[..., 1], y[..., 0] - 0.2 * y[..., 1])
        return np.sin(3.0 * x) * np.cos(2.0 * y) + x * x + 0.7 * y * y

    return fs.ModelSpec(d=d, a=1.0, w0=0.0, v0=lambda x: 0.0, w1=lambda x: 1.0,
                        v1=lambda x, y: 0.0, w2=w2)


def test_map_blocks_keeps_block_order_for_results_and_errors(pool, monkeypatch):
    monkeypatch.setattr(blocks, "BLOCK_ELEMENTS", 1)       # one row per block

    def slow_first(b):
        time.sleep(0.1 if b.start == 0 else 0.0)
        return b.start

    def fails_late_then_early(b):
        if b.start == 1:
            time.sleep(0.2)
            raise ValueError("block 1")
        if b.start == 3:
            raise ValueError("block 3")
        return b.start

    assert blocks.map_blocks(slow_first, 6, 1) == list(range(6))
    with pytest.raises(ValueError, match="block 1"):
        blocks.map_blocks(fails_late_then_early, 5, 1)


@pytest.mark.parametrize("model", ["mnr-infinite", D2_EMPTY])
def test_pooled_kernels_equal_the_serial_map_bitwise(model, many_blocks, monkeypatch):
    spec = fs.load_model(model)
    g = fs.make_grid(spec.d, spec.a, 64 if spec.d == 1 else 8)
    assert len(blocks.row_blocks(g.n, g.n)) > 2
    pts = np.random.default_rng(3).uniform(-spec.a, spec.a, (41, spec.d))
    zs = np.linspace(-3.0, -0.5, 41)
    for fn, args in ((fs.delta_at_points, (spec, g, pts, -0.3)),
                     (fs.schur.delta_and_derivative_at_points, (spec, g, pts, zs)),
                     (fs.hs_norm_t, (spec, g, -0.3)),
                     (fs.schur.delta_values, (spec, g, -0.3)),
                     (spectra._fine_range_guard, (spec, g, 257 if spec.d == 1 else 33))):
        pooled, serial = fn(*args), _serially(monkeypatch, fn, *args)
        np.testing.assert_array_equal(pooled, serial, strict=True)


@pytest.mark.parametrize("d", [1, 2])
def test_mesh_samples_w2_is_exactly_half_raw_plus_transpose(d, many_blocks):
    spec = _asymmetric_model(d)
    g = fs.make_grid(d, 1.0, 100 if d == 1 else 10)
    assert len(blocks.row_blocks(g.n, g.n)) > 2
    ms = fs.model.mesh_samples(spec, g)
    raw = fs.model.eval_xy(spec, spec.w2, g.nodes[:, None, :], g.nodes[None, :, :]).astype(float)
    np.testing.assert_array_equal(ms.W2, 0.5 * (raw + raw.T), strict=True)
    assert fs.check_assumption_a(spec, g).w2_asymmetry == float(np.max(np.abs(raw - raw.T))) > 0.1


def test_mesh_samples_d2_peak_stays_near_one_w2():
    spec = fs.load_model(D2_BOTH)
    g = fs.make_grid(2, spec.a, 48)
    tracemalloc.start()
    try:
        ms = fs.model.mesh_samples(spec, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ms.W2.nbytes


def test_pole_error_in_a_middle_block_is_the_first_in_block_order(mnr, many_blocks, monkeypatch):
    g = fs.make_grid(1, mnr.a, 64)
    pts = g.nodes
    zs = np.full(g.n, -5.0)
    for row, offset in ((10, 2e-13), (40, 7e-13)):    # blocks 3 and 13 of 3 rows
        zs[row] = float(fs.model.eval_xy(mnr, mnr.w2, pts[row], g.nodes[0])) + offset
    messages = []
    for rows in (slice(9, 12), slice(39, 42)):
        with pytest.raises(fs.PoleProximityError) as one_block:
            fs.schur.delta_and_derivative_at_points(mnr, g, pts[rows], zs[rows])
        messages.append(str(one_block.value))
    assert messages[0] != messages[1]
    for run in (fs.schur.delta_and_derivative_at_points,
                functools.partial(_serially, monkeypatch, fs.schur.delta_and_derivative_at_points)):
        for _ in range(5):
            with pytest.raises(fs.PoleProximityError) as exc:
                run(mnr, g, pts, zs)
            assert str(exc.value) == messages[0]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_is_a_callable_of_its_module():
    # a rename in src/ that the bench tracer still lists fails here, not in the benchmark
    tracer = _load_tracer()
    missing = [f"{mod_name}.{fname}" for mod_name, fnames in tracer.LAYERS.items()
               for fname in fnames
               if not callable(getattr(importlib.import_module(f"fockspectra.{mod_name}"),
                                       fname, None))]
    assert missing == []


def test_no_traced_layer_runs_in_a_worker(pool, monkeypatch, tmp_path):
    # the bench tracer keeps one global span stack, so its layers stay on the caller's thread
    tracer = _load_tracer()
    layers = {}
    for mod_name, fnames in tracer.LAYERS.items():
        mod = importlib.import_module(f"fockspectra.{mod_name}")
        layers.update({id(getattr(mod, f)): f"{mod_name}.{f}" for f in fnames})
    calls = []

    def recording(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)
        return wrapper

    for mod in tracer.fockspectra_modules():
        for attr, value in list(vars(mod).items()):
            if id(value) in layers:
                monkeypatch.setattr(mod, attr, recording(layers[id(value)], value))
    pooled = []
    executor = blocks._executor
    monkeypatch.setattr(blocks, "_executor", lambda: pooled.append(1) or executor())
    # each command makes multi-block calls at the default block size: the range
    # guard, delta_values on 576 nodes, and the shell statistics and HS trend
    for argv in (["essspec", "--model", str(D2_BOTH), "--n", "8"],
                 ["discrete", "--model", str(D2_EMPTY), "--n", "24", "--side", "below"],
                 ["finiteness", "--model", str(D2_EMPTY), "--n", "8", "--levels", "3"]):
        assert cli.main([*argv, "--out", str(tmp_path / argv[0])]) == 0, argv
    assert pooled
    assert {name for name, _ in calls} >= {"model.mesh_samples", "schur.delta_values",
                                           "finiteness.estimate_exponents", "cli.main"}
    assert [name for name, on_main in calls if not on_main] == []


def _run(code_or_args, tmp_path, timeout=300):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(fs.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *code_or_args], capture_output=True, text=True,
                          env=env, timeout=timeout, cwd=tmp_path)


def test_map_blocks_inside_a_worker_runs_inline(tmp_path):
    # queued behind the outer blocks on a saturated pool, a nested map would never run
    proc = _run(["-c", "from fockspectra import blocks\n"
                       "blocks.BLOCK_ELEMENTS, blocks._cpu_count = 1, lambda: 2\n"
                       "inner = lambda b: sum(blocks.map_blocks(lambda c: c.start, 4, 1))\n"
                       "print(blocks.map_blocks(inner, 4, 1))\n"], tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[6, 6, 6, 6]"


def test_import_and_one_block_calls_start_no_thread(tmp_path):
    proc = _run(["-c", "import threading\n"
                       "import fockspectra as fs\n"
                       "print(threading.active_count())\n"
                       "spec = fs.load_model('mnr-infinite')\n"
                       "fs.delta_at(spec, fs.make_grid(1, spec.a, 16), 0.0, -1.0)\n"
                       "print(threading.active_count())\n"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


def test_d2_finiteness_exits_cleanly_with_the_pool_running(tmp_path):
    proc = _run(["-m", "fockspectra.cli", "finiteness", "--model", str(D2_EMPTY), "--n", "8",
                 "--levels", "3", "--out", "out"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "verdict:" in (tmp_path / "out" / "report.txt").read_text()
