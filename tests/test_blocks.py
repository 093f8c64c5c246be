"""The block threads: pooled and serial runs agree bit for bit, and errors keep block order."""

import dataclasses
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
from fockspectra import blocks, cli

ROOT = Path(__file__).resolve().parents[1]
BENCH_MODELS = ROOT / "bench" / "models"
D2_EMPTY = BENCH_MODELS / "d2-sigma2-empty.cfg"
D2_BOTH = BENCH_MODELS / "d2-sigma2-both.cfg"


@pytest.fixture
def pool(monkeypatch):
    """Multi-block calls run on two threads even on a one-CPU machine."""
    monkeypatch.setattr(blocks, "_cpu_count", lambda: 2)


@pytest.fixture
def helper_starts(monkeypatch):
    """The names of the helper threads that map_blocks starts, in start order."""
    starts = []

    class Counted(threading.Thread):
        def start(self):
            starts.append(self.name)
            super().start()

    monkeypatch.setattr(blocks, "threading", types.SimpleNamespace(Thread=Counted))
    return starts


@pytest.fixture
def many_blocks(pool, monkeypatch):
    """Blocks of a few rows."""
    monkeypatch.setattr(blocks, "BLOCK_ELEMENTS", 192)


def _serially(monkeypatch, fn, *args):
    """fn(*args) with one CPU claimed, so that map_blocks loops over the same blocks."""
    with monkeypatch.context() as m:
        m.setattr(blocks, "_cpu_count", lambda: 1)
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


def test_many_blocks_hold_no_per_block_state(pool):
    # the threads take block indices from one counter: no object is made per
    # block but its slice and its result, so 4000 blocks stay far below 1 MiB
    tracemalloc.start()
    try:
        assert blocks.map_blocks(lambda b: None, 4000, blocks.BLOCK_ELEMENTS) == [None] * 4000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_more_threads_than_cores_run_every_block_once(monkeypatch):
    # the threads share one counter and one result list; a lost update would
    # skip, repeat or misplace a block
    monkeypatch.setattr(blocks, "_cpu_count", lambda: 8)
    ran, out = [], []

    def fn(b):
        ran.append(b.start)
        return b.start

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: out.append(
            blocks.map_blocks(fn, 3000, blocks.BLOCK_ELEMENTS)))
        caller.start()
        caller.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert out == [list(range(3000))]
    assert sorted(ran) == list(range(3000))


def test_no_block_past_a_failed_one_starts(pool):
    # blocks past the failing one wait until it has raised, so that every
    # thread but its own is inside at most one of them when it fails
    started = []
    raised = threading.Event()

    def fn(b):
        started.append(b.start)
        if b.start == 2:
            raised.set()
            raise ValueError("block 2")
        if b.start > 2:
            raised.wait(5.0)
            time.sleep(0.01)
        return b.start

    with pytest.raises(ValueError, match="block 2"):
        blocks.map_blocks(fn, 40, blocks.BLOCK_ELEMENTS)
    assert 2 in started
    assert len([i for i in started if i > 2]) <= blocks._cpu_count() - 1


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("model", ["mnr-infinite", D2_EMPTY])
def test_pooled_kernels_equal_the_serial_map_bitwise(model, cpus, many_blocks, helper_starts,
                                                     monkeypatch):
    monkeypatch.setattr(blocks, "_cpu_count", lambda: cpus)
    spec = fs.load_model(model)
    g = fs.make_grid(spec.d, spec.a, 64 if spec.d == 1 else 8)
    assert len(blocks.row_blocks(g.n, g.n)) > 2
    pts = np.random.default_rng(3).uniform(-spec.a, spec.a, (41, spec.d))
    zs = np.linspace(-3.0, -0.5, 41)

    def assumption_a(*args):          # uncached, so that both runs compute it
        return dataclasses.astuple(fs.model.check_assumption_a.__wrapped__(*args))

    for fn, args in ((fs.delta_at_points, (spec, g, pts, -0.3)),
                     (fs.delta_at_points, (spec, g, pts, zs, True)),
                     (fs.hs_norm_t, (spec, g, -0.3)),
                     (fs.schur.delta_values, (spec, g, -0.3)),
                     (assumption_a, (spec, g))):
        started = len(helper_starts)
        pooled, serial = fn(*args), _serially(monkeypatch, fn, *args)
        np.testing.assert_array_equal(pooled, serial, strict=True)
        assert len(helper_starts) > started        # the pooled run used helpers


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
            fs.delta_at_points(mnr, g, pts[rows], zs[rows], slope=True)
        messages.append(str(one_block.value))
    assert messages[0] != messages[1]
    for run in (fs.delta_at_points,
                functools.partial(_serially, monkeypatch, fs.delta_at_points)):
        for _ in range(5):
            with pytest.raises(fs.PoleProximityError) as exc:
                run(mnr, g, pts, zs, True)
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


def test_no_traced_layer_runs_in_a_worker(pool, helper_starts, monkeypatch, tmp_path):
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
    # the commands make multi-block calls at the default block size:
    # delta_values on 576 nodes, and the shell statistics and HS trend
    for argv in (["essspec", "--model", str(D2_BOTH), "--n", "8"],
                 ["discrete", "--model", str(D2_EMPTY), "--n", "24", "--side", "below"],
                 ["finiteness", "--model", str(D2_EMPTY), "--n", "8", "--levels", "3"]):
        assert cli.main([*argv, "--out", str(tmp_path / argv[0])]) == 0, argv
    assert helper_starts
    assert {name for name, _ in calls} >= {"model.mesh_samples", "schur.delta_values",
                                           "finiteness.estimate_exponents", "cli.main"}
    assert [name for name, on_main in calls if not on_main] == []


def _run(code_or_args, tmp_path, timeout=300):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(fs.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *code_or_args], capture_output=True, text=True,
                          env=env, timeout=timeout, cwd=tmp_path)


def test_map_blocks_inside_a_worker_runs_inline(tmp_path):
    # a nested map runs its blocks on the thread of the outer block, with no helpers
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
