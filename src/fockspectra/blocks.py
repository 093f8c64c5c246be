"""Row blocks for the streamed kernels, and the thread pool that maps over them.

A streamed kernel evaluates an (m, N) sample array BLOCK_ELEMENTS samples at
a time, so its memory does not grow with m * N, and hands each block of rows
to map_blocks.  The blocks are independent (each row of a quadrature sum is
its own point), so map_blocks runs them on one worker thread per CPU of the
affinity mask: numpy releases the interpreter lock inside its large ufunc
loops, so the blocks overlap.  Results come back in block order, so every
per-row value is bit-identical to a serial loop over the same blocks.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading

# Samples per row block (2 MiB of float64, the L2 cache of one core on common
# x86 servers): a block of an (m, N) sample array has max(1, BLOCK_ELEMENTS // N)
# rows.
BLOCK_ELEMENTS = 1 << 18

_pool = None
_pool_lock = threading.Lock()
_in_worker = threading.local()


def row_blocks(n_rows: int, n_cols: int) -> list:
    """Slices of max(1, BLOCK_ELEMENTS // n_cols) rows covering range(n_rows)."""
    step = max(1, BLOCK_ELEMENTS // n_cols)
    return [slice(s, s + step) for s in range(0, n_rows, step)]


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:           # no affinity mask on this platform
        return os.cpu_count() or 1


def _mark_worker():
    _in_worker.active = True


def _executor():
    """The process-wide pool, created on the first multi-block call."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: it pulls in logging, which a one-block command never needs
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=_cpu_count(), thread_name_prefix="fockspectra",
                                       initializer=_mark_worker)
        return _pool


@functools.cache
def _keep_freed_blocks() -> None:
    """Have glibc keep freed block temporaries in one arena for reuse.

    Its defaults (mmap from 128 KiB, trim above 128 KiB, an arena per thread)
    page-fault every block's temporaries in anew: essspec at d = 2, n = 48 took
    1.2 s and 320,000 minor faults on 2 CPUs, 0.65 s and 30,000 with these.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-8, 1)                     # M_ARENA_MAX
        mallopt(-3, 8 << 20)               # M_MMAP_THRESHOLD: 4 blocks
        mallopt(-1, 12 << 20)              # M_TRIM_THRESHOLD: 6 blocks


def map_blocks(fn, n_rows: int, n_cols: int) -> list:
    """[fn(rows) for rows in row_blocks(n_rows, n_cols)], the blocks run concurrently.

    One block, one CPU, or a call from inside a worker (a nested map would
    wait on the pool it occupies) runs inline.  The results are read in
    block order, so the first failing block's exception is the one raised.
    """
    blocks = row_blocks(n_rows, n_cols)
    if len(blocks) > 1:
        _keep_freed_blocks()
    if len(blocks) <= 1 or _cpu_count() <= 1 or getattr(_in_worker, "active", False):
        return [fn(b) for b in blocks]
    return list(_executor().map(fn, blocks))
