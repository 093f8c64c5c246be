"""Row blocks for the streamed kernels, and the threads that map over them.

A streamed kernel evaluates an (m, N) sample array BLOCK_ELEMENTS samples at
a time, so its memory does not grow with m * N, and hands each block of rows
to map_blocks.  The blocks are independent (each row of a quadrature sum is
its own point), so map_blocks runs them on the calling thread and one helper
thread per further CPU of the affinity mask: numpy releases the interpreter
lock inside its large ufunc loops, so the blocks overlap.  The helpers live
for one call.  Each thread takes the next block from one shared counter and
stores its result at the block's index, so every per-row value is
bit-identical to a serial loop over the same blocks.

A kernel evaluates into the row block it owns: eval_xy hands back a new
array, and each next step writes into it (out=), as the config expressions
do with their temporaries.  So a thread holds at most two row blocks at a
time: the symbol at points one, its derivative, the symbol at the nodes and
the HS form two.  A tabulated two-point function adds two more while it
sums its bilinear terms (config._Table2D).
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
import threading

# Samples per row block (2 MiB of float64, the L2 cache of one core on common
# x86 servers): a block of an (m, N) sample array has max(1, BLOCK_ELEMENTS // N)
# rows.
BLOCK_ELEMENTS = 1 << 18

_in_block = threading.local()


def row_blocks(n_rows: int, n_cols: int) -> list:
    """Slices of max(1, BLOCK_ELEMENTS // n_cols) rows covering range(n_rows)."""
    step = max(1, BLOCK_ELEMENTS // n_cols)
    return [slice(s, s + step) for s in range(0, n_rows, step)]


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:           # no affinity mask on this platform
        return os.cpu_count() or 1


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

    One block, one CPU, or a call from inside a block runs inline.  Otherwise
    the calling thread and _cpu_count() - 1 helpers take the blocks in order;
    once a block fails no further block starts, and the exception of the
    first failing block in block order is the one raised.
    """
    blocks = row_blocks(n_rows, n_cols)
    if len(blocks) > 1:
        _keep_freed_blocks()
    threads = min(_cpu_count(), len(blocks))
    if threads <= 1 or getattr(_in_block, "active", False):
        return [fn(b) for b in blocks]
    results = [None] * len(blocks)
    errors = {}
    order = itertools.count()

    def work():
        _in_block.active = True
        try:
            for i in order:
                # unlocked: a block taken as another fails may still start,
                # but it lies past the failed one, so the raised error is the same
                if i >= len(blocks) or errors:
                    return
                try:
                    results[i] = fn(blocks[i])
                except BaseException as exc:
                    errors[i] = exc
        finally:
            _in_block.active = False

    helpers = [threading.Thread(target=work, name="fockspectra-block") for _ in range(threads - 1)]
    for h in helpers:
        h.start()
    work()
    for h in helpers:
        h.join()
    if errors:
        try:
            raise errors[min(errors)]
        finally:
            errors = None    # the traceback holds work's frame, and so this dict
    return results
